"""Exception hierarchy.

Input problems (bad text, bad depth, oversized brute-force requests) raise
subclasses of :class:`UnicoverError`.  Violations of internal invariants that
the pipeline guarantees can never happen on validated inputs raise subclasses
of :class:`InternalInvariantError`; seeing one of those is a bug, not a usage
error.
"""

from __future__ import annotations


class UnicoverError(Exception):
    """Base class for all library-specific errors."""


class ParseError(UnicoverError):
    """Malformed tree text (unbalanced, empty, or stray characters)."""


class GraphFormatError(UnicoverError):
    """Malformed graph file (bad header, bad edge line, loop, duplicate)."""


class DepthError(UnicoverError):
    """A tree is deeper than the depth bound of the operation."""

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = tuple(indices)


class SizeError(UnicoverError):
    """A brute-force enumeration was requested above its size cap."""


class NotGraphical(UnicoverError):
    """The collection fails the degree conditions; carries the verdict."""

    def __init__(self, verdict):
        self.verdict = verdict
        count = len(verdict.failures)
        plural = "" if count == 1 else "s"
        super().__init__(f"collection is not graphical ({count} failing condition{plural})")


class InternalInvariantError(UnicoverError):
    """An invariant the pipeline guarantees was observed to fail."""


class SimplicityViolation(InternalInvariantError):
    """Glued parts gave the same vertex pair twice."""


class InternalInfeasible(InternalInvariantError):
    """A greedy realizer got stuck on an input that passed its feasibility check."""
