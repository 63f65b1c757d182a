"""Decide and build graph realizations of universal-cover neighborhood collections.

Given rooted unlabeled trees t_0, ..., t_{n-1} of depth at most h, the
library decides whether some simple graph G on n vertices has, at every
vertex i, a radius-h ball in its universal cover isomorphic to t_i, builds
such a G when one exists, and verifies the construction by unfolding G's
non-backtracking walks directly.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The home submodule of each export.  A submodule is imported on the first
# lookup of one of its names (PEP 562), so `import unicover` alone loads
# none of them and a CLI process loads only what its command uses.
_HOMES = {
    "edge_types": "EdgeType TypeClass TypedDegreeTable build_table",
    "errors": "DepthError GraphFormatError InternalInfeasible InternalInvariantError NotGraphical"
    " ParseError SimplicityViolation SizeError UnicoverError",
    "graphs": "SimpleGraph read_graph to_dot write_graph",
    "oracle": "Disagreement OracleReport cross_validate enumerate_graphs"
    " exists_realization_bruteforce mutate_collection",
    "realize": "glue havel_hakimi kleitman_wang realize_neighborhood",
    "sequences": "FailureKind FailureRecord Verdict check_neighborhood erdos_gallai",
    "trees": "RootedTree canonical_code parse_tree read_collection truncate write_collection",
    "unfold": "cover_ball first_mismatch neighborhood_collection verify_realization",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
