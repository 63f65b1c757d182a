"""Decide and build graph realizations of universal-cover neighborhood collections.

Given rooted unlabeled trees t_0, ..., t_{n-1} of depth at most h, the
library decides whether some simple graph G on n vertices has, at every
vertex i, a radius-h ball in its universal cover isomorphic to t_i, builds
such a G when one exists, and verifies the construction by unfolding G's
non-backtracking walks directly.
"""

from .edge_types import EdgeType, TypeClass, TypedDegreeTable, build_table
from .errors import (
    DepthError,
    GraphFormatError,
    InternalInfeasible,
    InternalInvariantError,
    NotGraphical,
    ParseError,
    SimplicityViolation,
    SizeError,
    UnicoverError,
)
from .graphs import Digraph, SimpleGraph, read_graph, to_dot, write_graph
from .oracle import (
    Disagreement,
    OracleReport,
    cross_validate,
    enumerate_digraphs,
    enumerate_graphs,
    exists_realization_bruteforce,
    mutate_collection,
)
from .realize import EdgeTag, TaggedGraph, glue, havel_hakimi, kleitman_wang, realize_neighborhood
from .sequences import (
    FailureKind,
    FailureRecord,
    Verdict,
    check_neighborhood,
    erdos_gallai,
    fulkerson_chen_anstee,
)
from .trees import (
    RootedTree,
    canonical_code,
    parse_tree,
    read_collection,
    truncate,
    write_collection,
)
from .unfold import cover_ball, first_mismatch, neighborhood_collection, verify_realization

__version__ = "0.1.0"

__all__ = [
    "DepthError",
    "Digraph",
    "Disagreement",
    "EdgeTag",
    "EdgeType",
    "FailureKind",
    "FailureRecord",
    "GraphFormatError",
    "InternalInfeasible",
    "InternalInvariantError",
    "NotGraphical",
    "OracleReport",
    "ParseError",
    "RootedTree",
    "SimpleGraph",
    "SimplicityViolation",
    "SizeError",
    "TaggedGraph",
    "TypeClass",
    "TypedDegreeTable",
    "UnicoverError",
    "Verdict",
    "build_table",
    "canonical_code",
    "check_neighborhood",
    "cover_ball",
    "cross_validate",
    "enumerate_digraphs",
    "enumerate_graphs",
    "erdos_gallai",
    "exists_realization_bruteforce",
    "first_mismatch",
    "fulkerson_chen_anstee",
    "glue",
    "havel_hakimi",
    "kleitman_wang",
    "mutate_collection",
    "neighborhood_collection",
    "parse_tree",
    "read_collection",
    "read_graph",
    "realize_neighborhood",
    "to_dot",
    "truncate",
    "verify_realization",
    "write_collection",
    "write_graph",
]
