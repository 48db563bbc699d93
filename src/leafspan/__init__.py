"""Spanning trees with provably many leaves.

Every connected graph with s vertices of degree 3 and t vertices of
degree at least 4 has a spanning tree with at least 2/5 t + 1/5 s + 2
leaves, except for three small 4-regular graphs where the constant drops
to 8/5.  This package constructs such trees, audits the construction
with exact 1/15-unit arithmetic, and cross-checks against an exact
search oracle on small graphs.
"""

from .builder import BuildReport, EngineDefect, build
from .families import (
    GenerationError,
    g8,
    h_graph,
    random_connected,
    square_of_cycle,
)
from .graph import (
    Fifteenths,
    Graph,
    cost15,
    degree_counts,
)
from .ledger import (
    Ledger,
    LedgerAudit,
    StepRecord,
    table_violations,
    verify_ledger,
)
from .oracle import (
    ORACLE_MAX_N,
    ExclusionKind,
    OracleBudgetError,
    classify_exclusion,
    exact_u,
    max_leaf_tree,
)
from .reduction import (
    ReductionEvent,
    lift_tree_logged,
    reduce_fully,
    replay,
)
from .trees import SpanningTree, check_spanning_tree

__all__ = [
    "BuildReport",
    "EngineDefect",
    "ExclusionKind",
    "Fifteenths",
    "GenerationError",
    "Graph",
    "Ledger",
    "LedgerAudit",
    "ORACLE_MAX_N",
    "OracleBudgetError",
    "ReductionEvent",
    "SpanningTree",
    "StepRecord",
    "build",
    "check_spanning_tree",
    "classify_exclusion",
    "cost15",
    "degree_counts",
    "exact_u",
    "g8",
    "h_graph",
    "lift_tree_logged",
    "max_leaf_tree",
    "random_connected",
    "reduce_fully",
    "replay",
    "square_of_cycle",
    "table_violations",
    "verify_ledger",
]
