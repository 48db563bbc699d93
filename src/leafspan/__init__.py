"""Spanning trees with provably many leaves.

Every connected graph with s vertices of degree 3 and t vertices of
degree at least 4 has a spanning tree with at least 2/5 t + 1/5 s + 2
leaves, except for three small 4-regular graphs where the constant drops
to 8/5.  This package constructs such trees, audits the construction
with exact 1/15-unit arithmetic, and cross-checks against an exact
search oracle on small graphs.
"""

from .builder import (
    BuildReport,
    EngineDefect,
    PartialTree,
    StalePlanError,
    StepPlan,
    apply_step,
    build,
    choose_bases,
    levels,
    next_step,
    split_z4,
)
from .families import (
    GenerationError,
    enumerate_regular_graphs,
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
    is_isomorphic,
)
from .ledger import (
    Ledger,
    LedgerAudit,
    StepRecord,
    alpha_prime,
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
    min_cds,
    tree_from_cds,
)
from .reduction import (
    ReductionEvent,
    apply_event,
    find_reduction,
    lift_tree_logged,
    reduce_fully,
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
    "PartialTree",
    "ReductionEvent",
    "SpanningTree",
    "StalePlanError",
    "StepPlan",
    "StepRecord",
    "alpha_prime",
    "apply_event",
    "apply_step",
    "build",
    "check_spanning_tree",
    "choose_bases",
    "classify_exclusion",
    "cost15",
    "degree_counts",
    "enumerate_regular_graphs",
    "exact_u",
    "find_reduction",
    "g8",
    "h_graph",
    "is_isomorphic",
    "levels",
    "lift_tree_logged",
    "max_leaf_tree",
    "min_cds",
    "next_step",
    "random_connected",
    "reduce_fully",
    "split_z4",
    "square_of_cycle",
    "table_violations",
    "tree_from_cds",
    "verify_ledger",
]
