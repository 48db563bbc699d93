"""Exact accounting of the tree-growing potential and per-step profit.

The potential of a partial tree F inside G is

    13/15 * leaves(F) + 2/15 * dead_leaves(F) - cost(V(F)),

and every construction step changes it by exactly

    13/15 * du + 2/15 * db - 2/5 * dt - 1/5 * ds,

the step's profit (du/db: leaf and dead-leaf deltas; dt/ds: added
vertices of degree >=4 / degree 3).  A step's record holds its measured
deltas, every leaf the step killed among them, and stores its profit
explicitly so tampering with any count is detectable.  The catalog table
and its one rule, `row_faults`, let an audit confirm each executed step
made its row's leaf delta and at least its row's deaths, and performed
at least as well as its case analysis promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import countOf

from .graph import S_COST15, T_COST15, Fifteenths, Graph
from .trees import SpanningTree

LEAF_GAIN15 = 13
DEAD_GAIN15 = 2


def profit15_of(du: int, db: int, dt: int, ds: int) -> int:
    return LEAF_GAIN15 * du + DEAD_GAIN15 * db - T_COST15 * dt - S_COST15 * ds


@dataclass(frozen=True)
class StepRecord:
    """One executed step: case label, deltas, and its (stored) profit."""

    label: str
    du: int
    db: int
    dt: int
    ds: int
    profit15: int
    added_vertices: tuple[int, ...] = ()

    @classmethod
    def make(cls, label, du, db, dt, ds, added=()) -> "StepRecord":
        return cls(label, du, db, dt, ds, profit15_of(du, db, dt, ds), tuple(added))

    @property
    def consistent(self) -> bool:
        return self.profit15 == profit15_of(self.du, self.db, self.dt, self.ds)

    def log_line(self) -> str:
        return f"{self.label} {self.du} {self.db} {self.dt} {self.ds} {self.profit15}"


@dataclass
class Ledger:
    """Base-tree record plus the ordered step log of one build."""

    base: StepRecord
    steps: list[StepRecord]

    def log_lines(self) -> list[str]:
        return [self.base.log_line()] + [r.log_line() for r in self.steps]


def alpha_prime(g: Graph, f) -> Fifteenths:
    """Potential of a partial tree `f`, recounted from scratch.

    Leaves are counted from the `f.parent` links, which map the root
    `f.root` to -1 and every other tree vertex to its parent, and the cost is
    summed over `f.vertices` from the graph's per-vertex costs; nothing is
    read from the counts a `PartialTree` keeps, so this is the reference
    those counts are checked against.
    """
    links = f.parent
    # a vertex that is no vertex's parent is a leaf, unless it is the root;
    # the root is a leaf when it is the parent of exactly one vertex
    root_kids = countOf(links.values(), f.root)
    u = len(links.keys() - links.values()) - (root_kids == 0) + (root_kids == 1)
    b = len(f.dead)
    cost = sum(map(g.costs15.__getitem__, f.vertices))
    return Fifteenths(LEAF_GAIN15 * u + DEAD_GAIN15 * b - cost)


@dataclass(frozen=True)
class LedgerAudit:
    ok: bool
    first_bad_index: int | None = None
    reason: str = ""


def verify_ledger(g: Graph, ledger: Ledger, final_tree: SpanningTree) -> LedgerAudit:
    """Audit: profits match their deltas and telescope to leaves - cost(g)."""
    if not ledger.base.consistent:
        return LedgerAudit(False, -1, "base record profit mismatch")
    for i, rec in enumerate(ledger.steps):
        if not rec.consistent:
            return LedgerAudit(False, i, f"step {i} ({rec.label}) profit mismatch")
    target = 15 * final_tree.leaf_count() - g.cost15
    total = ledger.base.profit15 + sum(r.profit15 for r in ledger.steps)
    if total != target:
        return LedgerAudit(
            False, None, f"total {total}/15 != leaves - cost = {target}/15"
        )
    return LedgerAudit(True)


# The step catalog, one row for every label a ledger step may carry: (exact
# du, least db, minimum 15*profit at that db).  A step's db counts every leaf
# it killed, and a death beyond the row's db adds 2/15 that the row's case
# analysis does not count on, so the floor is checked on the profit without
# it; profit can only exceed the floor (added vertices may be cheaper than
# the worst case).  `row_faults` states the rule; the engine's `_commit`
# applies it to each step it commits.  Z1.3.1 and Z1.3.2 add a dead-end
# fringe vertex of degree 1 and 2.  The lift logs an undo only when it gains
# a leaf, with du = db = its gain, and every gain is 0 or 1: the two vertices
# an undo touches end adjacent, so at most one of them is a leaf.  Z4 states
# only its floor: a split's du and db are measured when it is committed.
TABLE_FLOORS: dict[str, tuple[int | None, int | None, int]] = {
    "A1": (1, 0, 7),
    "A2": (1, 0, 1),
    "A3": (2, 0, 2),
    "A4": (2, 1, 1),
    "M1": (1, 1, 3),
    "M2": (3, 1, 5),
    "M3.1": (1, 5, 5),
    "M3.2": (1, 3, 4),
    "M4.1.1": (2, 3, 2),
    "M4.1.2": (2, 2, 3),
    "M4.2": (2, 1, 1),
    "M4.3": (2, 2, 0),
    "M4.4": (4, 1, 6),
    "M4.5.1": (3, 3, 3),
    "M4.5.2": (3, 1, 2),
    "M4.5.3": (3, 2, 1),
    "M4.5.4": (4, 1, 0),
    "M4.5.4.1": (4, 3, 4),
    "M4.5.4.2": (4, 2, 5),
    "M4.5.5": (3, 5, 1),
    "Z1.1": (0, 4, 2),
    "Z1.2": (0, 3, 3),
    "Z1.3.1": (0, 1, 2),
    "Z1.3.2": (0, 2, 4),
    "Z2.1": (0, 5, 1),
    "Z2.2": (0, 6, 0),
    "Z3.1": (0, 2, 1),
    "Z3.2": (0, 3, 0),
    "Z4": (None, None, 0),
    "R1-undo": (1, 1, 15),
    "R2-undo": (1, 1, 15),
}
# An N case is its M case with a degree-3 root: one prefix death fewer and
# 3/15 less cost, so the floor is 1/15 higher (-2 + 3).
TABLE_FLOORS |= {
    "N" + k[1:]: (du, db - 1, f + 1)
    for k, (du, db, f) in TABLE_FLOORS.items() if k[0] == "M"
}


def row_faults(rec: StepRecord) -> list[str]:
    """How a step record breaks its catalog row, [] when it keeps it.

    The one row rule: the label has a row, du equals the row's du wherever
    the row states one (every row but Z4's), db is at least the row's db,
    and the nominal profit, the profit less 2/15 for each death beyond the
    row's db, reaches the row's floor.  Z4 states no db, so its nominal
    profit is its whole profit.  No M/N floor is negative, so every
    composite lands with non-negative profit.
    """
    label = rec.label
    row = TABLE_FLOORS.get(label)
    if row is None:
        return [f"{label}: no catalog row"]
    du, db, floor = row
    faults = []
    if du is not None and rec.du != du:
        faults.append(f"{label}: leaf delta {rec.du} != nominal {du}")
    if db is None:
        db = rec.db
    elif rec.db < db:
        faults.append(f"{label}: only {rec.db} deaths, promised {db}")
    nominal = rec.profit15 - DEAD_GAIN15 * (rec.db - db)
    if nominal < floor:
        faults.append(f"{label}: nominal profit {nominal} < floor {floor}")
    return faults


def table_violations(ledger: Ledger) -> list[tuple[int, str]]:
    """Catalog-conformance failures as (step index, description) pairs:
    every fault `row_faults` finds in every step record."""
    return [
        (i, fault) for i, rec in enumerate(ledger.steps) for fault in row_faults(rec)
    ]
