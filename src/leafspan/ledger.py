"""Exact accounting of the tree-growing potential and per-step profit.

The potential of a partial tree F inside G is

    13/15 * leaves(F) + 2/15 * dead_leaves(F) - cost(V(F)),

and every construction step changes it by exactly

    13/15 * du + 2/15 * db - 2/5 * dt - 1/5 * ds,

the step's profit (du/db: leaf and dead-leaf deltas; dt/ds: added
vertices of degree >=4 / degree 3).  Records store their profit
explicitly so tampering with any count is detectable, and the catalog
floor table lets an audit confirm each executed step performed at least
as well as its case analysis promises.

Bookkeeping convention: a labeled record carries its case's nominal
dead-leaf count and exact structural leaf delta; every dead leaf beyond
the nominal count is logged as its own Z0 record (0, +1 for profit
2/15).  Under this convention the quantity profit + 2*(du - db) is
invariant, which makes the stricter end-game rate table (where the
guaranteed late death is folded into the row) equivalent to the base
catalog floors checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Fifteenths, Graph, cost15
from .trees import SpanningTree

LEAF_GAIN15 = 13
DEAD_GAIN15 = 2


def profit15_of(du: int, db: int, dt: int, ds: int) -> int:
    return LEAF_GAIN15 * du + DEAD_GAIN15 * db - 6 * dt - 3 * ds


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

    @property
    def total_alpha(self) -> Fifteenths:
        return Fifteenths(self.base.profit15 + sum(r.profit15 for r in self.steps))

    def log_lines(self) -> list[str]:
        return [self.base.log_line()] + [r.log_line() for r in self.steps]


def alpha_prime(g: Graph, f) -> Fifteenths:
    """Potential of a partial tree; `f` needs leaf/dead/vertex accessors."""
    u = f.leaf_count()
    b = len(f.dead)
    return Fifteenths(LEAF_GAIN15 * u + DEAD_GAIN15 * b - cost15(g, f.vertices))


@dataclass(frozen=True)
class LedgerAudit:
    ok: bool
    first_bad_index: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def verify_ledger(g: Graph, ledger: Ledger, final_tree: SpanningTree) -> LedgerAudit:
    """Audit: profits match their deltas and telescope to leaves - cost(g)."""
    if not ledger.base.consistent:
        return LedgerAudit(False, -1, "base record profit mismatch")
    for i, rec in enumerate(ledger.steps):
        if not rec.consistent:
            return LedgerAudit(False, i, f"step {i} ({rec.label}) profit mismatch")
    target = 15 * final_tree.leaf_count() - cost15(g)
    total = ledger.base.profit15 + sum(r.profit15 for r in ledger.steps)
    if total != target:
        return LedgerAudit(
            False, None, f"total {total}/15 != leaves - cost = {target}/15"
        )
    return LedgerAudit(True)


# Per-label floors: (exact du-db of the case, minimum 15*profit).  The du-db
# column is exact under the nominal-death convention; profit can only exceed
# the floor (added vertices may be cheaper than the worst case).
TABLE_FLOORS: dict[str, tuple[int, int]] = {
    "A1": (1, 7),
    "A2": (1, 1),
    "A3": (2, 2),
    "A4": (1, 1),
    "M1": (0, 3),
    "N1": (1, 4),
    "M2": (2, 5),
    "N2": (3, 6),
    "M3.1": (-4, 5),
    "N3.1": (-3, 6),
    "M3.2": (-2, 4),
    "N3.2": (-1, 5),
    "M4.1.1": (-1, 2),
    "N4.1.1": (0, 3),
    "M4.1.2": (0, 3),
    "N4.1.2": (1, 4),
    "M4.2": (1, 1),
    "N4.2": (2, 2),
    "M4.3": (0, 0),
    "N4.3": (1, 1),
    "M4.4": (3, 6),
    "N4.4": (4, 7),
    "M4.5.1": (0, 3),
    "N4.5.1": (1, 4),
    "M4.5.2": (2, 2),
    "N4.5.2": (3, 3),
    "M4.5.3": (1, 1),
    "N4.5.3": (2, 2),
    "M4.5.4": (3, 0),
    "N4.5.4": (4, 1),
    "M4.5.4.1": (1, 4),
    "N4.5.4.1": (2, 5),
    "M4.5.4.2": (2, 5),
    "N4.5.4.2": (3, 6),
    "M4.5.5": (-2, 1),
    "N4.5.5": (-1, 2),
    "Z0": (-1, 2),
    "Z1.1": (-4, 2),
    "Z1.2": (-3, 3),
    "Z2.1": (-5, 1),
    "Z2.2": (-6, 0),
    "Z3.1": (-2, 1),
    "Z3.2": (-3, 0),
}


def table_violations(ledger: Ledger) -> list[tuple[int, str]]:
    """Catalog-conformance failures as (step index, description) pairs.

    Checks, for every record whose label has a catalog row: the exact
    du-db of the row, the profit floor, and non-negative profit for
    composite M/N steps.  Uncataloged labels (base records, Z4 splits,
    lift undo records, degree-capped Z1.3) are audited by the telescoping
    check instead.
    """
    bad: list[tuple[int, str]] = []
    for i, rec in enumerate(ledger.steps):
        if rec.label.startswith(("M", "N")) and rec.profit15 < 0:
            bad.append((i, f"{rec.label}: negative composite profit"))
        if rec.label == "Z1.3":
            if rec.du != 0 or rec.profit15 < 2 * rec.db:
                bad.append((i, "Z1.3: deltas below floor"))
            continue
        row = TABLE_FLOORS.get(rec.label)
        if row is None:
            continue
        want_dudb, floor = row
        if rec.du - rec.db != want_dudb:
            bad.append(
                (i, f"{rec.label}: du-db {rec.du - rec.db} != {want_dudb}")
            )
        if rec.profit15 < floor:
            bad.append((i, f"{rec.label}: profit {rec.profit15} < floor {floor}"))
    return bad
