"""Greedy dead-vertex construction of spanning trees with many leaves.

A build runs: reduce the graph to a fixpoint of the degree-preserving
rules, handle the three small 4-regular exception graphs by exact
search, otherwise pick base trees by a prioritized case analysis
(B1..B7), grow each base with the prioritized step catalog below, keep
the best result, and lift it back through the reduction trace.

Step catalog, tried strictly in order each round (first match wins):

  A1  attach an outside vertex to a non-pendant tree vertex
  A2  attach two outside neighbors of one tree vertex
  A3  pull in a fringe vertex with >= 3 outside neighbors, plus three of them
  A4  degree-3 fringe vertex whose lone outside neighbor sits one layer deeper
  M/N composite chains rooted at a fringe vertex with exactly two outside
      neighbors (M: degree >= 4 root, N: degree 3); the continuation is
      planned through sub-cases 1..4.5.5 before anything is committed so
      each composite lands with non-negative profit
  Z1-Z3 dead-end moves that add no alive leaf but kill several
  Z4  cut the fringe, recursively span the outside, reattach components

Every committed step appends records to the ledger; extra dead leaves
beyond a case's nominal count become explicit Z0 records.  The final
bound leaves >= cost + 2 (cost + 8/5 for the exceptions) is re-checked
on every build; if the engine misses it the driver retries from a brute
ensemble of star bases and finally falls back to exact search on small
graphs, flagging the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Fifteenths, Graph, cost15, degree_counts
from .ledger import Ledger, StepRecord, alpha_prime
from .oracle import (
    ORACLE_MAX_N,
    ExclusionKind,
    classify_exclusion,
    max_leaf_tree,
)
from .reduction import ReductionEvent, apply_event, lift_tree_logged, reduce_fully
from .trees import SpanningTree, edge_key


class EngineDefect(RuntimeError):
    """A case guarantee failed at runtime; signals an implementation bug."""


class StalePlanError(ValueError):
    """A step plan was applied to a tree state it was not produced from."""


class PartialTree:
    """Tree under construction: parent links, dead-leaf marks, outside set."""

    def __init__(self, g: Graph, root: int) -> None:
        self.g = g
        self.vertices: set[int] = {root}
        self.parent: dict[int, int] = {root: -1}
        self.children: dict[int, set[int]] = {root: set()}
        self.dead: set[int] = set()
        self.outside: set[int] = set(range(g.n)) - {root}

    def copy(self) -> "PartialTree":
        other = PartialTree.__new__(PartialTree)
        other.g = self.g
        other.vertices = set(self.vertices)
        other.parent = dict(self.parent)
        other.children = {v: set(c) for v, c in self.children.items()}
        other.dead = set(self.dead)
        other.outside = set(self.outside)
        return other

    def tree_degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if self.parent[v] == -1 else 1)

    def leaf_count(self) -> int:
        return sum(1 for v in self.vertices if self.tree_degree(v) == 1)

    def attach(self, parent: int, child: int) -> None:
        if parent not in self.vertices:
            raise ValueError(f"parent {parent} not in tree")
        if child not in self.outside:
            raise ValueError(f"child {child} not outside the tree")
        if not self.g.has_edge(parent, child):
            raise ValueError(f"({parent},{child}) is not a graph edge")
        if parent in self.dead:
            raise ValueError(f"parent {parent} is a dead leaf")
        self.vertices.add(child)
        self.outside.remove(child)
        self.parent[child] = parent
        self.children[child] = set()
        self.children[parent].add(child)

    def sweep_dead(self) -> list[int]:
        """Mark every alive leaf whose whole neighborhood is in the tree."""
        newly = []
        for v in self.vertices:
            if v in self.dead or self.tree_degree(v) != 1:
                continue
            if self.g.adj[v] <= self.vertices:
                newly.append(v)
        self.dead.update(newly)
        return newly

    def spans(self) -> bool:
        return not self.outside

    def edge_set(self) -> set[tuple[int, int]]:
        return {
            edge_key(v, p) for v, p in self.parent.items() if p != -1
        }


def levels(g: Graph, f: PartialTree) -> tuple[set[int], set[int]]:
    """Outside vertices adjacent to the tree, and those one step further."""
    level1 = {v for v in f.outside if g.adj[v] & f.vertices}
    level2 = {
        v for v in f.outside - level1 if g.adj[v] & level1
    }
    return level1, level2


@dataclass(frozen=True)
class StepPlan:
    """A fully resolved step: ordered attachments plus nominal deltas."""

    label: str
    attachments: tuple[tuple[int, int], ...]
    nominal_du: int
    nominal_db: int


# ---------------------------------------------------------------------------
# base trees


def star_base(g: Graph, center: int) -> PartialTree:
    f = PartialTree(g, center)
    for v in sorted(g.adj[center]):
        f.attach(center, v)
    f.sweep_dead()
    return f


def double_star_base(g: Graph, a: int, b: int) -> PartialTree:
    if g.adj[a] & g.adj[b]:
        raise ValueError("double star needs disjoint neighborhoods")
    f = PartialTree(g, a)
    f.attach(a, b)
    for v in sorted(g.adj[a] - {b}):
        f.attach(a, v)
    for v in sorted(g.adj[b] - {a}):
        f.attach(b, v)
    f.sweep_dead()
    return f


def choose_bases(g: Graph) -> list[tuple[PartialTree, str]]:
    """All base-tree instances of the first applicable case B1..B7.

    B1: adjacent pair of degree->=4 vertices with disjoint neighborhoods
        (double star).  B2: degree->=4 vertex next to a vertex of degree
        <= 2 (star).  B3: vertex of degree >= 5 (star).  B4: degree-3
        vertex next to degree <= 2 (star).  B5: adjacent degree-4 /
        degree-3 pair with disjoint neighborhoods (double star).  B6: no
        degree-4 vertex, so 3-regular (stars everywhere).  B7: stars at
        every degree-4 vertex.
    """
    t_set = [v for v in range(g.n) if g.degree(v) >= 4]
    s_set = [v for v in range(g.n) if g.degree(v) == 3]

    b1 = [
        (a, a2)
        for a in t_set
        for a2 in sorted(g.adj[a])
        if a2 > a and g.degree(a2) >= 4 and not (g.adj[a] & g.adj[a2])
    ]
    if b1:
        return [(double_star_base(g, a, a2), "B1") for a, a2 in b1]

    b2 = [a for a in t_set if any(g.degree(v) <= 2 for v in g.adj[a])]
    if b2:
        return [(star_base(g, a), "B2") for a in b2]

    b3 = [a for a in range(g.n) if g.degree(a) >= 5]
    if b3:
        return [(star_base(g, a), "B3") for a in b3]

    b4 = [x for x in s_set if any(g.degree(v) <= 2 for v in g.adj[x])]
    if b4:
        return [(star_base(g, x), "B4") for x in b4]

    if any(g.degree(v) <= 2 for v in range(g.n)):
        raise EngineDefect("low-degree vertex survived the base case sieve")

    b5 = [
        (a, b)
        for a in t_set
        for b in sorted(g.adj[a])
        if g.degree(b) == 3 and not (g.adj[a] & g.adj[b])
    ]
    if b5:
        return [(double_star_base(g, a, b), "B5") for a, b in b5]

    if not t_set:
        return [(star_base(g, v), "B6") for v in range(g.n)]
    return [(star_base(g, a), "B7") for a in t_set]


# ---------------------------------------------------------------------------
# step selection


def next_step(g: Graph, f: PartialTree) -> StepPlan | None:
    """First applicable step of the catalog, fully planned; None when spanning."""
    if f.spans():
        return None
    outside = f.outside

    for x in sorted(f.vertices):
        if f.tree_degree(x) >= 2:
            frontier = sorted(g.adj[x] & outside)
            if frontier:
                return StepPlan("A1", ((x, frontier[0]),), 1, 0)

    for x in sorted(f.vertices):
        frontier = sorted(g.adj[x] & outside)
        if len(frontier) >= 2:
            return StepPlan("A2", ((x, frontier[0]), (x, frontier[1])), 1, 0)

    level1, level2 = levels(g, f)

    for x in sorted(level1):
        frontier = sorted(g.adj[x] & outside)
        if len(frontier) >= 3:
            anchor = min(g.adj[x] & f.vertices)
            att = ((anchor, x), (x, frontier[0]), (x, frontier[1]), (x, frontier[2]))
            return StepPlan("A3", att, 2, 0)

    for x in sorted(level1):
        if g.degree(x) != 3:
            continue
        frontier = sorted(g.adj[x] & outside)
        if len(frontier) != 1:
            continue
        y = frontier[0]
        if g.degree(y) >= 4 and y in level2:
            grand = sorted(g.adj[y] - {x})[:3]
            anchor = min(g.adj[x] & f.vertices)
            att = ((anchor, x), (x, y)) + tuple((y, w) for w in grand)
            return StepPlan("A4", att, 2, 1)

    for kind, wants_t in (("M", True), ("N", False)):
        for x in sorted(level1):
            right_class = g.degree(x) >= 4 if wants_t else g.degree(x) == 3
            if right_class and len(g.adj[x] & outside) == 2:
                return _plan_chain(g, f, x, kind)

    for w in sorted(level1):
        if g.adj[w] & outside:
            continue
        anchor = min(g.adj[w] & f.vertices)
        d = g.degree(w)
        if d >= 4:
            label, db = "Z1.1", 4
        elif d == 3:
            label, db = "Z1.2", 3
        else:
            label, db = "Z1.3", d
        return StepPlan(label, ((anchor, w),), 0, db)

    pair = None
    for v in sorted(level1):
        mates = sorted(w for w in g.adj[v] & level1 if w > v)
        if mates:
            pair = (v, mates[0])
            break
    if pair is not None:
        v, w = pair
        dv, dw = g.degree(v), g.degree(w)
        if dv <= 2 or dw <= 2:
            raise EngineDefect("degree-2 vertex in an adjacent fringe pair")
        if dv == 3 and dw == 3:
            raise EngineDefect("adjacent degree-3 fringe pair in a reduced graph")
        anchor_v = min(g.adj[v] & f.vertices)
        anchor_w = min(g.adj[w] & f.vertices)
        if anchor_v == anchor_w:
            raise EngineDefect("fringe pair shares an anchor leaf")
        label = "Z2.2" if (dv >= 4 and dw >= 4) else "Z2.1"
        db = 6 if label == "Z2.2" else 5
        return StepPlan(label, ((anchor_v, v), (anchor_w, w)), 0, db)

    for w in sorted(level1):
        frontier = sorted(g.adj[w] & outside)
        if len(frontier) != 1:
            raise EngineDefect("fringe vertex with several outside neighbors at Z3")
        v = frontier[0]
        if g.degree(v) <= 2:
            dw = g.degree(w)
            if dw == 3:
                label, db = "Z3.1", 2
            elif dw >= 4:
                label, db = "Z3.2", 3
            else:
                raise EngineDefect("degree-2 fringe vertex at Z3")
            anchor = min(g.adj[w] & f.vertices)
            return StepPlan(label, ((anchor, w), (w, v)), 0, db)

    return StepPlan("Z4", (), 0, 0)


def _plan_chain(g: Graph, f: PartialTree, x: int, kind: str) -> StepPlan:
    """Resolve a composite chain rooted at fringe vertex x before committing.

    The root is attached to its smallest tree neighbor and then grown
    through the sub-case ladder; every set below is taken with respect to
    the tree as it stands *before* the composite.
    """
    tree_v = f.vertices
    outside = f.outside
    in_t = lambda v: g.degree(v) >= 4  # noqa: E731

    anchors = g.adj[x] & tree_v
    if kind == "M" and len(anchors) < 2:
        raise EngineDefect("composite root should touch two tree leaves")
    base_att = [(min(anchors), x)]
    y1, y2 = sorted(g.adj[x] & outside)
    base_att += [(x, y1), (x, y2)]
    prefix_db = 1 if kind == "M" else 0
    lab = lambda s: kind + s  # noqa: E731

    if not in_t(y1) and not in_t(y2):
        return StepPlan(lab("1"), tuple(base_att), 1, prefix_db)

    w1 = outside - {x, y1, y2}
    d_w1 = lambda v: len(g.adj[v] & w1)  # noqa: E731
    if in_t(y1) and in_t(y2):
        if (d_w1(y2), -y2) > (d_w1(y1), -y1):
            y1, y2 = y2, y1
    elif in_t(y2):
        y1, y2 = y2, y1

    deep1 = d_w1(y1)
    if deep1 >= 3:
        grown = sorted(g.adj[y1] & w1)[:3]
        att = base_att + [(y1, w) for w in grown]
        return StepPlan(lab("2"), tuple(att), 3, prefix_db)
    if deep1 <= 1:
        if not (g.adj[y1] & tree_v):
            raise EngineDefect("shallow branch vertex must touch the tree")
        if in_t(y2):
            return StepPlan(lab("3.1"), tuple(base_att), 1, prefix_db + 4)
        return StepPlan(lab("3.2"), tuple(base_att), 1, prefix_db + 2)

    z1, z2 = sorted(g.adj[y1] & w1)
    att4 = base_att + [(y1, z1), (y1, z2)]

    touching = [v for v in sorted({y2, z1, z2}) if g.adj[v] & tree_v]
    if touching:
        v = touching[0]
        if in_t(v):
            return StepPlan(lab("4.1.1"), tuple(att4), 2, prefix_db + 2)
        return StepPlan(lab("4.1.2"), tuple(att4), 2, prefix_db + 1)

    if any(not in_t(v) for v in (y2, z1, z2)):
        return StepPlan(lab("4.2"), tuple(att4), 2, prefix_db)

    if g.adj[y2] == frozenset({x, y1, z1, z2}):
        return StepPlan(lab("4.3"), tuple(att4), 2, prefix_db + 1)

    if not g.has_edge(y1, y2) or g.degree(y1) != 4 or g.degree(y2) != 4:
        raise EngineDefect("branch pair structure violated past case 4.3")

    w2 = w1 - {z1, z2}
    d_w2 = lambda v: len(g.adj[v] & w2)  # noqa: E731
    for z in (z1, z2):
        if d_w2(z) >= 3:
            grown = sorted(g.adj[z] & w2)[:3]
            att = att4 + [(z, w) for w in grown]
            return StepPlan(lab("4.4"), tuple(att), 4, prefix_db)

    eligible = [z for z in (z1, z2) if not g.has_edge(y2, z)]
    if not eligible:
        raise EngineDefect("both chord vertices adjacent to the branch mate")
    z_a = eligible[0]
    z_b = z2 if z_a == z1 else z1
    if d_w2(z_a) != 2:
        raise EngineDefect("selected chord vertex lost its two deep neighbors")
    p1, p2 = sorted(g.adj[z_a] & w2)
    att45 = att4 + [(z_a, p1), (z_a, p2)]

    for p in (p1, p2):
        if in_t(p) and (g.adj[p] & tree_v):
            return StepPlan(lab("4.5.1"), tuple(att45), 3, prefix_db + 2)
    if any(not in_t(p) for p in (p1, p2)):
        return StepPlan(lab("4.5.2"), tuple(att45), 3, prefix_db)

    w3 = w2 - {p1, p2}
    d_w3 = lambda v: len(g.adj[v] & w3)  # noqa: E731
    if any(d_w3(v) == 0 for v in (y2, z_b, p1, p2)):
        return StepPlan(lab("4.5.3"), tuple(att45), 3, prefix_db + 1)

    deep = [p for p in (p1, p2) if d_w3(p) >= 2]
    if deep:
        p = deep[0]
        grand = sorted(g.adj[p] & w3)[:2]
        att = att45 + [(p, q) for q in grand]
        anchored = [q for q in grand if g.adj[q] & tree_v]
        if not anchored:
            return StepPlan(lab("4.5.4"), tuple(att), 4, prefix_db)
        if in_t(anchored[0]):
            return StepPlan(lab("4.5.4.1"), tuple(att), 4, prefix_db + 2)
        return StepPlan(lab("4.5.4.2"), tuple(att), 4, prefix_db + 1)

    # closing configuration: both deep vertices see exactly one vertex
    # further out, and the neighborhood chase pins the whole 4-regular blob
    p_opts = [p for p in (p1, p2) if not g.has_edge(y2, p)]
    if not p_opts:
        raise EngineDefect("branch mate adjacent to both deep vertices")
    p_a = p_opts[0]
    p_b = p2 if p_a == p1 else p1
    checks = [
        g.has_edge(p_a, p_b),
        g.has_edge(p_a, z_b),
        not g.has_edge(z_b, p_b),
        g.has_edge(y2, p_b),
        g.has_edge(z_a, z_b),
    ]
    if not all(checks):
        raise EngineDefect("closing configuration violated")
    closers = g.adj[y2] & w3
    if len(closers) != 1:
        raise EngineDefect("branch mate should see exactly one closing vertex")
    r = next(iter(closers))
    if any(not g.has_edge(v, r) for v in (p_a, p_b, z_b)) or (g.adj[r] & tree_v):
        raise EngineDefect("closing vertex adjacency violated")
    r_parent = min(v for v in (y2, z_b, p1, p2) if g.has_edge(v, r))
    att = att45 + [(r_parent, r)]
    return StepPlan(lab("4.5.5"), tuple(att), 3, prefix_db + 4)


# ---------------------------------------------------------------------------
# committing steps


def apply_step(g: Graph, f: PartialTree, plan: StepPlan) -> list[StepRecord]:
    """Commit a plan; returns its record plus Z0 records for extra deaths."""
    children = [c for _, c in plan.attachments]
    if len(set(children)) != len(children) or any(c in f.vertices for c in children):
        raise StalePlanError(f"{plan.label}: plan does not match the tree state")
    leaves_before = f.leaf_count()
    dead_before = len(f.dead)
    for parent, child in plan.attachments:
        try:
            f.attach(parent, child)
        except ValueError as exc:
            raise StalePlanError(f"{plan.label}: {exc}") from exc
    f.sweep_dead()
    du = f.leaf_count() - leaves_before
    db_total = len(f.dead) - dead_before
    if du != plan.nominal_du:
        raise EngineDefect(
            f"{plan.label}: leaf delta {du} != nominal {plan.nominal_du}"
        )
    if db_total < plan.nominal_db:
        raise EngineDefect(
            f"{plan.label}: only {db_total} deaths, promised {plan.nominal_db}"
        )
    added = tuple(children)
    ds, dt = degree_counts(g, added)
    records = [StepRecord.make(plan.label, du, plan.nominal_db, dt, ds, added)]
    records += [
        StepRecord.make("Z0", 0, 1, 0, 0) for _ in range(db_total - plan.nominal_db)
    ]
    return records


def split_z4(
    g: Graph, f: PartialTree
) -> tuple[set[tuple[int, int]], StepRecord, int]:
    """Terminal split: span the outside recursively, reattach per component.

    Precondition (checked): every fringe vertex has degree >= 4, exactly
    one outside neighbor, and at least three tree-leaf neighbors.
    Returns the combined spanning edge set, the composite record, and the
    maximum child recursion depth.
    """
    level1, _ = levels(g, f)
    if not level1:
        raise EngineDefect("split with an empty fringe")
    for w in sorted(level1):
        anchors = g.adj[w] & f.vertices
        if (
            g.degree(w) < 4
            or len(g.adj[w] & f.outside) != 1
            or len(anchors) < 3
            or any(f.tree_degree(v) != 1 for v in anchors)
        ):
            raise EngineDefect("fringe vertex breaks the split preconditions")

    leaves_before = f.leaf_count()
    dead_before = len(f.dead)
    sub, remap = g.induced(f.outside)
    inv = {new: old for old, new in remap.items()}
    combined = set(f.edge_set())
    child_depth = 0
    for comp in sub.components():
        comp_old = sorted(inv[v] for v in comp)
        h, hmap = g.induced(comp_old)
        if h.n < 2:
            raise EngineDefect("singleton outside component at the split")
        if classify_exclusion(h) is not None:
            raise EngineDefect("outside component is an exception graph")
        report = build(h)
        child_depth = max(child_depth, report.recursion_depth)
        if report.alpha < Fifteenths.whole(2):
            raise EngineDefect("component build missed the recursion bound")
        hinv = {new: old for old, new in hmap.items()}
        for u, v in report.spanning_tree.edges:
            combined.add(edge_key(hinv[u], hinv[v]))
        cut = min(
            (w, a)
            for w in comp_old
            if w in level1
            for a in g.adj[w] & f.vertices
        )
        combined.add(edge_key(*cut))

    final = SpanningTree(g.n, frozenset(combined))
    leaves_after = final.leaf_count()
    du = leaves_after - leaves_before
    db = leaves_after - dead_before  # every leaf of a spanning tree is dead
    added = sorted(f.outside)
    ds, dt = degree_counts(g, added)
    record = StepRecord.make("Z4", du, db, dt, ds, tuple(added))
    if record.profit15 < 0:
        raise EngineDefect("split lost potential")
    return combined, record, child_depth + 1


# ---------------------------------------------------------------------------
# build driver


@dataclass
class BuildReport:
    """Outcome of one build: the tree, exact accounting, and provenance."""

    tree: list[int]
    leaves: int
    cost: Fifteenths
    alpha: Fifteenths
    ledger: Ledger
    reduction_trace: list[ReductionEvent]
    base_case: str
    recursion_depth: int
    exclusion: ExclusionKind | None
    spanning_tree: SpanningTree
    oracle_fallback: bool = False
    defects: tuple[str, ...] = ()

    @property
    def required_alpha(self) -> Fifteenths:
        return Fifteenths(24 if self.exclusion is not None else 30)

    @property
    def bound_ok(self) -> bool:
        return self.alpha >= self.required_alpha


@dataclass
class _EngineResult:
    edges: set[tuple[int, int]]
    ledger: Ledger
    depth: int
    leaves: int
    defect: str | None = None


def _base_record(g: Graph, f: PartialTree, label: str) -> StepRecord:
    vs = sorted(f.vertices)
    ds, dt = degree_counts(g, vs)
    return StepRecord.make(label, f.leaf_count(), len(f.dead), dt, ds, vs)


def _run_from_base(g: Graph, base: PartialTree, case: str) -> _EngineResult:
    f = base.copy()
    base_rec = _base_record(g, f, f"{case}-base")
    if base_rec.profit15 != alpha_prime(g, f).num:
        raise EngineDefect("base record does not match the base potential")
    steps: list[StepRecord] = []
    running15 = base_rec.profit15
    depth = 0
    edges: set[tuple[int, int]] | None = None
    for _ in range(2 * g.n + 8):
        plan = next_step(g, f)
        if plan is None:
            edges = f.edge_set()
            break
        if plan.label == "Z4":
            edges, record, depth = split_z4(g, f)
            steps.append(record)
            running15 += record.profit15
            break
        for rec in apply_step(g, f, plan):
            steps.append(rec)
            running15 += rec.profit15
        if alpha_prime(g, f).num != running15:
            raise EngineDefect(f"potential drifted after {plan.label}")
    if edges is None:
        raise EngineDefect("step budget exhausted before spanning")
    final = SpanningTree(g.n, frozenset(edges))
    if 15 * final.leaf_count() - cost15(g) != running15:
        raise EngineDefect("final potential does not telescope")
    return _EngineResult(edges, Ledger(base_rec, steps), depth, final.leaf_count())


def _spanning_record(g: Graph, tree: SpanningTree, label: str) -> StepRecord:
    u = tree.leaf_count()
    ds, dt = degree_counts(g)
    return StepRecord.make(label, u, u, dt, ds, tuple(range(g.n)))


def _replay(g: Graph, events) -> Graph:
    cur = g
    for ev in events:
        cur = apply_event(cur, ev)
    return cur


def _exact_result(stage: Graph, case: str) -> _EngineResult:
    parents = max_leaf_tree(stage)
    st = SpanningTree.from_parents(parents)
    rec = _spanning_record(stage, st, f"{case}-base")
    return _EngineResult(set(st.edges), Ledger(rec, []), 0, st.leaf_count())


def build(g: Graph) -> BuildReport:
    """Construct a spanning tree of g meeting the leaf bound; see module doc."""
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if not g.is_connected():
        raise ValueError("graph must be connected")

    reduced, trace = reduce_fully(g)
    kind = classify_exclusion(reduced)
    input_kind = kind if not trace else None
    defects: list[str] = []
    oracle_fallback = False

    if kind is not None:
        # Exact search on the exception graph itself, or (when reductions
        # happened) on the stage just before the last event: one rule
        # application away from an exception the bound is back to +2, and
        # that stage has at most 9 vertices.
        lift_trace = trace[:-1]
        stage_graph = _replay(g, lift_trace) if trace else reduced
        result = _exact_result(stage_graph, "exclusion-direct")
        case = "exclusion-direct"
    elif all(reduced.degree(v) <= 2 for v in range(reduced.n)):
        # reduced fixpoint without branch vertices: a single edge or triangle
        if reduced.n not in (2, 3):
            raise EngineDefect("degenerate reduced graph of unexpected size")
        edges = frozenset({(0, 1)} if reduced.n == 2 else {(0, 1), (1, 2)})
        st = SpanningTree(reduced.n, edges)
        rec = _spanning_record(reduced, st, "path-direct-base")
        result = _EngineResult(set(edges), Ledger(rec, []), 0, st.leaf_count())
        case = "path-direct"
        lift_trace = trace
        stage_graph = reduced
    else:
        result, case, defects, oracle_fallback = _run_ensemble(reduced)
        lift_trace = trace
        stage_graph = reduced

    engine_tree = SpanningTree(stage_graph.n, frozenset(result.edges))
    lifted, lift_log = lift_tree_logged(lift_trace, engine_tree)
    ledger = result.ledger
    for label, gain in lift_log:
        if gain:
            ledger.steps.append(
                StepRecord.make(label, gain, gain, 0, 0)
            )
    final_leaves = lifted.leaf_count()
    total_cost = cost15(g)
    alpha = Fifteenths(15 * final_leaves - total_cost)

    report = BuildReport(
        tree=lifted.parents(),
        leaves=final_leaves,
        cost=Fifteenths(total_cost),
        alpha=alpha,
        ledger=ledger,
        reduction_trace=trace,
        base_case=case,
        recursion_depth=result.depth,
        exclusion=input_kind,
        spanning_tree=lifted,
        oracle_fallback=oracle_fallback,
        defects=tuple(defects),
    )
    return report


def _run_ensemble(reduced: Graph) -> tuple[_EngineResult, str, list[str], bool]:
    bases = choose_bases(reduced)
    case = bases[0][1]
    defects: list[str] = []
    best: _EngineResult | None = None
    for base, label in bases:
        try:
            res = _run_from_base(reduced, base, label)
        except EngineDefect as exc:
            defects.append(f"{label}: {exc}")
            continue
        if best is None or res.leaves > best.leaves:
            best = res

    required15 = cost15(reduced) + 30
    if best is None or 15 * best.leaves < required15:
        # second chance: brute ensemble of stars at every branch vertex
        for center in range(reduced.n):
            if reduced.degree(center) < 3:
                continue
            try:
                res = _run_from_base(reduced, star_base(reduced, center), case)
            except EngineDefect as exc:
                defects.append(f"retry star {center}: {exc}")
                continue
            if best is None or res.leaves > best.leaves:
                best = res

    if (best is None or 15 * best.leaves < required15) and reduced.n <= ORACLE_MAX_N:
        exact = _exact_result(reduced, case)
        if best is None or exact.leaves > best.leaves:
            return exact, case, defects, True
    if best is None:
        raise EngineDefect("; ".join(defects) or "no base tree produced a result")
    return best, case, defects, False
