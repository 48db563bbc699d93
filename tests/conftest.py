from __future__ import annotations

import dataclasses
import random
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest

from leafspan import (
    Graph,
    GenerationError,
    builder,
    random_connected,
    reduction,
)
from leafspan.builder import PartialTree
from leafspan.graph import degree_cost15
from leafspan.ledger import (
    DEAD_GAIN15,
    LEAF_GAIN15,
    TABLE_FLOORS,
    StepRecord,
    alpha_prime,
    table_violations,
    verify_ledger,
)
from leafspan.trees import SpanningTree


def tree_degrees(f: PartialTree) -> Counter[int]:
    """Tree degree of every vertex, counted from the parent links of f."""
    return Counter(v for c, p in f.parent.items() if p != -1 for v in (c, p))


def audit_counts(g: Graph, f: PartialTree) -> None:
    """The counts `f` keeps agree with a from-scratch recount of its tree."""
    counted = LEAF_GAIN15 * f.leaves + DEAD_GAIN15 * len(f.dead) - f.cost
    assert alpha_prime(g, f).num == counted
    assert f.vertices == f.parent.keys()
    outside = set(range(g.n)) - f.vertices
    assert f.border == {v for v in outside if g.adj[v] & f.vertices}
    assert f.out == [len(g.adj[v] & outside) for v in range(g.n)]
    tree_deg = tree_degrees(f)
    outside_nbrs = {v: len(g.adj[v] & outside) for v in f.vertices}
    assert f.dead == {
        v for v in f.vertices if tree_deg[v] == 1 and not outside_nbrs[v]
    }
    assert f.inner_open == {
        v for v in f.vertices if tree_deg[v] >= 2 and outside_nbrs[v]
    }
    assert f.rich == {v for v in f.vertices if outside_nbrs[v] >= 2}


@pytest.fixture(autouse=True)
def audit_every_step(monkeypatch):
    """Recount every partial tree from scratch after each step of every build.

    Production builds recount only at the base and at the end of each engine
    run.  Every step is committed by `_commit`, from `_expand` (A1, A2) or
    from `apply_step` (every other row); both look it up at call time, so
    this wrapper sees every step the tests make the engine take.  The
    fixture's value counts the steps audited so far in the test (`.steps`).
    """
    commit = builder._commit
    audit = SimpleNamespace(steps=0)

    def audited(g, f, *step):
        rec = commit(g, f, *step)
        audit_counts(g, f)
        audit.steps += 1
        return rec

    monkeypatch.setattr(builder, "_commit", audited)
    return audit


@pytest.fixture(autouse=True)
def audit_every_base(monkeypatch):
    """Recount every base tree from scratch as soon as it is built.

    A run whose base already spans its graph takes no step, so
    `audit_every_step` never sees its tree; the driver looks `base_tree` up
    at call time, so this wrapper sees every base the tests make it build.
    The fixture's value counts the bases audited so far in the test
    (`.bases`).
    """
    make = builder.base_tree
    audit = SimpleNamespace(bases=0)

    def audited(g, a, b=-1):
        f = make(g, a, b)
        audit_counts(g, f)
        audit.bases += 1
        return f

    monkeypatch.setattr(builder, "base_tree", audited)
    return audit


def audit_run(g: Graph, f: PartialTree, ledger) -> None:
    """The ledger a run of `_run_from_base` returned for the tree f it grew
    on g passes `verify_ledger` against that tree, and `table_violations`
    finds nothing in it.

    The tree is made from f's parent links here, with the `SpanningTree` of
    `leafspan.trees`, not the builder's name for it, so a test that counts
    the trees the builder makes counts none of these."""
    links = f.parent
    tree = SpanningTree.from_parents([links[v] for v in range(len(links))])
    audit = verify_ledger(g, ledger, tree)
    assert audit.ok, audit.reason
    assert table_violations(ledger) == []


@pytest.fixture(autouse=True)
def audit_every_run(monkeypatch):
    """Audit the ledger of every engine run of every build against the tree
    the run grew.

    A caller of `build` can audit only the ledger of the run it keeps, the
    one its report carries; every run checks its potential against its
    records as it goes, but not their rows.
    The driver and `_exact_result` look `_run_from_base` up at call time,
    so this wrapper sees every run the tests make, each base and each
    exact-search tree.  The fixture's value counts the runs audited so far
    in the test (`.runs`).
    """
    run = builder._run_from_base
    audit = SimpleNamespace(runs=0)

    def audited(g, f, case):
        ledger = run(g, f, case)
        audit_run(g, f, ledger)
        audit.runs += 1
        return ledger

    monkeypatch.setattr(builder, "_run_from_base", audited)
    return audit


def cost_audited(rule, audit: SimpleNamespace):
    """`rule` (`reduction._r1` or `reduction._r2`) wrapped to raise
    AssertionError when an event it applies changes the summed cost of the
    vertices the event touches, and to count its events in `audit.events`.

    A rule reads and changes only the sets of the vertices it is called at
    and of their neighbors, so their degrees are read before the call.
    """

    def audited(adj, *at):
        degrees = {v: len(adj[v]) for u in at for v in (u, *adj[u])}
        ev = rule(adj, *at)
        if ev is not None:
            before = sum(degree_cost15(degrees[v]) for v in ev.touched)
            if sum(degree_cost15(len(adj[v])) for v in ev.touched) != before:
                raise AssertionError(f"{ev.kind} changed the cost")
            audit.events += 1
        return ev

    return audited


@pytest.fixture(autouse=True)
def audit_every_event(monkeypatch):
    """Check that every reduction event of every build and replay keeps the cost.

    Production relies on both rules keeping the cost by construction;
    `reduce_fully` and `replay` look the rules `_r1` and `_r2` up at call
    time, so these wrappers see every event the tests apply.  The fixture's
    value counts the events audited so far in the test (`.events`).
    """
    audit = SimpleNamespace(events=0)
    for name in ("_r1", "_r2"):
        monkeypatch.setattr(reduction, name, cost_audited(getattr(reduction, name), audit))
    return audit


@pytest.fixture(autouse=True)
def audit_every_undo(monkeypatch):
    """Check that every undo of every lift adds one tree edge, re-attaches
    the vertex its event removed and returns the leaf gain it made, never
    negative.

    `lift_tree_logged` looks `_undo` up at call time, so this wrapper sees
    every event the tests undo.  An undo changes only the sets of the
    touched vertices and, for R2, of a2's former neighbors, whose tree
    degree it keeps; so the tree's degree sum is read over those and its
    leaves over the touched.  The fixture's value counts the undos audited
    so far in the test (`.undos`).
    """
    undo = reduction._undo
    audit = SimpleNamespace(undos=0)

    def audited(adj, ev):
        touched = set(ev.touched)
        seen = touched | ev.nbrs_dropped
        before = sum(len(adj[v]) for v in seen)
        leaves = sum(len(adj[v]) == 1 for v in touched)
        gain = undo(adj, ev)
        added = sum(len(adj[v]) for v in seen) - before
        if added != 2:
            raise AssertionError(f"{ev.kind} undo changed the degree sum by {added}")
        if not adj[ev.removed]:
            raise AssertionError(f"{ev.kind} undo left {ev.removed} out of the tree")
        made = sum(len(adj[v]) == 1 for v in touched) - leaves
        if gain != made or gain < 0:
            raise AssertionError(f"{ev.kind} undo returned gain {gain}, made {made}")
        audit.undos += 1
        return gain

    monkeypatch.setattr(reduction, "_undo", audited)
    return audit


def make_state(n, edges, tree_edges, root=0) -> tuple[Graph, PartialTree]:
    """Graph plus a partial tree assembled from the given tree edges."""
    g = Graph(n, edges)
    f = PartialTree(g, root)
    remaining = [tuple(e) for e in tree_edges]
    while remaining:
        progressed = False
        for e in list(remaining):
            u, v = e
            if u in f.vertices and v not in f.vertices:
                f.attach(u, v)
            elif v in f.vertices and u not in f.vertices:
                f.attach(v, u)
            else:
                continue
            remaining.remove(e)
            progressed = True
        if not progressed:
            raise ValueError("tree edges do not connect to the root")
    return g, f


def at_row_db(rec: StepRecord) -> tuple[StepRecord, int]:
    """`rec` with its deaths beyond its row's db taken out, and how many:
    the record as the ledger logged it while each such death was a Z0
    record of its own, of one death and 2/15 of profit.  A label with no
    row, or a row that states no db (Z4's), keeps its record whole."""
    row = TABLE_FLOORS.get(rec.label)
    extra = 0 if row is None or row[1] is None else rec.db - row[1]
    at_row = dataclasses.replace(
        rec, db=rec.db - extra, profit15=rec.profit15 - DEAD_GAIN15 * extra
    )
    return at_row, extra


def engine_step(g: Graph, f: PartialTree) -> StepRecord | None:
    """Take one engine step as `_run_from_base` takes it: `_expand` commits
    A1 or A2, else `next_step` plans the step and `apply_step` commits it.
    Returns its record, None when no row applies (a Z4 split is not taken).

    Each is looked up on the module at call time, so the audit fixtures see
    every step taken here."""
    rec = builder._expand(g, f)
    if rec is None and (plan := builder.next_step(g, f)) is not None:
        rec = builder.apply_step(g, f, plan)
    return rec


def random_graph_pool(count, sizes=(3, 12), seed=20240601, generate=random_connected):
    """Deterministic pool of connected graphs over mixed degree regimes."""
    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < count and attempts < 50 * count:
        attempts += 1
        n = rng.randint(*sizes)
        regimes = [(1, n - 1), (2, n - 1)]
        if n >= 4:
            regimes += [(3, n - 1), (2, 3)]
        if n >= 5:
            regimes.append((3, 4))
        dmin, dmax = rng.choice(regimes)
        try:
            pool.append(generate(n, dmin, dmax, rng.randrange(1 << 30)))
        except GenerationError:
            continue
    return pool


def random_spanning_tree(g: Graph, seed: int):
    """Independent spanning-tree sampler (randomized Kruskal).

    The edges are sorted before the shuffle, so equal graphs give equal
    trees for one seed, whatever order their neighbour sets iterate in.
    """
    rng = random.Random(seed)
    edges = sorted(g.edges())
    rng.shuffle(edges)
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = set()
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v) if u < v else (v, u))
    return chosen


def common_neighbour_profile(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted |N(u) & N(v)| over the adjacent pairs uv, then over the
    non-adjacent pairs.  The first half is the edge profile that
    `classify_exclusion` reads.  Isomorphic graphs have equal profiles."""
    adjacent: list[int] = []
    apart: list[int] = []
    for u, v in combinations(range(g.n), 2):
        (adjacent if v in g.adj[u] else apart).append(len(g.adj[u] & g.adj[v]))
    return tuple(sorted(adjacent)), tuple(sorted(apart))


def enumerate_regular_graphs(n: int, d: int) -> list[Graph]:
    """All connected d-regular graphs on n vertices, one per profile.

    Backtracking over neighbor choices in vertex order; vertex 0's
    neighborhood is pinned to {1..d}, which every regular graph admits
    under some relabeling.  The first graph found with each
    `common_neighbour_profile` is kept.  The profile is not an isomorphism
    test: it merges two of the 19 cubic graphs on 10 vertices.  It is
    complete on the catalogs the suite enumerates, (6, 4), (8, 4) and
    (8, 3): they come out at 1, 6 and 5 graphs, the known counts (OEIS
    A006820, A002851), and a profile that merged two classes would find
    fewer.  Small n only.
    """
    if n * d % 2 != 0 or d >= n:
        return []
    reps: dict[tuple, Graph] = {}

    def extend(v: int, adj: list[set[int]]) -> None:
        if v == n:
            g = Graph(n, [(a, b) for a in range(n) for b in adj[a] if a < b])
            if g.is_connected():
                reps.setdefault(common_neighbour_profile(g), g)
            return
        need = d - len(adj[v])
        if need == 0:
            extend(v + 1, adj)
            return
        pool = [w for w in range(v + 1, n) if len(adj[w]) < d]
        if len(pool) < need:
            return
        for chosen in combinations(pool, need):
            for w in chosen:
                adj[v].add(w)
                adj[w].add(v)
            extend(v + 1, adj)
            for w in chosen:
                adj[v].remove(w)
                adj[w].remove(v)

    adj0: list[set[int]] = [set() for _ in range(n)]
    for w in range(1, d + 1):
        adj0[0].add(w)
        adj0[w].add(0)
    extend(1, adj0)
    return list(reps.values())


@pytest.fixture(scope="session")
def graph_pool():
    return random_graph_pool(150)


# -- structured families ----------------------------------------------------
# Written out here rather than taken from networkx, so the suite needs only
# pytest and hypothesis; each returns the graph with its vertices numbered as
# the formula in its docstring says.


def grid(a: int, b: int) -> Graph:
    """The a x b grid; vertex i*b + j is row i, column j."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return Graph(a * b, edges)


def torus(a: int, b: int) -> Graph:
    """The a x b grid with both directions closed into cycles (a, b >= 3)."""
    edges = [(i * b + j, i * b + (j + 1) % b) for i in range(a) for j in range(b)]
    edges += [(i * b + j, (i + 1) % a * b + j) for i in range(a) for j in range(b)]
    return Graph(a * b, edges)


def hypercube(d: int) -> Graph:
    """Q_d: vertices 0..2^d - 1, adjacent when they differ in one bit."""
    n = 1 << d
    return Graph(n, [(v, v | 1 << k) for v in range(n) for k in range(d) if not v >> k & 1])


def cycle(n: int) -> Graph:
    """C_n: vertex i adjacent to i + 1 (mod n)."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """P_n: vertex i adjacent to i + 1."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: sides 0..a-1 and a..a+b-1."""
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def wheel(n: int) -> Graph:
    """W_n on n vertices: hub 0 joined to every vertex of the cycle 1..n-1."""
    rim = range(1, n)
    return Graph(n, [(0, v) for v in rim] + [(v, v % (n - 1) + 1) for v in rim])


def circulant(n: int, jumps) -> Graph:
    """C_n(jumps): vertex i adjacent to i +- j (mod n) for each jump j."""
    return Graph(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n+i, inner edges n+i ~ n+(i+k)%n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, edges)


def mobius_ladder(n: int) -> Graph:
    """The Möbius ladder on n vertices (n even): C_n plus the n/2 long diagonals."""
    return circulant(n, (1, n // 2))


def closing_defect_line_graph(swap: bool = False) -> Graph:
    """The line graph of `random_connected(16, 3, 3, 8)`, its vertices
    numbered by the sorted edge list: 4-regular on 24 vertices, every edge
    in a triangle, so no reduction and 24 B7 bases.  The run from the star
    at vertex 10 reaches the M4.5.5 closing configuration with no vertex
    that closes it and raises (ROADMAP item 11); the other 23 end with 13
    leaves, which meets +2.  `swap` exchanges vertices 0 and 10, so the
    first base is the one that raises."""
    cubic = sorted(random_connected(16, 3, 3, 8).edges())
    edges = [
        (i, j) for i, e in enumerate(cubic) for j in range(i + 1, len(cubic))
        if set(e) & set(cubic[j])
    ]
    if swap:
        name = {0: 10, 10: 0}
        edges = [(name.get(u, u), name.get(v, v)) for u, v in edges]
    return Graph(len(cubic), edges)


def structured_families() -> dict[str, list[tuple[str, Graph]]]:
    """Every structured graph of the tier-1 corpus, n <= 40, by family."""
    return {
        "grid": [(f"grid {a}x{b}", grid(a, b))
                 for a in range(2, 7) for b in range(a, 40 // a + 1)],
        "torus": [(f"torus {a}x{b}", torus(a, b))
                  for a in range(3, 7) for b in range(a, 40 // a + 1)],
        "hypercube": [(f"Q{d}", hypercube(d)) for d in range(2, 6)],
        "complete": [(f"K{n}", complete(n)) for n in range(4, 13)],
        "complete-bipartite": [(f"K{a},{b}", complete_bipartite(a, b))
                               for a in range(1, 7) for b in range(max(a, 2), 13)],
        "wheel": [(f"W{n}", wheel(n)) for n in range(4, 41, 3)],
        "circulant-1-2": [(f"C{n}(1,2)", circulant(n, (1, 2))) for n in range(6, 41, 2)],
        "circulant-1-3": [(f"C{n}(1,3)", circulant(n, (1, 3))) for n in range(7, 41, 2)],
        "petersen": [(f"GP({n},{k})", generalized_petersen(n, k))
                     for n in range(3, 21) for k in range(1, (n + 1) // 2)],
        "mobius": [(f"M{n}", mobius_ladder(n)) for n in range(6, 41, 2)],
    }
