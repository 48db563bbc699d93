from __future__ import annotations

import random
from dataclasses import replace

import pytest

from leafspan import (
    Graph,
    ReductionEvent,
    classify_exclusion,
    cost15,
    find_reduction,
    h_graph,
    lift_tree_logged,
    random_connected,
    reduce_fully,
    replay,
    square_of_cycle,
)
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import random_graph_pool, random_spanning_tree


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_r1_on_path():
    g = Graph(3, [(0, 1), (1, 2)])
    ev = find_reduction(g)
    assert ev is not None and ev.kind == "R1"
    assert ev.x == 1 and (ev.a, ev.b) == (0, 2)
    h = replay(g, [ev])
    assert h.n == 2 and h.edges() == [(0, 1)]


def test_triangle_has_no_reduction():
    assert find_reduction(cycle(3)) is None


def test_r2_on_h2():
    g = h_graph(2)
    ev = find_reduction(g)
    assert ev is not None and ev.kind == "R2"
    # a cross-block port pair: both degree 3, adjacent, no common neighbor
    assert g.degree(ev.x) == 3 and g.degree(ev.a) == 3
    assert g.has_edge(ev.x, ev.a)
    assert not (g.adj[ev.x] & g.adj[ev.a])
    h = replay(g, [ev])
    assert ev.removed == ev.a > ev.x  # so the merged vertex keeps the id x
    assert h.degree(ev.x) == 4
    assert cost15(h) == cost15(g)


def test_c5_reduces_to_triangle():
    reduced, trace = reduce_fully(cycle(5))
    assert reduced.n == 3 and reduced.edge_count == 3
    assert [ev.kind for ev in trace] == ["R1", "R1"]


def test_c6sq_is_a_fixpoint():
    reduced, trace = reduce_fully(square_of_cycle(6))
    assert trace == [] and reduced == square_of_cycle(6)


def test_subdivided_c6sq_reduces_back():
    g6 = square_of_cycle(6)
    edges = [e for e in g6.edges() if e != (0, 1)] + [(0, 6), (1, 6)]
    g = Graph(7, edges)
    reduced, trace = reduce_fully(g)
    assert len(trace) == 1 and trace[0].kind == "R1"
    assert classify_exclusion(reduced) is not None


def test_fixpoint_has_no_event(graph_pool):
    for g in graph_pool[:60]:
        reduced, _ = reduce_fully(g)
        assert find_reduction(reduced) is None
        assert reduced.is_connected()


def test_cost_preserved_and_replay(graph_pool):
    for g in graph_pool[:60]:
        reduced, trace = reduce_fully(g)
        assert cost15(reduced) == cost15(g)
        assert replay(g, trace) == reduced


def test_lift_r1_bridge_in_tree():
    # a-x-b path replaces the bridging edge: leaf count unchanged
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4
    reduced, trace = reduce_fully(g)  # down to a triangle
    tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
    lifted = lift_tree_logged(trace, tree)[0]
    check_spanning_tree(g, lifted)
    assert lifted.leaf_count() >= tree.leaf_count()


def test_lift_r1_attaches_leaf_when_bridge_unused():
    # star with a subdivided ray: the bridging edge is absent from the tree
    # when the tree routes around it, so the vertex re-enters as a leaf
    g6 = square_of_cycle(6)
    edges = [e for e in g6.edges() if e != (0, 1)] + [(0, 6), (1, 6)]
    g = Graph(7, edges)
    reduced, trace = reduce_fully(g)
    # spanning tree of the reduced graph avoiding the restored edge (0,1),
    # with vertex 0 internal so the re-entering leaf is a net gain
    tree_edges = {(0, 2), (0, 4), (1, 2), (2, 3), (4, 5)}
    tree = SpanningTree(6, frozenset(tree_edges))
    lifted, log = lift_tree_logged(trace, tree)
    check_spanning_tree(g, lifted)
    assert lifted.leaf_count() == tree.leaf_count() + 1
    assert log == [("R1-undo", 1)]


def test_lift_r2_both_orientations():
    # contractible pair in a 6-vertex graph: undo with the merged vertex as
    # a leaf and as an internal vertex, checking leaf counts by enumeration
    g = h_graph(2)
    reduced, trace = reduce_fully(g)
    first = trace[:1]
    stage = replay(g, first)
    seen_leaf = seen_internal = False
    for seed in range(60):
        chosen = random_spanning_tree(stage, seed)
        tree = SpanningTree(stage.n, frozenset(chosen))
        merged = trace[0].x  # a2 > x is the removed endpoint
        deg = tree.degrees()[merged]
        lifted = lift_tree_logged(first, tree)[0]
        check_spanning_tree(g, lifted)
        assert lifted.leaf_count() >= tree.leaf_count()
        if deg == 1:
            seen_leaf = True
        else:
            seen_internal = True
    assert seen_leaf and seen_internal


def test_lift_monotone_on_random_graphs(graph_pool):
    for i, g in enumerate(graph_pool[:50]):
        reduced, trace = reduce_fully(g)
        chosen = random_spanning_tree(reduced, seed=i)
        tree = SpanningTree(reduced.n, frozenset(chosen))
        lifted = lift_tree_logged(trace, tree)[0]
        check_spanning_tree(g, lifted)
        assert lifted.leaf_count() >= tree.leaf_count()


def test_lift_rejects_invalid_tree():
    g = cycle(5)
    _, trace = reduce_fully(g)
    with pytest.raises(ValueError):
        lift_tree_logged(trace, SpanningTree(3, frozenset({(0, 1)})))


def subdivided(core, n, seed):
    """`core` with n - core.n new vertices spread over its edges, ids shuffled."""
    rng = random.Random(seed)
    edges = core.edges()
    inner = [0] * len(edges)
    for _ in range(n - core.n):
        inner[rng.randrange(len(edges))] += 1
    path_edges = []
    nxt = core.n
    for (u, v), k in zip(edges, inner):
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        path_edges += zip(path, path[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in path_edges])


SUBDIVIDED = [(20, 200), (24, 330), (28, 450), (32, 580), (26, 700)]


def subdivided_core(k, n):
    """A k-vertex degree-3..4 core subdivided to n vertices."""
    return subdivided(random_connected(k, 3, 4, n), n, n)


@pytest.mark.parametrize(
    "k, n", [*SUBDIVIDED, (30, 20000), (None, 2000), (None, 20000)]
)
def test_reduce_and_lift_beyond_the_oracle(k, n):
    # a subdivided core; a plain n-cycle for k=None
    g = cycle(n) if k is None else subdivided_core(k, n)
    reduced, trace = reduce_fully(g)
    assert replay(g, trace) == reduced
    removed = [ev.removed for ev in trace]
    assert len(set(removed)) == len(removed) == g.n - reduced.n
    assert all(0 <= v < g.n for v in removed)
    tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, g.n)))
    lifted, log = lift_tree_logged(trace, tree)
    check_spanning_tree(g, lifted)
    assert sum(gain for _, gain in log) == lifted.leaf_count() - tree.leaf_count()


def first_event_by_scan(adj) -> ReductionEvent | None:
    """Reference event order: rescan from vertex 0 for the smallest-x R1, else
    the lexicographically first R2 pair (a1, a2)."""
    for x, nx in enumerate(adj):
        if len(nx) == 2:
            a, b = sorted(nx)
            if b not in adj[a]:
                return ReductionEvent("R1", x, a, b, frozenset(), frozenset())
    for a1, n1 in enumerate(adj):
        if len(n1) != 3:
            continue
        for a2 in sorted(n1):
            if a2 <= a1 or len(adj[a2]) != 3 or n1 & adj[a2]:
                continue
            kept, dropped = frozenset(n1 - {a2}), frozenset(adj[a2] - {a1})
            return ReductionEvent("R2", a1, a2, -1, kept, dropped)
    return None


def renamed(ev: ReductionEvent, ids: list[int]) -> ReductionEvent:
    """`ev` with every vertex v named ids[v]."""

    def rename(vs):
        return frozenset(ids[v] for v in vs)

    b = ids[ev.b] if ev.b >= 0 else -1
    kept, dropped = rename(ev.nbrs_kept), rename(ev.nbrs_dropped)
    x, a = ids[ev.x], ids[ev.a]
    return replace(ev, x=x, a=a, b=b, nbrs_kept=kept, nbrs_dropped=dropped)


def assert_scan_order(g):
    """Each event of reduce_fully(g) is the scan's first event on the graph
    that replaying the events before it reaches, and the last graph has none."""
    _, trace = reduce_fully(g)
    h, ids = g, list(range(g.n))  # ids[i]: input id of h's vertex i
    for step in trace:
        ev = first_event_by_scan(h.adj)
        assert ev is not None and step == renamed(ev, ids)
        h = replay(h, [ev])
        ids.remove(step.removed)
    assert first_event_by_scan(h.adj) is None


def test_reducer_keeps_the_scan_order(graph_pool):
    graphs = [
        *graph_pool,
        *random_graph_pool(2000, sizes=(3, 40), seed=99),
        *(h_graph(k) for k in range(2, 7)),
        *(square_of_cycle(n) for n in range(6, 21)),
        *(subdivided_core(k, n) for k, n in SUBDIVIDED),
    ]
    for g in graphs:
        assert_scan_order(g)
