from __future__ import annotations

import random

import pytest

from leafspan import (
    Graph,
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

from conftest import random_spanning_tree


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


@pytest.mark.parametrize(
    "k, n", [(20, 200), (24, 330), (28, 450), (32, 580), (26, 700), (None, 2000)]
)
def test_reduce_and_lift_beyond_the_oracle(k, n):
    # a k-vertex degree-3..4 core subdivided to n vertices; a cycle for k=None
    g = cycle(n) if k is None else subdivided(random_connected(k, 3, 4, n), n, n)
    reduced, trace = reduce_fully(g)
    assert replay(g, trace) == reduced
    removed = [ev.removed for ev in trace]
    assert len(set(removed)) == len(removed) == g.n - reduced.n
    assert all(0 <= v < g.n for v in removed)
    tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, g.n)))
    lifted, log = lift_tree_logged(trace, tree)
    check_spanning_tree(g, lifted)
    assert sum(gain for _, gain in log) == lifted.leaf_count() - tree.leaf_count()
