from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspan import (
    Fifteenths,
    Graph,
    classify_exclusion,
    cost15,
    degree_counts,
    exact_u,
    g8,
    h_graph,
    reduce_fully,
    square_of_cycle,
)

from conftest import common_neighbour_profile, enumerate_regular_graphs


def test_fifteenths_exact_arithmetic():
    a = Fifteenths(3)  # 1/5
    b = Fifteenths(6)  # 2/5
    assert Fifteenths(a.num + a.num) == b
    assert Fifteenths(30) != Fifteenths(24)
    assert Fifteenths(b.num - a.num) == a
    assert Fifteenths(-a.num) == Fifteenths(-3)
    assert Fifteenths(4 * b.num) == Fifteenths(24)
    assert Fifteenths(24) < Fifteenths(30)
    assert str(Fifteenths(24)) == "24/15"


def test_graph_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_induced_rejects_a_vertex_out_of_range():
    # on the path 0-1-2-3, -1 would read vertex 3's neighbourhood
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            path.induced([bad, 2])


def test_adjacency_symmetric_and_simple():
    g = Graph(4, [(0, 1), (1, 2), (0, 1)])  # duplicate collapses
    assert g.edge_count == 2
    for v in range(g.n):
        for w in g.adj[v]:
            assert v in g.adj[w]
    assert sum(g.degree(v) for v in range(4)) == 2 * g.edge_count


def test_classify_examples():
    # degree classes as (s, t): s counts degree 3, t counts degree >= 4
    assert degree_counts(square_of_cycle(6)) == (0, 6)
    k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert degree_counts(k4) == (4, 0)
    assert degree_counts(Graph(2, [(0, 1)])) == (0, 0)
    assert degree_counts(h_graph(2)) == (4, 8)
    assert degree_counts(h_graph(2), [0, 4, 5]) == (2, 1)
    assert degree_counts(k4, []) == (0, 0)
    with pytest.raises(ValueError):
        degree_counts(k4, [4])


def test_cost_examples():
    assert cost15(square_of_cycle(6)) == 36  # 12/5
    assert cost15(h_graph(2)) == 60  # 4
    assert cost15(Graph(2, [(0, 1)])) == 0


def test_whole_graph_cost_is_summed_once():
    # every engine run of a build checks its total against the graph's cost,
    # so construction sums it and `cost15` only reads it
    g = h_graph(3)
    assert cost15(g) == g.cost15 == 90
    # the tables are tuples (a list never equals a tuple), so no caller can
    # change them under the graph
    wide = Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (3, 4)])
    assert wide.degrees == (6, 2, 3, 3, 2, 1, 1)
    assert wide.costs15 == (6, 0, 3, 3, 0, 0, 0)
    assert wide.cost15 == 12


def test_cost_sums_class_costs(graph_pool):
    for g in graph_pool:
        s, t = degree_counts(g)
        assert cost15(g) == 6 * t + 3 * s


def test_components_examples():
    assert square_of_cycle(7).components() == [list(range(7))]
    two_tris = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert two_tris.components() == [[0, 1, 2], [3, 4, 5]]


def test_components_h2_minus_bridges():
    g = h_graph(2)
    bridges = [
        (u, v)
        for u, v in g.edges()
        if g.degree(u) == 3 and g.degree(v) == 3
    ]
    assert len(bridges) == 2
    kept = [e for e in g.edges() if e not in bridges]
    split = Graph(g.n, kept)
    parts = split.components()
    assert len(parts) == 2 and all(len(p) == 6 for p in parts)
    # parts are pairwise non-adjacent and internally connected
    for p in parts:
        sub, _ = split.induced(p)
        assert sub.is_connected()


TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
ISOLATED_VERTEX = Graph(4, [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize(
    "g",
    [
        pytest.param(TWO_TRIANGLES, id="two-triangles"),
        pytest.param(ISOLATED_VERTEX, id="isolated-vertex"),
        pytest.param(Graph(4, [(1, 2), (2, 3), (1, 3)]), id="isolated-vertex-0"),
        pytest.param(Graph(0), id="n=0"),
        pytest.param(Graph(1), id="n=1"),
        pytest.param(Graph(2), id="n=2-apart"),
        pytest.param(Graph(2, [(0, 1)]), id="n=2-edge"),
    ],
)
def test_is_connected_agrees_with_components(g):
    # no vertex at all counts as connected, as one vertex does
    assert g.is_connected() == (len(g.components()) <= 1)


def test_is_connected_agrees_with_components_on_the_pool(graph_pool):
    # dropping one edge keeps a graph connected unless the edge is a bridge
    seen = set()
    for g in graph_pool:
        assert g.is_connected() and len(g.components()) == 1
        cut = Graph(g.n, g.edges()[1:])
        seen.add(cut.is_connected())
        assert cut.is_connected() == (len(cut.components()) == 1)
    assert seen == {False, True}


@pytest.mark.parametrize("check", [reduce_fully, exact_u], ids=["reduce_fully", "exact_u"])
def test_disconnected_graph_is_refused(check):
    for g in (TWO_TRIANGLES, ISOLATED_VERTEX):
        with pytest.raises(ValueError, match="graph must be connected"):
            check(g)


def test_c8sq_not_isomorphic_to_g8():
    # triangles per edge differ, so no relabelling maps one onto the other
    a, b = square_of_cycle(8), g8()
    assert common_neighbour_profile(a)[0] != common_neighbour_profile(b)[0]


QUARTIC = [square_of_cycle(6), g8(), *enumerate_regular_graphs(8, 4)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_isomorphic_under_random_permutation(seed):
    # C6^2, G8 and the six 4-regular graphs on 8 vertices keep their class
    # under any relabelling
    rng = random.Random(seed)
    for g in QUARTIC:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert classify_exclusion(h) is classify_exclusion(g)
