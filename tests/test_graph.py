from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspan import (
    Fifteenths,
    Graph,
    cost15,
    degree_counts,
    g8,
    h_graph,
    is_isomorphic,
    square_of_cycle,
)
from leafspan.graph import triangle_counts


def test_fifteenths_exact_arithmetic():
    a = Fifteenths(3)  # 1/5
    b = Fifteenths(6)  # 2/5
    assert a + a == b
    assert Fifteenths.whole(2) == Fifteenths(30)
    assert b - a == a
    assert -a == Fifteenths(-3)
    assert 4 * Fifteenths(6) == Fifteenths(24)
    assert Fifteenths(24) < Fifteenths(30)
    assert str(Fifteenths(24)) == "24/15"


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


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
    assert cost15(h_graph(2), []) == 0


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


def test_isomorphic_relabeling():
    g = square_of_cycle(6)
    rng = random.Random(5)
    perm = list(range(6))
    rng.shuffle(perm)
    h = Graph(6, [(perm[u], perm[v]) for u, v in g.edges()])
    assert is_isomorphic(g, h)


def test_c8sq_not_isomorphic_to_g8():
    a, b = square_of_cycle(8), g8()
    # independent invariant: triangles per edge differ
    def tri_per_edge(g):
        return sorted(len(g.adj[u] & g.adj[v]) for u, v in g.edges())

    assert tri_per_edge(a) != tri_per_edge(b)
    assert not is_isomorphic(a, b)


def test_isomorphism_equivalence_on_fixtures():
    fixtures = [
        square_of_cycle(6),
        square_of_cycle(8),
        g8(),
        h_graph(2),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for g in fixtures:
        assert is_isomorphic(g, g)
    for a in fixtures:
        for b in fixtures:
            assert is_isomorphic(a, b) == is_isomorphic(b, a)
    # transitivity: two relabelings of the same graph match each other
    g = g8()
    rng = random.Random(11)
    relabeled = []
    for _ in range(2):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    assert is_isomorphic(g, relabeled[0])
    assert is_isomorphic(g, relabeled[1])
    assert is_isomorphic(relabeled[0], relabeled[1])


def test_triangle_counts_match_bruteforce():
    g = g8()
    tri = triangle_counts(g)
    brute = []
    for v in range(g.n):
        nb = sorted(g.adj[v])
        brute.append(
            sum(
                1
                for i in range(len(nb))
                for j in range(i + 1, len(nb))
                if nb[j] in g.adj[nb[i]]
            )
        )
    assert tri == brute


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 9))
def test_isomorphic_under_random_permutation(seed, n):
    rng = random.Random(seed)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.45
    }
    g = Graph(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    assert is_isomorphic(g, h)
