from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspan import (
    GenerationError,
    Graph,
    cost15,
    exact_u,
    families,
    g8,
    h_graph,
    random_connected,
    square_of_cycle,
)
from leafspan.families import _kth

from conftest import common_neighbour_profile, enumerate_regular_graphs


def test_square_of_cycle_basics():
    g = square_of_cycle(6)
    assert g.n == 6 and g.edge_count == 12
    assert all(g.degree(v) == 4 for v in range(6))
    for i in range(6):
        assert g.has_edge(i, (i + 1) % 6) and g.has_edge(i, (i + 2) % 6)


def test_square_of_cycle_5_is_complete():
    g = square_of_cycle(5)
    assert g.edge_count == 10  # K5


def test_square_of_cycle_rejects_small():
    with pytest.raises(ValueError):
        square_of_cycle(4)


def test_square_of_cycle_vertex_transitive_invariants():
    for n in (6, 8, 10):
        g = square_of_cycle(n)
        assert len({g.degree(v) for v in range(n)}) == 1
        # every vertex sees the same common-neighbour counts along its edges
        per_vertex = {
            tuple(sorted(len(g.adj[v] & g.adj[w]) for w in g.adj[v]))
            for v in range(n)
        }
        assert len(per_vertex) == 1


def test_g8_structure():
    g = g8()
    assert g.n == 8 and g.edge_count == 16
    assert all(g.degree(v) == 4 for v in range(8))
    # every edge lies in a triangle
    assert all(g.adj[u] & g.adj[v] for u, v in g.edges())
    # the three hub vertices are pairwise non-adjacent
    hubs = (2, 3, 4)
    assert all(not g.has_edge(a, b) for a in hubs for b in hubs if a < b)
    assert common_neighbour_profile(g) != common_neighbour_profile(square_of_cycle(8))


def test_h_graph_counts():
    for n in (2, 3, 4):
        g = h_graph(n)
        assert g.n == 6 * n
        # per block: 6 clique edges + 2 + 2 port edges + 1 bridge
        assert g.edge_count == 11 * n
        degs = sorted(g.degree(v) for v in range(g.n))
        assert degs == [3] * (2 * n) + [4] * (4 * n)
        assert cost15(g) == 30 * n  # cost 2n


def test_h_graph_rejects_small():
    with pytest.raises(ValueError):
        h_graph(1)


def test_h2_optimum():
    assert exact_u(h_graph(2)) == 6


def _spanning_trees(g: Graph):
    edges = g.edges()
    n, m = g.n, len(edges)
    out = []

    def connected_with(live):
        adj = [[] for _ in range(n)]
        for i in live:
            u, v = edges[i]
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    def rec(idx, parent, chosen, live):
        if len(chosen) == n - 1:
            out.append(tuple(chosen))
            return
        if idx == m:
            return

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            nxt = list(parent)
            nxt[ru] = rv
            rec(idx + 1, nxt, chosen + [idx], live)
        rest = live - {idx}
        if connected_with(rest):
            rec(idx + 1, list(parent), chosen, rest)

    rec(0, list(range(n)), [], set(range(m)))
    return out


def test_h2_leaf_set_never_a_cutset():
    # exhaustive over all spanning trees of the two-block cycle graph
    g = h_graph(2)
    edges = g.edges()
    trees = _spanning_trees(g)
    assert len(trees) == 45000  # matrix-tree count
    best = 0
    for tree in trees:
        deg = [0] * g.n
        for i in tree:
            u, v = edges[i]
            deg[u] += 1
            deg[v] += 1
        leaves = {v for v in range(g.n) if deg[v] == 1}
        best = max(best, len(leaves))
        rest, _ = g.induced(set(range(g.n)) - leaves)
        assert rest.is_connected()
    assert best == 6  # doubles as exhaustive confirmation of the optimum


def test_random_connected_respects_contract():
    g = random_connected(10, 3, 4, seed=7)
    assert g.is_connected()
    assert all(3 <= g.degree(v) <= 4 for v in range(10))


def test_random_connected_deterministic():
    # pinned edge lists: any change to the random stream's use fails here
    a = random_connected(9, 2, 5, seed=123)
    assert a == random_connected(9, 2, 5, seed=123)
    assert sorted(a.edges()) == [
        (0, 2), (0, 3), (0, 4), (0, 7), (1, 4), (1, 5), (1, 6),
        (2, 4), (2, 5), (2, 6), (2, 8), (3, 5), (7, 8),
    ]
    assert sorted(random_connected(9, 2, 5, seed=124).edges()) == [
        (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (2, 6),
        (3, 6), (3, 7), (5, 7), (5, 8), (7, 8),
    ]


def test_random_connected_single_edge():
    g = random_connected(2, 1, 1, seed=0)
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_random_connected_needs_two_vertices():
    with pytest.raises(ValueError, match="need n >= 2"):
        random_connected(1, 1, 1, seed=0)


def test_random_connected_infeasible():
    with pytest.raises((GenerationError, ValueError)):
        random_connected(5, 1, 0, seed=1)
    with pytest.raises(GenerationError):
        random_connected(6, 1, 1, seed=1)  # no connected graph fits


@pytest.mark.parametrize(
    "n,dmin,dmax",
    [(9, 3, 3), (7, 5, 5), (101, 1, 1), (3, 1, 1)],
    ids=["3-regular-n9", "5-regular-n7", "max-degree-1-n101", "max-degree-1-n3"],
)
def test_random_connected_impossible_fails_fast(monkeypatch, n, dmin, dmax):
    # an odd degree sum, or n > 2 vertices of degree <= 1, is refused
    # before any attempt is made
    def no_attempt(*args):
        raise AssertionError("generation attempted")

    monkeypatch.setattr(families, "_try_generate", no_attempt)
    message = rf"^no graph with n={n}, degrees in \[{dmin},{dmax}\]$"
    with pytest.raises(GenerationError, match=message):
        random_connected(n, dmin, dmax, seed=1)


def test_random_connected_says_when_the_random_search_gave_up():
    # K14 fits n=14, degrees [13,13], but seed 1's 300 attempts miss it
    message = (
        r"^random search gave up on n=14, degrees in \[13,13\] after 300 attempts$"
    )
    with pytest.raises(GenerationError, match=message):
        random_connected(14, 13, 13, seed=1)
    assert random_connected(14, 13, 13, seed=0).edge_count == 14 * 13 // 2


def test_random_connected_large_n_contract():
    n = 10**4
    g = random_connected(n, 3, 4, seed=7)
    assert g.n == n and g.is_connected()
    assert all(3 <= g.degree(v) <= 4 for v in range(n))


@st.composite
def rank_queries(draw):
    items = sorted(draw(st.sets(st.integers(0, 200), min_size=1)))
    skip = sorted(draw(st.sets(st.sampled_from(items), max_size=len(items) - 1)))
    k = draw(st.integers(0, len(items) - len(skip) - 1))
    return items, skip, k


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rank_queries())
def test_kth_skips_members_by_rank(query):
    items, skip, k = query
    assert _kth(items, k, skip) == [x for x in items if x not in skip][k]


def test_enumerate_regular_catalogs():
    assert len(enumerate_regular_graphs(6, 4)) == 1
    eight = enumerate_regular_graphs(8, 4)
    assert len(eight) == 6
    # pairwise non-isomorphic: even their edge profiles differ
    assert len({common_neighbour_profile(g)[0] for g in eight}) == 6
    assert len(enumerate_regular_graphs(8, 3)) == 5
    assert enumerate_regular_graphs(5, 3) == []  # odd degree sum
