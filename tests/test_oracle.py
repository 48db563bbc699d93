from __future__ import annotations

from collections import Counter

import pytest

from leafspan import (
    ExclusionKind,
    Graph,
    OracleBudgetError,
    classify_exclusion,
    cost15,
    exact_u,
    g8,
    h_graph,
    max_leaf_tree,
    square_of_cycle,
)
from leafspan import oracle
from leafspan.oracle import _search_min_cds
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import (
    common_neighbour_profile,
    cycle,
    enumerate_regular_graphs,
    path,
    random_graph_pool,
)


def test_cycles_have_two_leaves():
    for n in (3, 5, 8, 12):
        assert exact_u(cycle(n)) == 2


def test_named_values():
    assert exact_u(square_of_cycle(6)) == 4
    assert exact_u(square_of_cycle(8)) == 5
    assert exact_u(g8()) == 5
    assert exact_u(path(5)) == 2
    assert exact_u(Graph(2, [(0, 1)])) == 2
    assert exact_u(h_graph(2)) == 6


def test_budget_error():
    with pytest.raises(OracleBudgetError):
        exact_u(cycle(17))


def test_min_cds_star():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert _search_min_cds(star) == [0]


def test_min_cds_c6sq():
    dom = _search_min_cds(square_of_cycle(6))
    g = square_of_cycle(6)
    assert len(dom) == 2 and g.has_edge(*dom)
    # no single vertex dominates a 4-regular graph on six vertices
    assert all(len(g.adj[v] | {v}) < 6 for v in range(6))


def test_min_cds_h2_size():
    g = h_graph(2)
    assert len(_search_min_cds(g)) == g.n - 6


def test_min_cds_ties_break_the_same_way_every_call():
    # in a cycle every run of n-2 consecutive vertices is a minimum CDS
    for g in (cycle(5), cycle(12), square_of_cycle(10), h_graph(2)):
        first = _search_min_cds(g)
        assert all(_search_min_cds(g) == first for _ in range(3))
        assert _search_min_cds(Graph(g.n, g.edges())) == first
        assert max_leaf_tree(Graph(g.n, g.edges())) == max_leaf_tree(g)


def test_max_leaf_tree_realizes_the_optimum():
    for g in (square_of_cycle(6), g8(), h_graph(2), cycle(7)):
        dom = _search_min_cds(g)
        st = SpanningTree.from_parents(max_leaf_tree(g))
        check_spanning_tree(g, st)
        assert st.leaf_count() == exact_u(g)
        # on n >= 3 the internal vertices are exactly the search's set
        internal = {v for v, d in enumerate(st.degrees()) if d != 1}
        assert internal == set(dom)


def test_duality_on_random_graphs():
    for g in random_graph_pool(40, sizes=(3, 10), seed=99):
        u = exact_u(g)
        dom = _search_min_cds(g)
        assert u == g.n - len(dom)
        st = SpanningTree.from_parents(max_leaf_tree(g))
        check_spanning_tree(g, st)
        assert st.leaf_count() == u
        assert {v for v, d in enumerate(st.degrees()) if d != 1} == set(dom)


def test_bound_floor_on_fixtures():
    for g in (square_of_cycle(7), g8(), h_graph(2), cycle(9), path(6)):
        u = exact_u(g)
        floor = 24 if classify_exclusion(g) else 30
        assert 15 * u - cost15(g) >= floor
    # the six-vertex exclusion sits exactly at 8/5
    g = square_of_cycle(6)
    assert 15 * exact_u(g) - cost15(g) == 24


def test_backend_accepts_only_python():
    g = g8()
    assert exact_u(g, backend="python") == exact_u(g)
    with pytest.raises(ValueError):
        exact_u(g, backend="numba")


def test_classify_exclusion():
    assert classify_exclusion(square_of_cycle(6)) is ExclusionKind.C6sq
    assert classify_exclusion(square_of_cycle(8)) is ExclusionKind.C8sq
    assert classify_exclusion(square_of_cycle(10)) is None
    assert classify_exclusion(g8()) is ExclusionKind.G8
    assert classify_exclusion(h_graph(2)) is None


def test_exclusion_profiles_pin_c8sq_and_g8():
    assert oracle._EXCLUSION_PROFILES == {
        common_neighbour_profile(square_of_cycle(8))[0]: ExclusionKind.C8sq,
        common_neighbour_profile(g8())[0]: ExclusionKind.G8,
    }
    # the six 4-regular graphs on 8 vertices have six edge profiles, so the
    # lookup names exactly one of them C8sq and one G8
    eight = enumerate_regular_graphs(8, 4)
    assert len({common_neighbour_profile(g)[0] for g in eight}) == 6
    kinds = Counter(classify_exclusion(g) for g in eight)
    assert kinds == {ExclusionKind.C8sq: 1, ExclusionKind.G8: 1, None: 4}


def test_max_leaf_tree_k2():
    # the search's set on K2 is [0], and the BFS from it gives [-1, 0]
    k2 = Graph(2, [(0, 1)])
    assert _search_min_cds(k2) == [0]
    assert max_leaf_tree(k2) == [-1, 0]
