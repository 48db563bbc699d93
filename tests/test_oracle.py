from __future__ import annotations

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
    min_cds,
    square_of_cycle,
    tree_from_cds,
)
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import random_graph_pool


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


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
    assert min_cds(star) == [0]


def test_min_cds_c6sq():
    dom = min_cds(square_of_cycle(6))
    g = square_of_cycle(6)
    assert len(dom) == 2 and g.has_edge(*dom)
    # no single vertex dominates a 4-regular graph on six vertices
    assert all(len(g.adj[v] | {v}) < 6 for v in range(6))


def test_min_cds_h2_size():
    g = h_graph(2)
    assert len(min_cds(g)) == g.n - 6


def test_min_cds_lexicographic_tiebreak():
    # in a cycle every adjacent pair of size n-2 works; lex-first must win
    g = cycle(5)
    assert min_cds(g) == [0, 1, 2]


def test_tree_from_cds_realizes_the_optimum():
    for g in (square_of_cycle(6), g8(), h_graph(2), cycle(7)):
        dom = min_cds(g)
        parents = tree_from_cds(g, dom)
        st = SpanningTree.from_parents(parents)
        check_spanning_tree(g, st)
        assert st.leaf_count() == exact_u(g)
        internal = {v for v in range(g.n) if v not in st.leaves()}
        assert internal <= set(dom)


def test_duality_on_random_graphs():
    for g in random_graph_pool(40, sizes=(3, 10), seed=99):
        u = exact_u(g)
        dom = min_cds(g)
        assert u == g.n - len(dom)
        st = SpanningTree.from_parents(tree_from_cds(g, dom))
        check_spanning_tree(g, st)
        assert st.leaf_count() == u


def test_bound_floor_on_fixtures():
    for g in (square_of_cycle(7), g8(), h_graph(2), cycle(9), path(6)):
        u = exact_u(g)
        floor = 24 if classify_exclusion(g) else 30
        assert 15 * u - cost15(g) >= floor
    # the six-vertex exclusion sits exactly at 8/5
    g = square_of_cycle(6)
    assert 15 * exact_u(g) - cost15(g) == 24


def test_backend_env_flag():
    # "python" is the only accepted backend name
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


def test_classify_exclusion_shuffled_g8():
    import random

    rng = random.Random(3)
    base = g8()
    perm = list(range(8))
    rng.shuffle(perm)
    shuffled = Graph(8, [(perm[u], perm[v]) for u, v in base.edges()])
    assert classify_exclusion(shuffled) is ExclusionKind.G8


def test_max_leaf_tree_k2():
    assert max_leaf_tree(Graph(2, [(0, 1)])) == [-1, 0]
