"""The branch-and-bound oracle against the plain subset scan it replaced.

`reference_min_cds` is the ascending-cardinality scan the oracle used
before, kept unchanged as the reference: the first connected dominating
subset it meets is minimum.  The oracle may break ties differently, so its
set is checked for size, connectivity and domination, not element for
element; the oracle's own tie-break is pinned by a hash of its sets.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from leafspan import (
    Graph,
    exact_u,
    g8,
    h_graph,
    max_leaf_tree,
    random_connected,
    square_of_cycle,
)
from leafspan.oracle import ORACLE_MAX_N, _search_min_cds, adjacency_masks
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import complete, cycle, path, random_graph_pool


def _is_connected_mask(mask: int, adj: list[int]) -> bool:
    reached = mask & (-mask)
    while True:
        grown = reached
        rest = reached
        while rest:
            low = rest & (-rest)
            grown |= adj[low.bit_length() - 1] & mask
            rest ^= low
        if grown == reached:
            return reached == mask
        reached = grown


def reference_min_cds(g: Graph) -> list[int]:
    """Lexicographically first minimum connected dominating set.

    Ascending-cardinality subset search: combinations() yields size-k
    subsets in lexicographic order, so the first hit is the tie-break
    winner.
    """
    n = g.n
    adj = adjacency_masks(g)
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            cover = 0
            mask = 0
            for v in subset:
                cover |= closed[v]
                mask |= 1 << v
            if cover != full:
                continue
            if _is_connected_mask(mask, adj):
                return list(subset)
    raise AssertionError("connected graph must have a connected dominating set")


def star(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def sweep_named_cases():
    """The fixed cases of the sweep-small benchmark workload."""
    c6sq = square_of_cycle(6)
    (u, v), *rest = sorted(c6sq.edges())
    return [
        square_of_cycle(14),
        cycle(16),
        h_graph(2),
        random_connected(15, 3, 5, 11),
        random_connected(16, 2, 6, 12),
        c6sq,
        square_of_cycle(8),
        g8(),
        Graph(7, [*rest, (u, 6), (v, 6)]),
    ]


def assert_matches_reference(g: Graph) -> None:
    want = reference_min_cds(g)
    u = exact_u(g)
    assert u == g.n - len(want)
    dom = _search_min_cds(g)
    adj = adjacency_masks(g)
    mask = sum(1 << v for v in dom)
    cover = mask
    for v in dom:
        cover |= adj[v]
    assert cover == (1 << g.n) - 1 and _is_connected_mask(mask, adj)
    assert len(dom) == len(set(dom)) == len(want)
    st = SpanningTree.from_parents(max_leaf_tree(g))
    check_spanning_tree(g, st)
    assert st.leaf_count() == u
    assert {v for v, d in enumerate(st.degrees()) if d != 1} == set(dom)


def test_matches_reference_on_random_graphs():
    pool = random_graph_pool(500, sizes=(3, 16), seed=20261018)
    assert len(pool) == 500
    for g in pool:
        assert_matches_reference(g)


@pytest.mark.parametrize("family", [cycle, path, star, complete])
def test_matches_reference_on_basic_families(family):
    for n in range(3, 17):
        assert_matches_reference(family(n))


def test_matches_reference_on_named_graphs():
    for n in range(5, 17):
        assert_matches_reference(square_of_cycle(n))
    for g in (h_graph(2), g8(), *sweep_named_cases()):
        assert_matches_reference(g)
    # a draw that reaches the search's `dom == full` completion, which
    # random draws with n 6..16 almost never do
    assert_matches_reference(random_connected(13, 2, 12, 577219079))


def past_the_budget_pool() -> list[Graph]:
    """n = 17..24 over the sweep degree regimes, seeds 0..5, plus H_4 and
    the squared cycles on 20 and 24 vertices."""
    graphs = [
        random_connected(n, dmin, dmax, seed)
        for n in range(17, 25)
        for dmin, dmax in [(1, n - 1), (2, n - 1), (3, n - 1), (2, 3), (3, 4)]
        for seed in range(6)
    ]
    return graphs + [h_graph(4), square_of_cycle(20), square_of_cycle(24)]


def test_search_output_pinned():
    pool = random_graph_pool(500, sizes=(3, 16), seed=20261018)
    pool += [f(n) for f in (cycle, path, star, complete) for n in range(3, 25)]
    pool += past_the_budget_pool()
    assert len(pool) == 831
    digest = hashlib.sha256()
    for g in pool:
        line = " ".join(map(str, _search_min_cds(g)))
        if g.n <= ORACLE_MAX_N:
            line += " | " + " ".join(map(str, max_leaf_tree(g))) + f" | {exact_u(g)}"
        digest.update(line.encode() + b"\n")
    # taken while the search still cut a branch once an excluded vertex left
    # a neighbour with no candidate; the sets must not have moved
    assert digest.hexdigest() == (
        "d2cb56142edc2bacfdc18d72db4e8c673d6de04195eb45ed39a40d917f9c85e7"
    )
