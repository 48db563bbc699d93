"""Exact maximum-leaf counts for small graphs, plus exclusion recognition.

For connected graphs on n >= 3 vertices the maximum number of spanning-tree
leaves equals n minus the size of a minimum connected dominating set, so the
oracle searches vertex subsets in ascending cardinality, each size in
lexicographic order; the first connected dominating subset found is both
minimum and the lexicographic tie-break winner.  Domination and
connectivity are tested on integer bitmasks.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from . import families
from .graph import Graph, is_isomorphic

ORACLE_MAX_N = 16


class OracleBudgetError(ValueError):
    """Graph too large for exact search; never silently approximated."""


class ExclusionKind(Enum):
    C6sq = "C6sq"
    C8sq = "C8sq"
    G8 = "G8"


def adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


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


def _min_cds_py(g: Graph) -> list[int]:
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


def _require_small(g: Graph) -> None:
    if g.n > ORACLE_MAX_N:
        raise OracleBudgetError(
            f"exact search limited to n <= {ORACLE_MAX_N}, got n = {g.n}"
        )


def min_cds(g: Graph) -> list[int]:
    """Minimum connected dominating set, lexicographically smallest on ties."""
    _require_small(g)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n < 3:
        raise ValueError("connected dominating set duality needs n >= 3")
    return _min_cds_py(g)


def exact_u(g: Graph, backend: str = "python") -> int:
    """Maximum number of leaves over all spanning trees of g (exact).

    `backend` accepts only "python", the one search there is; the keyword
    stays so that callers which name it keep working.
    """
    if backend != "python":
        raise ValueError(f"unknown backend {backend!r}; only 'python' exists")
    _require_small(g)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if g.n == 2:
        return 2
    return g.n - len(_min_cds_py(g))


def tree_from_cds(g: Graph, dom: list[int]) -> list[int]:
    """Spanning tree (parent array, root parent -1) with internal set <= dom.

    BFS inside the dominating set from its smallest member, then every
    remaining vertex hangs off its smallest dominating neighbor.
    """
    dset = set(dom)
    parents = [-2] * g.n
    root = min(dset)
    parents[root] = -1
    queue = [root]
    seen = {root}
    while queue:
        v = queue.pop(0)
        for w in sorted(g.adj[v]):
            if w in dset and w not in seen:
                seen.add(w)
                parents[w] = v
                queue.append(w)
    if seen != dset:
        raise ValueError("dominating set is not connected")
    for v in range(g.n):
        if v in dset:
            continue
        host = min(w for w in g.adj[v] if w in dset)
        parents[v] = host
    return parents


def max_leaf_tree(g: Graph) -> list[int]:
    """A spanning tree attaining exact_u(g), as a parent array."""
    _require_small(g)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    if g.n == 2:
        return [-1, 0]
    return tree_from_cds(g, min_cds(g))


_EXCLUSION_FIXTURES: list[tuple[ExclusionKind, Graph]] | None = None


def _fixtures() -> list[tuple[ExclusionKind, Graph]]:
    global _EXCLUSION_FIXTURES
    if _EXCLUSION_FIXTURES is None:
        _EXCLUSION_FIXTURES = [
            (ExclusionKind.C6sq, families.square_of_cycle(6)),
            (ExclusionKind.C8sq, families.square_of_cycle(8)),
            (ExclusionKind.G8, families.g8()),
        ]
    return _EXCLUSION_FIXTURES


def classify_exclusion(g: Graph) -> ExclusionKind | None:
    """Which of the three bound exclusions g is, if any."""
    if g.n not in (6, 8):
        return None
    if any(g.degree(v) != 4 for v in range(g.n)):
        return None
    for kind, fixture in _fixtures():
        if g.n == fixture.n and is_isomorphic(g, fixture):
            return kind
    return None
