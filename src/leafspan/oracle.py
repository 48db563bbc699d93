"""Exact maximum-leaf trees for small graphs, plus exclusion recognition.

For connected graphs on n >= 3 vertices the maximum number of spanning-tree
leaves equals n minus the size of a minimum connected dominating set (CDS).
One branch and bound finds such a set: a greedy CDS is the first incumbent,
then connected vertex sets are grown from each vertex of the closed
neighbourhood of a minimum-degree vertex (every CDS meets it), and a branch
is cut once even the highest-degree vertices could not dominate the rest
within the incumbent's size.  The set returned is the first minimum CDS the
search meets, so ties are broken deterministically for a labelled graph.
`exact_u` and `max_leaf_tree` both read this one search, behind one input
check.  Vertex sets, domination and connectivity are integer bitmasks.

The three exclusions (C6^2, C8^2 and G8) are recognised without a search:
they are the 4-regular graph on 6 vertices and the two 4-regular graphs on
8 vertices whose common-neighbour counts over the edges match a literal
profile; `classify_exclusion` says why that test is exact.
"""

from __future__ import annotations

from enum import Enum

from .graph import Graph

ORACLE_MAX_N = 16


class OracleBudgetError(ValueError):
    """Graph too large for exact search; never silently approximated."""


class ExclusionKind(Enum):
    C6sq = "C6sq"
    C8sq = "C8sq"
    G8 = "G8"


_BITS = [1 << v for v in range(ORACLE_MAX_N)]  # _BITS[v] is vertex v's bit


def adjacency_masks(g: Graph) -> list[int]:
    """Each vertex's neighbourhood as a bitmask, bit w set for neighbour w."""
    bits = _BITS if g.n <= ORACLE_MAX_N else [1 << v for v in range(g.n)]
    bit = bits.__getitem__
    return [sum(map(bit, nbrs)) for nbrs in g.adj]


def _greedy_cds(closed: list[int], full: int, root: int) -> int:
    """A CDS grown from `root`, each step adding the frontier vertex that
    dominates the most new vertices (lowest id on ties), as a bitmask."""
    inside = 1 << root
    dom = closed[root]
    while dom != full:
        best_gain = -1
        rest = dom & ~inside
        while rest:
            low = rest & (-rest)
            gain = (closed[low.bit_length() - 1] & ~dom).bit_count()
            if gain > best_gain:
                best_gain, pick = gain, low
            rest ^= low
        inside |= pick
        dom |= closed[pick.bit_length() - 1]
    return inside


def _search_min_cds(g: Graph) -> list[int]:
    """A minimum connected dominating set of a connected graph g, ascending.

    Branch and bound over connected sets: each search grows a set from one
    root, branching on its lowest frontier vertex (take it, or exclude it
    for the rest of the branch).  The roots are the closed neighbourhood of
    a minimum-degree vertex, each search excluding the roots before it.
    A vertex taken from the frontier is already dominated and has a
    neighbour in the set, so it dominates at most deg - 1 new vertices;
    `need[k]` is the fewest vertices whose degrees allow k more, and a
    branch that cannot beat the best set found with that many is cut.
    Every improvement records its set, so the last one is the answer.
    No budget check: callers apply ORACLE_MAX_N.
    """
    n = g.n
    adj = adjacency_masks(g)
    closed = [adj[v] | (1 << v) for v in range(n)]
    full = (1 << n) - 1
    deg = g.degrees
    # the greedy start grows from the first vertex of maximum degree
    best_set = _greedy_cds(closed, full, deg.index(max(deg)))
    best = best_set.bit_count()
    need = [0] + [n + 1] * n
    reach = 0
    for count, d in enumerate(sorted(deg, reverse=True), 1):
        gain = d - 1
        for k in range(reach + 1, min(reach + gain, n) + 1):
            need[k] = count
        reach += gain

    def grow(inside: int, dom: int, out: int, size: int) -> None:
        nonlocal best, best_set
        if dom == full:
            best, best_set = size, inside
            return
        lower = size + need[n - dom.bit_count()]
        while lower < best:
            frontier = dom & ~(inside | out)
            if size + 2 == best:
                # one vertex left to take: it must dominate all the rest
                while frontier:
                    low = frontier & (-frontier)
                    if dom | closed[low.bit_length() - 1] == full:
                        best, best_set = size + 1, inside | low
                        return
                    frontier ^= low
                return
            if not frontier:
                return
            low = frontier & (-frontier)
            grow(inside | low, dom | closed[low.bit_length() - 1], out, size + 1)
            out |= low

    roots = closed[deg.index(min(deg))]
    out = 0
    while roots and best > 1:
        low = roots & (-roots)
        grow(low, closed[low.bit_length() - 1], out, 1)
        out |= low
        roots ^= low
    return [v for v in range(n) if best_set >> v & 1]


def _checked_search(g: Graph) -> list[int]:
    """The search's CDS of g, once g is within budget, connected and has at
    least two vertices."""
    if g.n > ORACLE_MAX_N:
        raise OracleBudgetError(
            f"exact search limited to n <= {ORACLE_MAX_N}, got n = {g.n}"
        )
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if g.n < 2:
        raise ValueError("need at least two vertices")
    return _search_min_cds(g)


def exact_u(g: Graph, backend: str = "python") -> int:
    """Maximum number of leaves over all spanning trees of g (exact).

    n minus the size of the search's minimum CDS.  `backend` accepts only
    "python", the one search there is; the keyword stays so that callers
    which name it keep working.
    """
    if backend != "python":
        raise ValueError(f"unknown backend {backend!r}; only 'python' exists")
    dom = _checked_search(g)
    return 2 if g.n == 2 else g.n - len(dom)


def max_leaf_tree(g: Graph) -> list[int]:
    """A spanning tree attaining exact_u(g), as a parent array (root -1).

    BFS inside the search's CDS from its smallest member, then every other
    vertex hangs off its smallest neighbour in the set.  For n >= 3 the
    internal vertices are exactly that set; on K2 the set is [0] and the
    tree [-1, 0].
    """
    dom = set(_checked_search(g))
    parents = [-2] * g.n
    root = min(dom)
    parents[root] = -1
    queue = [root]
    seen = {root}
    while queue:
        v = queue.pop(0)
        for w in sorted(g.adj[v]):
            if w in dom and w not in seen:
                seen.add(w)
                parents[w] = v
                queue.append(w)
    if seen != dom:
        raise ValueError("dominating set is not connected")
    for v in range(g.n):
        if v not in dom:
            parents[v] = min(w for w in g.adj[v] if w in dom)
    return parents


# sorted |N(u) & N(v)| over the 16 edges uv; the other four 4-regular
# graphs on 8 vertices have 0^4 2^12, 0^2 1^10 2^4, 0^6 1^8 2^2 and 0^16
_EXCLUSION_PROFILES = {
    (1,) * 8 + (2,) * 8: ExclusionKind.C8sq,
    (1,) * 12 + (2,) * 3 + (3,): ExclusionKind.G8,
}


def classify_exclusion(g: Graph) -> ExclusionKind | None:
    """Which of the three bound exclusions g is, if any.

    All three are 4-regular.  On 6 vertices the complement of a 4-regular
    graph is a perfect matching, so the graph is K_{2,2,2} = C6^2.  Every
    component of a 4-regular graph has at least 5 vertices, so one on 8
    vertices is connected, hence one of the six 4-regular graphs on 8
    vertices; their edge profiles (common-neighbour counts over the
    edges) differ, and two of them name C8^2 and G8.
    """
    if g.n not in (6, 8) or any(len(nbrs) != 4 for nbrs in g.adj):
        return None
    if g.n == 6:
        return ExclusionKind.C6sq
    profile = tuple(sorted(len(g.adj[u] & g.adj[v]) for u, v in g.edges()))
    return _EXCLUSION_PROFILES.get(profile)
