"""Deterministic generators for named graphs and seeded random graphs."""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, is_isomorphic


class GenerationError(RuntimeError):
    """Raised when random generation cannot satisfy its degree constraints."""


def square_of_cycle(n: int) -> Graph:
    """Cycle on n vertices plus chords between vertices at distance 2."""
    if n < 5:
        raise ValueError("square of a cycle needs n >= 5")
    edges = set()
    for i in range(n):
        for d in (1, 2):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    return Graph(n, edges)


def g8() -> Graph:
    """The 4-regular 8-vertex graph with a 3-vertex cutset of independent hubs.

    Layout: 0,1 an adjacent pair joined to all three hubs 2,3,4; triangle
    5,6,7; each triangle vertex joined to exactly two hubs, hubs pairwise
    non-adjacent.
    """
    a1, a2 = 0, 1
    r1, r2, r3 = 2, 3, 4
    b1, b2, b3 = 5, 6, 7
    edges = [(a1, a2)]
    edges += [(a, r) for a in (a1, a2) for r in (r1, r2, r3)]
    edges += [(b1, b2), (b1, b3), (b2, b3)]
    edges += [(r1, b2), (r1, b3), (r2, b1), (r2, b3), (r3, b1), (r3, b2)]
    return Graph(8, edges)


def h_graph(n: int) -> Graph:
    """Cycle of n six-vertex blocks; the family where the leaf bound is tight.

    Block i is a K4 on {x,y,z,v} plus two degree-3 ports: a adjacent to x,y
    and b adjacent to z,v; consecutive blocks are joined by the edge
    b_i a_{i+1} (cyclically).
    """
    if n < 2:
        raise ValueError("h_graph needs n >= 2")
    # block-local ids: x=0 y=1 z=2 v=3 a=4 b=5
    def vid(block: int, local: int) -> int:
        return 6 * block + local

    edges = []
    for i in range(n):
        x, y, z, v, a, b = (vid(i, k) for k in range(6))
        edges += [(x, y), (x, z), (x, v), (y, z), (y, v), (z, v)]
        edges += [(a, x), (a, y), (b, z), (b, v)]
        edges.append((b, vid((i + 1) % n, 4)))
    return Graph(6 * n, edges)


def random_connected(n: int, dmin: int, dmax: int, seed: int) -> Graph:
    """Seeded connected graph with all degrees in [dmin, dmax].

    Builds a random spanning tree honoring dmax, adds a random number of
    random edges, then repairs low-degree vertices with random augmenting
    edges; retries from scratch on dead ends and raises GenerationError
    when the bounds look infeasible, at once when they are provably so.

    Every draw is a rank: the eligible vertices are kept in Fenwick trees
    (`_RankSet`), `rng.choice(range(k))` or `rng.sample(range(k), 2)`
    picks ranks among the k of them, and the tree maps each rank to the
    vertex of that rank in ascending order.  `choice` and `sample` consume
    the random stream according to the length of their sequence alone, so
    the graphs are the same, edge for edge, as those of the list-building
    generator this replaces, at O(log n) per draw instead of O(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= dmin <= dmax < n):
        raise ValueError("need 1 <= dmin <= dmax < n")
    # a connected graph on n > 2 vertices has a vertex of degree >= 2, and a
    # d-regular graph has an even degree sum: no attempt can succeed
    if not ((dmax == 1 and n > 2) or (dmin == dmax and n * dmin % 2)):
        rng = random.Random(seed)
        for _ in range(300):
            g = _try_generate(n, dmin, dmax, rng)
            if g is not None:
                return g
    raise GenerationError(f"no graph with n={n}, degrees in [{dmin},{dmax}]")


class _RankSet:
    """A subset of range(n) kept as a Fenwick tree of 0/1 counts.

    Insert, remove and k-th smallest member each take O(log n)
    (Fenwick, "A new data structure for cumulative frequency tables",
    Software: Practice and Experience 24(3), 1994).  Membership is not
    recorded: callers insert only non-members and remove only members.
    """

    __slots__ = ("count", "_size", "_steps", "_tree")

    def __init__(self, n: int, members=()) -> None:
        size = 1 << (n - 1).bit_length()  # a power of two >= n
        tree = [0] * (size + 1)
        if members:
            for v in members:
                tree[v + 1] = 1
            for i in range(1, size):  # linear build: each node adds into its parent
                tree[i + (i & -i)] += tree[i]
        self.count = tree[size]
        self._size = size
        # kth descends from the root's children: size/2, size/4, ..., 1
        self._steps = [size >> b for b in range(1, size.bit_length())]
        self._tree = tree

    # insert and remove are spelled out, not one update(v, delta): the extra
    # call is a measurable share of a call at the sweep's n = 10..16
    def insert(self, v: int) -> None:
        tree, size = self._tree, self._size
        v += 1
        while v <= size:
            tree[v] += 1
            v += v & -v
        self.count += 1

    def remove(self, v: int) -> None:
        tree, size = self._tree, self._size
        v += 1
        while v <= size:
            tree[v] -= 1
            v += v & -v
        self.count -= 1

    def kth(self, k: int, skip=()) -> int:
        """The member of rank k (from 0) once the members `skip` (ascending) are left out."""
        tree = self._tree
        for e in skip:
            rank = 0  # members smaller than e
            while e:
                rank += tree[e]
                e &= e - 1
            if rank > k:
                break
            k += 1
        pos = 0
        for step in self._steps:
            c = tree[pos + step]
            if c <= k:
                pos += step
                k -= c
        return pos


def _try_generate(n: int, dmin: int, dmax: int, rng: random.Random) -> Graph | None:
    deg = [0] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    open_ = _RankSet(n)  # tree vertices with deg < dmax

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        if deg[u] == dmax:
            open_.remove(u)
        if deg[v] == dmax:
            open_.remove(v)

    # each new vertex hangs from a random open tree vertex: it is adjacent
    # to none of them yet, so every one is a host
    open_.insert(0)
    order = list(range(1, n))
    rng.shuffle(order)
    for v in order:
        if not open_.count:
            return None
        u = open_.kth(rng.choice(range(open_.count)))
        open_.insert(v)
        add(u, v)

    # random augmenting edges before repair, when there is slack for them
    extra = rng.randint(0, n)
    for _ in range(extra):
        if open_.count < 2:
            break
        i, j = rng.sample(range(open_.count), 2)
        u, v = open_.kth(i), open_.kth(j)
        if v not in adj[u]:
            add(u, v)

    # join a random low vertex v to a random low vertex, else to a random
    # open one; v and its neighbours (fewer than dmin) are skipped by rank
    low = _RankSet(n, [v for v in range(n) if deg[v] < dmin])
    for _ in range(4 * n + 8):
        if not low.count:
            break
        v = low.kth(rng.choice(range(low.count)))
        banned = sorted((v, *adj[v]))
        skip = [w for w in banned if deg[w] < dmin]
        if low.count > len(skip):
            u = low.kth(rng.choice(range(low.count - len(skip))), skip)
        else:
            skip = [w for w in banned if deg[w] < dmax]
            if open_.count == len(skip):
                return None
            u = open_.kth(rng.choice(range(open_.count - len(skip))), skip)
        add(v, u)
        if deg[v] == dmin:
            low.remove(v)
        if deg[u] == dmin:
            low.remove(u)
    if low.count:
        return None
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def enumerate_regular_graphs(n: int, d: int) -> list[Graph]:
    """All connected d-regular graphs on n vertices, up to isomorphism.

    Backtracking over neighbor choices in vertex order; vertex 0's
    neighborhood is pinned to {1..d}, which every regular graph admits
    under some relabeling.  Small n only.
    """
    if n * d % 2 != 0 or d >= n:
        return []
    reps: list[Graph] = []

    def extend(v: int, adj: list[set[int]]) -> None:
        if v == n:
            g = Graph(n, [(a, b) for a in range(n) for b in adj[a] if a < b])
            if g.is_connected() and not any(is_isomorphic(g, r) for r in reps):
                reps.append(g)
            return
        need = d - len(adj[v])
        if need == 0:
            extend(v + 1, adj)
            return
        pool = [w for w in range(v + 1, n) if len(adj[w]) < d]
        if len(pool) < need:
            return
        for chosen in combinations(pool, need):
            for w in chosen:
                adj[v].add(w)
                adj[w].add(v)
            extend(v + 1, adj)
            for w in chosen:
                adj[v].remove(w)
                adj[w].remove(v)

    adj0: list[set[int]] = [set() for _ in range(n)]
    for w in range(1, d + 1):
        adj0[0].add(w)
        adj0[w].add(0)
    extend(1, adj0)
    return reps
