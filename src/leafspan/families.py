"""Deterministic generators for named graphs and seeded random graphs."""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .graph import Graph


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
    when 300 attempts fail, at once when the bounds are provably
    infeasible.

    Every draw is a rank: the eligible vertices are kept in ascending
    lists, updated with `bisect`, and `rng.choice(range(k))` or
    `rng.sample(range(k), 2)` picks ranks among the k of them.  `choice`
    and `sample` consume the random stream according to the length of
    their sequence alone, so the graphs are the same, edge for edge, as
    those of the generator that built each list of eligible vertices anew
    for every draw.  An insert or remove is a memmove, O(n) but cheap: up
    to about 5*10^4 vertices it beats an O(log n) tree walked in Python.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= dmin <= dmax < n):
        raise ValueError("need 1 <= dmin <= dmax < n")
    # a connected graph on n > 2 vertices has a vertex of degree >= 2, and a
    # d-regular graph has an even degree sum: no attempt can succeed
    if (dmax == 1 and n > 2) or (dmin == dmax and n * dmin % 2):
        raise GenerationError(f"no graph with n={n}, degrees in [{dmin},{dmax}]")
    rng = random.Random(seed)
    for _ in range(300):
        g = _try_generate(n, dmin, dmax, rng)
        if g is not None:
            return g
    # not a proof: K14 fits n=14, [13,13], yet seed 1's attempts all fail
    raise GenerationError(
        f"random search gave up on n={n}, degrees in [{dmin},{dmax}] after 300 attempts"
    )


def _kth(items: list[int], k: int, skip: list[int]) -> int:
    """The member of rank k (from 0) of ascending `items` once the members
    `skip` (ascending) are left out."""
    for e in skip:
        if bisect_left(items, e) > k:
            break
        k += 1
    return items[k]


def _try_generate(n: int, dmin: int, dmax: int, rng: random.Random) -> Graph | None:
    deg = [0] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    open_ = [0]  # tree vertices with deg < dmax, ascending

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        if deg[u] == dmax:
            del open_[bisect_left(open_, u)]
        if deg[v] == dmax:
            del open_[bisect_left(open_, v)]

    # each new vertex hangs from a random open tree vertex: it is adjacent
    # to none of them yet, so every one is a host
    order = list(range(1, n))
    rng.shuffle(order)
    for v in order:
        if not open_:
            return None
        u = open_[rng.choice(range(len(open_)))]
        insort(open_, v)
        add(u, v)

    # random augmenting edges before repair, when there is slack for them
    extra = rng.randint(0, n)
    for _ in range(extra):
        if len(open_) < 2:
            break
        i, j = rng.sample(range(len(open_)), 2)
        u, v = open_[i], open_[j]
        if v not in adj[u]:
            add(u, v)

    # join a random low vertex v to a random low vertex, else to a random
    # open one; v and its neighbours (fewer than dmin) are skipped by rank
    low = [v for v in range(n) if deg[v] < dmin]  # ascending
    for _ in range(4 * n + 8):
        if not low:
            break
        v = low[rng.choice(range(len(low)))]
        banned = sorted((v, *adj[v]))
        skip = [w for w in banned if deg[w] < dmin]
        if len(low) > len(skip):
            u = _kth(low, rng.choice(range(len(low) - len(skip))), skip)
        else:
            skip = [w for w in banned if deg[w] < dmax]
            if len(open_) == len(skip):
                return None
            u = _kth(open_, rng.choice(range(len(open_) - len(skip))), skip)
        add(v, u)
        if deg[v] == dmin:
            del low[bisect_left(low, v)]
        if deg[u] == dmin:
            del low[bisect_left(low, u)]
    if low:
        return None
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
