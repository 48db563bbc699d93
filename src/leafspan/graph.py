"""Simple undirected graphs and the exact cost arithmetic used throughout.

Vertices are dense integers 0..n-1.  Graphs are immutable after
construction; operations that change the vertex set return a new graph
together with an old-id -> new-id mapping so traces can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


# Per-vertex cost in fifteenths: 2/5 for T, 1/5 for S, 0 otherwise.
T_COST15 = 6
S_COST15 = 3


@dataclass(frozen=True, slots=True, order=True)
class Fifteenths:
    """Exact rational in units of 1/15.

    Every constant in the leaf-count accounting is a multiple of 1/15
    (1/5 = 3/15, 2/5 = 6/15, 13/15, 2/15, ...), so a single signed
    counter of fifteenths gives exact arithmetic and exact equality.
    """

    num: int

    @classmethod
    def whole(cls, k: int) -> "Fifteenths":
        return cls(15 * k)

    def __add__(self, other: "Fifteenths") -> "Fifteenths":
        return Fifteenths(self.num + other.num)

    def __sub__(self, other: "Fifteenths") -> "Fifteenths":
        return Fifteenths(self.num - other.num)

    def __neg__(self) -> "Fifteenths":
        return Fifteenths(-self.num)

    def __mul__(self, k: int) -> "Fifteenths":
        return Fifteenths(self.num * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        # Always rendered unreduced so 8/5 prints as 24/15.
        return f"{self.num}/15"


class Graph:
    """Undirected simple graph with per-vertex neighbor sets."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in sets)

    # -- basic queries ------------------------------------------------

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count})"

    # -- connectivity -------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum."""
        seen = [False] * self.n
        parts: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            part = []
            while stack:
                v = stack.pop()
                part.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            parts.append(sorted(part))
        return parts

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def induced(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `vertices`; returns (graph, old->new map)."""
        order = sorted(set(vertices))
        remap = {old: new for new, old in enumerate(order)}
        edges = [
            (remap[u], remap[v])
            for u in order
            for v in self.adj[u]
            if u < v and v in remap
        ]
        return Graph(len(order), edges), remap


def vertex_cost15(g: Graph, v: int) -> int:
    d = g.degree(v)
    if d >= 4:
        return T_COST15
    if d == 3:
        return S_COST15
    return 0


def degree_counts(g: Graph, vertices=None) -> tuple[int, int]:
    """(s, t): how many of `vertices` (default: all of g) have degree 3 / >= 4."""
    vs = range(g.n) if vertices is None else vertices
    s = t = 0
    for v in vs:
        d = g.degree(v)
        if d >= 4:
            t += 1
        elif d == 3:
            s += 1
    return s, t


def cost15(g: Graph, vertices=None) -> int:
    """Cost of a vertex set (default: all of g) in fifteenths."""
    vs = range(g.n) if vertices is None else vertices
    return sum(vertex_cost15(g, v) for v in vs)


def triangle_counts(g: Graph) -> list[int]:
    """Number of triangles through each vertex (isomorphism invariant)."""
    counts = [0] * g.n
    for u in range(g.n):
        nb = sorted(g.adj[u])
        counts[u] = sum(1 for v, w in combinations(nb, 2) if w in g.adj[v])
    return counts


def _iso_signature(g: Graph) -> list[tuple]:
    tri = triangle_counts(g)
    sig = []
    for v in range(g.n):
        nbr_degs = tuple(sorted(g.degree(w) for w in g.adj[v]))
        sig.append((g.degree(v), tri[v], nbr_degs))
    return sig


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Edge-preserving bijection test by backtracking; intended for n <= ~10.

    Prunes on degree, triangle count, and neighbor-degree multisets before
    searching.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    sig_g = _iso_signature(g)
    sig_h = _iso_signature(h)
    if sorted(sig_g) != sorted(sig_h):
        return False

    n = g.n
    # Order g's vertices so each (after the first) touches an earlier one
    # where possible: keeps the adjacency constraints tight early.
    order: list[int] = []
    placed = [False] * n
    for _ in range(n):
        best = None
        for v in range(n):
            if placed[v]:
                continue
            anchored = sum(1 for w in g.adj[v] if placed[w])
            key = (-anchored, -g.degree(v), v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed[best[1]] = True

    mapping: dict[int, int] = {}
    used = [False] * n

    def backtrack(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for cand in range(n):
            if used[cand] or sig_h[cand] != sig_g[v]:
                continue
            ok = True
            for w, mw in mapping.items():
                if (w in g.adj[v]) != (mw in h.adj[cand]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = cand
            used[cand] = True
            if backtrack(idx + 1):
                return True
            del mapping[v]
            used[cand] = False
        return False

    return backtrack(0)
