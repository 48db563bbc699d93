"""Simple undirected graphs and the exact cost arithmetic used throughout.

Vertices are dense integers 0..n-1.  A `Graph` is immutable, and its
constructor sets every table the layers read: the neighbour sets `adj`,
the `degrees`, each vertex's cost `costs15` in fifteenths (2/5 for degree
>= 4, 1/5 for degree 3, 0 otherwise) and their sum `cost15`.  `renumbered`
is the one place that re-indexes a vertex subset, and `Graph.induced`
returns the sorted old ids beside its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import countOf


# Per-vertex cost in fifteenths: 2/5 for T, 1/5 for S, 0 otherwise.
T_COST15 = 6
S_COST15 = 3


@dataclass(frozen=True, slots=True, order=True)
class Fifteenths:
    """Exact rational in units of 1/15.

    Every constant in the leaf-count accounting is a multiple of 1/15
    (1/5 = 3/15, 2/5 = 6/15, 13/15, 2/15, ...), so a single signed
    counter of fifteenths gives exact equality and ordering; arithmetic
    is done on the integer `num`.
    """

    num: int

    def __str__(self) -> str:
        # Always rendered unreduced so 8/5 prints as 24/15.
        return f"{self.num}/15"


class Graph:
    """Undirected simple graph: neighbour sets, degrees and vertex costs."""

    __slots__ = ("n", "adj", "degrees", "costs15", "cost15")

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
        self._set_tables(sets)

    @classmethod
    def _from_sets(cls, sets: list[set[int]]) -> "Graph":
        """The graph with neighbour sets `sets`, taken as they are: the caller
        makes them symmetric, in range and loop-free, unchecked here."""
        g = cls.__new__(cls)
        g._set_tables(sets)
        return g

    def _set_tables(self, sets: list[set[int]]) -> None:
        self.n = len(sets)
        # `edges()` follows these sets' iteration order, which depends on how
        # they are built (one edge at a time, then frozen); seeded inputs
        # place vertices by that order, so a faster build must keep it
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, sets))
        self.degrees: tuple[int, ...] = tuple(map(len, sets))
        self.costs15: tuple[int, ...] = tuple(map(degree_cost15, self.degrees))
        self.cost15 = sum(self.costs15)

    # -- basic queries ------------------------------------------------

    def degree(self, v: int) -> int:
        self._check(v)
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

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
        return [sorted(self._reach(s, seen)) for s in range(self.n) if not seen[s]]

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0 (true for n <= 1);
        one walk from vertex 0, nothing sorted."""
        n = self.n
        return n <= 1 or len(self._reach(0, [False] * n)) == n

    def _reach(self, s: int, seen: list[bool]) -> list[int]:
        """The vertices not yet `seen` that a walk from s reaches, s first;
        marks them seen."""
        adj = self.adj
        seen[s] = True
        part = [s]
        for v in part:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    part.append(w)
        return part

    def induced(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph on `vertices`; new vertex i is old vertex order[i]."""
        order = sorted(set(vertices))
        if order:
            self._check(order[0])
            self._check(order[-1])
        return renumbered(self.adj, order), order


def renumbered(adj, ids: list[int]) -> Graph:
    """The graph the neighbour sets `adj` (symmetric, loop-free) induce on
    `ids`, old vertex ids[i] numbered i.

    `ids` ascends, so new[v] > i picks each kept edge once.  The new sets
    are filled directly, edge by edge in the order `Graph(n, edges)` would
    take the edge list (i ascending, each old set in its own order), so
    they iterate as that graph's would; no edge list is made or checked.
    """
    new = [-1] * len(adj)
    for i, v in enumerate(ids):
        new[v] = i
    sets: list[set[int]] = [set() for _ in ids]
    for i, u in enumerate(ids):
        mine = sets[i]
        for v in adj[u]:
            j = new[v]
            if j > i:
                mine.add(j)
                sets[j].add(i)
    return Graph._from_sets(sets)


def degree_cost15(d: int) -> int:
    """Cost of one vertex of degree d in fifteenths."""
    if d >= 4:
        return T_COST15
    if d == 3:
        return S_COST15
    return 0


def _in_range(g: Graph, vertices) -> list[int]:
    """`vertices` as a list, range-checked once."""
    vs = list(vertices)
    if vs and (min(vs) < 0 or max(vs) >= g.n):
        bad = next(v for v in vs if not 0 <= v < g.n)
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    return vs


def degree_counts(g: Graph, vertices=None) -> tuple[int, int]:
    """(s, t): how many of `vertices` (default: all of g) have degree 3 / >= 4."""
    costs = g.costs15
    if vertices is not None:
        costs = list(map(costs.__getitem__, _in_range(g, vertices)))
    return countOf(costs, S_COST15), countOf(costs, T_COST15)


def cost15(g: Graph) -> int:
    """Cost of all of g in fifteenths."""
    return g.cost15
