"""Plain spanning-tree values shared by the reduction and build pipelines."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SpanningTree:
    """A tree as a normalized edge set over vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_parents(cls, parents: list[int]) -> "SpanningTree":
        edges = {edge_key(v, p) for v, p in enumerate(parents) if p >= 0}
        return cls(len(parents), frozenset(edges))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def leaf_count(self) -> int:
        return sum(1 for d in self.degrees() if d == 1)

    def parents(self) -> list[int]:
        n = self.n
        if n == 0:
            raise ValueError("a spanning tree needs at least one vertex")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                bad = v if 0 <= u < n else u
                raise ValueError(f"tree vertex {bad} out of range for n={n}")
            adj[u].append(v)
            adj[v].append(u)
        out = [-2] * n
        out[0] = -1
        stack = [0]
        while stack:
            v = stack.pop()
            for w in sorted(adj[v], reverse=True):
                if out[w] == -2:
                    out[w] = v
                    stack.append(w)
        if any(p == -2 for p in out):
            raise ValueError("edge set is not a connected spanning tree")
        return out


def check_spanning_tree(g: Graph, tree: SpanningTree) -> None:
    """Raise ValueError unless `tree` is a spanning tree of g."""
    if tree.n != g.n:
        raise ValueError("vertex count mismatch")
    if len(tree.edges) != g.n - 1:
        raise ValueError(f"expected {g.n - 1} edges, got {len(tree.edges)}")
    for u, v in tree.edges:
        if not g.has_edge(u, v):
            raise ValueError(f"tree edge ({u},{v}) missing from graph")
    tree.parents()  # raises when disconnected (hence cyclic, given the count)
