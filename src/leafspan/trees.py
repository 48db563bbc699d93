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
        """Each vertex's tree degree; ValueError names an end outside 0..n-1."""
        n = self.n
        deg = [0] * n
        try:
            for u, v in self.edges:
                if u < 0 or v < 0:  # as an index it would count from the end
                    break
                deg[u] += 1
                deg[v] += 1
            else:
                return deg
        except IndexError:  # an end past n - 1
            pass
        bad = next(w for e in self.edges for w in e if not 0 <= w < n)
        raise ValueError(f"tree vertex {bad} out of range for n={n}")

    def leaf_count(self) -> int:
        return self.degrees().count(1)

    def parents(self) -> list[int]:
        """Each vertex's parent with the tree rooted at 0, -1 at the root."""
        n = self.n
        if n == 0:
            raise ValueError("a spanning tree needs at least one vertex")
        if (m := len(self.edges)) != n - 1:
            raise ValueError(f"{m} edges cannot be a tree on {n} vertices")
        self.degrees()  # raises on an end outside 0..n-1
        out = [-2] * n
        out[0] = -1
        for parent, child in parent_first(self, 0):
            out[child] = parent
        if -2 in out:
            raise ValueError("edge set is not a connected spanning tree")
        return out


def parent_first(tree: SpanningTree, root: int) -> list[tuple[int, int]]:
    """The one walk over a tree: its edges reached from `root` as (parent,
    child) links, breadth first with children ascending, so each parent comes
    before its children."""
    nbrs: list[list[int]] = [[] for _ in range(tree.n)]
    for u, v in tree.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    links = [(-1, root)]
    seen = {root}
    for _, u in links:  # breadth first: `links` grows while it is read
        for v in sorted(nbrs[u]):
            if v not in seen:
                seen.add(v)
                links.append((u, v))
    return links[1:]


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
