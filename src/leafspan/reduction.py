"""Degree-preserving reduction rules and the tree lift that undoes them.

Two rules apply to a connected graph, each keeping the cost function
unchanged and never decreasing the best achievable leaf count:

* R1: a degree-2 vertex x whose two neighbors a,b are non-adjacent is
  removed and replaced by the edge ab.
* R2: two adjacent degree-3 vertices with disjoint neighborhoods are
  contracted into a single degree-4 vertex.

A spanning tree of the reduced graph lifts back through the recorded
events in reverse order without ever losing a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, cost15
from .trees import SpanningTree, edge_key


@dataclass(frozen=True)
class ReductionEvent:
    """One applied rule, with enough context to replay or undo it.

    All vertex ids are in the pre-event graph's id space; `remap` sends
    surviving old ids to the densely re-indexed new ids.
    """

    kind: str  # "R1" or "R2"
    x: int  # R1: removed vertex; R2: kept endpoint a1
    a: int  # R1: first neighbor;  R2: dropped endpoint a2
    b: int  # R1: second neighbor; R2: unused (-1)
    nbrs_kept: frozenset[int]  # R2: neighbors of a1 (excluding a2)
    nbrs_dropped: frozenset[int]  # R2: neighbors of a2 (excluding a1)
    remap: dict[int, int]


def _shift_remap(n: int, removed: int) -> dict[int, int]:
    return {old: old - (old > removed) for old in range(n) if old != removed}


def find_reduction(g: Graph) -> ReductionEvent | None:
    """First applicable event: smallest-x R1, else lexicographically first R2."""
    for x in range(g.n):
        if g.degree(x) == 2:
            a, b = sorted(g.adj[x])
            if not g.has_edge(a, b):
                return ReductionEvent(
                    "R1", x, a, b, frozenset(), frozenset(), _shift_remap(g.n, x)
                )
    for a1 in range(g.n):
        if g.degree(a1) != 3:
            continue
        for a2 in sorted(g.adj[a1]):
            if a2 <= a1 or g.degree(a2) != 3:
                continue
            if g.adj[a1] & g.adj[a2]:
                continue
            return ReductionEvent(
                "R2",
                a1,
                a2,
                -1,
                g.adj[a1] - {a2},
                g.adj[a2] - {a1},
                _shift_remap(g.n, a2),
            )
    return None


def apply_event(g: Graph, ev: ReductionEvent) -> Graph:
    remap = ev.remap
    if ev.kind == "R1":
        edges = {
            edge_key(remap[u], remap[v]) for u, v in g.edges() if ev.x not in (u, v)
        }
        edges.add(edge_key(remap[ev.a], remap[ev.b]))
        return Graph(g.n - 1, edges)
    edges = set()
    for u, v in g.edges():
        if {u, v} == {ev.x, ev.a}:
            continue
        u2 = ev.x if u == ev.a else u
        v2 = ev.x if v == ev.a else v
        if u2 != v2:
            edges.add(edge_key(remap[u2], remap[v2]))
    return Graph(g.n - 1, edges)


def reduce_fully(g: Graph) -> tuple[Graph, list[ReductionEvent]]:
    """Apply events until neither rule matches; cost is checked at each event."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    trace: list[ReductionEvent] = []
    cur = g
    while True:
        ev = find_reduction(cur)
        if ev is None:
            return cur, trace
        nxt = apply_event(cur, ev)
        if cost15(nxt) != cost15(cur):
            raise AssertionError(f"{ev.kind} changed the cost")
        trace.append(ev)
        cur = nxt


def _undo_event(ev: ReductionEvent, tree: SpanningTree) -> SpanningTree:
    inverse = {new: old for old, new in ev.remap.items()}
    edges = {edge_key(inverse[u], inverse[v]) for u, v in tree.edges}
    if ev.kind == "R1":
        bridged = edge_key(ev.a, ev.b)
        if bridged in edges:
            edges.remove(bridged)
            edges.add(edge_key(ev.a, ev.x))
            edges.add(edge_key(ev.x, ev.b))
        else:
            # x re-enters as a leaf; it hangs off a by convention
            edges.add(edge_key(ev.a, ev.x))
        return SpanningTree(tree.n + 1, frozenset(edges))
    a1, a2 = ev.x, ev.a
    rebuilt = set()
    for u, v in edges:
        if a1 not in (u, v):
            rebuilt.add((u, v))
            continue
        w = v if u == a1 else u
        if w in ev.nbrs_kept:
            rebuilt.add(edge_key(a1, w))
        elif w in ev.nbrs_dropped:
            rebuilt.add(edge_key(a2, w))
        else:
            raise ValueError(f"tree edge to {w} matches neither split endpoint")
    rebuilt.add(edge_key(a1, a2))
    return SpanningTree(tree.n + 1, frozenset(rebuilt))


def lift_tree_logged(
    trace: list[ReductionEvent], tree: SpanningTree
) -> tuple[SpanningTree, list[tuple[str, int]]]:
    """Undo `trace` in reverse; returns the lifted tree and per-event leaf gains."""
    if len(tree.edges) != tree.n - 1:
        raise ValueError("input is not a tree (wrong edge count)")
    tree.parents()  # raises when disconnected
    log: list[tuple[str, int]] = []
    cur = tree
    for ev in reversed(trace):
        before = cur.leaf_count()
        cur = _undo_event(ev, cur)
        gain = cur.leaf_count() - before
        if gain < 0:
            raise AssertionError(f"{ev.kind} undo lost a leaf")
        log.append((f"{ev.kind}-undo", gain))
    return cur, log
