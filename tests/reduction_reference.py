"""The reduction layer as it was before its events became tuples: the reference.

Frozen-dataclass events, a `sorted` R1 match, `_apply`/`_undo` built on
`_link`, leaf gains summed by generators over `touched`, and a compaction
that builds the full n-vertex graph and then takes the survivors' induced
subgraph.  `tests/test_reduction.py` requires `leafspan.reduction` to give
field-equal traces, equal reduced graphs, equal lifted trees and equal lift
logs.  Kept verbatim apart from this docstring and the imports; not a test
module, and the suite's audit fixtures do not wrap it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from leafspan.graph import Graph
from leafspan.trees import SpanningTree


@dataclass(frozen=True)
class ReductionEvent:
    """One applied rule, with enough context to replay or undo it.

    All vertex ids are ids in the input graph of the reduction.
    """

    kind: str  # "R1" or "R2"
    x: int  # R1: removed vertex; R2: kept endpoint a1
    a: int  # R1: first neighbor;  R2: dropped endpoint a2
    b: int  # R1: second neighbor; R2: unused (-1)
    nbrs_kept: frozenset[int]  # R2: neighbors of a1 (excluding a2)
    nbrs_dropped: frozenset[int]  # R2: neighbors of a2 (excluding a1)

    @property
    def removed(self) -> int:
        """The vertex the event deletes: x for R1, a2 for R2."""
        return self.x if self.kind == "R1" else self.a

    @property
    def touched(self) -> tuple[int, ...]:
        """The vertices whose degree on apply, or tree degree on undo, can change."""
        return (self.x, self.a, self.b) if self.kind == "R1" else (self.x, self.a)


def _r1_at(adj, x: int) -> ReductionEvent | None:
    if len(adj[x]) == 2:
        a, b = sorted(adj[x])
        if b not in adj[a]:
            return ReductionEvent("R1", x, a, b, frozenset(), frozenset())
    return None


def _r2_at(adj, a1: int) -> ReductionEvent | None:
    n1 = adj[a1]
    if len(n1) == 3:
        for a2 in sorted(n1):
            if a2 > a1 and len(adj[a2]) == 3 and not n1 & adj[a2]:
                kept, dropped = frozenset(n1 - {a2}), frozenset(adj[a2] - {a1})
                return ReductionEvent("R2", a1, a2, -1, kept, dropped)
    return None


def _events(adj) -> Iterator[ReductionEvent]:
    """Yield events in scan order; the caller applies each to adj before resuming.

    An applied event leaves its vertex unmatched (R1 empties x, R2 gives a1
    degree 4), and no event makes a vertex behind the cursor match again.
    """
    for match in (_r1_at, _r2_at):
        for v in range(len(adj)):
            if (ev := match(adj, v)) is not None:
                yield ev


def _link(adj: list[set[int]], u: int, v: int) -> None:
    adj[u].add(v)
    adj[v].add(u)


def _apply(adj: list[set[int]], ev: ReductionEvent) -> None:
    """Empty the removed vertex's set; R1 joins a and b, R2 moves a2's edges to a1."""
    gone = ev.removed
    nbrs, adj[gone] = adj[gone], set()
    for w in nbrs:
        adj[w].remove(gone)
    if ev.kind == "R1":
        _link(adj, ev.a, ev.b)
    else:
        for w in nbrs - {ev.x}:
            _link(adj, ev.x, w)


def _compact(adj: list[set[int]], events: list[ReductionEvent]) -> Graph:
    n = len(adj)
    full = Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
    return full.induced(_survivors(n, events))[0]


def _survivors(n: int, events: list[ReductionEvent]) -> list[int]:
    removed = {ev.removed for ev in events}
    return [v for v in range(n) if v not in removed]


def replay(g: Graph, events: list[ReductionEvent]) -> Graph:
    """The graph reached from g through `events`, re-indexed once."""
    adj = [set(s) for s in g.adj]
    for ev in events:
        _apply(adj, ev)
    return _compact(adj, events)


def reduce_fully(g: Graph) -> tuple[Graph, list[ReductionEvent]]:
    """Apply events until neither rule matches.

    Both rules keep every touched vertex's cost by construction, so the cost
    is not rechecked here; the test suite checks it on every applied event.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    adj = [set(s) for s in g.adj]
    trace: list[ReductionEvent] = []
    for ev in _events(adj):
        _apply(adj, ev)
        trace.append(ev)
    return _compact(adj, trace), trace


def _undo(adj: list[set[int]], ev: ReductionEvent) -> None:
    if ev.kind == "R1":
        if ev.b in adj[ev.a]:
            adj[ev.a].remove(ev.b)
            adj[ev.b].remove(ev.a)
            _link(adj, ev.x, ev.b)
        # otherwise x re-enters as a leaf; it hangs off a by convention
        _link(adj, ev.a, ev.x)
        return
    a1, a2 = ev.x, ev.a
    for w in list(adj[a1]):
        if w in ev.nbrs_dropped:
            adj[a1].remove(w)
            adj[w].remove(a1)
            _link(adj, a2, w)
        elif w not in ev.nbrs_kept:
            raise ValueError(f"tree edge to {w} matches neither split endpoint")
    _link(adj, a1, a2)


def lift_tree_logged(
    trace: list[ReductionEvent], tree: SpanningTree
) -> tuple[SpanningTree, list[tuple[str, int]]]:
    """Undo `trace` in reverse; returns the lifted tree and per-event leaf gains."""
    if len(tree.edges) != tree.n - 1:
        raise ValueError("input is not a tree (wrong edge count)")
    tree.parents()  # raises when disconnected
    n = tree.n + len(trace)
    ids = _survivors(n, trace)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in tree.edges:
        _link(adj, ids[u], ids[v])
    log: list[tuple[str, int]] = []
    for ev in reversed(trace):
        before = sum(len(adj[v]) == 1 for v in ev.touched)
        _undo(adj, ev)
        gain = sum(len(adj[v]) == 1 for v in ev.touched) - before
        if gain < 0:
            raise AssertionError(f"{ev.kind} undo lost a leaf")
        log.append((f"{ev.kind}-undo", gain))
    edges = frozenset((u, v) for u in range(n) for v in adj[u] if u < v)
    return SpanningTree(n, edges), log
