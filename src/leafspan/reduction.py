"""Degree-preserving reduction rules and the tree lift that undoes them.

Two rules apply to a connected graph, each keeping the cost function
unchanged and never decreasing the best achievable leaf count.  Each is
stated once, by its matcher: the scan makes every event with it, and
`replay` accepts an event only if the matcher makes the same one.

* R1 (`_r1_at`): a degree-2 vertex x whose two neighbors a,b are
  non-adjacent is removed and replaced by the edge ab.
* R2 (`_r2_on`): two adjacent degree-3 vertices with disjoint
  neighborhoods are contracted into a single degree-4 vertex, the one
  with the smaller id.

Every event is a plain tuple (`ReductionEvent`) naming vertices by their
ids in the input graph.  The rules run on one mutable copy of the input's
adjacency sets (a removed vertex's set is emptied), and the survivors are
re-indexed once, at the end, in increasing input-id order: one `Graph` is
built from their renumbered sets.  A spanning tree of the reduced graph
lifts back through the events in reverse order without ever losing a leaf.
An R1 costs a few set operations to apply and to undo.

The next event is always the smallest-x R1, else the lexicographically
first R2 pair (a1, a2).  Neither rule makes a vertex match that did not
match before, except that R1 can create an R2 pair, so one forward pass
over R1 and then one over R2 find every event in that order in O(n):

* R1 on x keeps every degree; a and b swap x for each other, no other
  set changes and every removed edge ends at x.  If a (likewise b) has
  degree 2, its other neighbor is not adjacent to x (else it would be b,
  and x would not match), so a matched R1 already.
* R2 on (a1, a2) gives a1 degree 4 and moves a2's other neighbors to a1;
  no other set changes, and every removed edge ends at a2.  A moved
  neighbor w of degree 2 matches R1 afterwards only if its other
  neighbor q is not adjacent to a1, so q was not adjacent to a2 either.
  A pair (w, z) is not disjoint if z was also a2's neighbor (both now see
  a1); otherwise z's set is unchanged and w traded a2, not adjacent to z,
  for a1, so the pair matched before.  R2 never makes an R1 match, so
  after the first R2 none follows.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .graph import Graph, renumbered
from .trees import SpanningTree


class ReductionEvent(NamedTuple):
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


# A NamedTuple's own __new__ is a Python function; R1, the most frequent
# event, is made from a tuple of every field with this one instead, and
# every R1 shares one empty neighbor set.
_new = tuple.__new__
_NO_NBRS: frozenset[int] = frozenset()


def _r1_at(adj, x: int) -> ReductionEvent | None:
    if len(adj[x]) == 2:
        a, b = adj[x]
        if a > b:
            a, b = b, a
        if b not in adj[a]:
            return _new(ReductionEvent, ("R1", x, a, b, _NO_NBRS, _NO_NBRS))
    return None


def _r2_on(adj, a1: int, a2: int) -> ReductionEvent | None:
    """R2 contracting a2 into a1, or None unless a1 < a2 and they are
    adjacent, both of degree 3 and without a common neighbor."""
    n1, n2 = adj[a1], adj[a2]
    if a1 < a2 and a2 in n1 and len(n1) == len(n2) == 3 and not n1 & n2:
        kept, dropped = frozenset(n1 - {a2}), frozenset(n2 - {a1})
        return ReductionEvent("R2", a1, a2, -1, kept, dropped)
    return None


def _r2_at(adj, a1: int) -> ReductionEvent | None:
    """The first R2 pair (a1, a2), in scan order."""
    if len(adj[a1]) == 3:
        for a2 in sorted(adj[a1]):
            if (ev := _r2_on(adj, a1, a2)) is not None:
                return ev
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
    kind, x, a, b, _, _ = ev
    if kind == "R1":
        adj[x].clear()
        na, nb = adj[a], adj[b]
        na.remove(x)
        na.add(b)
        nb.remove(x)
        nb.add(a)
        return
    nbrs, adj[a] = adj[a], set()
    for w in nbrs:
        adj[w].remove(a)
    for w in nbrs - {x}:
        _link(adj, x, w)


def _compact(adj: list[set[int]], events: list[ReductionEvent]) -> Graph:
    """The graph on the survivors of `events`, numbered in input-id order.

    A removed vertex's set is empty and no survivor's set names it, so the
    survivors' sets hold every edge left.
    """
    removed = {ev.x if ev.kind == "R1" else ev.a for ev in events}
    return renumbered(adj, [v for v in range(len(adj)) if v not in removed])


def _check_replayable(adj: list[set[int]], i: int, ev: ReductionEvent) -> None:
    """Raise ValueError unless event i is what its rule's matcher makes on adj."""
    kind, x, a, b, _, _ = ev
    if kind == "R1":
        ok = 0 <= x < len(adj) and _r1_at(adj, x) == ev
        want = f"x={x} of degree 2 with non-adjacent neighbors {a} < {b}"
    else:
        ok = 0 <= x < len(adj) and 0 <= a < len(adj) and _r2_on(adj, x, a) == ev
        want = f"adjacent degree-3 vertices {x} < {a} with disjoint neighborhoods"
    if not ok:
        raise ValueError(f"event {i} ({kind}) does not match the graph: needs {want}")


def replay(g: Graph, events: list[ReductionEvent]) -> Graph:
    """The graph reached from g through `events`, re-indexed once.

    Each event must equal what its rule's matcher makes on the graph reached
    before it (for R2, disjoint neighborhoods included), so a trace of
    another graph, or an event no rule makes, fails with a ValueError naming
    the event.
    """
    adj = [set(s) for s in g.adj]
    for i, ev in enumerate(events):
        _check_replayable(adj, i, ev)
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
    kind, x, a, b, kept, dropped = ev
    if kind == "R1":
        nx, na = adj[x], adj[a]
        if b in na:
            nb = adj[b]
            na.remove(b)
            nb.remove(a)
            nx.add(b)
            nb.add(x)
        # otherwise x re-enters as a leaf; it hangs off a by convention
        nx.add(a)
        na.add(x)
        return
    for w in list(adj[x]):
        if w in dropped:
            adj[x].remove(w)
            adj[w].remove(x)
            _link(adj, a, w)
        elif w not in kept:
            raise ValueError(f"tree edge to {w} matches neither split endpoint")
    _link(adj, x, a)


def _lift_ids(trace: list[ReductionEvent], n: int) -> list[int]:
    """The input ids of the reduced graph's vertices, 0..n-1 minus the removed.

    Raises ValueError, naming the event, when an event names a vertex outside
    0..n-1 or removes one that an earlier event removed.
    """
    removed: set[int] = set()
    for i, (kind, x, a, b, _, _) in enumerate(trace):
        gone = x if kind == "R1" else a
        if not (0 <= x < n and 0 <= a < n and (kind != "R1" or 0 <= b < n)):
            raise ValueError(f"event {i} ({kind}) names a vertex outside 0..{n - 1}")
        if gone in removed:
            raise ValueError(f"event {i} ({kind}) removes vertex {gone} a second time")
        removed.add(gone)
    return [v for v in range(n) if v not in removed]


def lift_tree_logged(
    trace: list[ReductionEvent], tree: SpanningTree
) -> tuple[SpanningTree, list[tuple[str, int]]]:
    """Undo `trace` in reverse; returns the lifted tree and per-event leaf gains."""
    tree.parents()  # raises unless n - 1 edges connect the n vertices
    n = tree.n + len(trace)
    ids = _lift_ids(trace, n)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in tree.edges:
        _link(adj, ids[u], ids[v])
    log: list[tuple[str, int]] = []
    for ev in reversed(trace):
        kind, x, a, b, _, _ = ev
        # the leaves among the touched vertices, before and after the undo
        if kind == "R1":
            before = (len(adj[x]) == 1) + (len(adj[a]) == 1) + (len(adj[b]) == 1)
            _undo(adj, ev)
            gain = (len(adj[x]) == 1) + (len(adj[a]) == 1) + (len(adj[b]) == 1) - before
        else:
            before = (len(adj[x]) == 1) + (len(adj[a]) == 1)
            _undo(adj, ev)
            gain = (len(adj[x]) == 1) + (len(adj[a]) == 1) - before
        if gain < 0:
            raise AssertionError(f"{kind} undo lost a leaf")
        log.append((f"{kind}-undo", gain))
    edges = frozenset([(u, v) for u in range(n) for v in adj[u] if u < v])
    return SpanningTree(n, edges), log
