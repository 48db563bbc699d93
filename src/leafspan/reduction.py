"""Degree-preserving reduction rules and the tree lift that undoes them.

Two rules apply to a connected graph, each keeping the cost function
unchanged and never decreasing the best achievable leaf count.  Each is
stated once, by the function that matches it and, on a match, applies it:
`reduce_fully` makes every event by calling it, and `replay` accepts an
event only if the function makes the same one.

* R1 (`_r1`): a degree-2 vertex x whose two neighbors a,b are
  non-adjacent is removed and replaced by the edge ab.
* R2 (`_r2`): two adjacent degree-3 vertices with disjoint
  neighborhoods are contracted into a single degree-4 vertex, the one
  with the smaller id.

Every event is a plain tuple (`ReductionEvent`) naming vertices by their
ids in the input graph.  The rules run on one mutable copy of the input's
adjacency sets (a removed vertex's set is emptied), and the survivors are
re-indexed once, at the end, in increasing input-id order: one `Graph` is
built from their renumbered sets.  A spanning tree of the reduced graph
lifts back through the events in reverse order without ever losing a leaf;
`_undo` undoes one event and returns its leaf gain.  An R1 costs a few set
operations to apply and to undo.

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

Both rules keep the number of connected components, so `reduce_fully`
checks connectivity once, on the reduced graph, which is usually far
smaller than the input.  An event splits no component: a path through x
(R1) runs through the new edge ab instead, and a path through a2 (R2)
through a1, which takes over a2's edges.  It joins no two components
either, as every edge it adds ends at two vertices of one component (a
and b are both x's neighbors; a1 and its new neighbors were all a2's).
And no component vanishes, as an event removes one vertex and keeps a
neighbor of it.  So the reduced graph is connected exactly when the input
is.
"""

from __future__ import annotations

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
_UNDONE = {"R1": "R1-undo", "R2": "R2-undo"}  # the lift log's label of each kind


def _r1(adj: list[set[int]], x: int) -> ReductionEvent | None:
    """R1 at x: when x has degree 2 and its neighbors a < b are not
    adjacent, remove x, join a and b, and return the event; else None."""
    nx = adj[x]
    if len(nx) == 2:
        a, b = nx
        if a > b:
            a, b = b, a
        na = adj[a]
        if b not in na:
            nx.clear()
            nb = adj[b]
            na.remove(x)
            na.add(b)
            nb.remove(x)
            nb.add(a)
            return _new(ReductionEvent, ("R1", x, a, b, _NO_NBRS, _NO_NBRS))
    return None


def _r2(adj: list[set[int]], a1: int, a2: int) -> ReductionEvent | None:
    """R2 on (a1, a2): when a1 < a2 are adjacent, both of degree 3 and
    without a common neighbor, move a2's other edges to a1, empty a2's set
    and return the event; else None."""
    n1, n2 = adj[a1], adj[a2]
    if a1 < a2 and a2 in n1 and len(n1) == len(n2) == 3 and not n1 & n2:
        moved = n2 - {a1}
        ev = ReductionEvent("R2", a1, a2, -1, frozenset(n1 - {a2}), frozenset(moved))
        adj[a2] = set()
        for w in n2:
            adj[w].remove(a2)
        for w in moved:
            _link(adj, a1, w)
        return ev
    return None


def _link(adj: list[set[int]], u: int, v: int) -> None:
    adj[u].add(v)
    adj[v].add(u)


def _compact(adj: list[set[int]], events: list[ReductionEvent]) -> Graph:
    """The graph on the survivors of `events`, numbered in input-id order.

    A removed vertex's set is empty and no survivor's set names it, so the
    survivors' sets hold every edge left.
    """
    removed = {ev.x if ev.kind == "R1" else ev.a for ev in events}
    return renumbered(adj, [v for v in range(len(adj)) if v not in removed])


def replay(g: Graph, events: list[ReductionEvent]) -> Graph:
    """The graph reached from g through `events`, re-indexed once.

    Each event must equal what its rule makes on the graph reached before
    it (for R2, disjoint neighborhoods included), so a trace of another
    graph, or an event no rule makes, fails with a ValueError naming the
    event.
    """
    adj = [set(s) for s in g.adj]
    n = len(adj)
    for i, ev in enumerate(events):
        kind, x, a, b, _, _ = ev
        if kind == "R1":
            made = _r1(adj, x) if 0 <= x < n else None
        else:
            made = _r2(adj, x, a) if 0 <= x < n and 0 <= a < n else None
        if made != ev:
            want = (
                f"x={x} of degree 2 with non-adjacent neighbors {a} < {b}" if kind == "R1"
                else f"adjacent degree-3 vertices {x} < {a} with disjoint neighborhoods"
            )
            raise ValueError(f"event {i} ({kind}) does not match the graph: needs {want}")
    return _compact(adj, events)


def reduce_fully(g: Graph) -> tuple[Graph, list[ReductionEvent]]:
    """Apply events until neither rule matches; raise ValueError unless g
    is connected.

    One forward pass tries R1 at every degree-2 vertex, then one tries R2
    at every degree-3 vertex (see the module docstring).  Both rules keep
    every touched vertex's cost by construction, so the cost is not
    rechecked here; the test suite checks it on every applied event.
    """
    adj = [set(s) for s in g.adj]
    trace: list[ReductionEvent] = []
    add = trace.append
    r1, r2 = _r1, _r2
    for x, nx in enumerate(adj):
        if len(nx) == 2 and (ev := r1(adj, x)) is not None:
            add(ev)
    for a1, n1 in enumerate(adj):
        if len(n1) == 3:
            for a2 in sorted(n1):
                if (ev := r2(adj, a1, a2)) is not None:
                    add(ev)
                    break
    reduced = _compact(adj, trace)
    if not reduced.is_connected():
        raise ValueError("graph must be connected")
    return reduced, trace


def _undo(adj: list[set[int]], ev: ReductionEvent) -> int:
    """Undo `ev` on the lifted tree's sets; returns the leaf gain.

    R1 gains nothing when the tree uses the edge ab (x goes between a and
    b); otherwise x re-enters as a leaf hanging off a, a gain of 1, or 0
    if a was a leaf.  `_lift_ids` has made sure x is out of the tree and
    a and b are in it.
    """
    kind, x, a, b, kept, dropped = ev
    if kind == "R1":
        nx, na = adj[x], adj[a]
        if b in na:
            nb = adj[b]
            na.remove(b)
            nb.remove(a)
            nx.add(b)
            nb.add(x)
            gain = 0
        else:
            gain = 0 if len(na) == 1 else 1
        nx.add(a)
        na.add(x)
        return gain
    before = (len(adj[x]) == 1) + (len(adj[a]) == 1)
    for w in list(adj[x]):
        if w in dropped:
            adj[x].remove(w)
            adj[w].remove(x)
            _link(adj, a, w)
        elif w not in kept:
            raise ValueError(f"tree edge to {w} matches neither split endpoint")
    _link(adj, x, a)
    return (len(adj[x]) == 1) + (len(adj[a]) == 1) - before


def _lift_ids(trace: list[ReductionEvent], n: int) -> list[int]:
    """The input ids of the reduced graph's vertices, 0..n-1 minus the removed.

    Raises ValueError, naming the event, unless every event names vertices
    of 0..n-1, none of them twice and none that an earlier event removed.
    Undone in reverse, each event then finds the vertex it removed out of
    the tree and the others in it.
    """
    gone = bytearray(n)
    for i, ev in enumerate(trace):
        kind, x, a, b, _, _ = ev
        if kind == "R1":
            if (
                not (0 <= x < n and 0 <= a < n and 0 <= b < n and x != a != b != x)
                or gone[x] or gone[a] or gone[b]
            ):
                raise ValueError(f"event {i} ({kind}) {_refusal(ev, gone)}")
            gone[x] = 1
        else:
            if not (kind == "R2" and 0 <= x < n and 0 <= a < n and x != a) or gone[x] or gone[a]:
                raise ValueError(f"event {i} ({kind}) {_refusal(ev, gone)}")
            gone[a] = 1
    return [v for v in range(n) if not gone[v]]


def _refusal(ev: ReductionEvent, gone: bytearray) -> str:
    """Why `_lift_ids` refuses `ev`, given the vertices earlier events removed."""
    if ev.kind not in ("R1", "R2"):
        return "is neither R1 nor R2"
    named = ev.touched
    if not all(0 <= v < len(gone) for v in named):
        return f"names a vertex outside 0..{len(gone) - 1}"
    if gone[ev.removed]:
        return f"removes vertex {ev.removed} a second time"
    if len(set(named)) < len(named):
        return f"names one vertex twice: {named}"
    v = next(v for v in named if gone[v])
    return f"names vertex {v}, which an earlier event removed"


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
    undo = _undo
    log = [(_UNDONE[ev.kind], undo(adj, ev)) for ev in reversed(trace)]
    edges = frozenset([(u, v) for u in range(n) for v in adj[u] if u < v])
    return SpanningTree(n, edges), log
