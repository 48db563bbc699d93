from __future__ import annotations

import hashlib
import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafspan import (
    Graph,
    ReductionEvent,
    build,
    classify_exclusion,
    cost15,
    h_graph,
    lift_tree_logged,
    random_connected,
    reduce_fully,
    reduction,
    replay,
    square_of_cycle,
)
from leafspan.trees import SpanningTree, check_spanning_tree

import reduction_reference as ref
from conftest import cost_audited, cycle, path, random_graph_pool, random_spanning_tree


def test_r1_on_path():
    g = Graph(3, [(0, 1), (1, 2)])
    (ev,) = reduce_fully(g)[1]
    assert ev.kind == "R1"
    assert ev.x == 1 and (ev.a, ev.b) == (0, 2)
    h = replay(g, [ev])
    assert h.n == 2 and h.edges() == [(0, 1)]


def test_suite_audit_refuses_an_event_that_changes_the_cost():
    # contracting two vertices of K4 that share neighbours drops them to
    # degrees 2 and 0; `_r2` refuses the pair, so a copy of it that skips
    # the disjointness check runs under the suite's cost audit here
    def careless_r2(adj, a1, a2):
        nbrs, adj[a2] = adj[a2], set()
        for w in nbrs:
            adj[w].remove(a2)
        for w in nbrs - {a1}:
            adj[a1].add(w)
            adj[w].add(a1)
        return ReductionEvent("R2", a1, a2, -1, frozenset(adj[a1]), frozenset(nbrs - {a1}))

    adj = [{j for j in range(4) if j != i} for i in range(4)]
    audit = SimpleNamespace(events=0)
    with pytest.raises(AssertionError, match="R2 changed the cost"):
        cost_audited(careless_r2, audit)(adj, 0, 1)
    assert audit.events == 0


@pytest.mark.parametrize("kind", ["R1", "R2"])
def test_suite_audit_sees_every_event(kind, audit_every_event):
    # a subdivided core makes R1 events (and a few R2), H_2 makes R2 events
    g = subdivided_core(*SUBDIVIDED[0]) if kind == "R1" else h_graph(2)
    _, trace = reduce_fully(g)
    assert kind in {ev.kind for ev in trace}
    assert audit_every_event.events == len(trace)
    replay(g, trace)
    assert audit_every_event.events == 2 * len(trace)


def swap_r2_ends(ev: ReductionEvent) -> ReductionEvent:
    """The R2 event `ev` with its kept and dropped ends exchanged."""
    return ev._replace(
        x=ev.a, a=ev.x, nbrs_kept=ev.nbrs_dropped, nbrs_dropped=ev.nbrs_kept
    )


# K4 minus the edge 01: vertices 2 and 3 have degree 3 and share 0 and 1
K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
NO_NBRS = frozenset()


@pytest.mark.parametrize(
    "g, ev",
    [
        # the contraction would leave a triangle, cost 6/15 -> 0
        (K4_MINUS_E, ReductionEvent("R2", 2, 3, -1, *[frozenset({0, 1})] * 2)),
        # ends swapped: the matcher names the smaller neighbor first
        (Graph(3, [(0, 1), (1, 2)]), ReductionEvent("R1", 1, 2, 0, NO_NBRS, NO_NBRS)),
        (h_graph(2), reduce_fully(h_graph(2))[1][0]._replace(b=0)),  # a stray b
        # kept end above the dropped end: a contraction, but not the scan's
        (h_graph(2), swap_r2_ends(reduce_fully(h_graph(2))[1][0])),
    ],
    ids=["R2-shared-neighbours", "R1-swapped-ends", "R2-stray-b", "R2-swapped-ends"],
)
def test_replay_refuses_an_event_its_rule_does_not_make(g, ev):
    with pytest.raises(ValueError, match=r"event 0 \(R[12]\) does not match the graph"):
        replay(g, [ev])


def test_triangle_has_no_reduction():
    assert reduce_fully(cycle(3))[1] == []


def test_r2_on_h2():
    g = h_graph(2)
    ev = reduce_fully(g)[1][0]
    assert ev.kind == "R2"
    # a cross-block port pair: both degree 3, adjacent, no common neighbor
    assert g.degree(ev.x) == 3 and g.degree(ev.a) == 3
    assert g.has_edge(ev.x, ev.a)
    assert not (g.adj[ev.x] & g.adj[ev.a])
    h = replay(g, [ev])
    assert ev.removed == ev.a > ev.x  # so the merged vertex keeps the id x
    assert h.degree(ev.x) == 4
    assert cost15(h) == cost15(g)


def test_c5_reduces_to_triangle():
    reduced, trace = reduce_fully(cycle(5))
    assert reduced.n == 3 and reduced.edge_count == 3
    assert [ev.kind for ev in trace] == ["R1", "R1"]


def test_c6sq_is_a_fixpoint():
    reduced, trace = reduce_fully(square_of_cycle(6))
    assert trace == [] and reduced == square_of_cycle(6)


def test_subdivided_c6sq_reduces_back():
    g6 = square_of_cycle(6)
    edges = [e for e in g6.edges() if e != (0, 1)] + [(0, 6), (1, 6)]
    g = Graph(7, edges)
    reduced, trace = reduce_fully(g)
    assert len(trace) == 1 and trace[0].kind == "R1"
    assert classify_exclusion(reduced) is not None


def test_fixpoint_has_no_event(graph_pool):
    for g in graph_pool[:60]:
        reduced, _ = reduce_fully(g)
        assert reduce_fully(reduced)[1] == []
        assert reduced.is_connected()


def test_cost_preserved_and_replay(graph_pool):
    for g in graph_pool[:60]:
        reduced, trace = reduce_fully(g)
        assert cost15(reduced) == cost15(g)
        assert replay(g, trace) == reduced


def test_lift_r1_bridge_in_tree():
    # a-x-b path replaces the bridging edge: leaf count unchanged
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4
    reduced, trace = reduce_fully(g)  # down to a triangle
    tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
    lifted = lift_tree_logged(trace, tree)[0]
    check_spanning_tree(g, lifted)
    assert lifted.leaf_count() >= tree.leaf_count()


def test_lift_r1_attaches_leaf_when_bridge_unused():
    # star with a subdivided ray: the bridging edge is absent from the tree
    # when the tree routes around it, so the vertex re-enters as a leaf
    g6 = square_of_cycle(6)
    edges = [e for e in g6.edges() if e != (0, 1)] + [(0, 6), (1, 6)]
    g = Graph(7, edges)
    reduced, trace = reduce_fully(g)
    # spanning tree of the reduced graph avoiding the restored edge (0,1),
    # with vertex 0 internal so the re-entering leaf is a net gain
    tree_edges = {(0, 2), (0, 4), (1, 2), (2, 3), (4, 5)}
    tree = SpanningTree(6, frozenset(tree_edges))
    lifted, log = lift_tree_logged(trace, tree)
    check_spanning_tree(g, lifted)
    assert lifted.leaf_count() == tree.leaf_count() + 1
    assert log == [("R1-undo", 1)]


def test_lift_r2_both_orientations():
    # contractible pair in a 6-vertex graph: undo with the merged vertex as
    # a leaf and as an internal vertex, checking leaf counts by enumeration
    g = h_graph(2)
    reduced, trace = reduce_fully(g)
    first = trace[:1]
    stage = replay(g, first)
    seen_leaf = seen_internal = False
    for seed in range(60):
        chosen = random_spanning_tree(stage, seed)
        tree = SpanningTree(stage.n, frozenset(chosen))
        merged = trace[0].x  # a2 > x is the removed endpoint
        deg = tree.degrees()[merged]
        lifted = lift_tree_logged(first, tree)[0]
        check_spanning_tree(g, lifted)
        assert lifted.leaf_count() >= tree.leaf_count()
        if deg == 1:
            seen_leaf = True
        else:
            seen_internal = True
    assert seen_leaf and seen_internal


def test_lift_monotone_on_random_graphs(graph_pool):
    for i, g in enumerate(graph_pool[:50]):
        reduced, trace = reduce_fully(g)
        chosen = random_spanning_tree(reduced, seed=i)
        tree = SpanningTree(reduced.n, frozenset(chosen))
        lifted = lift_tree_logged(trace, tree)[0]
        check_spanning_tree(g, lifted)
        assert lifted.leaf_count() >= tree.leaf_count()


def test_lift_rejects_invalid_tree():
    g = cycle(5)
    _, trace = reduce_fully(g)
    with pytest.raises(ValueError):
        lift_tree_logged(trace, SpanningTree(3, frozenset({(0, 1)})))


@pytest.mark.parametrize("bad", [-1, 3, -4, -6])
def test_tree_edges_outside_the_vertex_range_are_refused(bad):
    # ends on every side of 0..2: as a list index -1 would be read as
    # vertex 2, 3 lies past the end, and -4 and -6 lie below -n
    tree = SpanningTree(3, frozenset({(0, 1), (0, bad)}))
    checks = [tree.parents, tree.degrees, tree.leaf_count]
    for check in [*checks, lambda: lift_tree_logged([], tree)]:
        with pytest.raises(ValueError, match=f"tree vertex {bad} out of range for n=3"):
            check()


def test_lift_rejects_a_trace_that_names_a_vertex_past_the_tree():
    # cycle(6) reduces to a triangle; a 2-vertex tree leaves room for 5 ids
    _, trace = reduce_fully(cycle(6))
    with pytest.raises(ValueError, match="event 0 .* outside 0..4"):
        lift_tree_logged(trace, SpanningTree(2, frozenset({(0, 1)})))


def test_lift_rejects_a_trace_that_removes_a_vertex_twice():
    _, trace = reduce_fully(cycle(5))
    path = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError, match="event 1 .* a second time"):
        lift_tree_logged([trace[0], trace[0]], path)


@pytest.mark.parametrize(
    "g, source",
    [
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), h_graph(2)),  # ids past n
        (cycle(12), h_graph(2)),  # ids in range, no degree-3 pair
        (cycle(3), cycle(5)),  # an R1 whose x has other neighbors
    ],
    ids=["path5-h2", "cycle12-h2", "triangle-c5"],
)
def test_replay_rejects_a_trace_of_another_graph(g, source):
    _, trace = reduce_fully(source)
    with pytest.raises(ValueError, match=r"event 0 \(R[12]\) does not match the graph"):
        replay(g, trace)


def test_suite_audit_sees_every_undo(audit_every_undo):
    g = subdivided_core(*SUBDIVIDED[0])
    reduced, trace = reduce_fully(g)
    tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, 0)))
    lift_tree_logged(trace, tree)
    assert audit_every_undo.undos == len(trace) > 0


def test_suite_audit_refuses_an_undo_that_adds_no_edge():
    # an R1 whose removed vertex is also its neighbor a re-enters through a
    # self-loop: one new set entry, not a new edge (the lift refuses the
    # event, so the audited undo is called on the tree's sets directly)
    bad = ReductionEvent("R1", 2, 2, 0, frozenset(), frozenset())
    adj = [{1}, {0}, set()]
    with pytest.raises(AssertionError, match="R1 undo changed the degree sum by 1"):
        reduction._undo(adj, bad)


def test_suite_audit_refuses_an_undo_whose_gain_is_not_the_leaves_it_made():
    # a, out of the tree, becomes a leaf beside x: 2 leaves made where the
    # undo, which the lift only lets meet a tree vertex a, counts 1
    bad = ReductionEvent("R1", 3, 0, 1, frozenset(), frozenset())
    adj = [set(), {2}, {1}, set()]
    with pytest.raises(AssertionError, match="R1 undo returned gain 1, made 2"):
        reduction._undo(adj, bad)


@pytest.mark.parametrize(
    "ev",
    [
        ReductionEvent("R1", 2, 2, 0, frozenset(), frozenset()),
        ReductionEvent("R2", 0, 0, -1, frozenset({1}), frozenset()),
        ReductionEvent("R1", 2, 0, 0, frozenset(), frozenset()),
    ],
    ids=["R1-x-is-a", "R2-a1-is-a2", "R1-a-is-b"],
)
def test_lift_refuses_an_event_that_names_one_vertex_twice(ev):
    with pytest.raises(ValueError, match=r"event 0 \(R[12]\) names one vertex twice"):
        lift_tree_logged([ev], SpanningTree(2, frozenset({(0, 1)})))


def test_lift_refuses_an_event_of_neither_kind():
    ev = ReductionEvent("R3", 2, 0, 1, frozenset(), frozenset())
    with pytest.raises(ValueError, match=r"event 0 \(R3\) is neither R1 nor R2"):
        lift_tree_logged([ev], SpanningTree(2, frozenset({(0, 1)})))


def test_lift_refuses_an_event_that_names_a_vertex_an_earlier_event_removed():
    # cycle(5) first removes vertex 0; an R1 at 1 that names 0 comes too late
    first = reduce_fully(cycle(5))[1][0]
    assert first.x == 0
    late = ReductionEvent("R1", 1, 0, 3, frozenset(), frozenset())
    tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError, match="event 1 .* names vertex 0, which an earlier"):
        lift_tree_logged([first, late], tree)


def subdivided(core, n, seed):
    """`core` with n - core.n new vertices spread over its edges, ids shuffled."""
    rng = random.Random(seed)
    edges = core.edges()
    inner = [0] * len(edges)
    for _ in range(n - core.n):
        inner[rng.randrange(len(edges))] += 1
    path_edges = []
    nxt = core.n
    for (u, v), k in zip(edges, inner):
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        path_edges += zip(path, path[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in path_edges])


SUBDIVIDED = [(20, 200), (24, 330), (28, 450), (32, 580), (26, 700)]


def subdivided_core(k, n):
    """A k-vertex degree-3..4 core subdivided to n vertices."""
    return subdivided(random_connected(k, 3, 4, n), n, n)


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each one's vertices numbered after the last's."""
    edges, base = [], 0
    for h in graphs:
        edges += [(u + base, v + base) for u, v in h.edges()]
        base += h.n
    return Graph(base, edges)


@pytest.mark.parametrize(
    "parts",
    [
        (cycle(7), cycle(9)),
        (subdivided_core(*SUBDIVIDED[0]), path(30)),
        (cycle(12), Graph(1)),
    ],
    ids=["C7+C9", "subdivided-core+path", "C12+isolated-vertex"],
)
def test_a_disconnected_graph_whose_parts_reduce_is_refused(parts):
    # the check runs on the reduced graph, where each part has shrunk
    assert all(reduce_fully(h)[1] for h in parts if h.n > 1)
    g = disjoint_union(*parts)
    for run in (reduce_fully, build):
        with pytest.raises(ValueError, match="graph must be connected"):
            run(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 30), st.floats(0.0, 0.3), st.integers(0, (1 << 32) - 1))
def test_reduce_fully_refuses_exactly_the_disconnected_graphs(n, p, seed):
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
    if g.is_connected():
        assert reduce_fully(g)[0].is_connected()
    else:
        with pytest.raises(ValueError, match="graph must be connected"):
            reduce_fully(g)


@pytest.mark.parametrize(
    "k, n", [*SUBDIVIDED, (30, 20000), (None, 2000), (None, 20000)]
)
def test_reduce_and_lift_beyond_the_oracle(k, n):
    # a subdivided core; a plain n-cycle for k=None
    g = cycle(n) if k is None else subdivided_core(k, n)
    reduced, trace = reduce_fully(g)
    assert replay(g, trace) == reduced
    removed = [ev.removed for ev in trace]
    assert len(set(removed)) == len(removed) == g.n - reduced.n
    assert all(0 <= v < g.n for v in removed)
    tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, g.n)))
    lifted, log = lift_tree_logged(trace, tree)
    check_spanning_tree(g, lifted)
    assert sum(gain for _, gain in log) == lifted.leaf_count() - tree.leaf_count()


def first_event_by_scan(adj) -> ReductionEvent | None:
    """Reference event order: rescan from vertex 0 for the smallest-x R1, else
    the lexicographically first R2 pair (a1, a2)."""
    for x, nx in enumerate(adj):
        if len(nx) == 2:
            a, b = sorted(nx)
            if b not in adj[a]:
                return ReductionEvent("R1", x, a, b, frozenset(), frozenset())
    for a1, n1 in enumerate(adj):
        if len(n1) != 3:
            continue
        for a2 in sorted(n1):
            if a2 <= a1 or len(adj[a2]) != 3 or n1 & adj[a2]:
                continue
            kept, dropped = frozenset(n1 - {a2}), frozenset(adj[a2] - {a1})
            return ReductionEvent("R2", a1, a2, -1, kept, dropped)
    return None


def renamed(ev: ReductionEvent, ids: list[int]) -> ReductionEvent:
    """`ev` with every vertex v named ids[v]."""

    def rename(vs):
        return frozenset(ids[v] for v in vs)

    b = ids[ev.b] if ev.b >= 0 else -1
    kept, dropped = rename(ev.nbrs_kept), rename(ev.nbrs_dropped)
    x, a = ids[ev.x], ids[ev.a]
    return ev._replace(x=x, a=a, b=b, nbrs_kept=kept, nbrs_dropped=dropped)


def assert_scan_order(g):
    """Each event of reduce_fully(g) is the scan's first event on the graph
    that replaying the events before it reaches, and the last graph has none."""
    _, trace = reduce_fully(g)
    h, ids = g, list(range(g.n))  # ids[i]: input id of h's vertex i
    for step in trace:
        ev = first_event_by_scan(h.adj)
        assert ev is not None and step == renamed(ev, ids)
        h = replay(h, [ev])
        ids.remove(step.removed)
    assert first_event_by_scan(h.adj) is None


def test_reducer_keeps_the_scan_order(graph_pool):
    graphs = [
        *graph_pool,
        *random_graph_pool(2000, sizes=(3, 40), seed=99),
        *(h_graph(k) for k in range(2, 7)),
        *(square_of_cycle(n) for n in range(6, 21)),
        *(subdivided_core(k, n) for k, n in SUBDIVIDED),
    ]
    for g in graphs:
        assert_scan_order(g)


def event_fields(trace) -> list[tuple]:
    return [tuple(getattr(ev, f) for f in ReductionEvent._fields) for ev in trace]


def test_reduction_matches_the_reference(graph_pool):
    graphs = [
        *graph_pool,
        *(subdivided_core(k, n) for k, n in SUBDIVIDED),
        *(cycle(n) for n in [*range(5, 41), 2000]),
        *(h_graph(k) for k in range(2, 7)),
        *(square_of_cycle(n) for n in range(6, 21)),
    ]
    for g in graphs:
        reduced, trace = reduce_fully(g)
        ref_reduced, ref_trace = ref.reduce_fully(g)
        assert event_fields(trace) == event_fields(ref_trace)
        assert reduced == ref_reduced
        assert replay(g, trace) == ref.replay(g, ref_trace)
        for seed in range(2):
            edges = random_spanning_tree(reduced, seed)
            tree = SpanningTree(reduced.n, frozenset(edges))
            assert lift_tree_logged(trace, tree) == ref.lift_tree_logged(ref_trace, tree)


def test_reduction_output_pinned_at_workload_scale():
    digest = hashlib.sha256()
    for g in [*(subdivided_core(k, n) for k, n in SUBDIVIDED), cycle(2000)]:
        reduced, trace = reduce_fully(g)
        tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, g.n)))
        lifted, log = lift_tree_logged(trace, tree)
        lines = [
            *(
                f"{ev.kind} {ev.x} {ev.a} {ev.b} "
                f"{sorted(ev.nbrs_kept)} {sorted(ev.nbrs_dropped)}"
                for ev in trace
            ),
            " ".join(f"{u}-{v}" for u, v in sorted(lifted.edges)),
            *(f"{label} {gain}" for label, gain in log),
            "--",
        ]
        for line in lines:
            digest.update(line.encode() + b"\n")
    # the same digest comes out of `reduction_reference` on the same trees
    assert digest.hexdigest() == (
        "01f45d3e2d1575482572d13b86321f37bbd589b5b493ea21be053220c0629c3c"
    )


def test_a_tree_without_vertices_is_refused():
    # parents() roots every tree at vertex 0, which an empty tree lacks
    with pytest.raises(ValueError, match="at least one vertex"):
        SpanningTree(0, frozenset()).parents()


def test_n_minus_one_edges_with_a_cycle_and_an_isolated_vertex_are_not_a_tree():
    # the edge count is a tree's, so only the walk from 0 can refuse it
    with pytest.raises(ValueError, match="not a connected spanning tree"):
        SpanningTree(4, frozenset({(0, 1), (1, 2), (0, 2)})).parents()


def test_check_spanning_tree_refuses_a_wrong_vertex_or_edge_count():
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="vertex count mismatch"):
        check_spanning_tree(path, SpanningTree(4, frozenset({(0, 1), (1, 2), (2, 3)})))
    with pytest.raises(ValueError, match="expected 2 edges, got 1"):
        check_spanning_tree(path, SpanningTree(3, frozenset({(0, 1)})))


def test_a_connected_edge_set_with_a_cycle_is_not_a_tree():
    # the triangle reaches every vertex from 0, but has one edge too many
    with pytest.raises(ValueError, match="3 edges cannot be a tree on 3 vertices"):
        SpanningTree(3, frozenset({(0, 1), (1, 2), (0, 2)})).parents()
