from __future__ import annotations

import hashlib

import pytest

from leafspan import (
    Fifteenths,
    Graph,
    Ledger,
    StepRecord,
    apply_step,
    build,
    choose_bases,
    cost15,
    exact_u,
    fringe,
    h_graph,
    next_step,
    random_connected,
    reduce_fully,
    split_z4,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.builder import PartialTree, StalePlanError, _run_from_base, star_base
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import make_state


def test_levels_on_c6sq():
    g = square_of_cycle(6)
    f = PartialTree(g, 0)
    border = fringe(g, f)
    assert border == set(g.adj[0]) and len(border) == 4


def test_levels_spanning_tree_empty():
    g = square_of_cycle(6)
    f2 = star_base(g, 0)
    while not f2.spans():
        plan = next_step(g, f2)
        apply_step(g, f2, plan)
    assert fringe(g, f2) == set()


def test_levels_on_h2_block():
    g = h_graph(2)
    f = PartialTree(g, 0)  # block-0 clique vertex x
    for v in (1, 2, 3):
        f.attach(0, v)
    f.sweep_dead()
    assert fringe(g, f) == {4, 5}  # the block's two degree-3 ports


# ---------------------------------------------------------------------------
# base selection


def test_choose_bases_b1_double_star():
    # two adjacent degree-4 vertices with disjoint neighborhoods
    edges = [(0, 1)]
    edges += [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (5, 6, 7)]
    edges += [(2, 3), (3, 4), (5, 6), (6, 7), (2, 4), (5, 7)]
    g = Graph(8, edges)
    bases = choose_bases(g)
    assert bases[0][1] == "B1"
    assert bases[0][0].leaves >= 6


def test_choose_bases_b3_star():
    # degree-5 hub, no richer configuration
    edges = [(0, i) for i in range(1, 6)]
    edges += [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]  # wheel
    g = Graph(6, edges)
    bases = choose_bases(g)
    assert bases[0][1] == "B3"
    assert bases[0][0].leaves == 5


def test_choose_bases_c6sq_is_b7():
    bases = choose_bases(square_of_cycle(6))
    assert all(label == "B7" for _, label in bases)
    assert len(bases) == 6
    assert bases[0][0].leaves == 4


def test_choose_bases_cubic_is_b6():
    petersen_outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen_inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = Graph(10, petersen_outer + petersen_inner + spokes)
    bases = choose_bases(g)
    assert all(label == "B6" for _, label in bases)
    assert len(bases) == 10


# ---------------------------------------------------------------------------
# step catalog on engineered states


def test_next_step_a1():
    g, f = make_state(4, [(0, 1), (0, 2), (0, 3), (1, 3)], [(0, 1), (0, 2)])
    plan = next_step(g, f)
    assert plan.label == "A1" and plan.attachments == ((0, 3),)


def test_next_step_a2():
    g, f = make_state(5, [(0, 1), (0, 2), (1, 3), (1, 4)], [(0, 1), (0, 2)])
    plan = next_step(g, f)
    assert plan.label == "A2" and plan.attachments == ((1, 3), (1, 4))


def test_next_step_z1_1():
    # fringe vertex of degree 4 with every neighbor already inside
    edges = [(0, i) for i in range(1, 5)] + [(5, 1), (5, 2), (5, 3), (5, 4)]
    g, f = make_state(6, edges, [(0, i) for i in range(1, 5)])
    plan = next_step(g, f)
    assert plan.label == "Z1.1" and plan.nominal_db == 4
    recs = apply_step(g, f, plan)
    assert recs[0].log_line() == "Z1.1 0 4 1 0 2"
    assert f.spans()


def test_apply_a3_gains_two_leaves():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (4, 6), (4, 7)]
    g, f = make_state(8, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "A3"
    recs = apply_step(g, f, plan)
    assert recs[0].du == 2 and recs[0].profit15 >= 2


def test_apply_z2_adjacent_fringe_pair():
    # one degree-3 and one degree-4 fringe vertex, adjacent to each other
    edges = [(0, i) for i in range(1, 6)]
    edges += [(6, 1), (6, 2), (6, 7), (7, 3), (7, 4), (7, 5)]
    g, f = make_state(8, edges, [(0, i) for i in range(1, 6)])
    plan = next_step(g, f)
    assert plan.label == "Z2.1"
    recs = apply_step(g, f, plan)
    assert recs[0].log_line() == "Z2.1 0 5 1 1 1"
    assert len(recs) == 1 and f.spans()


def test_apply_z3_absorbs_pendant():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 5)]
    g, f = make_state(6, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "Z3.1"
    recs = apply_step(g, f, plan)
    assert recs[0].log_line() == "Z3.1 0 2 0 1 1"
    assert f.spans()


def test_apply_z2_both_rich():
    edges = [(0, i) for i in range(1, 7)]
    edges += [(7, 1), (7, 2), (7, 3), (7, 8), (8, 4), (8, 5), (8, 6)]
    g, f = make_state(9, edges, [(0, i) for i in range(1, 7)])
    plan = next_step(g, f)
    assert plan.label == "Z2.2"
    recs = apply_step(g, f, plan)
    assert recs[0].log_line() == "Z2.2 0 6 2 0 0"
    assert f.spans()


CHAIN_CASES = [
    # name, n, edges, tree edges, label, want_dudb
    (
        "M1",
        6,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)],
        [(0, 1), (0, 2)],
        "M1",
        0,
    ),
    (
        "N1",
        6,
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 4)],
        [(0, 1), (0, 2)],
        "N1",
        1,
    ),
    (
        "M2",
        9,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8)],
        [(0, 1), (0, 2)],
        "M2",
        2,
    ),
    (
        "M3.1",
        12,
        [(0, k) for k in range(1, 7)]
        + [(1, 7), (2, 7), (7, 8), (7, 9), (8, 3), (8, 4), (8, 10), (9, 5), (9, 6), (9, 11)],
        [(0, k) for k in range(1, 7)],
        "M3.1",
        -4,
    ),
    (
        "M3.2",
        9,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (2, 5), (5, 6), (5, 7), (6, 3), (6, 4), (6, 8)],
        [(0, k) for k in range(1, 5)],
        "M3.2",
        -2,
    ),
    (
        "N4.1.1",
        10,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (8, 2), (8, 3), (8, 4)],
        [(0, k) for k in range(1, 5)],
        "N4.1.1",
        0,
    ),
    (
        "M4.1.2",
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (4, 6), (5, 6), (5, 7), (5, 8), (7, 3)],
        [(0, 1), (0, 2), (0, 3)],
        "M4.1.2",
        0,
    ),
    (
        "M4.2",
        8,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)],
        [(0, 1), (0, 2)],
        "M4.2",
        1,
    ),
    (
        "M4.3",
        10,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9)],
        [(0, 1), (0, 2)],
        "M4.3",
        0,
    ),
    (
        "M4.4",
        12,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 8), (5, 11), (6, 8), (6, 9), (6, 10), (7, 9), (7, 10), (7, 11)],
        [(0, 1), (0, 2)],
        "M4.4",
        3,
    ),
    (
        "M4.5.1",
        20,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (2, 5), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (7, 15), (7, 16),
           (8, 9), (8, 10), (8, 11), (9, 17), (9, 18), (10, 3), (10, 4), (10, 19)],
        [(0, k) for k in range(1, 5)],
        "M4.5.1",
        0,
    ),
    (
        "M4.5.2",
        21,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 15), (5, 16), (6, 7), (6, 8), (6, 9), (7, 17), (7, 18), (9, 19),
         (9, 20), (9, 8)],
        [(0, 1), (0, 2)],
        "M4.5.2",
        2,
    ),
    (
        "M4.5.3",
        18,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 8), (5, 15), (6, 7), (6, 8), (6, 9), (7, 8), (7, 16), (9, 16),
         (9, 17), (8, 9)],
        [(0, 1), (0, 2)],
        "M4.5.3",
        1,
    ),
    (
        "M4.5.4",
        21,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 15), (5, 16), (6, 7), (6, 8), (6, 9), (7, 17), (7, 18), (8, 9),
         (8, 10), (8, 11), (9, 19), (9, 20)],
        [(0, 1), (0, 2)],
        "M4.5.4",
        3,
    ),
    (
        "M4.5.4.1",
        25,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (2, 5), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (7, 15), (7, 16),
           (8, 9), (8, 10), (8, 11), (9, 17), (9, 18),
           (10, 12), (10, 13), (10, 20), (11, 22), (11, 23), (11, 24),
           (12, 3), (12, 4), (12, 21)],
        [(0, k) for k in range(1, 5)],
        "M4.5.4.1",
        1,
    ),
    (
        "M4.5.4.2",
        25,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (2, 5), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (7, 15), (7, 16),
           (8, 9), (8, 10), (8, 11), (9, 17), (9, 18),
           (10, 12), (10, 13), (10, 20), (11, 22), (11, 23), (11, 24),
           (12, 3)],
        [(0, k) for k in range(1, 5)],
        "M4.5.4.2",
        2,
    ),
    (
        "M4.5.5",
        11,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 9), (5, 10), (6, 7), (6, 8), (6, 9), (7, 8), (7, 10), (8, 9),
         (8, 10), (9, 10)],
        [(0, 1), (0, 2)],
        "M4.5.5",
        -2,
    ),
    (
        "A4",
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (5, 6), (5, 7), (5, 8)],
        [(0, 1), (0, 2), (0, 3)],
        "A4",
        1,
    ),
]


@pytest.mark.parametrize("case", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_chain_case_resolution(case):
    name, n, edges, tree, label, want_dudb = case
    g, f = make_state(n, edges, tree)
    plan = next_step(g, f)
    assert plan.label == label
    records = apply_step(g, f, plan)
    rec = records[0]
    assert rec.label == label
    assert rec.du - rec.db == want_dudb
    ledger = Ledger(StepRecord.make("test-base", 0, 0, 0, 0), records)
    assert table_violations(ledger) == []
    if label.startswith(("M", "N")):
        assert rec.profit15 >= 0


def test_apply_step_rejects_stale_plan():
    g, f = make_state(5, [(0, 1), (0, 2), (1, 3), (1, 4)], [(0, 1), (0, 2)])
    plan = next_step(g, f)
    apply_step(g, f, plan)
    with pytest.raises(StalePlanError):
        apply_step(g, f, plan)


def test_dead_marks_match_adjacency_at_every_boundary():
    gr, _ = reduce_fully(h_graph(2))
    for base, _label in choose_bases(gr):
        f = base.copy()
        while True:
            for v in f.vertices:
                if len(f.children[v]) + (f.parent[v] != -1) == 1:
                    assert (v in f.dead) == (gr.adj[v] <= f.vertices)
                else:
                    assert v not in f.dead
            plan = next_step(gr, f)
            if plan is None or plan.label == "Z4":
                break
            apply_step(gr, f, plan)


def test_split_z4_direct():
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges += [(5, 1), (5, 2), (5, 3), (5, 6)]
    edges += [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
    g = Graph(10, edges)
    f = star_base(g, 0)
    combined, record, depth = split_z4(g, f)
    st = SpanningTree(10, frozenset(combined))
    check_spanning_tree(g, st)
    assert record.label == "Z4" and record.profit15 >= 0
    assert depth == 1
    # reattaching one component costs exactly two leaves against the parts
    assert st.leaf_count() == 6


def test_split_z4_two_components():
    # two disjoint deep rooms hanging off separate fringe hubs
    edges = [(0, i) for i in range(1, 7)]
    edges += [(7, 1), (7, 2), (7, 3), (7, 9)]
    edges += [(8, 4), (8, 5), (8, 6), (8, 13)]
    edges += [(9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12)]
    edges += [(13, 14), (13, 15), (13, 16), (14, 15), (14, 16), (15, 16)]
    g = Graph(17, edges)
    f = star_base(g, 0)
    u_before = f.leaves
    combined, record, depth = split_z4(g, f)
    st = SpanningTree(17, frozenset(combined))
    check_spanning_tree(g, st)
    # each of the two reattachments loses exactly two leaves
    parts_leaves = u_before + 4 + 4  # each room spans with 4 leaves
    assert st.leaf_count() == parts_leaves - 2 * 2


# ---------------------------------------------------------------------------
# full builds


def test_build_examples():
    r = build(square_of_cycle(6))
    assert (r.leaves, r.alpha) == (4, Fifteenths(24))
    r = build(h_graph(2))
    assert (r.leaves, r.alpha) == (6, Fifteenths(30))
    star = Graph(5, [(0, i) for i in range(1, 5)])
    r = build(star)
    assert (r.leaves, r.alpha) == (4, Fifteenths(54))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(Graph(1))
    with pytest.raises(ValueError):
        build(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "args",
    # random_graph_pool(2000, sizes=(3, 40), seed=99) indices 98 and 1300
    [(17, 2, 3, 208233642), (16, 2, 3, 185619017)],
)
def test_star_retry_is_reported(args):
    g = random_connected(*args)
    reduced, _ = reduce_fully(g)
    bases = choose_bases(reduced)
    assert reduced.n == 9 and {label for _, label in bases} == {"B5"}
    required15 = cost15(reduced) + 30
    assert all(
        15 * _run_from_base(reduced, base, label).leaves < required15
        for base, label in bases
    )
    r = build(g)
    assert r.base_case == "star-retry"
    assert r.ledger.base.label == "star-retry-base"
    centers = [v for v in range(reduced.n) if reduced.degree(v) >= 3]
    assert r.engine_runs == len(bases) + len(centers)
    assert r.bound_ok and not r.oracle_fallback and not r.defects
    assert verify_ledger(g, r.ledger, r.spanning_tree).ok


@pytest.mark.parametrize(
    "make, leaves, alpha15, base, log_sha256",
    [
        pytest.param(
            lambda: random_connected(160, 3, 4, seed=7),
            77,
            435,
            "B1",
            "1ff430f8aa79af76da66f65925ed6eeb7ca545fcb081d449ad99b46e2a5ffb9b",
            id="random_connected(160,3,4,seed=7)",
        ),
        pytest.param(
            lambda: h_graph(20),
            42,
            30,
            "B7",
            "6d4226bfc922a0dba22893beaf058e27500f7809a4170b15387e3c836238cb4b",
            id="h_graph(20)",
        ),
    ],
)
def test_engine_output_pinned_beyond_the_oracle(make, leaves, alpha15, base, log_sha256):
    # every step choice shows in the ledger log, so its hash pins the whole run
    g = make()
    r = build(g)
    assert (r.leaves, r.alpha, r.base_case) == (leaves, Fifteenths(alpha15), base)
    log = "\n".join(r.ledger.log_lines()).encode()
    assert hashlib.sha256(log).hexdigest() == log_sha256
    # settled on the first tier: one engine run per base of the first case
    assert not r.oracle_fallback and not r.defects
    assert r.engine_runs == len(choose_bases(reduce_fully(g)[0]))


def test_build_spanning_and_sound(graph_pool):
    for g in graph_pool[:80]:
        r = build(g)
        check_spanning_tree(g, r.spanning_tree)
        assert r.leaves == r.spanning_tree.leaf_count()
        assert r.alpha == Fifteenths(15 * r.leaves - cost15(g))
        assert r.bound_ok
        assert not r.defects
        assert verify_ledger(g, r.ledger, r.spanning_tree).ok
        if g.n <= 10:
            assert r.leaves <= exact_u(g)


def test_build_progress_records(graph_pool):
    # every recorded step either grows the tree or kills a leaf
    for g in graph_pool[:30]:
        r = build(g)
        for rec in r.ledger.steps:
            assert rec.added_vertices or rec.db > 0 or rec.du > 0


def test_exclusion_reports():
    for g, kind in [
        (square_of_cycle(6), "C6sq"),
        (square_of_cycle(8), "C8sq"),
    ]:
        r = build(g)
        assert r.exclusion is not None and r.exclusion.value == kind
        assert r.base_case == "exclusion-direct"
        assert r.required_alpha == Fifteenths(24)


def test_reduced_exclusion_is_not_exempt():
    # one subdivision away from the six-vertex exclusion: full bound applies
    g6 = square_of_cycle(6)
    edges = [e for e in g6.edges() if e != (0, 1)] + [(0, 6), (1, 6)]
    g = Graph(7, edges)
    r = build(g)
    assert r.exclusion is None
    assert r.leaves >= 5 and r.alpha >= Fifteenths.whole(2)
