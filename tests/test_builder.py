from __future__ import annotations

import copy
import dataclasses
import hashlib
import weakref

import pytest

import leafspan.builder as builder_mod
from leafspan import (
    Fifteenths,
    Graph,
    Ledger,
    StepRecord,
    build,
    cost15,
    exact_u,
    g8,
    h_graph,
    random_connected,
    reduce_fully,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.builder import (
    EngineDefect,
    PartialTree,
    StepPlan,
    _commit,
    _run_from_base,
    apply_step,
    base_tree,
    choose_bases,
    next_step,
    split_z4,
)
from leafspan.ledger import DEAD_GAIN15, TABLE_FLOORS
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import (
    at_row_db,
    audit_counts,
    audit_run,
    closing_defect_line_graph,
    cycle,
    engine_step,
    make_state,
    path,
    tree_degrees,
)
from test_reduction import SUBDIVIDED, subdivided_core


def test_levels_on_c6sq():
    g = square_of_cycle(6)
    f = PartialTree(g, 0)
    border = f.border
    assert border == set(g.adj[0]) and len(border) == 4


def test_levels_spanning_tree_empty():
    g = square_of_cycle(6)
    f2 = base_tree(g, 0)
    while not f2.spans():
        assert engine_step(g, f2) is not None
    assert f2.border == set()


def test_levels_on_h2_block():
    g = h_graph(2)
    f = PartialTree(g, 0)  # block-0 clique vertex x
    for v in (1, 2, 3):
        f.attach(0, v)
    assert f.border == {4, 5}  # the block's two degree-3 ports


# ---------------------------------------------------------------------------
# base selection


def test_choose_bases_b1_double_star():
    # two adjacent degree-4 vertices with disjoint neighborhoods
    edges = [(0, 1)]
    edges += [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (5, 6, 7)]
    edges += [(2, 3), (3, 4), (5, 6), (6, 7), (2, 4), (5, 7)]
    g = Graph(8, edges)
    bases = choose_bases(g)
    assert bases[0][0] == "B1"
    assert base_tree(g, *bases[0][1:]).leaves >= 6


def test_choose_bases_b3_star():
    # degree-5 hub, no richer configuration
    edges = [(0, i) for i in range(1, 6)]
    edges += [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]  # wheel
    g = Graph(6, edges)
    bases = choose_bases(g)
    assert bases[0][0] == "B3"
    assert base_tree(g, *bases[0][1:]).leaves == 5


def test_choose_bases_c6sq_is_b7():
    g = square_of_cycle(6)
    bases = choose_bases(g)
    assert all(label == "B7" for label, _, _ in bases)
    assert len(bases) == 6
    assert base_tree(g, *bases[0][1:]).leaves == 4


def test_choose_bases_cubic_is_b6():
    petersen_outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen_inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = Graph(10, petersen_outer + petersen_inner + spokes)
    bases = choose_bases(g)
    assert all(label == "B6" for label, _, _ in bases)
    assert len(bases) == 10


def test_choose_bases_refuses_a_graph_with_no_branch_vertex():
    # `build` spans such a graph by its path-direct case before it would
    # ask for bases
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(EngineDefect, match="low-degree vertex survived the base"):
        choose_bases(c4)


def test_every_base_has_exact_counts(graph_pool):
    # every base that choose_bases names on the reduced graphs of the corpus
    corpus = [
        *graph_pool,
        *(h_graph(k) for k in range(2, 7)),
        *(square_of_cycle(n) for n in range(6, 21)),
        *(subdivided_core(k, n) for k, n in SUBDIVIDED),
        *(random_connected(n, 3, 4, seed=n) for n in range(64, 105, 8)),
    ]
    labels = set()
    for g in corpus:
        reduced, _ = reduce_fully(g)
        if max(map(len, reduced.adj)) <= 2:
            continue  # a reduced path or cycle goes to exact search
        for label, a, b in choose_bases(reduced):
            labels.add(label)
            audit_counts(reduced, base_tree(reduced, a, b))
    assert {"B1", "B2", "B4", "B5", "B7"} <= labels


def test_every_base_has_exact_counts_at_every_vertex(graph_pool):
    # unreduced graphs too: roots of degree 1 and 2, and hubs that die at once
    for g in graph_pool[:60]:
        for a in range(g.n):
            audit_counts(g, base_tree(g, a))
            for b in g.adj[a]:
                if not g.adj[a] & g.adj[b]:
                    audit_counts(g, base_tree(g, a, b))


@pytest.mark.parametrize(
    "g, a, b",
    [
        (square_of_cycle(6), 0, -1),
        (Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (4, 7)]), 0, 1),
        (Graph(4, [(0, 1), (1, 2), (1, 3)]), 0, -1),  # a hub of degree 1
    ],
    ids=["star", "double-star", "hub-of-degree-1"],
)
def test_base_tree_enters_every_vertex_through_attach(g, a, b, monkeypatch):
    attach = PartialTree.attach
    attaches = 0

    def counted(f, parent, child):
        nonlocal attaches
        attaches += 1
        attach(f, parent, child)

    monkeypatch.setattr(PartialTree, "attach", counted)
    f = base_tree(g, a, b)
    assert attaches == len(f.vertices) - 1 > 0


def test_base_tree_rejects_overlapping_neighbourhoods():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="disjoint neighborhoods"):
        base_tree(triangle, 0, 1)


def test_base_tree_rejects_a_b_not_adjacent_to_a():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # 4 is past the last vertex; only the default -1 names a star
    for b in (3, 4, -2):
        with pytest.raises(ValueError, match=rf"\(0,{b}\) is not a graph edge"):
            base_tree(path, 0, b)


# builds that grow several bases: every base of H_2, which reduces to 10
# vertices, and past 16 vertices a first base that raises before the second,
# which meets +2, ends the tier
SEVERAL_RUNS = [lambda: h_graph(2), lambda: closing_defect_line_graph(swap=True)]


def test_suite_audit_sees_every_base(audit_every_base):
    for make in SEVERAL_RUNS:
        audit_every_base.bases = 0
        r = build(make())
        assert audit_every_base.bases == r.engine_runs > 1


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda f: f.out.__setitem__(5, f.out[5] + 1), id="out"),
        pytest.param(lambda f: f.rich.add(2), id="rich"),
    ],
)
def test_suite_audit_refuses_a_base_with_a_wrong_count(corrupt):
    # in the star at 0 of H_2, leaf 2 has one outside neighbour and 5 is outside
    g = h_graph(2)
    f = base_tree(g, 0)
    assert f.out[2] == 1 and 5 not in f.vertices
    audit_counts(g, f)
    corrupt(f)
    with pytest.raises(AssertionError):
        audit_counts(g, f)


def test_suite_audit_sees_every_run(audit_every_run):
    # a run that raises returns no ledger, and an exact-search tree is run
    # like a base: the line graph's first base raises, and the bases of the
    # B5 graph fall short, so its build ends with an exact-search run
    seen = []
    for make in [*SEVERAL_RUNS, lambda: random_connected(17, 2, 3, 208233642)]:
        audit_every_run.runs = 0
        r = build(make())
        seen.append((r.engine_runs, len(r.defects), r.oracle_fallback))
        assert audit_every_run.runs == r.engine_runs - len(r.defects) + r.oracle_fallback
    assert seen == [(10, 0, False), (2, 1, False), (2, 0, True)]


@pytest.mark.parametrize(
    "forge, message",
    [
        pytest.param(
            lambda rec: dataclasses.replace(rec, profit15=rec.profit15 + 1),
            "profit mismatch",
            id="profit",
        ),
        pytest.param(
            lambda rec: dataclasses.replace(rec, label="Q"), "no catalog row", id="label"
        ),
    ],
)
def test_suite_audit_refuses_a_run_with_a_forged_record(forge, message):
    g, _ = reduce_fully(h_graph(2))
    label, a, b = choose_bases(g)[0]
    f = base_tree(g, a, b)
    ledger = _run_from_base(g, f, label)
    audit_run(g, f, ledger)
    steps = ledger.steps
    steps[0] = forge(steps[0])
    with pytest.raises(AssertionError, match=message):
        audit_run(g, f, ledger)


def test_a_kept_tree_is_checked_against_its_runs_leaf_count():
    g, _ = reduce_fully(h_graph(2))
    label, a, b = choose_bases(g)[0]
    f = base_tree(g, a, b)
    _run_from_base(g, f, label)
    assert f.spanning_tree().leaf_count() == f.leaves
    f.leaves += 1
    with pytest.raises(EngineDefect, match="leaf count differs"):
        f.spanning_tree()


def test_one_base_tree_alive_when_each_run_starts(monkeypatch):
    # bases are named, not built: the driver builds each base tree just
    # before its run and keeps no finished run's tree but the best, so when
    # a run starts the trees of its graph are its base, which does not span
    # yet unless it is the exact search's, and at most one spanning tree,
    # the kept run's; the last graph's bases fall short of the bound, and
    # the exact search runs after them
    run, init = builder_mod._run_from_base, PartialTree.__init__
    trees: weakref.WeakSet[PartialTree] = weakref.WeakSet()
    alive = []

    def tracked(self, g, root):
        init(self, g, root)
        trees.add(self)

    def counting(g, f, case):
        others = [t.spans() for t in trees if t.g is g and t is not f]
        alive.append((f.spans(), others))
        return run(g, f, case)

    monkeypatch.setattr(PartialTree, "__init__", tracked)
    monkeypatch.setattr(builder_mod, "_run_from_base", counting)
    for make in [*SEVERAL_RUNS, lambda: random_connected(17, 2, 3, 208233642)]:
        alive.clear()
        r = build(make())
        exact = [True] * r.oracle_fallback
        assert [spans for spans, _ in alive] == [False] * r.engine_runs + exact
        assert r.engine_runs > 1 and alive[0][1] == []
        assert all(others in ([], [True]) for _, others in alive)


@pytest.mark.parametrize(
    "make, runs",
    [
        pytest.param(lambda: h_graph(2), 10, id="h_graph(2)"),
        pytest.param(lambda: random_connected(10, 3, 5, seed=6), 3, id="B1"),
        pytest.param(lambda: closing_defect_line_graph(swap=True), 2, id="line-graph"),
    ],
)
def test_one_spanning_tree_and_two_recounts_per_build(monkeypatch, make, runs):
    # every run makes its base record and recounts its potential at its
    # base, and at its end unless it raises first, but only the run the
    # driver keeps is made into a SpanningTree
    g = make()
    reduced, _ = reduce_fully(g)
    made, recounts, base_records = [], [], []

    class CountedTree(SpanningTree):
        def __init__(self, n, edges):
            made.append(n)
            super().__init__(n, edges)

    class CountedRecord(StepRecord):
        @classmethod
        def make(cls, label, *rest):
            if label.endswith("-base"):
                base_records.append(label)
            return StepRecord.make(label, *rest)

    real = builder_mod.alpha_prime

    def recount(g, f):
        recounts.append(f)
        return real(g, f)

    monkeypatch.setattr(builder_mod, "SpanningTree", CountedTree)
    monkeypatch.setattr(builder_mod, "StepRecord", CountedRecord)
    monkeypatch.setattr(builder_mod, "alpha_prime", recount)
    r = build(g)
    assert r.engine_runs == runs > 1
    assert "Z4" not in [rec.label for rec in r.ledger.steps]
    assert made == [reduced.n]
    assert base_records == [r.ledger.base.label] * r.engine_runs
    assert len(recounts) == 2 * r.engine_runs - len(r.defects)


# ---------------------------------------------------------------------------
# step catalog on engineered states


def test_expand_a1():
    # the root has two children and one outside neighbour, 3
    g, f = make_state(4, [(0, 1), (0, 2), (0, 3), (1, 3)], [(0, 1), (0, 2)])
    with pytest.raises(EngineDefect, match="while A1 or A2 applies"):
        next_step(g, f)
    rec = builder_mod._expand(g, f)
    assert (rec.label, rec.du) == ("A1", TABLE_FLOORS["A1"][0])
    assert rec.added_vertices == (3,) and f.parent[3] == 0
    # 3 and 1 die, beyond the row's db of 0: the record counts both
    assert rec.db == TABLE_FLOORS["A1"][1] + 2


def test_expand_a2():
    # leaf 1 has two outside neighbours, and no tree vertex of degree 2 has one
    g, f = make_state(5, [(0, 1), (0, 2), (1, 3), (1, 4)], [(0, 1), (0, 2)])
    with pytest.raises(EngineDefect, match="while A1 or A2 applies"):
        next_step(g, f)
    rec = builder_mod._expand(g, f)
    assert (rec.label, rec.du) == ("A2", TABLE_FLOORS["A2"][0])
    assert rec.added_vertices == (3, 4) and f.parent[3] == f.parent[4] == 1
    # the two pendant children die, beyond the row's db of 0: the record
    # counts both
    assert rec.db == TABLE_FLOORS["A2"][1] + 2
    assert builder_mod._expand(g, f) is None and next_step(g, f) is None


def test_next_step_z1_1():
    # fringe vertex of degree 4 with every neighbor already inside
    edges = [(0, i) for i in range(1, 5)] + [(5, 1), (5, 2), (5, 3), (5, 4)]
    g, f = make_state(6, edges, [(0, i) for i in range(1, 5)])
    plan = next_step(g, f)
    assert plan.label == "Z1.1" and TABLE_FLOORS[plan.label][1] == 4
    rec = apply_step(g, f, plan)
    assert rec.log_line() == "Z1.1 0 4 1 0 2"
    assert f.spans()


def test_apply_a3_gains_two_leaves():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (4, 6), (4, 7)]
    g, f = make_state(8, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "A3"
    rec = apply_step(g, f, plan)
    # the row's du, 2; the three pendant children die beyond the row's db of
    # 0, and the record counts them
    assert rec.log_line() == "A3 2 3 1 0 26"


@pytest.mark.parametrize(
    "row, message",
    [
        ((3, 0), r"A3: leaf delta 2 != nominal 3"),
        ((2, 5), r"A3: only 3 deaths, promised 5"),
    ],
)
def test_apply_step_checks_the_step_against_its_row(monkeypatch, row, message):
    # `_commit` reads the row when it commits, so a moved row is one whose
    # du or deaths the committed step cannot make
    monkeypatch.setitem(TABLE_FLOORS, "A3", (*row, TABLE_FLOORS["A3"][2]))
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (4, 6), (4, 7)]
    g, f = make_state(8, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert (plan.label, *TABLE_FLOORS[plan.label][:2]) == ("A3", *row)
    with pytest.raises(EngineDefect, match=message):
        apply_step(g, f, plan)


def test_apply_z2_adjacent_fringe_pair():
    # one degree-3 and one degree-4 fringe vertex, adjacent to each other
    edges = [(0, i) for i in range(1, 6)]
    edges += [(6, 1), (6, 2), (6, 7), (7, 3), (7, 4), (7, 5)]
    g, f = make_state(8, edges, [(0, i) for i in range(1, 6)])
    plan = next_step(g, f)
    assert plan.label == "Z2.1"
    rec = apply_step(g, f, plan)
    assert rec.log_line() == "Z2.1 0 5 1 1 1"
    assert f.spans()


def test_apply_z3_absorbs_pendant():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 5)]
    g, f = make_state(6, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "Z3.1"
    rec = apply_step(g, f, plan)
    assert rec.log_line() == "Z3.1 0 2 0 1 1"
    assert f.spans()


def test_apply_z3_2_absorbs_the_pendant_of_a_degree_4_vertex():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3), (4, 5)]
    g, f = make_state(6, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "Z3.2" and plan.attachments == ((1, 4), (4, 5))
    rec = apply_step(g, f, plan)
    assert rec.log_line() == "Z3.2 0 3 1 0 0"
    assert f.spans()


def test_apply_z2_both_rich():
    edges = [(0, i) for i in range(1, 7)]
    edges += [(7, 1), (7, 2), (7, 3), (7, 8), (8, 4), (8, 5), (8, 6)]
    g, f = make_state(9, edges, [(0, i) for i in range(1, 7)])
    plan = next_step(g, f)
    assert plan.label == "Z2.2"
    rec = apply_step(g, f, plan)
    assert rec.log_line() == "Z2.2 0 6 2 0 0"
    assert f.spans()


CHAIN_CASES = [
    # name, n, edges, tree edges, label, want_dudb, attachments
    (
        "M1",
        6,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)],
        [(0, 1), (0, 2)],
        "M1",
        0,
        ((1, 3), (3, 4), (3, 5)),
    ),
    (
        "N1",
        6,
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 4)],
        [(0, 1), (0, 2)],
        "N1",
        1,
        ((1, 3), (3, 4), (3, 5)),
    ),
    (
        "M2",
        9,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8)],
        [(0, 1), (0, 2)],
        "M2",
        2,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8)),
    ),
    (
        "M3.1",
        12,
        [(0, k) for k in range(1, 7)]
        + [(1, 7), (2, 7), (7, 8), (7, 9), (8, 3), (8, 4), (8, 10), (9, 5), (9, 6), (9, 11)],
        [(0, k) for k in range(1, 7)],
        "M3.1",
        -4,
        ((1, 7), (7, 8), (7, 9)),
    ),
    (
        "M3.2",
        9,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (2, 5), (5, 6), (5, 7), (6, 3), (6, 4), (6, 8)],
        [(0, k) for k in range(1, 5)],
        "M3.2",
        -2,
        ((1, 5), (5, 6), (5, 7)),
    ),
    (
        "N4.1.1",
        10,
        [(0, k) for k in range(1, 5)]
        + [(1, 5), (5, 6), (5, 7), (6, 7), (6, 8), (6, 9), (8, 2), (8, 3), (8, 4)],
        [(0, k) for k in range(1, 5)],
        "N4.1.1",
        0,
        ((1, 5), (5, 6), (5, 7), (6, 8), (6, 9)),
    ),
    (
        "M4.1.2",
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (4, 6), (5, 6), (5, 7), (5, 8), (7, 3)],
        [(0, 1), (0, 2), (0, 3)],
        "M4.1.2",
        0,
        ((1, 4), (4, 5), (4, 6), (5, 7), (5, 8)),
    ),
    (
        "M4.2",
        8,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7)],
        [(0, 1), (0, 2)],
        "M4.2",
        1,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7)),
    ),
    (
        "M4.3",
        10,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9)],
        [(0, 1), (0, 2)],
        "M4.3",
        0,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7)),
    ),
    (
        "M4.4",
        12,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 8), (5, 11), (6, 8), (6, 9), (6, 10), (7, 9), (7, 10), (7, 11)],
        [(0, 1), (0, 2)],
        "M4.4",
        3,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9), (6, 10)),
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
        ((1, 5), (5, 6), (5, 7), (6, 8), (6, 9), (8, 10), (8, 11)),
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
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9)),
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
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9)),
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
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9), (8, 10), (8, 11)),
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
        ((1, 5), (5, 6), (5, 7), (6, 8), (6, 9), (8, 10), (8, 11), (10, 12),
         (10, 13)),
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
        ((1, 5), (5, 6), (5, 7), (6, 8), (6, 9), (8, 10), (8, 11), (10, 12),
         (10, 13)),
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
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9), (5, 10)),
    ),
    (
        # the first chord vertex 6 sees the branch mate 5 and only two deep
        # vertices, so the second chord vertex 7 grows
        "M4.4-second-chord",
        12,
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 6), (5, 11), (6, 8), (6, 9), (7, 9), (7, 10), (7, 11)],
        [(0, 1), (0, 2)],
        "M4.4",
        3,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (7, 9), (7, 10), (7, 11)),
    ),
    # the M4.4 / M4.5.2 / M4.5.3 rows less the edge (2, 3): the root 3 has
    # degree 3 and one tree neighbour
    (
        "N4.4",
        12,
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 8), (5, 11), (6, 8), (6, 9), (6, 10), (7, 9), (7, 10), (7, 11)],
        [(0, 1), (0, 2)],
        "N4.4",
        4,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9), (6, 10)),
    ),
    (
        "N4.5.2",
        21,
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 15), (5, 16), (6, 7), (6, 8), (6, 9), (7, 17), (7, 18), (9, 19),
         (9, 20), (9, 8)],
        [(0, 1), (0, 2)],
        "N4.5.2",
        3,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9)),
    ),
    (
        "N4.5.3",
        18,
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7),
         (5, 8), (5, 15), (6, 7), (6, 8), (6, 9), (7, 8), (7, 16), (9, 16),
         (9, 17), (8, 9)],
        [(0, 1), (0, 2)],
        "N4.5.3",
        2,
        ((1, 3), (3, 4), (3, 5), (4, 6), (4, 7), (6, 8), (6, 9)),
    ),
    (
        "A4",
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (4, 5), (5, 6), (5, 7), (5, 8)],
        [(0, 1), (0, 2), (0, 3)],
        "A4",
        1,
        ((1, 4), (4, 5), (5, 6), (5, 7), (5, 8)),
    ),
]


@pytest.mark.parametrize("case", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_chain_case_resolution(case):
    name, n, edges, tree, label, want_dudb, attachments = case
    g, f = make_state(n, edges, tree)
    plan = next_step(g, f)
    assert plan.label == label
    assert plan.attachments == attachments
    rec = apply_step(g, f, plan)
    assert rec.label == label
    assert rec.du - TABLE_FLOORS[label][1] == want_dudb
    ledger = Ledger(StepRecord.make("test-base", 0, 0, 0, 0), [rec])
    assert table_violations(ledger) == []
    if label.startswith(("M", "N")):
        assert rec.profit15 >= 0


def test_apply_step_rejects_stale_plan():
    edges = [(0, 1), (0, 2), (0, 3), (4, 1), (4, 5), (4, 6), (4, 7)]
    g, f = make_state(8, edges, [(0, 1), (0, 2), (0, 3)])
    plan = next_step(g, f)
    assert plan.label == "A3"
    apply_step(g, f, plan)
    vertices, parent = set(f.vertices), dict(f.parent)
    with pytest.raises(EngineDefect, match="A3: child 4 not outside the tree"):
        apply_step(g, f, plan)
    assert f.vertices == vertices and f.parent == parent


def test_a_stale_plan_is_a_defect_of_its_run_and_later_bases_still_run(monkeypatch):
    # the first plan of the build names a tree vertex as its first child:
    # that run is a defect, and the six other B7 bases run and meet +2
    honest = builder_mod.next_step
    calls = 0

    def stale_first_plan(g, f):
        nonlocal calls
        calls += 1
        plan = honest(g, f)
        if calls == 1:
            (parent, _), *rest = plan.attachments
            plan = plan._replace(attachments=((parent, max(f.vertices)), *rest))
        return plan

    monkeypatch.setattr(builder_mod, "next_step", stale_first_plan)
    report = build(random_connected(14, 3, 4, 951997565))
    assert report.defects == ("B7: M1: child 8 not outside the tree",)
    assert report.engine_runs == 7
    assert report.bound_ok and not report.oracle_fallback


def test_a_refused_a1_or_a2_attachment_is_a_defect_of_its_run(monkeypatch):
    # `_expand` commits A1 and A2 without a plan, through `_commit` like
    # every other row; the first attach after the first base tree is
    # refused, so that run is a defect and the next base meets +2
    attach, make_base = PartialTree.attach, builder_mod.base_tree
    bases, refused = 0, False

    def counted(g, a, b=-1):
        nonlocal bases
        f = make_base(g, a, b)
        bases += 1
        return f

    def refuse_once(f, parent, child):
        nonlocal refused
        if bases == 1 and not refused:
            refused = True
            raise ValueError(f"child {child} refused")
        attach(f, parent, child)

    monkeypatch.setattr(builder_mod, "base_tree", counted)
    monkeypatch.setattr(PartialTree, "attach", refuse_once)
    report = build(random_connected(40, 3, 4, seed=1))
    assert report.defects == ("B1: A2: child 18 refused",)
    assert report.engine_runs == 2 and report.bound_ok


def test_attach_rejects_bad_attachments():
    g, f = make_state(5, [(0, 1), (1, 2), (0, 3), (2, 4)], [(0, 3)])
    for parent, child, why in [
        (0, 3, "not outside the tree"),
        (0, 2, "is not a graph edge"),
        (2, 4, "not in tree"),
    ]:
        with pytest.raises(ValueError, match=why):
            f.attach(parent, child)


def test_attach_and_apply_step_reject_a_child_out_of_range():
    # -1 would index vertex 3's neighbourhood, 4 would run off the end
    g = Graph(4, [(0, 1), (0, 3), (1, 2)])
    f = PartialTree(g, 0)
    for child in (-1, 4):
        with pytest.raises(ValueError, match="is not a vertex"):
            f.attach(0, child)
    with pytest.raises(EngineDefect, match="A1: child -1 is not a vertex"):
        apply_step(g, f, StepPlan("A1", ((0, -1),)))
    assert f.vertices == {0} and f.parent == {0: -1}


def test_partial_tree_rejects_a_root_out_of_range():
    # on the path 0-1-2-3, -1 would root the tree at a phantom vertex whose
    # neighbourhood is vertex 3's
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for root in (-1, 4):
        for make in (PartialTree, base_tree):
            with pytest.raises(ValueError, match=f"root {root} is not a vertex"):
                make(path, root)


def test_every_count_is_exact_after_every_attach(graph_pool, monkeypatch):
    # `base_tree` and `_commit` bind `f.attach` at call time, so patching
    # the class attribute audits every attach of every base and every step,
    # a Z4 split's included
    attach = PartialTree.attach
    attaches = 0

    def audited(f, parent, child):
        nonlocal attaches
        attach(f, parent, child)
        audit_counts(f.g, f)
        attaches += 1

    split = builder_mod.split_z4
    splits = 0

    def counted(g, f):
        nonlocal splits
        splits += 1
        return split(g, f)

    monkeypatch.setattr(PartialTree, "attach", audited)
    monkeypatch.setattr(builder_mod, "split_z4", counted)
    for g in _step_corpus(graph_pool):
        build(g)
    assert attaches > 0 and splits > 0


def _step_corpus(graph_pool) -> list[Graph]:
    """Graphs whose builds take every kind of step, a Z4 split included."""
    graphs = graph_pool[:40] + [h_graph(k) for k in (2, 3, 4)]
    graphs += [square_of_cycle(n) for n in range(6, 15)]
    # its first base reaches `split_z4`
    graphs.append(random_connected(14, 2, 13, seed=232))
    return graphs


def _tree_state(f: PartialTree) -> tuple:
    return (
        f.parent, f.dead, f.border, f.inner_open, f.rich, f.out, f.leaves, f.cost
    )


def _reference_a1_a2(g: Graph, f: PartialTree) -> StepPlan | None:
    """A1 or A2 planned from the parent links and the graph alone: A1
    attaches the least outside neighbour of the least tree vertex of tree
    degree >= 2 that has one; else A2 the two least outside neighbours of
    the least tree vertex with two.  None when neither row applies."""
    tree = set(f.parent)
    deg = tree_degrees(f)
    outside = {v: sorted(g.adj[v] - tree) for v in sorted(tree)}
    for label, fits, k in (
        ("A1", lambda v: deg[v] >= 2 and outside[v], 1),
        ("A2", lambda v: len(outside[v]) >= 2, 2),
    ):
        x = next((v for v in outside if fits(v)), None)
        if x is not None:
            return StepPlan(label, tuple((x, y) for y in outside[x][:k]))
    return None


def test_expand_commits_what_next_step_and_apply_step_commit(graph_pool, monkeypatch):
    # every run grows two copies of its base in lockstep: one as the engine
    # does, through `_expand`, falling back to `next_step` + `apply_step`;
    # the other commits every step with `apply_step`, its A1 and A2 planned
    # by `_reference_a1_a2`, while `next_step` refuses to plan them
    real_run = builder_mod._run_from_base
    expanded: set[str] = set()
    planned: set[str] = set()
    # the A1 and A2 rows met with more outside neighbours than they attach
    chose: set[str] = set()

    def commit(g, f, plan):
        if plan is None:
            plan = split_z4(g, f)
        return apply_step(g, f, plan)

    def lockstep(g, f, case):
        fast, slow = (copy.deepcopy(f, {id(g): g}) for _ in range(2))
        while True:
            plan = _reference_a1_a2(g, slow)
            d = builder_mod._expand(g, fast)
            assert (d is None) == (plan is None)
            if plan is None:
                plan = next_step(g, slow)
                if plan is None and slow.spans():
                    assert fast.spans()
                    break
                d = commit(g, fast, next_step(g, fast))
                planned.add(d.label)
            else:
                with pytest.raises(EngineDefect, match="while A1 or A2 applies"):
                    next_step(g, slow)
                expanded.add(d.label)
                x = plan.attachments[0][0]
                if len(g.adj[x] - slow.vertices) > len(plan.attachments):
                    chose.add(plan.label)
            assert d == commit(g, slow, plan)
            assert _tree_state(fast) == _tree_state(slow)
        return real_run(g, f, case)

    monkeypatch.setattr(builder_mod, "_run_from_base", lockstep)
    # the corpus's A1 steps each have one child to take; these do not
    wide = [random_connected(40, 3, 8, seed=s) for s in (0, 1)]
    for g in _step_corpus(graph_pool) + wide:
        build(g)
    assert expanded == chose == {"A1", "A2"}
    assert "Z4" in planned and len(planned) > 3


@pytest.mark.parametrize(
    "label, row, message",
    [
        ("A1", (2, 0), r"A1: leaf delta 1 != nominal 2"),
        ("A2", (1, 3), r"A2: only [0-2] deaths, promised 3"),
    ],
)
def test_expand_checks_each_step_against_its_row(monkeypatch, label, row, message):
    monkeypatch.setitem(TABLE_FLOORS, label, (*row, TABLE_FLOORS[label][2]))
    reduced, _ = reduce_fully(random_connected(40, 3, 4, seed=1))
    case, a, b = choose_bases(reduced)[0]
    with pytest.raises(EngineDefect, match=message):
        _run_from_base(reduced, base_tree(reduced, a, b), case)


def _z4_state() -> tuple[Graph, PartialTree]:
    """A star at 0 whose fringe vertex 5 leads to a K4 outside: a Z4 split."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4)]
    edges += [(5, 1), (5, 2), (5, 3), (5, 6)]
    edges += [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
    g = Graph(10, edges)
    return g, base_tree(g, 0)


def test_split_z4_direct():
    g, f = _z4_state()
    plan = split_z4(g, f)
    assert plan.label == "Z4"
    dead_before = len(f.dead)
    rec = apply_step(g, f, plan)
    check_spanning_tree(g, SpanningTree.from_parents([f.parent[v] for v in range(10)]))
    # every leaf of the spanning tree is dead, and the record counts each death
    assert len(f.dead) == f.leaves and rec.db == len(f.dead) - dead_before
    assert rec.log_line() == "Z4 2 5 2 3 15"
    # reattaching one component costs exactly two leaves against the parts
    assert f.leaves == 6


@pytest.mark.parametrize("floor", [16, 15])
def test_commit_checks_a_split_against_the_z4_floor(monkeypatch, floor):
    # the split's profit is 15: a floor one above it is a defect of the
    # commit, and at 15, as at the real floor (`test_split_z4_direct`), the
    # same split commits
    monkeypatch.setitem(TABLE_FLOORS, "Z4", (None, None, floor))
    g, f = _z4_state()
    plan = split_z4(g, f)
    if floor > 15:
        with pytest.raises(EngineDefect, match=r"Z4: nominal profit 15 < floor 16"):
            apply_step(g, f, plan)
    else:
        assert apply_step(g, f, plan).log_line() == "Z4 2 5 2 3 15"


def test_split_z4_two_components():
    # two disjoint deep rooms hanging off separate fringe hubs
    edges = [(0, i) for i in range(1, 7)]
    edges += [(7, 1), (7, 2), (7, 3), (7, 9)]
    edges += [(8, 4), (8, 5), (8, 6), (8, 13)]
    edges += [(9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (11, 12)]
    edges += [(13, 14), (13, 15), (13, 16), (14, 15), (14, 16), (15, 16)]
    g = Graph(17, edges)
    f = base_tree(g, 0)
    u_before, dead_before = f.leaves, len(f.dead)
    plan = split_z4(g, f)
    rec = apply_step(g, f, plan)
    check_spanning_tree(g, SpanningTree.from_parents([f.parent[v] for v in range(17)]))
    assert rec.db == len(f.dead) - dead_before and f.spans()
    # each of the two reattachments loses exactly two leaves
    parts_leaves = u_before + 4 + 4  # each room spans with 4 leaves
    assert f.leaves == parts_leaves - 2 * 2


def test_split_z4_refuses_a_tree_short_of_its_preconditions():
    # the star K_{1,4} spans, so it has no fringe to cut; the star at 0 of
    # H_2 has fringe vertices of degree 3
    star = Graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(EngineDefect, match="split with an empty fringe"):
        split_z4(star, base_tree(star, 0))
    g = h_graph(2)
    with pytest.raises(EngineDefect, match="fringe vertex breaks the split"):
        split_z4(g, base_tree(g, 0))


def _first_base() -> tuple[Graph, PartialTree, str]:
    reduced, _ = reduce_fully(random_connected(40, 3, 4, seed=1))
    case, a, b = choose_bases(reduced)[0]
    return reduced, base_tree(reduced, a, b), case


def test_a_base_off_its_potential_is_a_defect(monkeypatch):
    # the recount reads 1/15 high on a tree that does not span: the base
    # record's profit no longer matches it
    recount = builder_mod.alpha_prime

    def high_before_spanning(g, f):
        alpha = recount(g, f)
        return alpha if f.spans() else Fifteenths(alpha.num + 1)

    monkeypatch.setattr(builder_mod, "alpha_prime", high_before_spanning)
    with pytest.raises(EngineDefect, match="base profit does not match the base"):
        _run_from_base(*_first_base())


def test_a_run_that_stops_growing_exhausts_its_step_budget(monkeypatch):
    # a step that commits nothing leaves the tree where it was, round after round
    idle = StepRecord.make("A1", 0, 0, 0, 0)
    monkeypatch.setattr(builder_mod, "_expand", lambda g, f: idle)
    with pytest.raises(EngineDefect, match="step budget exhausted before spanning"):
        _run_from_base(*_first_base())


# The two forged commits below wrap `_commit` as this module imported it,
# before the audit fixtures patch the builder's: the audits would refuse
# the forged counts at once.


def test_a_run_that_leaves_a_leaf_unmarked_is_a_defect(monkeypatch):
    # the first step that kills a leaf loses one dead mark, and its record
    # loses that death: the counts, the records and the recount still agree,
    # but the spanning tree has a leaf not marked dead
    forged = []

    def unmark(g, f, *step):
        rec = _commit(g, f, *step)
        if not forged and rec.db:
            forged.append(f.dead.pop())
            rec = dataclasses.replace(
                rec, db=rec.db - 1, profit15=rec.profit15 - DEAD_GAIN15
            )
        return rec

    monkeypatch.setattr(builder_mod, "_commit", unmark)
    with pytest.raises(EngineDefect, match="a leaf of the spanning tree is not dead"):
        _run_from_base(*_first_base())
    assert forged


def test_a_run_whose_leaf_and_cost_counts_err_together_fails_to_telescope(monkeypatch):
    # after the first step the counts take one leaf too many, mark the root
    # (of tree degree >= 2, so never a leaf) dead, add 13/15 to the cost, and
    # the step's record counts the extra death: the counts, the records and
    # the recount, which counts leaves from the links, still agree and every
    # leaf counted is marked dead, but 15 leaves - cost(g) is 13/15 above
    # the ledger's sum; with a true recount only such paired errors reach
    # the telescoping check
    forged = []

    def miscount(g, f, *step):
        rec = _commit(g, f, *step)
        if not forged:
            assert f.deg[f.root] >= 2
            forged.append(f.root)
            f.leaves += 1
            f.dead.add(f.root)
            f.cost += 13
            rec = dataclasses.replace(
                rec, db=rec.db + 1, profit15=rec.profit15 + DEAD_GAIN15
            )
        return rec

    monkeypatch.setattr(builder_mod, "_commit", miscount)
    with pytest.raises(EngineDefect, match="final potential does not telescope"):
        _run_from_base(*_first_base())
    assert forged


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


def grown_leaves(g: Graph, label: str, a: int, b: int) -> int:
    """The leaves of the tree a run grows on g from the base (a, b)."""
    f = base_tree(g, a, b)
    _run_from_base(g, f, label)
    return f.leaves


@pytest.mark.parametrize(
    "args, leaves, alpha15",
    [
        # random_graph_pool(2000, sizes=(3, 40), seed=99) indices 98 and 1300
        ((17, 2, 3, 208233642), 6, 42),
        ((16, 2, 3, 185619017), 6, 42),
        # from the sweep-small benchmark pool of seed 606; exact search on
        # its 9-vertex reduced graph gives a CDS that lifts to 6 leaves
        ((16, 2, 3, 73701376), 6, 42),
    ],
)
def test_b5_shortfall_falls_back_to_exact_search(args, leaves, alpha15):
    g = random_connected(*args)
    reduced, _ = reduce_fully(g)
    bases = choose_bases(reduced)
    assert reduced.n == 9 and {label for label, _, _ in bases} == {"B5"}
    required15 = cost15(reduced) + 30
    assert all(
        15 * grown_leaves(reduced, label, a, b) < required15 for label, a, b in bases
    )
    r = build(g)
    assert r.base_case == "B5" and r.ledger.base.label == "B5-base"
    assert r.oracle_fallback and not r.defects
    assert r.engine_runs == len(bases)
    assert (r.leaves, r.alpha) == (leaves, Fifteenths(alpha15))
    assert r.bound_ok
    assert verify_ledger(g, r.ledger, r.spanning_tree).ok


def test_b7_shortfall_is_settled_by_a_later_base():
    # random_graph_pool(2000, sizes=(3, 40), seed=99) index 812
    g = random_connected(14, 3, 4, 951997565)
    reduced, _ = reduce_fully(g)
    bases = choose_bases(reduced)
    assert reduced.n == 9 and [label for label, _, _ in bases] == ["B7"] * 7
    required15 = cost15(reduced) + 30
    reached = [
        15 * grown_leaves(reduced, label, a, b) >= required15 for label, a, b in bases
    ]
    assert reached == [False] + [True] * 6
    r = build(g)
    assert r.base_case == "B7" and not r.oracle_fallback and not r.defects
    assert r.engine_runs == 7
    assert (r.leaves, r.alpha) == (6, Fifteenths(42))
    assert r.bound_ok
    assert verify_ledger(g, r.ledger, r.spanning_tree).ok


def recorded_runs(monkeypatch) -> list[tuple[list[int], int | None]]:
    """Wrap `_run_from_base`; the list returned gets, for each run, its
    base vertices, sorted, and its leaf count, None for a run that raised."""
    real, runs = builder_mod._run_from_base, []

    def recording(g, f, case):
        runs.append((sorted(f.vertices), None))
        ledger = real(g, f, case)
        runs[-1] = (runs[-1][0], f.leaves)
        return ledger

    monkeypatch.setattr(builder_mod, "_run_from_base", recording)
    return runs


def test_base_tier_at_most_16_vertices_runs_every_base(graph_pool):
    for g in graph_pool:
        reduced, _ = reduce_fully(g)
        r = build(g)
        if r.base_case in ("exclusion-direct", "path-direct"):
            continue
        assert reduced.n <= 16 and r.engine_runs == len(choose_bases(reduced))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: random_connected(160, 3, 4, 7), id="rc(160,3,4,7)"),
        pytest.param(lambda: random_connected(64, 3, 4, 1), id="rc(64,3,4,1)"),
        pytest.param(lambda: random_connected(40, 2, 39, 3), id="rc(40,2,39,3)"),
        pytest.param(lambda: h_graph(20), id="h_graph(20)"),
        pytest.param(lambda: closing_defect_line_graph(swap=True), id="line-graph"),
    ],
)
def test_past_16_vertices_no_run_follows_the_first_that_meets_the_bound(
    monkeypatch, make
):
    g = make()
    reduced, _ = reduce_fully(g)
    runs = recorded_runs(monkeypatch)
    r = build(g)
    assert reduced.n > 16 and len(choose_bases(reduced)) > 1
    met = [
        leaves is not None and 15 * leaves >= reduced.cost15 + 30
        for _, leaves in runs
    ]
    assert met[-1] and not any(met[:-1])
    assert r.engine_runs == len(runs) == len(r.defects) + 1
    assert r.bound_ok and not r.oracle_fallback


def test_past_16_vertices_every_base_runs_when_none_meets_the_bound(monkeypatch):
    # with a bound no tree meets, the tier grows all eleven bases of the
    # 18-vertex reduced graph and keeps the first with the most leaves, the
    # last (12 leaves against 10 or 11)
    g = random_connected(24, 3, 4, 3)
    reduced, _ = reduce_fully(g)
    bases = choose_bases(reduced)
    monkeypatch.setattr(builder_mod, "_BOUND15", 10**6)
    runs = recorded_runs(monkeypatch)
    r = build(g)
    assert reduced.n == 18 and r.engine_runs == len(runs) == len(bases) == 11
    best = max(leaves for _, leaves in runs)
    kept = next(vs for vs, leaves in runs if leaves == best)
    assert best == 12 and kept == runs[-1][0]
    assert list(r.ledger.base.added_vertices) == kept
    assert not r.bound_ok and not r.oracle_fallback


def test_first_base_reaches_split_z4(monkeypatch):
    g = random_connected(14, 2, 13, seed=232)
    reduced, _ = reduce_fully(g)
    bases = choose_bases(reduced)
    label, a, b = bases[0]
    assert reduced.n == 11 and label == "B2"
    ledger = _run_from_base(reduced, base_tree(reduced, a, b), label)
    assert "Z4" in [rec.label for rec in ledger.steps]
    # `split_z4` looks `build` up at call time, so this counts the nested
    # builds: one, for the graph's one outside component, and none deeper
    real_build = builder_mod.build
    nested = 0

    def counted(h):
        nonlocal nested
        nested += 1
        return real_build(h)

    monkeypatch.setattr(builder_mod, "build", counted)
    r = real_build(g)
    assert nested == 1
    assert "Z4" in [rec.label for rec in r.ledger.steps]
    assert r.bound_ok and not r.oracle_fallback
    assert verify_ledger(g, r.ledger, r.spanning_tree).ok


def test_run_with_a_split_ends_through_the_recount(monkeypatch):
    # the first base of this graph reaches split_z4; make the end-of-run
    # recount of that engine run (its 11-vertex reduced graph, spanned) read
    # 1/15 too high, and the run must report the drift; the exact-search
    # rescue that follows is not a base tree, so its recount stays true
    recount, make_base = builder_mod.alpha_prime, builder_mod.base_tree
    bases = []

    def recorded(g, a, b=-1):
        bases.append(make_base(g, a, b))
        return bases[-1]

    def off_by_one(g, f):
        alpha = recount(g, f)
        if g.n == 11 and f.spans() and f in bases:
            return Fifteenths(alpha.num + 1)
        return alpha

    monkeypatch.setattr(builder_mod, "base_tree", recorded)
    monkeypatch.setattr(builder_mod, "alpha_prime", off_by_one)
    r = build(random_connected(14, 2, 13, seed=232))
    assert r.defects == ("B2: recounted potential differs from the ledger",)


@pytest.mark.parametrize(
    "make, leaves, alpha15, base, log_sha256, z0_log_sha256",
    [
        pytest.param(
            lambda: random_connected(160, 3, 4, seed=7),
            75,
            405,
            "B1",
            "ee12a6af0aece7a7b9e745cb06d1b3b069d86b7dfc6b360c73e2d10e0bc4099e",
            "40ca11b7470996473a1dacaa0d9bb4d8ff7b6d194c047fdbb2338962f67a1448",
            id="random_connected(160,3,4,seed=7)",
        ),
        pytest.param(
            lambda: h_graph(20),
            42,
            30,
            "B7",
            "9868a3fa0fde9db33660e68cdcad793a567c51c8e7cd7f1fbc19410c59697772",
            "6d4226bfc922a0dba22893beaf058e27500f7809a4170b15387e3c836238cb4b",
            id="h_graph(20)",
        ),
    ],
)
def test_engine_output_pinned_beyond_the_oracle(
    make, leaves, alpha15, base, log_sha256, z0_log_sha256
):
    # every step choice shows in the ledger log, so its hash pins the whole
    # run; each death beyond a row's db unfolded into a Z0 record gives the
    # log's hash from before a record counted every death of its step
    g = make()
    r = build(g)
    assert (r.leaves, r.alpha, r.base_case) == (leaves, Fifteenths(alpha15), base)
    log = "\n".join(r.ledger.log_lines()).encode()
    assert hashlib.sha256(log).hexdigest() == log_sha256
    z0_log = [r.ledger.base.log_line()]
    for rec in r.ledger.steps:
        at_row, extra = at_row_db(rec)
        z0_log += [at_row.log_line()] + ["Z0 0 1 0 0 2"] * extra
    assert hashlib.sha256("\n".join(z0_log).encode()).hexdigest() == z0_log_sha256
    # past 16 vertices the first base meets +2 and ends the tier
    assert not r.oracle_fallback and not r.defects
    assert r.engine_runs == 1 < len(choose_bases(reduce_fully(g)[0]))


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


def test_every_engine_step_is_audited(audit_every_step):
    # one base and no Z4 split, whose component builds would add audited
    # steps of their own: each record of the ledger but the lift's comes
    # from one `_commit` call, so a path that skipped it would show
    g = random_connected(32, 2, 31, seed=4)
    r = build(g)
    assert r.engine_runs == 1
    labelled = [
        rec.label for rec in r.ledger.steps if not rec.label.endswith("-undo")
    ]
    assert "Z4" not in labelled
    assert len(labelled) >= 4 and audit_every_step.steps == len(labelled)


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
    assert r.leaves >= 5 and r.alpha >= Fifteenths(30)


def spanned_at_each_recount(monkeypatch) -> list[bool]:
    """Whether the tree spanned, at each recount of the potential from now on."""
    recount = builder_mod.alpha_prime
    spanned = []

    def counted(g, f):
        spanned.append(f.spans())
        return recount(g, f)

    monkeypatch.setattr(builder_mod, "alpha_prime", counted)
    return spanned


@pytest.mark.parametrize("make", [lambda: square_of_cycle(6), g8], ids=["C6sq", "G8"])
def test_exact_tree_ends_through_the_recount(monkeypatch, make):
    # an exact-search tree is run as a base that already spans: its
    # potential is recounted when the run starts and when it ends
    spanned = spanned_at_each_recount(monkeypatch)
    r = build(make())
    assert r.base_case == "exclusion-direct" and spanned == [True, True]


@pytest.mark.parametrize("make", [lambda: cycle(7), lambda: path(9)], ids=["cycle(7)", "path(9)"])
def test_path_direct_grows_the_star_at_0(monkeypatch, make):
    # K2 and the triangle are spanned by the star at 0 without exact search;
    # that star is run as a base that already spans, through both recounts
    def no_search(g):
        raise AssertionError("path-direct ran the exact search")

    monkeypatch.setattr(builder_mod, "max_leaf_tree", no_search)
    spanned = spanned_at_each_recount(monkeypatch)
    g = make()
    r = build(g)
    assert r.base_case == "path-direct" and r.leaves == 2 and r.engine_runs == 0
    assert verify_ledger(g, r.ledger, r.spanning_tree).ok
    assert spanned == [True, True]


def test_exact_tree_enters_through_the_attach_edge_check(monkeypatch):
    # the star at 0 is no tree of C6^2, where 0 and 3 are not adjacent
    monkeypatch.setattr(builder_mod, "max_leaf_tree", lambda g: [-1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"\(0,3\) is not a graph edge"):
        build(square_of_cycle(6))
