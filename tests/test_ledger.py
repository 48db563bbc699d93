from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from leafspan import (
    Fifteenths,
    Graph,
    Ledger,
    StepRecord,
    build,
    h_graph,
    random_connected,
    reduce_fully,
    reduction,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.builder import PartialTree, base_tree, choose_bases
from leafspan.graph import degree_cost15
from leafspan.ledger import (
    DEAD_GAIN15,
    LEAF_GAIN15,
    TABLE_FLOORS,
    alpha_prime,
    profit15_of,
)

from conftest import engine_step


def test_profit_examples():
    # one expensive vertex becoming a new leaf
    assert StepRecord.make("A1", 1, 0, 1, 0).profit15 == 7
    # one death alone
    assert StepRecord.make("Z1.3.1", 0, 1, 0, 0).profit15 == 2
    # dead-end absorption of a rich fringe vertex
    assert StepRecord.make("Z1.1", 0, 4, 1, 0).profit15 == 2


def test_profit_formula():
    assert profit15_of(2, 4, 5, 0) == 26 + 8 - 30
    assert profit15_of(1, 0, 0, 1) == 10


def test_record_log_line():
    rec = StepRecord.make("A2", 1, 0, 2, 0)
    assert rec.log_line() == "A2 1 0 2 0 1"


def test_alpha_prime_spanning_star_of_k5():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    f = base_tree(k5, 0)
    assert f.spans() and len(f.dead) == 4
    assert alpha_prime(k5, f) == Fifteenths(30)


def reference_alpha_prime(g: Graph, f) -> Fifteenths:
    """The recount as a per-vertex formula: a vertex is a leaf when its
    children plus its parent link (none at -1) make one, and the cost is
    `degree_cost15` of each tree vertex's degree."""
    kids = Counter(f.parent.values())
    u = sum(1 for v, p in f.parent.items() if kids.get(v, 0) + (p != -1) == 1)
    cost = sum(degree_cost15(len(g.adj[v])) for v in f.vertices)
    return Fifteenths(LEAF_GAIN15 * u + DEAD_GAIN15 * len(f.dead) - cost)


def test_alpha_prime_matches_the_reference_on_small_trees():
    k5 = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    lone = PartialTree(k5, 2)
    one_child = PartialTree(k5, 2)
    one_child.attach(2, 4)
    star = base_tree(k5, 3)
    for f, leaves in ((lone, 0), (one_child, 2), (star, 4)):
        assert f.leaves == leaves
        assert alpha_prime(k5, f) == reference_alpha_prime(k5, f)
    assert alpha_prime(k5, lone) == Fifteenths(-6)  # no leaf, one degree-4 vertex


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: h_graph(3), id="h_graph(3)"),
        pytest.param(lambda: random_connected(24, 2, 5, seed=3), id="rc(24,2,5,3)"),
        pytest.param(lambda: random_connected(40, 3, 4, seed=1), id="rc(40,3,4,1)"),
        pytest.param(lambda: random_connected(64, 3, 3, seed=2), id="rc(64,3,3,2)"),
    ],
)
def test_alpha_prime_matches_the_reference_on_every_engine_step(make):
    reduced, _ = reduce_fully(make())
    steps = 0
    for _, a, b in choose_bases(reduced):
        f = base_tree(reduced, a, b)
        assert alpha_prime(reduced, f) == reference_alpha_prime(reduced, f)
        while engine_step(reduced, f) is not None:
            assert alpha_prime(reduced, f) == reference_alpha_prime(reduced, f)
            steps += 1
    assert steps >= 10


def test_alpha_prime_equals_leaves_minus_cost_when_spanning():
    g = h_graph(2)
    report = build(g)
    assert report.alpha == Fifteenths(15 * report.leaves - report.cost.num)


def test_alpha_prime_degree5_star_floor():
    # star around a degree-5 vertex: potential at least 29/15
    edges = [(0, i) for i in range(1, 6)] + [(1, 2), (3, 4)]
    g = Graph(6, edges)
    f = base_tree(g, 0)
    assert alpha_prime(g, f).num >= 29


def test_verify_ledger_on_builds():
    for g in (square_of_cycle(6), h_graph(3)):
        report = build(g)
        audit = verify_ledger(g, report.ledger, report.spanning_tree)
        assert audit.ok
    report = build(square_of_cycle(6))
    assert report.alpha == Fifteenths(24)
    report = build(h_graph(3))
    assert report.alpha >= Fifteenths(30)


def test_verify_ledger_detects_tampering():
    g = h_graph(2)
    report = build(g)
    ledger = report.ledger
    assert ledger.steps, "expected a stepped construction"
    bad = dataclasses.replace(ledger.steps[0], db=ledger.steps[0].db + 1)
    tampered = Ledger(ledger.base, [bad] + ledger.steps[1:])
    audit = verify_ledger(g, tampered, report.spanning_tree)
    assert not audit.ok and audit.first_bad_index == 0


def test_verify_ledger_detects_a_forged_base_record():
    g = h_graph(2)
    report = build(g)
    ledger = report.ledger
    bad = dataclasses.replace(ledger.base, profit15=ledger.base.profit15 + 1)
    audit = verify_ledger(g, Ledger(bad, ledger.steps), report.spanning_tree)
    assert not audit.ok and audit.first_bad_index == -1
    assert audit.reason == "base record profit mismatch"


def test_verify_ledger_detects_total_mismatch():
    g = h_graph(2)
    report = build(g)
    shorter = Ledger(report.ledger.base, report.ledger.steps[:-1])
    if not report.ledger.steps:
        return
    audit = verify_ledger(g, shorter, report.spanning_tree)
    assert not audit.ok


def test_table_floor_values():
    assert TABLE_FLOORS["A1"] == (1, 0, 7)
    assert TABLE_FLOORS["Z1.1"] == (0, 4, 2)
    assert TABLE_FLOORS["M4.5.5"] == (3, 5, 1)
    assert TABLE_FLOORS["Z2.1"] == (0, 5, 1)
    assert TABLE_FLOORS["N4.5.4.2"] == (4, 1, 6)


def test_every_n_row_is_its_m_row_with_one_death_fewer():
    m_rows = {k[1:]: row for k, row in TABLE_FLOORS.items() if k[0] == "M"}
    n_rows = {k[1:]: row for k, row in TABLE_FLOORS.items() if k[0] == "N"}
    assert m_rows.keys() == n_rows.keys() and len(m_rows) == 16
    for case, (du, db, floor) in m_rows.items():
        assert n_rows[case] == (du, db - 1, floor + 1)
        # so no composite step can land with a negative profit
        assert floor >= 0 and db >= 1


def test_table_violations_flags_bad_rows():
    good = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A1", 1, 0, 1, 0)],
    )
    assert table_violations(good) == []
    bad = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A4", 2, 0, 1, 1)],  # fewer deaths than the row's db
    )
    assert table_violations(bad)
    costly = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A2", 1, 0, 3, 0)],  # three added T vertices: below floor
    )
    assert table_violations(costly)


def test_table_violations_checks_du_and_db_each_against_the_row():
    # du and db one above A1's row: du - db and the floor still hold, but du
    # must be the row's
    shifted = StepRecord.make("A1", 2, 1, 1, 0)
    assert shifted.du - shifted.db == 1 and shifted.profit15 >= 7
    base = StepRecord.make("B7-base", 4, 0, 5, 0)
    assert table_violations(Ledger(base, [shifted])) == [
        (0, "A1: leaf delta 2 != nominal 1")
    ]
    # A4's du with one death fewer than its row's db: the nominal profit,
    # at the row's db, reaches the floor, but db may not fall below the row's
    short = StepRecord.make("A4", 2, 0, 1, 1)
    assert short.profit15 + DEAD_GAIN15 >= TABLE_FLOORS["A4"][2]
    assert table_violations(Ledger(base, [short])) == [
        (0, "A4: only 0 deaths, promised 1")
    ]


def test_deaths_beyond_the_row_count_in_db_but_not_toward_the_floor():
    # A3 with its three pendant children dead: the row's du, three deaths
    # beyond its db of 0, and 6/15 of profit the floor does not count on
    base = StepRecord.make("B7-base", 4, 0, 5, 0)
    a3 = StepRecord.make("A3", 2, 3, 1, 0)
    assert table_violations(Ledger(base, [a3])) == []
    # a forged record with five added vertices, four of them T: a profit of
    # 5/15 reaches the floor, but -1/15 without the deaths does not
    costly = StepRecord.make("A3", 2, 3, 4, 1)
    assert costly.profit15 == 5 >= TABLE_FLOORS["A3"][2]
    assert table_violations(Ledger(base, [costly])) == [
        (0, "A3: nominal profit -1 < floor 2")
    ]


def test_table_violations_flags_a_composite_label_without_a_row():
    for label in ("M9", "N4.6"):
        rec = StepRecord.make(label, 2, 1, 0, 1)  # a non-negative profit
        assert rec.profit15 >= 0
        ledger = Ledger(StepRecord.make("B7-base", 4, 0, 5, 0), [rec])
        assert table_violations(ledger) == [(0, f"{label}: no catalog row")]


def test_table_violations_refuses_forged_records_by_name():
    base = StepRecord.make("B7-base", 4, 0, 5, 0)
    a1 = StepRecord.make("A1", 1, 0, 1, 0)
    z4 = StepRecord.make("Z4", 0, 1, 0, 1)  # one S vertex and one death: -1/15
    assert z4.profit15 == -1
    forged = [
        (dataclasses.replace(a1, label="Q"), "Q: no catalog row"),
        (dataclasses.replace(a1, label="A9"), "A9: no catalog row"),
        (StepRecord.make("R1-undo", 2, 2, 0, 0), "R1-undo: leaf delta 2 != nominal 1"),
        (z4, "Z4: nominal profit -1 < floor 0"),
    ]
    for rec, why in forged:
        assert table_violations(Ledger(base, [a1, rec])) == [(1, why)]
    # a Z4 row states no du or db: any split that keeps its potential passes
    split = StepRecord.make("Z4", 3, 5, 2, 1)
    assert table_violations(Ledger(base, [split])) == []


@pytest.mark.parametrize("seed, label", [(10, "Z1.3.1"), (2, "Z1.3.2")])
def test_a_dead_end_fringe_vertex_of_degree_one_or_two_has_its_row(seed, label):
    g = random_connected(5, 1, 4, seed)
    report = build(g)
    assert label in [rec.label for rec in report.ledger.steps]
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok
    assert table_violations(report.ledger) == []


def test_every_lift_label_has_a_row():
    assert set(reduction._UNDONE.values()) <= TABLE_FLOORS.keys()


def test_mn_steps_nonnegative_in_builds(graph_pool):
    for g in graph_pool[:40]:
        report = build(g)
        for rec in report.ledger.steps:
            if rec.label.startswith(("M", "N")):
                assert rec.profit15 >= 0
        assert table_violations(report.ledger) == []


def test_telescoping_exact(graph_pool):
    for g in graph_pool[:40]:
        report = build(g)
        total = report.ledger.base.profit15 + sum(
            r.profit15 for r in report.ledger.steps
        )
        assert Fifteenths(total) == report.alpha
