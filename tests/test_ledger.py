from __future__ import annotations

import dataclasses

from leafspan import (
    Fifteenths,
    Graph,
    Ledger,
    StepRecord,
    alpha_prime,
    build,
    h_graph,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.builder import star_base
from leafspan.ledger import TABLE_FLOORS, profit15_of


def test_profit_examples():
    # one expensive vertex becoming a new leaf
    assert StepRecord.make("A1", 1, 0, 1, 0).profit15 == 7
    # a bookkeeping death
    assert StepRecord.make("Z0", 0, 1, 0, 0).profit15 == 2
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
    f = star_base(k5, 0)
    assert f.spans() and len(f.dead) == 4
    assert alpha_prime(k5, f) == Fifteenths.whole(2)


def test_alpha_prime_equals_leaves_minus_cost_when_spanning():
    g = h_graph(2)
    report = build(g)
    assert report.alpha == Fifteenths(15 * report.leaves) - report.cost


def test_alpha_prime_degree5_star_floor():
    # star around a degree-5 vertex: potential at least 29/15
    edges = [(0, i) for i in range(1, 6)] + [(1, 2), (3, 4)]
    g = Graph(6, edges)
    f = star_base(g, 0)
    assert alpha_prime(g, f).num >= 29


def test_verify_ledger_on_builds():
    for g in (square_of_cycle(6), h_graph(3)):
        report = build(g)
        audit = verify_ledger(g, report.ledger, report.spanning_tree)
        assert audit.ok
    report = build(square_of_cycle(6))
    assert report.ledger.total_alpha == Fifteenths(24)
    report = build(h_graph(3))
    assert report.ledger.total_alpha >= Fifteenths.whole(2)


def test_verify_ledger_detects_tampering():
    g = h_graph(2)
    report = build(g)
    ledger = report.ledger
    assert ledger.steps, "expected a stepped construction"
    bad = dataclasses.replace(ledger.steps[0], db=ledger.steps[0].db + 1)
    tampered = Ledger(ledger.base, [bad] + ledger.steps[1:])
    audit = verify_ledger(g, tampered, report.spanning_tree)
    assert not audit.ok and audit.first_bad_index == 0


def test_verify_ledger_detects_total_mismatch():
    g = h_graph(2)
    report = build(g)
    shorter = Ledger(report.ledger.base, report.ledger.steps[:-1])
    if not report.ledger.steps:
        return
    audit = verify_ledger(g, shorter, report.spanning_tree)
    assert not audit.ok


def test_table_floor_values():
    assert TABLE_FLOORS["A1"] == (1, 7)
    assert TABLE_FLOORS["Z1.1"] == (-4, 2)
    assert TABLE_FLOORS["M4.5.5"] == (-2, 1)
    assert TABLE_FLOORS["Z2.1"] == (-5, 1)
    assert TABLE_FLOORS["N4.5.4.2"] == (3, 6)


def test_table_violations_flags_bad_rows():
    good = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A1", 1, 0, 1, 0)],
    )
    assert table_violations(good) == []
    bad = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A1", 1, 1, 1, 0)],  # du-db off the row
    )
    assert table_violations(bad)
    costly = Ledger(
        StepRecord.make("B7-base", 4, 0, 5, 0),
        [StepRecord.make("A2", 1, 0, 3, 0)],  # three added T vertices: below floor
    )
    assert table_violations(costly)


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
