"""Recovery paths of the build driver, most of them forced via monkeypatching.

The engine raises a defect on one known graph (a line graph, pinned
below), and it needs exact search only where every base of the first case
falls short (see `test_b5_shortfall_falls_back_to_exact_search`), so the
paths are also driven directly: per-base defects are collected and
survived, and a total
engine outage on a small graph falls back to exact search with the report
flagged.  An exact-search tree runs through `_run_from_base` like a base,
so an outage is forced where only the engine goes: at `base_tree`.  The
runtime checks also fire on runs the driver does not keep.
"""

from __future__ import annotations

import pytest

import leafspan.builder as builder_mod
from leafspan import (
    Fifteenths,
    build,
    h_graph,
    random_connected,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.builder import EngineDefect
from leafspan.trees import check_spanning_tree

from conftest import closing_defect_line_graph, tree_degrees


def test_closing_vertex_defect_on_a_line_graph_is_swallowed():
    # the run from the star at vertex 10 reaches the M4.5.5 closing
    # configuration with no vertex that closes it.  Under the edge-list
    # numbering the first base already meets +2, so that run never starts;
    # with vertices 0 and 10 swapped it is the first, and the driver drops
    # it and keeps the second.  Planning that configuration (ROADMAP item
    # 11) changes this pin.
    g = closing_defect_line_graph()
    with pytest.raises(EngineDefect, match="^closing vertex adjacency violated$"):
        builder_mod._run_from_base(g, builder_mod.base_tree(g, 10), "B7")
    report = build(g)
    assert g.n == 24 and report.reduction_trace == []
    assert report.base_case == "B7" and report.engine_runs == 1
    assert report.defects == () and report.leaves == 13

    g = closing_defect_line_graph(swap=True)
    report = build(g)
    assert report.base_case == "B7" and report.engine_runs == 2
    assert report.defects == ("B7: closing vertex adjacency violated",)
    assert not report.oracle_fallback
    assert report.leaves == 13 and report.alpha == Fifteenths(51)
    assert report.bound_ok
    check_spanning_tree(g, report.spanning_tree)
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok
    assert table_violations(report.ledger) == []


def test_total_engine_outage_falls_back_to_exact_search(monkeypatch):
    def always_defective(g, a, b=-1):
        raise EngineDefect("forced outage")

    monkeypatch.setattr(builder_mod, "base_tree", always_defective)
    g = h_graph(2)
    report = build(g)
    assert report.oracle_fallback
    assert report.defects and all("forced outage" in d for d in report.defects)
    assert report.bound_ok and report.leaves == 6
    check_spanning_tree(g, report.spanning_tree)
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok


def test_single_base_defect_is_survived(monkeypatch):
    real = builder_mod._run_from_base
    calls = {"n": 0}

    def flaky(g, base, case):
        calls["n"] += 1
        if calls["n"] == 1:
            raise EngineDefect("first base poisoned")
        return real(g, base, case)

    monkeypatch.setattr(builder_mod, "_run_from_base", flaky)
    g = h_graph(2)
    report = build(g)
    assert not report.oracle_fallback
    assert any("poisoned" in d for d in report.defects)
    assert report.bound_ok and report.alpha == Fifteenths(30)


def test_outage_beyond_exact_search_budget_raises(monkeypatch):
    def always_defective(g, base, case):
        raise EngineDefect("forced outage")

    monkeypatch.setattr(builder_mod, "_run_from_base", always_defective)
    with pytest.raises(EngineDefect):
        build(h_graph(4))  # reduces to 20 vertices: no exact-search rescue


def test_exclusion_path_untouched_by_engine_patch(monkeypatch):
    def always_defective(g, a, b=-1):  # pragma: no cover - must not run
        raise EngineDefect("forced outage")

    monkeypatch.setattr(builder_mod, "base_tree", always_defective)
    report = build(square_of_cycle(6))
    assert report.leaves == 4 and not report.defects


def _tamper_after_every_step(monkeypatch, tamper):
    """Call `tamper(f)` after every step of every run: each is committed by
    `_commit`, from `_expand` (A1, A2) or `apply_step` (every other row)."""
    real_commit = builder_mod._commit

    def committing(g, f, *step):
        rec = real_commit(g, f, *step)
        tamper(f)
        return rec

    monkeypatch.setattr(builder_mod, "_commit", committing)


def test_drift_in_a_dropped_base_is_caught(monkeypatch):
    # random_graph_pool(2000, sizes=(3, 40), seed=99) index 812: seven B7
    # bases, and the driver keeps the second, the first to reach 6 leaves
    g = random_connected(14, 3, 4, 951997565)
    clean = build(g)
    real_run = builder_mod._run_from_base
    runs = {"n": 0}

    def counted(g, base, case):
        runs["n"] += 1
        return real_run(g, base, case)

    def drift(f):
        if runs["n"] == clean.engine_runs:  # the last base
            f.cost += 1  # the counts fall 1/15 behind the ledger

    monkeypatch.setattr(builder_mod, "_run_from_base", counted)
    _tamper_after_every_step(monkeypatch, drift)
    report = build(g)
    assert len(report.defects) == 1 and "potential drifted" in report.defects[0]
    assert not report.oracle_fallback and report.engine_runs == clean.engine_runs
    assert report.ledger.log_lines() == clean.ledger.log_lines()
    assert report.spanning_tree == clean.spanning_tree
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok
    assert table_violations(report.ledger) == []


def _fault_at_the_end_of_the_second_run(monkeypatch, *, recount=None, step=None):
    """Build h_graph(2) (ten B7 bases; the driver keeps the first) with a
    fault at the end of the second run, which the driver drops.

    `recount(f, alpha)` returns what that run's final `alpha_prime` reports
    in place of the true `alpha`; `step(f)` tampers with its tree after its
    last step."""
    g = h_graph(2)
    clean = build(g)
    real_run = builder_mod._run_from_base
    real_recount = builder_mod.alpha_prime
    runs = {"n": 0}
    faults = []

    def counted(g, base, case):
        runs["n"] += 1
        return real_run(g, base, case)

    def recounting(g, f):
        if recount is not None and runs["n"] == 2 and f.spans():
            faults.append(f)
            return recount(f, real_recount(g, f))
        return real_recount(g, f)

    def stepped(f):
        if step is not None and runs["n"] == 2 and f.spans():
            faults.append(f)
            step(f)

    monkeypatch.setattr(builder_mod, "_run_from_base", counted)
    monkeypatch.setattr(builder_mod, "alpha_prime", recounting)
    _tamper_after_every_step(monkeypatch, stepped)
    report = build(g)
    assert len(faults) == 1
    assert clean.engine_runs == report.engine_runs == runs["n"] >= 2
    assert not clean.defects and not report.oracle_fallback
    assert report.spanning_tree == clean.spanning_tree
    assert report.ledger.log_lines() == clean.ledger.log_lines()
    assert verify_ledger(g, report.ledger, report.spanning_tree).ok
    return report


def test_off_by_one_recount_at_the_end_of_a_dropped_run_is_caught(monkeypatch):
    report = _fault_at_the_end_of_the_second_run(
        monkeypatch, recount=lambda f, alpha: Fifteenths(alpha.num + 1)
    )
    assert len(report.defects) == 1
    assert report.defects[0] == "B7: recounted potential differs from the ledger"


def test_leaf_rehung_after_the_last_step_of_a_dropped_run_is_caught(monkeypatch):
    def rehang(f):
        # hang leaf v, whose parent keeps two other tree edges, under another
        # leaf: the parent stays inner and the other leaf stops being one
        deg = tree_degrees(f)
        leaves = sorted(v for v in f.vertices if deg[v] == 1)
        v = next(v for v in leaves if deg[f.parent[v]] >= 3)
        f.parent[v] = next(w for w in leaves if w != v)

    report = _fault_at_the_end_of_the_second_run(monkeypatch, step=rehang)
    assert len(report.defects) == 1
    assert report.defects[0] == "B7: recounted potential differs from the ledger"
