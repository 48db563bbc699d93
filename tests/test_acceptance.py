"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; the whole suite is also part of the default pytest run.
"""

from __future__ import annotations

import time
from itertools import combinations

from leafspan import (
    Fifteenths,
    GenerationError,
    Graph,
    build,
    classify_exclusion,
    cost15,
    enumerate_regular_graphs,
    exact_u,
    g8,
    h_graph,
    lift_tree_logged,
    random_connected,
    reduce_fully,
    square_of_cycle,
    table_violations,
    verify_ledger,
)
from leafspan.trees import SpanningTree, check_spanning_tree

from conftest import random_spanning_tree

PLUS_TWO = Fifteenths.whole(2)

collected_ledgers: list[tuple[Graph, object, object]] = []


def _audited_build(g: Graph):
    report = build(g)
    check_spanning_tree(g, report.spanning_tree)
    collected_ledgers.append((g, report.ledger, report.spanning_tree))
    return report


def test_criterion_1_named_graph_exactness():
    t0 = time.perf_counter()
    expected = [
        (square_of_cycle(6), 4, Fifteenths(24)),
        (square_of_cycle(8), 5, Fifteenths(27)),
        (g8(), 5, Fifteenths(27)),
    ]
    for g, want_u, want_alpha in expected:
        assert exact_u(g) == want_u
        report = _audited_build(g)
        assert report.leaves == want_u
        assert report.alpha == want_alpha
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"named-graph check took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: named-graph exactness ({elapsed*1000:.0f} ms)")


def test_criterion_2_tightness_family():
    t0 = time.perf_counter()
    assert exact_u(h_graph(2)) == 6  # only n=2 fits the exact-search budget
    for n in range(2, 6):
        g = h_graph(n)
        report = _audited_build(g)
        assert report.leaves >= 2 * n + 2
        # builder may never exceed the bound the family is tight for
        assert report.alpha == PLUS_TWO
        assert report.leaves == 2 * n + 2
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 2: tightness family H_2..H_5 ({elapsed:.2f} s)")


def test_criterion_3_bound_sweep():
    t0 = time.perf_counter()
    rows = 0
    fallbacks = 0
    for n in range(3, 13):
        regimes = [(1, n - 1), (2, n - 1)]
        if n >= 4:
            regimes += [(3, n - 1), (2, 3)]
        if n >= 5:
            regimes.append((3, 4))
        made = 0
        attempt = 0
        while made < 200 and attempt < 4000:
            dmin, dmax = regimes[attempt % len(regimes)]
            seed = 505_000 + 1_000 * n + attempt
            attempt += 1
            if not (1 <= dmin <= dmax < n):
                continue
            try:
                g = random_connected(n, dmin, dmax, seed)
            except GenerationError:
                continue
            made += 1
            rows += 1
            report = _audited_build(g)
            required = Fifteenths(24) if report.exclusion else PLUS_TWO
            assert report.alpha >= required, (n, dmin, dmax, seed)
            if n <= 10:
                assert report.leaves <= exact_u(g), (n, seed)
            if report.oracle_fallback:
                fallbacks += 1
        assert made == 200, f"could not generate 200 graphs at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    print(
        f"PASS criterion 3: bound sweep, {rows} graphs, zero violations, "
        f"{fallbacks} exact-search fallbacks ({elapsed:.1f} s)"
    )


def test_criterion_4_ledger_audit():
    # audits every build performed by criteria 1-3; when run in isolation,
    # regenerates a representative set first
    if not collected_ledgers:
        for g in (square_of_cycle(6), square_of_cycle(8), g8(), h_graph(2)):
            _audited_build(g)
        for seed in range(200):
            n = 3 + seed % 10
            try:
                g = random_connected(n, 1, n - 1, 777_000 + seed)
            except GenerationError:
                continue
            _audited_build(g)
    for g, ledger, tree in collected_ledgers:
        audit = verify_ledger(g, ledger, tree)
        assert audit.ok, audit
        assert table_violations(ledger) == []
    print(f"PASS criterion 4: ledger audit over {len(collected_ledgers)} builds")


def test_criterion_5_reduction_properties():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        n = 3 + (seed % 11)
        regime = [(1, n - 1), (2, n - 1), (3, n - 1) if n >= 4 else (1, n - 1)][
            seed % 3
        ]
        try:
            g = random_connected(n, regime[0], regime[1], 900_000 + seed)
        except (GenerationError, ValueError):
            continue
        checked += 1
        reduced, trace = reduce_fully(g)
        assert cost15(reduced) == cost15(g)
        tree = SpanningTree(reduced.n, frozenset(random_spanning_tree(reduced, seed)))
        lifted = lift_tree_logged(trace, tree)[0]
        check_spanning_tree(g, lifted)
        assert lifted.leaf_count() >= tree.leaf_count()
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 5: reduction properties on {checked} graphs "
        f"({elapsed:.1f} s)"
    )


def _subdivisions(g: Graph):
    for u, v in g.edges():
        edges = [e for e in g.edges() if e != (u, v)]
        edges += [(u, g.n), (v, g.n)]
        yield Graph(g.n + 1, edges)


def _vertex_splits(g: Graph, x: int):
    nbrs = sorted(g.adj[x])
    for part in combinations(nbrs, 2):
        keep = set(part)
        drop = set(nbrs) - keep
        edges = [e for e in g.edges() if x not in e]
        edges += [(x, w) for w in keep]
        edges += [(g.n, w) for w in drop]
        edges.append((x, g.n))
        yield Graph(g.n + 1, edges)


def test_criterion_6_pre_image_regression():
    cases = [
        (square_of_cycle(6), 5),
        (square_of_cycle(8), 6),
        (g8(), 6),
    ]
    counted = 0
    for fixture, threshold in cases:
        r1_seen = r2_seen = False
        for g in _subdivisions(fixture):
            reduced, trace = reduce_fully(g)
            assert len(trace) == 1 and trace[0].kind == "R1"
            assert classify_exclusion(reduced) is not None
            report = _audited_build(g)
            assert report.leaves >= threshold, (fixture.n, report.leaves)
            assert report.alpha >= PLUS_TWO
            r1_seen = True
            counted += 1
        for x in range(fixture.n):
            for g in _vertex_splits(fixture, x):
                if not g.is_connected():
                    continue
                reduced, trace = reduce_fully(g)
                if len(trace) != 1 or trace[0].kind != "R2":
                    continue
                if classify_exclusion(reduced) is None:
                    continue
                report = _audited_build(g)
                assert report.leaves >= threshold, (fixture.n, x, report.leaves)
                assert report.alpha >= PLUS_TWO
                r2_seen = True
                counted += 1
        assert r1_seen and r2_seen
    print(f"PASS criterion 6: pre-image regression over {counted} fixtures")


def test_criterion_7_exclusion_completeness():
    quartic6 = enumerate_regular_graphs(6, 4)
    quartic8 = enumerate_regular_graphs(8, 4)
    assert len(quartic6) == 1 and len(quartic8) == 6
    below = []
    for g in quartic6 + quartic8:
        u = exact_u(g)
        if Fifteenths(15 * u - cost15(g)) < PLUS_TWO:
            below.append(classify_exclusion(g))
    assert sorted(k.value for k in below if k) == ["C6sq", "C8sq", "G8"]
    assert len(below) == 3 and all(k is not None for k in below)
    print(
        "PASS criterion 7: exclusion completeness over the connected "
        "4-regular catalogs on 6 and 8 vertices"
    )
