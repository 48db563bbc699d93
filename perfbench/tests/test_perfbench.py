"""Tests of the benchmark itself: its correctness gate, its spans and its contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import leafspan as lf  # noqa: E402
import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Input, make_inputs  # noqa: E402

# build() reaches split_z4, whose recursive build() runs on the outside part.
Z4_GRAPH = ("random_connected(15,2,14,seed=0)", lambda: lf.random_connected(15, 2, 14, 0))


def small_inputs() -> list[Input]:
    return [
        Input("h_graph(2)", lf.h_graph(2)),
        Input("square_of_cycle(8)", lf.square_of_cycle(8)),
        Input("random_connected(30,3,4,seed=1)", lf.random_connected(30, 3, 4, 1)),
    ]


def tree_with_swapped_edge(g, tree):
    """`tree` with one edge (u, v) replaced by (u, w), w not a neighbour of u."""
    for u, v in sorted(tree.edges):
        strangers = [w for w in range(g.n) if w != u and w not in g.adj[u]]
        if strangers:
            edges = (tree.edges - {(u, v)}) | {tuple(sorted((u, strangers[0])))}
            return dataclasses.replace(tree, edges=frozenset(edges))
    raise AssertionError("complete graph: no edge to swap in")


def test_gate_passes_honest_results():
    for x in small_inputs():
        workload = "sweep-small" if x.graph.n <= 16 else "ensemble-mid"
        report, exact = run.operate(lf, workload, x.graph)
        assert run.gate(lf, x.graph, report, exact) is None, x.name


def test_gate_rejects_swapped_tree_edge():
    g = lf.random_connected(30, 3, 4, 1)
    report = lf.build(g)
    forged = dataclasses.replace(
        report, spanning_tree=tree_with_swapped_edge(g, report.spanning_tree)
    )
    assert run.gate(lf, g, forged, None).startswith("not a spanning tree")


def test_gate_rejects_altered_profit():
    g = lf.h_graph(3)
    report = lf.build(g)
    steps = list(report.ledger.steps)
    steps[0] = dataclasses.replace(steps[0], profit15=steps[0].profit15 + 1)
    forged = dataclasses.replace(report, ledger=lf.Ledger(report.ledger.base, steps))
    assert run.gate(lf, g, forged, None).startswith("ledger audit")


def test_gate_rejects_forged_alpha_and_leaves():
    g = lf.random_connected(30, 3, 4, 1)
    report = lf.build(g)
    forged = dataclasses.replace(report, alpha=lf.Fifteenths(report.alpha.num + 1))
    assert run.gate(lf, g, forged, None).startswith("report says alpha")
    forged = dataclasses.replace(report, leaves=report.leaves + 1)
    assert run.gate(lf, g, forged, None).startswith(f"report says {report.leaves + 1} leaves")


def test_gate_rejects_more_leaves_than_the_optimum():
    g = lf.square_of_cycle(14)
    report, exact = run.operate(lf, "sweep-small", g)
    assert run.gate(lf, g, report, report.leaves - 1).endswith(
        f"exact optimum {report.leaves - 1}"
    )


def test_tampered_and_raising_operations_count_as_failed(monkeypatch):
    inputs = small_inputs()
    inputs.insert(1, Input("two components", lf.Graph(4, [(0, 1), (2, 3)])))
    honest = lf.build

    def tampering_build(g):
        report = honest(g)
        if g.n == 12:
            steps = list(report.ledger.steps)
            steps[-1] = dataclasses.replace(steps[-1], profit15=steps[-1].profit15 - 1)
            return dataclasses.replace(report, ledger=lf.Ledger(report.ledger.base, steps))
        return report

    monkeypatch.setattr(lf, "build", tampering_build)
    loop = run.closed_loop(lf, "ensemble-mid", inputs, 0)
    assert len(loop.latencies) == 4
    assert [f.split(":")[0] for f in loop.failures] == ["h_graph(2)", "two components"]
    assert loop.results[0] is None and loop.results[1] is None
    assert loop.results[2] is not None and loop.results[3] is not None


def test_a_check_that_raises_counts_as_failed(monkeypatch):
    inputs = small_inputs()
    honest = lf.build

    def malformed_build(g):
        report = honest(g)
        # no alpha at all: reading alpha.num in the gate raises AttributeError
        return dataclasses.replace(report, alpha=None) if g.n == 12 else report

    monkeypatch.setattr(lf, "build", malformed_build)
    loop = run.closed_loop(lf, "ensemble-mid", inputs, 0)
    assert len(loop.latencies) == 3
    (failure,) = loop.failures
    assert failure.startswith("h_graph(2): check raised AttributeError")
    assert loop.results[0] is None and loop.results[2] is not None


def test_spans_nest_through_recursive_build():
    name, make = Z4_GRAPH
    untraced = lf.builder.build
    tracer = Tracer()
    with tracer.installed(lf):
        loop = run.closed_loop(lf, "sweep-small", [Input(name, make())], 0, tracer=tracer)
    assert not loop.failures
    names = [tracer.name(i) for i in range(len(tracer))]
    recursive = [
        i for i, n in enumerate(names)
        if n == "builder.build" and names[tracer.parent[i]] == "builder.engine.split_z4"
    ]
    assert recursive, "the graph no longer reaches split_z4"

    own = tracer.self_times()
    assert min(own) >= -1e-9
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    (op,) = [i for i, n in enumerate(names) if n == "op"]

    def in_op(i):
        while i not in (op, -1):
            i = tracer.parent[i]
        return i == op

    assert sum(own[i] for i in range(len(tracer)) if in_op(i)) <= (
        tracer.end[op] - tracer.start[op] + 1e-9
    )
    # the audit runs outside the timed operation
    assert all(not in_op(i) for i, n in enumerate(names) if n == "ledger.verify")
    assert tracer.end[op] - tracer.start[op] >= loop.latencies[0]
    assert lf.builder.build is untraced and lf.build is untraced


def test_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = small_inputs()[:2]
    speed = HostSpeed()
    plain = run.closed_loop(lf, "ensemble-mid", inputs, 0, speed)
    tracer = Tracer()
    with tracer.installed(lf):
        traced = run.closed_loop(lf, "ensemble-mid", inputs, 0, speed, tracer)
    e2e = run.end_to_end(plain.latencies, [0.5])
    layers = run.per_layer(tracer, tracer.totals(), traced, plain, speed)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_inputs_and_digest_depend_only_on_the_seed():
    for workload in WORKLOADS:
        a, b, c = (make_inputs(lf, workload, seed)[:12] for seed in (3, 3, 4))
        assert [sorted(x.graph.edges()) for x in a] == [sorted(x.graph.edges()) for x in b]
        assert [x.name for x in a] != [x.name for x in c]
    inputs = make_inputs(lf, "sweep-small", 3)[:40]
    first, second = (run.closed_loop(lf, "sweep-small", inputs, 0) for _ in range(2))
    assert run.digest(first) == run.digest(second)


def test_scaled_time_follows_the_probes():
    speed = HostSpeed()
    speed.at, speed.took = [0.0, 10.0], [0.00135, 0.0027]
    assert speed.scaled([0.1, 10.1], [1.0, 1.0]) == pytest.approx([1.0, 0.5])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
