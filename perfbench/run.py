#!/usr/bin/env python3
"""Closed-loop benchmark of the leafspan build pipeline.

    python3 perfbench/run.py --workload ensemble-mid --seed 1 --seconds 10 --trace 0

One client, one thread: the next operation starts only when the previous
one has returned.  An operation is `build(g)`, and on sweep-small also
`exact_u(g, backend="python")`.  Every result is checked outside the
timed interval (spanning tree, leaves and alpha recomputed from it, bound,
ledger audit, catalog rows, and on sweep-small leaves <= exact_u); a failed
check or an exception, in the operation or in a check, counts as a failed
operation and the run carries on.

--trace 0 makes whole passes over the workload's input pool until --seconds
of operation time have passed, and reports the end-to-end metrics, with
times scaled to a reference host speed (see hostspeed.py; raw times are
printed beside them).  --trace 1 makes one
untraced and one traced pass over the pool, so its counts repeat exactly
for a seed, and reports per-layer totals of the traced pass.  The last line
of stdout is the result as JSON; a record with the environment, input seeds
and result digest is written to .perfbench/ at the repository root, and the
spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from spans import STAR_RETRY, Tracer
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def fresh_import():
    """Import leafspan anew, so each set-up pays the package's import.

    Cached leafspan modules are dropped first; numpy stays cached after the
    first set-up, as it would in any process that had already imported it.
    """
    for name in [m for m in sys.modules if m == "leafspan" or m.startswith("leafspan.")]:
        del sys.modules[name]
    return importlib.import_module("leafspan")


def operate(lf, workload: str, g):
    """One timed operation: the build, plus the exact oracle on sweep-small."""
    report = lf.build(g)
    exact = lf.exact_u(g, backend="python") if workload == "sweep-small" else None
    return report, exact


def gate(lf, g, report, exact: int | None) -> str | None:
    """Why an operation's result is wrong, or None when every check passes.

    Leaves and alpha are recomputed from the tree, not taken from the report.
    A check may raise on a malformed report; the caller counts that as a failure.
    """
    tree = report.spanning_tree
    try:
        lf.check_spanning_tree(g, tree)
    except ValueError as exc:
        return f"not a spanning tree: {exc}"
    leaves = tree.leaf_count()
    if report.leaves != leaves:
        return f"report says {report.leaves} leaves, the tree has {leaves}"
    alpha15 = 15 * leaves - lf.cost15(g)
    if report.alpha.num != alpha15:
        return f"report says alpha {report.alpha}, the tree gives {lf.Fifteenths(alpha15)}"
    if not report.bound_ok:
        return f"alpha {report.alpha} below {report.required_alpha}"
    audit = lf.verify_ledger(g, report.ledger, tree)
    if not audit.ok:
        return f"ledger audit: {audit.reason}"
    rows = lf.table_violations(report.ledger)
    if rows:
        return f"catalog row: {rows[0][1]}"
    if exact is not None and report.leaves > exact:
        return f"{report.leaves} leaves exceed the exact optimum {exact}"
    return None


@dataclass
class Loop:
    """Latencies, failures and per-input results of one closed loop."""

    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    # pool index -> (leaves, alpha15, required15) of its first run, None if it failed
    results: dict[int, tuple[int, int, int] | None] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def closed_loop(
    lf,
    workload: str,
    inputs,
    seconds: float,
    speed: HostSpeed | None = None,
    tracer: Tracer | None = None,
) -> Loop:
    """Make whole passes over `inputs` until `seconds` of operation time
    have passed, so every run holds each input equally often; probe `speed`
    between operations."""
    loop = Loop()
    busy = 0.0
    while True:
        for k, x in enumerate(inputs):
            if speed is not None:
                speed.probe_if_due()
            span = tracer.open("op") if tracer is not None else -1
            t0 = perf_counter()
            try:
                report, exact = operate(lf, workload, x.graph)
            except Exception as exc:  # counted as a failed operation; the run carries on
                report, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            busy += dt
            loop.starts.append(t0)
            loop.latencies.append(dt)
            if report is not None:
                try:
                    error = gate(lf, x.graph, report, exact)
                    got = (report.leaves, report.alpha.num, report.required_alpha.num)
                except Exception as exc:  # a malformed report fails its operation too
                    error = f"check raised {type(exc).__name__}: {exc}"
                if error is None:
                    first = loop.results.setdefault(k, got)
                    if first != got:
                        error = f"repeat gave {got[:2]}, first run {first[:2] if first else 'failed'}"
            if error is not None:
                loop.failures.append(f"{x.name}: {error}")
                loop.results.setdefault(k, None)
        if busy >= seconds:
            break
    if speed is not None:
        speed.probe()
    return loop


def digest(loop: Loop) -> str:
    """sha256 over the sorted (leaves, alpha15) pairs of every input."""
    pairs = sorted(
        (r[0], r[1]) if r is not None else (-1, -1) for r in loop.results.values()
    )
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def set_up(workload: str, seed: int, speed: HostSpeed):
    """Import, make the inputs and run one warm-up operation, SETUP_REPEATS times.

    Returns the package, the inputs, and the start and duration of each set-up.
    """
    starts, times = [], []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = perf_counter()
        lf = fresh_import()
        inputs = make_inputs(lf, workload, seed)
        operate(lf, workload, inputs[0].graph)
        starts.append(t0)
        times.append(perf_counter() - t0)
    speed.probe()
    return lf, inputs, starts, times


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def end_to_end(lat: list[float], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (1000 * percentile(lat, 50), "ms"),
        "op_ms_p90": (1000 * percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(
    tracer: Tracer, totals, traced: Loop, plain: Loop, speed: HostSpeed
) -> dict[str, tuple[float, str]]:
    """Totals of the traced pass; the overhead compares host-scaled pass times."""
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    runs = counts["builder.bases.offered"] + calls(STAR_RETRY)
    results = [r for r in traced.results.values() if r is not None]
    out = {
        "reduction.reduce_fully.self_s": (self_s("reduction.reduce_fully"), "s"),
        "reduction.events": (counts["reduction.events"], "count"),
        "reduction.lift.self_s": (self_s("reduction.lift"), "s"),
        "builder.bases.self_s": (self_s("builder.bases"), "s"),
        "builder.bases.offered": (counts["builder.bases.offered"], "count"),
        "builder.engine.runs": (runs, "count"),
        "builder.engine.useful_ratio": (
            counts["builder.engine.settled"] / runs if runs else 0.0, "ratio"
        ),
    }
    for step in ("next_step", "apply_step", "split_z4"):
        name = f"builder.engine.{step}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out |= {
        "builder.driver.star_retry_runs": (calls(STAR_RETRY), "count"),
        "builder.driver.oracle_fallbacks": (counts["builder.driver.oracle_fallbacks"], "count"),
        "builder.driver.defects": (counts["builder.driver.defects"], "count"),
        "builder.build.self_s": (self_s("builder.build"), "s"),
        "ledger.alpha_prime.calls": (calls("ledger.alpha_prime"), "count"),
        "ledger.alpha_prime.self_s": (self_s("ledger.alpha_prime"), "s"),
        "ledger.verify.self_s": (self_s("ledger.verify"), "s"),
    }
    for fn in ("exact_u", "max_leaf_tree", "classify_exclusion"):
        out[f"oracle.{fn}.calls"] = (calls(f"oracle.{fn}"), "count")
        out[f"oracle.{fn}.self_s"] = (self_s(f"oracle.{fn}"), "s")
    out |= {
        "builder.quality.leaves_total": (sum(r[0] for r in results), "count"),
        "builder.quality.alpha15_excess_mean": (
            statistics.fmean(r[1] - r[2] for r in results) if results else 0.0, "1/15"
        ),
        "trace.op_s": (traced.busy_s, "s"),
        "trace.overhead_ratio": (
            sum(speed.scaled(traced.starts, traced.latencies))
            / sum(speed.scaled(plain.starts, plain.latencies)),
            "ratio",
        ),
    }
    return out


LAYER_SHARES = {
    "engine": ("builder.engine.next_step", "builder.engine.apply_step",
               "builder.engine.split_z4", "ledger.alpha_prime"),
    "reduce+lift": ("reduction.reduce_fully", "reduction.lift"),
    "oracle": ("oracle.exact_u", "oracle.max_leaf_tree", "oracle.classify_exclusion"),
}


def shares(totals, traced: Loop) -> dict[str, float]:
    """Share of traced operation time spent in each group of layers."""
    return {
        group: sum(totals.get(n, (0, 0.0))[1] for n in names) / traced.busy_s
        for group, names in LAYER_SHARES.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "leafspan" / "__init__.py").is_file():
        print(f"perfbench: no leafspan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    speed = HostSpeed()
    lf, inputs, setup_starts, setup_times = set_up(args.workload, args.seed, speed)
    raw = {}
    if args.trace:
        plain = closed_loop(lf, args.workload, inputs, 0, speed)
        tracer = Tracer()
        with tracer.installed(lf):
            loop = closed_loop(lf, args.workload, inputs, 0, speed, tracer)
        totals = tracer.totals()
        metrics = per_layer(tracer, totals, loop, plain, speed)
        failures = plain.failures + loop.failures
        attempted = len(plain.latencies) + len(loop.latencies)
    else:
        loop = closed_loop(lf, args.workload, inputs, args.seconds, speed)
        raw = end_to_end(loop.latencies, setup_times)
        metrics = end_to_end(
            speed.scaled(loop.starts, loop.latencies),
            speed.scaled(setup_starts, setup_times),
        )
        failures = loop.failures
        attempted = len(loop.latencies)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "input_seeds": [x.seed for x in inputs],
        "inputs": len(inputs),
        "digest": digest(loop),
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "host_speed": speed.mean_factor(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(inputs)} git={env['git_sha'][:12]} python={env['python']} "
          f"nproc={env['nproc']} numba={env['numba_importable']}")
    if args.trace:
        tracer.write(OUT / f"{tag}-spans.csv.gz")
        for group, share in shares(totals, loop).items():
            print(f"  share {group:<12} {share:.3f} of traced operation time")
        print(f"  spans {len(tracer)} -> .perfbench/{tag}-spans.csv.gz")
    else:
        print(f"  samples {attempted} operations, {loop.busy_s:.3f} s of operation time, "
              f"host at {record['host_speed']:.3f} of reference speed")
    samples = {"ops_per_s": attempted, "op_ms_p50": attempted, "op_ms_p90": attempted,
               "setup_s": SETUP_REPEATS}
    for name, (value, unit) in metrics.items():
        note = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        note += f"  n={samples[name]}" if name in samples and raw else ""
        print(f"  {name:<38} {value:>14.6g} {unit:<6}{note}".rstrip())
    print(f"  {'fail_ratio':<38} {len(failures) / attempted:>14.6g} ({len(failures)}/{attempted})")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    print(f"  digest {record['digest']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
