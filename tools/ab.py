#!/usr/bin/env python3
"""Interleaved in-process A/B of two leafspan source trees on one workload.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload reduce-long --seed 7 --rounds 30

PARENT_SRC and CHANGE_SRC are `src/` directories, say of a `git archive`
of the parent commit and of the working tree.  Both are imported into one
process, as the packages `leafspan_parent` and `leafspan_change`, and each
makes its own copy of the workload's pool with `perfbench/workloads.py`, as
the benchmark does in its checkout.  An operation is the benchmark's own
(`perfbench/run.py:operate`): `build(g)`, and on sweep-small also
`exact_u(g, backend="python")`.  Neither benchmark file is changed.

First every input runs once on each side, and the change's results must
equal the parent's field by field (sets compared as sets); the first input
that differs is named, with the path to the first field where it differs
(say `[0].ledger.base.added_vertices`), and the tool exits 1.  That pass also warms both
sides.  Then each round times one pass over the pool per side in CPU time
(`time.process_time`), the side that goes first alternating from round to
round, and the tool prints each round's ratio change/parent, their median
and quartiles and how many rounds the change was faster.  A ratio below 1
means the change is faster.

Both sides share one process, so a busy host slows both alike within a
round; that resolves a few per cent where separate benchmark runs spread
by more.  The standard library alone is used.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import importlib.util
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_leafspan(src: Path, side: str):
    """The leafspan package under `src`, imported as `leafspan_<side>`."""
    init = src / "leafspan" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        f"leafspan_{side}", init, submodule_search_locations=[str(init.parent)]
    )
    if not init.is_file() or spec is None or spec.loader is None:
        raise SystemExit(f"error: no leafspan package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_PLAIN = {int, str, bool, float, type(None)}


def canonical(x):
    """`x` as nested tuples of plain values, comparable across the two packages."""
    kind = type(x)
    if kind in _PLAIN:
        return x
    if kind in (set, frozenset, list, tuple) or isinstance(x, tuple):  # NamedTuple too
        items = [v if type(v) in _PLAIN else canonical(v) for v in x]
        if kind in (set, frozenset):
            return ("set", *sorted(items))
        return (kind.__name__, *items)
    if isinstance(x, enum.Enum):
        return (kind.__name__, x.name)
    if not dataclasses.is_dataclass(x):
        raise TypeError(f"cannot compare a {kind.__name__}")
    fields = dataclasses.fields(x)
    return (kind.__name__, *((f.name, canonical(getattr(x, f.name))) for f in fields))


def first_difference(x, y, path: str = "") -> str | None:
    """The path from `x` to the first place where `canonical(x)` and
    `canonical(y)` differ, None when they are equal: `.name` steps into a
    dataclass field, `[i]` into an item of a list or tuple.  A field that
    one side lacks, a set, a plain value or a sequence of plain values ends
    the path."""
    if canonical(x) == canonical(y):
        return None
    if dataclasses.is_dataclass(x) and dataclasses.is_dataclass(y):
        ours, theirs = ([f.name for f in dataclasses.fields(v)] for v in (x, y))
        for name in dict.fromkeys(ours + theirs):
            at = f"{path}.{name}"
            if name not in ours or name not in theirs:
                return at
            if found := first_difference(getattr(x, name), getattr(y, name), at):
                return found
    elif (
        isinstance(x, (list, tuple)) and isinstance(y, (list, tuple))
        and any(type(v) not in _PLAIN for v in x)
    ):
        for i, (u, v) in enumerate(zip(x, y)):
            if found := first_difference(u, v, f"{path}[{i}]"):
                return found
    return path


def timed_pass(operate, lf, workload: str, graphs) -> float:
    gc.collect()
    t0 = process_time()
    for g in graphs:
        operate(lf, workload, g)
    return process_time() - t0


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no cache files in either tree
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's src/ directory")
    ap.add_argument("change", type=Path, help="the change's src/ directory")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    packages = {side: load_leafspan(getattr(args, side), side) for side in SIDES}
    inputs = {
        side: workloads.make_inputs(lf, args.workload, args.seed)
        for side, lf in packages.items()
    }
    pools = {side: [x.graph for x in pool] for side, pool in inputs.items()}
    names = [x.name for x in inputs["parent"]]
    for k, name in enumerate(names):
        results = (
            perfbench.operate(packages[side], args.workload, pools[side][k])
            for side in SIDES
        )
        if (at := first_difference(*results)) is not None:
            print(f"{args.workload} seed {args.seed}: input {k} ({name}) differs at {at}")
            return 1
    print(f"{args.workload} seed {args.seed}: {len(names)} inputs, results identical")

    ratios = []
    print("round  parent_s  change_s  ratio")
    for r in range(args.rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        took = {
            side: timed_pass(perfbench.operate, packages[side], args.workload, pools[side])
            for side in order
        }
        ratios.append(took["change"] / took["parent"])
        print(f"{r:5d}  {took['parent']:8.3f}  {took['change']:8.3f}  {ratios[-1]:.3f}")
    q1, q3 = (
        statistics.quantiles(ratios, n=4, method="inclusive")[::2]
        if len(ratios) > 1 else ratios * 2
    )
    faster = sum(ratio < 1 for ratio in ratios)
    print(
        f"ratio change/parent: median {statistics.median(ratios):.3f}, "
        f"quartiles {q1:.3f}-{q3:.3f}, change faster in {faster} of {len(ratios)} rounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
