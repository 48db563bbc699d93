"""Command-line front end: build, oracle, sweep, gen.

Native input is a plain edge list (`n <count>` header, one `u v` pair per
line, `#` comments); graph6 lines are accepted read-only.  Exit code 0
means every reported bound check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import families
from .builder import build
from .graph import Fifteenths, Graph, degree_counts
from .oracle import ORACLE_MAX_N, exact_u, max_leaf_tree
from .trees import SpanningTree, edge_key


class InputError(ValueError):
    pass


# the most vertices `gen` and `sweep` make one graph with: the families
# allocate per vertex before they look at n
MAX_VERTICES = 10**6


def _check_size(family: str, n: int) -> None:
    """Refuse an n whose graph in `family` has more than MAX_VERTICES vertices."""
    count = 6 * n if family == "h" else n
    if count > MAX_VERTICES:
        raise InputError(
            f"--family {family} at n={n} has {count} vertices; the limit is "
            f"{MAX_VERTICES}"
        )


# ---------------------------------------------------------------------------
# graph I/O


def render_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = None
    edges: set[tuple[int, int]] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise InputError("first line must be 'n <count>'")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise InputError(f"bad edge line: {raw!r}")
        edges.add(edge_key(int(parts[0]), int(parts[1])))
    if n is None:
        raise InputError("empty input")
    # checked before Graph allocates n neighbour sets for a huge header;
    # Graph rejects out-of-range edges and self-loops
    if n > len(edges) + 1:
        raise InputError(f"n = {n} needs at least {n - 1} edges, got {len(edges)}")
    return Graph(n, edges)


def parse_graph6(line: str) -> Graph:
    """One graph6 line (n <= 62 form)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    data = [ord(c) - 63 for c in s]
    if not data or any(b < 0 or b > 63 for b in data):
        raise InputError("not a graph6 line")
    n = data[0]
    if n > 62:
        raise InputError("graph6 inputs beyond 62 vertices are not supported")
    bits = []
    for b in data[1:]:
        bits += [(b >> k) & 1 for k in range(5, -1, -1)]
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise InputError("truncated graph6 line")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def read_graph(source: str) -> Graph:
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n ") or line == "n":
            return parse_edge_list(text)
        return parse_graph6(line)
    raise InputError("empty input")


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    try:
        g = read_graph(args.input)
        report = build(g)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parts = [
        f"leaves={report.leaves}",
        f"cost={report.cost}",
        f"alpha={report.alpha}",
        f"base={report.base_case}",
    ]
    if report.exclusion is not None:
        parts.append(f"exclusion={report.exclusion.value}")
    if args.json:
        payload = {
            "n": g.n,
            "e": g.edge_count,
            "leaves": report.leaves,
            "cost15": report.cost.num,
            "alpha15": report.alpha.num,
            "base": report.base_case,
            "exclusion": report.exclusion.value if report.exclusion else None,
            "bound_ok": report.bound_ok,
            "tree_parents": report.spanning_tree.parents(),
            "reductions": len(report.reduction_trace),
            "oracle_fallback": report.oracle_fallback,
            "defects": list(report.defects),
            "engine_runs": report.engine_runs,
            "steps": report.ledger.log_lines(),
        }
        print(json.dumps(payload))
    else:
        print(" ".join(parts))
        if args.log_steps:
            for line in report.ledger.log_lines():
                print(line)
    return 0 if report.bound_ok else 1


def cmd_oracle(args) -> int:
    try:
        g = read_graph(args.input)
        parents = max_leaf_tree(g)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the witness is a maximum-leaf tree, so its leaf count is exact_u(g)
    print(f"u={SpanningTree.from_parents(parents).leaf_count()}")
    print("parents=" + " ".join(str(p) for p in parents))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    bad = InputError(f"bad size range {text!r}: expected N or LO..HI with LO <= HI")
    lo, sep, hi = text.partition("..")
    try:
        lo_n, hi_n = int(lo), int(hi if sep else lo)
    except ValueError:
        raise bad from None
    if lo_n > hi_n:
        raise bad
    return lo_n, hi_n


def _degree_window(n: int, dmin: int | None, dmax: int | None) -> tuple[int, int]:
    """--dmin and --dmax at n vertices: dmin defaults to 1; dmax is an upper
    bound, so it defaults to n - 1 and is clamped to it."""
    lo = dmin if dmin is not None else 1
    hi = n - 1 if dmax is None else min(dmax, n - 1)
    return lo, hi


def _sweep_regimes(n: int, dmin: int | None, dmax: int | None):
    """The feasible (dmin, dmax) regimes a sweep draws from at n vertices."""
    if dmin is not None or dmax is not None:
        regimes = [_degree_window(n, dmin, dmax)]
    else:
        regimes = [(1, n - 1), (2, n - 1)]
        if n >= 4:
            regimes += [(3, n - 1), (2, 3)]
        if n >= 5:
            regimes += [(3, 4)]
    return [r for r in regimes if 1 <= r[0] <= r[1] < n]


def _sweep_row(g: Graph, oracle_max: int) -> dict:
    report = build(g)
    s, t = degree_counts(g)
    row = {
        "n": g.n,
        "e": g.edge_count,
        "s": s,
        "t": t,
        "cost15": report.cost.num,
        "leaves": report.leaves,
        "oracle": None,
        "alpha15": report.alpha.num,
        "bound_ok": report.bound_ok,
        "exclusion": report.exclusion.value if report.exclusion else None,
        "oracle_fallback": report.oracle_fallback,
    }
    if g.n <= oracle_max:
        row["oracle"] = exact_u(g)
        row["builder_le_oracle"] = report.leaves <= row["oracle"]
    return row


def _format_row(row: dict) -> str:
    oracle = "-" if row["oracle"] is None else str(row["oracle"])
    flag = "ok" if row["bound_ok"] else "VIOLATION"
    excl = row["exclusion"] or "-"
    return (
        f"{row['n']:>3} {row['e']:>4} {row['s']:>3} {row['t']:>3} "
        f"{Fifteenths(row['cost15'])!s:>8} {row['leaves']:>6} {oracle:>6} "
        f"{Fifteenths(row['alpha15'])!s:>8} {flag:>9} {excl}"
    )


# the --sizes range a sweep of each family uses when none is given
_SWEEP_SIZES = {"random": "3..10", "h": "2..5", "c2": "6..8"}


def cmd_sweep(args) -> int:
    rows: list[dict] = []
    failures: list[str] = []
    random_only = {
        "--per-size": args.per_size,
        "--seed": args.seed,
        "--dmin": args.dmin,
        "--dmax": args.dmax,
    }
    per_size = 20 if args.per_size is None else args.per_size
    seed = 0 if args.seed is None else args.seed
    try:
        if args.family != "random":
            given = [opt for opt, value in random_only.items() if value is not None]
            if given:
                raise InputError(f"{', '.join(given)} apply to --family random only")
        if args.oracle_max > ORACLE_MAX_N:
            raise InputError(f"--oracle-max above the exact-search limit {ORACLE_MAX_N}")
        if args.oracle_max < 0 or per_size < 0:
            raise InputError("--per-size and --oracle-max must not be negative")
        if any(d is not None and d < 1 for d in (args.dmin, args.dmax)):
            raise InputError("--dmin and --dmax must be at least 1")
        size_text = _SWEEP_SIZES[args.family] if args.sizes is None else args.sizes
        lo, hi = _parse_range(size_text)
        _check_size(args.family, hi)
        sizes = range(lo, hi + 1)
        if args.family in ("h", "c2"):
            make = families.h_graph if args.family == "h" else families.square_of_cycle
            named = [make(n) for n in sizes]
        elif not any(_sweep_regimes(n, args.dmin, args.dmax) for n in sizes):
            raise InputError(f"no feasible degree regime at any size in {size_text}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.family in ("h", "c2"):
        rows = [_sweep_row(g, args.oracle_max) for g in named]
    else:
        for n in sizes:
            regimes = _sweep_regimes(n, args.dmin, args.dmax)
            if not regimes:
                if per_size > 0:
                    failures.append(f"n={n}: no feasible degree regime")
                continue
            made = 0
            attempt = 0
            while made < per_size and attempt < 20 * max(per_size, 1):
                dmin, dmax = regimes[attempt % len(regimes)]
                row_seed = seed * 1_000_003 + n * 10_007 + attempt
                attempt += 1
                try:
                    g = families.random_connected(n, dmin, dmax, row_seed)
                except families.GenerationError as exc:
                    failures.append(f"n={n} ({dmin},{dmax}): {exc}")
                    continue
                rows.append(_sweep_row(g, args.oracle_max))
                made += 1

    ok = all(r["bound_ok"] and r.get("builder_le_oracle", True) for r in rows)
    if args.json:
        print(json.dumps({"rows": rows, "generation_failures": failures, "ok": ok}))
        return 0 if ok else 1
    print(
        "  n    e   s   t     cost leaves oracle    alpha     bound exclusion"
    )
    for row in rows:
        print(_format_row(row))
    violations = sum(1 for r in rows if not r["bound_ok"])
    oracle_bad = sum(1 for r in rows if not r.get("builder_le_oracle", True))
    fallbacks = sum(1 for r in rows if r["oracle_fallback"])
    min_alpha = min((r["alpha15"] for r in rows), default=None)
    print(
        f"rows={len(rows)} bound_violations={violations} "
        f"oracle_violations={oracle_bad} oracle_fallbacks={fallbacks} "
        f"min_alpha={Fifteenths(min_alpha) if min_alpha is not None else '-'} "
        f"generation_failures={len(failures)}"
    )
    for msg in failures:
        print(f"generation failure: {msg}")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    if args.n is None and args.family != "g8":
        print(f"error: --family {args.family} needs --n", file=sys.stderr)
        return 2
    try:
        if args.family == "g8":
            g = families.g8()
        else:
            n = int(args.n)
            _check_size(args.family, n)
            if args.family == "c2":
                g = families.square_of_cycle(n)
            elif args.family == "h":
                g = families.h_graph(n)
            else:
                dmin, dmax = _degree_window(n, args.dmin, args.dmax)
                g = families.random_connected(n, dmin, dmax, args.seed)
    except (ValueError, families.GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_edge_list(g))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafspan",
        description="Spanning trees with provably many leaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a tree and check the leaf bound")
    p_build.add_argument("input", help="edge-list/graph6 file, or - for stdin")
    p_build.add_argument("--log-steps", action="store_true")
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_oracle = sub.add_parser("oracle", help=f"exact optimum (n <= {ORACLE_MAX_N})")
    p_oracle.add_argument("input")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="bound check over generated graphs")
    p_sweep.add_argument("--sizes", help="LO..HI (default 3..10; h 2..5, c2 6..8)")
    # the four options below shape random graphs only; h and c2 refuse them
    p_sweep.add_argument("--per-size", type=int, help="graphs per size (default 20)")
    p_sweep.add_argument("--dmin", type=int)
    p_sweep.add_argument("--dmax", type=int)
    p_sweep.add_argument("--seed", type=int, help="default 0")
    p_sweep.add_argument("--oracle-max", type=int, default=ORACLE_MAX_N)
    p_sweep.add_argument("--family", choices=["random", "h", "c2"], default="random")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="emit a named graph as an edge list")
    p_gen.add_argument("--family", choices=["c2", "g8", "h", "random"], required=True)
    p_gen.add_argument("--n")
    p_gen.add_argument("--dmin", type=int)
    p_gen.add_argument("--dmax", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): send the rest, and the flush at
        # exit, to devnull instead of a traceback, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
