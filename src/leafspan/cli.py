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

from . import families
from .builder import build
from .graph import Fifteenths, Graph, degree_counts
from .oracle import ORACLE_MAX_N, exact_u, max_leaf_tree
from .trees import edge_key


class InputError(ValueError):
    pass


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
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u},{v}) out of range")
        if u == v:
            raise InputError(f"self-loop at {u}")
        edges.add(edge_key(u, v))
    if n is None:
        raise InputError("empty input")
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
    text = sys.stdin.read() if source == "-" else open(source).read()
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


def _default_seed() -> int:
    return int(os.environ.get("LEAFSPAN_SEED", "0"))


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
            "tree_parents": report.tree,
            "reductions": len(report.reduction_trace),
            "oracle_fallback": report.oracle_fallback,
            "defects": list(report.defects),
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
        u = exact_u(g)
        parents = max_leaf_tree(g)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"u={u}")
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


def _sweep_regimes(n: int, dmin: int | None, dmax: int | None):
    if dmin is not None or dmax is not None:
        lo = dmin if dmin is not None else 1
        hi = dmax if dmax is not None else n - 1
        return [(lo, hi)]
    regimes = [(1, n - 1), (2, n - 1)]
    if n >= 4:
        regimes += [(3, n - 1), (2, 3)]
    if n >= 5:
        regimes += [(3, 4)]
    return regimes


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


def cmd_sweep(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    rows: list[dict] = []
    failures: list[str] = []
    try:
        if args.oracle_max > ORACLE_MAX_N:
            raise InputError(f"--oracle-max above the exact-search limit {ORACLE_MAX_N}")
        if args.family in ("h", "c2"):
            lo, hi = _parse_range(args.n or ("2..5" if args.family == "h" else "6..8"))
            make = families.h_graph if args.family == "h" else families.square_of_cycle
            named = [make(n) for n in range(lo, hi + 1)]
        else:
            lo, hi = _parse_range(args.sizes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.family in ("h", "c2"):
        rows = [_sweep_row(g, args.oracle_max) for g in named]
    else:
        for n in range(lo, hi + 1):
            regimes = [
                r for r in _sweep_regimes(n, args.dmin, args.dmax)
                if 1 <= r[0] <= r[1] < n
            ]
            if not regimes:
                if args.per_size > 0:
                    failures.append(f"n={n}: no feasible degree regime")
                continue
            made = 0
            attempt = 0
            while made < args.per_size and attempt < 20 * max(args.per_size, 1):
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
        if args.family == "c2":
            g = families.square_of_cycle(int(args.n))
        elif args.family == "g8":
            g = families.g8()
        elif args.family == "h":
            g = families.h_graph(int(args.n))
        elif args.family == "random":
            seed = args.seed if args.seed is not None else _default_seed()
            g = families.random_connected(
                int(args.n), args.dmin or 1, args.dmax or int(args.n) - 1, seed
            )
        else:  # pragma: no cover - argparse restricts choices
            raise InputError(f"unknown family {args.family}")
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
    p_sweep.add_argument("--sizes", default="3..10")
    p_sweep.add_argument("--per-size", type=int, default=20)
    p_sweep.add_argument("--dmin", type=int)
    p_sweep.add_argument("--dmax", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--oracle-max", type=int, default=10)
    p_sweep.add_argument("--family", choices=["random", "h", "c2"], default="random")
    p_sweep.add_argument("--n", help="size range for --family h/c2, e.g. 2..5")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="emit a named graph as an edge list")
    p_gen.add_argument("--family", choices=["c2", "g8", "h", "random"], required=True)
    p_gen.add_argument("--n")
    p_gen.add_argument("--dmin", type=int)
    p_gen.add_argument("--dmax", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
