"""Command-line front end: build, oracle, sweep, gen.

Native input is a plain edge list (`n <count>` header, one `u v` pair per
line, `#` comments); graph6 lines are accepted read-only.

Exit codes: 0 every check passed, 1 a bound or oracle check failed, 2 bad
input or an I/O error (one `error:` line on stderr), 141 the reader closed
the pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

from . import families
from .builder import build
from .graph import Fifteenths, Graph, degree_counts
from .oracle import ORACLE_MAX_N, exact_u, max_leaf_tree
from .trees import SpanningTree, edge_key


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: one line, exit 2
        raise InputError(message)


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


# the families `gen` and `sweep` make from n alone
_NAMED = {"c2": families.square_of_cycle, "h": families.h_graph}


def _refuse_unread(args) -> None:
    """Refuse an option the chosen family does not read: --dmin, --dmax,
    --seed and --per-size shape random graphs only, and g8 takes no --n."""
    unread = [] if args.family == "random" else ["dmin", "dmax", "seed", "per_size"]
    if args.family == "g8":
        unread.append("n")
    given = [name for name in unread if getattr(args, name, None) is not None]
    if given:
        opts = ", ".join("--" + name.replace("_", "-") for name in given)
        raise InputError(f"--family {args.family} does not read {opts}")


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
    bits = [(b >> k) & 1 for b in data[1:] for k in range(5, -1, -1)]
    # the upper triangle, column by column
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise InputError("truncated graph6 line")
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


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


def _report_row(g: Graph, report) -> dict:
    """The facts about one build that `build --json` and each sweep row show."""
    s, t = degree_counts(g)
    return {
        "n": g.n,
        "e": g.edge_count,
        "s": s,
        "t": t,
        "leaves": report.leaves,
        "cost15": report.cost.num,
        "alpha15": report.alpha.num,
        "base": report.base_case,
        "exclusion": report.exclusion.value if report.exclusion else None,
        "bound_ok": report.bound_ok,
        "reductions": len(report.reduction_trace),
        "oracle_fallback": report.oracle_fallback,
        "defects": list(report.defects),
        "engine_runs": report.engine_runs,
    }


def cmd_build(args) -> int:
    if args.json and args.log_steps:
        raise InputError("--json does not read --log-steps: its steps are always in it")
    g = read_graph(args.input)
    report = build(g)
    if args.json:
        row = _report_row(g, report)
        row["tree_parents"] = report.spanning_tree.parents()
        row["steps"] = report.ledger.log_lines()
        print(json.dumps(row))
    else:
        excl = f" exclusion={report.exclusion.value}" if report.exclusion else ""
        print(
            f"leaves={report.leaves} cost={report.cost} alpha={report.alpha} "
            f"base={report.base_case}{excl}"
        )
        if args.log_steps:
            for line in report.ledger.log_lines():
                print(line)
    return 0 if report.bound_ok else 1


def cmd_oracle(args) -> int:
    g = read_graph(args.input)
    parents = max_leaf_tree(g)
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
        regimes = [(1, n - 1), (2, n - 1), (3, n - 1), (2, 3), (3, 4)]
    return [r for r in regimes if 1 <= r[0] <= r[1] < n]


def _random_graphs(args, sizes: range, per_size: int, failures: list[str]):
    """A random sweep's graphs, drawn one at a time; each distinct message of
    the failed draws goes to `failures` once."""
    seed = 0 if args.seed is None else args.seed
    for n in sizes:
        regimes = _sweep_regimes(n, args.dmin, args.dmax)
        if not regimes:
            if per_size > 0:
                failures.append(f"n={n}: no feasible degree regime")
            continue
        made = attempt = 0
        while made < per_size and attempt < 20 * max(per_size, 1):
            dmin, dmax = regimes[attempt % len(regimes)]
            row_seed = seed * 1_000_003 + n * 10_007 + attempt
            attempt += 1
            try:
                g = families.random_connected(n, dmin, dmax, row_seed)
            except families.GenerationError as exc:
                # a regime refused outright fails the same way on every attempt
                msg = f"n={n} ({dmin},{dmax}): {exc}"
                if msg not in failures:
                    failures.append(msg)
                continue
            yield g
            made += 1


def _sweep_row(g: Graph) -> dict:
    """The report row of `g`, with the exact optimum wherever the oracle reaches."""
    row = _report_row(g, build(g))
    row["oracle"] = exact_u(g) if g.n <= ORACLE_MAX_N else None
    if row["oracle"] is not None:
        row["builder_le_oracle"] = row["leaves"] <= row["oracle"]
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

_SWEEP_HEADER = "  n    e   s   t     cost leaves oracle    alpha     bound exclusion"


def cmd_sweep(args) -> int:
    per_size = 20 if args.per_size is None else args.per_size
    failures: list[str] = []
    _refuse_unread(args)
    if per_size < 0:
        raise InputError("--per-size must not be negative")
    if any(d is not None and d < 1 for d in (args.dmin, args.dmax)):
        raise InputError("--dmin and --dmax must be at least 1")
    size_text = _SWEEP_SIZES[args.family] if args.sizes is None else args.sizes
    lo, hi = _parse_range(size_text)
    _check_size(args.family, hi)
    sizes = range(lo, hi + 1)
    if args.family in _NAMED:
        # a family refuses only too small an n: the least is made here
        make = _NAMED[args.family]
        graphs = chain([make(lo)], map(make, sizes[1:]))
    elif any(_sweep_regimes(n, args.dmin, args.dmax) for n in sizes):
        graphs = _random_graphs(args, sizes, per_size, failures)
    else:
        raise InputError(f"no feasible degree regime at any size in {size_text}")
    if not args.json:
        print(_SWEEP_HEADER, flush=True)
    rows: list[dict] = []
    for g in graphs:  # each row is printed as soon as it is checked
        rows.append(_sweep_row(g))
        if not args.json:
            print(_format_row(rows[-1]), flush=True)
    violations = sum(1 for r in rows if not r["bound_ok"])
    oracle_bad = sum(1 for r in rows if not r.get("builder_le_oracle", True))
    ok = violations == oracle_bad == 0
    if args.json:
        print(json.dumps({"rows": rows, "generation_failures": failures, "ok": ok}))
        return 0 if ok else 1
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
    _refuse_unread(args)
    if args.family == "g8":
        g = families.g8()
    elif args.n is None:
        raise InputError(f"--family {args.family} needs --n")
    else:
        _check_size(args.family, args.n)
        if args.family in _NAMED:
            g = _NAMED[args.family](args.n)
        else:
            dmin, dmax = _degree_window(args.n, args.dmin, args.dmax)
            seed = 0 if args.seed is None else args.seed
            g = families.random_connected(args.n, dmin, dmax, seed)
    sys.stdout.write(render_edge_list(g))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # the four options below shape random graphs only; the others refuse them
    p_sweep.add_argument("--per-size", type=int, help="graphs per size (default 20)")
    p_sweep.add_argument("--dmin", type=int)
    p_sweep.add_argument("--dmax", type=int)
    p_sweep.add_argument("--seed", type=int, help="default 0")
    p_sweep.add_argument("--family", choices=["random", "h", "c2"], default="random")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen", help="emit a named graph as an edge list")
    p_gen.add_argument("--family", choices=["c2", "g8", "h", "random"], required=True)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--dmin", type=int)
    p_gen.add_argument("--dmax", type=int)
    p_gen.add_argument("--seed", type=int, help="default 0")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def _stdout_to_devnull() -> None:
    # what stdout still holds would fail again in the flush at exit, which
    # prints "Exception ignored" and exits 120; send it to devnull instead
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): exit as SIGPIPE would
        _stdout_to_devnull()
        return 141  # 128 + SIGPIPE
    except (OSError, ValueError, families.GenerationError) as exc:
        # bad input or an I/O error.  Only a RuntimeError, such as the
        # EngineDefect of a build past the exact search's reach whose every
        # base raised (an attachment the engine refuses is a defect of its
        # run), keeps its traceback: a ValueError the library raises for
        # another bug (a failed tree check, the lift) still ends here
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # the error was (or hit) stdout itself
            _stdout_to_devnull()
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
