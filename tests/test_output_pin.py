"""One hash over every observable output of `build` on a fixed graph pool.

The pool covers the three benchmark regimes (random degree-3..4 graphs with
64..104 vertices plus H_k and a squared cycle, a random core subdivided into
long paths, and sweep-size graphs with 10..16 vertices), three graphs that
reach the rarer paths (a Z4 split from the first base, a B5 shortfall
settled by exact search and a B7 shortfall settled by a later base), the
exclusion graphs C6² and G8 met directly and after one R1, and four
structured graphs (a grid, Q4, a wheel and GP(7, 3)).  Any change to a
tree, a ledger line with its added vertices, the reduction trace or the
driver's provenance changes the hash, and so does any change to the order
in which a pool graph lists its edges: `subdivided_core` and the benchmark
inputs place path vertices by that order.
"""

from __future__ import annotations

import hashlib
import random
import re

from leafspan import Graph, build, g8, h_graph, random_connected, square_of_cycle

from conftest import at_row_db, generalized_petersen, grid, hypercube, wheel


def subdivided_core(seed: int) -> Graph:
    """`random_connected(24, 3, 4, seed)` with edge i subdivided i % 5 times,
    vertex ids shuffled."""
    core = random_connected(24, 3, 4, seed)
    edges, n = [], core.n
    for i, (u, v) in enumerate(core.edges()):
        path = [u, *range(n, n + i % 5), v]
        n += i % 5
        edges += zip(path, path[1:])
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def sweep_graphs(count: int) -> list[Graph]:
    """n = 10..16 over the degree bounds `leafspan sweep` cycles through."""
    out = []
    for i in range(0, 2 * count, 2):
        n = 10 + i % 7
        regimes = [(1, n - 1), (2, n - 1), (3, n - 1), (2, 3), (3, 4)]
        dmin, dmax = regimes[(i // 7) % len(regimes)]
        out.append(random_connected(n, dmin, dmax, i))
    return out


def pool() -> list[Graph]:
    graphs = [
        random_connected(n, 3, 4, seed) for n in (64, 84, 104) for seed in (1, 2)
    ]
    graphs += [h_graph(6), h_graph(7), square_of_cycle(40), subdivided_core(5)]
    graphs += sweep_graphs(20)
    graphs += [
        random_connected(14, 2, 13, 232),  # Z4 split from the first base
        random_connected(16, 2, 3, 73701376),  # B5 shortfall, exact search
        random_connected(14, 3, 4, 951997565),  # B7 shortfall, a later base
    ]
    c6 = square_of_cycle(6)
    graphs += [c6, g8(), Graph(7, [e for e in c6.edges() if e != (0, 1)] + [(0, 6), (6, 1)])]
    graphs += [grid(4, 5), hypercube(4), wheel(8), generalized_petersen(7, 3)]
    return graphs


def record_lines(rec) -> list[str]:
    return [f"{rec.log_line()} {list(rec.added_vertices)}"]


def report_lines(r, record_lines=record_lines) -> list[str]:
    edges = " ".join(f"{u}-{v}" for u, v in sorted(r.spanning_tree.edges))
    records = [r.ledger.base, *r.ledger.steps]
    # the split depth, 1 when the kept run closed with a Z4 split: no pool
    # graph's split components split again
    depth = int(any(rec.label == "Z4" for rec in records))
    return [
        f"{r.leaves} {r.alpha.num} {r.base_case} {r.engine_runs} {r.oracle_fallback}",
        f"depth {depth} exclusion {r.exclusion}",
        f"defects {list(r.defects)}",
        edges,
        *(line for rec in records for line in record_lines(rec)),
        *(
            f"{ev.kind} {ev.x} {ev.a} {ev.b} {sorted(ev.nbrs_kept)} {sorted(ev.nbrs_dropped)}"
            for ev in r.reduction_trace
        ),
    ]


def pool_digest(lines=report_lines) -> str:
    """The hash of the pool graphs and of `lines` of each one's build."""
    digest = hashlib.sha256()
    for g in pool():
        digest.update(f"{g.n} {g.edges()}\n".encode())
        for line in lines(build(g)):
            digest.update(line.encode() + b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def test_build_output_pinned_over_the_pool():
    # taken once a step's record counted every leaf the step killed
    assert pool_digest() == (
        "d712a4253aacfb86f199a0f0a3a5a2e801ca997eb69873f39c7ba2a2365deb85"
    )


def z0_lines(rec) -> list[str]:
    """A record's lines as they were logged while a death beyond its row's db
    was a Z0 record of its own: the record at its row's db and profit, then
    one `Z0 0 1 0 0 2 []` line for each such death."""
    at_row, extra = at_row_db(rec)
    return record_lines(at_row) + ["Z0 0 1 0 0 2 []"] * extra


def test_only_the_dead_leaf_counts_moved_at_the_last_pin():
    # each death beyond a row's db, unfolded into its Z0 record, gives the
    # previous pin
    assert pool_digest(lambda r: report_lines(r, z0_lines)) == (
        "8136655e87a9eef163d2e77dad1c364c96895c392f7b002c41327ce1721756d1"
    )


def test_only_the_z1_3_labels_moved_at_the_pin_before():
    # on top of the unfolding, the labels the two Z1.3 rows replaced, mapped
    # back, give the pin before that
    def one_z1_3_label(r) -> list[str]:
        return [
            re.sub(r"^Z1\.3\.[12] ", "Z1.3 ", line)
            for line in report_lines(r, z0_lines)
        ]

    assert pool_digest(one_z1_3_label) == (
        "b656f01b2f629ac9468b9f31390fe0e4cda1faf73af22a92523847297e84b35b"
    )
