"""One hash over every observable output of `build` on a fixed graph pool.

The pool covers the three benchmark regimes (random degree-3..4 graphs with
64..104 vertices plus H_k and a squared cycle, a random core subdivided into
long paths, and sweep-size graphs with 10..16 vertices) and three graphs
that reach the rarer paths: a Z4 split from the first base, a B5 shortfall
settled by exact search and a B7 shortfall settled by a later base.  Any
change to a tree, a ledger line or the driver's provenance changes the hash.
"""

from __future__ import annotations

import hashlib
import random

from leafspan import Graph, build, h_graph, random_connected, square_of_cycle


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
    return graphs


def report_lines(r) -> list[str]:
    edges = " ".join(f"{u}-{v}" for u, v in sorted(r.spanning_tree.edges))
    return [
        f"{r.leaves} {r.alpha.num} {r.base_case} {r.engine_runs} {r.oracle_fallback}",
        f"defects {list(r.defects)}",
        edges,
        *r.ledger.log_lines(),
    ]


def test_build_output_pinned_over_the_pool():
    digest = hashlib.sha256()
    for g in pool():
        for line in report_lines(build(g)):
            digest.update(line.encode() + b"\n")
        digest.update(b"--\n")
    # taken before the engine stopped building step records for runs the
    # driver drops; the output must not have moved
    assert digest.hexdigest() == (
        "e14f8f6d45a0a8aaf93e17f2ebb097a70928402b22b59a11d5e4b803c5199353"
    )
