"""Seeded inputs for the three benchmark workloads.

Each workload is a pool of graphs made from the seed alone; the program
under test only ever sees the graphs.  Sizes cycle through a fixed grid, so
every prefix of a pool has the same mix of sizes and the seed changes which
graphs are drawn, not how large they are.  That keeps the work per run
nearly independent of the seed.

* ensemble-mid: random graphs with degrees 3..4 plus a minority of H_k and
  squared cycles.  The all-bases ensemble of the growth engine does nearly
  all the work; H_k drives the M4 chain planner, random graphs drive
  A1/A2/Z0.
* reduce-long: a small random core whose edges are subdivided into long
  paths, plus plain long cycles (the path-direct case).  reduce_fully and
  the lift do nearly all the work; the engine sees only the small core.
* sweep-small: `leafspan sweep` traffic, i.e. build then exact search on
  random graphs with 10..16 vertices over the sweep's degree regimes, after
  a fixed set of named cases that every run includes.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass

# Pool sizes: a run makes at least one full pass over its pool, so every run
# has at least 100 operations and every input enters the result digest.  A
# pass takes about 5-50 s on a 2-core x86 VM with CPython 3.11, depending on
# the workload and on the load that neighbours put on the host.
POOL_SIZE = {"ensemble-mid": 150, "reduce-long": 100, "sweep-small": 3000}
WORKLOADS = tuple(POOL_SIZE)


@dataclass(frozen=True)
class Input:
    name: str
    graph: object  # leafspan.Graph
    seed: int | None = None


def make_inputs(lf, workload: str, seed: int) -> list[Input]:
    """The workload's pool for `seed`; `lf` is the imported leafspan package."""
    make = {
        "ensemble-mid": ensemble_mid,
        "reduce-long": reduce_long,
        "sweep-small": sweep_small,
    }[workload]
    return make(lf, random.Random(seed), POOL_SIZE[workload])


def _random_graph(lf, n: int, dmin: int, dmax: int, rng: random.Random) -> Input | None:
    s = rng.randrange(1 << 30)
    try:
        g = lf.random_connected(n, dmin, dmax, s)
    except lf.GenerationError:
        return None
    return Input(f"random_connected({n},{dmin},{dmax},seed={s})", g, s)


ENSEMBLE_SIZES = (64, 72, 80, 88, 96, 104)
# Sextiles of the share of degree->=4 vertices in random_connected(n, 3, 4),
# nearly the same for n = 50..110.  At a fixed n the build's work grows about
# fivefold across this share, so ensemble-mid fills every (size, share) cell
# evenly instead of leaving that mix to the seed.
SHARE_EDGES = (0.22, 0.33, 0.44, 0.58, 0.75)


def ensemble_mid(lf, rng: random.Random, count: int) -> list[Input]:
    """Eight in ten inputs are random graphs; the rest are H_k (k = 6, 7, ...)
    and squared cycles on m = 40, 45, ... vertices, the same for every seed."""
    cells = len(ENSEMBLE_SIZES)  # == len(SHARE_EDGES) + 1
    spare: dict[tuple[int, int], list[Input]] = {}  # drawn, not yet used
    out: list[Input] = []
    i = r = 0
    while len(out) < count:
        slot, j = i % 10, i // 10
        if slot == 4:
            k = 6 + j % 11
            out.append(Input(f"h_graph({k})", lf.h_graph(k)))
        elif slot == 9:
            m = 40 + 5 * (j % 11)
            out.append(Input(f"square_of_cycle({m})", lf.square_of_cycle(m)))
        else:
            # a Latin square: each run of 36 random slots visits every cell once
            size, share = r % cells, (r + r // cells) % cells
            while not spare.get((size, share)):
                n = ENSEMBLE_SIZES[size]
                item = _random_graph(lf, n, 3, 4, rng)
                if item is not None:
                    t = sum(1 for v in range(n) if item.graph.degree(v) >= 4)
                    spare.setdefault((size, bisect(SHARE_EDGES, t / n)), []).append(item)
            out.append(spare[size, share].pop(0))
            r += 1
        i += 1
    return out


def cycle(lf, n: int):
    return lf.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def subdivided(lf, core, n: int, rng: random.Random):
    """`core` with n - core.n new vertices spread over its edges as paths.

    Vertex ids are shuffled, so reductions do not meet the paths in order.
    """
    edges = list(core.edges())
    inner = [0] * len(edges)
    for _ in range(n - core.n):
        inner[rng.randrange(len(edges))] += 1
    path_edges = []
    nxt = core.n
    for (u, v), k in zip(edges, inner):
        path = [u, *range(nxt, nxt + k), v]
        nxt += k
        path_edges += zip(path, path[1:])
    perm = list(range(n))
    rng.shuffle(perm)
    return lf.Graph(n, [(perm[a], perm[b]) for a, b in path_edges])


# Build time grows about quadratically with n here (about 0.05 s at n = 250,
# 0.17 s at 450, 0.45 s at 700 and 1.1 s at 1200 on a 2-core x86 VM).  A round
# of twenty inputs holds the sizes below; sorted by build time they fill
# about 0-30%, 30-70%, 70-80%, 80-95% and 95-100% of the pool, so p50 and
# p90 each fall well inside one size class, not on the seam between two.
REDUCE_ROUND = (450, 250, 700, 300, 450, 550, 300, 450, 250, 1200,
                450, 700, 300, 450, 450, 250, 550, 450, 700, 450)
CYCLE_SLOTS = (6, 14)  # slots of the round that hold a plain cycle, not a core


def reduce_long(lf, rng: random.Random, count: int) -> list[Input]:
    """Nine in ten inputs are subdivided random cores, the rest long cycles."""
    out: list[Input] = []
    while len(out) < count:
        slot = len(out) % len(REDUCE_ROUND)
        n = REDUCE_ROUND[slot]
        if slot in CYCLE_SLOTS:
            out.append(Input(f"cycle({n})", cycle(lf, n)))
            continue
        core = _random_graph(lf, rng.randint(20, 32), 3, 4, rng)
        if core is not None:
            name = f"subdivided({core.name},n={n})"
            out.append(Input(name, subdivided(lf, core.graph, n, rng), core.seed))
    return out


def named_cases(lf) -> list[Input]:
    """Fixed sweep cases: the oracle benchmark set, the exclusions, and a
    graph one R1 subdivision away from an exclusion."""
    c6sq = lf.square_of_cycle(6)
    (u, v), *rest = sorted(c6sq.edges())
    near_exclusion = lf.Graph(7, [*rest, (u, 6), (v, 6)])
    return [
        Input("square_of_cycle(14)", lf.square_of_cycle(14)),
        Input("cycle(16)", cycle(lf, 16)),
        Input("h_graph(2)", lf.h_graph(2)),
        Input("random_connected(15,3,5,seed=11)", lf.random_connected(15, 3, 5, 11), 11),
        Input("random_connected(16,2,6,seed=12)", lf.random_connected(16, 2, 6, 12), 12),
        Input("square_of_cycle(6)", c6sq),
        Input("square_of_cycle(8)", lf.square_of_cycle(8)),
        Input("g8()", lf.g8()),
        Input("subdivided(square_of_cycle(6))", near_exclusion),
    ]


def sweep_small(lf, rng: random.Random, count: int) -> list[Input]:
    out = named_cases(lf)
    i = 0
    while len(out) < count:
        n = 10 + i % 7
        # the degree bounds `leafspan sweep` cycles through at sizes n >= 5
        regimes = [(1, n - 1), (2, n - 1), (3, n - 1), (2, 3), (3, 4)]
        dmin, dmax = regimes[(i // 7) % len(regimes)]
        item = _random_graph(lf, n, dmin, dmax, rng)
        if item is not None:
            out.append(item)
        i += 1
    return out
