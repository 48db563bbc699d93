from __future__ import annotations

import random

import pytest

from leafspan import Graph, GenerationError, alpha_prime, builder, fringe, random_connected
from leafspan.builder import PartialTree
from leafspan.ledger import DEAD_GAIN15, LEAF_GAIN15


def audit_counts(g: Graph, f: PartialTree) -> None:
    """The counts `f` keeps agree with a from-scratch recount of its tree."""
    counted = LEAF_GAIN15 * f.leaves + DEAD_GAIN15 * len(f.dead) - f.cost
    assert alpha_prime(g, f).num == counted
    assert fringe(g, f) == {v for v in f.outside if g.adj[v] & f.vertices}
    tree_deg = {v: len(f.children[v]) + (f.parent[v] != -1) for v in f.vertices}
    outside_nbrs = {v: len(g.adj[v] & f.outside) for v in f.vertices}
    assert f.dead == {
        v for v in f.vertices if tree_deg[v] == 1 and not outside_nbrs[v]
    }
    assert f.inner_open == {
        v for v in f.vertices if tree_deg[v] >= 2 and outside_nbrs[v]
    }
    assert f.rich == {v for v in f.vertices if outside_nbrs[v] >= 2}


@pytest.fixture(autouse=True)
def audit_every_step(monkeypatch):
    """Recount every partial tree from scratch after each step of every build.

    Production builds recount only at the base and at the end of each engine
    run; the engine looks `apply_step` up at call time, so this wrapper sees
    every step the tests make the engine take.
    """
    step = builder.apply_step

    def audited(g, f, plan):
        records = step(g, f, plan)
        audit_counts(g, f)
        return records

    monkeypatch.setattr(builder, "apply_step", audited)


def make_state(n, edges, tree_edges, root=0) -> tuple[Graph, PartialTree]:
    """Graph plus a partial tree assembled from the given tree edges."""
    g = Graph(n, edges)
    f = PartialTree(g, root)
    remaining = [tuple(e) for e in tree_edges]
    while remaining:
        progressed = False
        for e in list(remaining):
            u, v = e
            if u in f.vertices and v in f.outside:
                f.attach(u, v)
            elif v in f.vertices and u in f.outside:
                f.attach(v, u)
            else:
                continue
            remaining.remove(e)
            progressed = True
        if not progressed:
            raise ValueError("tree edges do not connect to the root")
    f.sweep_dead()
    return g, f


def random_graph_pool(count, sizes=(3, 12), seed=20240601):
    """Deterministic pool of connected graphs over mixed degree regimes."""
    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < count and attempts < 50 * count:
        attempts += 1
        n = rng.randint(*sizes)
        regimes = [(1, n - 1), (2, n - 1)]
        if n >= 4:
            regimes += [(3, n - 1), (2, 3)]
        if n >= 5:
            regimes.append((3, 4))
        dmin, dmax = rng.choice(regimes)
        try:
            pool.append(random_connected(n, dmin, dmax, rng.randrange(1 << 30)))
        except GenerationError:
            continue
    return pool


def random_spanning_tree(g: Graph, seed: int):
    """Independent spanning-tree sampler (randomized Kruskal)."""
    rng = random.Random(seed)
    edges = list(g.edges())
    rng.shuffle(edges)
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = set()
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v) if u < v else (v, u))
    return chosen


@pytest.fixture(scope="session")
def graph_pool():
    return random_graph_pool(150)
