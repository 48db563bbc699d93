"""Base trees as they were built before the one-pass construction: the reference.

A star or double star grown from its root by one validated
`PartialTree.attach` per base vertex (b, then a's other neighbours, then
b's other neighbours, each ascending); `attach` keeps every count, dead
marks included, exact after each attach.  `tests/test_builder.py`
requires `leafspan.builder.base_tree` to give a tree equal to this one
field for field.  Kept verbatim apart from this docstring, the name, the
imports and the dead-mark sweep that `attach` has taken over; not a test
module, and the suite's audit fixtures do not wrap it.
"""

from __future__ import annotations

from leafspan.builder import PartialTree
from leafspan.graph import Graph


def attach_base_tree(g: Graph, a: int, b: int = -1) -> PartialTree:
    """The star at a, or for b >= 0 the double star on the edge ab."""
    if b >= 0 and g.adj[a] & g.adj[b]:
        raise ValueError("double star needs disjoint neighborhoods")
    f = PartialTree(g, a)
    if b >= 0:
        f.attach(a, b)
    for v in sorted(g.adj[a] - {b}):
        f.attach(a, v)
    if b >= 0:
        for v in sorted(g.adj[b] - {a}):
            f.attach(b, v)
    return f
