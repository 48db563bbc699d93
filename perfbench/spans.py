"""In-memory spans recorded around the calls into each leafspan layer.

`Tracer.installed(lf)` swaps the public functions that `leafspan.builder`
calls into each layer for wrappers that open a span on entry and close it
on return, and puts the originals back on exit.  The builder looks these
names up in its module globals at call time, so the recursive `build`
inside `split_z4` is traced too.  Spans live in flat arrays (one run can
record hundreds of thousands) and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# leafspan.builder global -> span name.  `star_base` is named by its caller:
# inside `choose_bases` it is base selection, elsewhere it is a star retry.
BUILDER_LAYERS = {
    "reduce_fully": "reduction.reduce_fully",
    "lift_tree_logged": "reduction.lift",
    "choose_bases": "builder.bases",
    "next_step": "builder.engine.next_step",
    "apply_step": "builder.engine.apply_step",
    "split_z4": "builder.engine.split_z4",
    "alpha_prime": "ledger.alpha_prime",
    "max_leaf_tree": "oracle.max_leaf_tree",
    "classify_exclusion": "oracle.classify_exclusion",
}
# leafspan package functions the benchmark itself calls.
PACKAGE_LAYERS = {
    "exact_u": "oracle.exact_u",
    "verify_ledger": "ledger.verify",
}
STAR_RETRY = "builder.driver.star_retry"
# Base cases that never reach the growth engine.
NON_ENGINE_CASES = ("exclusion-direct", "path-direct")


class Tracer:
    """Spans as (name, parent, start, end) plus event counts, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]  # open spans, above a root sentinel
        self.counts: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.name(top)

    def name(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def wrap(self, fn, name: str, observe=None):
        """`fn` inside a span named `name`; `observe` sees each result.

        This runs on every engine step, so `open` and `close` are inlined:
        the bookkeeping before the start and after the end of a span is
        charged to its parent.
        """
        nid = self._name_id(name)
        clock, stack, starts, ends = perf_counter, self._stack, self.start, self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_start, add_end = (
            self.name_id.append, self.parent.append, starts.append, ends.append
        )

        def traced(*args, **kwargs):
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextmanager
    def installed(self, lf):
        """Trace every layer of the leafspan package `lf` inside the block."""
        builder = lf.builder
        count = self.counts

        def on_reduce(result):
            count["reduction.events"] += len(result[1])

        def on_bases(bases):
            count["builder.bases.offered"] += len(bases)

        def on_build(report):  # recursive builds count, as their engine runs do
            count["builder.driver.oracle_fallbacks"] += report.oracle_fallback
            count["builder.driver.defects"] += len(report.defects)
            engine = report.base_case not in NON_ENGINE_CASES
            count["builder.engine.settled"] += engine and not report.oracle_fallback

        observers = {"reduce_fully": on_reduce, "choose_bases": on_bases}
        patches = [
            (builder, attr, self.wrap(getattr(builder, attr), span, observers.get(attr)))
            for attr, span in BUILDER_LAYERS.items()
        ]
        in_bases = self.wrap(builder.star_base, "builder.bases")
        retry = self.wrap(builder.star_base, STAR_RETRY)

        def star_base(*args, **kwargs):
            star = in_bases if self.current() == "builder.bases" else retry
            return star(*args, **kwargs)

        patches.append((builder, "star_base", star_base))
        traced_build = self.wrap(builder.build, "builder.build", on_build)
        patches += [(builder, "build", traced_build), (lf, "build", traced_build)]
        patches += [
            (lf, attr, self.wrap(getattr(lf, attr), span))
            for attr, span in PACKAGE_LAYERS.items()
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, fn in patches:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        calls: Counter[str] = Counter()
        busy: dict[str, float] = {}
        for i, own in enumerate(self.self_times()):
            name = self.name(i)
            calls[name] += 1
            busy[name] = busy.get(name, 0.0) + own
        return {name: (calls[name], busy[name]) for name in calls}

    def write(self, path) -> None:
        """Gzipped CSV: id, parent, name, start and end in seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self)):
                out.write(
                    f"{i},{self.parent[i]},{self.name(i)},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
