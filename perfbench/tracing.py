"""Spans around the calls that cross from one einstat module into another.

A traced pass runs exactly the code of an untraced pass.  The benchmark
opens a root span per verdict and a span around each call it makes into
the package; :func:`interpose` additionally routes every function that one
einstat module imports from another through the tracer, so a call from
``catalog`` into ``planar`` or from ``cli`` into ``jets`` gets a span
without any change to the package.  Calls into ``expressions`` (the
bottom layer, tens of thousands per pass) are not given spans of their
own: their count and time are added to the enclosing span.  Calls inside
one module, and methods reached through an object, stay inside the
caller's span.

Spans are kept in memory as lists ``[label, start_ns, end_ns, parent,
verdict, leaves]`` and written out by the worker when the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

#: The layer whose calls are counted instead of spanned.
LEAF_LAYER = "expressions"

#: Layer of the benchmark's own code inside a verdict span.
BENCH_LAYER = "bench"

LAYERS = (BENCH_LAYER, "cli", "catalog", "planar", "geometry", "jets", LEAF_LAYER)


def layer_of(label: str) -> str:
    return label.partition(".")[0]


class Untraced:
    """Calls straight through; used by every timed, untraced pass."""

    def call(self, label, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def verdict(self, verdict_id, fn, *args):
        return fn(*args)


class Tracer:
    """Records spans and leaf-call counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._verdict = None

    def call(self, label, fn, /, *args, **kwargs):
        span = [label, 0, 0, self._stack[-1] if self._stack else None, self._verdict, None]
        self.spans.append(span)
        self._stack.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, label, fn, /, *args, **kwargs):
        """A leaf call: its count and time go to the enclosing span."""
        if not self._stack:
            return self.call(label, fn, *args, **kwargs)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            span = self._stack[-1]
            if span[5] is None:
                span[5] = {}
            entry = span[5].setdefault(label, [0, 0])
            entry[0] += 1
            entry[1] += elapsed

    def verdict(self, verdict_id, fn, *args):
        self._verdict = verdict_id
        try:
            return self.call("bench.verdict", fn, *args)
        finally:
            self._verdict = None

    def export(self) -> list[list]:
        """Spans with parents as list indices, ready for JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [label, start, end, None if parent is None else index[id(parent)], verdict, leaves]
            for label, start, end, parent, verdict, leaves in self.spans
        ]


def self_times_ns(spans: list[list], lo: int, hi: int) -> dict[str, int]:
    """Per-layer self time of exported spans ``lo..hi-1`` (parents are
    indices): each span's duration minus its child spans and leaf calls,
    with the leaf calls' time credited to the leaf layer.  The layer
    totals add up to the duration of the root spans."""
    covered: dict[int, int] = {}
    for label, start, end, parent, _verdict, _leaves in spans[lo:hi]:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + end - start
    out = dict.fromkeys(LAYERS, 0)
    for index in range(lo, hi):
        label, start, end, _parent, _verdict, leaves = spans[index]
        own = end - start - covered.get(index, 0)
        for leaf_label, (_calls, elapsed) in (leaves or {}).items():
            own -= elapsed
            out[layer_of(leaf_label)] = out.get(layer_of(leaf_label), 0) + elapsed
        out[layer_of(label)] = out.get(layer_of(label), 0) + own
    return out


def leaf_totals(spans: list[list], labels: tuple[str, ...]) -> tuple[int, int]:
    """Calls and nanoseconds of the named leaf functions in the spans."""
    calls = elapsed = 0
    for span in spans:
        for label in labels:
            entry = (span[5] or {}).get(label)
            if entry:
                calls += entry[0]
                elapsed += entry[1]
    return calls, elapsed


def interpose(tracer: Tracer):
    """Route every cross-module function reference inside the einstat
    package through ``tracer``; returns a function that undoes it."""
    patched = []
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("einstat.") or module is None:
            continue
        for name, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", None) or ""
            if (
                isinstance(obj, type)
                or not callable(obj)
                or owner == module_name
                or not owner.startswith("einstat.")
            ):
                continue
            label = f"{owner.rpartition('.')[2]}.{getattr(obj, '__name__', name)}"
            method = tracer.count if layer_of(label) == LEAF_LAYER else tracer.call
            setattr(module, name, functools.partial(method, label, obj))
            patched.append((module, name, obj))

    def undo():
        for module, name, obj in patched:
            setattr(module, name, obj)

    return undo
