"""Span tracer that wraps usdkit's public functions from outside the package.

``instrument`` replaces every public function of the given modules, in every
module namespace that holds it, by a wrapper that records a span: name,
parent span, pass number, start and end.  Spans stay in memory; self time is
computed afterwards as a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

# span fields, kept as lists for a cheap append on the traced path
NAME, PARENT, PASS, START, END = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.pass_id, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextlib.contextmanager
def patched(targets: dict[int, object], namespaces: list) -> None:
    """Replace every attribute of ``namespaces`` whose value's id is a key of
    ``targets`` by the mapped object; restore the originals on exit."""
    saved = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in targets:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, targets[id(value)])
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


def instrument(tracer: Tracer, layers: dict[str, object], namespaces: list):
    """Context manager that traces each layer module's public functions.

    ``layers`` maps a layer name to its module; spans are named
    ``<layer>.<function>``.  ``namespaces`` lists every module whose
    references must be redirected (modules bind imported names locally).
    """
    targets = {}
    for layer, module in layers.items():
        for name, fn in public_functions(module).items():
            targets[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    return patched(targets, namespaces)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name.

    Self time is the span's duration minus the union of its direct
    children's intervals clipped to the span, so overlapping children are
    not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[span[NAME]] += (end - start) - covered
    return dict(totals)


def call_counts(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[NAME]] += 1
    return dict(counts)
