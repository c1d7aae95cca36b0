"""Spans and call counts recorded from outside the colonykit package.

A span covers one call into a public colonykit function, made from the
benchmark's own files.  Nothing inside ``src/`` is instrumented: functions
are wrapped where the benchmark calls them (or where ``colonykit.cli``
imported them), and the motility model is replaced by a duck-typed wrapper
whose ``evaluate`` records a span per call on an array.

This module imports nothing heavy, so a span opened before ``import
colonykit.cli`` measures the whole import.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent_index]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, self.clock(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(rec)

        return traced

    def model(self, inner):
        return CountingModel(inner, self)

    def summary(self) -> dict:
        return summarize(self.spans)


class NullTracer:
    """Same interface as Tracer; records nothing and wraps nothing."""

    def wrap(self, name: str, fn):
        return fn

    def model(self, inner):
        return inner

    @contextmanager
    def span(self, name: str):
        yield

    def summary(self):
        return None


class CountingModel:
    """Motility model wrapper: one span per ``evaluate`` call on an array,
    named by derivative order.  Scalar calls (Taylor data at v = 1) pass
    through unrecorded."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def evaluate(self, v, order: int = 0):
        if getattr(v, "ndim", 0) == 0:
            return self.inner.evaluate(v, order)
        rec = self.tracer._enter(f"motility.evaluate.order{order}")
        try:
            return self.inner.evaluate(v, order)
        finally:
            self.tracer._exit(rec)


def summarize(spans) -> dict:
    """Per-name call count, total time and self time, plus parent>child
    call counts.  Self time is a span's duration minus the durations of
    its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    edges: dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = by_name.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
        agg["n"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        if parent >= 0:
            key = f"{spans[parent][0]}>{name}"
            edges[key] = edges.get(key, 0) + 1
    return {"spans": by_name, "edges": edges}


def merge(summaries) -> dict:
    """Sum several span summaries into one."""
    out = {"spans": {}, "edges": {}}
    for s in summaries:
        for name, agg in s["spans"].items():
            tot = out["spans"].setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            for key in tot:
                tot[key] += agg[key]
        for key, n in s["edges"].items():
            out["edges"][key] = out["edges"].get(key, 0) + n
    return out
