"""In-memory spans around the calls pmed.cli makes into each module.

Nothing inside pmed is changed: ``instrumented`` swaps the names that
``pmed.cli`` looked up at import (``simulate``, ``hausdorff``, the
``barriers`` module, ...) for wrappers that record a span per call and put
the originals back on exit.  Spans stay in a list until the benchmark
writes them out.  A span's self time is its duration minus the time its
direct children cover; since the benchmark is single-threaded, children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from dataclasses import dataclass, field

import numpy as np

# name in the pmed.cli namespace -> layer (the pmed module it lives in)
CLI_CALLS = {
    "parse_config": "cli",
    "barenblatt_density": "initialdata",
    "bump_density": "initialdata",
    "equilibrium_offset_density": "initialdata",
    "pressure_from_density": "core",
    "integrate": "core",
    "simulate": "solver",
    "comparison_harness": "solver",
    "equilibrium_profile": "freeboundary",
    "extract_boundary": "freeboundary",
    "hausdorff": "freeboundary",
    "default_support_threshold": "freeboundary",
    "sublevel_shell_check": "freeboundary",
}
LAYERS = ("cli", "core", "initialdata", "solver", "freeboundary", "barriers")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Span recorder; the caller takes the spans of each CLI call with
    ``take``, so span ids index that call's list."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call.  ``count(args, result)`` returns
        a dict of exact counts to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if shape else 1


def _barrier_proxy(tracer: Tracer, real: types.ModuleType) -> types.ModuleType:
    """Stand-in for ``pmed.barriers`` as seen from ``pmed.cli``: the two
    entry points are traced, and so is every evaluation of a built barrier;
    everything else is the real module's."""
    proxy = types.ModuleType(real.__name__)
    proxy.__dict__.update(real.__dict__)

    def build(*args, **kwargs):
        candidate = real.build_barrier(*args, **kwargs)
        return tracer.wrap("barriers.candidate", candidate,
                           lambda a, r: {"points": _points(a[0])})

    proxy.build_barrier = tracer.wrap("barriers.build_barrier",
                                      functools.wraps(real.build_barrier)(build))
    proxy.residual_pmed = tracer.wrap(
        "barriers.residual_pmed", real.residual_pmed,
        lambda a, r: {"samples": r.interior_count + r.boundary_count})
    return proxy


def _call_counts(name):
    if name == "hausdorff":
        return lambda a, r: {"pairs": len(a[0]) * len(a[1])}
    if name == "extract_boundary":
        return lambda a, r: {"points": len(r)}
    if name == "equilibrium_profile":
        return lambda a, r: {"points": len(r.boundary)}
    return None


@contextlib.contextmanager
def instrumented(cli: types.ModuleType, tracer: Tracer):
    """Trace ``cli.main`` and every call it makes into the other modules."""
    saved = {name: getattr(cli, name) for name in (*CLI_CALLS, "bar", "main")}
    try:
        for name, layer in CLI_CALLS.items():
            setattr(cli, name, tracer.wrap(f"{layer}.{name}", saved[name],
                                           _call_counts(name)))
        cli.bar = _barrier_proxy(tracer, saved["bar"])
        cli.main = tracer.wrap("cli.main", saved["main"])
        yield cli.main
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    out = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def span_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed counts."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["total_s"] += s.seconds
        for k, v in s.counts.items():
            row[k] = row.get(k, 0) + v
    return table

