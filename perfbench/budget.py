"""Spans around public calls, and the per-layer time budget of a traced pass.

The benchmark wraps every call it makes into the program in a span named
``<layer>.<call>``; the program's own spans (``precond.*``, ``pcg.*``,
``halo.*``, ``spmd.*``, ``mpisim.*``, ``cachesim.*``) nest inside them.

A traced pass records them with a :class:`LayerTracer`, installed through
``repro.instrument.tracing``.  It keeps every span in memory only until the
span closes, then folds it into totals per span name and per thread and
layer; a pass makes millions of halo spans, which as span objects took
2 GB.  A span's self time is its duration minus its children's; children
open and close on their parent's thread, nested, so they never overlap.

Two views of a traced pass come out of :meth:`LayerTracer.budget`:

* the *wall* view: self time per layer of the spans on the client threads
  (the threads the benchmark itself runs on), plus the client request
  intervals of the serving workload merged as an interval union.  It sums to
  at most the pass wall time; the covered share is ``trace.coverage_pct``;
* the *busy* view: self time per layer of the spans on every other thread
  (simulated ranks, farm workers).  Those threads run concurrently with the
  client, so this view is in thread-seconds, not a share of wall time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.instrument import get_tracer

#: Span-name prefix -> layer (module) that does the work.
LAYERS = {
    "matgen": "matgen",
    "partition": "partition",
    "dist": "dist",
    "halo": "dist",
    "core": "core",
    "precond": "core",
    "pcg": "core",
    "cachesim": "cachesim",
    "perfmodel": "perfmodel",
    "mpisim": "mpisim",
    "spmd": "mpisim",
    "serve": "serve",
    "check": "check",
}

LAYER_NAMES = sorted(set(LAYERS.values()))


def layer_of(name: str) -> str:
    """The layer a span belongs to, from the first dotted component."""
    return LAYERS.get(name.split(".", 1)[0], "other")


@contextmanager
def span(name: str, **tags):
    """A span around one public call, tagged ``bench`` so the budget can
    tell the client threads apart.  Free when tracing is off."""
    tracer = get_tracer()
    if not tracer.enabled:
        yield None
        return
    with tracer.span(name, bench=True, **tags) as s:
        yield s


class Stopwatch:
    """Wall time of the calls of one pass (always on, tracing or not).

    Each key names one call and keeps one sample per time it ran; a key
    that runs twice in a pass is the same call repeated.  ``probe`` (a
    :class:`~hostspeed.HostSpeed`) samples the host's speed after each call.
    """

    def __init__(self, probe=None):
        self.samples: dict[str, list[float]] = {}
        self.probe = probe

    @contextmanager
    def phase(self, name: str, key: str | None = None, **tags):
        """Time one call as ``key`` (default: the span name)."""
        start = time.perf_counter()
        try:
            with span(name, **tags):
                yield
        finally:
            self.add(key or name, time.perf_counter() - start)
            if self.probe is not None:
                self.probe.sample()

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    @property
    def seconds(self) -> dict[str, float]:
        """Summed time per key."""
        return {k: sum(v) for k, v in self.samples.items()}

    def total(self, *prefixes: str) -> float:
        return sum(v for k, v in self.seconds.items() if k.startswith(prefixes))


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Span:
    """An open span: what the program may tag, and its children's time."""

    __slots__ = ("name", "tags", "start", "children")

    def __init__(self, name: str, tags: dict):
        self.name = name
        self.tags = tags
        self.start = time.perf_counter()
        self.children = 0.0

    def set_tag(self, key: str, value) -> "_Span":
        self.tags[key] = value
        return self


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_tags", "_span")

    def __init__(self, tracer: "LayerTracer", name: str, tags: dict):
        self._tracer, self._name, self._tags = tracer, name, tags

    def __enter__(self) -> _Span:
        self._span = _Span(self._name, self._tags)
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span, time.perf_counter())
        return False


class _ThreadTotals:
    """What one thread's closed spans add up to."""

    def __init__(self):
        self.stack: list[_Span] = []
        #: span name -> [count, total s, self s, s outside spans of its module]
        self.names: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.layers: dict[str, float] = defaultdict(float)
        self.bench = False
        #: (start, end) of the spans with no parent
        self.roots: list[tuple[float, float]] = []


class LayerTracer:
    """A tracer for ``repro.instrument.tracing`` that keeps totals, not
    spans: the ``span``/``event``/``current`` interface the program uses."""

    enabled = True

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadTotals] = []

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def _stack(self) -> list:
        return self._totals().stack

    def _close(self, span: _Span, end: float) -> None:
        totals = self._totals()
        stack = totals.stack
        if stack[-1] is span:
            stack.pop()
        else:  # closed out of order
            stack.remove(span)
        duration = end - span.start
        own = duration - span.children
        entry = totals.names[span.name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        totals.layers[layer_of(span.name)] += own
        module = span.name.split(".", 1)[0]
        if stack:
            stack[-1].children += duration
            if stack[-1].name.split(".", 1)[0] != module:
                entry[3] += duration
        else:
            entry[3] += duration
            totals.roots.append((span.start, end))
        if span.tags.get("bench"):
            totals.bench = True

    def span(self, name: str, **tags) -> _SpanContext:
        return _SpanContext(self, name, tags)

    def event(self, name: str, **tags) -> _Span:
        span = _Span(name, tags)
        self._stack().append(span)
        self._close(span, span.start)
        return span

    def current(self) -> _Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def names(self) -> dict[str, dict]:
        """Per span name over all threads: count, total, self time and the
        time outside other spans of its module (``precond.build`` around
        ``precond.factor`` counts once)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for totals in self._threads:
            for name, entry in totals.names.items():
                out[name] = [a + b for a, b in zip(out[name], entry)]
        return {n: {"count": c, "total_s": t, "self_s": o, "outer_s": x}
                for n, (c, t, o, x) in sorted(out.items())}

    def budget(self, client_intervals, wall_s: float) -> dict:
        """Wall and busy per-layer self time of the traced pass.

        ``client_intervals`` are ``(layer, start, end)`` request intervals
        recorded outside the tracer (overlapping requests of concurrent
        clients on one event loop).
        """
        wall = dict.fromkeys(LAYER_NAMES, 0.0)
        busy = dict.fromkeys(LAYER_NAMES, 0.0)
        covered = []
        for totals in self._threads:
            view = wall if totals.bench else busy
            for layer, seconds in totals.layers.items():
                view[layer] = view.get(layer, 0.0) + seconds
            if totals.bench:
                covered += totals.roots
        by_layer: dict[str, list] = {}
        for layer, start, end in client_intervals:
            by_layer.setdefault(layer, []).append((start, end))
            covered.append((start, end))
        for layer, intervals in by_layer.items():
            wall[layer] = wall.get(layer, 0.0) + union_length(intervals)
        coverage = union_length(covered) / wall_s if wall_s > 0 else 0.0
        return {"wall": wall, "busy": busy, "coverage": coverage}
