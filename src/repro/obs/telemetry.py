"""The telemetry registry: counters, gauges, histograms and spans.

Design constraints, in order:

1. **Off means free.**  The default registry is :class:`NullTelemetry`;
   every instrumentation site in the hot path costs one
   :func:`get_telemetry` call plus an ``enabled`` branch per *frame*
   (never per pixel).  The benchmark gate in
   ``benchmarks/check_regression.py`` and ``tests/test_obs_overhead``
   hold this to <5% of a 1080p ``apply_into``.
2. **Process-safe by construction.**  Nothing is shared between
   processes; worker registries are plain per-process objects whose
   :meth:`Telemetry.drain` deltas travel back over the existing pool
   result channel and are folded in with :meth:`Telemetry.merge`.
   This works identically under ``fork`` and ``spawn``.
3. **One trace for modeled and measured time.**  Spans recorded by the
   live kernels and spans injected from the accelerator models'
   analytic ledgers (:meth:`Telemetry.add_span`,
   :func:`emit_phase_spans`) land in the same event list, so a Chrome
   ``trace_event`` export renders both timelines side by side.

Metric names are dotted strings (``remap.frames``); exporters transform
them per format (Prometheus flattens dots to underscores).  See
``docs/observability.md`` for the stable-name policy.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "NullTelemetry",
    "get_telemetry",
    "set_telemetry",
    "enable",
    "disable",
    "scoped",
    "emit_phase_spans",
    "histogram_quantile",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bounds for frame-scale latencies, in seconds.
#: 0.5 ms .. 2.5 s covers a 64x64 test band through a struggling 4K frame.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n=1) -> None:
        if n < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease (inc {n})")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time scalar (last write wins).

    A gauge that was registered but never written holds ``None`` —
    distinguishable from an explicit ``set(0)``.  Exporters render
    unset gauges as *absent* (Prometheus text omits the series, the
    pretty-printer skips the line); the JSON snapshot carries the
    ``None`` through so merges preserve unset-ness.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = None
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self.value = float(value)

    @property
    def is_set(self) -> bool:
        return self.value is not None


class Histogram:
    """Fixed-bucket histogram with sum/count, Prometheus-compatible.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    (``+Inf``) follows the last bound.  Bucket counts are stored
    *non-cumulative*; exporters cumulate where their format demands it.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "_lock")

    def __init__(self, name: str, bounds, lock: threading.Lock):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} needs strictly increasing non-empty bounds")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value) -> None:
        value = float(value)
        # first bucket whose bound >= value (inclusive upper edges)
        i = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.total += value
            self.count += 1

    def as_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.total, "count": self.count}

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (see :func:`histogram_quantile`)."""
        with self._lock:
            return histogram_quantile(self.as_dict(), q)


def histogram_quantile(hist: dict, q: float) -> float:
    """Estimate a quantile from a fixed-bucket histogram dict.

    ``hist`` is the :meth:`Histogram.as_dict` / snapshot shape
    (``bounds``, non-cumulative ``counts``, ``count``).  The estimate
    interpolates linearly within the bucket containing the target rank
    (the same model ``histogram_quantile()`` applies in PromQL); the
    first bucket's lower edge is taken as 0, which is exact for the
    latency histograms this registry records.  Ranks falling in the
    overflow bucket return the last finite bound — a lower bound on
    the true value.  An empty histogram returns 0.0.
    """
    if not 0.0 <= float(q) <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    bounds = hist["bounds"]
    counts = hist["counts"]
    total = hist.get("count", sum(counts))
    if total <= 0:
        return 0.0
    rank = float(q) * total
    cum = 0.0
    lo = 0.0
    for bound, count in zip(bounds, counts):
        if count > 0 and cum + count >= rank:
            frac = (rank - cum) / count
            return lo + max(0.0, min(1.0, frac)) * (float(bound) - lo)
        cum += count
        lo = float(bound)
    return float(bounds[-1])


class _SpanHandle:
    """Context manager recording one timed span on exit."""

    __slots__ = ("_tel", "name", "cat", "args", "_wall0", "_t0", "_depth")

    def __init__(self, tel: "Telemetry", name: str, cat: str, args):
        self._tel = tel
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        self._depth = self._tel._enter_depth()
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self._t0
        self._tel._exit_depth()
        self._tel.add_span(self.name, self._wall0, dur, cat=self.cat,
                           depth=self._depth, args=self.args)
        return False


class _NullMetric:
    """No-op counter/gauge/histogram — a single shared instance."""

    __slots__ = ()

    def inc(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_METRIC = _NullMetric()
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled registry: every operation is a no-op.

    Instrumentation sites branch on :attr:`enabled` before doing any
    timing work, so with this registry active the hot path pays one
    attribute test per frame.
    """

    enabled = False
    stage_detail = False

    def counter(self, name):
        return _NULL_METRIC

    def gauge(self, name):
        return _NULL_METRIC

    def histogram(self, name, buckets=None):
        return _NULL_METRIC

    def span(self, name, cat="", **args):
        return _NULL_SPAN

    def add_span(self, name, start, dur, cat="", tid=None, depth=0, args=None):
        pass

    def snapshot(self):
        return {}

    def drain(self):
        return {}

    def merge(self, snap):
        pass


class Telemetry:
    """An enabled metrics + span registry.

    Parameters
    ----------
    max_spans:
        Upper bound on retained span records; overflow increments the
        ``telemetry.spans_dropped`` counter instead of growing without
        bound on long streams.
    stage_detail:
        When true, the remap kernel wraps its gather / interpolate /
        store stages in spans (the ``remap_profiled`` path).  Off by
        default — per-tap spans are too fine for production streams.
    pid:
        Process id stamped on span records; defaults to ``os.getpid()``
        and is overridable for deterministic exporter tests.
    """

    enabled = True

    def __init__(self, max_spans: int = 20000, stage_detail: bool = False,
                 pid: int | None = None):
        if max_spans < 0:
            raise TelemetryError(f"max_spans must be >= 0, got {max_spans}")
        self.stage_detail = stage_detail
        self.max_spans = max_spans
        self.pid = os.getpid() if pid is None else int(pid)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: list[dict] = []
        self._depth = threading.local()

    # ------------------------------------------------------------------
    # metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name, self._lock))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name, self._lock))
        return g

    def histogram(self, name: str, buckets=None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name, Histogram(name, buckets or DEFAULT_LATENCY_BUCKETS,
                                    self._lock))
        return h

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _enter_depth(self) -> int:
        d = getattr(self._depth, "value", 0)
        self._depth.value = d + 1
        return d

    def _exit_depth(self) -> None:
        self._depth.value = getattr(self._depth, "value", 1) - 1

    def span(self, name: str, cat: str = "", **args) -> _SpanHandle:
        """Time a block: ``with tel.span("stream.frame"): ...``.

        Nesting is tracked per thread; the recorded ``depth`` lets
        tests and pretty-printers reconstruct the call tree without
        relying on record order (children are recorded on *exit*, i.e.
        before their parent).
        """
        return _SpanHandle(self, name, cat, args or None)

    def timed(self, name: str, cat: str = ""):
        """Decorator form of :meth:`span`."""
        def wrap(fn):
            def inner(*a, **kw):
                with self.span(name, cat=cat):
                    return fn(*a, **kw)
            inner.__name__ = getattr(fn, "__name__", name)
            inner.__doc__ = fn.__doc__
            return inner
        return wrap

    def add_span(self, name: str, start: float, dur: float, cat: str = "",
                 tid=None, depth: int = 0, args=None) -> None:
        """Record a span directly (measured or *modeled* — the platform
        models inject their analytic DMA/kernel ledgers through here so
        modeled and measured timelines share one trace).

        ``start`` is wall-clock seconds (``time.time()``), ``dur``
        seconds.  ``tid`` defaults to the calling thread; models pass a
        synthetic track name instead.
        """
        if tid is None:
            tid = threading.get_ident()
        rec = {"name": name, "cat": cat, "ts": float(start), "dur": float(dur),
               "pid": self.pid, "tid": tid, "depth": depth}
        if args:
            rec["args"] = dict(args)
        with self._lock:
            if len(self._spans) >= self.max_spans:
                pass_drop = self._counters.get("telemetry.spans_dropped")
                if pass_drop is None:
                    pass_drop = self._counters.setdefault(
                        "telemetry.spans_dropped",
                        Counter("telemetry.spans_dropped", self._lock))
                pass_drop.value += 1  # already under self._lock
                return
            self._spans.append(rec)

    def span_total(self, name: str) -> float:
        """Summed duration (seconds) of all spans with this name."""
        with self._lock:
            return sum(s["dur"] for s in self._spans if s["name"] == name)

    @property
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    # ------------------------------------------------------------------
    # snapshot / merge — the cross-process aggregation path
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able state dump (counters, gauges, histograms, spans)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {n: h.as_dict() for n, h in self._histograms.items()},
                "spans": [dict(s) for s in self._spans],
                "meta": {"pid": self.pid},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()

    def drain(self) -> dict:
        """Snapshot then reset: the delta a pool worker ships back.

        Because the worker's registry starts empty and is reset after
        every drain, each returned snapshot is a pure delta — merging
        it into the parent never double-counts.
        """
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot`/:meth:`drain` delta into this registry."""
        if not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            g = self.gauge(name)  # register even when unset
            if value is not None:  # unset stays unset across merges
                g.set(value)
        for name, h in snap.get("histograms", {}).items():
            mine = self.histogram(name, buckets=h["bounds"])
            if list(mine.bounds) != [float(b) for b in h["bounds"]]:
                raise TelemetryError(
                    f"histogram {name} bucket mismatch on merge: "
                    f"{mine.bounds} vs {h['bounds']}")
            with self._lock:
                for i, c in enumerate(h["counts"]):
                    mine.counts[i] += c
                mine.total += h["sum"]
                mine.count += h["count"]
        for s in snap.get("spans", []):
            self.add_span(s["name"], s["ts"], s["dur"], cat=s.get("cat", ""),
                          tid=s.get("tid"), depth=s.get("depth", 0),
                          args=s.get("args"))


# ----------------------------------------------------------------------
# The active registry
# ----------------------------------------------------------------------
_GLOBAL: Telemetry | NullTelemetry = NullTelemetry()
# Context-local override (used by remap_profiled and capture helpers);
# contextvars give each thread/task its own view with a cheap C-level get.
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_telemetry", default=None)


def get_telemetry():
    """The active registry: context-local override, else the global one."""
    tel = _ACTIVE.get()
    return _GLOBAL if tel is None else tel


def set_telemetry(tel) -> None:
    """Install ``tel`` (or ``None`` to disable) as the global registry."""
    global _GLOBAL
    _GLOBAL = NullTelemetry() if tel is None else tel


def enable(**kwargs) -> Telemetry:
    """Install and return a fresh enabled global registry."""
    tel = Telemetry(**kwargs)
    set_telemetry(tel)
    return tel


def disable() -> None:
    """Restore the no-op global registry."""
    set_telemetry(None)


def clear_scope() -> None:
    """Drop this context's :func:`scoped` override (the global registry
    becomes active).  For forked children, which inherit the forking
    thread's context — scoped registry included."""
    _ACTIVE.set(None)


@contextmanager
def scoped(tel):
    """Make ``tel`` the active registry inside the ``with`` block only.

    Context-local: concurrent threads/tasks outside the block keep
    seeing the global registry.
    """
    token = _ACTIVE.set(tel)
    try:
        yield tel
    finally:
        _ACTIVE.reset(token)


def emit_phase_spans(tel, prefix: str, phases_ns: dict, track: str,
                     cat: str = "model", start: float | None = None) -> float:
    """Lay a dict of ``{phase: nanoseconds}`` end to end as spans.

    The bridge from the analytic platform models (Cell DMA ledger, GPU
    ``Breakdown``) into the trace: each phase becomes one span on the
    synthetic ``track``, placed sequentially from ``start`` (default:
    now).  Returns the wall-clock end time, so callers chaining several
    emissions (per-tile ledgers) can keep one continuous timeline.
    """
    t = time.time() if start is None else float(start)
    for phase, ns in phases_ns.items():
        dur = max(0.0, float(ns)) * 1e-9
        tel.add_span(f"{prefix}.{phase}", t, dur, cat=cat, tid=track)
        t += dur
    return t
