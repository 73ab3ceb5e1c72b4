"""High-level multi-stream correction service.

:class:`MultiStreamCorrector` wraps a :class:`~repro.serve.broker
.StreamBroker` with the ergonomics of
:func:`~repro.video.stream.corrected_stream`: open sessions against
coordinate fields and drain several sessions from one loop with
:meth:`~MultiStreamCorrector.merged`.

Typical use — four cameras, one calibration, one fleet, the live
``/metrics`` surface held by the caller around it::

    tel = obs.enable()
    with MetricsServer(telemetry=tel, port=9464):
        with MultiStreamCorrector(workers=4) as svc:
            sessions = [svc.open_stream(src, field, name=f"cam{i}")
                        for i, src in enumerate(sources)]
            for name, frame in svc.merged(sessions):
                sink(name, frame)
"""

from __future__ import annotations

import queue as _queue
import threading

from ..core.lutcache import LUTCache
from ..parallel.ring import DEFAULT_SCHEDULE
from .broker import DEFAULT_SLOT_BUDGET, StreamBroker, StreamSession

__all__ = ["MultiStreamCorrector"]

_DONE = object()


class MultiStreamCorrector:
    """Serve many correction streams from one shared worker fleet.

    Constructor parameters mirror :class:`~repro.serve.broker
    .StreamBroker` (``workers``, ``slot_budget``, ``schedule``,
    ``chunk``, ``context``, ``lut_cache``).

    Like the broker, telemetry is captured at construction — enable or
    scope a registry first if you want per-stream labelled metrics.
    """

    def __init__(self, workers: int = 2,
                 slot_budget: int = DEFAULT_SLOT_BUDGET,
                 schedule: str = DEFAULT_SCHEDULE, chunk: int | None = None,
                 context: str = "fork", lut_cache: LUTCache | None = None):
        self.broker = StreamBroker(workers=workers, slot_budget=slot_budget,
                                   schedule=schedule, chunk=chunk,
                                   context=context, lut_cache=lut_cache)

    # ------------------------------------------------------------------
    def open_stream(self, frames, field, *, name: str | None = None,
                    method: str = "bilinear", fill: float = 0.0,
                    kernel: str = "numpy",
                    depth: int = 2, weight: int = 1, copy: bool = True,
                    deadline_s: float | None = None,
                    pixfmt: str = "rgb",
                    out_size: tuple | None = None) -> StreamSession:
        """Admit one stream; see :meth:`StreamBroker.open`.

        ``pixfmt="yuv420"`` opens a planar zero-copy session over
        :class:`~repro.video.yuv.YUV420Frame` items;
        ``pixfmt="nv12"`` the same over
        :class:`~repro.video.yuv.NV12Frame` items.
        ``out_size=(width, height)`` delivers through a fused
        correct+downscale composed table.
        """
        return self.broker.open(frames, field, name=name, method=method,
                                fill=fill, kernel=kernel,
                                depth=depth, weight=weight, copy=copy,
                                deadline_s=deadline_s, pixfmt=pixfmt,
                                out_size=out_size)

    def merged(self, sessions):
        """Drain several sessions concurrently; yield ``(name, frame)``.

        One pump thread per session feeds a single queue, so a slow
        stream never blocks delivery of the others (order across
        streams is arrival order; order *within* each stream stays
        strict).  Each pump pulls its next frame only once its last one
        has been yielded, so at most ``len(sessions)`` frames wait in
        the queue and a slow consumer backpressures every session.
        The generator owns the drain: on early close it closes every
        session so their slots return to the budget, and every pump
        exits.  Sessions must use ``copy=True`` (the default) — frames
        cross threads here.
        """
        sessions = list(sessions)
        out: _queue.SimpleQueue = _queue.SimpleQueue()
        stop = threading.Event()

        def pump(s: StreamSession, ready: threading.Semaphore):
            it = iter(s)
            try:
                while True:
                    ready.acquire()  # released on our turn, or on stop
                    if stop.is_set():
                        return
                    try:
                        frame = next(it)
                    except StopIteration:
                        return
                    out.put((s.name, frame, None, ready))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                out.put((s.name, None, exc, None))
            finally:
                out.put((s.name, _DONE, None, None))

        readies = [threading.Semaphore(1) for _ in sessions]
        threads = [threading.Thread(target=pump, args=(s, ready),
                                    name=f"serve-drain-{s.name}", daemon=True)
                   for s, ready in zip(sessions, readies)]
        for t in threads:
            t.start()
        active = len(sessions)
        try:
            while active:
                name, frame, exc, ready = out.get()
                if exc is not None:
                    raise exc
                if frame is _DONE:
                    active -= 1
                    continue
                yield name, frame
                ready.release()  # this stream may pull its next frame
        finally:
            stop.set()
            for ready in readies:  # wake pumps parked on their turn
                ready.release()
            for s in sessions:
                s.close()
            for t in threads:
                t.join(timeout=2.0)

    def stats(self) -> dict:
        return self.broker.stats()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the broker (all sessions, the fleet); idempotent."""
        self.broker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
