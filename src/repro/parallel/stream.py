"""Software-pipelined stream correction on real threads.

The streaming analogue of DMA double buffering: while the consumer
handles corrected frame ``k``, a worker thread is already correcting
frame ``k+1`` (and, at higher depth, ``k+2``...).  On a real multicore
host this overlaps source decoding/generation with the remap; results
are delivered strictly in order.

Because each in-flight frame owns its output buffer, ``depth`` buffers
are live at once — the same memory/overlap trade the Cell model's
double buffering prices.  ``depth`` is therefore capped at
:data:`MAX_STREAM_DEPTH`: past that point the "pipeline" is just an
unbounded frame allocator.  (For process-level parallelism with
*bounded* shared-memory buffers, see
:func:`repro.parallel.ring.ring_stream`.)

When a :mod:`repro.obs` registry is enabled the stream reports the
same surface as :func:`repro.video.stream.corrected_stream`:
``stream.frames`` counter, ``stream.frame_seconds`` histogram, a
``stream.fps`` end-to-end rate gauge, and one ``stream.frame`` span
per delivered frame.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator

import numpy as np

from ..errors import ScheduleError
from ..core.image import Frame
from ..core.pipeline import FisheyeCorrector
from ..obs.telemetry import get_telemetry

__all__ = ["pipelined_stream", "MAX_STREAM_DEPTH"]

#: hard cap on in-flight frames — each one owns a full output buffer,
#: so depth is a memory budget, not a free throughput knob.
MAX_STREAM_DEPTH = 64


def pipelined_stream(corrector: FisheyeCorrector, frames: Iterable,
                     depth: int = 2) -> Iterator:
    """Correct ``frames`` with ``depth`` corrections in flight.

    Parameters
    ----------
    corrector:
        The configured corrector (its executor runs inside the worker
        threads; a :class:`~repro.parallel.threadpool.ThreadedExecutor`
        composes, giving pipeline + tile parallelism).
    frames:
        Any iterable of ndarrays or :class:`~repro.core.image.Frame`.
    depth:
        Maximum frames in flight (1 = plain sequential behaviour with
        a worker thread).  Must be within ``[1, MAX_STREAM_DEPTH]`` —
        every in-flight frame allocates its own output buffer, so an
        oversized depth is an unbounded allocation, not a speedup.

    Yields
    ------
    Corrected frames, in input order.  Unlike
    :meth:`FisheyeCorrector.correct_stream`, each yielded frame owns
    its buffer (no reuse), so holding references is safe.
    """
    if depth < 1:
        raise ScheduleError(f"depth must be >= 1, got {depth}")
    if depth > MAX_STREAM_DEPTH:
        raise ScheduleError(
            f"depth {depth} exceeds MAX_STREAM_DEPTH ({MAX_STREAM_DEPTH}); "
            f"each in-flight frame owns a full output buffer")

    def work(item):
        if isinstance(item, Frame):
            return item.with_data(corrector.correct(item.data))
        return corrector.correct(np.asarray(item))

    tel = get_telemetry()
    stream_t0 = time.perf_counter() if tel.enabled else 0.0
    frames_done = 0
    with ThreadPoolExecutor(max_workers=depth, thread_name_prefix="stream") as pool:
        pending = []
        iterator = iter(frames)
        exhausted = False
        while True:
            # keep the pipe full
            while not exhausted and len(pending) < depth:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                pending.append(pool.submit(work, item))
            if not pending:
                return
            if not tel.enabled:
                yield pending.pop(0).result()
                continue
            wall0 = time.time()
            t0 = time.perf_counter()
            result = pending.pop(0).result()
            now = time.perf_counter()
            frames_done += 1
            tel.counter("stream.frames").inc()
            tel.histogram("stream.frame_seconds").observe(now - t0)
            tel.add_span("stream.frame", wall0, now - t0, cat="stream",
                         args={"depth": depth})
            if now > stream_t0:
                tel.gauge("stream.fps").set(frames_done / (now - stream_t0))
            yield result
