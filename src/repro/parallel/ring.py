"""The single-stream ring: one stream on a one-session broker.

The paper's Cell BE result rests on double buffering — DMA of tile
*k+1* overlaps computation of tile *k*.  The fork-join executors in
:mod:`~repro.parallel.procpool` do not have that property at frame
granularity: ``run`` dispatches one frame's bands, waits for all of
them, and returns before the next frame may even be decoded.
:func:`ring_stream` lifts the overlap into the shipping host pipeline
by running the stream as the only session of a
:class:`~repro.serve.broker.StreamBroker`: a bounded ring of ``depth``
shared-memory frame slots (backpressure keeps memory at ``depth``
frames however slow the consumer is), a decoder thread filling free
slots, persistent workers pulling bands from one shared queue — frame
*k+1*'s bands start the moment a worker frees up, so the
``dynamic``/``guided`` policies that
:func:`repro.parallel.schedule.simulate` models are executed, not
simulated — and strictly in-order delivery.  The broker's metric
families, stall watchdog, flight recorder and frame lineage (see
:mod:`repro.serve.broker`) cover the ring like any other session.

:func:`plan_bands` chooses the band granularity for every session;
:data:`DEFAULT_SCHEDULE` is the policy every front end defaults to.
"""

from __future__ import annotations

import math
from itertools import chain

from ..errors import ScheduleError
from .partition import row_bands

__all__ = ["ring_stream", "plan_bands", "MAX_RING_DEPTH", "RING_SCHEDULES",
           "DEFAULT_SCHEDULE"]

#: hard cap on ring depth — each slot holds a full input + output frame
#: in shared memory, so unbounded depth is an unbounded allocation.
MAX_RING_DEPTH = 32

#: band-scheduling policies the fleet executes (schedule.simulate models
#: the same three; ``static_cyclic`` is meaningless on a shared queue).
RING_SCHEDULES = ("static", "dynamic", "guided")

#: the band policy of every front end unless a caller picks another:
#: a frame ships as a few geometrically shrinking runs (9 for 480 rows
#: on 2 workers, where ``dynamic`` sends 16 bands), so each frame costs
#: fewer task messages and completions.
DEFAULT_SCHEDULE = "guided"


def plan_bands(height: int, workers: int, schedule: str = DEFAULT_SCHEDULE,
               chunk: int | None = None):
    """Cut ``height`` output rows into ``(row0, row1)`` work items.

    All policies execute on the shared work queue (workers pull the
    next item when free); the policy chooses granularity:

    ``static``
        One contiguous band per worker — the fork-join executors'
        layout, kept for apples-to-apples comparisons.
    ``dynamic``
        Fixed ``chunk``-row bands (default ``height // (8 * workers)``,
        at least 1): many small units, best balance on skewed maps.
    ``guided``
        Geometrically shrinking bands, ``max(chunk, remaining / (2 *
        workers))`` rows each — fewer dispatches than ``dynamic`` with
        nearly its balance (the same formula
        :func:`repro.parallel.schedule.simulate` replays).
    """
    if height < 1:
        raise ScheduleError(f"height must be >= 1, got {height}")
    if workers < 1:
        raise ScheduleError(f"workers must be >= 1, got {workers}")
    if schedule not in RING_SCHEDULES:
        raise ScheduleError(
            f"unknown ring schedule {schedule!r}; known: {RING_SCHEDULES}")
    if schedule == "static":
        return [(t.row0, t.row1) for t in row_bands(height, 1, workers)]
    if chunk is None:
        chunk = max(1, height // (8 * workers))
    if chunk < 1:
        raise ScheduleError(f"chunk must be >= 1, got {chunk}")
    if schedule == "dynamic":
        return [(r0, min(r0 + chunk, height)) for r0 in range(0, height, chunk)]
    bands = []
    row, remaining = 0, height
    while row < height:
        size = min(max(chunk, math.ceil(remaining / (2 * workers))), height - row)
        bands.append((row, row + size))
        row += size
        remaining -= size
    return bands


def ring_stream(luts, frames, copy: bool = False, *,
                workers: int = 2, depth: int = 2,
                schedule: str = DEFAULT_SCHEDULE,
                chunk: int | None = None, context: str = "fork",
                stall_timeout_s: float | None = None, flight_dir=None,
                pixfmt: str | None = None, **session):
    """Correct ``frames`` through a one-session broker; yield in order.

    ``luts`` is the tuple of the pixel format's distinct LUTs, by LUT
    index (see :func:`~repro.video.pixfmt.plane_luts`): ``(lut,)`` for
    packed frames, ``(luma, chroma)`` for
    :class:`~repro.video.yuv.YUV420Frame` and
    :class:`~repro.video.yuv.NV12Frame` sources.  ``pixfmt`` defaults
    to the first frame's kind.  The broker gets ``workers`` processes
    and a slot budget of ``depth`` (at most :data:`MAX_RING_DEPTH`); it
    starts on the first frame, so an empty source costs nothing, and is
    closed when the generator finishes or is abandoned.
    ``copy=False`` (default) yields zero-copy views of the slot
    buffers, recycled when the consumer advances.  ``session`` passes
    ``deadline_s`` and ``name`` on to the session.
    """
    if depth > MAX_RING_DEPTH:
        raise ScheduleError(
            f"depth {depth} exceeds MAX_RING_DEPTH ({MAX_RING_DEPTH}); "
            f"each slot allocates a full frame pair in shared memory")
    from ..serve.broker import StreamBroker
    from ..video.pixfmt import pixfmt_of

    it = iter(frames)
    first = next(it, None)
    if first is None:
        return
    if pixfmt is None:
        pixfmt = pixfmt_of(first).name
    luts = tuple(luts)
    broker = StreamBroker(workers=workers, slot_budget=depth,
                          schedule=schedule, chunk=chunk, context=context,
                          stall_timeout_s=stall_timeout_s,
                          flight_dir=flight_dir)
    try:
        yield from broker._admit(chain([first], it), lambda: (None, luts),
                                 depth=depth, copy=copy, pixfmt=pixfmt,
                                 **session)
    finally:
        broker.close()
