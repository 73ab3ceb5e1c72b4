"""Process-based fork-join executor: the paper's per-frame baseline.

:class:`SharedMemoryExecutor` mirrors
:class:`repro.parallel.threadpool.ThreadedExecutor` without a shared
GIL.  Everything — source frame, output frame *and the LUT tables*
(int32 indices, validity mask, derived weight rows) — lives in named
shared-memory segments that workers attach to by name.  Nothing large
is ever pickled, the table exists once in physical memory no matter
the worker count, and the setup works under any multiprocessing start
method (``fork`` or ``spawn``).  Workers run the fused
:meth:`~repro.core.remap.RemapLUT.apply_rows_into` kernel straight
into the shared output, so a steady-state frame costs one frame-copy
in, the remap, and one frame-copy out — the communication/computation
split the Cell BE model prices as DMA.

It is a *fork-join* executor: ``run`` dispatches one frame's bands and
waits for all of them before returning.  The streaming broker
(:mod:`repro.serve.broker`, single-stream via
:func:`repro.parallel.ring.ring_stream`) removes that barrier (frame
*k+1*'s bands start while frame *k* drains).  Both share the segment
and worker-bootstrap plumbing of :mod:`repro.parallel.shmseg`, which
also hardens the segment lifecycle: every parent-owned segment group
is finalizer/atexit-backed, so dropping an executor without
``close()`` (or crashing a worker mid-run) cannot leak named segments
or provoke ``resource_tracker`` warnings.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from ..errors import ScheduleError
from ..core.remap import RemapLUT
from ..obs.logsetup import get_logger
from ..obs.telemetry import get_telemetry
from .partition import row_bands
from .shmseg import (
    FrameSegments,
    SharedTables,
    attach_slot,
    attach_tables,
    init_worker_telemetry,
    worker_delta,
)

__all__ = ["SharedMemoryExecutor"]

log = get_logger(__name__)

# Worker-side state, installed by the initializer in each child.
_SHM_STATE = None


def _init_shm_worker(table_spec, lut_meta, slot_spec, telemetry_enabled=False):
    """Attach to every shared segment and rebuild a zero-copy LUT."""
    global _SHM_STATE
    init_worker_telemetry(telemetry_enabled)
    segments, (lut,) = attach_tables(table_spec, lut_meta)
    slot_segments, (src,), (dst,) = attach_slot(slot_spec)
    _SHM_STATE = (segments + slot_segments, lut, src, dst)


def _run_shm_band(rows):
    """Fused-kernel correction of one band, written in place."""
    row0, row1 = rows
    _, lut, src, dst = _SHM_STATE
    tel = get_telemetry()
    t0 = time.perf_counter() if tel.enabled else 0.0
    lut.apply_rows_into(src, row0, row1, dst[row0:row1])
    if tel.enabled:
        tel.histogram("executor.band_seconds").observe(time.perf_counter() - t0)
    return row1 - row0, worker_delta()


class SharedMemoryExecutor:
    """Tile-parallel correction with frames *and* LUT in shared memory.

    The tables the LUT's tier executes (indices, mask and the derived
    weight rows) are published once into named segments; each worker
    attaches by name and reconstructs a zero-copy
    :class:`~repro.core.remap.RemapLUT` view over them.  Per frame,
    workers receive only ``(row0, row1)`` tuples and write their bands
    straight into the shared destination via ``apply_rows_into`` — no
    arrays are pickled per task, per frame, or per worker.

    Parameters
    ----------
    lut:
        The remap table, published once into shared memory.
    frame_shape, frame_dtype:
        Geometry of the source frames (the segments are sized once;
        ``run`` only accepts frames of that shape/dtype).
    workers:
        Process count.
    bands_per_worker:
        Work units per worker.
    context:
        Multiprocessing start method (``"fork"`` default; ``"spawn"``
        works because nothing relies on inherited memory).
    """

    name = "sharedmem"

    def __init__(self, lut: RemapLUT, frame_shape, frame_dtype=np.uint8,
                 workers: int = 2, bands_per_worker: int = 2,
                 context: str = "fork"):
        if workers < 1:
            raise ScheduleError(f"workers must be >= 1, got {workers}")
        if bands_per_worker < 1:
            raise ScheduleError(f"bands_per_worker must be >= 1, got {bands_per_worker}")
        frame_shape = tuple(frame_shape)
        if frame_shape[:2] != lut.src_shape:
            raise ScheduleError(
                f"frame shape {frame_shape} does not match LUT source {lut.src_shape}")
        self.lut = lut
        self.workers = workers
        self.bands_per_worker = bands_per_worker
        self.frame_shape = frame_shape
        self.frame_dtype = np.dtype(frame_dtype)
        self.out_shape = lut.out_shape + frame_shape[2:]
        self._pool = None
        self._closed = False
        self._frame_seq = 0  # lineage: frame_id carried on executor spans
        self._frames = FrameSegments([self.frame_shape], self.frame_dtype,
                                     [self.out_shape])
        self._tables = SharedTables(lut)
        self._segment_groups = [self._frames, self._tables]
        (self.src_view,) = self._frames.src_views
        (self.dst_view,) = self._frames.dst_views
        ctx = mp.get_context(context)
        log.debug("starting %d %s workers (shared-memory executor)",
                  self.workers, context)
        self._pool = ctx.Pool(
            processes=self.workers,
            initializer=_init_shm_worker,
            initargs=(self._tables.spec, self._tables.meta, self._frames.spec,
                      get_telemetry().enabled),
        )

    # ------------------------------------------------------------------
    def close(self):
        """Terminate workers and release shared segments (idempotent).

        Each segment group also carries its own
        :func:`weakref.finalize` finalizer, so the same cleanup runs at
        GC or interpreter exit if the executor is dropped without
        ``close()``.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
        self.src_view = None
        self.dst_view = None
        for group in self._segment_groups:
            group.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(self, lut: RemapLUT, image, out=None):
        """Correct one frame (``lut`` must be the bound LUT)."""
        if self._closed:
            raise ScheduleError("executor already closed")
        if lut is not self.lut:
            raise ScheduleError(
                f"{type(self).__name__} is bound to the LUT given at construction")
        image = np.asarray(image)
        if image.shape != self.frame_shape or image.dtype != self.frame_dtype:
            raise ScheduleError(
                f"frame {image.shape}/{image.dtype} does not match bound geometry "
                f"{self.frame_shape}/{self.frame_dtype}")
        np.copyto(self.src_view, image)
        self._run_bands()
        if out is not None:
            np.copyto(out, self.dst_view)
            return out
        return self.dst_view.copy()

    def _run_bands(self):
        """Fan one frame's bands out to the pool, with telemetry.

        Parent-side: frame latency histogram + span, fan-out counters.
        Worker-side deltas riding back on the task results are merged
        into the parent registry here — the process-safe aggregation
        path (workers never share registries; they ship snapshots).
        """
        tel = get_telemetry()
        h, w = self.lut.out_shape
        bands = [(t.row0, t.row1) for t in
                 row_bands(h, w, min(h, self.workers * self.bands_per_worker))]
        frame_id = self._frame_seq
        self._frame_seq += 1
        if not tel.enabled:
            self._pool.map(_run_shm_band, bands)
            return
        t0 = time.perf_counter()
        results = self._pool.map(_run_shm_band, bands)
        dt = time.perf_counter() - t0
        tel.counter("executor.frames").inc()
        tel.counter("executor.bands").inc(len(bands))
        tel.histogram("executor.frame_seconds").observe(dt)
        tel.add_span("executor.frame", time.time() - dt, dt, cat=self.name,
                     args={"frame_id": frame_id, "bands": len(bands),
                           "workers": self.workers})
        band_total = 0.0
        for _, delta in results:
            if delta:
                h = delta.get("histograms", {}).get("executor.band_seconds")
                if h:
                    band_total += h["sum"]
                tel.merge(delta)
        tel.histogram("executor.fanout_seconds").observe(
            max(0.0, dt - band_total / self.workers))
