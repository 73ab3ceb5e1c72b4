"""High-level correction pipeline: the library's front door.

:class:`FisheyeCorrector` bundles the full workflow the paper's
application implements — configure lens + output view, build the remap
once, then stream frames through it — behind a small API:

.. code-block:: python

    corrector = FisheyeCorrector.for_sensor(
        sensor, lens, out_width=1280, out_height=960, zoom=0.5)
    corrected = corrector.correct(frame)          # one ndarray in/out
    for out in corrector.correct_stream(frames):  # streaming mode
        ...

Execution is pluggable: any object implementing
:class:`RemapExecutor` (``run(lut, image, out=None)``) can be passed,
so the tiled thread-pool and process-pool executors in
:mod:`repro.parallel` and the simulated platforms drop in without the
caller changing shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Protocol

import numpy as np

from ..errors import MappingError, ScheduleError
from ..obs.telemetry import get_telemetry
from .image import Frame
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .lens import LensModel
from .mapping import RemapField, perspective_map
from . import kernel_tiers
from .remap import RemapLUT

__all__ = ["RemapExecutor", "SequentialExecutor", "StreamStats", "FisheyeCorrector"]


class RemapExecutor(Protocol):
    """Anything that can apply a prepared LUT to one frame."""

    def run(self, lut: RemapLUT, image: np.ndarray, out: Optional[np.ndarray] = None
            ) -> np.ndarray:  # pragma: no cover - protocol
        ...


class SequentialExecutor:
    """Single-threaded executor: apply the LUT in one shot."""

    name = "sequential"

    def run(self, lut: RemapLUT, image, out=None):
        return lut.apply(image, out=out)


@dataclass
class StreamStats:
    """Throughput accounting for a correction stream."""

    frames: int = 0
    pixels: int = 0
    seconds: float = 0.0

    @property
    def fps(self) -> float:
        return self.frames / self.seconds if self.seconds > 0 else 0.0

    @property
    def mpixels_per_s(self) -> float:
        return self.pixels / self.seconds / 1e6 if self.seconds > 0 else 0.0


class FisheyeCorrector:
    """End-to-end fisheye distortion corrector.

    Parameters
    ----------
    field:
        The backward coordinate field to correct through (typically
        from :func:`repro.core.mapping.perspective_map`).
    method:
        Interpolation kind (``nearest``/``bilinear``/``bicubic``).
    border, fill:
        Border handling for out-of-FOV output pixels.
    kernel:
        Kernel-tier request, one of
        :data:`~repro.core.kernel_tiers.KERNEL_CHOICES`
        (``auto``/``numpy``/``fixed``/``compiled``); resolved once at
        construction via
        :func:`~repro.core.kernel_tiers.resolve_tier` and applied to
        the LUT with :meth:`~repro.core.remap.RemapLUT.with_tier`, so
        cache-shared tables are never mutated.
    executor:
        Optional :class:`RemapExecutor`; defaults to
        :class:`SequentialExecutor`.
    lut_cache:
        Optional :class:`~repro.core.lutcache.LUTCache`.  When given,
        the remap table is fetched through it instead of being built
        unconditionally, so correctors sharing a cache (or restarting
        against its disk tier) skip the most expensive per-stream
        stage.
    out_size:
        Optional ``(width, height)`` to deliver at.  Builds one
        **fused** correct+downscale table
        (:func:`~repro.core.compose.composed_lut` over an area-style
        :func:`~repro.core.compose.downscale_field`): every frame pays
        a single gather pass whose traffic scales with the delivered
        size, not the correction's intermediate.  With a ``lut_cache``
        the fused table is keyed by the constituent fields' content
        hashes, so it warm-starts like a plain one.
    """

    def __init__(self, field: RemapField, method: str = "bilinear",
                 border: str = "constant", fill: float = 0.0,
                 executor: Optional[RemapExecutor] = None,
                 lut_cache=None, kernel: str = "numpy",
                 out_size: Optional[tuple] = None):
        self.field = field
        self.method = method
        self.border = border
        self.fill = fill
        self.kernel = kernel_tiers.resolve_tier(kernel)
        self.executor = executor or SequentialExecutor()
        self.lut_cache = lut_cache
        if out_size is not None:
            from .compose import downscale_field
            fh, fw = field.shape
            self._outer = downscale_field(int(out_size[0]), int(out_size[1]),
                                          fw, fh)
        else:
            self._outer = None
        self.fused = self._outer is not None
        self._lut: Optional[RemapLUT] = None
        self._frames_corrected = 0
        self._cache_hits = 0
        self._cache_misses = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_sensor(cls, sensor: FisheyeIntrinsics, lens: LensModel,
                   out_width: int, out_height: int, zoom: float = 1.0,
                   yaw: float = 0.0, pitch: float = 0.0, roll: float = 0.0,
                   method: str = "bilinear", border: str = "constant",
                   fill: float = 0.0,
                   executor: Optional[RemapExecutor] = None,
                   lut_cache=None, kernel: str = "numpy",
                   out_size: Optional[tuple] = None) -> "FisheyeCorrector":
        """Build a perspective-view corrector for a fisheye sensor.

        ``zoom`` scales the output focal length relative to the value
        that preserves central spatial resolution (``zoom=1`` keeps the
        centre 1:1; smaller values widen the recovered field of view at
        the cost of central resolution — the trade-off triangle from
        the paper's introduction).
        """
        if zoom <= 0:
            raise MappingError(f"zoom must be positive, got {zoom}")
        # For any lens, dr/dtheta at theta=0 equals the focal; matching
        # the perspective focal to it preserves central resolution.
        focal_out = float(lens.magnification(1e-4)) * zoom
        out = CameraIntrinsics(
            fx=focal_out, fy=focal_out,
            cx=(out_width - 1) / 2.0, cy=(out_height - 1) / 2.0,
            width=out_width, height=out_height,
        )
        field = perspective_map(sensor, lens, out, yaw=yaw, pitch=pitch, roll=roll)
        return cls(field, method=method, border=border, fill=fill, executor=executor,
                   lut_cache=lut_cache, kernel=kernel, out_size=out_size)

    # ------------------------------------------------------------------
    @property
    def lut(self) -> RemapLUT:
        """The frozen remap table (built lazily, reused across frames)."""
        if self._lut is None:
            if self._outer is not None:
                from .compose import composed_lut
                if self.lut_cache is not None:
                    hits0 = self.lut_cache.hits
                    misses0 = self.lut_cache.misses
                self._lut = composed_lut(self._outer, self.field,
                                         method=self.method,
                                         border=self.border, fill=self.fill,
                                         cache=self.lut_cache)
                if self.lut_cache is not None:
                    self._cache_hits += self.lut_cache.hits - hits0
                    self._cache_misses += self.lut_cache.misses - misses0
            elif self.lut_cache is not None:
                hits0, misses0 = self.lut_cache.hits, self.lut_cache.misses
                self._lut = self.lut_cache.get(self.field, method=self.method,
                                               border=self.border, fill=self.fill)
                self._cache_hits += self.lut_cache.hits - hits0
                self._cache_misses += self.lut_cache.misses - misses0
            else:
                self._lut = RemapLUT(self.field, method=self.method,
                                     border=self.border, fill=self.fill)
            if self.kernel != "numpy" and hasattr(self._lut, "with_tier"):
                # non-mutating: cache-fetched tables stay tier-neutral
                # (a supersampled fused table has no Q-format twin and
                # keeps the numpy path)
                self._lut = self._lut.with_tier(self.kernel)
        return self._lut

    def stats(self) -> dict:
        """Counters for this corrector: frames corrected plus its share
        of LUT-cache traffic (and, under ``cache``, the live counters of
        the attached :class:`~repro.core.lutcache.LUTCache`, which may
        be shared with other correctors).

        Under ``slo``, the frame-latency digest from the active
        telemetry registry (end-to-end p50/p95/p99, deadline misses,
        stalls — see :func:`repro.obs.export.slo_summary`), or ``None``
        when telemetry is disabled or no stream has reported latency.
        """
        from ..obs.export import slo_summary
        tel = get_telemetry()
        return {
            "frames_corrected": self._frames_corrected,
            "kernel": self.kernel,
            "fused": self.fused,
            "lut_built": self._lut is not None,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "cache": self.lut_cache.stats() if self.lut_cache is not None else None,
            "slo": slo_summary(tel.snapshot()) if tel.enabled else None,
        }

    @property
    def out_shape(self):
        return self._outer.shape if self._outer is not None else self.field.shape

    def coverage(self) -> float:
        """Fraction of output pixels with source data."""
        return self.field.coverage()

    # ------------------------------------------------------------------
    def correct(self, image, out=None):
        """Correct one frame.

        Accepts a bare ndarray or a :class:`~repro.core.image.Frame`;
        returns the same kind.
        """
        tel = get_telemetry()
        t0 = time.perf_counter() if tel.enabled else 0.0
        if isinstance(image, Frame):
            result = image.with_data(self.executor.run(self.lut, image.data, out=out))
        else:
            result = self.executor.run(self.lut, np.asarray(image), out=out)
        self._frames_corrected += 1
        if tel.enabled:
            tel.counter("pipeline.frames").inc()
            tel.histogram("pipeline.frame_seconds").observe(time.perf_counter() - t0)
        return result

    def correct_stream(self, frames: Iterable, stats: Optional[StreamStats] = None,
                       engine: str = "sync", **engine_kwargs) -> Iterator:
        """Correct a frame stream lazily, reusing one output buffer.

        Pass a :class:`StreamStats` to accumulate throughput numbers
        while the stream drains.  Buffer reuse means each yielded
        array aliases the previous one — consume (or copy) each frame
        before advancing, as with any zero-copy decoder API.

        ``engine`` selects the execution strategy:

        ``"sync"``
            This corrector's own executor, one frame at a time
            (default; honours ``self.executor``).
        ``"pipelined"``
            :func:`repro.parallel.stream.pipelined_stream` — ``depth``
            worker threads keep that many frames in flight; each
            yielded frame owns its buffer.
        ``"ring"``
            :func:`repro.parallel.ring.ring_stream` — persistent
            worker processes over a shared-memory frame ring (a
            one-session :class:`~repro.serve.broker.StreamBroker`);
            ``engine_kwargs`` (``workers``, ``depth``, ``schedule``,
            ``chunk``, ``context``, ``copy``, ``deadline_s``,
            ``stall_timeout_s``) configure it.
        """
        if engine == "sync":
            if engine_kwargs:
                raise ScheduleError(
                    f"engine 'sync' takes no options, got {sorted(engine_kwargs)}")
            yield from self._sync_stream(frames, stats)
        elif engine == "pipelined":
            # lazy import: repro.parallel imports this module
            from ..parallel.stream import pipelined_stream
            yield from self._account(
                pipelined_stream(self, frames, **engine_kwargs), stats,
                count=False)  # correct() already counts each frame
        elif engine == "ring":
            from ..parallel.ring import ring_stream
            yield from self._account(
                ring_stream((self.lut,), frames, **engine_kwargs), stats,
                count=True)
        else:
            raise ScheduleError(
                f"unknown stream engine {engine!r}; known: sync, pipelined, ring")

    def _account(self, inner: Iterator, stats: Optional[StreamStats],
                 count: bool) -> Iterator:
        """Fold a delegated engine's output into this corrector's stats."""
        it = iter(inner)
        while True:
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            elapsed = time.perf_counter() - t0
            if count:
                self._frames_corrected += 1
            if stats is not None:
                stats.frames += 1
                stats.pixels += int(np.prod(self.out_shape))
                stats.seconds += elapsed
            yield item

    def _sync_stream(self, frames: Iterable, stats: Optional[StreamStats]
                     ) -> Iterator:
        tel = get_telemetry()
        buffer = None
        for item in frames:
            data = item.data if isinstance(item, Frame) else np.asarray(item)
            if buffer is None or buffer.shape[: 2] != self.out_shape or buffer.dtype != data.dtype:
                shape = self.out_shape + data.shape[2:]
                buffer = np.empty(shape, dtype=data.dtype)
            t0 = time.perf_counter()
            result = self.executor.run(self.lut, data, out=buffer)
            elapsed = time.perf_counter() - t0
            self._frames_corrected += 1
            if stats is not None:
                stats.frames += 1
                stats.pixels += int(np.prod(self.out_shape))
                stats.seconds += elapsed
            if tel.enabled:
                tel.counter("pipeline.frames").inc()
                tel.histogram("pipeline.frame_seconds").observe(elapsed)
            if isinstance(item, Frame):
                yield item.with_data(result)
            else:
                yield result
