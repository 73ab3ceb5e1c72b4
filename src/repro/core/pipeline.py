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

Streaming goes through the one stream front end,
:func:`repro.video.stream.corrected_stream`: ``correct_stream`` hands
this corrector's table to the same ``sync``/``pipelined``/``ring``
engine dispatch, so the table is resolved once (by
:func:`~repro.video.pixfmt.plane_luts`, the resolver every front end
shares) and every engine reports the same ``stream.*`` metrics.  For
tiled or multi-process execution of single frames, the executors in
:mod:`repro.parallel` run ``corrector.lut`` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..errors import MappingError
from ..obs.telemetry import get_telemetry
from .image import Frame
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .lens import LensModel
from .mapping import RemapField, perspective_map
from . import kernel_tiers
from .remap import RemapLUT

__all__ = ["StreamStats", "FisheyeCorrector"]


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
    fill:
        Value of out-of-FOV output pixels.
    kernel:
        Kernel-tier request, one of
        :data:`~repro.core.kernel_tiers.KERNEL_CHOICES`
        (``auto``/``numpy``/``fixed``/``compiled``); resolved once at
        construction via
        :func:`~repro.core.kernel_tiers.resolve_tier` and applied to
        the LUT with :meth:`~repro.core.remap.RemapLUT.with_tier`, so
        cache-shared tables are never mutated.
    lut_cache:
        Optional :class:`~repro.core.lutcache.LUTCache`.  When given,
        the remap table is fetched through it instead of being built
        unconditionally, so correctors sharing a cache skip the most
        expensive per-stream stage.
    out_size:
        Optional ``(width, height)`` to deliver at.  Builds one
        **fused** correct+downscale table (the plain 4-tap composition
        :func:`~repro.video.pixfmt.plane_luts` builds for every stream
        front end, so every engine can publish it): every frame pays a
        single gather pass whose traffic scales with the delivered
        size, not the correction's intermediate.  With a ``lut_cache``
        the fused table is keyed by the constituent fields' content
        hashes, so it warm-starts like a plain one.
    """

    def __init__(self, field: RemapField, method: str = "bilinear",
                 fill: float = 0.0, lut_cache=None, kernel: str = "numpy",
                 out_size: Optional[tuple] = None):
        from ..video.pixfmt import PIXFMTS

        self.field = field
        self.method = method
        self.fill = fill
        self.kernel = kernel_tiers.resolve_tier(kernel)
        self.lut_cache = lut_cache
        self.out_size = PIXFMTS["rgb"].check_out_size(out_size)
        self.fused = self.out_size is not None
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
                   method: str = "bilinear", fill: float = 0.0,
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
        return cls(field, method=method, fill=fill,
                   lut_cache=lut_cache, kernel=kernel, out_size=out_size)

    # ------------------------------------------------------------------
    @property
    def lut(self) -> RemapLUT:
        """The frozen remap table (built lazily, reused across frames):
        the packed-format table of :func:`~repro.video.pixfmt.plane_luts`,
        the same one :func:`~repro.video.stream.corrected_stream` builds
        for this field."""
        if self._lut is None:
            from ..video.pixfmt import PIXFMTS, plane_luts

            cache = self.lut_cache
            if cache is not None:
                hits0, misses0 = cache.hits, cache.misses
            self._lut = plane_luts(PIXFMTS["rgb"], self.field, self.out_size,
                                   cache, self.kernel, method=self.method,
                                   fill=self.fill)[0]
            if cache is not None:
                self._cache_hits += cache.hits - hits0
                self._cache_misses += cache.misses - misses0
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
        if self.out_size is None:
            return self.field.shape
        return self.out_size[1], self.out_size[0]

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
            result = image.with_data(self.lut.apply(image.data, out=out))
        else:
            result = self.lut.apply(np.asarray(image), out=out)
        self._frames_corrected += 1
        if tel.enabled:
            tel.counter("pipeline.frames").inc()
            tel.histogram("pipeline.frame_seconds").observe(time.perf_counter() - t0)
        return result

    def correct_stream(self, frames: Iterable, stats: Optional[StreamStats] = None,
                       engine: str = "sync", **engine_kwargs) -> Iterator:
        """Correct a frame stream lazily through this corrector's table.

        A caller of :func:`repro.video.stream.corrected_stream`'s engine
        dispatch (``engine`` is ``"sync"``, ``"pipelined"`` or
        ``"ring"``, ``engine_kwargs`` as documented there, plus
        ``copy``), so it reports the same ``stream.*`` metrics.  Pass a
        :class:`StreamStats` to accumulate throughput numbers while the
        stream drains.  The ``sync`` and ``ring`` engines reuse output
        buffers unless ``copy=True`` — consume (or copy) each frame
        before advancing, as with any zero-copy decoder API;
        ``pipelined`` frames each own their buffer.
        """
        from ..video.pixfmt import PIXFMTS
        from ..video.stream import _run_engine

        copy = engine_kwargs.pop("copy", False)
        it = _run_engine(lambda: (self.lut,), PIXFMTS["rgb"], frames, copy,
                         engine, fused=self.fused, **engine_kwargs)
        pixels = int(np.prod(self.out_shape))
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                self._frames_corrected += 1
                if stats is not None:
                    stats.frames += 1
                    stats.pixels += pixels
                    stats.seconds += time.perf_counter() - t0
                yield item
        finally:
            it.close()
