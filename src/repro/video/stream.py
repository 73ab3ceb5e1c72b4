"""Frame streams: the input/output sides of the streaming-video pipeline.

:class:`SyntheticStream` produces a deterministic moving scene (a
panning crop of a larger world image) rendered through the fisheye
model frame by frame — the closest laptop-scale stand-in for a live
camera feed, exercising exactly the per-frame code path (the remap)
while the per-stream work (map/LUT construction) is amortized, as in
the paper's real-time scenario.

:func:`corrected_stream` is the matching output side and the one stream
front end: it freezes the remap tables once
(:func:`~repro.video.pixfmt.plane_luts`, optionally through a
:class:`~repro.core.lutcache.LUTCache`, so stream *restarts* skip the
build entirely) and then hands the frames to one of three engines —
``sync`` (the fused :meth:`~repro.core.remap.RemapLUT.apply_into`
kernel inline, one reused output buffer, zero per-frame allocations in
the steady state), ``pipelined`` (worker threads, ``depth`` frames in
flight) or ``ring`` (persistent worker processes over shared memory).
:meth:`~repro.core.pipeline.FisheyeCorrector.correct_stream` streams
through the same dispatch, so every engine reports the same
``stream.*`` metrics whichever front end started it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ..errors import ImageFormatError, ScheduleError
from ..obs.telemetry import get_telemetry
from ..core.image import GRAY8, Frame
from ..core.mapping import RemapField
from .distort import FisheyeRenderer
from .pixfmt import get_pixfmt, plane_luts

__all__ = ["SyntheticStream", "panning_crops", "corrected_stream",
           "MAX_STREAM_DEPTH"]

#: hard cap on in-flight frames of the ``pipelined`` engine — each one
#: owns a full output buffer, so depth is a memory budget, not a free
#: throughput knob.
MAX_STREAM_DEPTH = 64


def panning_crops(world: np.ndarray, width: int, height: int, frames: int,
                  step: int = 4) -> Iterator[np.ndarray]:
    """Yield ``frames`` crops sliding across a larger world image.

    The pan wraps with reflection at the borders so any frame count is
    valid.
    """
    world = np.asarray(world)
    if world.ndim != 2:
        raise ImageFormatError(f"world image must be 2-D, got shape {world.shape}")
    wh, ww = world.shape
    if height > wh or width > ww:
        raise ImageFormatError(
            f"crop {width}x{height} larger than world {ww}x{wh}")
    if frames < 1 or step < 0:
        raise ImageFormatError("frames must be >= 1 and step >= 0")
    max_x = ww - width
    max_y = wh - height
    for k in range(frames):
        # triangle-wave pan across both axes
        tx = (k * step) % (2 * max_x) if max_x else 0
        ty = (k * step // 2) % (2 * max_y) if max_y else 0
        x0 = tx if tx <= max_x else 2 * max_x - tx
        y0 = ty if ty <= max_y else 2 * max_y - ty
        yield world[y0:y0 + height, x0:x0 + width]


def _stream_telemetry(inner: Iterator, label: str | None = None,
                      fused: bool = False, counted: bool = False,
                      planes: tuple = ()) -> Iterator:
    """Wrap an engine with the standard stream metric surface.

    ``stream.frame_seconds`` times each whole ``next()`` of ``inner``.
    ``label`` additionally emits the per-stream labelled series
    (``stream.frames{stream="..."}`` etc., see
    :func:`repro.obs.export.labeled`) next to the aggregate ones;
    ``planes`` (the format's plane labels, e.g. ``y``/``u``/``v`` or
    ``y``/``uv``) ticks one ``stream.frames{plane=...}`` counter per
    plane, and ``fused=True`` (a correct+downscale composed table on
    the path) ticks ``stream.frames{fused="true"}``.
    ``counted=True`` skips ``stream.frames`` and its ``stream=`` twin
    for engines that count their deliveries themselves (a broker
    session), so every frame is counted once.
    Closing the wrapper (consumer ``break`` / ``GeneratorExit``)
    explicitly closes ``inner`` so a delegated engine tears down even
    when the generator chain is kept alive by a reference cycle.
    """
    tel = get_telemetry()
    it = iter(inner)
    try:
        if not tel.enabled:
            yield from it
            return
        from ..obs.export import labeled
        frames_names = []
        if not counted:
            frames_names.append("stream.frames")
            if label:
                frames_names.append(labeled("stream.frames", stream=label))
        if fused:
            frames_names.append(labeled("stream.frames", fused="true"))
        frames_names += [labeled("stream.frames", plane=p) for p in planes]
        fps_name = labeled("stream.fps", stream=label) if label \
            else "stream.fps"
        stream_t0 = time.perf_counter()
        frames_done = 0
        while True:
            t0 = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            now = time.perf_counter()
            frames_done += 1
            for name in frames_names:
                tel.counter(name).inc()
            tel.histogram("stream.frame_seconds").observe(now - t0)
            if now > stream_t0:
                fps = frames_done / (now - stream_t0)
                tel.gauge("stream.fps").set(fps)
                if label:
                    tel.gauge(fps_name).set(fps)
            yield item
    finally:
        close = getattr(it, "close", None)
        if close is not None:
            close()


def corrected_stream(frames: Iterable, field: RemapField,
                     method: str = "bilinear", fill: float = 0.0,
                     lut_cache=None,
                     copy: bool = False, engine: str = "sync",
                     kernel: str = "numpy",
                     stream_label: str | None = None,
                     pixfmt: str = "rgb",
                     out_size: tuple | None = None,
                     **engine_kwargs) -> Iterator:
    """Correct a frame stream through the fused zero-allocation kernel.

    Parameters
    ----------
    frames:
        Iterable of ndarrays or :class:`~repro.core.image.Frame`
        (``pixfmt="rgb"``), or the frame class of ``pixfmt``
        (:class:`~repro.video.yuv.YUV420Frame`,
        :class:`~repro.video.yuv.NV12Frame`).
    field:
        Backward coordinate field shared by every frame.
    method, fill:
        LUT build parameters.
    lut_cache:
        Optional :class:`~repro.core.lutcache.LUTCache`; when given the
        table is fetched from it (memory or mmap'd disk tier) instead
        of rebuilt, which is what makes stream restarts cheap.
    copy:
        When false (default) every yielded frame aliases one reused
        output buffer — consume or copy it before advancing, like any
        zero-copy decoder API.  When true each frame owns its data.
    kernel:
        Kernel-tier request (``auto``/``numpy``/``fixed``/``compiled``,
        see :mod:`repro.core.kernel_tiers`); resolved once up front and
        applied with :meth:`~repro.core.remap.RemapLUT.with_tier`.  The
        ring engine inherits the tier: workers re-select it from the
        shared-table metadata, so every band runs the same arithmetic.
    engine:
        ``"sync"`` (default) runs the fused kernel inline;
        ``"pipelined"`` keeps ``depth`` frames (``engine_kwargs``,
        default 2, at most :data:`MAX_STREAM_DEPTH`) in flight on
        worker threads, each yielded frame owning its buffer whatever
        ``copy`` says; ``"ring"`` routes the stream through
        :func:`~repro.parallel.ring.ring_stream`, a one-session
        :class:`~repro.serve.broker.StreamBroker` of persistent worker
        processes (``engine_kwargs``: ``workers``, ``depth``,
        ``schedule``, ``chunk``, ``context``, ``deadline_s``,
        ``stall_timeout_s``, ``flight_dir``), keeping decode, remap
        and delivery overlapped across in-flight frames.  Every engine
        reports the same ``stream.*`` metric surface.
    stream_label:
        Optional stream name; when set, the per-stream labelled metric
        series (``stream.frames{stream="..."}``,
        ``stream.fps{stream="..."}`` — see
        :func:`repro.obs.export.labeled`) are emitted next to the
        aggregate ones, matching what :mod:`repro.serve` reports for
        each multiplexed session (the ring names its session after it).
    pixfmt:
        ``"rgb"`` (default) treats every item as a packed 2-D/3-D
        array remapped channel-interleaved.  ``"yuv420"`` takes the
        planar zero-copy fast path: items must be
        :class:`~repro.video.yuv.YUV420Frame`, ``field`` describes the
        full-resolution luma geometry, and the half-resolution chroma
        field/LUT is derived from it
        (:func:`~repro.core.mapping.chroma_half_field`) — no RGB
        round-trip ever happens, so a 1080p frame touches ~half the
        bytes of the packed path.  ``"nv12"`` is the same planar
        pipeline over :class:`~repro.video.yuv.NV12Frame` items: the
        interleaved UV plane is corrected by one 2-channel apply of
        the same chroma table.  Each names a row of
        :data:`~repro.video.pixfmt.PIXFMTS`; every engine supports all
        three, and the ring engine schedules per-plane bands.  An
        unknown format, or an ``out_size`` the format cannot deliver,
        raises :class:`~repro.errors.ImageFormatError`.
    out_size:
        Optional ``(width, height)`` to deliver at, through one
        **fused** correct+downscale composed table (per plane on
        planar formats) — the per-frame gather traffic then scales
        with the delivered size, not the correction's intermediate.
        Emits the ``stream.frames{fused="true"}`` series.

    Yields
    ------
    Corrected frames, same kind as the input items.
    """
    fmt = get_pixfmt(pixfmt)
    out_size = fmt.check_out_size(out_size)

    def make_luts():
        # the field only builds the tables: once they are built, neither
        # this generator nor the recipe keeps it for the rest of the stream
        nonlocal field
        luts = plane_luts(fmt, field, out_size, lut_cache, kernel,
                          method=method, fill=fill)
        field = None
        return luts

    yield from _run_engine(
        make_luts, fmt, frames, copy, engine, stream_label,
        out_size is not None, **engine_kwargs)


def _run_engine(make_luts, fmt, frames, copy, engine, stream_label=None,
                fused=False, **engine_kwargs):
    """Drive ``frames`` of ``fmt`` through ``engine`` over the tables
    ``make_luts()`` returns (the format's LUT tuple), wrapped in the
    standard ``stream.*`` metric surface.

    The one stream dispatch: :func:`corrected_stream` and
    :meth:`~repro.core.pipeline.FisheyeCorrector.correct_stream` both
    end here.  ``sync`` and ``pipelined`` build the tables at once; the
    ring builds them after its fleet forks, so the workers never map
    the parent's private copy (see
    :func:`~repro.parallel.ring.ring_stream`).
    """
    labels = dict(label=stream_label, fused=fused, planes=fmt.plane_labels)
    if engine == "ring":
        # lazy import: keeps repro.video free of the parallel layer
        # unless the ring engine is actually requested
        from ..parallel.ring import ring_stream
        yield from _stream_telemetry(
            ring_stream(make_luts, frames, copy=copy, pixfmt=fmt.name,
                        name=stream_label, **engine_kwargs),
            counted=True, **labels)
        return
    if engine == "pipelined":
        inner = _pipelined_stream(make_luts(), fmt, frames, **engine_kwargs)
    elif engine == "sync":
        if engine_kwargs:
            raise ScheduleError(
                f"engine 'sync' takes no options, got {sorted(engine_kwargs)}")
        inner = _sync_stream(frames, make_luts(), fmt, copy)
    else:
        raise ScheduleError(
            f"unknown stream engine {engine!r}; known: sync, pipelined, ring")
    yield from _stream_telemetry(inner, **labels)


def _sync_stream(frames, luts, fmt, copy):
    """The inline engine: every plane through its LUT into one reused
    output pool."""
    pool = None
    for item in frames:
        result, pool = fmt.apply(luts, item, pool)
        if copy:
            result = result.copy()
        yield item.with_data(result) if isinstance(item, Frame) else result


def _pipelined_stream(luts, fmt, frames, depth: int = 2):
    """The thread engine: ``depth`` worker threads keep that many frames
    in flight, delivered in order.  Each in-flight frame owns its
    output, so ``depth`` is a memory budget and is capped at
    :data:`MAX_STREAM_DEPTH`."""
    if depth < 1:
        raise ScheduleError(f"depth must be >= 1, got {depth}")
    if depth > MAX_STREAM_DEPTH:
        raise ScheduleError(
            f"depth {depth} exceeds MAX_STREAM_DEPTH ({MAX_STREAM_DEPTH}); "
            f"each in-flight frame owns a full output buffer")
    from concurrent.futures import ThreadPoolExecutor

    def work(item):
        result, _ = fmt.apply(luts, item, None)
        return item.with_data(result) if isinstance(item, Frame) else result

    source = iter(frames)
    with ThreadPoolExecutor(max_workers=depth,
                            thread_name_prefix="stream") as pool:
        pending = deque(pool.submit(work, item)
                        for item in islice(source, depth))
        while pending:
            result = pending.popleft().result()
            # refill before delivering: the workers keep correcting
            # while the consumer holds this frame
            pending.extend(pool.submit(work, item)
                           for item in islice(source, 1))
            yield result


@dataclass
class SyntheticStream:
    """A deterministic fisheye video source.

    Attributes
    ----------
    renderer:
        The scene->fisheye renderer (fixes lens, sensor, scene camera).
    world:
        A world image at least as large as the renderer's scene size.
    frames:
        Stream length.
    fps:
        Nominal frame rate (sets frame timestamps).
    step:
        Pan speed in world pixels per frame.
    """

    renderer: FisheyeRenderer
    world: np.ndarray
    frames: int = 30
    fps: float = 30.0
    step: int = 4

    def __post_init__(self):
        self.world = np.asarray(self.world)
        if self.fps <= 0:
            raise ImageFormatError(f"fps must be positive, got {self.fps}")
        if self.frames < 1:
            raise ImageFormatError(f"frames must be >= 1, got {self.frames}")

    def __len__(self) -> int:
        return self.frames

    def __iter__(self) -> Iterator[Frame]:
        scene = self.renderer.scene
        crops = panning_crops(self.world, scene.width, scene.height,
                              self.frames, self.step)
        for k, crop in enumerate(crops):
            data = self.renderer.render(crop)
            yield Frame(data.astype(np.uint8, copy=False), GRAY8,
                        index=k, timestamp=k / self.fps)
