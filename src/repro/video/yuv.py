"""Planar YUV 4:2:0 correction pipeline.

Real camera streams arrive as planar YUV420 (full-resolution luma, two
quarter-resolution chroma planes), and production correctors remap the
planes separately: the luma through the full map, the chroma through a
half-scale map of the *same* view.  This halves the work relative to
converting to RGB first — the configuration the paper's end-to-end
frame rates assume.

:class:`YUV420Frame` is the plane container; :class:`YUVCorrector`
builds the two coordinate fields once and streams frames through both
with pooled output planes (zero per-frame allocations, like
:func:`~repro.video.stream.corrected_stream`).  The chroma map is
*derived* from the luma map with
:func:`~repro.core.mapping.chroma_half_field`, and every consumer of a
calibration — this corrector, ``corrected_stream(pixfmt="yuv420")``
and :meth:`repro.serve.StreamBroker.open` — resolves its tables with
:func:`~repro.video.pixfmt.plane_luts`, so all of them share the same
two :class:`~repro.core.lutcache.LUTCache` entries.  Which plane reads
which table is data: the format rows of
:data:`~repro.video.pixfmt.PIXFMTS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ImageFormatError, MappingError
from ..core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
from ..core.lens import LensModel
from ..core.mapping import RemapField, chroma_half_field, perspective_map
from ..core.remap import RemapLUT

__all__ = ["YUV420Frame", "NV12Frame", "YUVCorrector", "PLANE_NAMES",
           "NV12_PLANE_NAMES", "to_yuv420_stream", "to_nv12_stream"]

#: canonical plane order/naming used by the planar engines and the
#: ``plane=`` labelled telemetry series (the ``yuv420`` row of
#: :data:`~repro.video.pixfmt.PIXFMTS`).
PLANE_NAMES = ("y", "u", "v")

#: NV12 keeps full-resolution luma but interleaves both chroma planes
#: into one — two planes total, one chroma band per frame.
NV12_PLANE_NAMES = ("y", "uv")


def _row(frame_cls):
    """The :data:`~repro.video.pixfmt.PIXFMTS` row of a frame class."""
    from .pixfmt import PIXFMTS

    return next(f for f in PIXFMTS.values() if f.frame_cls is frame_cls)


def _check_planes(frame) -> None:
    """Validate a frame's planes against its format row."""
    fmt = _row(type(frame))
    if frame.y.ndim != 2:
        raise ImageFormatError(f"{fmt.name} luma plane must be 2-D")
    want = fmt.plane_shapes(*frame.y.shape)
    got = tuple(p.shape for p in frame.planes)
    if got != want:
        raise ImageFormatError(f"{fmt.name} planes must be {want}, got {got}")


@dataclass
class YUV420Frame:
    """One planar 4:2:0 frame: ``y`` at full size, ``u``/``v`` at half."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y)
        self.u = np.asarray(self.u)
        self.v = np.asarray(self.v)
        _check_planes(self)

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def planes(self) -> tuple:
        """``(y, u, v)`` in :data:`PLANE_NAMES` order."""
        return (self.y, self.u, self.v)

    @property
    def nbytes(self) -> int:
        return self.y.nbytes + self.u.nbytes + self.v.nbytes

    @staticmethod
    def plane_shapes(height: int, width: int) -> tuple:
        """Plane shapes of a ``width x height`` 4:2:0 frame."""
        return _row(YUV420Frame).plane_shapes(height, width)

    def copy(self) -> "YUV420Frame":
        return YUV420Frame(self.y.copy(), self.u.copy(), self.v.copy())

    @classmethod
    def from_rgb(cls, rgb: np.ndarray) -> "YUV420Frame":
        """Pack an RGB image into planar 4:2:0 (BT.601, box-filtered).

        Vectorized: one fused float32 matrix conversion plus a reshape
        box filter (see :func:`repro.core.color.rgb_to_yuv420`) — no
        per-plane passes, no float64 temporaries.
        """
        from ..core.color import rgb_to_yuv420

        return cls(*rgb_to_yuv420(rgb))

    def to_rgb(self) -> np.ndarray:
        """Unpack to uint8 RGB (nearest-neighbour chroma upsampling)."""
        from ..core.color import yuv420_to_rgb

        return yuv420_to_rgb(self.y, self.u, self.v)


@dataclass
class NV12Frame:
    """One NV12 frame: full-size ``y`` plus one interleaved ``uv`` plane.

    NV12 is what hardware decoders actually emit: the chroma samples
    are not split into U and V planes but interleaved row-wise
    (``U0 V0 U1 V1 ...``).  The canonical in-memory form here is the
    **strided 2-channel view** ``(h/2, w/2, 2)`` — ``uv[..., 0]`` is U
    and ``uv[..., 1]`` is V — which is byte-identical to the decoder's
    packed ``(h/2, w)`` row layout, so :meth:`from_packed` /
    :attr:`packed_uv` reshape without copying.  Correction runs the
    half-resolution chroma LUT *once* over the 2-channel view (the
    gather kernel vectorizes over trailing channels), against two
    applies for I420.
    """

    y: np.ndarray
    uv: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y)
        self.uv = np.asarray(self.uv)
        _check_planes(self)

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def planes(self) -> tuple:
        """``(y, uv)`` in :data:`NV12_PLANE_NAMES` order."""
        return (self.y, self.uv)

    @property
    def nbytes(self) -> int:
        return self.y.nbytes + self.uv.nbytes

    @property
    def packed_uv(self) -> np.ndarray:
        """The decoder's row-packed ``(h/2, w)`` view (zero copy)."""
        return self.uv.reshape(self.uv.shape[0], -1)

    @staticmethod
    def plane_shapes(height: int, width: int) -> tuple:
        """Plane shapes of a ``width x height`` NV12 frame."""
        return _row(NV12Frame).plane_shapes(height, width)

    def copy(self) -> "NV12Frame":
        return NV12Frame(self.y.copy(), self.uv.copy())

    @classmethod
    def from_packed(cls, y: np.ndarray, uv_rows: np.ndarray) -> "NV12Frame":
        """Wrap decoder output: ``uv_rows`` is the packed ``(h/2, w)``
        chroma plane; the reshape to 2-channel is zero-copy."""
        uv_rows = np.asarray(uv_rows)
        if uv_rows.ndim != 2 or uv_rows.shape[1] % 2:
            raise ImageFormatError(
                f"packed uv plane must be 2-D with even width, got "
                f"{uv_rows.shape}")
        return cls(y, uv_rows.reshape(uv_rows.shape[0],
                                      uv_rows.shape[1] // 2, 2))

    @classmethod
    def from_yuv420(cls, frame: YUV420Frame) -> "NV12Frame":
        """Interleave an I420 frame's chroma planes."""
        return cls(frame.y, np.stack((frame.u, frame.v), axis=-1))

    def to_yuv420(self) -> YUV420Frame:
        """De-interleave into planar I420 (copies the chroma planes)."""
        return YUV420Frame(self.y, np.ascontiguousarray(self.uv[..., 0]),
                           np.ascontiguousarray(self.uv[..., 1]))

    @classmethod
    def from_rgb(cls, rgb: np.ndarray) -> "NV12Frame":
        return cls.from_yuv420(YUV420Frame.from_rgb(rgb))

    def to_rgb(self) -> np.ndarray:
        return self.to_yuv420().to_rgb()


class YUVCorrector:
    """Distortion correction for planar YUV420 streams.

    Builds two remap LUTs for the same virtual view — full resolution
    for luma, with the half-resolution chroma twin *derived* from the
    luma field (:func:`~repro.core.mapping.chroma_half_field`, so both
    planes describe the same scene geometry and the chroma table is
    cacheable under its own key) — and applies them per frame into
    pooled output planes.

    Parameters
    ----------
    sensor, lens:
        The fisheye source geometry (sensor size must be even).
    out_width, out_height:
        Output luma size (must be even).
    zoom, yaw, pitch, roll:
        View parameters, as for
        :meth:`repro.core.pipeline.FisheyeCorrector.for_sensor`.
    method:
        Interpolation for the luma plane; chroma always uses bilinear
        (its resolution is already halved — bicubic buys nothing).
    chroma_fill:
        Fill value for out-of-FOV chroma (128 = neutral).
    lut_cache:
        Optional :class:`~repro.core.lutcache.LUTCache`: both plane
        LUTs are fetched through it (distinct content-hash keys — the
        derived chroma field fingerprints differently from the luma
        field), so a restart or a second corrector on the same
        calibration skips both builds.
    kernel:
        Kernel-tier request (``auto``/``numpy``/``fixed``/``compiled``)
        applied to both plane LUTs with
        :meth:`~repro.core.remap.RemapLUT.with_tier`.
    """

    def __init__(self, sensor: FisheyeIntrinsics, lens: LensModel,
                 out_width: int, out_height: int, zoom: float = 1.0,
                 yaw: float = 0.0, pitch: float = 0.0, roll: float = 0.0,
                 method: str = "bilinear", fill: int = 0, chroma_fill: int = 128,
                 lut_cache=None, kernel: str = "numpy"):
        if out_width % 2 or out_height % 2:
            raise MappingError(f"output size must be even, got {out_width}x{out_height}")
        if sensor.width % 2 or sensor.height % 2:
            raise MappingError(
                f"sensor size must be even for 4:2:0, got {sensor.width}x{sensor.height}")
        if zoom <= 0:
            raise MappingError(f"zoom must be positive, got {zoom}")

        focal_out = float(lens.magnification(1e-4)) * zoom
        out_full = CameraIntrinsics(
            fx=focal_out, fy=focal_out,
            cx=(out_width - 1) / 2.0, cy=(out_height - 1) / 2.0,
            width=out_width, height=out_height)
        luma_field = perspective_map(sensor, lens, out_full,
                                     yaw=yaw, pitch=pitch, roll=roll)
        self._bind(luma_field, method=method, fill=fill,
                   chroma_fill=chroma_fill, lut_cache=lut_cache, kernel=kernel)

    # ------------------------------------------------------------------
    @classmethod
    def from_field(cls, field: RemapField, method: str = "bilinear",
                   fill: int = 0, chroma_fill: int = 128, lut_cache=None,
                   kernel: str = "numpy") -> "YUVCorrector":
        """Build a corrector around an existing luma coordinate field.

        The chroma field is derived from it, so any field
        (perspective, cylindrical, composed) can drive a planar
        corrector.
        """
        self = cls.__new__(cls)
        self._bind(field, method=method, fill=fill,
                   chroma_fill=chroma_fill, lut_cache=lut_cache, kernel=kernel)
        return self

    def _bind(self, luma_field: RemapField, *, method, fill, chroma_fill,
              lut_cache, kernel) -> None:
        from .pixfmt import plane_luts

        self.luma_field = luma_field
        self._luts = plane_luts(_row(YUV420Frame), luma_field, cache=lut_cache,
                                tier=kernel, method=method, fill=fill,
                                chroma_fill=chroma_fill)
        self.out_shape = luma_field.shape
        self._pools: dict = {}  # frame class -> pooled output planes

    # ------------------------------------------------------------------
    @cached_property
    def chroma_field(self) -> RemapField:
        """The derived half-resolution chroma field (LUT 1's geometry)."""
        return chroma_half_field(self.luma_field)

    @property
    def luma_lut(self) -> RemapLUT:
        return self._luts[0]

    @property
    def chroma_lut(self) -> RemapLUT:
        return self._luts[1]

    @property
    def plane_luts(self) -> tuple:
        """Per-plane LUTs in :data:`PLANE_NAMES` order (u and v share)."""
        return tuple(self._luts[i] for i in _row(YUV420Frame).plane_lut)

    # ------------------------------------------------------------------
    def _correct(self, frame_cls, frame, copy: bool):
        """The one pooled per-plane apply behind :meth:`correct` and
        :meth:`correct_nv12`."""
        if (frame.height, frame.width) != (self.luma_field.src_height,
                                           self.luma_field.src_width):
            raise MappingError(
                f"frame {frame.width}x{frame.height} does not match corrector "
                f"source {self.luma_field.src_width}x{self.luma_field.src_height}")
        result, self._pools[frame_cls] = _row(frame_cls).apply(
            self._luts, frame, self._pools.get(frame_cls))
        return result.copy() if copy else result

    def correct(self, frame: YUV420Frame, copy: bool = False) -> YUV420Frame:
        """Correct one planar frame (all three planes, one geometry).

        The three output planes are pooled and written with
        :meth:`~repro.core.remap.RemapLUT.apply_into` — the steady
        state performs zero per-frame allocations.  With the default
        ``copy=False`` the returned frame aliases the pool (consume or
        copy before the next ``correct``, like any zero-copy decoder
        API); ``copy=True`` returns an owning frame.
        """
        return self._correct(YUV420Frame, frame, copy)

    def correct_nv12(self, frame: NV12Frame, copy: bool = False) -> NV12Frame:
        """Correct one NV12 frame: two applies, not three.

        Luma runs exactly as in :meth:`correct`; the interleaved UV
        plane goes through the half-resolution chroma LUT *once* as a
        strided 2-channel view — the gather kernel fans out over the
        trailing channel axis, producing output bit-identical to
        correcting the de-interleaved U and V planes separately.
        Pooled like :meth:`correct`: ``copy=False`` aliases the pool.
        """
        return self._correct(NV12Frame, frame, copy)

    def work_pixels(self) -> int:
        """Output samples remapped per frame (luma + both chroma planes).

        4:2:0 planes cost 1.5x the luma pixel count — versus 3x for an
        RGB-converted pipeline; this ratio is the bench-visible saving.
        """
        return _row(YUV420Frame).samples(*self.out_shape)

    def traffic_per_frame(self) -> dict:
        """Summed per-frame host byte ledger over the three I420 planes.

        See :meth:`~repro.video.pixfmt.PlaneSet.traffic_per_frame`;
        ``PIXFMTS["nv12"].traffic_per_frame((corr.luma_lut,
        corr.chroma_lut))`` is the NV12 ledger of the same tables.
        """
        return _row(YUV420Frame).traffic_per_frame(self._luts)


def to_yuv420_stream(frames):
    """Adapt a grayscale frame stream into :class:`YUV420Frame` items.

    Each 2-D source frame becomes the luma plane; the chroma planes
    carry a deterministic offset-binary gradient (horizontal for U,
    vertical for V) so the planar path moves real, checkable chroma
    data without needing a colour source.  Used by ``repro stream
    --pixfmt yuv420`` to drive the zero-copy planar pipeline from the
    synthetic renderer.
    """
    shape = u = v = None
    for item in frames:
        data = getattr(item, "data", item)
        data = np.asarray(data)
        if data.ndim != 2:
            raise ImageFormatError(
                f"to_yuv420_stream expects 2-D gray frames, got {data.shape}")
        if data.shape != shape:
            shape = data.shape
            hh, hw = data.shape[0] // 2, data.shape[1] // 2
            xs = np.linspace(96, 160, hw, dtype=np.float64)
            ys = np.linspace(96, 160, hh, dtype=np.float64)
            u = np.broadcast_to(np.rint(xs).astype(data.dtype), (hh, hw)).copy()
            v = np.broadcast_to(np.rint(ys).astype(data.dtype)[:, None],
                                (hh, hw)).copy()
        yield YUV420Frame(data, u, v)


def to_nv12_stream(frames):
    """Adapt a grayscale frame stream into :class:`NV12Frame` items.

    Same deterministic chroma gradients as :func:`to_yuv420_stream`,
    interleaved into the single NV12 UV plane — what ``repro stream
    --pixfmt nv12`` feeds the zero-copy planar pipeline.
    """
    for frame in to_yuv420_stream(frames):
        yield NV12Frame.from_yuv420(frame)
