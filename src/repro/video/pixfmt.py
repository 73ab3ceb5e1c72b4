"""Pixel formats as data: one plane table for every format.

Correction is one LUT gather per plane.  Between pixel formats only
three things change: which table reads which plane, at what scale, and
over how many channels.  :data:`PIXFMTS` records exactly that, one
:class:`PlaneSet` row per format — a frame class plus a tuple of
:class:`Plane` descriptors — and everything a format decides is derived
from its row here:

- plane shapes and the even-size checks (:meth:`PlaneSet.plane_shapes`,
  :meth:`PlaneSet.check_out_size`);
- splitting an item into planes and wrapping planes back into an item
  (:meth:`PlaneSet.split`, :meth:`PlaneSet.wrap`), and the one
  per-plane apply loop (:meth:`PlaneSet.apply`);
- plane names, samples per pixel and the per-plane host byte ledger;
- the format's distinct LUTs (:func:`plane_luts`), resolved through the
  same :class:`~repro.core.lutcache.LUTCache` keys by every front end,
  or the same tables as a :class:`TableRecipe` that the ring's fleet
  builds band by band.

The sync stream, the stream broker (and so the ring), the shared-memory
slots and :class:`~repro.video.yuv.YUVCorrector` index planes by this
data, so a new format (say 16-bit P010) is a new row, not a new code
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.compose import _composed_rows, composed_lut, downscale_field
from ..core.image import Frame
from ..core.kernel_tiers import DEFAULT_FRAC_BITS, resolve_tier
from ..core.lutcache import LUTCache, derived_fingerprint, field_fingerprint
from ..core.mapping import _BAND_ROWS, RemapField, chroma_half_field
from ..core.remap import _BUILD_ROWS, RemapLUT, TableLayout, build_table_rows
from ..errors import ImageFormatError
from .yuv import NV12Frame, YUV420Frame, to_nv12_stream, to_yuv420_stream

__all__ = ["Plane", "PlaneSet", "PIXFMTS", "get_pixfmt", "pixfmt_of",
           "plane_luts", "TableRecipe"]


@dataclass(frozen=True)
class Plane:
    """One plane of a pixel format.

    ``divisor`` is its resolution relative to the frame (2 for 4:2:0
    chroma), ``channels`` the samples per site (``None``: whatever the
    packed item carries) and ``lut`` the index of the table that
    corrects it: LUT 0 is the caller's field, LUT 1 its half-resolution
    chroma twin (:func:`~repro.core.mapping.chroma_half_field`,
    bilinear, neutral fill 128).
    """

    name: str
    divisor: int
    channels: int | None
    lut: int


@dataclass(frozen=True)
class PlaneSet:
    """A frame class plus its planes; ``frame_cls=None`` means packed
    arrays (or :class:`~repro.core.image.Frame`\\ s) of one plane.
    ``adapt`` turns a gray frame stream into items of this format (the
    CLI's synthetic sources)."""

    name: str
    frame_cls: type | None
    planes: tuple
    adapt: Callable

    @property
    def names(self) -> tuple:
        """Plane names in plane order."""
        return tuple(p.name for p in self.planes)

    @property
    def plane_labels(self) -> tuple:
        """Names for ``plane=`` labelled series: none for one plane."""
        return self.names if len(self.planes) > 1 else ()

    @property
    def plane_lut(self) -> tuple:
        """The LUT index of every plane, in plane order."""
        return tuple(p.lut for p in self.planes)

    @property
    def luts(self) -> tuple:
        """The distinct LUT indices the planes read."""
        return tuple(sorted(set(self.plane_lut)))

    # -- geometry --------------------------------------------------------
    def plane_shapes(self, height: int, width: int) -> tuple:
        """Plane shapes of a ``width x height`` frame of this format."""
        for p in self.planes:
            if height % p.divisor or width % p.divisor:
                raise ImageFormatError(
                    f"{self.name} frame size must be a multiple of "
                    f"{p.divisor}, got {width}x{height}")
        return tuple((height // p.divisor, width // p.divisor)
                     + ((p.channels,) if (p.channels or 1) > 1 else ())
                     for p in self.planes)

    def check_out_size(self, out_size) -> tuple | None:
        """Validate a delivery size ``(width, height)``; ``None`` passes."""
        if out_size is None:
            return None
        ow, oh = int(out_size[0]), int(out_size[1])
        if ow < 2 or oh < 2:
            raise ImageFormatError(
                f"out_size must be at least 2x2, got {ow}x{oh}")
        for p in self.planes:
            if ow % p.divisor or oh % p.divisor:
                raise ImageFormatError(
                    f"{self.name} out_size must be a multiple of "
                    f"{p.divisor}, got {ow}x{oh}")
        return ow, oh

    def out_shapes(self, luts, planes) -> tuple:
        """Corrected plane shapes of the source ``planes``."""
        return tuple(luts[p.lut].out_shape + a.shape[2:]
                     for p, a in zip(self.planes, planes))

    def samples(self, height: int, width: int) -> int:
        """Samples per ``width x height`` frame across all planes."""
        return sum((height // p.divisor) * (width // p.divisor)
                   * (p.channels or 1) for p in self.planes)

    # -- items -----------------------------------------------------------
    def split(self, item) -> tuple:
        """The planes of one item, checked against the frame class."""
        if self.frame_cls is None:
            return (item.data if isinstance(item, Frame) else np.asarray(item),)
        if not isinstance(item, self.frame_cls):
            raise ImageFormatError(
                f"pixfmt={self.name!r} streams expect "
                f"{self.frame_cls.__name__} items, got {type(item).__name__}")
        return item.planes

    def wrap(self, planes):
        """An item of this format over ``planes`` (no copy)."""
        if self.frame_cls is None:
            return planes[0]
        return self.frame_cls(*planes)

    def apply(self, luts, item, pool=None):
        """Correct one item plane by plane into ``pool``.

        ``luts`` is the distinct-LUT tuple (:func:`plane_luts`).
        ``pool`` is reused while it fits the item and reallocated
        otherwise; returns ``(result, pool)``, the result aliasing the
        pool.
        """
        planes = self.split(item)
        shapes = self.out_shapes(luts, planes)
        dtype = planes[0].dtype
        if (pool is None or pool[0].dtype != dtype
                or tuple(b.shape for b in pool) != shapes):
            pool = tuple(np.empty(s, dtype=dtype) for s in shapes)
        for p, src, dst in zip(self.planes, planes, pool):
            luts[p.lut].apply_into(src, dst)
        return self.wrap(pool), pool

    def traffic_per_frame(self, luts) -> dict:
        """Summed per-frame host byte ledger over this format's planes.

        Each plane contributes
        :meth:`~repro.core.remap.RemapLUT.traffic_per_frame` of its LUT
        at its channel count, so a 2-channel plane gathers both
        channels but reads its table once.  The measured-side
        counterpart of the Cell model's
        :meth:`~repro.accel.cellbe.CellModel.planar_dma_profile`.
        """
        ledgers = {p.name: luts[p.lut].traffic_per_frame(
                       channels=p.channels or 1)
                   for p in self.planes}
        total = {key: sum(ledger[key] for ledger in ledgers.values())
                 for key in ("pixels", "gather_bytes", "lut_bytes",
                             "out_bytes", "total_bytes")}
        total["planes"] = ledgers
        return total


def _packed(frames):
    return frames


#: Every supported pixel format, by name.
PIXFMTS = {
    "rgb": PlaneSet("rgb", None, (Plane("packed", 1, None, 0),), _packed),
    "yuv420": PlaneSet("yuv420", YUV420Frame,
                       (Plane("y", 1, 1, 0), Plane("u", 2, 1, 1),
                        Plane("v", 2, 1, 1)),
                       to_yuv420_stream),
    "nv12": PlaneSet("nv12", NV12Frame,
                     (Plane("y", 1, 1, 0), Plane("uv", 2, 2, 1)),
                     to_nv12_stream),
}


def get_pixfmt(name: str) -> PlaneSet:
    """The :data:`PIXFMTS` row of ``name``; the one unknown-format check."""
    try:
        return PIXFMTS[name]
    except (KeyError, TypeError):
        raise ImageFormatError(
            f"unknown pixfmt {name!r}; known: {', '.join(PIXFMTS)}") from None


def pixfmt_of(item) -> PlaneSet:
    """The format whose frame class ``item`` is; packed otherwise."""
    for fmt in PIXFMTS.values():
        if fmt.frame_cls is not None and isinstance(item, fmt.frame_cls):
            return fmt
    return PIXFMTS["rgb"]


#: The neutral chroma fill of the 4:2:0 formats' chroma tables.
CHROMA_FILL = 128


def plane_luts(fmt: PlaneSet, field: RemapField, out_size=None,
               cache=None, tier: str = "numpy", *, method: str = "bilinear",
               fill: float = 0.0, chroma_fill: float = CHROMA_FILL) -> tuple:
    """The distinct LUTs of ``fmt`` over ``field``, by LUT index.

    LUT 0 is ``field`` at ``method``/``fill``; LUT 1 the derived
    half-resolution chroma field, bilinear at ``chroma_fill``.  With
    ``out_size=(width, height)`` each is the fused correct+downscale
    composition at its plane's delivered size (the plain 4-tap table,
    ``prefilter=False`` — an exact 2x2 box at 2:1).  Tables come from
    ``cache`` when given and run on ``tier``.  Cache keys
    (:meth:`~repro.core.lutcache.LUTCache.key_for` or
    :meth:`~repro.core.lutcache.LUTCache.key_for_composed`) name the
    chroma twin and the downscale maps by
    :func:`~repro.core.lutcache.derived_fingerprint` — the luma
    fingerprint and the derivation — so those fields are built only on
    a miss and never hashed, and a reopen of one field object costs no
    digest at all.

    A recipe field (:mod:`repro.core.mapping`) with one table to build
    streams its rows into it.  When several tables read it — a planar
    format's luma and chroma — or ``cache`` needs its fingerprint and
    it has none yet, its maps are computed once for the call, serve the
    digest and every table, and are held until it returns.  Only the
    digest is stored on ``field`` (as :func:`~repro.core.lutcache
    .field_fingerprint` does), so the maps go with the build's
    temporaries.
    """
    tier = resolve_tier(tier)
    cold = cache is not None and getattr(field, "_fingerprint", None) is None
    source = (functools.cache(field.eager) if cold or len(fmt.luts) > 1
              else lambda: field)
    if cold:
        # the maps' digest is the recipe's: keep it, not the maps
        field._fingerprint = field_fingerprint(source())
    ident = getattr(field, "_fingerprint", None)
    luts = []
    for i, chroma, d, m, v, scale in _lut_plan(fmt, field.shape, out_size,
                                               method, fill, chroma_fill):
        def build(chroma=chroma, m=m, v=v, scale=scale):
            inner = chroma_half_field(source()) if chroma else source()
            if scale is None:
                return RemapLUT(inner, method=m, fill=v)
            return composed_lut(downscale_field(*scale, prefilter=False),
                                inner, method=m, fill=v)

        if cache is None:
            luts.append(build())
            continue
        inner_id = derived_fingerprint(ident, "chroma_half") if chroma else ident
        key = (LUTCache.key_for(inner_id, m, v) if scale is None
               else LUTCache.key_for_composed(
                   derived_fingerprint(None, "downscale%dx%d<-%dx%d" % scale),
                   inner_id, m, v))
        luts.append(cache.get_or_build(key, build))
    return tuple(lut.with_tier(tier) for lut in luts)


def _lut_plan(fmt: PlaneSet, shape, out_size, method, fill, chroma_fill):
    """``(index, chroma, divisor, method, fill, scale)`` of each distinct
    LUT of ``fmt`` over a field of ``shape``: LUT 0 the field itself,
    LUT 1 its chroma twin; ``divisor`` is the resolution divisor of the
    planes it corrects, and ``scale`` the fused downscale's
    ``(width, height, field width, field height)`` (``None``: none)."""
    fh, fw = shape
    divisors = {p.lut: p.divisor for p in fmt.planes}
    for i in fmt.luts:
        chroma, d = i != 0, divisors[i]
        m, v = ("bilinear", chroma_fill) if chroma else (method, fill)
        scale = (None if out_size is None else
                 (out_size[0] // d, out_size[1] // d, fw // d, fh // d))
        yield i, chroma, d, m, v, scale


class TableRecipe:
    """The tables :func:`plane_luts` builds (with no cache), as a recipe
    that any process can build a band of rows at a time, in place.

    The ring engine's fleet builds it this way when its field is a
    recipe (:mod:`repro.core.mapping`): the broker sizes the shared
    segments from :meth:`layouts`
    (:meth:`~repro.parallel.shmseg.SharedTables.allocate`), each worker
    runs :meth:`build_rows` on its tasks' rows straight into them, and
    the parent joins the bands' patch rows.  The tables equal
    ``plane_luts(fmt, field, out_size, tier=tier, method=method,
    fill=fill)``'s bit for bit.
    The recipe pickles as its parameters and the field's (a few hundred
    bytes), so a task is a small message under ``fork`` and ``spawn``.
    """

    def __init__(self, fmt: PlaneSet, field: RemapField, out_size=None,
                 tier: str = "numpy", *, method: str = "bilinear",
                 fill: float = 0.0):
        self.pixfmt = fmt.name
        self.field = field
        self.out_size = out_size
        self.tier = resolve_tier(tier)
        self.method, self.fill = method, fill

    def _tables(self, field: RemapField):
        """``(divisor, rows, layout)`` of each distinct LUT over
        ``field``: the resolution divisor of its planes, its output-row
        evaluator and its :class:`~repro.core.remap.TableLayout` — the
        fields and compositions :func:`plane_luts` builds, unbuilt."""
        for _, chroma, d, m, v, scale in _lut_plan(
                get_pixfmt(self.pixfmt), self.field.shape, self.out_size,
                self.method, self.fill, CHROMA_FILL):
            inner = chroma_half_field(field) if chroma else field
            rows, out_shape = inner.rows, inner.shape
            if scale is not None:
                outer = downscale_field(*scale, prefilter=False)
                rows, out_shape = _composed_rows(outer, inner), outer.shape
            yield d, rows, TableLayout(
                out_shape, (inner.src_height, inner.src_width), m, float(v),
                self.tier, DEFAULT_FRAC_BITS)

    def layouts(self) -> tuple:
        """The :class:`~repro.core.remap.TableLayout` of each distinct
        LUT, by LUT index; raises on a geometry :func:`plane_luts`
        refuses (odd 4:2:0 sizes, a downscale that grows)."""
        return tuple(layout for _, _, layout in self._tables(self.field))

    def build_rows(self, r0: int, r1: int, tables) -> list:
        """Build rows ``r0:r1`` of LUT 0 and the rows of every other LUT
        they cover (``r0 / 2 : r1 / 2`` of a 4:2:0 chroma table, so
        ``r0`` and ``r1`` are even there) into ``tables``, by LUT index
        the dicts of whole arrays :meth:`layouts` sizes.

        The planes' tables advance together, :data:`~repro.core.remap
        ._BUILD_ROWS` luma rows at a time, over one view of the field
        that keeps the bands they tap
        (:meth:`~repro.core.mapping.RemapField.kept_bands`): each band
        of the maps is computed once however many tables read it, and
        the call never holds more than a few bands.  Returns each LUT's
        patch rows of the range, ``(pixels, taps)``.
        """
        field = self.field
        # the inner bands one step of output rows taps (a fused table
        # taps ``out_height / field height`` as many), plus the two a
        # step may straddle
        span = field.shape[0] * _BUILD_ROWS / self.layouts()[0].out_shape[0]
        shared = field.kept_bands(2 + int(-(-span // _BAND_ROWS)))
        luts = list(self._tables(shared))
        patches = [[] for _ in luts]
        for b0 in range(r0, r1, _BUILD_ROWS):
            b1 = min(b0 + _BUILD_ROWS, r1)
            for (d, rows, layout), arrays, out in zip(luts, tables, patches):
                out.append(build_table_rows(rows, b0 // d, b1 // d, layout,
                                            arrays))
        return [tuple(map(np.concatenate, zip(*bands))) for bands in patches]
