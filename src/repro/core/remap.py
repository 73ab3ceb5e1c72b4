"""The remap engine: apply a :class:`~repro.core.mapping.RemapField`.

Two execution styles, mirroring the design space the target paper
explores:

``remap``  (on-the-fly)
    Interpolation taps and weights are recomputed from the float
    coordinate field on every frame.  Cheapest in memory, most compute
    per frame.

:class:`RemapLUT`  (precomputed look-up table)
    Tap indices and weights are resolved once per view configuration;
    each subsequent frame is a pure gather + weighted accumulate.  This
    is the streaming-video fast path and the representation the
    accelerator models ship to device memory (its entry size determines
    DMA traffic).

The LUT stores the *compact* table layout: one ``int32`` flat offset
per output pixel (its resolved tap 0, the ``base``) plus per-axis
interpolation fractions (nothing at all for nearest).  Every other tap
sits at a fixed stencil step from the base — ``base + (0, 1, W, W+1)``
for bilinear, the 4x4 grid for bicubic — so the kernel gathers each tap
through a view of the source offset by that step.  The few valid
pixels whose clamped taps break the stencil (at the right or bottom
edge, bicubic near any edge) are kept in a small patch list of ``(pixel, taps)`` rows that the
kernel re-gathers.  The per-tap weights are derived from the fractions
per tile, the same entry the paper DMAs to a Cell SPE or streams
through a GPU texture path.  :meth:`RemapLUT.entry_bytes` prices
exactly this layout and :meth:`RemapLUT.tap_offsets` expands it back to
the ``(pixels, taps)`` offsets.

Both halves allocate only band-sized intermediates at the sample's
native width, as a Cell SPE only ever holds its own band:

- the table build walks the field :data:`_BUILD_ROWS` output rows at a
  time and writes each band straight into the final ``int32`` /
  ``float32`` / ``bool`` tables — no full-size int64 taps or float64
  fractions, and :meth:`RemapLUT.from_rows` builds from a band
  evaluator (a composed table) without any stored field;
- a frame apply gathers each tap's *raw* samples (``uint8`` for camera
  frames) into pooled scratch of the frame's dtype and widens them in
  the multiply, never converting the whole source plane, and derives
  each tap's weights for one tile at a time.

Frame application is a fused gather-multiply-accumulate
(:meth:`RemapLUT.apply`).  The ``numpy`` and ``fixed`` tiers share one
tile walk: the requested output rows are processed
:data:`~repro.core.kernel_tiers.DEFAULT_TILE_ROWS` at a time through
one pooled, tile-sized, channel-planar scratch set (each channel's
samples of the tile contiguous, so every ufunc runs along the tile's
pixels), and each tile is stored straight into its rows of the
destination — a whole 720p RGB frame borrows ~3.2 MB of scratch, not
the ~25 MB a frame-sized set took.  The pool
is reused across calls, so steady-state streaming performs **zero
allocations**:

- ``apply(image)``            allocates and returns the output array;
- ``apply(image, out=buf)`` / ``apply_into(image, buf)``
                              write the destination buffer directly
                              (no materialize-then-copy);
- ``apply_rows(image, r0, r1)`` is the tile primitive for the parallel
  executors, and ``apply_rows_into`` its in-place twin for executors
  that own a shared output buffer.

Both paths share exact semantics with
:func:`repro.core.interpolation.sample`; the test-suite cross-checks
all three against the scalar oracle.

When a :mod:`repro.obs` registry is enabled the kernel reports
``remap.frames`` / ``remap.bands`` / ``remap.pixels`` /
``remap.bytes_gathered`` (the bytes the gather reads, at the frame's
own sample width) / ``remap.bytes_streamed`` (table, sample and output
bytes, the :meth:`RemapLUT.traffic_per_frame` ledger) counters and
``remap.apply_seconds`` / ``remap.band_seconds`` latency histograms;
the disabled registry costs one branch per call (never per pixel),
which the overhead gate in ``benchmarks/check_regression.py``
enforces.

Execution is *tiered* (:mod:`repro.core.kernel_tiers`): every LUT
carries a ``tier`` — ``numpy`` (the float fused kernel below),
``fixed`` (Q-format integer arithmetic on the same tile walk) or ``compiled``
(the Numba kernel in :mod:`repro.accel.compiled`) — selected at build
time or re-selected cheaply with :meth:`RemapLUT.with_tier`, which
shares the underlying tables.  Q tiers apply to integer frames; float
frames always take the full-precision numpy path.  Each apply reports
a ``kernel.tier.<tier>`` counter and tier-labelled spans so traces
show which rung actually ran.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import InterpolationError, KernelTierError, MappingError
from ..obs.telemetry import Telemetry, get_telemetry, scoped
from . import interpolation as interp
from . import kernel_tiers
from .fixedpoint import quantize_weights
from .mapping import RemapField

__all__ = ["remap", "RemapLUT", "TableLayout", "build_table_rows",
           "remap_profiled", "StageProfile"]


def remap(image, field: RemapField, method: str = "bilinear",
          fill: float = 0.0):
    """On-the-fly remap of ``image`` through ``field``.

    Parameters
    ----------
    image:
        Source image, ``(H_src, W_src)`` or ``(H_src, W_src, C)``.
    field:
        Backward coordinate field (its ``src_width``/``src_height``
        must match the image).
    method, fill:
        Passed to :func:`repro.core.interpolation.sample`.
    """
    image = np.asarray(image)
    if image.shape[0] != field.src_height or image.shape[1] != field.src_width:
        raise MappingError(
            f"image {image.shape[1]}x{image.shape[0]} does not match field source "
            f"{field.src_width}x{field.src_height}")
    return interp.sample(image, field.map_x, field.map_y, method=method,
                         fill=fill)


#: Output rows resolved per band of a table build.  The band's int64
#: taps and float64 fractions stay a few hundred KB at 2560 px wide, so
#: a build allocates its final tables and nothing else of frame size.
_BUILD_ROWS = 8

#: Stored fractions per output pixel, by method.
_FRAC_FLOATS = {"nearest": 0, "bilinear": 2, "bicubic": 8}

#: Taps along each axis of a pixel's stencil, by method.
_SIDE = {"nearest": 1, "bilinear": 2, "bicubic": 4}


def _stencil(method, w):
    """Flat offsets of a pixel's taps from its tap 0 on a source ``w``
    samples wide, in tap order: ``(0,)``, ``(0, 1, w, w+1)`` or the
    row-major 4x4 grid."""
    side = _SIDE[method]
    return np.array([j * w + i for j in range(side) for i in range(side)],
                    dtype=np.int32)


def _table_band(mx, my, method, w, h, base, fracs, mask):
    """Resolve one band of coordinates into its rows of the final tables.

    ``mx``/``my`` are the band's float64 source coordinates (any shape);
    ``base`` (int32 tap-0 offsets), ``fracs`` (float32, ``None`` for
    nearest) and ``mask`` (bool) are the band's rows of the LUT's tables
    and are written in place.  Returns the band's patch rows
    ``(positions, taps)``: the valid pixels whose clamped taps are not
    ``base + stencil``, with all their taps.  Every temporary is
    band-sized.

    The edge clamp is paid only where it can change a tap.  A pixel
    whose stencil lies inside the source on both axes (tap 0 at column
    ``x0``, row ``y0`` with ``0 <= x0 <= w - side`` and
    ``0 <= y0 <= h - side``) clamps to itself, so its base is
    ``y0 * w + x0`` and it is regular.  Only the other pixels — a
    source edge, ``nan`` or far-out coordinates — are clamped tap by
    tap and go through the stencil check.
    """
    mx = mx.ravel()
    my = my.ravel()
    mask[:] = interp.valid_mask(mx, my, w, h)
    side = _SIDE[method]
    if method == "nearest":
        x0, y0 = interp.nearest_taps(mx, my)
    elif method == "bilinear":
        x0, y0, fx, fy = interp.bilinear_taps(mx, my)
        fracs[:, 0] = fx
        fracs[:, 1] = fy
    else:  # bicubic
        ix, iy, wx, wy = interp.bicubic_taps(mx, my)
        x0, y0 = ix - 1, iy - 1
        fracs[:, :4] = wx
        fracs[:, 4:] = wy
    pos = np.flatnonzero((x0 < 0) | (x0 > w - side)
                         | (y0 < 0) | (y0 > h - side))
    x0_edge, y0_edge = x0[pos], y0[pos]
    # in-range pixels: the unresolved stencil origin (the edge pixels'
    # values are overwritten next)
    np.multiply(y0, w, out=y0)
    np.add(y0, x0, out=base, casting="unsafe")
    if pos.size:
        base[pos], keep, taps = _edge_taps(x0_edge, y0_edge, side, w, h,
                                           mask[pos])
        pos = pos[keep]
    else:  # the common band, well inside the source
        taps = np.empty((0, side * side), dtype=np.int32)
    # Invalid output pixels contribute nothing; keep their taps at 0
    # so the gather stays in-bounds and branch-free.
    base[~mask] = 0
    return pos, taps


def _edge_taps(x0, y0, side, w, h, valid):
    """Clamp the taps of the pixels whose ``side`` x ``side`` stencil,
    with origin column ``x0`` and row ``y0``, leaves the source.

    Returns their clamped tap-0 offsets, the indices (into ``x0``) of
    the valid ones (``valid``: their mask) whose clamped taps are not
    ``base + stencil``, and all those pixels' taps ``(p, side**2)``
    int32.  Tap ``(j, i)`` reads ``rows[j] + cols[i]``; it is
    ``base + j*w + i`` for every tap exactly when each axis steps by one
    sample.
    """
    cols = [interp.resolve_indices(x0 + i, w) for i in range(side)]
    rows = [interp.resolve_indices(y0 + j, h) * w for j in range(side)]
    irregular = np.zeros(x0.shape, dtype=bool)
    for i, col in enumerate(cols[1:], 1):
        irregular |= col != cols[0] + i
    for j, row in enumerate(rows[1:], 1):
        irregular |= row != rows[0] + j * w
    irregular &= valid
    keep = np.flatnonzero(irregular)
    taps = np.empty((keep.size, side * side), dtype=np.int32)
    for j, row in enumerate(rows):
        for i, col in enumerate(cols):
            np.add(row[keep], col[keep], out=taps[:, j * side + i],
                   casting="unsafe")
    return rows[0] + cols[0], keep, taps


class TableLayout(NamedTuple):
    """What fixes a table's arrays before it is built: its output and
    source shapes, method, fill and kernel tier (``frac_bits`` is the Q
    tiers' precision).  A :class:`RemapLUT` reports its own
    (:attr:`RemapLUT.layout`); a table built in place, band by band
    (:func:`build_table_rows`), is sized from one."""

    out_shape: tuple
    src_shape: tuple
    method: str
    fill: float
    tier: str
    frac_bits: int

    def kernel_layout(self) -> dict:
        """``name -> (shape, dtype, order)`` of the arrays this tier's
        kernel reads (:meth:`RemapLUT.kernel_tables`), the patch list
        aside: ``base`` and ``mask``, plus ``fracs`` on the numpy tier
        or the ``(taps, N)`` int16 ``qwtab`` on the Q tiers (neither for
        nearest).  Raises on an unknown method and on a source too
        large for the int32 offsets."""
        if self.method not in interp.METHODS:
            raise InterpolationError(
                f"unknown interpolation method {self.method!r}; known: "
                f"{interp.METHODS}")
        h, w = self.src_shape
        if h * w - 1 > np.iinfo(np.int32).max:
            raise MappingError(
                f"source frame {w}x{h} exceeds the int32 index range of the "
                f"compact LUT layout")
        n = int(np.prod(self.out_shape))
        layout = {"base": ((n,), np.dtype(np.int32), "C"),
                  "mask": ((n,), np.dtype(bool), "C")}
        floats = _FRAC_FLOATS[self.method]
        if floats and self.tier == "numpy":
            # axis-major: a tile's per-axis reads are contiguous streams
            layout["fracs"] = ((n, floats), np.dtype(np.float32), "F")
        elif floats:
            layout["qwtab"] = ((_SIDE[self.method] ** 2, n),
                               np.dtype(np.int16), "C")
        return layout


def build_table_rows(rows, r0: int, r1: int, layout: TableLayout,
                     tables: dict):
    """Resolve output rows ``r0:r1`` of a table into ``tables``: the one
    table builder.

    ``rows(a, b)`` returns the float64 source coordinates of output rows
    ``a:b`` (:meth:`~repro.core.mapping.RemapField.rows`, a composition's
    band evaluator); ``tables`` holds the whole arrays of
    ``layout.kernel_layout()``, of which only rows ``r0:r1`` are
    written, :data:`_BUILD_ROWS` rows at a time.  A ``qwtab`` gets the
    quantized weights of each band's fractions, as
    :meth:`RemapLUT.kernel_tables` derives them.  Returns the patch rows
    of ``r0:r1``, ``(pixels, taps)``, pixels ascending.  The parent
    build (:class:`RemapLUT`) walks every row in one call; a fleet
    build (:class:`~repro.video.pixfmt.TableRecipe`) walks each task's
    rows straight into the shared-memory publication.
    """
    h, w = layout.src_shape
    w_out = layout.out_shape[1]
    method = layout.method
    fracs, qwtab = tables.get("fracs"), tables.get("qwtab")
    pixels = [np.empty(0, dtype=np.intp)]
    taps = [np.empty((0, _SIDE[method] ** 2), dtype=np.int32)]
    for b0 in range(r0, r1, _BUILD_ROWS):
        b1 = min(b0 + _BUILD_ROWS, r1)
        sl = slice(b0 * w_out, b1 * w_out)
        if fracs is not None:
            band = fracs[sl]
        else:  # nearest (None), or a Q table's band of fractions
            band = None if qwtab is None else np.empty(
                (_FRAC_FLOATS[method], sl.stop - sl.start),
                dtype=np.float32).T
        mask = tables["mask"][sl]
        pos, tap_rows = _table_band(*rows(b0, b1), method, w, h,
                                    tables["base"][sl], band, mask)
        if qwtab is not None:
            _qweight_band(method, band, mask, layout.frac_bits, qwtab[:, sl])
        if pos.size:
            pixels.append(pos + sl.start)
            taps.append(tap_rows)
    return np.concatenate(pixels), np.concatenate(taps)


def _band_weights(method, fracs, mask, out):
    """Write the float32 weights of one band into the ``(taps, len)``
    block ``out`` from its stored ``fracs`` and ``mask``; rows of
    invalid pixels are 0."""
    if method == "nearest":
        out[...] = 1.0
    else:
        for k in range(out.shape[0]):
            # tap 0 borrows tap 1's row, written next
            _tap_weight(method, k, fracs, out[k], out[1])
    out[:, ~mask] = 0.0


def _qweight_band(method, fracs, mask, frac_bits, out):
    """Quantize one band's weights into its ``(taps, len)`` int16 block
    ``out`` (:func:`~repro.core.fixedpoint.quantize_weights`)."""
    wt = np.empty(out.shape, dtype=np.float32)
    _band_weights(method, fracs, mask, wt)
    out[...] = quantize_weights(wt.T, frac_bits).T


def _tap_weight(method, k, fracs, out, spare):
    """Write tap ``k``'s float32 weights into ``out`` (bilinear or
    bicubic), for the pixels whose stored fractions are ``fracs``.

    The one weight formula, shared by the kernel (one tap of one tile
    at a time) and the expanded tables (:attr:`RemapLUT.weights`, the
    Q-format tables): bilinear ``(1-fx)(1-fy)``, ``fx(1-fy)``,
    ``(1-fx)fy``, ``fx fy``; bicubic row weight times column weight.
    ``spare`` is a float32 row as long as ``out``, free to hold
    bilinear tap 0's ``1 - fx``, so no tap allocates.
    """
    if method == "bilinear":
        one = np.float32(1.0)
        fx, fy = fracs[:, 0], fracs[:, 1]
        if k == 0:
            np.subtract(one, fx, out=spare)
            np.subtract(one, fy, out=out)
            np.multiply(spare, out, out=out)
        elif k == 1:
            np.subtract(one, fy, out=out)
            np.multiply(fx, out, out=out)
        elif k == 2:
            np.subtract(one, fx, out=out)
            np.multiply(out, fy, out=out)
        else:
            np.multiply(fx, fy, out=out)
    else:  # bicubic
        np.multiply(fracs[:, 4 + k // 4], fracs[:, k % 4], out=out)


def _check_frac_bits(frac_bits: int) -> int:
    """Validate the Q-format precision at LUT build time (fail fast)."""
    frac_bits = int(frac_bits)
    if not 1 <= frac_bits <= 14:
        raise KernelTierError(
            f"frac_bits must be 1..14 (int16 Q-format storage), got {frac_bits}")
    return frac_bits


@dataclass
class StageProfile:
    """Wall-clock seconds per pipeline stage of one profiled remap."""

    map_build: float = 0.0
    lut_build: float = 0.0
    gather: float = 0.0
    interpolate: float = 0.0
    store: float = 0.0

    @property
    def total(self) -> float:
        return self.map_build + self.lut_build + self.gather + self.interpolate + self.store

    def as_dict(self):
        return {
            "map_build": self.map_build,
            "lut_build": self.lut_build,
            "gather": self.gather,
            "interpolate": self.interpolate,
            "store": self.store,
            "total": self.total,
        }


class _ScratchPool:
    """Thread-safe pool of per-call kernel scratch buffers.

    A set is ``[acc, product, raw, index, wrow]``, each one tile of
    pixels: the accumulator, a product scratch of the accumulator dtype
    and a gather scratch of the frame's own dtype (the product scratch
    itself when the two dtypes agree), all three channel-planar
    ``(channels, pixels)``; the tile's base sample offsets widened to
    ``intp`` once for all its taps' takes; and the float32 tap-weight
    row of a float tier with weights (``None`` until a caller asks for
    it).  The tile walk borrows a set per call, slices its pixel axis
    for a partial tile and returns it afterwards, so a steady-state
    stream touches the allocator only on its first frame.  Keys are
    ``(pixels, channels, acc dtype, sample dtype)`` — concurrent tile
    workers each get their own set.
    """

    _MAX_PER_KEY = 8  # bound idle memory under bursty concurrency

    def __init__(self):
        self._lock = threading.Lock()
        self._free = {}

    @staticmethod
    def _key(n, channels, dtype, raw_dtype):
        return (n, channels, np.dtype(dtype).str, np.dtype(raw_dtype).str)

    def acquire(self, n: int, channels: int, dtype, raw_dtype,
                weights: bool = False):
        key = self._key(n, channels, dtype, raw_dtype)
        bufs = None
        with self._lock:
            stack = self._free.get(key)
            if stack:
                bufs = stack.pop()
        if bufs is None:
            acc = np.empty((channels, n), dtype=dtype)
            product = np.empty((channels, n), dtype=dtype)
            raw = (product if np.dtype(raw_dtype) == acc.dtype
                   else np.empty((channels, n), dtype=raw_dtype))
            bufs = [acc, product, raw, np.empty(n, dtype=np.intp), None]
        if weights and bufs[4] is None:
            bufs[4] = np.empty(n, dtype=np.float32)
        return bufs

    def release(self, bufs):
        acc, _, raw = bufs[:3]
        key = self._key(acc.shape[1], acc.shape[0], acc.dtype, raw.dtype)
        with self._lock:
            stack = self._free.setdefault(key, [])
            if len(stack) < self._MAX_PER_KEY:
                stack.append(bufs)


def _store_epilogue(acc, invalid, fill, dst, tel=None):
    """Shared store stage: fill, round, clip, cast into ``dst``.

    ``acc`` is one tile's channel-planar ``(channels, pixels)`` float
    accumulator, overwritten — never returned — so the caller can
    recycle it.  The fill, round and clip run planar, along the pixel
    axis; the cast into ``dst`` (the tile's rows of the destination,
    any strides) is :func:`~repro.core.kernel_tiers.store_planar`,
    one copy per channel.  ``invalid`` is
    ``None`` when the fill is a no-op.  ``tel`` (a stage-detail
    telemetry registry) wraps the stage in a ``remap.store`` span for
    the profiled path.
    """
    span = tel.span("remap.store", cat="kernel") if tel is not None else None
    if span is not None:
        span.__enter__()
    if invalid is not None:
        np.copyto(acc, fill, where=invalid)
    if np.issubdtype(dst.dtype, np.integer):
        info = np.iinfo(dst.dtype)
        np.rint(acc, out=acc)
        np.clip(acc, info.min, info.max, out=acc)
    kernel_tiers.store_planar(acc, dst)
    if span is not None:
        span.__exit__(None, None, None)


class RemapLUT:
    """Precomputed gather offsets + interpolation fractions for one field.

    Parameters
    ----------
    field:
        The backward coordinate field to freeze, read band by band
        through :meth:`~repro.core.mapping.RemapField.rows` (a recipe
        field's maps are never materialized).
    method:
        Interpolation kind; determines taps per pixel (1/4/16).
    fill:
        Value written at apply time to every output pixel whose sample
        point lies outside the source (the validity ``mask``).

    Notes
    -----
    The table stores one flat row-major ``int32`` offset per output
    pixel, ``base``: the pixel's resolved tap 0.  Its other taps sit at
    fixed stencil steps from it (``base + (0, 1, W, W+1)`` bilinear,
    the 4x4 grid bicubic), so a frame application gathers tap ``k`` of
    every pixel with one take through the source viewed from step
    ``k`` — the same dataflow as a DMA'd scatter-gather list or a
    texture fetch, at a quarter (bilinear) of the index traffic of a
    per-tap table.  Valid pixels whose resolved taps break the stencil
    are the *patch list*: ``patch_pixels`` (their output positions,
    ascending) and ``patch_taps`` (all their taps), re-gathered by the
    kernel.  Invalid pixels keep every tap at 0.
    Instead of materialized per-tap weights, the table keeps only the
    per-axis interpolation fractions (``fracs``): 2 float32 for
    bilinear, the two 4-vector Catmull-Rom axis weights for bicubic,
    nothing for nearest.  The float weights are derived per tile into
    pooled scratch — in a hardware kernel that derivation happens
    in-register, which is why :meth:`entry_bytes` (DMA sizing) prices
    only the base, the fractions and the mask byte.
    """

    def __init__(self, field: RemapField, method: str = "bilinear",
                 fill: float = 0.0, tier: str = "numpy",
                 frac_bits: int = kernel_tiers.DEFAULT_FRAC_BITS):
        self._build(field.shape, (field.src_height, field.src_width),
                    field.rows, method, fill, tier, frac_bits)

    @classmethod
    def from_rows(cls, rows, out_shape, src_shape, method: str = "bilinear",
                  fill: float = 0.0) -> "RemapLUT":
        """Build a LUT from a band evaluator instead of a stored field.

        ``rows(r0, r1)`` returns the ``(map_x, map_y)`` float64 source
        coordinates of output rows ``r0:r1`` (shape ``(r1 - r0, W_out)``);
        ``out_shape`` is ``(H_out, W_out)`` and ``src_shape``
        ``(H_src, W_src)``.  The tables equal ``RemapLUT(field)`` of the
        field those bands make up, which is never materialized — how a
        composed table is built (:func:`~repro.core.compose.composed_lut`).
        The LUT runs on the numpy tier; :meth:`with_tier` re-tiers it.
        """
        self = cls.__new__(cls)
        self._build(tuple(out_shape), tuple(src_shape), rows, method, fill,
                    "numpy", kernel_tiers.DEFAULT_FRAC_BITS)
        return self

    def _build(self, out_shape, src_shape, rows, method, fill, tier,
               frac_bits):
        """The parent build: every row of the final int32/float32/bool
        tables through :func:`build_table_rows`."""
        self._set_params(out_shape, src_shape, method, fill, tier, frac_bits)
        # the LUT stores fractions whatever its tier (Q weights derive
        # from them on demand)
        tables = {name: np.empty(shape, dtype=dtype, order=order)
                  for name, (shape, dtype, order) in
                  self.layout._replace(tier="numpy").kernel_layout().items()}
        self.base, self.mask = tables["base"], tables["mask"]
        self.fracs = tables.get("fracs")
        self.patch_pixels, self.patch_taps = build_table_rows(
            rows, 0, self.out_shape[0], self.layout, tables)
        self._qwtab = None         # lazily derived (taps, N) int16 Q weights
        self._pool = _ScratchPool()

    def _set_params(self, out_shape, src_shape, method, fill, tier,
                    frac_bits):
        self.method = method
        self.fill = float(fill)
        self.tier = kernel_tiers.resolve_tier(tier)
        self.frac_bits = _check_frac_bits(frac_bits)
        self.out_shape = tuple(out_shape)
        self.src_shape = tuple(src_shape)

    # ------------------------------------------------------------------
    @classmethod
    def from_tables(cls, base, fracs, mask, out_shape, src_shape,
                    method: str, fill: float,
                    tier: str = "numpy",
                    frac_bits: int = kernel_tiers.DEFAULT_FRAC_BITS,
                    qweight_table=None, patch=None) -> "RemapLUT":
        """Reconstruct a LUT from prebuilt tables (a shared-memory
        publication, or another tier's view of one LUT).

        Arrays are adopted as-is (no copy), so shared-memory-backed
        tables stay zero-copy.  ``patch`` is the
        ``(patch_pixels, patch_taps)`` pair (``None``: no patch rows).
        ``qweight_table`` optionally injects the ``(taps, N)`` int16
        quantized table the Q tiers execute; ``fracs`` may be ``None``
        when it is injected instead — the form :meth:`kernel_tables`
        hands a Q-tier publication.
        """
        self = cls.__new__(cls)
        self._set_params(out_shape, src_shape, method, fill, tier, frac_bits)
        n = int(np.prod(self.out_shape))
        if base.shape != (n,):
            raise MappingError(
                f"base table {base.shape} does not cover output {self.out_shape}")
        self.base = base
        self.fracs = fracs
        self.mask = mask
        if patch is None:
            patch = (np.empty(0, dtype=np.intp),
                     np.empty((0, self.taps), dtype=np.int32))
        self.patch_pixels, self.patch_taps = patch
        self._qwtab = qweight_table
        self._pool = _ScratchPool()
        return self

    def with_tier(self, tier: str,
                  frac_bits: int | None = None) -> "RemapLUT":
        """A view of this LUT executing on another kernel tier.

        The returned LUT *shares* the underlying tables (base,
        fractions, mask, patch list and any already-derived Q weights),
        so re-tiering is cheap and safe even for LUTs handed out by a
        shared :class:`~repro.core.lutcache.LUTCache` — the cached
        object is never mutated.  ``tier`` accepts ``auto`` and
        resolves it here (with the numpy fallback when numba is
        absent).
        """
        resolved = kernel_tiers.resolve_tier(tier)
        bits = self.frac_bits if frac_bits is None else _check_frac_bits(frac_bits)
        if resolved == self.tier and bits == self.frac_bits:
            return self
        return RemapLUT.from_tables(
            self.base, self.fracs, self.mask, self.out_shape,
            self.src_shape, self.method, self.fill,
            tier=resolved, frac_bits=bits,
            qweight_table=self._qwtab if bits == self.frac_bits else None,
            patch=(self.patch_pixels, self.patch_taps))

    # Scratch pools and derived tables are per-process state; drop them
    # when a LUT is pickled to a worker — unless there are no fractions
    # to derive them from again (a LUT rebuilt from published tables).
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        if self.fracs is not None:
            state["_qwtab"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._pool = _ScratchPool()

    # ------------------------------------------------------------------
    @property
    def layout(self) -> TableLayout:
        """This table's :class:`TableLayout`."""
        return TableLayout(self.out_shape, self.src_shape, self.method,
                           self.fill, self.tier, self.frac_bits)

    @property
    def taps(self) -> int:
        """Source gathers per output pixel."""
        return interp.footprint(self.method)

    def tap_offsets(self, row0: int = 0, row1: int | None = None, out=None):
        """The resolved ``(pixels, taps)`` int32 gather offsets of output
        rows ``[row0, row1)`` (all rows by default), expanded from the
        stored layout.

        Regular pixels get ``base + stencil``, patch pixels their stored
        taps and invalid pixels 0 — exactly the per-tap table a
        whole-array build makes.  ``out`` optionally receives the result
        (an ``(pixels, taps)`` int32 buffer).  The one reader of the
        expanded form: address traces, DMA ledgers, test oracles and
        the compiled tier's per-tile taps.
        """
        w_out = self.out_shape[1]
        row1 = self.out_shape[0] if row1 is None else row1
        sl = slice(row0 * w_out, row1 * w_out)
        base = self.base[sl]
        if out is None:
            out = np.empty((base.size, self.taps), dtype=np.int32)
        np.add(base[:, None], _stencil(self.method, self.src_shape[1]),
               out=out)
        out[~np.asarray(self.mask[sl])] = 0
        patch = self._tile_patch(sl)
        if patch is not None:
            out[patch[0]] = patch[1]
        return out

    @property
    def weights(self):
        """Derived per-tap weight matrix, shape ``(N, taps)`` float32.

        This is the *expanded* form of the stored fractions, derived
        fresh on every access (the kernel never uses it); rows of
        invalid output pixels are zero.  Kept for consumers that need
        explicit weights, e.g. an independent check of the Q tiers'
        :func:`~repro.core.fixedpoint.quantize_weights` tables.
        """
        self._require_fracs()
        wtab = np.empty((self.taps, self.base.shape[0]), dtype=np.float32)
        for sl in self._row_bands():
            _band_weights(self.method,
                          None if self.fracs is None else self.fracs[sl],
                          self.mask[sl], wtab[:, sl])
        return wtab.T

    @property
    def nbytes(self) -> int:
        """Size of the compact table: :meth:`entry_bytes` per output
        pixel plus the patch list.

        Priced from :meth:`entry_bytes`, so a LUT rebuilt from a Q-tier
        publication (Q weights in place of ``fracs``) reports the same
        size as the LUT it was published from.
        """
        return (int(np.prod(self.out_shape)) * self.entry_bytes()
                + self._patch_bytes(len(self.patch_pixels)))

    def _patch_bytes(self, rows: int) -> int:
        """Stored bytes of ``rows`` patch rows (position + taps)."""
        return rows * (self.patch_pixels.itemsize
                       + self.taps * self.patch_taps.itemsize)

    def entry_bytes(self) -> int:
        """Bytes per output pixel of streamed LUT data (DMA sizing).

        Compact layout: one int32 base offset, the per-axis fractions
        (8 B bilinear, 32 B bicubic, 0 B nearest) and one validity byte.  The derived tap offsets and weights are
        *not* counted — a device kernel rebuilds them in-register.  The
        Q tiers read int16 weights in place of the fractions, the same
        8 B bilinear and 32 B bicubic.
        """
        return self.entry_bytes_for(self.method)

    @staticmethod
    def entry_bytes_for(method: str) -> int:
        """Predict :meth:`entry_bytes` for a configuration without building.

        Used by the accelerator models and benchmarks to price DMA/LUT
        traffic of the host table layout.
        """
        if method not in interp.METHODS:
            raise InterpolationError(
                f"unknown interpolation method {method!r}; known: {interp.METHODS}")
        return 4 + 4 * _FRAC_FLOATS[method] + 1

    def traffic_per_frame(self, channels: int = 1,
                          pixel_bytes: int = 1) -> dict:
        """Per-frame bytes the fused apply touches (the host DMA ledger).

        Accounts the same three flows the Cell model's
        :meth:`~repro.accel.cellbe.CellModel.dma_profile` prices:
        source gathers (``taps`` reads per output pixel per channel —
        this is exactly what the ``remap.bytes_gathered`` counter
        observes at run time), the streamed LUT entries
        (:meth:`entry_bytes` per output pixel plus the patch list,
        independent of the channel count — the table is shared across
        planes/channels) and the output writes.  ``total_bytes`` is
        what the ``remap.bytes_streamed`` counter observes.  Planar
        4:2:0 streaming sums this ledger over the full-resolution luma
        LUT plus two half-resolution chroma applies, which is where its
        ~2x bytes-touched advantage over 3-channel RGB comes from.
        """
        n = int(np.prod(self.out_shape))
        gather = n * self.taps * channels * pixel_bytes
        lut = self.nbytes
        out = n * channels * pixel_bytes
        return {
            "pixels": n,
            "channels": channels,
            "gather_bytes": gather,
            "lut_bytes": lut,
            "out_bytes": out,
            "total_bytes": gather + lut + out,
        }

    # ------------------------------------------------------------------
    # Derived tables and per-tile views of the stored ones
    # ------------------------------------------------------------------
    def _require_fracs(self):
        if self.method != "nearest" and self.fracs is None:
            raise KernelTierError(
                f"this {self.method} LUT was rebuilt from tables without "
                f"float weights (a {self.tier}-tier publication); float "
                f"frames need a numpy-tier publication")

    def _row_bands(self):
        """Table-row slices of :data:`_BUILD_ROWS` output rows each."""
        n = self.base.shape[0]
        step = _BUILD_ROWS * self.out_shape[1]
        return [slice(s, min(s + step, n)) for s in range(0, n, step)]

    def _qweight_table(self):
        """``(taps, N)`` int16 Q-format weights for the fixed/compiled
        tiers (``None`` for nearest, whose unit weight the Q kernels
        skip); rows of one tap are contiguous so both the ufunc columns
        and the jitted per-tap streams read forward."""
        if self.method == "nearest":
            return None
        if self._qwtab is None:
            self._qwtab = self._derive_qweight_table()
        return self._qwtab

    def _derive_qweight_table(self):
        """Quantize the float weights band by band into a fresh
        ``(taps, N)`` int16 table (uncached)."""
        self._require_fracs()
        qwtab = np.empty((self.taps, self.base.shape[0]), dtype=np.int16)
        for sl in self._row_bands():
            _qweight_band(self.method,
                          None if self.fracs is None else self.fracs[sl],
                          self.mask[sl], self.frac_bits, qwtab[:, sl])
        return qwtab

    def _tile_patch(self, sl):
        """The patch rows inside table rows ``sl`` as ``(positions
        relative to sl.start, taps)``, or ``None`` when there are none."""
        pixels = self.patch_pixels
        if not len(pixels):
            return None
        a, b = np.searchsorted(pixels, (sl.start, sl.stop))
        if a == b:
            return None
        return pixels[a:b] - sl.start, self.patch_taps[a:b]

    def _tile_invalid(self, sl):
        """``~mask`` over table rows ``sl``, or ``None`` when every pixel
        there is valid (the fill is then a no-op)."""
        valid = self.mask[sl]
        return None if valid.all() else np.logical_not(valid)

    def _tap_sources(self, flat):
        """The flat samples under ``flat`` (``(pixels, channels)``, C
        contiguous) viewed from each tap's stencil step, per channel, in
        tap order: ``sources[k][c].take(base * C)`` reads channel ``c``
        of tap ``k`` of every regular pixel.  A step past the source's
        end (a source too small for the stencil, whose valid pixels are
        all patch rows) views the last pixel, so the clipped gather
        stays in bounds."""
        last, channels = flat.shape[0] - 1, flat.shape[1]
        samples = flat.reshape(-1)
        return [[samples[min(int(s), last) * channels + c:]
                 for c in range(channels)]
                for s in _stencil(self.method, self.src_shape[1])]

    def kernel_tables(self) -> dict:
        """The arrays this LUT's tier reads per frame, by table name.

        ``base``, ``mask``, the patch list
        (``patch_pixels``/``patch_taps``, when it is not empty) and the
        weights the tier derives its taps' weights from: ``fracs`` on
        the numpy tier (none for nearest), the ``(taps, N)`` int16
        ``qwtab`` on the Q tiers (none for nearest).  A Q table already
        cached on this LUT is reused; a missing one is derived into a
        fresh array and **not** cached, so publishing a shared
        :class:`~repro.core.lutcache.LUTCache` entry does not grow it.
        :meth:`from_tables` rebuilds a runnable LUT from exactly these
        arrays.
        """
        tables = {"base": self.base, "mask": np.asarray(self.mask)}
        if self.tier == "numpy":
            if self.fracs is not None:
                tables["fracs"] = self.fracs
        elif self.method != "nearest":
            tables["qwtab"] = (self._qwtab if self._qwtab is not None
                               else self._derive_qweight_table())
        if len(self.patch_pixels):
            tables["patch_pixels"] = self.patch_pixels
            tables["patch_taps"] = self.patch_taps
        return tables

    # ------------------------------------------------------------------
    # The fused kernel
    # ------------------------------------------------------------------
    def _prepare(self, image, tier: str = "numpy"):
        image = np.asarray(image)
        if image.shape[:2] != self.src_shape:
            raise MappingError(
                f"frame {image.shape[:2]} does not match LUT source {self.src_shape}")
        squeeze = image.ndim == 2
        n_src = self.src_shape[0] * self.src_shape[1]
        # The frame as (pixels, channels) over C-contiguous samples:
        # every tier gathers the raw samples of one band and widens only
        # what it gathered, never the whole plane.  A frame that is not
        # contiguous (a crop, a channel-reversed view) is copied once
        # here, since the host tiers' flat 1-D takes would otherwise
        # copy it on every tap.
        flat = np.ascontiguousarray(image).reshape(n_src, -1)
        if tier == "numpy":
            # Accumulate in float32 (the embedded-precision baseline)
            # except for float64 frames, which keep their native
            # precision instead of a lossy float32 round-trip.
            acc_dtype = np.float64 if image.dtype == np.float64 else np.float32
            if not np.issubdtype(image.dtype, np.integer):
                # float frames gather at the accumulator dtype (a no-op
                # conversion for float32/float64 frames)
                flat = flat.astype(acc_dtype, copy=False)
        else:
            # Q tiers: int32 accumulate covers 1-byte samples at Q14
            # with 16 taps; wider samples need int64.
            acc_dtype = np.int64 if image.dtype.itemsize > 1 else np.int32
        return image, flat, squeeze, acc_dtype

    def _accumulate(self, srcs, flat, base, patch, fracs, acc, product, raw,
                    wrow, tel=None):
        """Fused gather-multiply-accumulate of one tile into ``acc``.

        The tile is channel-planar: ``acc``, ``product`` and ``raw`` are
        ``(channels, pixels)``.  Each tap gathers raw samples of
        ``flat``'s dtype into ``raw``, one 1-D take per channel (through
        ``srcs``, the flat samples viewed from each tap's stencil step,
        then the tile's ``patch`` rows; see
        :func:`~repro.core.kernel_tiers.gather_tap`), and widens only
        those, with one casting copy into the accumulator-dtype scratch
        (the cast a whole-plane ``astype`` made, tile-sized), then
        multiplies by the tap's weights — derived from the tile's
        ``fracs`` into the float32 row ``wrow`` (tap 0 also borrows a
        row of the product scratch, idle while the accumulator takes
        its samples) — at the accumulator dtype.  Every channel row is
        contiguous and the weight row broadcasts along it, so each
        ufunc's inner loop spans the tile's pixels, never one packed
        pixel's two or three channels.  ``fracs`` is ``None`` for
        nearest (unit weights).
        ``tel`` is a stage-detail telemetry registry (or ``None`` on the
        shipping fast path): when present each gather/interpolate stage
        is wrapped in a span — the profiled path times exactly this
        kernel, never a re-implementation.
        """
        if fracs is not None:
            spare = product[0].view(np.float32)[:len(wrow)]

        def gather(k):
            kernel_tiers.gather_tap(srcs[k], flat, base, patch, k, raw)

        def madd(k):
            dst = acc if k == 0 else product
            if raw is not dst:
                np.copyto(dst, raw)
            if fracs is not None:
                _tap_weight(self.method, k, fracs, wrow, spare)
                np.multiply(dst, wrow, out=dst)
            if k:
                np.add(acc, product, out=acc)

        if tel is None:
            for k in range(len(srcs)):
                gather(k)
                madd(k)
            return
        for k in range(len(srcs)):
            with tel.span("remap.gather", cat="kernel"):
                gather(k)
            with tel.span("remap.interpolate", cat="kernel"):
                madd(k)

    def _run(self, image, row0=None, row1=None, out=None):
        """Shared implementation of apply/apply_rows/profiled apply."""
        tel = get_telemetry()
        wall0 = time.time() if tel.enabled else 0.0
        t0 = time.perf_counter() if tel.enabled else 0.0
        image = np.asarray(image)
        tier = self.tier
        if tier != "numpy" and not np.issubdtype(image.dtype, np.integer):
            # Q-format arithmetic is an integer-frame contract; float
            # pipelines keep full precision on the numpy path.
            tier = "numpy"
        image, flat, squeeze, acc_dtype = self._prepare(image, tier)
        band = row0 is not None
        if not band:
            row0, row1 = 0, self.out_shape[0]
        channels = flat.shape[1]
        shape = ((row1 - row0, self.out_shape[1])
                 + (() if squeeze else (channels,)))
        if out is None:
            out = np.empty(shape, dtype=image.dtype)
        elif out.shape != shape or out.dtype != image.dtype:
            raise MappingError(
                f"output buffer {out.shape}/{out.dtype} does not match "
                f"{shape}/{image.dtype}")
        if tier == "compiled":
            self._run_compiled(flat, row0, row1, out)
        else:
            self._walk_tiles(tier, flat, row0, row1, out, acc_dtype,
                             tel if tel.stage_detail else None)
        if tel.enabled:
            w_out = self.out_shape[1]
            n = (row1 - row0) * w_out
            dt = time.perf_counter() - t0
            tel.counter(f"kernel.tier.{tier}").inc()
            if not band:
                tel.counter("remap.frames").inc()
                tel.histogram("remap.apply_seconds").observe(dt)
                tel.add_span("remap.apply", wall0, dt, cat="kernel",
                             args={"tier": tier})
            else:
                tel.counter("remap.bands").inc()
                tel.histogram("remap.band_seconds").observe(dt)
            tel.counter("remap.pixels").inc(n)
            sample = channels * flat.dtype.itemsize
            gathered = n * self.taps * sample
            tel.counter("remap.bytes_gathered").inc(gathered)
            patch = self._tile_patch(slice(row0 * w_out, row1 * w_out))
            tel.counter("remap.bytes_streamed").inc(
                n * self.entry_bytes() + gathered + n * sample
                + self._patch_bytes(0 if patch is None else len(patch[0])))
        return out

    def _walk_tiles(self, tier, flat, row0, row1, out, acc_dtype, detail):
        """The numpy and ``fixed`` tiers: walk rows ``[row0, row1)`` in
        tiles of :data:`~repro.core.kernel_tiers.DEFAULT_TILE_ROWS`.

        One pooled, channel-planar scratch set sized for a full tile
        serves every tile (its pixel axis sliced for the last, partial
        one), so the accumulator, the tap-weight row and each tile's
        source bounding box stay cache-resident and a call's scratch is
        tile-sized whatever the range.  The tile's base offsets are
        widened and scaled to sample offsets (times the channel count)
        once for all its taps.  Each tile is stored straight into its
        rows of ``out``.
        ``detail`` is the stage-detail registry of the profiled path,
        or ``None``.
        """
        w_out = self.out_shape[1]
        channels = flat.shape[1]
        tile_rows = min(kernel_tiers.DEFAULT_TILE_ROWS, self.out_shape[0])
        srcs = self._tap_sources(flat)
        if tier == "numpy":
            self._require_fracs()
            fill = self.fill
        else:
            qwtab = self._qweight_table()
            fill = int(round(self.fill))
            info = np.iinfo(out.dtype)
        bufs = self._pool.acquire(
            tile_rows * w_out, channels, acc_dtype, flat.dtype,
            weights=tier == "numpy" and self.fracs is not None)
        try:
            acc, product, raw, index, wrow = bufs
            for r0 in range(row0, row1, tile_rows):
                r1 = min(r0 + tile_rows, row1)
                sl = slice(r0 * w_out, r1 * w_out)
                m = sl.stop - sl.start
                tile = (acc[:, :m], product[:, :m],
                        product[:, :m] if raw is product else raw[:, :m])
                base = index[:m]
                np.copyto(base, self.base[sl])
                np.multiply(base, channels, out=base)
                patch = self._tile_patch(sl)
                invalid = self._tile_invalid(sl)
                dst = out[r0 - row0:r1 - row0]
                if tier == "numpy":
                    fracs = None if self.fracs is None else self.fracs[sl]
                    self._accumulate(
                        srcs, flat, base, patch, fracs, *tile,
                        None if fracs is None else wrow[:m], tel=detail)
                    _store_epilogue(tile[0], invalid, fill, dst,
                                    tel=detail)
                else:
                    kernel_tiers.q_apply_block(
                        srcs, flat, base, patch,
                        None if qwtab is None else qwtab[:, sl],
                        self.frac_bits, info.min, info.max, invalid, fill,
                        dst, *tile, tel=detail)
        finally:
            self._pool.release(bufs)

    def _run_compiled(self, flat, row0, row1, out):
        """The ``compiled`` tier: the jitted Q-format kernel runs once per
        tile of :data:`~repro.core.kernel_tiers.DEFAULT_TILE_ROWS` rows
        over that tile's expanded taps (:meth:`tap_offsets`), so the
        jitted code reads the same ``(pixels, taps)`` layout it always
        has while the LUT stores one base per pixel."""
        from ..accel.compiled import compiled_apply_block
        w_out = self.out_shape[1]
        tile_rows = min(kernel_tiers.DEFAULT_TILE_ROWS, self.out_shape[0])
        info = np.iinfo(out.dtype)
        qwtab = self._qweight_table()
        m_tile = tile_rows * w_out
        taps = np.empty((m_tile, self.taps), dtype=np.int32)
        if qwtab is None:  # nearest: the unit Q weight
            unit = np.full((1, m_tile), 1 << self.frac_bits, dtype=np.int16)
        # a strided destination (rare) is computed contiguously, then
        # copied through its strides
        dst = out if out.flags.c_contiguous else np.empty(out.shape, out.dtype)
        dst_flat = dst.reshape((row1 - row0) * w_out, -1)
        for r0 in range(row0, row1, tile_rows):
            r1 = min(r0 + tile_rows, row1)
            sl = slice(r0 * w_out, r1 * w_out)
            m = sl.stop - sl.start
            compiled_apply_block(
                flat, self.tap_offsets(r0, r1, out=taps[:m]),
                unit[:, :m] if qwtab is None else qwtab[:, sl],
                self.mask[sl],
                int(round(self.fill)), self.frac_bits, info.min, info.max,
                dst_flat[(r0 - row0) * w_out:(r1 - row0) * w_out], w_out)
        if dst is not out:
            np.copyto(out, dst)

    # ------------------------------------------------------------------
    def apply(self, image, out=None):
        """Correct one frame: fused gather + weighted accumulate.

        Parameters
        ----------
        image:
            Source frame matching the field's source size.
        out:
            Optional preallocated output array of shape
            ``out_shape (+ channels)`` and the source dtype.  When
            given, the result is written into it directly (no
            intermediate full-frame materialization) and reusing it
            across frames makes the steady-state path allocation-free
            (streaming mode).
        """
        return self._run(image, out=out)

    def apply_into(self, image, out):
        """Correct one frame directly into ``out`` (required, validated).

        The explicit-destination twin of :meth:`apply`: the epilogue
        writes the caller's buffer in place, which is what the
        streaming pipeline and the shared-memory executors use to keep
        per-frame allocations at zero.
        """
        if out is None:
            raise MappingError("apply_into requires a destination buffer")
        return self._run(image, out=out)

    def apply_rows(self, image, row0: int, row1: int):
        """Correct only output rows ``[row0, row1)`` — the tile primitive.

        Returns the partial output block; used by the parallel
        executors, which stitch blocks into a shared output buffer.
        """
        if not 0 <= row0 < row1 <= self.out_shape[0]:
            raise MappingError(f"bad row range [{row0}, {row1}) for output {self.out_shape}")
        return self._run(image, row0=row0, row1=row1)

    def apply_rows_into(self, image, row0: int, row1: int, out):
        """Correct rows ``[row0, row1)`` straight into ``out``.

        ``out`` must be the destination *block* (e.g. a slice of a
        shared output frame); writing in place skips the
        stitch-by-copy of :meth:`apply_rows`.
        """
        if not 0 <= row0 < row1 <= self.out_shape[0]:
            raise MappingError(f"bad row range [{row0}, {row1}) for output {self.out_shape}")
        if out is None:
            raise MappingError("apply_rows_into requires a destination buffer")
        return self._run(image, row0=row0, row1=row1, out=out)


def remap_profiled(image, field: RemapField, method: str = "bilinear",
                   fill: float = 0.0):
    """Remap one frame while timing each pipeline stage (T2 profile).

    Stages: LUT build (tap/fraction resolution), gather (source
    fetches), interpolate (per-tile weight derivation and weighted
    accumulate), store
    (fill, rounding, dtype cast).  The stage times come from the
    :mod:`repro.obs` span API: a private stage-detail registry is
    scoped in and the *shipping fused kernel* emits ``remap.gather`` /
    ``remap.interpolate`` / ``remap.store`` spans as it runs — the
    profile reflects exactly the code path :meth:`RemapLUT.apply`
    executes, not a parallel re-implementation, and cannot drift from
    it.  The ``map_build`` stage is timed by the caller, which owns map
    construction; it is left 0 here.

    Returns
    -------
    (ndarray, StageProfile)
    """
    image = np.asarray(image)
    prof = StageProfile()

    tel = Telemetry(stage_detail=True)
    with scoped(tel):
        with tel.span("remap.lut_build", cat="kernel"):
            lut = RemapLUT(field, method=method, fill=fill)
        result = lut._run(image)
    prof.lut_build = tel.span_total("remap.lut_build")
    prof.gather = tel.span_total("remap.gather")
    prof.interpolate = tel.span_total("remap.interpolate")
    prof.store = tel.span_total("remap.store")
    return result, prof
