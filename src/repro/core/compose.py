"""Coordinate-field composition: chain warps without chaining resampling.

Applying two warps to an *image* back to back resamples twice and
compounds interpolation loss; composing the *coordinate fields* first
and remapping once is both cheaper and sharper.  Use cases in this
repo's domain:

- digital zoom / crop *after* correction (outer crop ∘ inner
  correction),
- applying a stabilizing micro-rotation per frame on top of a fixed
  correction,
- fused correct+downscale: a 4K feed delivered at 1080p gathers ~5x
  fewer bytes through one composed table than through
  correct-then-downscale (the ``fused`` gate of
  ``benchmarks/check_regression.py``),
- the quality metrics' correction ∘ rendering composition (F10), here
  generalized.

``compose_fields(outer, inner)`` returns the field of "``inner`` after
``outer``": output pixel ``p`` goes to ``inner(outer(p))``, with
``inner``'s coordinate arrays sampled bilinearly at ``outer``'s
fractional targets.  Out-of-range at either stage propagates to
``nan`` (out-of-FOV), like every map in the library.

:func:`downscale_field` is the area-convention outer map for fused
delivery, and :func:`composed_lut` collapses a composition into one
gather table — memoized through :meth:`repro.core.lutcache.LUTCache
.get_composed` under a key derived from the *constituent* field
content hashes, so composed maps warm-start like plain ones.  The
table is built from the composition one band of output rows at a time
(:meth:`~repro.core.remap.RemapLUT.from_rows`), so the composed
float64 field is never materialized; :func:`compose_fields` runs the
same band lerp into a stored field for callers that want one.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import MappingError
from .interpolation import bilinear_taps, sample, valid_mask
from .mapping import RemapField
from .remap import _BUILD_ROWS, RemapLUT

__all__ = ["compose_fields", "crop_field", "affine_field",
           "downscale_field", "composed_lut"]


def _require_finite(label: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise MappingError(f"{label} must be finite, got {v!r}")


def _composed_rows(outer: RemapField, inner: RemapField):
    """Band evaluator of ``inner after outer`` (the one composition lerp).

    Returns ``rows(r0, r1) -> (map_x, map_y)``: the composed float64
    coordinates of output rows ``r0:r1``, every temporary band-sized.
    Both coordinate planes share ``outer``'s taps, resolved once per
    band.
    """
    ih, iw = inner.shape
    if (outer.src_width, outer.src_height) != (iw, ih):
        raise MappingError(
            f"outer field samples a {outer.src_width}x{outer.src_height} frame "
            f"but inner produces {iw}x{ih}")

    def rows(r0, r1):
        ox, oy = outer.map_x[r0:r1], outer.map_y[r0:r1]
        valid = valid_mask(ox, oy, iw, ih)
        ix, iy, fx, fy = bilinear_taps(ox, oy)
        x0, x1 = np.clip(ix, 0, iw - 1), np.clip(ix + 1, 0, iw - 1)
        y0, y1 = np.clip(iy, 0, ih - 1) * iw, np.clip(iy + 1, 0, ih - 1) * iw
        taps = (y0 + x0, y0 + x1, y1 + x0, y1 + x1)
        gx, gy = 1.0 - fx, 1.0 - fy

        def lerp(plane):
            p00, p01, p10, p11 = (np.take(plane, t) for t in taps)
            out = (p00 * gx + p01 * fx) * gy + (p10 * gx + p11 * fx) * fy
            return np.where(valid, out, np.nan)
        return lerp(inner.map_x), lerp(inner.map_y)
    return rows


def compose_fields(outer: RemapField, inner: RemapField) -> RemapField:
    """Field of ``inner`` applied after ``outer`` (see module docs).

    ``outer`` must map into ``inner``'s output domain: its source size
    must equal ``inner``'s output shape.  The serving path never
    materializes this field: :func:`composed_lut` builds its table from
    the same band evaluator directly.
    """
    rows = _composed_rows(outer, inner)
    h, w = outer.shape
    map_x = np.empty((h, w))
    map_y = np.empty((h, w))
    for r0 in range(0, h, _BUILD_ROWS):
        r1 = min(r0 + _BUILD_ROWS, h)
        map_x[r0:r1], map_y[r0:r1] = rows(r0, r1)
    return RemapField(map_x, map_y, inner.src_width, inner.src_height)


def _composed_table(outer: RemapField, inner: RemapField, method: str,
                    fill: float) -> RemapLUT:
    """The fused table of ``inner after outer``, built band by band
    without materializing the composed field."""
    rows = _composed_rows(outer, inner)
    return RemapLUT.from_rows(rows, outer.shape,
                              (inner.src_height, inner.src_width),
                              method=method, fill=fill)


def crop_field(width: int, height: int, x0: float, y0: float,
               src_width: int, src_height: int, scale: float = 1.0) -> RemapField:
    """A crop/zoom field: output pixel ``(i, j)`` samples
    ``(x0 + j * scale, y0 + i * scale)`` of the source.

    ``scale < 1`` zooms in (upsamples), ``> 1`` zooms out.
    """
    if width <= 0 or height <= 0:
        raise MappingError(f"output size must be positive: {width}x{height}")
    _require_finite("crop origin", x0, y0)
    _require_finite("crop scale", scale)
    if scale <= 0:
        raise MappingError(f"scale must be positive, got {scale}")
    ys, xs = np.indices((height, width), dtype=np.float64)
    return RemapField(x0 + xs * scale, y0 + ys * scale, src_width, src_height)


def affine_field(width: int, height: int, matrix, src_width: int,
                 src_height: int) -> RemapField:
    """A general 2x3 affine backward map (rotation/scale/shear/shift).

    ``matrix`` rows are ``[a, b, tx]`` / ``[c, d, ty]``:
    ``src = (a x + b y + tx, c x + d y + ty)``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (2, 3):
        raise MappingError(f"affine matrix must be 2x3, got {matrix.shape}")
    _require_finite("affine matrix entries", matrix)
    if width <= 0 or height <= 0:
        raise MappingError(f"output size must be positive: {width}x{height}")
    ys, xs = np.indices((height, width), dtype=np.float64)
    mx = matrix[0, 0] * xs + matrix[0, 1] * ys + matrix[0, 2]
    my = matrix[1, 0] * xs + matrix[1, 1] * ys + matrix[1, 2]
    return RemapField(mx, my, src_width, src_height)


def downscale_field(width: int, height: int, src_width: int,
                    src_height: int, prefilter: bool = True) -> RemapField:
    """The outer map of a fused correct+downscale composition.

    Unlike :func:`crop_field`'s corner-aligned convention, this uses
    the **area convention**: output pixel ``j`` covers source span
    ``[j*s, (j+1)*s)`` and samples its centre, ``(j + 0.5)*s - 0.5``.
    At exactly 2:1 the bilinear taps of the composed table then land
    halfway between source pixels — the gather *is* the 2x2 box
    average, so the fused 4-tap table is inherently anti-aliased for
    the common 4K→1080p case.

    Beyond 2:1 a 2x2 bilinear footprint no longer covers the ``s x s``
    pixel area, so the field carries a ``prefilter_factor`` hint
    (``ceil(s / 2)``) that :func:`composed_lut` threads to the
    antialias module (:class:`~repro.core.antialias.SupersampledLUT`)
    when anti-aliased quality is requested.  ``prefilter=False`` pins
    the hint to 1 (always the plain 4-tap table).
    """
    if width <= 0 or height <= 0:
        raise MappingError(f"output size must be positive: {width}x{height}")
    if src_width <= 0 or src_height <= 0:
        raise MappingError(
            f"source size must be positive: {src_width}x{src_height}")
    if src_width < width or src_height < height:
        raise MappingError(
            f"downscale_field shrinks: {src_width}x{src_height} source "
            f"cannot downscale to {width}x{height}")
    sx = src_width / width
    sy = src_height / height
    ys, xs = np.indices((height, width), dtype=np.float64)
    field = RemapField((xs + 0.5) * sx - 0.5, (ys + 0.5) * sy - 0.5,
                       src_width, src_height)
    field.prefilter_factor = max(1, math.ceil(max(sx, sy) / 2.0)) \
        if prefilter else 1
    return field


def _composed_builder(outer: RemapField, inner: RemapField):
    """A fractional-coordinate evaluator of ``inner after outer``.

    Both constituent fields live on integer grids, so off-grid
    evaluation bilinearly interpolates ``outer``'s coordinate arrays
    first (exact for affine outers such as :func:`downscale_field`)
    and then ``inner``'s at the resulting targets — the builder shape
    :func:`~repro.core.antialias.supersample_field` consumes.
    """
    def build(xs, ys):
        ox = sample(outer.map_x, xs, ys, method="bilinear", fill=np.nan)
        oy = sample(outer.map_y, xs, ys, method="bilinear", fill=np.nan)
        mx = sample(inner.map_x, ox, oy, method="bilinear", fill=np.nan)
        my = sample(inner.map_y, ox, oy, method="bilinear", fill=np.nan)
        return mx, my, inner.src_width, inner.src_height
    return build


def composed_lut(outer: RemapField, inner: RemapField, *,
                 method: str = "bilinear", fill: float = 0.0, cache=None,
                 antialias=None):
    """One fused gather table for ``inner after outer``.

    The hot path of fused correct+downscale(+crop): instead of
    remapping at full resolution and resampling again, the composition
    collapses into a single :class:`~repro.core.remap.RemapLUT` at the
    *output* resolution — every frame pays one gather pass whose
    traffic scales with the delivered size, not the intermediate.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.core.lutcache.LUTCache`; the fused
        table is then fetched through :meth:`~repro.core.lutcache
        .LUTCache.get_composed`, keyed by the content hashes of the
        *constituent* fields (cheap — no need to fingerprint the
        composed field), so concurrent opens build once and restarts
        warm-start from the disk tier.
    antialias:
        ``None`` (default) honours the outer field's
        ``prefilter_factor`` hint (see :func:`downscale_field`);
        ``False`` forces the plain 4-tap table; an ``int >= 2`` forces
        that supersampling factor.  A factor above 1 returns a
        :class:`~repro.core.antialias.SupersampledLUT` built through
        the sub-pixel composed map (``factor**2 x taps`` gathers,
        never cached).
    """
    factor = getattr(outer, "prefilter_factor", 1) if antialias is None \
        else (1 if antialias is False else int(antialias))
    if factor < 1:
        raise MappingError(f"antialias factor must be >= 1, got {factor}")
    if factor > 1:
        from .antialias import SupersampledLUT
        oh, ow = outer.shape
        return SupersampledLUT.from_builder(
            _composed_builder(outer, inner), ow, oh, factor,
            method=method, fill=fill)
    if cache is not None:
        return cache.get_composed(outer, inner, method=method, fill=fill)
    return _composed_table(outer, inner, method, fill)
