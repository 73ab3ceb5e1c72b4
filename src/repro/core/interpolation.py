"""Image sampling kernels: nearest, bilinear, and bicubic interpolation.

These are the inner loops of the distortion-correction kernel.  The
vectorized implementations are pure numpy gathers (fancy indexing) plus
weighted accumulation — the same dataflow a SIMD/GPU implementation
uses — and each has a straight-line *scalar reference* twin
(``*_scalar``) used as a correctness oracle by the test suite.

Coordinate convention: pixel centres on integer coordinates, ``x``
along width (axis 1), ``y`` along height (axis 0).

A sample point outside the image (or ``nan``, an out-of-FOV mapping
result) returns ``fill`` — the "black ring" of a corrected fisheye
frame.  A point inside it whose footprint reaches past the edge reads
the edge pixel for the missing taps.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpolationError

__all__ = [
    "METHODS",
    "resolve_indices",
    "valid_mask",
    "sample",
    "sample_nearest",
    "sample_bilinear",
    "sample_bicubic",
    "sample_scalar",
    "nearest_taps",
    "bilinear_taps",
    "bicubic_taps",
    "catmull_rom_weights",
    "footprint",
]

#: supported interpolation methods, cheapest first
METHODS = ("nearest", "bilinear", "bicubic")

#: taps along each axis per method (footprint is taps**2 pixels)
_TAPS = {"nearest": 1, "bilinear": 2, "bicubic": 4}


def footprint(method: str) -> int:
    """Number of source pixels gathered per output pixel."""
    try:
        taps = _TAPS[method]
    except KeyError:
        raise InterpolationError(
            f"unknown interpolation method {method!r}; known: {METHODS}") from None
    return taps * taps


def resolve_indices(idx, size: int):
    """Clamp (possibly out-of-range) integer indices into ``[0, size)``.

    The caller masks samples outside the image separately via
    :func:`valid_mask`.
    """
    return np.clip(np.asarray(idx), 0, size - 1)


def valid_mask(xs, ys, width: int, height: int):
    """Mask of coordinates that fall inside the source image.

    ``nan`` coordinates (out-of-FOV mapping results) are invalid.
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    with np.errstate(invalid="ignore"):
        return (xs >= 0) & (xs <= width - 1) & (ys >= 0) & (ys <= height - 1)


def _prepare(image, xs, ys):
    image = np.asarray(image)
    if image.ndim == 2:
        image = image[:, :, None]
        squeeze = True
    elif image.ndim == 3:
        squeeze = False
    else:
        raise InterpolationError(f"image must be 2-D or 3-D, got shape {image.shape}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise InterpolationError(f"coordinate shape mismatch: {xs.shape} vs {ys.shape}")
    return image, xs, ys, squeeze


def _finish(out, image, mask, fill, squeeze, out_dtype):
    out = np.where(mask[..., None], out, fill)
    if np.issubdtype(out_dtype, np.integer):
        info = np.iinfo(out_dtype)
        out = np.clip(np.rint(out), info.min, info.max)
    out = out.astype(out_dtype, copy=False)
    if squeeze:
        out = out[..., 0]
    return out


# ----------------------------------------------------------------------
# Nearest neighbour
# ----------------------------------------------------------------------
def sample_nearest(image, xs, ys, fill: float = 0.0):
    """Nearest-neighbour sampling (1 gather per output pixel)."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h)
    ix, iy = nearest_taps(xs, ys)
    ix = resolve_indices(ix, w)
    iy = resolve_indices(iy, h)
    out = image[iy, ix].astype(np.float64)
    return _finish(out, image, mask, fill, squeeze, image.dtype)


# ----------------------------------------------------------------------
# Bilinear
# ----------------------------------------------------------------------
#: Magnitude from which every float64 is a whole number.  A coordinate
#: this far out, ``nan`` or infinite takes the slow path of
#: :func:`_taps`, which keeps its integer tap inside the int64 range.
_FAR = 2.0 ** 52


def _taps(xs, ys, to_base, fractions=True):
    """Integer tap origins ``to_base(xs)``, ``to_base(ys)`` and, with
    ``fractions``, the float64 fractions ``xs - to_base(xs)`` etc.

    A non-finite coordinate gets origin 0 and fraction 0 on its axis
    (the caller masks its pixel); a finite one with ``|x| >= _FAR`` is
    clamped to ``±_FAR / 2``, far beyond any edge, with fraction 0.
    Every other coordinate keeps its origin and fraction.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    bx = to_base(xs)
    by = to_base(ys)
    if _inside(bx, by):
        fx, fy = (xs - bx, ys - by) if fractions else (None, None)
        return bx.astype(np.intp), by.astype(np.intp), fx, fy
    with np.errstate(invalid="ignore"):  # inf - inf, zeroed below
        fx, fy = (xs - bx, ys - by) if fractions else (None, None)
    for v, base, frac in ((xs, bx, fx), (ys, by, fy)):
        gone = ~np.isfinite(v)
        np.copyto(base, 0.0, where=gone)
        if frac is not None:
            np.copyto(frac, 0.0, where=gone)
    if not _inside(bx, by):  # far-out finite coordinates: few, clamped
        for base, frac in ((bx, fx), (by, fy)):
            far = np.flatnonzero(np.abs(base) >= _FAR)
            base.reshape(-1)[far] = np.clip(base.reshape(-1)[far],
                                            -_FAR / 2, _FAR / 2)
            if frac is not None:
                frac.reshape(-1)[far] = 0.0
    return bx.astype(np.intp), by.astype(np.intp), fx, fy


def _inside(bx, by) -> bool:
    """Whether every origin is finite and inside ``(-_FAR, _FAR)`` (a
    ``nan`` propagates through min/max and fails every compare)."""
    return not bx.size or (-_FAR < bx.min() and bx.max() < _FAR
                           and -_FAR < by.min() and by.max() < _FAR)


def nearest_taps(xs, ys):
    """Nearest-neighbour taps ``(ix, iy)``: each coordinate rounded to
    the nearest integer (halves to even), with the non-finite and
    far-out handling of :func:`bilinear_taps`."""
    ix, iy, _, _ = _taps(xs, ys, np.rint, fractions=False)
    return ix, iy


def bilinear_taps(xs, ys):
    """Decompose coordinates into integer bases and fractional weights.

    Returns ``(ix, iy, fx, fy)`` with ``ix = floor(xs)`` etc.  A ``nan``
    or infinite coordinate produces tap 0 with zero fraction on its
    axis; the caller masks the pixel out.  A finite coordinate too far
    out for an integer tap (``|x| >= 2**52``, a whole number) is
    clamped, with zero fraction, far beyond the edge.  This is the
    precomputation a remap LUT stores.
    """
    return _taps(xs, ys, np.floor)


def sample_bilinear(image, xs, ys, fill: float = 0.0):
    """Bilinear sampling (4 gathers + 8 multiply-adds per output pixel)."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h)
    ix, iy, fx, fy = bilinear_taps(xs, ys)
    x0 = resolve_indices(ix, w)
    x1 = resolve_indices(ix + 1, w)
    y0 = resolve_indices(iy, h)
    y1 = resolve_indices(iy + 1, h)
    fx = fx[..., None]
    fy = fy[..., None]
    img = image.astype(np.float64, copy=False)
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    out = top * (1.0 - fy) + bot * fy
    return _finish(out, image, mask, fill, squeeze, image.dtype)


# ----------------------------------------------------------------------
# Bicubic (Catmull-Rom, a = -0.5)
# ----------------------------------------------------------------------
def catmull_rom_weights(frac):
    """Catmull-Rom weights for taps at offsets (-1, 0, +1, +2).

    Returns an array with shape ``frac.shape + (4,)``; the four weights
    sum to 1 for every fractional position.
    """
    t = np.asarray(frac, dtype=np.float64)
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t3 + 2.0 * t2 - t)
    w1 = 0.5 * (3.0 * t3 - 5.0 * t2 + 2.0)
    w2 = 0.5 * (-3.0 * t3 + 4.0 * t2 + t)
    w3 = 0.5 * (t3 - t2)
    return np.stack([w0, w1, w2, w3], axis=-1)


def bicubic_taps(xs, ys):
    """Integer bases plus 4-tap weight vectors along each axis.

    Returns ``(ix, iy, wx, wy)`` where ``wx``/``wy`` have a trailing
    length-4 axis; the 16 source pixels are ``(iy - 1 + j, ix - 1 + i)``
    weighted by ``wy[..., j] * wx[..., i]``.  Non-finite and far-out
    coordinates are handled as in :func:`bilinear_taps`.
    """
    ix, iy, fx, fy = _taps(xs, ys, np.floor)
    return ix, iy, catmull_rom_weights(fx), catmull_rom_weights(fy)


def sample_bicubic(image, xs, ys, fill: float = 0.0):
    """Bicubic (Catmull-Rom) sampling: 16 gathers + ~20 MACs per pixel."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h)
    ix, iy, wx, wy = bicubic_taps(xs, ys)
    img = image.astype(np.float64, copy=False)
    out = np.zeros(xs.shape + (img.shape[2],), dtype=np.float64)
    # Separable accumulation: 4 row passes, each combining 4 column taps.
    for j in range(4):
        yj = resolve_indices(iy - 1 + j, h)
        row = np.zeros_like(out)
        for i in range(4):
            xi = resolve_indices(ix - 1 + i, w)
            row += img[yj, xi] * wx[..., i, None]
        out += row * wy[..., j, None]
    return _finish(out, image, mask, fill, squeeze, image.dtype)


_SAMPLERS = {
    "nearest": sample_nearest,
    "bilinear": sample_bilinear,
    "bicubic": sample_bicubic,
}


def sample(image, xs, ys, method: str = "bilinear", fill: float = 0.0):
    """Sample ``image`` at fractional coordinates ``(xs, ys)``.

    Parameters
    ----------
    image:
        ``(H, W)`` or ``(H, W, C)`` array of any real dtype.
    xs, ys:
        Fractional source coordinates (same shape); ``nan`` marks
        out-of-FOV points.
    method:
        One of :data:`METHODS`.
    fill:
        Value of every sample point outside the image.

    Returns
    -------
    ndarray
        Sampled image with shape ``xs.shape`` (+ channels), same dtype
        as ``image`` (rounded and clipped for integer dtypes).
    """
    try:
        fn = _SAMPLERS[method]
    except KeyError:
        raise InterpolationError(
            f"unknown interpolation method {method!r}; known: {METHODS}") from None
    return fn(image, xs, ys, fill=fill)


# ----------------------------------------------------------------------
# Scalar reference implementation (oracle; deliberately loop-based)
# ----------------------------------------------------------------------
def _sample_one(image, x, y, method, fill):
    h, w = image.shape[:2]
    if not (0 <= x <= w - 1 and 0 <= y <= h - 1):  # False for nan too
        return np.full(image.shape[2], fill, dtype=np.float64)

    def fetch(ix, iy):
        ix = min(max(ix, 0), w - 1)
        iy = min(max(iy, 0), h - 1)
        return image[iy, ix].astype(np.float64)

    if method == "nearest":
        return fetch(int(round(x)), int(round(y)))
    if method == "bilinear":
        ix, iy = int(np.floor(x)), int(np.floor(y))
        fx, fy = x - ix, y - iy
        top = fetch(ix, iy) * (1 - fx) + fetch(ix + 1, iy) * fx
        bot = fetch(ix, iy + 1) * (1 - fx) + fetch(ix + 1, iy + 1) * fx
        return top * (1 - fy) + bot * fy
    if method == "bicubic":
        ix, iy = int(np.floor(x)), int(np.floor(y))
        wx = catmull_rom_weights(np.array(x - ix))
        wy = catmull_rom_weights(np.array(y - iy))
        acc = np.zeros(image.shape[2], dtype=np.float64)
        for j in range(4):
            row = np.zeros(image.shape[2], dtype=np.float64)
            for i in range(4):
                row += fetch(ix - 1 + i, iy - 1 + j) * wx[i]
            acc += row * wy[j]
        return acc
    raise InterpolationError(f"unknown interpolation method {method!r}")


def sample_scalar(image, xs, ys, method: str = "bilinear", fill: float = 0.0):
    """Loop-based reference sampler (slow; for tests and tiny images).

    Semantically identical to :func:`sample`; kept free of any numpy
    vector tricks so the two implementations fail independently.
    """
    image = np.asarray(image)
    squeeze = image.ndim == 2
    if squeeze:
        image = image[:, :, None]
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_1d(np.asarray(ys, dtype=np.float64))
    shape = xs.shape
    flat_x = xs.ravel()
    flat_y = ys.ravel()
    out = np.empty((flat_x.size, image.shape[2]), dtype=np.float64)
    for k in range(flat_x.size):
        out[k] = _sample_one(image, flat_x[k], flat_y[k], method, fill)
    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        out = np.clip(np.rint(out), info.min, info.max)
    out = out.astype(image.dtype).reshape(shape + (image.shape[2],))
    if squeeze:
        out = out[..., 0]
    return out
