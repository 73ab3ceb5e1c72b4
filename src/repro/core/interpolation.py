"""Image sampling kernels: nearest, bilinear, and bicubic interpolation.

These are the inner loops of the distortion-correction kernel.  The
vectorized implementations are pure numpy gathers (fancy indexing) plus
weighted accumulation — the same dataflow a SIMD/GPU implementation
uses — and each has a straight-line *scalar reference* twin
(``*_scalar``) used as a correctness oracle by the test suite.

Coordinate convention: pixel centres on integer coordinates, ``x``
along width (axis 1), ``y`` along height (axis 0).

Border modes
------------
``constant``
    Samples whose footprint leaves the image return ``fill``
    (the "black ring" of a corrected fisheye frame).
``replicate``
    Indices clamp to the edge.
``reflect``
    Mirror about the edge pixel (``dcb|abcd|cba``).
``wrap``
    Periodic tiling.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpolationError

__all__ = [
    "METHODS",
    "BORDER_MODES",
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

#: supported border handling modes
BORDER_MODES = ("constant", "replicate", "reflect", "wrap")

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


def resolve_indices(idx, size: int, border: str):
    """Map (possibly out-of-range) integer indices into ``[0, size)``.

    For ``constant`` the indices are clamped — the caller is expected to
    mask invalid samples separately via :func:`valid_mask`.
    """
    idx = np.asarray(idx)
    if border in ("constant", "replicate"):
        return np.clip(idx, 0, size - 1)
    if border == "reflect":
        if size == 1:
            return np.zeros_like(idx)
        period = 2 * (size - 1)
        idx = np.mod(idx, period)
        return np.where(idx >= size, period - idx, idx)
    if border == "wrap":
        return np.mod(idx, size)
    raise InterpolationError(f"unknown border mode {border!r}; known: {BORDER_MODES}")


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
    if mask is not None:
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
def sample_nearest(image, xs, ys, border: str = "constant", fill: float = 0.0):
    """Nearest-neighbour sampling (1 gather per output pixel)."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h) if border == "constant" else None
    ix, iy = nearest_taps(xs, ys, (h, w), border)
    ix = resolve_indices(ix, w, border)
    iy = resolve_indices(iy, h, border)
    out = image[iy, ix].astype(np.float64)
    return _finish(out, image, mask, fill, squeeze, image.dtype)


# ----------------------------------------------------------------------
# Bilinear
# ----------------------------------------------------------------------
#: Magnitude from which every float64 is a whole number.  A coordinate
#: this far out, ``nan`` or infinite takes the slow path of
#: :func:`_taps`, which keeps its integer tap inside the int64 range.
_FAR = 2.0 ** 52


def _fold(v, size, border):
    """Move whole coordinates ``v`` (``|v| >= _FAR``) into
    ``(-_FAR, _FAR)`` without changing the pixel any tap ``v + k``
    resolves to under ``border``: ``fmod`` by the border's period is
    exact, and ``constant``/``replicate`` (or an unknown ``size``) only
    need the coordinate beyond the edge."""
    if size is not None and border == "wrap":
        return np.fmod(v, size)
    if size is not None and border == "reflect":
        return np.fmod(v, 2 * (size - 1)) if size > 1 else np.zeros_like(v)
    return np.clip(v, -_FAR / 2, _FAR / 2)


def _taps(xs, ys, shape, border, to_base, fractions=True):
    """Integer tap origins ``to_base(xs)``, ``to_base(ys)`` and, with
    ``fractions``, the float64 fractions ``xs - to_base(xs)`` etc.

    A non-finite coordinate gets origin 0 and fraction 0 on its axis
    (the caller masks its pixel under ``constant``); a finite one with
    ``|x| >= _FAR`` is folded (:func:`_fold`) by the source ``shape``
    ``(h, w)`` and ``border``.  Every other coordinate keeps its
    origin and fraction.
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
    if not _inside(bx, by):  # far-out finite coordinates: few, folded
        h, w = shape if shape is not None else (None, None)
        for base, frac, size in ((bx, fx, w), (by, fy, h)):
            far = np.flatnonzero(np.abs(base) >= _FAR)
            whole = to_base(_fold(base.reshape(-1)[far], size, border))
            base.reshape(-1)[far] = whole
            if frac is not None:
                frac.reshape(-1)[far] = 0.0
    return bx.astype(np.intp), by.astype(np.intp), fx, fy


def _inside(bx, by) -> bool:
    """Whether every origin is finite and inside ``(-_FAR, _FAR)`` (a
    ``nan`` propagates through min/max and fails every compare)."""
    return not bx.size or (-_FAR < bx.min() and bx.max() < _FAR
                           and -_FAR < by.min() and by.max() < _FAR)


def nearest_taps(xs, ys, shape=None, border: str = "replicate"):
    """Nearest-neighbour taps ``(ix, iy)``: each coordinate rounded to
    the nearest integer (halves to even), with the non-finite and
    far-out handling of :func:`bilinear_taps`."""
    ix, iy, _, _ = _taps(xs, ys, shape, border, np.rint, fractions=False)
    return ix, iy


def bilinear_taps(xs, ys, shape=None, border: str = "replicate"):
    """Decompose coordinates into integer bases and fractional weights.

    Returns ``(ix, iy, fx, fy)`` with ``ix = floor(xs)`` etc.  A ``nan``
    or infinite coordinate produces tap 0 with zero fraction on its
    axis; the caller masks the pixel out under ``constant``.  A finite
    coordinate too far out for an integer tap (``|x| >= 2**52``, a
    whole number) is moved, with zero fraction, to one that resolves
    to the same pixels under ``border`` on a source of ``shape``
    ``(h, w)``; without ``shape`` it is clamped far beyond the edge.
    This is the precomputation a remap LUT stores.
    """
    return _taps(xs, ys, shape, border, np.floor)


def sample_bilinear(image, xs, ys, border: str = "constant", fill: float = 0.0):
    """Bilinear sampling (4 gathers + 8 multiply-adds per output pixel)."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h) if border == "constant" else None
    ix, iy, fx, fy = bilinear_taps(xs, ys, (h, w), border)
    x0 = resolve_indices(ix, w, border)
    x1 = resolve_indices(ix + 1, w, border)
    y0 = resolve_indices(iy, h, border)
    y1 = resolve_indices(iy + 1, h, border)
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


def bicubic_taps(xs, ys, shape=None, border: str = "replicate"):
    """Integer bases plus 4-tap weight vectors along each axis.

    Returns ``(ix, iy, wx, wy)`` where ``wx``/``wy`` have a trailing
    length-4 axis; the 16 source pixels are ``(iy - 1 + j, ix - 1 + i)``
    weighted by ``wy[..., j] * wx[..., i]``.  Non-finite and far-out
    coordinates are handled as in :func:`bilinear_taps`.
    """
    ix, iy, fx, fy = _taps(xs, ys, shape, border, np.floor)
    return ix, iy, catmull_rom_weights(fx), catmull_rom_weights(fy)


def sample_bicubic(image, xs, ys, border: str = "constant", fill: float = 0.0):
    """Bicubic (Catmull-Rom) sampling: 16 gathers + ~20 MACs per pixel."""
    image, xs, ys, squeeze = _prepare(image, xs, ys)
    h, w = image.shape[:2]
    mask = valid_mask(xs, ys, w, h) if border == "constant" else None
    ix, iy, wx, wy = bicubic_taps(xs, ys, (h, w), border)
    img = image.astype(np.float64, copy=False)
    out = np.zeros(xs.shape + (img.shape[2],), dtype=np.float64)
    # Separable accumulation: 4 row passes, each combining 4 column taps.
    for j in range(4):
        yj = resolve_indices(iy - 1 + j, h, "replicate" if border == "constant" else border)
        row = np.zeros_like(out)
        for i in range(4):
            xi = resolve_indices(ix - 1 + i, w, "replicate" if border == "constant" else border)
            row += img[yj, xi] * wx[..., i, None]
        out += row * wy[..., j, None]
    return _finish(out, image, mask, fill, squeeze, image.dtype)


_SAMPLERS = {
    "nearest": sample_nearest,
    "bilinear": sample_bilinear,
    "bicubic": sample_bicubic,
}


def sample(image, xs, ys, method: str = "bilinear", border: str = "constant",
           fill: float = 0.0):
    """Sample ``image`` at fractional coordinates ``(xs, ys)``.

    Parameters
    ----------
    image:
        ``(H, W)`` or ``(H, W, C)`` array of any real dtype.
    xs, ys:
        Fractional source coordinates (same shape); ``nan`` marks
        out-of-FOV points, which return ``fill`` in ``constant`` mode.
    method:
        One of :data:`METHODS`.
    border:
        One of :data:`BORDER_MODES`.
    fill:
        Value used by ``constant`` border handling.

    Returns
    -------
    ndarray
        Sampled image with shape ``xs.shape`` (+ channels), same dtype
        as ``image`` (rounded and clipped for integer dtypes).
    """
    if border not in BORDER_MODES:
        raise InterpolationError(f"unknown border mode {border!r}; known: {BORDER_MODES}")
    try:
        fn = _SAMPLERS[method]
    except KeyError:
        raise InterpolationError(
            f"unknown interpolation method {method!r}; known: {METHODS}") from None
    return fn(image, xs, ys, border=border, fill=fill)


# ----------------------------------------------------------------------
# Scalar reference implementation (oracle; deliberately loop-based)
# ----------------------------------------------------------------------
def _sample_one(image, x, y, method, border, fill):
    h, w = image.shape[:2]
    if not (np.isfinite(x) and np.isfinite(y)):
        if border == "constant":
            return np.full(image.shape[2], fill, dtype=np.float64)
        # like the vectorized taps: only the non-finite axis moves to 0
        x = x if np.isfinite(x) else 0.0
        y = y if np.isfinite(y) else 0.0

    def fetch(ix, iy):
        ix = int(resolve_indices(np.array(ix), w, border if border != "constant" else "replicate"))
        iy = int(resolve_indices(np.array(iy), h, border if border != "constant" else "replicate"))
        return image[iy, ix].astype(np.float64)

    if border == "constant" and not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        return np.full(image.shape[2], fill, dtype=np.float64)

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


def sample_scalar(image, xs, ys, method: str = "bilinear", border: str = "constant",
                  fill: float = 0.0):
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
        out[k] = _sample_one(image, flat_x[k], flat_y[k], method, border, fill)
    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        out = np.clip(np.rint(out), info.min, info.max)
    out = out.astype(image.dtype).reshape(shape + (image.shape[2],))
    if squeeze:
        out = out[..., 0]
    return out
