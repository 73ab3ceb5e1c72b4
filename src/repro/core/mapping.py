"""Remap construction: where does each corrected pixel come from?

Distortion correction is *backward* warping: for every pixel of the
corrected output view we compute the fractional source coordinate on
the fisheye sensor image, then interpolate.  This module builds those
coordinate fields for three output geometries,

- :func:`perspective_map` — rectilinear view (the paper's kernel),
  with optional pan/tilt/roll/zoom "virtual PTZ" windows,
- :func:`cylindrical_map` — cylindrical panorama,
- :func:`equirectangular_map` — full spherical panorama,

plus :func:`fisheye_forward_map`, the inverse construction used by the
synthetic-workload generator to *create* fisheye imagery from an ideal
perspective scene (ground truth for quality metrics).

The three output-view builders return **recipe** fields: a field that
keeps its builder's band evaluator (rays, sensor, lens) and its shape,
not its maps.  Building one costs next to nothing; the coordinates are
computed when something reads them.  The table builders pull them a
band at a time through :meth:`RemapField.rows`
(:class:`~repro.core.remap.RemapLUT`,
:func:`~repro.core.compose.composed_lut`), so a stream's float64 field
exists, if at all, only inside its table build — and on the ring
engine not even there: each fleet worker computes the bands of its own
rows (:class:`~repro.video.pixfmt.TableRecipe`).  Reading
``map_x``/``map_y`` computes the whole maps once and caches them on
the field, so every analysis works unchanged.  A recipe pickles as its
parameters — a module-level evaluator and its arguments (sensor, lens,
output intrinsics, rotation) — never as its maps, so a build task sent
to a worker is a small message under ``fork`` and ``spawn`` alike.
Rows computed on demand equal the cached maps bit for bit.
:func:`chroma_half_field` of a recipe is a recipe too, each of its
bands derived from one band of the luma rows.

The result type :class:`RemapField` also carries the analysis methods
the accelerator models need: per-tile source bounding boxes (Cell-BE
local-store sizing), row-span statistics (FPGA line buffering), and
cache-line gather counts (GPU coalescing).
"""

from __future__ import annotations

import numpy as np

from ..errors import MappingError
from . import geometry
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .lens import LensModel

__all__ = [
    "RemapField",
    "perspective_map",
    "cylindrical_map",
    "equirectangular_map",
    "fisheye_forward_map",
    "identity_map",
    "chroma_half_field",
]


class RemapField:
    """A backward-warp coordinate field plus its source geometry.

    Attributes
    ----------
    map_x, map_y:
        ``(H_out, W_out)`` float64 arrays of fractional source
        coordinates; ``nan`` marks output pixels with no source
        (outside the lens FOV or outside the source frame).  On a
        recipe field (see the module docs) the first read computes
        and caches them.
    src_width, src_height:
        Size of the source image the maps index into.
    """

    def __init__(self, map_x, map_y, src_width: int, src_height: int):
        self.map_x = np.asarray(map_x, dtype=np.float64)
        self.map_y = np.asarray(map_y, dtype=np.float64)
        if self.map_x.shape != self.map_y.shape or self.map_x.ndim != 2:
            raise MappingError(
                f"map_x/map_y must be matching 2-D arrays, got {self.map_x.shape} / {self.map_y.shape}")
        self.src_width = src_width
        self.src_height = src_height
        if self.src_width <= 0 or self.src_height <= 0:
            raise MappingError(f"source size must be positive: {self.src_width}x{self.src_height}")

    @classmethod
    def _recipe(cls, make, args, shape, src_width: int, src_height: int,
                step: int | None = None):
        """A field computed on demand by the band evaluator
        ``make(*args)``: ``band(r0, r1, out_x, out_y)`` writes the
        coordinates of output rows ``r0:r1`` (one ``step``-row band,
        :data:`_BAND_ROWS` by default) into the two ``(r1 - r0, W_out)``
        buffers.  ``make`` is a module-level function, so the recipe
        pickles as ``make`` and ``args`` and rebuilds its evaluator
        where it is unpickled."""
        self = cls.__new__(cls)
        self._make, self._args = make, tuple(args)
        self._band = make(*args)
        self._shape = tuple(shape)
        self._step = _BAND_ROWS if step is None else step
        self.src_width = src_width
        self.src_height = src_height
        return self

    def __getattr__(self, name):
        # reached only for unset attributes: a recipe's maps, first read
        if name in ("map_x", "map_y") and "_band" in self.__dict__:
            self.map_x, self.map_y = self.rows(0, self._shape[0])
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self):
        # a recipe pickles as its parameters: the evaluator is a
        # closure, and the maps and mask are recomputed on demand
        state = self.__dict__.copy()
        if "_make" in state:
            for key in ("_band", "map_x", "map_y", "_valid_mask"):
                state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "_make" in state:
            self._band = self._make(*self._args)

    @property
    def has_maps(self) -> bool:
        """Whether the field stores its maps: built from arrays, or a
        recipe whose maps have been read."""
        return "map_x" in self.__dict__

    def rows(self, r0: int, r1: int):
        """``(map_x, map_y)`` of output rows ``r0:r1``.

        A field that stores its maps returns views of them.  A recipe
        computes the rows and keeps nothing; it evaluates whole bands
        (:data:`_BAND_ROWS` rows for the view builders), the ones a full
        computation walks, so the rows equal the cached maps bit for bit
        wherever the range starts and ends.
        """
        if self.has_maps:
            return self.map_x[r0:r1], self.map_y[r0:r1]
        h, w = self._shape
        step = self._step
        r0, r1, _ = slice(r0, r1).indices(h)
        r1 = max(r0, r1)
        map_x = np.empty((r1 - r0, w))
        map_y = np.empty((r1 - r0, w))
        for b0 in range(r0 - r0 % step, r1, step):
            b1 = min(b0 + step, h)
            lo, hi = max(b0, r0), min(b1, r1)
            if (lo, hi) == (b0, b1):
                self._band(b0, b1, map_x[b0 - r0:b1 - r0],
                           map_y[b0 - r0:b1 - r0])
                continue
            # a band cut by the range: evaluate it whole, keep its share
            band_x, band_y = np.empty((b1 - b0, w)), np.empty((b1 - b0, w))
            self._band(b0, b1, band_x, band_y)
            map_x[lo - r0:hi - r0] = band_x[lo - b0:hi - b0]
            map_y[lo - r0:hi - r0] = band_y[lo - b0:hi - b0]
        return map_x, map_y

    def kept_bands(self, keep: int) -> "RemapField":
        """This field, or for a recipe a recipe over it that keeps the
        last ``keep`` bands it computed.

        Several tables built over one row range — the luma and chroma
        tables of a fleet build task — then compute each band of the
        maps once, and no more than ``keep`` bands are ever held.
        """
        if self.has_maps:
            return self
        return RemapField._recipe(_kept_bands, (self, keep), self._shape,
                                  self.src_width, self.src_height,
                                  self._step)

    def eager(self) -> "RemapField":
        """This field with stored maps: itself when it has them, else a
        new field over freshly computed maps (this recipe keeps none).

        A caller that reads the maps several times and then drops them
        — :func:`~repro.video.pixfmt.plane_luts` over a planar format
        — computes them once this way.
        """
        if self.has_maps:
            return self
        return RemapField(*self.rows(0, self._shape[0]), self.src_width,
                          self.src_height)

    # ------------------------------------------------------------------
    @property
    def shape(self):
        """Output shape ``(H_out, W_out)``."""
        maps = self.__dict__.get("map_x")
        return self._shape if maps is None else maps.shape

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of output pixels with an in-source sample point.

        Cached after the first call — fields are treated as immutable
        once constructed (mutate ``map_x``/``map_y`` and the cache is
        stale; build a new field instead).
        """
        cached = getattr(self, "_valid_mask", None)
        if cached is None:
            with np.errstate(invalid="ignore"):
                cached = (
                    np.isfinite(self.map_x) & np.isfinite(self.map_y)
                    & (self.map_x >= 0) & (self.map_x <= self.src_width - 1)
                    & (self.map_y >= 0) & (self.map_y <= self.src_height - 1)
                )
            self._valid_mask = cached
        return cached

    def coverage(self) -> float:
        """Fraction of output pixels that receive source data."""
        return float(self.valid_mask().mean())

    def source_footprint(self) -> float:
        """Fraction of the source frame actually sampled: the share of
        distinct source pixels among the valid nearest-tap targets.

        Cached after the first call, like :meth:`valid_mask`.
        """
        cached = getattr(self, "_source_footprint", None)
        if cached is None:
            mask = self.valid_mask()
            xs = np.rint(self.map_x[mask]).astype(np.int64)
            ys = np.rint(self.map_y[mask]).astype(np.int64)
            uniq = np.unique(ys * self.src_width + xs).size
            cached = float(uniq) / (self.src_width * self.src_height)
            self._source_footprint = cached
        return cached

    # ------------------------------------------------------------------
    # Analyses consumed by the platform models
    # ------------------------------------------------------------------
    def source_bbox(self, row0: int, row1: int, col0: int, col1: int,
                    margin: int = 2):
        """Bounding box of source pixels needed by an output tile.

        Returns ``(sy0, sy1, sx0, sx1)`` (half-open, clamped to the
        source frame) or ``None`` when the tile is entirely out-of-FOV.
        ``margin`` accounts for the interpolation footprint.
        """
        sub_x = self.map_x[row0:row1, col0:col1]
        sub_y = self.map_y[row0:row1, col0:col1]
        # Only samples that will actually be fetched count (out-of-FOV
        # pixels are filled, not gathered).
        fetched = self.valid_mask()[row0:row1, col0:col1]
        if not fetched.any():
            return None
        xs = sub_x[fetched]
        ys = sub_y[fetched]
        sx0 = int(np.floor(xs.min())) - margin
        sx1 = int(np.ceil(xs.max())) + margin + 1
        sy0 = int(np.floor(ys.min())) - margin
        sy1 = int(np.ceil(ys.max())) + margin + 1
        return (
            max(0, sy0), min(self.src_height, sy1),
            max(0, sx0), min(self.src_width, sx1),
        )

    def row_span(self) -> np.ndarray:
        """Vertical source span (rows) required per output row.

        Entry ``i`` is ``max(map_y[i]) - min(map_y[i])`` over finite
        samples (0 for fully-invalid rows).  The maximum over the image
        bounds the line-buffer depth a streaming (FPGA-style)
        implementation must provision.
        """
        spans = np.zeros(self.map_y.shape[0], dtype=np.float64)
        finite = np.isfinite(self.map_y)
        for i in range(self.map_y.shape[0]):
            row = self.map_y[i][finite[i]]
            if row.size:
                spans[i] = float(row.max() - row.min())
        return spans

    def gather_lines(self, group: int = 32, line_bytes: int = 128,
                     pixel_bytes: int = 1) -> np.ndarray:
        """Distinct cache lines touched by each ``group`` of output pixels.

        Models a GPU warp (or SIMD gather) of ``group`` consecutive
        output pixels reading their *nearest* source pixel: the number
        of distinct ``line_bytes``-sized memory segments those reads
        hit.  1.0 means perfectly coalesced, ``group`` means fully
        scattered.  Out-of-FOV lanes issue no transaction.

        Returns a 1-D array with one entry per complete group in
        row-major output order.
        """
        if group <= 0 or line_bytes <= 0 or pixel_bytes <= 0:
            raise MappingError("group, line_bytes and pixel_bytes must be positive")
        mask = self.valid_mask().ravel()
        xs = np.clip(np.nan_to_num(self.map_x.ravel()), 0, self.src_width - 1)
        ys = np.clip(np.nan_to_num(self.map_y.ravel()), 0, self.src_height - 1)
        addr = (np.rint(ys).astype(np.int64) * self.src_width
                + np.rint(xs).astype(np.int64)) * pixel_bytes
        line = addr // line_bytes
        n = (line.size // group) * group
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        line = line[:n].reshape(-1, group)
        mask = mask[:n].reshape(-1, group)
        counts = np.empty(line.shape[0], dtype=np.float64)
        for k in range(line.shape[0]):
            active = line[k][mask[k]]
            counts[k] = float(np.unique(active).size) if active.size else 0.0
        return counts

    def astype32(self):
        """Return ``(map_x, map_y)`` as C-contiguous float32 arrays."""
        return (
            np.ascontiguousarray(self.map_x, dtype=np.float32),
            np.ascontiguousarray(self.map_y, dtype=np.float32),
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
#: Output rows evaluated per band.  A recipe writes each band straight
#: into the rows it is asked for, and a band's dozen float64 temporaries
#: (160 KB each at 2560 px wide) stay in L2.
_BAND_ROWS = 8


def _rotate_rays(x_n, y_n, rot):
    """Components of the rotated, un-normalized rays ``(x_n, y_n, 1)``.

    Each is ``rot[i, 0] x_n + rot[i, 1] y_n + rot[i, 2]``: for a row
    vector ``x_n`` and a column vector ``y_n`` a broadcast of two 1-D
    vectors, with no ray stack, matmul or normalization.
    """
    return tuple(rot[i, 0] * x_n + (rot[i, 1] * y_n + rot[i, 2])
                 for i in range(3))


def _kept_bands(field: RemapField, keep: int):
    """Band evaluator of :meth:`RemapField.kept_bands`."""
    kept = {}  # band start -> (map_x, map_y), oldest first

    def band(r0, r1, band_x, band_y):
        rows = kept.pop(r0, None)
        if rows is None:
            rows = field.rows(r0, r1)
        kept[r0] = rows
        if len(kept) > keep:
            del kept[next(iter(kept))]
        band_x[...], band_y[...] = rows
    return band


def _sensor_band(sensor: FisheyeIntrinsics, lens: LensModel, rays,
                 rays_args):
    """Band evaluator of a view builder's recipe: ``rays(*rays_args)``
    returns the (broadcastable) ray components ``(dx, dy, dz)`` of
    output rows ``r0:r1``.

    The tail every builder shares, rays of any length -> fisheye sensor
    coordinates: the field angle ``theta = atan2(rho, dz)``, ``rho =
    |(dx, dy)|``, and the azimuth are both invariant to a ray's length,
    so rays need no normalization, and the azimuth enters only as
    ``(cos phi, sin phi) = (dx, dy) / rho`` — no ``atan2``/``cos``/``sin``
    of it.  On the axis (``rho == 0``) the azimuth is 0: ``(cx + r, cy)``.
    """
    ray_rows = rays(*rays_args)

    def band(r0, r1, band_x, band_y):
        dx, dy, dz = ray_rows(r0, r1)
        rho = np.sqrt(dx * dx + dy * dy)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = lens.angle_to_radius(np.arctan2(rho, dz))
            scale = r / rho
            np.multiply(dx, scale, out=band_x)
            np.multiply(dy, scale, out=band_y)
        if not np.all(rho):
            axis = rho == 0.0
            band_x[axis] = r[axis]
            band_y[axis] = 0.0 * r[axis]
        band_x += sensor.cx
        band_y += sensor.cy
    return band


def _banded(sensor: FisheyeIntrinsics, lens: LensModel, height: int,
            width: int, rays, *rays_args) -> RemapField:
    """The recipe field of the module-level ray factory ``rays``:
    ``rays(*rays_args)`` returns ``rows(r0, r1) -> (dx, dy, dz)``,
    evaluated band by band when read (:meth:`RemapField.rows`) through
    :func:`_sensor_band`."""
    return RemapField._recipe(_sensor_band, (sensor, lens, rays, rays_args),
                              (height, width), sensor.width, sensor.height)


def _perspective_rays(out: CameraIntrinsics, rot):
    xs = np.arange(out.width, dtype=np.float64)
    ys = np.arange(out.height, dtype=np.float64)[:, None]
    if out.skew:
        return lambda r0, r1: _rotate_rays(*out.normalize(xs, ys[r0:r1]), rot)
    # Unskewed, x_n depends on the column alone (bit for bit what
    # out.normalize computes), so every band is rank-1.
    x_n = (xs - out.cx) / out.fx
    y_n = (ys - out.cy) / out.fy
    return lambda r0, r1: _rotate_rays(x_n, y_n[r0:r1], rot)


def _cylindrical_rays(width: int, height: int, hfov: float, vfov: float):
    psi = np.linspace(-hfov / 2.0, hfov / 2.0, width)
    v = np.linspace(-np.tan(vfov / 2.0), np.tan(vfov / 2.0), height)[:, None]
    sin_psi, cos_psi = np.sin(psi), np.cos(psi)
    return lambda r0, r1: (sin_psi, v[r0:r1], cos_psi)


def _equirectangular_rays(width: int, height: int, hfov: float,
                          vfov: float):
    lon = np.linspace(-hfov / 2.0, hfov / 2.0, width)
    lat = np.linspace(-vfov / 2.0, vfov / 2.0, height)[:, None]
    sin_lon, cos_lon = np.sin(lon), np.cos(lon)
    cos_lat, sin_lat = np.cos(lat), np.sin(lat)
    return lambda r0, r1: (cos_lat[r0:r1] * sin_lon, sin_lat[r0:r1],
                           cos_lat[r0:r1] * cos_lon)


def perspective_map(sensor: FisheyeIntrinsics, lens: LensModel,
                    out: CameraIntrinsics, yaw: float = 0.0,
                    pitch: float = 0.0, roll: float = 0.0) -> RemapField:
    """Backward map for a rectilinear (perspective) output view.

    Parameters
    ----------
    sensor:
        Geometry of the fisheye source image.
    lens:
        The fisheye projection model (its ``focal`` should equal
        ``sensor.focal``; they are kept separate so a deliberately
        mis-modelled correction can be constructed for the quality
        benchmarks).
    out:
        Intrinsics of the desired perspective output (size, focal =
        zoom, principal point, skew).
    yaw, pitch, roll:
        Virtual pan/tilt/roll of the output view (radians).

    Returns
    -------
    RemapField
    """
    rot = geometry.rotation_matrix_ypr(yaw, pitch, roll)
    return _banded(sensor, lens, out.height, out.width, _perspective_rays,
                   out, rot)


def cylindrical_map(sensor: FisheyeIntrinsics, lens: LensModel,
                    out_width: int, out_height: int,
                    hfov: float = np.pi, vfov: float = np.pi / 2.0) -> RemapField:
    """Backward map for a cylindrical panorama output.

    Columns are uniform in azimuth over ``[-hfov/2, hfov/2]``; rows are
    uniform in the tangent of elevation over ``[-tan(vfov/2), ...]``
    (so vertical lines in the scene stay vertical).
    """
    if out_width <= 0 or out_height <= 0:
        raise MappingError(f"output size must be positive: {out_width}x{out_height}")
    if not 0 < hfov <= 2 * np.pi or not 0 < vfov < np.pi:
        raise MappingError(f"invalid panorama FOV: hfov={hfov}, vfov={vfov}")
    return _banded(sensor, lens, out_height, out_width, _cylindrical_rays,
                   out_width, out_height, hfov, vfov)


def equirectangular_map(sensor: FisheyeIntrinsics, lens: LensModel,
                        out_width: int, out_height: int,
                        hfov: float = np.pi, vfov: float = np.pi) -> RemapField:
    """Backward map for an equirectangular (longitude/latitude) output."""
    if out_width <= 0 or out_height <= 0:
        raise MappingError(f"output size must be positive: {out_width}x{out_height}")
    return _banded(sensor, lens, out_height, out_width,
                   _equirectangular_rays, out_width, out_height, hfov, vfov)


def fisheye_forward_map(scene: CameraIntrinsics, lens: LensModel,
                        sensor: FisheyeIntrinsics) -> RemapField:
    """Backward map that *renders a fisheye image* from a perspective scene.

    For each fisheye sensor pixel, invert the lens model to a field
    angle and project that ray onto the ideal perspective scene plane.
    Used by the synthetic workload generator: applying this map to a
    known perspective scene produces the distorted input whose
    correction can then be checked against the original.
    """
    xs, ys = geometry.pixel_grid(sensor.height, sensor.width)
    r, phi = geometry.polar_from_cartesian(xs, ys, sensor.cx, sensor.cy)
    with np.errstate(invalid="ignore"):
        theta = lens.radius_to_angle(r)
        # theta may exceed the scene camera's 90deg representable range.
        tan_theta = np.where(theta < np.pi / 2.0, np.tan(np.where(theta < np.pi / 2.0, theta, 0.0)), np.nan)
    xs_n = tan_theta * np.cos(phi)
    ys_n = tan_theta * np.sin(phi)
    map_x, map_y = scene.denormalize(xs_n, ys_n)
    bad = ~np.isfinite(theta)
    map_x = np.where(bad, np.nan, map_x)
    map_y = np.where(bad, np.nan, map_y)
    return RemapField(map_x, map_y, scene.width, scene.height)


def identity_map(width: int, height: int) -> RemapField:
    """A no-op map (output pixel samples the same source pixel).

    Useful as a baseline in cache/coalescing studies: it is the
    perfectly sequential access pattern.
    """
    xs, ys = geometry.pixel_grid(height, width)
    return RemapField(xs, ys, width, height)


def chroma_half_field(field: RemapField) -> RemapField:
    """Derive the half-resolution 4:2:0 chroma twin of a luma field.

    Chroma output pixel ``(i, j)`` covers luma output pixels
    ``(2i..2i+1, 2j..2j+1)``, so its sample point sits at luma
    coordinate ``(2i + 0.5, 2j + 0.5)`` — exactly the centre of the
    2x2 block, where bilinear interpolation of the luma map equals the
    block mean.  The averaged source coordinate is then rescaled into
    the half-resolution chroma source plane with the same half-pixel
    convention: ``c' = (c - 0.5) / 2``.

    Because the construction is purely numeric it works for *any*
    luma field (perspective, cylindrical, tilted views, composed
    maps) and always describes the same scene geometry as the luma
    plane.  :func:`~repro.video.pixfmt.plane_luts` keys its table by the
    luma fingerprint plus this derivation
    (:func:`~repro.core.lutcache.derived_fingerprint`), distinct from
    the full-resolution map's key, so a cache hit never builds it.  NaN (out-of-FOV) luma
    samples propagate through the mean, so a chroma pixel is valid
    only when its whole 2x2 luma block is.

    The chroma field of a field with maps stores its maps.  That of a
    recipe is a recipe: each band of 4 chroma rows is derived from the
    luma rows it covers, one :data:`_BAND_ROWS` band, so neither field
    is ever materialized.  The derivation is exact arithmetic per
    element, so rows derived a band at a time equal the stored maps'
    bit for bit.
    """
    h, w = field.shape
    if h % 2 or w % 2:
        raise MappingError(f"4:2:0 output size must be even, got {w}x{h}")
    if field.src_width % 2 or field.src_height % 2:
        raise MappingError(
            f"4:2:0 source size must be even, got "
            f"{field.src_width}x{field.src_height}")
    if not field.has_maps:
        return RemapField._recipe(_chroma_band, (field,), (h // 2, w // 2),
                                  field.src_width // 2, field.src_height // 2,
                                  _BAND_ROWS // 2)
    return RemapField(*(_half(m, np.empty((h // 2, w // 2)))
                        for m in (field.map_x, field.map_y)),
                      field.src_width // 2, field.src_height // 2)


def _half(m, out):
    """The 2x2 block means of ``m`` as a strided four-term sum, then
    ``c' = (c - 0.5) / 2``, into ``out``."""
    np.add(m[0::2, 0::2], m[0::2, 1::2], out=out)
    out += m[1::2, 0::2] + m[1::2, 1::2]
    out /= 4.0
    out -= 0.5
    out /= 2.0
    return out


def _chroma_band(luma: RemapField):
    """Band evaluator of the chroma recipe over ``luma``: chroma rows
    ``r0:r1`` from luma rows ``2 r0:2 r1``."""
    def band(r0, r1, band_x, band_y):
        for m, out in zip(luma.rows(2 * r0, 2 * r1), (band_x, band_y)):
            _half(m, out)
    return band
