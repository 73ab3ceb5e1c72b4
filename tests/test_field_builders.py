"""Differential tests of the field builders against the ray-stack oracle.

The builders in :mod:`repro.core.mapping` evaluate un-normalized,
rank-1 rays in row bands.  The oracle below is the textbook
construction they replace: a full ``(H, W, 3)`` stack of unit rays,
split into ``(theta, phi)`` and projected with ``cos``/``sin`` of the
azimuth.  Both must describe the same field to well under a
nanopixel, with identical out-of-FOV masks, and the gather tables
built from them must produce bit-identical frames.
"""

import functools
import math

import numpy as np
import pytest

from repro.bench.harness import standard_sensor
from repro.core import geometry, mapping
from repro.core.compose import (affine_field, compose_fields, composed_lut,
                                crop_field, downscale_field)
from repro.core.intrinsics import CameraIntrinsics
from repro.core.interpolation import METHODS, sample
from repro.core.lens import LENS_MODELS
from repro.core.lutcache import LUTCache
from repro.core.mapping import (RemapField, chroma_half_field, cylindrical_map,
                                equirectangular_map, perspective_map)
from repro.core.remap import _BUILD_ROWS, RemapLUT

pytestmark = pytest.mark.tier1

TOL_PX = 1e-9
REL_FAR = 1e-12

# odd widths put the centre column exactly on cx; neither height is a
# multiple of the band height (checked below)
SIZES = [(65, 43), (33, 21)]

# (yaw, pitch, roll) in degrees
POSES = [
    (0, 0, 0),          # centre pixel on the axis: rho == 0, theta == 0
    (40, 0, 0),
    (0, 90, 0),
    (0, -90, 0),
    (0, 0, 30),         # roll keeps the centre pixel on the axis
    (25, -15, 10),
    (180, 0, 0),        # looking backwards: theta == pi in view
    (-120, 60, -45),
]


# ----------------------------------------------------------------------
# oracle: the ray-stack construction
# ----------------------------------------------------------------------
def _oracle_tail(rays, lens, sensor):
    theta, phi = geometry.angles_from_rays(rays)
    with np.errstate(invalid="ignore"):
        r = lens.angle_to_radius(theta)
    return sensor.cx + r * np.cos(phi), sensor.cy + r * np.sin(phi)


def oracle_perspective(sensor, lens, out, yaw=0.0, pitch=0.0, roll=0.0):
    xs, ys = geometry.pixel_grid(out.height, out.width)
    rot = geometry.rotation_matrix_ypr(yaw, pitch, roll)
    rays = geometry.rays_from_pixels(xs, ys, out.fx, out.fy, out.cx, out.cy,
                                     rotation=rot)
    return _oracle_tail(rays, lens, sensor)


def oracle_cylindrical(sensor, lens, w, h, hfov, vfov):
    psi = np.linspace(-hfov / 2.0, hfov / 2.0, w)
    v = np.linspace(-np.tan(vfov / 2.0), np.tan(vfov / 2.0), h)
    psi_g, v_g = np.meshgrid(psi, v)
    rays = np.stack([np.sin(psi_g), v_g, np.cos(psi_g)], axis=-1)
    return _oracle_tail(geometry.normalize_rows(rays), lens, sensor)


def oracle_equirectangular(sensor, lens, w, h, hfov, vfov):
    lon_g, lat_g = np.meshgrid(np.linspace(-hfov / 2.0, hfov / 2.0, w),
                               np.linspace(-vfov / 2.0, vfov / 2.0, h))
    cos_lat = np.cos(lat_g)
    rays = np.stack([cos_lat * np.sin(lon_g), np.sin(lat_g),
                     cos_lat * np.cos(lon_g)], axis=-1)
    return _oracle_tail(rays, lens, sensor)


def assert_matches(field, oracle, sensor):
    """Identical NaN masks; within ``TOL_PX`` wherever the oracle lands
    in the source frame.  Outside it (never sampled) the radius from
    the lens centre reaches 1e4 px where a lens's ``tan`` nears its pole,
    and any two float64 evaluations differ there by a relative ~1e-13,
    so those samples are held to ``REL_FAR`` of their radius instead."""
    ox, oy = oracle
    inside = RemapField(ox, oy, field.src_width, field.src_height).valid_mask()
    radius = np.hypot(ox - sensor.cx, oy - sensor.cy)
    far = ~inside & ~np.isnan(radius)
    for got, want in zip((field.map_x, field.map_y), oracle):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        err = np.abs(got - want)
        assert not np.any(err[inside] > TOL_PX)
        assert not np.any(err[far] > REL_FAR * np.maximum(radius[far], 1.0))


def view(w, h, lens, zoom, **kw):
    focal = float(lens.magnification(1e-4)) * zoom
    return CameraIntrinsics(fx=focal, fy=focal, cx=(w - 1) / 2.0,
                            cy=(h - 1) / 2.0, width=w, height=h, **kw)


def test_sizes_cover_partial_bands():
    assert all(h % mapping._BAND_ROWS for _, h in SIZES)


# ----------------------------------------------------------------------
# perspective_map
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("zoom", [0.5, 1.0])
@pytest.mark.parametrize("pose", POSES)
@pytest.mark.parametrize("lens_name", sorted(LENS_MODELS))
def test_perspective_matches_oracle(lens_name, pose, zoom, size):
    sensor, lens = standard_sensor(96, 72, lens_name)
    out = view(*size, lens, zoom)
    yaw, pitch, roll = (math.radians(a) for a in pose)
    field = perspective_map(sensor, lens, out, yaw=yaw, pitch=pitch, roll=roll)
    assert field.shape == (size[1], size[0])
    assert_matches(field, oracle_perspective(sensor, lens, out, yaw=yaw,
                                             pitch=pitch, roll=roll), sensor)


def test_poses_reach_the_axis_and_its_antipode():
    """The pose list really contains rho == 0 and theta == pi pixels."""
    sensor, lens = standard_sensor(96, 72)
    out = view(*SIZES[0], lens, 0.5)
    xs, ys = geometry.pixel_grid(out.height, out.width)
    for yaw, want in ((0.0, 0.0), (np.pi, np.pi)):
        rays = geometry.rays_from_pixels(
            xs, ys, out.fx, out.fy, out.cx, out.cy,
            rotation=geometry.rotation_matrix_ypr(yaw, 0.0, 0.0))
        theta, _ = geometry.angles_from_rays(rays)
        assert theta[out.height // 2, out.width // 2] == want
    field = perspective_map(sensor, lens, out)
    assert field.map_x[out.height // 2, out.width // 2] == sensor.cx
    assert field.map_y[out.height // 2, out.width // 2] == sensor.cy


@pytest.mark.parametrize("lens_name", sorted(LENS_MODELS))
def test_exact_antipode_uses_zero_azimuth(lens_name):
    """A ray of exactly (0, 0, -1): rho == 0 and theta == pi, so the
    azimuth is 0 and the sample sits at (cx + r(pi), cy)."""
    sensor, lens = standard_sensor(96, 72, lens_name)
    # yaw = pi sends (x_n, 0, 1) to (sin(pi) - x_n, 0, -1 - sin(pi) x_n):
    # pixel (0, 3) has x_n == sin(pi) exactly
    out = CameraIntrinsics(fx=1.0, fy=1.0, cx=-np.sin(np.pi), cy=3.0,
                           width=5, height=7)
    field = perspective_map(sensor, lens, out, yaw=np.pi)
    with np.errstate(invalid="ignore"):
        r = float(lens.angle_to_radius(np.pi))
    np.testing.assert_array_equal(
        [field.map_x[3, 0], field.map_y[3, 0]],
        [sensor.cx + r, sensor.cy + 0.0 * r])
    assert_matches(field, oracle_perspective(sensor, lens, out, yaw=np.pi),
                   sensor)


@pytest.mark.parametrize("pose", [(0, 0, 0), (25, -15, 10)])
def test_skew_is_honoured(pose):
    """perspective_map back-projects through out.normalize, skew included."""
    sensor, lens = standard_sensor(96, 72)
    out = view(65, 43, lens, 0.5, skew=4.0)
    rot = geometry.rotation_matrix_ypr(*(math.radians(a) for a in pose))
    xs, ys = geometry.pixel_grid(out.height, out.width)
    x_n, y_n = out.normalize(xs, ys)
    rays = geometry.normalize_rows(
        np.stack([x_n, y_n, np.ones_like(x_n)], axis=-1) @ rot.T)
    kw = dict(zip(("yaw", "pitch", "roll"), (math.radians(a) for a in pose)))
    field = perspective_map(sensor, lens, out, **kw)
    assert_matches(field, _oracle_tail(rays, lens, sensor), sensor)
    unskewed = perspective_map(sensor, lens, view(65, 43, lens, 0.5), **kw)
    assert np.nanmax(np.abs(field.map_x - unskewed.map_x)) > 0.1


# ----------------------------------------------------------------------
# panoramas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lens_name", sorted(LENS_MODELS))
@pytest.mark.parametrize("fov", [(np.pi, np.pi / 2.0), (2 * np.pi, 2.5)])
def test_cylindrical_matches_oracle(lens_name, fov):
    sensor, lens = standard_sensor(96, 72, lens_name)
    field = cylindrical_map(sensor, lens, 65, 43, *fov)
    assert_matches(field, oracle_cylindrical(sensor, lens, 65, 43, *fov),
                   sensor)


@pytest.mark.parametrize("lens_name", sorted(LENS_MODELS))
@pytest.mark.parametrize("fov", [(np.pi, np.pi), (2 * np.pi, np.pi)])
def test_equirectangular_matches_oracle(lens_name, fov):
    sensor, lens = standard_sensor(96, 72, lens_name)
    field = equirectangular_map(sensor, lens, 65, 43, *fov)
    assert_matches(field, oracle_equirectangular(sensor, lens, 65, 43, *fov),
                   sensor)


# ----------------------------------------------------------------------
# derived fields
# ----------------------------------------------------------------------
def test_chroma_half_field_is_the_block_mean():
    sensor, lens = standard_sensor(96, 72)
    field = perspective_map(sensor, lens, view(64, 48, lens, 1.0),
                            pitch=math.radians(50.0))
    chroma = chroma_half_field(field)
    for got, m in ((chroma.map_x, field.map_x), (chroma.map_y, field.map_y)):
        want = (m.reshape(24, 2, 32, 2).mean(axis=(1, 3)) - 0.5) / 2.0
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL_PX)
    assert (chroma.src_width, chroma.src_height) == (48, 36)


def test_compose_fields_is_bit_exact_bilinear_sampling():
    sensor, lens = standard_sensor(96, 72)
    inner = perspective_map(sensor, lens, view(96, 72, lens, 1.0),
                            yaw=math.radians(30.0))
    for outer in (downscale_field(48, 36, 96, 72, prefilter=False),
                  RemapField(*np.meshgrid(np.linspace(-3, 99, 41),
                                          np.linspace(-2, 75, 29)), 96, 72)):
        got = compose_fields(outer, inner)
        for plane, g in ((inner.map_x, got.map_x), (inner.map_y, got.map_y)):
            want = sample(plane, outer.map_x, outer.map_y, method="bilinear",
                          fill=np.nan)
            assert np.array_equal(g, want, equal_nan=True)


# ----------------------------------------------------------------------
# the benchmark's fields: gather tables give bit-identical frames
# ----------------------------------------------------------------------
def _standard_pair(w, h, zoom, pitch=0.0, yaw=0.0):
    """The standard view at ``w x h``, by the builder and by the oracle
    (checked to match)."""
    sensor, lens = standard_sensor(w, h)
    out = view(w, h, lens, zoom)
    pose = dict(yaw=math.radians(yaw), pitch=math.radians(pitch))
    new = perspective_map(sensor, lens, out, **pose)
    old = RemapField(*oracle_perspective(sensor, lens, out, **pose),
                     sensor.width, sensor.height)
    assert_matches(new, (old.map_x, old.map_y), sensor)
    return new, old


def _assert_same_frames(new_lut, old_lut, frame):
    for tier in ("numpy", "fixed"):
        np.testing.assert_array_equal(new_lut.with_tier(tier).apply(frame),
                                      old_lut.with_tier(tier).apply(frame))


@pytest.mark.parametrize("w, h, zoom, pitch, yaw", [
    (1280, 720, 0.5, 0.0, 0.0),       # sync-720p-rgb
    (640, 480, 0.5, 0.0, 0.0),        # serve-8x-vga-rgb
    (640, 480, 1.0, 30.0, -40.0),     # a serve-ptz-churn pose
], ids=["720p", "vga", "vga-ptz"])
def test_view_tables_give_identical_frames(w, h, zoom, pitch, yaw):
    new, old = _standard_pair(w, h, zoom, pitch, yaw)
    frame = np.random.default_rng(w + h).integers(0, 256, (h, w, 3),
                                                  dtype=np.uint8)
    _assert_same_frames(RemapLUT(new), RemapLUT(old), frame)


def test_fused_nv12_tables_give_identical_frames():
    """ring-qhd-nv12-fused: QHD view fused down to 720p, luma and chroma."""
    new, old = _standard_pair(2560, 1440, 1.0)
    rng = np.random.default_rng(7)
    luma = downscale_field(1280, 720, 2560, 1440, prefilter=False)
    _assert_same_frames(composed_lut(luma, new), composed_lut(luma, old),
                        rng.integers(0, 256, (1440, 2560), dtype=np.uint8))
    chroma = downscale_field(640, 360, 1280, 720, prefilter=False)
    _assert_same_frames(
        composed_lut(chroma, chroma_half_field(new), fill=128.0),
        composed_lut(chroma, chroma_half_field(old), fill=128.0),
        rng.integers(0, 256, (720, 1280, 2), dtype=np.uint8))


# ----------------------------------------------------------------------
# the banded table builder: bit-identical to the whole-array reference
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _builder_fields():
    """Every field the tests above build, except the benchmark-size
    views, too large to run the reference over every method."""
    fields = []
    for lens_name in sorted(LENS_MODELS):
        sensor, lens = standard_sensor(96, 72, lens_name)
        for size in SIZES:
            for zoom in (0.5, 1.0):
                out = view(*size, lens, zoom)
                for pose in POSES:
                    yaw, pitch, roll = (math.radians(a) for a in pose)
                    fields.append(perspective_map(sensor, lens, out, yaw=yaw,
                                                  pitch=pitch, roll=roll))
        for fov in [(np.pi, np.pi / 2.0), (2 * np.pi, 2.5)]:
            fields.append(cylindrical_map(sensor, lens, 65, 43, *fov))
        for fov in [(np.pi, np.pi), (2 * np.pi, np.pi)]:
            fields.append(equirectangular_map(sensor, lens, 65, 43, *fov))
        fields.append(perspective_map(
            sensor, lens, CameraIntrinsics(fx=1.0, fy=1.0, cx=-np.sin(np.pi),
                                           cy=3.0, width=5, height=7),
            yaw=np.pi))
    sensor, lens = standard_sensor(96, 72)
    fields.append(perspective_map(sensor, lens, view(65, 43, lens, 0.5,
                                                     skew=4.0),
                                  yaw=math.radians(25.0)))
    fields.append(chroma_half_field(perspective_map(
        sensor, lens, view(64, 48, lens, 1.0), pitch=math.radians(50.0))))
    inner = perspective_map(sensor, lens, view(96, 72, lens, 1.0),
                            yaw=math.radians(30.0))
    fields.append(compose_fields(
        downscale_field(48, 36, 96, 72, prefilter=False), inner))
    fields.append(compose_fields(
        RemapField(*np.meshgrid(np.linspace(-3, 99, 41),
                                np.linspace(-2, 75, 29)), 96, 72), inner))
    return tuple(fields)


@pytest.mark.parametrize("method", METHODS)
def test_banded_tables_match_reference(method, reference_tables,
                                       assert_tables_match):
    for field in _builder_fields():
        assert_tables_match(RemapLUT(field, method=method),
                            reference_tables(field, method))


@pytest.mark.parametrize("rows", [1, _BUILD_ROWS - 1, _BUILD_ROWS,
                                  _BUILD_ROWS + 1, 2 * _BUILD_ROWS + 1])
@pytest.mark.parametrize("method", METHODS)
def test_band_edges_match_reference(rows, method, reference_tables,
                                    assert_tables_match):
    """Fields of one row, and of a band height and one row either side."""
    sensor, lens = standard_sensor(96, 72)
    field = perspective_map(sensor, lens, view(37, rows, lens, 0.7),
                            pitch=math.radians(70.0))
    assert_tables_match(RemapLUT(field, method=method),
                        reference_tables(field, method))


def _composition_cases():
    """(outer, inner) pairs: 2:1, 3:1 and 2.4:1 downscales, a zoom-in
    crop and an affine outer that leaves the inner frame, over a plain
    and a partly out-of-FOV inner field."""
    sensor, lens = standard_sensor(96, 72)
    inners = [perspective_map(sensor, lens, view(96, 72, lens, 1.0),
                              yaw=math.radians(30.0)),
              perspective_map(sensor, lens, view(96, 72, lens, 0.5),
                              pitch=math.radians(60.0))]
    outers = [downscale_field(48, 36, 96, 72, prefilter=False),
              downscale_field(32, 24, 96, 72, prefilter=False),
              downscale_field(40, 30, 96, 72, prefilter=False),
              crop_field(50, 41, 10.0, 8.0, 96, 72, scale=0.5),
              affine_field(60, 45, [[1.2, 0.25, -12.0], [-0.2, 1.1, -6.0]],
                           96, 72)]
    return [(o, i) for i in inners for o in outers]


@pytest.mark.parametrize("method", METHODS)
def test_composed_tables_match_reference(method, reference_tables,
                                         assert_tables_match):
    """The banded composition equals ``RemapLUT(compose_fields(...))``
    and the whole-array reference of the composed field."""
    for outer, inner in _composition_cases():
        field = compose_fields(outer, inner)
        ref = reference_tables(field, method)
        fused = composed_lut(outer, inner, method=method, fill=7.0,
                             antialias=False)
        assert fused.out_shape == outer.shape
        assert_tables_match(fused, ref)
        assert_tables_match(RemapLUT(field, method=method), ref)


def test_cached_composed_tables_match_reference(reference_tables,
                                                assert_tables_match):
    """A fused table built into a :class:`LUTCache` under its
    :meth:`~LUTCache.key_for_composed` key, and the hit that follows."""
    cache = LUTCache(capacity=len(_composition_cases()))
    for outer, inner in _composition_cases():
        ref = reference_tables(compose_fields(outer, inner))
        key = LUTCache.key_for_composed(outer, inner)
        build = functools.partial(composed_lut, outer, inner)
        built = cache.get_or_build(key, build)
        assert_tables_match(built, ref)
        assert cache.get_or_build(key, build) is built
    assert cache.misses == cache.hits == len(_composition_cases())
