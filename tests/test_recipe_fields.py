"""Tests: the view builders return recipe fields.

``perspective_map``, ``cylindrical_map`` and ``equirectangular_map``
hand back a field that keeps its band evaluator, not its maps.  Its
rows (read at any edges), its tables, its pickle and its fingerprint
must equal those of its eager twin — the same field with its maps
read — bit for bit, and the table builders must never materialize it.
"""

import math
import pickle

import numpy as np
import pytest

from repro.bench.harness import standard_sensor
from repro.core.compose import (affine_field, composed_lut, crop_field,
                                downscale_field)
from repro.core.intrinsics import CameraIntrinsics
from repro.core.lutcache import LUTCache, field_fingerprint
from repro.core.mapping import (_BAND_ROWS, chroma_half_field,
                                cylindrical_map, equirectangular_map,
                                perspective_map)
from repro.core.remap import _BUILD_ROWS, RemapLUT
from repro.serve.broker import StreamBroker
from repro.video.pixfmt import get_pixfmt, plane_luts

pytestmark = pytest.mark.tier1

# even, for the 4:2:0 formats; the height is not a band multiple
W, H = 64, 46


def _view(lens, zoom, **kw):
    focal = float(lens.magnification(1e-4)) * zoom
    return CameraIntrinsics(fx=focal, fy=focal, cx=(W - 1) / 2.0,
                            cy=(H - 1) / 2.0, width=W, height=H, **kw)


def _perspective(**kw):
    sensor, lens = standard_sensor(96, 72)
    # tilted, so part of the view is out of the lens FOV
    return perspective_map(sensor, lens, _view(lens, 0.7, **kw),
                           pitch=math.radians(60.0), yaw=math.radians(20.0))


def _cylindrical():
    sensor, lens = standard_sensor(96, 72, "stereographic")
    return cylindrical_map(sensor, lens, W, H, 2 * np.pi, 2.5)


def _equirectangular():
    sensor, lens = standard_sensor(96, 72, "equisolid")
    return equirectangular_map(sensor, lens, W, H, 2 * np.pi, np.pi)


KINDS = {
    "perspective": _perspective,
    "perspective-skewed": lambda: _perspective(skew=4.0),
    "cylindrical": _cylindrical,
    "equirectangular": _equirectangular,
}


def _pair(kind):
    """``(recipe, eager twin)``: two builds, the twin's maps read."""
    recipe, twin = KINDS[kind](), KINDS[kind]()
    twin.map_x
    assert not recipe.has_maps and twin.has_maps
    return recipe, twin


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_tables(got, want):
    for name in ("base", "fracs", "mask", "patch_pixels", "patch_taps"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


def test_height_cuts_a_band():
    assert H % _BAND_ROWS


@pytest.mark.parametrize("kind", KINDS)
def test_rows_at_any_edges_equal_the_maps(kind):
    recipe, twin = _pair(kind)
    assert recipe.shape == twin.shape == (H, W)
    edges = [(0, 1), (3, 13), (5, _BAND_ROWS),
             (_BAND_ROWS - 1, 2 * _BAND_ROWS + 1), (9, H), (H - 3, H),
             (0, H), (7, 7)]
    for r0, r1 in edges:
        for got, want in zip(recipe.rows(r0, r1), (twin.map_x, twin.map_y)):
            np.testing.assert_array_equal(_bits(got), _bits(want[r0:r1]))
    assert not recipe.has_maps
    # a first read computes and caches the very same maps
    np.testing.assert_array_equal(_bits(recipe.map_x), _bits(twin.map_x))
    np.testing.assert_array_equal(_bits(recipe.map_y), _bits(twin.map_y))
    assert recipe.has_maps


@pytest.mark.parametrize("kind", KINDS)
def test_recipe_pickles_and_fingerprints_as_its_maps(kind):
    """A recipe pickles as its parameters, not its maps: a small
    message that unpickles to a recipe computing the eager twin's maps
    bit for bit, with the same fingerprint.  Reading the maps first
    does not put them into the pickle."""
    recipe, twin = _pair(kind)
    data = pickle.dumps(recipe)
    assert len(data) < 4096, len(data)
    back = pickle.loads(data)
    assert not back.has_maps and back.shape == twin.shape
    assert (back.src_width, back.src_height) == (twin.src_width,
                                                 twin.src_height)
    for got, want in zip(back.rows(0, H), (twin.map_x, twin.map_y)):
        np.testing.assert_array_equal(_bits(got), _bits(want))
    assert field_fingerprint(recipe) == field_fingerprint(twin)
    assert field_fingerprint(back) == field_fingerprint(twin)
    assert not recipe.has_maps and not back.has_maps
    assert recipe.eager() is not recipe and twin.eager() is twin
    back.map_x
    assert back.has_maps and len(pickle.dumps(back)) < 4096


@pytest.mark.parametrize("kind", KINDS)
def test_chroma_rows_at_any_edges_equal_the_whole_map(kind):
    """The chroma twin of a recipe is a recipe: its rows, read at odd
    band edges, equal the chroma field of the eager twin bit for bit,
    and neither field computes or keeps whole maps."""
    recipe, twin = _pair(kind)
    want = chroma_half_field(twin)
    chroma = chroma_half_field(recipe)
    assert not chroma.has_maps and chroma.shape == want.shape
    assert (chroma.src_width, chroma.src_height) == (want.src_width,
                                                     want.src_height)
    h = H // 2
    edges = [(0, 1), (1, 4), (3, 5), (3, 10), (5, h), (h - 3, h), (0, h),
             (7, 7)]
    for r0, r1 in edges:
        for got, m in zip(chroma.rows(r0, r1), (want.map_x, want.map_y)):
            np.testing.assert_array_equal(_bits(got), _bits(m[r0:r1]))
    assert not chroma.has_maps and not recipe.has_maps
    back = pickle.loads(pickle.dumps(chroma))
    assert len(pickle.dumps(chroma)) < 4096
    np.testing.assert_array_equal(_bits(back.map_y), _bits(want.map_y))


# (pixfmt, out_size, method): packed, planar, fused planar, bicubic
FORMATS = [("rgb", None, "bilinear"), ("rgb", None, "bicubic"),
           ("rgb", (32, 22), "bilinear"), ("nv12", None, "bilinear"),
           ("nv12", (32, 22), "bilinear"), ("nv12", (32, 22), "bicubic")]


@pytest.mark.parametrize("pixfmt,out_size,method", FORMATS)
@pytest.mark.parametrize("kind", KINDS)
def test_tables_equal_the_eager_twins(kind, pixfmt, out_size, method):
    recipe, twin = _pair(kind)
    fmt = get_pixfmt(pixfmt)
    got = plane_luts(fmt, recipe, out_size, method=method)
    want = plane_luts(fmt, twin, out_size, method=method)
    assert len(got) == len(fmt.luts)
    for a, b in zip(got, want):
        assert_same_tables(a, b)
    assert not recipe.has_maps


def _outers():
    """Outer fields over a ``W x H`` inner: axis-aligned downscales
    and a crop, an affine turned a quarter (every band taps most inner
    rows) and one leaving the frame."""
    return [downscale_field(W // 2, H // 2, W, H, prefilter=False),
            downscale_field(27, 19, W, H, prefilter=False),
            crop_field(30, 25, 10.0, 8.0, W, H, scale=0.5),
            affine_field(40, 60, [[0.0, 1.0, 2.0], [-1.0, 0.0, H - 1.5]],
                         W, H),
            affine_field(50, 40, [[1.2, 0.25, -12.0], [-0.2, 1.1, -6.0]],
                         W, H)]


@pytest.mark.parametrize("method", ["bilinear", "bicubic"])
@pytest.mark.parametrize("kind", KINDS)
def test_builders_stream_a_recipe(kind, method):
    recipe, twin = _pair(kind)
    assert_same_tables(RemapLUT(recipe, method=method),
                       RemapLUT(twin, method=method))
    for outer in _outers():
        assert_same_tables(
            composed_lut(outer, recipe, method=method, fill=5.0),
            composed_lut(outer, twin, method=method, fill=5.0))
    # a 4:1 downscale takes the supersampled table
    outer = downscale_field(W // 4, H // 4, W, H)
    got, want = (composed_lut(outer, f, method=method) for f in (recipe, twin))
    assert got.factor > 1
    assert_same_tables(got._lut, want._lut)
    assert not recipe.has_maps


# ----------------------------------------------------------------------
# map computations: one per table build, none on a hit
# ----------------------------------------------------------------------
def _counted(field):
    """The output rows ``field``'s recipe evaluates, tallied as they go."""
    band, evaluated = field._band, []

    def counting(r0, r1, out_x, out_y):
        evaluated.append(r1 - r0)
        band(r0, r1, out_x, out_y)
    field._band = counting
    return evaluated


@pytest.mark.parametrize("pixfmt,out_size", [
    ("rgb", None), ("rgb", (32, 22)), ("nv12", None), ("nv12", (32, 22))])
def test_one_map_computation_per_cache_miss(pixfmt, out_size):
    field, fmt = _perspective(), get_pixfmt(pixfmt)
    evaluated = _counted(field)
    cache = LUTCache()
    luts = plane_luts(fmt, field, out_size, cache)
    # the fingerprint and every table (luma and chroma) read one
    # computation of the maps
    assert sum(evaluated) == H
    assert not field.has_maps
    evaluated.clear()
    again = plane_luts(fmt, field, out_size, cache)
    assert sum(evaluated) == 0
    assert all(a is b for a, b in zip(luts, again))
    # a miss on a fingerprinted field, and a build with no cache: one
    # computation, but a single fused table streams the recipe, and
    # each output band may recompute one band its predecessor tapped
    most = H
    if len(fmt.luts) == 1 and out_size is not None:
        most += _BAND_ROWS * -(-out_size[1] // _BUILD_ROWS)
    for other in (LUTCache(), None):
        evaluated.clear()
        for a, b in zip(plane_luts(fmt, field, out_size, other), luts):
            assert_same_tables(a, b)
        assert H <= sum(evaluated) <= most
    assert not field.has_maps


@pytest.mark.parametrize("out_size", [None, (W // 2, H // 2)],
                         ids=["plain", "fused"])
def test_cache_getters_keep_no_maps_on_a_recipe(out_size):
    """Through a cache, a cold recipe's maps serve its key and its table
    and are dropped; a hit computes nothing."""
    def get(cache, field):
        lut, = plane_luts(get_pixfmt("rgb"), field, out_size, cache)
        return lut

    field, twin = _pair("perspective")
    cache = LUTCache()
    evaluated = _counted(field)
    lut = get(cache, field)
    assert_same_tables(lut, get(LUTCache(), twin))
    assert sum(evaluated) >= H
    evaluated.clear()
    assert get(cache, field) is lut and sum(evaluated) == 0
    assert not field.has_maps


def test_broker_keys_a_cold_recipe_from_its_tables_computation():
    field, twin = _pair("perspective")
    evaluated = _counted(field)
    broker = StreamBroker(workers=1)
    try:
        key, luts = broker._resolve(field, "bilinear", 0.0, "numpy",
                                    get_pixfmt("nv12"), (32, 22))
    finally:
        broker.close()
    # the publication key and both fused tables read one computation
    assert sum(evaluated) == H
    assert not field.has_maps
    assert key.startswith(LUTCache.key_for(twin))
    assert len(luts) == 2
