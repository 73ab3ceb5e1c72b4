"""The numpy tier's tile walk is bit-identical to a whole-frame apply.

The float kernel walks the output in
:data:`~repro.core.kernel_tiers.DEFAULT_TILE_ROWS`-row tiles with
tile-sized scratch.  Every case below is held bit for bit against the
frozen whole-frame oracle in ``conftest.py`` (``float_reference``):
output heights that are and are not a multiple of the tile height,
1-4 channels, integer and float sample types, both fills, every
interpolation method, and every apply entry point over
row ranges that cross tile edges.
"""

import numpy as np
import pytest

from repro.core import interpolation as interp
from repro.core import kernel_tiers
from repro.core.mapping import RemapField
from repro.core.remap import RemapLUT

pytestmark = pytest.mark.tier1

TILE = kernel_tiers.DEFAULT_TILE_ROWS
SRC_W, SRC_H = 47, 39
OUT_W = 29
#: 2 full tiles plus a partial one, and a single partial tile
HEIGHTS = (2 * TILE + 22, TILE - 24)
DTYPES = (np.uint8, np.uint16, np.float32, np.float64)


def _field(h_out, seed):
    """Random coordinates over a small source, ~10% outside it and a
    few ``nan`` holes, so the edge clamp and the fill are exercised."""
    rng = np.random.default_rng(seed)
    mx = rng.uniform(-0.1 * SRC_W, 1.1 * SRC_W, (h_out, OUT_W))
    my = rng.uniform(-0.1 * SRC_H, 1.1 * SRC_H, (h_out, OUT_W))
    mx[rng.random((h_out, OUT_W)) < 0.02] = np.nan
    return RemapField(mx, my, SRC_W, SRC_H)


def _frame(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(0, np.iinfo(dtype).max, shape, dtype=dtype,
                            endpoint=True)
    return (rng.standard_normal(shape) * 100.0).astype(dtype)


def _channel_shapes():
    """Gray (2-D), then 1-4 packed channels."""
    return [(SRC_H, SRC_W)] + [(SRC_H, SRC_W, c) for c in (1, 2, 3, 4)]


def _row_ranges(h):
    """Row ranges crossing one and two tile edges, one inside a tile
    and the tail."""
    ranges = [(3, min(h, TILE + 5)), (h // 2, h), (h - 1, h)]
    if h > 2 * TILE:
        ranges += [(TILE - 1, 2 * TILE + 1), (1, h - 1)]
    return ranges


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("method", interp.METHODS)
def test_tile_walk_matches_whole_frame(method, dtype, float_reference):
    for h_out in HEIGHTS:
        field = _field(h_out, seed=h_out)
        for fill in (0.0, 128.0):
            lut = RemapLUT(field, method=method, fill=fill)
            for shape in _channel_shapes():
                image = _frame(shape, dtype, seed=len(shape) + h_out)
                want = float_reference(lut, image)
                got = lut.apply(image)
                assert got.dtype == image.dtype
                np.testing.assert_array_equal(got, want)
                into = np.empty_like(want)
                assert lut.apply_into(image, into) is into
                np.testing.assert_array_equal(into, want)
                for r0, r1 in _row_ranges(h_out):
                    want_rows = float_reference(lut, image, r0, r1)
                    np.testing.assert_array_equal(
                        lut.apply_rows(image, r0, r1), want_rows)
                    block = np.empty_like(want_rows)
                    lut.apply_rows_into(image, r0, r1, block)
                    np.testing.assert_array_equal(block, want_rows)


def test_bicubic_overshoot_still_clips(float_reference):
    """A hard edge rings under Catmull-Rom; uint8 output saturates."""
    field = _field(HEIGHTS[0], seed=7)
    lut = RemapLUT(field, method="bicubic")
    image = np.zeros((SRC_H, SRC_W), dtype=np.uint8)
    image[:, SRC_W // 2:] = 255
    raw = float_reference(lut, image.astype(np.float64))
    assert raw.max() > 255 and raw.min() < 0  # the kernel does overshoot
    got = lut.apply(image)
    assert got.max() == 255 and got.min() == 0
    np.testing.assert_array_equal(got, float_reference(lut, image))


def test_strided_destination(float_reference):
    """A destination that is a channel slice of a wider frame."""
    field = _field(HEIGHTS[0], seed=11)
    lut = RemapLUT(field)
    image = _frame((SRC_H, SRC_W, 2), np.uint8, seed=3)
    wide = np.zeros((HEIGHTS[0], OUT_W, 4), dtype=np.uint8)
    lut.apply_into(image, wide[..., 1:3])
    np.testing.assert_array_equal(wide[..., 1:3], float_reference(lut, image))
    assert not wide[..., 0].any() and not wide[..., 3].any()


def test_one_scratch_set_per_lut():
    """Bands of every size share the one full-tile scratch set."""
    lut = RemapLUT(_field(HEIGHTS[0], seed=2))
    image = _frame((SRC_H, SRC_W, 3), np.uint8, seed=5)
    lut.apply(image)
    for r0, r1 in _row_ranges(HEIGHTS[0]):
        lut.apply_rows(image, r0, r1)
    assert list(lut._pool._free) == [(TILE * OUT_W, 3, "<f4", "|u1")]
