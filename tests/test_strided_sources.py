"""Sources that are not C-contiguous frames, through the host tiers.

The ``numpy`` and ``fixed`` tiers gather each channel with a 1-D take
over the frame's flat sample memory, so a frame that cannot be viewed
flat — a crop of a larger frame, a channel-reversed ``[..., ::-1]``
(BGR) view — must give the same result as its contiguous copy.  Every
case is held bit for bit against the frozen oracles in ``conftest.py``
(``float_reference`` / ``q_reference``), for whole frames and for row
ranges that cross tile edges.
"""

import numpy as np
import pytest

from repro.core import interpolation as interp
from repro.core import kernel_tiers
from repro.core.mapping import RemapField
from repro.core.remap import RemapLUT

pytestmark = pytest.mark.tier1

TILE = kernel_tiers.DEFAULT_TILE_ROWS
SRC_W, SRC_H = 41, 33
OUT_W, OUT_H = 23, TILE + 19
#: inside one tile, across one tile edge, and the tail
ROW_RANGES = ((2, 30), (TILE - 3, TILE + 4), (5, OUT_H))


def _field(seed):
    """Random coordinates over the source, ~10% outside it and a few
    ``nan`` holes, so the edge clamp and the fill both take pixels."""
    rng = np.random.default_rng(seed)
    mx = rng.uniform(-0.1 * SRC_W, 1.1 * SRC_W, (OUT_H, OUT_W))
    my = rng.uniform(-0.1 * SRC_H, 1.1 * SRC_H, (OUT_H, OUT_W))
    mx[rng.random((OUT_H, OUT_W)) < 0.02] = np.nan
    return RemapField(mx, my, SRC_W, SRC_H)


def _sources(seed):
    """``(name, frame)``: strided views of uint8 frames (1-3 channels),
    and a packed RGBA frame."""
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 256, (SRC_H + 9, SRC_W + 7, 4), dtype=np.uint8)
    rgb = rng.integers(0, 256, (SRC_H, SRC_W, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, (SRC_H + 5, SRC_W + 3), dtype=np.uint8)
    wide = rng.integers(0, 256, (SRC_H, 2 * SRC_W, 3), dtype=np.uint8)
    return [
        ("crop-rgb", big[4:4 + SRC_H, 3:3 + SRC_W, :3]),
        ("crop-gray", gray[2:2 + SRC_H, 1:1 + SRC_W]),
        ("bgr", rgb[..., ::-1]),
        ("every-other-column-uv", wide[:, ::2, 1:]),
        ("rgba", np.ascontiguousarray(big[:SRC_H, :SRC_W])),
    ]


@pytest.mark.parametrize("method", interp.METHODS)
@pytest.mark.parametrize("tier", ["numpy", "fixed"])
def test_strided_sources_match_reference(tier, method, float_reference,
                                         q_reference):
    base = RemapLUT(_field(seed=8), method=method, fill=9.0)
    lut = base.with_tier(tier)

    def reference(frame, row0=0, row1=None):
        if tier == "numpy":
            return float_reference(base, frame, row0, row1)
        return q_reference(base, frame, lut.frac_bits, row0, row1)

    for name, frame in _sources(seed=9):
        assert not frame.flags.c_contiguous or name == "rgba", name
        want = reference(frame)
        np.testing.assert_array_equal(lut.apply(frame), want,
                                      err_msg=name)
        np.testing.assert_array_equal(
            lut.apply(frame), lut.apply(np.ascontiguousarray(frame)),
            err_msg=name)
        out = np.zeros_like(want)
        for r0, r1 in ROW_RANGES:
            lut.apply_rows_into(frame, r0, r1, out[r0:r1])
            np.testing.assert_array_equal(
                out[r0:r1], reference(frame, r0, r1), err_msg=name)
