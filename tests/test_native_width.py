"""Band-sized, native-width intermediates.

A table build allocates its final tables plus band-sized temporaries,
a band apply gathers the frame's raw samples, widening only what it
gathered, and a whole-frame apply walks tile-sized scratch.  The guards below hold both with ``tracemalloc`` peaks
against the bytes the tables themselves store, and check that the
``remap.bytes_gathered`` counter observes exactly the ``gather_bytes``
of the byte ledger (:meth:`RemapLUT.traffic_per_frame`).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import standard_field
from repro.core import kernel_tiers
from repro.core.compose import composed_lut, downscale_field
from repro.core.mapping import chroma_half_field
from repro.core.remap import RemapLUT, _ScratchPool
from repro.obs.telemetry import Telemetry, scoped
from repro.video.yuv import NV12Frame

MB = 1 << 20
BAND_SLACK = 4 * MB

TIERS = ["numpy", "fixed"] + (["compiled"] if kernel_tiers.numba_available()
                              else [])


def _traced_peak(fn):
    """``(fn(), peak traced bytes while it ran)``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _stored_bytes(lut):
    """The arrays the LUT stores — never their tap expansion."""
    return sum(a.nbytes for a in (lut.base, lut.fracs, lut.mask,
                                  lut.patch_pixels, lut.patch_taps)
               if a is not None)


@pytest.fixture(scope="module")
def qhd_fused():
    """The ring-qhd-nv12-fused luma table: a 1440p view fused to 720p."""
    field = standard_field.__wrapped__(2560, 1440, 1.0)
    outer = downscale_field(1280, 720, 2560, 1440, prefilter=False)
    return field, outer


# ----------------------------------------------------------------------
# memory guards
# ----------------------------------------------------------------------
def test_table_build_peak_is_the_tables():
    field = standard_field.__wrapped__(1280, 720, 0.5)
    lut, peak = _traced_peak(lambda: RemapLUT(field))
    assert peak <= _stored_bytes(lut) + BAND_SLACK, (peak / MB,
                                                     _stored_bytes(lut) / MB)


def test_composed_build_peak_is_the_tables(qhd_fused):
    field, outer = qhd_fused
    lut, peak = _traced_peak(lambda: composed_lut(outer, field))
    assert lut.out_shape == (720, 1280)
    assert peak <= _stored_bytes(lut) + BAND_SLACK, (peak / MB,
                                                     _stored_bytes(lut) / MB)


@pytest.mark.parametrize("tier", ["numpy", "fixed"])
def test_band_apply_allocates_band_sized(qhd_fused, tier):
    """A steady-state 16-band frame never widens the whole source plane."""
    field, outer = qhd_fused
    lut = composed_lut(outer, field).with_tier(tier)
    luma = np.random.default_rng(3).integers(0, 256, (1440, 2560),
                                             dtype=np.uint8)
    out = np.empty((720, 1280), dtype=np.uint8)
    rows = 720 // 16

    def frame():
        for b in range(16):
            r0, r1 = b * rows, (b + 1) * rows
            lut.apply_rows_into(luma, r0, r1, out[r0:r1])

    frame()  # warm the pool (and the fixed tier's Q weights)
    _, peak = _traced_peak(frame)
    assert peak < MB, peak / MB
    np.testing.assert_array_equal(out, lut.apply(luma))


def test_whole_frame_apply_scratch_is_tile_sized():
    """A cold-pool 720p RGB frame borrows one tile of scratch — float32
    accumulator and product plus the uint8 gather buffer — never the
    9 B per pixel per channel of a whole-frame set."""
    lut = RemapLUT(standard_field.__wrapped__(1280, 720, 0.5))
    rgb = np.random.default_rng(4).integers(0, 256, (720, 1280, 3),
                                            dtype=np.uint8)
    out = np.empty_like(rgb)
    lut.apply_into(rgb, out)  # a first frame outside the traced one
    lut._pool = _ScratchPool()
    _, peak = _traced_peak(lambda: lut.apply_into(rgb, out))
    tile_scratch = kernel_tiers.DEFAULT_TILE_ROWS * 1280 * 3 * (4 + 4 + 1)
    assert peak <= tile_scratch + MB, (peak / MB, tile_scratch / MB)
    assert peak < 720 * 1280 * 3 * 9 / 4
    np.testing.assert_array_equal(out, lut.apply(rgb))


# ----------------------------------------------------------------------
# the gather counter agrees with the byte ledger
# ----------------------------------------------------------------------
def _plane_case(field, plane, rng):
    """``(lut, frame, channels)`` of one plane kind over ``field``."""
    h, w = field.src_height, field.src_width
    if plane == "gray":
        return RemapLUT(field), rng.integers(0, 256, (h, w), np.uint8), 1
    if plane == "rgb":
        return RemapLUT(field), rng.integers(0, 256, (h, w, 3), np.uint8), 3
    nv12 = NV12Frame.from_rgb(rng.integers(0, 256, (h, w, 3), np.uint8))
    return RemapLUT(chroma_half_field(field), fill=128.0), nv12.uv, 2


@pytest.mark.parametrize("banded", [False, True], ids=["frame", "rows"])
@pytest.mark.parametrize("plane", ["gray", "rgb", "nv12-uv"])
@pytest.mark.parametrize("tier", TIERS)
def test_gather_counter_matches_ledger(small_field, tier, plane, banded):
    lut, frame, channels = _plane_case(small_field, plane,
                                       np.random.default_rng(5))
    lut = lut.with_tier(tier)
    tel = Telemetry()
    with scoped(tel):
        if banded:
            h = lut.out_shape[0]
            edges = [0, h // 4, h // 2, h - 1, h]
            for r0, r1 in zip(edges, edges[1:]):
                lut.apply_rows(frame, r0, r1)
        else:
            lut.apply(frame)
    ledger = lut.traffic_per_frame(channels=channels,
                                   pixel_bytes=frame.dtype.itemsize)
    got = tel.snapshot()["counters"]["remap.bytes_gathered"]
    assert got == ledger["gather_bytes"]
