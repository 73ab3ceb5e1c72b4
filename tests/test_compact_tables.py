"""The compact stencil layout: one int32 base offset per output pixel.

A LUT stores each pixel's resolved tap 0 (``base``), the per-axis
fractions and a patch list of the valid pixels whose taps break the
``base + stencil`` pattern.  Everything here is held against the frozen
whole-array references in ``conftest.py``: the expanded taps must equal
``reference_tables`` and every frame must equal ``float_reference`` /
``q_reference``, on random coordinate fields that hit the right and
bottom edges exactly, ``nan`` holes and far out-of-range coordinates,
over sources down to one row, one column and 2x2.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import standard_field
from repro.core import interpolation as interp
from repro.core import kernel_tiers
from repro.core.mapping import RemapField
from repro.core.remap import RemapLUT
from repro.obs.telemetry import Telemetry, scoped

Q_TIERS = ["fixed"] + (["compiled"] if kernel_tiers.numba_available()
                       else [])


@st.composite
def coordinate_fields(draw):
    """A small random field: every coordinate is drawn from the source
    interior, its exact last row/column, ``nan`` or far outside it."""
    w = draw(st.sampled_from([1, 2, 3, 5, 8]))
    h = draw(st.sampled_from([1, 2, 3, 5, 8]))
    h_out = draw(st.integers(1, 5))
    w_out = draw(st.integers(1, 6))

    def coords(size):
        return st.one_of(
            st.floats(-1.5, size + 0.5, allow_nan=False),
            st.sampled_from([0.0, size - 1.0, size - 1.0, size - 1.5,
                             np.nan, -1e4, 1e4, size + 3.0]))

    n = h_out * w_out
    mx = draw(st.lists(coords(w), min_size=n, max_size=n))
    my = draw(st.lists(coords(h), min_size=n, max_size=n))
    return RemapField(np.array(mx).reshape(h_out, w_out),
                      np.array(my).reshape(h_out, w_out), w, h)


@given(field=coordinate_fields(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_compact_tables_match_reference(field, seed, reference_tables,
                                        assert_tables_match, float_reference,
                                        q_reference):
    rng = np.random.default_rng(seed)
    shape = (field.src_height, field.src_width, 3)
    frames = [rng.integers(0, 256, shape, dtype=np.uint8),
              rng.integers(0, 256, shape[:2], dtype=np.uint8)]
    floats = (rng.standard_normal(shape) * 50.0).astype(np.float32)
    h_out = field.shape[0]
    for method in interp.METHODS:
        lut = RemapLUT(field, method=method, fill=7.0)
        assert_tables_match(lut, reference_tables(field, method))
        assert np.all(np.diff(lut.patch_pixels) > 0)
        np.testing.assert_array_equal(lut.apply(floats),
                                      float_reference(lut, floats))
        for frame in frames:
            np.testing.assert_array_equal(lut.apply(frame),
                                          float_reference(lut, frame))
            np.testing.assert_array_equal(
                lut.apply_rows(frame, h_out - 1, h_out),
                float_reference(lut, frame, h_out - 1, h_out))
            for tier in Q_TIERS:
                q = lut.with_tier(tier)
                np.testing.assert_array_equal(
                    q.apply(frame), q_reference(lut, frame, q.frac_bits))


def test_irregular_pixels_are_patched():
    """Taps clamped at the right and bottom edge, and every bicubic tap
    near an edge, land in the patch list and are gathered exactly."""
    mx = np.array([[4.0, 2.5, 0.5]])
    my = np.array([[1.0, 2.0, 0.5]])
    field = RemapField(mx, my, 5, 3)
    bilinear = RemapLUT(field)
    assert bilinear.patch_pixels.tolist() == [0, 1]
    np.testing.assert_array_equal(bilinear.tap_offsets(),
                                  [[9, 9, 14, 14], [12, 13, 12, 13],
                                   [0, 1, 5, 6]])
    bicubic = RemapLUT(field, method="bicubic")
    assert bicubic.patch_pixels.tolist() == [0, 1, 2]
    assert len(RemapLUT(field, method="nearest").patch_pixels) == 0


@pytest.mark.parametrize("method", ["nearest", "bilinear"])
def test_view_inside_the_image_circle_has_no_patches(small_field, method):
    """A perspective view inside the image circle never clamps a tap:
    the canonical tiny view and the 720p benchmark view store nothing
    but one base per pixel."""
    for field in (small_field, standard_field.__wrapped__(1280, 720, 0.5)):
        lut = RemapLUT(field, method=method)
        assert len(lut.patch_pixels) == 0
        assert lut.patch_taps.shape == (0, lut.taps)


def test_entry_sizes():
    sizes = {m: RemapLUT.entry_bytes_for(m) for m in interp.METHODS}
    assert sizes == {"nearest": 5, "bilinear": 13, "bicubic": 37}


def _traced(fn):
    """``(peak traced bytes, retained traced bytes)`` of ``fn()``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


@pytest.mark.parametrize("tier", ["numpy", "fixed"])
def test_warm_apply_allocates_nothing_frame_sized(tier):
    """A warmed-up apply on a host tier allocates less than one byte per
    output pixel at its peak — no weight table, no inverted mask, no
    per-tap offsets, no frame-sized channel-planar copy — and keeps
    nothing on the LUT: a 720p RGB frame and the 2-channel UV plane of
    a 720p NV12 frame."""
    rng = np.random.default_rng(4)
    for (w, h, channels) in ((1280, 720, 3), (640, 360, 2)):
        lut = RemapLUT(standard_field.__wrapped__(w, h, 0.5)).with_tier(tier)
        frame = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
        out = np.empty_like(frame)
        lut.apply_into(frame, out)  # warm the scratch pool
        stored = dict(vars(lut))
        peak, retained = _traced(lambda: lut.apply_into(frame, out))
        assert peak < w * h, (channels, peak)
        assert retained < 64 << 10, (channels, retained)
        assert vars(lut).keys() == stored.keys()
        assert all(vars(lut)[k] is v for k, v in stored.items())


# ----------------------------------------------------------------------
# remap.bytes_streamed prices the layout the tier really reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("banded", [False, True], ids=["frame", "rows"])
@pytest.mark.parametrize("method", interp.METHODS)
@pytest.mark.parametrize("tier", ["numpy"] + Q_TIERS)
def test_streamed_counter_matches_ledger(tilted_field, tier, method, banded):
    lut = RemapLUT(tilted_field, method=method).with_tier(tier)
    frame = np.random.default_rng(6).integers(0, 256, (64, 64, 3),
                                              dtype=np.uint8)
    tel = Telemetry()
    with scoped(tel):
        if banded:
            for r0, r1 in ((0, 17), (17, 63), (63, 64)):
                lut.apply_rows(frame, r0, r1)
        else:
            lut.apply(frame)
    ledger = lut.traffic_per_frame(channels=3, pixel_bytes=1)
    got = tel.snapshot()["counters"]["remap.bytes_streamed"]
    assert got == ledger["total_bytes"]
    # the tables the tier reads are exactly what it would publish
    tables = sum(a.nbytes for a in lut.kernel_tables().values())
    assert ledger["lut_bytes"] == tables
