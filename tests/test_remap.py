"""Remap engine tests: on-the-fly vs LUT vs tile application."""

import numpy as np
import pytest

from repro.core import interpolation as interp
from repro.core.mapping import RemapField, identity_map
from repro.core.remap import RemapLUT, remap, remap_profiled
from repro.errors import InterpolationError, MappingError


class TestRemapOnTheFly:
    def test_identity_map_is_noop(self, random_image):
        f = identity_map(64, 64)
        out = remap(random_image, f, method="bilinear")
        np.testing.assert_array_equal(out, random_image)

    def test_rejects_wrong_source_size(self, random_image):
        f = identity_map(32, 32)
        with pytest.raises(MappingError):
            remap(random_image, f)

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_matches_direct_sampling(self, method, small_field, random_image):
        via_remap = remap(random_image, small_field, method=method)
        direct = interp.sample(random_image, small_field.map_x, small_field.map_y,
                               method=method)
        np.testing.assert_array_equal(via_remap, direct)


class TestRemapLUT:
    @pytest.mark.parametrize("method", interp.METHODS)
    def test_lut_matches_otf(self, method, small_field, random_image):
        lut = RemapLUT(small_field, method=method)
        out_lut = lut.apply(random_image)
        out_otf = remap(random_image, small_field, method=method)
        np.testing.assert_allclose(out_lut.astype(int), out_otf.astype(int), atol=1)

    def test_taps_per_method(self, small_field):
        assert RemapLUT(small_field, method="nearest").taps == 1
        assert RemapLUT(small_field, method="bilinear").taps == 4
        assert RemapLUT(small_field, method="bicubic").taps == 16

    def test_weights_sum_to_one_where_valid(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        sums = lut.weights.sum(axis=1)
        valid = lut.mask
        np.testing.assert_allclose(sums[valid], 1.0, atol=1e-6)

    def test_masked_pixels_get_fill(self, tilted_field, random_image):
        lut = RemapLUT(tilted_field, method="bilinear", fill=123.0)
        out = lut.apply(random_image)
        invalid = ~tilted_field.valid_mask()
        assert invalid.any()
        np.testing.assert_array_equal(out[invalid], 123)

    def test_indices_in_bounds(self, small_field):
        for method in interp.METHODS:
            lut = RemapLUT(small_field, method=method)
            taps = lut.tap_offsets()
            assert taps.min() >= 0
            assert taps.max() < 64 * 64

    def test_nbytes_and_entry_bytes_consistent(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        pixels = 64 * 64
        assert lut.nbytes == pytest.approx(lut.entry_bytes() * pixels, rel=0.01)

    def test_apply_out_buffer_reused(self, small_field, random_image):
        lut = RemapLUT(small_field)
        buf = np.empty((64, 64), dtype=np.uint8)
        out = lut.apply(random_image, out=buf)
        assert out is buf
        np.testing.assert_array_equal(buf, lut.apply(random_image))

    def test_apply_rejects_wrong_frame(self, small_field):
        lut = RemapLUT(small_field)
        with pytest.raises(MappingError):
            lut.apply(np.zeros((10, 10), dtype=np.uint8))

    def test_rejects_unknown_method(self, small_field):
        with pytest.raises(InterpolationError):
            RemapLUT(small_field, method="spline")

    def test_multichannel(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        out = lut.apply(rgb_image)
        assert out.shape == (64, 64, 3)
        for c in range(3):
            np.testing.assert_array_equal(out[..., c], lut.apply(rgb_image[..., c]))


class TestApplyRows:
    def test_stitched_rows_equal_full_apply(self, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        full = lut.apply(random_image)
        parts = [lut.apply_rows(random_image, r, min(r + 13, 64))
                 for r in range(0, 64, 13)]
        stitched = np.concatenate(parts, axis=0)
        np.testing.assert_array_equal(stitched, full)

    def test_bad_row_range_rejected(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with pytest.raises(MappingError):
            lut.apply_rows(random_image, 10, 5)
        with pytest.raises(MappingError):
            lut.apply_rows(random_image, 0, 100)

    def test_rgb_rows(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        block = lut.apply_rows(rgb_image, 8, 16)
        np.testing.assert_array_equal(block, lut.apply(rgb_image)[8:16])


class TestRemapProfiled:
    def test_output_matches_lut(self, small_field, random_image):
        out, prof = remap_profiled(random_image, small_field)
        lut = RemapLUT(small_field)
        np.testing.assert_array_equal(out, lut.apply(random_image))

    def test_profile_has_positive_stages(self, small_field, random_image):
        _, prof = remap_profiled(random_image, small_field)
        d = prof.as_dict()
        for stage in ("lut_build", "gather", "interpolate", "store"):
            assert d[stage] >= 0.0
        assert prof.total == pytest.approx(sum(v for k, v in d.items() if k != "total"))

    def test_profile_fill_applied(self, tilted_field, random_image):
        out, _ = remap_profiled(random_image, tilted_field, fill=50.0)
        invalid = ~tilted_field.valid_mask()
        np.testing.assert_array_equal(out[invalid], 50)


class TestFloatFrames:
    def test_float32_frames_supported(self, small_field):
        frame = np.linspace(0, 1, 64 * 64, dtype=np.float32).reshape(64, 64)
        lut = RemapLUT(small_field)
        out = lut.apply(frame)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()

    def test_uint16_frames_supported(self, small_field, rng):
        frame = rng.integers(0, 65535, size=(64, 64), dtype=np.uint16)
        out = RemapLUT(small_field).apply(frame)
        assert out.dtype == np.uint16

    def test_float64_keeps_native_precision(self, rng):
        # On an identity map every output pixel is exactly one source
        # pixel with weight 1 — a float32 round-trip would corrupt the
        # low bits of arbitrary float64 data, native accumulation won't.
        f = identity_map(64, 64)
        frame = rng.random((64, 64), dtype=np.float64) * 1e9 + rng.random((64, 64))
        out = RemapLUT(f, method="bilinear").apply(frame)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, frame)


class TestScalarOracle:
    """The fused compact-LUT kernel against the loop-based reference."""

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_fused_kernel_matches_scalar(self, method, small_field,
                                         random_image):
        lut = RemapLUT(small_field, method=method, fill=7.0)
        got = lut.apply(random_image)
        want = interp.sample_scalar(random_image, small_field.map_x,
                                    small_field.map_y, method=method,
                                    fill=7.0)
        np.testing.assert_allclose(got.astype(int), want.astype(int), atol=1)


class TestApplyInto:
    def test_matches_apply(self, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        out = np.empty((64, 64), dtype=np.uint8)
        ret = lut.apply_into(random_image, out)
        assert ret is out
        np.testing.assert_array_equal(out, lut.apply(random_image))

    def test_rgb_into(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        out = np.empty((64, 64, 3), dtype=np.uint8)
        lut.apply_into(rgb_image, out)
        np.testing.assert_array_equal(out, lut.apply(rgb_image))

    def test_bad_out_rejected(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with pytest.raises(MappingError):
            lut.apply_into(random_image, np.empty((32, 32), dtype=np.uint8))
        with pytest.raises(MappingError):
            lut.apply_into(random_image, np.empty((64, 64), dtype=np.float32))

    def test_rows_into_stitches(self, small_field, random_image):
        lut = RemapLUT(small_field, method="bicubic")
        full = lut.apply(random_image)
        out = np.empty((64, 64), dtype=np.uint8)
        for r in range(0, 64, 13):
            r1 = min(r + 13, 64)
            lut.apply_rows_into(random_image, r, r1, out[r:r1])
        np.testing.assert_array_equal(out, full)

    def test_repeated_apply_into_is_stable(self, small_field, random_image):
        # Scratch buffers are pooled; a second call must not see stale
        # accumulator state from the first.
        lut = RemapLUT(small_field, method="bilinear")
        out = np.empty((64, 64), dtype=np.uint8)
        first = lut.apply_into(random_image, out).copy()
        second = lut.apply_into(random_image, out)
        np.testing.assert_array_equal(first, second)


class TestCompactLayout:
    # deployed-size budget of the former float64 index + per-tap weight
    # layout, per method
    SEED_ENTRY_BYTES = {"nearest": 13.0, "bilinear": 49.0, "bicubic": 193.0}

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_entry_bytes_dropped(self, method, small_field):
        lut = RemapLUT(small_field, method=method)
        assert lut.base.dtype == np.int32
        assert lut.entry_bytes() <= 0.6 * self.SEED_ENTRY_BYTES[method]

    def test_entry_bytes_for_matches_instances(self, small_field):
        for method in interp.METHODS:
            lut = RemapLUT(small_field, method=method)
            assert lut.entry_bytes() == RemapLUT.entry_bytes_for(method)

    def test_weights_property_still_expands(self, small_field):
        lut = RemapLUT(small_field, method="bicubic")
        w = lut.weights
        assert w.shape == (64 * 64, 16)
        np.testing.assert_allclose(w.sum(axis=1)[lut.mask], 1.0, atol=1e-5)
