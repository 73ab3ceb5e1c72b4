"""Fixed-point LUT tests: quantization invariants and the fixed tier's
integer kernel, checked against an independent Q-format reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fixedpoint import (max_abs_weight_error, packed_entry_bytes,
                                   quantize_weights)
from repro.core.quality import psnr
from repro.core.remap import RemapLUT
from repro.errors import InterpolationError, MappingError

pytestmark = pytest.mark.tier1


class TestQuantizeWeights:
    def test_rows_sum_to_scale(self):
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(4), size=50)  # rows sum to 1
        for bits in (2, 5, 8, 12):
            q = quantize_weights(w, bits)
            np.testing.assert_array_equal(q.sum(axis=1), 1 << bits)

    def test_zero_rows_stay_zero(self):
        q = quantize_weights(np.zeros((3, 4)), 8)
        np.testing.assert_array_equal(q, 0)

    def test_error_bounded_by_lsb(self):
        rng = np.random.default_rng(1)
        w = rng.dirichlet(np.ones(4), size=100)
        for bits in (4, 8):
            err = max_abs_weight_error(w, bits)
            # each weight is rounded to the nearest LSB; the balancing
            # correction adds at most a few LSBs on the largest tap
            assert err <= 4.0 / (1 << bits)

    def test_error_decreases_with_bits(self):
        rng = np.random.default_rng(2)
        w = rng.dirichlet(np.ones(4), size=64)
        errs = [max_abs_weight_error(w, b) for b in (2, 4, 6, 8, 10)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_bits_validation(self):
        with pytest.raises(InterpolationError):
            quantize_weights(np.ones((1, 4)) * 0.25, 0)
        with pytest.raises(InterpolationError):
            quantize_weights(np.ones((1, 4)) * 0.25, 15)

    def test_negative_weights_supported(self):
        # bicubic rows contain negative lobes but still sum to 1
        w = np.array([[-0.0625, 0.5625, 0.5625, -0.0625]])
        q = quantize_weights(w, 8)
        assert q.sum() == 256
        assert (q < 0).any()


def _fixed(field, frac_bits=8, **kwargs):
    """The Q-format fixed tier at ``frac_bits`` (8, the F12 midpoint)."""
    return RemapLUT(field, **kwargs).with_tier("fixed", frac_bits=frac_bits)


class TestFixedPointLUT:
    """The fixed-point LUT is ``RemapLUT(tier="fixed")``: its integer
    kernel's behaviours."""

    def test_matches_float_lut_at_high_precision(self, small_field, random_image):
        float_out = RemapLUT(small_field).apply(random_image).astype(int)
        fp_out = _fixed(small_field, frac_bits=12).apply(random_image).astype(int)
        assert np.abs(float_out - fp_out).max() <= 1

    def test_error_monotone_in_bits(self, small_field, random_image):
        reference = RemapLUT(small_field).apply(random_image).astype(np.float64)
        errs = []
        for bits in (2, 4, 8):
            out = _fixed(small_field, frac_bits=bits).apply(random_image)
            errs.append(float(np.abs(out.astype(np.float64) - reference).mean()))
        assert errs[0] >= errs[1] >= errs[2]

    def test_rejects_float_frames(self, small_field):
        """Q arithmetic is integer-only: a float frame never reaches the
        fixed kernel but runs on the float (numpy) kernel instead."""
        from repro.obs.telemetry import Telemetry, scoped

        frame = np.zeros((64, 64), dtype=np.float32)
        tel = Telemetry()
        with scoped(tel):
            out = _fixed(small_field).apply(frame)
        counters = tel.snapshot()["counters"]
        assert out.dtype == np.float32
        assert counters["kernel.tier.numpy"] == 1
        assert "kernel.tier.fixed" not in counters

    def test_rejects_wrong_geometry(self, small_field):
        with pytest.raises(MappingError):
            _fixed(small_field).apply(np.zeros((32, 32), dtype=np.uint8))

    def test_nearest_is_exact(self, small_field, random_image):
        # nearest has a single weight of exactly 1.0: quantization is lossless
        fp = _fixed(small_field, method="nearest", frac_bits=4)
        flt = RemapLUT(small_field, method="nearest")
        np.testing.assert_array_equal(fp.apply(random_image), flt.apply(random_image))

    def test_masked_pixels_filled(self, tilted_field, random_image):
        out = _fixed(tilted_field, fill=9).apply(random_image)
        invalid = ~tilted_field.valid_mask()
        np.testing.assert_array_equal(out[invalid], 9)

    def test_packed_entry_bytes_layouts(self, small_field):
        assert packed_entry_bytes("nearest", 8) == 4.0
        assert packed_entry_bytes("bilinear", 8) == 6.0
        assert packed_entry_bytes("bicubic", 10) == 6.5
        # the host layout (explicit taps + weights) is the larger one
        assert _fixed(small_field).entry_bytes() > packed_entry_bytes("bilinear", 8)

    def test_uint16_frames(self, small_field, rng):
        frame = rng.integers(0, 65535, size=(64, 64), dtype=np.uint16)
        out = _fixed(small_field, frac_bits=10).apply(frame)
        assert out.dtype == np.uint16

    def test_multichannel(self, small_field, rgb_image):
        out = _fixed(small_field).apply(rgb_image)
        assert out.shape == (64, 64, 3)

    def test_apply_into_writes_buffer(self, small_field, random_image):
        fp = _fixed(small_field, frac_bits=12)
        out = np.empty(fp.out_shape, dtype=random_image.dtype)
        returned = fp.apply_into(random_image, out)
        assert returned is out
        np.testing.assert_array_equal(out, fp.apply(random_image))

    def test_apply_into_requires_buffer(self, small_field, random_image):
        with pytest.raises(MappingError):
            _fixed(small_field).apply_into(random_image, None)

    def test_apply_into_validates_buffer(self, small_field, random_image):
        fp = _fixed(small_field)
        wrong = np.empty((32, 32), dtype=random_image.dtype)
        with pytest.raises(MappingError):
            fp.apply_into(random_image, wrong)

    def test_apply_rows_into_matches_full(self, small_field, random_image):
        fp = _fixed(small_field, frac_bits=10)
        full = fp.apply(random_image)
        out = np.zeros_like(full)
        h = fp.out_shape[0]
        for row0, row1 in ((0, 20), (20, 41), (41, h)):
            fp.apply_rows_into(random_image, row0, row1, out[row0:row1])
        np.testing.assert_array_equal(out, full)

    def test_apply_rows_into_masked_bands(self, tilted_field, random_image):
        fp = _fixed(tilted_field, fill=7)
        full = fp.apply(random_image)
        h = fp.out_shape[0]
        out = np.zeros_like(full)
        fp.apply_rows_into(random_image, 0, h // 2, out[: h // 2])
        fp.apply_rows_into(random_image, h // 2, h, out[h // 2:])
        np.testing.assert_array_equal(out, full)

    def test_apply_rows_into_rejects_bad_range(self, small_field, random_image):
        fp = _fixed(small_field)
        out = np.empty((10, 64), dtype=random_image.dtype)
        with pytest.raises(MappingError):
            fp.apply_rows_into(random_image, 30, 20, out)


class TestQualityLadder:
    """The acceptance-criteria quality floors of the shipping Q tiers."""

    def _oracle(self, field, image):
        base = RemapLUT(field)
        out = base.apply(image.astype(np.float32))
        return np.clip(np.rint(out), 0, 255).astype(np.uint8), base

    def test_psnr_floor_across_bits(self, small_field, random_image):
        """Every shipping precision (Q6..Q12) clears 40 dB vs the
        float oracle — the gate check_regression enforces at Q12."""
        oracle, base = self._oracle(small_field, random_image)
        for bits in range(6, 13):
            out = base.with_tier("fixed", frac_bits=bits).apply(random_image)
            assert psnr(oracle, out) >= 40.0, f"Q{bits} below 40 dB"

    def test_psnr_monotone_in_bits(self, small_field, random_image):
        oracle, base = self._oracle(small_field, random_image)
        values = [psnr(oracle, base.with_tier("fixed", frac_bits=b).apply(random_image))
                  for b in range(6, 13)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_flat_frame_exact_through_fixed_tier(self, small_field):
        """Brightness preservation at the shipping precisions (the
        property test below sweeps 2..12 bits on a perturbed map)."""
        frame = np.full((64, 64), 201, dtype=np.uint8)
        for bits in (4, 8, 12):
            out = RemapLUT(small_field).with_tier("fixed", frac_bits=bits).apply(frame)
            np.testing.assert_array_equal(out, 201)

    def test_lut_and_fixedpoint_bit_exact(self, tilted_field, random_image,
                                          q_reference):
        """The fixed tier computes exactly the written-out fixed-point
        reference at every precision and interpolation method."""
        for method in ("nearest", "bilinear", "bicubic"):
            base = RemapLUT(tilted_field, method=method, fill=3)
            for bits in (2, 6, 8, 12, 14):
                got = base.with_tier("fixed", frac_bits=bits).apply(random_image)
                np.testing.assert_array_equal(
                    got, q_reference(base, random_image, bits),
                    err_msg=f"{method} Q{bits}")


@given(bits=st.integers(2, 12))
@settings(max_examples=11, deadline=None)
def test_property_brightness_preserved_on_flat_frames(bits):
    """Quantized interpolation of a constant frame is exactly constant.

    This is the invariant the weight re-balancing buys: without it,
    flat regions would shift brightness by the rounding residue.
    """
    from repro.core.mapping import identity_map

    rng = np.random.default_rng(bits)
    # a slightly perturbed identity map so fractions are non-trivial
    f = identity_map(16, 16)
    f.map_x += rng.uniform(0.05, 0.95, size=f.map_x.shape)
    f.map_y += rng.uniform(0.05, 0.95, size=f.map_y.shape)
    f.map_x = np.clip(f.map_x, 0, 14.9)
    f.map_y = np.clip(f.map_y, 0, 14.9)
    field = type(f)(f.map_x, f.map_y, 16, 16)
    frame = np.full((16, 16), 173, dtype=np.uint8)
    out = _fixed(field, frac_bits=bits).apply(frame)
    np.testing.assert_array_equal(out, 173)
