"""Interpolation kernel tests: vectorized vs scalar oracle, the fill
outside the image, mathematical properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import interpolation as interp
from repro.errors import InterpolationError


class TestResolveIndices:
    def test_clamps(self):
        idx = np.array([-3, 0, 4, 7])
        out = interp.resolve_indices(idx, 5)
        np.testing.assert_array_equal(out, [0, 0, 4, 4])


class TestFootprint:
    def test_values(self):
        assert interp.footprint("nearest") == 1
        assert interp.footprint("bilinear") == 4
        assert interp.footprint("bicubic") == 16

    def test_unknown(self):
        with pytest.raises(InterpolationError):
            interp.footprint("lanczos")


class TestExactnessOnIntegerCoords:
    """Sampling exactly on pixel centres must reproduce the pixel."""

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_integer_grid_identity(self, method, random_image):
        h, w = random_image.shape
        xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        out = interp.sample(random_image, xs, ys, method=method)
        np.testing.assert_array_equal(out, random_image)

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_constant_image_everywhere(self, method):
        img = np.full((16, 16), 97, dtype=np.uint8)
        xs = np.linspace(1.2, 13.7, 20)
        ys = np.linspace(2.1, 12.9, 20)
        out = interp.sample(img, xs, ys, method=method)
        np.testing.assert_array_equal(out, 97)


class TestBilinearMath:
    def test_midpoint_average(self):
        img = np.array([[0.0, 10.0]], dtype=np.float64)
        val = interp.sample(img, np.array([0.5]), np.array([0.0]), method="bilinear")
        assert float(val[0]) == pytest.approx(5.0)

    def test_linear_ramp_reproduced_exactly(self):
        # bilinear reconstructs any affine function exactly
        ys, xs = np.indices((10, 10), dtype=np.float64)
        img = 3.0 * xs + 2.0 * ys + 1.0
        qx = np.array([1.25, 4.75, 7.5])
        qy = np.array([2.5, 3.25, 8.0])
        out = interp.sample(img, qx, qy, method="bilinear")
        np.testing.assert_allclose(out, 3.0 * qx + 2.0 * qy + 1.0, rtol=1e-12)


class TestBicubicMath:
    def test_weights_sum_to_one(self):
        fr = np.linspace(0, 0.999, 33)
        w = interp.catmull_rom_weights(fr)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_weights_at_zero_select_center(self):
        w = interp.catmull_rom_weights(np.array(0.0))
        np.testing.assert_allclose(w, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_linear_ramp_reproduced(self):
        # Catmull-Rom also reconstructs affine functions exactly
        ys, xs = np.indices((12, 12), dtype=np.float64)
        img = 2.0 * xs - 1.0 * ys + 5.0
        qx = np.array([3.3, 6.7])
        qy = np.array([4.4, 5.5])
        out = interp.sample(img, qx, qy, method="bicubic")
        np.testing.assert_allclose(out, 2.0 * qx - 1.0 * qy + 5.0, rtol=1e-10)


class TestBorderConstant:
    @pytest.mark.parametrize("method", interp.METHODS)
    def test_outside_returns_fill(self, method, random_image):
        out = interp.sample(random_image, np.array([-10.0, 100.0]),
                            np.array([5.0, 5.0]), method=method, fill=42.0)
        np.testing.assert_array_equal(out, [42, 42])

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_nan_coordinates_return_fill(self, method, random_image):
        out = interp.sample(random_image, np.array([np.nan]), np.array([3.0]),
                            method=method, fill=7.0)
        assert out[0] == 7

    def test_fill_dtype_clipped(self, random_image):
        out = interp.sample(random_image, np.array([-1.0]), np.array([0.0]),
                            method="nearest", fill=300.0)
        assert out[0] == 255  # clipped to uint8


class TestMultiChannel:
    @pytest.mark.parametrize("method", interp.METHODS)
    def test_channels_independent(self, method, rgb_image):
        xs = np.linspace(2, 60, 9)
        ys = np.linspace(3, 59, 9)
        full = interp.sample(rgb_image, xs, ys, method=method)
        for c in range(3):
            single = interp.sample(rgb_image[..., c], xs, ys, method=method)
            np.testing.assert_array_equal(full[..., c], single)


class TestScalarOracle:
    """The vectorized kernels must agree with the loop reference."""

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_agreement_random_coords(self, method, random_image, rng):
        xs = rng.uniform(-5, 68, size=40)
        ys = rng.uniform(-5, 68, size=40)
        fast = interp.sample(random_image, xs, ys, method=method, fill=9.0)
        slow = interp.sample_scalar(random_image, xs, ys, method=method,
                                    fill=9.0)
        # uint8 rounding can differ by 1 ULP at exact .5 boundaries
        np.testing.assert_allclose(fast.astype(int), slow.astype(int), atol=1)

    def test_agreement_float_image(self, rng):
        img = rng.normal(size=(16, 16))
        xs = rng.uniform(0, 15, size=25)
        ys = rng.uniform(0, 15, size=25)
        fast = interp.sample(img, xs, ys, method="bicubic")
        slow = interp.sample_scalar(img, xs, ys, method="bicubic")
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


class TestValidation:
    def test_shape_mismatch(self, random_image):
        with pytest.raises(InterpolationError):
            interp.sample(random_image, np.zeros(3), np.zeros(4))

    def test_bad_method(self, random_image):
        with pytest.raises(InterpolationError):
            interp.sample(random_image, np.zeros(1), np.zeros(1), method="area")

    def test_bad_image_ndim(self):
        with pytest.raises(InterpolationError):
            interp.sample(np.zeros((2, 2, 2, 2)), np.zeros(1), np.zeros(1))


@given(x=st.floats(0, 14.999), y=st.floats(0, 14.999))
@settings(max_examples=60, deadline=None)
def test_property_bilinear_within_local_extrema(x, y):
    """Bilinear output is bounded by its 4 neighbours (no overshoot)."""
    rng = np.random.default_rng(99)
    img = rng.uniform(0, 1, size=(16, 16))
    val = float(interp.sample(img, np.array([x]), np.array([y]),
                              method="bilinear")[0])
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    patch = img[y0:y0 + 2, x0:x0 + 2]
    assert patch.min() - 1e-9 <= val <= patch.max() + 1e-9


@given(sx=st.floats(0.2, 14.8), sy=st.floats(0.2, 14.8))
@settings(max_examples=60, deadline=None)
def test_property_interpolation_is_translation_equivariant(sx, sy):
    """Sampling a shifted constant-gradient image matches the shift."""
    ys, xs = np.indices((16, 16), dtype=np.float64)
    img = xs + 10.0 * ys
    v = float(interp.sample(img, np.array([sx]), np.array([sy]),
                            method="bilinear")[0])
    assert v == pytest.approx(sx + 10.0 * sy, rel=1e-10)


@pytest.mark.tier1
class TestFarCoordinates:
    """Coordinates past the int64 range or non-finite: the vectorized
    sampler and every LUT tier agree with the loop reference."""

    RAMP = np.add.outer(np.arange(4) * 5, np.arange(5) * 20).astype(np.uint8)

    def _coords(self):
        # a far or non-finite coordinate on one axis or both, beside an
        # in-range one
        pairs = [(2.5, 1.5)]
        for v in (1e20, -1e20, np.inf, -np.inf, np.nan):
            pairs += [(v, 1.0), (1.0, v), (v, v), (v, -v)]
        xs, ys = zip(*pairs)
        return np.array([xs]), np.array([ys])

    @pytest.mark.parametrize("method", interp.METHODS)
    def test_agrees_with_scalar(self, method):
        from repro.core.kernel_tiers import available_tiers
        from repro.core.mapping import RemapField
        from repro.core.remap import RemapLUT

        xs, ys = self._coords()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = interp.sample_scalar(self.RAMP, xs, ys, method, 7.0)
            got = interp.sample(self.RAMP, xs, ys, method, 7.0)
            np.testing.assert_array_equal(got, want)
            field = RemapField(xs, ys, 5, 4)
            for tier in available_tiers():
                lut = RemapLUT(field, method=method, fill=7.0, tier=tier)
                np.testing.assert_array_equal(lut.apply(self.RAMP), want,
                                              err_msg=tier)

    def test_far_edge_of_ramp(self):
        # the tap clamps to the right edge, not to the fold of an int64
        # overflow
        ix, iy, fx, fy = interp.bilinear_taps(np.array([1e20]),
                                              np.array([1.0]))
        assert (interp.resolve_indices(ix, 5)[0], iy[0]) == (4, 1)
        assert (fx[0], fy[0]) == (0.0, 0.0)

    @pytest.mark.parametrize("taps", [interp.bilinear_taps,
                                      interp.bicubic_taps])
    def test_taps_keep_in_range_coordinates(self, taps, rng):
        xs = rng.uniform(-5, 68, size=200)
        ys = rng.uniform(-5, 68, size=200)
        ix, iy, _, _ = taps(xs, ys)
        np.testing.assert_array_equal(ix, np.floor(xs).astype(np.intp))
        np.testing.assert_array_equal(iy, np.floor(ys).astype(np.intp))
        xs[::3] = 1e300
        ix2, iy2, _, _ = taps(xs, ys)
        np.testing.assert_array_equal(iy2, iy)
        mask = np.ones(200, bool)
        mask[::3] = False
        np.testing.assert_array_equal(ix2[mask], ix[mask])
        np.testing.assert_array_equal(ix2[~mask], 2 ** 51)
