"""Coordinate-field composition tests."""

import threading

import numpy as np
import pytest

from repro.core.compose import (_axes, _composed_table, affine_field,
                                compose_fields, composed_lut, crop_field,
                                downscale_field)
from repro.core.lutcache import LUTCache
from repro.core.mapping import RemapField, identity_map
from repro.core.remap import RemapLUT
from repro.errors import MappingError


class TestCropField:
    def test_identity_crop(self):
        f = crop_field(8, 8, 0.0, 0.0, 8, 8, scale=1.0)
        g = identity_map(8, 8)
        np.testing.assert_allclose(f.map_x, g.map_x)
        np.testing.assert_allclose(f.map_y, g.map_y)

    def test_offset_and_scale(self):
        f = crop_field(4, 4, 10.0, 20.0, 64, 64, scale=2.0)
        assert f.map_x[0, 0] == 10.0 and f.map_y[0, 0] == 20.0
        assert f.map_x[0, 3] == 16.0 and f.map_y[3, 0] == 26.0

    def test_validation(self):
        with pytest.raises(MappingError):
            crop_field(0, 4, 0, 0, 8, 8)
        with pytest.raises(MappingError):
            crop_field(4, 4, 0, 0, 8, 8, scale=0.0)


class TestAffineField:
    def test_identity_matrix(self):
        f = affine_field(6, 6, [[1, 0, 0], [0, 1, 0]], 6, 6)
        g = identity_map(6, 6)
        np.testing.assert_allclose(f.map_x, g.map_x)

    def test_rotation_90(self):
        # backward map of a 90-degree rotation about the origin
        f = affine_field(4, 4, [[0, 1, 0], [-1, 0, 3]], 4, 4)
        assert f.map_x[2, 1] == 2.0   # src_x = y
        assert f.map_y[2, 1] == 2.0   # src_y = 3 - x

    def test_validation(self):
        with pytest.raises(MappingError):
            affine_field(4, 4, np.eye(3), 4, 4)


class TestComposeFields:
    def test_identity_neutral_both_sides(self, small_field):
        ident_out = identity_map(64, 64)
        left = compose_fields(ident_out, small_field)
        np.testing.assert_allclose(left.map_x, small_field.map_x, atol=1e-9)
        ident_src = identity_map(64, 64)
        right = compose_fields(small_field, ident_src)
        mask = small_field.valid_mask()
        np.testing.assert_allclose(right.map_x[mask], small_field.map_x[mask],
                                   atol=1e-9)

    def test_crop_after_correction_matches_cropped_map(self, small_field):
        crop = crop_field(16, 16, 24.0, 24.0, 64, 64)
        composed = compose_fields(crop, small_field)
        np.testing.assert_allclose(composed.map_x,
                                   small_field.map_x[24:40, 24:40], atol=1e-9)

    def test_single_resample_sharper_than_double(self, small_field, rng):
        """The module's reason to exist: compose-then-remap beats
        remap-then-remap."""
        from scipy import ndimage

        img = ndimage.gaussian_filter(
            rng.integers(0, 255, (64, 64)).astype(np.float64), 1.5)
        zoom = crop_field(64, 64, 16.0, 16.0, 64, 64, scale=0.5)

        twice = RemapLUT(zoom).apply(RemapLUT(small_field).apply(img))
        once = RemapLUT(compose_fields(zoom, small_field)).apply(img)

        # reference: the exact composed coordinates sampled once more
        # finely (bicubic)
        exact_field = compose_fields(zoom, small_field)
        reference = RemapLUT(exact_field, method="bicubic").apply(img)
        err_twice = np.nanmean((twice - reference) ** 2)
        err_once = np.nanmean((once - reference) ** 2)
        assert err_once <= err_twice + 1e-9

    def test_out_of_range_propagates_nan(self, tilted_field):
        crop = crop_field(32, 32, 0.0, 0.0, 64, 64)
        composed = compose_fields(crop, tilted_field)
        # the tilted field's invalid top region stays invalid
        assert not composed.valid_mask().all()

    def test_shape_mismatch_rejected(self, small_field):
        wrong = crop_field(8, 8, 0.0, 0.0, 32, 32)  # samples a 32x32 frame
        with pytest.raises(MappingError):
            compose_fields(wrong, small_field)

    def test_composed_correction_applies(self, small_field, random_image):
        stabilize = affine_field(64, 64, [[1, 0, 0.5], [0, 1, -0.25]], 64, 64)
        field = compose_fields(stabilize, small_field)
        out = RemapLUT(field).apply(random_image)
        assert out.shape == (64, 64)


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_crop_nonfinite_origin(self, bad):
        with pytest.raises(MappingError):
            crop_field(4, 4, bad, 0.0, 8, 8)
        with pytest.raises(MappingError):
            crop_field(4, 4, 0.0, bad, 8, 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_crop_nonfinite_scale(self, bad):
        with pytest.raises(MappingError):
            crop_field(4, 4, 0.0, 0.0, 8, 8, scale=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_affine_nonfinite_matrix(self, bad):
        with pytest.raises(MappingError):
            affine_field(4, 4, [[1.0, 0.0, bad], [0.0, 1.0, 0.0]], 4, 4)


class TestDownscaleField:
    def test_area_convention_centres(self):
        # output pixel j covers source span [j*s, (j+1)*s) and samples
        # its centre: at 2:1 pixel 0 samples 0.5, pixel 1 samples 2.5
        f = downscale_field(4, 4, 8, 8)
        assert f.map_x[0, 0] == 0.5 and f.map_x[0, 1] == 2.5
        assert f.map_y[1, 0] == 2.5

    def test_two_to_one_is_box_average(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, (8, 8))
        out = RemapLUT(downscale_field(4, 4, 8, 8, prefilter=False)).apply(img)
        box = img.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(out, box, atol=1e-9)

    def test_prefilter_hint(self):
        assert downscale_field(4, 4, 8, 8).prefilter_factor == 1
        assert downscale_field(4, 4, 16, 16).prefilter_factor == 2
        assert downscale_field(4, 4, 16, 16,
                               prefilter=False).prefilter_factor == 1

    def test_upscale_rejected(self):
        with pytest.raises(MappingError):
            downscale_field(16, 16, 8, 8)


class TestComposedLut:
    def test_matches_direct_composition(self, small_field, random_image):
        outer = downscale_field(32, 32, 64, 64, prefilter=False)
        lut = composed_lut(outer, small_field)
        direct = RemapLUT(compose_fields(outer, small_field))
        assert np.array_equal(lut.apply(random_image),
                              direct.apply(random_image))

    @staticmethod
    def _cached(cache, outer, inner):
        return cache.get_or_build(LUTCache.key_for_composed(outer, inner),
                                  lambda: composed_lut(outer, inner))

    def test_cache_key_and_reuse(self, small_field):
        outer = downscale_field(32, 32, 64, 64, prefilter=False)
        cache = LUTCache()
        a = self._cached(cache, outer, small_field)
        b = self._cached(cache, outer, small_field)
        assert a is b
        assert cache.misses == 1 and cache.hits == 1
        # a different outer keys a different entry
        other = downscale_field(16, 16, 64, 64, prefilter=False)
        c = self._cached(cache, other, small_field)
        assert c is not a

    def test_composed_build_single_flight(self, small_field):
        from repro.obs.telemetry import Telemetry, scoped

        outer = downscale_field(32, 32, 64, 64, prefilter=False)
        cache = LUTCache()
        got = []
        barrier = threading.Barrier(4)
        tel = Telemetry()

        def build():
            # scoped() is context-local: enter it per thread
            with scoped(tel):
                barrier.wait()
                got.append(self._cached(cache, outer, small_field))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 4
        assert all(g is got[0] for g in got)
        assert tel.snapshot()["counters"]["lutcache.builds"] == 1

    def test_antialias_factor_supersamples(self, small_field):
        from repro.core.antialias import SupersampledLUT

        outer = downscale_field(16, 16, 64, 64)  # 4:1 -> hint factor 2
        lut = composed_lut(outer, small_field)
        assert isinstance(lut, SupersampledLUT)
        # the same call with antialias=False pins the plain table
        plain = composed_lut(outer, small_field, antialias=False)
        assert isinstance(plain, RemapLUT)


class TestNanPropagationStages:
    def test_outer_out_of_range_goes_nan(self, small_field):
        # outer samples beyond inner's output: those pixels are invalid
        outer = crop_field(8, 8, 60.0, 60.0, 64, 64)
        composed = compose_fields(outer, small_field)
        mask = composed.valid_mask()
        assert not mask[-1, -1]
        assert mask[0, 0]

    def test_inner_invalid_survives_downscale(self, tilted_field):
        outer = downscale_field(32, 32, 64, 64, prefilter=False)
        composed = compose_fields(outer, tilted_field)
        frac_inner = 1.0 - tilted_field.valid_mask().mean()
        frac_comp = 1.0 - composed.valid_mask().mean()
        # the tilted field's out-of-FOV share survives composition
        # (bilinear sampling of nan borders only widens it slightly)
        assert frac_comp >= frac_inner * 0.8
        assert frac_comp <= frac_inner + 0.2

    def test_double_composition_associates(self, small_field):
        # crop ∘ (down ∘ correct) == (crop ∘ down) ∘ correct: both
        # orders collapse affine outers exactly
        down = downscale_field(32, 32, 64, 64, prefilter=False)
        crop = crop_field(16, 16, 8.0, 8.0, 32, 32)
        left = compose_fields(crop, compose_fields(down, small_field))
        right = compose_fields(compose_fields(crop, down), small_field)
        mask = left.valid_mask() & right.valid_mask()
        np.testing.assert_allclose(left.map_x[mask], right.map_x[mask],
                                   atol=1e-9)
        np.testing.assert_allclose(left.map_y[mask], right.map_y[mask],
                                   atol=1e-9)

    def test_fused_tracks_two_pass_reference(self, small_field):
        from scipy import ndimage

        rng = np.random.default_rng(2)
        img = ndimage.gaussian_filter(
            rng.uniform(0, 255, (64, 64)), 1.5)
        outer = downscale_field(32, 32, 64, 64, prefilter=False)
        fused = RemapLUT(compose_fields(outer, small_field)).apply(img)
        two_pass = RemapLUT(outer).apply(RemapLUT(small_field).apply(img))
        mse = np.mean((fused - two_pass) ** 2)
        psnr = 10.0 * np.log10(255.0 ** 2 / mse)
        assert psnr > 30.0


class TestAxisAlignedRoute:
    """Axis-aligned outers (:func:`downscale_field`, :func:`crop_field`)
    compose row by row; the tables must equal the per-pixel lerp's."""

    @staticmethod
    def _dense(field):
        """The same field with C-contiguous maps: the general route."""
        return RemapField(np.array(field.map_x), np.array(field.map_y),
                          field.src_width, field.src_height)

    def _assert_same_tables(self, outer, inner, method="bilinear"):
        assert _axes(outer) is not None
        dense = self._dense(outer)
        assert _axes(dense) is None
        got = _composed_table(outer, inner, method, 5.0)
        want = _composed_table(dense, inner, method, 5.0)
        for name in ("base", "fracs", "mask", "patch_pixels", "patch_taps"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name), err_msg=name)
        fx, fy = compose_fields(outer, inner), compose_fields(dense, inner)
        assert np.array_equal(fx.map_x, fy.map_x, equal_nan=True)
        assert np.array_equal(fx.map_y, fy.map_y, equal_nan=True)

    @staticmethod
    def _outer(inner, width, height):
        ih, iw = inner.shape
        return downscale_field(width, height, iw, ih, prefilter=False)

    def test_downscale_two_to_one(self, small_field):
        ih, iw = small_field.shape
        outer = self._outer(small_field, iw // 2, ih // 2)
        for method in ("nearest", "bilinear", "bicubic"):
            self._assert_same_tables(outer, small_field, method)

    def test_downscale_non_integer_ratio(self, small_field):
        ih, iw = small_field.shape
        self._assert_same_tables(
            self._outer(small_field, iw * 5 // 12, ih * 5 // 12), small_field)

    def test_crop_partly_outside_the_source(self, small_field):
        ih, iw = small_field.shape
        outer = crop_field(iw // 2 + 7, ih // 2 + 5, iw * 0.7, -3.5,
                           iw, ih, scale=1.3)
        assert not outer.valid_mask().all() and outer.valid_mask().any()
        self._assert_same_tables(outer, small_field)

    def test_inner_field_with_nan_regions(self, tilted_field):
        """``nan`` blocks on either map (the out-of-FOV marker) over a
        field that also leaves the source frame."""
        ih, iw = tilted_field.shape
        map_x = np.array(tilted_field.map_x)
        map_y = np.array(tilted_field.map_y)
        map_x[ih // 4:ih // 2, iw // 8:iw // 3] = np.nan
        map_y[ih // 2:, iw // 2:] = np.nan
        inner = RemapField(map_x, map_y, iw, ih)
        self._assert_same_tables(self._outer(inner, iw // 2, ih // 3), inner)
        self._assert_same_tables(
            crop_field(iw // 2, ih // 2, 2.25, 1.5, iw, ih, scale=0.75), inner)

    def test_maps_are_zero_stride_broadcasts(self):
        """Each map stores one axis, read-only, with the values of the
        per-pixel formula."""
        ys, xs = np.indices((30, 40), dtype=np.float64)
        down = downscale_field(40, 30, 96, 72)
        crop = crop_field(40, 30, 10.0, 8.0, 96, 72, scale=0.5)
        for f, (want_x, want_y) in (
                (down, ((xs + 0.5) * 2.4 - 0.5, (ys + 0.5) * 2.4 - 0.5)),
                (crop, (10.0 + xs * 0.5, 8.0 + ys * 0.5))):
            assert f.map_x.strides[0] == 0 and f.map_y.strides[1] == 0
            assert not f.map_x.flags.writeable
            assert not f.map_y.flags.writeable
            np.testing.assert_array_equal(f.map_x, want_x)
            np.testing.assert_array_equal(f.map_y, want_y)
