"""Threaded executor and SIMD model tests: parallel result == sequential result."""

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.parallel.simd import AVX2, SPU, SSE2, apply_lanewise, simd_speedup
from repro.parallel.threadpool import ThreadedExecutor
from repro.errors import PlatformError, ScheduleError


class TestThreadedExecutor:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, workers, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        expected = lut.apply(random_image)
        with ThreadedExecutor(workers=workers, bands_per_worker=3) as ex:
            out = ex.run(lut, random_image)
        np.testing.assert_array_equal(out, expected)

    def test_weighted_bands(self, tilted_field, random_image):
        lut = RemapLUT(tilted_field)
        expected = lut.apply(random_image)
        with ThreadedExecutor(workers=2, weighted=True) as ex:
            np.testing.assert_array_equal(ex.run(lut, random_image), expected)

    def test_rgb(self, small_field, rgb_image):
        lut = RemapLUT(small_field)
        with ThreadedExecutor(workers=2) as ex:
            out = ex.run(lut, rgb_image)
        np.testing.assert_array_equal(out, lut.apply(rgb_image))

    def test_out_buffer(self, small_field, random_image):
        lut = RemapLUT(small_field)
        buf = np.empty((64, 64), dtype=np.uint8)
        with ThreadedExecutor(workers=2) as ex:
            out = ex.run(lut, random_image, out=buf)
        assert out is buf

    def test_bad_out_buffer(self, small_field, random_image):
        lut = RemapLUT(small_field)
        with ThreadedExecutor(workers=2) as ex:
            with pytest.raises(ScheduleError):
                ex.run(lut, random_image, out=np.empty((5, 5), dtype=np.uint8))

    def test_close_idempotent(self, small_field):
        ex = ThreadedExecutor(workers=2)
        ex.close()
        ex.close()

    def test_validation(self):
        with pytest.raises(ScheduleError):
            ThreadedExecutor(workers=0)
        with pytest.raises(ScheduleError):
            ThreadedExecutor(bands_per_worker=0)

    def test_streaming_via_corrector(self, small_field, rng):
        from repro.core.pipeline import FisheyeCorrector

        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(3)]
        corrector = FisheyeCorrector(small_field)
        with ThreadedExecutor(workers=2) as ex:
            for f in frames:
                np.testing.assert_array_equal(ex.run(corrector.lut, f),
                                              corrector.correct(f))


class TestSIMDModel:
    def test_lanewise_matches_whole_array(self):
        values = np.linspace(0, 10, 37)
        for lanes in (1, 4, 8):
            out = apply_lanewise(np.sin, values, lanes)
            np.testing.assert_allclose(out, np.sin(values), rtol=1e-12)

    def test_lanewise_empty(self):
        out = apply_lanewise(lambda x: x * 2, np.array([]), 4)
        assert out.size == 0

    def test_lanewise_validation(self):
        with pytest.raises(PlatformError):
            apply_lanewise(np.sin, np.zeros(4), 0)
        with pytest.raises(PlatformError):
            apply_lanewise(np.sin, np.zeros((2, 2)), 4)

    def test_gather_limits_speedup(self):
        # with gathers, a gather-less ISA cannot reach its lane count
        s = simd_speedup(SSE2, arith_ops=11.0, gather_ops=4.0)
        assert 1.0 < s < SSE2.lanes

    def test_hardware_gather_helps(self):
        no_gather = simd_speedup(SSE2, 11.0, 4.0)
        hw_gather = simd_speedup(AVX2, 11.0, 4.0)
        assert hw_gather > no_gather

    def test_pure_arithmetic_reaches_lanes(self):
        s = simd_speedup(SSE2, arith_ops=100.0, gather_ops=0.0)
        assert s == pytest.approx(SSE2.lanes, rel=0.01)

    def test_fma_counts(self):
        assert simd_speedup(SPU, 20.0, 0.0) > simd_speedup(SSE2, 20.0, 0.0)

    def test_zero_ops_neutral(self):
        assert simd_speedup(SSE2, 0.0, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(PlatformError):
            simd_speedup(SSE2, -1.0, 0.0)
