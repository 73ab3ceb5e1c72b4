"""SIMD vectorization model tests."""

import numpy as np
import pytest

from repro.parallel.simd import AVX2, SPU, SSE2, apply_lanewise, simd_speedup
from repro.errors import PlatformError


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
