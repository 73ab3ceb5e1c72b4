"""Tests: robust timing statistics (``repro.bench.stats``)."""

import numpy as np
import pytest

from repro.bench.stats import repeat_timing, robust_summary
from repro.errors import BenchmarkError


class TestRepeatTiming:
    def test_collects_samples(self):
        samples = repeat_timing(lambda: None, repeats=5, warmup=1)
        assert samples.shape == (5,)
        assert (samples >= 0).all()

    def test_warmup_runs_executed(self):
        calls = []
        repeat_timing(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            repeat_timing(lambda: None, repeats=0)
        with pytest.raises(BenchmarkError):
            repeat_timing(lambda: None, warmup=-1)


class TestRobustSummary:
    def test_median_and_mad(self):
        s = robust_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.median == pytest.approx(3.0)
        assert s.mad == pytest.approx(1.0)

    def test_ci_brackets_median_for_tight_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 0.1, size=50)
        s = robust_summary(data)
        assert s.ci_low <= s.median <= s.ci_high
        assert s.ci_high - s.ci_low < 0.2

    def test_outlier_insensitive(self):
        clean = robust_summary([1.0] * 20)
        dirty = robust_summary([1.0] * 19 + [1000.0])
        assert dirty.median == pytest.approx(clean.median)

    def test_deterministic_bootstrap(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = robust_summary(data, seed=42)
        b = robust_summary(data, seed=42)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_format(self):
        s = robust_summary([0.001, 0.002, 0.003])
        assert "ms" in s.format_ms()

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            robust_summary([])
        with pytest.raises(BenchmarkError):
            robust_summary([1.0], confidence=0.3)
        with pytest.raises(BenchmarkError):
            robust_summary([1.0], bootstrap=5)
