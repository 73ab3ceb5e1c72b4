"""Experiment registry smoke/shape tests.

These do not re-run the expensive default configurations; each
experiment is invoked at its smallest meaningful scale and the *shape*
claims recorded in EXPERIMENTS.md are asserted (who wins, what is
monotone), not absolute numbers.
"""

import numpy as np
import pytest

from repro.bench import experiments as exp
from repro.bench.report import Table
from repro.errors import BenchmarkError


class TestRegistry:
    def test_all_ids_present(self):
        assert set(exp.EXPERIMENTS) == {
            "T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6",
            "F7", "F8", "F9", "F10", "F11", "F12", "A1", "A2", "A3", "A4", "H1", "H2",
        }

    def test_unknown_id_rejected(self):
        with pytest.raises(BenchmarkError):
            exp.run_experiment("F99")

    def test_case_insensitive(self):
        t = exp.run_experiment("t1")
        assert isinstance(t, Table)


@pytest.mark.tier1
class TestH1:
    def test_thread_ladder_smoke(self):
        from repro.bench.ablations import h1_host_scaling

        table = h1_host_scaling(res="VGA", threads=(1, 2), repeats=2)
        assert table.headers == ["threads", "median_ms", "ci_low_ms",
                                 "ci_high_ms", "speedup"]
        assert table.column("threads") == [1, 2]
        for med, lo, hi in zip(table.column("median_ms"),
                               table.column("ci_low_ms"),
                               table.column("ci_high_ms")):
            assert 0 < lo <= med <= hi


class TestT1:
    def test_rows_and_columns(self):
        t = exp.t1_platforms()
        assert "platform" in t.headers
        assert len(t.rows) == 6
        assert "cell" in t.column("platform")


class TestT2:
    def test_stage_profile_sums(self):
        t = exp.t2_sequential_profile(res="VGA")
        stages = t.column("stage")
        assert {"map_build", "lut_build", "gather", "interpolate",
                "store", "per_frame_total"} <= set(stages)
        ms = dict(zip(stages, t.column("ms")))
        assert ms["per_frame_total"] == pytest.approx(
            ms["gather"] + ms["interpolate"] + ms["store"], rel=0.05)


class TestF1:
    def test_speedup_monotone_per_resolution(self):
        t = exp.f1_multicore_scaling(resolutions=("VGA",))
        speedups = t.column("speedup")
        threads = t.column("threads")
        assert threads == sorted(threads)
        assert all(a <= b + 1e-9 for a, b in zip(speedups, speedups[1:]))
        assert speedups[0] == pytest.approx(1.0)


class TestF2:
    def test_double_buffering_wins_compute_bound(self):
        t = exp.f2_cell_scaling(res="VGA", method="bicubic", mode="otf")
        rows = list(zip(t.column("spes"), t.column("buffering"), t.column("fps")))
        single = {s: f for s, b, f in rows if b == "single"}
        double = {s: f for s, b, f in rows if b == "double"}
        assert double[max(double)] >= single[max(single)] * 0.95


class TestF6:
    def test_blocked_beats_row_major_at_small_cache(self):
        t = exp.f6_tile_size_cache(res="VGA", cache_kb=(8, 64), band_rows=48,
                                   block=24)
        rows = list(zip(t.column("cache_kb"), t.column("traversal"),
                        t.column("hit_rate")))
        at8 = {trav: hr for kb, trav, hr in rows if kb == 8}
        assert at8["blocked"] >= at8["row-major"] - 1e-9

    def test_hit_rate_monotone_in_cache_size(self):
        t = exp.f6_tile_size_cache(res="VGA", cache_kb=(4, 16, 64), band_rows=32,
                                   block=16)
        rows = list(zip(t.column("cache_kb"), t.column("traversal"),
                        t.column("hit_rate")))
        for trav in ("row-major", "blocked"):
            series = [hr for kb, hr in
                      sorted((kb, hr) for kb, tv, hr in rows if tv == trav)]
            assert all(a <= b + 0.02 for a, b in zip(series, series[1:]))


class TestF9:
    def test_lut_memory_bound_on_cached_platforms(self):
        t = exp.f9_roofline()
        for platform, kernel, bound in zip(t.column("platform"),
                                           t.column("kernel"), t.column("bound")):
            if kernel == "bilinear/lut" and platform != "fpga":
                assert bound == "memory"

    def test_attainable_below_peak(self):
        t = exp.f9_roofline()
        for att, peak in zip(t.column("attainable"), t.column("peak")):
            assert att <= peak + 1e-9


class TestF10:
    def test_exact_model_subpixel_polynomials_worse(self):
        t = exp.f10_model_quality(size=128)
        rows = dict(zip(t.column("model"), t.column("median_err_px")))
        assert rows["exact(equidistant)"] < 0.1
        for name, err in rows.items():
            if name.startswith("brown"):
                assert err > rows["exact(equidistant)"]


class TestF12:
    def test_quality_monotone_in_bits(self):
        t = exp.f12_fixed_point(res="VGA", frac_bits=(2, 6, 10))
        psnrs = t.column("psnr_vs_float_db")
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_entry_bytes_grow_with_bits(self):
        t = exp.f12_fixed_point(res="VGA", frac_bits=(2, 10))
        sizes = t.column("packed_entry_bytes")
        assert sizes[0] < sizes[1]
