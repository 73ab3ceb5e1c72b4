"""Telemetry wired through the pipeline: kernels, the fleet, CLI.

Covers the cross-process aggregation path (fork *and* spawn), the
disabled-registry overhead budget, the cache hardening against corrupt
disk entries, and the ``--metrics``/``--trace``/``stats`` CLI surface.
"""

import json
import logging
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.lutcache import LUTCache
from repro.core.pipeline import FisheyeCorrector
from repro.core.remap import RemapLUT, remap_profiled
from repro.obs.logsetup import LOG_LEVELS, configure_logging, get_logger
from repro.obs.telemetry import Telemetry, disable, enable, get_telemetry, scoped
from repro.serve import StreamBroker
from repro.video.io import read_pgm

pytestmark = pytest.mark.tier1


@pytest.fixture(autouse=True)
def _null_registry():
    disable()
    yield
    disable()


class TestKernelInstrumentation:
    def test_apply_records_frame_metrics(self, small_field, gradient_image):
        lut = RemapLUT(small_field, method="bilinear")
        tel = Telemetry()
        with scoped(tel):
            out = lut.apply(gradient_image)
        snap = tel.snapshot()
        assert snap["counters"]["remap.frames"] == 1
        assert snap["counters"]["remap.pixels"] == out.shape[0] * out.shape[1]
        assert snap["counters"]["remap.bytes_gathered"] > 0
        h = snap["histograms"]["remap.apply_seconds"]
        assert h["count"] == 1 and h["sum"] > 0

    def test_band_apply_counts_bands_not_frames(self, small_field, gradient_image):
        lut = RemapLUT(small_field, method="bilinear")
        out = np.empty(lut.out_shape, dtype=gradient_image.dtype)
        tel = Telemetry()
        with scoped(tel):
            lut.apply_rows_into(gradient_image, 0, 16, out[0:16])
        snap = tel.snapshot()
        assert snap["counters"]["remap.bands"] == 1
        assert "remap.frames" not in snap["counters"]

    def test_disabled_registry_identical_output(self, small_field, gradient_image):
        lut = RemapLUT(small_field, method="bilinear")
        baseline = lut.apply(gradient_image)
        with scoped(Telemetry(stage_detail=True)):
            instrumented = lut.apply(gradient_image)
        np.testing.assert_array_equal(baseline, instrumented)

    def test_remap_profiled_shape_and_stages(self, small_field, gradient_image):
        out, prof = remap_profiled(gradient_image, small_field, method="bilinear")
        np.testing.assert_array_equal(
            out, RemapLUT(small_field, method="bilinear").apply(gradient_image))
        # the shipping kernel emitted the stage spans the profile sums
        assert prof.lut_build > 0
        assert prof.gather > 0
        assert prof.interpolate > 0
        assert prof.store > 0
        assert prof.map_build == 0.0  # owned by the caller
        # profiling is scoped: the global registry saw nothing
        assert not get_telemetry().enabled

    def test_stage_detail_off_by_default(self, small_field, gradient_image):
        lut = RemapLUT(small_field, method="bilinear")
        tel = Telemetry()  # stage_detail=False
        with scoped(tel):
            lut.apply(gradient_image)
        # per-stage spans stay off; only the frame-level tier-labelled
        # remap.apply span is recorded
        stage_spans = [s for s in tel.spans
                       if s["name"].startswith("remap.") and s["name"] != "remap.apply"]
        assert stage_spans == []
        apply_spans = [s for s in tel.spans if s["name"] == "remap.apply"]
        assert len(apply_spans) == 1
        assert apply_spans[0]["args"]["tier"] == "numpy"


class TestDisabledOverhead:
    def test_disabled_path_within_budget(self, small_field, gradient_image):
        """Structural bound: the per-frame cost telemetry adds with the
        registry disabled (one ``get_telemetry`` + ``enabled`` branch
        per instrumentation site) must be <5% of a frame's apply time —
        with wide margin, since the real frame here is a tiny 64x64.
        The full-resolution wall-clock gate lives in
        ``benchmarks/check_regression.py``.
        """
        lut = RemapLUT(small_field, method="bilinear")
        out = np.empty(lut.out_shape, dtype=gradient_image.dtype)
        lut.apply_into(gradient_image, out)  # warm scratch + weights
        frame_time = min(
            _timed(lambda: lut.apply_into(gradient_image, out))
            for _ in range(5))

        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            get_telemetry().enabled
        per_site = (time.perf_counter() - t0) / n

        sites_per_frame = 4  # generous: apply_into has 1 disabled-branch site
        assert per_site * sites_per_frame < 0.05 * frame_time, (
            f"disabled telemetry costs {per_site * 1e9:.0f} ns/site "
            f"vs frame {frame_time * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestCrossProcessMerge:
    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_worker_deltas_merge_into_parent(self, context, small_field,
                                             gradient_image):
        frames = [gradient_image] * 2
        expected = RemapLUT(small_field, method="bilinear").apply(gradient_image)
        tel = enable()
        try:
            with StreamBroker(workers=2, context=context) as broker:
                got = list(broker.open(iter(frames), small_field))
            snap = tel.snapshot()
        finally:
            disable()
        assert len(got) == 2
        for result in got:
            np.testing.assert_array_equal(result, expected)
        bands = snap["counters"]["serve.bands"]
        assert bands >= 2
        # the per-band timings were recorded in the *workers* and
        # shipped back as drain() deltas — their total count proves the
        # merge happened (works identically under fork and spawn)
        assert snap["histograms"]["serve.band_seconds"]["count"] == bands
        assert snap["histograms"]["frame.e2e_latency_seconds"]["count"] == 2

    def test_ring_workers_do_not_echo_the_scoped_registry(self, small_field,
                                                          gradient_image):
        """Forked workers inherit the parent's scoped registry; their
        deltas must carry only their own records, not the parent's."""
        from repro.video.stream import corrected_stream
        tel = Telemetry()
        with scoped(tel):
            tel.counter("parent.marker").inc()
            with tel.span("parent.setup"):
                pass
            out = [f.copy() for f in corrected_stream(
                [gradient_image] * 4, small_field, engine="ring", workers=2)]
        assert len(out) == 4
        snap = tel.snapshot()
        assert snap["counters"]["parent.marker"] == 1
        assert [s["name"] for s in snap["spans"]].count("parent.setup") == 1
        assert snap["counters"]["serve.bands"] >= 4  # worker deltas merged

    def test_disabled_executor_records_nothing(self, small_field,
                                               gradient_image):
        """A fleet run with telemetry off leaves the registry empty."""
        with StreamBroker(workers=2) as broker:
            assert len(list(broker.open(iter([gradient_image]),
                                        small_field))) == 1
        assert get_telemetry().snapshot() == {}


class TestCorrectorStats:
    def test_hit_miss_accounting(self, small_sensor, small_lens, gradient_image):
        cache = LUTCache()
        corrector = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64,
                                                lut_cache=cache)
        corrector.correct(gradient_image)
        corrector.correct(gradient_image)
        stats = corrector.stats()
        assert stats["frames_corrected"] == 2
        # the LUT is built lazily once and memoized on the corrector, so
        # this corrector's share of cache traffic is one build miss
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 0
        assert stats["cache"]["entries"] == 1
        # a second corrector over the same field hits the shared cache
        other = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64,
                                            lut_cache=cache)
        other.correct(gradient_image)
        assert other.stats()["cache_hits"] == 1
        assert other.stats()["cache_misses"] == 0

    def test_stats_without_cache(self, small_sensor, small_lens, gradient_image):
        corrector = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64)
        corrector.correct(gradient_image)
        stats = corrector.stats()
        assert stats["frames_corrected"] == 1
        assert stats["lut_built"] is True
        assert stats["cache"] is None

    def test_pipeline_counters(self, small_sensor, small_lens, gradient_image):
        corrector = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64)
        tel = Telemetry()
        with scoped(tel):
            corrector.correct(gradient_image)
        snap = tel.snapshot()
        assert snap["counters"]["pipeline.frames"] == 1
        assert snap["histograms"]["pipeline.frame_seconds"]["count"] == 1


class TestLUTCacheCorruption:
    def _cache_with_entry(self, tmp_path, field):
        cache_dir = str(tmp_path / "luts")
        cache = LUTCache(cache_dir=cache_dir)
        cache.get(field, method="bilinear")
        entries = os.listdir(cache_dir)
        assert len(entries) == 1
        return cache_dir, os.path.join(cache_dir, entries[0])

    def test_truncated_table_is_miss_not_error(self, tmp_path, small_field,
                                               gradient_image):
        cache_dir, entry = self._cache_with_entry(tmp_path, small_field)
        with open(os.path.join(entry, "base.npy"), "r+b") as fh:
            fh.truncate(16)  # partial mmap source: header survives, data gone
        fresh = LUTCache(cache_dir=cache_dir)
        tel = Telemetry()
        with scoped(tel):
            lut = fresh.get(small_field, method="bilinear")
        assert fresh.corrupt_reads == 1
        assert fresh.stats()["corrupt_reads"] == 1
        assert fresh.disk_hits == 0
        assert tel.snapshot()["counters"]["lutcache.disk.corrupt"] == 1
        # the rebuilt table still corrects frames
        assert lut.apply(gradient_image).shape == lut.out_shape

    def test_garbled_meta_is_miss_not_error(self, tmp_path, small_field):
        cache_dir, entry = self._cache_with_entry(tmp_path, small_field)
        with open(os.path.join(entry, "meta.json"), "w") as fh:
            fh.write("{not json")
        fresh = LUTCache(cache_dir=cache_dir)
        fresh.get(small_field, method="bilinear")
        assert fresh.corrupt_reads == 1

    def test_missing_fracs_for_bilinear_is_corrupt(self, tmp_path, small_field):
        cache_dir, entry = self._cache_with_entry(tmp_path, small_field)
        os.remove(os.path.join(entry, "fracs.npy"))
        fresh = LUTCache(cache_dir=cache_dir)
        fresh.get(small_field, method="bilinear")
        assert fresh.corrupt_reads == 1

    def test_intact_entry_still_disk_hits(self, tmp_path, small_field):
        cache_dir, _ = self._cache_with_entry(tmp_path, small_field)
        fresh = LUTCache(cache_dir=cache_dir)
        fresh.get(small_field, method="bilinear")
        assert fresh.disk_hits == 1
        assert fresh.corrupt_reads == 0


class TestCLI:
    def test_metrics_and_trace_outputs(self, tmp_path, capsys):
        fish = str(tmp_path / "fish.pgm")
        assert main(["synth", fish, "--scene", "checkerboard", "--distort",
                     "--width", "96", "--height", "96"]) == 0
        out = str(tmp_path / "corrected.pgm")
        metrics = str(tmp_path / "metrics.json")
        trace = str(tmp_path / "out.trace.json")
        assert main(["--metrics", metrics, "--trace", trace,
                     "correct", fish, out]) == 0
        assert read_pgm(out).shape == (96, 96)
        # telemetry was torn down after the run
        assert not get_telemetry().enabled

        with open(metrics) as fh:
            snap = json.load(fh)
        assert snap["counters"]["remap.frames"] >= 1
        assert snap["counters"]["pipeline.frames"] >= 1
        assert snap["histograms"]["remap.apply_seconds"]["count"] >= 1
        assert snap["histograms"]["remap.apply_seconds"]["sum"] > 0

        with open(trace) as fh:
            events = json.load(fh)
        assert isinstance(events, list)
        xs = [e for e in events if e.get("ph") == "X"]
        assert any(e["name"] == "cli.correct" for e in xs)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        err = capsys.readouterr().err
        assert "metrics snapshot" in err and "perfetto" in err

    def test_stats_pretty_prints(self, tmp_path, capsys):
        fish = str(tmp_path / "fish.pgm")
        main(["synth", fish, "--scene", "gradient",
              "--width", "64", "--height", "64"])
        metrics = str(tmp_path / "m.json")
        assert main(["--metrics", metrics, "correct", fish,
                     str(tmp_path / "o.pgm")]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "remap.frames" in out

    def test_log_level_flag(self, tmp_path, capsys):
        fish = str(tmp_path / "fish.pgm")
        assert main(["--log-level", "debug", "synth", fish, "--scene",
                     "gradient", "--width", "32", "--height", "32"]) == 0


class TestLogging:
    def test_configure_is_idempotent(self):
        logger = configure_logging("info", force=True)
        again = configure_logging("debug")
        assert logger is again
        assert len(logger.handlers) == 1
        assert logger.level == logging.DEBUG

    def test_get_logger_namespaced(self):
        log = get_logger("repro.serve.broker")
        assert log.name == "repro.serve.broker"
        assert get_logger("custom").name == "repro.custom"

    def test_levels_cover_argparse_choices(self):
        assert LOG_LEVELS == ("debug", "info", "warning", "error", "critical")
