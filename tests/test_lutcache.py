"""LUT cache tests: keying, LRU behaviour, and the persistent tier."""

import numpy as np
import pytest

from repro.core.lutcache import LUTCache, field_fingerprint
from repro.core.mapping import identity_map
from repro.core.remap import RemapLUT
from repro.errors import MappingError


class TestFingerprint:
    def test_stable_for_equal_fields(self, small_field):
        assert field_fingerprint(small_field) == field_fingerprint(small_field)

    def test_differs_for_different_fields(self, small_field, tilted_field):
        assert field_fingerprint(small_field) != field_fingerprint(tilted_field)

    def test_key_includes_parameters(self, small_field):
        k1 = LUTCache.key_for(small_field, method="bilinear")
        k2 = LUTCache.key_for(small_field, method="bicubic")
        k3 = LUTCache.key_for(small_field, method="bilinear", fill=9.0)
        assert len({k1, k2, k3}) == 3


class TestMemoryTier:
    def test_hit_and_miss_counters(self, small_field):
        cache = LUTCache()
        a = cache.get(small_field, method="bilinear")
        b = cache.get(small_field, method="bilinear")
        assert a is b
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_configs_dont_collide(self, small_field, random_image):
        cache = LUTCache()
        bl = cache.get(small_field, method="bilinear")
        nn = cache.get(small_field, method="nearest")
        assert bl.taps == 4 and nn.taps == 1
        assert cache.misses == 2

    def test_lru_eviction(self, small_field, tilted_field):
        cache = LUTCache(capacity=1)
        cache.get(small_field)
        cache.get(tilted_field)
        assert len(cache) == 1
        cache.get(small_field)  # evicted above, so a fresh miss
        assert cache.misses == 3

    def test_clear(self, small_field):
        cache = LUTCache()
        cache.get(small_field)
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(MappingError):
            LUTCache(capacity=0)


class TestDiskTier:
    def test_round_trip_skips_rebuild(self, small_field, random_image, tmp_path):
        warm = LUTCache(cache_dir=str(tmp_path))
        built = warm.get(small_field, method="bilinear")

        cold = LUTCache(cache_dir=str(tmp_path))  # fresh process stand-in
        loaded = cold.get(small_field, method="bilinear")
        assert cold.disk_hits == 1
        assert cold.misses == 1  # memory tier missed, disk tier answered
        np.testing.assert_array_equal(np.asarray(loaded.base),
                                      np.asarray(built.base))
        np.testing.assert_array_equal(loaded.apply(random_image),
                                      built.apply(random_image))

    def test_loaded_lut_is_memory_mapped(self, small_field, tmp_path):
        LUTCache(cache_dir=str(tmp_path)).get(small_field)
        loaded = LUTCache(cache_dir=str(tmp_path)).get(small_field)
        assert isinstance(loaded.base, np.memmap)

    def test_all_methods_round_trip(self, small_field, random_image, tmp_path):
        for method in ("nearest", "bilinear", "bicubic"):
            warm = LUTCache(cache_dir=str(tmp_path))
            built = warm.get(small_field, method=method)
            loaded = LUTCache(cache_dir=str(tmp_path)).get(small_field, method=method)
            np.testing.assert_array_equal(loaded.apply(random_image),
                                          built.apply(random_image))

    @staticmethod
    def _assert_rebuilt_and_overwritten(field, image, cache_dir, entry):
        """``entry``, in an older layout, is a plain miss: it is rebuilt
        and replaced by a current entry, never read as corrupt."""
        import json

        cache = LUTCache(cache_dir=str(cache_dir))
        lut = cache.get(field)
        assert cache.stats()["corrupt_reads"] == 0
        assert cache.disk_hits == 0
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["version"] == 3 and "border" not in meta
        fresh = LUTCache(cache_dir=str(cache_dir))
        loaded = fresh.get(field)
        assert fresh.disk_hits == 1
        np.testing.assert_array_equal(loaded.apply(image), lut.apply(image))
        np.testing.assert_array_equal(loaded.apply(image),
                                      RemapLUT(field).apply(image))

    def test_version_1_entry_is_rebuilt_and_overwritten(self, small_field,
                                                        random_image,
                                                        tmp_path):
        """An entry in the per-tap offset layout."""
        import json

        key = LUTCache.key_for(small_field)
        entry = tmp_path / key
        entry.mkdir()
        n = 64 * 64
        np.save(entry / "indices.npy", np.zeros((n, 4), dtype=np.int32))
        np.save(entry / "fracs.npy", np.zeros((n, 2), dtype=np.float32))
        np.save(entry / "mask.npy", np.ones(n, dtype=bool))
        (entry / "meta.json").write_text(json.dumps({
            "version": 1, "method": "bilinear", "border": "constant",
            "fill": 0.0, "out_shape": [64, 64], "src_shape": [64, 64]}))
        self._assert_rebuilt_and_overwritten(small_field, random_image,
                                             tmp_path, entry)
        assert not (entry / "indices.npy").exists()

    def test_version_2_entry_is_rebuilt_and_overwritten(self, small_field,
                                                        random_image,
                                                        tmp_path):
        """An entry in the compact layout that still recorded a border
        mode, and could omit ``mask``."""
        import json

        key = LUTCache.key_for(small_field)
        entry = tmp_path / key
        entry.mkdir()
        n = 64 * 64
        np.save(entry / "base.npy", np.zeros(n, dtype=np.int32))
        np.save(entry / "fracs.npy", np.zeros((n, 2), dtype=np.float32))
        (entry / "meta.json").write_text(json.dumps({
            "version": 2, "method": "bilinear", "border": "replicate",
            "fill": 0.0, "out_shape": [64, 64], "src_shape": [64, 64],
            "patches": 0}))
        self._assert_rebuilt_and_overwritten(small_field, random_image,
                                             tmp_path, entry)

    def test_patch_list_round_trips(self, tilted_field, random_image,
                                    tmp_path):
        built = LUTCache(cache_dir=str(tmp_path)).get(tilted_field,
                                                      method="bicubic")
        assert len(built.patch_pixels)
        fresh = LUTCache(cache_dir=str(tmp_path))
        loaded = fresh.get(tilted_field, method="bicubic")
        assert fresh.disk_hits == 1
        np.testing.assert_array_equal(loaded.tap_offsets(),
                                      built.tap_offsets())
        np.testing.assert_array_equal(loaded.apply(random_image),
                                      built.apply(random_image))

    def test_corrupt_entry_falls_back_to_build(self, small_field, tmp_path):
        cache = LUTCache(cache_dir=str(tmp_path))
        key = cache.key_for(small_field)
        cache.get(small_field)
        (tmp_path / key / "meta.json").write_text("not json")
        fresh = LUTCache(cache_dir=str(tmp_path))
        lut = fresh.get(small_field)  # must rebuild, not crash
        assert fresh.disk_hits == 0
        assert isinstance(lut, RemapLUT)


class TestStreamIntegration:
    def test_corrected_stream_uses_cache(self, small_field, rng):
        from repro.video.stream import corrected_stream

        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8)
                  for _ in range(3)]
        cache = LUTCache()
        direct = list(corrected_stream(iter(frames), small_field, copy=True))
        cached = list(corrected_stream(iter(frames), small_field,
                                       lut_cache=cache, copy=True))
        assert cache.misses == 1
        for a, b in zip(direct, cached):
            np.testing.assert_array_equal(a, b)

    def test_corrector_pipeline_shares_cache(self, small_field, random_image):
        from repro.core.pipeline import FisheyeCorrector

        cache = LUTCache()
        c1 = FisheyeCorrector(small_field, lut_cache=cache)
        c2 = FisheyeCorrector(small_field, lut_cache=cache)
        np.testing.assert_array_equal(c1.correct(random_image),
                                      c2.correct(random_image))
        assert cache.misses == 1
        assert cache.hits >= 1


class TestSingleFlight:
    """Concurrent misses on one key must build exactly once.

    Regression test for the get() race: two threads could both miss,
    both build the (expensive) table, and the loser's work was thrown
    away — or worse, the disk tier wrote the same file twice
    concurrently.  The per-key build lock funnels all concurrent
    missers through a single build.
    """

    def test_concurrent_get_builds_exactly_once(self, small_field,
                                                monkeypatch):
        import threading
        import time

        import repro.core.lutcache as lutcache_mod

        builds = []
        real = lutcache_mod.RemapLUT

        def slow_build(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.1)  # widen the race window
            return real(*args, **kwargs)

        monkeypatch.setattr(lutcache_mod, "RemapLUT", slow_build)
        cache = LUTCache()
        n = 4
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = cache.get(small_field, method="bilinear")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(builds) == 1, f"expected 1 build, got {len(builds)}"
        assert all(r is results[0] for r in results)
        assert cache.misses == n
        assert cache.coalesced == n - 1
        assert cache.stats()["coalesced"] == n - 1

    def test_single_flight_releases_key_lock(self, small_field):
        cache = LUTCache()
        cache.get(small_field)
        assert cache._builds == {}  # no per-key locks retained after build
