"""LUT cache tests: keying, LRU behaviour and single-flight builds."""

import hashlib

import numpy as np
import pytest

from repro.core.lutcache import LUTCache, _field_digest, field_fingerprint
from repro.core.mapping import RemapField
from repro.core.remap import RemapLUT
from repro.errors import MappingError

pytestmark = pytest.mark.tier1


def _get(cache, field, method="bilinear", fill=0.0):
    """The cache's one fetch, keyed and built as for a plain table."""
    return cache.get_or_build(LUTCache.key_for(field, method, fill),
                              lambda: RemapLUT(field, method=method, fill=fill))


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

    @pytest.mark.parametrize("layout", ["c_order", "strided", "transposed",
                                        "broadcast", "empty"])
    def test_digest_equals_tobytes_sha1(self, layout):
        """Hashing the map buffers in place gives the SHA-1 over their
        ``tobytes()`` copies on every map layout, so equal content
        gives an equal key however the maps are laid out."""
        grid = np.random.default_rng(3).random((130, 90)) * 50
        map_x, map_y = {
            "c_order": (grid, grid + 1.0),
            "strided": (grid[1::3, ::2], grid[2::3, 1::2]),
            "transposed": (grid.T, grid.T[::-1]),
            "broadcast": (np.broadcast_to(grid[0], grid.shape),
                          np.broadcast_to(grid[:, :1], grid.shape)),
            "empty": (np.empty((0, 7)), np.empty((0, 7))),
        }[layout]
        field = RemapField(map_x, map_y, 64, 48)
        h = hashlib.sha1()
        for a in (field.map_x, field.map_y):
            h.update(str(a.dtype).encode())
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        h.update(b"64x48")
        assert _field_digest(field) == h.hexdigest()


class TestMemoryTier:
    def test_hit_and_miss_counters(self, small_field):
        cache = LUTCache()
        a = _get(cache, small_field, method="bilinear")
        b = _get(cache, small_field, method="bilinear")
        assert a is b
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_configs_dont_collide(self, small_field):
        cache = LUTCache()
        bl = _get(cache, small_field, method="bilinear")
        nn = _get(cache, small_field, method="nearest")
        assert bl.taps == 4 and nn.taps == 1
        assert cache.misses == 2

    def test_lru_eviction(self, small_field, tilted_field):
        cache = LUTCache(capacity=1)
        _get(cache, small_field)
        _get(cache, tilted_field)
        assert len(cache) == 1
        _get(cache, small_field)  # evicted above, so a fresh miss
        assert cache.misses == 3
        assert cache.stats()["evictions"] == 2

    def test_capacity_validated(self):
        with pytest.raises(MappingError):
            LUTCache(capacity=0)


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

    Regression test for the fetch race: two threads could both miss and
    both build the (expensive) table, and the loser's work was thrown
    away.  The per-key build lock funnels all concurrent missers
    through a single build.
    """

    def test_concurrent_get_builds_exactly_once(self, small_field):
        import threading
        import time

        builds = []

        def slow_build():
            builds.append(threading.get_ident())
            time.sleep(0.1)  # widen the race window
            return RemapLUT(small_field)

        cache = LUTCache()
        key = LUTCache.key_for(small_field)
        n = 4
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = cache.get_or_build(key, slow_build)
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
        _get(cache, small_field)
        assert cache._builds == {}  # no per-key locks retained after build

    def test_failed_build_releases_key_lock(self, small_field):
        """A build that raises reaches its caller, leaves no lock
        behind, and caches nothing: the next fetch builds again."""
        def failing():
            raise RuntimeError("build failed")

        cache = LUTCache()
        with pytest.raises(RuntimeError, match="build failed"):
            cache.get_or_build("k", failing)
        assert cache._builds == {}
        assert len(cache) == 0
        lut = cache.get_or_build("k", lambda: RemapLUT(small_field))
        assert cache.get_or_build("k", failing) is lut
        assert cache.misses == 2 and cache.hits == 1
