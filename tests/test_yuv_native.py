"""The zero-copy YUV420-native path: colour math, pooling, caching,
planar shared-memory slots, per-plane band scheduling, and the pixfmt
knob on every streaming front end."""

import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.color import rgb_to_yuv, rgb_to_yuv420, yuv420_to_rgb
from repro.core.lutcache import LUTCache
from repro.core.mapping import chroma_half_field
from repro.core.remap import RemapLUT
from repro.errors import ImageFormatError, ScheduleError
from repro.video.pixfmt import get_pixfmt, plane_luts
from repro.video.stream import corrected_stream
from repro.video.yuv import (PLANE_NAMES, YUV420Frame, YUVCorrector,
                             to_yuv420_stream)


def _psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return float("inf") if mse == 0 else 10.0 * np.log10(255.0 ** 2 / mse)


def _smooth_rgb(h=64, w=64):
    ys, xs = np.mgrid[0:h, 0:w]
    r = 40 + 140 * xs / (w - 1)
    g = 60 + 120 * ys / (h - 1)
    b = 200 - 100 * (xs + ys) / (w + h - 2)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def _frames(rng, n, h=64, w=64):
    for _ in range(n):
        yield YUV420Frame(
            rng.integers(0, 256, (h, w), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))


# ----------------------------------------------------------------------
# vectorized colour conversion
# ----------------------------------------------------------------------
class TestVectorizedColor:
    def test_roundtrip_psnr_on_smooth_image(self):
        rgb = _smooth_rgb()
        back = yuv420_to_rgb(*rgb_to_yuv420(rgb))
        # 4:2:0 chroma subsampling on a smooth gradient loses little
        assert _psnr(rgb, back) > 30.0

    def test_matches_float64_reference(self):
        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        y, u, v = rgb_to_yuv420(rgb)
        ref = rgb_to_yuv(rgb)  # float64 per-channel reference
        ref_y = np.clip(np.rint(ref[..., 0]), 0, 255)
        assert np.abs(y.astype(np.int16) - ref_y.astype(np.int16)).max() <= 1
        # chroma = 2x2 box filter of the reference chroma, +128 offset
        ref_u = ref[..., 1].reshape(16, 2, 16, 2).mean(axis=(1, 3)) + 128
        assert np.abs(u.astype(np.float64) - ref_u).max() <= 1.0
        assert y.dtype == u.dtype == v.dtype == np.uint8

    def test_from_rgb_to_rgb_shapes(self):
        f = YUV420Frame.from_rgb(_smooth_rgb(16, 20))
        assert f.y.shape == (16, 20)
        assert f.u.shape == f.v.shape == (8, 10)
        assert f.to_rgb().shape == (16, 20, 3)

    def test_odd_size_rejected(self):
        with pytest.raises(ImageFormatError):
            rgb_to_yuv420(np.zeros((15, 16, 3), dtype=np.uint8))


# ----------------------------------------------------------------------
# pooled zero-allocation correct()
# ----------------------------------------------------------------------
class TestPooledCorrect:
    def test_steady_state_allocates_nothing(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(0)
        frames = list(_frames(rng, 4))
        corr.correct(frames[0])  # warm the scratch pool
        corr.correct(frames[1])
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for f in frames:
            corr.correct(f)  # copy=False: pooled planes only
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = sum(d.size_diff for d in after.compare_to(before, "filename")
                    if d.size_diff > 0)
        # no per-frame plane allocations: only trace bookkeeping noise
        assert grown < 16 * 1024

    def test_copy_false_aliases_pool(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(1)
        a, b = list(_frames(rng, 2))
        out_a = corr.correct(a)
        kept = out_a.y.copy()
        out_b = corr.correct(b)
        assert out_b.y is out_a.y  # same pooled buffer
        assert not np.array_equal(out_a.y, kept) or np.array_equal(a.y, b.y)

    def test_copy_true_owns_planes(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(2)
        a, b = list(_frames(rng, 2))
        out_a = corr.correct(a, copy=True)
        kept = out_a.y.copy()
        corr.correct(b)
        assert np.array_equal(out_a.y, kept)

    def test_planes_match_single_plane_oracle(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(3)
        (f,) = list(_frames(rng, 1))
        out = corr.correct(f, copy=True)
        assert np.array_equal(out.y, corr.luma_lut.apply(f.y))
        assert np.array_equal(out.u, corr.chroma_lut.apply(f.u))
        assert np.array_equal(out.v, corr.chroma_lut.apply(f.v))

    def test_work_pixels_is_1_5x_luma(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        h, w = corr.out_shape
        assert corr.work_pixels() == int(h * w * 1.5)

    def test_traffic_ledger_sums_planes(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        t = corr.traffic_per_frame()
        assert set(t["planes"]) == set(PLANE_NAMES)
        assert t["total_bytes"] == sum(
            p["total_bytes"] for p in t["planes"].values())
        assert t["pixels"] == corr.work_pixels()


# ----------------------------------------------------------------------
# LUT cache keying for the derived chroma map
# ----------------------------------------------------------------------
class TestChromaCacheKeys:
    def test_luma_and_chroma_keys_distinct(self, small_field):
        cache = LUTCache()
        cfield = chroma_half_field(small_field)
        k_luma = cache.key_for(small_field, "bilinear", 0.0)
        k_chroma = cache.key_for(cfield, "bilinear", 128.0)
        assert k_luma != k_chroma

    def test_two_correctors_share_both_entries(self, small_field):
        cache = LUTCache()
        a = YUVCorrector.from_field(small_field, lut_cache=cache)
        b = YUVCorrector.from_field(small_field, lut_cache=cache)
        assert cache.misses == 2      # one luma build + one chroma build
        assert cache.hits == 2        # the second corrector hit both
        assert a.luma_lut is b.luma_lut
        assert a.chroma_lut is b.chroma_lut

    def test_pixfmts_do_not_collide(self, small_field):
        # an RGB-path consumer and a planar consumer on one cache: the
        # chroma entry is keyed by the luma field plus its derivation, so the
        # packed LUT is reused and only the chroma build is added
        cache = LUTCache()
        packed, = plane_luts(get_pixfmt("rgb"), small_field, cache=cache)
        corr = YUVCorrector.from_field(small_field, lut_cache=cache)
        assert corr.luma_lut is packed
        assert corr.chroma_lut is not packed
        assert corr.chroma_lut.out_shape == tuple(
            s // 2 for s in packed.out_shape)

    def test_chroma_build_single_flight(self, small_field):
        from repro.obs.telemetry import Telemetry, scoped

        cache = LUTCache()
        got = []
        barrier = threading.Barrier(4)

        tel = Telemetry()

        def build():
            # scoped() is context-local: enter it per thread
            with scoped(tel):
                barrier.wait()
                got.append(plane_luts(get_pixfmt("yuv420"), small_field,
                                      cache=cache)[1])

        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 4
        # single flight: everyone gets the one chroma object, and the
        # luma and chroma tables are each built exactly once
        assert all(g is got[0] for g in got)
        assert got[0].fill == 128.0
        assert tel.snapshot()["counters"]["lutcache.builds"] == 2


# ----------------------------------------------------------------------
# planar shared-memory slots and table publication
# ----------------------------------------------------------------------
class TestPlanarSegments:
    @pytest.mark.parametrize("pixfmt", ["rgb", "yuv420", "nv12"])
    def test_slot_and_table_roundtrip(self, small_field, pixfmt):
        """Every format is one packed slot plus one publication of its
        distinct LUTs; the worker side sees the parent's planes and
        corrects them into views the parent reads."""
        from repro.parallel.shmseg import (FrameSegments, SharedTables,
                                           attach_slot, attach_tables)
        from repro.video.pixfmt import PIXFMTS
        from repro.video.yuv import NV12Frame

        fmt = PIXFMTS[pixfmt]
        rng = np.random.default_rng(5)
        (i420,) = list(_frames(rng, 1))
        item = {"rgb": rng.integers(0, 256, (64, 64, 3), dtype=np.uint8),
                "yuv420": i420,
                "nv12": NV12Frame.from_yuv420(i420)}[pixfmt]
        luts = plane_luts(fmt, small_field)
        planes = fmt.split(item)
        seg = FrameSegments([a.shape for a in planes], np.uint8,
                            fmt.out_shapes(luts, planes))
        tables = SharedTables(*luts)
        try:
            assert len(tables.spec) == len(fmt.luts)
            for view, plane in zip(seg.src_views, planes):
                np.copyto(view, plane)
            slot_segs, srcs, dsts = attach_slot(seg.spec)
            table_segs, attached = attach_tables(tables.spec, tables.meta)
            try:
                assert len(srcs) == len(dsts) == len(fmt.planes)
                for p, src, dst, plane in zip(fmt.planes, srcs, dsts, planes):
                    assert np.array_equal(src, plane)
                    attached[p.lut].apply_into(src, dst)
                for p, got, plane in zip(fmt.planes, seg.dst_views, planes):
                    assert np.array_equal(got, luts[p.lut].apply(plane))
            finally:
                del srcs, dsts, attached
                for shm in slot_segs + table_segs:
                    shm.close()
        finally:
            seg.release()
            tables.release()


# ----------------------------------------------------------------------
# per-plane band scheduling: ring engine
# ----------------------------------------------------------------------
class TestPlanarRing:
    def test_ring_matches_sync_bit_exact(self, small_field):
        rng = np.random.default_rng(7)
        frames = list(_frames(rng, 5))
        corr = YUVCorrector.from_field(small_field)
        want = [corr.correct(f, copy=True) for f in frames]
        got = list(corrected_stream(iter(frames), small_field,
                                    pixfmt="yuv420", engine="ring",
                                    workers=2, depth=2, copy=True))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert isinstance(g, YUV420Frame)
            assert np.array_equal(g.y, e.y)
            assert np.array_equal(g.u, e.u)
            assert np.array_equal(g.v, e.v)

    def test_ring_requires_chroma_lut_for_planar_frames(self, small_field):
        from repro.parallel.ring import ring_stream

        lut = RemapLUT(small_field)
        rng = np.random.default_rng(8)
        with pytest.raises(ScheduleError):
            list(ring_stream(lambda: (lut,), _frames(rng, 1), workers=1,
                             depth=1))


# ----------------------------------------------------------------------
# the pixfmt knob on every front end
# ----------------------------------------------------------------------
class TestPixfmtFrontEnds:
    def test_unknown_pixfmt_rejected(self, small_field):
        with pytest.raises(ImageFormatError):
            list(corrected_stream(iter(()), small_field, pixfmt="bogus"))

    def test_sync_stream_yields_planar_frames(self, small_field):
        rng = np.random.default_rng(9)
        frames = list(_frames(rng, 3))
        corr = YUVCorrector.from_field(small_field)
        want = [corr.correct(f, copy=True) for f in frames]
        got = list(corrected_stream(iter(frames), small_field,
                                    pixfmt="yuv420", copy=True))
        for g, e in zip(got, want):
            assert np.array_equal(g.y, e.y)
            assert np.array_equal(g.u, e.u)
            assert np.array_equal(g.v, e.v)

    def test_plane_counters_emitted(self, small_field):
        from repro.obs.export import labeled
        from repro.obs.telemetry import Telemetry, scoped

        rng = np.random.default_rng(10)
        frames = list(_frames(rng, 3))
        tel = Telemetry()
        with scoped(tel):
            list(corrected_stream(iter(frames), small_field,
                                  pixfmt="yuv420", copy=True))
        counters = tel.snapshot()["counters"]
        for plane in PLANE_NAMES:
            assert counters[labeled("stream.frames", plane=plane)] == 3

    def test_broker_session_in_order(self, small_field):
        from repro.serve.broker import StreamBroker

        rng = np.random.default_rng(11)
        frames = list(_frames(rng, 5))
        corr = YUVCorrector.from_field(small_field)
        want = [corr.correct(f, copy=True) for f in frames]
        with StreamBroker(workers=2, slot_budget=4) as broker:
            got = list(broker.open(iter(frames), small_field,
                                   name="yuv-test", pixfmt="yuv420",
                                   depth=2))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert isinstance(g, YUV420Frame)
            assert np.array_equal(g.y, e.y)
            assert np.array_equal(g.u, e.u)
            assert np.array_equal(g.v, e.v)

    def test_broker_rejects_non_planar_items(self, small_field):
        from repro.serve.broker import StreamBroker

        gray = [np.zeros((64, 64), dtype=np.uint8)]
        with StreamBroker(workers=1, slot_budget=4) as broker:
            with pytest.raises(ImageFormatError):
                broker.open(iter(gray), small_field, pixfmt="yuv420")

    def test_broker_rejects_unknown_pixfmt(self, small_field):
        from repro.serve.broker import StreamBroker

        with StreamBroker(workers=1, slot_budget=4) as broker:
            with pytest.raises(ImageFormatError):
                broker.open(iter(()), small_field, pixfmt="bogus")

    @pytest.mark.parametrize("engine", ["sync", "ring", "serve"])
    def test_format_errors_are_image_format_errors(self, small_field,
                                                   engine):
        """An unknown pixfmt and an out_size the format cannot deliver
        fail the same way on every front end."""
        from repro.serve.broker import StreamBroker

        rng = np.random.default_rng(12)
        for request in (dict(pixfmt="bogus"),
                        dict(pixfmt="yuv420", out_size=(33, 32)),
                        dict(pixfmt="nv12", out_size=(32, 31)),
                        dict(pixfmt="rgb", out_size=(1, 32))):
            frames = _frames(rng, 1)
            with pytest.raises(ImageFormatError):
                if engine == "serve":
                    with StreamBroker(workers=1, slot_budget=2) as broker:
                        broker.open(frames, small_field, **request)
                else:
                    list(corrected_stream(frames, small_field, engine=engine,
                                          **request))

    def test_to_yuv420_stream_adapts_gray(self):
        gray = [np.full((16, 16), k, dtype=np.uint8) for k in range(3)]
        out = list(to_yuv420_stream(gray))
        assert len(out) == 3
        for k, f in enumerate(out):
            assert np.array_equal(f.y, gray[k])
            assert f.u.shape == (8, 8)
        # chroma planes are shared across frames (no reallocation)
        assert out[0].u is out[1].u

    def test_cli_pixfmt_yuv420(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stream", "--pixfmt", "yuv420",
             "--frames", "3", "--width", "64", "--height", "64"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "pixfmt=yuv420" in proc.stdout
        assert "3 frames" in proc.stdout


# ----------------------------------------------------------------------
# planar DMA accounting against the Cell model
# ----------------------------------------------------------------------
class TestPlanarDMA:
    def test_planar_profile_sums_planes(self, small_field):
        from repro.accel.cellbe import CellModel
        from repro.accel.platform import Workload

        corr = YUVCorrector.from_field(small_field)
        wl_y = Workload.from_field(
            small_field, lut_entry_bytes=corr.luma_lut.entry_bytes())
        wl_c = Workload.from_field(
            corr.chroma_field, lut_entry_bytes=corr.chroma_lut.entry_bytes())
        prof = CellModel().planar_dma_profile(
            {"y": wl_y, "u": wl_c, "v": wl_c}, tile_rows=16)
        assert set(prof["planes"]) == set(PLANE_NAMES)
        assert prof["total_bytes"] == sum(
            p["total_bytes"] for p in prof["planes"].values())
        # chroma planes tile at half the luma band height
        assert prof["planes"]["y"]["tile_rows"] == 16
        assert prof["planes"]["u"]["tile_rows"] == 8

    def test_remap_traffic_ledger(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        t = lut.traffic_per_frame()
        n = lut.out_shape[0] * lut.out_shape[1]
        assert t["pixels"] == n
        assert t["gather_bytes"] == n * 4  # 4 taps, 1 channel, 1 B
        assert t["lut_bytes"] == n * lut.entry_bytes()
        assert t["total_bytes"] == (t["gather_bytes"] + t["lut_bytes"]
                                    + t["out_bytes"])
