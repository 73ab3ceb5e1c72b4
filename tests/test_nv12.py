"""NV12: the interleaved-chroma decoder format as a first-class pixfmt.

Covers the frame container (packed-row zero-copy views, I420
round-trips), the single strided 2-channel chroma apply and its
bit-equality with the per-plane I420 path, per-plane band delivery
through the ring engine and a broker session, and the fused
correct+downscale delivery path with its ``fused=`` / ``plane=``
telemetry labels.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.compose import compose_fields, downscale_field
from repro.core.mapping import chroma_half_field
from repro.core.remap import RemapLUT
from repro.errors import ImageFormatError
from repro.video.stream import corrected_stream
from repro.video.pixfmt import PIXFMTS
from repro.video.yuv import (NV12_PLANE_NAMES, NV12Frame, YUV420Frame,
                             YUVCorrector, to_nv12_stream)


def _frames(rng, n, h=64, w=64):
    for _ in range(n):
        yield NV12Frame(
            rng.integers(0, 256, (h, w), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2, 2), dtype=np.uint8))


# ----------------------------------------------------------------------
# the frame container
# ----------------------------------------------------------------------
class TestNV12Frame:
    def test_plane_shapes(self):
        assert NV12Frame.plane_shapes(16, 12) == ((16, 12), (8, 6, 2))
        assert PIXFMTS["nv12"].names == NV12_PLANE_NAMES == ("y", "uv")

    def test_odd_size_rejected(self):
        with pytest.raises(ImageFormatError):
            NV12Frame.plane_shapes(15, 16)
        with pytest.raises(ImageFormatError):
            NV12Frame(np.zeros((15, 16), dtype=np.uint8),
                      np.zeros((7, 8, 2), dtype=np.uint8))

    def test_mismatched_uv_rejected(self):
        with pytest.raises(ImageFormatError):
            NV12Frame(np.zeros((16, 16), dtype=np.uint8),
                      np.zeros((8, 8), dtype=np.uint8))

    def test_packed_roundtrip_zero_copy(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        packed = rng.integers(0, 256, (8, 16), dtype=np.uint8)
        f = NV12Frame.from_packed(y, packed)
        # the 2-channel view is the same memory as the decoder rows
        assert np.shares_memory(f.uv, packed)
        assert np.array_equal(f.packed_uv, packed)
        # interleaving order: U0 V0 U1 V1 ...
        assert f.uv[0, 0, 0] == packed[0, 0]
        assert f.uv[0, 0, 1] == packed[0, 1]

    def test_from_packed_rejects_odd_width(self):
        with pytest.raises(ImageFormatError):
            NV12Frame.from_packed(np.zeros((16, 16), dtype=np.uint8),
                                  np.zeros((8, 15), dtype=np.uint8))

    def test_yuv420_roundtrip(self):
        rng = np.random.default_rng(1)
        i420 = YUV420Frame(
            rng.integers(0, 256, (16, 16), dtype=np.uint8),
            rng.integers(0, 256, (8, 8), dtype=np.uint8),
            rng.integers(0, 256, (8, 8), dtype=np.uint8))
        back = NV12Frame.from_yuv420(i420).to_yuv420()
        assert np.array_equal(back.y, i420.y)
        assert np.array_equal(back.u, i420.u)
        assert np.array_equal(back.v, i420.v)


# ----------------------------------------------------------------------
# the single strided chroma apply
# ----------------------------------------------------------------------
class TestCorrectNV12:
    def test_bit_identical_to_i420_after_deinterleave(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(2)
        (f,) = list(_frames(rng, 1))
        got = corr.correct_nv12(f, copy=True).to_yuv420()
        want = corr.correct(f.to_yuv420(), copy=True)
        assert np.array_equal(got.y, want.y)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)

    def test_one_apply_covers_both_channels(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        rng = np.random.default_rng(3)
        (f,) = list(_frames(rng, 1))
        out = corr.chroma_lut.apply(f.uv)
        assert out.shape[-1] == 2
        assert np.array_equal(out[..., 0],
                              corr.chroma_lut.apply(f.uv[..., 0].copy()))
        assert np.array_equal(out[..., 1],
                              corr.chroma_lut.apply(f.uv[..., 1].copy()))

    def test_nv12_plane_luts_order(self, small_field):
        corr = YUVCorrector.from_field(small_field)
        luts = (corr.luma_lut, corr.chroma_lut)
        luma, chroma = (luts[i] for i in PIXFMTS["nv12"].plane_lut)
        assert luma is corr.luma_lut
        assert chroma is corr.chroma_lut

    def test_traffic_ledger_reads_chroma_table_once(self, small_field):
        """NV12 gathers what I420 gathers, but its one 2-channel chroma
        plane reads the chroma table once instead of twice."""
        corr = YUVCorrector.from_field(small_field)
        nv12 = PIXFMTS["nv12"].traffic_per_frame(
            (corr.luma_lut, corr.chroma_lut))
        i420 = corr.traffic_per_frame()
        assert set(nv12["planes"]) == set(NV12_PLANE_NAMES)
        assert nv12["gather_bytes"] == i420["gather_bytes"]
        assert nv12["out_bytes"] == i420["out_bytes"]
        chroma_lut_bytes = (i420["planes"]["u"]["lut_bytes"]
                            + i420["planes"]["v"]["lut_bytes"])
        assert nv12["planes"]["uv"]["lut_bytes"] * 2 == chroma_lut_bytes
        assert nv12["planes"]["y"] == i420["planes"]["y"]

    def test_to_nv12_stream_adapts_gray(self):
        gray = [np.full((16, 16), k, dtype=np.uint8) for k in range(3)]
        out = list(to_nv12_stream(gray))
        assert len(out) == 3
        for k, f in enumerate(out):
            assert np.array_equal(f.y, gray[k])
            assert f.uv.shape == (8, 8, 2)


# ----------------------------------------------------------------------
# per-plane band delivery: ring and broker
# ----------------------------------------------------------------------
class TestNV12Delivery:
    def test_ring_matches_sync_bit_exact(self, small_field):
        rng = np.random.default_rng(4)
        frames = list(_frames(rng, 5))
        corr = YUVCorrector.from_field(small_field)
        want = [corr.correct_nv12(f, copy=True) for f in frames]
        got = list(corrected_stream(iter(frames), small_field,
                                    pixfmt="nv12", engine="ring",
                                    workers=2, depth=2, copy=True))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert isinstance(g, NV12Frame)
            assert np.array_equal(g.y, e.y)
            assert np.array_equal(g.uv, e.uv)

    def test_broker_session_in_order(self, small_field):
        from repro.serve.broker import StreamBroker

        rng = np.random.default_rng(5)
        frames = list(_frames(rng, 5))
        corr = YUVCorrector.from_field(small_field)
        want = [corr.correct_nv12(f, copy=True) for f in frames]
        with StreamBroker(workers=2, slot_budget=4) as broker:
            got = list(broker.open(iter(frames), small_field,
                                   name="nv12-test", pixfmt="nv12",
                                   depth=2))
        assert len(got) == len(want)
        for g, e in zip(got, want):
            assert isinstance(g, NV12Frame)
            assert np.array_equal(g.y, e.y)
            assert np.array_equal(g.uv, e.uv)

    def test_plane_counters_use_uv_label(self, small_field):
        from repro.obs.export import labeled
        from repro.obs.telemetry import Telemetry, scoped

        rng = np.random.default_rng(6)
        frames = list(_frames(rng, 3))
        tel = Telemetry()
        with scoped(tel):
            list(corrected_stream(iter(frames), small_field,
                                  pixfmt="nv12", copy=True))
        counters = tel.snapshot()["counters"]
        for plane in NV12_PLANE_NAMES:
            assert counters[labeled("stream.frames", plane=plane)] == 3
        assert labeled("stream.frames", plane="u") not in counters


# ----------------------------------------------------------------------
# fused correct+downscale delivery
# ----------------------------------------------------------------------
class TestFusedDelivery:
    @staticmethod
    def _oracle_luts(field, ow, oh):
        fh, fw = field.shape
        outer = downscale_field(ow, oh, fw, fh, prefilter=False)
        luma = RemapLUT(compose_fields(outer, field))
        outer_c = downscale_field(ow // 2, oh // 2, fw // 2, fh // 2,
                                  prefilter=False)
        chroma = RemapLUT(compose_fields(outer_c, chroma_half_field(field)),
                          fill=128.0)
        return luma, chroma

    def test_sync_fused_matches_composed_oracle(self, small_field):
        rng = np.random.default_rng(7)
        frames = list(_frames(rng, 3))
        luma, chroma = self._oracle_luts(small_field, 32, 32)
        got = list(corrected_stream(iter(frames), small_field,
                                    pixfmt="nv12", out_size=(32, 32),
                                    copy=True))
        for g, f in zip(got, frames):
            assert g.y.shape == (32, 32)
            assert np.array_equal(g.y, luma.apply(f.y))
            assert np.array_equal(g.uv, chroma.apply(f.uv))

    def test_ring_fused_matches_sync(self, small_field):
        rng = np.random.default_rng(8)
        frames = list(_frames(rng, 4))
        sync = list(corrected_stream(iter(frames), small_field,
                                     pixfmt="nv12", out_size=(32, 32),
                                     copy=True))
        ring = list(corrected_stream(iter(frames), small_field,
                                     pixfmt="nv12", out_size=(32, 32),
                                     engine="ring", workers=2, depth=2,
                                     copy=True))
        for a, b in zip(sync, ring):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.uv, b.uv)

    def test_fused_label_emitted(self, small_field):
        from repro.obs.export import labeled
        from repro.obs.telemetry import Telemetry, scoped

        rng = np.random.default_rng(9)
        frames = list(_frames(rng, 3))
        tel = Telemetry()
        with scoped(tel):
            list(corrected_stream(iter(frames), small_field,
                                  pixfmt="nv12", out_size=(32, 32),
                                  copy=True))
        counters = tel.snapshot()["counters"]
        assert counters[labeled("stream.frames", fused="true")] == 3

    def test_broker_fused_session(self, small_field):
        from repro.serve.broker import StreamBroker

        rng = np.random.default_rng(10)
        frames = list(_frames(rng, 4))
        luma, chroma = self._oracle_luts(small_field, 32, 32)
        with StreamBroker(workers=2, slot_budget=4) as broker:
            got = list(broker.open(iter(frames), small_field,
                                   name="nv12-fused", pixfmt="nv12",
                                   out_size=(32, 32), depth=2))
        assert len(got) == len(frames)
        for g, f in zip(got, frames):
            assert np.array_equal(g.y, luma.apply(f.y))
            assert np.array_equal(g.uv, chroma.apply(f.uv))

    def test_odd_out_size_rejected(self, small_field):
        with pytest.raises(ImageFormatError):
            list(corrected_stream(iter(()), small_field, pixfmt="nv12",
                                  out_size=(33, 32)))

    def test_cli_pixfmt_nv12_fused(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stream", "--pixfmt", "nv12",
             "--out-size", "32x32", "--frames", "3", "--width", "64",
             "--height", "64"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "pixfmt=nv12" in proc.stdout
        assert "out=32x32" in proc.stdout
        assert "fused" in proc.stdout


# ----------------------------------------------------------------------
# reopening one field: derived fields come from the cache key alone
# ----------------------------------------------------------------------
@pytest.mark.tier1
class TestReopenCost:
    @pytest.mark.parametrize("out_size", [None, (32, 32)],
                             ids=["plain", "fused"])
    def test_second_open_derives_and_hashes_nothing(self, small_field,
                                                    monkeypatch, out_size):
        """The chroma twin and the downscale maps are keyed by the luma
        fingerprint plus their derivation: a cache hit builds neither
        and hashes nothing, and a miss builds the chroma twin once."""
        from repro.core import lutcache
        from repro.video import pixfmt

        digests, twins = [], []
        digest, half = lutcache._field_digest, pixfmt.chroma_half_field
        monkeypatch.setattr(lutcache, "_field_digest",
                            lambda f: digests.append(f) or digest(f))
        monkeypatch.setattr(pixfmt, "chroma_half_field",
                            lambda f: twins.append(f) or half(f))
        cache = lutcache.LUTCache()
        fmt = PIXFMTS["nv12"]
        first = pixfmt.plane_luts(fmt, small_field, out_size, cache)
        assert len(twins) == 1
        assert all(f is small_field for f in digests)
        digests.clear()
        twins.clear()
        second = pixfmt.plane_luts(fmt, small_field, out_size, cache)
        assert digests == [] and twins == []
        assert cache.misses == 2 and cache.hits == 2
        for a, b in zip(first, second):
            assert a.base is b.base

    @pytest.mark.parametrize("out_size", [None, (32, 32)],
                             ids=["plain", "fused"])
    def test_cached_tables_match_a_direct_build(self, small_field, out_size):
        from repro.core.lutcache import LUTCache
        from repro.video.pixfmt import plane_luts

        fmt = PIXFMTS["nv12"]
        got = plane_luts(fmt, small_field, out_size, LUTCache())
        if out_size is None:
            want = (RemapLUT(small_field),
                    RemapLUT(chroma_half_field(small_field), fill=128.0))
        else:
            want = TestFusedDelivery._oracle_luts(small_field, *out_size)
        for g, w in zip(got, want):
            assert g.out_shape == w.out_shape
            assert np.array_equal(g.tap_offsets(), w.tap_offsets())
            assert np.array_equal(g.fracs, w.fracs)
            assert np.array_equal(g.mask, w.mask)
