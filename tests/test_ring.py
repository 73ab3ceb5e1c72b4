"""Tests: the shared-memory frame ring — one stream on a one-session
:class:`~repro.serve.broker.StreamBroker`."""

import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.pipeline import FisheyeCorrector, StreamStats
from repro.core.remap import RemapLUT
from repro.errors import ScheduleError, StreamError
from repro.core.image import GRAY8, Frame
from repro.obs.telemetry import Telemetry, scoped
from repro.parallel.ring import (
    MAX_RING_DEPTH,
    RING_SCHEDULES,
    plan_bands,
    ring_stream,
)
from repro.serve import StreamBroker
from repro.video.stream import corrected_stream
from repro.video.yuv import NV12Frame, YUV420Frame

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def lut(small_field):
    return RemapLUT(small_field, method="bilinear")


def _frames(rng, n, shape=(64, 64)):
    return [rng.integers(0, 255, shape, dtype=np.uint8) for _ in range(n)]


def _segment_names(broker):
    """Every slot and table segment the broker currently owns."""
    names = [shm.name for s in broker._sessions.values()
             for group in s._slots for shm in group._shms]
    return names + [shm.name for tables, _ in broker._tables.values()
                    for shm in tables._shms]


def _assert_unlinked(names):
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestPlanBands:
    def test_static_one_band_per_worker(self):
        bands = plan_bands(64, 4, "static")
        assert len(bands) == 4
        assert bands[0] == (0, 16)
        assert bands[-1] == (48, 64)

    def test_dynamic_fixed_chunks_cover_height(self):
        bands = plan_bands(64, 2, "dynamic", chunk=5)
        assert bands[0] == (0, 5)
        assert bands[-1][1] == 64
        rows = sum(r1 - r0 for r0, r1 in bands)
        assert rows == 64

    def test_guided_bands_shrink(self):
        bands = plan_bands(256, 2, "guided", chunk=4)
        sizes = [r1 - r0 for r0, r1 in bands]
        assert sizes == sorted(sizes, reverse=True)
        assert all(s >= 4 for s in sizes[:-1])  # tail clamps to what's left
        assert sum(sizes) == 256

    def test_guided_matches_schedule_formula(self):
        # same shrink rule schedule.simulate replays
        import math
        bands = plan_bands(100, 2, "guided", chunk=1)
        remaining = 100
        for r0, r1 in bands:
            expect = min(max(1, math.ceil(remaining / 4)), remaining)
            assert r1 - r0 == expect
            remaining -= r1 - r0

    def test_validation(self):
        with pytest.raises(ScheduleError):
            plan_bands(0, 2)
        with pytest.raises(ScheduleError):
            plan_bands(64, 0)
        with pytest.raises(ScheduleError):
            plan_bands(64, 2, "cyclic")
        with pytest.raises(ScheduleError):
            plan_bands(64, 2, "dynamic", chunk=0)

    def test_all_schedules_cover_all_rows(self):
        for sched in RING_SCHEDULES:
            bands = plan_bands(97, 3, sched)
            covered = np.zeros(97, dtype=bool)
            for r0, r1 in bands:
                assert not covered[r0:r1].any()  # no overlap
                covered[r0:r1] = True
            assert covered.all()


class TestRingEngine:
    """The ring is a one-session broker: ``ring_stream`` for the stream
    itself, :class:`StreamBroker` where a test needs the session."""

    def test_matches_sequential_kernel(self, lut, rng):
        frames = _frames(rng, 8)
        expected = [lut.apply(f) for f in frames]
        got = [f.copy() for f in ring_stream(lambda: (lut,), frames,
                                             workers=2, depth=3)]
        assert len(got) == 8
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_in_order_despite_out_of_order_bands(self, lut, rng):
        """Tiny dynamic chunks scatter each frame's bands across both
        workers, so completion order is effectively arbitrary — the
        consumer must still see strictly increasing sequence numbers."""
        frames = [np.full((64, 64), 10 * k, dtype=np.uint8) for k in range(10)]
        expected = [lut.apply(f) for f in frames]
        got = [f.copy() for f in ring_stream(lambda: (lut,), frames,
                                             workers=2, depth=4,
                                             schedule="dynamic", chunk=3)]
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_copy_true_yields_owned_buffers(self, lut, rng):
        frames = _frames(rng, 4)
        got = list(ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                               depth=2))
        assert len({id(g) for g in got}) == 4
        # all still valid after the broker is closed
        for g, f in zip(got, frames):
            np.testing.assert_array_equal(g, lut.apply(f))

    def test_frame_objects_pass_through(self, lut, random_image):
        frames = [Frame(random_image, GRAY8, index=i, timestamp=i / 30.0)
                  for i in range(3)]
        outs = list(ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                                depth=2))
        assert [f.index for f in outs] == [0, 1, 2]
        assert all(isinstance(f, Frame) for f in outs)

    def test_engine_reuse_across_streams(self, small_field, lut, rng):
        frames = _frames(rng, 3)
        expected = [lut.apply(f) for f in frames]
        with StreamBroker(workers=1, slot_budget=2) as broker:
            first = [f.copy() for f in broker.open(frames, small_field,
                                                   copy=False)]
            second = [f.copy() for f in broker.open(frames, small_field,
                                                    copy=False)]
        for e, a, b in zip(expected, first, second):
            np.testing.assert_array_equal(e, a)
            np.testing.assert_array_equal(e, b)

    def test_backpressure_bounds_in_flight(self, small_field, lut, rng):
        """A slow consumer must not let the feeder run ahead of the
        ring: in-flight frames stay <= depth even for a long stream."""
        frames = _frames(rng, 12)
        with StreamBroker(workers=2, slot_budget=2, schedule="dynamic",
                          chunk=8) as broker:
            session = broker.open(frames, small_field, depth=2, copy=False)
            n = 0
            for _ in session:
                time.sleep(0.01)  # consumer slower than the workers
                n += 1
        assert n == 12
        assert 1 <= session.max_in_flight <= 2
        # the same bound seen from the source through ring_stream: the
        # feeder holds at most one pulled frame beyond the depth slots
        pulled = []

        def source():
            for f in frames:
                pulled.append(f)
                yield f

        ahead = []
        for k, _ in enumerate(ring_stream(lambda: (lut,), source(), workers=2,
                                          depth=2)):
            time.sleep(0.01)
            ahead.append(len(pulled) - k)
        assert len(ahead) == 12
        assert max(ahead) <= 2 + 1

    def test_generator_source_and_empty_stream(self, lut, rng, brokers):
        assert list(ring_stream(lambda: (lut,), iter([]), workers=1,
                                depth=2)) == []
        assert brokers == []  # an empty source starts no fleet
        frames = _frames(rng, 2)
        got = list(ring_stream(lambda: (lut,), (f for f in frames), copy=True,
                               workers=1, depth=2))
        assert len(got) == 2

    def test_worker_crash_raises_and_releases_segments(self, lut, brokers):
        """SIGKILL a worker mid-stream: the consumer gets a StreamError
        and every shared segment of the ring is unlinked."""
        names = []

        def source():
            k = 0
            while True:  # endless: only the crash can end this stream
                if k == 2:
                    names.extend(_segment_names(brokers[0]))
                    brokers[0]._procs[0].kill()
                yield np.full((64, 64), k % 251, dtype=np.uint8)
                k += 1

        with pytest.raises(StreamError, match="died with exit code") as err:
            for _ in ring_stream(lambda: (lut,), source(), workers=2, depth=2):
                pass
        assert err.value.flight_dump
        _assert_unlinked(names)

    def test_geometry_mismatch_raises(self, lut, random_image):
        with pytest.raises(ScheduleError, match="geometry"):
            list(ring_stream(lambda: (lut,),
                             [np.zeros((10, 10), dtype=np.uint8)],
                             workers=1, depth=2))
        # a later frame is checked by the feeder against the first
        with pytest.raises(ScheduleError, match="geometry"):
            list(ring_stream(lambda: (lut,), [random_image,
                                              np.zeros((64, 32),
                                                       dtype=np.uint8)],
                             workers=1, depth=2))

    def test_validation(self, lut, rng):
        for kwargs in ({"workers": 0}, {"depth": 0},
                       {"depth": MAX_RING_DEPTH + 1},
                       {"schedule": "cyclic"}, {"stall_timeout_s": -1}):
            with pytest.raises(ScheduleError):
                list(ring_stream(lambda: (lut,), _frames(rng, 1), **kwargs))
        with pytest.raises(ScheduleError):  # does not match LUT source
            list(ring_stream(lambda: (lut,), _frames(rng, 1, shape=(32, 32))))

    def test_closed_engine_rejects_streams(self, small_field, rng):
        broker = StreamBroker(workers=1, slot_budget=2)
        broker.close()
        broker.close()  # idempotent
        with pytest.raises(ScheduleError, match="closed"):
            broker.open(_frames(rng, 1), small_field)

    def test_abandoned_stream_closes_engine(self, lut, rng, brokers):
        stream = ring_stream(lambda: (lut,), _frames(rng, 6), workers=1,
                             depth=2)
        next(stream)
        stream.close()  # consumer walks away mid-stream
        assert brokers[0]._closed
        assert not any(p.is_alive() for p in brokers[0]._procs)

    @pytest.mark.parametrize("schedule", RING_SCHEDULES)
    def test_every_schedule_is_exact(self, lut, rng, schedule):
        frames = _frames(rng, 4)
        expected = [lut.apply(f) for f in frames]
        got = [f.copy() for f in ring_stream(lambda: (lut,), frames,
                                             workers=2, depth=2,
                                             schedule=schedule)]
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_rgb_frames(self, small_field, rng):
        lut = RemapLUT(small_field, method="bilinear")
        frames = [rng.integers(0, 255, (64, 64, 3), dtype=np.uint8)
                  for _ in range(3)]
        expected = [lut.apply(f) for f in frames]
        got = [f.copy() for f in ring_stream(lambda: (lut,), frames,
                                             workers=2, depth=2)]
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_spawn_context(self, lut, rng):
        frames = _frames(rng, 3)
        expected = [lut.apply(f) for f in frames]
        got = [f.copy() for f in ring_stream(lambda: (lut,), frames,
                                             workers=1, depth=2,
                                             context="spawn")]
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_telemetry_counters_and_tracks(self, lut, rng):
        frames = _frames(rng, 4)
        bands = len(plan_bands(64, 1, "dynamic", 16))
        tel = Telemetry()
        with scoped(tel):
            list(ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                             depth=2,
                             schedule="dynamic", chunk=16, name="cam"))
        snap = tel.snapshot()
        assert snap["counters"]["stream.frames"] == 4
        assert snap["counters"]['stream.frames{stream="cam"}'] == 4
        assert snap["counters"]["serve.bands"] == 4 * bands
        assert snap["counters"]["serve.worker.0.busy_seconds"] > 0
        assert snap["gauges"]["serve.slot_budget"] == 2.0
        assert snap["histograms"]["serve.band_seconds"]["count"] == 4 * bands
        assert snap["histograms"]["frame.e2e_latency_seconds"]["count"] == 4
        tracks = {s["tid"] for s in tel.spans}
        assert {"serve-feed-cam", "serve-deliver-cam", "serve-worker-0",
                "serve-frames-cam"} <= tracks
        # lineage: every broker span names the frame and stream it
        # belongs to
        for s in tel.spans:
            if s["name"].startswith(("serve.", "frame.")):
                assert "frame_id" in s["args"]
                assert s["args"]["stream"] == "cam"


class TestRingStream:
    def test_one_shot_helper(self, lut, rng):
        frames = _frames(rng, 5)
        expected = [lut.apply(f) for f in frames]
        got = list(ring_stream(lambda: (lut,), (f for f in frames), copy=True,
                               workers=2, depth=2))
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_empty_source(self, lut):
        assert list(ring_stream(lambda: (lut,), [])) == []

    def test_corrector_engine_param(self, small_field, rng):
        corrector = FisheyeCorrector(small_field)
        frames = _frames(rng, 4)
        expected = [corrector.correct(f) for f in frames]
        stats = StreamStats()
        got = list(corrector.correct_stream(frames, stats=stats, engine="ring",
                                            workers=1, depth=2, copy=True))
        assert stats.frames == 4
        assert stats.fps > 0
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_corrector_rejects_unknown_engine(self, small_field, rng):
        corrector = FisheyeCorrector(small_field)
        with pytest.raises(ScheduleError, match="unknown stream engine"):
            list(corrector.correct_stream(_frames(rng, 1), engine="warp9"))
        with pytest.raises(ScheduleError, match="takes no options"):
            list(corrector.correct_stream(_frames(rng, 1), depth=2))

    def test_corrected_stream_ring_engine(self, small_field, rng):
        from repro.video.stream import corrected_stream

        lut = RemapLUT(small_field, method="bilinear")
        frames = _frames(rng, 4)
        expected = [lut.apply(f) for f in frames]
        tel = Telemetry()
        with scoped(tel):
            got = list(corrected_stream(frames, small_field, copy=True,
                                        engine="ring", workers=1, depth=2))
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)
        snap = tel.snapshot()
        assert snap["counters"]["stream.frames"] == 4
        assert snap["gauges"]["stream.fps"] > 0


# ----------------------------------------------------------------------
# every front end, one oracle
# ----------------------------------------------------------------------
def _pixfmt_frames(pixfmt, rng, n=3):
    if pixfmt == "rgb":
        return [rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
                for _ in range(n)]
    if pixfmt == "nv12":
        return [NV12Frame(rng.integers(0, 256, (64, 64), dtype=np.uint8),
                          rng.integers(0, 256, (32, 32, 2), dtype=np.uint8))
                for _ in range(n)]
    return [YUV420Frame(rng.integers(0, 256, (64, 64), dtype=np.uint8),
                        rng.integers(0, 256, (32, 32), dtype=np.uint8),
                        rng.integers(0, 256, (32, 32), dtype=np.uint8))
            for _ in range(n)]


def _planes(frame):
    return frame.planes if hasattr(frame, "planes") else (frame,)


# every format on both kernel tiers; the default (numpy) tier keeps the
# bare format id
_FORMAT_TIERS = [pytest.param(pixfmt, kernel, id=pixfmt if kernel == "numpy"
                              else f"{pixfmt}-{kernel}")
                 for kernel in ("numpy", "fixed")
                 for pixfmt in ("rgb", "yuv420", "nv12")]


class TestEngineParity:
    @pytest.mark.parametrize("out_size", [None, (32, 32), (16, 16)],
                             ids=["full", "half", "quarter"])
    @pytest.mark.parametrize("pixfmt,kernel", _FORMAT_TIERS)
    def test_sync_ring_broker_bit_exact(self, small_field, rng, pixfmt,
                                        kernel, out_size):
        """sync, pipelined, ring, a broker session and (packed frames)
        every engine of the corrector's stream deliver identical frames
        on each kernel tier, the ring's bands run on that tier, and the
        ring counts each of its frames exactly once."""
        frames = _pixfmt_frames(pixfmt, rng)
        common = dict(pixfmt=pixfmt, out_size=out_size, kernel=kernel)
        sync = list(corrected_stream(iter(frames), small_field, copy=True,
                                     **common))
        others = [list(corrected_stream(iter(frames), small_field,
                                        engine="pipelined", depth=2,
                                        **common))]
        tel = Telemetry()
        with scoped(tel):
            ring = list(corrected_stream(iter(frames), small_field,
                                         copy=True, engine="ring",
                                         workers=2, depth=2,
                                         stream_label="cam", **common))
        others.append(ring)
        with StreamBroker(workers=2) as broker:
            others.append(list(broker.open(iter(frames), small_field,
                                           **common)))
        if pixfmt == "rgb":
            engines = {"sync": {}, "pipelined": dict(depth=2),
                       "ring": dict(workers=2, depth=2, copy=True)}
            for engine, options in engines.items():
                corrector = FisheyeCorrector(small_field, kernel=kernel,
                                             out_size=out_size)
                others.append([np.copy(f) for f in corrector.correct_stream(
                    iter(frames), engine=engine, **options)])
        for got in others:
            assert len(got) == len(sync) == len(frames)
            for s, g in zip(sync, got):
                assert _planes(s)[0].shape[:2] == (out_size or (64, 64))
                for ps, pg in zip(_planes(s), _planes(g)):
                    np.testing.assert_array_equal(ps, pg)
        counters = tel.snapshot()["counters"]
        assert counters[f"kernel.tier.{kernel}"] > 0
        assert counters["stream.frames"] == len(frames)
        assert counters['stream.frames{stream="cam"}'] == len(frames)
