"""Tests: end-to-end pipeline model and the software-pipelined stream
engine (``corrected_stream(engine="pipelined")``)."""

import numpy as np
import pytest

from repro.accel.hetero import PipelineModel, Stage, gpu_application_pipeline
from repro.accel.platform import Workload
from repro.accel.presets import gtx280
from repro.core.pipeline import FisheyeCorrector
from repro.video.stream import MAX_STREAM_DEPTH, corrected_stream
from repro.errors import PlatformError, ScheduleError
from repro.obs.telemetry import Telemetry, scoped


class TestPipelineModel:
    def _pipe(self):
        return PipelineModel([
            Stage("decode", 4_000_000, "host"),
            Stage("h2d", 2_000_000, "pcie"),
            Stage("kernel", 1_000_000, "device"),
            Stage("d2h", 2_000_000, "pcie"),
            Stage("encode", 3_000_000, "host"),
        ])

    def test_bottleneck_is_busiest_resource(self):
        pipe = self._pipe()
        # host: 7 ms, pcie: 4 ms, device: 1 ms
        assert pipe.bottleneck == "host"
        assert pipe.interval_ns == 7_000_000
        assert pipe.fps == pytest.approx(1e9 / 7e6)

    def test_latency_is_stage_sum(self):
        assert self._pipe().latency_ns == 12_000_000

    def test_frames_in_flight(self):
        assert self._pipe().frames_in_flight == 2  # ceil(12/7)

    def test_utilization_bottleneck_is_one(self):
        util = self._pipe().utilization()
        assert util["host"] == pytest.approx(1.0)
        assert util["device"] < 0.2

    def test_shared_resource_serializes(self):
        shared = PipelineModel([Stage("a", 5, "bus"), Stage("b", 5, "bus")])
        split = PipelineModel([Stage("a", 5, "up"), Stage("b", 5, "down")])
        assert shared.interval_ns == 10
        assert split.interval_ns == 5

    def test_describe_mentions_bottleneck(self):
        assert "bottleneck host" in self._pipe().describe()

    def test_validation(self):
        with pytest.raises(PlatformError):
            PipelineModel([])
        with pytest.raises(PlatformError):
            PipelineModel([Stage("a", 1, "x"), Stage("a", 1, "y")])
        with pytest.raises(PlatformError):
            Stage("a", -1, "x")
        with pytest.raises(PlatformError):
            Stage("a", 1, "")


class TestGPUApplication:
    @pytest.fixture()
    def workload(self, small_field):
        return Workload.from_field(small_field, mode="lut")

    def test_kernel_speedup_is_not_app_speedup(self, workload):
        """The headline hetero result: a fast kernel hides behind the
        host codec stages."""
        gpu = gtx280()
        kernel_only = gpu.estimate_frame(workload, overlap_transfers=True)
        app = gpu_application_pipeline(gpu, workload,
                                       decode_ns=3_000_000, encode_ns=4_000_000)
        assert app.fps < kernel_only.fps
        assert app.bottleneck == "host"

    def test_full_duplex_helps_transfer_bound_pipes(self, workload):
        gpu = gtx280()
        half = gpu_application_pipeline(gpu, workload, decode_ns=0, encode_ns=0,
                                        full_duplex_pcie=False)
        full = gpu_application_pipeline(gpu, workload, decode_ns=0, encode_ns=0,
                                        full_duplex_pcie=True)
        assert full.fps >= half.fps

    def test_validation(self, workload):
        with pytest.raises(PlatformError):
            gpu_application_pipeline(gtx280(), workload, decode_ns=-1, encode_ns=0)


def _pipelined(frames, field, depth):
    return corrected_stream(frames, field, engine="pipelined", depth=depth)


class TestPipelinedStream:
    def test_matches_sequential_results(self, small_field, rng):
        corrector = FisheyeCorrector(small_field)
        for shape in [(64, 64), (64, 64, 3)]:  # gray, packed RGB
            frames = [rng.integers(0, 255, shape, dtype=np.uint8)
                      for _ in range(6)]
            expected = [corrector.correct(f) for f in frames]
            for depth in (1, 2, 4):
                got = list(_pipelined(frames, small_field, depth=depth))
                assert len(got) == 6
                for e, g in zip(expected, got):
                    np.testing.assert_array_equal(e, g, err_msg=f"depth {depth}")

    def test_order_preserved_with_generator_source(self, small_field, rng):
        def source():
            for i in range(5):
                frame = np.full((64, 64), i * 40, dtype=np.uint8)
                yield frame

        outs = list(_pipelined(source(), small_field, depth=2))
        # constant frames correct to (nearly) constant frames: order is
        # recoverable from the values
        levels = [int(np.median(o)) for o in outs]
        assert levels == sorted(levels)

    def test_frame_objects_pass_through(self, small_field, random_image):
        from repro.core.image import GRAY8, Frame

        frames = [Frame(random_image, GRAY8, index=i) for i in range(3)]
        outs = list(_pipelined(frames, small_field, depth=2))
        assert [f.index for f in outs] == [0, 1, 2]

    def test_buffers_are_independent(self, small_field, rng):
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8)
                  for _ in range(4)]
        outs = list(_pipelined(frames, small_field, depth=2))
        assert len({id(o) for o in outs}) == 4  # no buffer reuse

    def test_depth_one_works(self, small_field, random_image):
        outs = list(_pipelined([random_image], small_field, depth=1))
        assert len(outs) == 1

    def test_empty_stream(self, small_field):
        assert list(_pipelined([], small_field, depth=2)) == []

    def test_validation(self, small_field):
        with pytest.raises(ScheduleError):
            list(_pipelined([], small_field, depth=0))

    def test_depth_capped(self, small_field):
        with pytest.raises(ScheduleError, match="MAX_STREAM_DEPTH"):
            list(_pipelined([], small_field, depth=MAX_STREAM_DEPTH + 1))
        # the cap itself is fine
        assert list(_pipelined([], small_field, depth=MAX_STREAM_DEPTH)) == []

    def test_telemetry_matches_corrected_stream_surface(self, small_field, rng):
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8)
                  for _ in range(4)]
        tel = Telemetry()
        with scoped(tel):
            list(_pipelined(frames, small_field, depth=2))
        snap = tel.snapshot()
        assert snap["counters"]["stream.frames"] == 4
        assert snap["histograms"]["stream.frame_seconds"]["count"] == 4
        assert snap["gauges"]["stream.fps"] > 0

    def test_corrector_engine_pipelined(self, small_field, rng):
        from repro.core.pipeline import StreamStats

        corrector = FisheyeCorrector(small_field)
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8)
                  for _ in range(5)]
        expected = [corrector.correct(f) for f in frames]
        stats = StreamStats()
        tel = Telemetry()
        with scoped(tel):
            got = list(corrector.correct_stream(frames, stats=stats,
                                                engine="pipelined", depth=2))
        assert stats.frames == 5
        assert tel.snapshot()["counters"]["stream.frames"] == 5
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_worker_exception_propagates(self, small_field):
        frames = [np.zeros((10, 10), dtype=np.uint8)]  # wrong geometry
        with pytest.raises(Exception):
            list(_pipelined(frames, small_field, depth=2))
