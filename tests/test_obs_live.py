"""Tests: the live observability plane.

MetricsServer endpoints, the flight recorder, frame lineage through
the stream broker (one-session ring and multi-session), the per-frame
deadline SLO, the stall watchdog and the worker-crash dump.
"""

import json
import os
import signal
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.errors import ScheduleError, StreamError, TelemetryError
from repro.obs.export import parse_prometheus_text, slo_summary
from repro.obs.flightrec import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from repro.obs.live import MetricsServer, health_summary
from repro.obs.telemetry import Telemetry, scoped
from repro.parallel.ring import ring_stream
from repro.serve import StreamBroker

pytestmark = pytest.mark.tier1


@pytest.fixture(scope="module")
def lut(small_field):
    return RemapLUT(small_field, method="bilinear")


def _frames(rng, n, shape=(64, 64)):
    return [rng.integers(0, 255, shape, dtype=np.uint8) for _ in range(n)]


def _endless():
    k = 0
    while True:  # only a crash or a close ends this stream
        yield np.full((64, 64), k % 251, dtype=np.uint8)
        k += 1


def _segment_names(broker):
    """Every slot and table segment the broker currently owns."""
    names = [shm.name for s in broker._sessions.values()
             for group in s._slots for shm in group._shms]
    return names + [shm.name for tables, _ in broker._tables.values()
                    for shm in tables._shms]


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_bounded_ring_keeps_last_n(self):
        rec = FlightRecorder(capacity=3)
        for k in range(10):
            rec.record("tick", k=k)
        events = rec.events()
        assert len(events) == 3
        assert [e["k"] for e in events] == [7, 8, 9]
        assert rec.recorded == 10
        assert rec.dropped == 7

    def test_record_span_and_clear(self):
        rec = FlightRecorder(capacity=8)
        rec.record_span({"name": "serve.band", "ts": 1.0, "dur": 0.5,
                         "args": {"frame_id": 0}})
        assert rec.events()[0]["kind"] == "span"
        assert rec.events()[0]["name"] == "serve.band"
        rec.clear()
        assert rec.events() == []

    def test_dump_writes_timestamped_json(self, tmp_path):
        rec = FlightRecorder(capacity=4, directory=tmp_path)
        rec.record("decode", frame_id=0, slot=1)
        path = rec.dump("worker-crash", error="boom")
        assert os.path.exists(path)
        assert os.path.basename(path).startswith("repro-flightrec-")
        payload = json.loads(open(path).read())
        assert payload["reason"] == "worker-crash"
        assert payload["error"] == "boom"
        assert payload["pid"] == os.getpid()
        assert payload["events"][-1]["kind"] == "decode"
        assert payload["capacity"] == 4

    def test_default_capacity_and_validation(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY
        with pytest.raises(TelemetryError):
            FlightRecorder(capacity=0)

    def test_dump_to_unwritable_dir_never_raises(self):
        rec = FlightRecorder(capacity=2, directory="/nonexistent/nowhere")
        rec.record("tick")
        assert rec.dump("stall") == ""


# ----------------------------------------------------------------------
# health summary + metrics server
# ----------------------------------------------------------------------
class TestHealthSummary:
    def test_ok_and_stalled(self):
        snap = {"counters": {"stream.frames": 7, "stream.deadline_miss": 2},
                "gauges": {"serve.workers": 2.0, "serve.slot_budget": 4.0,
                           "serve.slots_used": 2.0,
                           "serve.active_streams": 1.0},
                "meta": {"pid": 42}}
        body = health_summary(snap, uptime_s=1.5)
        assert body["status"] == "ok"
        assert body["pid"] == 42
        assert body["frames"] == 7
        assert body["deadline_misses"] == 2
        assert body["serve"] == {"workers": 2.0, "slot_budget": 4.0,
                                 "slots_used": 2.0, "active_streams": 1.0}
        assert body["uptime_s"] == 1.5
        snap["counters"]["stream.stalls"] = 1
        assert health_summary(snap)["status"] == "stalled"

    def test_frames_default_to_zero(self):
        body = health_summary({"counters": {}})
        assert body["frames"] == 0
        assert body["serve"]["slots_used"] is None


class TestMetricsServer:
    def test_endpoints_serve_pinned_registry(self):
        tel = Telemetry()
        tel.counter("stream.frames").inc(5)
        tel.histogram("frame.e2e_latency_seconds").observe(0.004)
        with MetricsServer(telemetry=tel, port=0) as server:
            assert server.running
            assert server.port > 0

            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            series = parse_prometheus_text(body.decode())
            assert series["repro_stream_frames"] == [({}, 5.0)]
            assert "repro_frame_e2e_latency_seconds_count" in series

            status, ctype, body = _get(server.url + "/health")
            assert status == 200
            assert ctype == "application/json"
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["frames"] == 5
            assert health["uptime_s"] >= 0

            status, _, body = _get(server.url + "/snapshot")
            snap = json.loads(body)
            assert snap["counters"]["stream.frames"] == 5
        assert not server.running

    def test_unknown_path_is_404(self):
        with MetricsServer(telemetry=Telemetry(), port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404

    def test_start_close_idempotent_and_validation(self):
        server = MetricsServer(telemetry=Telemetry(), port=0)
        server.start()
        server.start()
        server.close()
        server.close()
        with pytest.raises(TelemetryError):
            MetricsServer(port=70000)

    def test_unpinned_server_tracks_active_registry(self):
        """Without a pinned registry the server resolves get_telemetry()
        per request — a NullTelemetry just renders empty."""
        with MetricsServer(port=0) as server:
            _, _, body = _get(server.url + "/metrics")
            assert parse_prometheus_text(body.decode()) == {}


# ----------------------------------------------------------------------
# frame lineage + SLO through the stream broker
# ----------------------------------------------------------------------
def _check_lineage(spans, streams, n):
    """Every broker span names its frame and stream; one lifecycle span
    per frame per stream, on the stream's own track, starting where the
    frame's feed span starts."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    for name in ("serve.feed", "serve.band", "serve.deliver",
                 "frame.lifecycle"):
        assert name in by_name, f"missing {name} spans"
        for s in by_name[name]:
            args = s["args"] or {}
            assert "frame_id" in args, f"{name} lacks frame_id"
            assert args["stream"] in streams, f"{name} lacks its stream"
    for stream in streams:
        life = sorted((s for s in by_name["frame.lifecycle"]
                       if s["args"]["stream"] == stream),
                      key=lambda s: s["args"]["frame_id"])
        assert [s["args"]["frame_id"] for s in life] == list(range(n))
        assert {s["tid"] for s in life} == {f"serve-frames-{stream}"}
        feed0 = next(s for s in by_name["serve.feed"]
                     if s["args"]["stream"] == stream
                     and s["args"]["frame_id"] == 0)
        assert life[0]["ts"] == pytest.approx(feed0["ts"], abs=1e-6)
        assert life[0]["dur"] >= feed0["dur"] * 0.5


class TestRingLineage:
    def test_frame_id_threads_through_every_span(self, lut, rng):
        frames = _frames(rng, 4)
        tel = Telemetry()
        with scoped(tel):
            list(ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                             depth=2))
        _check_lineage(tel.spans, {"stream-0"}, 4)

    def test_lineage_on_two_session_broker(self, small_field, rng):
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=2, slot_budget=4) as broker:
                sessions = [broker.open(_frames(rng, 3), small_field,
                                        name=f"cam{i}") for i in range(2)]
                for s in sessions:
                    assert len(list(s)) == 3
        _check_lineage(tel.spans, {"cam0", "cam1"}, 3)

    def test_e2e_latency_histogram(self, lut, rng):
        frames = _frames(rng, 5)
        tel = Telemetry()
        with scoped(tel):
            list(ring_stream(lambda: (lut,), frames, copy=True, workers=2,
                             depth=2))
        snap = tel.snapshot()
        h = snap["histograms"]["frame.e2e_latency_seconds"]
        assert h["count"] == 5
        assert h["sum"] > 0
        assert slo_summary(snap)["frames"] == 5
        assert "stream.deadline_miss" not in snap["counters"]  # no SLO armed

    def test_deadline_misses_counted(self, lut, rng):
        frames = _frames(rng, 4)
        tel = Telemetry()
        with scoped(tel):
            list(ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                             depth=2, deadline_s=1e-9))
        snap = tel.snapshot()
        assert snap["counters"]["stream.deadline_miss"] == 4
        slo = slo_summary(snap)
        assert slo["deadline_misses"] == 4
        assert slo["miss_rate"] == 1.0

    def test_deadline_validation(self, lut, rng):
        with pytest.raises(ScheduleError):
            list(ring_stream(lambda: (lut,), _frames(rng, 1), deadline_s=0))
        with pytest.raises(ScheduleError):
            list(ring_stream(lambda: (lut,), _frames(rng, 1),
                             stall_timeout_s=-1))
        with pytest.raises(ScheduleError):
            StreamBroker(workers=1, stall_timeout_s=0)


# ----------------------------------------------------------------------
# crash flight recorder + stall watchdog
# ----------------------------------------------------------------------
def _assert_crash_dump(err, tmp_path):
    """The StreamError carries a dump whose trailing events include the
    crashed stream's decode/band/deliver events and the band spans the
    workers shipped back."""
    dump = err.flight_dump
    assert dump is not None
    assert str(tmp_path) in dump
    assert dump in str(err)
    payload = json.loads(open(dump).read())
    assert payload["reason"] == "worker-crash"
    kinds = [e["kind"] for e in payload["events"]]
    assert "decode" in kinds
    assert "band_done" in kinds
    assert "deliver" in kinds
    assert kinds[-1] == "worker_crash"
    band_spans = [e for e in payload["events"]
                  if e["kind"] == "span" and e["name"] == "serve.band"]
    assert band_spans, "dump lacks the workers' serve.band spans"
    assert all("frame_id" in e["args"] for e in band_spans)


def _assert_unlinked(names):
    from multiprocessing import shared_memory
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _stall_and_resume(pid, consume):
    """SIGSTOP ``pid``, resume it 1.2 s later, and ``consume()``."""
    os.kill(pid, signal.SIGSTOP)
    resume = threading.Timer(1.2, os.kill, (pid, signal.SIGCONT))
    resume.start()
    try:
        return consume()
    finally:
        resume.cancel()
        try:
            os.kill(pid, signal.SIGCONT)  # idempotent safety
        except ProcessLookupError:
            pass  # the fleet already stopped with its stream


def _assert_stall_dump(tel, tmp_path):
    snap = tel.snapshot()
    assert snap["counters"]["stream.stalls"] >= 1
    assert slo_summary(snap)["stalls"] >= 1
    dumps = list(tmp_path.glob("repro-flightrec-*.json"))
    assert dumps, "watchdog fired without writing a dump"
    payload = json.loads(dumps[0].read_text())
    assert payload["reason"] == "stall"
    assert payload["events"][-1]["kind"] == "stall"


class TestCrashAndStall:
    def test_worker_crash_dumps_flight_recorder(self, lut, tmp_path,
                                                brokers):
        """Kill a worker after frame 0 delivers: the StreamError carries
        the dump and every slot and table segment is unlinked."""
        tel = Telemetry()
        with scoped(tel):
            with pytest.raises(StreamError) as err:
                stream = ring_stream(lambda: (lut,), _endless(), workers=2,
                                     depth=2, flight_dir=tmp_path)
                # frame 0 delivered in full: its band completions and
                # the workers' shipped-back spans are on record
                next(stream)
                names = _segment_names(brokers[0])
                brokers[0]._procs[0].kill()
                for _ in stream:
                    pass
        _assert_crash_dump(err.value, tmp_path)
        _assert_unlinked(names)

    def test_worker_crash_on_two_session_broker(self, small_field,
                                                tmp_path):
        """One crash fails every session with the same dump and
        releases every session's slots and the shared tables."""
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=2, slot_budget=4,
                              flight_dir=tmp_path) as broker:
                sessions = [broker.open(_endless(), small_field,
                                        name=f"cam{i}") for i in range(2)]
                for s in sessions:
                    next(s)
                names = _segment_names(broker)
                broker._procs[0].kill()
                errors = []
                for s in sessions:
                    with pytest.raises(StreamError) as err:
                        for _ in s:
                            pass
                    errors.append(err.value)
        assert errors[0].flight_dump == errors[1].flight_dump
        _assert_crash_dump(errors[0], tmp_path)
        _assert_unlinked(names)

    def test_stall_watchdog_fires_and_recovers(self, lut, rng, tmp_path,
                                               brokers):
        """SIGSTOP the only worker mid-stream: the watchdog must count a
        stall and dump the recorder, then the stream completes normally
        once the worker is resumed."""
        frames = _frames(rng, 3)
        tel = Telemetry()
        with scoped(tel):
            stream = ring_stream(lambda: (lut,), frames, copy=True, workers=1,
                                 depth=2,
                                 stall_timeout_s=0.3, flight_dir=tmp_path)
            first = next(stream)
            rest = _stall_and_resume(brokers[0]._procs[0].pid,
                                     lambda: list(stream))
        assert first.shape == lut.out_shape
        assert len(rest) == 2
        _assert_stall_dump(tel, tmp_path)

    def test_stall_watchdog_on_two_session_broker(self, small_field, rng,
                                                  tmp_path):
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=1, slot_budget=4, stall_timeout_s=0.3,
                              flight_dir=tmp_path) as broker:
                sessions = [broker.open(_frames(rng, 3), small_field,
                                        name=f"cam{i}") for i in range(2)]
                for s in sessions:
                    next(s)
                rest = _stall_and_resume(
                    broker._procs[0].pid,
                    lambda: [len(list(s)) for s in sessions])
        assert rest == [2, 2]
        _assert_stall_dump(tel, tmp_path)

    def test_no_stall_counted_on_healthy_stream(self, lut, rng, tmp_path):
        frames = _frames(rng, 4)
        tel = Telemetry()
        with scoped(tel):
            list(ring_stream(lambda: (lut,), frames, copy=True, workers=2,
                             depth=2,
                             stall_timeout_s=30.0, flight_dir=tmp_path))
        assert "stream.stalls" not in tel.snapshot()["counters"]
        assert not list(tmp_path.glob("repro-flightrec-*.json"))


# ----------------------------------------------------------------------
# a caller-held server around a stream
# ----------------------------------------------------------------------
class TestServeMetricsWiring:
    def test_stream_serves_while_running(self, small_field, rng):
        from repro.video.stream import corrected_stream

        frames = _frames(rng, 6)
        tel = Telemetry()
        with MetricsServer(telemetry=tel, port=0) as server, scoped(tel):
            stream = corrected_stream(frames, small_field, copy=True,
                                      engine="ring", workers=1, depth=2)
            got = [next(stream)]
            # scrape mid-stream: the surface is live while frames flow
            _, _, body = _get(server.url + "/health")
            mid_health = json.loads(body)
            got += list(stream)
        assert len(got) == 6
        assert mid_health["status"] == "ok"
        assert mid_health["frames"] >= 1


# ----------------------------------------------------------------------
# bind failures + owned-server lifecycle
# ----------------------------------------------------------------------
def _metrics_threads():
    return [t for t in threading.enumerate()
            if t.name == "repro-metrics-server"]


class TestBindFailure:
    def test_bound_port_raises_typed_error(self):
        from repro.errors import MetricsBindError

        with MetricsServer(telemetry=Telemetry(), port=0) as first:
            second = MetricsServer(telemetry=Telemetry(), port=first.port)
            with pytest.raises(MetricsBindError, match=str(first.port)):
                second.start()
            assert not second.running
            second.close()  # failed start leaves nothing to clean up
        # MetricsBindError is a TelemetryError: old handlers still catch
        assert issubclass(MetricsBindError, TelemetryError)

    def test_failed_start_can_retry(self):
        first = MetricsServer(telemetry=Telemetry(), port=0).start()
        second = MetricsServer(telemetry=Telemetry(), port=first.port)
        from repro.errors import MetricsBindError
        with pytest.raises(MetricsBindError):
            second.start()
        first.close()
        second.start()  # port now free: same object recovers
        assert second.running
        second.close()


class TestOwnedServerLifecycle:
    def test_stream_error_still_stops_owned_server(self, small_field, rng):
        """The CLI's run surface owns its server: when the source raises
        mid-run, the daemon thread and the self-enabled registry must
        be gone."""
        from repro.cli import _observed_run
        from repro.obs import get_telemetry
        from repro.video.stream import corrected_stream

        assert not _metrics_threads()
        frames_ok = _frames(rng, 2)

        def exploding():
            yield frames_ok[0]
            raise RuntimeError("decoder died")

        with pytest.raises(RuntimeError, match="decoder died"):
            with _observed_run(0):
                gen = corrected_stream(exploding(), small_field, copy=True)
                next(gen)
                assert len(_metrics_threads()) == 1  # serving mid-stream
                next(gen)
        for t in _metrics_threads():
            t.join(timeout=5.0)
        assert not _metrics_threads()
        assert not get_telemetry().enabled

    def test_caller_owned_server_survives_stream(self, small_field, rng):
        from repro.video.stream import corrected_stream

        with MetricsServer(telemetry=Telemetry(), port=0) as server:
            out = list(corrected_stream(iter(_frames(rng, 2)), small_field,
                                        copy=True))
            assert len(out) == 2
            assert server.running  # the caller's with block owns it
        assert not server.running
