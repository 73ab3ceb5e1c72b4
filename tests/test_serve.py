"""Tests: the multi-stream correction service (:mod:`repro.serve`).

The broker's contract is concurrency-shaped, so these tests pin the
parts that only break under interleaving: strict per-stream ordering
across a shared fleet, weighted round-robin fairness, per-stream
backpressure, admission control against the slot budget, one shared
LUT build/publication per calibration, labelled telemetry, and the
teardown guarantees (budget returned, segments unlinked, fleet dead).
"""

import os
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.bench.harness import standard_field
from repro.core.image import GRAY8, Frame
from repro.core.lutcache import LUTCache
from repro.core.remap import RemapLUT
from repro.errors import AdmissionError, ScheduleError, StreamError
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.telemetry import Telemetry, scoped
from repro.serve import DEFAULT_SLOT_BUDGET, MultiStreamCorrector, StreamBroker
from repro.serve.broker import _FairScheduler

pytestmark = pytest.mark.tier1

SIZE = 64


def _assert_unlinked(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _const_frames(value0, n):
    """n frames whose centre pixel encodes the frame index."""
    for k in range(n):
        yield np.full((SIZE, SIZE), (value0 + k) % 251, dtype=np.uint8)


def _centre(frame):
    return int(np.asarray(frame)[SIZE // 2, SIZE // 2])


# ----------------------------------------------------------------------
# the scheduler data structure
# ----------------------------------------------------------------------
class TestFairScheduler:
    """Turns count frames: a stream finishes the frame it began, and
    the turn passes on once it has begun ``weight`` frames."""

    @staticmethod
    def _frames(s, sid, n, bands=2):
        for k in range(n):
            s.push(sid, [f"{sid}{k}.{b}" for b in range(bands)])

    def test_round_robin_alternates(self):
        s = _FairScheduler()
        s.add_stream("a")
        s.add_stream("b")
        self._frames(s, "a", 2)
        self._frames(s, "b", 2)
        order = [s.pop()[1] for _ in range(8)]
        assert order == ["a0.0", "a0.1", "b0.0", "b0.1",
                         "a1.0", "a1.1", "b1.0", "b1.1"]
        assert s.pop() is None

    def test_weights_give_proportional_turns(self):
        s = _FairScheduler()
        s.add_stream("a", weight=2)
        s.add_stream("b", weight=1)
        self._frames(s, "a", 4)
        self._frames(s, "b", 2)
        frames = [s.pop()[1].split(".")[0] for _ in range(12)][::2]
        assert frames == ["a0", "a1", "b0", "a2", "a3", "b1"]

    def test_frame_pushed_mid_turn_waits_for_the_frame_boundary(self):
        s = _FairScheduler()
        s.add_stream("a")
        s.add_stream("b")
        self._frames(s, "a", 1, bands=3)
        assert s.pop() == ("a", "a0.0")
        self._frames(s, "b", 1)  # b's frame arrives while a's is begun
        assert [s.pop()[1] for _ in range(4)] == ["a0.1", "a0.2",
                                                  "b0.0", "b0.1"]

    def test_idle_stream_is_skipped_not_waited_for(self):
        s = _FairScheduler()
        s.add_stream("idle")
        s.add_stream("busy")
        self._frames(s, "busy", 2)
        assert [s.pop()[0] for _ in range(4)] == ["busy"] * 4
        assert s.pop() is None

    def test_remove_stream_drops_queue_and_rebalances(self):
        s = _FairScheduler()
        s.add_stream("a")
        s.add_stream("b")
        self._frames(s, "a", 2, bands=3)
        self._frames(s, "b", 1)
        assert s.pop() == ("a", "a0.0")
        s.remove_stream("a")  # mid-frame: the rest of a's frames go too
        assert len(s) == 2
        assert [s.pop() for _ in range(2)] == [("b", "b0.0"), ("b", "b0.1")]
        assert s.pop() is None
        s.remove_stream("ghost")  # unknown sid: no-op

    def test_removing_another_stream_keeps_the_begun_frame(self):
        s = _FairScheduler()
        for sid in "abc":
            s.add_stream(sid)
        self._frames(s, "a", 1)
        self._frames(s, "b", 1, bands=3)
        self._frames(s, "c", 1)
        assert [s.pop()[1] for _ in range(3)] == ["a0.0", "a0.1", "b0.0"]
        s.remove_stream("a")  # before the cursor: b keeps its turn
        assert [s.pop()[1] for _ in range(4)] == ["b0.1", "b0.2",
                                                  "c0.0", "c0.1"]

    def test_weight_validated(self):
        s = _FairScheduler()
        with pytest.raises(ScheduleError):
            s.add_stream("a", weight=0)
        with pytest.raises(ScheduleError):
            s.add_stream("a", weight=-1)


# ----------------------------------------------------------------------
# in-order delivery through one shared fleet
# ----------------------------------------------------------------------
class TestInOrderDelivery:
    def test_four_concurrent_streams_stay_in_order(self, small_field):
        """The tentpole acceptance check at test scale: four streams,
        one fleet, every stream's frames arrive strictly in input
        order with correct content."""
        n_frames = 8
        cache = LUTCache()
        with MultiStreamCorrector(workers=2, slot_budget=16,
                                  lut_cache=cache) as svc:
            sessions = [
                svc.open_stream(_const_frames(i * 60, n_frames), small_field,
                                name=f"s{i}")
                for i in range(4)
            ]
            got = {f"s{i}": [] for i in range(4)}
            for name, frame in svc.merged(sessions):
                got[name].append(_centre(frame))
        lut = RemapLUT(small_field, method="bilinear")
        for i in range(4):
            expected = [
                _centre(lut.apply(np.full((SIZE, SIZE), (i * 60 + k) % 251,
                                          dtype=np.uint8)))
                for k in range(n_frames)
            ]
            assert got[f"s{i}"] == expected

    def test_single_session_matches_sync_kernel(self, small_field,
                                                random_image):
        lut = RemapLUT(small_field, method="bilinear")
        frames = [random_image, random_image[::-1].copy()]
        with StreamBroker(workers=2) as broker:
            out = list(broker.open(iter(frames), small_field, name="one"))
        assert len(out) == 2
        for got, src in zip(out, frames):
            np.testing.assert_array_equal(got, lut.apply(src))

    def test_frame_objects_keep_metadata(self, small_field, random_image):
        frames = [Frame(random_image, GRAY8, index=7, timestamp=0.25)]
        with StreamBroker(workers=1) as broker:
            out = list(broker.open(iter(frames), small_field))
        assert isinstance(out[0], Frame)
        assert out[0].index == 7
        assert out[0].timestamp == 0.25

    def test_empty_stream_yields_nothing(self, small_field):
        with StreamBroker(workers=1) as broker:
            session = broker.open(iter(()), small_field, name="empty")
            assert list(session) == []
            assert session.closed
            # budget returned immediately
            assert broker.slots_used == 0

    def test_copy_false_views_recycle(self, small_field):
        with StreamBroker(workers=1) as broker:
            session = broker.open(_const_frames(10, 4), small_field,
                                  copy=False, depth=2)
            seen = [_centre(f) for f in session]
        lut = RemapLUT(small_field, method="bilinear")
        expected = [_centre(lut.apply(np.full((SIZE, SIZE), 10 + k,
                                              dtype=np.uint8)))
                    for k in range(4)]
        assert seen == expected


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_budget_exhaustion_raises(self, small_field):
        with StreamBroker(workers=1, slot_budget=4) as broker:
            a = broker.open(_const_frames(0, 2), small_field, depth=2)
            broker.open(_const_frames(0, 2), small_field, depth=2)
            with pytest.raises(AdmissionError):
                broker.open(_const_frames(0, 2), small_field, depth=2)
            assert broker.admission_rejects == 1
            # closing a session returns its slots: admission succeeds now
            a.close()
            c = broker.open(_const_frames(50, 2), small_field, depth=2)
            assert [f is not None for f in c] == [True, True]

    def test_slots_accounting(self, small_field):
        with StreamBroker(workers=1, slot_budget=8) as broker:
            s = broker.open(_const_frames(0, 1), small_field, depth=3)
            assert broker.slots_used == 3
            assert broker.active_streams == 1
            s.close()
            assert broker.slots_used == 0
            assert broker.active_streams == 0

    def test_failed_open_rolls_back_reservation(self, small_field):
        with StreamBroker(workers=1, slot_budget=4) as broker:
            bad = np.zeros((SIZE // 2, SIZE // 2), dtype=np.uint8)
            with pytest.raises(ScheduleError):
                broker.open(iter([bad]), small_field)
            assert broker.slots_used == 0

    def test_default_budget_exported(self):
        assert DEFAULT_SLOT_BUDGET == 16

    def test_parameter_validation(self, small_field):
        with pytest.raises(ScheduleError):
            StreamBroker(workers=0)
        with pytest.raises(ScheduleError):
            StreamBroker(workers=1, slot_budget=0)
        with StreamBroker(workers=1) as broker:
            with pytest.raises(ScheduleError):
                broker.open(_const_frames(0, 1), small_field, depth=0)


# ----------------------------------------------------------------------
# backpressure + fairness under a stalled consumer
# ----------------------------------------------------------------------
class TestBackpressureAndFairness:
    def test_unconsumed_session_pulls_at_most_depth_plus_one(self,
                                                            small_field):
        pulled = []

        def counting_source():
            for k in range(100):
                pulled.append(k)
                yield np.zeros((SIZE, SIZE), dtype=np.uint8)

        with StreamBroker(workers=1, slot_budget=8) as broker:
            session = broker.open(counting_source(), small_field, depth=2)
            time.sleep(1.0)  # nobody consumes: the feeder must stall
            assert len(pulled) <= session.depth + 2
            session.close()

    def test_stalled_stream_does_not_starve_the_other(self, small_field):
        """Session A is never consumed (backpressure holds its feeder);
        session B must still stream through the shared fleet."""
        with StreamBroker(workers=2, slot_budget=8) as broker:
            a = broker.open(_const_frames(0, 50), small_field, name="stalled",
                            depth=2)
            b = broker.open(_const_frames(100, 6), small_field, name="live",
                            depth=2)
            t0 = time.monotonic()
            out = [_centre(f) for f in b]
            elapsed = time.monotonic() - t0
            assert len(out) == 6
            assert elapsed < 20.0
            a.close()

    def test_each_frame_completes_as_one_contiguous_run(self, small_field):
        """Turns count frames: with one worker, completions come back in
        dispatch order, so every ``(stream, frame_id)`` must occupy one
        unbroken run of ``band_done`` events while two sessions
        interleave frame by frame."""
        n_frames = 6
        with MultiStreamCorrector(workers=1, slot_budget=8) as svc:
            sessions = [svc.open_stream(_const_frames(i * 50, n_frames),
                                        small_field, name=f"s{i}")
                        for i in range(2)]
            assert len(list(svc.merged(sessions))) == 2 * n_frames
            done = [(e["stream"], e["frame_id"])
                    for e in svc.broker.flightrec.events()
                    if e["kind"] == "band_done"]
        bands = len(sessions[0]._bands)
        assert bands > 1
        assert len(done) == 2 * n_frames * bands
        runs = [key for i, key in enumerate(done)
                if i == 0 or done[i - 1] != key]
        assert len(runs) == len(set(runs)) == 2 * n_frames
        assert {name for name, _ in runs} == {"s0", "s1"}

    def test_merged_slow_consumer_buffers_at_most_one_frame_per_session(
            self, small_field):
        """merged() must not buffer without limit: with a consumer
        slower than the fleet, frames pulled from the sessions minus
        frames yielded stays within len(sessions)."""
        with MultiStreamCorrector(workers=2, slot_budget=8) as svc:
            sessions = [svc.open_stream(_const_frames(i * 20, 12),
                                        small_field, name=f"s{i}")
                        for i in range(3)]
            yielded = worst = 0
            for _ in svc.merged(sessions):
                yielded += 1
                time.sleep(0.03)  # the fleet runs ahead meanwhile
                pulled = sum(s.delivered for s in sessions)
                worst = max(worst, pulled - yielded)
        assert yielded == 36
        assert 1 <= worst <= len(sessions)

    def test_close_wakes_feeder_blocked_on_its_ring(self, small_field,
                                                    monkeypatch):
        import repro.serve.broker as broker_mod
        with StreamBroker(workers=1, slot_budget=8) as broker:
            # a long poll makes a missed wake-up obvious (workers forked
            # with the default already)
            monkeypatch.setattr(broker_mod, "_POLL_S", 1.0)
            session = broker.open(_const_frames(0, 100), small_field,
                                  depth=2)
            time.sleep(0.3)  # nobody consumes: the feeder blocks
            t0 = time.monotonic()
            session.close()
            elapsed = time.monotonic() - t0
            assert not session._feeder.is_alive()
            assert elapsed < 0.3
            monkeypatch.undo()

    def test_closed_session_next_raises_stream_error(self, small_field):
        with StreamBroker(workers=1) as broker:
            session = broker.open(_const_frames(0, 4), small_field)
            next(iter(session))
            session.close()
            with pytest.raises(StreamError):
                next(session)

    def test_exhausted_session_keeps_raising_stop_iteration(self,
                                                            small_field):
        with StreamBroker(workers=1) as broker:
            session = broker.open(_const_frames(0, 1), small_field)
            it = iter(session)
            next(it)
            with pytest.raises(StopIteration):
                next(it)
            with pytest.raises(StopIteration):
                next(it)

    def test_geometry_mismatch_from_feeder_surfaces_to_consumer(
            self, small_field, random_image):
        def source():
            yield random_image
            yield np.zeros((SIZE // 2, SIZE), dtype=np.uint8)  # wrong shape

        with StreamBroker(workers=1) as broker:
            session = broker.open(source(), small_field)
            with pytest.raises(ScheduleError):
                list(session)


# ----------------------------------------------------------------------
# shared calibration
# ----------------------------------------------------------------------
class TestSharedCalibration:
    def test_sessions_share_one_build_and_one_publication(self, small_field):
        cache = LUTCache()
        with StreamBroker(workers=1, slot_budget=16,
                          lut_cache=cache) as broker:
            sessions = [broker.open(_const_frames(i, 2), small_field,
                                    name=f"cam{i}") for i in range(3)]
            assert len(broker._tables) == 1   # one shared-memory publication
            for s in sessions:
                assert len(list(s)) == 2
            assert cache.misses == 1          # one LUT build
            assert len(broker._tables) == 0   # gone with its last session

    def test_open_hashes_the_field_once(self, small_sensor, small_lens,
                                        small_out, monkeypatch):
        """An RGB open fingerprints its field once (key and LUT share
        the digest), and a second open of the same field not at all."""
        from repro.core import lutcache
        from repro.core.mapping import perspective_map

        digests = []
        digest = lutcache._field_digest
        monkeypatch.setattr(lutcache, "_field_digest",
                            lambda f: digests.append(f) or digest(f))
        field = perspective_map(small_sensor, small_lens, small_out)
        frames = np.zeros((2, SIZE, SIZE, 3), dtype=np.uint8)
        with MultiStreamCorrector(workers=1) as svc:
            svc.open_stream(iter(frames), field).close()
            assert len(digests) == 1
            svc.open_stream(iter(frames), field).close()
            assert len(digests) == 1

    def test_distinct_calibrations_get_distinct_tables(self, small_field,
                                                       tilted_field):
        cache = LUTCache()
        with StreamBroker(workers=1, lut_cache=cache) as broker:
            a = broker.open(_const_frames(0, 1), small_field)
            b = broker.open(_const_frames(0, 1), tilted_field)
            assert len(broker._tables) == 2
            list(a)
            list(b)
            assert cache.misses == 2
            assert len(broker._tables) == 0


def _table_segment_names(broker):
    return {key: [shm.name for shm in tables._shms]
            for key, (tables, _) in broker._tables.items()}


def _wait_unmapped(pids, names, timeout=10.0):
    """Poll until no pid's ``/proc/<pid>/maps`` lists any of ``names``."""
    deadline = time.monotonic() + timeout
    while True:
        mapped = []
        for pid in pids:
            with open(f"/proc/{pid}/maps") as fh:
                maps = fh.read()
            mapped += [n for n in names if n in maps]
        if not mapped or time.monotonic() > deadline:
            return mapped
        time.sleep(0.05)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/<pid>/maps")
class TestPublicationLifetime:
    """PTZ-style churn: a publication lives exactly as long as its
    sessions, is unmapped from every worker when the last one closes,
    and a reopen publishes again."""

    def _poses(self, small_sensor, small_lens, small_out):
        from repro.core.mapping import perspective_map
        return [perspective_map(small_sensor, small_lens, small_out,
                                pitch=np.deg2rad(p), yaw=np.deg2rad(y))
                for p, y in ((0, 0), (20, 0), (0, 25), (-15, -20))]

    def test_ptz_churn_unpublishes_each_closed_calibration(
            self, small_sensor, small_lens, small_out):
        poses = self._poses(small_sensor, small_lens, small_out)
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 256, (SIZE, SIZE), dtype=np.uint8)
                  for _ in range(2)]
        cache = LUTCache()
        with StreamBroker(workers=1, lut_cache=cache) as broker:
            pids = [p.pid for p in broker._procs]
            live = broker.open(_const_frames(0, 10_000), poses[0],
                               name="live")
            next(live)
            for k, field in enumerate(poses[1:] + poses[:1]):
                session = broker.open(iter(frames), field, name=f"ptz{k}")
                own = [n for key, names in
                       _table_segment_names(broker).items()
                       if key == session._desc[0] for n in names]
                assert own
                out = list(session)  # exhaustion closes the session
                lut = RemapLUT(field)
                for got, src in zip(out, frames):
                    np.testing.assert_array_equal(got, lut.apply(src))
                assert len(broker._tables) <= broker.active_streams
                if field is poses[0]:
                    continue  # the live camera still holds this one
                _assert_unlinked(own)
                assert _wait_unmapped(pids, own) == []
            live.close()
            assert len(broker._tables) == 0
            # 4 builds, the reopened pose came from the cache
            assert cache.misses == 4

    def test_reopen_publishes_again_and_matches_oracle(
            self, small_sensor, small_lens, small_out):
        poses = self._poses(small_sensor, small_lens, small_out)
        rng = np.random.default_rng(4)
        frames = [rng.integers(0, 256, (SIZE, SIZE, 3), dtype=np.uint8)
                  for _ in range(3)]
        cache = LUTCache()
        with StreamBroker(workers=1, lut_cache=cache) as broker:
            pids = [p.pid for p in broker._procs]
            seen = []
            for field in poses + poses[:2]:
                session = broker.open(iter(frames), field)
                seen.append(_table_segment_names(broker)[session._desc[0]])
                out = list(session)
                lut = RemapLUT(field)
                assert len(out) == len(frames)
                for got, src in zip(out, frames):
                    np.testing.assert_array_equal(got, lut.apply(src))
                assert len(broker._tables) == 0
                _assert_unlinked(seen[-1])
                assert _wait_unmapped(pids, seen[-1]) == []
            assert cache.misses == len(poses)
            # a republished calibration lives in fresh segments
            assert not set(seen[0]) & set(seen[len(poses)])

    def test_concurrent_churn_keeps_reference_counts(self, small_field,
                                                     tilted_field):
        """8 threads open/close sessions on 2 calibrations over 3
        workers at a tiny switch interval: a lost reference update
        would leave a publication behind or unlink a live one."""
        import sys
        errors, published = [], set()
        frames = [np.full((SIZE, SIZE), 40, dtype=np.uint8)] * 2
        oracle = {id(f): RemapLUT(f).apply(frames[0])
                  for f in (small_field, tilted_field)}

        with StreamBroker(workers=3, slot_budget=32) as broker:
            def churn(k):
                try:
                    for i in range(6):
                        field = (small_field, tilted_field)[(k + i) % 2]
                        session = broker.open(iter(frames), field, depth=2)
                        with broker._lock:
                            published.update(
                                n for names in
                                _table_segment_names(broker).values()
                                for n in names)
                        got = next(session)
                        np.testing.assert_array_equal(got, oracle[id(field)])
                        session.close()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=churn, args=(k,))
                           for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert broker._tables == {}
            assert broker.slots_used == 0
            _assert_unlinked(published)

    def test_failed_open_drops_its_reference(self, small_field, monkeypatch):
        import repro.parallel.shmseg as shmseg

        def no_slots(*args, **kwargs):
            raise OSError("no space left on /dev/shm")

        with StreamBroker(workers=1) as broker:
            monkeypatch.setattr(shmseg, "FrameSegments", no_slots)
            with pytest.raises(OSError):
                broker.open(_const_frames(0, 1), small_field)
            assert broker._tables == {}
            assert broker.slots_used == 0


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestServeTelemetry:
    def test_per_stream_labelled_series(self, small_field):
        tel = Telemetry()
        with scoped(tel):
            with MultiStreamCorrector(workers=1) as svc:
                sessions = [svc.open_stream(_const_frames(i, 3), small_field,
                                            name=f"cam{i}")
                            for i in range(2)]
                for _ in svc.merged(sessions):
                    pass
        snap = tel.snapshot()
        assert snap["counters"]['stream.frames{stream="cam0"}'] == 3
        assert snap["counters"]['stream.frames{stream="cam1"}'] == 3
        assert snap["counters"]["stream.frames"] == 6
        assert snap["counters"]["serve.bands"] >= 6
        hists = snap["histograms"]
        assert 'frame.e2e_latency_seconds{stream="cam0"}' in hists
        # the labelled series render as one metric family per base name
        series = parse_prometheus_text(prometheus_text(snap))
        frames = series["repro_stream_frames"]
        assert ({"stream": "cam0"}, 3.0) in frames
        assert ({"stream": "cam1"}, 3.0) in frames
        assert ({}, 6.0) in frames

    def test_deadline_miss_counted_per_stream(self, small_field):
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=1) as broker:
                session = broker.open(_const_frames(0, 2), small_field,
                                      name="slo", deadline_s=1e-9)
                assert len(list(session)) == 2
        snap = tel.snapshot()
        assert snap["counters"]['stream.deadline_miss{stream="slo"}'] == 2
        assert snap["counters"]["stream.deadline_miss"] == 2

    def test_fleet_gauges(self, small_field):
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=2, slot_budget=8) as broker:
                broker.open(_const_frames(0, 1), small_field, depth=2)
                snap = tel.snapshot()
                assert snap["gauges"]["serve.workers"] == 2
                assert snap["gauges"]["serve.slot_budget"] == 8
                assert snap["gauges"]["serve.slots_used"] == 2
        snap = tel.snapshot()
        assert snap["gauges"]["serve.active_streams"] == 0
        assert snap["gauges"]["serve.slots_used"] == 0

    def test_table_gauges_follow_live_publications(self, small_field,
                                                   tilted_field):
        tel = Telemetry()
        with scoped(tel):
            with StreamBroker(workers=1) as broker:
                sessions = [broker.open(_const_frames(0, 2), field)
                            for field in (small_field, tilted_field,
                                          small_field)]
                gauges = tel.snapshot()["gauges"]
                assert gauges["serve.table_publications"] == 2
                # lean numpy bilinear publication: base 4 + fracs 8 +
                # mask 1 bytes per output pixel, no patch rows
                assert gauges["serve.table_bytes"] == 2 * SIZE * SIZE * 13
                sessions[0].close()
                gauges = tel.snapshot()["gauges"]
                assert gauges["serve.table_publications"] == 2
                for s in sessions[1:]:
                    s.close()
                gauges = tel.snapshot()["gauges"]
                assert gauges["serve.table_publications"] == 0
                assert gauges["serve.table_bytes"] == 0


# ----------------------------------------------------------------------
# teardown guarantees
# ----------------------------------------------------------------------
class TestTeardown:
    def test_broker_close_unlinks_everything_and_stops_fleet(self,
                                                             small_field):
        broker = StreamBroker(workers=2)
        session = broker.open(_const_frames(0, 3), small_field, depth=2)
        names = [shm.name for seg in session._slots for shm in seg._shms]
        for tables, _ in broker._tables.values():
            names += [shm.name for shm in tables._shms]
        assert len(list(session)) == 3
        procs = list(broker._procs)
        broker.close()
        _assert_unlinked(names)
        for p in procs:
            assert not p.is_alive()
        broker.close()  # idempotent

    def test_session_close_unlinks_its_slots(self, small_field):
        with StreamBroker(workers=1) as broker:
            session = broker.open(_const_frames(0, 2), small_field, depth=2)
            names = [shm.name for seg in session._slots for shm in seg._shms]
            session.close()
            _assert_unlinked(names)

    def test_merged_early_close_releases_all_sessions(self, small_field):
        with MultiStreamCorrector(workers=1, slot_budget=8) as svc:
            sessions = [svc.open_stream(_const_frames(i, 10), small_field,
                                        name=f"s{i}") for i in range(2)]
            drain = svc.merged(sessions)
            next(drain)
            drain.close()  # early consumer break
            assert all(s.closed for s in sessions)
            assert svc.broker.slots_used == 0

    def test_merged_close_joins_every_pump(self, small_field):
        def pumps():
            return [t for t in threading.enumerate()
                    if t.name.startswith("serve-drain-")]

        with MultiStreamCorrector(workers=1, slot_budget=8) as svc:
            sessions = [svc.open_stream(_const_frames(i, 1000), small_field,
                                        name=f"s{i}") for i in range(3)]
            drain = svc.merged(sessions)
            next(drain)
            time.sleep(0.3)  # every pump now holds or waits on a frame
            assert len(pumps()) == 3
            drain.close()  # consumer stops mid-drain
            assert pumps() == []
            assert svc.broker.slots_used == 0

    def test_merged_close_does_not_wait_out_a_poll(self, small_field):
        # pumps parked on their turn are woken by the close itself, so
        # closing a drain costs the session teardown, not a poll interval
        closes = []
        with MultiStreamCorrector(workers=1, slot_budget=16) as svc:
            for round_ in range(5):
                sessions = [svc.open_stream(_const_frames(i, 1000),
                                            small_field, name=f"r{round_}s{i}")
                            for i in range(4)]
                drain = svc.merged(sessions)
                next(drain)
                time.sleep(0.05)  # every pump now holds or waits on a frame
                t0 = time.perf_counter()
                drain.close()
                closes.append(time.perf_counter() - t0)
                assert svc.broker.slots_used == 0
        assert sorted(closes)[2] < 0.030, closes

    def test_worker_death_surfaces_stream_error(self, small_field):
        with StreamBroker(workers=1) as broker:
            def endless():
                while True:
                    yield np.zeros((SIZE, SIZE), dtype=np.uint8)

            session = broker.open(endless(), small_field)
            next(iter(session))
            broker._procs[0].terminate()
            with pytest.raises(StreamError, match="serve-worker-0"):
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    next(session)

    def test_open_after_close_raises(self, small_field):
        broker = StreamBroker(workers=1)
        broker.close()
        with pytest.raises(ScheduleError):
            broker.open(_const_frames(0, 1), small_field)

    def test_close_wakes_the_collector(self, small_field):
        """close() wakes the collector with a sentinel on the completion
        queue instead of waiting out its poll."""
        closes = []
        for _ in range(5):
            broker = StreamBroker(workers=1)
            session = broker.open(_const_frames(0, 3), small_field)
            next(session)
            session.close()
            t0 = time.perf_counter()
            broker.close()
            closes.append(time.perf_counter() - t0)
            assert not broker._collector.is_alive()
        assert sorted(closes)[2] < 0.150, closes

    def test_every_worker_gets_its_stop_pill(self):
        """Every close stops every worker with exit code 0.  Pills used
        to be put one per worker still alive at the moment of its put,
        so a worker that took an earlier pill and exited in between cost
        the last worker its pill: a 2 s join timeout, then SIGTERM."""
        lut = RemapLUT(standard_field.__wrapped__(320, 240, 1.0))
        frames = [np.random.default_rng(k).integers(
            0, 256, (240, 320, 3), dtype=np.uint8) for k in range(4)]
        for _ in range(50):
            broker = StreamBroker(workers=2, slot_budget=2)
            session = broker._admit(iter(frames * 4), lambda: (None, (lut,)),
                                    depth=2)
            next(session)
            session.close()
            broker.close()
            assert [p.exitcode for p in broker._procs] == [0, 0]


# ----------------------------------------------------------------------
# service facade
# ----------------------------------------------------------------------
class TestServiceFacade:
    def test_stats_shape(self, small_field):
        with MultiStreamCorrector(workers=1) as svc:
            svc.open_stream(_const_frames(0, 1), small_field, name="x")
            stats = svc.stats()
            assert stats["workers"] == 1
            assert stats["active_streams"] == 1
            assert stats["streams"][0]["name"] == "x"
            assert "lut_cache" in stats

    def test_merged_propagates_session_error(self, small_field,
                                             random_image):
        def source():
            yield random_image
            raise RuntimeError("decoder fell over")

        with MultiStreamCorrector(workers=1) as svc:
            session = svc.open_stream(source(), small_field)
            with pytest.raises(RuntimeError, match="decoder fell over"):
                for _ in svc.merged([session]):
                    pass
