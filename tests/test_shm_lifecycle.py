"""Tests: shared-memory segment lifecycle survives crashes and GC.

The broker's fleet publishes named POSIX segments; losing track of one
leaks it until reboot and makes Python's resource tracker print
warnings at interpreter exit.  These tests pin the hardened lifecycle:
finalizers release segments under fork and spawn, after worker
crashes, and even when a segment group is dropped without
``release()`` — with a *subprocess* asserting that nothing survives to
the tracker's shutdown sweep.
"""

import os
import signal
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.remap import RemapLUT
from repro.parallel.ring import ring_stream
from repro.parallel.shmseg import (
    FrameSegments,
    SharedTables,
    attach_tables,
    release_segments,
    share_array,
)

pytestmark = pytest.mark.tier1


def _broker_segment_names(broker):
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


class TestSegmentGroups:
    def test_release_is_idempotent(self):
        seg = FrameSegments([(8, 8)], np.uint8, [(8, 8)])
        name = seg.src_shm.name
        seg.release()
        assert seg.released
        seg.release()  # second call is a no-op
        _assert_unlinked([name])

    def test_gc_releases_segments(self):
        seg = FrameSegments([(8, 8)], np.uint8, [(8, 8)])
        names = [seg.src_shm.name, seg.dst_shm.name]
        del seg
        _assert_unlinked(names)

    def test_release_segments_tolerates_missing(self):
        shm, _ = share_array(np.arange(4))
        release_segments([shm])
        release_segments([shm])  # already unlinked: must not raise

    def test_shared_tables_roundtrip(self, small_field, random_image):
        lut = RemapLUT(small_field, method="bilinear")
        tables = SharedTables(lut)
        segments, (attached,) = attach_tables(tables.spec, tables.meta)
        try:
            np.testing.assert_array_equal(attached.apply(random_image),
                                          lut.apply(random_image))
        finally:
            for shm in segments:
                shm.close()
            tables.release()


class TestLeanPublication:
    """A publication holds the base offsets, mask, patch list and what
    the tier derives its weights from: ``fracs`` on the numpy tier, the
    int16 Q weights on the Q tiers — the LUT's entry size either way."""

    @pytest.mark.parametrize("tier", ["numpy", "fixed"])
    @pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
    def test_attached_lut_reports_parent_sizes(self, tilted_field, method,
                                               tier):
        lut = RemapLUT(tilted_field, method=method).with_tier(tier)
        tables = SharedTables(lut)
        try:
            weights = (set() if method == "nearest"
                       else {"fracs"} if tier == "numpy" else {"qwtab"})
            patch = ({"patch_pixels", "patch_taps"}
                     if len(lut.patch_pixels) else set())
            assert set(tables.spec[0]) == {"base", "mask"} | weights | patch
            segments, (attached,) = attach_tables(tables.spec, tables.meta)
            try:
                assert (attached.fracs is None) == ("fracs" not in weights)
                assert attached.entry_bytes() == lut.entry_bytes()
                assert attached.nbytes == lut.nbytes == tables.nbytes
                assert tables.nbytes == sum(
                    a.nbytes for a in lut.kernel_tables().values())
                np.testing.assert_array_equal(attached.tap_offsets(),
                                              lut.tap_offsets())
            finally:
                del attached
                for shm in segments:
                    shm.close()
        finally:
            tables.release()

    def test_publishing_leaves_the_parent_lut_unchanged(self, small_field):
        lut = RemapLUT(small_field)
        kept = dict(vars(lut))
        for tier in ("numpy", "fixed"):
            SharedTables(lut.with_tier(tier)).release()
        assert lut._qwtab is None
        assert vars(lut).keys() == kept.keys()
        assert all(vars(lut)[k] is v for k, v in kept.items())

    def test_q_tier_publication_refuses_float_frames(self, small_field):
        from repro.errors import KernelTierError
        tables = SharedTables(RemapLUT(small_field).with_tier("fixed"))
        segments, (attached,) = attach_tables(tables.spec, tables.meta)
        try:
            with pytest.raises(KernelTierError, match="float"):
                attached.apply(np.zeros((64, 64), dtype=np.float32))
        finally:
            del attached
            for shm in segments:
                shm.close()
            tables.release()

    @pytest.mark.parametrize("tier,method,fill", [
        pytest.param(tier, method, fill, id=tier + suffix)
        for tier in ("numpy", "fixed")
        for method, fill, suffix in (("bilinear", 0.0, ""),
                                     ("nearest", 0.0, "-nearest"),
                                     ("bicubic", 0.0, "-bicubic"),
                                     ("bilinear", 33.0, "-fill33"))])
    def test_serve_bands_bit_exact_rgb(self, tilted_field, tier, method, fill):
        """Every method, and a fill value in the tilted view's
        out-of-FOV region, on both tiers (the bilinear zero-fill case
        keeps the bare tier id)."""
        from repro.serve import StreamBroker
        rng = np.random.default_rng(7)
        frames = [rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
                  for _ in range(3)]
        lut = RemapLUT(tilted_field, method=method, fill=fill).with_tier(tier)
        with StreamBroker(workers=2) as broker:
            got = list(broker.open(iter(frames), tilted_field, method=method,
                                   fill=fill, kernel=tier))
        assert len(got) == len(frames)
        for g, f in zip(got, frames):
            np.testing.assert_array_equal(g, lut.apply(f))

    @pytest.mark.parametrize("tier", ["numpy", "fixed"])
    def test_serve_bands_bit_exact_nv12(self, tilted_field, tier):
        from repro.serve import StreamBroker
        from repro.video.yuv import NV12Frame, YUVCorrector
        rng = np.random.default_rng(8)
        frames = [NV12Frame(rng.integers(0, 256, (64, 64), dtype=np.uint8),
                            rng.integers(0, 256, (32, 32, 2), dtype=np.uint8))
                  for _ in range(3)]
        corr = YUVCorrector.from_field(tilted_field, kernel=tier)
        with StreamBroker(workers=2) as broker:
            got = list(broker.open(iter(frames), tilted_field, kernel=tier,
                                   pixfmt="nv12"))
        assert len(got) == len(frames)
        for g, f in zip(got, frames):
            want = corr.correct_nv12(f, copy=True)
            np.testing.assert_array_equal(g.y, want.y)
            np.testing.assert_array_equal(g.uv, want.uv)


class TestExecutorLifecycle:
    def test_ring_close_unlinks_every_segment(self, small_field, brokers):
        lut = RemapLUT(small_field, method="bilinear")
        frames = [np.zeros((64, 64), dtype=np.uint8)] * 3
        stream = ring_stream(lambda: (lut,), frames, workers=1, depth=2)
        next(stream)
        names = _broker_segment_names(brokers[0])
        assert list(stream)  # exhaustion closes the ring
        assert brokers[0]._closed
        _assert_unlinked(names)


# Run inside a subprocess: start a ring stream, SIGKILL a worker after
# two frames, then exit WITHOUT closing anything — the tracker's
# shutdown sweep must find nothing to warn about, and the segments must
# be gone.
_CRASH_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
    from repro.core.lens import EquidistantLens
    from repro.core.mapping import perspective_map
    from repro.core.remap import RemapLUT
    from repro.parallel.ring import ring_stream
    from repro.serve.broker import StreamBroker

    SIZE = 64
    circle = SIZE / 2.0 - 1.0
    sensor = FisheyeIntrinsics.centered(SIZE, SIZE, focal=circle / (np.pi / 2.0))
    lens = EquidistantLens(sensor.focal)
    focal = sensor.focal * 0.5
    out = CameraIntrinsics(fx=focal, fy=focal, cx=(SIZE - 1) / 2.0,
                           cy=(SIZE - 1) / 2.0, width=SIZE, height=SIZE)
    field = perspective_map(sensor, lens, out)
    lut = RemapLUT(field, method="bilinear")
    frame = np.arange(SIZE * SIZE, dtype=np.uint8).reshape(SIZE, SIZE)

    brokers = []
    init = StreamBroker.__init__

    def spy(self, *args, **kwargs):
        brokers.append(self)
        init(self, *args, **kwargs)

    StreamBroker.__init__ = spy

    def endless():
        while True:  # only the crash can end this stream
            yield frame

    names = []
    try:
        for k, _ in enumerate(ring_stream(lambda: (lut,), endless(), workers=2,
                                          depth=2, context="{context}")):
            if k == 1:
                broker = brokers[0]
                names = [shm.name for s in broker._sessions.values()
                         for group in s._slots for shm in group._shms]
                names += [shm.name for tables, _ in broker._tables.values()
                          for shm in tables._shms]
                broker._procs[0].kill()
    except Exception as exc:
        assert type(exc).__name__ == "StreamError", exc

    print("NAMES:" + ",".join(names))
    sys.stdout.flush()
    # deliberately no close(): rely on finalizers + atexit
""")


def _run_crash_script(context):
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT.format(context=context)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names_line = [l for l in proc.stdout.splitlines() if l.startswith("NAMES:")]
    assert names_line, proc.stdout
    names = [n for n in names_line[0][len("NAMES:"):].split(",") if n]
    assert names
    return names, proc.stderr


class TestCrashedWorkerLeavesNoLeak:
    """The regression test the lifecycle hardening exists for."""

    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_ring_crash_no_tracker_warnings(self, context):
        names, stderr = _run_crash_script(context)
        assert "resource_tracker" not in stderr, stderr
        assert "leaked" not in stderr, stderr
        _assert_unlinked(names)


# Run inside a subprocess: a parent thread holds the resource tracker's
# lock while the main thread forks; the child's first attach registers
# with the tracker and must not wait on the lock it inherited held.
_FORK_LOCK_SCRIPT = textwrap.dedent("""
    import os
    import sys
    import threading
    import time
    from multiprocessing import resource_tracker

    import numpy as np

    from repro.parallel.shmseg import (attach_segment, ensure_resource_tracker,
                                       release_segments, share_array)

    ensure_resource_tracker()
    shm, _ = share_array(np.arange(16, dtype=np.uint8))
    lock = resource_tracker._resource_tracker._lock
    held, done = threading.Event(), threading.Event()

    def hold():
        with lock:
            held.set()
            done.wait()

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=5.0)
    pid = os.fork()
    if pid == 0:
        attach_segment(shm.name).close()
        os._exit(0)
    done.set()
    holder.join(timeout=5.0)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        finished, status = os.waitpid(pid, os.WNOHANG)
        if finished:
            break
        time.sleep(0.02)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        release_segments([shm])
        sys.exit("forked child still blocked after 10 s")
    release_segments([shm])
    sys.exit(os.waitstatus_to_exitcode(status))
""")


class TestForkedAttach:
    def test_attach_survives_tracker_lock_held_at_fork(self):
        proc = subprocess.run([sys.executable, "-c", _FORK_LOCK_SCRIPT],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestEarlyStreamClose:
    """Abandoning a ring stream mid-flight must tear everything down.

    Regression tests for the early-close leak: a consumer that breaks
    out of ``corrected_stream(engine="ring")`` (or closes the generator
    explicitly) used to leave the persistent workers running and every
    shared segment linked until interpreter exit.
    """

    @staticmethod
    def _endless():
        frame = np.zeros((64, 64), dtype=np.uint8)
        while True:
            yield frame

    def _stream(self, small_field):
        lut = RemapLUT(small_field, method="bilinear")
        return ring_stream(lambda: (lut,), self._endless(), workers=2, depth=2)

    def test_generator_close_stops_workers_and_unlinks(self, small_field,
                                                       brokers):
        gen = self._stream(small_field)
        next(gen)
        next(gen)
        names = _broker_segment_names(brokers[0])
        gen.close()  # early abandon: consumer walks away mid-stream
        assert brokers[0]._closed
        for p in brokers[0]._procs:
            p.join(timeout=5.0)
            assert not p.is_alive()
        _assert_unlinked(names)

    def test_break_out_of_for_loop_unlinks(self, small_field, brokers):
        gen = self._stream(small_field)
        for k, _ in enumerate(gen):
            if k == 1:
                names = _broker_segment_names(brokers[0])
                break
        del gen  # the for-loop's GeneratorExit path, then GC
        import gc
        gc.collect()
        assert brokers[0]._closed
        _assert_unlinked(names)

    def test_corrected_stream_early_close_tears_down_ring(self, small_field,
                                                          brokers):
        from repro.video.stream import corrected_stream

        gen = corrected_stream(self._endless(), small_field, engine="ring",
                               workers=2, depth=2)
        next(gen)
        next(gen)
        assert len(brokers) == 1
        broker = brokers[0]
        names = _broker_segment_names(broker)
        gen.close()
        assert broker._closed
        for p in broker._procs:
            p.join(timeout=5.0)
            assert not p.is_alive()
        _assert_unlinked(names)

    def test_exception_in_consumer_loop_unlinks(self, small_field):
        from multiprocessing import active_children

        from repro.video.stream import corrected_stream

        def fleet():
            return [p for p in active_children()
                    if p.name.startswith("serve-worker-")]

        gen = corrected_stream(self._endless(), small_field, engine="ring",
                               workers=1, depth=2)
        workers = []
        with pytest.raises(KeyboardInterrupt):
            for k, _ in enumerate(gen):
                if k == 2:
                    workers = fleet()
                    raise KeyboardInterrupt
        assert workers, "the ring's fleet was not found by name"
        gen.close()
        import gc
        gc.collect()
        for p in workers:
            p.join(timeout=5.0)
        assert not [p for p in workers if p.is_alive()]


# Run inside a subprocess: pull one frame from a ring stream and keep
# the generator, neither exhausted nor closed, in a global.  Its broker
# must be closed at exit: closed during finalization instead, its first
# control-queue put waits for a feeder thread that never starts.
_ABANDON_SCRIPT = textwrap.dedent("""
    import multiprocessing

    import numpy as np

    from repro.core.mapping import identity_map
    from repro.video.stream import corrected_stream

    frames = [np.full((48, 64), i, np.uint8) for i in range(100)]
    stream = corrected_stream(frames, identity_map(64, 48), engine="ring",
                              workers=1, depth=2)
    next(stream)
    print("PIDS:" + ",".join(str(p.pid)
                             for p in multiprocessing.active_children()),
          flush=True)
""")


def _shm_segments() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/dev/shm")
                    or not os.path.exists("/proc/self/stat"),
                    reason="needs /dev/shm and /proc")
def test_abandoned_ring_stream_lets_the_interpreter_exit():
    before = _shm_segments()
    try:
        proc = subprocess.run([sys.executable, "-c", _ABANDON_SCRIPT],
                              capture_output=True, text=True, timeout=20)
        out, hung = proc.stdout, False
    except subprocess.TimeoutExpired as exc:
        out, hung = exc.stdout or "", True
        if isinstance(out, bytes):
            out = out.decode()
    pids = [int(p) for line in out.splitlines() if line.startswith("PIDS:")
            for p in line[len("PIDS:"):].split(",") if p]
    alive = [pid for pid in pids if _running(pid)]
    for pid in alive:  # a hung run orphans its fleet: do not keep it
        os.kill(pid, signal.SIGKILL)
    assert not hung, "the interpreter did not exit within 20 s"
    assert proc.returncode == 0, proc.stderr
    assert pids, out
    assert not alive, f"workers {alive} outlive the interpreter"
    assert not _shm_segments() - before
