"""Tests: the broker's fleet does not inherit or leave behind free heap.

glibc keeps freed heap chunks mapped, and a forked child maps them too,
keeping a private copy of each page the parent reuses after the fork.
The broker trims the free heap just before its fleet forks and again
once the fleet is gone (:func:`repro.parallel.shmseg.release_free_heap`).
These tests read ``Anonymous`` from ``/proc/<pid>/smaps_rollup``, so the
memory ones run only on Linux with glibc's ``malloc_trim``.  The ring
builds its tables only after its fleet forks, and keeps no private copy
once they are published, and a view builder's field is a recipe, so
the fleet forks before the field's maps exist.
"""

import os
import weakref

import numpy as np
import pytest

from repro.bench.harness import standard_field
from repro.core.lutcache import LUTCache
from repro.core.mapping import identity_map
from repro.obs.telemetry import Telemetry, scoped
from repro.parallel import shmseg
from repro.serve import broker as broker_mod
from repro.serve.broker import StreamBroker
from repro.video import stream as stream_mod
from repro.video.yuv import NV12Frame

pytestmark = pytest.mark.tier1

needs_trim = pytest.mark.skipif(
    shmseg._malloc_trim() is None
    or not os.path.exists("/proc/self/smaps_rollup"),
    reason="needs Linux smaps_rollup and glibc malloc_trim")


def _anon_mib(pid: int) -> float:
    """``Anonymous`` of one process, in MiB."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Anonymous:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no Anonymous line")


def _frames(n, shape=(64, 64)):
    return (np.full(shape, i % 256, dtype=np.uint8) for i in range(n))


def _heap_garbage():
    """128 MiB of touched 64 KiB heap arrays (below glibc's mmap
    threshold), and every other one of them: freeing the rest leaves
    64 MiB of free heap in chunks that cannot coalesce into the heap
    top (which ``free`` would hand back by itself)."""
    arrays = [np.ones(64 * 1024, dtype=np.uint8) for _ in range(2048)]
    return arrays, arrays[1::2]


def test_release_free_heap_returns_a_bool():
    assert isinstance(shmseg.release_free_heap(), bool)


def test_private_mb_of_a_missing_process_is_none():
    assert shmseg.private_mb(2 ** 22 + 7) is None


@needs_trim
def test_workers_do_not_inherit_the_free_heap():
    arrays, kept = _heap_garbage()
    before_free = _anon_mib(os.getpid())
    del arrays
    with StreamBroker(workers=1) as broker:
        worker = _anon_mib(broker._procs[0].pid)
    del kept
    # untrimmed, the worker would map the 64 MiB just freed
    assert worker < before_free - 32, (worker, before_free)


@needs_trim
def test_closed_broker_leaves_no_parent_heap():
    field = identity_map(1280, 720)
    cache = LUTCache()  # the built table outlives each broker

    def cycle():
        """Anonymous MiB after a closed broker, then after a second
        trim, with the closed broker still referenced."""
        with StreamBroker(workers=2, lut_cache=cache) as broker:
            sessions = [broker.open(_frames(20, (720, 1280, 3)), field,
                                    depth=3) for _ in range(2)]
            for s in sessions:
                assert len(list(s)) == 20
        closed = _anon_mib(os.getpid())
        shmseg.release_free_heap()
        return closed, _anon_mib(os.getpid())

    cycle()  # the table, first-use caches and imports
    shmseg.release_free_heap()
    before = _anon_mib(os.getpid())
    closed, trimmed = cycle()
    # the fleet's frames and bands churned the heap: untrimmed, the
    # parent keeps tens of MiB of it free after close
    assert closed - trimmed < 2, (closed, trimmed)
    assert closed < before + 16, (before, closed)


def test_memory_split_per_process(small_field):
    tel = Telemetry()
    with scoped(tel):
        with StreamBroker(workers=2) as broker:
            assert len(list(broker.open(_frames(2), small_field))) == 2
            memory = broker.memory()
            gauges = tel.snapshot()["gauges"]
    if not os.path.exists("/proc/self/smaps_rollup"):
        assert memory is None
        return
    assert set(memory) == {"parent_mb", "workers_mb"}
    assert memory["parent_mb"] > 0 and memory["workers_mb"] > 0
    assert gauges["serve.mem_parent_mb"] == memory["parent_mb"]
    assert gauges["serve.mem_workers_mb"] == memory["workers_mb"]


def _shm_segments() -> set:
    """Names of the POSIX shared-memory segments in ``/dev/shm``."""
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_ring_keeps_one_copy_of_its_tables(monkeypatch):
    """The ring builds its tables after the fork and publishes them
    once: after the first frame no parent reference to the private
    LUTs (or their tables) is left, and closing the stream leaves none
    of its segments behind."""
    built = []

    def tracked(*args, **kwargs):
        luts = plane_luts(*args, **kwargs)
        built.extend(weakref.ref(obj) for lut in luts
                     for obj in (lut, lut.base, lut.mask))
        return luts

    plane_luts = stream_mod.plane_luts
    monkeypatch.setattr(stream_mod, "plane_luts", tracked)
    field = identity_map(64, 48)
    frames = (NV12Frame(np.full((48, 64), i, np.uint8),
                        np.full((24, 32, 2), 128, np.uint8))
              for i in range(4))
    before = _shm_segments()
    stream = stream_mod.corrected_stream(
        frames, field, engine="ring", workers=1, depth=2, pixfmt="nv12",
        out_size=(32, 24))
    try:
        assert next(stream).y.shape == (24, 32)
        alive = sum(ref() is not None for ref in built)
        assert built and not alive, \
            f"{alive} private table objects outlive the admission"
        assert len(list(stream)) == 3
    finally:
        stream.close()
    assert not _shm_segments() - before


@pytest.mark.parametrize("engine", ["sync", "pipelined"])
def test_thread_engines_drop_the_field_once_built(engine):
    """``sync`` and ``pipelined`` streams keep only their tables: after
    the first frame neither the calibration field nor its maps are
    alive, though the stream runs on."""
    field = identity_map(64, 48)
    refs = [weakref.ref(obj) for obj in (field, field.map_x, field.map_y)]
    stream = stream_mod.corrected_stream(_frames(4, (48, 64)), field,
                                         engine=engine)
    del field
    try:
        assert next(stream).shape == (48, 64)
        alive = sum(ref() is not None for ref in refs)
        assert not alive, f"{alive} field objects outlive the table build"
        assert len(list(stream)) == 3
    finally:
        stream.close()


def _ring_workers_mb(field, **request):
    """Workers' MB of a 2-worker ring NV12 stream over ``field``, fused
    to half size, after its first frame."""
    h, w = field.shape
    frames = (NV12Frame(np.full((h, w), i, np.uint8),
                        np.full((h // 2, w // 2, 2), 128, np.uint8))
              for i in range(2))
    open_before = set(broker_mod._open_brokers)
    stream = stream_mod.corrected_stream(
        frames, field, engine="ring", workers=2, depth=1, pixfmt="nv12",
        out_size=(w // 2, h // 2), **request)
    try:
        next(stream)
        (broker,) = set(broker_mod._open_brokers) - open_before
        return broker.memory()["workers_mb"]
    finally:
        stream.close()


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs Linux smaps_rollup")
def test_ring_fleet_forks_before_the_maps_exist():
    """A perspective field holds no maps when the ring forks, nor after
    the tables are built, so the workers' share of memory leaves out
    the maps' bytes.  The control is the same stream over a field whose
    maps were read before the fork: the workers then share them with
    the parent, two thirds of their bytes (run first, so the parent's
    heap growth between the runs cannot favour the recipe)."""
    maps_mb = 2 * 8 * 1920 * 1080 / 1e6
    control = standard_field.__wrapped__(1920, 1080, 1.0)
    control.map_x
    eager_mb = _ring_workers_mb(control)
    del control
    field = standard_field.__wrapped__(1920, 1080, 1.0)
    recipe_mb = _ring_workers_mb(field)
    assert recipe_mb < eager_mb - maps_mb / 3, (recipe_mb, eager_mb, maps_mb)
    assert not field.has_maps


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs Linux smaps_rollup")
def test_fleet_built_tables_leave_the_workers_no_heavier():
    """When the fleet builds a recipe's tables, each worker computes its
    bands' maps and trims its free heap once its last band is done, so
    after the first frame the workers hold what a parent build leaves
    them: the published tables and their own state.  The control is the
    same stream with a LUT cache, whose parent builds the tables (a
    field built from arrays would fork its maps into the workers and
    inflate the control).  The slack covers the tables' accounting: the
    parent of a fleet build never touches their pages, so the workers'
    proportional share holds all of the tables' bytes, not two thirds
    of them."""
    w, h = 1920, 1080
    tables_mb = 13 * (w // 2 * h // 2 + w // 4 * h // 4) / 1e6
    control = _ring_workers_mb(standard_field.__wrapped__(w, h, 1.0),
                               lut_cache=LUTCache())
    field = standard_field.__wrapped__(w, h, 1.0)
    fleet = _ring_workers_mb(field)
    assert fleet < control + tables_mb / 2 + 4, (fleet, control, tables_mb)
    assert not field.has_maps
