"""Tests: the ring's fleet builds a recipe's tables in place.

A :class:`~repro.video.pixfmt.TableRecipe` is built band by band by the
broker's workers, straight into the shared-memory publication
(``StreamBroker._build_tables``).  The published arrays must equal
those of ``SharedTables(*plane_luts(...))`` bit for bit, for every pixel
format, method and tier, on one or two workers started by ``fork`` or
``spawn``.  A ring stream over a recipe computes no map row and calls
``plane_luts`` not once in the parent.  A worker that dies or a recipe
that raises mid-build fails the admission with a typed
:class:`~repro.errors.StreamError`, releases its slots and leaves no
segment behind.
"""

import math
import os
import signal
import time

import numpy as np
import pytest

from repro.bench.harness import standard_sensor
from repro.core.intrinsics import CameraIntrinsics
from repro.core.mapping import RemapField, perspective_map
from repro.errors import StreamError
from repro.obs.telemetry import Telemetry, scoped
from repro.parallel.shmseg import SharedTables, attach_table_arrays
from repro.serve.broker import StreamBroker
from repro.video import pixfmt as pixfmt_mod
from repro.video import stream as stream_mod
from repro.video.pixfmt import TableRecipe, get_pixfmt, plane_luts
from repro.video.yuv import NV12Frame, YUV420Frame

pytestmark = pytest.mark.tier1

# even, for the 4:2:0 formats, and so is half of it; no output height
# here is a multiple of the 8-row blocks the band plan cuts
W, H = 64, 44

# (pixfmt, out_size): gray frames are packed frames of one channel, so
# their tables are the "rgb" row's (the ring stream test below streams
# gray frames)
FORMATS = [("rgb", None), ("yuv420", None), ("nv12", None),
           ("nv12", (W // 2, H // 2))]
METHODS = ["nearest", "bilinear", "bicubic"]
TIERS = ["numpy", "fixed"]


def _field():
    sensor, lens = standard_sensor(96, 72)
    focal = float(lens.magnification(1e-4)) * 0.7
    out = CameraIntrinsics(fx=focal, fy=focal, cx=(W - 1) / 2.0,
                           cy=(H - 1) / 2.0, width=W, height=H)
    # tilted, so part of the view is out of the lens FOV
    return perspective_map(sensor, lens, out, pitch=math.radians(60.0),
                           yaw=math.radians(20.0))


def _published(tables):
    """Copies of a publication's arrays, by LUT index and table name."""
    segments, arrays = attach_table_arrays(tables.spec)
    try:
        return [{k: v.copy() for k, v in a.items()} for a in arrays]
    finally:
        del arrays
        for shm in segments:
            shm.close()


def _shm_segments() -> set:
    return ({n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
            if os.path.isdir("/dev/shm") else set())


@pytest.fixture(scope="module", params=[(1, "fork"), (2, "fork"),
                                        (1, "spawn"), (2, "spawn")],
                ids=lambda p: f"w{p[0]}-{p[1]}")
def fleet(request):
    workers, context = request.param
    broker = StreamBroker(workers=workers, context=context)
    yield broker
    broker.close()


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pixfmt,out_size", FORMATS)
def test_fleet_tables_equal_the_parent_publication(fleet, pixfmt, out_size,
                                                   method, tier):
    fmt = get_pixfmt(pixfmt)
    field = _field()
    recipe = TableRecipe(fmt, field, out_size, tier, method=method)
    want_tables = SharedTables(*plane_luts(fmt, field, out_size, tier=tier,
                                           method=method))
    got_tables = fleet._build_tables(recipe, recipe.layouts())
    try:
        assert got_tables.meta == want_tables.meta
        assert got_tables.nbytes == want_tables.nbytes
        got, want = _published(got_tables), _published(want_tables)
    finally:
        got_tables.release()
        want_tables.release()
    assert len(got) == len(fmt.luts)
    for a, b in zip(got, want):
        assert list(a) == list(b)
        for name in b:
            assert a[name].dtype == b[name].dtype, name
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)
    assert not field.has_maps


def test_bicubic_publication_has_patch_rows(fleet):
    """The cases above include patch lists the bands join."""
    recipe = TableRecipe(get_pixfmt("nv12"), _field(), method="bicubic")
    tables = fleet._build_tables(recipe, recipe.layouts())
    try:
        assert "patch_pixels" in tables.spec[0]
    finally:
        tables.release()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs")
def test_workers_are_unpinned_after_the_build(fleet):
    """A worker builds pinned to one CPU, and gets its CPUs back once
    its last build band is done."""
    recipe = TableRecipe(get_pixfmt("nv12"), _field())
    fleet._build_tables(recipe, recipe.layouts()).release()
    allowed = os.sched_getaffinity(0)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(
            os.sched_getaffinity(p.pid) != allowed for p in fleet._procs):
        time.sleep(0.01)
    assert all(os.sched_getaffinity(p.pid) == allowed for p in fleet._procs)


# ----------------------------------------------------------------------
# a ring stream over a recipe
# ----------------------------------------------------------------------
def _frames(pixfmt, n=3, shape=(72, 96)):
    rng = np.random.default_rng(7)
    h, w = shape
    for _ in range(n):
        if pixfmt == "gray":
            yield rng.integers(0, 256, (h, w), dtype=np.uint8)
        elif pixfmt == "rgb":
            yield rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        elif pixfmt == "nv12":
            yield NV12Frame(rng.integers(0, 256, (h, w), dtype=np.uint8),
                            rng.integers(0, 256, (h // 2, w // 2, 2),
                                         dtype=np.uint8))
        else:
            yield YUV420Frame(*(rng.integers(0, 256, s, dtype=np.uint8)
                                for s in ((h, w), (h // 2, w // 2),
                                          (h // 2, w // 2))))


def _counted(field):
    """Output rows the parent's copy of ``field`` evaluates (a worker
    rebuilds its own evaluator from the pickled recipe)."""
    band, evaluated = field._band, []

    def counting(r0, r1, out_x, out_y):
        evaluated.append(r1 - r0)
        band(r0, r1, out_x, out_y)
    field._band = counting
    return evaluated


@pytest.mark.parametrize("pixfmt,out_size", [
    ("gray", None), ("rgb", None), ("yuv420", None),
    ("nv12", (W // 2, H // 2))])
def test_ring_parent_computes_no_map_and_builds_no_table(monkeypatch, pixfmt,
                                                         out_size):
    calls = []
    for module in (stream_mod, pixfmt_mod):
        real = module.plane_luts
        monkeypatch.setattr(
            module, "plane_luts",
            lambda *a, _real=real, **kw: calls.append(a) or _real(*a, **kw))
    request = dict(pixfmt="nv12" if pixfmt == "nv12" else
                   "yuv420" if pixfmt == "yuv420" else "rgb",
                   out_size=out_size, method="bicubic", kernel="fixed")
    want = list(stream_mod.corrected_stream(_frames(pixfmt), _field(),
                                            engine="sync", copy=True,
                                            **request))
    calls.clear()
    field = _field()
    evaluated = _counted(field)
    tel = Telemetry()
    with scoped(tel):
        got = list(stream_mod.corrected_stream(
            _frames(pixfmt), field, engine="ring", workers=2, depth=2,
            copy=True, **request))
    assert sum(evaluated) == 0 and calls == []
    assert not field.has_maps
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        for pa, pb in zip(getattr(a, "planes", (a,)),
                          getattr(b, "planes", (b,))):
            np.testing.assert_array_equal(pa, pb)
    snap = tel.snapshot()
    out_h = H if out_size is None else out_size[1]
    assert snap["counters"]["remap.build_rows"] == out_h
    assert snap["histograms"]["serve.table_build_seconds"]["count"] == 1
    bands = [s for s in tel.spans if s["name"] == "serve.build_band"]
    assert sum(s["args"]["rows"] for s in bands) == out_h
    assert {s["args"]["planes"] for s in bands} == {
        len(get_pixfmt(request["pixfmt"]).luts)}


# ----------------------------------------------------------------------
# build faults
# ----------------------------------------------------------------------
def _faulty_band(parent_pid, kill):
    """A band evaluator that, outside ``parent_pid``, SIGKILLs its
    process (``kill``) or raises."""
    def band(r0, r1, out_x, out_y):
        if os.getpid() != parent_pid:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("evaluator failed in a worker")
        out_x[...] = 1.0
        out_y[...] = 1.0
    return band


def _faulty_field(kill):
    return RemapField._recipe(_faulty_band, (os.getpid(), kill), (H, W),
                              96, 72)


@pytest.mark.parametrize("kill", [True, False], ids=["sigkill", "raise"])
def test_build_fault_fails_the_admission_typed_and_clean(kill):
    before = _shm_segments()
    broker = StreamBroker(workers=2, slot_budget=4)
    try:
        recipe = TableRecipe(get_pixfmt("nv12"), _faulty_field(kill))
        t0 = time.monotonic()
        with pytest.raises(StreamError) as info:
            broker._admit(_frames("nv12", shape=(72, 96)),
                          lambda: (None, recipe), depth=2, pixfmt="nv12")
        assert time.monotonic() - t0 < 10.0
        assert broker.slots_used == 0
        assert not _shm_segments() - before
        if kill:
            assert "died" in str(info.value)
        else:
            assert "ValueError" in str(info.value)
            # a failed build leaves the fleet serving
            session = broker.open(_frames("rgb", 2), _field(), depth=2)
            assert len(list(session)) == 2
    finally:
        broker.close()
    assert not _shm_segments() - before


@pytest.mark.parametrize("kill", [True, False], ids=["sigkill", "raise"])
def test_ring_stream_build_fault_raises_stream_error(kill):
    before = _shm_segments()
    stream = stream_mod.corrected_stream(
        _frames("rgb"), _faulty_field(kill), engine="ring", workers=2,
        depth=2)
    t0 = time.monotonic()
    with pytest.raises(StreamError):
        next(stream)
    assert time.monotonic() - t0 < 10.0
    assert not _shm_segments() - before
