"""The four camera workloads of the end-to-end benchmark.

Each workload drives the program only through its public front ends —
``corrected_stream(engine=...)``, ``MultiStreamCorrector.open_stream /
merged / stats`` and ``StreamSession.close`` — and builds its fields
and tables only with ``perspective_map``, ``RemapLUT``, ``composed_lut``
and ``YUVCorrector.from_field``.  Why each workload exists is recorded
in ``BENCHMARK.json`` and ``README.md``.

A workload body takes its amounts of work as parameters
(``capacity_s``, ``live_s``, ``setups``), so the tests can run it tiny.
"""

from __future__ import annotations

import functools
import gc
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.harness import standard_field
from repro.core.compose import composed_lut, downscale_field
from repro.core.mapping import chroma_half_field
from repro.core.remap import RemapLUT
from repro.errors import AdmissionError, ReproError
from repro.serve import MultiStreamCorrector
from repro.video import synth
from repro.video.stream import corrected_stream
from repro.video.yuv import NV12Frame, YUVCorrector

from harness import LIVE_GAP_S, Run, clock

POOL = 8          # source frames pre-rendered per workload
WORKERS = 2       # fleet size: every fleet runs on a 2-core host

# PTZ poses of serve-ptz-churn: pitch x yaw, degrees
PTZ_POSES = [(p, y) for p in (-30, 0, 30) for y in (-40, -15, 15, 40)]
PTZ_ZOOM = 1.0
PTZ_FRAMES = 3


def view_field(w, h, zoom, pitch=0.0, yaw=0.0):
    """A perspective view of the standard 180-degree fisheye sensor,
    built afresh by ``perspective_map`` on every call (the uncached
    ``standard_field``), so every set-up and switch pays for it."""
    return standard_field.__wrapped__(w, h, zoom, pitch=math.radians(pitch),
                                      yaw=math.radians(yaw))


def rgb_pool(w, h, seed):
    """``POOL`` 3-channel frames, one ``synth.urban`` seed per channel."""
    return [np.stack([synth.urban(w, h, seed=seed * 1000 + 3 * i + c)
                      for c in range(3)], axis=-1) for i in range(POOL)]


def nv12_pool(w, h, seed):
    return [NV12Frame.from_rgb(f) for f in rgb_pool(w, h, seed)]


def sync_oracle(frames, field, **request):
    """Outputs of the same request through the sync engine."""
    return list(corrected_stream(frames, field, engine="sync", copy=True,
                                 **request))


def _drain(run: Run, stream, src) -> None:
    """Deliver the rest of a stream; an engine error ends it early."""
    try:
        for out in stream:
            src.take(out)
    except ReproError as exc:
        run.errors.append(f"{src.stream}: {exc!r}")


# ----------------------------------------------------------------------
# set-ups
# ----------------------------------------------------------------------
def _with_setups(run: Run, setups: int, setup, phases) -> None:
    """Set up, run ``phases(*kept)`` on what the set-up kept, then set
    up ``setups - 1`` more times for the set-up time alone.

    ``setup(run, keep)`` returns its handles when ``keep`` is true (or
    ``None`` when it could not open them); otherwise it closes what it
    opened after its first frame.  ``phases`` closes the kept handles.

    Memory is sampled only up to the end of the phases.  Every closed
    set-up leaves tens of MB of freed but retained heap in the process,
    by an amount that varies from run to run, and that would otherwise
    show in the memory of the phases.  Before each set-up starts a
    fleet, outside the timing, garbage is collected and the survivors
    are frozen out of the collector: a forked worker shares the
    parent's heap pages copy-on-write, and a later full collection
    would write to every one of them, so the workers' memory would
    depend on whether one happened to run.
    """
    _quiesce()
    kept = setup(run, keep=True)
    if kept is not None:
        phases(*kept)
    run.stop_memory()
    run.cap_end = math.inf      # later set-ups' sources are closed loop
    for _ in range(setups - 1):
        _quiesce()
        setup(run, keep=False)


def _quiesce():
    gc.collect()
    gc.freeze()


def _setup_done(run, t0, t1, t2, t3, switch=True):
    """Record one set-up: field build t0-t1, engine start and opens
    t1-t2 (tables are built and published there by the broker; the
    lazy ``corrected_stream`` builds them in t2-t3), first frame t2-t3.

    Where the engine cannot re-aim without a restart (W1-W3) a set-up
    is also a camera switch.
    """
    run.setup_s.append(t3 - t0)
    if switch:
        run.samples["switch"].append(t3 - t0)
    run.event("setup.field", t0, t1)
    run.event("setup.open", t1, t2)
    run.event("setup.first_frame", t2, t3)
    run.samples["serve.first_frame"].append(t3 - t2)


# ----------------------------------------------------------------------
# corrected_stream workloads (sync, ring)
# ----------------------------------------------------------------------
def _stream_setup(make_field, open_stream, run, keep):
    """Field, lazy ``corrected_stream`` call, first frame (tables are
    built and, on the ring, the fleet started inside that first pull)."""
    src = run.source("main")
    t0 = clock()
    field = make_field()
    t1 = clock()
    stream = open_stream(src, field)
    t2 = clock()
    run.samples["serve.open"].append(t2 - t1)
    _setup_done(run, t0, t1, t2, src.take(next(stream)).delivered)
    if keep:
        return src, stream
    src.abandoned = True
    tc = clock()
    stream.close()
    run.event("serve.close", tc, clock())
    return None


def _single_stream(run: Run, make_field, open_stream, capacity_s, live_s,
                   rate, setups):
    """Set up, run the stream closed loop for ``capacity_s`` and open
    loop at ``rate`` for ``live_s``, then set up ``setups - 1`` more
    times."""
    def phases(src, stream):
        run.cap_end = clock() + capacity_s
        src.live = round(rate * live_s)
        src.rate = rate
        src.live_t0 = run.cap_end + LIVE_GAP_S
        try:
            _drain(run, stream, src)
            run.sample_memory()
        finally:
            stream.close()

    _with_setups(run, setups, functools.partial(
        _stream_setup, make_field, open_stream), phases)


def _prepare_sync(seed):
    frames = rgb_pool(1280, 720, seed)
    lut = RemapLUT(_w1_field())
    return frames, {(i,): lut.apply(f) for i, f in enumerate(frames)}


def _w1_field():
    return view_field(1280, 720, 0.5)


# at most ~70% of the capacity measured in slow host phases (8.6 fps
# and up), so the live phase builds no backlog
W1_RATE = 6.0


def _body_sync(run, capacity_s, live_s, setups):
    _single_stream(
        run, _w1_field,
        lambda src, field: corrected_stream(src, field, engine="sync"),
        capacity_s, live_s, rate=W1_RATE, setups=setups)


def _tables_rgb(field):
    lut = RemapLUT(field)
    out = np.empty(lut.out_shape + (3,), np.uint8)
    return lambda frame: lut.apply_into(frame, out)


W2_OUT = (1280, 720)
W2_REQUEST = dict(pixfmt="nv12", out_size=W2_OUT)


def _w2_field():
    return view_field(2560, 1440, 1.0)


def _prepare_ring(seed):
    frames = nv12_pool(2560, 1440, seed)
    oracle = sync_oracle(frames, _w2_field(), **W2_REQUEST)
    return frames, {(i,): o for i, o in enumerate(oracle)}


def _body_ring(run, capacity_s, live_s, setups):
    run.counts["workers"] = WORKERS
    _single_stream(
        run, _w2_field,
        lambda src, field: corrected_stream(
            src, field, engine="ring", workers=WORKERS, depth=3,
            **W2_REQUEST),
        capacity_s, live_s, rate=12.0, setups=setups)


def _tables_ring(field):
    fh, fw = field.shape
    ow, oh = W2_OUT
    luma = composed_lut(downscale_field(ow, oh, fw, fh, prefilter=False),
                        field)
    chroma = composed_lut(
        downscale_field(ow // 2, oh // 2, fw // 2, fh // 2, prefilter=False),
        chroma_half_field(field), fill=128.0)
    y = np.empty((oh, ow), np.uint8)
    uv = np.empty((oh // 2, ow // 2, 2), np.uint8)

    def apply(frame):
        luma.apply_into(frame.y, y)
        chroma.apply_into(frame.uv, uv)
    return apply


# ----------------------------------------------------------------------
# MultiStreamCorrector workloads
# ----------------------------------------------------------------------
W3_STREAMS = 8
# 8 x 3 fps = 24 fps offered: at most ~75% of the capacity measured in
# slow host phases (32 fps and up, with tracing on or off), so the live
# phase builds no backlog
W3_RATE = 3.0


def _w3_field():
    return view_field(640, 480, 0.5)


def _prepare_serve(seed):
    frames = rgb_pool(640, 480, seed)
    oracle = sync_oracle(frames, _w3_field())
    return frames, {(i,): o for i, o in enumerate(oracle)}


def _open(run, svc, src, field, **kwargs):
    """``open_stream`` timed as ``serve.open``; refusals are counted."""
    t0 = clock()
    try:
        session = svc.open_stream(src, field, name=src.stream, depth=2,
                                  **kwargs)
    except AdmissionError as exc:
        # the stream's frames stay expected, so they count as failed
        run.refused += 1
        run.errors.append(f"{src.stream}: {exc!r}")
        return None
    run.event("serve.open", t0, clock())
    return session


def _serve_setup(run, keep):
    """Field, broker start, 8 opens (one table build and publication),
    first frame out of ``merged()``."""
    t0 = clock()
    field = _w3_field()
    t1 = clock()
    svc = MultiStreamCorrector(workers=WORKERS, slot_budget=16)
    kept = False
    try:
        sources = [run.source(f"cam{i}") for i in range(W3_STREAMS)]
        sessions = [_open(run, svc, s, field) for s in sources]
        t2 = clock()
        merged = svc.merged([s for s in sessions if s is not None])
        by_name = {s.stream: s for s in sources}
        name, out = next(merged)
        _setup_done(run, t0, t1, t2, by_name[name].take(out).delivered)
        if keep:
            kept = True
            return svc, by_name, merged
        for src, session in zip(sources, sessions):
            src.abandoned = True
            if session is not None:
                tc = clock()
                session.close()
                run.event("serve.close", tc, clock())
        merged.close()
        return None
    finally:
        if not kept:
            svc.close()


def _body_serve(run, capacity_s, live_s, setups):
    run.counts["workers"] = WORKERS

    def phases(svc, by_name, merged):
        try:
            run.cap_end = clock() + capacity_s
            for i, src in enumerate(by_name.values()):
                src.live, src.rate = round(W3_RATE * live_s), W3_RATE
                # cameras are not synchronised: stagger the due times
                src.live_t0 = (run.cap_end + LIVE_GAP_S
                               + i / (W3_RATE * W3_STREAMS))
            try:
                for name, out in merged:
                    by_name[name].take(out)
            except ReproError as exc:
                run.errors.append(repr(exc))
            _lut_stats(run, svc)
            run.sample_memory()
        finally:
            svc.close()

    _with_setups(run, setups, _serve_setup, phases)


def _lut_stats(run, svc):
    stats = svc.stats()["lut_cache"]
    lookups = stats["hits"] + stats["misses"]
    run.counts["lut_misses"] = stats["misses"]
    run.counts["lut_hit_ratio"] = stats["hits"] / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# serve-ptz-churn
# ----------------------------------------------------------------------
W4_SIZE = (640, 480)
W4_BG_RATE = 15.0


def _w4_bg_field():
    return view_field(*W4_SIZE, 0.5)


def _w4_pose_field(pose):
    return view_field(*W4_SIZE, PTZ_ZOOM, pitch=pose[0], yaw=pose[1])


def _prepare_ptz(seed):
    frames = nv12_pool(*W4_SIZE, seed)
    oracles = {}
    for key, field in [("bg", _w4_bg_field())] + [
            (pose, _w4_pose_field(pose)) for pose in PTZ_POSES]:
        for i, out in enumerate(sync_oracle(frames, field, pixfmt="nv12")):
            oracles[(key, i)] = out
    return frames, oracles


def _ptz_setup(run, keep, live_s):
    """Field, broker start, background session open, its first frame."""
    t0 = clock()
    field = _w4_bg_field()
    t1 = clock()
    svc = MultiStreamCorrector(workers=WORKERS, slot_budget=8)
    kept = False
    try:
        bg_src = run.source("bg", key=("bg",), closed=0,
                            live=round(W4_BG_RATE * live_s), rate=W4_BG_RATE)
        bg = _open(run, svc, bg_src, field, pixfmt="nv12")
        if bg is None:
            return None
        t2 = clock()
        _setup_done(run, t0, t1, t2, bg_src.take(next(bg)).delivered,
                    switch=False)
        if keep:
            kept = True
            return svc, bg, bg_src
        bg_src.abandoned = True
        tc = clock()
        bg.close()
        run.event("serve.close", tc, clock())
        return None
    finally:
        if not kept:
            svc.close()


def _body_ptz(run, capacity_s, live_s, setups):
    """A background NV12 camera open loop plus a closed-loop PTZ operator.

    The set-up is the background session; the capacity phase is
    ``capacity_s`` of PTZ switches while the background keeps running
    for ``live_s`` from its start.  ``setups - 1`` more set-ups follow.
    """
    run.counts["workers"] = WORKERS

    def phases(svc, bg, bg_src):
        try:
            drain = threading.Thread(target=_drain, args=(run, bg, bg_src),
                                     name="e2e-drain")
            drain.start()
            try:
                _ptz_operator(run, svc, np.random.default_rng(run.seed),
                              capacity_s)
            finally:
                drain.join(timeout=live_s + 30.0)
            _lut_stats(run, svc)
            run.sample_memory()
        finally:
            svc.close()

    _with_setups(run, setups, functools.partial(_ptz_setup, live_s=live_s),
                 phases)


def _ptz_operator(run, svc, rng, capacity_s):
    """Closed loop: pick a pose, build its field, open, pull 3, close."""
    built = set()
    rebuilds = misses = 0
    frame_no = 0
    t_end = clock() + capacity_s
    while clock() < t_end:
        pose = PTZ_POSES[int(rng.integers(len(PTZ_POSES)))]
        src = run.source("ptz", key=(pose,), closed=PTZ_FRAMES,
                         first=frame_no)
        frame_no += PTZ_FRAMES
        t0 = clock()
        field = _w4_pose_field(pose)
        t1 = clock()
        run.event("setup.field", t0, t1, pose=list(pose))
        before = svc.stats()["lut_cache"]["misses"]
        session = _open(run, svc, src, field, pixfmt="nv12")
        if session is None:
            continue
        missed = svc.stats()["lut_cache"]["misses"] - before
        misses += missed
        rebuilds += missed if pose in built else 0
        built.add(pose)
        t2 = clock()
        try:
            for _ in range(PTZ_FRAMES):
                src.take(next(session))
        except (ReproError, StopIteration) as exc:
            run.errors.append(f"ptz {pose}: {exc!r}")
        t3 = src.records[0].delivered if src.delivered else clock()
        run.samples["switch"].append(t3 - t0)
        run.samples["serve.first_frame"].append(t3 - t2)
        tc = clock()
        session.close()
        run.event("serve.close", tc, clock())
    run.counts["lut_rebuild_ratio"] = rebuilds / misses if misses else 0.0


def _tables_ptz(field):
    corr = YUVCorrector.from_field(field)
    return lambda frame: corr.correct_nv12(frame)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One workload: inputs, body, tables and its share of a run.

    ``plan(seconds, live)`` turns the measured run length into the
    body's ``capacity_s`` and ``live_s``; ``live=False`` plans the
    capacity phase alone (the untraced base of a traced run).
    """

    name: str
    depth: int
    deadline_s: float
    prepare: Callable      # seed -> (frames, oracles)
    body: Callable         # (run, capacity_s, live_s, setups) -> None
    field: Callable        # () -> the workload's calibration field
    tables: Callable       # field -> apply(frame), built once
    plan: Callable         # seconds -> dict(capacity_s=, live_s=)


def _sequential(seconds, live=True):
    """Capacity phase, then live phase."""
    return {"capacity_s": 0.35 * seconds,
            "live_s": 0.65 * seconds if live else 0.0}


def _concurrent(seconds, live=True):
    """PTZ switching for the whole run beside the live background
    stream, which starts first and ends last."""
    capacity_s = seconds if live else 0.35 * seconds
    return {"capacity_s": capacity_s, "live_s": capacity_s + 0.5}


WORKLOADS = {w.name: w for w in [
    Workload(
        "sync-720p-rgb",
        depth=1, deadline_s=0.150, prepare=_prepare_sync, body=_body_sync,
        field=_w1_field, tables=_tables_rgb, plan=_sequential),
    Workload(
        "ring-qhd-nv12-fused",
        depth=3, deadline_s=0.100, prepare=_prepare_ring, body=_body_ring,
        field=_w2_field, tables=_tables_ring, plan=_sequential),
    Workload(
        "serve-8x-vga-rgb",
        depth=2, deadline_s=0.100, prepare=_prepare_serve, body=_body_serve,
        field=_w3_field, tables=_tables_rgb, plan=_sequential),
    Workload(
        "serve-ptz-churn",
        depth=2, deadline_s=0.100, prepare=_prepare_ptz, body=_body_ptz,
        field=_w4_bg_field, tables=_tables_ptz, plan=_concurrent),
]}
