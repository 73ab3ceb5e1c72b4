#!/usr/bin/env python
"""Perf-regression gate: one table of gates, one runner.

Each entry of :data:`GATES` measures one workload and lists its rows;
:func:`run_gates` evaluates every row, prints ``[ok]``, ``[FAIL]`` or
``[not_observable]``, writes the entry's ``BENCH_*.json`` (with a
``host`` block, never ``null``) and ends with a one-line JSON summary.
A row whose precondition the host does not meet reads
``not_observable`` and leaves the exit status alone; any other failed
row that is not ``recorded`` makes the exit status 1.

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_regression.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import string
import sys
import time
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks", "e2e"))

from run import host_block  # noqa: E402
from repro.accel.cellbe import CellModel  # noqa: E402
from repro.accel.platform import Workload  # noqa: E402
from repro.bench.experiments import f1_multicore_scaling, f7_lut_vs_otf  # noqa: E402
from repro.bench.harness import capture_metrics, standard_field, resolution  # noqa: E402
from repro.bench.stats import repeat_timing  # noqa: E402
from repro.core.compose import compose_fields, downscale_field  # noqa: E402
from repro.core.kernel_tiers import (  # noqa: E402
    DEFAULT_FRAC_BITS, available_tiers, kernel_tier, numba_available,
    numba_version)
from repro.core.lutcache import LUTCache  # noqa: E402
from repro.core.quality import psnr  # noqa: E402
from repro.core.remap import RemapLUT  # noqa: E402
from repro.obs import MetricsServer, parse_prometheus_text, write_metrics  # noqa: E402
from repro.obs.telemetry import Telemetry, scoped  # noqa: E402
from repro.parallel.ring import DEFAULT_SCHEDULE  # noqa: E402
from repro.serve import MultiStreamCorrector, StreamBroker  # noqa: E402
from repro.video import synth  # noqa: E402
from repro.video.stream import corrected_stream, panning_crops  # noqa: E402
from repro.video.yuv import YUV420Frame, YUVCorrector  # noqa: E402

BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_baseline.json")
METRICS_PATH = os.path.join(REPO_ROOT, "BENCH_metrics.json")
REPEATS = 5
#: cores needed for a parallel speedup to mean anything; with fewer
#: (or under ``--smoke``) the reduced configuration runs instead.
FULL_MIN_CORES = 4
NOT_OBSERVABLE = "not_observable"
KINDS = ("invariant", "wall_clock", "recorded")
PRECONDITIONS = ("always", "full", "smoke", "numba")
OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "==": operator.eq}
FIELDS = string.Formatter()


@dataclass(frozen=True)
class Row:
    """One gate: ``op(value, floor)`` must hold.

    ``value`` is a :meth:`str.format` field of the measured result (or
    a function of it); ``when`` names the host facts the row needs,
    joined by ``+``, and on a host without them the row reads
    ``not_observable``.  ``detail`` is formatted over the result plus
    ``value``.
    """

    label: str
    kind: str
    value: str | Callable[[dict], Any]
    floor: Any = True
    op: str | Callable[[Any, Any], bool] = ">="
    when: str = "always"
    detail: str = "{value}"


@dataclass(frozen=True)
class Gate:
    """One measurement and its rows; ``path`` is the BENCH file it
    writes at the repo root (``None``: print only)."""

    name: str
    measure: Callable[[bool], dict]
    rows: tuple
    path: str | None = None


def best_of(thunk) -> dict:
    """Best-of-``REPEATS`` seconds of ``thunk`` after one warm-up run,
    with the median and IQR of the same samples."""
    samples = repeat_timing(thunk, repeats=REPEATS)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"best_s": float(samples.min()), "median_s": float(median),
            "iqr_s": float(q3 - q1)}


def bilinear_workload(w: int, h: int):
    """An urban ``w`` x ``h`` frame, its bilinear LUT and an output."""
    frame = synth.urban(w, h)
    lut = RemapLUT(standard_field(w, h), method="bilinear")
    return frame, lut, np.empty(lut.out_shape, dtype=frame.dtype)


def measure_experiments(full: bool) -> dict:
    """F7 LUT-vs-OTF and F1 multicore scaling at VGA."""
    t7 = f7_lut_vs_otf(res="VGA")
    t1 = f1_multicore_scaling(resolutions=("VGA",))
    return {"lut_advantage": dict(zip(t7.column("platform"),
                                      t7.column("lut_advantage"))),
            "min_speedup": min(t1.column("speedup"))}


def measure_baseline(full: bool) -> dict:
    """Best-of-N 1080p fused bilinear apply and the compact LUT entry
    sizes, next to the reference numbers in ``BENCH_baseline.json``."""
    with open(BASELINE_PATH) as fh:
        base = json.load(fh)
    frame, lut, out = bilinear_workload(*resolution("1080p"))
    # the warm-up fills the kernel's scratch pool
    apply_s = best_of(lambda: lut.apply_into(frame, out))["best_s"]
    tol = float(base.get("overhead_tolerance", 0.05))
    baseline_s = float(base["fused_apply_into_s"])
    methods = ("nearest", "bilinear", "bicubic")
    return {"apply_ms": apply_s * 1e3,
            "seed_ms": float(base["seed_apply_s"]) * 1e3,
            "baseline_ms": baseline_s * 1e3, "tolerance": tol,
            "budget_ms": baseline_s * (1.0 + tol) * 1e3,
            "entry_bytes": {m: RemapLUT.entry_bytes_for(m) for m in methods},
            "seed_entry_bytes": {m: float(base["entry_bytes_seed"][m])
                                 for m in methods}}


def measure_kernels(full: bool) -> dict:
    """Every tier executable on this host (numpy, fixed, compiled with
    numba) on one bilinear uint8 LUT, plus the Q-format PSNR against
    the float oracle.  1080p when full, VGA otherwise."""
    res = "1080p" if full else "VGA"
    frame, base, _ = bilinear_workload(*resolution(res))
    # float oracle: the numpy tier run at float precision, rounded the
    # way the integer epilogue rounds
    oracle_f = base.apply(frame.astype(np.float32))
    oracle = np.clip(np.rint(oracle_f), 0, 255).astype(np.uint8)
    timing, outputs = {}, {}
    for tier in sorted(available_tiers()):
        lut = base.with_tier(tier)
        out = outputs[tier] = np.empty(lut.out_shape, dtype=frame.dtype)
        # the warm-up derives the tables / compiles the JIT
        timing[tier] = best_of(lambda: lut.apply_into(frame, out))
    result = {
        "resolution": res, "method": "bilinear", "dtype": "uint8",
        "frac_bits": DEFAULT_FRAC_BITS,
        "numba_available": numba_available(),
        "numba_version": numba_version(),
        "best_tier": kernel_tier(),
        "tiers_measured": sorted(timing),
        "tier_seconds": {t: timing[t]["best_s"] for t in timing},
        "tier_timing": timing,
        "psnr_fixed_db": float(psnr(oracle, outputs["fixed"])),
        "fixed_vs_numpy_exact": bool(
            np.abs(outputs["fixed"].astype(np.int16)
                   - outputs["numpy"].astype(np.int16)).max() <= 1),
    }
    if "compiled" in timing:
        result["compiled_speedup_vs_numpy"] = (
            timing["numpy"]["best_s"] / timing["compiled"]["best_s"])
        result["psnr_compiled_db"] = float(psnr(oracle, outputs["compiled"]))
        result["compiled_matches_fixed"] = bool(
            np.array_equal(outputs["compiled"], outputs["fixed"]))
    return result


def measure_stream(full: bool) -> dict:
    """Depth 1 vs depth N on one broker fleet: the paper's
    double-buffering ablation (F2/F5) at frame granularity.

    Every session sees an identical frame source (panning crops of an
    urban world, a stand-in decode step with real per-frame cost) and
    the same prebuilt LUT, on the same fleet and band schedule, so the
    ratio isolates the buffering: a ``depth=1`` session is a per-frame
    fork-join (frame *k+1* is not ingested until frame *k*'s slot is
    recycled), a ``depth=N`` session overlaps frames.  Session opens
    (table publication, slot allocation) are timed apart from the
    stream.
    """
    res, frames_n, workers, depth = (("1080p", 64, 4, 4) if full
                                     else ("VGA", 12, 2, 2))
    w, h = resolution(res)
    field = standard_field(w, h)
    # every session fetches this same LUT from the cache
    cache = LUTCache()
    lut = cache.get(field, method="bilinear")
    world = synth.urban(w + 128, h + 128)

    def source():
        return panning_crops(world, w, h, frames_n, step=16)

    def timed(broker, d):
        t0 = time.perf_counter()
        session = broker.open(source(), field, depth=d, copy=False)
        t1 = time.perf_counter()
        delivered = sum(1 for _ in session)
        return session, delivered, t1 - t0, time.perf_counter() - t1

    with StreamBroker(workers=workers, slot_budget=depth,
                      lut_cache=cache) as broker:
        # untimed warm-up: checks every frame against the sequential
        # kernel on its own source crop
        with broker.open(source(), field, depth=depth,
                         copy=False) as checked:
            frames_exact = sum(np.array_equal(got, lut.apply(src))
                               for src, got in zip(source(), checked))
        barrier, depth1_delivered, _, depth1_s = timed(broker, 1)
        ring, delivered, open_s, ring_s = timed(broker, depth)

    return {
        "resolution": res, "frames": frames_n, "workers": workers,
        "depth": depth, "schedule": DEFAULT_SCHEDULE, "method": "bilinear",
        "depth1_fps": depth1_delivered / depth1_s,
        "ring_fps": delivered / ring_s,
        "ring_speedup": depth1_s / ring_s,
        "ring_open_s": open_s,
        "ring_max_in_flight": ring.max_in_flight,
        "depth1_max_in_flight": barrier.max_in_flight,
        "delivered": delivered,
        "depth1_delivered": depth1_delivered,
        "frames_exact": frames_exact,
    }


def measure_serve(full: bool) -> dict:
    """The multi-stream broker against sequential multiplexing.

    Both sides correct the same frames (N streams of value-encoded
    constant VGA frames, one calibration): the baseline drains them
    round-robin through one inline kernel, the broker multiplexes all
    N sessions onto one fleet.  The centre pixel encodes
    ``(stream, index)``, so per-stream order is checked on every frame.
    """
    w, h = resolution("VGA")
    field = standard_field(w, h)
    lut = RemapLUT(field, method="bilinear")
    workers = 4 if full else 2
    per_stream = {4: 16, 16: 4} if full else {4: 3, 16: 2}

    def value(sid, k):
        return (sid * 29 + k) % 251

    def const_frames(sid, n):
        for k in range(n):
            yield np.full((h, w), value(sid, k), dtype=np.uint8)

    out = np.empty(lut.out_shape, dtype=np.uint8)
    lut.apply_into(np.full((h, w), 7, dtype=np.uint8), out)  # warm-up
    cy, cx = lut.out_shape[0] // 2, lut.out_shape[1] // 2
    runs = []
    for streams, n in per_stream.items():
        t0 = time.perf_counter()
        for k in range(n):
            for sid in range(streams):
                lut.apply_into(np.full((h, w), value(sid, k), np.uint8), out)
        seq_s = time.perf_counter() - t0

        with MultiStreamCorrector(workers=workers,
                                  slot_budget=2 * streams) as svc:
            sessions = [svc.open_stream(const_frames(i, n), field,
                                        name=f"s{i}")
                        for i in range(streams)]
            seen = {s.name: [] for s in sessions}
            t0 = time.perf_counter()
            for name, frame in svc.merged(sessions):
                seen[name].append(int(frame[cy, cx]))
            serve_s = time.perf_counter() - t0
        runs.append({
            "streams": streams, "frames_per_stream": n,
            "total_frames": streams * n,
            "sequential_fps": streams * n / seq_s,
            "aggregate_fps": streams * n / serve_s,
            "speedup_vs_sequential": seq_s / serve_s,
            "in_order": all(seen[f"s{i}"] == [value(i, k) for k in range(n)]
                            for i in range(streams)),
        })
    return {"resolution": "VGA", "method": "bilinear", "workers": workers,
            "runs": runs}


def measured_dma_ledger(lut, tile_rows: int, pixel_bytes: int = 1) -> dict:
    """Per-frame DMA bytes a banded engine actually needs, from the LUT.

    Walks the concrete gather table in ``tile_rows`` output bands: each
    band's source traffic is the byte span of the source bounding box
    its taps really address (what a DMA engine would fetch), plus the
    band's share of the table itself and its output stores.  This is
    the measured side of the reconciliation against
    :meth:`CellModel.planar_dma_profile`, which computes the same
    ledger analytically from the coordinate field.
    """
    oh, ow = lut.out_shape
    n = oh * ow
    keep = np.asarray(lut.mask).reshape(-1)
    src_bytes = 0
    for r0 in range(0, oh, tile_rows):
        r1 = min(oh, r0 + tile_rows)
        band = slice(r0 * ow, r1 * ow)
        sel = lut.tap_offsets(r0, r1)[keep[band]]
        if sel.size:
            rows, cols = np.divmod(sel, lut.src_shape[1])
            src_bytes += (int(np.ptp(rows)) + 1) * (int(np.ptp(cols)) + 1) \
                * pixel_bytes
    lut_bytes, out_bytes = lut.nbytes, n * pixel_bytes
    return {"tiles": -(-oh // tile_rows), "src_bytes": src_bytes,
            "lut_bytes": lut_bytes, "out_bytes": out_bytes,
            "total_bytes": src_bytes + lut_bytes + out_bytes}


def measure_yuv(full: bool) -> dict:
    """The planar YUV420 path against the packed baseline: per-plane
    bit-exactness, bytes touched vs RGB on identical content, in-order
    per-plane bands under the ring and a broker session, and the
    measured-vs-modeled DMA ledger."""
    res = "1080p" if full else "VGA"
    w, h = resolution(res)
    field = standard_field(w, h)
    corr = YUVCorrector.from_field(field)
    frame = YUV420Frame(
        synth.urban(w, h),
        np.tile(np.linspace(96, 160, w // 2).astype(np.uint8), (h // 2, 1)),
        np.tile(np.linspace(160, 96, h // 2).astype(np.uint8)[:, None],
                (1, w // 2)))

    # per-plane result vs the single-plane oracle (same LUTs, one
    # plane at a time through the public apply)
    out = corr.correct(frame, copy=True)
    plane_exact = (np.array_equal(out.y, corr.luma_lut.apply(frame.y))
                   and np.array_equal(out.u, corr.chroma_lut.apply(frame.u))
                   and np.array_equal(out.v, corr.chroma_lut.apply(frame.v)))

    # bytes actually touched: gather traffic + output stores, planar
    # vs the same content corrected as packed RGB through one LUT
    _, snap_yuv = capture_metrics(corr.correct, frame)
    yuv_bytes = snap_yuv["counters"]["remap.bytes_gathered"] + out.nbytes
    rgb_out = np.empty(corr.luma_lut.out_shape + (3,), dtype=np.uint8)
    _, snap_rgb = capture_metrics(corr.luma_lut.apply_into, frame.to_rgb(),
                                  rgb_out)
    rgb_bytes = snap_rgb["counters"]["remap.bytes_gathered"] + rgb_out.nbytes

    # in-order delivery of per-plane bands: value-encoded frames
    # through the planar ring engine and a planar broker session
    n_frames = 8 if full else 6

    def frames_src():
        for k in range(n_frames):
            yield YUV420Frame(
                np.full((h, w), (k * 37 + 11) % 251, dtype=np.uint8),
                np.full((h // 2, w // 2), 90, dtype=np.uint8),
                np.full((h // 2, w // 2), 170, dtype=np.uint8))

    expected = [corr.correct(f, copy=True) for f in frames_src()]

    def in_order(got):
        return len(got) == n_frames and all(
            np.array_equal(a, b) for g, e in zip(got, expected)
            for a, b in zip(g.planes, e.planes))

    ring_got = list(corrected_stream(frames_src(), field, pixfmt="yuv420",
                                     engine="ring", workers=2, depth=2,
                                     copy=True))
    with StreamBroker(workers=2, slot_budget=4) as broker:
        serve_got = list(broker.open(frames_src(), field, name="yuv-gate",
                                     pixfmt="yuv420", depth=2))

    # measured-vs-modeled DMA ledger, identical tiling on both sides
    tile_rows = 64
    wl_y = Workload.from_field(field,
                               lut_entry_bytes=corr.luma_lut.entry_bytes())
    wl_c = Workload.from_field(corr.chroma_field,
                               lut_entry_bytes=corr.chroma_lut.entry_bytes())
    modeled = CellModel().planar_dma_profile({"y": wl_y, "u": wl_c, "v": wl_c},
                                             tile_rows=tile_rows)
    meas_y = measured_dma_ledger(corr.luma_lut, tile_rows)
    meas_c = measured_dma_ledger(corr.chroma_lut, max(1, tile_rows // 2))
    measured_total = meas_y["total_bytes"] + 2 * meas_c["total_bytes"]

    return {
        "resolution": res, "frames": n_frames, "method": "bilinear",
        "plane_exact": plane_exact,
        "yuv_bytes_per_frame": int(yuv_bytes),
        "rgb_bytes_per_frame": int(rgb_bytes),
        "bytes_ratio": rgb_bytes / yuv_bytes,
        "ring_in_order": in_order(ring_got),
        "serve_in_order": in_order(serve_got),
        "tile_rows": tile_rows,
        "measured_dma_bytes": int(measured_total),
        "modeled_dma_bytes": int(modeled["total_bytes"]),
        "dma_rel_err": abs(measured_total - modeled["total_bytes"])
        / modeled["total_bytes"],
        "measured_planes": {"y": meas_y, "u": meas_c, "v": meas_c},
        "modeled_planes": {k: dict(p) for k, p in modeled["planes"].items()},
    }


def measure_fused(full: bool) -> dict:
    """Fused correct+downscale vs the two-pass pipeline on one frame.

    The composed table gathers once at the delivered resolution; the
    naive pipeline corrects at full resolution and then resamples the
    intermediate.  Recorded: the bytes-gathered ratio, the wall clock,
    the quality of the fused output against the two-pass reference and
    the float-precision gold render, and the modeled counterpart
    (``CellModel.fused_dma_profile``) for the accelerator narrative.
    """
    w, h, ow, oh, res = ((3840, 2160, 1920, 1080, "4K->1080p") if full
                         else (640, 480, 320, 240, "VGA->QVGA"))
    # zoom=1.0: the composed map stays well-sampled everywhere, so the
    # fused single gather tracks the two-pass reference above the
    # absolute PSNR floor (heavy rim compression at wider zooms costs
    # ~3 dB and is covered by the gold-delta fallback instead).
    field = standard_field(w, h, zoom=1.0)
    frame = synth.urban(w, h)
    outer = downscale_field(ow, oh, w, h, prefilter=False)
    fused_field = compose_fields(outer, field)
    lut_corr, lut_down, lut_fused = (RemapLUT(f, method="bilinear")
                                     for f in (field, outer, fused_field))
    mid = np.empty(lut_corr.out_shape, dtype=np.uint8)
    out_two = np.empty(lut_down.out_shape, dtype=np.uint8)
    out_fused = np.empty(lut_fused.out_shape, dtype=np.uint8)

    def two_pass():
        lut_corr.apply_into(frame, mid)
        lut_down.apply_into(mid, out_two)

    def fused():
        lut_fused.apply_into(frame, out_fused)

    # bytes actually gathered by each side (instrumented single run)
    two_bytes = capture_metrics(two_pass)[1]["counters"]["remap.bytes_gathered"]
    fused_bytes = capture_metrics(fused)[1]["counters"]["remap.bytes_gathered"]
    timing = {"two_pass": best_of(two_pass), "fused": best_of(fused)}
    # both sides are also scored against the float-precision gold
    # render (no intermediate quantization) for the delta fallback
    gold_f = lut_down.apply(lut_corr.apply(frame.astype(np.float32)))
    gold = np.clip(np.rint(gold_f), 0, 255).astype(np.uint8)
    model = CellModel().fused_dma_profile(
        Workload.from_field(fused_field,
                            lut_entry_bytes=lut_fused.entry_bytes()),
        {"correct": Workload.from_field(
            field, lut_entry_bytes=lut_corr.entry_bytes()),
         "downscale": Workload.from_field(
             outer, lut_entry_bytes=lut_down.entry_bytes())})

    two_s, fused_s = timing["two_pass"]["best_s"], timing["fused"]["best_s"]
    return {
        "resolution": res, "src_size": [w, h], "out_size": [ow, oh],
        "method": "bilinear", "zoom": 1.0,
        "two_pass_s": two_s, "fused_s": fused_s, "speedup": two_s / fused_s,
        "timing": timing,
        "two_pass_bytes_gathered": int(two_bytes),
        "fused_bytes_gathered": int(fused_bytes),
        "bytes_ratio": two_bytes / fused_bytes,
        "psnr_fused_vs_two_pass_db": float(psnr(out_two, out_fused)),
        "psnr_two_pass_gold_db": float(psnr(gold, out_two)),
        "psnr_fused_gold_db": float(psnr(gold, out_fused)),
        "modeled_savings_ratio": model["savings_ratio"],
        "modeled_fused_bytes": int(model["fused"]["total_bytes"]),
        "modeled_staged_bytes": int(model["staged_total_bytes"]),
    }


def measure_live_surface(full: bool) -> dict:
    """Scrape a small instrumented ring stream in-process.

    A VGA ring stream with the stall watchdog armed and a
    :class:`MetricsServer` pinned to the run's registry; ``/metrics``
    and ``/health`` are read over real HTTP mid-run.  Kept apart from
    the timing gates so those measure the uninstrumented hot path.
    """
    w, h = resolution("VGA")
    frames = panning_crops(synth.urban(w + 64, h + 64), w, h, 8, step=16)

    def fetch(url):
        with urllib.request.urlopen(url) as r:
            return r.read().decode()

    with scoped(Telemetry()) as tel, \
            MetricsServer(telemetry=tel, port=0) as server:
        delivered = 0
        series, health = {}, {}
        for _ in corrected_stream(frames, standard_field(w, h), engine="ring",
                                  workers=2, depth=2, stall_timeout_s=30.0):
            delivered += 1
            if delivered == 4:  # scrape mid-stream, frames in flight
                series = parse_prometheus_text(fetch(server.url + "/metrics"))
                health = json.loads(fetch(server.url + "/health"))
        snap = tel.snapshot()
    return {"delivered": delivered, "series": len(series),
            "has_e2e": "repro_frame_e2e_latency_seconds_count" in series,
            "health_status": health.get("status", "<none>"),
            "stalls": snap["counters"].get("stream.stalls", 0),
            "e2e_count": snap["histograms"].get(
                "frame.e2e_latency_seconds", {}).get("count")}


def measure_metrics_snapshot(full: bool) -> dict:
    """Instrumented VGA correction run; the telemetry snapshot lands in
    ``BENCH_metrics.json`` so CI archives the counter shape."""
    frame, lut, out = bilinear_workload(*resolution("VGA"))

    def run():
        for _ in range(3):
            lut.apply_into(frame, out)

    snap = write_metrics(capture_metrics(run)[1], METRICS_PATH)
    return {"frames": snap["counters"].get("remap.frames", 0),
            "path": os.path.relpath(METRICS_PATH, REPO_ROOT)}


FPS_VS_DEPTH1 = ("depth {depth} {ring_fps:.1f} fps vs depth 1 {depth1_fps:.1f} "
                 "fps ({ring_speedup:.2f}x)")
SERVE_FPS = ("aggregate {runs[%d][aggregate_fps]:.1f} fps vs sequential "
             "{runs[%d][sequential_fps]:.1f} fps "
             "({runs[%d][speedup_vs_sequential]:.2f}x)")
FUSED_CLOCK = ("two-pass {two_pass_s:.4f} s vs fused {fused_s:.4f} s "
               "({value:.2f}x)")
COMPILED_CLOCK = ("compiled {tier_seconds[compiled]:.4f} s vs numpy "
                  "{tier_seconds[numpy]:.4f} s ({value:.2f}x)")

GATES = (
    Gate("experiments", measure_experiments, (
        # the models keep telling the paper's F7 story ...
        Row("sequential favours LUT", "invariant",
            "lut_advantage[sequential]", 1.5, ">", detail="{value:.2f}"),
        # ... and so does this host's numpy kernel
        Row("host(numpy) favours LUT", "wall_clock",
            "lut_advantage[host(numpy)]", 1.5, ">", detail="{value:.2f}"),
        Row("parallel speedup positive", "invariant", "min_speedup", 0, ">",
            detail="{value:.2f}"),
    )),
    Gate("baseline", measure_baseline, (
        # the fused kernel stays faster than the per-tap seed kernel
        Row("fused apply beats seed kernel", "wall_clock",
            lambda r: r["seed_ms"] / r["apply_ms"], 1.0, ">",
            detail="measured {apply_ms:.1f} ms vs seed {seed_ms:.1f} ms "
                   "({value:.2f}x)"),
        # disabled telemetry stays within 5% of an absolute, cross-host
        # baseline: sensitive to host noise
        Row("disabled telemetry within budget", "wall_clock",
            lambda r: r["apply_ms"] / r["budget_ms"], 1.0, "<=",
            detail="measured {apply_ms:.1f} ms vs budget {budget_ms:.1f} ms "
                   "(baseline {baseline_ms:.1f} ms + {tolerance:.0%})"),
        # the compact table layout keeps its size advantage
        *(Row(f"{m} entry >= 40% smaller", "invariant",
              lambda r, m=m: r["entry_bytes"][m] / r["seed_entry_bytes"][m],
              0.6, "<=", detail=f"{{entry_bytes[{m}]}} B vs seed "
                                f"{{seed_entry_bytes[{m}]:.0f}} B")
          for m in ("nearest", "bilinear", "bicubic")),
    )),
    Gate("kernels", measure_kernels, (
        # the Q-format quality floor; the fixed tier runs on any host
        Row("fixed tier PSNR >= 40.0 dB vs float oracle", "invariant",
            "psnr_fixed_db", 40.0, detail="{value:.1f} dB at Q{frac_bits}"),
        Row("fixed tier within 1 LSB of numpy tier", "invariant",
            "fixed_vs_numpy_exact"),
        Row("compiled tier bit-exact with fixed tier", "invariant",
            "compiled_matches_fixed", when="numba"),
        # the JIT pays for itself where it has the cores to show it
        Row("compiled beats fused numpy by 2.0x", "wall_clock",
            "compiled_speedup_vs_numpy", 2.0, when="full+numba",
            detail=COMPILED_CLOCK),
        Row("compiled speedup (recorded, not gated)", "recorded",
            "compiled_speedup_vs_numpy", when="smoke+numba",
            detail=COMPILED_CLOCK),
    ), "BENCH_kernels.json"),
    Gate("stream", measure_stream, (
        Row("ring delivered every frame", "invariant",
            lambda r: r["delivered"] == r["depth1_delivered"] == r["frames"],
            detail="{delivered}/{frames} (depth 1: {depth1_delivered})"),
        Row("ring output matches sequential kernel", "invariant",
            lambda r: r["frames_exact"] == r["frames"],
            detail="{frames_exact}/{frames} frames exact"),
        # with depth >= 2 frames overlap, or the ring is a slow fork-join
        Row("ring kept frames in flight", "invariant", "ring_max_in_flight", 2,
            detail="max in flight {value} (depth {depth})"),
        # ... and at depth 1 they never do: a per-frame barrier
        Row("depth-1 session held one frame at a time", "invariant",
            "depth1_max_in_flight", 1, "==",
            detail="max in flight {value} (depth 1)"),
        # frame overlap beats the per-frame barrier, given real cores
        Row("ring depth N beats depth 1 by 1.3x", "wall_clock",
            "ring_speedup", 1.3, when="full", detail=FPS_VS_DEPTH1),
        Row("ring above 2.0 fps floor", "wall_clock", "ring_fps", 2.0,
            when="smoke", detail=FPS_VS_DEPTH1),
        # session set-up, kept out of both streams' fps
        Row("ring session open (recorded, not gated)", "recorded",
            "ring_open_s", detail="{value:.4f} s"),
    ), "BENCH_stream.json"),
    Gate("serve", measure_serve, tuple(
        row for i, n in enumerate((4, 16)) for row in (
            Row(f"{n} streams strictly in order per stream", "invariant",
                f"runs[{i}][in_order]", detail="{runs[%d][total_frames]} "
                "frames through {workers} workers" % i),
            # the aggregate-vs-sequential ratio needs real cores ...
            Row(f"{n} streams beat sequential by 1.5x", "wall_clock",
                f"runs[{i}][speedup_vs_sequential]", 1.5, when="full",
                detail=SERVE_FPS % (i, i, i)),
            # ... but on 1-2 cores a broken or glacial broker still fails
            Row(f"{n} streams above 2.0 fps floor", "wall_clock",
                f"runs[{i}][aggregate_fps]", 2.0, when="smoke",
                detail=SERVE_FPS % (i, i, i)))), "BENCH_serve.json"),
    Gate("yuv", measure_yuv, (
        Row("per-plane output bit-exact vs single-plane oracle", "invariant",
            "plane_exact"),
        # the zero-copy, no-conversion payoff of staying planar
        Row("planar touches 1.7x fewer bytes than RGB", "invariant",
            "bytes_ratio", 1.7, detail="rgb {rgb_bytes_per_frame:,} B vs yuv "
            "{yuv_bytes_per_frame:,} B per frame ({value:.2f}x)"),
        Row("ring delivers planar frames in order", "invariant",
            "ring_in_order"),
        Row("broker session delivers planar frames in order", "invariant",
            "serve_in_order"),
        # the measured per-band ledger reconciles with the Cell model
        Row("measured DMA within 15% of Cell model", "invariant",
            "dma_rel_err", 0.15, "<=", detail="measured {measured_dma_bytes:,}"
            " B vs modeled {modeled_dma_bytes:,} B ({value:.1%} off)"),
    ), "BENCH_yuv.json"),
    Gate("fused", measure_fused, (
        # a property of the tables, not of the host
        Row("fused gathers 1.8x fewer bytes", "invariant", "bytes_ratio", 1.8,
            detail="two-pass {two_pass_bytes_gathered:,} B vs fused "
                   "{fused_bytes_gathered:,} B ({value:.2f}x)"),
        Row("fused beats two-pass wall clock by 1.5x", "wall_clock",
            "speedup", 1.5, when="full", detail=FUSED_CLOCK),
        Row("fused beats two-pass wall clock by 1.2x", "wall_clock",
            "speedup", 1.2, when="smoke", detail=FUSED_CLOCK),
        # the absolute floor vs two-pass, or no worse than two-pass vs gold
        Row("fused within 40.0 dB floor or 1.0 dB of two-pass vs gold",
            "invariant",
            lambda r: (r["psnr_fused_vs_two_pass_db"],
                       r["psnr_two_pass_gold_db"] - r["psnr_fused_gold_db"]),
            (40.0, 1.0), lambda v, f: v[0] >= f[0] or v[1] <= f[1],
            detail="{psnr_fused_vs_two_pass_db:.1f} dB vs two-pass (gold: "
                   "fused {psnr_fused_gold_db:.1f} dB, two-pass "
                   "{psnr_two_pass_gold_db:.1f} dB)"),
        Row("modeled DMA savings (recorded, not gated)", "recorded",
            "modeled_savings_ratio", detail="staged {modeled_staged_bytes:,} "
            "B vs fused {modeled_fused_bytes:,} B ({value:.2f}x)"),
    ), "BENCH_fused.json"),
    Gate("live", measure_live_surface, (
        Row("ring delivered every frame", "invariant", "delivered", 8, "=="),
        Row("/metrics parses and carries e2e latency", "invariant",
            "has_e2e", detail="{series} series at scrape time"),
        Row("/health reports ok", "invariant", "health_status", "ok", "=="),
        Row("no watchdog fires", "invariant", "stalls", 0, "=="),
        Row("e2e histogram complete", "invariant", "e2e_count", 8, "=="),
    )),
    Gate("metrics", measure_metrics_snapshot, (
        Row("snapshot recorded frames", "invariant", "frames", 0, ">",
            detail="remap.frames={value} -> {path}"),
    )),
)


def no_nulls(doc):
    """``doc`` with every ``None`` replaced by ``"not_observable"``."""
    if isinstance(doc, dict):
        return {k: no_nulls(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [no_nulls(v) for v in doc]
    return NOT_OBSERVABLE if doc is None else doc


def run_gates(gates, facts: set, out_dir: str = REPO_ROOT) -> int:
    """Evaluate every row of ``gates`` on a host with ``facts``, write
    each gate's BENCH file under ``out_dir`` and print the summary as
    the last stdout line; returns the exit status."""
    summary = {"failed": [], "failed_invariant": [], "not_observable": []}
    mode = "full" if "full" in facts else "smoke"
    for gate in gates:
        print(f"== {gate.name} ==")
        result = gate.measure(mode == "full")
        verdicts = {}
        for row in gate.rows:
            name = f"{gate.name}: {row.label}"
            verdict = verdicts[row.label] = {"kind": row.kind, "when": row.when}
            if row.kind != "recorded":
                verdict["floor"] = row.floor
            if not set(row.when.split("+")) <= facts:
                verdict["value"] = verdict["verdict"] = NOT_OBSERVABLE
                summary["not_observable"].append(name)
                print(f"  [{NOT_OBSERVABLE}] {row.label}: needs {row.when}")
                continue
            value = (row.value(result) if callable(row.value)
                     else FIELDS.get_field(row.value, (), result)[0])
            ok = (row.kind == "recorded"
                  or bool(OPS.get(row.op, row.op)(value, row.floor)))
            verdict.update(value=value, verdict="ok" if ok else "FAIL")
            if not ok:
                summary["failed"].append(name)
                if row.kind == "invariant":
                    summary["failed_invariant"].append(name)
            print(f"  [{'ok' if ok else 'FAIL'}] {row.label}: "
                  f"{row.detail.format(value=value, **result)}")
        if gate.path:
            doc = {"mode": mode, "cpu_count": os.cpu_count(), **result,
                   "host": host_block(None), "gates": verdicts}
            with open(os.path.join(out_dir, gate.path), "w") as fh:
                json.dump(no_nulls(doc), fh, indent=2)
                fh.write("\n")
            print(f"  -> {gate.path} (mode={mode})")
    print("FAIL" if summary["failed"] else "PASS")
    print(json.dumps(summary))
    return 1 if summary["failed"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="force the reduced configuration (small frames, "
                             "floors instead of speedup gates) regardless "
                             "of core count")
    args = parser.parse_args()
    full = not args.smoke and (os.cpu_count() or 1) >= FULL_MIN_CORES
    facts = {"always", "full" if full else "smoke"}
    if numba_available():
        facts.add("numba")
    return run_gates(GATES, facts)


if __name__ == "__main__":
    sys.exit(main())
