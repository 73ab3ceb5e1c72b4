"""The evaluation: one function per table/figure (T1, T2, F1..F12).

Each experiment returns a :class:`~repro.bench.report.Table`; the
``benchmarks/`` tree wraps these in pytest-benchmark entry points and
EXPERIMENTS.md quotes their output.  The registry :data:`EXPERIMENTS`
maps experiment ids to functions so examples and docs can run any of
them by name.

Model-driven experiments (platform comparisons, scaling sweeps) are
deterministic; host-measured experiments (T2, parts of F7/F8) time the
real numpy kernels on the machine running the suite.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import BenchmarkError, CapacityError
from ..core.brown_conrady import fit_brown_conrady
from ..core.fixedpoint import packed_entry_bytes
from ..core.intrinsics import CameraIntrinsics
from ..core.mapping import perspective_map
from ..core.quality import (
    perspective_reference_coords,
    psnr,
    warp_composition_error,
)
from ..core.remap import RemapLUT, remap, remap_profiled
from ..core.interpolation import sample
from ..accel import kernel_spec, place
from ..accel.platform import STANDARD_RESOLUTIONS, Workload
from ..accel.presets import (
    all_platforms,
    cell_ps3,
    gtx280,
    sequential_reference,
    xeon_2010,
    xeon_modern,
)
from ..parallel.partition import blocks
from ..sim.cache import CacheConfig, CacheSim
from ..sim.trace import tile_gather_trace
from ..video import synth
from .harness import amdahl_fit, resolution, standard_field, standard_sensor, standard_workload
from .report import Table

__all__ = [
    "t1_platforms",
    "t2_sequential_profile",
    "f1_multicore_scaling",
    "f2_cell_scaling",
    "f3_gpu_block_sweep",
    "f4_platform_fps",
    "f5_dma_overlap",
    "f6_tile_size_cache",
    "f7_lut_vs_otf",
    "f8_interpolation",
    "f9_roofline",
    "f10_model_quality",
    "f11_scaling_efficiency",
    "f12_fixed_point",
    "EXPERIMENTS",
    "EXPERIMENT_ORDER",
    "resolve_experiments",
    "run_experiment",
]


# ----------------------------------------------------------------------
# T1 — platform characteristics
# ----------------------------------------------------------------------
def t1_platforms() -> Table:
    """Machine-park characteristics table."""
    table = Table(
        "T1: platform characteristics (model parameters)",
        ["platform", "cores", "clock_ghz", "simd", "peak_gflops", "mem_bw_gbps"],
    )
    for p in all_platforms():
        d = p.describe()
        table.add_row(d["platform"], d.get("cores", 1), d.get("clock_ghz", 0.0),
                      d.get("simd", "-"), d["peak_gflops"], d["mem_bw_gbps"])
    table.notes.append("Cell local store: 256 KB/SPE; FPGA line buffer: 192 KB; "
                       "GPU host link: PCIe 5 GB/s.")
    return table


# ----------------------------------------------------------------------
# T2 — sequential profile (host-measured)
# ----------------------------------------------------------------------
def t2_sequential_profile(res: str = "720p", method: str = "bilinear") -> Table:
    """Wall-clock stage breakdown of one correction on this host."""
    w, h = resolution(res)
    t0 = time.perf_counter()
    field = standard_field(w, h)
    map_build = time.perf_counter() - t0
    frame = synth.urban(w, h)
    _, prof = remap_profiled(frame, field, method=method)
    prof.map_build = map_build
    table = Table(
        f"T2: sequential stage profile ({res}, {method}, host-measured)",
        ["stage", "ms", "pct_of_frame"],
    )
    per_frame = prof.total - prof.map_build - prof.lut_build
    for stage, seconds in prof.as_dict().items():
        if stage == "total":
            continue
        pct = 100.0 * seconds / per_frame if stage in ("gather", "interpolate", "store") else float("nan")
        table.add_row(stage, seconds * 1e3, pct)
    table.add_row("per_frame_total", per_frame * 1e3, 100.0)
    table.notes.append("map_build and lut_build amortize across a stream; "
                       "per-frame work is gather+interpolate+store.")
    return table


# ----------------------------------------------------------------------
# F1 — multicore speedup vs threads
# ----------------------------------------------------------------------
def f1_multicore_scaling(resolutions=("VGA", "720p", "1080p"),
                         mode: str = "otf") -> Table:
    """Speedup over the 1-thread scalar run, per resolution."""
    smp = xeon_modern()
    table = Table(
        f"F1: SMP speedup vs threads ({mode} kernel, {smp.name})",
        ["resolution", "threads", "fps", "speedup", "efficiency", "bottleneck"],
    )
    for res in resolutions:
        workload = standard_workload(res, mode=mode)
        base = smp.estimate_frame(workload, threads=1)
        for rep in smp.scaling(workload):
            t = rep.notes["threads"]
            s = rep.speedup_over(base)
            table.add_row(res, t, rep.fps, s, s / t, rep.bottleneck)
    table.notes.append("Scaling saturates where the kernel turns memory-bound; "
                       "the knee moves left for the LUT kernel (see F7).")
    return table


# ----------------------------------------------------------------------
# F2 — Cell speedup vs SPEs, single vs double buffering
# ----------------------------------------------------------------------
def f2_cell_scaling(res: str = "720p", method: str = "bilinear",
                    mode: str = "otf") -> Table:
    """SPE scaling with and without DMA double buffering."""
    cell = cell_ps3()
    workload = standard_workload(res, method=method, mode=mode)
    table = Table(
        f"F2: Cell scaling ({res}, {method}/{mode})",
        ["spes", "buffering", "fps", "speedup", "bus_util", "bottleneck"],
    )
    base = cell.simulate(workload, spes=1, double_buffering=False)
    for db in (False, True):
        for rep in cell.scaling(workload, double_buffering=db):
            table.add_row(rep.notes["spes"], "double" if db else "single",
                          rep.fps, rep.speedup_over(base),
                          rep.notes["bus_utilization"], rep.bottleneck)
    table.notes.append("Double buffering halves the usable local store but "
                       "overlaps DMA with compute.")
    return table


# ----------------------------------------------------------------------
# F3 — GPU block-size / occupancy sweep
# ----------------------------------------------------------------------
def f3_gpu_block_sweep(res: str = "720p", method: str = "bilinear") -> Table:
    """Launch-configuration sweep at two register pressures."""
    gpu = gtx280()
    workload = standard_workload(res, method=method, mode="lut")
    table = Table(
        f"F3: GPU block-size sweep ({res}, {method}/lut)",
        ["block", "regs/thread", "occupancy", "limiter", "kernel_ms", "fps", "bottleneck"],
    )
    for regs in (16, 32):
        for rep in gpu.block_size_sweep(workload, registers_per_thread=regs):
            table.add_row(rep.notes["block_size"], regs, rep.notes["occupancy"],
                          rep.notes["occupancy_limiter"],
                          rep.notes["kernel_ns"] / 1e6, rep.fps, rep.bottleneck)
    table.notes.append("fps is end-to-end including PCIe; kernel_ms is device-only.")
    return table


# ----------------------------------------------------------------------
# F4 — headline cross-platform comparison
# ----------------------------------------------------------------------
def _best_estimate(platform, res: str, method: str):
    """Best (mode-tuned) report for a platform at a resolution."""
    best = None
    for mode in ("lut", "otf"):
        workload = standard_workload(res, method=method, mode=mode)
        try:
            if hasattr(platform, "simulate"):
                rep = platform.simulate(workload)
            elif hasattr(platform, "block_size_sweep"):
                rep = platform.estimate_frame(workload, overlap_transfers=True)
            else:
                rep = platform.estimate_frame(workload)
        except CapacityError:
            continue
        rep.notes["mode"] = mode
        if best is None or rep.frame_ns < best.frame_ns:
            best = rep
    if best is None:
        raise BenchmarkError(f"no feasible configuration for {platform.name} at {res}")
    return best


def f4_platform_fps(resolutions=None, method: str = "bilinear") -> Table:
    """Frames/s of every platform at every resolution (mode-tuned)."""
    if resolutions is None:
        resolutions = list(STANDARD_RESOLUTIONS)
    table = Table(
        f"F4: corrected frames per second ({method}, best of lut/otf per platform)",
        ["resolution", "platform", "mode", "fps", "speedup_vs_seq", "bottleneck"],
    )
    for res in resolutions:
        seq = _best_estimate(sequential_reference(), res, method)
        for platform in all_platforms():
            rep = _best_estimate(platform, res, method)
            table.add_row(res, platform.name, rep.notes["mode"], rep.fps,
                          rep.speedup_over(seq), rep.bottleneck)
    table.notes.append("speedup_vs_seq is against the tuned single-core scalar run.")
    return table


# ----------------------------------------------------------------------
# F5 — Cell DMA/compute overlap vs tile size
# ----------------------------------------------------------------------
def f5_dma_overlap(res: str = "720p", method: str = "bicubic",
                   mode: str = "otf") -> Table:
    """Tile-size sweep on Cell: overlap efficiency of double buffering."""
    cell = cell_ps3()
    workload = standard_workload(res, method=method, mode=mode)
    table = Table(
        f"F5: Cell DMA/compute overlap vs tile size ({res}, {method}/{mode})",
        ["tile_rows", "buffering", "frame_ms", "compute_ms", "dma_exposed_ms",
         "bus_util", "overlap_gain"],
    )
    max_single = cell.max_tile_rows(workload, double_buffering=False)
    max_double = cell.max_tile_rows(workload, double_buffering=True)
    candidates = sorted({1, 2, 4, 8, max_double, max_single})
    for rows in candidates:
        reps = {}
        for db in (False, True):
            limit = max_double if db else max_single
            if rows > limit:
                continue
            reps[db] = cell.simulate(workload, double_buffering=db, tile_rows=rows)
        gain = (reps[False].frame_ns / reps[True].frame_ns
                if False in reps and True in reps else float("nan"))
        for db, rep in sorted(reps.items()):
            table.add_row(rows, "double" if db else "single",
                          rep.frame_ns / 1e6,
                          rep.breakdown.phases.get("compute", 0) / 1e6,
                          rep.breakdown.phases.get("dma_exposed", 0) / 1e6,
                          rep.notes["bus_utilization"],
                          gain if db else float("nan"))
    table.notes.append(f"local-store limits: {max_single} rows single-buffered, "
                       f"{max_double} double-buffered.")
    return table


# ----------------------------------------------------------------------
# F6 — tile size vs gather locality (cache replay)
# ----------------------------------------------------------------------
def f6_tile_size_cache(res: str = "720p", cache_kb=(2, 4, 8, 16, 32, 64),
                       band_rows: int = 96, block: int = 48,
                       pixel_bytes: int = 4) -> Table:
    """Gather locality: cache-size sweep, row-major vs blocked traversal.

    Replays the *actual* source-gather address trace of the frame's top
    band (where the fisheye arcs are widest and locality is worst)
    through a set-associative LRU cache, once in row-major output order
    (the naive loop) and once restructured into ``block x block``
    tiles.  Blocking reaches the hit-rate plateau with a ~4x smaller
    cache — the paper's justification for tiled decomposition on
    cache-based multicores.
    """
    from ..parallel.partition import Tile
    w, h = resolution(res)
    field = standard_field(w, h)
    lut = RemapLUT(field, method="nearest")  # 1 tap/pixel: the address stream
    band = [Tile(0, band_rows, 0, w)]
    tiles = [Tile(t.row0, t.row1, t.col0, t.col1)
             for t in blocks(band_rows, w, block, block)]
    trace_row = np.concatenate(
        [tile_gather_trace(lut, t, pixel_bytes=pixel_bytes) for t in band])
    trace_blk = np.concatenate(
        [tile_gather_trace(lut, t, pixel_bytes=pixel_bytes) for t in tiles])
    table = Table(
        f"F6: gather locality, row-major vs {block}x{block} blocked "
        f"({res} top {band_rows} rows, {pixel_bytes} B/px)",
        ["cache_kb", "traversal", "hit_rate", "miss_bytes_per_px"],
    )
    for kb in cache_kb:
        cache = CacheSim(CacheConfig(size_bytes=kb * 1024, line_bytes=64, ways=4))
        for label, trace in (("row-major", trace_row), ("blocked", trace_blk)):
            stats = cache.replay(trace)
            table.add_row(kb, label, stats.hit_rate,
                          stats.miss_bytes(64) / stats.accesses)
    table.notes.append("Blocked traversal reaches its plateau with a ~4x "
                       "smaller cache than the row-major loop.")
    return table


# ----------------------------------------------------------------------
# F7 — LUT vs on-the-fly
# ----------------------------------------------------------------------
def f7_lut_vs_otf(res: str = "720p", method: str = "bilinear") -> Table:
    """The central ablation: precomputed table vs recomputation."""
    platforms = [sequential_reference(), xeon_2010(), xeon_modern(), cell_ps3(), gtx280()]
    table = Table(
        f"F7: LUT vs on-the-fly mapping ({res}, {method})",
        ["platform", "fps_lut", "fps_otf", "lut_advantage", "lut_bound", "otf_bound"],
    )
    wl_lut = standard_workload(res, method=method, mode="lut")
    wl_otf = standard_workload(res, method=method, mode="otf")
    for p in platforms:
        if hasattr(p, "simulate"):
            r_lut = p.simulate(wl_lut)
            r_otf = p.simulate(wl_otf)
        else:
            r_lut = p.estimate_frame(wl_lut)
            r_otf = p.estimate_frame(wl_otf)
        table.add_row(p.name, r_lut.fps, r_otf.fps, r_lut.fps / r_otf.fps,
                      r_lut.bottleneck, r_otf.bottleneck)

    # Cell priced with the host library's compact stencil table layout
    # (e.g. 13 B/entry bilinear vs the 49 B float64 layout): how much of
    # the Cell's LUT handicap is entry size rather than architecture.
    cell = cell_ps3()
    wl_host_layout = standard_workload(
        res, method=method, mode="lut",
        lut_entry_bytes=RemapLUT.entry_bytes_for(method))
    r_compact = cell.simulate(wl_host_layout)
    r_cell_otf = cell.simulate(wl_otf)
    table.add_row("cell(hostlut)", r_compact.fps, r_cell_otf.fps,
                  r_compact.fps / r_cell_otf.fps, r_compact.bottleneck,
                  r_cell_otf.bottleneck)

    # Host measurement: LUT apply vs full on-the-fly remap.  One warmup
    # apply first fills the kernel's scratch pool, a per-stream (not
    # per-frame) cost in the steady state we are timing; the per-tap
    # weights are derived from the fractions inside every apply.
    w, h = resolution(res)
    field = standard_field(w, h)
    frame = synth.urban(w, h)
    lut = RemapLUT(field, method=method)
    lut.apply(frame)
    t0 = time.perf_counter()
    lut.apply(frame)
    t_lut = time.perf_counter() - t0
    t0 = time.perf_counter()
    remap(frame, field, method=method)
    t_otf = time.perf_counter() - t0
    table.add_row("host(numpy)", 1.0 / t_lut, 1.0 / t_otf, t_otf / t_lut, "-", "-")
    table.notes.append("Bandwidth-rich platforms favour the LUT; "
                       "bandwidth-starved ones (Cell) favour recomputation.")
    table.notes.append("cell(hostlut) re-prices the Cell with the host "
                       "kernel's compact base+fraction entries "
                       f"({RemapLUT.entry_bytes_for(method):.0f} B/px "
                       f"{method}) instead of the deployed packed layout.")
    return table


# ----------------------------------------------------------------------
# F8 — interpolation cost/quality
# ----------------------------------------------------------------------
def f8_interpolation(res: str = "VGA") -> Table:
    """nearest/bilinear/bicubic: host cost, model fps, PSNR vs reference."""
    w, h = resolution(res)
    sensor, lens = standard_sensor(w, h)
    field = standard_field(w, h)

    # Ground truth: a scene rendered through the lens, then corrected.
    from scipy import ndimage

    from ..video.distort import FisheyeRenderer, scene_camera_for_sensor
    scene_cam = scene_camera_for_sensor(sensor, lens, w, h)
    # Band-limit the scene: interpolation quality is only well defined on
    # signals below Nyquist (raw step edges alias under every kernel).
    scene = ndimage.gaussian_filter(
        synth.urban(w, h, seed=11).astype(np.float64), 1.2)
    scene = np.clip(np.rint(scene), 0, 255).astype(np.uint8)
    renderer = FisheyeRenderer(scene_cam, lens, sensor)
    fisheye_frame = renderer.render(scene)

    # Reference: sample the scene through the *composed exact* map.
    focal_out = float(lens.magnification(1e-4)) * 0.5
    out_cam = CameraIntrinsics(fx=focal_out, fy=focal_out, cx=(w - 1) / 2.0,
                               cy=(h - 1) / 2.0, width=w, height=h)
    exp_x, exp_y = perspective_reference_coords(out_cam, scene_cam)
    reference = sample(scene, exp_x, exp_y, method="bicubic")
    valid = field.valid_mask() & np.isfinite(exp_x)
    # Quality is only defined where the scene plane covers the FOV.
    inside_scene = (exp_x >= 0) & (exp_x <= w - 1) & (exp_y >= 0) & (exp_y <= h - 1)
    valid &= inside_scene

    smp = xeon_2010()
    table = Table(
        f"F8: interpolation method cost vs quality ({res})",
        ["method", "taps", "host_ms", "model_fps_smp", "psnr_db"],
    )
    for method in ("nearest", "bilinear", "bicubic"):
        lut = RemapLUT(field, method=method)
        t0 = time.perf_counter()
        corrected = lut.apply(fisheye_frame)
        host_ms = (time.perf_counter() - t0) * 1e3
        rep = smp.estimate_frame(standard_workload(res, method=method))
        q = psnr(reference.astype(np.float64), corrected.astype(np.float64),
                 peak=255.0, mask=valid)
        table.add_row(method, lut.taps, host_ms, rep.fps, q)
    table.notes.append("PSNR against the scene sampled through the exact "
                       "composed map, inside the valid FOV only.")
    return table


# ----------------------------------------------------------------------
# F9 — roofline
# ----------------------------------------------------------------------
def f9_roofline(pixel_bytes: int = 1) -> Table:
    """Arithmetic-intensity placement of both kernel modes, all platforms."""
    table = Table(
        "F9: roofline placement (flops/DRAM-byte vs attainable GFLOP/s)",
        ["platform", "kernel", "intensity", "ridge", "attainable", "peak", "bound"],
    )
    specs = [kernel_spec("bilinear", "lut", pixel_bytes),
             kernel_spec("bilinear", "otf", pixel_bytes),
             kernel_spec("bicubic", "otf", pixel_bytes)]
    for p in all_platforms():
        for spec in specs:
            pt = place(p, spec)
            table.add_row(pt.platform, pt.kernel, pt.intensity,
                          p.peak_gflops / p.mem_bw_gbps,
                          pt.attainable_gflops, pt.peak_gflops, pt.bound)
    table.notes.append("The LUT kernel sits left of every cached platform's "
                       "ridge point (all bandwidth-bound on it); only the "
                       "line-buffered FPGA pipeline escapes.")
    return table


# ----------------------------------------------------------------------
# F10 — correction-model quality (exact vs Brown–Conrady)
# ----------------------------------------------------------------------
def f10_model_quality(size: int = 512) -> Table:
    """Geometric error of exact trigonometric vs polynomial correction."""
    sensor, lens = standard_sensor(size, size)
    from ..core.mapping import fisheye_forward_map
    from ..core.quality import fov_retention
    scene_cam = CameraIntrinsics.from_fov(size, size, np.deg2rad(150.0))
    rendering = fisheye_forward_map(scene_cam, lens, sensor)

    focal_out = float(lens.magnification(1e-4)) * 0.5
    out_cam = CameraIntrinsics(fx=focal_out, fy=focal_out, cx=(size - 1) / 2.0,
                               cy=(size - 1) / 2.0, width=size, height=size)
    exp_x, exp_y = perspective_reference_coords(out_cam, scene_cam)

    from ..core.kannala import fit_kannala_brandt

    models = [("exact(equidistant)", lens)]
    for order in (1, 2, 3):
        models.append((f"brown_conrady(k{order})",
                       fit_brown_conrady(lens, max_theta=np.deg2rad(70.0), order=order)))
    # the modern comparator: same idea (polynomial), right variable (theta)
    models.append(("kannala_brandt(k4)", fit_kannala_brandt(lens, order=4)))

    table = Table(
        f"F10: correction-model geometric quality ({size}x{size}, 180-deg lens)",
        ["model", "rms_err_interior_px", "median_err_px", "p90_err_px",
         "frac_gt2px", "fov_retention"],
        float_fmt="{:.3f}",
    )
    # Error is only meaningful where ground truth exists: the expected
    # scene coordinate must lie on the scene plane.
    truth = ((exp_x >= 0) & (exp_x <= size - 1)
             & (exp_y >= 0) & (exp_y <= size - 1))
    # Interior = field angles up to 45 degrees in the output view.
    rad = np.hypot(*np.meshgrid(np.arange(size) - out_cam.cx,
                                np.arange(size) - out_cam.cy))
    interior = rad <= out_cam.fx * np.tan(np.pi / 4.0)
    for name, model in models:
        correction = perspective_map(sensor, model, out_cam)
        err = warp_composition_error(correction, rendering, exp_x, exp_y)
        ok = truth & np.isfinite(err)
        finite = err[ok]
        if finite.size == 0:
            raise BenchmarkError(f"model {name} produced no valid pixels")
        inner = err[ok & interior]
        table.add_row(name,
                      float(np.sqrt(np.mean(inner ** 2))) if inner.size else float("nan"),
                      float(np.median(finite)),
                      float(np.percentile(finite, 90)),
                      float((finite > 2.0).mean()),
                      fov_retention(correction, lens, sensor))
    table.notes.append("Brown-Conrady (polynomial in tan(theta)) cannot "
                       "represent a 180-deg lens: error explodes toward the "
                       "periphery. Kannala-Brandt (polynomial in theta) is "
                       "sub-pixel over the full field -- the failure was the "
                       "expansion variable, not polynomials.")
    return table


# ----------------------------------------------------------------------
# F11 — strong-scaling efficiency + Amdahl fit
# ----------------------------------------------------------------------
def f11_scaling_efficiency(res: str = "1080p", mode: str = "otf",
                           pitch_deg: float = 55.0) -> Table:
    """Parallel efficiency and the fitted serial fraction per schedule.

    Uses a tilted (virtual-PTZ) view: ~10 % of the output falls outside
    the hemisphere and is nearly free, so contiguous static chunks are
    unbalanced and the schedules separate — the load-imbalance effect
    the paper's scheduling section discusses.
    """
    smp = xeon_modern()
    workload = standard_workload(res, mode=mode, pitch=np.deg2rad(pitch_deg))
    table = Table(
        f"F11: strong-scaling efficiency and Amdahl fit "
        f"({res}, {mode}, pitch {pitch_deg:.0f} deg, {smp.name})",
        ["schedule", "threads", "speedup", "efficiency", "serial_fraction_fit"],
        float_fmt="{:.3f}",
    )
    for schedule in ("static", "dynamic", "guided"):
        smp.schedule = schedule
        base = smp.estimate_frame(workload, threads=1)
        threads, speedups = [], []
        for rep in smp.scaling(workload):
            t = rep.notes["threads"]
            s = rep.speedup_over(base)
            threads.append(t)
            speedups.append(s)
        serial, _ = amdahl_fit(threads, speedups)
        for t, s in zip(threads, speedups):
            table.add_row(schedule, t, s, s / t, serial)
    table.notes.append("The serial fraction is fitted from the curve; static "
                       "scheduling inflates it via load imbalance.")
    return table


# ----------------------------------------------------------------------
# F12 — fixed-point LUT precision
# ----------------------------------------------------------------------
def f12_fixed_point(res: str = "VGA", frac_bits=(2, 4, 6, 8, 10)) -> Table:
    """Weight-precision sweep: quality vs table size vs Cell throughput."""
    w, h = resolution(res)
    field = standard_field(w, h)
    frame = synth.urban(w, h, seed=3)
    float_lut = RemapLUT(field, method="bilinear")
    reference = float_lut.apply(frame).astype(np.float64)
    mask = field.valid_mask()
    cell = cell_ps3()
    table = Table(
        f"F12: fixed-point LUT precision sweep ({res}, bilinear)",
        ["frac_bits", "packed_entry_bytes", "psnr_vs_float_db", "max_abs_err", "cell_fps"],
    )
    for bits in frac_bits:
        fixed = float_lut.with_tier("fixed", frac_bits=bits)
        out = fixed.apply(frame).astype(np.float64)
        q = psnr(reference, out, peak=255.0, mask=mask)
        err = float(np.abs(out - reference)[mask].max())
        entry = packed_entry_bytes("bilinear", bits)
        workload = Workload.from_field(field, method="bilinear", mode="lut",
                                       lut_entry_bytes=entry)
        rep = cell.simulate(workload)
        table.add_row(bits, entry, q, err, rep.fps)
    table.notes.append("PSNR gains ~6 dB per extra fraction bit pair; the "
                       "DMA-bound Cell fps tracks the packed entry size.")
    return table


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _ablation(name):
    """Late import breaks the experiments <-> ablations cycle."""
    from . import ablations

    return getattr(ablations, name)


EXPERIMENTS = {
    "A1": lambda **kw: _ablation("a1_energy")(**kw),
    "A2": lambda **kw: _ablation("a2_antialias")(**kw),
    "A3": lambda **kw: _ablation("a3_prefetch")(**kw),
    "A4": lambda **kw: _ablation("a4_application")(**kw),
    "H1": lambda **kw: _ablation("h1_host_scaling")(**kw),
    "H2": lambda **kw: _ablation("h2_model_validation")(**kw),
    "T1": t1_platforms,
    "T2": t2_sequential_profile,
    "F1": f1_multicore_scaling,
    "F2": f2_cell_scaling,
    "F3": f3_gpu_block_sweep,
    "F4": f4_platform_fps,
    "F5": f5_dma_overlap,
    "F6": f6_tile_size_cache,
    "F7": f7_lut_vs_otf,
    "F8": f8_interpolation,
    "F9": f9_roofline,
    "F10": f10_model_quality,
    "F11": f11_scaling_efficiency,
    "F12": f12_fixed_point,
}


#: every id in report order: tables, figures, ablations, host checks
EXPERIMENT_ORDER = tuple(sorted(EXPERIMENTS,
                                key=lambda k: ("TFAH".index(k[0]), int(k[1:]))))


def _unknown(ids) -> BenchmarkError:
    return BenchmarkError(f"unknown experiment ids {list(ids)}; "
                          f"known: {' '.join(EXPERIMENT_ORDER)}")


def resolve_experiments(ids) -> tuple:
    """The experiment ids to run, in order, for a command line's ``ids``.

    ``all`` (any case) is every id in :data:`EXPERIMENT_ORDER`; other ids
    are upper-cased.  Every unknown id is rejected before anything runs.
    """
    if [i.lower() for i in ids] == ["all"]:
        return EXPERIMENT_ORDER
    resolved = tuple(i.upper() for i in ids)
    unknown = [i for i in resolved if i not in EXPERIMENTS]
    if unknown:
        raise _unknown(unknown)
    return resolved


def run_experiment(exp_id: str) -> Table:
    """Run one experiment by id (``T1``, ``F4``, ...)."""
    fn = EXPERIMENTS.get(exp_id.upper())
    if fn is None:
        raise _unknown([exp_id])
    return fn()
