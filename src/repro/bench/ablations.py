"""Ablation experiments beyond the reconstructed core set (A1..A3).

A1 — energy per corrected frame across the machine park (the era's
     performance-per-watt argument).
A2 — output supersampling: peripheral aliasing vs cost.
A3 — does a hardware stream prefetcher rescue the row-major gather
     traversal that F6 showed needs a 4x bigger cache?
"""

from __future__ import annotations

import time

import numpy as np

from ..accel.energy import energy_report
from ..accel.presets import all_platforms
from ..core.intrinsics import CameraIntrinsics
from ..core.antialias import SupersampledLUT, minification_map
from ..core.quality import psnr
from ..core.remap import RemapLUT
from ..parallel.partition import Tile
from ..sim.cache import CacheConfig, CacheSim
from ..sim.prefetch import PrefetchConfig, PrefetchingCache
from ..sim.trace import tile_gather_trace
from ..video import synth
from .harness import resolution, standard_field, standard_sensor
from .report import Table

__all__ = ["a1_energy", "a2_antialias", "a3_prefetch", "a4_application",
           "a5_map_construction", "h1_host_scaling", "h2_model_validation"]


def a1_energy(res: str = "720p", method: str = "bilinear") -> Table:
    """Joules per frame and Mpx/J for every platform (mode-tuned)."""
    from .experiments import _best_estimate

    table = Table(
        f"A1: energy per corrected frame ({res}, {method}, best mode per platform)",
        ["platform", "mode", "fps", "watts_avg", "mJ_per_frame", "mpx_per_joule"],
    )
    for platform in all_platforms():
        try:
            rep = _best_estimate(platform, res, method)
        except Exception:
            continue
        e = energy_report(rep)
        table.add_row(platform.name, rep.notes.get("mode", "-"), rep.fps,
                      e.watts_average, e.joules_per_frame * 1e3,
                      e.mpixels_per_joule)
    table.notes.append("Idle power is charged during exposed DMA/PCIe/memory "
                       "stalls; active power during compute.")
    return table


def a2_antialias(res: str = "VGA", factors=(1, 2, 3)) -> Table:
    """Output supersampling: quality on a fine texture vs cost.

    Renders a fine checkerboard through the lens, corrects it at
    several supersampling factors, and scores each against the heavily
    supersampled reference (factor 4), alongside host cost and the
    measured peak minification of the map (the aliasing driver).
    """
    w, h = resolution(res)
    sensor, lens = standard_sensor(w, h)
    zoom = 0.5
    focal_out = float(lens.magnification(1e-4)) * zoom

    def builder(xs, ys):
        from ..core import geometry

        rays = geometry.rays_from_pixels(xs, ys, focal_out, focal_out,
                                         (w - 1) / 2.0, (h - 1) / 2.0)
        theta, phi = geometry.angles_from_rays(rays)
        with np.errstate(invalid="ignore"):
            r = lens.angle_to_radius(theta)
        return (sensor.cx + r * np.cos(phi), sensor.cy + r * np.sin(phi),
                sensor.width, sensor.height)

    # fine-texture workload rendered through the lens
    from ..video.distort import FisheyeRenderer, scene_camera_for_sensor

    scene_cam = scene_camera_for_sensor(sensor, lens, w, h)
    scene = synth.checkerboard(w, h, square=3)
    frame = FisheyeRenderer(scene_cam, lens, sensor).render(scene)

    field = standard_field(w, h, zoom)
    peak_minification = float(np.nanmax(minification_map(field)))

    reference = SupersampledLUT.from_builder(builder, w, h, factor=4).apply(frame)
    mask = field.valid_mask()

    table = Table(
        f"A2: output supersampling ({res}, fine checkerboard, zoom {zoom})",
        ["factor", "taps_per_px", "host_ms", "psnr_vs_ssaa4_db"],
    )
    for factor in factors:
        lut = SupersampledLUT.from_builder(builder, w, h, factor=factor)
        t0 = time.perf_counter()
        out = lut.apply(frame)
        host_ms = (time.perf_counter() - t0) * 1e3
        q = psnr(reference.astype(float), out.astype(float), peak=255.0, mask=mask)
        table.add_row(factor, lut.taps, host_ms, q)
    table.notes.append(f"peak map minification {peak_minification:.2f} source "
                       "px/output px — the aliasing driver; cost grows with "
                       "factor^2.")
    return table


def a3_prefetch(res: str = "720p", cache_kb=(4, 8, 16, 32), depth: int = 4,
                band_rows: int = 96) -> Table:
    """Stream prefetcher vs blocking for the row-major gather traversal.

    Replays the F6 row-major trace through a plain cache and through
    the same cache with a tagged stream prefetcher, reporting hit rate
    and total DRAM traffic (prefetchers trade traffic for latency).
    """
    w, h = resolution(res)
    field = standard_field(w, h)
    lut = RemapLUT(field, method="nearest")
    trace = tile_gather_trace(lut, Tile(0, band_rows, 0, w), pixel_bytes=4)

    table = Table(
        f"A3: stream prefetcher on the row-major gather trace "
        f"({res} top {band_rows} rows, depth {depth})",
        ["cache_kb", "config", "hit_rate", "prefetch_accuracy",
         "dram_bytes_per_px"],
    )
    n_px = band_rows * w
    for kb in cache_kb:
        cfg = CacheConfig(size_bytes=kb * 1024, line_bytes=64, ways=4)
        plain = CacheSim(cfg).replay(trace)
        table.add_row(kb, "no prefetch", plain.hit_rate, float("nan"),
                      plain.miss_bytes(64) / n_px)
        pf = PrefetchingCache(cfg, PrefetchConfig(depth=depth)).replay(trace)
        table.add_row(kb, f"stream(d{depth})", pf.hit_rate, pf.accuracy,
                      pf.traffic_bytes(64) / n_px)
    table.notes.append("Negative result: the gather stream follows curved "
                       "arcs, not sequential lines — accuracy stays below "
                       "~0.2, hit rate barely moves (and drops where "
                       "pollution bites), and traffic inflates ~30%. "
                       "Blocking (F6), not prefetching, is the fix.")
    return table


def a4_application(res: str = "720p", method: str = "bilinear",
                   decode_ns_per_mpx: int = 2_500_000,
                   encode_ns_per_mpx: int = 4_000_000) -> Table:
    """End-to-end application throughput: kernel speedup vs app speedup.

    Wraps every platform's tuned kernel in the full capture->decode->
    correct->encode pipeline (codec stages run on the host and scale
    with frame pixels; discrete accelerators also pay their transfer
    stages).  The figure the 2010 literature closes on: accelerating
    the kernel 15x does not accelerate the *application* 15x.
    """
    from ..accel.hetero import PipelineModel, Stage
    from ..accel.presets import all_platforms
    from .experiments import _best_estimate

    w, h = resolution(res)
    mpx = w * h / 1e6
    decode_ns = int(decode_ns_per_mpx * mpx)
    encode_ns = int(encode_ns_per_mpx * mpx)

    table = Table(
        f"A4: end-to-end application pipeline ({res}, {method}; host codec "
        f"{decode_ns / 1e6:.1f}+{encode_ns / 1e6:.1f} ms/frame)",
        ["platform", "kernel_fps", "app_fps", "kernel_speedup", "app_speedup",
         "app_bottleneck"],
    )
    seq_kernel = None
    seq_app = None
    for platform in all_platforms():
        try:
            rep = _best_estimate(platform, res, method)
        except Exception:
            continue
        stages = [Stage("decode", decode_ns, "host")]
        if platform.name.startswith("gtx"):
            stages.append(Stage("h2d", rep.notes.get("h2d_ns", 0), "pcie"))
            stages.append(Stage("correct", rep.notes.get("kernel_ns", rep.frame_ns),
                                "device"))
            stages.append(Stage("d2h", rep.notes.get("d2h_ns", 0), "pcie"))
        elif platform.name in ("cell", "fpga"):
            stages.append(Stage("correct", rep.frame_ns, "device"))
        else:
            # SMP platforms correct on the host itself: the codec and the
            # kernel contend for the same cores
            stages.append(Stage("correct", rep.frame_ns, "host"))
        stages.append(Stage("encode", encode_ns, "host"))
        pipe = PipelineModel(stages)
        if seq_kernel is None:
            seq_kernel = rep.fps
            seq_app = pipe.fps
        table.add_row(platform.name, rep.fps, pipe.fps, rep.fps / seq_kernel,
                      pipe.fps / seq_app, pipe.bottleneck)
    table.notes.append("Once the kernel leaves the host, the codec stages cap "
                       "the application: kernel speedups compress toward the "
                       "pipeline's host-bound ceiling (system-level Amdahl).")
    return table


def a5_map_construction(res: str = "720p", sample_counts=(64, 256, 1024, 4096)) -> Table:
    """Map construction: exact trigonometric builder vs radial LUT.

    The sequential-optimization rung: measures host build time and the
    worst-case geometric error of the radial-profile approximation as
    its table grows.
    """
    from ..core.intrinsics import CameraIntrinsics
    from ..core.mapfast import radial_perspective_map
    from ..core.mapping import perspective_map

    w, h = resolution(res)
    sensor, lens = standard_sensor(w, h)
    focal_out = float(lens.magnification(1e-4)) * 0.5
    out = CameraIntrinsics(fx=focal_out, fy=focal_out, cx=(w - 1) / 2.0,
                           cy=(h - 1) / 2.0, width=w, height=h)

    def timed(build):
        """Best of three builds: (result, ms)."""
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            result = build()
            ms = (time.perf_counter() - t0) * 1e3
            best = ms if best is None else min(best, ms)
        return result, best

    exact, exact_ms = timed(lambda: perspective_map(sensor, lens, out))

    table = Table(
        f"A5: map construction, exact vs radial LUT ({res})",
        ["builder", "samples", "build_ms", "speedup", "max_err_px"],
        float_fmt="{:.4f}",
    )
    table.add_row("exact", "-", exact_ms, 1.0, 0.0)
    mask = exact.valid_mask()
    for n in sample_counts:
        approx, ms = timed(lambda: radial_perspective_map(sensor, lens, out,
                                                          samples=n))
        err = np.hypot(approx.map_x - exact.map_x, approx.map_y - exact.map_y)
        table.add_row("radial", n, ms, exact_ms / ms, float(np.nanmax(err[mask])))
    table.notes.append(_a5_note(table))
    return table


def _a5_note(table: Table) -> str:
    """A5's verdict, read off the measured ``speedup`` column."""
    rows = zip(table.column("builder"), table.column("samples"),
               table.column("speedup"), table.column("max_err_px"))
    accurate = [(n, s) for b, n, s, e in rows if b == "radial" and e < 0.01]
    if not accurate:
        return "No profile size reaches sub-0.01 px error."
    n, speedup = accurate[0]
    if speedup > 1.0:
        return (f"{n} profile samples reach sub-0.01 px error at "
                f"{speedup:.1f}x lower build cost than the exact builder; "
                f"rotated PTZ views still need the exact builder.")
    return (f"{n} profile samples reach sub-0.01 px error, but the radial LUT "
            f"builds {1.0 / speedup:.1f}x slower than the exact builder: it "
            f"does not pay here, and rotated PTZ views need the exact "
            f"builder anyway.")


def h1_host_scaling(res: str = "VGA", workers=(1, 2, 4), repeats: int = 5) -> Table:
    """Host wall-clock scaling of the real threaded executor.

    On a multicore host this reproduces F1 with real threads (numpy
    releases the GIL inside the tile kernels); on the 1-core CI
    container it documents honestly that no speedup is physically
    available.  Timings come with bootstrap confidence intervals.
    """
    from ..core.remap import RemapLUT
    from ..parallel.threadpool import ThreadedExecutor
    from .stats import repeat_timing, robust_summary

    import os

    w, h = resolution(res)
    field = standard_field(w, h)
    lut = RemapLUT(field, method="bilinear")
    frame = synth.urban(w, h, seed=13)
    out = np.empty(lut.out_shape, dtype=frame.dtype)

    table = Table(
        f"H1: host threaded-executor scaling ({res}, bilinear/lut, "
        f"{os.cpu_count()} host cpu(s))",
        ["workers", "median_ms", "ci_low_ms", "ci_high_ms", "speedup"],
    )
    base = None
    for n in workers:
        with ThreadedExecutor(workers=n, bands_per_worker=4) as ex:
            samples = repeat_timing(lambda: ex.run(lut, frame, out=out),
                                    repeats=repeats, warmup=1)
        summary = robust_summary(samples)
        if base is None:
            base = summary.median
        table.add_row(n, summary.median * 1e3, summary.ci_low * 1e3,
                      summary.ci_high * 1e3, base / summary.median)
    table.notes.append("Real wall clock: meaningful on multicore hosts; the "
                       "deterministic scaling study lives in F1/F11.")
    return table


def h2_model_validation(res: str = "VGA", repeats: int = 5) -> Table:
    """Model-vs-host validation of the kernel's cost ratios (H2)."""
    from ..accel.validation import validate_kernel_ratios

    w, h = resolution(res)
    field = standard_field(w, h)
    frame = synth.urban(w, h, seed=21)
    cases = validate_kernel_ratios(field, frame, repeats=repeats)
    table = Table(
        f"H2: model-vs-host kernel cost ratios ({res}, sequential model vs "
        f"this host's numpy kernels)",
        ["ratio", "model", "host", "agreement_factor", "same_direction"],
    )
    for c in cases:
        table.add_row(c.name, c.predicted, c.measured, c.agreement,
                      c.same_direction)
    table.notes.append("The bar is directional + order-of-magnitude "
                       "agreement: absolute constants differ between a "
                       "compiled kernel (the model's subject) and numpy.")
    return table
