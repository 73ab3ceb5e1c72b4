"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``synth``
    Generate a test scene, optionally rendered through a fisheye lens
    (the way this repo substitutes for a physical camera).
``correct``
    Correct a fisheye PGM image to a perspective view.
``calibrate``
    Estimate the lens (family + focal + centre) from a rendered
    circle-grid target and print the fit.
``bench``
    Run evaluation experiments by id (``T1``, ``F1``.. ``A4``, ``H1``,
    ``H2``, ``all``).
``stream``
    Drive a synthetic camera stream through a correction engine
    (``seq``, ``pipelined`` threads, or the ``ring``: one session on a
    persistent-worker stream broker) and report throughput; with
    ``--trace`` the ring's feed/band/deliver overlap is visible per
    worker.
    ``--serve-metrics PORT`` exposes ``/metrics`` / ``/health`` /
    ``/snapshot`` live while the stream runs; ``--deadline-ms`` and
    ``--stall-timeout`` arm the broker's per-frame SLO check and stall
    watchdog.
``serve``
    Multiplex several synthetic camera streams onto one shared
    persistent worker fleet (:mod:`repro.serve`): admission-controlled
    sessions, weighted round-robin band scheduling, one shared LUT
    publication, per-stream labelled metrics on ``--serve-metrics``.
``info``
    Print the platform park (T1) and the library version.
``stats``
    Pretty-print a metrics snapshot written by ``--metrics``, or diff
    two snapshots with ``--diff A.json B.json``.

Every command accepts the global observability flags: ``--metrics
out.json`` / ``--trace out.trace.json`` enable the telemetry registry
for the run and write the JSON snapshot / Chrome ``trace_event`` file
on exit; ``--log-level`` configures the ``repro`` logger.

All commands are plain functions over argparse namespaces so the test
suite drives them in-process via :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, obs
from .core.intrinsics import FisheyeIntrinsics
from .core.kernel_tiers import KERNEL_CHOICES
from .core.lens import LENS_MODELS, make_lens
from .core.pipeline import FisheyeCorrector
from .errors import ReproError
from .parallel.ring import DEFAULT_SCHEDULE, RING_SCHEDULES

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _pixfmt(name):
    """The pixel-format row of a ``--pixfmt`` choice (``gray`` is the
    packed row)."""
    from .video.pixfmt import get_pixfmt

    return get_pixfmt({"gray": "rgb"}.get(name, name))


def _parse_size(value):
    """Parse a ``WIDTHxHEIGHT`` CLI size (e.g. ``1280x720``)."""
    try:
        w, h = value.lower().split("x")
        return int(w), int(h)
    except (ValueError, AttributeError):
        raise argparse.ArgumentTypeError(
            f"expected WIDTHxHEIGHT (e.g. 1280x720), got {value!r}")


@contextmanager
def _observed_run(port):
    """The observability surface around one ``stream`` or ``serve`` run.

    With ``--serve-metrics PORT``, enable a registry if none is active
    (the scrape surface needs one even without ``--metrics``/
    ``--trace``), serve it on a :class:`~repro.obs.live.MetricsServer`
    and announce the URL.  After a clean run, print the ``slo:`` digest
    whenever telemetry is enabled.  On any exit — a finished run, an
    error, a port that never binds — close the server and disable a
    registry enabled here.
    """
    tel = obs.get_telemetry()
    own_tel = False
    server = None
    try:
        if port is not None:
            if not tel.enabled:
                tel = obs.enable()
                own_tel = True
            server = obs.MetricsServer(telemetry=tel, port=port).start()
            print(f"serving metrics on {server.url} "
                  f"(/metrics /health /snapshot)", file=sys.stderr)
        yield
        slo = obs.slo_summary(tel.snapshot()) if tel.enabled else None
        if slo is not None:
            print(f"slo: e2e p50 {slo['p50_s'] * 1e3:.1f} ms "
                  f"p95 {slo['p95_s'] * 1e3:.1f} ms "
                  f"p99 {slo['p99_s'] * 1e3:.1f} ms, "
                  f"deadline miss {slo['deadline_misses']}/{slo['frames']} "
                  f"({slo['miss_rate']:.1%}), stalls {slo['stalls']}")
    finally:
        if server is not None:
            server.close()
        if own_tel:
            obs.disable()


def _synthetic_camera(args):
    """The synthetic camera ``stream`` and ``serve`` run: ``(renderer,
    world, corrector)`` — a fisheye renderer for the ``--width`` x
    ``--height`` sensor of ``--model``/``--focal``, the urban world of
    ``--seed`` it films, and the sensor's perspective corrector at
    ``--zoom``/``--method``/``--kernel``."""
    from .video.distort import FisheyeRenderer, scene_camera_for_sensor
    from .video.synth import urban

    w, h = args.width, args.height
    focal = args.focal or (min(w, h) / 2.0 - 1.0) / (np.pi / 2.0)
    sensor = FisheyeIntrinsics.centered(w, h, focal=focal)
    lens = make_lens(args.model, focal)
    scene_cam = scene_camera_for_sensor(sensor, lens, w, h)
    renderer = FisheyeRenderer(scene_cam, lens, sensor)
    world = urban(int(w * 1.5) + 64, int(h * 1.5) + 64, seed=args.seed)
    corrector = FisheyeCorrector.for_sensor(
        sensor, lens, w, h, zoom=args.zoom, method=args.method,
        kernel=args.kernel)
    return renderer, world, corrector


def _sensor_for(image, focal, cx=None, cy=None):
    h, w = image.shape[:2]
    if focal is None:
        focal = (min(w, h) / 2.0 - 1.0) / (np.pi / 2.0)
    return FisheyeIntrinsics(
        width=w, height=h,
        cx=(w - 1) / 2.0 if cx is None else cx,
        cy=(h - 1) / 2.0 if cy is None else cy,
        focal=focal,
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_synth(args) -> int:
    from .video import io as vio
    from .video import synth
    from .video.distort import FisheyeRenderer, scene_camera_for_sensor

    generators = {
        "checkerboard": lambda: synth.checkerboard(args.width, args.height,
                                                   square=args.square),
        "circles": lambda: synth.radial_circles(args.width, args.height),
        "urban": lambda: synth.urban(args.width, args.height, seed=args.seed),
        "gradient": lambda: synth.gradient(args.width, args.height),
        "grid": lambda: synth.circle_grid(args.width, args.height)[0],
    }
    image = generators[args.scene]()
    if args.distort:
        sensor = _sensor_for(image, args.focal)
        lens = make_lens(args.model, sensor.focal)
        scene_cam = scene_camera_for_sensor(sensor, lens, args.width, args.height)
        image = FisheyeRenderer(scene_cam, lens, sensor).render(image)
    vio.write_pgm(args.output, image.astype(np.uint8))
    print(f"wrote {args.scene}{' (fisheye-rendered)' if args.distort else ''} "
          f"{args.width}x{args.height} to {args.output}")
    return 0


def cmd_correct(args) -> int:
    from .video import io as vio

    image = vio.read_pgm(args.input)
    sensor = _sensor_for(image, args.focal, args.cx, args.cy)
    lens = make_lens(args.model, sensor.focal)
    out_w = args.out_width or sensor.width
    out_h = args.out_height or sensor.height
    corrector = FisheyeCorrector.for_sensor(
        sensor, lens, out_w, out_h, zoom=args.zoom, method=args.method,
        yaw=np.deg2rad(args.yaw), pitch=np.deg2rad(args.pitch),
        roll=np.deg2rad(args.roll), kernel=args.kernel)
    corrected = corrector.correct(image)
    vio.write_pgm(args.output, corrected)
    print(f"corrected {args.input} -> {args.output} "
          f"({out_w}x{out_h}, {args.model}, zoom {args.zoom}, "
          f"kernel {corrector.kernel}, "
          f"coverage {corrector.coverage():.1%})")
    return 0


def cmd_calibrate(args) -> int:
    from .core.calibration import calibrate, detect_blobs
    from .video import io as vio
    from .video.distort import scene_camera_for_sensor

    image = vio.read_pgm(args.input)
    sensor_guess = _sensor_for(image, None)
    lens_guess = make_lens("equidistant", sensor_guess.focal)
    scene_cam = scene_camera_for_sensor(sensor_guess, lens_guess,
                                        image.shape[1], image.shape[0])
    from .video.synth import circle_grid

    _, scene_points = circle_grid(image.shape[1], image.shape[0],
                                  rings=args.rings, spokes=args.spokes)
    xn, yn = scene_cam.normalize(scene_points[:, 0], scene_points[:, 1])
    true_thetas = np.arctan(np.hypot(xn, yn))

    blobs = detect_blobs(image.astype(float), min_area=2)
    if len(blobs) != len(scene_points):
        print(f"error: detected {len(blobs)} markers, target has "
              f"{len(scene_points)} — is this a rendered circle-grid target "
              f"with matching --rings/--spokes?")
        return 1
    pts = np.array([[b.x, b.y] for b in blobs])
    guess = pts.mean(axis=0)
    order = np.argsort(np.hypot(pts[:, 0] - guess[0], pts[:, 1] - guess[1]))
    result = calibrate(pts[order][1:], np.sort(true_thetas)[1:],
                       center_guess=tuple(guess))
    print(f"model:  {result.model}")
    print(f"focal:  {result.focal:.2f} px")
    print(f"centre: ({result.cx:.2f}, {result.cy:.2f})")
    print(f"rms:    {result.rms_residual:.4f} px")
    for fit in result.fits:
        print(f"  {fit.model:>14}: rms {fit.rms_residual:.4f} px "
              f"(focal {fit.focal:.2f})")
    return 0


def cmd_bench(args) -> int:
    from .bench import resolve_experiments, run_experiment

    for exp_id in resolve_experiments(args.ids):
        print(run_experiment(exp_id))
        print()
    return 0


def cmd_stream(args) -> int:
    """Run a synthetic camera stream through a correction engine."""
    import time

    from .video.stream import SyntheticStream, corrected_stream

    w, h = args.width, args.height
    renderer, world, corrector = _synthetic_camera(args)
    source = SyntheticStream(renderer, world, frames=args.frames, step=12)

    out_size = args.out_size
    fmt = _pixfmt(args.pixfmt)
    engine = {"seq": "sync"}.get(args.engine, args.engine)
    engine_kwargs = {}
    if engine == "pipelined":
        engine_kwargs = {"depth": args.depth}
    elif engine == "ring":
        engine_kwargs = {"workers": args.workers, "depth": args.depth,
                         "schedule": args.schedule, "context": args.context}
        if args.chunk is not None:
            engine_kwargs["chunk"] = args.chunk
        if args.deadline_ms is not None:
            engine_kwargs["deadline_s"] = args.deadline_ms / 1e3
        if args.stall_timeout is not None:
            engine_kwargs["stall_timeout_s"] = args.stall_timeout

    frames = 0
    with _observed_run(args.serve_metrics):
        it = corrected_stream(
            fmt.adapt(source), corrector.field,
            method=args.method, kernel=args.kernel, engine=engine,
            pixfmt=fmt.name, out_size=out_size, **engine_kwargs)
        t0 = time.perf_counter()
        for _ in it:
            frames += 1
        wall = time.perf_counter() - t0
        detail = ""
        if engine == "pipelined":
            detail = f" depth={args.depth}"
        elif engine == "ring":
            detail = (f" workers={args.workers} depth={args.depth} "
                      f"schedule={args.schedule}")
        ow, oh = out_size if out_size else (w, h)
        # output samples across the planes: 1 per pixel for gray,
        # 1.5 for the 4:2:0 formats
        mpx = frames * fmt.samples(oh, ow) / wall / 1e6
        fused_note = f" out={ow}x{oh} fused" if out_size else ""
        print(f"engine={args.engine}{detail} kernel={corrector.kernel} "
              f"pixfmt={args.pixfmt}{fused_note}: {frames} frames "
              f"{w}x{h} {args.method} in {wall:.3f}s "
              f"-> {frames / wall:.1f} fps end-to-end "
              f"({mpx:.1f} Mpx/s)")
    return 0


def cmd_serve(args) -> int:
    """Serve several synthetic camera streams through one shared fleet."""
    import time

    from .serve import MultiStreamCorrector
    from .video.stream import SyntheticStream

    w, h = args.width, args.height
    # every camera shares one calibration (the common rack-of-cameras
    # deployment): the broker builds and publishes exactly one LUT
    renderer, world, corrector = _synthetic_camera(args)

    weights = [1] * args.streams
    if args.weights:
        given = [int(x) for x in args.weights.split(",") if x.strip()]
        weights[:len(given)] = given[:args.streams]

    with _observed_run(args.serve_metrics):
        deadline_s = args.deadline_ms / 1e3 if args.deadline_ms else None
        t0 = time.perf_counter()
        fmt = _pixfmt(args.pixfmt)
        with MultiStreamCorrector(workers=args.workers,
                                  slot_budget=args.slot_budget,
                                  schedule=args.schedule, chunk=args.chunk,
                                  context=args.context) as svc:
            sessions = [
                svc.open_stream(
                    fmt.adapt(SyntheticStream(renderer, world,
                                              frames=args.frames,
                                              step=8 + 3 * i)),
                    corrector.field, method=args.method, kernel=args.kernel,
                    name=f"s{i}", depth=args.depth, weight=weights[i],
                    deadline_s=deadline_s, pixfmt=fmt.name,
                    out_size=args.out_size)
                for i in range(args.streams)
            ]
            counts = {s.name: 0 for s in sessions}
            for name, _frame in svc.merged(sessions):
                counts[name] += 1
        wall = time.perf_counter() - t0
        total = sum(counts.values())
        fused_note = (f" out={args.out_size[0]}x{args.out_size[1]} fused"
                      if args.out_size else "")
        print(f"serve: {args.streams} streams x {args.frames} frames "
              f"{w}x{h} {args.method} pixfmt={args.pixfmt}{fused_note} "
              f"through {args.workers} workers schedule={args.schedule} "
              f"(budget {args.slot_budget} slots) in {wall:.3f}s "
              f"-> {total / wall:.1f} fps aggregate")
        for i in range(args.streams):
            name = f"s{i}"
            print(f"  {name}: {counts[name]} frames (weight {weights[i]}, "
                  f"{counts[name] / wall:.1f} fps)")
    return 0


def cmd_map_info(args) -> int:
    """Print the measured properties of a correction map — the numbers
    the platform models consume."""
    import numpy as np

    from .accel.platform import Workload
    from .core.intrinsics import CameraIntrinsics

    w, h = args.width, args.height
    circle = min(w, h) / 2.0 - 1.0
    focal = args.focal or circle / (np.pi / 2.0)
    sensor = FisheyeIntrinsics.centered(w, h, focal=focal)
    lens = make_lens(args.model, focal)
    focal_out = float(lens.magnification(1e-4)) * args.zoom
    out = CameraIntrinsics(fx=focal_out, fy=focal_out, cx=(w - 1) / 2.0,
                           cy=(h - 1) / 2.0, width=w, height=h)
    from .core.mapping import perspective_map

    field = perspective_map(sensor, lens, out,
                            yaw=np.deg2rad(args.yaw), pitch=np.deg2rad(args.pitch))
    workload = Workload.from_field(field, method=args.method)
    spans = field.row_span()
    print(f"map: {args.model} f={focal:.1f}px zoom={args.zoom} "
          f"yaw={args.yaw} pitch={args.pitch} -> {w}x{h}")
    print(f"  coverage:           {workload.coverage:.1%}")
    print(f"  source footprint:   {workload.source_footprint:.1%} of frame")
    print(f"  gather lines/warp:  {workload.gather_lines_per_warp:.2f} "
          f"(1.0 = perfectly coalesced)")
    print(f"  row span (max/avg): {spans.max():.1f} / {spans.mean():.1f} rows")
    bbox = field.source_bbox(0, min(32, h), 0, w)
    if bbox:
        sy0, sy1, sx0, sx1 = bbox
        print(f"  top-band src bbox:  {sx1 - sx0}x{sy1 - sy0} px")
    from .core.antialias import minification_map

    m = minification_map(field)
    print(f"  minification:       centre {m[h // 2, w // 2]:.2f}, "
          f"peak {np.nanmax(m):.2f} src px/out px")
    return 0


def cmd_stats(args) -> int:
    """Pretty-print a metrics snapshot file written by ``--metrics``,
    or diff two of them (``--diff A.json B.json``)."""
    import json

    def load(path):
        with open(path) as fh:
            return json.load(fh)

    if args.diff:
        print(obs.diff_snapshots(load(args.diff[0]), load(args.diff[1])),
              end="")
        return 0
    if args.snapshot is None:
        print("error: give a snapshot file or --diff A.json B.json",
              file=sys.stderr)
        return 1
    print(obs.format_snapshot(load(args.snapshot)), end="")
    return 0


def cmd_info(args) -> int:
    from .bench.experiments import t1_platforms

    print(f"repro {__version__} — fisheye distortion correction on multicore "
          f"and hardware accelerator platforms")
    print(f"lens models: {', '.join(sorted(LENS_MODELS))}")
    print()
    print(t1_platforms())
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="fisheye distortion correction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="enable telemetry; write a JSON metrics snapshot "
                             "here on exit (pretty-print with 'repro stats')")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="enable telemetry; write a Chrome trace_event "
                             "JSON here on exit (open in ui.perfetto.dev)")
    parser.add_argument("--log-level", choices=obs.LOG_LEVELS, default="warning",
                        help="logging verbosity for the repro logger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a (optionally distorted) test scene")
    p.add_argument("output")
    p.add_argument("--scene", choices=["checkerboard", "circles", "urban",
                                       "gradient", "grid"],
                   default="checkerboard")
    p.add_argument("--width", type=int, default=512)
    p.add_argument("--height", type=int, default=512)
    p.add_argument("--square", type=int, default=32)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--distort", action="store_true",
                   help="render the scene through the fisheye lens")
    p.add_argument("--model", choices=sorted(LENS_MODELS), default="equidistant")
    p.add_argument("--focal", type=float, default=None,
                   help="lens focal in px (default: 180-deg inscribed circle)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("correct", help="correct a fisheye PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--model", choices=sorted(LENS_MODELS), default="equidistant")
    p.add_argument("--focal", type=float, default=None)
    p.add_argument("--cx", type=float, default=None)
    p.add_argument("--cy", type=float, default=None)
    p.add_argument("--zoom", type=float, default=0.5)
    p.add_argument("--method", choices=["nearest", "bilinear", "bicubic"],
                   default="bilinear")
    p.add_argument("--yaw", type=float, default=0.0, help="degrees")
    p.add_argument("--pitch", type=float, default=0.0, help="degrees")
    p.add_argument("--roll", type=float, default=0.0, help="degrees")
    p.add_argument("--out-width", type=int, default=None)
    p.add_argument("--out-height", type=int, default=None)
    p.add_argument("--kernel", choices=list(KERNEL_CHOICES), default="auto",
                   help="kernel tier (auto picks compiled when numba is "
                        "installed, else numpy)")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("calibrate",
                       help="estimate the lens from a rendered circle-grid target")
    p.add_argument("input")
    p.add_argument("--rings", type=int, default=4)
    p.add_argument("--spokes", type=int, default=8)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bench", help="run evaluation experiments")
    p.add_argument("ids", nargs="+", metavar="ID",
                   help="experiment ids (T1, T2, F1..F12, A1..A4, H1, H2) "
                        "or 'all'")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stream",
                       help="drive a synthetic stream through a correction engine")
    p.add_argument("--engine", choices=["seq", "pipelined", "ring"],
                   default="seq")
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--model", choices=sorted(LENS_MODELS), default="equidistant")
    p.add_argument("--focal", type=float, default=None)
    p.add_argument("--zoom", type=float, default=0.5)
    p.add_argument("--method", choices=["nearest", "bilinear", "bicubic"],
                   default="bilinear")
    p.add_argument("--workers", type=int, default=2,
                   help="ring worker processes")
    p.add_argument("--depth", type=int, default=2,
                   help="frames in flight (pipelined threads / ring slots)")
    p.add_argument("--schedule", choices=RING_SCHEDULES,
                   default=DEFAULT_SCHEDULE, help="ring band-scheduling policy")
    p.add_argument("--chunk", type=int, default=None,
                   help="ring band granularity in rows")
    p.add_argument("--kernel", choices=list(KERNEL_CHOICES), default="auto",
                   help="kernel tier (auto picks compiled when numba is "
                        "installed, else numpy)")
    p.add_argument("--context", choices=["fork", "spawn"], default="fork",
                   help="ring worker start method")
    p.add_argument("--pixfmt", choices=["gray", "yuv420", "nv12"],
                   default="gray",
                   help="frame pixel format: gray drives 2-D frames through "
                        "the corrector; yuv420 wraps the stream as planar "
                        "YUV 4:2:0 and corrects all three planes natively; "
                        "nv12 is the same with one interleaved UV plane "
                        "(no RGB conversion, every engine)")
    p.add_argument("--out-size", type=_parse_size, metavar="WxH", default=None,
                   help="deliver at this size through one fused "
                        "correct+downscale composed table (e.g. 1280x720); "
                        "per-frame gather traffic scales with the delivered "
                        "size, not the source")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--serve-metrics", type=int, metavar="PORT", default=None,
                   help="serve /metrics /health /snapshot on 127.0.0.1:PORT "
                        "while the stream runs (0 = ephemeral port; enables "
                        "telemetry if --metrics/--trace did not)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-frame latency SLO (ring engine): deliveries "
                        "over this count as stream.deadline_miss")
    p.add_argument("--stall-timeout", type=float, metavar="SECONDS",
                   default=None,
                   help="stall watchdog (ring engine): warn, count "
                        "stream.stalls and dump the flight recorder when no "
                        "band completes for this long")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("serve",
                       help="serve several synthetic streams through one "
                            "shared worker fleet")
    p.add_argument("--streams", type=int, default=4,
                   help="concurrent stream sessions")
    p.add_argument("--frames", type=int, default=32, help="frames per stream")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--model", choices=sorted(LENS_MODELS), default="equidistant")
    p.add_argument("--focal", type=float, default=None)
    p.add_argument("--zoom", type=float, default=0.5)
    p.add_argument("--method", choices=["nearest", "bilinear", "bicubic"],
                   default="bilinear")
    p.add_argument("--kernel", choices=list(KERNEL_CHOICES), default="auto",
                   help="kernel tier shared by every session")
    p.add_argument("--workers", type=int, default=2,
                   help="persistent worker processes shared by all streams")
    p.add_argument("--depth", type=int, default=2,
                   help="shared-memory frame slots per stream")
    p.add_argument("--slot-budget", type=int, default=16,
                   help="total slots across all admitted streams "
                        "(admission control)")
    p.add_argument("--schedule", choices=RING_SCHEDULES,
                   default=DEFAULT_SCHEDULE, help="band-scheduling policy")
    p.add_argument("--chunk", type=int, default=None,
                   help="band granularity in rows")
    p.add_argument("--context", choices=["fork", "spawn"], default="fork",
                   help="worker start method")
    p.add_argument("--weights", metavar="CSV", default=None,
                   help="per-stream scheduling weights, e.g. 2,1,1,1 "
                        "(missing entries default to 1)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-frame e2e latency SLO counted per stream as "
                        "stream.deadline_miss{stream=...}")
    p.add_argument("--pixfmt", choices=["gray", "yuv420", "nv12"],
                   default="gray",
                   help="session pixel format: gray packs 2-D frames; "
                        "yuv420/nv12 run the planar per-plane band path")
    p.add_argument("--out-size", type=_parse_size, metavar="WxH", default=None,
                   help="deliver every session at this size through a fused "
                        "correct+downscale composed table")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--serve-metrics", type=int, metavar="PORT", default=None,
                   help="serve /metrics with per-stream labelled series on "
                        "127.0.0.1:PORT while the streams run (0 = ephemeral "
                        "port; enables telemetry if --metrics/--trace did not)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("map-info",
                       help="print measured properties of a correction map")
    p.add_argument("--model", choices=sorted(LENS_MODELS), default="equidistant")
    p.add_argument("--width", type=int, default=1280)
    p.add_argument("--height", type=int, default=720)
    p.add_argument("--focal", type=float, default=None)
    p.add_argument("--zoom", type=float, default=0.5)
    p.add_argument("--yaw", type=float, default=0.0, help="degrees")
    p.add_argument("--pitch", type=float, default=0.0, help="degrees")
    p.add_argument("--method", choices=["nearest", "bilinear", "bicubic"],
                   default="bilinear")
    p.set_defaults(func=cmd_map_info)

    p = sub.add_parser("stats",
                       help="pretty-print or diff metrics snapshots "
                            "from --metrics")
    p.add_argument("snapshot", nargs="?", default=None,
                   help="path to the JSON snapshot file")
    p.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                   default=None,
                   help="print the metric delta between two snapshots "
                        "(counters B - A, histograms at p50/p95)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("info", help="print version, lens models, platform park")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    obs.configure_logging(args.log_level)
    tel = None
    if args.metrics or args.trace:
        tel = obs.enable()
    try:
        if tel is not None:
            with tel.span(f"cli.{args.command}", cat="cli"):
                code = args.func(args)
        else:
            code = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tel is not None:
            if args.metrics:
                obs.write_metrics(tel, args.metrics)
                print(f"metrics snapshot: {args.metrics}", file=sys.stderr)
            if args.trace:
                obs.write_trace(tel, args.trace)
                print(f"chrome trace: {args.trace} (open in ui.perfetto.dev)",
                      file=sys.stderr)
            obs.disable()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
