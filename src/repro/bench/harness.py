"""Shared experiment plumbing: standard workloads, sweep helpers.

Each experiment in :mod:`repro.bench.experiments` needs the same
setup: a fisheye sensor at some resolution, its correction field, and
a :class:`~repro.accel.platform.Workload` around them.  Building a
1080p field and measuring its workload each take tens of
milliseconds, and a sweep asks for the same ones many times, so the
harness memoizes by configuration — benchmarks that share a workload
pay once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import BenchmarkError
from ..core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
from ..core.lens import make_lens
from ..core.mapping import RemapField, perspective_map
from ..accel.platform import STANDARD_RESOLUTIONS, Workload

__all__ = [
    "standard_sensor",
    "standard_field",
    "standard_workload",
    "resolution",
    "amdahl_fit",
    "capture_metrics",
]


def capture_metrics(fn, *args, **kwargs):
    """Run ``fn`` under a fresh scoped telemetry registry.

    Returns ``(result, snapshot)`` where ``snapshot`` is the JSON-able
    :meth:`~repro.obs.telemetry.Telemetry.snapshot` of everything the
    call recorded — the way an experiment row carries its own metrics
    without touching the global registry::

        table, metrics = capture_metrics(run_experiment, "F7")
    """
    from ..obs.telemetry import Telemetry, scoped

    tel = Telemetry()
    with scoped(tel):
        result = fn(*args, **kwargs)
    return result, tel.snapshot()


def resolution(name: str):
    """Resolve a standard resolution name to ``(width, height)``."""
    try:
        return STANDARD_RESOLUTIONS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown resolution {name!r}; known: {sorted(STANDARD_RESOLUTIONS)}") from None


@lru_cache(maxsize=32)
def standard_sensor(width: int, height: int, lens_name: str = "equidistant"):
    """The evaluation's canonical camera: a 180-degree fisheye.

    The image circle is inscribed in the shorter side, so the full
    180-degree FOV is captured along that axis.

    Returns ``(sensor, lens)``.
    """
    circle = min(width, height) / 2.0 - 1.0
    focal = circle / (np.pi / 2.0)  # equidistant: r = f * theta
    sensor = FisheyeIntrinsics.centered(width, height, focal=focal)
    lens = make_lens(lens_name, focal)
    return sensor, lens


@lru_cache(maxsize=32)
def standard_field(width: int, height: int, zoom: float = 0.5,
                   lens_name: str = "equidistant",
                   pitch: float = 0.0, yaw: float = 0.0) -> RemapField:
    """The canonical correction field at a given resolution.

    ``zoom = 0.5`` trades half the central resolution for a wide
    recovered FOV — the balanced setting the application chapter of
    the study runs everywhere.  ``pitch``/``yaw`` build tilted/panned
    virtual-PTZ views, whose out-of-FOV regions create the tile-cost
    imbalance the scheduling experiments need.
    """
    sensor, lens = standard_sensor(width, height, lens_name)
    focal_out = float(lens.magnification(1e-4)) * zoom
    out = CameraIntrinsics(fx=focal_out, fy=focal_out,
                           cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                           width=width, height=height)
    return perspective_map(sensor, lens, out, yaw=yaw, pitch=pitch)


def standard_workload(res: str = "1080p", method: str = "bilinear",
                      mode: str = "lut", pixel_bytes: int = 1,
                      zoom: float = 0.5, pitch: float = 0.0,
                      yaw: float = 0.0,
                      lut_entry_bytes: float | None = None) -> Workload:
    """A fully-measured workload at a named standard resolution.

    ``lut_entry_bytes`` optionally overrides the table-entry size the
    models price (e.g. ``RemapLUT.entry_bytes_for(method)`` to bill the
    host library's compact stencil layout instead of the
    default deployed packed layout).
    """
    w, h = resolution(res)
    field = standard_field(w, h, zoom, pitch=pitch, yaw=yaw)
    return Workload.from_field(field, method=method, mode=mode,
                               pixel_bytes=pixel_bytes,
                               lut_entry_bytes=lut_entry_bytes)


def amdahl_fit(threads, speedups):
    """Least-squares serial fraction from a measured speedup curve.

    Fits Amdahl's law ``S(n) = 1 / (s + (1 - s) / n)`` by linear
    regression on ``1/S = s + (1-s)/n``.  Returns ``(serial_fraction,
    r_squared)``.
    """
    threads = np.asarray(threads, dtype=np.float64)
    speedups = np.asarray(speedups, dtype=np.float64)
    if threads.shape != speedups.shape or threads.size < 2:
        raise BenchmarkError("need >= 2 matching (threads, speedup) points")
    if np.any(speedups <= 0) or np.any(threads <= 0):
        raise BenchmarkError("threads and speedups must be positive")
    y = 1.0 / speedups          # = s + (1-s) * x,  x = 1/n
    x = 1.0 / threads
    slope, intercept = np.polyfit(x, y, 1)
    serial = float(np.clip(intercept, 0.0, 1.0))
    pred = intercept + slope * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return serial, r2
