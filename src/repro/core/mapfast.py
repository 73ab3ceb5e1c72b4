"""Fast map construction via the radial look-up table.

The first optimization of the sequential code (before any parallelism):
an axis-aligned perspective correction is radially symmetric, so the
expensive per-pixel trigonometry

    r_p -> theta = atan(r_p / f_out) -> r_s = f * m(theta)

collapses to a 1-D profile ``scale(r_p) = r_s / r_p`` sampled once
(``samples`` points) and linearly interpolated per pixel.  Map
construction then costs one hypot, one table interpolation and two
multiplies per pixel, with sub-pixel accuracy from a few hundred
samples.  The A5 ablation measures it against the exact builder of
:mod:`repro.core.mapping`, which needs no per-pixel azimuth
trigonometry either and builds about as fast or faster.

Limitations (checked, not silent): the output view must be axis-aligned
(no yaw/pitch/roll) with square pixels; rotated virtual-PTZ views break
the radial symmetry and need the exact builder.
"""

from __future__ import annotations

import numpy as np

from ..errors import MappingError
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .lens import LensModel
from .mapping import RemapField

__all__ = ["RadialProfile", "radial_perspective_map"]


class RadialProfile:
    """The 1-D ``r_p -> scale`` table for one (lens, output-focal) pair."""

    def __init__(self, lens: LensModel, out_focal: float, max_radius: float,
                 samples: int = 1024):
        if out_focal <= 0:
            raise MappingError(f"output focal must be positive, got {out_focal}")
        if max_radius <= 0:
            raise MappingError(f"max_radius must be positive, got {max_radius}")
        if samples < 2:
            raise MappingError(f"need at least 2 samples, got {samples}")
        self.lens = lens
        self.out_focal = float(out_focal)
        self.max_radius = float(max_radius)
        radii = np.linspace(0.0, max_radius, samples)
        theta = np.arctan(radii / out_focal)
        with np.errstate(invalid="ignore"):
            r_s = np.asarray(lens.angle_to_radius(theta), dtype=np.float64)
        # scale = r_s / r_p with the analytic limit f / f_out at r_p = 0
        scale = np.empty_like(radii)
        scale[0] = lens.focal / out_focal
        scale[1:] = r_s[1:] / radii[1:]
        self.radii = radii
        self.scale = scale
        #: True where the lens cannot represent the angle (beyond FOV)
        self.valid = np.isfinite(scale)
        # np.interp cannot carry nan reliably; patch holes with the last
        # valid value and keep the mask for the caller.
        if not self.valid.all():
            last = np.where(self.valid)[0]
            if last.size == 0:
                raise MappingError("profile entirely outside the lens FOV")
            fill = self.scale[last[-1]]
            self.scale = np.where(self.valid, self.scale, fill)
        self._valid_limit = (self.radii[self.valid][-1]
                             if not self.valid.all() else np.inf)

    def __len__(self) -> int:
        return self.radii.size

    def evaluate(self, r_p):
        """Interpolate the scale at output radii ``r_p`` (nan beyond FOV)."""
        r_p = np.asarray(r_p, dtype=np.float64)
        scale = np.interp(r_p, self.radii, self.scale)
        out_of_table = r_p > self.max_radius
        beyond_fov = r_p > self._valid_limit
        return np.where(out_of_table | beyond_fov, np.nan, scale)


def radial_perspective_map(sensor: FisheyeIntrinsics, lens: LensModel,
                           out: CameraIntrinsics,
                           samples: int = 1024) -> RemapField:
    """Approximate :func:`~repro.core.mapping.perspective_map` via the
    radial profile.

    Raises :class:`~repro.errors.MappingError` for configurations that
    break the radial symmetry (non-square pixels, skew); use the exact
    builder for rotated views.
    """
    if abs(out.fx - out.fy) > 1e-9 * max(out.fx, out.fy):
        raise MappingError("radial map needs square pixels (fx == fy)")
    if out.skew != 0.0:
        raise MappingError("radial map does not support skew")

    ys, xs = np.indices((out.height, out.width), dtype=np.float64)
    dx = xs - out.cx
    dy = ys - out.cy
    r_p = np.hypot(dx, dy)
    corner = float(np.hypot(max(out.cx, out.width - 1 - out.cx),
                            max(out.cy, out.height - 1 - out.cy)))
    profile = RadialProfile(lens, out.fx, corner * 1.001, samples=samples)
    scale = profile.evaluate(r_p)
    return RemapField(sensor.cx + dx * scale, sensor.cy + dy * scale,
                      sensor.width, sensor.height)
