"""Point-level distortion correction (features, not images).

Downstream vision pipelines (tracking, stereo, structure-from-motion)
often correct *detected feature coordinates* instead of whole frames —
it is thousands of points instead of millions of pixels.  This module
maps individual points both ways through any lens model:

:func:`undistort_points`
    fisheye sensor coordinates -> perspective view coordinates
    (where a corrected image's content ends up),

:func:`distort_points`
    perspective view coordinates -> fisheye sensor coordinates
    (exactly what the backward image warp evaluates).

Both are exact inverses of each other (tested by property), handle
virtual pan/tilt/roll views, and mark unreachable points ``nan``.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError
from . import geometry
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .lens import LensModel
from .mapping import _rays_to_sensor, _rotate_rays

__all__ = ["distort_points", "undistort_points"]


def _check_points(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise GeometryError(f"coordinate shape mismatch: {xs.shape} vs {ys.shape}")
    return xs, ys


def distort_points(xs, ys, sensor: FisheyeIntrinsics, lens: LensModel,
                   out: CameraIntrinsics, yaw: float = 0.0, pitch: float = 0.0,
                   roll: float = 0.0):
    """Perspective-view pixel coordinates -> fisheye sensor coordinates.

    This is the per-point form of
    :func:`repro.core.mapping.perspective_map`: both run the same
    kernel, so the two agree exactly on grid points.

    Returns ``(xs_s, ys_s)`` with ``nan`` where the view ray leaves the
    lens's representable field.
    """
    xs, ys = _check_points(xs, ys)
    rot = geometry.rotation_matrix_ypr(yaw, pitch, roll)
    map_x = np.empty(xs.shape)
    map_y = np.empty(xs.shape)
    _rays_to_sensor(*_rotate_rays(*out.normalize(xs, ys), rot), lens, sensor,
                    map_x, map_y)
    return map_x[()], map_y[()]


def undistort_points(xs, ys, sensor: FisheyeIntrinsics, lens: LensModel,
                     out: CameraIntrinsics, yaw: float = 0.0, pitch: float = 0.0,
                     roll: float = 0.0):
    """Fisheye sensor coordinates -> perspective-view pixel coordinates.

    The forward direction a tracker needs: where does this detected
    fisheye feature land in the corrected view?

    Returns ``(xs_p, ys_p)`` with ``nan`` for points outside the lens's
    invertible radius or behind the (possibly rotated) view plane.
    """
    xs, ys = _check_points(xs, ys)
    r, phi = geometry.polar_from_cartesian(xs, ys, sensor.cx, sensor.cy)
    with np.errstate(invalid="ignore"):
        theta = np.asarray(lens.radius_to_angle(r), dtype=np.float64)

    sin_t = np.sin(theta)
    rays = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)],
                    axis=-1)
    # world -> view: inverse (transpose) of the view rotation
    rot = geometry.rotation_matrix_ypr(yaw, pitch, roll)
    rays = rays @ rot  # == rays @ (rot.T).T

    z = rays[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = rays[..., 0] / z
        yn = rays[..., 1] / z
    xp, yp = out.denormalize(xn, yn)
    bad = ~np.isfinite(theta) | (z <= 1e-12)
    xp = np.where(bad, np.nan, xp)
    yp = np.where(bad, np.nan, yp)
    return xp, yp
