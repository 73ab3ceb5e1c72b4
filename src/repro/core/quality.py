"""Quantitative quality metrics for corrected imagery.

The target paper evaluates its correction qualitatively (figures); the
synthetic-workload substitution lets this reproduction do better: every
distorted input is rendered from a known perspective scene, so
correction quality is measurable.

Photometric metrics
    :func:`psnr`, :func:`ssim` — standard full-reference measures.

Geometric metrics
    :func:`line_straightness` — residual curvature of points that
    should be collinear (the visual definition of "distortion
    corrected").
    :func:`warp_composition_error` — sub-pixel geometric error of the
    correction map composed with the known rendering map.
    :func:`fov_retention`, :func:`center_scale` — the paper
    introduction's trade-off triangle: field of view vs output size vs
    central resolution.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, ImageFormatError
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .interpolation import sample
from .lens import LensModel
from .mapping import RemapField

__all__ = [
    "psnr",
    "ssim",
    "line_straightness",
    "perspective_reference_coords",
    "warp_composition_error",
    "fov_retention",
    "center_scale",
]


def psnr(reference, test, peak: float | None = None, mask=None) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical inputs).

    Parameters
    ----------
    reference, test:
        Arrays of identical shape.
    peak:
        Signal peak; defaults to the dtype max for integer inputs and
        1.0 for floats.
    mask:
        Optional boolean mask restricting the comparison (e.g. the
        valid region of a corrected frame — the black out-of-FOV ring
        would otherwise dominate).
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ImageFormatError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if peak is None:
        peak = 255.0 if reference.max() > 1.5 or test.max() > 1.5 else 1.0
    diff = reference - test
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != reference.shape[: mask.ndim]:
            raise ImageFormatError(f"mask shape {mask.shape} does not match {reference.shape}")
        diff = diff[mask]
    mse = float(np.mean(diff ** 2)) if diff.size else 0.0
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def ssim(reference, test, peak: float | None = None, sigma: float = 1.5) -> float:
    """Mean structural-similarity index (Gaussian-windowed, K1/K2 defaults).

    Operates on 2-D (grayscale) images; colour inputs are averaged over
    channels first.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ImageFormatError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if reference.ndim == 3:
        reference = reference.mean(axis=2)
        test = test.mean(axis=2)
    if reference.ndim != 2:
        raise ImageFormatError(f"ssim needs 2-D or 3-D input, got {reference.ndim}-D")
    if peak is None:
        peak = 255.0 if reference.max() > 1.5 or test.max() > 1.5 else 1.0
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    # scipy loads on first use: the streaming path never runs it
    from scipy import ndimage

    def blur(a):
        return ndimage.gaussian_filter(a, sigma, mode="reflect")

    mu_r, mu_t = blur(reference), blur(test)
    mu_r2, mu_t2, mu_rt = mu_r * mu_r, mu_t * mu_t, mu_r * mu_t
    var_r = blur(reference * reference) - mu_r2
    var_t = blur(test * test) - mu_t2
    cov = blur(reference * test) - mu_rt
    num = (2.0 * mu_rt + c1) * (2.0 * cov + c2)
    den = (mu_r2 + mu_t2 + c1) * (var_r + var_t + c2)
    return float(np.mean(num / den))


def line_straightness(points):
    """Perpendicular deviation of points from their best-fit line.

    Fits a total-least-squares line through ``(N, 2)`` points (SVD of
    the centred coordinates) and returns ``(rms, max)`` perpendicular
    deviation in pixels.  A perfectly corrected straight edge scores
    ``(0, 0)``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"points must be (N, 2), got {pts.shape}")
    if pts.shape[0] < 3:
        raise GeometryError(f"need at least 3 points, got {pts.shape[0]}")
    centred = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    normal = vt[-1]
    dist = centred @ normal
    return float(np.sqrt(np.mean(dist ** 2))), float(np.abs(dist).max())


def perspective_reference_coords(out: CameraIntrinsics, scene: CameraIntrinsics):
    """Ideal scene coordinates for each pixel of a perspective output.

    Both views are rectilinear with the same orientation, so the map
    between them is affine in the normalized coordinates: a corrected
    output pixel should land at exactly these scene coordinates.
    Returns ``(expected_x, expected_y)`` arrays of the output shape.
    """
    from .geometry import pixel_grid

    xs, ys = pixel_grid(out.height, out.width)
    xn, yn = out.normalize(xs, ys)
    return scene.denormalize(xn, yn)


def warp_composition_error(correction: RemapField, rendering: RemapField,
                           expected_x, expected_y):
    """Sub-pixel geometric error field of a correction.

    ``rendering`` maps fisheye pixels to scene coordinates (the map the
    synthetic generator used to *create* the distorted frame);
    ``correction`` maps output pixels to fisheye coordinates.  Their
    composition tells where each corrected output pixel's content
    really came from in the scene; a perfect correction matches
    ``(expected_x, expected_y)`` exactly.

    Returns the per-pixel Euclidean error (pixels in scene units) with
    ``nan`` where either map is out of range.
    """
    if (rendering.shape[1], rendering.shape[0]) != (correction.src_width, correction.src_height):
        raise GeometryError(
            "rendering map shape must match correction source size: "
            f"{rendering.shape} vs {(correction.src_height, correction.src_width)}")
    # Sample the rendering map (a float field over fisheye pixels) at the
    # fractional fisheye coordinates the correction requests.
    got_x = sample(rendering.map_x, correction.map_x, correction.map_y,
                   method="bilinear", fill=np.nan)
    got_y = sample(rendering.map_y, correction.map_x, correction.map_y,
                   method="bilinear", fill=np.nan)
    ex = np.asarray(expected_x, dtype=np.float64)
    ey = np.asarray(expected_y, dtype=np.float64)
    if ex.shape != correction.shape or ey.shape != correction.shape:
        raise GeometryError(
            f"expected coords {ex.shape} must match correction output {correction.shape}")
    return np.hypot(got_x - ex, got_y - ey)


def fov_retention(field: RemapField, lens: LensModel, sensor: FisheyeIntrinsics,
                  max_angle: float | None = None) -> float:
    """Fraction of the lens's field of view present in the output.

    Computes the largest field angle among the output's valid sample
    points and divides by the sensor's maximum captured angle (the
    angle at the inscribed image-circle edge, or ``max_angle``).
    """
    mask = field.valid_mask()
    if not mask.any():
        return 0.0
    r = np.hypot(field.map_x[mask] - sensor.cx, field.map_y[mask] - sensor.cy)
    with np.errstate(invalid="ignore"):
        theta = np.asarray(lens.radius_to_angle(r))
    theta = theta[np.isfinite(theta)]
    if theta.size == 0:
        return 0.0
    if max_angle is None:
        capped = lens.radius_to_angle(sensor.max_inscribed_radius)
        max_angle = float(capped) if np.isfinite(capped) else lens.max_theta
    if max_angle <= 0:
        raise GeometryError(f"max_angle must be positive, got {max_angle}")
    return float(min(1.0, theta.max() / max_angle))


def center_scale(field: RemapField) -> float:
    """Source pixels consumed per output pixel at the output centre.

    1.0 means central spatial resolution is preserved; > 1 means the
    output under-samples (resolution loss), < 1 means it interpolates
    up.  Estimated from the Jacobian of the map at the central pixel.
    """
    h, w = field.shape
    i, j = h // 2, w // 2
    if h < 3 or w < 3:
        raise GeometryError(f"output too small for a Jacobian estimate: {field.shape}")
    dxu = (field.map_x[i, j + 1] - field.map_x[i, j - 1]) / 2.0
    dyu = (field.map_y[i, j + 1] - field.map_y[i, j - 1]) / 2.0
    dxv = (field.map_x[i + 1, j] - field.map_x[i - 1, j]) / 2.0
    dyv = (field.map_y[i + 1, j] - field.map_y[i - 1, j]) / 2.0
    jac = abs(dxu * dyv - dxv * dyu)
    return float(np.sqrt(jac))
