"""Fisheye calibration from synthetic target images.

The paper's kernel needs one lens parameter — the focal ``f`` (or
equivalently the ``r0``/``R0`` image-circle radius) — and the
distortion centre.  This module recovers them from calibration-target
imagery the way a lab would:

1. :func:`detect_blobs` finds bright markers (connected components +
   intensity-weighted centroids, built on ``scipy.ndimage``),
2. :func:`fit_focal` solves the one-parameter least-squares problem
   ``r_i = f * m(theta_i)`` in closed form (every classical mapping
   function is linear in ``f``),
3. :func:`select_model` picks the mapping family with the smallest
   residual,
4. :func:`calibrate` optionally refines the distortion centre with a
   Nelder–Mead search around the blob centroid.

Because the workload generator renders targets through a *known* lens,
the test suite can assert recovered parameters against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from .lens import LENS_MODELS, LensModel, make_lens

__all__ = [
    "Blob",
    "detect_blobs",
    "fit_focal",
    "ModelFit",
    "select_model",
    "CalibrationResult",
    "calibrate",
]


@dataclass(frozen=True)
class Blob:
    """A detected calibration marker."""

    x: float
    y: float
    area: int
    intensity: float


def detect_blobs(image, threshold: float | None = None, min_area: int = 3):
    """Find bright blobs on a dark background.

    Parameters
    ----------
    image:
        2-D grayscale array.
    threshold:
        Binarization level; defaults to midway between the 10th and
        99.5th intensity percentiles.
    min_area:
        Components smaller than this many pixels are treated as noise.

    Returns
    -------
    list of :class:`Blob`, ordered by decreasing area.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise CalibrationError(f"blob detection needs a 2-D image, got shape {image.shape}")
    if threshold is None:
        lo, hi = np.percentile(image, [10.0, 99.5])
        threshold = 0.5 * (lo + hi)
    binary = image > threshold
    # scipy loads on first use: the streaming path never runs it
    from scipy import ndimage

    labels, count = ndimage.label(binary)
    blobs = []
    for idx in range(1, count + 1):
        mask = labels == idx
        area = int(mask.sum())
        if area < min_area:
            continue
        weights = image * mask
        total = weights.sum()
        if total <= 0:
            continue
        ys, xs = np.nonzero(mask)
        wvals = image[ys, xs]
        blobs.append(Blob(
            x=float((xs * wvals).sum() / total),
            y=float((ys * wvals).sum() / total),
            area=area,
            intensity=float(wvals.mean()),
        ))
    blobs.sort(key=lambda b: -b.area)
    return blobs


def fit_focal(thetas, radii, model: str = "equidistant") -> float:
    """Closed-form least-squares focal for ``r = f * m(theta)``.

    All registry models have mapping functions linear in ``f``, so the
    optimum is ``f* = sum(r m) / sum(m^2)``.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if thetas.shape != radii.shape or thetas.size == 0:
        raise CalibrationError(
            f"need matching non-empty observation arrays, got {thetas.shape}/{radii.shape}")
    if np.any(thetas <= 0) or np.any(radii <= 0):
        raise CalibrationError("observations must have positive angles and radii")
    probe = make_lens(model, 1.0)
    if np.any(thetas > probe.max_theta):
        raise CalibrationError(
            f"model {model!r} cannot represent angles beyond {probe.max_theta:.3f} rad")
    m = np.asarray(probe.angle_to_radius(thetas), dtype=np.float64)
    denom = float(np.dot(m, m))
    if denom <= 0 or not np.isfinite(denom):
        raise CalibrationError("degenerate fit: mapping values are zero/non-finite")
    f = float(np.dot(radii, m) / denom)
    if f <= 0:
        raise CalibrationError(f"fit produced non-positive focal {f}")
    return f


@dataclass(frozen=True)
class ModelFit:
    """One mapping family's fit to the observations."""

    model: str
    focal: float
    rms_residual: float

    def lens(self) -> LensModel:
        return make_lens(self.model, self.focal)


def _rms(model: str, focal: float, thetas, radii) -> float:
    predicted = make_lens(model, focal).angle_to_radius(thetas)
    return float(np.sqrt(np.mean((np.asarray(predicted) - radii) ** 2)))


def select_model(thetas, radii, candidates=None):
    """Fit every candidate family; return fits sorted best-first.

    ``perspective`` is excluded by default (angles near 90 degrees are
    outside its domain and it is not a fisheye).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if candidates is None:
        candidates = [n for n in LENS_MODELS if n != "perspective"]
    fits = []
    for name in candidates:
        try:
            f = fit_focal(thetas, radii, name)
        except CalibrationError:
            continue
        fits.append(ModelFit(name, f, _rms(name, f, thetas, radii)))
    if not fits:
        raise CalibrationError("no candidate model could fit the observations")
    fits.sort(key=lambda m: m.rms_residual)
    return fits


@dataclass(frozen=True)
class CalibrationResult:
    """Full calibration output."""

    model: str
    focal: float
    cx: float
    cy: float
    rms_residual: float
    fits: tuple

    def lens(self) -> LensModel:
        return make_lens(self.model, self.focal)


def calibrate(blob_points, blob_angles, center_guess, refine_center: bool = True,
              candidates=None) -> CalibrationResult:
    """Calibrate model + focal (+ centre) from marker correspondences.

    Parameters
    ----------
    blob_points:
        ``(N, 2)`` detected marker pixel positions ``(x, y)``.
    blob_angles:
        Known field angle (radians) of each marker, from target
        geometry.
    center_guess:
        Initial ``(cx, cy)``.
    refine_center:
        If true, run a Nelder–Mead search over the centre with the
        closed-form focal fit nested inside.
    """
    pts = np.asarray(blob_points, dtype=np.float64)
    thetas = np.asarray(blob_angles, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != thetas.size:
        raise CalibrationError(
            f"blob_points must be (N, 2) matching blob_angles, got {pts.shape}/{thetas.shape}")
    if pts.shape[0] < 3:
        raise CalibrationError(f"need at least 3 markers, got {pts.shape[0]}")

    def best_rms(center):
        radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        try:
            fits = select_model(thetas, radii, candidates)
        except CalibrationError:
            return np.inf, None
        return fits[0].rms_residual, fits

    if refine_center:
        from scipy import optimize

        result = optimize.minimize(
            lambda c: best_rms(c)[0], np.asarray(center_guess, dtype=np.float64),
            method="Nelder-Mead", options={"xatol": 1e-3, "fatol": 1e-9, "maxiter": 200},
        )
        center = result.x
    else:
        center = np.asarray(center_guess, dtype=np.float64)

    rms, fits = best_rms(center)
    if fits is None:
        raise CalibrationError("calibration failed: no model fits at the solved centre")
    best = fits[0]
    return CalibrationResult(
        model=best.model, focal=best.focal,
        cx=float(center[0]), cy=float(center[1]),
        rms_residual=best.rms_residual, fits=tuple(fits),
    )
