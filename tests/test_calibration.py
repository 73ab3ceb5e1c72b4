"""Calibration tests: ground-truth recovery from synthetic targets."""

import numpy as np
import pytest

from repro.core.calibration import (
    calibrate,
    detect_blobs,
    fit_focal,
    select_model,
)
from repro.core.lens import make_lens
from repro.errors import CalibrationError


def observations(lens, n=24, max_theta_frac=0.9, noise=0.0, seed=0):
    """Synthetic (theta, radius) pairs from a known lens."""
    rng = np.random.default_rng(seed)
    thetas = np.linspace(0.05, lens.max_theta * max_theta_frac, n)
    thetas = np.minimum(thetas, np.pi / 2 * 0.98)
    radii = np.asarray(lens.angle_to_radius(thetas))
    if noise:
        radii = radii + rng.normal(0, noise, size=radii.shape)
    return thetas, radii


class TestFitFocal:
    @pytest.mark.parametrize("name", ["equidistant", "equisolid", "orthographic",
                                      "stereographic"])
    def test_exact_recovery(self, name):
        lens = make_lens(name, 137.0)
        thetas, radii = observations(lens)
        assert fit_focal(thetas, radii, name) == pytest.approx(137.0, rel=1e-12)

    def test_noisy_recovery_within_tolerance(self):
        lens = make_lens("equidistant", 200.0)
        thetas, radii = observations(lens, n=100, noise=0.5)
        assert fit_focal(thetas, radii) == pytest.approx(200.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            fit_focal([], [], "equidistant")
        with pytest.raises(CalibrationError):
            fit_focal([0.5], [-1.0], "equidistant")
        with pytest.raises(CalibrationError):
            fit_focal([0.5, 0.6], [1.0], "equidistant")

    def test_angle_domain_checked(self):
        with pytest.raises(CalibrationError):
            fit_focal([2.0], [100.0], "orthographic")  # beyond pi/2


class TestSelectModel:
    @pytest.mark.parametrize("truth", ["equidistant", "equisolid", "stereographic"])
    def test_picks_true_family(self, truth):
        lens = make_lens(truth, 150.0)
        thetas, radii = observations(lens, n=40)
        fits = select_model(thetas, radii)
        assert fits[0].model == truth
        assert fits[0].rms_residual < fits[1].rms_residual

    def test_residual_ordering(self):
        lens = make_lens("equidistant", 80.0)
        thetas, radii = observations(lens)
        fits = select_model(thetas, radii)
        residuals = [f.rms_residual for f in fits]
        assert residuals == sorted(residuals)

    def test_empty_candidates_raise(self):
        with pytest.raises(CalibrationError):
            select_model([2.5], [10.0], candidates=["orthographic"])

    def test_fit_lens_constructible(self):
        lens = make_lens("equisolid", 60.0)
        thetas, radii = observations(lens)
        best = select_model(thetas, radii)[0]
        assert best.lens().focal == pytest.approx(60.0, rel=1e-9)


class TestDetectBlobs:
    def test_finds_isolated_dots(self):
        img = np.zeros((40, 40))
        img[10:13, 10:13] = 200.0
        img[30:34, 25:29] = 180.0
        blobs = detect_blobs(img, threshold=50.0)
        assert len(blobs) == 2
        # largest first
        assert blobs[0].area >= blobs[1].area

    def test_centroid_accuracy(self):
        img = np.zeros((21, 21))
        img[9:12, 9:12] = 100.0  # 3x3 block centred at (10, 10)
        blob = detect_blobs(img, threshold=10.0)[0]
        assert blob.x == pytest.approx(10.0)
        assert blob.y == pytest.approx(10.0)

    def test_min_area_filters_noise(self):
        img = np.zeros((20, 20))
        img[5, 5] = 255.0  # single-pixel speck
        img[10:14, 10:14] = 255.0
        blobs = detect_blobs(img, threshold=1.0, min_area=3)
        assert len(blobs) == 1

    def test_rejects_color_images(self):
        with pytest.raises(CalibrationError):
            detect_blobs(np.zeros((4, 4, 3)))

    def test_default_threshold_on_real_target(self):
        from repro.video.synth import circle_grid
        img, points = circle_grid(128, 128, rings=2, spokes=6)
        blobs = detect_blobs(img.astype(float))
        assert len(blobs) == len(points)


class TestCalibrate:
    def _target(self, name="equidistant", focal=90.0, center=(63.5, 63.5), n=30,
                seed=4):
        lens = make_lens(name, focal)
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(0.1, min(lens.max_theta, np.pi / 2) * 0.85, size=n)
        phis = rng.uniform(0, 2 * np.pi, size=n)
        radii = np.asarray(lens.angle_to_radius(thetas))
        pts = np.stack([center[0] + radii * np.cos(phis),
                        center[1] + radii * np.sin(phis)], axis=1)
        return pts, thetas

    def test_recovers_model_focal_and_center(self):
        pts, thetas = self._target()
        result = calibrate(pts, thetas, center_guess=(60.0, 66.0))
        assert result.model == "equidistant"
        assert result.focal == pytest.approx(90.0, rel=1e-3)
        assert result.cx == pytest.approx(63.5, abs=0.05)
        assert result.cy == pytest.approx(63.5, abs=0.05)
        assert result.rms_residual < 1e-3

    def test_without_center_refinement(self):
        pts, thetas = self._target()
        result = calibrate(pts, thetas, center_guess=(63.5, 63.5),
                           refine_center=False)
        assert result.focal == pytest.approx(90.0, rel=1e-6)

    def test_result_lens_usable(self):
        pts, thetas = self._target(name="equisolid", focal=120.0)
        result = calibrate(pts, thetas, center_guess=(63.5, 63.5))
        assert result.model == "equisolid"
        lens = result.lens()
        assert float(lens.angle_to_radius(0.5)) == pytest.approx(
            float(make_lens("equisolid", 120.0).angle_to_radius(0.5)), rel=1e-3)

    def test_too_few_markers_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(np.zeros((2, 2)), np.array([0.1, 0.2]), (0, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(np.zeros((5, 3)), np.ones(5), (0, 0))


def test_calibration_survives_noise():
    """Blob detection and calibration on a rendered target under shot and read noise."""
    from repro.core.intrinsics import FisheyeIntrinsics
    from repro.core.lens import EquidistantLens
    from repro.video.distort import FisheyeRenderer, scene_camera_for_sensor
    from repro.video.synth import circle_grid

    size = 256
    circle = size / 2.0 - 1.0
    sensor = FisheyeIntrinsics.centered(size, size, focal=circle / (np.pi / 2.0))
    lens = EquidistantLens(sensor.focal)
    scene_cam = scene_camera_for_sensor(sensor, lens, size, size)
    target, pts = circle_grid(size, size, rings=4, spokes=8, dot_radius=4,
                              margin=0.7)
    frame = FisheyeRenderer(scene_cam, lens, sensor).render(target)
    rng = np.random.default_rng(9)
    full_well = 2000.0
    shot = rng.poisson(frame / 255.0 * full_well) / full_well * 255.0
    noisy = np.clip(np.rint(shot + rng.normal(0.0, 8.0, frame.shape)), 0, 255)

    xn, yn = scene_cam.normalize(pts[:, 0], pts[:, 1])
    thetas = np.arctan(np.hypot(xn, yn))
    blobs = detect_blobs(noisy, min_area=4)
    assert len(blobs) == len(pts)
    blob_pts = np.array([[b.x, b.y] for b in blobs])
    guess = blob_pts.mean(axis=0)
    order = np.argsort(np.hypot(blob_pts[:, 0] - guess[0],
                                blob_pts[:, 1] - guess[1]))
    result = calibrate(blob_pts[order][1:], np.sort(thetas)[1:],
                       center_guess=tuple(guess))
    assert result.focal == pytest.approx(sensor.focal, rel=0.02)
