"""Point-level distortion API tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mapping import perspective_map
from repro.core.points import distort_points, undistort_points
from repro.errors import GeometryError


class TestDistortPoints:
    @pytest.mark.tier1
    def test_agrees_with_map_on_grid(self, small_sensor, small_lens, small_out):
        field = perspective_map(small_sensor, small_lens, small_out)
        xs, ys = np.meshgrid(np.arange(0, 64, 7, dtype=float),
                             np.arange(0, 64, 7, dtype=float))
        px, py = distort_points(xs, ys, small_sensor, small_lens, small_out)
        np.testing.assert_array_equal(px, field.map_x[::7, ::7])
        np.testing.assert_array_equal(py, field.map_y[::7, ::7])

    @pytest.mark.tier1
    def test_agrees_with_tilted_map(self, small_sensor, small_lens, small_out):
        pitch = np.deg2rad(30.0)
        field = perspective_map(small_sensor, small_lens, small_out, pitch=pitch)
        xs = np.array([5.0, 32.0, 60.0])
        ys = np.array([10.0, 32.0, 50.0])
        px, py = distort_points(xs, ys, small_sensor, small_lens, small_out,
                                pitch=pitch)
        rows, cols = ys.astype(int), xs.astype(int)
        np.testing.assert_array_equal(px, field.map_x[rows, cols])
        np.testing.assert_array_equal(py, field.map_y[rows, cols])

    def test_shape_mismatch(self, small_sensor, small_lens, small_out):
        with pytest.raises(GeometryError):
            distort_points(np.zeros(3), np.zeros(4), small_sensor, small_lens,
                           small_out)


class TestUndistortPoints:
    def test_center_fixed_point(self, small_sensor, small_lens, small_out):
        xp, yp = undistort_points(small_sensor.cx, small_sensor.cy,
                                  small_sensor, small_lens, small_out)
        assert float(xp) == pytest.approx(small_out.cx, abs=1e-9)
        assert float(yp) == pytest.approx(small_out.cy, abs=1e-9)

    def test_rim_point_beyond_perspective_is_nan(self, small_sensor, small_lens,
                                                 small_out):
        # a point at exactly 90 deg field angle has no perspective image
        r90 = float(small_lens.angle_to_radius(np.pi / 2.0))
        xp, yp = undistort_points(small_sensor.cx + r90, small_sensor.cy,
                                  small_sensor, small_lens, small_out)
        assert np.isnan(xp) and np.isnan(yp)

    def test_radius_beyond_lens_is_nan(self, small_sensor, small_out):
        from repro.core.lens import OrthographicLens

        lens = OrthographicLens(20.0)
        xp, _ = undistort_points(small_sensor.cx + 25.0, small_sensor.cy,
                                 small_sensor, lens, small_out)
        assert np.isnan(xp)


class TestRoundTrip:
    def test_undistort_inverts_distort(self, small_sensor, small_lens, small_out):
        rng = np.random.default_rng(7)
        xs = rng.uniform(5, 59, size=50)
        ys = rng.uniform(5, 59, size=50)
        sx, sy = distort_points(xs, ys, small_sensor, small_lens, small_out)
        bx, by = undistort_points(sx, sy, small_sensor, small_lens, small_out)
        np.testing.assert_allclose(bx, xs, atol=1e-8)
        np.testing.assert_allclose(by, ys, atol=1e-8)

    def test_roundtrip_with_rotation(self, small_sensor, small_lens, small_out):
        rng = np.random.default_rng(8)
        xs = rng.uniform(10, 54, size=20)
        ys = rng.uniform(10, 54, size=20)
        view = dict(yaw=np.deg2rad(25.0), pitch=np.deg2rad(-15.0),
                    roll=np.deg2rad(10.0))
        sx, sy = distort_points(xs, ys, small_sensor, small_lens, small_out, **view)
        bx, by = undistort_points(sx, sy, small_sensor, small_lens, small_out, **view)
        np.testing.assert_allclose(bx, xs, atol=1e-8)
        np.testing.assert_allclose(by, ys, atol=1e-8)


@given(x=st.floats(2, 62), y=st.floats(2, 62),
       yaw=st.floats(-0.5, 0.5), pitch=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_property_point_roundtrip(x, y, yaw, pitch):
    """distort -> undistort is identity for every in-view point."""
    from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
    from repro.core.lens import EquidistantLens

    size = 64
    circle = size / 2.0 - 1.0
    sensor = FisheyeIntrinsics.centered(size, size, focal=circle / (np.pi / 2.0))
    lens = EquidistantLens(sensor.focal)
    out = CameraIntrinsics(fx=sensor.focal * 0.5, fy=sensor.focal * 0.5,
                           cx=31.5, cy=31.5, width=size, height=size)
    sx, sy = distort_points(np.array([x]), np.array([y]), sensor, lens, out,
                            yaw=yaw, pitch=pitch)
    if not (np.isfinite(sx).all() and np.isfinite(sy).all()):
        return
    bx, by = undistort_points(sx, sy, sensor, lens, out, yaw=yaw, pitch=pitch)
    assert bx[0] == pytest.approx(x, abs=1e-6)
    assert by[0] == pytest.approx(y, abs=1e-6)
