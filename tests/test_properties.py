"""Cross-module property-based tests (hypothesis).

These pin down invariants that hold *across* subsystem boundaries —
the contracts the platform models and executors rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.intrinsics import CameraIntrinsics, FisheyeIntrinsics
from repro.core.lens import EquidistantLens, make_lens
from repro.core.mapping import RemapField, perspective_map
from repro.core.remap import RemapLUT, remap


SIZE = 32


def _rig(zoom=0.5):
    circle = SIZE / 2.0 - 1.0
    sensor = FisheyeIntrinsics.centered(SIZE, SIZE, focal=circle / (np.pi / 2.0))
    lens = EquidistantLens(sensor.focal)
    out = CameraIntrinsics(fx=sensor.focal * zoom, fy=sensor.focal * zoom,
                           cx=(SIZE - 1) / 2.0, cy=(SIZE - 1) / 2.0,
                           width=SIZE, height=SIZE)
    return sensor, lens, out


@st.composite
def random_affine_field(draw):
    """A random affine backward map into a 32x32 source (always valid)."""
    scale = draw(st.floats(0.3, 1.5))
    angle = draw(st.floats(-0.5, 0.5))
    ys, xs = np.indices((SIZE, SIZE), dtype=np.float64)
    cx = cy = (SIZE - 1) / 2.0
    ca, sa = np.cos(angle), np.sin(angle)
    mx = cx + scale * (ca * (xs - cx) - sa * (ys - cy))
    my = cy + scale * (sa * (xs - cx) + ca * (ys - cy))
    return RemapField(mx, my, SIZE, SIZE)


class TestLUTLinearity:
    @given(field=random_affine_field(), a=st.floats(-2.0, 2.0),
           b=st.floats(-2.0, 2.0), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_lut_apply_is_linear_on_float_frames(self, field, a, b, seed):
        """apply(aX + bY) == a apply(X) + b apply(Y) (fill = 0)."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(SIZE, SIZE)).astype(np.float32)
        Y = rng.normal(size=(SIZE, SIZE)).astype(np.float32)
        lut = RemapLUT(field, method="bilinear", fill=0.0)
        lhs = lut.apply((a * X + b * Y).astype(np.float32))
        rhs = a * lut.apply(X) + b * lut.apply(Y)
        np.testing.assert_allclose(lhs, rhs, atol=2e-4)

    @given(field=random_affine_field(), shift=st.floats(-50, 50),
           seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_constant_shift_commutes_inside_valid_region(self, field, shift, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(SIZE, SIZE)).astype(np.float32)
        lut = RemapLUT(field, method="bilinear", fill=0.0)
        mask = field.valid_mask()
        lhs = lut.apply((X + np.float32(shift)).astype(np.float32))
        rhs = lut.apply(X) + np.float32(shift)
        np.testing.assert_allclose(lhs[mask], rhs[mask], atol=2e-3)


class TestLUTvsOnTheFly:
    @given(field=random_affine_field(), seed=st.integers(0, 99),
           method=st.sampled_from(["nearest", "bilinear", "bicubic"]))
    @settings(max_examples=40, deadline=None)
    def test_lut_equals_direct_remap(self, field, seed, method):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(SIZE, SIZE), dtype=np.uint8)
        via_lut = RemapLUT(field, method=method).apply(img)
        direct = remap(img, field, method=method)
        np.testing.assert_allclose(via_lut.astype(int), direct.astype(int),
                                   atol=1)


class TestGeometryMonotonicity:
    @given(z1=st.floats(0.3, 3.0), z2=st.floats(0.3, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_wider_zoom_samples_wider(self, z1, z2):
        """Smaller zoom (wider view) reaches at least as far into the
        fisheye periphery."""
        lo, hi = sorted((z1, z2))
        if hi - lo < 1e-3:
            return
        sensor, lens, _ = _rig()

        def max_radius(zoom):
            _, _, out = _rig(zoom)
            f = perspective_map(sensor, lens, out)
            r = np.hypot(f.map_x - sensor.cx, f.map_y - sensor.cy)
            return float(np.nanmax(r))

        assert max_radius(lo) >= max_radius(hi) - 1e-9

    @given(focal=st.floats(5.0, 500.0),
           name=st.sampled_from(["equidistant", "equisolid", "stereographic"]))
    @settings(max_examples=40, deadline=None)
    def test_center_magnification_equals_focal(self, focal, name):
        """dr/dtheta at 0 == f for every family — the invariant the
        zoom semantics of FisheyeCorrector rest on."""
        lens = make_lens(name, focal)
        assert float(lens.magnification(1e-4)) == pytest.approx(focal, rel=1e-3)


class TestPipelineModelInvariants:
    @given(times=st.lists(st.integers(1, 10_000_000), min_size=1, max_size=6),
           shared=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_utilization_and_bounds(self, times, shared):
        from repro.accel.hetero import PipelineModel, Stage

        stages = [
            Stage(f"s{i}", t, "res" if shared else f"res{i}")
            for i, t in enumerate(times)
        ]
        pipe = PipelineModel(stages)
        util = pipe.utilization()
        assert util[pipe.bottleneck] == pytest.approx(1.0)
        assert all(u <= 1.0 + 1e-12 for u in util.values())
        assert pipe.latency_ns >= pipe.interval_ns
        assert pipe.frames_in_flight >= 1
        if shared:
            assert pipe.interval_ns == sum(times)
        else:
            assert pipe.interval_ns == max(times)


class TestEnergyInvariants:
    @given(threads=st.integers(1, 16), res=st.sampled_from(["VGA", "720p"]))
    @settings(max_examples=20, deadline=None)
    def test_average_power_within_envelope(self, threads, res):
        from repro.accel.energy import POWER_SPECS, energy_report
        from repro.accel.presets import xeon_modern
        from repro.bench.harness import standard_workload

        smp = xeon_modern()
        rep = smp.estimate_frame(standard_workload(res, mode="otf"),
                                 threads=threads)
        e = energy_report(rep)
        spec = POWER_SPECS["xeon16"]
        assert spec.idle_w - 1e-9 <= e.watts_average <= spec.active_w + 1e-9

