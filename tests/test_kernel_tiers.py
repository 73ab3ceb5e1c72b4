"""Kernel-tier ladder tests: selection, execution, and plumbing.

Covers the tier registry (:mod:`repro.core.kernel_tiers`), the
``RemapLUT`` tier dispatch, the integration seams (pipeline, stream,
shared-memory workers, CLI, telemetry), and the compiled tier where
numba is installed (those tests self-skip elsewhere — the no-numba CI
leg runs everything else).
"""

import numpy as np
import pytest

from repro.core import kernel_tiers
from repro.core.pipeline import FisheyeCorrector
from repro.core.remap import RemapLUT
from repro.errors import KernelTierError

pytestmark = pytest.mark.tier1

HAS_NUMBA = kernel_tiers.numba_available()
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


class TestRegistry:
    def test_choices_superset_of_tiers(self):
        assert set(kernel_tiers.KERNEL_TIERS) < set(kernel_tiers.KERNEL_CHOICES)
        assert "auto" in kernel_tiers.KERNEL_CHOICES

    def test_available_tiers_ladder_order(self):
        tiers = kernel_tiers.available_tiers()
        assert tiers[:2] == ("numpy", "fixed")
        assert ("compiled" in tiers) == HAS_NUMBA

    def test_probe_matches_auto(self):
        assert kernel_tiers.kernel_tier() == kernel_tiers.resolve_tier("auto")

    def test_identity_tiers(self):
        assert kernel_tiers.resolve_tier("numpy") == "numpy"
        assert kernel_tiers.resolve_tier("fixed") == "fixed"

    def test_auto_never_picks_fixed(self):
        assert kernel_tiers.resolve_tier("auto") in ("numpy", "compiled")

    def test_unknown_tier_raises(self):
        with pytest.raises(KernelTierError):
            kernel_tiers.resolve_tier("cuda")

    @staticmethod
    def _capture_warnings():
        import logging

        class _ListHandler(logging.Handler):
            def __init__(self):
                super().__init__(logging.WARNING)
                self.records = []

            def emit(self, record):
                self.records.append(record)

        return logging.getLogger("repro.core.kernel_tiers"), _ListHandler()

    def test_compiled_fallback_warns_once(self):
        if HAS_NUMBA:
            pytest.skip("fallback path only exists without numba")
        kernel_tiers._warned_fallback = False
        logger, handler = self._capture_warnings()
        logger.addHandler(handler)
        try:
            assert kernel_tiers.resolve_tier("compiled") == "numpy"
            assert kernel_tiers.resolve_tier("compiled") == "numpy"
        finally:
            logger.removeHandler(handler)
        warned = [r for r in handler.records if "falling back" in r.getMessage()]
        assert len(warned) == 1

    def test_quiet_resolve_does_not_warn(self):
        if HAS_NUMBA:
            pytest.skip("fallback path only exists without numba")
        kernel_tiers._warned_fallback = False
        logger, handler = self._capture_warnings()
        logger.addHandler(handler)
        try:
            kernel_tiers.resolve_tier("compiled", quiet=True)
        finally:
            logger.removeHandler(handler)
        assert not [r for r in handler.records if "falling back" in r.getMessage()]


class TestRemapTierDispatch:
    def test_fixed_tier_bit_exact_with_fixedpoint(self, tilted_field, rng,
                                                  q_reference):
        """The Q tiers against the independent fixed-point reference
        (``conftest._q_reference``): gray and RGB frames, whole frames
        and the rows path, compiled too when numba is installed."""
        base = RemapLUT(tilted_field, fill=5)
        tiers = ["fixed"] + (["compiled"] if HAS_NUMBA else [])
        frames = [rng.integers(0, 256, (64, 64), dtype=np.uint8),
                  rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)]
        for tier in tiers:
            lut = base.with_tier(tier)
            for frame in frames:
                want = q_reference(base, frame, lut.frac_bits)
                np.testing.assert_array_equal(lut.apply(frame), want)
                out = np.zeros_like(want)
                for row0, row1 in ((0, 23), (23, 64)):
                    lut.apply_rows_into(frame, row0, row1, out[row0:row1])
                    np.testing.assert_array_equal(
                        out[row0:row1],
                        q_reference(base, frame, lut.frac_bits, row0, row1))
                np.testing.assert_array_equal(out, want)

    def test_with_tier_shares_tables(self, small_field):
        base = RemapLUT(small_field)
        fixed = base.with_tier("fixed")
        assert fixed is not base
        assert fixed.base is base.base
        assert fixed.fracs is base.fracs
        assert base.tier == "numpy" and fixed.tier == "fixed"

    def test_with_tier_same_tier_is_identity(self, small_field):
        base = RemapLUT(small_field)
        assert base.with_tier("numpy") is base
        fixed = base.with_tier("fixed")
        assert fixed.with_tier("fixed") is fixed

    def test_with_tier_bad_bits(self, small_field):
        with pytest.raises(KernelTierError):
            RemapLUT(small_field).with_tier("fixed", frac_bits=15)

    def test_float_frames_fall_back_to_numpy(self, small_field, random_image):
        base = RemapLUT(small_field)
        fixed = base.with_tier("fixed")
        frame = random_image.astype(np.float32)
        np.testing.assert_array_equal(fixed.apply(frame), base.apply(frame))

    def test_all_methods_and_dtypes(self, small_field, rng):
        for method in ("nearest", "bilinear", "bicubic"):
            base = RemapLUT(small_field, method=method)
            fixed = base.with_tier("fixed")
            for dtype, hi in ((np.uint8, 256), (np.uint16, 65536)):
                frame = rng.integers(0, hi, size=(64, 64), dtype=dtype)
                a = base.apply(frame).astype(np.int64)
                b = fixed.apply(frame).astype(np.int64)
                tol = 1 if dtype == np.uint8 else hi // 256
                assert np.abs(a - b).max() <= max(1, tol)

    def test_rgb_frames(self, small_field, rgb_image):
        out = RemapLUT(small_field).with_tier("fixed").apply(rgb_image)
        assert out.shape == rgb_image.shape[:2] + (3,)

    def test_pickle_roundtrip_keeps_tier(self, small_field, random_image):
        import pickle
        fixed = RemapLUT(small_field).with_tier("fixed")
        clone = pickle.loads(pickle.dumps(fixed))
        assert clone.tier == "fixed"
        np.testing.assert_array_equal(clone.apply(random_image),
                                      fixed.apply(random_image))

    def test_tier_counter_recorded(self, small_field, random_image):
        from repro.obs.telemetry import Telemetry, set_telemetry
        tel = Telemetry()
        set_telemetry(tel)
        try:
            RemapLUT(small_field).with_tier("fixed").apply(random_image)
            snap = tel.snapshot()
        finally:
            set_telemetry(None)
        assert snap["counters"].get("kernel.tier.fixed") == 1
        spans = [s for s in snap["spans"] if s["name"] == "remap.apply"]
        assert spans and spans[0]["args"]["tier"] == "fixed"


class TestPipelineIntegration:
    def _corrector(self, kernel):
        from repro.core.intrinsics import FisheyeIntrinsics
        from repro.core.lens import make_lens
        w = h = 64
        focal = (min(w, h) / 2 - 1) / (np.pi / 2)
        sensor = FisheyeIntrinsics.centered(w, h, focal=focal)
        lens = make_lens("equidistant", focal)
        return FisheyeCorrector.for_sensor(sensor, lens, w, h, zoom=0.5,
                                           kernel=kernel)

    def test_corrector_kernel_resolved_and_reported(self, random_image):
        c = self._corrector("fixed")
        assert c.kernel == "fixed"
        assert c.stats()["kernel"] == "fixed"
        c.correct(random_image)
        assert c.lut.tier == "fixed"

    def test_corrector_outputs_match_tiers(self, random_image):
        a = self._corrector("numpy").correct(random_image).astype(np.int16)
        b = self._corrector("fixed").correct(random_image).astype(np.int16)
        assert np.abs(a - b).max() <= 1

    def test_corrector_rejects_unknown_kernel(self):
        with pytest.raises(KernelTierError):
            self._corrector("sse2")

    def test_corrected_stream_kernel(self, small_field, random_image):
        from repro.video.stream import corrected_stream
        ref = RemapLUT(small_field).with_tier("fixed").apply(random_image)
        outs = [f.copy() for f in corrected_stream(
            [random_image] * 2, small_field, kernel="fixed")]
        assert len(outs) == 2
        np.testing.assert_array_equal(outs[0], ref)

    def test_shared_tables_carry_tier(self, small_field, random_image):
        from repro.parallel.shmseg import SharedTables, attach_tables
        lut = RemapLUT(small_field).with_tier("fixed")
        st = SharedTables(lut)
        try:
            assert "qwtab" in st.spec[0]
            assert st.meta[0]["tier"] == "fixed"
            assert st.meta[0]["frac_bits"] == lut.frac_bits
            segments, (worker_lut,) = attach_tables(st.spec, st.meta)
            try:
                assert worker_lut.tier == "fixed"
                np.testing.assert_array_equal(worker_lut.apply(random_image),
                                              lut.apply(random_image))
            finally:
                for shm in segments:
                    shm.close()
        finally:
            st.release()

    def test_shared_tables_numpy_tier_skips_qwtab(self, small_field):
        from repro.parallel.shmseg import SharedTables
        st = SharedTables(RemapLUT(small_field))
        try:
            assert "qwtab" not in st.spec[0]
            assert st.meta[0]["tier"] == "numpy"
        finally:
            st.release()

    def test_cli_correct_kernel_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.video.io import read_pgm, write_pgm
        rng = np.random.default_rng(0)
        src = str(tmp_path / "in.pgm")
        write_pgm(src, rng.integers(0, 256, (64, 64), dtype=np.uint8))
        for kernel, label in (("numpy", "kernel numpy"),
                              ("fixed", "kernel fixed")):
            dst = str(tmp_path / f"out_{kernel}.pgm")
            assert main(["correct", src, dst, "--kernel", kernel]) == 0
            assert label in capsys.readouterr().out
            assert read_pgm(dst).shape == (64, 64)

    def test_cli_rejects_unknown_kernel(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["correct", "a.pgm", "b.pgm", "--kernel", "gpu"])

    def test_trace_spans_labelled_with_tier(self, small_field, random_image):
        from repro.obs.export import chrome_trace, format_snapshot
        from repro.obs.telemetry import Telemetry, set_telemetry
        tel = Telemetry()
        set_telemetry(tel)
        try:
            RemapLUT(small_field).with_tier("fixed").apply(random_image)
            snap = tel.snapshot()
        finally:
            set_telemetry(None)
        names = [e["name"] for e in chrome_trace(snap) if e.get("ph") == "X"]
        assert "remap.apply [fixed]" in names
        assert "remap.apply [fixed]" in format_snapshot(snap)


@needs_numba
class TestCompiledTier:
    def test_compiled_resolves(self):
        assert kernel_tiers.resolve_tier("compiled") == "compiled"
        assert kernel_tiers.kernel_tier() == "compiled"

    def test_compiled_bit_exact_with_fixed(self, tilted_field, random_image):
        base = RemapLUT(tilted_field, fill=4)
        a = base.with_tier("fixed").apply(random_image)
        b = base.with_tier("compiled").apply(random_image)
        np.testing.assert_array_equal(a, b)

    def test_compiled_rgb_and_uint16(self, small_field, rng):
        base = RemapLUT(small_field)
        rgb = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        np.testing.assert_array_equal(base.with_tier("fixed").apply(rgb),
                                      base.with_tier("compiled").apply(rgb))
        wide = rng.integers(0, 65536, (64, 64), dtype=np.uint16)
        np.testing.assert_array_equal(base.with_tier("fixed").apply(wide),
                                      base.with_tier("compiled").apply(wide))

    def test_compiled_rows_into(self, small_field, random_image):
        lut = RemapLUT(small_field).with_tier("compiled")
        full = lut.apply(random_image)
        out = np.zeros_like(full)
        h = lut.out_shape[0]
        lut.apply_rows_into(random_image, 0, h // 2, out[: h // 2])
        lut.apply_rows_into(random_image, h // 2, h, out[h // 2:])
        np.testing.assert_array_equal(out, full)
