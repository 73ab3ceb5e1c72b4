"""Cell BE platform model tests."""

import numpy as np
import pytest

from repro.accel.cellbe import CellModel
from repro.accel.platform import Workload
from repro.errors import CapacityError, PlatformError


@pytest.fixture()
def cell():
    return CellModel(spes=4, ppe_serial_ns=1_000)


@pytest.fixture()
def workload(small_field):
    return Workload.from_field(small_field, mode="otf")


@pytest.fixture()
def workload_lut(small_field):
    return Workload.from_field(small_field, mode="lut")


class TestConstruction:
    def test_validation(self):
        with pytest.raises(PlatformError):
            CellModel(spes=0)
        with pytest.raises(PlatformError):
            CellModel(eib_bw_gbps=0.0)
        with pytest.raises(PlatformError):
            CellModel(code_bytes=300 * 1024)

    def test_peak_scales_with_spes(self):
        assert CellModel(spes=8).peak_gflops == 2 * CellModel(spes=4).peak_gflops


class TestTiling:
    def test_max_tile_rows_fits_budget(self, cell, workload):
        rows = cell.max_tile_rows(workload, double_buffering=False)
        jobs = cell._jobs(workload, rows)
        budget = cell.usable_local_store(False)
        assert max(j.working_set for j in jobs) <= budget

    def test_double_buffering_halves_budget(self, cell, workload):
        single = cell.max_tile_rows(workload, double_buffering=False)
        double = cell.max_tile_rows(workload, double_buffering=True)
        assert double <= single

    def test_tiny_local_store_infeasible(self, workload):
        # budget of 256 B (128 double-buffered) cannot hold one output row
        tiny = CellModel(local_store_bytes=48 * 1024 + 256, code_bytes=48 * 1024)
        with pytest.raises(CapacityError):
            tiny.max_tile_rows(workload)

    def test_max_tile_shape_column_split_fallback(self, workload):
        # a store too small for full-width bands but fine for half-width
        small = CellModel(local_store_bytes=56 * 1024, code_bytes=32 * 1024)
        rows, cols = small.max_tile_shape(workload, double_buffering=True)
        assert cols <= workload.out_width
        assert rows >= 1

    def test_simulate_rejects_oversized_explicit_tile(self, workload):
        # whole-frame tile (~9 KB working set) vs a 4 KB double-buffer budget
        small = CellModel(local_store_bytes=56 * 1024, code_bytes=48 * 1024)
        with pytest.raises(CapacityError):
            small.simulate(workload, tile_rows=workload.out_height,
                           tile_cols=workload.out_width, double_buffering=True)

    @pytest.mark.parametrize("tile_cols", [None, 24, 16])
    @pytest.mark.parametrize("mode", ["otf", "lut"])
    def test_worst_working_set_matches_jobs(self, cell, tilted_field, mode,
                                            tile_cols):
        """The per-band reduction of row extents prices every tiling
        exactly as building its tiles does (ragged last band and column
        block included)."""
        workload = Workload.from_field(tilted_field, mode=mode, pixel_bytes=3)
        worst = cell._worst_working_set(workload, tile_cols)
        for rows in range(1, workload.out_height + 1):
            jobs = cell._jobs(workload, rows, tile_cols)
            assert worst(rows) == max(j.working_set for j in jobs), rows

    @pytest.mark.parametrize("store_kb", [52, 56, 64, 96])
    def test_max_tile_shape_matches_brute_force(self, tilted_field, store_kb):
        """``max_tile_rows`` (with and without a column split) and
        ``max_tile_shape`` agree with a model whose feasibility probe
        builds every tile of the tiling."""

        class BruteForceCell(CellModel):
            def _worst_working_set(self, workload, tile_cols=None):
                return lambda rows: max(
                    j.working_set for j in self._jobs(workload, rows, tile_cols))

        kw = dict(local_store_bytes=store_kb * 1024, code_bytes=48 * 1024)
        fast, brute = CellModel(**kw), BruteForceCell(**kw)
        workload = Workload.from_field(tilted_field, mode="lut")
        for db in (True, False):
            for cols in (None, 32, 16):
                try:
                    want = brute.max_tile_rows(workload, db, tile_cols=cols)
                except CapacityError:
                    with pytest.raises(CapacityError):
                        fast.max_tile_rows(workload, db, tile_cols=cols)
                    continue
                assert fast.max_tile_rows(workload, db, tile_cols=cols) == want
            assert (fast.max_tile_shape(workload, db)
                    == brute.max_tile_shape(workload, db))

    def test_jobs_cover_all_pixels(self, cell, workload):
        jobs = cell._jobs(workload, 10, 20)
        total = sum(j.tile.pixels for j in jobs)
        assert total == workload.pixels


class TestSimulation:
    def test_deterministic(self, cell, workload):
        a = cell.simulate(workload)
        b = cell.simulate(workload)
        assert a.frame_ns == b.frame_ns

    def test_more_spes_not_slower(self, cell, workload):
        times = [cell.simulate(workload, spes=s).frame_ns for s in (1, 2, 4)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_compute_bound_otf_scales(self, cell, workload):
        t1 = cell.simulate(workload, spes=1).frame_ns
        t4 = cell.simulate(workload, spes=4).frame_ns
        assert t1 / t4 > 2.0

    def test_double_buffering_helps_compute_bound(self, workload):
        # bicubic OTF: compute dominates, so overlap hides the DMA
        cell = CellModel(spes=4, ppe_serial_ns=0)
        wl = Workload.from_field(workload.field, method="bicubic", mode="otf")
        single = cell.simulate(wl, double_buffering=False, tile_rows=4)
        double = cell.simulate(wl, double_buffering=True, tile_rows=4)
        assert double.frame_ns <= single.frame_ns

    def test_lut_mode_is_dma_bound(self, cell, workload_lut):
        rep = cell.simulate(workload_lut)
        assert rep.bottleneck == "dma"

    def test_bus_utilization_reported(self, cell, workload):
        rep = cell.simulate(workload)
        assert 0.0 <= rep.notes["bus_utilization"] <= 1.0

    def test_serial_floor(self, workload):
        cell = CellModel(spes=2, ppe_serial_ns=5_000_000)
        assert cell.simulate(workload).frame_ns >= 5_000_000

    def test_spe_bounds_checked(self, cell, workload):
        with pytest.raises(PlatformError):
            cell.simulate(workload, spes=0)
        with pytest.raises(PlatformError):
            cell.simulate(workload, spes=10)

    def test_scaling_helper(self, cell, workload):
        reports = cell.scaling(workload, spe_counts=[1, 2])
        assert [r.notes["spes"] for r in reports] == [1, 2]

    def test_estimate_frame_default(self, cell, workload):
        rep = cell.estimate_frame(workload)
        assert rep.notes["double_buffering"] is True

    def test_dma_traffic_accounting(self, cell, workload):
        rep = cell.simulate(workload)
        # DMA volume must at least cover the output frame writeback
        assert rep.notes["dma_bytes"] >= workload.frame_out_bytes()

    def test_eib_contention_at_scale(self, small_field):
        """With DMA-heavy LUT workloads, doubling SPEs stops helping."""
        wl = Workload.from_field(small_field, mode="lut")
        cell = CellModel(spes=8, ppe_serial_ns=0)
        t4 = cell.simulate(wl, spes=4).frame_ns
        t8 = cell.simulate(wl, spes=8).frame_ns
        # dma-bound: near-zero benefit from more SPEs
        assert t8 > t4 * 0.7


class TestFusedDMAProfile:
    def test_fused_ledger_beats_staged(self, small_field):
        from repro.core.compose import compose_fields, downscale_field

        fh, fw = small_field.shape
        outer = downscale_field(fw // 2, fh // 2, fw, fh, prefilter=False)
        fused_wl = Workload.from_field(compose_fields(outer, small_field))
        prof = CellModel().fused_dma_profile(
            fused_wl,
            {"correct": Workload.from_field(small_field),
             "downscale": Workload.from_field(outer)})
        assert set(prof["stages"]) == {"correct", "downscale"}
        assert prof["staged_total_bytes"] == sum(
            s["total_bytes"] for s in prof["stages"].values())
        # the fused single pass moves strictly fewer bytes
        assert prof["savings_ratio"] > 1.0
        assert prof["bytes_saved"] == (prof["staged_total_bytes"]
                                       - prof["fused"]["total_bytes"])
