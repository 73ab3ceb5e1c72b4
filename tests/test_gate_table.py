"""The regression gate's table and runner (benchmarks/check_regression.py).

The runner is driven with synthetic gates, so no benchmark runs here;
the real table is only inspected, never measured.
"""

import importlib.util
import json
import os
import sys

import pytest

pytestmark = pytest.mark.tier1

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_regression", os.path.join(REPO, "benchmarks", "check_regression.py"))
gate = sys.modules["check_regression"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)
Row, Gate = gate.Row, gate.Gate

SMOKE_HOST = {"always", "smoke"}
FULL_HOST = {"always", "full"}


def measuring(**result):
    return lambda full: dict(result)


def run(gates, tmp_path, capsys, facts=SMOKE_HOST):
    """Exit status, the last-line JSON summary and the written files."""
    status = gate.run_gates(gates, facts, out_dir=str(tmp_path))
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = {p.name: json.loads(p.read_text()) for p in tmp_path.iterdir()}
    return status, summary, files


class TestRunner:
    def test_full_row_on_small_host_is_not_observable(self, tmp_path, capsys):
        g = Gate("g", measuring(speedup=0.5), (
            Row("beats by 1.3x", "wall_clock", "speedup", 1.3, when="full"),
        ), "BENCH_g.json")
        status, summary, files = run((g,), tmp_path, capsys)
        assert status == 0
        assert summary == {"failed": [], "failed_invariant": [],
                           "not_observable": ["g: beats by 1.3x"]}
        row = files["BENCH_g.json"]["gates"]["beats by 1.3x"]
        assert row["verdict"] == row["value"] == "not_observable"
        assert row["floor"] == 1.3
        # the measurement itself is still recorded
        assert files["BENCH_g.json"]["speedup"] == 0.5

    def test_full_host_evaluates_full_rows_and_skips_smoke_rows(
            self, tmp_path, capsys):
        g = Gate("g", measuring(speedup=0.5, fps=100.0), (
            Row("beats by 1.3x", "wall_clock", "speedup", 1.3, when="full"),
            Row("above 2 fps", "wall_clock", "fps", 2.0, when="smoke"),
        ), "BENCH_g.json")
        status, summary, files = run((g,), tmp_path, capsys, FULL_HOST)
        assert status == 1
        assert summary["failed"] == ["g: beats by 1.3x"]
        assert summary["failed_invariant"] == []
        assert summary["not_observable"] == ["g: above 2 fps"]
        assert files["BENCH_g.json"]["mode"] == "full"

    def test_failing_invariant_sets_exit_status(self, tmp_path, capsys):
        g = Gate("g", measuring(exact=False, fps=100.0), (
            Row("output exact", "invariant", "exact"),
            Row("above 2 fps", "wall_clock", "fps", 2.0),
        ))
        status, summary, _ = run((g,), tmp_path, capsys)
        assert status == 1
        assert summary["failed"] == summary["failed_invariant"] \
            == ["g: output exact"]

    def test_failing_wall_clock_is_not_an_invariant(self, tmp_path, capsys):
        g = Gate("g", measuring(fps=1.0), (
            Row("above 2 fps", "wall_clock", "fps", 2.0),
        ))
        status, summary, _ = run((g,), tmp_path, capsys)
        assert status == 1
        assert summary["failed"] == ["g: above 2 fps"]
        assert summary["failed_invariant"] == []

    def test_recorded_row_never_fails(self, tmp_path, capsys):
        g = Gate("g", measuring(open_s=9.0), (
            Row("open time", "recorded", "open_s", 0.001, "<="),
        ), "BENCH_g.json")
        status, summary, files = run((g,), tmp_path, capsys)
        assert status == 0 and summary["failed"] == []
        row = files["BENCH_g.json"]["gates"]["open time"]
        assert row == {"kind": "recorded", "when": "always", "value": 9.0,
                       "verdict": "ok"}

    def test_numba_rows_need_numba(self, tmp_path, capsys):
        g = Gate("g", measuring(), (
            Row("compiled exact", "invariant", lambda r: r["missing"],
                when="numba"),
        ))
        status, summary, _ = run((g,), tmp_path, capsys)
        assert status == 0
        assert summary["not_observable"] == ["g: compiled exact"]

    def test_values_by_field_and_operator(self, tmp_path, capsys):
        g = Gate("g", measuring(runs=[{"fps": 3.0}], err=0.2, n=8), (
            Row("nested field", "invariant", "runs[0][fps]", 3.0, "=="),
            Row("within tolerance", "invariant", "err", 0.15, "<="),
            Row("strictly above 8", "invariant", "n", 8, ">"),
        ))
        status, summary, _ = run((g,), tmp_path, capsys)
        assert summary["failed"] == ["g: within tolerance",
                                     "g: strictly above 8"]

    def test_written_files_have_host_block_and_no_null(self, tmp_path, capsys):
        g = Gate("g", measuring(a=None, nested={"b": None}, seq=[None, 1]), (
            Row("seq recorded", "recorded", "seq"),
            Row("never on this host", "wall_clock", "a", 1.0, when="full"),
        ), "BENCH_g.json")
        run((g,), tmp_path, capsys)
        text = (tmp_path / "BENCH_g.json").read_text()
        assert "null" not in text
        doc = json.loads(text)
        assert doc["host"]["nproc"] == os.cpu_count()
        assert {"python", "numpy", "numba", "kernel_tier",
                "commit"} <= set(doc["host"])
        assert doc["a"] == doc["nested"]["b"] == "not_observable"
        assert doc["cpu_count"] == os.cpu_count()

    def test_summary_is_the_last_stdout_line(self, tmp_path, capsys):
        g = Gate("g", measuring(x=1), (Row("x set", "invariant", "x", 1),))
        assert gate.run_gates((g,), SMOKE_HOST, out_dir=str(tmp_path)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2] == "PASS"
        assert set(json.loads(lines[-1])) == {"failed", "failed_invariant",
                                              "not_observable"}


#: every floor the gate enforces, keyed by (gate, row label): a later edit
#: cannot loosen one silently
PINNED = {
    ("stream", "ring depth N beats depth 1 by 1.3x"): (1.3, ">="),
    ("stream", "ring above 2.0 fps floor"): (2.0, ">="),
    ("serve", "4 streams beat sequential by 1.5x"): (1.5, ">="),
    ("serve", "16 streams beat sequential by 1.5x"): (1.5, ">="),
    ("serve", "4 streams above 2.0 fps floor"): (2.0, ">="),
    ("serve", "16 streams above 2.0 fps floor"): (2.0, ">="),
    ("yuv", "planar touches 1.7x fewer bytes than RGB"): (1.7, ">="),
    ("yuv", "measured DMA within 15% of Cell model"): (0.15, "<="),
    ("fused", "fused gathers 1.8x fewer bytes"): (1.8, ">="),
    ("fused", "fused beats two-pass wall clock by 1.5x"): (1.5, ">="),
    ("fused", "fused beats two-pass wall clock by 1.2x"): (1.2, ">="),
    ("kernels", "compiled beats fused numpy by 2.0x"): (2.0, ">="),
    ("kernels", "fixed tier PSNR >= 40.0 dB vs float oracle"): (40.0, ">="),
    ("experiments", "sequential favours LUT"): (1.5, ">"),
    ("experiments", "host(numpy) favours LUT"): (1.5, ">"),
    ("experiments", "parallel speedup positive"): (0, ">"),
    ("baseline", "fused apply beats seed kernel"): (1.0, ">"),
    ("baseline", "disabled telemetry within budget"): (1.0, "<="),
    ("baseline", "nearest entry >= 40% smaller"): (0.6, "<="),
    ("baseline", "bilinear entry >= 40% smaller"): (0.6, "<="),
    ("baseline", "bicubic entry >= 40% smaller"): (0.6, "<="),
    ("stream", "ring kept frames in flight"): (2, ">="),
    ("stream", "depth-1 session held one frame at a time"): (1, "=="),
}
FUSED_QUALITY = ("fused", "fused within 40.0 dB floor or 1.0 dB of two-pass "
                          "vs gold")


class TestGateTable:
    rows = {(g.name, r.label): r for g in gate.GATES for r in g.rows}

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_threshold_pinned(self, key):
        row = self.rows[key]
        assert (row.floor, row.op) == PINNED[key]
        assert row.kind != "recorded"

    def test_fused_quality_floor_pinned(self):
        row = self.rows[FUSED_QUALITY]
        assert row.floor == (40.0, 1.0)
        # absolute PSNR floor vs two-pass, or at most 1 dB behind it
        # against the gold render
        assert row.op((40.0, 9.0), row.floor)
        assert row.op((30.0, 1.0), row.floor)
        assert not row.op((39.9, 1.1), row.floor)

    def test_full_mode_needs_four_cores(self):
        assert gate.FULL_MIN_CORES == 4

    def test_rows_are_well_formed(self):
        for g in gate.GATES:
            labels = [r.label for r in g.rows]
            assert len(labels) == len(set(labels)), g.name
            for r in g.rows:
                assert r.kind in gate.KINDS, (g.name, r.label)
                assert set(r.when.split("+")) <= set(gate.PRECONDITIONS)
                assert callable(r.value) or isinstance(r.value, str)
                assert callable(r.op) or r.op in gate.OPS

    def test_bench_files(self):
        assert {g.path for g in gate.GATES if g.path} == {
            "BENCH_stream.json", "BENCH_serve.json", "BENCH_kernels.json",
            "BENCH_yuv.json", "BENCH_fused.json"}
