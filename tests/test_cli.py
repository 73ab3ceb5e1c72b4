"""CLI tests (driven in-process through repro.cli.main)."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.video.io import read_pgm, write_pgm


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestSynth:
    def test_writes_scene(self, tmp_path, capsys):
        out = str(tmp_path / "scene.pgm")
        assert main(["synth", out, "--scene", "checkerboard",
                     "--width", "64", "--height", "64"]) == 0
        img = read_pgm(out)
        assert img.shape == (64, 64)
        assert "wrote" in capsys.readouterr().out

    def test_distorted_scene(self, tmp_path, capsys):
        out = str(tmp_path / "fish.pgm")
        assert main(["synth", out, "--scene", "circles", "--distort",
                     "--width", "64", "--height", "64"]) == 0
        img = read_pgm(out)
        # distorted frame has black out-of-scene corners
        assert img[0, 0] == 0

    def test_all_scene_kinds(self, tmp_path):
        for scene in ("checkerboard", "circles", "urban", "gradient", "grid"):
            out = str(tmp_path / f"{scene}.pgm")
            assert main(["synth", out, "--scene", scene,
                         "--width", "48", "--height", "48"]) == 0


class TestCorrect:
    def test_roundtrip(self, tmp_path, capsys):
        fish = str(tmp_path / "fish.pgm")
        assert main(["synth", fish, "--scene", "checkerboard", "--distort",
                     "--width", "96", "--height", "96"]) == 0
        out = str(tmp_path / "corrected.pgm")
        assert main(["correct", fish, out, "--zoom", "0.6",
                     "--method", "bilinear"]) == 0
        img = read_pgm(out)
        assert img.shape == (96, 96)
        assert "coverage" in capsys.readouterr().out

    def test_tilted_view_and_size(self, tmp_path):
        fish = str(tmp_path / "fish.pgm")
        main(["synth", fish, "--distort", "--width", "64", "--height", "64"])
        out = str(tmp_path / "view.pgm")
        assert main(["correct", fish, out, "--pitch", "30", "--yaw", "-10",
                     "--out-width", "48", "--out-height", "32"]) == 0
        assert read_pgm(out).shape == (32, 48)

    def test_missing_input_is_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.pgm")
        assert main(["correct", str(tmp_path / "nope.pgm"), out]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_pgm_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"not a pgm")
        assert main(["correct", str(bad), str(tmp_path / "o.pgm")]) == 1


class TestCalibrate:
    def test_recovers_from_rendered_grid(self, tmp_path, capsys):
        target = str(tmp_path / "target.pgm")
        assert main(["synth", target, "--scene", "grid", "--distort",
                     "--width", "256", "--height", "256"]) == 0
        assert main(["calibrate", target]) == 0
        out = capsys.readouterr().out
        assert "model:  equidistant" in out
        assert "focal:" in out

    def test_marker_count_mismatch_reported(self, tmp_path, capsys):
        target = str(tmp_path / "target.pgm")
        main(["synth", target, "--scene", "grid", "--distort",
              "--width", "256", "--height", "256"])
        assert main(["calibrate", target, "--rings", "2"]) == 1
        assert "detected" in capsys.readouterr().out


class TestBenchInfo:
    def test_bench_t1(self, capsys):
        assert main(["bench", "t1"]) == 0
        assert "platform characteristics" in capsys.readouterr().out

    def test_bench_all_runs_every_id_in_order(self, monkeypatch, capsys):
        import repro.bench

        ran = []
        monkeypatch.setattr(repro.bench, "run_experiment",
                            lambda exp_id: ran.append(exp_id) or exp_id)
        assert main(["bench", "all"]) == 0
        assert ran == ["T1", "T2"] + [f"F{i}" for i in range(1, 13)] \
            + ["A1", "A2", "A3", "A4", "H1", "H2"]

    def test_bench_unknown_id(self, capsys):
        assert main(["bench", "F99"]) == 1
        assert "error" in capsys.readouterr().err

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "equidistant" in out
        assert "gtx280" in out


class TestStream:
    ARGS = ["--frames", "4", "--width", "64", "--height", "64"]

    def test_seq_engine(self, capsys):
        assert main(["stream", "--engine", "seq"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "engine=seq" in out
        assert "4 frames" in out
        assert "fps" in out

    def test_pipelined_engine(self, capsys):
        assert main(["stream", "--engine", "pipelined", "--depth", "2"]
                    + self.ARGS) == 0
        assert "engine=pipelined depth=2" in capsys.readouterr().out

    def test_ring_engine(self, capsys):
        assert main(["stream", "--engine", "ring", "--workers", "1",
                     "--depth", "2", "--schedule", "guided"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "engine=ring workers=1 depth=2 schedule=guided" in out

    def test_ring_engine_defaults_to_the_library_schedule(self, capsys):
        from repro.parallel.ring import DEFAULT_SCHEDULE

        assert main(["stream", "--engine", "ring", "--workers", "1"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert f"schedule={DEFAULT_SCHEDULE}" in out

    def test_ring_trace_has_overlapping_tracks(self, tmp_path, capsys):
        trace = str(tmp_path / "stream.trace.json")
        assert main(["--trace", trace, "stream", "--engine", "ring",
                     "--workers", "1", "--depth", "2", "--frames", "6",
                     "--width", "64", "--height", "64"]) == 0
        capsys.readouterr()
        import json

        events = json.load(open(trace))
        if isinstance(events, dict):
            events = events["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"serve.feed", "serve.deliver", "frame.lifecycle"} <= names
        # band spans carry the kernel tier in their rendered name
        assert any(n.startswith("serve.band [") for n in names)

    def test_ring_depth_overflow_is_clean_error(self, capsys):
        assert main(["stream", "--engine", "ring", "--depth", "99"]
                    + self.ARGS) == 1
        assert "MAX_RING_DEPTH" in capsys.readouterr().err

    def test_serve_metrics_enables_live_surface(self, capsys):
        """--serve-metrics with no --metrics/--trace self-enables
        telemetry, announces the URL and prints the SLO digest."""
        assert main(["stream", "--engine", "ring", "--workers", "1",
                     "--serve-metrics", "0"] + self.ARGS) == 0
        captured = capsys.readouterr()
        assert "serving metrics on http://127.0.0.1:" in captured.err
        assert "/metrics /health /snapshot" in captured.err
        assert "slo: e2e p50" in captured.out
        assert "stalls 0" in captured.out
        # the self-enabled registry is torn down with the stream
        from repro.obs import get_telemetry
        assert not get_telemetry().enabled

    def test_deadline_flag_counts_misses(self, tmp_path, capsys):
        snap_path = str(tmp_path / "m.json")
        assert main(["--metrics", snap_path, "stream", "--engine", "ring",
                     "--workers", "1", "--deadline-ms", "0.000001"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "deadline miss 4/4 (100.0%)" in out
        import json

        snap = json.load(open(snap_path))
        assert snap["counters"]["stream.deadline_miss"] == 4
        assert snap["histograms"]["frame.e2e_latency_seconds"]["count"] == 4

    def test_stall_timeout_flag_accepted(self, capsys):
        assert main(["stream", "--engine", "ring", "--workers", "1",
                     "--stall-timeout", "30"] + self.ARGS) == 0
        assert "4 frames" in capsys.readouterr().out


class TestServe:
    ARGS = ["--frames", "3", "--width", "64", "--height", "64",
            "--workers", "1"]

    def test_multiplexes_streams_through_one_fleet(self, capsys):
        assert main(["serve", "--streams", "2"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serve: 2 streams x 3 frames" in out
        assert "fps aggregate" in out
        assert "s0: 3 frames" in out
        assert "s1: 3 frames" in out

    def test_defaults_to_the_library_schedule(self, capsys):
        from repro.parallel.ring import DEFAULT_SCHEDULE

        assert main(["serve", "--streams", "1"] + self.ARGS) == 0
        assert (f"through 1 workers schedule={DEFAULT_SCHEDULE} "
                in capsys.readouterr().out)

    def test_weights_csv_pads_with_ones(self, capsys):
        assert main(["serve", "--streams", "3", "--weights", "2"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "(weight 2" in out
        assert out.count("(weight 1") == 2

    def test_serve_metrics_self_enables_and_tears_down(self, capsys):
        assert main(["serve", "--streams", "2", "--serve-metrics", "0"]
                    + self.ARGS) == 0
        captured = capsys.readouterr()
        assert "serving metrics on http://127.0.0.1:" in captured.err
        assert "slo: e2e p50" in captured.out
        from repro.obs import get_telemetry
        assert not get_telemetry().enabled

    def test_admission_overflow_is_clean_error(self, capsys):
        # 5 streams x 4 slots > budget 16: the fifth is refused
        assert main(["serve", "--streams", "5", "--depth", "4",
                     "--slot-budget", "16"] + self.ARGS) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "slots" in err


class TestMetricsBindConflict:
    """A busy port must exit 1 with a message, never a traceback, and
    must not leave the self-enabled registry behind."""

    @pytest.mark.parametrize("command", ["stream", "serve"])
    def test_bound_port_clean_error(self, command, capsys):
        from repro.obs import get_telemetry
        from repro.obs.live import MetricsServer
        from repro.obs.telemetry import Telemetry

        with MetricsServer(telemetry=Telemetry(), port=0) as holder:
            args = [command, "--serve-metrics", str(holder.port),
                    "--frames", "3", "--width", "64", "--height", "64",
                    "--workers", "1"]
            assert main(args) == 1
            err = capsys.readouterr().err
            assert "error: cannot serve metrics on" in err
            assert "Traceback" not in err
        assert not get_telemetry().enabled


class TestStats:
    def _snapshot(self, tmp_path, name, frames):
        path = str(tmp_path / name)
        assert main(["--metrics", path, "stream", "--engine", "seq",
                     "--frames", str(frames), "--width", "64",
                     "--height", "64"]) == 0
        return path

    def test_pretty_print(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, "a.json", 4)
        capsys.readouterr()
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "stream.frames" in out
        assert "p50" in out and "p95" in out and "p99" in out

    def test_diff_two_snapshots(self, tmp_path, capsys):
        a = self._snapshot(tmp_path, "a.json", 2)
        b = self._snapshot(tmp_path, "b.json", 6)
        capsys.readouterr()
        assert main(["stats", "--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "counters (B - A):" in out
        assert "+4" in out  # stream.frames 2 -> 6
        assert "histograms (A -> B):" in out
        assert "count 2 -> 6 (+4)" in out

    def test_no_arguments_is_error(self, capsys):
        assert main(["stats"]) == 1
        assert "give a snapshot file or --diff" in capsys.readouterr().err


class TestMapInfo:
    def test_prints_measured_properties(self, capsys):
        assert main(["map-info", "--width", "128", "--height", "96"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "gather lines/warp" in out
        assert "minification" in out

    def test_tilted_map_reports_partial_coverage(self, capsys):
        assert main(["map-info", "--width", "128", "--height", "96",
                     "--pitch", "55"]) == 0
        out = capsys.readouterr().out
        # a 55-degree tilt must lose part of the FOV
        coverage_line = [l for l in out.splitlines() if "coverage" in l][0]
        assert "100.0%" not in coverage_line
