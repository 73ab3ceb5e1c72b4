"""Exporters: Prometheus text, Chrome trace_event, writers, pretty-print.

The Prometheus and Chrome renderings are pinned against golden files in
``tests/golden/`` — the exporter output is an interface (scrapers and
Perfetto consume it), so formatting changes must be deliberate.
"""

import json
import os

import pytest

from repro.obs.export import (
    chrome_trace,
    diff_snapshots,
    escape_label_value,
    format_snapshot,
    labeled,
    metrics_json,
    parse_prometheus_text,
    prometheus_text,
    slo_summary,
    split_labeled,
    write_metrics,
    write_trace,
)
from repro.obs.telemetry import Telemetry

pytestmark = pytest.mark.tier1

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def reference_registry() -> Telemetry:
    """A fully deterministic registry exercising every exporter feature."""
    tel = Telemetry(pid=1234)
    tel.counter("remap.frames").inc(3)
    tel.counter("lutcache.mem.hits").inc(2)
    tel.gauge("stream.fps").set(24.5)
    h = tel.histogram("remap.apply_seconds", buckets=(0.01, 0.05, 0.1))
    for v in (0.004, 0.02, 0.02, 0.07, 0.5):
        h.observe(v)
    # measured spans on two integer (thread-like) tracks, nested
    tel.add_span("stream.frame", 100.0, 0.040, cat="stream", tid=1, depth=0)
    tel.add_span("remap.apply", 100.005, 0.030, cat="remap", tid=1, depth=1,
                 args={"pixels": 4096})
    tel.add_span("executor.band", 100.010, 0.012, cat="process", tid=2)
    # a modeled span on a synthetic string track
    tel.add_span("cell.tile0.dma_in", 100.0, 0.001, cat="model",
                 tid="model:cell-spe")
    return tel


def _read_golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


class TestPrometheus:
    def test_golden(self):
        assert prometheus_text(reference_registry()) == _read_golden(
            "obs_prometheus.txt")

    def test_histogram_is_cumulative_with_inf(self):
        text = prometheus_text(reference_registry())
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_remap_apply_seconds_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)          # cumulative
        assert 'le="+Inf"' in lines[-1]
        assert counts[-1] == 5                   # == _count
        assert "repro_remap_apply_seconds_count 5" in text

    def test_names_flattened_and_prefixed(self):
        text = prometheus_text(reference_registry())
        assert "repro_lutcache_mem_hits 2" in text
        names = [l.split(" ")[0].split("{")[0] for l in text.splitlines()
                 if l and not l.startswith("#")]
        assert all("." not in n and n.startswith("repro_") for n in names)

    def test_type_lines_present(self):
        text = prometheus_text(reference_registry())
        assert "# TYPE repro_remap_frames counter" in text
        assert "# TYPE repro_stream_fps gauge" in text
        assert "# TYPE repro_remap_apply_seconds histogram" in text


class TestChromeTrace:
    def test_golden(self):
        assert chrome_trace(reference_registry()) == json.loads(
            _read_golden("obs_trace.json"))

    def test_events_are_perfetto_valid(self):
        events = chrome_trace(reference_registry())
        assert isinstance(events, list) and events
        xs = [e for e in events if e["ph"] == "X"]
        assert xs, "no duration events"
        for e in xs:
            assert isinstance(e["tid"], int)
            assert e["ts"] >= 0.0            # rebased to the earliest span
            assert e["dur"] >= 0.0
            assert e["name"] and e["cat"]
        assert any(e["ts"] == 0.0 for e in xs)

    def test_string_tracks_get_thread_names(self):
        events = chrome_trace(reference_registry())
        meta = [e for e in events if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["name"] == "thread_name"
        assert meta[0]["args"]["name"] == "model:cell-spe"
        assert meta[0]["tid"] >= 1000

    def test_empty_snapshot(self):
        assert chrome_trace(Telemetry(pid=1)) == []


class TestWritersAndFormat:
    def test_write_metrics_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.json")
        snap = write_metrics(reference_registry(), path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == snap
        assert loaded["counters"]["remap.frames"] == 3
        assert metrics_json(loaded) is loaded   # dicts pass through

    def test_write_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.trace.json")
        events = write_trace(reference_registry(), path)
        with open(path) as fh:
            assert json.load(fh) == events

    def test_format_snapshot_sections(self):
        text = format_snapshot(reference_registry())
        assert "counters:" in text
        assert "remap.frames" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "spans:" in text
        assert "stream.frame" in text

    def test_format_empty(self):
        assert "empty" in format_snapshot({})


class TestPrometheusFormatRules:
    """Exposition-format edge cases: +Inf, escaping, unset gauges."""

    def edge_registry(self) -> Telemetry:
        tel = Telemetry(pid=1234)
        tel.counter("stream.frames").inc(2)
        tel.gauge("stream.fps").set(0.0)      # explicit zero: present
        tel.gauge("serve.slots_used")           # registered, never set: absent
        h = tel.histogram("frame.e2e_latency_seconds", buckets=(0.01, 0.1))
        h.observe(0.004)
        h.observe(5.0)                        # lands in the +Inf bucket
        return tel

    def test_golden_edge_cases(self):
        assert prometheus_text(self.edge_registry()) == _read_golden(
            "obs_prometheus_escape.txt")

    def test_unset_gauge_absent_set_zero_present(self):
        text = prometheus_text(self.edge_registry())
        assert "repro_ring_in_flight" not in text
        assert "repro_stream_fps 0" in text

    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value(0.01) == "0.01"

    def test_output_parses_with_line_checker(self):
        series = parse_prometheus_text(prometheus_text(self.edge_registry()))
        assert series["repro_stream_frames"] == [({}, 2.0)]
        buckets = dict()
        for labels, value in series["repro_frame_e2e_latency_seconds_bucket"]:
            buckets[labels["le"]] = value
        assert buckets["+Inf"] == 2.0
        assert buckets["0.01"] == 1.0
        assert series["repro_frame_e2e_latency_seconds_count"] == [({}, 2.0)]

    def test_reference_registry_parses_too(self):
        series = parse_prometheus_text(prometheus_text(reference_registry()))
        assert "repro_remap_frames" in series

    def test_checker_rejects_malformed(self):
        from repro.errors import TelemetryError

        for bad in ("no_value_metric",
                    "bad-name 1",
                    "metric not_a_number",
                    "# TYPE repro_x flume"):
            with pytest.raises(TelemetryError):
                parse_prometheus_text(bad)

    def test_checker_unescapes_nothing_but_splits_labels(self):
        got = parse_prometheus_text('m{a="x",b="y"} 1\n')
        assert got == {"m": [({"a": "x", "b": "y"}, 1.0)]}


class TestDiffAndSlo:
    def snap(self, frames, misses, lat):
        tel = Telemetry(pid=1)
        tel.counter("stream.frames").inc(frames)
        if misses:
            tel.counter("stream.deadline_miss").inc(misses)
        tel.gauge("stream.fps").set(frames / max(sum(lat), 1e-9))
        h = tel.histogram("frame.e2e_latency_seconds", buckets=(0.01, 0.1, 1.0))
        for v in lat:
            h.observe(v)
        return tel.snapshot()

    def test_diff_counters_and_histograms(self):
        a = self.snap(4, 0, [0.005] * 4)
        b = self.snap(9, 2, [0.005] * 4 + [0.05] * 5)
        text = diff_snapshots(a, b)
        assert "counters (B - A):" in text
        assert "stream.frames" in text and "+5" in text
        assert "stream.deadline_miss" in text and "(new)" in text
        assert "histograms (A -> B):" in text
        assert "count 4 -> 9 (+5)" in text
        assert "p50" in text and "p95" in text

    def test_diff_gauges_show_unset(self):
        a = Telemetry(pid=1)
        a.gauge("g")
        b = Telemetry(pid=1)
        b.gauge("g").set(3.0)
        text = diff_snapshots(a.snapshot(), b.snapshot())
        assert "unset -> 3" in text

    def test_diff_identical_is_stable(self):
        s = self.snap(1, 0, [0.005])
        assert diff_snapshots(s, s).count("+0") >= 1

    def test_diff_empty(self):
        assert "identical or empty" in diff_snapshots({}, {})

    def test_slo_summary_reads_e2e_and_misses(self):
        slo = slo_summary(self.snap(10, 3, [0.005] * 8 + [0.5] * 2))
        assert slo["frames"] == 10
        assert slo["deadline_misses"] == 3
        assert slo["miss_rate"] == pytest.approx(0.3)
        assert 0 < slo["p50_s"] <= 0.01
        assert slo["p99_s"] > slo["p50_s"]
        assert slo["stalls"] == 0

    def test_slo_summary_none_without_latency(self):
        assert slo_summary(reference_registry()) is None
        assert slo_summary({}) is None

    def test_format_snapshot_shows_quantiles_and_slo(self):
        text = format_snapshot(self.snap(10, 3, [0.005] * 8 + [0.5] * 2))
        assert "p50" in text and "p95" in text and "p99" in text
        assert "slo:" in text
        assert "deadline miss 3/10 (30.0%)" in text
        # bucket bars are gone from the histogram section
        assert "|" not in text


class TestLabelledSeries:
    """The labelled-name convention (repro.serve per-stream metrics)."""

    def labelled_registry(self) -> Telemetry:
        tel = Telemetry(pid=1234)
        tel.counter("stream.frames").inc(6)
        tel.counter(labeled("stream.frames", stream="cam0")).inc(2)
        tel.counter(labeled("stream.frames", stream="cam1")).inc(4)
        tel.gauge(labeled("stream.fps", stream="cam0")).set(12.5)
        h = tel.histogram(labeled("frame.e2e_latency_seconds",
                                  stream="cam0"), buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        return tel

    def test_labeled_builds_sorted_escaped_names(self):
        assert labeled("stream.frames") == "stream.frames"
        assert (labeled("stream.frames", stream="cam0")
                == 'stream.frames{stream="cam0"}')
        assert (labeled("m", b="2", a="1") == 'm{a="1",b="2"}')
        assert (labeled("m", s='he said "hi"\n')
                == 'm{s="he said \\"hi\\"\\n"}')

    def test_labeled_rejects_bad_keys(self):
        from repro.errors import TelemetryError

        with pytest.raises(TelemetryError):
            labeled("m", **{"bad-key": "v"})
        with pytest.raises(TelemetryError):
            labeled("m", **{"0lead": "v"})

    def test_split_labeled_roundtrip(self):
        name = labeled("stream.frames", stream="cam0")
        base, labels = split_labeled(name)
        assert base == "stream.frames"
        assert labels == '{stream="cam0"}'
        assert split_labeled("plain.name") == ("plain.name", "")

    def test_one_type_line_per_base_metric(self):
        text = prometheus_text(self.labelled_registry())
        assert text.count("# TYPE repro_stream_frames counter") == 1
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_stream_frames")]
        assert 'repro_stream_frames 6' in lines
        assert 'repro_stream_frames{stream="cam0"} 2' in lines
        assert 'repro_stream_frames{stream="cam1"} 4' in lines

    def test_labelled_histogram_merges_le_into_labels(self):
        text = prometheus_text(self.labelled_registry())
        assert ('repro_frame_e2e_latency_seconds_bucket'
                '{stream="cam0",le="0.01"} 1') in text
        assert ('repro_frame_e2e_latency_seconds_bucket'
                '{stream="cam0",le="+Inf"} 2') in text
        assert ('repro_frame_e2e_latency_seconds_count{stream="cam0"} 2'
                in text)

    def test_labelled_output_stays_parseable(self):
        series = parse_prometheus_text(prometheus_text(self.labelled_registry()))
        assert ({"stream": "cam0"}, 2.0) in series["repro_stream_frames"]
        assert ({}, 6.0) in series["repro_stream_frames"]
        assert ({"stream": "cam0"}, 12.5) in series["repro_stream_fps"]
        assert ({"stream": "cam0", "le": "+Inf"},
                2.0) in series["repro_frame_e2e_latency_seconds_bucket"]

    def test_unlabelled_rendering_unchanged_by_feature(self):
        """No labelled names -> byte-identical classic rendering (the
        golden-file tests pin this; double-check the TYPE grouping)."""
        tel = Telemetry(pid=1)
        tel.counter("a.b").inc(1)
        text = prometheus_text(tel)
        assert "# TYPE repro_a_b counter\nrepro_a_b 1" in text
