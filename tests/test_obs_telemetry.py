"""Core telemetry registry: metrics, spans, scoping, merge semantics."""

import threading

import pytest

from repro.errors import TelemetryError
from repro.obs.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    NullTelemetry,
    Telemetry,
    disable,
    enable,
    get_telemetry,
    histogram_quantile,
    scoped,
    set_telemetry,
    emit_phase_spans,
)

pytestmark = pytest.mark.tier1


@pytest.fixture(autouse=True)
def _null_registry():
    """Every test starts and ends with the disabled global registry."""
    disable()
    yield
    disable()


class TestCounterGauge:
    def test_counter_increments(self):
        tel = Telemetry()
        tel.counter("a").inc()
        tel.counter("a").inc(4)
        assert tel.snapshot()["counters"]["a"] == 5

    def test_counter_rejects_negative(self):
        tel = Telemetry()
        with pytest.raises(TelemetryError):
            tel.counter("a").inc(-1)

    def test_counter_is_get_or_create(self):
        tel = Telemetry()
        assert tel.counter("x") is tel.counter("x")

    def test_gauge_last_write_wins(self):
        tel = Telemetry()
        tel.gauge("fps").set(24)
        tel.gauge("fps").set(30.5)
        assert tel.snapshot()["gauges"]["fps"] == 30.5

    def test_thread_safety(self):
        tel = Telemetry()

        def worker():
            for _ in range(1000):
                tel.counter("n").inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tel.counter("n").value == 4000


class TestHistogram:
    def test_bucket_edges_inclusive(self):
        tel = Telemetry()
        h = tel.histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)   # == first bound -> first bucket (inclusive)
        h.observe(1.5)   # -> second bucket
        h.observe(2.0)   # == second bound -> second bucket
        h.observe(4.0)   # == last bound -> third bucket
        h.observe(4.01)  # -> overflow
        assert h.counts == [1, 2, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(1.0 + 1.5 + 2.0 + 4.0 + 4.01)

    def test_default_buckets(self):
        tel = Telemetry()
        h = tel.histogram("lat")
        assert h.bounds == DEFAULT_LATENCY_BUCKETS
        assert len(h.counts) == len(DEFAULT_LATENCY_BUCKETS) + 1

    def test_rejects_bad_bounds(self):
        tel = Telemetry()
        with pytest.raises(TelemetryError):
            tel.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            tel.histogram("flat", buckets=(1.0, 1.0))


class TestSpans:
    def test_nesting_depth_and_order(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner"):
                pass
        spans = tel.spans
        # children are recorded on exit, i.e. before their parent
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # the parent's interval contains the children's
        outer = spans[-1]
        for inner in spans[:-1]:
            assert inner["ts"] >= outer["ts"] - 1e-6
            assert inner["dur"] <= outer["dur"] + 1e-6

    def test_span_args_recorded(self):
        tel = Telemetry()
        with tel.span("f", cat="exec", bands=4):
            pass
        s = tel.spans[0]
        assert s["cat"] == "exec"
        assert s["args"] == {"bands": 4}

    def test_span_total_sums_by_name(self):
        tel = Telemetry(pid=1)
        tel.add_span("a", 0.0, 0.25)
        tel.add_span("a", 1.0, 0.5)
        tel.add_span("b", 0.0, 9.0)
        assert tel.span_total("a") == pytest.approx(0.75)

    def test_timed_decorator(self):
        tel = Telemetry()

        @tel.timed("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert [s["name"] for s in tel.spans] == ["work"]

    def test_max_spans_drops_and_counts(self):
        tel = Telemetry(max_spans=2)
        for i in range(5):
            tel.add_span("s", float(i), 0.1)
        assert len(tel.spans) == 2
        assert tel.snapshot()["counters"]["telemetry.spans_dropped"] == 3


class TestGlobalRegistry:
    def test_default_is_null(self):
        tel = get_telemetry()
        assert isinstance(tel, NullTelemetry)
        assert not tel.enabled
        # every operation is a harmless no-op
        tel.counter("x").inc()
        tel.gauge("x").set(1)
        tel.histogram("x").observe(1)
        with tel.span("x"):
            pass
        assert tel.snapshot() == {}

    def test_enable_disable(self):
        tel = enable()
        try:
            assert get_telemetry() is tel
            assert tel.enabled
        finally:
            disable()
        assert not get_telemetry().enabled

    def test_scoped_overrides_and_restores(self):
        inner = Telemetry()
        outer = get_telemetry()
        with scoped(inner) as tel:
            assert tel is inner
            assert get_telemetry() is inner
        assert get_telemetry() is outer

    def test_scoped_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with scoped(Telemetry()):
                raise RuntimeError("boom")
        assert isinstance(get_telemetry(), NullTelemetry)

    def test_set_telemetry_none_disables(self):
        set_telemetry(Telemetry())
        set_telemetry(None)
        assert not get_telemetry().enabled


class TestSnapshotMerge:
    def test_drain_is_pure_delta(self):
        tel = Telemetry()
        tel.counter("n").inc(3)
        first = tel.drain()
        assert first["counters"]["n"] == 3
        assert tel.drain()["counters"] == {}  # reset: nothing left

    def test_merge_counters_histograms_spans(self):
        worker = Telemetry(pid=7)
        worker.counter("n").inc(2)
        worker.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        worker.add_span("band", 10.0, 0.5, tid="w0")
        parent = Telemetry(pid=1)
        parent.counter("n").inc(1)
        parent.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        parent.merge(worker.drain())
        snap = parent.snapshot()
        assert snap["counters"]["n"] == 3
        h = snap["histograms"]["lat"]
        assert h["counts"] == [1, 1, 0]
        assert h["count"] == 2
        assert [s["name"] for s in snap["spans"]] == ["band"]

    def test_merge_bucket_mismatch_raises(self):
        a = Telemetry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        b = Telemetry()
        b.histogram("h", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(TelemetryError):
            a.merge(b.snapshot())

    def test_merge_empty_is_noop(self):
        tel = Telemetry()
        tel.merge({})
        tel.merge(None)
        assert tel.snapshot()["counters"] == {}

    def test_snapshot_is_json_able(self):
        import json

        tel = Telemetry(pid=42)
        tel.counter("n").inc()
        tel.histogram("h").observe(0.01)
        tel.add_span("s", 0.0, 0.1, tid="model:x", args={"k": 1})
        assert json.loads(json.dumps(tel.snapshot()))["meta"]["pid"] == 42


class TestEmitPhaseSpans:
    def test_sequential_layout(self):
        tel = Telemetry(pid=1)
        end = emit_phase_spans(tel, "tile0", {"dma_in": 1000, "compute": 2000},
                              track="model:spe", start=5.0)
        spans = tel.spans
        assert [s["name"] for s in spans] == ["tile0.dma_in", "tile0.compute"]
        assert spans[0]["ts"] == pytest.approx(5.0)
        assert spans[1]["ts"] == pytest.approx(5.0 + 1000e-9)
        assert end == pytest.approx(5.0 + 3000e-9)
        assert all(s["tid"] == "model:spe" and s["cat"] == "model"
                   for s in spans)

    def test_negative_phase_clamped(self):
        tel = Telemetry(pid=1)
        emit_phase_spans(tel, "p", {"x": -50}, track="t", start=0.0)
        assert tel.spans[0]["dur"] == 0.0


class TestGaugeUnset:
    def test_never_set_is_distinguishable_from_zero(self):
        tel = Telemetry()
        g = tel.gauge("serve.slots_used")
        assert not g.is_set
        assert tel.snapshot()["gauges"]["serve.slots_used"] is None
        g.set(0)
        assert g.is_set
        assert tel.snapshot()["gauges"]["serve.slots_used"] == 0.0

    def test_merge_preserves_unset(self):
        parent, child = Telemetry(), Telemetry()
        child.gauge("a")             # registered, never set
        child.gauge("b").set(0.0)    # explicit zero
        parent.merge(child.snapshot())
        gauges = parent.snapshot()["gauges"]
        assert gauges["a"] is None
        assert gauges["b"] == 0.0


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        tel = Telemetry()
        h = tel.histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (1.0, 1.5, 2.0, 4.0, 4.01):
            h.observe(v)
        # counts [1, 2, 1, 1], total 5: rank 2.5 lands mid-second-bucket
        assert h.quantile(0.5) == pytest.approx(1.75)
        assert histogram_quantile(tel.snapshot()["histograms"]["h"],
                                  0.5) == pytest.approx(1.75)

    def test_edges_and_overflow(self):
        tel = Telemetry()
        h = tel.histogram("h", buckets=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0          # empty histogram
        h.observe(10.0)                        # overflow bucket only
        # every quantile clamps to the last finite bound (the PromQL
        # histogram_quantile overflow rule)
        assert h.quantile(0.0) == 2.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 2.0

    def test_first_bucket_starts_at_zero(self):
        tel = Telemetry()
        h = tel.histogram("h", buckets=(10.0,))
        h.observe(1.0)
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_validation(self):
        tel = Telemetry()
        h = tel.histogram("h")
        with pytest.raises(TelemetryError):
            h.quantile(1.5)
        with pytest.raises(TelemetryError):
            h.quantile(-0.1)
