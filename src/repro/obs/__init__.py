"""Observability: telemetry registry, exporters, logging setup.

The runtime-visibility layer the production pipeline reports through:

- :mod:`repro.obs.telemetry` — counters, gauges, fixed-bucket latency
  histograms and nested timing spans, behind an off-by-default global
  registry whose disabled path is a branch per frame;
- :mod:`repro.obs.export` — JSON snapshot, Prometheus text exposition
  and Chrome ``trace_event`` exporters over one snapshot schema, plus
  snapshot diffing and the frame-SLO digest;
- :mod:`repro.obs.live` — the live scrape surface: a zero-dependency
  threaded HTTP server exposing ``/metrics`` (Prometheus), ``/health``
  (JSON liveness) and ``/snapshot`` while a stream runs; its two names
  here resolve on first access, so ``import repro.obs`` loads no HTTP
  module;
- :mod:`repro.obs.flightrec` — the crash flight recorder: a bounded
  ring of the last N spans/events, dumped to a timestamped JSON file
  when a worker dies or the stall watchdog fires;
- :mod:`repro.obs.logsetup` — the single ``logging`` configuration
  helper shared by the CLI and the executors.

Quick use::

    from repro import obs

    tel = obs.enable()                    # global, or obs.scoped(...) local
    ... run the pipeline ...
    obs.write_metrics(tel, "metrics.json")
    obs.write_trace(tel, "trace.json")    # open in ui.perfetto.dev
"""

from .telemetry import (  # noqa: F401
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Telemetry,
    disable,
    emit_phase_spans,
    enable,
    get_telemetry,
    histogram_quantile,
    scoped,
    set_telemetry,
)
from .export import (  # noqa: F401
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
from .flightrec import DEFAULT_FLIGHT_CAPACITY, FlightRecorder  # noqa: F401
from .logsetup import LOG_LEVELS, configure_logging, get_logger  # noqa: F401

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "NullTelemetry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_telemetry",
    "set_telemetry",
    "enable",
    "disable",
    "scoped",
    "emit_phase_spans",
    "histogram_quantile",
    "metrics_json",
    "prometheus_text",
    "chrome_trace",
    "write_metrics",
    "write_trace",
    "format_snapshot",
    "diff_snapshots",
    "slo_summary",
    "escape_label_value",
    "labeled",
    "split_labeled",
    "parse_prometheus_text",
    "FlightRecorder",
    "DEFAULT_FLIGHT_CAPACITY",
    "MetricsServer",
    "health_summary",
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
]


def __getattr__(name):
    # ``live`` loads http.server, and with it http.client, ssl and email
    if name in ("MetricsServer", "health_summary"):
        from . import live

        return getattr(live, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
