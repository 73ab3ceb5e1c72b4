"""Live observability plane: a zero-dependency threaded scrape server.

The PR-2 telemetry layer is *passive* — snapshots are written when a
run exits.  Real-time correction pipelines are judged while they run
(sustained frame deadlines, slot occupancy, stall counters), so this
module puts the same registry behind a tiny HTTP surface that any
Prometheus scraper, load balancer or ``curl`` can hit mid-stream:

``/metrics``
    Prometheus text exposition (the PR-2 exporter, rendered from a
    live snapshot on every request).
``/health``
    JSON liveness: uptime, pid, the stream broker's fleet and slot
    occupancy, frames delivered, stall and deadline-miss counters.  ``status``
    degrades from ``"ok"`` to ``"stalled"`` once the stream watchdog
    has fired.
``/snapshot``
    The full JSON snapshot (counters + gauges + histograms + spans),
    i.e. what ``--metrics`` would write at exit — scrapeable live and
    diffable with ``repro stats --diff``.

Implementation is stdlib-only (``http.server.ThreadingHTTPServer`` on
a daemon thread); one server costs nothing on the frame path — every
render happens in the scraper's request thread against a lock-guarded
snapshot.

Wired in as ``repro stream`` / ``repro serve --serve-metrics PORT``;
library callers hold a server around their stream
(``with MetricsServer(...):``), and the multi-stream service is
scraped through this same surface.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import MetricsBindError, TelemetryError
from .export import prometheus_text
from .logsetup import get_logger
from .telemetry import get_telemetry

__all__ = ["MetricsServer", "health_summary"]

log = get_logger(__name__)


def health_summary(snap: dict, uptime_s: float | None = None) -> dict:
    """Condense a telemetry snapshot into the ``/health`` JSON body.

    Pure function of the snapshot so tests and non-HTTP callers (the
    CLI's end-of-run SLO line, future multi-stream admission control)
    can reuse exactly what the endpoint serves.
    """
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    stalls = counters.get("stream.stalls", 0)
    body = {
        "status": "stalled" if stalls else "ok",
        "pid": snap.get("meta", {}).get("pid", os.getpid()),
        "frames": counters.get("stream.frames", 0),
        "stalls": stalls,
        "deadline_misses": counters.get("stream.deadline_miss", 0),
        "serve": {key: gauges.get(f"serve.{key}") for key in
                  ("workers", "slot_budget", "slots_used", "active_streams")},
    }
    if uptime_s is not None:
        body["uptime_s"] = round(float(uptime_s), 3)
    return body


class MetricsServer:
    """Threaded HTTP server exposing the active telemetry registry.

    Parameters
    ----------
    telemetry:
        The registry to serve.  ``None`` (default) resolves
        :func:`~repro.obs.telemetry.get_telemetry` *per request*, so a
        server started before ``obs.enable()`` picks up the registry
        once it exists.  Pass an explicit registry to pin a scoped one
        (request threads do not inherit ``obs.scoped`` context).
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read it
        back from :attr:`port` after :meth:`start`.

    Use as a context manager or call :meth:`start` / :meth:`close`.
    """

    def __init__(self, telemetry=None, host: str = "127.0.0.1", port: int = 0):
        if not 0 <= int(port) <= 65535:
            raise TelemetryError(f"port must be in [0, 65535], got {port}")
        self.host = host
        self._telemetry = telemetry
        self._requested_port = int(port)
        self._httpd = None
        self._thread = None
        self._t0 = None

    # ------------------------------------------------------------------
    def _registry(self):
        return self._telemetry if self._telemetry is not None else get_telemetry()

    def _snapshot(self) -> dict:
        return self._registry().snapshot()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            # one server instance; requests must never kill the stream
            def log_message(self, fmt, *args):  # noqa: N802
                log.debug("metrics-server %s", fmt % args)

            def _reply(self, code: int, content_type: str, body: bytes):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                try:
                    path = self.path.split("?", 1)[0]
                    if path == "/metrics":
                        text = prometheus_text(server._snapshot())
                        self._reply(200, "text/plain; version=0.0.4",
                                    text.encode())
                    elif path == "/health":
                        uptime = (time.monotonic() - server._t0
                                  if server._t0 is not None else None)
                        body = health_summary(server._snapshot(), uptime)
                        self._reply(200, "application/json",
                                    (json.dumps(body) + "\n").encode())
                    elif path == "/snapshot":
                        body = json.dumps(server._snapshot(), sort_keys=True)
                        self._reply(200, "application/json",
                                    (body + "\n").encode())
                    else:
                        self._reply(404, "text/plain",
                                    b"not found; try /metrics /health /snapshot\n")
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass
                except Exception as exc:  # pragma: no cover - render bug
                    try:
                        self._reply(500, "text/plain", f"{exc}\n".encode())
                    except Exception:
                        pass

        try:
            self._httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                              Handler)
        except OSError as exc:
            # Typed error so callers (CLI, serve) can fail with a clean
            # message instead of an EADDRINUSE traceback.
            raise MetricsBindError(
                f"cannot serve metrics on {self.host}:{self._requested_port}: "
                f"{exc.strerror or exc}") from exc
        self._httpd.daemon_threads = True
        self._t0 = time.monotonic()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-server",
                                        kwargs={"poll_interval": 0.2},
                                        daemon=True)
        self._thread.start()
        log.info("metrics server listening on %s", self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._httpd is None:
            return
        httpd, thread = self._httpd, self._thread
        self._httpd = None
        self._thread = None
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join(timeout=2.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
        return False
