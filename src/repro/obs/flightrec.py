"""Crash flight recorder: a bounded ring of the last N events.

When a streaming worker dies, the evidence needed to debug it is the
*tail* of activity — which frame was in flight, which bands completed,
what the workers were doing in the seconds before the crash.  The
passive telemetry registry cannot answer that after the fact: its span
buffer is either unbounded cost on long streams or already rotated out.

:class:`FlightRecorder` keeps exactly that tail: a fixed-capacity
in-memory deque of structured events (engine lifecycle records plus
any telemetry spans fed into it), costing one ``deque.append`` per
event and nothing when nothing fails.  On a crash or a watchdog
escalation, :meth:`FlightRecorder.dump` serializes the ring to a
timestamped JSON file; the streaming engines attach that path to the
:class:`~repro.errors.StreamError` they raise (``flight_dump``
attribute), so the artefact survives the process that produced it.

Dump format (one JSON object)::

    {
      "reason":   "worker-crash" | "stall",
      "error":    "<stringified exception, if any>",
      "pid":      1234,
      "time":     1700000000.0,        # wall clock of the dump
      "capacity": 512,
      "recorded": 2048,                # events ever recorded
      "dropped":  1536,                # recorded - retained
      "events": [                      # oldest -> newest, <= capacity
        {"t": ..., "kind": "decode", "stream": "cam0", "frame_id": 7,
         "slot": 1},
        {"t": ..., "kind": "span", "name": "serve.band", "ts": ...,
         "dur": ..., "pid": ..., "tid": "serve-worker-0",
         "args": {"frame_id": 7, "stream": "cam0", ...}},
        {"t": ..., "kind": "stall", "waited_s": 2.1, ...}
      ]
    }

Each process records into its own recorder; the stream broker's workers
ship their spans back with every completed band (the normal telemetry
delta channel), so the parent-side recorder also holds the last spans
of a worker that subsequently dies.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque

from ..errors import TelemetryError

__all__ = ["FlightRecorder", "DEFAULT_FLIGHT_CAPACITY"]

#: event-ring capacity; ~a few seconds of streaming activity at VGA.
DEFAULT_FLIGHT_CAPACITY = 512


class FlightRecorder:
    """A bounded in-memory event ring with a JSON crash dump.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are silently rotated out
        (their count is preserved in the dump's ``dropped`` field).
    directory:
        Where :meth:`dump` writes its file.  Defaults to the system
        temp directory so dumps never pollute a working tree unless a
        caller opts in.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 directory: str | None = None):
        if capacity < 1:
            raise TelemetryError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = directory or tempfile.gettempdir()
        self._events: deque = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record(self, kind: str, **fields) -> None:
        """Append one structured event (timestamped now)."""
        event = {"t": time.time(), "kind": kind}
        event.update(fields)
        with self._lock:
            self._events.append(event)
            self._recorded += 1

    def record_span(self, span: dict) -> None:
        """Append a telemetry span record (the dict shape
        :meth:`repro.obs.telemetry.Telemetry.snapshot` emits)."""
        self.record("span", **span)

    # ------------------------------------------------------------------
    @property
    def recorded(self) -> int:
        """Events ever recorded (including rotated-out ones)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._recorded - len(self._events)

    def events(self) -> list:
        """The retained tail, oldest first."""
        with self._lock:
            return [dict(e) for e in self._events]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._recorded = 0

    # ------------------------------------------------------------------
    def dump(self, reason: str, error: BaseException | str | None = None,
             directory: str | None = None) -> str:
        """Write the ring to a timestamped JSON file; returns its path.

        Never raises on I/O problems — a failing dump must not mask the
        crash being reported — an empty string is returned instead.
        """
        now = time.time()
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(now))
        name = f"repro-flightrec-{os.getpid()}-{stamp}-{int(now * 1e6) % 1000000:06d}.json"
        path = os.path.join(directory or self.directory, name)
        with self._lock:
            payload = {
                "reason": reason,
                "error": str(error) if error is not None else None,
                "pid": os.getpid(),
                "time": now,
                "capacity": self.capacity,
                "recorded": self._recorded,
                "dropped": self._recorded - len(self._events),
                "events": [dict(e) for e in self._events],
            }
        try:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True, default=str)
                fh.write("\n")
        except OSError:  # pragma: no cover - disk full / unwritable dir
            return ""
        return path
