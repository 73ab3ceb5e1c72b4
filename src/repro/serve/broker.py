"""Stream broker: N streams, one worker fleet.

The broker is the one persistent-worker engine of the package.  It
multiplexes *sessions* onto one pool of persistent band workers; the
single-stream ring (:func:`repro.parallel.ring.ring_stream`) is a
broker with one session, and many-camera hosts (the multi-video batch
workflows and the real-time multi-feed constraints in PAPERS.md) admit
as many sessions as their slot budget allows:

- :class:`StreamBroker` owns the fleet.  Each admitted session gets a
  private ring of ``depth`` shared-memory frame slots; **admission
  control** caps the total slots across sessions at a configurable
  ``slot_budget``, so one host's memory/latency envelope is a
  parameter, not an accident.
- A per-session **feeder thread** decodes frames into free slots —
  when a session's consumer lags, its feeder blocks on its own free
  list (**per-stream backpressure**) without slowing anyone else.
- **Band dispatch** drains the sessions' frame queues in **weighted
  round-robin** order (:class:`_FairScheduler`), and a scheduling turn
  counts frames: a stream finishes each frame it begins, and the turn
  passes on once it has begun ``weight`` frames, so a stalled or slow
  stream cannot starve the others, priority streams get proportionally
  more of the fleet, and every camera's frame is out after one frame
  of work per camera ahead of it.  A frame's bands are ``guided`` runs
  by default (:data:`~repro.parallel.ring.DEFAULT_SCHEDULE`): a few
  large runs first, single chunks as the frame drains, each one task
  message and one completion.  At most ``4 * workers`` bands are in
  flight; a feeder that queues a frame, and the collector after each
  completion, send whatever that cap allows.  Workers pull bands from
  one shared queue, so frame *k+1*'s bands start the moment a worker
  frees up — the frame-level analogue of the paper's Cell BE double
  buffering.
- Sessions sharing a calibration share one
  :class:`~repro.parallel.shmseg.SharedTables` publication (fed from
  one single-flight :class:`~repro.core.lutcache.LUTCache`), attached
  lazily once per worker.  A publication is **session-scoped**: it is
  reference-counted by its open sessions and unlinked — and unmapped
  in every worker — when the last one closes, so a PTZ operator
  cycling through poses pays for the live calibrations only.
- A **collector thread** routes band completions back to sessions;
  each :class:`StreamSession` yields its frames **strictly in input
  order** no matter how the fleet interleaved the bands.

Every session schedules per-plane bands from its pixel format's row
in :data:`~repro.video.pixfmt.PIXFMTS` — one band set for a packed
RGB/gray frame, full-height Y bands plus half-height chroma bands for
the 4:2:0 formats — so the fleet interleaves planes and frames freely
while delivery stays in order.

Telemetry: next to the aggregate ``stream.*`` series the broker emits
per-stream labelled series (``stream.frames{stream="cam0"}``,
``frame.e2e_latency_seconds{stream="cam0"}``,
``stream.deadline_miss{stream="cam0"}`` — see
:func:`repro.obs.export.labeled`) plus fleet-level ``serve.*``
counters/gauges (``serve.bands{plane=...}`` on planar sessions), all
scrapeable live from a :class:`~repro.obs.live.MetricsServer`.  Every
span carries its frame's ``frame_id`` and stream name: ``serve.feed``
on the session's ``serve-feed-<name>`` track, ``serve.band`` on
``serve-worker-<rank>``, ``serve.deliver`` on ``serve-deliver-<name>``
and one ``frame.lifecycle`` span per delivered frame on
``serve-frames-<name>``.

Fault handling: ``stall_timeout_s`` arms a watchdog in the collector —
when bands are outstanding but none has completed for that long, it
increments ``stream.stalls``, logs a warning and dumps the
:class:`~repro.obs.flightrec.FlightRecorder` (once per stall episode).
The recorder keeps the last decode/band/delivery events and the worker
spans shipped back with each band; when a worker dies, the broker
dumps it, releases every slot and table segment, and fails every
session with a :class:`~repro.errors.StreamError` whose
``flight_dump`` names the file.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import multiprocessing as mp
import os
import queue as _queue
import threading
import time
import weakref
from collections import deque

import numpy as np

from ..core.image import Frame
from ..core.kernel_tiers import resolve_tier
from ..core.lutcache import LUTCache
from ..core.remap import _BUILD_ROWS
from ..errors import AdmissionError, ScheduleError, StreamError
from ..obs.export import labeled
from ..obs.flightrec import DEFAULT_FLIGHT_CAPACITY, FlightRecorder
from ..obs.logsetup import get_logger
from ..obs.telemetry import get_telemetry
from ..parallel.ring import DEFAULT_SCHEDULE, plan_bands
from ..parallel.shmseg import (ensure_resource_tracker, private_mb,
                               release_free_heap)
from ..video.pixfmt import TableRecipe, get_pixfmt, plane_luts

__all__ = ["StreamBroker", "StreamSession", "DEFAULT_SLOT_BUDGET"]

log = get_logger(__name__)

#: default total slot budget (the admission-control cap): the sum of
#: every admitted session's ``depth`` may not exceed it.
DEFAULT_SLOT_BUDGET = 16

#: queue poll interval (seconds) shared by all broker threads.
_POLL_S = 0.2

#: dispatched-but-uncompleted bands allowed per worker: keeps the fleet
#: queue short so round-robin fairness acts at frame granularity
#: instead of deep in a FIFO.
_INFLIGHT_BANDS_PER_WORKER = 4

#: every broker not yet closed.  A broker left open (say, by a ring
#: stream generator kept in a global) is closed at exit, while its
#: queues can still start the feeder threads that ``close()`` needs;
#: closed later, during finalization, the first such start never returns.
_open_brokers = weakref.WeakSet()


@atexit.register
def _close_open_brokers() -> None:
    for broker in list(_open_brokers):
        broker.close()


# ----------------------------------------------------------------------
# fair scheduling
# ----------------------------------------------------------------------
class _FairScheduler:
    """Weighted round-robin over per-stream frame queues.

    Pure data structure (caller provides locking): ``push`` queues one
    frame — the list of its band items — on a stream, ``pop`` returns
    the next band under weighted round-robin with turns counted in
    frames.  The cursor stream finishes the frame it has started; the
    turn passes on only at a frame boundary, once the stream has
    started ``weight`` frames this turn, so with weights 2:1 a
    backlogged pair of streams dispatches frames 2:1 and each frame's
    bands leave as one contiguous run.
    """

    def __init__(self):
        self._queues: dict = {}   # sid -> deque of frames (band deques)
        self._weights: dict = {}
        self._order: list = []
        self._cursor = 0
        self._started = 0         # frames the cursor stream began this turn
        self._midframe = False    # the cursor stream's head frame is begun

    def add_stream(self, sid, weight: int = 1) -> None:
        if weight < 1:
            raise ScheduleError(f"stream weight must be >= 1, got {weight}")
        self._queues[sid] = deque()
        self._weights[sid] = int(weight)
        self._order.append(sid)

    def remove_stream(self, sid) -> None:
        """Forget ``sid`` and its queued frames, a begun one included."""
        if sid not in self._queues:
            return
        pos = self._order.index(sid)
        del self._order[pos]
        del self._queues[sid]
        del self._weights[sid]
        if pos < self._cursor:
            self._cursor -= 1  # the cursor stream keeps its turn
        elif pos == self._cursor:
            self._started, self._midframe = 0, False
        if self._cursor >= len(self._order):
            self._cursor, self._started, self._midframe = 0, 0, False

    def push(self, sid, items) -> None:
        """Queue one frame of ``sid``: its band items, in dispatch order."""
        if items:
            self._queues[sid].append(deque(items))

    def pop(self):
        """Next ``(sid, item)`` under weighted round-robin, or ``None``."""
        for _ in range(len(self._order) + 1):
            if not self._order:
                return None
            sid = self._order[self._cursor]
            q = self._queues[sid]
            if q and (self._midframe or self._started < self._weights[sid]):
                if not self._midframe:
                    self._started += 1
                frame = q[0]
                item = frame.popleft()
                self._midframe = bool(frame)
                if not frame:
                    q.popleft()
                return sid, item
            self._cursor = (self._cursor + 1) % len(self._order)
            self._started = 0
        return None

    def __len__(self) -> int:
        return sum(len(f) for q in self._queues.values() for f in q)



# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _pin_to_own_cpu(rank: int):
    """Pin this process to the ``rank``-th of its allowed CPUs (cycled)
    and return the allowed set, to restore afterwards; ``None`` (and no
    pin) with a single CPU or where affinity cannot be set.

    A fleet build keeps every worker busy at once.  Left to the
    scheduler, the two workers of a 2-core fleet were at times both
    placed on one CPU and stayed there for the whole build, with the
    other CPU idle: each band's wall time was twice its CPU time, and a
    QHD fused NV12 build took 190-270 ms instead of ~110 ms (2-core
    Xeon VM).  Pinned, each worker has a CPU of its own.
    """
    try:
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            return None
        os.sched_setaffinity(0, {sorted(allowed)[rank % len(allowed)]})
    except (AttributeError, OSError):  # not Linux, or a denied mask
        return None
    return allowed


def _serve_worker_main(rank, task_q, done_q, ctrl_q, telemetry_enabled):
    """Fleet worker: pull ``(sid, seq, slot, plane, row0, row1, desc)``
    bands, and ``("build", build, band, row0, row1, recipe, spec)``
    table-build bands.

    Attachments are *lazy and cached*: the first band of a session
    attaches its slots (and its LUT tables — cached by
    **publication**, :attr:`~repro.parallel.shmseg.SharedTables.name`,
    so sessions sharing one calibration attach the tables once, and a
    calibration published again after a drop can never reuse the
    dropped mapping).  The session descriptor carries the plane map:
    which of the publication's LUTs corrects each plane, and the plane
    names that label the worker's spans and ``serve.bands{plane=...}``
    counter (none for a one-plane format).  ``ctrl_q`` broadcasts
    ``("forget", sid)`` when a session closes and ``("drop",
    publication)`` when the last session of a calibration has closed,
    so the worker unmaps both; a band whose segments are already gone
    posts ``rows=-1`` and the collector decides whether anyone still
    cares.

    A build band writes rows ``row0:row1`` of a
    :class:`~repro.video.pixfmt.TableRecipe`'s tables (and the chroma
    rows they cover) into the publication ``spec`` describes, and posts
    their patch rows back (an error string when it fails).  Its
    attachment is kept for the worker's next build band, and the worker
    stays pinned to a CPU of its own (:func:`_pin_to_own_cpu`); once the
    task queue holds no build band, the worker unmaps the build, unpins
    and hands the build's free heap back to the OS before anything else
    (:func:`~repro.parallel.shmseg.release_free_heap`).
    """
    from ..parallel.shmseg import (attach_slot, attach_table_arrays,
                                   attach_tables, init_worker_telemetry,
                                   keep_free_heap, worker_delta)

    init_worker_telemetry(telemetry_enabled)
    luts: dict = {}      # publication -> (segments, LUT tuple)
    builds: dict = {}    # publication being built -> (segments, arrays)
    unpinned = None      # CPUs to restore once no build is mapped
    sessions: dict = {}  # sid -> (segments, slot views, publication,
    #                              label, plane -> LUT map, plane names)
    track = f"serve-worker-{rank}"

    def unmap(cache, key):
        # the popped entry holds the only views over its segments:
        # dropping it frees them, so close() can unmap at once
        entry = cache.pop(key, None)
        if entry is None:
            return
        segments = entry[0]
        del entry
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass

    def forget(sid):
        unmap(sessions, sid)

    def drop(pub):
        unmap(luts, pub)

    def attach(sid, desc):
        """Map a session's slots, and its publication unless cached."""
        _, label, table_spec, table_meta, slot_spec, plane_lut, names = desc
        pub = table_spec[0]["base"][0]
        if pub not in luts:
            luts[pub] = attach_tables(table_spec, table_meta)
        slots, slot_segs = [], []
        for slot in slot_spec:
            segs, srcs, dsts = attach_slot(slot)
            slot_segs += segs
            slots.append((srcs, dsts))
        sessions[sid] = (slot_segs, slots, pub, label, plane_lut, names)
        return sessions[sid]

    def build_band(row0, row1, recipe, spec):
        """Build one band of ``recipe``'s tables; returns their patch rows."""
        nonlocal unpinned
        pub = spec[0]["base"][0]
        if pub not in builds:
            keep_free_heap()  # the band temporaries, until finish_builds
            if not builds:
                unpinned = _pin_to_own_cpu(rank)
            builds[pub] = attach_table_arrays(spec)
        return recipe.build_rows(row0, row1, builds[pub][1])

    def finish_builds():
        nonlocal unpinned
        for pub in list(builds):
            unmap(builds, pub)
        if unpinned is not None:
            os.sched_setaffinity(0, unpinned)
            unpinned = None
        release_free_heap()

    def run_build(bid, k, row0, row1, recipe, spec):
        tel = get_telemetry()
        wall0 = time.time() if tel.enabled else 0.0
        t0 = time.perf_counter() if tel.enabled else 0.0
        delta = None
        try:
            result = build_band(row0, row1, recipe, spec)
        except Exception as exc:  # reported to the parent's build
            result = f"{type(exc).__name__}: {exc}"
        if tel.enabled and not isinstance(result, str):
            tel.counter("remap.build_rows").inc(row1 - row0)
            tel.add_span("serve.build_band", wall0, time.perf_counter() - t0,
                         cat="serve", tid=track,
                         args={"rows": row1 - row0, "planes": len(result)})
            delta = worker_delta()
        done_q.put(("build", bid, k, result, rank, delta))

    def run_band(sid, slot_idx, plane, row0, row1, desc):
        """Apply one band; returns ``(label, tier, plane name)``.

        A function of its own so no view into a segment outlives the
        band in a local: a later ``drop``/``forget`` unmaps at once.
        """
        entry = sessions.get(sid)
        if entry is None:
            entry = attach(sid, desc)
        _, slots, pub, label, plane_lut, names = entry
        srcs, dsts = slots[slot_idx]
        lut = luts[pub][1][plane_lut[plane]]
        lut.apply_rows_into(srcs[plane], row0, row1, dsts[plane][row0:row1])
        return label, lut.tier, (names[plane] if names else None)

    try:
        while True:
            while True:  # drain control messages first
                try:
                    kind, key = ctrl_q.get_nowait()
                except _queue.Empty:
                    break
                if kind == "forget":
                    forget(key)
                elif kind == "drop":
                    drop(key)
            try:
                # with a build mapped, take a task only if one waits:
                # none means this worker's last build band is done
                item = (task_q.get_nowait() if builds
                        else task_q.get(timeout=_POLL_S))
            except _queue.Empty:
                if builds:
                    finish_builds()
                continue
            if builds and (item is None or item[0] != "build"):
                finish_builds()
            if item is None:
                break
            if item[0] == "build":
                run_build(*item[1:])
                continue
            sid, seq, slot_idx, plane, row0, row1, desc = item
            tel = get_telemetry()
            wall0 = time.time() if tel.enabled else 0.0
            t0 = time.perf_counter() if tel.enabled else 0.0
            rows = -1
            delta = None
            try:
                label, tier, plane_name = run_band(sid, slot_idx, plane,
                                                   row0, row1, desc)
                rows = row1 - row0
            except Exception:
                # session torn down under us (or a real kernel fault):
                # report the failed band; the collector ignores it when
                # the session is already gone.
                forget(sid)
            if tel.enabled and rows >= 0:
                dt = time.perf_counter() - t0
                tel.counter("serve.bands").inc()
                tel.counter(f"serve.worker.{rank}.busy_seconds").inc(dt)
                tel.histogram("serve.band_seconds").observe(dt)
                args = {"frame_id": seq, "stream": label,
                        "rows": rows, "tier": tier}
                if plane_name is not None:
                    args["plane"] = plane_name
                    tel.counter(labeled("serve.bands", plane=plane_name)).inc()
                tel.add_span("serve.band", wall0, dt, cat="serve", tid=track,
                             args=args)
                delta = worker_delta()
            done_q.put((sid, seq, slot_idx, rows, rank, delta))
    finally:
        for sid in list(sessions):
            forget(sid)
        for pub in list(luts):
            drop(pub)
        for pub in list(builds):
            unmap(builds, pub)


class _TableBuild:
    """One fleet table build: its bands' patch rows as they come back,
    and its first error."""

    def __init__(self, bands: int):
        self._cond = threading.Condition()
        self.left = bands
        self.patches = [None] * bands
        self.error: BaseException | None = None

    def returned(self, k, result, rank) -> None:
        """Band ``k`` is back from ``serve-worker-<rank>``: its patch
        rows, or the error string it failed with."""
        with self._cond:
            self.left -= 1
            if not isinstance(result, str):
                self.patches[k] = result
            elif self.error is None:
                self.error = StreamError(
                    f"table build band {k} failed in serve-worker-{rank}: "
                    f"{result}")
            self._cond.notify_all()

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            if self.error is None:
                self.error = exc
            self._cond.notify_all()

    def wait(self, closed) -> None:
        """Until every band is back; raises the build's first error, or
        :class:`~repro.errors.StreamError` once ``closed()``."""
        with self._cond:
            while self.left and self.error is None:
                if closed():
                    raise StreamError("stream broker closed during a table "
                                      "build")
                self._cond.wait(_POLL_S)
            if self.error is not None:
                raise self.error

    def drain(self, aborted) -> None:
        """Wait (bounded) for the bands already sent to come back, so no
        worker can still attach the segments after their unlink (its
        resource-tracker registration would then be reported as a
        leak).  Skipped once ``aborted()``: the fleet is going down."""
        deadline = time.monotonic() + 2.0
        with self._cond:
            while self.left and not aborted():
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._cond.wait(min(left, _POLL_S))



# ----------------------------------------------------------------------
# session
# ----------------------------------------------------------------------
class StreamSession:
    """One admitted stream: iterate it for strictly in-order frames.

    Created by :meth:`StreamBroker.open` — not directly.  The session
    is an iterator (and context manager); ``close()`` releases its
    slots back to the broker's budget immediately.  With ``copy=True``
    (the default — the safe mode when several threads drain several
    sessions) every yielded frame owns its data; ``copy=False`` yields
    zero-copy views of the session's slot buffers that are recycled
    when the consumer advances.  ``max_in_flight`` is the high-water
    mark of occupied slots, the observable backpressure witness.
    """

    def __init__(self, broker: "StreamBroker", sid: int, name: str,
                 source, depth: int, weight: int, copy: bool,
                 deadline_s, bands, slots, desc, pixfmt: str = "rgb"):
        self.broker = broker
        self.sid = sid
        self.name = name
        self.depth = depth
        self.weight = weight
        self.copy = copy
        self.deadline_s = deadline_s
        self.delivered = 0
        self.max_in_flight = 0
        self._source = source
        self._bands = bands
        self._slots = slots
        self._desc = desc
        self._fmt = get_pixfmt(pixfmt)
        # geometry every frame must match: plane 0's shape and dtype
        self._geometry = ((slots[0].src_views[0].shape,
                           slots[0].src_views[0].dtype) if slots else None)
        self._tracks = tuple(f"serve-{kind}-{name}"
                             for kind in ("feed", "deliver", "frames"))
        self._cond = threading.Condition()
        self._free: _queue.Queue = _queue.Queue()
        for i in range(len(slots)):
            self._free.put(i)
        self._pending = [0] * len(slots)      # outstanding bands per slot
        self._dispatched = 0                  # bands sent, not yet back
        self._slot_items = [None] * len(slots)
        self._completed: dict = {}            # seq -> slot
        self._decode_t0: dict = {}            # seq -> decode wall time
        self._produced = None if slots else 0
        self._error: BaseException | None = None
        self._closed = False
        self._next_seq = 0
        self._held_slot = None
        self._feeder = None
        self._exhausted = False

    def _start(self) -> None:
        """Launch the feeder — only after the broker has registered the
        session (scheduler + routing map), else early bands are lost."""
        if not self._slots or self._feeder is not None:
            return
        self._feeder = threading.Thread(
            target=self._feed, name=f"serve-feed-{self.name}", daemon=True)
        self._feeder.start()

    # -- feeder thread -------------------------------------------------
    def _feed(self):
        broker = self.broker
        tel = broker._tel
        seq = 0
        it = iter(self._source)
        try:
            while not self._closed and not broker._abort.is_set():
                try:
                    item = next(it)
                except StopIteration:
                    break
                t_dec = time.time()
                t0 = time.perf_counter()
                planes = self._fmt.split(item)
                shape, dtype = self._geometry
                if planes[0].shape != shape or planes[0].dtype != dtype:
                    raise ScheduleError(
                        f"stream {self.name!r} frame "
                        f"{planes[0].shape}/{planes[0].dtype} does not "
                        f"match the session geometry {shape}/{dtype}")
                while True:  # per-stream backpressure: block on OUR ring
                    try:
                        slot = self._free.get(timeout=_POLL_S)
                        break
                    except _queue.Empty:
                        if self._closed or broker._abort.is_set():
                            return
                if slot is None or self._closed:  # woken by close()
                    return
                self.max_in_flight = max(self.max_in_flight,
                                         self.depth - self._free.qsize())
                for view, plane in zip(self._slots[slot].src_views, planes):
                    np.copyto(view, plane)
                with self._cond:
                    self._pending[slot] = len(self._bands)
                    self._slot_items[slot] = item if isinstance(item, Frame) else None
                    self._decode_t0[seq] = t_dec
                broker.flightrec.record("decode", stream=self.name,
                                        frame_id=seq, slot=slot)
                if tel.enabled:
                    tel.add_span("serve.feed", t_dec, time.perf_counter() - t0,
                                 cat="serve", tid=self._tracks[0],
                                 args={"frame_id": seq, "stream": self.name,
                                       "slot": slot})
                broker._push_bands(
                    self.sid,
                    [(seq, slot, p, r0, r1) for p, r0, r1 in self._bands])
                seq += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by consumer
            self._fail(exc)
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - source cleanup
                    pass
            with self._cond:
                if self._produced is None:
                    self._produced = seq
                self._cond.notify_all()

    # -- dispatcher / collector callbacks ------------------------------
    def _take_dispatch(self) -> bool:
        """Count a band about to be sent; refused once closed."""
        with self._cond:
            if self._closed:
                return False
            self._dispatched += 1
            return True

    def _band_returned(self, seq, slot, ok: bool) -> None:
        with self._cond:
            self._dispatched -= 1
            if self._closed:
                self._cond.notify_all()  # close() may be draining
                return
            if not ok:
                return
            self._pending[slot] -= 1
            if self._pending[slot] == 0:
                self._completed[seq] = slot
                self._cond.notify_all()

    def _drain_dispatched(self) -> None:
        """Wait (bounded) for every band already sent to come back.

        Afterwards no worker can still be about to attach this
        session's segments, so unlinking them cannot race a worker's
        attach (whose resource-tracker registration would otherwise
        land after the unlink and be reported as a leak at exit).
        """
        deadline = time.monotonic() + 2.0
        with self._cond:
            while self._dispatched and not self.broker._abort.is_set():
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._cond.wait(min(left, _POLL_S))

    def _fail(self, exc: BaseException, release: bool = False):
        """Record the session's first error; ``release`` also unlinks
        its slots first, so a consumer that sees ``exc`` finds them
        gone (the worker-crash path)."""
        with self._cond:
            if release:
                for seg in self._slots:
                    seg.release()
            if self._error is None:
                self._error = exc
            self._cond.notify_all()

    # -- consumer ------------------------------------------------------
    def __iter__(self):
        return self

    def __next__(self):
        broker = self.broker
        tel = broker._tel
        t_wait = time.time()
        with self._cond:
            if self._exhausted:
                raise StopIteration
            if self._held_slot is not None:
                # consumer advanced past the zero-copy view: recycle
                self._recycle(self._held_slot)
                self._held_slot = None
            while True:
                if self._error is not None:
                    raise self._error
                if broker._error is not None:
                    raise broker._error
                if self._closed:
                    # slots are already released: never deliver from them
                    raise StreamError(
                        f"stream session {self.name!r} was closed")
                if self._next_seq in self._completed:
                    break
                if (self._produced is not None
                        and self._next_seq >= self._produced):
                    break
                self._cond.wait(_POLL_S)
            exhausted = self._next_seq not in self._completed
            if exhausted:
                self._exhausted = True
            else:
                seq = self._next_seq
                slot = self._completed.pop(seq)
                result = self._fmt.wrap(self._slots[slot].dst_views)
                item = self._slot_items[slot]
                if self.copy:
                    result = result.copy()
                    self._recycle(slot)
                else:
                    self._held_slot = slot
                t_dec0 = self._decode_t0.pop(seq)
                self._next_seq += 1
                self.delivered += 1
        if exhausted:
            self.close()
            raise StopIteration
        now = time.time()
        e2e = now - t_dec0
        miss = self.deadline_s is not None and e2e > self.deadline_s
        rec = broker.flightrec
        rec.record("deliver", stream=self.name, frame_id=seq, slot=slot,
                   e2e_s=round(e2e, 6))
        if miss:
            rec.record("deadline_miss", stream=self.name, frame_id=seq,
                       e2e_s=round(e2e, 6), deadline_s=self.deadline_s)
        if tel.enabled:
            tel.counter("stream.frames").inc()
            tel.counter(labeled("stream.frames", stream=self.name)).inc()
            tel.histogram("frame.e2e_latency_seconds").observe(e2e)
            tel.histogram(labeled("frame.e2e_latency_seconds",
                                  stream=self.name)).observe(e2e)
            if miss:
                tel.counter("stream.deadline_miss").inc()
                tel.counter(labeled("stream.deadline_miss",
                                    stream=self.name)).inc()
            args = {"frame_id": seq, "stream": self.name, "slot": slot}
            tel.add_span("serve.deliver", t_wait, now - t_wait, cat="serve",
                         tid=self._tracks[1], args=args)
            tel.add_span("frame.lifecycle", t_dec0, e2e, cat="frame",
                         tid=self._tracks[2], args=args)
        return item.with_data(result) if item is not None else result

    def _recycle(self, slot):
        self._slot_items[slot] = None
        self._free.put(slot)

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release this session's slots back to the budget (idempotent).

        Bands already sent to the fleet are waited for (bounded), then
        the slots — and the calibration's table publication, when this
        was its last session — are unlinked and the workers told to
        drop their cached mappings.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if self._held_slot is not None:
                self._recycle(self._held_slot)
                self._held_slot = None
            self._free.put(None)  # wake a feeder blocked on the ring
            self._cond.notify_all()
        if self._feeder is not None and self._feeder is not threading.current_thread():
            self._feeder.join(timeout=2.0)
        self._drain_dispatched()
        self.broker._session_closed(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def stats(self) -> dict:
        return {
            "name": self.name,
            "delivered": self.delivered,
            "depth": self.depth,
            "weight": self.weight,
            "closed": self._closed,
        }


# ----------------------------------------------------------------------
# broker
# ----------------------------------------------------------------------
class StreamBroker:
    """Admission-controlled multi-stream front end over one worker fleet.

    Parameters
    ----------
    workers:
        Persistent worker-process count shared by every session.
    slot_budget:
        Total shared-memory frame slots across all admitted sessions
        (each session takes ``depth`` of them for its lifetime);
        :meth:`open` raises :class:`~repro.errors.AdmissionError` when
        the budget cannot cover another session.
    schedule, chunk:
        Band-granularity policy applied per session (see
        :func:`repro.parallel.ring.plan_bands`; ``guided`` runs by
        default, :data:`~repro.parallel.ring.DEFAULT_SCHEDULE`).
    context:
        Multiprocessing start method (``fork`` default, ``spawn``
        supported).
    lut_cache:
        Optional shared :class:`~repro.core.lutcache.LUTCache`; one is
        created when omitted.  Sessions opened against the same
        calibration (field + build parameters + kernel tier) share one
        built LUT *and* one shared-memory table publication; the
        publication lives as long as its sessions (a reopen publishes
        again from the cache).
    stall_timeout_s:
        Watchdog: when bands are outstanding but none has completed
        for this many seconds, increment ``stream.stalls``, log a
        warning and dump the flight recorder (once per stall episode).
        ``None`` (default) disables the watchdog.
    flight_dir:
        Where crash/stall flight-recorder dumps land (default: the
        system temp dir).

    Telemetry is captured at construction time
    (:func:`~repro.obs.telemetry.get_telemetry`), as worker processes
    fork here — enable/scope a registry *before* building the broker.
    """

    def __init__(self, workers: int = 2, slot_budget: int = DEFAULT_SLOT_BUDGET,
                 schedule: str = DEFAULT_SCHEDULE, chunk: int | None = None,
                 context: str = "fork", lut_cache: LUTCache | None = None,
                 stall_timeout_s: float | None = None, flight_dir=None):
        if workers < 1:
            raise ScheduleError(f"workers must be >= 1, got {workers}")
        if slot_budget < 1:
            raise ScheduleError(f"slot_budget must be >= 1, got {slot_budget}")
        if stall_timeout_s is not None and not stall_timeout_s > 0:
            raise ScheduleError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}")
        if chunk is not None and chunk < 1:
            raise ScheduleError(f"chunk must be >= 1, got {chunk}")
        self.workers = workers
        self.slot_budget = slot_budget
        self.schedule = schedule
        self.chunk = chunk
        self.stall_timeout_s = stall_timeout_s
        self.lut_cache = lut_cache if lut_cache is not None else LUTCache()
        self.flightrec = FlightRecorder(capacity=DEFAULT_FLIGHT_CAPACITY,
                                        directory=flight_dir)
        self.sessions_admitted = 0
        self.admission_rejects = 0
        self._tel = get_telemetry()
        self._lock = threading.Lock()
        self._sessions: dict = {}          # sid -> StreamSession
        self._tables: dict = {}            # lut_key -> [SharedTables, refs]
        self._builds: dict = {}            # build id -> _TableBuild
        self._build_ids = itertools.count()
        self._slots_used = 0
        self._sid_gen = itertools.count()
        self._error: BaseException | None = None
        self._closed = False
        self._abort = threading.Event()
        self._sched = _FairScheduler()
        self._sched_lock = threading.Lock()
        self._inflight = 0  # bands sent to the fleet, not yet back
        self._max_inflight = _INFLIGHT_BANDS_PER_WORKER * workers

        ensure_resource_tracker()  # workers must inherit ONE tracker
        ctx = mp.get_context(context)
        self._task_q = ctx.Queue()
        self._done_q = ctx.Queue()
        self._ctrl_qs = [ctx.Queue() for _ in range(workers)]
        self._tel.gauge("serve.workers").set(workers)
        self._tel.gauge("serve.slot_budget").set(slot_budget)
        self._table_gauges()
        log.debug("starting %d shared serve workers (%s, budget %d slots)",
                  workers, context, slot_budget)
        # the children would keep a copy of every free heap page the
        # parent reuses after the fork: give that free heap back first
        release_free_heap()
        self._procs = []
        for rank in range(workers):
            p = ctx.Process(
                target=_serve_worker_main,
                args=(rank, self._task_q, self._done_q, self._ctrl_qs[rank],
                      self._tel.enabled),
                daemon=True, name=f"serve-worker-{rank}")
            p.start()
            self._procs.append(p)
        self._collector = threading.Thread(
            target=self._collect, name="serve-collect", daemon=True)
        self._collector.start()
        _open_brokers.add(self)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def open(self, frames, field, *, name: str | None = None,
             method: str = "bilinear", fill: float = 0.0,
             kernel: str = "numpy", depth: int = 2,
             weight: int = 1, copy: bool = True,
             deadline_s: float | None = None,
             pixfmt: str = "rgb",
             out_size: tuple | None = None) -> StreamSession:
        """Admit a stream session; raises
        :class:`~repro.errors.AdmissionError` when ``depth`` slots do
        not fit the remaining budget.

        The first frame is pulled eagerly to size the session's slots,
        then corrected like the rest.  ``weight`` sets the session's
        share of the fleet under backlog: the frames it may begin per
        weighted round-robin turn;
        ``deadline_s`` arms the per-frame latency SLO counted by
        ``stream.deadline_miss{stream="<name>"}``.

        ``pixfmt`` names a row of :data:`~repro.video.pixfmt.PIXFMTS`:
        ``"rgb"`` (packed arrays), ``"yuv420"``
        (:class:`~repro.video.yuv.YUV420Frame` items) or ``"nv12"``
        (:class:`~repro.video.yuv.NV12Frame` items).  ``field``
        describes the full-resolution (luma) geometry; the 4:2:0
        formats derive their half-resolution chroma LUT through the
        same shared :class:`~repro.core.lutcache.LUTCache`, every frame
        is scheduled as per-plane bands over the fleet, and the session
        yields items of the same format with no RGB conversion
        anywhere on the path.  An unknown format or an ``out_size`` the
        format cannot deliver raises
        :class:`~repro.errors.ImageFormatError`.

        ``out_size=(width, height)`` delivers at a smaller size
        through a **fused** correct+downscale table: the area-style
        downscale map is composed with ``field`` (per LUT) and the
        table fetched through :meth:`~repro.core.lutcache.LUTCache
        .get_or_build` by :func:`~repro.video.pixfmt.plane_luts`, so
        every frame pays one gather pass whose traffic scales with the
        delivered size, and concurrent opens of the same composition
        build the table once.
        """
        fmt = get_pixfmt(pixfmt)
        out_size = fmt.check_out_size(out_size)
        tier = resolve_tier(kernel)
        return self._admit(
            frames,
            lambda: self._resolve(field, method, fill, tier, fmt, out_size),
            name=name, depth=depth, weight=weight, copy=copy,
            deadline_s=deadline_s, pixfmt=pixfmt)

    def _resolve(self, field, method, fill, tier, fmt, out_size):
        """Field to ``(publication key, the format's distinct LUTs)``.

        Single-flight through the shared cache: concurrent opens on one
        calibration build exactly once, and the key names the LUT set
        (calibration, tier, delivery size and which LUTs the format
        reads) so they share one publication too.
        """
        # the tables first: plane_luts fingerprints a cold recipe from
        # the maps it builds from, and the key then reuses that digest
        # (keyed first, the maps would be computed twice)
        luts = plane_luts(fmt, field, out_size, self.lut_cache, tier,
                          method=method, fill=fill)
        key = (self.lut_cache.key_for(field, method, fill)
               + f"|{tier}"
               + (f"|fused{out_size[0]}x{out_size[1]}" if out_size else "")
               + "|luts" + "".join(map(str, fmt.luts)))
        return key, luts

    def _admit(self, frames, resolve, *, name: str | None = None,
               depth: int = 2, weight: int = 1, copy: bool = True,
               deadline_s: float | None = None,
               pixfmt: str = "rgb") -> StreamSession:
        """The one admission path: a session over resolved LUTs.

        ``resolve()`` returns ``(key, luts)`` — the distinct LUTs of
        ``pixfmt``, by LUT index, or a
        :class:`~repro.video.pixfmt.TableRecipe` of them, which the
        fleet then builds straight into the session's publication
        (:meth:`_build_tables`) — and runs once the session's slots
        are reserved, so a refused open builds nothing.  Sessions with
        equal keys share one table publication; ``key=None`` gives the
        session a publication of its own (the ring, which builds its
        tables after its fleet forks and keeps no reference to them
        once they are published).
        """
        from ..parallel.shmseg import FrameSegments, SharedTables

        fmt = get_pixfmt(pixfmt)
        if depth < 1:
            raise ScheduleError(f"depth must be >= 1, got {depth}")
        if deadline_s is not None and not deadline_s > 0:
            raise ScheduleError(f"deadline_s must be > 0, got {deadline_s}")
        with self._lock:
            if self._closed:
                raise ScheduleError("stream broker already closed")
            if self._error is not None:
                raise self._error
            sid = next(self._sid_gen)
            if name is None:
                name = f"stream-{sid}"
            if self._slots_used + depth > self.slot_budget:
                self.admission_rejects += 1
                self._tel.counter("serve.admission_rejects").inc()
                raise AdmissionError(
                    f"cannot admit stream {name!r}: needs {depth} slots but "
                    f"only {self.slot_budget - self._slots_used} of "
                    f"{self.slot_budget} remain "
                    f"({len(self._sessions)} active sessions)")
            self._slots_used += depth

        ref_key = None  # set once this admission holds a table reference
        try:
            key, luts = resolve()
            if isinstance(luts, TableRecipe):
                recipe, luts = luts, luts.layouts()
                publish = functools.partial(self._build_tables, recipe, luts)
            else:
                publish = functools.partial(SharedTables, *luts)
            if len(luts) != len(fmt.luts):
                raise ScheduleError(
                    f"{fmt.name} streams need {len(fmt.luts)} LUTs "
                    f"(one per distinct plane table), got {len(luts)}")
            if key is None:
                key = f"private-{sid}"
            it = iter(frames)
            first = next(it, None)
            bands, slots, desc = [], [], None
            if first is not None:
                planes = fmt.split(first)
                oh, ow = luts[fmt.planes[0].lut].out_shape
                for p, plane in zip(fmt.planes, planes):
                    lut = luts[p.lut]
                    if (plane.shape[:2] != lut.src_shape or lut.out_shape
                            != (oh // p.divisor, ow // p.divisor)):
                        raise ScheduleError(
                            f"stream {name!r} plane {p.name!r} "
                            f"{plane.shape} does not match the LUT geometry "
                            f"{lut.src_shape} -> {lut.out_shape}")
                tables = self._ref_tables(key, publish)
                ref_key = key
                slots = [FrameSegments([a.shape for a in planes],
                                       planes[0].dtype,
                                       fmt.out_shapes(luts, planes))
                         for _ in range(depth)]
                # each plane is cut into bands over its own output
                # height; chunks scale with the plane's resolution
                for i, p in enumerate(fmt.planes):
                    chunk = (None if self.chunk is None
                             else max(1, self.chunk // p.divisor))
                    bands += [(i, r0, r1) for r0, r1 in plan_bands(
                        oh // p.divisor, self.workers, self.schedule, chunk)]
                desc = (key, name, tables.spec, tables.meta,
                        tuple(s.spec for s in slots), fmt.plane_lut,
                        fmt.plane_labels)
                it = itertools.chain([first], it)
            session = StreamSession(self, sid, name, it, depth, weight, copy,
                                    deadline_s, bands, slots, desc, pixfmt)
        except BaseException:
            with self._lock:
                self._slots_used -= depth
            if ref_key is not None:
                self._unref_tables(ref_key)
            raise
        with self._lock:
            self._sessions[sid] = session
            self.sessions_admitted += 1
        with self._sched_lock:
            self._sched.add_stream(sid, weight)
        session._start()  # feeder may push bands from here on
        self._tel.gauge("serve.active_streams").set(len(self._sessions))
        self._tel.gauge("serve.slots_used").set(self._slots_used)
        self._tel.counter("serve.sessions").inc()
        log.debug("admitted stream %r (sid %d, depth %d, weight %d): "
                  "%d/%d slots in use",
                  name, sid, depth, weight, self._slots_used, self.slot_budget)
        return session

    def _build_tables(self, recipe: TableRecipe, layouts):
        """Build ``recipe``'s tables on the fleet, straight into a new
        publication; the parent builds and copies no table.

        The segments are sized from ``layouts``
        (:meth:`~repro.parallel.shmseg.SharedTables.allocate`).  LUT 0's
        output rows are cut into guided runs of whole
        :data:`~repro.core.remap._BUILD_ROWS` blocks
        (:func:`~repro.parallel.ring.plan_bands`), and each run goes to
        the fleet queue as one task, which builds those rows of every
        table (:meth:`~repro.video.pixfmt.TableRecipe.build_rows`).  The
        bands' patch rows are joined here once all are back;
        ``serve.table_build_seconds`` times dispatch to the last band.
        A band that fails or a worker that dies raises
        :class:`~repro.errors.StreamError`, and the segments are
        released once the bands already sent are back.
        """
        from ..parallel.shmseg import SharedTables

        tables = SharedTables.allocate(*layouts)
        h = layouts[0].out_shape[0]
        bands = [(b0 * _BUILD_ROWS, min(b1 * _BUILD_ROWS, h)) for b0, b1
                 in plan_bands(-(-h // _BUILD_ROWS), self.workers)]
        build = _TableBuild(len(bands))
        bid = next(self._build_ids)
        with self._lock:
            self._builds[bid] = build
        t0 = time.perf_counter()
        try:
            for k, (r0, r1) in enumerate(bands):
                self._task_q.put(("build", bid, k, r0, r1, recipe,
                                  tables.spec))
            build.wait(lambda: self._closed)
        except BaseException:
            build.drain(self._abort.is_set)
            tables.release()
            raise
        finally:
            with self._lock:
                del self._builds[bid]
        self._tel.histogram("serve.table_build_seconds").observe(
            time.perf_counter() - t0)
        for i, parts in enumerate(zip(*build.patches)):
            tables.add_patch(i, *map(np.concatenate, zip(*parts)))
        return tables

    # ------------------------------------------------------------------
    # internals: scheduling + collection
    # ------------------------------------------------------------------
    def _push_bands(self, sid, bands) -> None:
        """Queue one frame's ``bands`` as one scheduling entry."""
        with self._sched_lock:
            if sid not in self._sched._queues:
                return  # session removed while its feeder raced us
            self._sched.push(sid, bands)
        self._dispatch()

    def _dispatch(self) -> None:
        """Send scheduled bands to the fleet while the in-flight cap
        allows.  Runs on whichever thread made work or room: a feeder
        after queueing a frame's bands, the collector after each band
        completion — so no band waits while the fleet has room.  Bands
        are put on the fleet queue in the order the scheduler pops them
        (the put only buffers; the queue's feeder thread pickles), so a
        frame's run of bands stays contiguous whoever dispatches it."""
        with self._sched_lock:
            while (not self._abort.is_set()
                   and self._inflight < self._max_inflight):
                picked = self._sched.pop()
                if picked is None:
                    return
                sid, (seq, slot, plane, row0, row1) = picked
                with self._lock:
                    session = self._sessions.get(sid)
                if session is None or not session._take_dispatch():
                    continue
                try:
                    self._task_q.put((sid, seq, slot, plane, row0, row1,
                                      session._desc))
                except Exception:  # pragma: no cover - queue torn down
                    session._band_returned(seq, slot, False)
                    return
                self._inflight += 1

    def _collect(self):
        last_check = last_progress = time.monotonic()
        stalled = False  # one warning + dump per stall episode
        while not self._abort.is_set():
            try:
                item = self._done_q.get(timeout=_POLL_S)
                if item is None:
                    return  # close()'s wake-up: no poll to wait out
            except _queue.Empty:
                item = None
            now = time.monotonic()
            # a dead worker must be noticed even while the healthy ones
            # keep the completion queue busy (its band is lost, so its
            # frame would wait forever)
            if now - last_check > _POLL_S:
                last_check = now
                if self._check_workers():
                    return
            if item is None:
                if self.stall_timeout_s is None:
                    continue
                with self._lock:
                    outstanding = sum(s._dispatched
                                      for s in self._sessions.values())
                if not outstanding:
                    last_progress, stalled = now, False
                elif (not stalled
                        and now - last_progress > self.stall_timeout_s):
                    stalled = True
                    self._on_stall(now - last_progress, outstanding)
                continue
            last_progress, stalled = now, False
            if item[0] == "build":
                self._build_returned(*item[1:])
                continue
            sid, seq, slot, rows, rank, delta = item
            with self._sched_lock:
                self._inflight -= 1
            self._dispatch()
            with self._lock:
                session = self._sessions.get(sid)
            self.flightrec.record(
                "band_done", stream=session.name if session else sid,
                frame_id=seq, slot=slot, rows=rows, worker=rank)
            self._absorb(delta)
            if session is None:
                continue  # closed session's stale band: nobody cares
            session._band_returned(seq, slot, rows >= 0)
            if rows < 0 and not session.closed:
                session._fail(StreamError(
                    f"band ({seq}, slot {slot}) of stream {session.name!r} "
                    f"failed in serve-worker-{rank}"))

    def _build_returned(self, bid, k, result, rank, delta) -> None:
        """Route a build band's completion to its :class:`_TableBuild`
        (gone when the build already failed)."""
        self.flightrec.record("build_band_done", build=bid, band=k,
                              worker=rank, ok=not isinstance(result, str))
        self._absorb(delta)
        with self._lock:
            build = self._builds.get(bid)
        if build is not None:
            build.returned(k, result, rank)

    def _absorb(self, delta) -> None:
        """Fold a worker's telemetry delta into the flight recorder and
        the broker's registry."""
        if delta:
            for span in delta.get("spans", ()):
                self.flightrec.record_span(span)
            if self._tel.enabled:
                self._tel.merge(delta)

    def _on_stall(self, waited_s: float, outstanding: int) -> None:
        """Watchdog fired: count, warn and dump (once per episode)."""
        self.flightrec.record("stall", waited_s=round(waited_s, 3),
                              outstanding_bands=outstanding)
        dump = self.flightrec.dump(
            "stall", error=f"no band completion for {waited_s:.2f}s "
                           f"({outstanding} bands outstanding)")
        if self._tel.enabled:
            self._tel.counter("stream.stalls").inc()
        log.warning(
            "broker stall: no band completion for %.2fs with %d bands "
            "outstanding; flight recorder dump: %s",
            waited_s, outstanding, dump or "<unwritable>")

    def _check_workers(self) -> bool:
        """On a dead worker: dump the flight recorder, release every
        slot and table segment and fail every session; True if so."""
        dead = next((p for p in self._procs if not p.is_alive()), None)
        if dead is None:
            return False
        self._abort.set()
        message = (f"{dead.name} died with exit code {dead.exitcode} "
                   f"mid-stream; broker shut down and all shared segments "
                   f"released")
        self.flightrec.record("worker_crash", worker=dead.name,
                              exitcode=dead.exitcode)
        dump = self.flightrec.dump("worker-crash", error=message)
        if dump:
            message += f" (flight recorder dump: {dump})"
        exc = StreamError(message, flight_dump=dump or None)
        log.error("%s", exc)
        with self._lock:
            sessions = list(self._sessions.values())
            tables = [entry[0] for entry in self._tables.values()]
            builds = list(self._builds.values())
        for build in builds:
            build.fail(exc)  # its builder releases its segments
        for group in tables:
            group.release()
        for s in sessions:
            s._fail(exc, release=True)
        self._error = exc
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _session_closed(self, session: StreamSession) -> None:
        with self._lock:
            existed = self._sessions.pop(session.sid, None) is not None
            if existed:
                self._slots_used -= session.depth
        if not existed:
            return
        with self._sched_lock:
            self._sched.remove_stream(session.sid)
        # unlink before telling the workers: a stale band that reaches
        # a worker after the message can then no longer re-attach
        for seg in session._slots:
            seg.release()
        self._broadcast("forget", session.sid)
        if session._desc is not None:
            self._unref_tables(session._desc[0])
        self._tel.gauge("serve.active_streams").set(len(self._sessions))
        self._tel.gauge("serve.slots_used").set(self._slots_used)

    def _broadcast(self, kind: str, key) -> None:
        for q in self._ctrl_qs:
            try:
                q.put((kind, key))
            except Exception:  # pragma: no cover - queue torn down
                pass

    def _ref_tables(self, lut_key: str, publish):
        """Take a session reference on ``lut_key``'s publication.

        ``publish()`` builds the :class:`SharedTables` when no live
        publication exists — the first session of a calibration, or a
        reopen after the last one closed (re-published from the
        :class:`~repro.core.lutcache.LUTCache`).  It runs outside the
        broker lock so band completions keep flowing meanwhile; an open
        that loses a race to publish the same key discards its copy.
        """
        with self._lock:
            entry = self._tables.get(lut_key)
            if entry is not None:
                entry[1] += 1
                return entry[0]
        fresh = publish()
        with self._lock:
            entry = self._tables.get(lut_key)
            if entry is None:
                entry = self._tables[lut_key] = [fresh, 0]
                fresh = None
            entry[1] += 1
            self._table_gauges()
            tables = entry[0]
        if fresh is not None:
            fresh.release()
        return tables

    def _unref_tables(self, lut_key: str) -> None:
        """Drop a session reference; the last one unpublishes."""
        with self._lock:
            entry = self._tables.get(lut_key)
            if entry is None:  # already released by close()
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._tables[lut_key]
            self._table_gauges()
        tables = entry[0]
        tables.release()
        self._broadcast("drop", tables.name)

    def _table_gauges(self) -> None:
        """``serve.table_*`` gauges; caller holds ``self._lock``."""
        self._tel.gauge("serve.table_publications").set(len(self._tables))
        self._tel.gauge("serve.table_bytes").set(
            sum(t.nbytes for t, _ in self._tables.values()))

    @property
    def slots_used(self) -> int:
        with self._lock:
            return self._slots_used

    @property
    def active_streams(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        with self._lock:
            sessions = list(self._sessions.values())
            slots_used = self._slots_used
        return {
            "workers": self.workers,
            "slot_budget": self.slot_budget,
            "slots_used": slots_used,
            "active_streams": len(sessions),
            "sessions_admitted": self.sessions_admitted,
            "admission_rejects": self.admission_rejects,
            "streams": [s.stats() for s in sessions],
            "lut_cache": self.lut_cache.stats(),
        }

    def memory(self) -> dict | None:
        """Per-process memory split: ``{"parent_mb", "workers_mb"}``,
        the proportional anonymous + shared-memory MB of this process
        and of all fleet workers together
        (:func:`~repro.parallel.shmseg.private_mb`); ``None`` off
        Linux.  Also sets the ``serve.mem_parent_mb`` and
        ``serve.mem_workers_mb`` gauges.

        Each process costs a page-table walk in the kernel (about a
        millisecond at a few hundred MB), so this is a report, kept out
        of :meth:`stats`, which callers poll per session switch.
        """
        parent = private_mb(os.getpid())
        if parent is None:
            return None
        workers = sum(private_mb(p.pid) or 0.0 for p in self._procs)
        self._tel.gauge("serve.mem_parent_mb").set(parent)
        self._tel.gauge("serve.mem_workers_mb").set(workers)
        return {"parent_mb": parent, "workers_mb": workers}

    def close(self) -> None:
        """Close every session, stop the fleet, unlink all segments."""
        if self._closed:
            return
        self._closed = True
        _open_brokers.discard(self)
        with self._lock:
            sessions = list(self._sessions.values())
        for s in sessions:
            s.close()
        self._abort.set()
        self._done_q.put(None)  # wake the collector out of its poll
        self._collector.join(timeout=2.0)
        try:  # drop stale band items so pills are reached promptly
            while True:
                self._task_q.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            pass
        # one pill per worker, dead or alive: a liveness check per pill
        # can skip one, as a worker may take the pill put for another
        # and exit before its own check, leaving the last one none
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except Exception:  # pragma: no cover - queue torn down
                pass
        for p in self._procs:
            p.join(timeout=2.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for q in [self._task_q, self._done_q] + self._ctrl_qs:
            q.cancel_join_thread()
            q.close()
        with self._lock:
            for tables, _ in self._tables.values():
                tables.release()
            self._tables.clear()
            self._table_gauges()
        self._tel.gauge("serve.active_streams").set(0)
        self._tel.gauge("serve.slots_used").set(0)
        release_free_heap()  # what the fleet's sessions freed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
