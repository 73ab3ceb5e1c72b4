"""Measurement machinery of the end-to-end camera benchmark.

Everything here observes the program from outside.  A :class:`Source`
stamps when each frame was due and when the engine pulled it; the
consumer stamps when it was delivered and checks it against the oracle
(:meth:`Run.take`).  Process memory, CPU time and ``/dev/shm`` usage
are read from ``/proc`` and ``statvfs``, inline at deliveries.

Importing this module starts no thread or process and touches no file.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

clock = time.perf_counter

SHM_DIR = "/dev/shm"
#: memory is sampled at deliveries, at most this often (2 Hz)
MEM_SAMPLE_S = 0.5
#: a live phase starts this long after the capacity phase ends, so the
#: closed-loop backlog drains before the first live frame is due
LIVE_GAP_S = 0.25
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Record:
    """One frame's life, in :func:`clock` seconds."""

    stream: str
    seq: int            # position within its stream (warm-up is by seq)
    phase: str          # "capacity" (closed loop) or "live" (open loop)
    oracle: tuple       # key of the expected output in ``Run.oracles``
    due: float
    pulled: float
    delivered: float = math.nan
    verify_s: float = math.nan
    ok: bool = False

    @property
    def latency(self) -> float:
        return self.delivered - self.due

    @property
    def pull_lag(self) -> float:
        return self.pulled - self.due

    @property
    def inflight(self) -> float:
        return self.delivered - self.pulled


class Source:
    """The frames of one stream, stamped as the engine pulls them.

    First come ``closed`` frames, or when ``closed`` is ``None`` as many
    frames as are asked for before ``run.cap_end``: each is yielded as
    soon as it is asked for (closed loop; due = pulled = ask time).
    Then ``live`` frames follow open loop: frame *i* is due at
    ``live_t0 + i / rate`` (``live_t0`` defaults to the first live
    ask), the generator sleeps until then, stamps ``pulled`` and yields.
    Frames cycle through ``frames``.  ``first`` offsets both the pool
    position and the sequence numbers, so several short sessions can
    form one logical stream (W4's PTZ sessions).
    """

    def __init__(self, run: "Run", stream: str, frames, key: tuple = (), *,
                 closed: int | None = None, live: int = 0,
                 rate: float = 0.0, live_t0: float | None = None,
                 first: int = 0):
        self.run = run
        self.stream = stream
        self.frames = frames
        self.key = key
        self.closed = closed
        self.live = live
        self.rate = rate
        self.live_t0 = live_t0
        self.first = first
        self.records: list[Record] = []
        self.delivered = 0
        #: set when the benchmark closes the stream on purpose early;
        #: its pulled-but-undelivered frames are then not "missing"
        self.abandoned = False

    def __iter__(self):
        run = self.run
        n_closed = n_live = 0
        while True:
            ask = clock()
            if (ask < run.cap_end) if self.closed is None \
                    else (n_closed < self.closed):
                phase, due, pulled = "capacity", ask, ask
                n_closed += 1
            elif n_live < self.live:
                if self.live_t0 is None:
                    self.live_t0 = ask
                phase = "live"
                due = self.live_t0 + n_live / self.rate
                if ask < due:
                    time.sleep(due - ask)
                    pulled = clock()
                    run.gen_late.append(pulled - due)
                else:
                    pulled = ask
                n_live += 1
            else:
                return
            seq = self.first + len(self.records)
            idx = seq % len(self.frames)
            self.records.append(Record(self.stream, seq, phase,
                                       self.key + (idx,), due, pulled))
            yield self.frames[idx]

    def take(self, out) -> Record:
        """Stamp and verify the next delivered frame of this stream."""
        rec = self.records[self.delivered]
        self.delivered += 1
        self.run.deliver(rec, out)
        return rec

    def expected(self) -> int:
        """Frames this stream owes: its closed-loop frames (as planned,
        or as pulled when time-bounded) plus every planned live frame."""
        if self.abandoned:
            return self.delivered
        closed = self.closed if self.closed is not None else sum(
            r.phase == "capacity" for r in self.records)
        return closed + self.live


def matches(out, ref) -> bool:
    """``max |out - ref| <= 1`` on every plane (admits the fixed tier)."""
    if hasattr(ref, "planes"):
        return all(matches(a, b) for a, b in zip(out.planes, ref.planes))
    out = np.asarray(out)
    if out.shape != ref.shape:
        return False
    if np.array_equal(out, ref):
        return True
    return int(np.abs(out.astype(np.int16) - ref.astype(np.int16)).max()) <= 1


# ----------------------------------------------------------------------
# /proc and /dev/shm readers
# ----------------------------------------------------------------------
def pss_kb(pid: int) -> int:
    """Proportional set size of the memory one process allocated:
    anonymous plus shared-memory pages (0 when it is gone).

    File-backed pages (library code and data) are left out: their
    share depends on which unrelated processes map the same files.
    """
    kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Pss_Anon:", "Pss_Shmem:")):
                    kb += int(line.split()[1])
    except OSError:
        pass
    return kb


def cpu_s(pid: int) -> float:
    """utime + stime of one process (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return 0.0
    fields = data[data.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


def shm_used() -> int:
    """Bytes in use on ``/dev/shm`` (0 where it does not exist)."""
    try:
        st = os.statvfs(SHM_DIR)
    except OSError:
        return 0
    return (st.f_blocks - st.f_bfree) * st.f_frsize


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments Python creates."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
class Run:
    """What one workload run records, and the consumer-side checks.

    ``oracles`` maps a record's oracle key to the expected output.
    ``trace`` additionally takes a CPU snapshot at every delivery (the
    per-layer fleet/front-end split).
    """

    def __init__(self, workload: str, seed: int, frames, oracles,
                 depth: int, deadline_s: float, trace: bool = False):
        self.workload = workload
        self.seed = seed
        self.frames = frames
        self.oracles = oracles
        self.depth = depth
        self.deadline_s = deadline_s
        self.trace = trace
        self.cap_end = math.inf
        self.sources: list[Source] = []
        self.gen_late: list[float] = []
        self.setup_s: list[float] = []
        self.samples: dict[str, list] = defaultdict(list)   # seconds
        self.events: list[tuple] = []    # (name, start, dur, args)
        self.counts: dict[str, float] = {}
        self.refused = 0
        self.errors: list[str] = []
        self.cpu: list[tuple] = []       # (t, main, children, verify)
        self.verify_total = 0.0
        self._lock = threading.Lock()
        self.memory_open = True
        self.mem_peak_kb = 0
        self.mem_samples = 0
        self._last_mem = -math.inf
        self.shm_base = shm_used()
        self.shm_peak = 0
        self.shm_before = shm_segments()
        self.leaked = 0

    def source(self, stream: str, frames=None, key: tuple = (),
               **kwargs) -> Source:
        src = Source(self, stream, self.frames if frames is None else frames,
                     key, **kwargs)
        self.sources.append(src)
        return src

    def event(self, name: str, start: float, end: float, **args) -> None:
        """A control-plane interval: a sample of ``name`` and a span."""
        self.samples[name].append(end - start)
        self.events.append((name, start, end - start, args))

    def deliver(self, rec: Record, out) -> None:
        """Stamp, verify and account one delivery (thread-safe: W4
        delivers from the main thread and a drain thread)."""
        rec.delivered = clock()
        t0 = clock()
        rec.ok = matches(out, self.oracles[rec.oracle])
        rec.verify_s = clock() - t0
        with self._lock:
            self.verify_total += rec.verify_s
            if self.memory_open and \
                    rec.delivered - self._last_mem >= MEM_SAMPLE_S:
                self._sample_memory(rec.delivered)
            if self.trace:
                self.cpu.append((rec.delivered, _main_cpu(),
                                 sum(cpu_s(p) for p in child_pids()),
                                 self.verify_total))

    def sample_memory(self) -> None:
        with self._lock:
            if self.memory_open:
                self._sample_memory(clock())

    def stop_memory(self) -> None:
        """Sample memory no more: what follows is not part of the run."""
        with self._lock:
            self.memory_open = False

    def _sample_memory(self, now: float) -> None:
        self._last_mem = now
        kb = pss_kb(os.getpid()) + sum(pss_kb(p) for p in child_pids())
        self.mem_peak_kb = max(self.mem_peak_kb, kb)
        self.mem_samples += 1
        self.shm_peak = max(self.shm_peak, shm_used() - self.shm_base)

    def finish(self) -> None:
        """After teardown: count shared-memory segments left behind."""
        self.leaked = len(shm_segments() - self.shm_before)

    # -- accounting ----------------------------------------------------
    def records(self, phase: str | None = None) -> list[Record]:
        return [r for s in self.sources for r in s.records[:s.delivered]
                if phase is None or r.phase == phase]

    def attempted(self) -> int:
        return sum(s.expected() for s in self.sources)

    def failed(self) -> int:
        delivered = sum(s.delivered for s in self.sources)
        wrong = sum(not r.ok for r in self.records())
        return wrong + (self.attempted() - delivered)


def _main_cpu() -> float:
    t = os.times()
    return t.user + t.system


# ----------------------------------------------------------------------
# statistics over records
# ----------------------------------------------------------------------
def pct(values, q: float, empty: float = 0.0) -> float:
    return float(np.percentile(values, q)) if len(values) else empty


def _by_stream(run: Run, phase: str) -> list[list[Record]]:
    """Delivered records of ``phase``, per stream, in stream order.

    Sources abandoned after their set-up frame are left out: they share
    the kept stream's name, and their frames would use up its warm-up.
    """
    per_stream = defaultdict(list)
    for src in run.sources:
        if not src.abandoned:
            per_stream[src.stream] += [r for r in src.records[:src.delivered]
                                       if r.phase == phase]
    return [sorted(recs, key=lambda r: r.seq)
            for recs in per_stream.values() if recs]


def timed(run: Run, phase: str) -> list[Record]:
    """Delivered records of ``phase`` minus each stream's warm-up.

    The first ``2 * depth`` deliveries of every stream in a phase are
    warm-up: verified, but left out of timing.
    """
    return [r for recs in _by_stream(run, phase) for r in recs[2 * run.depth:]]


def capacity_window(run: Run):
    """``(t_start, t_end, frames)`` of the capacity phase.

    The window opens when the last stream finishes its warm-up and
    closes at the last capacity delivery; every delivery inside it
    counts, summed over streams.
    """
    streams = _by_stream(run, "capacity")
    t0 = max(recs[min(len(recs), 2 * run.depth) - 1].delivered
             for recs in streams)
    delivered = [r.delivered for recs in streams for r in recs]
    return t0, max(delivered), sum(t > t0 for t in delivered)


def fps(run: Run) -> tuple[float, int]:
    t0, t1, n = capacity_window(run)
    return (n / (t1 - t0) if t1 > t0 else 0.0), n


def lag_growth(recs: list[Record]) -> float:
    """Least-squares slope of pull lag against due time (ms per s)."""
    if len(recs) < 2:
        return 0.0
    due = np.array([r.due for r in recs])
    lag = np.array([r.pull_lag for r in recs]) * 1e3
    if np.ptp(due) == 0:
        return 0.0
    return float(np.polyfit(due - due[0], lag, 1)[0])


def untraced(run: Run) -> dict:
    """The metrics of an untraced run: ``{name: (value, unit, samples)}``.

    ``setup_s`` and ``mem_peak_mb`` are the end-to-end metrics; ``fps``
    and ``latency_p50_ms`` are kept for claims, but carry no bound.
    """
    f, n = fps(run)
    live = [r.latency * 1e3 for r in timed(run, "live")]
    return {
        "setup_s": (float(np.median(run.setup_s)), "s", len(run.setup_s)),
        "mem_peak_mb": (run.mem_peak_kb * 1024 / 1e6, "MB", run.mem_samples),
        "fps": (f, "frames/s", n),
        "latency_p50_ms": (pct(live, 50), "ms", len(live)),
    }


def per_layer(run: Run, probes: dict, base: tuple) -> dict:
    """The per-layer metrics of a traced run: ``{name: (value, unit, n)}``.

    ``base`` is ``(fps, frames)`` of an untraced capacity phase run in
    the same process before tracing starts.
    """
    base_fps, n_base = base
    live = timed(run, "live")
    lat = [r.latency * 1e3 for r in live]
    lag = [r.pull_lag * 1e3 for r in live]
    inflight = [r.inflight * 1e3 for r in live]
    misses = sum(r.latency > run.deadline_s or not r.ok for r in live)
    f, n_cap = fps(run)
    kernel_ms = probes["kernel_ms"]
    gbps = probes["bytes_per_frame"] / (kernel_ms * 1e-3) / 1e9
    cpu = _cpu_split(run)
    fleet_ms = cpu["fleet_ms"]
    switch = [s * 1e3 for s in run.samples["switch"]]
    field = [s * 1e3 for s in run.samples["setup.field"]]
    verify = [r.verify_s * 1e3 for r in run.records()]
    n_live = len(live)
    c = run.counts
    m = {
        "fps": (base_fps, "frames/s", n_base),
        "latency_p50_ms": (pct(lat, 50), "ms", n_live),
        "mapping.field_ms": (pct(field, 50), "ms", len(field)),
        "remap.build_ms": (probes["build_ms"], "ms", 1),
        "remap.kernel_ms": (kernel_ms, "ms", probes["kernel_runs"]),
        "remap.bytes_per_frame": (probes["bytes_per_frame"], "bytes", 1),
        "remap.gbps": (gbps, "GB/s", probes["kernel_runs"]),
        "remap.copy_frac": (gbps / probes["copy_gbps"], "ratio", 1),
        "host.copy_gbps": (probes["copy_gbps"], "GB/s", probes["copy_runs"]),
        "lutcache.hit_ratio": (c.get("lut_hit_ratio", 0.0), "ratio", 1),
        "lutcache.misses": (c.get("lut_misses", 0), "count", 1),
        "lutcache.rebuild_ratio": (c.get("lut_rebuild_ratio", 0.0), "ratio",
                                   1),
        "fleet.cpu_ms_per_frame": (fleet_ms, "ms", n_cap),
        "fleet.busy_frac": (cpu["busy_frac"], "ratio", n_cap),
        "fleet.efficiency": (kernel_ms / fleet_ms if fleet_ms else 0.0,
                             "ratio", n_cap),
        "frontend.cpu_ms_per_frame": (cpu["frontend_ms"], "ms", n_cap),
        "stream.latency_p90_ms": (pct(lat, 90), "ms", n_live),
        "stream.latency_p99_ms": (pct(lat, 99), "ms", n_live),
        "stream.miss_ratio": (misses / n_live if n_live else 0.0, "ratio",
                              n_live),
        "stream.pull_lag_p50_ms": (pct(lag, 50), "ms", n_live),
        "stream.pull_lag_p95_ms": (pct(lag, 95), "ms", n_live),
        "stream.inflight_p50_ms": (pct(inflight, 50), "ms", n_live),
        "stream.inflight_p95_ms": (pct(inflight, 95), "ms", n_live),
        "stream.lag_growth_ms_per_s": (lag_growth(live), "ms/s", n_live),
        "switch_p50_ms": (pct(switch, 50), "ms", len(switch)),
        "switch_p95_ms": (pct(switch, 95), "ms", len(switch)),
        "shm.peak_mb": (run.shm_peak / 1e6, "MB", run.mem_samples),
        "shm.leaked_segments": (run.leaked, "count", 1),
        "bench.gen_late_p95_ms": (pct([g * 1e3 for g in run.gen_late], 95),
                                  "ms", len(run.gen_late)),
        "bench.verify_ms_per_frame": (float(np.mean(verify)), "ms",
                                      len(verify)),
        "bench.trace_overhead_frac": (1.0 - f / base_fps if base_fps else 0.0,
                                      "ratio", n_cap),
    }
    for name in ("serve.open", "serve.first_frame", "serve.close"):
        vals = [s * 1e3 for s in run.samples[name]]
        m[f"{name}_ms"] = (pct(vals, 50), "ms", len(vals))
    return m


def _cpu_split(run: Run) -> dict:
    """Fleet and front-end CPU per frame over the capacity window.

    The fleet is the engine's worker processes; for the sync engine,
    which has none, it is the calling process itself.  Front-end CPU is
    the benchmark process's CPU minus the time spent verifying.  Both
    are divided by every frame delivered in the capacity window (on W4
    the background stream's frames too).
    """
    t0, t1, _ = capacity_window(run)
    snaps = sorted(s for s in run.cpu if t0 <= s[0] <= t1)
    if len(snaps) < 2:
        return {"fleet_ms": 0.0, "frontend_ms": 0.0, "busy_frac": 0.0}
    a, b = snaps[0], snaps[-1]
    frames = len(snaps) - 1
    main = (b[1] - a[1]) - (b[3] - a[3])
    children = b[2] - a[2]
    workers = run.counts.get("workers", 0)
    fleet = children if workers else main
    wall = b[0] - a[0]
    return {"fleet_ms": fleet / frames * 1e3,
            "frontend_ms": main / frames * 1e3,
            "busy_frac": fleet / (wall * max(1, workers))}


# ----------------------------------------------------------------------
# probes (traced runs only)
# ----------------------------------------------------------------------
def copy_probe(mib: int = 256, repeats: int = 5) -> tuple[float, int]:
    """Host copy bandwidth: bytes copied per second, best of ``repeats``.

    256 MiB is well over twice the largest last-level cache this
    benchmark expects (105 MiB), so the copy runs from DRAM.
    """
    n = mib << 20
    src = np.ones(n, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)   # fault both buffers in
    best = math.inf
    for _ in range(repeats):
        t0 = clock()
        np.copyto(dst, src)
        best = min(best, clock() - t0)
    return n / best / 1e9, repeats


def kernel_probe(apply, frames, runs: int = 24) -> tuple[float, int]:
    """Median single-thread time (ms) of ``apply`` cycling ``frames``."""
    apply(frames[0])
    times = []
    for i in range(runs):
        t0 = clock()
        apply(frames[i % len(frames)])
        times.append(clock() - t0)
    return float(np.median(times)) * 1e3, runs


def self_times(spans: list[dict]) -> dict:
    """Per span name: count, total and self time (ms).

    A span's self time is its duration minus the part of it covered by
    its children (spans whose ``parent`` arg is its ``id``).
    """
    children = defaultdict(list)
    for s in spans:
        parent = (s.get("args") or {}).get("parent")
        if parent:
            children[parent].append((s["ts"], s["ts"] + s["dur"]))
    out = defaultdict(lambda: {"n": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s in spans:
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, cursor = 0.0, start
        sid = (s.get("args") or {}).get("id")
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        row = out[s["name"]]
        row["n"] += 1
        row["total_ms"] += s["dur"] * 1e3
        row["self_ms"] += (s["dur"] - covered) * 1e3
    return dict(out)
