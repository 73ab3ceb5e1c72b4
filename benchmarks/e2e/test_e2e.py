"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The workloads run with tiny amounts of work, passed as parameters.
"""

import functools
import io
import json
import math
import multiprocessing
import os
import time
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AdmissionError

import compare
import harness
import run as bench
import workloads
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
SECONDS = 2.0


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = harness.shm_segments()
    yield
    assert harness.shm_segments() - before == set()


@pytest.fixture(autouse=True)
def small_copy_probe(monkeypatch):
    monkeypatch.setattr(harness, "copy_probe",
                        functools.partial(harness.copy_probe, mib=8))


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def tiny_run(name, seed=1, oracles=None):
    wl = WORKLOADS[name]
    frames, expected = wl.prepare(seed)
    run = harness.Run(name, seed, frames, oracles or expected, wl.depth,
                      wl.deadline_s)
    wl.body(run, setups=2, **wl.plan(SECONDS))
    run.finish()
    return run


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_declared_metric(name, trace, kind, tmp_path):
    res = bench.measure(name, 1, SECONDS, trace, tmp_path, setups=2)
    assert res["correct"], res["errors"]
    assert res["failed"] == 0 and res["attempted"] > 0
    units = {k: m["unit"] for k, m in res["metrics"].items()}
    # an untraced run also keeps the unbounded fps and latency for claims
    unbounded = {} if trace else {k: declared("per_layer")[k]
                                  for k in ("fps", "latency_p50_ms")}
    assert units == {**declared(kind), **unbounded}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    if trace:
        assert res["metrics"]["shm.leaked_segments"]["value"] == 0
        assert res["identity_max_err_us"] <= 1.0
        stems = {p.name.split(".trace1.")[0] for p in tmp_path.iterdir()}
        assert stems == {f"{name}.seed1"}
        assert len(list(tmp_path.glob("*.trace.json"))) == 1
        assert len(list(tmp_path.glob("*.snapshot.json"))) == 1


def test_corrupted_oracle_entry_fails_its_frames():
    wl = WORKLOADS["sync-720p-rgb"]
    _, oracles = wl.prepare(1)
    bad = dict(oracles)
    bad[(3,)] = oracles[(3,)].copy()
    bad[(3,)][10:20, 10:20] ^= 0x40
    run = tiny_run("sync-720p-rgb", oracles=bad)
    hit = sum(r.oracle == (3,) for r in run.records())
    assert hit > 0
    assert run.failed() == hit
    assert run.failed() / run.attempted() == hit / run.attempted()
    assert all(r.ok == (r.oracle != (3,)) for r in run.records())


def test_pull_lag_plus_inflight_is_latency():
    run = tiny_run("serve-ptz-churn")
    recs = run.records()
    assert {r.phase for r in recs} == {"capacity", "live"}
    for r in recs:
        assert r.due <= r.pulled <= r.delivered
        assert abs(r.pull_lag + r.inflight - r.latency) <= 1e-6
    bg, = [s for s in run.sources if s.stream == "bg" and not s.abandoned]
    dues = [r.due for r in bg.records]
    assert len(dues) == bg.live > 2
    gaps = {round(b - a, 9) for a, b in zip(dues, dues[1:])}
    assert gaps == {round(1 / 15.0, 9)}


@pytest.mark.parametrize("name", ["sync-720p-rgb", "serve-ptz-churn"])
def test_timing_skips_abandoned_setups(name):
    """Abandoned set-up streams share the kept stream's name; neither the
    capacity window nor the live warm-up may count their frames."""
    run = tiny_run(name)
    kept = {s.stream: s for s in run.sources if not s.abandoned}
    assert any(s.abandoned and s.stream in kept for s in run.sources)
    warm = 2 * run.depth
    if name == "sync-720p-rgb":
        t0, _, n = harness.capacity_window(run)
        recs = kept["main"].records
        assert t0 == recs[warm - 1].delivered
        assert n == sum(r.delivered > t0 for r in recs
                        if r.phase == "capacity")
    src = kept.get("bg") or kept["main"]
    live = [r for r in harness.timed(run, "live") if r.stream == src.stream]
    assert live == [r for r in src.records[:src.delivered]
                    if r.phase == "live"][warm:]


def test_memory_is_not_sampled_after_stop(monkeypatch):
    monkeypatch.setattr(harness, "MEM_SAMPLE_S", 0.0)
    frame = np.zeros(4, np.uint8)
    run = harness.Run("x", 1, [frame], {(0,): frame}, 1, 0.1)
    src = run.source("s", closed=2)
    frames = iter(src)
    next(frames)
    src.take(frame)
    assert run.mem_samples == 1
    run.stop_memory()
    next(frames)
    src.take(frame)
    run.sample_memory()
    assert run.mem_samples == 1 and run.failed() == 0


def test_refused_admission_counts_as_failed():
    class Full:
        def open_stream(self, *args, **kwargs):
            raise AdmissionError("slot budget exhausted")

    run = harness.Run("x", 1, [0], {}, 1, 0.1)
    src = run.source("s", closed=3)
    assert workloads._open(run, Full(), src, field=None) is None
    assert run.refused == 1
    assert (run.attempted(), run.failed()) == (3, 3)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
METRICS = [{"name": "fps", "better": "higher", "bound": 0.1},
           {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]


def result(seed, fps, lat, nproc=2, seconds=24):
    return {"workload": "w", "seed": seed, "trace": False, "seconds": seconds,
            "host": {"nproc": nproc, "python": "3", "numpy": "2",
                     "numba": None, "kernel_tier": "numpy"},
            "metrics": {"fps": {"value": fps, "unit": "frames/s"},
                        "latency_p50_ms": {"value": lat, "unit": "ms"}}}


def run_set(fps, lat, **kw):
    return [result(i, f, l, **kw) for i, (f, l) in enumerate(zip(fps, lat))]


BASE = run_set([100, 101, 99, 100, 102], [10, 10.1, 9.9, 10, 10.2])


@pytest.mark.parametrize("a,b,better,expected", [
    ([100, 101, 99, 100, 102], [101, 100, 99, 102, 100], "higher", "same"),
    ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "higher", "worse"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "higher", "better"),
    ([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], "lower", "better"),
    ([10, 10.1, 9.9, 10, 10.2], [12, 12.1, 11.9, 12, 12.2], "lower", "worse"),
    # wide spread: unresolved unless every run of B is better
    ([100, 60, 140, 100, 100], [90, 50, 130, 95, 99], "higher", "unresolved"),
    ([100, 101, 99, 100, 102], [150, 200, 300, 120, 160], "higher", "better"),
])
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def test_compare_exits_1_on_worse_and_warns_on_host():
    out = io.StringIO()
    worse = run_set([80, 81, 79, 80, 82], [10, 10.1, 9.9, 10, 10.2], nproc=4)
    assert compare.compare(BASE, worse, METRICS, out=out) == 1
    text = out.getvalue()
    assert "different hosts" in text and "worse" in text
    out = io.StringIO()
    assert compare.compare(BASE, BASE, METRICS, out=out) == 0
    assert "different hosts" not in out.getvalue()


def test_claim_on_a_metric_without_bound(tmp_path, capsys):
    decl = {"end_to_end": [METRICS[1]],
            "per_layer": [{"name": "fps", "unit": "frames/s",
                           "better": "higher"}]}
    (tmp_path / "bench.json").write_text(json.dumps(decl))
    for side, fps in (("A", 100.0), ("B", 120.0)):
        (tmp_path / side).mkdir()
        for r in run_set([fps + i % 3 for i in range(10)], [10.0] * 10):
            (tmp_path / side / f"{r['seed']}.json").write_text(json.dumps(r))
    assert compare.main([str(tmp_path / "A"), str(tmp_path / "B"),
                         "--claim", "fps",
                         "--benchmark", str(tmp_path / "bench.json")]) == 0
    out = capsys.readouterr().out
    assert "no bound" in out and "B wins 10/10 pairs -> met" in out


def test_compare_refuses_runs_of_different_lengths():
    longer = run_set([100, 101, 99, 100, 102], [10, 10.1, 9.9, 10, 10.2],
                     seconds=30)
    out = io.StringIO()
    assert compare.compare(BASE, longer, METRICS, out=out) == 2
    assert "different lengths" in out.getvalue()


def test_seconds_other_than_declared_is_refused(capsys):
    declared_s = BENCHMARK["run_seconds"]
    assert bench.main(["--workload", "sync-720p-rgb",
                       "--seconds", str(declared_s + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_stop_processes_ends_workers_and_tracker():
    seg = shared_memory.SharedMemory(create=True, size=64)   # starts tracker
    seg.close()
    seg.unlink()
    tracker = resource_tracker._resource_tracker._pid
    worker = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,), daemon=True)
    worker.start()
    bench.stop_processes(timeout=0.5)
    assert not worker.is_alive() and multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, 0)


def test_claim_needs_nine_of_ten_pairs():
    a = [100.0 + (i % 3) for i in range(10)]
    b = [110.0 + (i % 3) for i in range(10)]
    assert compare.claim_met(a, b, "higher") == (True, 10, 10)
    b_two_losses = b[:8] + [90.0, 90.0]
    assert compare.claim_met(a, b_two_losses, "higher")[0] is False
    tiny_gain = [x + 0.5 for x in a]
    assert compare.claim_met(a, tiny_gain, "higher")[0] is False
