"""End-to-end camera benchmark: run the workloads, print every metric.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads
    python3 benchmarks/e2e/run.py --workload sync-720p-rgb --seed 1 \
        --trace 0 --out /tmp/e2e/setA

An untraced run (``--trace 0``, the default) prints the end-to-end
metrics; ``--trace`` (or ``--trace 1``) reruns the workload with spans
recorded and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--out DIR`` every run
also writes a result JSON (with a host block) there, and a traced run
its Chrome trace and the program's own counters; without it no file is
written.

The run length is ``run_seconds`` in ``BENCHMARK.json``.  ``--seconds``
is accepted so that the benchmark can be called with its declared run
length spelled out, and any other value is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUPS = 7          # set-ups per run; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None,
                   help="one workload name (default: all, in order)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the source frames and PTZ pose draws")
    p.add_argument("--seconds", type=int, default=None,
                   help="must equal run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: traced run, print the per-layer metrics")
    p.add_argument("--out", default=None,
                   help="directory for result JSON, traces and snapshots "
                        "(default: write no file)")
    return p.parse_args(argv)


def declaration():
    """``BENCHMARK.json``: the run length and the declared metrics."""
    with open(BENCHMARK) as fh:
        return json.load(fh)


def git_commit():
    """HEAD of the repository holding this file, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def host_block(seed):
    import numpy as np
    from repro.core.kernel_tiers import numba_version, resolve_tier
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version(),
        "kernel_tier": resolve_tier("numpy"),
        "commit": git_commit(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def measure(name, seed, seconds, trace, out_dir=None, setups=SETUPS):
    """One workload run; returns the result dict, which is also written
    under ``out_dir`` (with a traced run's trace and snapshot) unless
    that is ``None``."""
    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    host = host_block(seed)
    frames, oracles = wl.prepare(seed)

    def new_run(traced):
        return harness.Run(name, seed, frames, oracles, wl.depth,
                           wl.deadline_s, trace=traced)

    plan = wl.plan(seconds)
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "host": host}
    stem = f"{name}.seed{seed}.trace{int(bool(trace))}.{time.time_ns()}"
    if not trace:
        run = new_run(False)
        wl.body(run, setups=setups, **plan)
        run.finish()
        runs = [run]
        metrics = harness.untraced(run)
    else:
        from repro import obs
        # untraced capacity phase: per-layer fps, and the base of the
        # tracing overhead
        base = new_run(False)
        wl.body(base, setups=1, **wl.plan(seconds, live=False))
        base.finish()
        # installed process-wide, not with obs.scoped: a context-local
        # registry is invisible to the program's threads, and a forked
        # worker inherits it in place of its own empty one and ships it
        # back whole with its first band
        tel = obs.Telemetry(max_spans=1_000_000)
        obs.set_telemetry(tel)
        try:
            run = new_run(True)
            wl.body(run, setups=setups, **plan)
        finally:
            obs.set_telemetry(None)
        run.finish()
        runs = [base, run]
        probes = probe(wl, frames, run)
        metrics = harness.per_layer(run, probes, harness.fps(base))
        identity = emit_spans(tel, run)
        snapshot = tel.snapshot()
        spans = snapshot.pop("spans")
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            obs.write_trace(tel, str(out_dir / f"{stem}.trace.json"))
            with open(out_dir / f"{stem}.snapshot.json", "w") as fh:
                json.dump(snapshot, fh)
        result["identity_max_err_us"] = identity
        result["span_self_times"] = harness.self_times(
            [s for s in spans if s.get("cat") == "e2e"])
    failed = sum(r.failed() for r in runs)
    errors = [e for r in runs for e in r.errors]
    result.update({
        "correct": failed == 0 and not errors,
        "attempted": sum(r.attempted() for r in runs),
        "failed": failed,
        "errors": errors,
        "refused": sum(r.refused for r in runs),
        "counts": run.counts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in
                    metrics.items()},
        "samples": {k: n for k, (_, _, n) in metrics.items()},
    })
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{stem}.json", "w") as fh:
            json.dump(result, fh, indent=1)
    return result


def probe(wl, frames, run):
    """Single-layer probes of a traced run: table build, kernel, copy."""
    import harness
    from repro.bench.harness import capture_metrics

    clock = harness.clock
    field = wl.field()
    t0 = clock()
    apply = wl.tables(field)
    t1 = clock()
    run.event("setup.tables", t0, t1, probe=True)
    kernel_ms, kernel_runs = harness.kernel_probe(apply, frames)
    t2 = clock()
    run.event("probe.kernel", t1, t2)
    _, snap = capture_metrics(apply, frames[0])
    t3 = clock()
    copy_gbps, copy_runs = harness.copy_probe()
    run.event("probe.copy", t3, clock())
    return {"build_ms": (t1 - t0) * 1e3, "kernel_ms": kernel_ms,
            "kernel_runs": kernel_runs,
            "bytes_per_frame": snap["counters"]["remap.bytes_gathered"],
            "copy_gbps": copy_gbps, "copy_runs": copy_runs}


def emit_spans(tel, run):
    """Add the benchmark's spans to ``tel``; return the worst
    ``|pull lag + in-flight - latency|`` over all frames, in µs."""
    import harness
    off = time.time() - harness.clock()
    worst = 0.0
    for r in run.records():
        fid = f"{run.workload}/{r.stream}/{r.seq}"
        tel.add_span("frame", r.due + off, r.latency, cat="e2e", tid=r.stream,
                     args={"id": fid, "phase": r.phase, "ok": r.ok})
        for name, start, dur in (
                ("source.wait", r.due, r.pull_lag),
                ("engine", r.pulled, r.inflight),
                ("verify", r.delivered, r.verify_s)):
            tel.add_span(name, start + off, dur, cat="e2e", tid=r.stream,
                         depth=1, args={"id": f"{fid}/{name}", "parent": fid})
        worst = max(worst, abs(r.pull_lag + r.inflight - r.latency))
    for name, start, dur, args in run.events:
        tel.add_span(name, start + off, dur, cat="e2e.control",
                     tid="control", args=args or None)
    return worst * 1e6


def stop_processes(timeout=5.0):
    """End every process this run started and wait for each.

    Engines join their workers when they close; this also catches any
    an error left running.  Last comes the multiprocessing resource
    tracker, which shared memory starts and which would otherwise
    outlive the benchmark for as long as it takes to notice its exit.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing as mp
    from multiprocessing import resource_tracker
    for p in mp.active_children():
        p.join(timeout)
        for stop in (p.terminate, p.kill):
            if p.is_alive():
                stop()
                p.join(timeout)
    resource_tracker._resource_tracker._stop()


def report(result, declared):
    """Human-readable block: every metric with unit and sample count;
    those of an untraced run that ``declared`` leaves out are marked."""
    state = "correct" if result["correct"] else "INCORRECT"
    lines = [f"{result['workload']}  seed {result['seed']}  "
             f"{'traced' if result['trace'] else 'untraced'}: {state}, "
             f"{result['attempted']} frames attempted, "
             f"{result['failed']} failed, {result['refused']} refused"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<9} "
                     f"n={result['samples'][name]}"
                     + ("" if name in declared else "  (no bound)"))
    for err in result["errors"]:
        lines.append(f"  error: {err}")
    if result["trace"]:
        lines.append(f"  pull lag + in-flight = latency within "
                     f"{result['identity_max_err_us']:.3g} us")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    bench = declaration()
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"run.py: --seconds {args.seconds} differs from run_seconds "
              f"{seconds} in {BENCHMARK.name}, which fixes the run length",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload is not None:
        try:
            res = measure(args.workload, args.seed, seconds, args.trace,
                          None if args.out is None else Path(args.out))
        finally:
            stop_processes()
        declared = [m["name"] for m in
                    bench["per_layer" if args.trace else "end_to_end"]]
        print(report(res, declared))
        line = {k: res[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = {k: res["metrics"][k] for k in declared}
        print(json.dumps(line))
        return 0
    # each workload in a fresh process, exactly like a single-workload
    # run, so one workload's heap never shows in the next one's memory
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)]
            + ([] if args.out is None else ["--out", args.out]),
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"run.py: workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
