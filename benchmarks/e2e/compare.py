"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py SET_A/ SET_B/ [--claim fps]

Each set is a directory of result JSON files written by ``run.py``
(``--out``).  Untraced results only are compared.  For every workload
and every end-to-end metric declared in ``BENCHMARK.json`` this prints
the sample count, median and quartiles of each set, the change of the
median, and a verdict:

- ``unresolved`` when the interquartile range of either set is wider
  than the metric's bound (as a share of its median) and not every run
  of B reads better than every run of A — otherwise ``better``;
- else ``worse`` / ``better`` when B's median is worse / better than
  A's by more than the bound, and ``same`` otherwise.

``--claim METRIC`` also applies the win rule to that metric: pairing
the runs of A and B in seed order, B must win at least nine tenths of
the pairs (ties count for neither side) and the medians must differ by
more than A's interquartile range.  METRIC may also be one an untraced
run measures without a bound (``fps``, ``latency_p50_ms``); its row
then reads ``no bound`` instead of a verdict.

Exit status: 1 when any verdict is ``worse`` or a claim is not met; 2
when the runs were measured for different lengths of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HOST_KEYS = ("nproc", "python", "numpy", "numba", "kernel_tier")


def load_set(directory) -> list[dict]:
    """Untraced results in ``directory``, in (seed, file name) order."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith((".trace.json", ".snapshot.json")):
            continue
        with open(path) as fh:
            res = json.load(fh)
        if not res.get("trace"):
            results.append(res)
    return sorted(results, key=lambda r: r["seed"])


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better: str, bound: float) -> str:
    """Verdict on B against A for one metric (see the module doc)."""
    higher = better == "higher"
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = statistics.median(a), statistics.median(b)
    spread = max((qa[2] - qa[0]) / abs(ma), (qb[2] - qb[0]) / abs(mb))
    all_better = min(b) > max(a) if higher else max(b) < min(a)
    if spread > bound:
        return "better" if all_better else "unresolved"
    gain = (mb - ma) / abs(ma) * (1 if higher else -1)
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "same"


def claim_met(a, b, better: str) -> tuple[bool, int, int]:
    """The win rule: ``(met, wins, pairs)`` for B claiming a gain."""
    higher = better == "higher"
    pairs = list(zip(a, b))
    wins = sum((y > x) if higher else (y < x) for x, y in pairs)
    q1, _, q3 = quartiles(a)
    moved = abs(statistics.median(b) - statistics.median(a)) > q3 - q1
    return (bool(pairs) and wins >= 0.9 * len(pairs) and moved, wins,
            len(pairs))


def host_mismatches(set_a, set_b) -> list[str]:
    def hosts(results):
        return {tuple((k, r["host"].get(k)) for k in HOST_KEYS)
                for r in results}
    ha, hb = hosts(set_a), hosts(set_b)
    return [] if ha == hb else [f"A: {sorted(ha)}", f"B: {sorted(hb)}"]


def compare(set_a, set_b, metrics, claim=None, out=None) -> int:
    """Print the comparison (to ``out``, default standard output);
    return the exit status."""
    out = out or sys.stdout
    lengths = sorted({r["seconds"] for r in set_a + set_b})
    if len(lengths) > 1:
        print(f"error: runs of different lengths ({lengths} s) are not "
              f"comparable", file=out)
        return 2
    status = 0
    mismatch = host_mismatches(set_a, set_b)
    if mismatch:
        print("warning: the two sets ran on different hosts:", file=out)
        for line in mismatch:
            print(f"  {line}", file=out)
    by_wl = defaultdict(lambda: ([], []))
    for side, results in enumerate((set_a, set_b)):
        for r in results:
            by_wl[r["workload"]][side].append(r)
    header = (f"{'workload':<22} {'metric':<16} {'nA':>3} {'medA':>10} "
              f"{'q1A..q3A':>21} {'nB':>3} {'medB':>10} {'q1B..q3B':>21} "
              f"{'delta':>8}  verdict")
    print(header, file=out)
    for wl, (ra, rb) in sorted(by_wl.items()):
        if not ra or not rb:
            print(f"{wl:<22} missing from set {'A' if not ra else 'B'}",
                  file=out)
            continue
        for m in metrics:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = [r["metrics"][name]["value"] for r in ra]
            b = [r["metrics"][name]["value"] for r in rb]
            qa, qb = quartiles(a), quartiles(b)
            ma, mb = statistics.median(a), statistics.median(b)
            v = "no bound" if bound is None else verdict(a, b, better, bound)
            status |= v == "worse"
            print(f"{wl:<22} {name:<16} {len(a):>3} {ma:>10.4g} "
                  f"{qa[0]:>10.4g}..{qa[2]:<10.4g} {len(b):>3} {mb:>10.4g} "
                  f"{qb[0]:>10.4g}..{qb[2]:<10.4g} {(mb - ma) / ma:>+8.1%}"
                  f"  {v}", file=out)
            if claim == name:
                met, wins, pairs = claim_met(a, b, better)
                status |= not met
                print(f"{'':<22} claim {name}: B wins {wins}/{pairs} pairs"
                      f" -> {'met' if met else 'NOT met'}", file=out)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.add_argument("--claim", default=None,
                   help="end-to-end metric B claims to improve")
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                   help="the benchmark declaration (metrics and bounds)")
    args = p.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    set_a, set_b = load_set(args.set_a), load_set(args.set_b)
    if not set_a or not set_b:
        p.error("each set needs at least one untraced result")
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        # an untraced run also measures metrics that carry no bound
        extra = [dict(m, bound=None) for m in bench["per_layer"]
                 if m["name"] == args.claim]
        if not extra or any(args.claim not in r["metrics"]
                            for r in set_a + set_b):
            p.error(f"{args.claim!r} is not measured by untraced runs")
        metrics = metrics + extra
    return compare(set_a, set_b, metrics, claim=args.claim)


if __name__ == "__main__":
    sys.exit(main())
