#!/usr/bin/env python3
"""Run any (or every) experiment from the evaluation, by id.

The registry in ``repro.bench.experiments`` implements each table and
figure (T1, T2, F1..F12), the ablations (A1..A4) and the host checks
(H1, H2).  This script is the command-line front end
the benchmarks and EXPERIMENTS.md are generated from.

Run:  python examples/platform_comparison.py          # quick subset
      python examples/platform_comparison.py F4 F7    # specific ids
      python examples/platform_comparison.py all      # everything
"""

import sys
import time

from repro.bench import resolve_experiments, run_experiment
from repro.errors import BenchmarkError

QUICK = ["T1", "F4", "F7"]


def main(argv) -> int:
    try:
        ids = resolve_experiments(argv or QUICK)
    except BenchmarkError as exc:
        print(exc)
        return 2

    for exp_id in ids:
        t0 = time.perf_counter()
        table = run_experiment(exp_id)
        elapsed = time.perf_counter() - t0
        print(table)
        print(f"  [{exp_id} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
