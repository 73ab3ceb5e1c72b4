"""H1 — real host scaling of the `pipelined` thread engine (with CIs)."""

from repro.bench.ablations import h1_host_scaling

from conftest import run_once


def test_h1_host_scaling(benchmark, record_table):
    table = run_once(benchmark, h1_host_scaling, res="VGA")
    record_table("H1", table)
    medians = table.column("median_ms")
    # sanity only: timings are positive and CIs bracket the medians
    # (speedup asserts live in the deterministic F1; this host may have
    # any core count)
    for med, lo, hi in zip(medians, table.column("ci_low_ms"),
                           table.column("ci_high_ms")):
        assert 0 < lo <= med <= hi
