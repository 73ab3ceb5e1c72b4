"""A5 — map construction: exact vs radial-LUT builder."""

from repro.bench.ablations import a5_map_construction

from conftest import run_once


def test_a5_map_construction(benchmark, record_table):
    table = run_once(benchmark, a5_map_construction, res="720p")
    record_table("A5", table)
    rows = list(zip(table.column("builder"), table.column("samples"),
                    table.column("speedup"), table.column("max_err_px")))
    radial = [(n, s, e) for b, n, s, e in rows if b == "radial"]
    # error falls below 0.01 px from 256 samples on...
    assert all(e < 0.01 for n, _, e in radial if n >= 256)
    # ...and the verdict states what the speedup column measured, which
    # may go either way (on a 2-core Xeon the exact builder is faster)
    speedup = next(s for n, s, _ in radial if n == 256)
    assert ("lower build cost" in table.notes[-1]) == (speedup > 1.0)
