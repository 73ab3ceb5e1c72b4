"""Cell Broadband Engine platform model (PPE + SPEs + EIB DMA).

The Cell port in the 2010 study is the interesting one: SPEs have no
cache — every byte of source, LUT and output must be staged through
the 256 KB local store by explicit DMA, and performance hinges on

1. **tile sizing** — an output band's working set (output rows + the
   source bounding box they sample + the LUT slice) must fit the local
   store, and the source bounding box is *map-dependent* (it balloons
   near the frame edges where the distortion stretches);
2. **double buffering** — overlapping tile ``k``'s compute with tile
   ``k+1``'s inbound DMA hides the smaller of the two times, at the
   price of halving the usable local store;
3. **EIB contention** — all SPEs share the element-interconnect
   bandwidth, so DMA serializes as SPE count grows.

This model simulates all three with the discrete-event engine: SPE
state machines issue DMA requests against a shared
:class:`~repro.sim.memory.SharedBus`, and tile working sets are taken
from the *actual* coordinate field when available.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, PlatformError
from ..obs.telemetry import emit_phase_spans, get_telemetry
from ..parallel.partition import Tile
from ..sim.event import EventQueue
from ..sim.memory import SharedBus
from ..sim.stats import Breakdown
from .platform import PerfReport, PlatformModel, Workload

__all__ = ["CellModel", "TileJob"]


@dataclass(frozen=True)
class TileJob:
    """One SPE work unit: byte volumes and compute time for a tile.

    ``dma_in_bytes`` is the inbound total; ``dma_src_bytes`` /
    ``dma_lut_bytes`` break it down into source-pixel and LUT-entry
    traffic so the entry-size accounting (the axis the compact stencil
    table layout optimizes) is visible per tile.
    """

    tile: Tile
    dma_in_bytes: int
    dma_out_bytes: int
    compute_ns: int
    dma_src_bytes: int = 0
    dma_lut_bytes: int = 0

    @property
    def working_set(self) -> int:
        return self.dma_in_bytes + self.dma_out_bytes


@dataclass
class CellModel(PlatformModel):
    """Cell-BE-class accelerator: PPE control + SPE workers + EIB.

    Defaults approximate a PS3-class part: 6 usable SPEs at 3.2 GHz,
    4-lane single-precision FMA pipelines, 256 KB local store, 25.6
    GB/s element interconnect.
    """

    spes: int = 6
    clock_ghz: float = 3.2
    flops_per_cycle: float = 8.0
    local_store_bytes: int = 256 * 1024
    code_bytes: int = 48 * 1024
    eib_bw_gbps: float = 25.6
    dma_setup_ns: int = 500
    ppe_serial_ns: int = 80_000
    name: str = "cell"

    def __post_init__(self):
        if self.spes < 1:
            raise PlatformError(f"spes must be >= 1, got {self.spes}")
        if self.clock_ghz <= 0 or self.flops_per_cycle <= 0 or self.eib_bw_gbps <= 0:
            raise PlatformError("clock, issue width and bandwidth must be positive")
        if self.code_bytes >= self.local_store_bytes:
            raise PlatformError("code does not fit the local store")
        # memoized feasible tilings: (field id, lut_bytes, out_bytes, db)
        # -> (rows, cols).  Fields are immutable; id() is safe while the
        # caller keeps the field alive (workloads hold a reference).
        self._tile_shape_cache = {}

    # ------------------------------------------------------------------
    @property
    def peak_gflops(self) -> float:
        return self.spes * self.clock_ghz * self.flops_per_cycle

    @property
    def mem_bw_gbps(self) -> float:
        return self.eib_bw_gbps

    def describe(self) -> dict:
        d = super().describe()
        d.update(cores=self.spes, clock_ghz=self.clock_ghz,
                 simd="spu", local_store_kb=self.local_store_bytes // 1024)
        return d

    # ------------------------------------------------------------------
    # Tile costing
    # ------------------------------------------------------------------
    def _jobs(self, workload: Workload, tile_rows: int, tile_cols: int | None = None):
        """Build per-tile jobs (DMA volumes from the real map if present)."""
        spec = workload.spec
        pixel_bytes = spec.out_bytes
        if tile_cols is None:
            tile_cols = workload.out_width
        tiles = []
        for r in range(0, workload.out_height, tile_rows):
            for c in range(0, workload.out_width, tile_cols):
                tiles.append(Tile(r, min(r + tile_rows, workload.out_height),
                                  c, min(c + tile_cols, workload.out_width)))
        cycles_valid = spec.flops / self.flops_per_cycle
        mask = workload.field.valid_mask() if workload.field is not None else None

        jobs = []
        for t in tiles:
            out_bytes = int(t.pixels * pixel_bytes)
            lut_bytes = int(t.pixels * spec.lut_bytes)
            if workload.field is not None:
                bbox = workload.field.source_bbox(t.row0, t.row1, t.col0, t.col1)
                if bbox is None:
                    src_bytes = 0
                    valid_px = 0
                else:
                    sy0, sy1, sx0, sx1 = bbox
                    src_bytes = int((sy1 - sy0) * (sx1 - sx0) * pixel_bytes)
                    valid_px = int(mask[t.row0:t.row1, t.col0:t.col1].sum())
            else:
                # Conservative estimate: tile's share of the sampled source
                # with a 1.5x bounding-box inflation.
                share = t.pixels / workload.pixels
                src_bytes = int(workload.src_width * workload.src_height
                                * pixel_bytes * workload.source_footprint * share * 1.5)
                valid_px = t.pixels
            compute_ns = int(round(valid_px * cycles_valid / self.clock_ghz
                                   + (t.pixels - valid_px) * 1.0 / self.clock_ghz))
            jobs.append(TileJob(t, src_bytes + lut_bytes, out_bytes, compute_ns,
                                dma_src_bytes=src_bytes, dma_lut_bytes=lut_bytes))
        return jobs

    def dma_profile(self, workload: Workload, tile_rows: int | None = None,
                    tile_cols: int | None = None,
                    double_buffering: bool = True) -> dict:
        """Per-frame DMA ledger for one tiling: the entry-size accounting.

        Breaks the frame's DMA traffic into source, LUT and output
        bytes — the LUT share scales linearly with the table's
        ``entry_bytes`` (e.g. cutting the bilinear entry from the
        int64 layout's 49 B to the compact stencil layout's 13 B removes
        that fraction of EIB traffic).  Returns totals plus per-pixel
        figures.
        """
        if tile_rows is None:
            auto_rows, auto_cols = self.max_tile_shape(workload, double_buffering)
            tile_rows = auto_rows
            if tile_cols is None:
                tile_cols = auto_cols
        jobs = self._jobs(workload, tile_rows, tile_cols)
        src = sum(j.dma_src_bytes for j in jobs)
        lut = sum(j.dma_lut_bytes for j in jobs)
        out = sum(j.dma_out_bytes for j in jobs)
        total = src + lut + out
        self._emit_ledger(jobs, src, lut, out)
        return {
            "tiles": len(jobs),
            "tile_rows": tile_rows,
            "tile_cols": tile_cols if tile_cols is not None else workload.out_width,
            "src_bytes": src,
            "lut_bytes": lut,
            "out_bytes": out,
            "total_bytes": total,
            "lut_entry_bytes": workload.spec.lut_bytes,
            "bytes_per_output_px": total / workload.pixels,
            "dma_setup_ns_total": len(jobs) * 2 * self.dma_setup_ns,
        }

    def planar_dma_profile(self, plane_workloads: dict,
                           tile_rows: int | None = None,
                           tile_cols: int | None = None,
                           double_buffering: bool = True) -> dict:
        """DMA ledger for one planar (e.g. YUV 4:2:0) frame.

        ``plane_workloads`` maps plane names to single-channel
        :class:`~repro.accel.platform.Workload`\\ s — for 4:2:0 a
        full-resolution luma plane plus two half-resolution chroma
        planes sharing one derived map.  Each plane is profiled with
        its own feasible tiling (``tile_rows`` applies to the luma
        plane; chroma planes use ``tile_rows // 2`` so the band count
        matches) and the ledgers are summed, giving the modeled
        bytes/frame that the measured planar hot path is reconciled
        against in ``benchmarks/check_regression.py``.
        """
        planes = {}
        src = lut = out = tiles = setup = 0
        total_px = 0
        luma_h = max(w.out_height for w in plane_workloads.values())
        for name, workload in plane_workloads.items():
            rows = tile_rows
            if rows is not None and workload.out_height < luma_h:
                rows = max(1, rows // 2)
            prof = self.dma_profile(workload, tile_rows=rows,
                                    tile_cols=tile_cols,
                                    double_buffering=double_buffering)
            planes[name] = prof
            src += prof["src_bytes"]
            lut += prof["lut_bytes"]
            out += prof["out_bytes"]
            tiles += prof["tiles"]
            setup += prof["dma_setup_ns_total"]
            total_px += workload.pixels
        total = src + lut + out
        return {
            "planes": planes,
            "tiles": tiles,
            "src_bytes": src,
            "lut_bytes": lut,
            "out_bytes": out,
            "total_bytes": total,
            "bytes_per_output_px": total / total_px,
            "dma_setup_ns_total": setup,
        }

    def fused_dma_profile(self, fused_workload: Workload,
                          staged_workloads: dict,
                          tile_rows: int | None = None,
                          tile_cols: int | None = None,
                          double_buffering: bool = True) -> dict:
        """DMA ledger of a fused composed-map pass vs its staged twin.

        ``fused_workload`` models the single correct+downscale gather
        at the *delivered* resolution (one composed table); each entry
        of ``staged_workloads`` (e.g. ``{"correct": ..., "downscale":
        ...}``) models one pass of the naive pipeline, which also pays
        the intermediate frame's store and re-load through the EIB.
        Both sides are profiled with their own feasible tilings and
        the ledgers compared: ``savings_ratio`` is staged/fused total
        bytes — the modeled counterpart of the measured
        ``bytes_gathered`` ratio held by the ``fused`` gate of
        ``benchmarks/check_regression.py``.
        """
        fused = self.dma_profile(fused_workload, tile_rows=tile_rows,
                                 tile_cols=tile_cols,
                                 double_buffering=double_buffering)
        stages = {}
        staged_total = staged_setup = staged_tiles = 0
        for name, workload in staged_workloads.items():
            prof = self.dma_profile(workload, tile_cols=tile_cols,
                                    double_buffering=double_buffering)
            stages[name] = prof
            staged_total += prof["total_bytes"]
            staged_setup += prof["dma_setup_ns_total"]
            staged_tiles += prof["tiles"]
        return {
            "fused": fused,
            "stages": stages,
            "staged_total_bytes": staged_total,
            "staged_tiles": staged_tiles,
            "staged_dma_setup_ns_total": staged_setup,
            "savings_ratio": (staged_total / fused["total_bytes"]
                              if fused["total_bytes"] else float("inf")),
            "bytes_saved": staged_total - fused["total_bytes"],
        }

    #: Tiles replayed into the trace per ledger; a 1080p frame can tile
    #: into hundreds of jobs, far past what a timeline view needs.
    _TRACE_TILE_CAP = 64

    def _emit_ledger(self, jobs, src_bytes, lut_bytes, out_bytes) -> None:
        """Re-emit a DMA ledger through the telemetry registry.

        Counters carry the byte totals; the per-tile ledger is replayed
        as *modeled* spans (DMA-in, compute, DMA-out laid end to end on
        a synthetic SPE track), so the analytic timeline renders next
        to the measured kernels in one Chrome trace.
        """
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.counter("model.cell.ledgers").inc()
        tel.counter("model.cell.dma_src_bytes").inc(src_bytes)
        tel.counter("model.cell.dma_lut_bytes").inc(lut_bytes)
        tel.counter("model.cell.dma_out_bytes").inc(out_bytes)
        t = time.time()
        for i, job in enumerate(jobs[: self._TRACE_TILE_CAP]):
            # EIB at B GB/s moves 1 byte in 1/B ns
            t = emit_phase_spans(tel, f"cell.tile{i}", {
                "dma_in": 2 * self.dma_setup_ns + job.dma_in_bytes / self.eib_bw_gbps,
                "compute": job.compute_ns,
                "dma_out": job.dma_out_bytes / self.eib_bw_gbps,
            }, track="model:cell-spe", start=t)
        if len(jobs) > self._TRACE_TILE_CAP:
            tel.counter("model.cell.trace_tiles_dropped").inc(
                len(jobs) - self._TRACE_TILE_CAP)

    def usable_local_store(self, double_buffering: bool) -> int:
        """Bytes available for tile buffers (halved by double buffering)."""
        usable = self.local_store_bytes - self.code_bytes
        return usable // 2 if double_buffering else usable

    def _worst_working_set(self, workload: Workload,
                           tile_cols: int | None = None):
        """``worst(rows)``: the largest tile working set of the ``rows``
        x ``tile_cols`` tiling, ``max(j.working_set for j in
        self._jobs(workload, rows, tile_cols))``.

        With a field, each output row's valid-sample extents per column
        block are found once here, and ``worst`` only reduces them per
        band of rows: ``floor(min) == min(floor)`` (and likewise for
        ``ceil``/``max``), so every tile's source bounding box is the
        one :meth:`~repro.core.mapping.RemapField.source_bbox` gives.
        """
        if workload.field is None:
            return lambda rows: max(j.working_set
                                    for j in self._jobs(workload, rows, tile_cols))
        field = workload.field
        spec = workload.spec
        pixel_bytes = spec.out_bytes
        h, w = workload.out_height, workload.out_width
        col0 = np.arange(0, w, tile_cols or w)
        widths = np.diff(np.append(col0, w))
        valid = field.valid_mask()
        # per (output row, column block): min/max of the valid samples
        # (+inf/-inf where there are none)
        lo_x, hi_x, lo_y, hi_y = (
            ufunc.reduceat(np.where(valid, plane, empty), col0, axis=1)
            for plane in (field.map_x, field.map_y)
            for ufunc, empty in ((np.minimum, np.inf), (np.maximum, -np.inf)))
        margin = 2  # RemapField.source_bbox's interpolation footprint

        def span(lo, hi, size):
            """Clamped half-open source span of each tile; 0 when empty."""
            some = np.isfinite(lo)
            a = np.floor(np.where(some, lo, 0.0)).astype(np.int64) - margin
            b = np.ceil(np.where(some, hi, 0.0)).astype(np.int64) + margin + 1
            return np.where(some, np.minimum(size, b) - np.maximum(0, a), 0)

        def worst(rows: int) -> int:
            row0 = np.arange(0, h, rows)
            heights = np.diff(np.append(row0, h))
            pixels = heights[:, None] * widths[None, :]
            sy = span(np.minimum.reduceat(lo_y, row0, axis=0),
                      np.maximum.reduceat(hi_y, row0, axis=0),
                      field.src_height)
            sx = span(np.minimum.reduceat(lo_x, row0, axis=0),
                      np.maximum.reduceat(hi_x, row0, axis=0),
                      field.src_width)
            # the integer truncations of _jobs, in its order
            src = np.trunc(sy * sx * pixel_bytes)
            lut = np.trunc(pixels * spec.lut_bytes)
            out = np.trunc(pixels * pixel_bytes)
            return int((src + lut + out).max())

        return worst

    def max_tile_rows(self, workload: Workload, double_buffering: bool = True,
                      tile_cols: int | None = None) -> int:
        """Largest band height whose working set fits the local store.

        Raises :class:`~repro.errors.CapacityError` when even a single
        row (at the given column split) does not fit.
        """
        budget = self.usable_local_store(double_buffering)
        worst = self._worst_working_set(workload, tile_cols)

        def fits(rows: int) -> bool:
            return worst(rows) <= budget

        if not fits(1):
            raise CapacityError(
                f"no feasible tile: a single output row's working set exceeds the "
                f"{budget}-byte local-store budget (tile_cols={tile_cols})")
        # Exponential probe then binary search (feasibility is monotone in
        # practice: taller bands only widen their source bounding boxes).
        hi = 1
        while hi < workload.out_height and fits(min(hi * 2, workload.out_height)):
            hi = min(hi * 2, workload.out_height)
        lo = hi  # largest known-feasible
        upper = min(hi * 2, workload.out_height)
        while lo + 1 < upper:
            mid = (lo + upper) // 2
            if fits(mid):
                lo = mid
            else:
                upper = mid
        return lo

    def max_tile_shape(self, workload: Workload, double_buffering: bool = True):
        """Feasible ``(tile_rows, tile_cols)`` maximizing tile pixels.

        Tries progressively finer column splits (full width, halves,
        quarters, ...) and picks the feasible configuration with the
        largest tile area — fewer tiles means fewer DMA setups.
        """
        key = (id(workload.field), workload.spec.lut_bytes,
               workload.spec.out_bytes, workload.out_width, workload.out_height,
               double_buffering)
        cached = self._tile_shape_cache.get(key)
        if cached is not None:
            return cached
        budget = self.usable_local_store(double_buffering)
        per_px = workload.spec.out_bytes + workload.spec.lut_bytes
        best = None
        cols = workload.out_width
        while cols >= 16:
            # Cheap lower bound: one output row of this width already
            # needs cols * (out + lut) bytes before any source data.
            if cols * per_px > budget:
                cols //= 2
                continue
            try:
                rows = self.max_tile_rows(workload, double_buffering, tile_cols=cols)
            except CapacityError:
                rows = None
            if rows is not None:
                area = rows * cols
                if best is None or area > best[0]:
                    best = (area, rows, cols)
            cols //= 2
        if best is None:
            raise CapacityError(
                "no feasible tiling: even a 16-column single row exceeds the "
                "local-store budget")
        self._tile_shape_cache[key] = (best[1], best[2])
        return best[1], best[2]

    # ------------------------------------------------------------------
    # Event-driven execution
    # ------------------------------------------------------------------
    def simulate(self, workload: Workload, spes: int | None = None,
                 double_buffering: bool = True,
                 tile_rows: int | None = None,
                 tile_cols: int | None = None) -> PerfReport:
        """Run the SPE/DMA timeline for one frame.

        Parameters
        ----------
        spes:
            SPE count (default: all configured SPEs).
        double_buffering:
            Overlap inbound DMA of the next tile with compute.
        tile_rows, tile_cols:
            Tile shape; defaults to the largest feasible configuration
            (full-width bands when they fit, column-split tiles
            otherwise).  A request that does not fit the local store
            raises :class:`~repro.errors.CapacityError`.
        """
        spes = self.spes if spes is None else spes
        if not 1 <= spes <= self.spes:
            raise PlatformError(f"spes must be in [1, {self.spes}], got {spes}")
        if tile_rows is None:
            # Auto-tune the band height the way the real port does (profile
            # a few candidates): the trade-off is parallel balance (more
            # tiles) vs DMA-setup amortization (fewer, bigger tiles), and
            # the winner depends on frame size and kernel weight.
            max_rows, auto_cols = self.max_tile_shape(workload, double_buffering)
            if tile_cols is None:
                tile_cols = auto_cols
            h = workload.out_height
            candidates = sorted({
                min(max_rows, max(1, -(-h // (k * spes)))) for k in (1, 2, 4)
            } | {max_rows})
            best = None
            for rows in candidates:
                rep = self.simulate(workload, spes=spes,
                                    double_buffering=double_buffering,
                                    tile_rows=rows, tile_cols=tile_cols)
                if best is None or rep.frame_ns < best.frame_ns:
                    best = rep
            return best
        jobs = self._jobs(workload, tile_rows, tile_cols)
        budget = self.usable_local_store(double_buffering)
        worst = max(j.working_set for j in jobs)
        if worst > budget:
            raise CapacityError(
                f"tile working set {worst} B exceeds local-store budget {budget} B "
                f"(tile_rows={tile_rows}, double_buffering={double_buffering})")

        queue = EventQueue()
        bus = SharedBus("eib", self.eib_bw_gbps, setup_ns=self.dma_setup_ns)
        finish = [0] * spes
        compute_busy = [0] * spes

        class SpeState:
            """Per-SPE double-buffered fetch/compute/writeback machine."""

            def __init__(self, sid, work, model):
                self.sid = sid
                self.work = work           # list of TileJob
                self.model = model
                self.fetch_next = 0        # next job index to DMA in
                self.ready = []            # fetched jobs awaiting compute
                self.compute_done = 0      # jobs fully computed
                self.computing = False
                self.buffers = 2 if double_buffering else 1
                self.in_flight = 0

            def start(self):
                self.try_fetch()

            def try_fetch(self):
                while (self.fetch_next < len(self.work)
                       and self.in_flight + len(self.ready) + (1 if self.computing else 0)
                       < self.buffers):
                    job = self.work[self.fetch_next]
                    self.fetch_next += 1
                    self.in_flight += 1
                    _, end = bus.request(queue.now, job.dma_in_bytes)
                    queue.schedule_at(end, lambda j=job: self.on_fetched(j))

            def on_fetched(self, job):
                self.in_flight -= 1
                self.ready.append(job)
                self.try_compute()

            def try_compute(self):
                if self.computing or not self.ready:
                    return
                job = self.ready.pop(0)
                self.computing = True
                compute_busy[self.sid] += job.compute_ns
                queue.schedule(job.compute_ns, lambda j=job: self.on_computed(j))

            def on_computed(self, job):
                self.computing = False
                _, end = bus.request(queue.now, job.dma_out_bytes)
                self.compute_done += 1
                if self.compute_done == len(self.work):
                    queue.schedule_at(end, lambda: self.on_done(end))
                else:
                    # Writeback completion frees the buffer for the next fetch.
                    queue.schedule_at(end, self.after_writeback)
                    self.try_compute()

            def after_writeback(self):
                self.try_fetch()
                self.try_compute()

            def on_done(self, end):
                finish[self.sid] = max(finish[self.sid], end)

        # Greedy load-balanced assignment (the PPE dispatcher hands tiles
        # to the least-loaded SPE), preserving per-SPE execution order.
        work_lists = [[] for _ in range(spes)]
        load = [0] * spes
        for job in jobs:
            s = min(range(spes), key=lambda k: (load[k], k))
            work_lists[s].append(job)
            load[s] += job.compute_ns + bus.occupancy_ns(job.dma_in_bytes + job.dma_out_bytes)
        machines = [SpeState(s, work_lists[s], self) for s in range(spes)]
        for m in machines:
            if m.work:
                m.start()
        queue.run()

        frame_parallel_ns = max(finish) if any(finish) else 0
        frame_ns = self.ppe_serial_ns + frame_parallel_ns

        total_compute = sum(compute_busy)
        breakdown = Breakdown()
        breakdown.add("serial", self.ppe_serial_ns)
        breakdown.add("compute", total_compute // max(1, spes))
        breakdown.add("dma_exposed",
                      max(0, frame_parallel_ns - total_compute // max(1, spes)))

        dma_bytes = sum(j.dma_in_bytes + j.dma_out_bytes for j in jobs)
        return PerfReport(
            platform=f"{self.name}[{spes}spe{'+db' if double_buffering else ''}]",
            workload=workload,
            frame_ns=int(frame_ns),
            breakdown=breakdown,
            bottleneck="dma" if bus.busy_ns > total_compute / max(1, spes) else "compute",
            notes={
                "spes": spes,
                "double_buffering": double_buffering,
                "tile_rows": tile_rows,
                "tile_cols": tile_cols if tile_cols is not None else workload.out_width,
                "tiles": len(jobs),
                "dma_bytes": dma_bytes,
                "bus_busy_ns": bus.busy_ns,
                "bus_utilization": round(bus.busy_ns / frame_parallel_ns, 4)
                if frame_parallel_ns else 0.0,
                "compute_ns_per_spe": total_compute // max(1, spes),
            },
        )

    def estimate_frame(self, workload: Workload) -> PerfReport:
        """Default estimate: all SPEs, double buffering, best tile size."""
        return self.simulate(workload)

    def scaling(self, workload: Workload, spe_counts=None, double_buffering=True):
        """Speedup sweep over SPE counts."""
        if spe_counts is None:
            spe_counts = [s for s in (1, 2, 4, 6, 8) if s <= self.spes]
        return [self.simulate(workload, spes=s, double_buffering=double_buffering)
                for s in spe_counts]
