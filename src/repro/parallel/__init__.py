"""Parallelization layer: decomposition, scheduling, the process ring.

- :mod:`~repro.parallel.partition` — cutting the output frame into
  tiles/bands and pricing them,
- :mod:`~repro.parallel.schedule` — deterministic replay of
  static/dynamic/guided loop schedules,
- :mod:`~repro.parallel.ring` — band planning and the single-stream
  ring (one stream on a one-session :class:`~repro.serve.broker
  .StreamBroker`: frame-level double buffering at ``depth >= 2``, the
  per-frame fork-join baseline at ``depth=1``),
- :mod:`~repro.parallel.shmseg` — the shared-segment plumbing the
  broker's process fleet is built on,
- :mod:`~repro.parallel.simd` — the SIMD vectorization model.
"""

from .partition import Tile, blocks, row_bands, tile_weights
from .ring import MAX_RING_DEPTH, RING_SCHEDULES, plan_bands, ring_stream
from .schedule import SCHEDULES, Assignment, cyclic_chunks, simulate, static_chunks
from .simd import AVX2, SPU, SSE2, VectorISA, apply_lanewise, simd_speedup

__all__ = [
    "Tile",
    "row_bands",
    "blocks",
    "tile_weights",
    "Assignment",
    "simulate",
    "static_chunks",
    "cyclic_chunks",
    "SCHEDULES",
    "VectorISA",
    "SSE2",
    "SPU",
    "AVX2",
    "simd_speedup",
    "apply_lanewise",
    "ring_stream",
    "plan_bands",
    "MAX_RING_DEPTH",
    "RING_SCHEDULES",
]
