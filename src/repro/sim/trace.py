"""Address-trace extraction from remap tables.

Bridges the kernel's actual data to the memory-system models: the
source addresses a correction pass touches are exactly the LUT's
expanded gather offsets (:meth:`~repro.core.remap.RemapLUT.tap_offsets`),
in output order.  These traces feed
:class:`repro.sim.cache.CacheSim` (SMP locality) and the GPU
coalescing analysis.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..core.remap import RemapLUT
from ..parallel.partition import Tile

__all__ = ["gather_trace", "tile_gather_trace", "output_trace"]


def gather_trace(lut: RemapLUT, pixel_bytes: int = 1, base: int = 0) -> np.ndarray:
    """Byte addresses of every source fetch, in output-pixel order.

    For a ``taps``-tap LUT the trace has ``pixels * taps`` entries:
    all taps of output pixel 0, then pixel 1, ...  Masked-out pixels
    contribute their (index 0) placeholder taps — harmless for
    locality studies and faithful to a branch-free kernel that fetches
    unconditionally.
    """
    if pixel_bytes <= 0:
        raise SimulationError(f"pixel_bytes must be positive, got {pixel_bytes}")
    return (lut.tap_offsets().astype(np.int64).ravel() * pixel_bytes + base)


def tile_gather_trace(lut: RemapLUT, tile: Tile, pixel_bytes: int = 1,
                      base: int = 0) -> np.ndarray:
    """Gather trace restricted to one output tile (row-major within it)."""
    if pixel_bytes <= 0:
        raise SimulationError(f"pixel_bytes must be positive, got {pixel_bytes}")
    h, w = lut.out_shape
    if tile.row1 > h or tile.col1 > w:
        raise SimulationError(f"tile {tile} exceeds output {lut.out_shape}")
    taps = lut.tap_offsets(tile.row0, tile.row1).reshape(
        tile.row1 - tile.row0, w, -1)[:, tile.col0:tile.col1]
    return (taps.astype(np.int64).ravel() * pixel_bytes + base)


def output_trace(height: int, width: int, pixel_bytes: int = 1,
                 base: int = 0) -> np.ndarray:
    """Byte addresses of the output writes (perfectly sequential)."""
    if height <= 0 or width <= 0 or pixel_bytes <= 0:
        raise SimulationError(
            f"dimensions must be positive: {height}x{width}, {pixel_bytes} B/px")
    return np.arange(height * width, dtype=np.int64) * pixel_bytes + base
