"""Domain decomposition of the output frame into work units.

The correction kernel is embarrassingly parallel over *output* pixels;
how the output is cut determines load balance (out-of-FOV corner tiles
are nearly free), source-side locality (small tiles touch a compact
source window) and the per-unit overhead (sync, DMA setup).  Two
classic decompositions are provided:

- :func:`row_bands` — one contiguous band of rows per unit,
- :func:`blocks` — a 2-D grid of rectangular tiles,

and :func:`tile_weights` prices each unit for the schedulers, which
balance the out-of-FOV imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError

__all__ = ["Tile", "row_bands", "blocks", "tile_weights"]


@dataclass(frozen=True)
class Tile:
    """A rectangular output region ``[row0, row1) x [col0, col1)``."""

    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self):
        if not (0 <= self.row0 < self.row1 and 0 <= self.col0 < self.col1):
            raise PartitionError(f"degenerate tile {self!r}")

    @property
    def height(self) -> int:
        return self.row1 - self.row0

    @property
    def width(self) -> int:
        return self.col1 - self.col0

    @property
    def pixels(self) -> int:
        return self.height * self.width


def row_bands(height: int, width: int, count: int):
    """Split ``height`` rows into ``count`` contiguous bands.

    Remainder rows go to the leading bands so sizes differ by at most
    one row.  ``count`` may exceed ``height``; empty bands are simply
    not emitted.
    """
    if height <= 0 or width <= 0:
        raise PartitionError(f"domain must be positive, got {height}x{width}")
    if count <= 0:
        raise PartitionError(f"band count must be positive, got {count}")
    base, extra = divmod(height, count)
    tiles = []
    row = 0
    for i in range(count):
        h = base + (1 if i < extra else 0)
        if h == 0:
            continue
        tiles.append(Tile(row, row + h, 0, width))
        row += h
    return tiles


def blocks(height: int, width: int, tile_h: int, tile_w: int):
    """Cut the output into a grid of ``tile_h x tile_w`` blocks.

    Edge tiles are clipped to the frame, so every output pixel belongs
    to exactly one tile.
    """
    if height <= 0 or width <= 0:
        raise PartitionError(f"domain must be positive, got {height}x{width}")
    if tile_h <= 0 or tile_w <= 0:
        raise PartitionError(f"tile size must be positive, got {tile_h}x{tile_w}")
    tiles = []
    for r in range(0, height, tile_h):
        for c in range(0, width, tile_w):
            tiles.append(Tile(r, min(r + tile_h, height), c, min(c + tile_w, width)))
    return tiles


def tile_weights(valid_mask: np.ndarray, tiles, base_cost: float = 0.1):
    """Relative cost of each tile from the map's validity mask.

    A valid output pixel costs 1 unit (gather + interpolate); an
    out-of-FOV pixel costs ``base_cost`` (just the fill store).  This
    is the estimate the schedulers consume.
    """
    valid_mask = np.asarray(valid_mask, dtype=bool)
    if not 0.0 <= base_cost <= 1.0:
        raise PartitionError(f"base_cost must be in [0, 1], got {base_cost}")
    weights = np.empty(len(tiles), dtype=np.float64)
    for i, t in enumerate(tiles):
        sub = valid_mask[t.row0:t.row1, t.col0:t.col1]
        valid = float(sub.sum())
        weights[i] = valid + base_cost * (sub.size - valid)
    return weights
