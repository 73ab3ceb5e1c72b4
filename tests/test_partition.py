"""Domain decomposition tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.partition import (
    Tile,
    blocks,
    row_bands,
    tile_weights,
)
from repro.errors import PartitionError


def covers_exactly(tiles, height, width):
    """Every output pixel belongs to exactly one tile."""
    count = np.zeros((height, width), dtype=int)
    for t in tiles:
        count[t.row0:t.row1, t.col0:t.col1] += 1
    return (count == 1).all()


class TestTile:
    def test_properties(self):
        t = Tile(2, 5, 1, 7)
        assert t.height == 3 and t.width == 6 and t.pixels == 18

    def test_degenerate_rejected(self):
        with pytest.raises(PartitionError):
            Tile(5, 5, 0, 2)
        with pytest.raises(PartitionError):
            Tile(0, 2, 3, 3)
        with pytest.raises(PartitionError):
            Tile(-1, 2, 0, 2)


class TestRowBands:
    def test_exact_cover(self):
        assert covers_exactly(row_bands(17, 9, 4), 17, 9)

    def test_sizes_differ_by_at_most_one(self):
        tiles = row_bands(17, 9, 4)
        heights = [t.height for t in tiles]
        assert max(heights) - min(heights) <= 1

    def test_more_bands_than_rows(self):
        tiles = row_bands(3, 5, 10)
        assert len(tiles) == 3
        assert covers_exactly(tiles, 3, 5)

    def test_validation(self):
        with pytest.raises(PartitionError):
            row_bands(0, 5, 2)
        with pytest.raises(PartitionError):
            row_bands(5, 5, 0)


class TestBlocks:
    def test_exact_cover(self):
        assert covers_exactly(blocks(10, 13, 4, 5), 10, 13)

    def test_tile_count(self):
        tiles = blocks(10, 13, 4, 5)
        assert len(tiles) == 3 * 3  # ceil(10/4) x ceil(13/5)

    def test_edge_tiles_clipped(self):
        tiles = blocks(10, 13, 4, 5)
        assert max(t.row1 for t in tiles) == 10
        assert max(t.col1 for t in tiles) == 13

    def test_validation(self):
        with pytest.raises(PartitionError):
            blocks(4, 4, 0, 2)


class TestTileWeights:
    def test_all_valid_weighs_pixels(self):
        mask = np.ones((8, 8), dtype=bool)
        tiles = blocks(8, 8, 4, 4)
        w = tile_weights(mask, tiles)
        np.testing.assert_allclose(w, 16.0)

    def test_invalid_tiles_cheap(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4] = True
        tiles = row_bands(8, 8, 2)
        w = tile_weights(mask, tiles, base_cost=0.1)
        assert w[0] == pytest.approx(32.0)
        assert w[1] == pytest.approx(3.2)

    def test_base_cost_validation(self):
        with pytest.raises(PartitionError):
            tile_weights(np.ones((4, 4), dtype=bool), row_bands(4, 4, 2),
                         base_cost=2.0)


@given(height=st.integers(1, 50), width=st.integers(1, 50),
       count=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_property_row_bands_always_cover(height, width, count):
    assert covers_exactly(row_bands(height, width, count), height, width)


@given(height=st.integers(1, 40), width=st.integers(1, 40),
       th=st.integers(1, 20), tw=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_property_blocks_always_cover(height, width, th, tw):
    assert covers_exactly(blocks(height, width, th, tw), height, width)
