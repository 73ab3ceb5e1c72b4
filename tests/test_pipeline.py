"""High-level FisheyeCorrector pipeline tests."""

import numpy as np
import pytest

from repro.core.image import GRAY8, Frame
from repro.core.pipeline import FisheyeCorrector, StreamStats
from repro.core.remap import RemapLUT
from repro.errors import MappingError


class TestConstruction:
    def test_for_sensor_builds_full_coverage_view(self, small_sensor, small_lens):
        c = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64, zoom=0.5)
        assert c.out_shape == (64, 64)
        assert c.coverage() == pytest.approx(1.0)

    def test_zoom_validation(self, small_sensor, small_lens):
        with pytest.raises(MappingError):
            FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64, zoom=0.0)

    def test_zoom_one_preserves_center_resolution(self, small_sensor, small_lens):
        from repro.core.quality import center_scale

        c = FisheyeCorrector.for_sensor(small_sensor, small_lens, 64, 64, zoom=1.0)
        assert center_scale(c.field) == pytest.approx(1.0, abs=0.02)

    def test_lut_lazy_and_cached(self, small_field):
        c = FisheyeCorrector(small_field)
        assert c._lut is None
        lut = c.lut
        assert isinstance(lut, RemapLUT)
        assert c.lut is lut


class TestCorrect:
    def test_array_in_array_out(self, small_field, random_image):
        c = FisheyeCorrector(small_field)
        out = c.correct(random_image)
        assert isinstance(out, np.ndarray)
        assert out.shape == (64, 64)

    def test_frame_in_frame_out(self, small_field, random_image):
        c = FisheyeCorrector(small_field)
        frame = Frame(random_image, GRAY8, index=3, timestamp=0.1)
        out = c.correct(frame)
        assert isinstance(out, Frame)
        assert out.index == 3

    def test_matches_direct_lut(self, small_field, random_image):
        c = FisheyeCorrector(small_field, method="bicubic")
        direct = RemapLUT(small_field, method="bicubic").apply(random_image)
        np.testing.assert_array_equal(c.correct(random_image), direct)

    def test_tilted_view_fill(self, tilted_field, random_image):
        c = FisheyeCorrector(tilted_field, fill=17.0)
        out = c.correct(random_image)
        invalid = ~tilted_field.valid_mask()
        np.testing.assert_array_equal(out[invalid], 17)


class TestStream:
    def test_stream_yields_all_frames(self, small_field, rng):
        c = FisheyeCorrector(small_field)
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(5)]
        outs = [o.copy() for o in c.correct_stream(frames)]
        assert len(outs) == 5
        np.testing.assert_array_equal(outs[2], c.correct(frames[2]))

    def test_stream_stats_accumulate(self, small_field, rng):
        c = FisheyeCorrector(small_field)
        stats = StreamStats()
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(4)]
        for _ in c.correct_stream(frames, stats=stats):
            pass
        assert stats.frames == 4
        assert stats.pixels == 4 * 64 * 64
        assert stats.seconds > 0
        assert stats.fps > 0
        assert stats.mpixels_per_s > 0

    def test_stream_frame_objects(self, small_field, random_image):
        c = FisheyeCorrector(small_field)
        frames = [Frame(random_image, GRAY8, index=i) for i in range(3)]
        outs = list(c.correct_stream(frames))
        assert [f.index for f in outs] == [0, 1, 2]
        assert all(isinstance(f, Frame) for f in outs)

    def test_stream_reuses_buffer(self, small_field, rng):
        c = FisheyeCorrector(small_field)
        frames = [rng.integers(0, 255, (64, 64), dtype=np.uint8) for _ in range(2)]
        it = c.correct_stream(frames)
        first = next(it)
        second = next(it)
        # zero-copy contract: same backing buffer
        assert first is second

    def test_empty_stats(self):
        stats = StreamStats()
        assert stats.fps == 0.0
        assert stats.mpixels_per_s == 0.0
