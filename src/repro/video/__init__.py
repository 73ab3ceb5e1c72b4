"""Synthetic fisheye video workloads: scenes, rendering, streams, I/O."""

from .distort import FisheyeRenderer, render_fisheye, scene_camera_for_sensor
from .io import read_npy, read_pgm, read_ppm, write_npy, write_pgm, write_ppm
from .stream import SyntheticStream, corrected_stream, panning_crops
from .synth import checkerboard, circle_grid, gradient, noise, radial_circles, urban
from .yuv import PLANE_NAMES, YUV420Frame, YUVCorrector, to_yuv420_stream

__all__ = [
    "FisheyeRenderer",
    "render_fisheye",
    "scene_camera_for_sensor",
    "SyntheticStream",
    "panning_crops",
    "checkerboard",
    "circle_grid",
    "radial_circles",
    "urban",
    "gradient",
    "noise",
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "read_ppm",
    "write_npy",
    "read_npy",
    "YUV420Frame",
    "YUVCorrector",
    "PLANE_NAMES",
    "to_yuv420_stream",
    "corrected_stream",
]
