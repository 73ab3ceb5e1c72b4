"""Workload description and the platform-model interface.

A :class:`Workload` is "correct frames of this geometry with this
kernel"; it optionally carries the *actual* remap field, from which
map-dependent quantities (coverage, source footprint, coalescing,
per-tile bounding boxes) are measured rather than assumed.  Every
platform model implements :class:`PlatformModel.estimate_frame`,
returning a :class:`PerfReport` with a per-phase time breakdown — the
unit all benchmark tables are printed from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..errors import PlatformError
from ..sim.stats import Breakdown
from ..core.mapping import RemapField
from .kernels import KernelSpec, kernel_spec

__all__ = ["Workload", "PerfReport", "PlatformModel", "STANDARD_RESOLUTIONS"]

#: the resolution sweep used across the evaluation (name -> (width, height))
STANDARD_RESOLUTIONS = {
    "VGA": (640, 480),
    "SVGA": (800, 600),
    "720p": (1280, 720),
    "1080p": (1920, 1080),
    "4Mpx": (2048, 2048),
}


@dataclass
class Workload:
    """One correction task: output geometry + kernel configuration.

    Attributes
    ----------
    out_width, out_height:
        Output frame size.
    src_width, src_height:
        Source (fisheye) frame size.
    spec:
        The kernel cost descriptor (see
        :func:`repro.accel.kernels.kernel_spec`).
    field:
        Optional real coordinate field for measured statistics; when
        absent, conservative defaults are used (full coverage, 60 %
        source footprint, moderately scattered gathers).
    frames:
        Frames per measurement (streaming amortizes per-stream setup).
    """

    out_width: int
    out_height: int
    src_width: int
    src_height: int
    spec: KernelSpec
    field: Optional[RemapField] = None
    frames: int = 1

    def __post_init__(self):
        for label, v in (("out_width", self.out_width), ("out_height", self.out_height),
                         ("src_width", self.src_width), ("src_height", self.src_height),
                         ("frames", self.frames)):
            if v <= 0:
                raise PlatformError(f"{label} must be positive, got {v}")
        if self.field is not None:
            if self.field.shape != (self.out_height, self.out_width):
                raise PlatformError(
                    f"field shape {self.field.shape} does not match output "
                    f"{self.out_height}x{self.out_width}")
            if (self.field.src_width, self.field.src_height) != (self.src_width, self.src_height):
                raise PlatformError("field source size does not match workload source size")

    # ------------------------------------------------------------------
    @classmethod
    def from_field(cls, field: RemapField, method: str = "bilinear",
                   mode: str = "lut", pixel_bytes: int = 1, frames: int = 1,
                   lut_entry_bytes: float | None = None) -> "Workload":
        """Build a workload around a real coordinate field."""
        spec = kernel_spec(method, mode, pixel_bytes, lut_entry_bytes)
        h, w = field.shape
        return cls(out_width=w, out_height=h, src_width=field.src_width,
                   src_height=field.src_height, spec=spec, field=field, frames=frames)

    @property
    def pixels(self) -> int:
        """Output pixels per frame."""
        return self.out_width * self.out_height

    @cached_property
    def coverage(self) -> float:
        """Fraction of output pixels inside the FOV (measured if possible)."""
        if self.field is not None:
            return self.field.coverage()
        return 1.0

    @cached_property
    def source_footprint(self) -> float:
        """Fraction of the source frame actually sampled.

        Measured as the share of distinct source pixels among the
        nearest-tap targets.  This bounds the compulsory source
        traffic of a well-blocked implementation: each needed source
        byte is loaded once.
        """
        if self.field is None:
            return 0.6
        return self.field.source_footprint()

    @cached_property
    def gather_lines_per_warp(self) -> float:
        """Mean distinct 128-byte lines per 32 consecutive gathers."""
        if self.field is None:
            return 6.0
        counts = self.field.gather_lines(group=32, line_bytes=128,
                                         pixel_bytes=max(1, int(self.spec.out_bytes)))
        return float(counts.mean()) if counts.size else 0.0

    # ------------------------------------------------------------------
    def frame_flops(self) -> float:
        """Arithmetic per frame (out-of-FOV pixels still pay the fill)."""
        active = self.coverage
        return self.pixels * (self.spec.flops * active + 1.0 * (1.0 - active))

    def frame_out_bytes(self) -> float:
        return self.pixels * self.spec.out_bytes

    def frame_lut_bytes(self) -> float:
        return self.pixels * self.spec.lut_bytes

    def frame_src_bytes(self, reuse: bool = True) -> float:
        """Source traffic per frame.

        ``reuse=True`` gives the compulsory-traffic bound (each needed
        source byte once); ``False`` the no-cache bound (every tap goes
        to memory).
        """
        per_px = self.spec.src_bytes / self.spec.taps  # bytes per tap
        if reuse:
            return self.src_width * self.src_height * per_px * self.source_footprint
        return self.pixels * self.spec.src_bytes * self.coverage


@dataclass
class PerfReport:
    """Estimated execution profile of one workload on one platform."""

    platform: str
    workload: Workload
    frame_ns: int
    breakdown: Breakdown = field(default_factory=Breakdown)
    bottleneck: str = ""
    notes: dict = field(default_factory=dict)

    @property
    def fps(self) -> float:
        return 1e9 / self.frame_ns if self.frame_ns > 0 else float("inf")

    @property
    def mpixels_per_s(self) -> float:
        return self.workload.pixels * self.fps / 1e6

    def speedup_over(self, other: "PerfReport") -> float:
        """How many times faster this report is than ``other``."""
        if self.frame_ns <= 0:
            return float("inf")
        return other.frame_ns / self.frame_ns


class PlatformModel(ABC):
    """A hardware platform that can estimate the correction kernel."""

    #: display name, set by subclasses
    name: str = "abstract"

    @abstractmethod
    def estimate_frame(self, workload: Workload) -> PerfReport:
        """Estimate one frame's execution (deterministic)."""

    @property
    @abstractmethod
    def peak_gflops(self) -> float:
        """Peak single-precision arithmetic throughput."""

    @property
    @abstractmethod
    def mem_bw_gbps(self) -> float:
        """Peak sustained memory bandwidth (GB/s)."""

    def describe(self) -> dict:
        """Characteristics row for the T1 platform table."""
        return {
            "platform": self.name,
            "peak_gflops": round(self.peak_gflops, 1),
            "mem_bw_gbps": round(self.mem_bw_gbps, 1),
        }
