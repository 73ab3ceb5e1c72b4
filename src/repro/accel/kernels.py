"""Operation/byte cost descriptors for the correction kernel variants.

Every platform model prices the same work; this module is the single
place where "what does one output pixel cost?" is defined, so the
cross-platform comparison (F4) is apples-to-apples.

Costs follow the kernel structure:

on-the-fly (``otf``) mode
    per pixel: normalize coordinates, ``atan2``-family trigonometry for
    the lens model, sin/cos for the azimuth, plus interpolation
    arithmetic; reads only the source taps.

look-up-table (``lut``) mode
    per pixel: stream one LUT entry (precomputed taps + weights) and
    run only the interpolation arithmetic.

Transcendental functions are priced in flop *equivalents*
(``TRANSCENDENTAL_FLOPS`` each) — the convention used when placing a
kernel on a roofline built from peak FMA throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlatformError
from ..core.interpolation import METHODS, footprint

__all__ = ["KernelSpec", "kernel_spec", "TRANSCENDENTAL_FLOPS", "MODES"]

#: flop-equivalents charged per transcendental evaluation (atan, sin, ...)
TRANSCENDENTAL_FLOPS = 20.0

#: execution modes
MODES = ("otf", "lut")

# Interpolation arithmetic per pixel (multiply+add counted separately).
_INTERP_FLOPS = {
    "nearest": 1.0,        # the rounding/select
    "bilinear": 11.0,      # 3 lerps (2 flops each) + fraction setup
    "bicubic": 68.0,       # 16 MACs (32) + two 4-tap weight evaluations (36)
}

# Tap/weight computation done on the fly (already included in LUT mode's
# table): floor/frac extraction per axis, weight products.
_TAP_SETUP_FLOPS = {
    "nearest": 2.0,
    "bilinear": 8.0,
    "bicubic": 12.0,
}

# Map evaluation on the fly: normalize (4), hypot (3), lens-model inverse
# trig (1 transcendental), azimuth sin+cos (2 transcendentals), scale and
# centre add (6).
_MAP_FLOPS = 13.0 + 3.0 * TRANSCENDENTAL_FLOPS


@dataclass(frozen=True)
class KernelSpec:
    """Per-output-pixel cost of one kernel configuration.

    Attributes
    ----------
    method, mode:
        Interpolation kind and execution mode.
    flops:
        Arithmetic per output pixel (flop equivalents).
    taps:
        Scattered source reads per output pixel.
    src_bytes:
        Bytes fetched from the source frame per output pixel assuming
        no reuse (``taps * pixel_bytes``); platform models scale this
        by their measured/estimated locality.
    lut_bytes:
        Streamed LUT bytes per output pixel (0 in ``otf`` mode).
    out_bytes:
        Bytes written per output pixel.
    """

    method: str
    mode: str
    flops: float
    taps: int
    src_bytes: float
    lut_bytes: float
    out_bytes: float

    @property
    def bytes_total(self) -> float:
        """All DRAM-visible bytes per output pixel (no-reuse bound)."""
        return self.src_bytes + self.lut_bytes + self.out_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per DRAM byte (no-reuse bound) — the roofline x-axis."""
        return self.flops / self.bytes_total if self.bytes_total > 0 else float("inf")


def kernel_spec(method: str = "bilinear", mode: str = "lut",
                pixel_bytes: int = 1, lut_entry_bytes: float | None = None) -> KernelSpec:
    """Build the cost descriptor for one kernel configuration.

    Parameters
    ----------
    method:
        ``nearest`` / ``bilinear`` / ``bicubic``.
    mode:
        ``otf`` (recompute map per frame) or ``lut`` (precomputed
        table).
    pixel_bytes:
        Bytes per pixel per plane (1 for 8-bit gray/planar YUV,
        3 for packed RGB).
    lut_entry_bytes:
        Table bytes per output pixel; defaults to the *deployed*
        compact layout (int32 base offset + quantized per-axis
        fractions: 4 B nearest, 8 B bilinear, 12 B bicubic), from
        which tap weights are derived in-register.  Pass
        ``RemapLUT(...).entry_bytes()`` (any tier) to price the explicit
        tap/weight layouts this library materializes in host memory.
    """
    if method not in METHODS:
        raise PlatformError(f"unknown method {method!r}; known: {METHODS}")
    if mode not in MODES:
        raise PlatformError(f"unknown mode {mode!r}; known: {MODES}")
    if pixel_bytes <= 0:
        raise PlatformError(f"pixel_bytes must be positive, got {pixel_bytes}")
    taps = footprint(method)
    if mode == "otf":
        flops = _MAP_FLOPS + _TAP_SETUP_FLOPS[method] + _INTERP_FLOPS[method]
        lut_bytes = 0.0
    else:
        flops = _INTERP_FLOPS[method]
        if lut_entry_bytes is None:
            # int32 base offset (+ per-axis quantized fractions for the
            # interpolating kernels; weights rebuilt in-register).
            lut_entry_bytes = {"nearest": 4, "bilinear": 8, "bicubic": 12}[method]
        lut_bytes = float(lut_entry_bytes)
    if lut_entry_bytes is not None and lut_entry_bytes < 0:
        raise PlatformError(f"lut_entry_bytes must be >= 0, got {lut_entry_bytes}")
    return KernelSpec(
        method=method,
        mode=mode,
        flops=flops,
        taps=taps,
        src_bytes=float(taps * pixel_bytes),
        lut_bytes=lut_bytes if mode == "lut" else 0.0,
        out_bytes=float(pixel_bytes),
    )
