"""Fixed-point weight quantization — the embedded/accelerator tables.

Hardware accelerators (and the SPE/SIMD paths of the target paper's
study) do not interpolate in float: weights are quantized to ``Q``
fractional bits, accumulation happens in wide integers, and the result
is rounded with a single shift.  Quantization shrinks the LUT (less DMA
traffic, more tiles per local store) at the cost of bounded rounding
error.

The arithmetic itself is a shipping execution path:
``RemapLUT(field).with_tier("fixed", frac_bits=bits)`` (see
:mod:`repro.core.kernel_tiers`) quantizes its weights with
:func:`quantize_weights` and runs the Q-format block engine, and the
``compiled`` tier runs the same arithmetic jitted.  This module keeps
the quantizer, its error bound and the deployed table size
(:func:`packed_entry_bytes`) that the F12 precision sweep reports.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpolationError

__all__ = ["quantize_weights", "max_abs_weight_error", "packed_entry_bytes"]


def quantize_weights(weights, frac_bits: int):
    """Quantize interpolation weights to signed fixed point.

    Weights are scaled by ``2**frac_bits``, rounded to nearest, and
    each pixel's tap set is re-balanced so the quantized weights still
    sum to exactly ``2**frac_bits`` (otherwise flat image regions would
    drift in brightness).  The correction is applied to the largest tap
    of each pixel, which minimizes relative error.

    Parameters
    ----------
    weights:
        ``(N, taps)`` float weights, rows summing to ~1 (all-zero rows
        — masked-out pixels — are preserved as zero).
    frac_bits:
        Fractional bits, 1..14 (int16 storage with headroom for the
        bicubic overshoot range [-0.0625, 1.0625]).

    Returns
    -------
    ndarray of int16, shape ``(N, taps)``.
    """
    if not 1 <= frac_bits <= 14:
        raise InterpolationError(f"frac_bits must be 1..14, got {frac_bits}")
    weights = np.asarray(weights, dtype=np.float64)
    scale = 1 << frac_bits
    q = np.rint(weights * scale).astype(np.int32)
    target = np.rint(weights.sum(axis=1) * scale).astype(np.int32)  # 0 or scale
    deficit = target - q.sum(axis=1)
    # push the rounding residue onto each row's largest-magnitude tap
    rows = np.arange(q.shape[0])
    top = np.abs(q).argmax(axis=1)
    q[rows, top] += deficit
    return q.astype(np.int16)


def max_abs_weight_error(weights, frac_bits: int) -> float:
    """Largest absolute weight error introduced by quantization."""
    q = quantize_weights(weights, frac_bits).astype(np.float64) / (1 << frac_bits)
    return float(np.abs(q - np.asarray(weights, dtype=np.float64)).max())


def packed_entry_bytes(method: str, frac_bits: int) -> float:
    """Bytes per output pixel of the *deployed* packed LUT layout.

    Hardware tables store one base offset (32 bits) plus the two
    per-axis fractions at ``frac_bits`` each; tap offsets and the full
    weight set are reconstructed on-chip.  Bicubic needs the same
    fractions (weights are polynomial in them); nearest needs no
    fractions at all.
    """
    frac_fields = 0 if method == "nearest" else 2
    return (32 + frac_fields * int(frac_bits)) / 8.0
