"""Compiled fixed-point remap kernels (Numba, optional dependency).

This module is the ``compiled`` rung of the kernel-tier ladder
(:mod:`repro.core.kernel_tiers`): a Numba ``njit(parallel=True)``
gather-multiply-accumulate over one tile's ``int32`` tap offsets
(expanded from the LUT's per-pixel base offsets by
:meth:`~repro.core.remap.RemapLUT.tap_offsets`) and its Q-format
``int16`` quantized weights — that finally
leaves numpy's per-ufunc dispatch overhead behind.  The arithmetic is
the ``fixed`` tier's Q-format model made fast: wide-integer accumulate, ``+half`` then a single arithmetic shift,
clip, store.

Numba is strictly optional (the ``repro[speed]`` extra).  Nothing here
imports it at module import time; :func:`numba_available` probes once
and kernel compilation happens lazily on first use, so environments
without numba pay nothing and fall back to the numpy tiers.

Dataflow notes (why the loop looks the way it does):

- **Tile-blocked gather ordering** — the output block is walked in
  ``TILE_H x TILE_W`` tiles rather than raster order, the paper's F6
  tile study applied to the host kernel: a backward map is locally
  smooth, so one output tile gathers from a compact source bounding
  box that stays resident in L1/L2 across the tile's taps instead of
  being evicted between distant rows.  Tiles are independent, which is
  exactly what ``prange`` wants.
- The quantized weight table arrives transposed ``(taps, N)`` so that
  for a fixed tap ``k`` consecutive pixels read consecutive weights —
  four (or sixteen) forward streams instead of one strided walk.
- Accumulation is ``int64`` scalar: wide enough for 16 bicubic taps of
  ``uint16`` pixels at Q14 with headroom, and free on 64-bit hosts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "numba_available",
    "numba_version",
    "compiled_apply_block",
    "TILE_H",
    "TILE_W",
]

#: output-tile geometry for the blocked gather walk.  64x64 output
#: pixels pull (for a typical 0.5-zoom correction map) a source bbox of
#: a few hundred cache lines — comfortably L2-resident per tile.
TILE_H = 64
TILE_W = 64

# one-shot probe state: None = not yet probed, else (module | False)
_NUMBA = None
_KERNEL = None


def _probe():
    global _NUMBA
    if _NUMBA is None:
        try:
            import numba  # noqa: F401 - availability probe
            _NUMBA = numba
        except Exception:  # pragma: no cover - import error path
            _NUMBA = False
    return _NUMBA


def numba_available() -> bool:
    """True when the optional numba dependency imports cleanly."""
    return bool(_probe())


def numba_version():
    """The installed numba version string, or ``None``."""
    mod = _probe()
    return getattr(mod, "__version__", None) if mod else None


def _build_kernel():
    """Compile the generic Q-format gather kernel (first use only).

    One jitted function covers nearest/bilinear/bicubic (1/4/16 taps),
    any integer frame dtype and any channel count; numba specializes
    per dtype signature on first call.
    """
    global _KERNEL
    if _KERNEL is not None:
        return _KERNEL
    from numba import njit, prange

    @njit(parallel=True, nogil=True, fastmath=False)
    def _apply_q(flat, idx, qw, mask, fill, shift, lo, hi,
                 out, width, tile_h, tile_w):
        n = idx.shape[0]
        taps = idx.shape[1]
        channels = flat.shape[1]
        rows = n // width
        tiles_x = (width + tile_w - 1) // tile_w
        tiles_y = (rows + tile_h - 1) // tile_h
        half = np.int64(1) << (shift - 1)
        for t in prange(tiles_y * tiles_x):
            ty = t // tiles_x
            tx = t - ty * tiles_x
            y_end = min((ty + 1) * tile_h, rows)
            x_end = min((tx + 1) * tile_w, width)
            for y in range(ty * tile_h, y_end):
                base = y * width
                for x in range(tx * tile_w, x_end):
                    i = base + x
                    if not mask[i]:
                        for c in range(channels):
                            out[i, c] = fill
                        continue
                    for c in range(channels):
                        acc = np.int64(0)
                        for k in range(taps):
                            acc += (np.int64(flat[idx[i, k], c])
                                    * np.int64(qw[k, i]))
                        v = (acc + half) >> shift
                        if v < lo:
                            v = lo
                        elif v > hi:
                            v = hi
                        out[i, c] = v
        return out

    _KERNEL = _apply_q
    return _KERNEL


def compiled_apply_block(flat, idx, qw_t, mask, fill, frac_bits, lo, hi,
                         out_flat, width):
    """Run the compiled Q-format kernel over one output block.

    Parameters
    ----------
    flat:
        Source frame flattened to ``(H*W, channels)``, integer dtype,
        C-contiguous (gathered raw — no float or wide-int conversion
        pass over the source).
    idx:
        ``(n, taps)`` int32 flat tap offsets for the block.
    qw_t:
        ``(taps, n)`` int16 quantized weights (Q ``frac_bits``).
    mask:
        ``(n,)`` bool validity mask.
    fill:
        Integer fill value for masked-out pixels.
    frac_bits:
        Fractional bits of the Q format (the final shift).
    lo, hi:
        Output dtype clip range.
    out_flat:
        ``(n, channels)`` destination, same dtype as the frame.
    width:
        Output width in pixels (``n`` must be a whole number of rows;
        the tile walk needs the 2-D geometry back).

    Raises
    ------
    RuntimeError
        If numba is unavailable — callers are expected to have checked
        :func:`numba_available` (tier resolution does).
    """
    if not numba_available():  # pragma: no cover - guarded by tier resolution
        raise RuntimeError("compiled kernel tier requested but numba is not importable")
    kernel = _build_kernel()
    kernel(flat, idx, qw_t, mask,
           np.int64(fill), np.int64(frac_bits), np.int64(lo), np.int64(hi),
           out_flat, np.int64(width), np.int64(TILE_H), np.int64(TILE_W))
    return out_flat
