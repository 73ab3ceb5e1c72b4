"""The kernel-tier ladder: numpy → fixed-point → compiled.

The remap hot path exists at three rungs, all executing the *same*
compact LUT tables (one int32 base offset per pixel, a patch list, and
per-axis fractions or the Q weights derived from them):

``numpy``
    The fused float gather-multiply-accumulate of
    :meth:`repro.core.remap.RemapLUT.apply` — always available, full
    float32 precision, one numpy ufunc dispatch per tap and tile, on
    the same tile-blocked row walk as ``fixed``.
``fixed``
    Q-format integer arithmetic (quantized ``int16`` weights,
    wide-integer accumulate, single-shift round; weights from
    :func:`~repro.core.fixedpoint.quantize_weights`) — the
    accelerator arithmetic as a shipping execution path, vectorised with pooled scratch and a
    tile-blocked row walk so the per-tile accumulator and source
    working set stay cache-resident.  Bit-faithful to what a DSP/SPE
    kernel computes; integer frames only.
``compiled``
    The same Q-format arithmetic jitted by Numba
    (:mod:`repro.accel.compiled`): ``njit(parallel=True)`` over 2-D
    output tiles, no per-tap ufunc dispatch, no float conversion pass
    over the source.  Requires the optional ``repro[speed]`` extra.

Selection rules
---------------
:func:`resolve_tier` maps a user request to an executable tier:

- ``auto`` picks ``compiled`` when numba imports, else ``numpy``
  (the pure-numpy ``fixed`` tier trades precision for accelerator
  fidelity, not speed, so ``auto`` never picks it silently);
- an explicit ``compiled`` request without numba falls back to
  ``numpy`` and logs a one-time warning (never raises: an uninstalled
  optional extra must not take down a pipeline);
- ``numpy``/``fixed`` always resolve to themselves.

Q tiers operate on integer frames; float frames silently use the
``numpy`` path per-frame (full precision is the only sensible meaning
of a float pipeline).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..errors import KernelTierError

__all__ = [
    "KERNEL_TIERS",
    "KERNEL_CHOICES",
    "DEFAULT_FRAC_BITS",
    "DEFAULT_TILE_ROWS",
    "kernel_tier",
    "available_tiers",
    "resolve_tier",
    "numba_available",
    "numba_version",
    "gather_tap",
    "store_planar",
    "q_apply_block",
]

#: executable tiers, in ladder order (slowest/most-general first).
KERNEL_TIERS = ("numpy", "fixed", "compiled")

#: what callers may request (``auto`` resolves to the best available).
KERNEL_CHOICES = ("auto",) + KERNEL_TIERS

#: Q-format precision of the shipping fixed/compiled tiers.  Q12 keeps
#: the quantization error far below the uint8 LSB (PSNR >= 40 dB vs the
#: float oracle, enforced by the regression gate) while leaving int16
#: headroom for the bicubic overshoot range.
DEFAULT_FRAC_BITS = 12

#: row-block height of the ``numpy`` and ``fixed`` tiers' tile walk:
#: blocks of this many output rows are processed per gather pass so
#: accumulator, scratch and the block's source bounding box stay
#: cache-resident (the host-kernel application of the paper's F6 tile
#: study).
DEFAULT_TILE_ROWS = 64

_warned_fallback = False


def numba_available() -> bool:
    """True when the optional numba dependency imports cleanly."""
    from ..accel import compiled
    return compiled.numba_available()


def numba_version():
    """Installed numba version string, or ``None``."""
    from ..accel import compiled
    return compiled.numba_version()


def available_tiers() -> tuple:
    """The tiers executable in this environment, ladder order."""
    if numba_available():
        return KERNEL_TIERS
    return KERNEL_TIERS[:2]


def kernel_tier() -> str:
    """Capability probe: the best tier available right now.

    ``compiled`` when numba imports, else ``numpy`` — the same answer
    ``resolve_tier("auto")`` gives, exposed as a probe so callers and
    benchmarks can report which path a host will run.
    """
    return "compiled" if numba_available() else "numpy"


def resolve_tier(requested: str, *, quiet: bool = False) -> str:
    """Map a requested tier to one executable here (see module docs).

    Parameters
    ----------
    requested:
        One of :data:`KERNEL_CHOICES`.
    quiet:
        Suppress the one-time compiled→numpy fallback warning (used by
        probes that only ask hypothetically).
    """
    global _warned_fallback
    if requested not in KERNEL_CHOICES:
        raise KernelTierError(
            f"unknown kernel tier {requested!r}; known: {KERNEL_CHOICES}")
    if requested == "auto":
        return kernel_tier()
    if requested == "compiled" and not numba_available():
        if not _warned_fallback and not quiet:
            _warned_fallback = True
            from ..obs.logsetup import get_logger
            get_logger(__name__).warning(
                "kernel tier 'compiled' requested but numba is not "
                "installed; falling back to the numpy tier "
                "(pip install repro[speed] to enable it)")
        return "numpy"
    return requested


# ----------------------------------------------------------------------
# the numpy Q-format block engine
# ----------------------------------------------------------------------
def gather_tap(src, flat, base, patch, k, raw):
    """Gather tap ``k`` of one block's pixels into ``raw``, channel by
    channel.

    The block is channel-planar: ``raw[c]`` holds channel ``c`` of every
    pixel, so each gather is a 1-D ``take`` over the frame's flat,
    contiguous samples and the arithmetic that follows runs along the
    pixel axis.  ``src[c]`` is the flat samples viewed from element
    ``step_k * C + c`` (``step_k`` tap ``k``'s stencil step), so
    ``src[c].take(base)`` with ``base`` = tap-0 offset times ``C`` reads
    channel ``c`` of ``flat[tap-0 offset + step_k]`` for every regular
    pixel; the clipped take keeps the other pixels' reads in bounds.
    ``patch`` (``(positions, taps)`` or ``None``) then overwrites the
    block's irregular pixels with their stored tap ``k``.

    Parameters
    ----------
    src:
        Tap ``k``'s per-channel views of the flat samples, one 1-D
        contiguous array per channel.
    flat:
        ``(H*W, channels)`` source samples at their own dtype, a view of
        the same contiguous memory.
    base:
        ``(n,)`` tap-0 offsets of the block times the channel count,
        widened to ``intp`` once so no tap's take converts them again.
    patch:
        The block's patch rows: positions within the block and their
        ``(p, taps)`` int32 offsets, or ``None``.
    k:
        Tap index.
    raw:
        ``(channels, n)`` planar gather buffer of ``flat``'s dtype.
    """
    for c, src_c in enumerate(src):
        src_c.take(base, out=raw[c], mode="clip")
    if patch is not None:
        pos, taps = patch
        raw[:, pos] = flat[taps[:, k]].T


def store_planar(acc, dst):
    """Cast one block's planar result ``acc`` (``(channels, n)``) into
    its destination rows ``dst`` (``(rows, W)`` or ``(rows, W, C)``
    with ``rows * W == n``, any strides).

    One casting copy per channel, each running along the block's pixels
    with the destination's channel stride: a single transposed copy of
    the whole block measured about 3x slower on packed RGB, since its
    inner loop spans one pixel's few channels.
    """
    planes = acc.reshape((acc.shape[0],) + dst.shape[:2])
    dst = dst.reshape(dst.shape[:2] + (-1,))
    for c, plane in enumerate(planes):
        np.copyto(dst[..., c], plane, casting="unsafe")


_NO_SPAN = nullcontext()


def q_apply_block(srcs, flat, base, patch, qw_t, frac_bits, lo, hi, invalid,
                  fill, out, acc, product, raw, tel=None):
    """Fixed-point gather-MAC over one output block (numpy tier).

    The integer twin of ``RemapLUT._accumulate`` + store epilogue, on
    the same channel-planar block: gather each tap's raw samples into
    ``raw`` (:func:`gather_tap`), widen them in the multiply by its
    quantized weight row along the pixel axis, accumulate in ``acc``
    (int32 for 1-byte frames, int64 wider), then round with ``+half``
    and a single arithmetic shift — the integer arithmetic a DSP or SPE
    fixed-point kernel performs — and store through
    :func:`store_planar`.

    Parameters
    ----------
    srcs:
        Each tap's per-channel views of the flat samples, tap order
        (see :func:`gather_tap`).
    flat:
        ``(H*W, channels)`` source samples at their own dtype (a view of
        the frame; nothing is converted ahead of the gather).
    base, patch:
        The block's ``intp`` tap-0 sample offsets and patch rows (see
        :func:`gather_tap`).
    qw_t:
        ``(taps, N_block)`` int16 quantized weights for this block, or
        ``None`` for nearest: its unit weight makes ``(s << bits) + half
        >> bits`` exactly ``s``, so the multiply and shift are skipped.
    frac_bits:
        Q-format shift.
    lo, hi:
        Output dtype clip range.
    invalid:
        ``(n,)`` bool invalid-pixel mask or ``None``.
    fill:
        Integer fill for invalid pixels (applied after clip, matching
        the float epilogue).
    out:
        The block's destination rows (output dtype): ``n * channels``
        samples in any shape and strides, e.g. ``(rows, W_out, C)``.
    acc, product:
        Pooled ``(channels, n)`` accumulator-dtype work buffers.
    raw:
        Pooled ``(channels, n)`` gather buffer of ``flat``'s dtype.
    tel:
        A stage-detail telemetry registry, or ``None``: when present
        each tap's gather and multiply-accumulate and the store are
        wrapped in ``remap.gather`` / ``remap.interpolate`` /
        ``remap.store`` spans, as on the float tier.
    """
    def span(name):
        return _NO_SPAN if tel is None else tel.span(name, cat="kernel")

    for k, src in enumerate(srcs):
        with span("remap.gather"):
            gather_tap(src, flat, base, patch, k, raw)
        with span("remap.interpolate"):
            if qw_t is None:
                np.copyto(acc, raw)
            else:
                # dtype= forces the wide loop: numpy's own uint8 x int16
                # loop is int16, where 255 * 16384 wraps to -16384
                np.multiply(raw, qw_t[k], out=acc if k == 0 else product,
                            dtype=acc.dtype)
                if k:
                    np.add(acc, product, out=acc)
    with span("remap.store"):
        if qw_t is not None:
            np.add(acc, acc.dtype.type(1 << (frac_bits - 1)), out=acc)
            np.right_shift(acc, frac_bits, out=acc)
        np.clip(acc, lo, hi, out=acc)
        if invalid is not None:
            np.copyto(acc, fill, where=invalid)
        store_planar(acc, out)
    return out
