"""Shared-memory segment plumbing for the process fleet.

The fragile parts of :mod:`~repro.serve.broker`'s persistent-worker
fleet (which also runs the single-stream ring and, at ``depth=1``, the
per-frame fork-join baseline) live here:

- **publication** of numpy arrays and whole LUT table sets into named
  POSIX shared-memory segments (:func:`share_array`,
  :class:`SharedTables`, :class:`FrameSegments`);
- **attachment** from worker processes (:func:`attach_segment`,
  :func:`attach_tables`);
- **lifecycle hardening**: every parent-owned segment group is wired to
  a :func:`weakref.finalize` finalizer, which Python also runs at
  interpreter exit (atexit), so segments are unlinked even when a
  broker is dropped without ``close()`` or a worker crashes mid-run —
  no ``resource_tracker`` leak warnings survive either event;
- the worker-side **telemetry bootstrap/drain** pair
  (:func:`init_worker_telemetry`, :func:`worker_delta`) that lets each
  child keep a private registry and ship pure deltas back over the
  result channel.

Resource-tracker model: both ``fork`` and ``spawn`` children inherit
the parent's tracker process (spawn passes the tracker fd through its
preparation data), so a worker's attach-time registration deduplicates
into the same name set the parent's create-time registration lives in.
The parent's finalizer is therefore the single owner of the unlink —
workers must *never* unregister (that would strip the shared entry and
make the parent's unlink race the tracker), and with the finalizer in
place the tracker's shutdown sweep finds nothing to warn about even
after a crashed worker or a broker dropped without ``close()``.

A ``fork`` child inherits the tracker's lock in whatever state another
parent thread left it (a feeder or collector thread may be registering
a segment at that moment), and a lock inherited held would block the
child's first attach for good; :func:`_reset_tracker_lock` gives every
forked child a fresh one.
"""

from __future__ import annotations

import os
import threading
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.kernel_tiers import DEFAULT_FRAC_BITS
from ..core.remap import RemapLUT
from ..obs.telemetry import (Telemetry, clear_scope, get_telemetry,
                             set_telemetry)

__all__ = [
    "share_array",
    "attach_segment",
    "release_segments",
    "ensure_resource_tracker",
    "FrameSegments",
    "attach_slot",
    "SharedTables",
    "attach_tables",
    "init_worker_telemetry",
    "worker_delta",
]

def ensure_resource_tracker() -> None:
    """Start the resource-tracker process now (idempotent).

    Engines that fork workers *before* creating any shared segment
    (the serve broker admits sessions after its fleet is up) must force
    the tracker into existence first — otherwise each child spawns its
    own tracker on first attach and warns at exit about "leaked"
    segments the parent already unlinked.
    """
    try:
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platform without the tracker
        pass


def _reset_tracker_lock() -> None:
    """In a forked child: replace the inherited tracker lock.

    Only the forking thread survives ``fork``, so a lock another parent
    thread held at that moment can never be released in the child.  The
    replacement has the lock's own type (``Lock`` before Python 3.11,
    ``RLock`` since).
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if lock is not None:
        tracker._lock = (threading.RLock()
                         if isinstance(lock, type(threading.RLock()))
                         else threading.Lock())


os.register_at_fork(after_in_child=_reset_tracker_lock)


# ----------------------------------------------------------------------
# worker-side telemetry bootstrap
# ----------------------------------------------------------------------
def init_worker_telemetry(enabled: bool) -> None:
    """Give this worker its own registry (fork *and* spawn safe).

    The worker registry starts empty and is drained after every work
    unit, so each result carries a pure counter/histogram delta that
    the parent folds in with
    :meth:`~repro.obs.telemetry.Telemetry.merge` — no shared state, no
    locks across processes.  A forked worker also inherits the parent's
    :func:`~repro.obs.telemetry.scoped` registry; that override is
    cleared, else the first delta would ship the parent's own records
    back to it.
    """
    clear_scope()
    if enabled:
        set_telemetry(Telemetry())


def worker_delta():
    """Drain this worker's registry: the delta shipped with a result."""
    tel = get_telemetry()
    return tel.drain() if tel.enabled else None


# ----------------------------------------------------------------------
# segment creation / attachment
# ----------------------------------------------------------------------
def share_array(arr):
    """Copy ``arr`` into a fresh named segment; returns (shm, view)."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, view


def attach_segment(name: str):
    """Attach to an existing named segment from a worker process.

    The attach-time registration lands in the parent's inherited
    resource tracker, where it deduplicates against the create-time
    entry (the tracker's cache is a name set).  The parent's finalizer
    owns the unlink; workers only ever ``close()`` their mapping.
    """
    return shared_memory.SharedMemory(name=name)


def release_segments(shms) -> None:
    """Close + unlink segments, tolerating repeats and races.

    Used as the finalizer callback for every parent-owned segment
    group; safe to run from ``close()``, from GC, and from atexit, in
    any order (``unlink`` of an already-unlinked segment is ignored).
    """
    for shm in shms:
        try:
            shm.close()
        except Exception:  # pragma: no cover - buffer already released
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - platform quirks
            pass


class _SegmentGroup:
    """A set of parent-owned segments with a crash-proof finalizer."""

    def __init__(self, shms):
        self._shms = list(shms)
        self._finalizer = weakref.finalize(self, release_segments, self._shms)

    @property
    def released(self) -> bool:
        return not self._finalizer.alive

    def release(self) -> None:
        """Unlink now (idempotent; also runs via GC/atexit otherwise)."""
        self._finalizer()


def _plane_views(buf, plane_shapes, dtype):
    """Carve per-plane views out of one packed segment buffer."""
    views = []
    offset = 0
    for shape in plane_shapes:
        views.append(np.ndarray(tuple(shape), dtype=dtype, buffer=buf,
                                offset=offset))
        offset += int(np.prod(shape)) * dtype.itemsize
    return tuple(views)


def _packed_segment(plane_shapes, dtype):
    nbytes = sum(int(np.prod(s)) for s in plane_shapes) * dtype.itemsize
    return shared_memory.SharedMemory(create=True, size=max(1, nbytes))


class FrameSegments(_SegmentGroup):
    """One frame slot: a source + destination shared buffer pair.

    All of a frame's planes are packed into **one** shared-memory
    allocation per side, laid out back to back in plane order (see
    :data:`~repro.video.pixfmt.PIXFMTS`) — one segment pair per slot
    whatever the pixel format, with per-plane views carved out at fixed
    offsets.  A packed RGB/gray frame is a one-plane slot.  Workers
    address ``(slot, plane)`` pairs, so two workers can gather the Y
    band of frame *N* while a third finishes the chroma of frame *N-1*.
    """

    def __init__(self, plane_shapes, frame_dtype, out_plane_shapes):
        frame_dtype = np.dtype(frame_dtype)
        self.plane_shapes = tuple(tuple(s) for s in plane_shapes)
        self.out_plane_shapes = tuple(tuple(s) for s in out_plane_shapes)
        self.dtype = frame_dtype
        self.src_shm = _packed_segment(self.plane_shapes, frame_dtype)
        self.dst_shm = _packed_segment(self.out_plane_shapes, frame_dtype)
        self.src_views = _plane_views(self.src_shm.buf, self.plane_shapes,
                                      frame_dtype)
        self.dst_views = _plane_views(self.dst_shm.buf, self.out_plane_shapes,
                                      frame_dtype)
        super().__init__([self.src_shm, self.dst_shm])

    @property
    def spec(self):
        """Picklable attach recipe: ``(src_name, plane_shapes, dst_name,
        out_plane_shapes, dtype_str)`` — what a worker needs to map this
        slot (see :func:`attach_slot`)."""
        return (self.src_shm.name, self.plane_shapes, self.dst_shm.name,
                self.out_plane_shapes, self.dtype.str)

    def release(self):
        self.src_views = None
        self.dst_views = None
        super().release()


def attach_slot(spec):
    """Worker side of :attr:`FrameSegments.spec`: map one frame slot.

    Returns ``(segments, src_views, dst_views)`` with one view per
    plane on each side; the caller keeps ``segments`` alive (and
    ``close()``\\ s them when done) — the parent owns the unlink.
    """
    src_name, plane_shapes, dst_name, out_plane_shapes, dtype_str = spec
    dtype = np.dtype(dtype_str)
    src_shm = attach_segment(src_name)
    dst_shm = attach_segment(dst_name)
    src_views = _plane_views(src_shm.buf, plane_shapes, dtype)
    dst_views = _plane_views(dst_shm.buf, out_plane_shapes, dtype)
    return [src_shm, dst_shm], src_views, dst_views


def _lut_meta(lut: RemapLUT) -> dict:
    return {
        "out_shape": lut.out_shape,
        "src_shape": lut.src_shape,
        "method": lut.method,
        "border": lut.border,
        "fill": lut.fill,
        "tier": lut.tier,
        "frac_bits": lut.frac_bits,
    }


class SharedTables(_SegmentGroup):
    """The tables a set of LUTs' kernel tier runs, published once.

    Lean by design: only what a worker executes is published —
    ``indices``, ``mask`` and the tier's one weight table (``wtab`` on
    the numpy tier, ``qwtab`` on the Q tiers; see
    :meth:`~repro.core.remap.RemapLUT.kernel_tables`).  The compact
    ``fracs`` stay in the parent LUT and the disk cache tier, and the
    weight table is derived for publication without being cached on the
    parent (often a shared :class:`~repro.core.lutcache.LUTCache`
    entry).  ``nbytes`` totals the published arrays.

    Each of ``luts`` — a pixel format's *distinct* LUTs, e.g. luma and
    chroma for the 4:2:0 formats (see
    :func:`~repro.video.pixfmt.plane_luts`) — is published once:
    ``spec[i]`` maps LUT ``i``'s table keys to ``(segment_name, shape,
    dtype_str)`` triples and ``meta[i]`` carries its scalar parameters,
    everything a worker needs to rebuild the zero-copy LUT tuple with
    :func:`attach_tables`.  Which plane reads which LUT is the
    session's business, not the publication's.  :attr:`name` names the
    publication: unique while it exists, so workers may cache their
    attachment under it.
    """

    def __init__(self, *luts: RemapLUT):
        shms = []
        spec = []
        self.nbytes = 0
        for lut in luts:
            tables = {}
            for key, arr in lut.kernel_tables().items():
                shm, _ = share_array(arr)
                shms.append(shm)
                tables[key] = (shm.name, tuple(arr.shape), arr.dtype.str)
                self.nbytes += arr.nbytes
            spec.append(tables)
        self.spec = tuple(spec)
        self.meta = tuple(_lut_meta(lut) for lut in luts)
        super().__init__(shms)

    @property
    def name(self) -> str:
        """The publication's name: its first index segment's."""
        return self.spec[0]["indices"][0]


def attach_tables(spec, meta):
    """Worker side of :class:`SharedTables`: rebuild the zero-copy LUTs.

    Returns ``(segments, luts)`` with one LUT per published table set;
    the caller must keep ``segments`` alive as long as the LUTs are
    used.
    """
    segments = []
    luts = []
    for tables, lut_meta in zip(spec, meta):
        arrays = {}
        for key, (name, shape, dtype_str) in tables.items():
            shm = attach_segment(name)
            segments.append(shm)
            arrays[key] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                                     buffer=shm.buf)
        luts.append(RemapLUT.from_tables(
            arrays["indices"], arrays.get("fracs"), arrays.get("mask"),
            out_shape=lut_meta["out_shape"], src_shape=lut_meta["src_shape"],
            method=lut_meta["method"], border=lut_meta["border"],
            fill=lut_meta["fill"], weight_table=arrays.get("wtab"),
            tier=lut_meta.get("tier", "numpy"),
            frac_bits=lut_meta.get("frac_bits", DEFAULT_FRAC_BITS),
            qweight_table=arrays.get("qwtab")))
    return segments, tuple(luts)
