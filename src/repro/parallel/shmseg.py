"""Shared-memory segment plumbing for the process fleet.

The fragile parts of :mod:`~repro.serve.broker`'s persistent-worker
fleet (which also runs the single-stream ring and, at ``depth=1``, the
per-frame fork-join baseline) live here:

- **publication** of numpy arrays and whole LUT table sets into named
  POSIX shared-memory segments (:func:`share_array`,
  :class:`SharedTables`, :class:`FrameSegments`);
- **attachment** from worker processes (:func:`attach_segment`,
  :func:`attach_tables`, :func:`attach_table_arrays`);
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

A ``fork`` child also maps the parent's *free* C heap: glibc keeps
freed chunks mapped, and each page of it the parent reuses after the
fork is copied on write while the child keeps the old copy for its
life.  :func:`release_free_heap` hands that free heap back to the OS;
the broker calls it just before its fleet forks and again after the
fleet is gone, and a worker after its share of a table build, whose
band temporaries :func:`keep_free_heap` keeps on the heap meanwhile.
:func:`private_mb` reads the memory one process holds for the broker's
per-process split.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.remap import RemapLUT, TableLayout
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
    "attach_table_arrays",
    "init_worker_telemetry",
    "worker_delta",
    "release_free_heap",
    "keep_free_heap",
    "private_mb",
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
# process memory
# ----------------------------------------------------------------------
@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where libc has no such call."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # macOS, musl, Windows
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


#: glibc ``mallopt`` parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_free_heap() -> bool:
    """Make this process's freed heap wait for
    :func:`release_free_heap` (glibc ``mallopt``).

    Blocks up to 32 MiB come from the heap rather than from a fresh
    ``mmap``, and ``free`` no longer trims the heap top.  A fleet
    worker's table build allocates and frees band-sized temporaries
    (a few hundred KB at 2560 px wide) thousands of times; with the
    default 128 KiB thresholds of a fresh process each one was a new
    mapping whose pages faulted in again: ~68k minor faults and
    ~0.12 s of system time for the two workers of one QHD fused NV12
    build, against ~11k faults and ~0.03 s with this call (2-core
    Xeon).  The worker trims once its build is done.  Returns
    ``False`` (and does nothing) where libc has no ``mallopt``.
    """
    if _malloc_trim() is None:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return True


def release_free_heap() -> bool:
    """Return the C heap's free pages to the OS (glibc ``malloc_trim(0)``).

    Live allocations are untouched; only chunks already freed are
    unmapped, so a child forked afterwards cannot inherit them.  A
    call costs about 1 ms, or ~11 ms when it returns 64 MiB (2-core
    Xeon).  Returns ``False`` (and does nothing) where libc has no
    ``malloc_trim``, ``True`` once the trim has run.
    """
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True


def private_mb(pid: int) -> float | None:
    """Memory one process holds for itself, in MB: the proportional
    share of its anonymous and shared-memory pages (``Pss_Anon`` +
    ``Pss_Shmem`` of ``/proc/<pid>/smaps_rollup``).

    ``None`` where that file cannot be read (off Linux, or the process
    is gone).  File-backed pages (library code) are left out.
    """
    kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Pss_Anon:", "Pss_Shmem:")):
                    kb += int(line.split()[1])
    except OSError:
        return None
    return kb * 1024 / 1e6


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
    """Copy ``arr`` into a fresh named segment; returns (shm, view).

    The view keeps a Fortran-ordered ``arr``'s memory order (e.g. a
    LUT's axis-major ``fracs``); anything else is laid out C-ordered.
    """
    arr = np.asarray(arr)
    order = _order(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                      order=order)
    view[...] = arr
    return shm, view


def _order(arr) -> str:
    """``"F"`` for a Fortran- but not C-contiguous array, else ``"C"``."""
    return ("F" if arr.flags.f_contiguous and not arr.flags.c_contiguous
            else "C")


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


class SharedTables(_SegmentGroup):
    """The tables a set of LUTs' kernel tier runs, published once.

    Lean by design: only what a worker executes is published — ``base``,
    ``mask``, the patch list when it is not empty, and what the tier
    derives its weights from: ``fracs`` on the numpy tier (13 B/px
    bilinear, the LUT's own storage), the int16 ``qwtab`` on the Q
    tiers (see :meth:`~repro.core.remap.RemapLUT.kernel_tables`).  A Q
    weight table is derived for publication without being cached on
    the parent (often a shared :class:`~repro.core.lutcache.LUTCache`
    entry).  ``nbytes`` totals the published arrays.

    Each of ``luts`` — a pixel format's *distinct* LUTs, e.g. luma and
    chroma for the 4:2:0 formats (see
    :func:`~repro.video.pixfmt.plane_luts`) — is published once:
    ``spec[i]`` maps LUT ``i``'s table keys to ``(segment_name, shape,
    dtype_str, order)`` tuples and ``meta[i]`` carries its scalar
    parameters (its :class:`~repro.core.remap.TableLayout`), everything
    a worker needs to rebuild the zero-copy LUT tuple with
    :func:`attach_tables`.  Which plane reads which LUT is the
    session's business, not the publication's.  :attr:`name` names the
    publication: unique while it exists, so workers may cache their
    attachment under it.

    :meth:`allocate` publishes tables that are not built yet: their
    segments are sized from the layouts, filled in place by whoever
    builds them (the ring's fleet, :meth:`~repro.video.pixfmt
    .TableRecipe.build_rows`), and the patch lists follow with
    :meth:`add_patch`.
    """

    def __init__(self, *luts: RemapLUT):
        self._start(lut.layout for lut in luts)
        for i, lut in enumerate(luts):
            for key, arr in lut.kernel_tables().items():
                self._add(i, key, *share_array(arr))

    @classmethod
    def allocate(cls, *layouts: TableLayout) -> "SharedTables":
        """Unwritten ``base``, ``mask`` and ``fracs`` or ``qwtab``
        segments for tables of ``layouts``
        (:meth:`~repro.core.remap.TableLayout.kernel_layout`), with no
        patch list yet."""
        self = cls.__new__(cls)
        self._start(layouts)
        for i, layout in enumerate(layouts):
            for key, (shape, dtype, order) in layout.kernel_layout().items():
                nbytes = int(np.prod(shape)) * dtype.itemsize
                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(1, nbytes))
                self._add(i, key, shm, np.ndarray(shape, dtype=dtype,
                                                  buffer=shm.buf, order=order))
        return self

    def _start(self, layouts) -> None:
        layouts = tuple(layouts)
        super().__init__([])
        self.spec = tuple({} for _ in layouts)
        self.meta = tuple(dict(layout._asdict()) for layout in layouts)
        self.nbytes = 0

    def _add(self, i, key, shm, view) -> None:
        self._shms.append(shm)  # the list the finalizer releases
        self.spec[i][key] = (shm.name, tuple(view.shape), view.dtype.str,
                             _order(view))
        self.nbytes += view.nbytes

    def add_patch(self, i: int, pixels, taps) -> None:
        """Publish LUT ``i``'s patch list (none when it is empty)."""
        if len(pixels):
            self._add(i, "patch_pixels", *share_array(pixels))
            self._add(i, "patch_taps", *share_array(taps))

    @property
    def name(self) -> str:
        """The publication's name: its first base-offset segment's."""
        return self.spec[0]["base"][0]


def attach_table_arrays(spec):
    """Map the arrays of every LUT of a :class:`SharedTables` spec.

    Returns ``(segments, arrays)``: ``arrays[i]`` maps LUT ``i``'s
    table keys to writable zero-copy views.  The caller must keep
    ``segments`` alive as long as the views are used.
    """
    segments = []
    arrays = []
    for tables in spec:
        views = {}
        for key, (name, shape, dtype_str, order) in tables.items():
            shm = attach_segment(name)
            segments.append(shm)
            views[key] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                                    buffer=shm.buf, order=order)
        arrays.append(views)
    return segments, arrays


def attach_tables(spec, meta):
    """Worker side of :class:`SharedTables`: rebuild the zero-copy LUTs.

    Returns ``(segments, luts)`` with one LUT per published table set;
    the caller must keep ``segments`` alive as long as the LUTs are
    used.
    """
    segments, arrays = attach_table_arrays(spec)
    luts = []
    for tables, lut_meta in zip(arrays, meta):
        patch = (tables["patch_pixels"], tables["patch_taps"]
                 ) if "patch_pixels" in tables else None
        luts.append(RemapLUT.from_tables(
            tables["base"], tables.get("fracs"), tables["mask"],
            out_shape=lut_meta["out_shape"], src_shape=lut_meta["src_shape"],
            method=lut_meta["method"], fill=lut_meta["fill"],
            tier=lut_meta["tier"], frac_bits=lut_meta["frac_bits"],
            qweight_table=tables.get("qwtab"), patch=patch))
    return segments, tuple(luts)
