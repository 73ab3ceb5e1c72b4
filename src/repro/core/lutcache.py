"""LUT memoization: reuse built remap tables across streams.

The T2 profile shows the per-stream cost of the LUT pipeline is
dominated by table *construction* (map analysis, edge clamping,
fraction extraction), not application — roughly two orders of magnitude
more than correcting one frame.  A long-running service that restarts
streams, rotates views, or multiplexes a handful of camera geometries
re-pays that cost every time unless the tables are memoized.

:class:`LUTCache` is an in-process LRU of live
:class:`~repro.core.remap.RemapLUT` tables keyed by *field content* (a
SHA-1 over the coordinate arrays) plus the build parameters, so two
fields that are numerically identical share one table no matter how
they were constructed.  Its one fetch is :meth:`LUTCache.get_or_build`
with a key from :meth:`LUTCache.key_for` or
:meth:`LUTCache.key_for_composed`;
:func:`~repro.video.pixfmt.plane_luts` makes both for every format::

    cache = LUTCache()
    key = LUTCache.key_for(field, "bilinear")
    lut = cache.get_or_build(key, lambda: RemapLUT(field))  # build once...
    lut = cache.get_or_build(key, lambda: RemapLUT(field))  # ...then hit
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from ..errors import MappingError
from ..obs.telemetry import get_telemetry
from .mapping import RemapField

__all__ = ["LUTCache", "field_fingerprint", "derived_fingerprint"]


def field_fingerprint(field: RemapField) -> str:
    """Content hash of a coordinate field (SHA-1 hex digest).

    Hashes the raw bytes of ``map_x``/``map_y`` plus their shapes and
    the source geometry, so equality means "same remap", independent of
    how the field object was produced.  Cached on the field after the
    first call, like :meth:`~repro.core.mapping.RemapField.valid_mask`:
    fields are immutable once built, and one open hashes a QHD field
    (tens of ms) more than once — for its key and again for its LUT.
    A recipe field is hashed from maps computed for the hash and then
    dropped (:meth:`~repro.core.mapping.RemapField.eager`): it keeps
    the digest and no maps.  The digest is the content's, so a recipe
    and its eager twin share one cache entry and one table publication.
    """
    cached = getattr(field, "_fingerprint", None)
    if cached is None:
        cached = field._fingerprint = _field_digest(field.eager())
    return cached


def _field_digest(field: RemapField) -> str:
    """The uncached SHA-1 behind :func:`field_fingerprint`.

    Each map is hashed as its C-order bytes, read in place when it is
    C-contiguous (a strided or broadcast map is copied contiguous
    first).
    """
    h = hashlib.sha1()
    for arr in (field.map_x, field.map_y):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.data)
    h.update(f"{field.src_width}x{field.src_height}".encode())
    return h.hexdigest()


def derived_fingerprint(base, recipe: str) -> str:
    """Cache identity of a field derived from ``base`` by ``recipe``.

    Lets a derived table be keyed without deriving (or hashing) the
    field: the chroma twin of a luma field is ``base=luma`` with its
    recipe name, a downscale map ``base=None`` with its sizes in the
    recipe.  ``base`` is a field or an identity string.  The hash
    starts from its own prefix, so it is never a content fingerprint.
    """
    h = hashlib.sha1(b"derived|" + recipe.encode())
    if base is not None:
        h.update(b"|" + _identity(base).encode())
    return h.hexdigest()


def _identity(field) -> str:
    """A field's content fingerprint, or ``field`` if it is an identity
    string already (:func:`derived_fingerprint`)."""
    return field if isinstance(field, str) else field_fingerprint(field)


class LUTCache:
    """In-memory LRU cache of built remap LUTs.

    Parameters
    ----------
    capacity:
        Maximum live LUTs kept (LRU eviction).

    Concurrent :meth:`get_or_build` calls that miss on the same key are
    *single-flighted*: one caller builds while the others block on a
    per-key lock and then reuse the finished table, so a burst of
    streams starting against one calibration performs exactly one
    build.

    Attributes
    ----------
    hits, misses:
        Counters of fetches answered from memory and fetches that were
        not.
    coalesced:
        Misses that were absorbed by a build already in flight for the
        same key (the caller waited instead of building).
    evictions:
        LRU evictions.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise MappingError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> RemapLUT
        # Per-key single-flight build locks: holders of self._lock only
        # ever create/look up these, never acquire them, so there is no
        # lock-ordering cycle.
        self._builds: dict = {}

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(field: RemapField | str, method: str = "bilinear",
                fill: float = 0.0) -> str:
        """Cache key: field content hash (or a
        :func:`derived_fingerprint`) + build parameters."""
        tail = f"|{method}|{float(fill)!r}"
        return _identity(field) + hashlib.sha1(tail.encode()).hexdigest()[:8]

    @staticmethod
    def key_for_composed(outer: RemapField | str, inner: RemapField | str,
                         method: str = "bilinear", fill: float = 0.0) -> str:
        """Cache key of a fused ``inner after outer`` table.

        Derived from the content hashes of the *constituent* fields
        (plus the build parameters), so hitting the cache never pays
        the composition itself, and any two callers composing
        numerically identical stages share one fused table.  Either
        field may be given by its :func:`derived_fingerprint`.
        """
        tail = f"|{method}|{float(fill)!r}"
        h = hashlib.sha1(b"composed|")
        h.update(_identity(outer).encode())
        h.update(_identity(inner).encode())
        h.update(tail.encode())
        return "comp" + h.hexdigest()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }

    # ------------------------------------------------------------------
    def get_or_build(self, key: str, build):
        """Single-flight fetch of ``key`` (made by :meth:`key_for` or
        :meth:`key_for_composed`): ``build()`` runs only on a miss, and
        once for all the callers that miss on ``key`` together.  If it
        raises, the error reaches its caller and nothing is cached."""
        tel = get_telemetry()
        with self._lock:
            lut = self._entries.get(key)
            if lut is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                tel.counter("lutcache.mem.hits").inc()
                return lut
            self.misses += 1
            # Single-flight: all concurrent missers of one key funnel
            # through one per-key lock, so the expensive build happens
            # exactly once.
            flight = self._builds.get(key)
            if flight is None:
                flight = self._builds[key] = threading.Lock()
        tel.counter("lutcache.mem.misses").inc()
        with flight:
            with self._lock:
                lut = self._entries.get(key)
                if lut is not None:
                    # Another thread finished this build while we waited.
                    self._entries.move_to_end(key)
                    self.coalesced += 1
                    tel.counter("lutcache.coalesced").inc()
                    return lut
            try:
                t0 = time.perf_counter() if tel.enabled else 0.0
                lut = build()
                if tel.enabled:
                    tel.histogram("lutcache.build_seconds").observe(
                        time.perf_counter() - t0)
                    tel.counter("lutcache.builds").inc()
                with self._lock:
                    self._entries[key] = lut
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                        tel.counter("lutcache.evictions").inc()
            finally:
                # Late waiters re-enter through the entry; if it is
                # evicted before they do, or the build raised, a fresh
                # lock is made.
                with self._lock:
                    self._builds.pop(key, None)
        return lut
