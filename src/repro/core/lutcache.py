"""LUT memoization: reuse built remap tables across streams and restarts.

The T2 profile shows the per-stream cost of the LUT pipeline is
dominated by table *construction* (map analysis, edge clamping,
fraction extraction), not application — roughly two orders of magnitude
more than correcting one frame.  A long-running service that restarts
streams, rotates views, or multiplexes a handful of camera geometries
re-pays that cost every time unless the tables are memoized.

:class:`LUTCache` keys built :class:`~repro.core.remap.RemapLUT` tables
by *field content* (a SHA-1 over the coordinate arrays) plus the build
parameters, so two fields that are numerically identical share one
table no matter how they were constructed.  Two tiers:

- an in-process LRU of live ``RemapLUT`` objects (``capacity`` entries);
- an optional on-disk tier (``cache_dir``): each entry is a directory
  of ``.npy`` tables (the compact layout: ``base``, ``fracs``, ``mask``
  and a non-empty patch list) that are **memory-mapped** on load, so a
  restarted process pays file-open cost, not a rebuild, and the OS page
  cache shares the bytes between processes.  An entry written in
  another table layout (a different ``version`` in its ``meta.json``)
  is a plain miss: it is rebuilt and overwritten.

Typical streaming-restart usage::

    cache = LUTCache(cache_dir="~/.cache/repro-luts")
    lut = cache.get(field, method="bilinear")   # build once...
    ...                                          # process restarts
    lut = cache.get(field, method="bilinear")   # ...mmap'd back, no build
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import MappingError, ReproError
from ..obs.telemetry import get_telemetry
from .mapping import RemapField
from .remap import RemapLUT

__all__ = ["LUTCache", "field_fingerprint", "derived_fingerprint"]

#: On-disk table layout.  Version 1 stored ``(N, taps)`` offsets
#: (``indices.npy``); version 2 stored one ``base`` per pixel plus the
#: patch list, and a ``border`` mode; version 3 drops the mode (every
#: table clamps at the edge and carries a ``mask``).
_FORMAT_VERSION = 3


def field_fingerprint(field: RemapField) -> str:
    """Content hash of a coordinate field (SHA-1 hex digest).

    Hashes the raw bytes of ``map_x``/``map_y`` plus their shapes and
    the source geometry, so equality means "same remap", independent of
    how the field object was produced.  Cached on the field after the
    first call, like :meth:`~repro.core.mapping.RemapField.valid_mask`:
    fields are immutable once built, and one open hashes a QHD field
    (tens of ms) more than once — for its key and again for its LUT.
    """
    cached = getattr(field, "_fingerprint", None)
    if cached is None:
        cached = field._fingerprint = _field_digest(field)
    return cached


def _field_digest(field: RemapField) -> str:
    """The uncached SHA-1 behind :func:`field_fingerprint`."""
    h = hashlib.sha1()
    for arr in (field.map_x, field.map_y):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
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
    """Two-tier (memory + optional disk) cache of built remap LUTs.

    Parameters
    ----------
    capacity:
        Maximum live LUTs kept in memory (LRU eviction).
    cache_dir:
        Optional directory for persistent entries.  Created on first
        write; tables are loaded back memory-mapped (read-only).

    Concurrent ``get()`` calls that miss on the same key are
    *single-flighted*: one caller builds (or loads) while the others
    block on a per-key lock and then reuse the finished table, so a
    burst of streams starting against one calibration performs exactly
    one build and writes the disk tier once.

    Attributes
    ----------
    hits, misses, disk_hits:
        Counters; ``hits`` are memory-tier hits, ``disk_hits`` count
        loads that skipped a rebuild via the disk tier (they also
        increment ``misses`` for the memory tier).
    coalesced:
        Misses that were absorbed by a build already in flight for the
        same key (the caller waited instead of building).
    corrupt_reads:
        Disk-tier entries that existed but could not be loaded
        (truncated/garbled tables, bad metadata); each one is treated
        as a miss and rebuilt, never raised to the caller.
    evictions:
        Memory-tier LRU evictions.
    """

    def __init__(self, capacity: int = 8, cache_dir: Optional[str] = None):
        if capacity < 1:
            raise MappingError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.cache_dir = os.path.expanduser(cache_dir) if cache_dir else None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_reads = 0
        self.evictions = 0
        self.coalesced = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, RemapLUT]" = OrderedDict()
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

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left intact)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counter snapshot across both tiers."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "corrupt_reads": self.corrupt_reads,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }

    # ------------------------------------------------------------------
    def get(self, field: RemapField, method: str = "bilinear",
            fill: float = 0.0) -> RemapLUT:
        """Return the LUT for this configuration, building at most once."""
        key = self.key_for(field, method, fill)

        def build() -> RemapLUT:
            return RemapLUT(field, method=method, fill=fill)

        return self.get_or_build(key, build)

    def get_composed(self, outer: RemapField, inner: RemapField,
                     method: str = "bilinear", fill: float = 0.0) -> RemapLUT:
        """Return the fused LUT of ``inner after outer``.

        The key comes from the constituent fields' content hashes
        (:meth:`key_for_composed`), so a memory or disk hit skips both
        the composition and the table build; a burst of concurrent
        opens against the same composition single-flights into exactly
        one build (``lutcache.builds`` increments once).
        """
        from .compose import _composed_table

        key = self.key_for_composed(outer, inner, method, fill)

        def build() -> RemapLUT:
            return _composed_table(outer, inner, method, fill)

        return self.get_or_build(key, build)

    def get_or_build(self, key: str, build) -> RemapLUT:
        """Two-tier single-flight fetch of ``key`` (made by
        :meth:`key_for` or :meth:`key_for_composed`): ``build()`` runs
        at most once, and only on a miss of both tiers."""
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
            # through one per-key lock, so the expensive build (and the
            # disk-tier write) happens exactly once.
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
            lut = self._load(key)
            if lut is None:
                t0 = time.perf_counter() if tel.enabled else 0.0
                lut = build()
                if tel.enabled:
                    tel.histogram("lutcache.build_seconds").observe(
                        time.perf_counter() - t0)
                    tel.counter("lutcache.builds").inc()
                self._store(key, lut)
            else:
                self.disk_hits += 1
                tel.counter("lutcache.disk.hits").inc()
            with self._lock:
                self._entries[key] = lut
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    tel.counter("lutcache.evictions").inc()
                # Late waiters re-enter through the memory tier; if the
                # entry is evicted before they do, a fresh lock is made.
                self._builds.pop(key, None)
        return lut

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> Optional[str]:
        return os.path.join(self.cache_dir, key) if self.cache_dir else None

    def _store(self, key: str, lut: RemapLUT) -> None:
        path = self._entry_dir(key)
        if path is None:
            return
        tmp = path + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        np.save(os.path.join(tmp, "base.npy"), lut.base)
        np.save(os.path.join(tmp, "mask.npy"), lut.mask)
        if lut.fracs is not None:
            np.save(os.path.join(tmp, "fracs.npy"), lut.fracs)
        patches = len(lut.patch_pixels)
        if patches:
            np.save(os.path.join(tmp, "patch_pixels.npy"), lut.patch_pixels)
            np.save(os.path.join(tmp, "patch_taps.npy"), lut.patch_taps)
        meta = {
            "version": _FORMAT_VERSION,
            "method": lut.method,
            "fill": lut.fill,
            "out_shape": list(lut.out_shape),
            "src_shape": list(lut.src_shape),
            "patches": patches,
        }
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        # Atomic publish: a reader either sees the full entry or nothing.
        try:
            os.replace(tmp, path)
        except OSError:
            # Entry appeared concurrently (or non-empty dir on this
            # platform): keep the existing one.
            shutil.rmtree(tmp, ignore_errors=True)

    def _corrupt(self) -> None:
        self.corrupt_reads += 1
        get_telemetry().counter("lutcache.disk.corrupt").inc()

    def _load(self, key: str) -> Optional[RemapLUT]:
        path = self._entry_dir(key)
        if path is None or not os.path.isdir(path):
            return None
        # Any defect in an on-disk entry — truncated .npy, garbled
        # metadata, tables inconsistent with the recorded geometry —
        # counts as a corrupt read and falls back to a rebuild; a bad
        # cache entry must never take down the stream it memoizes for.
        try:
            with open(os.path.join(path, "meta.json")) as fh:
                meta = json.load(fh)
            if meta.get("version") != _FORMAT_VERSION:
                # Another table layout: a miss, not a corrupt read.  Drop
                # it so the rebuild that follows can take its place.
                shutil.rmtree(path, ignore_errors=True)
                return None

            def table(name):
                return np.load(os.path.join(path, name + ".npy"), mmap_mode="r")

            def optional(name):
                exists = os.path.exists(os.path.join(path, name + ".npy"))
                return table(name) if exists else None

            fracs = optional("fracs")
            if meta["method"] != "nearest" and fracs is None:
                self._corrupt()
                return None
            patch = ((table("patch_pixels"), table("patch_taps"))
                     if meta["patches"] else None)
            return RemapLUT.from_tables(
                table("base"), fracs, table("mask"),
                out_shape=tuple(meta["out_shape"]), src_shape=tuple(meta["src_shape"]),
                method=meta["method"], fill=meta["fill"],
                patch=patch)
        except (OSError, EOFError, ValueError, KeyError, TypeError,
                json.JSONDecodeError, ReproError):
            self._corrupt()
            return None
