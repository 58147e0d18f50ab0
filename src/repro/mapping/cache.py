"""Persistent, content-addressed mapping cache.

The paper's own breakdown (Fig. 4, Fig. 13) puts the mapping stage at
up to ~50% of end-to-end runtime, yet every caller builds a fresh
:class:`~repro.core.engine.ExecutionContext` per input, so coordinate
tables and kernel maps are rebuilt from scratch on every request.  For
streaming LiDAR traffic — where consecutive (ego-motion-compensated)
frames voxelize to the same sparsity pattern far more often than not —
that work is pure waste.

A :class:`MappingCache` outlives any single context.  Entries are keyed
by *content*: a blake2 fingerprint of the coordinate array plus every
parameter that changes the entry (stride levels, kernel size, conv
stride, effective symmetry, table backend).  Content addressing is what
makes cross-request reuse *safe* — the old per-context caches were
keyed only by stride, so a reused context silently served one input's
tables against another input's features.  With content keys a stale hit
is structurally impossible: different coordinates hash to different
keys.

Three entry kinds are cached (the whole mapping stage of a warm frame):

``coords``  downsampled output coordinates, keyed by the parent
            coordinate fingerprint + (kernel_size, stride);
``index``   :class:`~repro.mapping.kmap.CoordIndex` tables, keyed by
            coordinate fingerprint + backend;
``kmap``    :class:`~repro.mapping.kmap.KernelMap` entries, keyed by
            input/output fingerprints + (in_stride, out_stride,
            kernel_size, stride, effective symmetry).

Eviction is byte-budget LRU, accounted the same way the engine's
``MAX_GRID_BYTES`` budget prices tables: modeled table bytes.
Hits, misses, evictions, purges and the resident byte/entry gauges are
emitted to the current :mod:`repro.obs.metrics` registry.

Invalidation: the engine's fault-recovery path
(``BaseEngine._purge_mapping_caches``) calls :meth:`MappingCache.purge`
with the fingerprints of the coordinates a detected fault may have
poisoned, so chaos-injected kernel-map corruption or hash-table
overflow can never be "recovered" from a stale persistent entry.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import get_registry

#: Default byte budget — same accounting style as the engine's
#: ``MAX_GRID_BYTES`` grid-table budget, sized for a few hundred
#: cached frames of kernel maps at typical scene sizes.
MAX_MAPCACHE_BYTES = 256 * 1024 * 1024

#: Fixed per-entry overhead charged on top of backing-array bytes
#: (key, dict slot, object headers).
ENTRY_OVERHEAD_BYTES = 128


# -- content fingerprints ---------------------------------------------------

#: ``id(arr) -> (weakref, fingerprint)`` memo so re-fingerprinting the
#: same coordinate array (every layer of a U-Net re-registers it) costs
#: a dict lookup, not a re-hash.  The weakref guards against id reuse
#: after the original array is garbage collected.
_FP_MEMO: dict = {}
_FP_MEMO_MAX = 4096


def coords_fingerprint(coords: np.ndarray) -> str:
    """Stable content hash of a coordinate array.

    Two arrays with equal dtype-canonicalized content (int64) produce
    the same fingerprint regardless of object identity; any differing
    row produces a different one.  Shape is folded into the digest so a
    reshape cannot collide.
    """
    key = id(coords)
    memo = _FP_MEMO.get(key)
    if memo is not None:
        ref, fp = memo
        if ref() is coords:
            return fp
    c = np.ascontiguousarray(np.asarray(coords, dtype=np.int64))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(c.shape).encode())
    h.update(c.tobytes())
    fp = h.hexdigest()
    try:
        if len(_FP_MEMO) >= _FP_MEMO_MAX:
            dead = [k for k, (r, _) in _FP_MEMO.items() if r() is None]
            for k in dead:
                _FP_MEMO.pop(k, None)
            if len(_FP_MEMO) >= _FP_MEMO_MAX:
                _FP_MEMO.clear()
        _FP_MEMO[key] = (weakref.ref(coords), fp)
    except TypeError:
        pass  # non-weakref-able input (e.g. a list); just skip the memo
    return fp


# -- keys -------------------------------------------------------------------


@dataclass(frozen=True)
class CoordsKey:
    """Downsampled output coordinates of one (parent, kernel, stride)."""

    parent_fp: str
    kernel_size: object
    stride: object

    kind = "coords"

    @property
    def fingerprints(self) -> tuple:
        return (self.parent_fp,)


@dataclass(frozen=True)
class IndexKey:
    """One coordinate table; the backend changes the table's content
    (grid origin/shape vs. hash slots), so it is part of the key."""

    fp: str
    backend: str

    kind = "index"

    @property
    def fingerprints(self) -> tuple:
        return (self.fp,)


@dataclass(frozen=True)
class KmapKey:
    """One kernel map.

    ``symmetric`` is the *effective* symmetry
    (``use_map_symmetry and stride == 1 and all-odd kernel``), not the
    raw config flag: a stride-2 downsampling map has identical content
    whether or not symmetry was requested, and canonicalizing keeps the
    forward map shareable with its mirrored transposed convolution.
    The table backend is deliberately absent — map content is
    backend-invariant (the backend lives in :class:`IndexKey`).
    """

    in_fp: str
    out_fp: str
    in_stride: object
    out_stride: object
    kernel_size: object
    stride: object
    symmetric: bool

    kind = "kmap"

    @property
    def fingerprints(self) -> tuple:
        return (self.in_fp, self.out_fp)


def coords_key(parent_coords: np.ndarray, kernel_size, stride) -> CoordsKey:
    return CoordsKey(coords_fingerprint(parent_coords), kernel_size, stride)


def index_key(coords: np.ndarray, backend: str) -> IndexKey:
    return IndexKey(coords_fingerprint(coords), backend)


def kmap_key(
    in_coords: np.ndarray,
    out_coords: np.ndarray,
    in_stride,
    out_stride,
    kernel_size,
    stride,
    use_symmetry: bool,
) -> KmapKey:
    from repro.core.kernel import is_all_odd

    effective = bool(use_symmetry and stride == 1 and is_all_odd(kernel_size))
    return KmapKey(
        in_fp=coords_fingerprint(in_coords),
        out_fp=coords_fingerprint(out_coords),
        in_stride=in_stride,
        out_stride=out_stride,
        kernel_size=kernel_size,
        stride=stride,
        symmetric=effective,
    )


# -- byte accounting --------------------------------------------------------


def kmap_nbytes(kmap) -> int:
    """Resident bytes of one kernel map (per-offset index arrays)."""
    total = ENTRY_OVERHEAD_BYTES
    for arr in list(kmap.in_indices) + list(kmap.out_indices):
        total += int(getattr(arr, "nbytes", 0))
    return total


def index_nbytes(index) -> int:
    """Modeled bytes of one coordinate table (its GPU slot arrays)."""
    return ENTRY_OVERHEAD_BYTES + int(index.stats.table_bytes)


def coords_nbytes(coords: np.ndarray) -> int:
    return ENTRY_OVERHEAD_BYTES + int(coords.nbytes)


# -- the cache --------------------------------------------------------------


class MappingCache:
    """Process-level LRU cache of mapping-stage artifacts.

    Thread-safe for the simple get/put/purge protocol (a lock guards
    the ordered dict); values themselves are shared, so callers that
    may mutate an entry in place (fault injection) must copy first —
    the engine does this whenever an injector is armed.
    """

    def __init__(self, max_bytes: int = MAX_MAPCACHE_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self._bytes = 0
        self._lock = threading.Lock()

    # -- introspection ------------------------------------------------------

    @property
    def bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """Resident snapshot (counters live in the metrics registry)."""
        with self._lock:
            kinds: dict = {}
            for key in self._entries:
                kinds[key.kind] = kinds.get(key.kind, 0) + 1
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "by_kind": kinds,
            }

    def _gauges(self) -> None:
        reg = get_registry()
        reg.gauge("mapcache.bytes").set(float(self._bytes))
        reg.gauge("mapcache.entries").set(float(len(self._entries)))

    # -- the protocol -------------------------------------------------------

    def get(self, key):
        """The cached value for ``key`` (LRU-touched), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                get_registry().counter("mapcache.misses", kind=key.kind).inc()
                return None
            self._entries.move_to_end(key)
            get_registry().counter("mapcache.hits", kind=key.kind).inc()
            return entry[0]

    def put(self, key, value, nbytes: int) -> bool:
        """Insert ``value`` under ``key``; returns False if it cannot fit.

        An entry larger than the whole budget is rejected (counted as an
        ``oversize`` eviction) rather than flushing everything else.
        """
        nbytes = max(int(nbytes), ENTRY_OVERHEAD_BYTES)
        reg = get_registry()
        with self._lock:
            if nbytes > self.max_bytes:
                reg.counter("mapcache.evictions", reason="oversize").inc()
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            while self._bytes > self.max_bytes:
                _, (_, victim_bytes) = self._entries.popitem(last=False)
                self._bytes -= victim_bytes
                reg.counter("mapcache.evictions", reason="lru").inc()
            self._gauges()
            return True

    def purge(self, fingerprints) -> int:
        """Drop every entry referencing any of ``fingerprints``.

        The robustness layer calls this when a detected fault may have
        poisoned entries built from the given coordinates (in-place
        kernel-map corruption, hash-table overflow): stale persistent
        state must never serve a "recovered" retry.
        """
        fps = set(fingerprints)
        if not fps:
            return 0
        with self._lock:
            victims = [
                key
                for key in self._entries
                if any(fp in fps for fp in key.fingerprints)
            ]
            for key in victims:
                _, nbytes = self._entries.pop(key)
                self._bytes -= nbytes
            if victims:
                get_registry().counter("mapcache.purged").inc(len(victims))
                self._gauges()
            return len(victims)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._gauges()


# -- the process-level default ---------------------------------------------

_DEFAULT: MappingCache | None = None


def get_mapping_cache() -> MappingCache:
    """The process-level cache (created on first use).

    Persistent reuse is *opt-in* per context — callers that want
    steady-state behavior pass this (or their own instance) as
    ``ExecutionContext(mapcache=...)``; everything else keeps the
    seed-exact cold path.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MappingCache()
    return _DEFAULT


def reset_mapping_cache() -> None:
    """Discard the process-level cache (test isolation).

    The default cache is process-global and was never reset, so test
    suites could order-depend on another test's warm entries.  Clearing
    before dropping the reference also zeroes the ``mapcache.*`` gauges
    in whatever registry is current, so a fresh test does not inherit a
    stale resident-bytes reading either.
    """
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.clear()
    _DEFAULT = None
