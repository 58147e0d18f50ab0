"""Deterministic binary encoding of mapping-stage artifacts.

Every artifact the durable store holds — kernel maps, coordinate
indices, downsampled coordinates, tuned strategy books, and the serve
layer's ``(model, scene)`` frame markers — round-trips through one
self-describing blob format::

    MAGIC ("RPB1") | u32 header length | canonical JSON header | payloads

The header carries the artifact kind, its scalar metadata, and one
``{dtype, shape}`` descriptor per trailing array payload; payloads are
the raw C-order bytes of each array, concatenated in header order.
Canonical JSON (sorted keys, compact separators) plus raw array bytes
makes encoding a pure function of the artifact's content: two processes
persisting the same kernel map write byte-identical blobs, which is
what lets same-seed campaigns diff their stores byte for byte.

Decoding is defensive: any structural damage — bad magic, truncated
header, short payload, unknown kind, array lengths that disagree with
the metadata — raises a typed
:class:`~repro.robust.errors.StoreCorruptionError` rather than
whichever ``ValueError``/``KeyError`` the damage happens to hit first.
(The store checksums every blob before decoding, so reaching a decode
error means the writer was buggy, not the disk — but the store treats
both identically: quarantine, rebuild, never serve.)
"""

from __future__ import annotations

import json

import numpy as np

from repro.robust.errors import StoreCorruptionError

MAGIC = b"RPB1"

#: Artifact kinds the blob codec understands.
ARTIFACT_KINDS = ("coords", "index", "kmap", "book", "frame")

#: Layout marker of grid-index blobs: the table's occupied slots as
#: sorted raveled keys plus values, O(N) however large the box.  Blobs
#: without it (the old dense O(volume) slot array) fail to decode, so
#: the store quarantines and rebuilds them.
GRID_LAYOUT = "sorted"


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pack(kind: str, meta: dict, arrays: list) -> bytes:
    descs = []
    payloads = []
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        descs.append({"dtype": a.dtype.str, "shape": list(a.shape)})
        payloads.append(a.tobytes())
    header = _dumps({"kind": kind, "meta": meta, "arrays": descs}).encode()
    out = [MAGIC, len(header).to_bytes(4, "little"), header]
    out.extend(payloads)
    return b"".join(out)


def _unpack(data: bytes) -> tuple:
    """``(kind, meta, arrays)`` of one blob; typed error on any damage."""
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise StoreCorruptionError("artifact blob has no valid magic")
    hlen = int.from_bytes(data[len(MAGIC) : len(MAGIC) + 4], "little")
    start = len(MAGIC) + 4
    if start + hlen > len(data):
        raise StoreCorruptionError("artifact blob header is truncated")
    try:
        header = json.loads(data[start : start + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise StoreCorruptionError(
            f"artifact blob header is not valid JSON: {e}"
        ) from e
    if not isinstance(header, dict) or header.get("kind") not in ARTIFACT_KINDS:
        raise StoreCorruptionError(
            f"artifact blob has unknown kind "
            f"{header.get('kind') if isinstance(header, dict) else None!r}"
        )
    arrays = []
    offset = start + hlen
    for desc in header.get("arrays", []):
        try:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(int(s) for s in desc["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise StoreCorruptionError(
                f"artifact blob has a malformed array descriptor: {e}"
            ) from e
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if offset + nbytes > len(data):
            raise StoreCorruptionError("artifact blob payload is truncated")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype=dtype)
        arrays.append(arr.reshape(shape).copy())  # writable
        offset += nbytes
    if offset != len(data):
        raise StoreCorruptionError(
            f"artifact blob has {len(data) - offset} trailing bytes"
        )
    return header["kind"], header.get("meta", {}), arrays


def _canon(value):
    """Kernel size / stride for JSON: tuples become lists and back."""
    return list(value) if isinstance(value, tuple) else value


def _uncanon(value):
    return tuple(value) if isinstance(value, list) else value


# -- per-kind codecs --------------------------------------------------------


def _encode_kmap(kmap) -> bytes:
    meta = {
        "kernel_size": _canon(kmap.kernel_size),
        "stride": _canon(kmap.stride),
        "n_in": int(kmap.n_in),
        "n_out": int(kmap.n_out),
        "queries_issued": int(kmap.queries_issued),
        "mirrored_entries": int(kmap.mirrored_entries),
        "volume": int(kmap.volume),
    }
    arrays = [np.asarray(a, dtype=np.int64) for a in kmap.in_indices]
    arrays += [np.asarray(a, dtype=np.int64) for a in kmap.out_indices]
    return _pack("kmap", meta, arrays)


def _decode_kmap(meta: dict, arrays: list):
    from repro.mapping.kmap import KernelMap

    vol = int(meta["volume"])
    if len(arrays) != 2 * vol:
        raise StoreCorruptionError(
            f"kernel-map blob holds {len(arrays)} index arrays, "
            f"expected {2 * vol}"
        )
    try:
        return KernelMap(
            kernel_size=_uncanon(meta["kernel_size"]),
            stride=_uncanon(meta["stride"]),
            n_in=int(meta["n_in"]),
            n_out=int(meta["n_out"]),
            in_indices=list(arrays[:vol]),
            out_indices=list(arrays[vol:]),
            queries_issued=int(meta["queries_issued"]),
            mirrored_entries=int(meta["mirrored_entries"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise StoreCorruptionError(f"kernel-map blob is malformed: {e}") from e


def _stats_meta(stats) -> dict:
    return {
        "build_accesses": int(stats.build_accesses),
        "query_accesses": int(stats.query_accesses),
        "table_bytes": int(stats.table_bytes),
        "max_probe_len": int(stats.max_probe_len),
    }


def _stats_from(meta: dict):
    from repro.hashmap.hash_table import HashStats

    try:
        return HashStats(
            build_accesses=int(meta["build_accesses"]),
            query_accesses=int(meta["query_accesses"]),
            table_bytes=int(meta["table_bytes"]),
            max_probe_len=int(meta["max_probe_len"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise StoreCorruptionError(f"index blob stats are malformed: {e}") from e


def _encode_index(index) -> bytes:
    from repro.hashmap.hash_table import HashTable

    table = index.table
    if isinstance(table, HashTable):
        meta = {
            "backend": "hash",
            "capacity": int(table.capacity),
            "size": int(table._size),
            "stats": _stats_meta(table.stats),
        }
        return _pack("index", meta, [table._keys, table._values])
    meta = {
        "backend": "grid",
        "layout": GRID_LAYOUT,
        "size": len(table),
        "stats": _stats_meta(table.stats),
    }
    return _pack(
        "index", meta, [table.origin, table.shape, table._keys, table._vals]
    )


def _decode_index(meta: dict, arrays: list):
    from repro.hashmap.grid_table import GridTable
    from repro.hashmap.hash_table import HashTable
    from repro.mapping.kmap import CoordIndex

    backend = meta.get("backend")
    stats = _stats_from(meta.get("stats", {}))
    if backend == "hash":
        if len(arrays) != 2:
            raise StoreCorruptionError("hash-index blob needs 2 arrays")
        keys, values = arrays
        table = HashTable(capacity=int(meta["capacity"]))
        if keys.shape != (table.capacity,) or values.shape != (table.capacity,):
            raise StoreCorruptionError(
                "hash-index blob slot arrays disagree with capacity"
            )
        table._keys = keys.astype(np.int64)
        table._values = values.astype(np.int64)
        table._size = int(meta["size"])
        table.stats = stats
        return CoordIndex(table)
    if backend == "grid":
        if meta.get("layout") != GRID_LAYOUT:
            raise StoreCorruptionError(
                f"grid-index blob has layout {meta.get('layout')!r}, "
                f"expected {GRID_LAYOUT!r}"
            )
        if len(arrays) != 4:
            raise StoreCorruptionError("grid-index blob needs 4 arrays")
        origin, shape, keys, values = arrays
        try:
            table = GridTable(origin=origin, shape=shape)
        except ValueError as e:
            raise StoreCorruptionError(
                f"grid-index blob bounding box is malformed: {e}"
            ) from e
        keys = keys.astype(np.int64)
        values = values.astype(np.int64)
        if keys.ndim != 1 or values.shape != keys.shape:
            raise StoreCorruptionError(
                "grid-index blob key and value arrays disagree"
            )
        if keys.shape[0] != meta.get("size"):
            raise StoreCorruptionError(
                f"grid-index blob holds {keys.shape[0]} slots, "
                f"metadata says {meta.get('size')!r}"
            )
        if keys.size and (
            keys[0] < 0
            or keys[-1] >= table.volume
            or (np.diff(keys) <= 0).any()
        ):
            raise StoreCorruptionError(
                "grid-index blob keys are not strictly increasing slots "
                "of the box"
            )
        if (values < 0).any():
            raise StoreCorruptionError("grid-index blob has negative values")
        table._keys = keys
        table._vals = values
        table.stats = stats
        return CoordIndex(table)
    raise StoreCorruptionError(f"index blob has unknown backend {backend!r}")


def _encode_book(book) -> bytes:
    text = book.dumps().encode()
    return _pack("book", {}, [np.frombuffer(text, dtype=np.uint8)])


def _decode_book(arrays: list):
    from repro.core.tuner import StrategyBook
    from repro.robust.errors import StrategyBookError

    if len(arrays) != 1:
        raise StoreCorruptionError("strategy-book blob needs 1 payload")
    try:
        return StrategyBook.loads(arrays[0].tobytes().decode())
    except (UnicodeDecodeError, StrategyBookError) as e:
        raise StoreCorruptionError(
            f"strategy-book blob failed to parse: {e}"
        ) from e


# -- public API -------------------------------------------------------------


def encode_artifact(kind: str, value) -> bytes:
    """Serialize one artifact; inverse of :func:`decode_artifact`."""
    if kind == "kmap":
        return _encode_kmap(value)
    if kind == "index":
        return _encode_index(value)
    if kind == "coords":
        return _pack("coords", {}, [np.asarray(value)])
    if kind == "book":
        return _encode_book(value)
    if kind == "frame":
        model, scene = value["model"], value["scene"]
        # scene identity must round-trip exactly — the serve layer
        # compares inherited frames against live (model, scene) tuples,
        # and an int scene stringified here would never match again
        if not isinstance(model, str) or isinstance(scene, bool) or not isinstance(scene, (str, int)):
            raise ValueError(
                f"frame wants str model and str/int scene, got "
                f"({type(model).__name__}, {type(scene).__name__})"
            )
        return _pack("frame", {"model": model, "scene": scene}, [])
    raise ValueError(f"unknown artifact kind {kind!r}")


def decode_artifact(data: bytes):
    """``(kind, value)`` of one blob.

    Raises:
        StoreCorruptionError: on any structural damage.
    """
    kind, meta, arrays = _unpack(data)
    if kind == "kmap":
        return kind, _decode_kmap(meta, arrays)
    if kind == "index":
        return kind, _decode_index(meta, arrays)
    if kind == "coords":
        if len(arrays) != 1:
            raise StoreCorruptionError("coords blob needs 1 payload")
        return kind, arrays[0]
    if kind == "book":
        return kind, _decode_book(arrays)
    # frame: kind validated by _unpack
    if "model" not in meta or "scene" not in meta:
        raise StoreCorruptionError("frame blob is missing model/scene")
    model, scene = meta["model"], meta["scene"]
    if not isinstance(model, str) or isinstance(scene, bool) or not isinstance(scene, (str, int)):
        raise StoreCorruptionError("frame blob has malformed model/scene")
    return kind, {"model": model, "scene": scene}


def artifact_nbytes(kind: str, value) -> int:
    """Resident byte cost of a decoded artifact — priced the same way
    the in-memory :class:`~repro.mapping.cache.MappingCache` accounts
    its entries, so a store-promoted value charges the LRU budget
    exactly as if the engine had just built it."""
    from repro.mapping.cache import (
        ENTRY_OVERHEAD_BYTES,
        coords_nbytes,
        index_nbytes,
        kmap_nbytes,
    )

    if kind == "kmap":
        return kmap_nbytes(value)
    if kind == "index":
        return index_nbytes(value)
    if kind == "coords":
        return coords_nbytes(value)
    return ENTRY_OVERHEAD_BYTES
