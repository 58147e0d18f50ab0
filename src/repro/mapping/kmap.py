"""Kernel map construction (Algorithm 1).

A :class:`KernelMap` stores, for every kernel offset ``delta``, the
matched ``(input index, output index)`` pairs.  Map search iterates over
output coordinates, probes ``s * q + delta`` in the input coordinate
table, and records hits — here vectorized over all outputs and offsets:
the outputs are scaled once per layer and every probed offset is a
*shift* of that one probe set (``CoordIndex.lookup(scaled, shifts)``).
On the grid backend a shift is one scalar key add plus a binary search
(Spira's integer-coordinate search over Minuet's sorted keys); the hash
backend packs one shifted probe per offset, its modeled cost.

Two search refinements from the paper are implemented:

* **symmetry** (Section 4.4 / 4.2.1): for stride-1 odd kernels, the map
  for offset ``-delta`` is the transposed map for ``delta``, so only
  half the offsets are probed;
* pluggable **table backends** (grid vs. hashmap) behind the small
  :class:`CoordIndex` adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernel import (
    center_offset_index,
    is_all_odd,
    kernel_offsets,
    kernel_volume,
    normalize,
    opposite_offset_index,
    to_tuple,
)
from repro.hashmap.coords import COORD_MAX, COORD_MIN, pack_coords
from repro.hashmap.grid_table import GridTable
from repro.hashmap.hash_table import HashTable


class CoordIndex:
    """Uniform ``coords -> row index`` adapter over both table backends."""

    def __init__(self, table: HashTable | GridTable):
        self.table = table

    @classmethod
    def build(
        cls,
        coords: np.ndarray,
        backend: str = "hash",
        margin: int = 0,
        max_grid_bytes: int | None = None,
    ) -> "CoordIndex":
        """Index ``coords`` rows by position using the chosen backend.

        Args:
            backend: ``"hash"`` or ``"grid"``.
            margin: spatial slack for grid tables so neighbor probes at
                kernel offsets stay inside the box.
            max_grid_bytes: grid-table memory budget; a grid build past
                it raises :class:`~repro.robust.errors.GridMemoryError`.
        """
        if backend == "hash":
            return cls(HashTable.from_keys(pack_coords(coords)))
        if backend == "grid":
            return cls(
                GridTable.from_coords(coords, margin=margin, max_bytes=max_grid_bytes)
            )
        raise ValueError(f"unknown coordinate table backend {backend!r}")

    def lookup(
        self, coords: np.ndarray, shifts: np.ndarray | None = None
    ) -> np.ndarray:
        """Row index per coordinate, ``-1`` where absent.

        With ``shifts`` (``(S, 3)`` spatial offsets) the result is
        ``(S, N)``, one row per shifted probe set.  The grid ravels
        ``coords`` once and adds a scalar key per shift; the hash
        backend packs and probes one shifted copy per shift, because
        that probe emulation is its modeled cost.
        """
        if not isinstance(self.table, HashTable):
            return self.table.lookup(coords, shifts)
        # probes beyond the packable range cannot be present
        c = np.asarray(coords, dtype=np.int64)
        if shifts is None:
            return self.table.lookup(pack_coords_clipped(c))
        out = np.empty((len(shifts), c.shape[0]), dtype=np.int64)
        probe = c.copy()
        for i, d in enumerate(shifts):
            np.add(c[:, 1:], d, out=probe[:, 1:])
            out[i] = self.table.lookup(pack_coords_clipped(probe))
        return out

    @property
    def stats(self):
        return self.table.stats


def pack_coords_clipped(coords: np.ndarray) -> np.ndarray:
    """Pack coordinates, mapping out-of-range rows to an absent key.

    Neighbor probes ``s*q + delta`` can step just past the packable
    range; those coordinates are by construction not in the table, so we
    redirect them to a reserved never-inserted key instead of raising.
    """
    c = np.asarray(coords, dtype=np.int64)
    bad = (
        (c[:, 1:] < COORD_MIN).any(axis=1)
        | (c[:, 1:] > COORD_MAX).any(axis=1)
        | (c[:, 0] < 0)
        | (c[:, 0] >= (1 << 15))
    )
    if bad.any():
        c = c.copy()
        c[bad] = 0
        keys = pack_coords(c)
        keys[bad] = np.int64(-2)  # never inserted (insert forbids only -1)
        return keys
    return pack_coords(c)


@dataclass
class KernelMap:
    """Per-offset input/output index pairs of one convolution layer.

    ``kernel_size`` and ``stride`` are canonical (int when isotropic,
    per-axis tuple otherwise).
    """

    kernel_size: object
    stride: object
    n_in: int
    n_out: int
    in_indices: list = field(default_factory=list)
    out_indices: list = field(default_factory=list)
    #: probes issued during construction (for mapping-cost pricing)
    queries_issued: int = 0
    #: entries produced by mirroring instead of probing (symmetry path);
    #: they still cost a map read + write, which is why the paper's
    #: symmetry optimization only buys ~1.1x end to end (Section 6.3)
    mirrored_entries: int = 0

    def __post_init__(self) -> None:
        self.kernel_size = normalize(self.kernel_size)
        self.stride = normalize(self.stride)
        vol = kernel_volume(self.kernel_size)
        if len(self.in_indices) != vol or len(self.out_indices) != vol:
            raise ValueError(
                f"expected {vol} per-offset index arrays, got "
                f"{len(self.in_indices)}/{len(self.out_indices)}"
            )

    @property
    def volume(self) -> int:
        return kernel_volume(self.kernel_size)

    @property
    def sizes(self) -> np.ndarray:
        """Map size per offset — the irregular workload of Figure 12."""
        return np.array([len(i) for i in self.in_indices], dtype=np.int64)

    @property
    def total(self) -> int:
        """``|M|``: total matched pairs across offsets."""
        return int(self.sizes.sum())

    @property
    def center_index(self) -> int | None:
        return center_offset_index(self.kernel_size)

    @property
    def is_submanifold(self) -> bool:
        """Stride 1 on every axis with an all-odd kernel: the center
        offset is an identity and needs no data movement."""
        return self.stride == 1 and is_all_odd(self.kernel_size)

    def clone(self) -> "KernelMap":
        """Deep copy (fresh index arrays).

        Used by the persistent mapping cache whenever a fault injector
        is armed: in-place corruption of the working copy must never
        reach the shared cached entry (or another request through it).
        """
        return KernelMap(
            kernel_size=self.kernel_size,
            stride=self.stride,
            n_in=self.n_in,
            n_out=self.n_out,
            in_indices=[a.copy() for a in self.in_indices],
            out_indices=[a.copy() for a in self.out_indices],
            queries_issued=self.queries_issued,
            mirrored_entries=self.mirrored_entries,
        )

    def transposed(self) -> "KernelMap":
        """Swap input/output roles (drives inverse/transposed conv)."""
        return KernelMap(
            kernel_size=self.kernel_size,
            stride=self.stride,
            n_in=self.n_out,
            n_out=self.n_in,
            in_indices=[a.copy() for a in self.out_indices],
            out_indices=[a.copy() for a in self.in_indices],
            queries_issued=0,
        )

    def validate(self) -> None:
        """Check index ranges; used by tests and paranoid callers."""
        for n in range(self.volume):
            i, o = self.in_indices[n], self.out_indices[n]
            if len(i) != len(o):
                raise ValueError(f"offset {n}: in/out lengths differ")
            if len(i) and (i.min() < 0 or i.max() >= self.n_in):
                raise ValueError(f"offset {n}: input index out of range")
            if len(o) and (o.min() < 0 or o.max() >= self.n_out):
                raise ValueError(f"offset {n}: output index out of range")


def identity_kmap(kernel_size: int, n: int) -> KernelMap:
    """Map of a pure center (1x1x1-like) connection: every point to itself."""
    vol = kernel_volume(kernel_size)
    center = center_offset_index(kernel_size)
    ins = [np.empty(0, dtype=np.int64) for _ in range(vol)]
    outs = [np.empty(0, dtype=np.int64) for _ in range(vol)]
    if center is not None:
        ins[center] = np.arange(n, dtype=np.int64)
        outs[center] = np.arange(n, dtype=np.int64)
    return KernelMap(kernel_size, 1, n, n, ins, outs)


def build_kmap(
    in_coords: np.ndarray,
    index: CoordIndex,
    out_coords: np.ndarray,
    kernel_size,
    stride=1,
    use_symmetry: bool = False,
) -> KernelMap:
    """Search kernel maps (Algorithm 1), one shifted lookup per layer.

    The probed offsets are fixed up front and searched in one
    ``index.lookup(s*q, shifts=offsets[probed])``; each offset's pairs
    are then the hits of its row, in output order.  Every probe is one
    modeled query, so ``queries_issued`` is ``N_out`` per probed offset.

    Args:
        in_coords: ``(N_in, 4)`` input coordinates (only sizes used here;
            membership comes from ``index``).
        index: coordinate table over ``in_coords``.
        out_coords: ``(N_out, 4)`` output coordinates.
        kernel_size: kernel extent ``K`` (int or per-axis tuple).
        stride: convolution stride (int or per-axis tuple); probes are
            ``s*q + delta``.
        use_symmetry: exploit the stride-1 odd-kernel symmetry to probe
            only half the offsets (requires ``in_coords is out_coords``
            semantically, which stride-1 guarantees).
    """
    kernel_size = normalize(kernel_size)
    stride = normalize(stride)
    s_arr = np.array(to_tuple(stride, name="stride"), dtype=np.int64)
    offsets = kernel_offsets(kernel_size)
    vol = offsets.shape[0]
    n_in = int(np.asarray(in_coords).shape[0])
    n_out = int(np.asarray(out_coords).shape[0])

    symmetric_ok = use_symmetry and stride == 1 and is_all_odd(kernel_size)
    center = center_offset_index(kernel_size)

    ins: list = [None] * vol
    outs: list = [None] * vol
    mirrored = 0

    # offsets to probe: all of them, or under symmetry neither the
    # center (identity) nor an offset whose opposite comes earlier
    probed = [
        n
        for n in range(vol)
        if not symmetric_ok
        or (n != center and opposite_offset_index(n, kernel_size) > n)
    ]
    if symmetric_ok:
        # stride-1 center: every point maps to itself, no probing
        ins[center] = np.arange(n_out, dtype=np.int64)
        outs[center] = np.arange(n_out, dtype=np.int64)
    # scale once per layer: every probed offset is a shift of these probes
    scaled = np.asarray(out_coords, dtype=np.int64) * np.append(1, s_arr)
    hit_vals = index.lookup(scaled, shifts=offsets[probed])
    for n, vals in zip(probed, hit_vals):
        hits = vals >= 0
        j, k = vals[hits], np.flatnonzero(hits)
        ins[n], outs[n] = j, k
        if symmetric_ok:
            # (q, p, W_{-delta}) is a valid entry iff (p, q, W_delta) is
            opp = opposite_offset_index(n, kernel_size)
            ins[opp], outs[opp] = k.copy(), j.copy()
            mirrored += len(k)

    kmap = KernelMap(
        kernel_size=kernel_size,
        stride=stride,
        n_in=n_in,
        n_out=n_out,
        in_indices=ins,
        out_indices=outs,
        queries_issued=n_out * len(probed),
        mirrored_entries=mirrored,
    )
    return kmap
