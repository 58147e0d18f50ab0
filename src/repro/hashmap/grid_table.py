"""Collision-free grid table over coordinate bounding boxes.

The "grid" backend of map search (Section 4.4): a dense array covering
the (batch x spatial) bounding box of the coordinates.  Every build or
query touches exactly one slot, so DRAM traffic per entry is minimal —
the paper measures it 2.7x faster than a general hashmap — at the price
of memory proportional to the box volume, which is why TorchSparse
*chooses* between grid and hashmap per layer.

The dense box is the *modeled* cost: ``stats.table_bytes`` is
``volume x 8`` and every build or query is one access, which is what
the engine prices and budgets.  The host does not need the dense array
to give the same answers, so it holds only the occupied slots: the
sorted raveled slot indices and their values (Minuet's sorted-coordinate
lookup), O(N) in memory however large the box, probed with a binary
search.

Kernel-map search asks for the same probe set at many offsets, and
inside the box the raveled key is linear in the coordinate, so
:meth:`GridTable.lookup` takes ``shifts``: it ravels the probes once and
searches ``base + shift·strides`` per shift.  z has stride 1 in the
raveled key and the keys are unique integers, so the insertion point of
``k + 1`` is that of ``k`` plus ``[k in keys]``: a shift one z step past
the previous one reuses that search instead of running its own, and a
3-wide kernel needs a third of the searches.  A scalar test of the probe
set's per-axis min/max plus each shift proves the whole shifted set is
inside the box; only when it fails are that shift's hits masked row by
row, since a key outside the box aliases a real slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hashmap.coords import ravel_coords
from repro.hashmap.hash_table import HashStats
from repro.obs.metrics import get_registry
from repro.robust.errors import GridMemoryError

_EMPTY = np.int64(-1)


@dataclass
class GridTable:
    """Dense ``coordinate -> value`` table over a fixed bounding box.

    Args:
        origin: per-column lower bound ``(batch, x, y, z)``.
        shape: per-column extent; the table models ``prod(shape)`` slots.
    """

    origin: np.ndarray
    shape: np.ndarray
    stats: HashStats = field(default_factory=HashStats)

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.int64)
        self.shape = np.asarray(self.shape, dtype=np.int64)
        if self.origin.shape != (4,) or self.shape.shape != (4,):
            raise ValueError("origin and shape must be length-4")
        if (self.shape <= 0).any():
            raise ValueError("shape entries must be positive")
        self._volume = int(np.prod(self.shape))
        # host backing: occupied slots only, keys strictly increasing
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=np.int64)
        self.stats.table_bytes = self._volume * 8
        self.stats.max_probe_len = 1

    @staticmethod
    def box(coords: np.ndarray, margin: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(origin, shape)`` of the box covering ``coords``, widened by
        ``margin`` voxels on both sides of every spatial axis."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape[0] == 0:
            raise ValueError("cannot size a grid table from zero coordinates")
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        lo[1:] -= margin
        hi[1:] += margin
        return lo, hi - lo + 1

    @classmethod
    def from_coords(
        cls,
        coords: np.ndarray,
        values: np.ndarray | None = None,
        margin: int = 0,
        max_bytes: int | None = None,
    ) -> "GridTable":
        """Build a grid table covering ``coords`` (plus a spatial margin).

        The margin widens the box so that neighbor queries at kernel
        offsets up to ``margin`` voxels stay inside the table.

        Args:
            max_bytes: budget for the modeled dense slot array; exceeding
                it raises :class:`~repro.robust.errors.GridMemoryError`
                (a ``MemoryError``), as the modeled GPU would OOM.
        """
        coords = np.asarray(coords, dtype=np.int64)
        lo, shape = cls.box(coords, margin)
        if max_bytes is not None:
            volume = int(np.prod(shape))
            if volume * 8 > max_bytes:
                raise GridMemoryError(
                    f"grid table of {volume} slots ({volume * 8} bytes) "
                    f"exceeds the {max_bytes}-byte budget"
                )
        table = cls(origin=lo, shape=shape)
        if values is None:
            values = np.arange(coords.shape[0], dtype=np.int64)
        table.insert(coords, values)
        return table

    def insert(self, coords: np.ndarray, values: np.ndarray) -> None:
        """Insert coordinate rows (later duplicates overwrite earlier)."""
        coords = np.asarray(coords, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if coords.shape[0] != values.shape[0]:
            raise ValueError("coords and values must have matching lengths")
        if coords.shape[0] == 0:
            return
        if (values < 0).any():
            raise ValueError("grid table values must be non-negative")
        idx = ravel_coords(coords, self.origin, self.shape)
        keys = np.concatenate([self._keys, idx])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # stable order puts the latest write last in each run of equal keys
        last = np.empty(keys.shape[0], dtype=bool)
        last[-1] = True
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        self._keys = keys[last]
        self._vals = np.concatenate([self._vals, values])[order][last]
        self.stats.build_accesses += coords.shape[0]
        reg = get_registry()
        reg.counter("table.accesses", backend="grid", op="build").inc(
            coords.shape[0]
        )
        reg.gauge("table.load", backend="grid").set(len(self) / self.volume)

    def lookup(
        self, coords: np.ndarray, shifts: np.ndarray | None = None
    ) -> np.ndarray:
        """Value per coordinate row, ``-1`` where absent or out of box.

        With ``shifts`` (``(S, 3)`` spatial offsets) the result is
        ``(S, N)``: row ``i`` answers the probes ``coords + (0, shifts[i])``.
        Inside the box the raveled key is linear in the coordinate, so
        ``coords`` is raveled once and each shift adds one scalar key
        before its binary search; a shift one z step past the previous
        one steps the previous search's positions by its hits instead
        of searching again.  A shifted key that leaves the box
        would alias a real slot, so when the probe set's per-axis
        min/max plus the shift is not inside the box, that shift's hits
        are masked by the per-row box test.  Plain ``lookup(coords)`` is
        the zero-shift case and returns ``(N,)``.

        Every probe is one modeled access: a call adds ``S x N`` to
        ``stats.query_accesses`` and the grid query counter.
        """
        coords = np.asarray(coords, dtype=np.int64)
        single = shifts is None
        shifts = np.asarray(
            [(0, 0, 0)] if single else shifts, dtype=np.int64
        ).reshape(-1, 3)
        n = coords.shape[0]
        out = np.full((shifts.shape[0], n), _EMPTY, dtype=np.int64)
        if n == 0 or shifts.shape[0] == 0:
            return out[0] if single else out
        if len(self):
            rel = coords - self.origin
            lo, hi = rel.min(axis=0), rel.max(axis=0)
            strides = np.append(np.cumprod(self.shape[:0:-1])[::-1], 1)
            base = rel @ strides
            shift_keys = shifts @ strides[1:]
            # one step up in z is +1 in the key (z's stride is 1)
            z_step = np.zeros(shifts.shape[0], dtype=bool)
            z_step[1:] = (np.diff(shifts, axis=0) == (0, 0, 1)).all(axis=1)
            leaves_box = (
                (lo[0] < 0)
                | (hi[0] >= self.shape[0])
                | (lo[1:] + shifts < 0).any(axis=1)
                | (hi[1:] + shifts >= self.shape[1:]).any(axis=1)
            )
            keys, last = self._keys, self._keys.shape[0] - 1
            for i, d in enumerate(shifts):
                if z_step[i]:
                    # keys are unique integers, so the insertion point of
                    # k + 1 is that of k plus [k in keys]: the raw hit,
                    # never the box-masked one
                    idx += 1
                    pos += hit
                else:
                    idx = base + shift_keys[i]
                    pos = np.searchsorted(keys, idx)
                at = np.minimum(pos, last)
                hit = keys[at] == idx
                found = hit
                if leaves_box[i]:
                    moved = rel.copy()
                    moved[:, 1:] += d
                    found = hit & ((moved >= 0) & (moved < self.shape)).all(axis=1)
                out[i] = np.where(found, self._vals[at], _EMPTY)
        accesses = n * shifts.shape[0]
        self.stats.query_accesses += accesses
        get_registry().counter("table.accesses", backend="grid", op="query").inc(
            accesses
        )
        return out[0] if single else out

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean membership per coordinate row."""
        return self.lookup(coords) != _EMPTY

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    @property
    def volume(self) -> int:
        """Number of modeled slots (the memory cost of collision freedom)."""
        return self._volume
