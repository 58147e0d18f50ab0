"""Output-coordinate calculation for strided convolution (Algorithm 3).

For stride ``s > 1`` every input point dilates through the kernel
window; candidates that pass the modular check (and an optional boundary
check) become output coordinates after deduplication.

The baseline GPU implementation runs this as **five kernels** with DRAM
round-trips between them (Section 4.4 / Figure 10):

1. ``broadcast_add`` — candidates ``u = p - delta``,
2. modular check ``u % s == 0``,
3. boundary check / mask,
4. 1-D key conversion,
5. ``unique``.

TorchSparse fuses stages 1-4 into one kernel holding intermediates in
registers.  Numerically both paths are identical here; they differ in
the :class:`DownsampleCost` the engine prices (intermediate traffic
eliminated, kernel launches 5 -> 2).

The host never materializes the ``N x K^3`` candidate stream.  A
candidate ``p - delta`` passes the modular check iff ``delta = p
(mod s)`` on every axis, so the host groups the points by residue class
once and emits each offset's survivors as its class's rows, shifted.
The cost still bills the unfused pipeline's full candidate stream,
because that is what the modeled GPU kernels read and write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernel import kernel_offsets
from repro.hashmap.coords import pack_coords, unpack_coords

#: bytes of one coordinate record in the candidate streams (4 x int32)
_COORD_BYTES = 16
#: bytes of one packed 1-D key
_KEY_BYTES = 8


@dataclass(frozen=True)
class DownsampleCost:
    """DRAM accounting of one output-coordinate calculation.

    ``stage_bytes`` lists the traffic of the five unfused kernels; the
    fused path pays ``fused_bytes`` instead of the sum of stages 1-4.
    ``unique_bytes`` (stage 5) is paid either way.
    """

    n_in: int
    n_candidates: int
    n_out: int
    stage_bytes: tuple
    fused_bytes: int
    unique_bytes: int

    def total_bytes(self, fused: bool) -> int:
        if fused:
            return self.fused_bytes + self.unique_bytes
        return sum(self.stage_bytes) + self.unique_bytes

    def launches(self, fused: bool) -> int:
        return 2 if fused else 5


def downsample_coords_reference(
    coords: np.ndarray, kernel_size, stride
) -> np.ndarray:
    """Slow oracle: literal Algorithm 3 with Python dict deduplication."""
    from repro.core.kernel import to_tuple

    s = np.array(to_tuple(stride, name="stride"), dtype=np.int64)
    offsets = kernel_offsets(kernel_size)
    seen: dict = {}
    for p in np.asarray(coords, dtype=np.int64):
        for d in offsets:
            u = p[1:] - d
            if (u % s == 0).all():
                q = (int(p[0]), *(u // s))
                seen.setdefault(q, None)
    if not seen:
        return np.empty((0, 4), dtype=np.int32)
    out = np.array(sorted(seen.keys()), dtype=np.int32)
    return out


def downsample_coords(
    coords: np.ndarray,
    kernel_size,
    stride,
    boundary: np.ndarray | None = None,
) -> tuple[np.ndarray, DownsampleCost]:
    """Vectorized Algorithm 3; returns sorted unique output coordinates.

    Args:
        coords: ``(N, 4)`` input coordinates.
        kernel_size: kernel extent ``K`` (int or per-axis tuple).
        stride: downsampling stride (int or per-axis tuple); at least
            one axis must exceed 1, and axes at stride 1 pass through.
        boundary: optional per-axis exclusive upper bound ``b`` on output
            coordinates (the paper's ``u < s * b`` check); ``None``
            disables trimming (matching SpConv's dilate-everything
            convention our dense oracle also uses).
    """
    from repro.core.kernel import to_tuple

    s = np.array(to_tuple(stride, name="stride"), dtype=np.int64)
    if (s < 1).any() or (s == 1).all():
        raise ValueError("downsample_coords requires stride > 1 on some axis")
    c = np.asarray(coords, dtype=np.int64)
    n_in = c.shape[0]
    offsets = kernel_offsets(kernel_size).astype(np.int64)
    vol = offsets.shape[0]

    # stages 1-3 per residue class: p - delta passes the modular check
    # iff delta = p (mod s) on every axis, and then (p - delta) / s is
    # exactly p // s - delta // s.  So the points are grouped by class
    # once, and each offset's candidates are its class's rows shifted.
    radix = np.array([s[1] * s[2], s[2], 1], dtype=np.int64)
    point_class = np.mod(c[:, 1:], s) @ radix
    order = np.argsort(point_class, kind="stable")
    counts = np.bincount(point_class, minlength=int(np.prod(s)))
    starts = np.concatenate([[0], np.cumsum(counts)])
    grouped = c[order]
    grouped[:, 1:] //= s
    offset_class = np.mod(offsets, s) @ radix
    shift = np.zeros((vol, 4), dtype=np.int64)
    shift[:, 1:] = offsets // s

    kept = np.empty((int(counts[offset_class].sum()), 4), dtype=np.int64)
    at = 0
    for k, cls in enumerate(offset_class):
        rows = grouped[starts[cls] : starts[cls + 1]]
        np.subtract(rows, shift[k], out=kept[at : at + rows.shape[0]])
        at += rows.shape[0]

    # boundary check: u = s*q, so 0 <= u < s*b iff 0 <= q < b
    if boundary is not None:
        b = np.asarray(boundary, dtype=np.int64)
        q = kept[:, 1:]
        kept = kept[((q >= 0) & (q < b)).all(axis=1)]
    n_candidates = int(kept.shape[0])

    # stage 4: 1-D key conversion
    keys = pack_coords(kept) if n_candidates else np.empty(0, dtype=np.int64)

    # stage 5: unique
    uniq = np.unique(keys)
    out = unpack_coords(uniq)
    n_out = int(out.shape[0])

    # --- cost accounting (bytes written + read across stage boundaries) ---
    cand_records = n_in * vol
    stage_bytes = (
        # 1: read N coords, write N*K^3 candidate records
        n_in * _COORD_BYTES + cand_records * _COORD_BYTES,
        # 2: read candidates, write mask + compacted survivors
        cand_records * _COORD_BYTES + cand_records + n_candidates * _COORD_BYTES,
        # 3: read survivors, write mask + survivors
        n_candidates * _COORD_BYTES + n_candidates + n_candidates * _COORD_BYTES,
        # 4: read survivors, write 1-D keys
        n_candidates * _COORD_BYTES + n_candidates * _KEY_BYTES,
        # 5 priced separately in unique_bytes
    )
    # fused 1-4: read inputs once, write final keys once
    fused_bytes = n_in * _COORD_BYTES + n_candidates * _KEY_BYTES
    # unique: radix-sort style, ~2 passes over the keys + output write
    unique_bytes = 2 * 2 * n_candidates * _KEY_BYTES + n_out * _COORD_BYTES

    cost = DownsampleCost(
        n_in=n_in,
        n_candidates=n_candidates,
        n_out=n_out,
        stage_bytes=stage_bytes,
        fused_bytes=fused_bytes,
        unique_bytes=unique_bytes,
    )
    return out, cost
