"""Dense 2D ops for the BEV detection head.

CenterPoint's head runs on a dense bird's-eye-view grid — conventional
convolution, not sparse convolution.  The paper bills this (plus NMS) as
the ~10% "other" share of detector runtime (Section 5.2), so these ops
log into the ``other`` stage.

Implementation: the maps travel as rows (:class:`RowMap`), one float
row per stored pixel; every other pixel reads +0.0, and no full
``(H, W, C)`` array is built until the last layer asks for one.  A conv
computes only its *live* output pixels — those whose window holds a
non-zero input value — because the BEV scatter of a sparse encoder
leaves most of the map exactly zero, and a dead pixel's output is
exactly zero for finite weights (the premise of sparse convolution,
applied to the head).  Windows are looked up through one padded integer
index grid per map (pixel → row, a shared zero row elsewhere), as Spira
looks neighbours up by bounded integer coordinates.  The modeled latency
still bills every pixel of every frame's map from the same roofline used
for sparse GEMMs, because a GPU dense head computes every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import ExecutionContext
from repro.gpu.gemm import mm_cost


@dataclass(frozen=True)
class RowMap:
    """The stored pixels of ``B`` 2-D maps, one map per frame.

    ``pix`` holds ascending flat pixel ids ``(b * H + i) * W + j`` on the
    ``(B, H, W)`` grid, where ``(H, W)`` is the largest frame extent, and
    ``rows[n]`` is pixel ``pix[n]``'s feature row.  Frame ``b`` spans
    ``extents[b] = (H_b, W_b)`` of its slab; pixels outside it are
    padding, and every pixel without a row reads +0.0.
    """

    pix: np.ndarray
    rows: np.ndarray
    extents: np.ndarray

    @property
    def grid(self) -> tuple:
        """``(B, H, W)``: frames, then the largest frame extent."""
        h, w = self.extents.max(axis=0).tolist()
        return len(self.extents), h, w

    @property
    def shape(self) -> tuple:
        return (*self.grid, self.rows.shape[1])

    def frames(self) -> list:
        """One float32 ``(H_b, W_b, C)`` map per frame."""
        b, h, w, c = self.shape
        dense = np.zeros((b, h, w, c), dtype=np.float32)
        dense.reshape(-1, c)[self.pix] = self.rows
        extents = self.extents.tolist()
        return [frame[:hb, :wb] for frame, (hb, wb) in zip(dense, extents)]


def _live_pixels(
    x: RowMap, k: int, stride: int, pad: int, out: np.ndarray
) -> np.ndarray:
    """Ascending flat ids on the ``(B, H_out, W_out)`` grid of the output
    pixels (inside their frame's ``out`` extent) whose ``k x k`` window,
    after padding and at the stride, holds a row with a value ``!= 0``.

    NaN and ±inf count as occupied and −0.0 as empty.  Each occupied
    pixel marks the outputs whose window covers it, offset by offset.
    """
    _, h, w = x.grid
    ho, wo = out.max(axis=0).tolist()
    live = np.zeros((len(out), ho, wo), dtype=bool)
    b, ij = np.divmod(x.pix[(x.rows != 0).any(axis=1)], h * w)
    i, j = np.divmod(ij, w)
    hb, wb = out[b, 0], out[b, 1]
    cols = []
    for dj in range(k):
        oj, r = np.divmod(j + pad - dj, stride)
        cols.append((oj, (r == 0) & (oj >= 0) & (oj < wb)))
    for di in range(k):
        oi, r = np.divmod(i + pad - di, stride)
        row_ok = (r == 0) & (oi >= 0) & (oi < hb)
        for oj, col_ok in cols:
            ok = row_ok & col_ok
            live[b[ok], oi[ok], oj[ok]] = True
    return np.flatnonzero(live)


def im2col(x: RowMap, k: int, stride: int, pad: int, live: np.ndarray) -> np.ndarray:
    """The ``k x k`` patches of the output pixels ``live`` (flat ids on
    the ``(B, H_out, W_out)`` grid), one ``k * k * C`` row each, in the
    order of ``live`` — the rows a strided patch view of the padded dense
    maps would give.

    A ``(B, H + 2 pad, W + 2 pad)`` index grid maps each stored pixel to
    its row, and padding and unstored pixels to one shared zero row; a
    window is ``k * k`` grid entries, so windows never cross frames.
    """
    b, h, w = x.grid
    n, c = x.rows.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    wo = (wp - k) // stride + 1
    ho = (hp - k) // stride + 1
    index = np.full((b, hp, wp), n, dtype=np.intp)
    f, ij = np.divmod(x.pix, h * w)
    i, j = np.divmod(ij, w)
    index[f, i + pad, j + pad] = np.arange(n)
    f, ij = np.divmod(live, ho * wo)
    oi, oj = np.divmod(ij, wo)
    corner = (f * hp + oi * stride) * wp + oj * stride
    window = (np.arange(k)[:, None] * wp + np.arange(k)).ravel()
    idx = index.ravel()[corner[:, None] + window]
    rows = np.concatenate([x.rows, np.zeros((1, c), dtype=x.rows.dtype)])
    return np.take(rows, idx, axis=0).reshape(len(live), k * k * c)


def conv2d(
    x: RowMap,
    weight: np.ndarray,
    ctx: ExecutionContext,
    stride: int = 1,
    pad: int | None = None,
    name: str = "dense.conv2d",
) -> RowMap:
    """Dense 2D convolution of every frame's map.

    Args:
        weight: ``(k, k, C_in, C_out)``.
        pad: defaults to "same" padding for stride 1 (``k // 2``).

    Returns the float32 live output rows (:func:`_live_pixels`): a dead
    pixel is exactly +0.0, which is what the dense product gives for
    finite weights.  If ``weight`` is not all finite, every pixel is
    live, so an inf or NaN weight poisons zero pixels as IEEE arithmetic
    says.  Each frame is one GEMM over its live patches, and the modeled
    cost bills each frame's full ``H_out * W_out`` map either way.

    A pricing context (``ctx.numerics`` off) skips the liveness, the
    gather and the GEMM and returns no rows.
    """
    k, _, c_in, c_out = weight.shape
    if x.rows.shape[1] != c_in:
        raise ValueError(f"input {x.shape} does not match weight {weight.shape}")
    if pad is None:
        pad = k // 2
    if stride < 1 or pad < 0:
        raise ValueError(
            f"input {x.shape}, weight {weight.shape}: "
            f"stride {stride} must be >= 1 and pad {pad} >= 0"
        )
    out = (x.extents + 2 * pad - k) // stride + 1
    if (out < 0).any():
        raise ValueError(
            f"input {x.shape}, weight {weight.shape}, stride {stride}, "
            f"pad {pad}: negative output map {out.min(axis=0).tolist()}"
        )
    live = np.zeros(0, dtype=np.intp)
    rows = np.zeros((0, c_out), dtype=np.float32)
    if ctx.numerics:
        if np.isfinite(weight).all():
            live = _live_pixels(x, k, stride, pad, out)
        else:
            ho, wo = out.max(axis=0).tolist()
            every = np.zeros((len(out), ho, wo), dtype=bool)
            for mask, (hb, wb) in zip(every, out.tolist()):
                mask[:hb, :wb] = True
            live = np.flatnonzero(every)
        cols = im2col(x, k, stride, pad, live)
        wmat = weight.reshape(k * k * c_in, c_out)
        rows = np.empty((len(live), c_out), dtype=np.float32)
        per_frame = int(np.prod(out.max(axis=0)))
        bounds = np.searchsorted(live, np.arange(len(out) + 1) * per_frame)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows[lo:hi] = cols[lo:hi] @ wmat
    for h_out, w_out in out.tolist():
        cost = mm_cost(
            h_out * w_out, k * k * c_in, c_out, ctx.engine.config.dtype, ctx.device
        )
        ctx.profile.log(
            name, "other", cost.time, bytes_moved=cost.bytes_moved, flops=cost.flops
        )
    return RowMap(live, rows, out)


def relu2d(x: RowMap, ctx: ExecutionContext, name: str = "dense.relu") -> RowMap:
    for h, w in x.extents.tolist():
        nbytes = 2 * h * w * x.rows.shape[1] * ctx.engine.config.dtype.nbytes
        ctx.profile.log(
            name,
            "other",
            ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
            bytes_moved=nbytes,
        )
    return RowMap(x.pix, np.maximum(x.rows, 0), x.extents)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
