"""Dense 2D ops for the BEV detection head.

CenterPoint's head runs on a dense bird's-eye-view grid — conventional
convolution, not sparse convolution.  The paper bills this (plus NMS) as
the ~10% "other" share of detector runtime (Section 5.2), so these ops
log into the ``other`` stage.

Implementation: im2col + GEMM over the *live* output pixels only — those
whose window holds a non-zero input pixel.  The BEV scatter of a sparse
encoder leaves most of the map exactly zero, and a dead pixel's output
is exactly zero for finite weights, so the host skips it (the premise of
sparse convolution, applied to the head).  The modeled latency still
bills the full dense map from the same roofline used for sparse GEMMs,
because a GPU dense head computes every pixel.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ExecutionContext
from repro.gpu.gemm import mm_cost


def im2col(
    x: np.ndarray,
    k: int,
    stride: int = 1,
    pad: int = 0,
    live: np.ndarray | None = None,
) -> np.ndarray:
    """Extract ``k x k`` patches of an ``(H, W, C)`` map.

    Returns ``(H_out * W_out, k * k * C)`` with rows in raster order.
    ``live``, a boolean ``(H_out, W_out)`` mask, keeps only the patches
    of its true pixels (still in raster order).
    """
    if pad:
        x = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    h, w, c = x.shape
    h_out = (h - k) // stride + 1
    w_out = (w - k) // stride + 1
    shape = (h_out, w_out, k, k, c)
    strides = (
        x.strides[0] * stride,
        x.strides[1] * stride,
        x.strides[0],
        x.strides[1],
        x.strides[2],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    if live is not None:
        return patches[live].reshape(-1, k * k * c)
    return patches.reshape(h_out * w_out, k * k * c)


def _live_pixels(
    x: np.ndarray, k: int, stride: int, pad: int, h_out: int, w_out: int
) -> np.ndarray:
    """``(H_out, W_out)`` mask of the output pixels whose ``k x k``
    window (after padding, at the stride) holds a non-zero input pixel.

    A k² OR of strided slices of the 2-D occupancy mask.  ``x != 0``
    counts NaN and ±inf as occupied and −0.0 as empty.
    """
    occ = np.pad((x != 0).any(axis=2), pad)
    live = np.zeros((h_out, w_out), dtype=bool)
    for di in range(k):
        for dj in range(k):
            live |= occ[di:, dj:][::stride, ::stride][:h_out, :w_out]
    return live


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    ctx: ExecutionContext,
    stride: int = 1,
    pad: int | None = None,
    name: str = "dense.conv2d",
) -> np.ndarray:
    """Dense 2D convolution on an ``(H, W, C_in)`` map.

    Args:
        weight: ``(k, k, C_in, C_out)``.
        pad: defaults to "same" padding for stride 1 (``k // 2``).

    Returns a float32 ``(H_out, W_out, C_out)`` map.  The host multiplies
    only the live rows (:func:`_live_pixels`) and leaves the dead ones
    exactly +0.0, which is what the dense product gives for finite
    weights; if ``weight`` is not all finite, every row is live, so an
    inf or NaN weight poisons zero pixels as IEEE arithmetic says.  The
    modeled cost bills the full ``H_out * W_out`` map either way.

    A pricing context (``ctx.numerics`` off) skips im2col and the GEMM
    and returns zeros of the output shape.
    """
    k, _, c_in, c_out = weight.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"input {x.shape} does not match weight {weight.shape}")
    if pad is None:
        pad = k // 2
    if stride < 1 or pad < 0:
        raise ValueError(
            f"input {x.shape}, weight {weight.shape}: "
            f"stride {stride} must be >= 1 and pad {pad} >= 0"
        )
    h_out = (x.shape[0] + 2 * pad - k) // stride + 1
    w_out = (x.shape[1] + 2 * pad - k) // stride + 1
    if h_out < 0 or w_out < 0:
        raise ValueError(
            f"input {x.shape}, weight {weight.shape}, stride {stride}, "
            f"pad {pad}: negative output map {h_out}x{w_out}"
        )
    out = np.zeros((h_out, w_out, c_out), dtype=np.float32)
    if ctx.numerics:
        live = _live_pixels(x, k, stride, pad, h_out, w_out)
        if not np.isfinite(weight).all():
            live[:] = True
        cols = im2col(x, k, stride=stride, pad=pad, live=live)
        out[live] = cols @ weight.reshape(k * k * c_in, c_out)
    cost = mm_cost(
        h_out * w_out, k * k * c_in, c_out, ctx.engine.config.dtype, ctx.device
    )
    ctx.profile.log(
        name, "other", cost.time, bytes_moved=cost.bytes_moved, flops=cost.flops
    )
    return out


def relu2d(x: np.ndarray, ctx: ExecutionContext, name: str = "dense.relu") -> np.ndarray:
    nbytes = 2 * x.size * ctx.engine.config.dtype.nbytes
    ctx.profile.log(
        name,
        "other",
        ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
        bytes_moved=nbytes,
    )
    return np.maximum(x, 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))
