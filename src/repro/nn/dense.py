"""Dense 2D ops for the BEV detection head.

CenterPoint's head runs on a dense bird's-eye-view grid — conventional
convolution, not sparse convolution.  The paper bills this (plus NMS) as
the ~10% "other" share of detector runtime (Section 5.2), so these ops
log into the ``other`` stage.

Implementation: im2col + GEMM, exact numerics; latency from the same
roofline used for sparse GEMMs, at dense-workload occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ExecutionContext
from repro.gpu.gemm import mm_cost


def im2col(x: np.ndarray, k: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Extract ``k x k`` patches of an ``(H, W, C)`` map.

    Returns ``(H_out * W_out, k * k * C)`` with rows in raster order.
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
    return patches.reshape(h_out * w_out, k * k * c)


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

    A pricing context (``ctx.numerics`` off) skips im2col and the GEMM
    and returns zeros of the output shape.
    """
    k, _, c_in, c_out = weight.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"input {x.shape} does not match weight {weight.shape}")
    if pad is None:
        pad = k // 2
    h_out = (x.shape[0] + 2 * pad - k) // stride + 1
    w_out = (x.shape[1] + 2 * pad - k) // stride + 1
    if ctx.numerics:
        cols = im2col(x, k, stride=stride, pad=pad)
        out = cols @ weight.reshape(k * k * c_in, c_out)
    else:
        out = np.zeros((h_out * w_out, c_out), dtype=np.float32)
    cost = mm_cost(
        h_out * w_out, k * k * c_in, c_out, ctx.engine.config.dtype, ctx.device
    )
    ctx.profile.log(
        name, "other", cost.time, bytes_moved=cost.bytes_moved, flops=cost.flops
    )
    return out.reshape(h_out, w_out, c_out).astype(np.float32)


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
