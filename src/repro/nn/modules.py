"""Sparse inference modules.

All modules are inference-only (the paper evaluates GPU inference) and
hold NumPy weights.  Each module has a dotted ``name`` assigned when it
is attached to a parent — the key under which the tuner's strategy book
stores per-layer ``(epsilon, S)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataflow import freeze_half
from repro.core.engine import ExecutionContext
from repro.core.kernel import kernel_volume
from repro.core.sparse_tensor import SparseTensor, cat
from repro.gpu.gemm import mm_cost


class Module:
    """Base class: named, composable, callable on (tensor, ctx)."""

    def __init__(self) -> None:
        self.name = self.__class__.__name__.lower()
        self._children: dict[str, Module] = {}

    def add_child(self, key: str, child: "Module") -> "Module":
        self._children[key] = child
        child.rename(f"{self.name}.{key}")
        return child

    def rename(self, name: str) -> None:
        """Set this module's dotted name and repath all descendants."""
        self.name = name
        for key, child in self._children.items():
            child.rename(f"{name}.{key}")

    def children(self):
        return list(self._children.values())

    def modules(self):
        """All descendants, depth-first, self included."""
        out = [self]
        for c in self._children.values():
            out.extend(c.modules())
        return out

    def conv_layers(self) -> list:
        """All Conv3d descendants in call order."""
        return [m for m in self.modules() if isinstance(m, Conv3d)]

    def __call__(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        return self.forward(x, ctx)

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        raise NotImplementedError

    def num_parameters(self) -> int:
        return sum(
            p.size for m in self.modules() for p in getattr(m, "params", [])
        )


class Conv3d(Module):
    """Sparse 3D convolution (submanifold, strided, or transposed).

    Args:
        in_channels / out_channels: feature widths.
        kernel_size: cubic kernel extent.
        stride: 1 keeps the coordinate set (submanifold); >1 downsamples
            (or upsamples when ``transposed``).
        transposed: inverse convolution back onto the finer cached level.
        bias: include an additive bias.
        rng: weight-initialization generator (He-style fan-in scaling).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        transposed: bool = False,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.transposed = transposed
        vol = kernel_volume(kernel_size)
        scale = np.sqrt(2.0 / (vol * in_channels))
        self.weight = (
            rng.standard_normal((vol, in_channels, out_channels)) * scale
        ).astype(np.float32)
        self.bias = np.zeros(out_channels, dtype=np.float32) if bias else None
        self.params = [self.weight] + ([self.bias] if bias else [])

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        if x.num_channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, "
                f"got {x.num_channels}"
            )
        return ctx.engine.convolution(
            x,
            self.weight,
            ctx,
            kernel_size=self.kernel_size,
            stride=self.stride,
            transposed=self.transposed,
            bias=self.bias,
            layer_name=self.name,
        )


class BatchNorm(Module):
    """Inference-mode batch normalization (folded scale + shift)."""

    def __init__(self, channels: int, eps: float = 1e-5):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.gamma = np.ones(channels, dtype=np.float32)
        self.beta = np.zeros(channels, dtype=np.float32)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.params = [self.gamma, self.beta]

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        scale = self.gamma / np.sqrt(self.running_var + self.eps)
        feats = x.feats * scale
        feats += self.beta - self.running_mean * scale
        return ctx.engine.pointwise(
            x, feats.astype(np.float32, copy=False), ctx, self.name
        )


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        return ctx.engine.pointwise(x, np.maximum(x.feats, 0), ctx, self.name)


class Linear(Module):
    """Per-point linear layer (the segmentation classifier head)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        scale = np.sqrt(1.0 / in_features)
        self.weight = (
            rng.standard_normal((in_features, out_features)) * scale
        ).astype(np.float32)
        self.bias = np.zeros(out_features, dtype=np.float32) if bias else None
        self.params = [self.weight] + ([self.bias] if bias is not None else [])

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        out = x.feats @ self.weight
        if self.bias is not None:
            out = out + self.bias
        cost = mm_cost(
            x.num_points,
            self.in_features,
            self.out_features,
            ctx.engine.config.dtype,
            ctx.device,
        )
        with ctx.profile.span(self.name, kind="linear"):
            ctx.profile.log(
                self.name,
                "matmul",
                cost.time,
                bytes_moved=cost.bytes_moved,
                flops=cost.flops,
            )
        return x.replace_feats(out.astype(np.float32))


def deploy(model: Module) -> Module:
    """Round every :class:`Conv3d`'s weights to FP16 once; returns ``model``.

    TorchSparse casts a model with ``.half()`` before inference
    (Section 4.3.1).  Here each conv's ``weight`` goes through
    :func:`~repro.core.dataflow.freeze_half`, which rounds it in place
    into a read-only float32 array of fp16 values that FP16 dataflows
    use without rounding it again on every call.  No second copy is
    kept.

    An FP16 forward is bit-identical with or without ``deploy``; FP32 and
    INT8 forwards of a deployed model run over the rounded weights, as
    over an upcast half checkpoint.  Deploying twice changes nothing.
    """
    for conv in model.conv_layers():
        freeze_half(conv.weight)
    return model


class Sequential(Module):
    """Run children in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.add_child(str(i), layer)

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        for layer in self.layers:
            x = layer(x, ctx)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Residual(Module):
    """``main(x) + shortcut(x)`` with a trailing ReLU (ResNet basic block).

    The shortcut defaults to identity; pass one (e.g. a 1x1x1 Conv3d +
    BatchNorm) when channel counts change.
    """

    def __init__(self, main: Module, shortcut: Module | None = None):
        super().__init__()
        self.main = self.add_child("main", main)
        self.shortcut = (
            self.add_child("shortcut", shortcut) if shortcut is not None else None
        )
        self.relu = self.add_child("relu", ReLU())

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        out = self.main(x, ctx)
        skip = self.shortcut(x, ctx) if self.shortcut is not None else x
        if out.coords.shape != skip.coords.shape or not np.array_equal(
            out.coords, skip.coords
        ):
            raise ValueError(f"{self.name}: residual branches diverged in coords")
        summed = ctx.engine.pointwise(
            out, out.feats + skip.feats, ctx, f"{self.name}.add"
        )
        return self.relu(summed, ctx)


class MaxPool3d(Module):
    """Sparse max pooling over kernel windows (downsamples when
    ``stride > 1``)."""

    def __init__(self, kernel_size=2, stride=2):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        return ctx.engine.pooling(
            x, ctx, kernel_size=self.kernel_size, stride=self.stride, mode="max"
        )


class AvgPool3d(Module):
    """Sparse average pooling (over *present* voxels per window)."""

    def __init__(self, kernel_size=2, stride=2):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        return ctx.engine.pooling(
            x, ctx, kernel_size=self.kernel_size, stride=self.stride, mode="avg"
        )


class GlobalAvgPool(Module):
    """Mean over all points per batch element; returns ``(B, C)``."""

    def forward(self, x: SparseTensor, ctx: ExecutionContext):
        b = x.batch_size
        out = np.zeros((b, x.num_channels), dtype=np.float32)
        for i in range(b):
            mask = x.coords[:, 0] == i
            if mask.any():
                out[i] = x.feats[mask].mean(axis=0)
        nbytes = x.num_points * x.num_channels * ctx.engine.config.dtype.nbytes
        with ctx.profile.span(self.name, kind="pool"):
            ctx.profile.log(
                self.name,
                "other",
                ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
                bytes_moved=nbytes,
            )
        return out


def concat_skip(
    a: SparseTensor, b: SparseTensor, ctx: ExecutionContext, name: str = "cat"
) -> SparseTensor:
    """U-Net skip concatenation, priced as a pointwise copy."""
    out = cat([a, b])
    nbytes = 2 * out.num_points * out.num_channels * ctx.engine.config.dtype.nbytes
    with ctx.profile.span(name, kind="cat"):
        ctx.profile.log(
            name,
            "other",
            ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
            bytes_moved=nbytes,
        )
    return out
