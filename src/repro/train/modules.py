"""Trainable modules and the segmentation loss.

Training-mode counterparts of :mod:`repro.nn`: they operate on
:class:`~repro.train.autograd.Var` feature matrices and a coordinate
context (strides + kernel maps) provided by
:class:`~repro.train.modules.MapProvider`, which delegates mapping to
the inference engine so both halves of the system share one coordinate
pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernel import kernel_volume
from repro.mapping.downsample import downsample_coords
from repro.mapping.kmap import CoordIndex, KernelMap, build_kmap
from repro.train.autograd import (
    Param,
    Var,
    add_bias,
    log_softmax,
    mul_rows,
    relu,
)
from repro.train.ops import sparse_conv


class MapProvider:
    """Coordinate/map bookkeeping for one training input.

    Holds the per-stride coordinate sets and kernel maps of one point
    cloud, mirroring what :class:`repro.core.engine.ExecutionContext`
    caches during inference.
    """

    def __init__(self, coords: np.ndarray):
        self.coords_at_stride: dict[int, np.ndarray] = {1: np.asarray(coords)}
        self._indices: dict[int, CoordIndex] = {}
        self._kmaps: dict[tuple, KernelMap] = {}

    def _index(self, stride: int) -> CoordIndex:
        if stride not in self._indices:
            self._indices[stride] = CoordIndex.build(
                self.coords_at_stride[stride], backend="hash"
            )
        return self._indices[stride]

    def kmap(self, in_stride: int, kernel_size: int, stride: int) -> KernelMap:
        """Map for a conv at ``in_stride`` (downsampling when stride>1)."""
        out_stride = in_stride * stride
        key = (in_stride, out_stride, kernel_size)
        if key in self._kmaps:
            return self._kmaps[key]
        in_coords = self.coords_at_stride[in_stride]
        if stride == 1:
            out_coords = in_coords
        else:
            out_coords = self.coords_at_stride.get(out_stride)
            if out_coords is None:
                out_coords, _ = downsample_coords(in_coords, kernel_size, stride)
                self.coords_at_stride[out_stride] = out_coords
        kmap = build_kmap(
            in_coords, self._index(in_stride), out_coords, kernel_size, stride
        )
        self._kmaps[key] = kmap
        return kmap

    def kmap_transposed(
        self, in_stride: int, kernel_size: int, stride: int
    ) -> KernelMap:
        """Transposed map for an upsampling conv at ``in_stride``."""
        fine = in_stride // stride
        if fine * stride != in_stride or fine not in self.coords_at_stride:
            raise ValueError(
                f"cannot upsample from stride {in_stride} by {stride}"
            )
        fwd = self.kmap(fine, kernel_size, stride)
        return fwd.transposed()


class TrainModule:
    """Base: tracks parameters, composable."""

    def __init__(self) -> None:
        self._params: list[Param] = []
        self._children: list[TrainModule] = []

    def register(self, *params: Param) -> None:
        self._params.extend(params)

    def add_child(self, child: "TrainModule") -> "TrainModule":
        self._children.append(child)
        return child

    def parameters(self) -> list:
        out = list(self._params)
        for c in self._children:
            out.extend(c.parameters())
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, x: Var, maps: MapProvider, stride: int = 1):
        return self.forward(x, maps, stride)

    def forward(self, x: Var, maps: MapProvider, stride: int):
        raise NotImplementedError


class TrainConv3d(TrainModule):
    """Trainable sparse conv; returns ``(out, out_stride)`` via Sequential."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        transposed: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.stride = stride
        self.transposed = transposed
        vol = kernel_volume(kernel_size)
        init = np.sqrt(2.0 / (vol * in_channels))
        self.weights = [
            Param(rng.standard_normal((in_channels, out_channels)) * init,
                  name=f"w{n}")
            for n in range(vol)
        ]
        self.bias = Param(np.zeros(out_channels), name="bias")
        self.register(*self.weights, self.bias)

    def forward(self, x: Var, maps: MapProvider, stride: int):
        if self.transposed:
            kmap = maps.kmap_transposed(stride, self.kernel_size, self.stride)
            out_stride = stride // self.stride
        else:
            kmap = maps.kmap(stride, self.kernel_size, self.stride)
            out_stride = stride * self.stride
        out = sparse_conv(x, self.weights, kmap)
        return add_bias(out, self.bias), out_stride


class TrainBatchNorm(TrainModule):
    """Frozen-statistics batch norm: trainable affine over fixed
    normalization (sufficient for the small-scale demos; avoids
    batch-statistic bookkeeping)."""

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Param(np.ones(channels), name="gamma")
        self.beta = Param(np.zeros(channels), name="beta")
        self.register(self.gamma, self.beta)

    def forward(self, x: Var, maps: MapProvider, stride: int):
        return add_bias(mul_rows(x, self.gamma), self.beta), stride


class TrainReLU(TrainModule):
    def forward(self, x: Var, maps: MapProvider, stride: int):
        return relu(x), stride


class TrainLinear(TrainModule):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Param(
            rng.standard_normal((in_features, out_features))
            * np.sqrt(1.0 / in_features),
            name="linear.w",
        )
        self.bias = Param(np.zeros(out_features), name="linear.b")
        self.register(self.weight, self.bias)

    def forward(self, x: Var, maps: MapProvider, stride: int):
        from repro.train.autograd import matmul

        return add_bias(matmul(x, self.weight), self.bias), stride


class TrainSequential(TrainModule):
    def __init__(self, *layers: TrainModule):
        super().__init__()
        self.layers = list(layers)
        for layer in self.layers:
            self.add_child(layer)

    def forward(self, x: Var, maps: MapProvider, stride: int):
        for layer in self.layers:
            x, stride = layer(x, maps, stride)
        return x, stride


def cross_entropy(logits: Var, targets: np.ndarray) -> Var:
    """Mean cross-entropy over points (pure tape composition).

    Args:
        logits: ``(N, num_classes)``.
        targets: ``(N,)`` integer class labels.
    """
    from repro.train.autograd import mean_all, pick_per_row, scale

    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape[0] != logits.data.shape[0]:
        raise ValueError("targets must have one label per point")
    picked = pick_per_row(log_softmax(logits), targets)
    return scale(mean_all(picked), -1.0)
