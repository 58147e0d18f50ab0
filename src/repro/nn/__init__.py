"""PyTorch-like sparse inference modules built on the engine.

Users compose :class:`Conv3d`, :class:`BatchNorm`, :class:`ReLU`,
:class:`Sequential` etc. exactly as with ``torch.nn`` — no
``indice_key``/``coordinate_manager`` plumbing (Section 4.1).  Every
module's ``__call__`` takes the tensor and an
:class:`~repro.core.engine.ExecutionContext` carrying the engine,
device model and caches.
"""

from repro.nn.modules import (
    AvgPool3d,
    BatchNorm,
    Conv3d,
    GlobalAvgPool,
    Linear,
    MaxPool3d,
    Module,
    ReLU,
    Residual,
    Sequential,
    deploy,
)

__all__ = [
    "Module",
    "Conv3d",
    "BatchNorm",
    "ReLU",
    "Linear",
    "Sequential",
    "Residual",
    "MaxPool3d",
    "AvgPool3d",
    "GlobalAvgPool",
    "deploy",
]
