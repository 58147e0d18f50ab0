"""CenterPoint (Yin et al., 2021) 3D object detector.

Architecture, following the paper's evaluation setup:

1. **sparse 3D encoder** — a SECOND-style backbone: a submanifold stem
   then three strided stages, each one strided sparse conv plus two
   submanifold convs (all executed by the configured sparse engine);
2. **BEV projection** — the stride-8 sparse tensor is flattened along z
   into a dense bird's-eye-view feature map;
3. **dense head** — two shared 3x3 dense convs, a class *center
   heatmap* branch and a box regression branch
   ``(dx, dy, z, log w, log l, log h)``;
4. **decoding** — local-maximum peak picking on the sigmoid heatmap
   followed by axis-aligned BEV NMS.

Stages 2-4 run as conventional dense computation billed to the "other"
profile stage — the ~10% of detector runtime the paper excludes when
quoting sparse-conv speedups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.core.engine import ExecutionContext
from repro.core.sparse_tensor import SparseTensor
from repro.nn.dense import conv2d, relu2d, sigmoid


@dataclass(frozen=True)
class Detection:
    """One decoded box (BEV axis-aligned)."""

    x: float
    y: float
    z: float
    w: float
    l: float  # noqa: E741 - standard box naming
    h: float
    score: float
    label: int


def bev_iou(a: Detection, b: Detection) -> float:
    """Axis-aligned IoU of two boxes in the BEV plane."""
    ax1, ax2 = a.x - a.w / 2, a.x + a.w / 2
    ay1, ay2 = a.y - a.l / 2, a.y + a.l / 2
    bx1, bx2 = b.x - b.w / 2, b.x + b.w / 2
    by1, by2 = b.y - b.l / 2, b.y + b.l / 2
    ix = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    iy = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = ix * iy
    union = a.w * a.l + b.w * b.l - inter
    return 0.0 if union <= 0 else inter / union


def nms(dets: list, iou_threshold: float = 0.5) -> list:
    """Greedy score-descending non-maximum suppression."""
    dets = sorted(dets, key=lambda d: d.score, reverse=True)
    kept: list = []
    for d in dets:
        if all(bev_iou(d, k) <= iou_threshold for k in kept):
            kept.append(d)
    return kept


class SparseEncoder(nn.Module):
    """SECOND-style sparse 3D backbone (stride 1 -> 8)."""

    def __init__(self, in_channels: int, rng: np.random.Generator):
        super().__init__()
        chans = (16, 32, 64, 128)
        self.stem = self.add_child(
            "stem",
            nn.Sequential(
                nn.Conv3d(in_channels, chans[0], 3, rng=rng),
                nn.BatchNorm(chans[0]),
                nn.ReLU(),
            ),
        )
        self.stages = []
        for i in range(3):
            stage = nn.Sequential(
                nn.Conv3d(chans[i], chans[i + 1], 3, stride=2, rng=rng),
                nn.BatchNorm(chans[i + 1]),
                nn.ReLU(),
                nn.Conv3d(chans[i + 1], chans[i + 1], 3, rng=rng),
                nn.BatchNorm(chans[i + 1]),
                nn.ReLU(),
                nn.Conv3d(chans[i + 1], chans[i + 1], 3, rng=rng),
                nn.BatchNorm(chans[i + 1]),
                nn.ReLU(),
            )
            self.stages.append(self.add_child(f"stage{i}", stage))
        self.out_channels = chans[-1]

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        x = self.stem(x, ctx)
        for stage in self.stages:
            x = stage(x, ctx)
        return x


class CenterPoint(nn.Module):
    """Full detector: sparse encoder + dense BEV center head.

    Args:
        in_channels: point feature width.
        num_classes: heatmap classes.
        head_channels: width of the shared dense head convs.
        seed: weight-initialization seed.
    """

    REG_DIMS = 6  # dx, dy, z, log w, log l, log h

    def __init__(
        self,
        in_channels: int = 4,
        num_classes: int = 3,
        head_channels: int = 128,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.encoder = self.add_child("encoder", SparseEncoder(in_channels, rng))
        c = self.encoder.out_channels

        def w2d(k, ci, co):
            return (rng.standard_normal((k, k, ci, co)) * np.sqrt(2 / (k * k * ci))).astype(
                np.float32
            )

        self.head_w1 = w2d(3, c, head_channels)
        self.head_w2 = w2d(3, head_channels, head_channels)
        self.head_w3 = w2d(3, head_channels, head_channels)
        self.heat_w = w2d(1, head_channels, num_classes)
        self.reg_w = w2d(1, head_channels, self.REG_DIMS)
        self.params = [
            self.head_w1, self.head_w2, self.head_w3, self.heat_w, self.reg_w
        ]

    # -- BEV projection ------------------------------------------------------

    @staticmethod
    def to_bev(x: SparseTensor, ctx: ExecutionContext) -> tuple:
        """Flatten a sparse tensor along z into a dense (H, W, C) map.

        Co-located voxels (same x, y) are max-pooled.  Returns the map
        and its (x, y) origin in stride units.
        """
        c = x.coords.astype(np.int64)
        ox, oy = c[:, 1].min(), c[:, 2].min()
        h = int(c[:, 1].max() - ox) + 1
        w = int(c[:, 2].max() - oy) + 1
        # max-pool each occupied cell over its run of voxels in cell order
        cell = (c[:, 1] - ox) * w + (c[:, 2] - oy)
        feats = x.feats
        if (cell[1:] < cell[:-1]).any():
            # a stable sort keeps every cell's voxels in input order; coords
            # in (batch, x, y, z) order, as downsampling emits them, are
            # already in cell order and need no feature copy
            order = np.argsort(cell, kind="stable")
            cell, feats = cell[order], feats[order]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        pooled = np.maximum.reduceat(feats, starts, axis=0)
        pooled[np.isneginf(pooled)] = 0.0
        bev = np.zeros((h, w, x.num_channels), dtype=np.float32)
        bev.reshape(h * w, -1)[cell[starts]] = pooled
        nbytes = x.num_points * x.num_channels * ctx.engine.config.dtype.nbytes * 2
        ctx.profile.log(
            "to_bev",
            "other",
            ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
            bytes_moved=nbytes,
        )
        return bev, (int(ox), int(oy))

    # -- head + decoding -----------------------------------------------------

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> dict:
        feat3d = self.encoder(x, ctx)
        bev, origin = self.to_bev(feat3d, ctx)
        h = relu2d(conv2d(bev, self.head_w1, ctx, name=f"{self.name}.head1"), ctx)
        h = relu2d(conv2d(h, self.head_w2, ctx, name=f"{self.name}.head2"), ctx)
        h = relu2d(conv2d(h, self.head_w3, ctx, name=f"{self.name}.head3"), ctx)
        heatmap = conv2d(h, self.heat_w, ctx, name=f"{self.name}.heatmap")
        reg = conv2d(h, self.reg_w, ctx, name=f"{self.name}.reg")
        return {
            "heatmap": heatmap,
            "regression": reg,
            "bev_origin": origin,
            "bev_stride": feat3d.stride,
            "sparse_features": feat3d,
        }

    def decode(
        self,
        outputs: dict,
        ctx: ExecutionContext,
        voxel_size: float = 0.1,
        score_threshold: float = 0.3,
        iou_threshold: float = 0.5,
        max_dets: int = 100,
    ) -> list:
        """Peak-pick the heatmap and run NMS; returns metric-space boxes."""
        heat = sigmoid(outputs["heatmap"])
        reg = outputs["regression"]
        ox, oy = outputs["bev_origin"]
        stride = outputs["bev_stride"]
        cell = voxel_size * stride

        # 3x3 local-maximum test per class
        hpad = np.pad(heat, ((1, 1), (1, 1), (0, 0)), constant_values=-1)
        neigh = np.stack(
            [
                hpad[1 + dy : hpad.shape[0] - 1 + dy, 1 + dx : hpad.shape[1] - 1 + dx]
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dy, dx) != (0, 0)
            ]
        ).max(axis=0)
        peaks = (heat >= neigh) & (heat >= score_threshold)

        dets: list = []
        ys, xs, cls = np.nonzero(peaks)
        order = np.argsort(heat[ys, xs, cls])[::-1][:max_dets]
        for i in order:
            yy, xx, cc = int(ys[i]), int(xs[i]), int(cls[i])
            r = reg[yy, xx]
            dets.append(
                Detection(
                    x=(yy + ox + float(np.tanh(r[0]))) * cell,
                    y=(xx + oy + float(np.tanh(r[1]))) * cell,
                    z=float(r[2]),
                    w=float(np.exp(np.clip(r[3], -3, 3))) * cell,
                    l=float(np.exp(np.clip(r[4], -3, 3))) * cell,
                    h=float(np.exp(np.clip(r[5], -3, 3))),
                    score=float(heat[yy, xx, cc]),
                    label=cc,
                )
            )
        nbytes = heat.size * 4 * 2
        ctx.profile.log(
            "nms",
            "other",
            ctx.device.mem_time(nbytes) + 10 * ctx.device.launch_overhead,
            bytes_moved=nbytes,
        )
        return nms(dets, iou_threshold)
