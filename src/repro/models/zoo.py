"""The paper's seven evaluated model/dataset pairs (Section 5.1).

=====  =======================  ===========================
 #     model                    dataset
=====  =======================  ===========================
 1     MinkUNet (0.5x)          SemanticKITTI
 2     MinkUNet (1.0x)          SemanticKITTI
 3     MinkUNet (1 frame)       nuScenes-LiDARSeg
 4     MinkUNet (3 frames)      nuScenes-LiDARSeg
 5     CenterPoint (10 frames)  nuScenes detection
 6     CenterPoint (1 frame)    Waymo Open Dataset
 7     CenterPoint (3 frames)   Waymo Open Dataset
=====  =======================  ===========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datasets.configs import DatasetConfig, nuscenes_like, semantic_kitti_like, waymo_like
from repro.models.centerpoint import CenterPoint
from repro.models.minkunet import MinkUNet
from repro.nn.modules import Module, deploy


@dataclass(frozen=True)
class ZooEntry:
    """One benchmark row: how to build the model and its dataset.

    ``make_model`` returns the model deployed (:func:`repro.nn.deploy`):
    its conv weights are rounded to FP16 once, at build.
    """

    key: str
    label: str
    task: str  # "segmentation" | "detection"
    make_model: Callable[[], Module]
    make_dataset: Callable[[], DatasetConfig]


MODEL_ZOO = (
    ZooEntry(
        key="minkunet_0.5x_kitti",
        label="MinkUNet (0.5x) / SemanticKITTI",
        task="segmentation",
        make_model=lambda: deploy(MinkUNet(width=0.5)),
        make_dataset=semantic_kitti_like,
    ),
    ZooEntry(
        key="minkunet_1.0x_kitti",
        label="MinkUNet (1.0x) / SemanticKITTI",
        task="segmentation",
        make_model=lambda: deploy(MinkUNet(width=1.0)),
        make_dataset=semantic_kitti_like,
    ),
    ZooEntry(
        key="minkunet_1f_nuscenes",
        label="MinkUNet (1 frame) / nuScenes-LiDARSeg",
        task="segmentation",
        make_model=lambda: deploy(MinkUNet(width=1.0, num_classes=16)),
        make_dataset=lambda: nuscenes_like(frames=1),
    ),
    ZooEntry(
        key="minkunet_3f_nuscenes",
        label="MinkUNet (3 frames) / nuScenes-LiDARSeg",
        task="segmentation",
        make_model=lambda: deploy(MinkUNet(width=1.0, num_classes=16)),
        make_dataset=lambda: nuscenes_like(frames=3),
    ),
    ZooEntry(
        key="centerpoint_10f_nuscenes",
        label="CenterPoint (10 frames) / nuScenes",
        task="detection",
        make_model=lambda: deploy(CenterPoint(num_classes=10)),
        make_dataset=lambda: nuscenes_like(frames=10).cropped(-0.5, 6.0),
    ),
    ZooEntry(
        key="centerpoint_1f_waymo",
        label="CenterPoint (1 frame) / Waymo",
        task="detection",
        make_model=lambda: deploy(CenterPoint(num_classes=3)),
        make_dataset=lambda: waymo_like(frames=1).cropped(-0.5, 6.0),
    ),
    ZooEntry(
        key="centerpoint_3f_waymo",
        label="CenterPoint (3 frames) / Waymo",
        task="detection",
        make_model=lambda: deploy(CenterPoint(num_classes=3)),
        make_dataset=lambda: waymo_like(frames=3).cropped(-0.5, 6.0),
    ),
)


def model_zoo() -> tuple:
    """All seven entries, in the paper's order."""
    return MODEL_ZOO
