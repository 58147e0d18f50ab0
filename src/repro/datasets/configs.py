"""Per-dataset sensor and voxelization presets.

Each preset mirrors the salient properties of its real counterpart —
beam count, range, resolution and voxel size — which is what drives the
paper's cross-dataset differences (nuScenes kernel maps are much smaller
than SemanticKITTI's; Waymo detection scenes are the heaviest).

``scale`` uniformly shrinks the angular resolution so tests and
benchmarks can run the same pipelines on laptop-sized workloads; the
*relative* statistics between datasets are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sparse_tensor import SparseTensor
from repro.datasets.lidar import LidarConfig, PointCloud, multi_frame_scan, scan
from repro.datasets.scenes import make_outdoor_scene
from repro.datasets.voxelize import to_sparse_tensor


@dataclass(frozen=True)
class DatasetConfig:
    """One synthetic dataset preset."""

    name: str
    lidar: LidarConfig
    voxel_size: float
    frames: int = 1
    extent: float = 100.0
    #: optional (z_min, z_max) crop in meters — detection pipelines crop
    #: to the height band of interest, which also bounds grid-table sizes
    z_crop: tuple | None = None

    def sample(self, seed: int = 0, scale: float = 1.0) -> PointCloud:
        """Scan one scene (deterministic in ``seed``)."""
        scene = make_outdoor_scene(seed=seed, extent=self.extent)
        cfg = self.lidar if scale == 1.0 else self.lidar.scaled(scale)
        if self.frames > 1:
            cloud = multi_frame_scan(scene, cfg, frames=self.frames, seed=seed)
        else:
            cloud = scan(scene, cfg, seed=seed)
        if self.z_crop is not None:
            lo, hi = self.z_crop
            keep = (cloud.xyz[:, 2] >= lo) & (cloud.xyz[:, 2] <= hi)
            cloud = PointCloud(
                xyz=cloud.xyz[keep],
                intensity=cloud.intensity[keep],
                labels=cloud.labels[keep],
            )
        return cloud

    def sample_tensor(self, seed: int = 0, scale: float = 1.0) -> SparseTensor:
        """Scan + voxelize one input."""
        return to_sparse_tensor(self.sample(seed=seed, scale=scale), self.voxel_size)

    def sample_many(
        self, n: int, scale: float = 1.0, seed0: int = 0
    ) -> list:
        """A small evaluation set (the tuner's ~100-sample subset)."""
        return [self.sample_tensor(seed=seed0 + i, scale=scale) for i in range(n)]

    def with_frames(self, frames: int) -> "DatasetConfig":
        from dataclasses import replace

        return replace(self, name=f"{self.name}-{frames}f", frames=frames)

    def cropped(self, z_min: float, z_max: float) -> "DatasetConfig":
        """Detection-style height crop (see ``z_crop``)."""
        from dataclasses import replace

        return replace(self, z_crop=(z_min, z_max))



def semantic_kitti_like() -> DatasetConfig:
    """64-beam close-range segmentation dataset, 5 cm voxels."""
    return DatasetConfig(
        name="semantic-kitti-like",
        lidar=LidarConfig(
            beams=64,
            azimuth_steps=2048,
            fov_up=3.0,
            fov_down=-25.0,
            max_range=80.0,
        ),
        voxel_size=0.05,
    )


def nuscenes_like(frames: int = 1) -> DatasetConfig:
    """32-beam sparser sweeps, 10 cm voxels, optional frame aggregation."""
    base = DatasetConfig(
        name="nuscenes-like",
        lidar=LidarConfig(
            beams=32,
            azimuth_steps=1090,
            fov_up=10.0,
            fov_down=-30.0,
            max_range=70.0,
        ),
        voxel_size=0.1,
    )
    return base if frames == 1 else base.with_frames(frames)


def waymo_like(frames: int = 1) -> DatasetConfig:
    """64-beam mid-range detection dataset, 10 cm voxels."""
    base = DatasetConfig(
        name="waymo-like",
        lidar=LidarConfig(
            beams=64,
            azimuth_steps=2650,
            fov_up=2.4,
            fov_down=-17.6,
            max_range=75.0,
        ),
        voxel_size=0.1,
    )
    return base if frames == 1 else base.with_frames(frames)


#: Registry used by benchmarks and examples.
DATASETS = {
    "semantic-kitti": semantic_kitti_like,
    "nuscenes": nuscenes_like,
    "waymo": waymo_like,
}
