"""Tests for MinkUNet, CenterPoint and the model zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BaselineEngine, ExecutionContext, TorchSparseEngine
from repro.datasets.configs import nuscenes_like, waymo_like
from repro.models import MODEL_ZOO, CenterPoint, MinkUNet
from repro.core.sparse_tensor import SparseTensor
from repro.models.centerpoint import Detection, bev_iou, nms
from repro.robust.tolerance import END_TO_END


@pytest.fixture(scope="module")
def small_input():
    return nuscenes_like().sample_tensor(seed=0, scale=0.15)


@pytest.fixture(scope="module")
def det_input():
    return waymo_like().cropped(-0.5, 6.0).sample_tensor(seed=0, scale=0.15)


class TestMinkUNet:
    def test_forward_shapes(self, small_input):
        net = MinkUNet(in_channels=4, num_classes=16, width=0.5)
        ctx = ExecutionContext(engine=BaselineEngine())
        y = net(small_input, ctx)
        assert y.num_points == small_input.num_points
        assert y.num_channels == 16
        assert np.array_equal(y.coords, small_input.coords)

    def test_width_scales_parameters(self):
        full = MinkUNet(width=1.0).num_parameters()
        half = MinkUNet(width=0.5).num_parameters()
        assert half < full / 2.5

    def test_deterministic_in_seed(self, small_input):
        outs = []
        for _ in range(2):
            net = MinkUNet(width=0.5, seed=11)
            ctx = ExecutionContext(engine=BaselineEngine())
            outs.append(net(small_input, ctx).feats)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_engines_agree(self, small_input):
        net = MinkUNet(width=0.5, num_classes=8)
        feats = {}
        for eng in (BaselineEngine(), TorchSparseEngine()):
            ctx = ExecutionContext(engine=eng)
            feats[eng.config.name] = net(small_input, ctx).feats
        END_TO_END.assert_close(feats["torchsparse"], feats["baseline-fp32"])

    def test_profile_covers_all_stages(self, small_input):
        net = MinkUNet(width=0.5)
        ctx = ExecutionContext(engine=BaselineEngine())
        net(small_input, ctx)
        st = ctx.profile.stage_times()
        assert all(st[s] > 0 for s in ("mapping", "gather", "matmul", "scatter"))


class TestCenterPoint:
    def test_forward_outputs(self, det_input):
        net = CenterPoint(num_classes=3)
        ctx = ExecutionContext(engine=BaselineEngine())
        out = net(det_input, ctx)
        hm, reg = out["heatmap"], out["regression"]
        assert hm.ndim == 3 and hm.shape[2] == 3
        assert reg.shape[:2] == hm.shape[:2] and reg.shape[2] == CenterPoint.REG_DIMS
        assert out["sparse_features"].stride == 8

    def test_decode_returns_detections(self, det_input):
        net = CenterPoint(num_classes=3)
        ctx = ExecutionContext(engine=BaselineEngine())
        out = net(det_input, ctx)
        dets = net.decode(out, ctx, score_threshold=0.0, max_dets=20)
        assert len(dets) <= 20
        for d in dets:
            assert 0 <= d.label < 3
            assert d.w > 0 and d.l > 0

    def test_dense_head_billed_as_other(self, det_input):
        net = CenterPoint(num_classes=3)
        ctx = ExecutionContext(engine=BaselineEngine())
        net(det_input, ctx)
        assert ctx.profile.stage_times()["other"] > 0


def bev_oracle(coords, feats):
    """Per-voxel max over each (x, y) cell; empty and all ``-inf`` cells
    read 0."""
    ox, oy = coords[:, 1].min(), coords[:, 2].min()
    h = coords[:, 1].max() - ox + 1
    w = coords[:, 2].max() - oy + 1
    best = {}
    for (_, x, y, _), f in zip(coords.tolist(), feats.tolist()):
        cell = (x - ox, y - oy)
        best[cell] = [max(a, b) for a, b in zip(best.get(cell, f), f)]
    bev = np.zeros((h, w, feats.shape[1]), dtype=np.float32)
    for cell, f in best.items():
        bev[cell] = [0.0 if v == -np.inf else v for v in f]
    return bev, (ox, oy)


class TestToBev:
    def _run(self, coords, feats):
        x = SparseTensor(np.asarray(coords), np.asarray(feats, dtype=np.float32))
        ctx = ExecutionContext(engine=BaselineEngine())
        return CenterPoint.to_bev(x, ctx)

    def test_cases(self):
        """Co-located voxels, an all-negative cell, ``-inf`` features and
        empty cells on the map's edges."""
        inf = np.inf
        coords = np.array(
            [
                [0, 2, 5, 0],  # cell (0, 0): two voxels along z
                [0, 2, 5, 3],
                [0, 4, 6, 1],  # cell (2, 1): all negative
                [0, 4, 6, 2],
                [0, 3, 7, 0],  # cell (1, 2): -inf only
                [0, 3, 8, 0],  # cell (1, 3): -inf next to a finite value
                [0, 3, 8, 1],
            ]
        )
        feats = [
            [1.0, -2.0],
            [0.5, 3.0],
            [-4.0, -1.5],
            [-3.0, -2.5],
            [-inf, -inf],
            [-inf, 2.0],
            [-1.0, -inf],
        ]
        bev, origin = self._run(coords, feats)
        want, want_origin = bev_oracle(coords, np.array(feats, dtype=np.float32))
        assert origin == want_origin == (2, 5)
        assert bev.shape == (3, 4, 2) and bev.dtype == np.float32
        assert np.array_equal(bev, want)
        assert bev[0, 0].tolist() == [1.0, 3.0]
        assert bev[2, 1].tolist() == [-3.0, -1.5]
        assert bev[1, 2].tolist() == [0.0, 0.0]
        assert bev[1, 3].tolist() == [-1.0, 2.0]
        # corners and the rest of the edges hold no voxel
        assert not bev[0, 3].any() and not bev[2, 0].any()

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_voxel_max(self, rows, in_cell_order, data):
        value = st.sampled_from([-np.inf, -2.5, -1.0, 0.0, 0.5, 7.0])
        feats = np.array(
            data.draw(
                st.lists(
                    st.tuples(value, value, value),
                    min_size=len(rows),
                    max_size=len(rows),
                )
            ),
            dtype=np.float32,
        )
        if in_cell_order:
            rows = sorted(rows)
        coords = np.array([(0, *r) for r in rows])
        bev, origin = self._run(coords, feats)
        want, want_origin = bev_oracle(coords, feats)
        assert origin == want_origin
        assert np.array_equal(bev, want)


class TestNMS:
    def _det(self, x, y, score, label=0, size=2.0):
        return Detection(x=x, y=y, z=0, w=size, l=size, h=1.5, score=score,
                         label=label)

    def test_iou_identical(self):
        d = self._det(0, 0, 0.9)
        assert bev_iou(d, d) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert bev_iou(self._det(0, 0, 0.9), self._det(10, 10, 0.9)) == 0.0

    def test_nms_suppresses_overlaps(self):
        dets = [self._det(0, 0, 0.9), self._det(0.1, 0.1, 0.5), self._det(10, 0, 0.8)]
        kept = nms(dets, iou_threshold=0.5)
        assert len(kept) == 2
        assert kept[0].score == 0.9

    def test_nms_keeps_highest_scores_first(self):
        dets = [self._det(0, 0, 0.2), self._det(0, 0, 0.9)]
        kept = nms(dets, iou_threshold=0.5)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_nms_empty(self):
        assert nms([]) == []


class TestModelZoo:
    def test_seven_entries(self):
        assert len(MODEL_ZOO) == 7
        assert sum(e.task == "segmentation" for e in MODEL_ZOO) == 4
        assert sum(e.task == "detection" for e in MODEL_ZOO) == 3

    def test_keys_unique(self):
        keys = [e.key for e in MODEL_ZOO]
        assert len(set(keys)) == 7

    def test_factories_construct(self):
        for e in MODEL_ZOO[:2]:
            model = e.make_model()
            ds = e.make_dataset()
            assert model is not None and ds.name
