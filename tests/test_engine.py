"""Tests for engine configuration, caching and the convolution op."""

import numpy as np
import pytest

from repro.core.engine import (
    BaseEngine,
    BaselineEngine,
    EngineConfig,
    ExecutionContext,
    TorchSparseEngine,
)
from repro.core.reference import sparse_conv_reference
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.device import GTX_1080TI, RTX_2080TI, RTX_3090
from repro.gpu.memory import DType
from repro.hashmap.hash_table import HashTable
from repro.mapping.downsample import downsample_coords
from repro.robust.tolerance import CLOSE_FP32, EXACT_FP32, HALF


def make_tensor(n=60, c=6, seed=0, extent=12):
    rng = np.random.default_rng(seed)
    xyz = np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)
    coords = np.concatenate(
        [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
    ).astype(np.int32)
    feats = rng.standard_normal((coords.shape[0], c)).astype(np.float32)
    return SparseTensor(coords, feats)


def make_weights(k, c_in, c_out, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k**3, c_in, c_out)) * 0.2).astype(np.float32)


class TestEngineConfig:
    def test_torchsparse_preset_all_on(self):
        cfg = EngineConfig.torchsparse()
        assert cfg.dtype is DType.FP16
        assert cfg.vectorized and cfg.fused and cfg.locality_aware
        assert cfg.grouping == "adaptive"
        assert cfg.fused_downsample and cfg.simplified_logic and cfg.use_map_symmetry

    def test_baseline_preset_all_off(self):
        cfg = EngineConfig.baseline()
        assert cfg.dtype is DType.FP32
        assert not (cfg.vectorized or cfg.fused or cfg.locality_aware)
        assert cfg.grouping == "separate"

    def test_overrides(self):
        cfg = EngineConfig.torchsparse(grouping="fixed", epsilon=0.1)
        assert cfg.grouping == "fixed" and cfg.epsilon == 0.1

    def test_movement_view(self):
        m = EngineConfig.torchsparse().movement
        assert m.dtype is DType.FP16 and m.vectorized


class TestConvolutionOp:
    def test_stride1_output_correct(self):
        x = make_tensor()
        w = make_weights(3, 6, 10)
        ctx = ExecutionContext(engine=BaselineEngine())
        y = ctx.engine.convolution(x, w, ctx, kernel_size=3)
        want = sparse_conv_reference(x.coords, x.feats, w, x.coords, 3, 1)
        CLOSE_FP32.assert_close(y.feats, want)
        assert np.array_equal(y.coords, x.coords)
        assert y.stride == 1

    def test_downsample_doubles_stride(self):
        x = make_tensor()
        w = make_weights(2, 6, 8)
        ctx = ExecutionContext(engine=BaselineEngine())
        y = ctx.engine.convolution(x, w, ctx, kernel_size=2, stride=2)
        assert y.stride == 2
        want_coords, _ = downsample_coords(x.coords, 2, 2)
        assert np.array_equal(
            np.unique(y.coords, axis=0), np.unique(want_coords, axis=0)
        )
        want = sparse_conv_reference(x.coords, x.feats, w, y.coords, 2, 2)
        CLOSE_FP32.assert_close(y.feats, want)

    def test_bias_applied(self):
        x = make_tensor()
        w = make_weights(1, 6, 4)
        bias = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        ctx = ExecutionContext(engine=BaselineEngine())
        y0 = ctx.engine.convolution(x, w, ctx, kernel_size=1)
        y1 = ctx.engine.convolution(x, w, ctx, kernel_size=1, bias=bias)
        EXACT_FP32.assert_close(y1.feats - y0.feats, np.tile(bias, (x.num_points, 1)))

    def test_transposed_restores_coords(self):
        x = make_tensor()
        ctx = ExecutionContext(engine=BaselineEngine())
        w_down = make_weights(2, 6, 8)
        y = ctx.engine.convolution(x, w_down, ctx, kernel_size=2, stride=2)
        w_up = make_weights(2, 8, 6)
        z = ctx.engine.convolution(
            y, w_up, ctx, kernel_size=2, stride=2, transposed=True
        )
        assert z.stride == 1
        assert np.array_equal(z.coords, x.coords)

    def test_transposed_matches_reference(self):
        """Inverse conv output = transposed-map accumulation."""
        x = make_tensor(seed=5)
        ctx = ExecutionContext(engine=BaselineEngine())
        w_down = make_weights(2, 6, 8)
        y = ctx.engine.convolution(x, w_down, ctx, kernel_size=2, stride=2)
        w_up = make_weights(2, 8, 5)
        z = ctx.engine.convolution(
            y, w_up, ctx, kernel_size=2, stride=2, transposed=True
        )
        # brute force: for every forward map entry (p fine, q coarse, W_n),
        # transposed conv accumulates y[q] @ W_n into z[p]
        from repro.core.kernel import kernel_offsets

        offsets = kernel_offsets(2)
        table = {tuple(map(int, c)): j for j, c in enumerate(x.coords)}
        want = np.zeros((x.num_points, 5), dtype=np.float64)
        for k, q in enumerate(y.coords.astype(np.int64)):
            for n, d in enumerate(offsets):
                p = (int(q[0]), int(q[1] * 2 + d[0]), int(q[2] * 2 + d[1]),
                     int(q[3] * 2 + d[2]))
                j = table.get(p)
                if j is not None:
                    want[j] += y.feats[k].astype(np.float64) @ w_up[n]
        CLOSE_FP32.assert_close(z.feats, want)

    def test_transposed_without_history_fails(self):
        x = make_tensor()
        x = SparseTensor(x.coords, x.feats, stride=2)
        ctx = ExecutionContext(engine=BaselineEngine())
        with pytest.raises(ValueError, match="no cached coordinates"):
            ctx.engine.convolution(
                x, make_weights(2, 6, 4), ctx, kernel_size=2, stride=2,
                transposed=True,
            )

    def test_transposed_stride1_rejected(self):
        x = make_tensor()
        ctx = ExecutionContext(engine=BaselineEngine())
        with pytest.raises(ValueError):
            ctx.engine.convolution(
                x, make_weights(2, 6, 4), ctx, kernel_size=2, stride=1,
                transposed=True,
            )

    def test_empty_tensor_rejected(self):
        x = SparseTensor(np.zeros((0, 4), dtype=np.int32), np.zeros((0, 6)))
        ctx = ExecutionContext(engine=BaselineEngine())
        with pytest.raises(ValueError):
            ctx.engine.convolution(x, make_weights(3, 6, 4), ctx)

    def test_all_engines_agree_numerically(self):
        from repro.baselines import MinkowskiEngineLike, SpConvLike

        x = make_tensor(seed=8)
        w = make_weights(3, 6, 10)
        outs = []
        for eng in [
            BaselineEngine(),
            TorchSparseEngine(),
            MinkowskiEngineLike(),
            SpConvLike(),
            SpConvLike(fp16=False),
        ]:
            ctx = ExecutionContext(engine=eng)
            outs.append(eng.convolution(x, w, ctx, kernel_size=3).feats)
        for o in outs[1:]:
            HALF.assert_close(o, outs[0])


class TestCaching:
    def test_kmap_cached_across_layers(self):
        x = make_tensor()
        ctx = ExecutionContext(engine=BaselineEngine())
        w = make_weights(3, 6, 6)
        ctx.engine.convolution(x, w, ctx, kernel_size=3)
        n_records = len(ctx.profile.records)
        ctx.engine.convolution(x, w, ctx, kernel_size=3)
        # second conv adds no mapping records (map + table reused)
        new = ctx.profile.records[n_records:]
        assert all(r.stage != "mapping" for r in new)

    def test_downsample_coords_cached(self):
        x = make_tensor()
        ctx = ExecutionContext(engine=BaselineEngine())
        ctx.engine.convolution(x, make_weights(2, 6, 6), ctx, kernel_size=2, stride=2)
        assert 2 in ctx.coords_at_stride

    def test_reset_clears_everything(self):
        x = make_tensor()
        ctx = ExecutionContext(engine=BaselineEngine())
        ctx.engine.convolution(x, make_weights(3, 6, 6), ctx)
        ctx.reset()
        assert not ctx.profile.records
        assert not ctx.kmap_cache
        assert not ctx.coords_at_stride
        assert not ctx.layer_workloads


class TestBackendSelection:
    def test_forced_backends(self):
        x = make_tensor()
        for backend, cls_name in [("hash", "HashTable"), ("grid", "GridTable")]:
            eng = BaseEngine(EngineConfig.baseline(map_backend=backend))
            ctx = ExecutionContext(engine=eng)
            eng.convolution(x, make_weights(3, 6, 6), ctx)
            table = ctx.index_at_stride[1].table
            assert table.__class__.__name__ == cls_name

    def test_auto_prefers_grid_when_affordable(self):
        x = make_tensor(extent=8)
        eng = TorchSparseEngine()
        ctx = ExecutionContext(engine=eng)
        eng.convolution(x, make_weights(3, 6, 6), ctx)
        assert ctx.index_at_stride[1].table.__class__.__name__ == "GridTable"

    def test_grid_falls_back_past_budget(self):
        """Huge extents silently use hash (the paper's SpConv OOM note)."""
        coords = np.array(
            [[0, 0, 0, 0], [0, 8000, 8000, 4000]], dtype=np.int32
        )
        x = SparseTensor(coords, np.zeros((2, 6), dtype=np.float32))
        eng = BaseEngine(EngineConfig.baseline(map_backend="grid"))
        ctx = ExecutionContext(engine=eng)
        eng.convolution(x, make_weights(3, 6, 6), ctx)
        assert ctx.index_at_stride[1].table.__class__.__name__ == "HashTable"

    def test_forced_grid_choice_sizes_the_built_box(self):
        """The choice and the build size one box: extent 643 plus the
        margin on both sides is 647^3 slots, past the budget, so a
        forced grid falls back to hash rather than raising."""
        coords = np.array([[0, 0, 0, 0], [0, 642, 642, 642]], dtype=np.int32)
        x = SparseTensor(coords, np.zeros((2, 6), dtype=np.float32))
        eng = BaseEngine(EngineConfig.baseline(map_backend="grid"))
        ctx = ExecutionContext(engine=eng)
        eng.convolution(x, make_weights(3, 6, 6), ctx)
        assert isinstance(ctx.index_at_stride[1].table, HashTable)

    def test_unknown_backend_rejected(self):
        x = make_tensor()
        eng = BaseEngine(EngineConfig.baseline(map_backend="quantum"))
        ctx = ExecutionContext(engine=eng)
        with pytest.raises(ValueError):
            eng.convolution(x, make_weights(3, 6, 6), ctx)


class TestDevicePricing:
    def test_faster_device_lower_latency(self):
        # large enough to saturate every device: at tiny workloads the
        # bigger GPUs legitimately lose to smaller ones on occupancy
        x = make_tensor(n=60_000, extent=60)
        w = make_weights(3, 6, 64)
        times = {}
        for dev in (GTX_1080TI, RTX_2080TI, RTX_3090):
            ctx = ExecutionContext(engine=TorchSparseEngine(), device=dev)
            ctx.engine.convolution(x, w, ctx)
            times[dev.name] = ctx.profile.total_time
        assert times["RTX 3090"] < times["RTX 2080Ti"] < times["GTX 1080Ti"]

    def test_fetch_on_demand_triggers_below_threshold(self):
        from repro.baselines import MinkowskiEngineLike

        x = make_tensor(n=40, extent=10)  # tiny maps
        eng = MinkowskiEngineLike()
        ctx = ExecutionContext(engine=eng)
        eng.convolution(x, make_weights(3, 6, 6), ctx)
        assert any("fetch_on_demand" in r.name for r in ctx.profile.records)
