"""Tests for the nn module library."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.engine import (
    BaseEngine,
    BaselineEngine,
    EngineConfig,
    ExecutionContext,
)
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.memory import DType
from repro.models import MODEL_ZOO
from repro.nn.dense import RowMap, conv2d, im2col, relu2d, sigmoid
from repro.nn.modules import concat_skip
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.tolerance import EXACT_FP32


def make_tensor(n=50, c=6, seed=0):
    rng = np.random.default_rng(seed)
    xyz = np.unique(rng.integers(0, 10, size=(n, 3)), axis=0)
    coords = np.concatenate(
        [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
    ).astype(np.int32)
    return SparseTensor(coords, rng.standard_normal((xyz.shape[0], c)).astype(np.float32))


def ctx(numerics=True):
    return ExecutionContext(engine=BaselineEngine(), numerics=numerics)


class TestModuleNaming:
    def test_sequential_names_children(self):
        seq = nn.Sequential(nn.Conv3d(4, 8), nn.ReLU())
        assert seq.layers[0].name == "sequential.0"
        seq.rename("net")
        assert seq.layers[0].name == "net.0"

    def test_modules_enumeration(self):
        seq = nn.Sequential(nn.Conv3d(4, 8), nn.BatchNorm(8), nn.ReLU())
        assert len(seq.modules()) == 4
        assert len(seq.conv_layers()) == 1

    def test_num_parameters(self):
        conv = nn.Conv3d(4, 8, kernel_size=3)
        assert conv.num_parameters() == 27 * 4 * 8


class TestConv3dModule:
    def test_channel_mismatch_rejected(self):
        c = nn.Conv3d(4, 8)
        with pytest.raises(ValueError, match="expected 4 channels"):
            c(make_tensor(c=6), ctx())

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            nn.Conv3d(0, 8)

    def test_forward_shapes(self):
        x = make_tensor()
        y = nn.Conv3d(6, 16)(x, ctx())
        assert y.num_channels == 16
        assert y.num_points == x.num_points

    def test_deterministic_given_rng(self):
        a = nn.Conv3d(4, 8, rng=np.random.default_rng(42))
        b = nn.Conv3d(4, 8, rng=np.random.default_rng(42))
        assert np.array_equal(a.weight, b.weight)


class TestPointwiseModules:
    def test_relu(self):
        x = make_tensor()
        y = nn.ReLU()(x, ctx())
        assert (y.feats >= 0).all()
        np.testing.assert_array_equal(y.feats, np.maximum(x.feats, 0))

    def test_batchnorm_identity_at_init(self):
        """Fresh BN (zero mean, unit var) is an identity at inference."""
        x = make_tensor()
        y = nn.BatchNorm(6)(x, ctx())
        np.testing.assert_allclose(y.feats, x.feats, rtol=1e-4, atol=1e-5)

    def test_batchnorm_scale_shift(self):
        bn = nn.BatchNorm(6)
        bn.running_mean[:] = 2.0
        bn.gamma[:] = 3.0
        x = make_tensor()
        y = bn(x, ctx())
        np.testing.assert_allclose(
            y.feats, 3.0 * (x.feats - 2.0) / np.sqrt(1 + 1e-5), rtol=1e-4
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_bits_match_two_term_expression(self, dtype):
        """The in-place shift gives the bits of ``x * scale + shift``."""
        rng = np.random.default_rng(3)
        bn = nn.BatchNorm(6)
        bn.gamma[:] = rng.standard_normal(6)
        bn.beta[:] = rng.standard_normal(6)
        bn.beta[0] = 0.0  # -0.0 * scale + 0.0 must read +0.0
        bn.running_mean[:] = rng.standard_normal(6)
        bn.running_mean[0] = 0.0
        bn.running_var[:] = rng.random(6) + 0.5
        x = make_tensor()
        feats = x.feats.astype(dtype)
        feats[::4] = -0.0
        y = bn(x.replace_feats(feats), ctx())
        scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
        want = (feats * scale + (bn.beta - bn.running_mean * scale)).astype(np.float32)
        assert y.feats.dtype == np.float32
        assert np.array_equal(y.feats.view(np.uint32), want.view(np.uint32))
        assert not np.signbit(y.feats[::4, 0]).any()

    def test_linear(self):
        x = make_tensor()
        lin = nn.Linear(6, 3)
        y = lin(x, ctx())
        np.testing.assert_allclose(
            y.feats, x.feats @ lin.weight + lin.bias, rtol=1e-5
        )


class TestResidual:
    def test_identity_shortcut(self):
        x = make_tensor()
        block = nn.Residual(nn.Sequential(nn.Conv3d(6, 6), nn.BatchNorm(6)))
        y = block(x, ctx())
        assert y.num_channels == 6

    def test_projection_shortcut(self):
        x = make_tensor()
        block = nn.Residual(
            nn.Sequential(nn.Conv3d(6, 12), nn.BatchNorm(12)),
            shortcut=nn.Sequential(nn.Conv3d(6, 12, kernel_size=1)),
        )
        y = block(x, ctx())
        assert y.num_channels == 12

    def test_residual_math(self):
        """out = relu(main(x) + x) with an identity-ish main."""
        x = make_tensor()
        conv = nn.Conv3d(6, 6, kernel_size=1)
        conv.weight[0] = np.eye(6, dtype=np.float32)  # identity 1x1x1
        block = nn.Residual(conv)
        y = block(x, ctx())
        np.testing.assert_allclose(y.feats, np.maximum(2 * x.feats, 0), rtol=1e-5)


class TestGlobalPoolAndCat:
    def test_global_avg_pool(self):
        x = make_tensor()
        out = nn.GlobalAvgPool()(x, ctx())
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out[0], x.feats.mean(axis=0), rtol=1e-5)

    def test_concat_skip(self):
        x = make_tensor()
        c = ctx()
        y = concat_skip(x, x, c)
        assert y.num_channels == 12


def as_rows(*maps):
    """A :class:`RowMap` of dense ``(H, W, C)`` frames: one row for each
    pixel holding a non-zero bit, so a −0.0 pixel is stored and a +0.0
    one is not."""
    h = max(m.shape[0] for m in maps)
    w = max(m.shape[1] for m in maps)
    pix, rows = [], []
    for b, m in enumerate(maps):
        stored = ((m != 0) | np.signbit(m)).any(axis=2)
        i, j = np.nonzero(stored)
        pix.append((b * h + i) * w + j)
        rows.append(m[stored])
    return RowMap(np.concatenate(pix), np.concatenate(rows),
                  np.array([m.shape[:2] for m in maps], dtype=np.int64))


def dense_conv(x, w, c, **kw):
    """``conv2d`` of one dense map, densified."""
    return conv2d(as_rows(x), w, c, **kw).frames()[0]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestDenseOps:
    def test_im2col_shape(self):
        x = np.arange(5 * 5 * 2, dtype=np.float32).reshape(5, 5, 2)
        cols = im2col(as_rows(x), 3, 1, 1, np.arange(25))
        assert cols.shape == (25, 18)

    def test_conv2d_matches_direct(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 7, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        y = dense_conv(x, w, ctx())
        assert y.shape == (6, 7, 4)
        # direct check of one interior output pixel
        patch = x[1:4, 2:5]  # centered at (2, 3)
        want = np.einsum("ijc,ijco->o", patch, w)
        np.testing.assert_allclose(y[2, 3], want, rtol=1e-4, atol=1e-5)

    def test_conv2d_1x1(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4, 2)).astype(np.float32)
        w = rng.standard_normal((1, 1, 2, 5)).astype(np.float32)
        y = dense_conv(x, w, ctx())
        np.testing.assert_allclose(y, x @ w[0, 0], rtol=1e-4, atol=1e-5)

    def test_conv2d_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(as_rows(np.zeros((4, 4, 2))), np.zeros((3, 3, 3, 4)), ctx())

    @pytest.mark.parametrize("numerics", [True, False])
    @pytest.mark.parametrize("shape, kw", [
        ((4, 4, 2), {"stride": 0}),
        ((4, 4, 2), {"stride": -1}),
        ((4, 4, 2), {"pad": -1}),
        ((1, 4, 2), {"pad": 0}),               # h_out = -1
        ((4, 1, 2), {"pad": 0}),               # w_out = -1
        ((4, 0, 2), {"pad": 0, "stride": 2}),  # w_out = -3 // 2 + 1 = -1
    ])
    def test_conv2d_rejects_bad_geometry(self, numerics, shape, kw):
        """Computed and priced forwards refuse the same geometry with
        the same error, naming the shapes."""
        x = as_rows(np.ones(shape, dtype=np.float32))
        w = np.ones((3, 3, 2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"weight \(3, 3, 2, 4\)"):
            conv2d(x, w, ctx(numerics), **kw)

    @pytest.mark.parametrize("numerics", [True, False])
    def test_conv2d_empty_output_in_both_contexts(self, numerics):
        """A padded map one short of the kernel has no output rows."""
        y = conv2d(as_rows(np.ones((2, 4, 2), dtype=np.float32)),
                   np.ones((3, 3, 2, 4), dtype=np.float32), ctx(numerics), pad=0)
        assert y.shape == (1, 0, 2, 4) and y.rows.dtype == np.float32
        assert y.frames()[0].shape == (0, 2, 4)

    def test_relu2d_and_sigmoid(self):
        x = np.array([[-1.0, 1.0]])
        y = relu2d(as_rows(x[None]), ctx())
        assert (y.rows >= 0).all() and (y.frames()[0] >= 0).all()
        s = sigmoid(np.array([0.0]))
        assert s[0] == pytest.approx(0.5)


def dense_conv2d_oracle(x, weight, stride=1, pad=None):
    """Every output pixel's patch, one pixel at a time, times the
    weights: the dense im2col product, dead pixels included."""
    k, _, c_in, c_out = weight.shape
    if pad is None:
        pad = k // 2
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    h_out = (xp.shape[0] - k) // stride + 1
    w_out = (xp.shape[1] - k) // stride + 1
    cols = np.array([
        xp[i * stride:i * stride + k, j * stride:j * stride + k].ravel()
        for i in range(h_out) for j in range(w_out)
    ]).reshape(h_out * w_out, k * k * c_in)
    out = cols @ weight.reshape(k * k * c_in, c_out)
    return out.reshape(h_out, w_out, c_out).astype(np.float32)


def window_has_nonzero(x, k, stride, pad):
    """Per output pixel: does its padded window hold a pixel != 0?"""
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    h_out = (xp.shape[0] - k) // stride + 1
    w_out = (xp.shape[1] - k) // stride + 1
    return np.array([
        [(xp[i * stride:i * stride + k, j * stride:j * stride + k] != 0).any()
         for j in range(w_out)]
        for i in range(h_out)
    ], dtype=bool).reshape(h_out, w_out)


@st.composite
def dense_maps(draw, k, pad, c_in, dtype):
    """One ``(H, W, C_in)`` map with drawn occupancy and special values."""
    h = draw(st.integers(max(1, k - 2 * pad), 12))
    w = draw(st.integers(max(1, k - 2 * pad), 12))
    occupancy = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    specials = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
                             max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((h, w, c_in))
    x[rng.random((h, w)) >= occupancy] = 0.0
    for v in specials:
        i, j = rng.integers(h), rng.integers(w)
        if v == 0:  # -0.0 fills a whole pixel: it must stay dead
            x[i, j] = v
        else:
            x[i, j, rng.integers(c_in)] = v
    return x.astype(dtype)


@st.composite
def dense_conv_cases(draw, max_frames=1):
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.integers(0, k // 2 + 1))
    c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    maps = draw(st.lists(dense_maps(k, pad, c_in, dtype),
                         min_size=1, max_size=max_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # scaled so every output is O(1): the subset and full GEMMs then
    # differ by far less than EXACT_FP32's atol
    weight = rng.standard_normal((k, k, c_in, c_out)) / (k * k * c_in)
    return maps, weight.astype(np.float32), stride, pad


class TestDenseLiveRows:
    """The host multiplies only output pixels whose window is non-zero."""

    @given(dense_conv_cases())
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matches_dense_oracle(self, case):
        (x,), w, stride, pad = case
        y = conv2d(as_rows(x), w, ctx(), stride=stride, pad=pad)
        got = y.frames()[0]
        want = dense_conv2d_oracle(x, w, stride, pad)
        assert got.dtype == y.rows.dtype == np.float32
        assert got.shape == want.shape
        live = window_has_nonzero(x, w.shape[0], stride, pad)
        # the rows are the live pixels; the absent (dead) ones densify
        # to exactly +0.0, and every pixel is the dense product
        assert np.array_equal(y.pix, np.flatnonzero(live))
        assert not got[~live].view(np.uint32).any()
        EXACT_FP32.assert_close(got, want)

    @given(dense_conv_cases(max_frames=3))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_frames_convolve_alone(self, case):
        """A batch of frames of different extents: windows never cross
        frames, each frame's map is its solo map bit for bit, and the
        batch bills each frame as its solo forward does."""
        maps, w, stride, pad = case
        batch, c = conv2d(as_rows(*maps), w, ctx(), stride=stride, pad=pad), ctx()
        alone = [conv2d(as_rows(x), w, c, stride=stride, pad=pad) for x in maps]
        for got, solo in zip(batch.frames(), alone):
            assert np.array_equal(bits(got), bits(solo.frames()[0]))
        priced = ctx(False)
        conv2d(as_rows(*maps), w, priced, stride=stride, pad=pad)
        assert priced.profile.records == c.profile.records

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_weight_poisons_zero_map(self, bad):
        """IEEE semantics: 0 * inf is NaN, so every row is live."""
        x = np.zeros((4, 4, 2), dtype=np.float32)
        w = np.ones((3, 3, 2, 1), dtype=np.float32)
        w[0, 0, 1, 0] = bad
        got = dense_conv(x, w, ctx())
        assert np.isnan(got).sum() == 16
        assert np.array_equal(got, dense_conv2d_oracle(x, w), equal_nan=True)

    def test_priced_forward_returns_zeros(self):
        x = as_rows(np.ones((5, 6, 2), dtype=np.float32))
        got = conv2d(x, np.ones((3, 3, 2, 4), dtype=np.float32), ctx(False))
        assert got.rows.shape == (0, 4) and got.shape == (1, 5, 6, 4)
        dense = got.frames()[0]
        assert dense.shape == (5, 6, 4) and dense.dtype == np.float32
        assert not dense.any()

    def test_modeled_cost_bills_the_full_map(self):
        """A mostly empty map costs what a full one does on the modeled
        clock: a GPU dense head computes every pixel."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 3, 4, 8)).astype(np.float32)
        full = rng.standard_normal((20, 30, 4)).astype(np.float32)
        sparse = np.zeros_like(full)
        sparse[3, 4] = full[3, 4]
        priced = []
        for x in (full, sparse):
            c = ctx()
            conv2d(as_rows(x), w, c)
            priced.append(c.profile.records)
        assert priced[0] == priced[1]

    def test_im2col_live_rows_are_the_dense_rows(self):
        """The index-grid gather reads the bits a strided patch view of
        the padded dense map holds, −0.0 included."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 9, 3)).astype(np.float32)
        x[rng.random((7, 9)) < 0.5] = 0.0
        x[1, 2] = -0.0
        x[3, 3, 1] = -0.0
        live = rng.random((4, 5)) < 0.4
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        patches = sliding_window_view(xp, (3, 3), axis=(0, 1))[::2, ::2]
        dense = patches.transpose(0, 1, 3, 4, 2).reshape(20, 27)
        got = im2col(as_rows(x), 3, 2, 1, np.flatnonzero(live))
        assert np.array_equal(bits(got), bits(dense[live.ravel()]))

    @staticmethod
    def traced_peak(fn):
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not outer:
                tracemalloc.stop()
        return out, peak - base

    @staticmethod
    def bev_rows(c_in=128, seed=0):
        """A 150x143 BEV map with ~10% clustered occupancy, as rows."""
        rng = np.random.default_rng(seed)
        blocks = rng.random((15, 15)) < 0.1
        occ = np.kron(blocks, np.ones((10, 10), dtype=bool))[:150, :143]
        assert 0.05 < occ.mean() < 0.15
        pix = np.flatnonzero(occ)
        rows = rng.standard_normal((len(pix), c_in)).astype(np.float32)
        return RowMap(pix, rows, np.array([[150, 143]]))

    def test_conv2d_peak_memory_follows_live_rows(self):
        """A 3x3x128x128 conv of the map traces ~18 MiB; a conv that
        pads and sweeps dense 128-channel maps (~10.5 MiB each) traced
        ~36 MiB, and a dense im2col alone is ~99 MiB."""
        x = self.bev_rows()
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 3, 128, 128)).astype(np.float32)
        y, peak = self.traced_peak(lambda: conv2d(x, w, ctx()))
        assert y.shape == (1, 150, 143, 128)
        assert peak < 24 << 20

    def test_centerpoint_head_peak_memory(self):
        """The whole head over the map, three 128-channel convs and both
        output branches, traces ~32 MiB (its third conv's patches, after
        two convs widened the occupied blocks); the same head over dense
        128-channel maps traced ~56 MiB."""
        model = WAYMO_HEADS["centerpoint_1f_waymo"].make_model()
        x = self.bev_rows()
        (heat, reg), peak = self.traced_peak(lambda: model.head(x, ctx()))
        assert heat.shape == (1, 150, 143, 3) and reg.shape == (1, 150, 143, 6)
        assert peak < 40 << 20


WAYMO_HEADS = {e.key: e for e in MODEL_ZOO
               if e.key in ("centerpoint_1f_waymo", "centerpoint_3f_waymo")}


@pytest.mark.parametrize("engine", [
    lambda: BaseEngine(config=EngineConfig.torchsparse(dtype=DType.FP16)),
    BaselineEngine,
], ids=["torchsparse-fp16", "baseline"])
@pytest.mark.parametrize("key", sorted(WAYMO_HEADS))
def test_centerpoint_head_matches_dense_oracle(key, engine, monkeypatch):
    """Whole detector forwards: heatmap and regression agree with a head
    whose every conv2d is the dense oracle."""
    entry = WAYMO_HEADS[key]
    model = entry.make_model()
    x = entry.make_dataset().sample_tensor(seed=0, scale=0.02)

    def forward():
        with use_registry(MetricsRegistry()):
            return model(x, ExecutionContext(engine=engine()))

    shipped = forward()
    monkeypatch.setattr(
        "repro.models.centerpoint.conv2d",
        lambda x, w, ctx, stride=1, pad=None, name="": as_rows(*(
            dense_conv2d_oracle(f, w, stride, pad) for f in x.frames())),
    )
    oracle = forward()
    for head in ("heatmap", "regression"):
        assert shipped[head].dtype == np.float32
        assert shipped[head].shape == oracle[head].shape
        EXACT_FP32.assert_close(shipped[head], oracle[head], err_msg=head)
