"""Tests for dataflow execution: numerics against references, cost ladder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import MinkowskiEngineLike, SpConvLike
from repro.baselines.minkowski import minkowski_config
from repro.core import dataflow
from repro.core.dataflow import (
    HALF_CHUNK,
    MovementConfig,
    _cast,
    _round_half,
    execute_fetch_on_demand,
    execute_gather_matmul_scatter,
    gather_record,
    scatter_record,
)
from repro.core.engine import BaseEngine, EngineConfig, ExecutionContext
from repro.core.grouping import make_plan
from repro.core.reference import dense_conv3d_reference, sparse_conv_reference
from repro.gpu.device import RTX_2080TI
from repro.gpu.memory import DType
from repro.gpu.timeline import Profile
from repro.mapping.downsample import downsample_coords
from repro.mapping.kmap import CoordIndex, build_kmap
from repro.models import MODEL_ZOO
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.faults import FaultInjector, inject_faults
from repro.robust.tolerance import CLOSE_FP32, EXACT_FP32, HALF


def random_instance(n=80, c_in=8, c_out=12, kernel_size=3, seed=0, extent=10):
    rng = np.random.default_rng(seed)
    xyz = np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)
    coords = np.concatenate(
        [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
    ).astype(np.int32)
    feats = rng.standard_normal((coords.shape[0], c_in)).astype(np.float32)
    weights = (
        rng.standard_normal((kernel_size**3, c_in, c_out)) * 0.2
    ).astype(np.float32)
    return coords, feats, weights


def run_gms(coords, feats, weights, out_coords, kernel_size, stride,
            strategy="separate", cfg=None, **plan_kw):
    index = CoordIndex.build(coords, backend="hash")
    kmap = build_kmap(coords, index, out_coords, kernel_size, stride=stride)
    skip_center = stride == 1 and kernel_size % 2 == 1
    plan = make_plan(
        strategy, kmap.sizes, kernel_size, kmap.stride, **plan_kw
    )
    return execute_gather_matmul_scatter(
        feats,
        weights,
        kmap,
        plan,
        cfg or MovementConfig(),
        RTX_2080TI,
        Profile(),
        skip_center=skip_center,
    )


class SignedZeroProducts(np.ndarray):
    """Weights whose products read −0.0 wherever they are zero, as a
    GEMM that kept the sign of an all −0.0 sum would return them."""

    def __rmatmul__(self, other):
        out = np.asarray(other) @ np.asarray(self)
        out[out == 0] = -0.0
        return out


class TestDirectCenter:
    """A submanifold layer's identity center is multiplied in place: no
    gather and no scatter, with the bits of an add into zeros."""

    @staticmethod
    def kmap_for(coords):
        return build_kmap(coords, CoordIndex.build(coords, backend="hash"),
                          coords, 3, stride=1)

    def test_bits_match_zero_init_path(self, monkeypatch):
        coords, feats, weights = random_instance(seed=5)
        rng = np.random.default_rng(5)
        # small integers, so every sum is exact in any order, and whole
        # rows of −0.0, so some outputs sum zeros only
        feats = rng.integers(-2, 3, size=feats.shape).astype(np.float32)
        feats[::3] = -0.0
        weights = rng.integers(-2, 3, size=weights.shape).astype(np.float32)
        cast = dataflow._cast
        monkeypatch.setattr(dataflow, "_cast", lambda a, dtype: (
            cast(a, dtype).view(SignedZeroProducts) if a.ndim == 3
            else cast(a, dtype)))
        kmap = self.kmap_for(coords)
        center = kmap.center_index
        assert np.array_equal(kmap.in_indices[center], np.arange(kmap.n_in))
        w = weights.view(SignedZeroProducts)
        product = feats @ w[center]
        assert (np.signbit(product) & (product == 0)).any()
        want = np.zeros((kmap.n_out, weights.shape[2]), dtype=np.float32)
        for n in range(kmap.volume):
            want[kmap.out_indices[n]] += feats[kmap.in_indices[n]] @ w[n]
        got = run_gms(coords, feats, weights, coords, 3, 1)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert not np.signbit(got[got == 0]).any()

    def test_corrupted_center_takes_the_gather_and_raises(self):
        """An index scrambled in place, as ``maybe_corrupt_kmap`` does,
        makes the center no identity: the gather reads out of range."""
        coords, feats, weights = random_instance(seed=6)
        kmap = self.kmap_for(coords)
        kmap.in_indices[kmap.center_index][3] = kmap.n_in + 7
        plan = make_plan("separate", kmap.sizes, 3, kmap.stride)
        with pytest.raises(IndexError):
            execute_gather_matmul_scatter(feats, weights, kmap, plan,
                                          MovementConfig(), RTX_2080TI, Profile())

    def test_identity_check(self):
        assert dataflow._is_identity(np.arange(5), 5)
        assert not dataflow._is_identity(np.arange(5), 6)
        assert not dataflow._is_identity(np.array([0, 2, 1]), 3)


class TestNumericsVsReferences:
    def test_submanifold_matches_equation1(self):
        coords, feats, weights = random_instance()
        got = run_gms(coords, feats, weights, coords, 3, 1)
        want = sparse_conv_reference(coords, feats, weights, coords, 3, 1)
        CLOSE_FP32.assert_close(got, want)

    def test_submanifold_matches_dense_reference(self):
        coords, feats, weights = random_instance(seed=3)
        got = run_gms(coords, feats, weights, coords, 3, 1)
        want = dense_conv3d_reference(coords, feats, weights, coords, 3, 1)
        CLOSE_FP32.assert_close(got, want)

    def test_two_references_agree(self):
        coords, feats, weights = random_instance(seed=9)
        a = sparse_conv_reference(coords, feats, weights, coords, 3, 1)
        b = dense_conv3d_reference(coords, feats, weights, coords, 3, 1)
        EXACT_FP32.assert_close(a, b)

    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 2)])
    def test_strided_matches_equation1(self, kernel_size, stride):
        coords, feats, _ = random_instance(seed=1)
        rng = np.random.default_rng(2)
        weights = (
            rng.standard_normal((kernel_size**3, 8, 12)) * 0.2
        ).astype(np.float32)
        out_coords, _ = downsample_coords(coords, kernel_size, stride)
        got = run_gms(coords, feats, weights, out_coords, kernel_size, stride)
        want = sparse_conv_reference(
            coords, feats, weights, out_coords, kernel_size, stride
        )
        CLOSE_FP32.assert_close(got, want)

    @pytest.mark.parametrize(
        "strategy,kw",
        [
            ("separate", {}),
            ("symmetric", {}),
            ("fixed", {}),
            ("adaptive", dict(epsilon=0.3, s_threshold=1e5)),
            ("adaptive", dict(epsilon=1.0, s_threshold=np.inf)),
        ],
    )
    def test_all_strategies_same_output(self, strategy, kw):
        """Grouping only reorders multiply-accumulates."""
        coords, feats, weights = random_instance(seed=4)
        base = run_gms(coords, feats, weights, coords, 3, 1)
        got = run_gms(coords, feats, weights, coords, 3, 1, strategy=strategy, **kw)
        EXACT_FP32.assert_close(got, base)

    def test_exact_bmm_equals_per_member(self):
        """Zero padding cannot change the products: the engine's
        per-member numerics equal a padded batched matmul per bmm group."""
        coords, feats, weights = random_instance(seed=5)
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        plan = make_plan("adaptive", kmap.sizes, 3, 1, epsilon=1.0,
                         s_threshold=np.inf)
        assert any(g.use_bmm and len(set(
            kmap.sizes[n] for n in g.members)) > 1 for g in plan.groups)
        got = execute_gather_matmul_scatter(
            feats, weights, kmap, plan, MovementConfig(), RTX_2080TI,
            Profile(),
        )
        # the oracle stages each group as the GPU bmm kernel would:
        # members zero-padded to the longest, one np.matmul per group
        want = np.zeros_like(got)
        center = kmap.center_index
        want[kmap.out_indices[center]] += (
            feats[kmap.in_indices[center]] @ weights[center]
        )
        for group in plan.groups:
            sizes = [len(kmap.in_indices[n]) for n in group.members]
            batch = np.zeros(
                (len(sizes), max(sizes), feats.shape[1]), dtype=feats.dtype
            )
            for bi, n in enumerate(group.members):
                batch[bi, : sizes[bi]] = feats[kmap.in_indices[n]]
            partial = np.matmul(batch, weights[list(group.members)])
            for bi, n in enumerate(group.members):
                want[kmap.out_indices[n]] += partial[bi, : sizes[bi]]
        EXACT_FP32.assert_close(got, want)

    def test_fp16_close_to_fp32(self):
        coords, feats, weights = random_instance(seed=6)
        f32 = run_gms(coords, feats, weights, coords, 3, 1)
        f16 = run_gms(
            coords, feats, weights, coords, 3, 1,
            cfg=MovementConfig(dtype=DType.FP16, vectorized=True),
        )
        assert not np.array_equal(f16, f32)  # quantization visible
        HALF.assert_close(f16, f32)

    def test_fetch_on_demand_same_output(self):
        coords, feats, weights = random_instance(seed=7)
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        base = run_gms(coords, feats, weights, coords, 3, 1)
        fod = execute_fetch_on_demand(
            feats, weights, kmap, RTX_2080TI, Profile()
        )
        EXACT_FP32.assert_close(fod, base)

    def test_shape_validation(self):
        coords, feats, weights = random_instance()
        index = CoordIndex.build(coords, backend="hash")
        kmap = build_kmap(coords, index, coords, 3)
        plan = make_plan("separate", kmap.sizes, 3, 1)
        with pytest.raises(ValueError):
            execute_gather_matmul_scatter(
                feats[:, :4], weights, kmap, plan, MovementConfig(),
                RTX_2080TI, Profile(),
            )
        with pytest.raises(ValueError):
            execute_gather_matmul_scatter(
                feats, weights[:5], kmap, plan, MovementConfig(),
                RTX_2080TI, Profile(),
            )


class TestMovementCostLadder:
    """Table 3's ablation, on a synthetic layer."""

    # Large enough that DRAM traffic (not launch overhead) dominates,
    # as on the paper's full-scale layers.
    CHANNELS = 256

    def _kmap(self, n=40_000, extent=80, seed=0):
        rng = np.random.default_rng(seed)
        xyz = np.unique(rng.integers(0, extent, size=(n, 3)), axis=0)
        coords = np.concatenate(
            [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
        ).astype(np.int32)
        index = CoordIndex.build(coords, backend="hash")
        return build_kmap(coords, index, coords, 3)

    def _times(self, cfg):
        kmap = self._kmap()
        g = gather_record(kmap, self.CHANNELS, cfg, RTX_2080TI, skip_center=True)
        s = scatter_record(kmap, self.CHANNELS, cfg, RTX_2080TI, skip_center=True)
        return g.time, s.time

    def test_ladder_strictly_improves(self):
        ladder = [
            MovementConfig(DType.FP32, False, False, False),
            MovementConfig(DType.FP16, False, False, False),
            MovementConfig(DType.FP16, True, False, False),
            MovementConfig(DType.FP16, True, True, False),
            MovementConfig(DType.FP16, True, True, True),
        ]
        totals = [sum(self._times(c)) for c in ladder]
        for a, b in zip(totals, totals[1:]):
            assert b <= a * 1.001

    def test_full_stack_speedup_in_paper_range(self):
        base = sum(self._times(MovementConfig(DType.FP32, False, False, False)))
        full = sum(self._times(MovementConfig(DType.FP16, True, True, True)))
        assert 2.0 < base / full < 4.5  # paper: 2.72x

    def test_vectorization_is_the_big_fp16_step(self):
        scalar = sum(self._times(MovementConfig(DType.FP16, False, False, False)))
        vec = sum(self._times(MovementConfig(DType.FP16, True, False, False)))
        base = sum(self._times(MovementConfig(DType.FP32, False, False, False)))
        assert base / scalar < 1.6  # naive FP16 disappoints (paper 1.32x)
        assert base / vec > 1.7  # vectorized delivers (paper 1.93x)

    def test_fused_alone_helps_scatter_not_gather(self):
        cfg_u = MovementConfig(DType.FP16, True, False, False)
        cfg_f = MovementConfig(DType.FP16, True, True, False)
        g_u, s_u = self._times(cfg_u)
        g_f, s_f = self._times(cfg_f)
        assert s_f < s_u
        assert g_f <= g_u  # only launch savings

    def test_locality_reduces_point_side_traffic(self):
        kmap = self._kmap()
        cfg_w = MovementConfig(DType.FP16, True, True, False)
        cfg_l = MovementConfig(DType.FP16, True, True, True)
        g_w = gather_record(kmap, 64, cfg_w, RTX_2080TI, True)
        g_l = gather_record(kmap, 64, cfg_l, RTX_2080TI, True)
        assert g_l.bytes_moved < g_w.bytes_moved


def half_round_trip(a):
    """The oracle: NumPy's own float16 round trip."""
    with np.errstate(all="ignore"):  # NumPy warns when a cast overflows
        return a.astype(np.float16).astype(np.float32)


def bits(u):
    return np.asarray(u, dtype=np.uint32).view(np.float32)


def assert_rounds_like_numpy(a):
    """``_round_half(a)`` matches the oracle bit for bit, except NaN
    payloads, which may differ between NumPy builds and CPUs: NaN lanes
    must only agree on being NaN and on the sign."""
    want = half_round_trip(a)
    got = _round_half(a)
    assert got.dtype == np.float32 and got.shape == a.shape
    assert not np.shares_memory(got, a)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(np.signbit(got[nan]), np.signbit(want[nan]))
    g, w = got[~nan].view(np.uint32), want[~nan].view(np.uint32)
    bad = np.flatnonzero(g != w)
    assert bad.size == 0, [
        (hex(int(x)), hex(int(y)), hex(int(z)))
        for x, y, z in zip(a[~nan].view(np.uint32)[bad[:5]], g[bad[:5]], w[bad[:5]])
    ]


def half_values():
    """Every fp16 bit pattern, as float32."""
    return np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(
        np.float16).astype(np.float32)


class TestRoundHalf:
    """``_round_half`` is NumPy's float16 round trip, bit for bit."""

    def test_every_half_value_and_its_float32_neighbours(self):
        u = half_values().view(np.uint32)
        for v in (u - np.uint32(1), u, u + np.uint32(1)):
            assert_rounds_like_numpy(bits(v))

    def test_every_tie_between_consecutive_half_values(self):
        h = half_values()
        pos = np.unique(h[np.isfinite(h) & (h >= 0)]).astype(np.float64)
        upper = np.append(pos[1:], 65536.0)  # 65504's upper tie is 65520
        mid = (pos + upper) / 2
        ties = mid.astype(np.float32)
        np.testing.assert_array_equal(ties.astype(np.float64), mid)  # exact
        assert_rounds_like_numpy(np.concatenate([ties, -ties]))
        # ties go to the even neighbour
        got = _round_half(ties).view(np.uint32)
        even = np.where(
            (pos.astype(np.float16).view(np.uint16) & 1) == 0, pos, upper
        ).astype(np.float32)
        even[-1] = np.inf
        np.testing.assert_array_equal(got, even.view(np.uint32))

    @pytest.mark.parametrize("edge", [0x38800000, 0x33000000],
                             ids=["2**-14", "2**-25"])
    def test_subnormal_boundaries(self, edge):
        u = np.arange(edge - 4, edge + 5, dtype=np.uint32)
        assert_rounds_like_numpy(np.concatenate([bits(u), -bits(u)]))

    def test_subnormal_boundary_values(self):
        got = _round_half(np.array(
            [2.0**-25, np.nextafter(np.float32(2.0**-25), np.float32(1)),
             3 * 2.0**-25, np.nextafter(np.float32(2.0**-14), np.float32(0))],
            dtype=np.float32,
        ))
        np.testing.assert_array_equal(
            got, np.array([0.0, 2.0**-24, 2.0**-23, 2.0**-14], np.float32)
        )

    def test_overflow_boundary(self):
        a = np.array([65504.0, 65519.996, 65520.0, -65520.0], np.float32)
        assert a[1] == np.nextafter(np.float32(65520), np.float32(0))
        assert_rounds_like_numpy(a)
        np.testing.assert_array_equal(
            _round_half(a), np.array([65504, 65504, np.inf, -np.inf], np.float32)
        )

    def test_zeros_infinities_and_low_payload_nans(self):
        u = np.array(
            [0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
             0x7F800001, 0x7F801FFF, 0xFF800001, 0xFF801000,
             0x7FC00000, 0xFFFFFFFF],
            dtype=np.uint32,
        )
        a = bits(u)
        assert_rounds_like_numpy(a)
        got = _round_half(a)
        assert np.isnan(got[4:]).all()  # truncating the payload kept NaN
        np.testing.assert_array_equal(np.signbit(got), np.signbit(a))

    def test_strided_sweep_of_float32_bit_patterns(self):
        u = np.arange(0, 1 << 32, 4093, dtype=np.uint64).astype(np.uint32)
        assert u.size > 16 * HALF_CHUNK  # spans many chunks and a partial one
        assert_rounds_like_numpy(bits(u))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, (1 << 32) - 1), max_size=64))
    def test_any_bit_patterns(self, patterns):
        assert_rounds_like_numpy(bits(np.array(patterns, dtype=np.uint64)))

    @pytest.mark.parametrize("make", [
        lambda a: a[::3],
        lambda a: a.reshape(40, 25).T,
        lambda a: a.reshape(10, 10, 10)[:, ::2, 1:],
        lambda a: np.asarray(a[7]),
        lambda a: a[:0],
        lambda a: a[:0].reshape(0, 4),
        lambda a: a[:0].reshape(3, 0, 2),
    ], ids=["strided", "transposed", "sliced-3d", "0-d", "empty", "empty-2d",
            "empty-3d"])
    def test_layouts_keep_their_shape(self, make):
        rng = np.random.default_rng(0)
        a = make((rng.standard_normal(1000) * 100).astype(np.float32))
        assert_rounds_like_numpy(a)


class TestCast:
    def test_float64_features_round_once(self):
        x = np.array([1 + 2.0**-11 + 2.0**-40])
        got = _cast(x, DType.FP16)
        assert got.dtype == np.float32
        assert got[0] == np.float32(1.0009766)  # 1 + 2**-10
        # via float32 it would round twice: to 1 + 2**-11, then to even
        assert _round_half(x.astype(np.float32))[0] == 1.0

    def test_float16_features_are_exact(self):
        h = half_values().astype(np.float16)
        got = _cast(h, DType.FP16)
        np.testing.assert_array_equal(got, h.astype(np.float32))

    @pytest.mark.parametrize("dtype", [DType.FP16, DType.INT8])
    def test_reduced_precision_never_aliases(self, dtype):
        w = np.linspace(-1, 1, 27 * 12, dtype=np.float32).reshape(27, 3, 4)
        assert not np.shares_memory(_cast(w, dtype), w)

    def test_fp32_copies_only_under_an_armed_injector(self):
        w = np.ones((27, 3, 4), dtype=np.float32)
        assert np.shares_memory(_cast(w, DType.FP32), w)  # zero-copy
        with inject_faults(FaultInjector(seed=0)):
            assert not np.shares_memory(_cast(w, DType.FP32), w)

    @pytest.mark.parametrize("shape", [(0, 4), (0, 3, 4)])
    @pytest.mark.parametrize("dtype", list(DType))
    def test_empty_inputs(self, dtype, shape):
        got = _cast(np.empty(shape, dtype=np.float32), dtype)
        assert got.dtype == np.float32 and got.shape == shape


ZOO = {e.key: e for e in MODEL_ZOO}


@pytest.mark.parametrize("engine", [
    lambda: BaseEngine(config=EngineConfig.torchsparse(dtype=DType.FP16)),
    lambda: SpConvLike(fp16=True),
    # below its map-size threshold: the fetch-on-demand dataflow
    lambda: MinkowskiEngineLike(config=minkowski_config(dtype=DType.FP16)),
], ids=["torchsparse", "spconv", "minkowski-fetch-on-demand"])
@pytest.mark.parametrize("key", ["minkunet_0.5x_kitti", "centerpoint_1f_waymo"])
def test_fp16_engines_match_numpy_round_trip(key, engine, monkeypatch):
    """Whole forwards give the same bits with ``_cast`` as shipped and
    with FP16 cast by NumPy's float16 round trip, on any platform."""
    entry = ZOO[key]
    model = entry.make_model()
    x = entry.make_dataset().sample_tensor(seed=0, scale=0.03)

    def forward():
        with use_registry(MetricsRegistry()):
            out = model(x, ExecutionContext(engine=engine()))
        heads = out if isinstance(out, dict) else {"out": out}
        return {k: getattr(v, "feats", v) for k, v in heads.items()}

    shipped = forward()
    cast = _cast

    def numpy_round_trip(feats, dtype):
        if dtype is DType.FP16:
            return feats.astype(np.float16).astype(np.float32)
        return cast(feats, dtype)

    monkeypatch.setattr("repro.core.dataflow._cast", numpy_round_trip)
    oracle = forward()
    assert shipped.keys() == oracle.keys()
    for k in shipped:
        assert np.array_equal(shipped[k], oracle[k]), k
