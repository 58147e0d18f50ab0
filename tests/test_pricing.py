"""A priced forward equals a computed one, record for record.

A pricing context (``ExecutionContext(numerics=False)``) skips the
casts, gathers and matmuls of the costly kernels and returns zeros, but
must make every modeled record, span, layer workload and metric exactly
as a computed forward does: the serve oracle and the profiling runners
read nothing else.  Floats are compared by ``float.hex``, so a last-bit
drift fails.

The zoo is covered once on the default configuration; every other axis
(engine dataflow, device, batch size, temperature, QoS rung) is swept on
one segmentation and one detection model.  Inputs are tiny: the
equivalence is structural, not a property of large scenes.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import MinkowskiEngineLike, SpConvLike
from repro.core.engine import BaseEngine, EngineConfig, ExecutionContext
from repro.datasets.collate import batch_collate
from repro.datasets.voxelize import coarsen_sparse_tensor
from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.gpu.memory import DType
from repro.mapping.cache import MappingCache
from repro.models import MODEL_ZOO, SPVCNN
from repro.nn.point import PointTensor
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.profiling import collect_workloads, run_model, run_steady_state
from repro.profiling.parallel import shard_inference
from repro.robust.faults import FaultInjector, FaultSpec, inject_faults
from repro.robust.integrity import IntegrityConfig
from repro.serve.cluster import LatencyOracle

SCALE = 0.03
ZOO = {e.key: e for e in MODEL_ZOO}


@functools.cache
def model_for(key):
    return ZOO[key].make_model()


@functools.cache
def input_for(key):
    return ZOO[key].make_dataset().sample_tensor(seed=0, scale=SCALE)


def _hex(v) -> str:
    return float(v).hex()


def fingerprint(model, x, engine, device=RTX_2080TI, warm=False, numerics=True):
    """Everything a forward leaves on the modeled clock, hex-exact."""
    cache = MappingCache() if warm else None
    with use_registry(MetricsRegistry()) as reg:
        if warm:
            model(x, ExecutionContext(engine=engine, device=device,
                                      mapcache=cache, numerics=numerics))
        ctx = ExecutionContext(engine=engine, device=device, mapcache=cache,
                               numerics=numerics)
        model(x, ctx)
    records = [
        (r.name, r.stage, _hex(r.time), _hex(r.bytes_moved), _hex(r.flops),
         r.launches, r.span)
        for r in ctx.profile.records
    ]
    spans = [(s.path, repr(sorted(s.attrs.items()))) for s in ctx.trace.spans]
    scalars = {k: _hex(v) for k, v in reg.scalars().items()}
    return records, spans, list(ctx.layer_workloads), scalars


def assert_priced_equals_computed(model, x, engine, **kw):
    computed = fingerprint(model, x, engine, **kw)
    priced = fingerprint(model, x, engine, numerics=False, **kw)
    for part, a, b in zip(("records", "spans", "workloads", "scalars"),
                          computed, priced):
        assert a == b, f"priced {part} differ from computed"
    assert computed[0], "the forward logged no records"


def ts(**overrides):
    return BaseEngine(config=EngineConfig.torchsparse(**overrides))


class TestPricedEqualsComputed:
    @pytest.mark.parametrize("key", sorted(ZOO))
    def test_every_zoo_model(self, key):
        assert_priced_equals_computed(model_for(key), input_for(key), ts())

    @pytest.mark.parametrize("key", ["minkunet_0.5x_kitti", "centerpoint_1f_waymo"])
    @pytest.mark.parametrize("axis", [
        "minkowski", "spconv", "3090", "n2", "warm", "int8", "fp32", "coarse",
    ])
    def test_axes(self, key, axis):
        model, x, engine, kw = model_for(key), input_for(key), ts(), {}
        if axis == "minkowski":
            # fetch-on-demand below its map-size threshold
            engine = MinkowskiEngineLike()
        elif axis == "spconv":
            engine = SpConvLike()
        elif axis == "3090":
            kw["device"] = RTX_3090
        elif axis == "n2":
            x = batch_collate([x, x])
        elif axis == "warm":
            kw["warm"] = True
        elif axis == "int8":
            engine = ts(dtype=DType.INT8)
        elif axis == "fp32":
            engine = ts(dtype=DType.FP32)
        else:
            x = coarsen_sparse_tensor(x, 2)
        assert_priced_equals_computed(model, x, engine, **kw)

    def test_minkowski_axis_runs_fetch_on_demand(self):
        _, _, _, scalars = fingerprint(
            model_for("minkunet_0.5x_kitti"), input_for("minkunet_0.5x_kitti"),
            MinkowskiEngineLike(), numerics=False,
        )
        assert any(k.startswith("engine.dispatch{dataflow=fetch_on_demand")
                   for k in scalars)

    def test_spvcnn_point_voxel_ops(self):
        rng = np.random.default_rng(0)
        n = 300
        coords = np.concatenate(
            [np.zeros((n, 1)), rng.uniform(0, 12.0, size=(n, 3))], axis=1
        )
        pt = PointTensor(coords, rng.standard_normal((n, 4)).astype(np.float32))
        assert_priced_equals_computed(SPVCNN(width=8), pt, ts())


@pytest.fixture
def no_numerics(monkeypatch):
    """Make the feature numerics of the costly kernels unreachable.

    Pointwise modules (BatchNorm, ReLU, the residual add) must hand a
    pricing context's input features through unchanged: any array but
    ``x.feats`` itself means they computed new values.
    """

    def refuse(*_args, **_kwargs):
        raise AssertionError("a pricing forward ran the numerics")

    monkeypatch.setattr("repro.core.dataflow._cast", refuse)
    monkeypatch.setattr("repro.nn.dense._live_pixels", refuse)
    monkeypatch.setattr("repro.nn.dense.im2col", refuse)
    pointwise = BaseEngine.pointwise
    passed = []

    def passthrough_only(self, x, feats, ctx, name, *args, **kwargs):
        if not ctx.numerics:
            if feats is not x.feats:
                raise AssertionError(f"a pricing forward computed {name}")
            passed.append(name)
        return pointwise(self, x, feats, ctx, name, *args, **kwargs)

    monkeypatch.setattr(BaseEngine, "pointwise", passthrough_only)
    return passed


class TestPricingSkipsNumerics:
    @pytest.mark.parametrize("key", sorted(ZOO))
    def test_zoo_model_prices_without_numerics(self, no_numerics, key):
        for engine in (ts(), MinkowskiEngineLike()):
            ctx = ExecutionContext(engine=engine, numerics=False)
            model_for(key)(input_for(key), ctx)
            assert ctx.profile.total_time > 0
        assert no_numerics, "no pointwise module was priced"

    def test_oracle_prices_without_numerics(self, no_numerics):
        oracle = LatencyOracle(ts(), scale=SCALE)
        key = "minkunet_0.5x_kitti"
        for warm in (False, True):
            assert oracle.base_latency(key, RTX_3090, warm=warm) > 0
            assert oracle.batch_latency(key, RTX_3090, 2, warm=warm) > 0

    def test_runners_price_without_numerics(self, no_numerics):
        key = "centerpoint_1f_waymo"
        model, x = model_for(key), input_for(key)
        assert run_model(model, [x], ts()).latency > 0
        assert run_steady_state(model, x, ts(), frames=2).warm_latency > 0
        assert collect_workloads(model, [x])
        assert shard_inference(model, [x, x], ts(), [RTX_2080TI]).makespan > 0


class TestPricingRefusals:
    def test_armed_fault_injector_is_refused(self):
        injector = FaultInjector(seed=0, specs=[FaultSpec(kind="bitflip_feature")])
        with inject_faults(injector):
            with pytest.raises(RuntimeError, match="fault injector"):
                ExecutionContext(engine=ts(), numerics=False)
            # a computing context is still allowed under the injector
            ExecutionContext(engine=ts())

    def test_integrity_checking_is_refused(self):
        hardened = EngineConfig.hardened(integrity=IntegrityConfig())
        with pytest.raises(ValueError, match="integrity"):
            ExecutionContext(engine=BaseEngine(config=hardened), numerics=False)
        # detection without ABFT prices fine
        plain = replace(hardened, robustness=replace(hardened.robustness,
                                                     integrity=None))
        ExecutionContext(engine=BaseEngine(config=plain), numerics=False)
