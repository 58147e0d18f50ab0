"""Tests for ``nn.deploy``: zoo models carry conv weights rounded to FP16
once, at build, and FP16 forwards keep every bit of an undeployed run."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import MinkowskiEngineLike, SpConvLike
from repro.baselines.minkowski import minkowski_config
from repro.core import dataflow
from repro.core.dataflow import _cast, freeze_half
from repro.core.engine import BaseEngine, BaselineEngine, EngineConfig, ExecutionContext
from repro.gpu.memory import DType
from repro.models import MODEL_ZOO, CenterPoint, MinkUNet
from repro.nn import deploy
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.degrade import RobustConfig
from repro.robust.errors import IntegrityError
from repro.robust.faults import FaultInjector, FaultSpec, inject_faults
from repro.robust.integrity import IntegrityConfig
from repro.robust.tolerance import END_TO_END

ZOO = {e.key: e for e in MODEL_ZOO}

#: the zoo's models as built before deployment
UNDEPLOYED = {
    "minkunet_0.5x_kitti": lambda: MinkUNet(width=0.5),
    "centerpoint_1f_waymo": lambda: CenterPoint(num_classes=3),
}

FP16_ENGINES = {
    "torchsparse": lambda: BaseEngine(EngineConfig.torchsparse(dtype=DType.FP16)),
    "spconv": lambda: SpConvLike(fp16=True),
    # below its map-size threshold: the fetch-on-demand dataflow
    "minkowski-fetch-on-demand": lambda: MinkowskiEngineLike(
        config=minkowski_config(dtype=DType.FP16)
    ),
}


def sample(key):
    return ZOO[key].make_dataset().sample_tensor(seed=0, scale=0.03)


def forward(model, x, engine):
    """``(outputs, ctx)``: every head's array, and the run's context."""
    with use_registry(MetricsRegistry()):
        ctx = ExecutionContext(engine=engine)
        out = model(x, ctx)
    heads = out if isinstance(out, dict) else {"out": out}
    feats = {k: getattr(v, "feats", v) for k, v in heads.items()}
    return {k: np.asarray(v) for k, v in feats.items()}, ctx


def weight_bytes(model) -> list:
    return [conv.weight.tobytes() for conv in model.conv_layers()]


@pytest.mark.parametrize("engine", list(FP16_ENGINES))
@pytest.mark.parametrize("key", list(UNDEPLOYED))
def test_fp16_forward_is_bit_identical_with_or_without_deploy(key, engine):
    x = sample(key)
    got, _ = forward(ZOO[key].make_model(), x, FP16_ENGINES[engine]())
    want, _ = forward(UNDEPLOYED[key](), x, FP16_ENGINES[engine]())
    assert got.keys() == want.keys()
    for k in got:
        assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("key", list(UNDEPLOYED))
def test_fp16_forward_matches_a_full_precision_fp32_reference(key):
    """perfbench's correctness gate, with its reference on the weights
    before rounding: the gate itself runs its FP32 reference on the same
    deployed model, so it no longer sees how the weights were rounded."""
    x = sample(key)
    got, _ = forward(ZOO[key].make_model(), x, FP16_ENGINES["torchsparse"]())
    want, _ = forward(UNDEPLOYED[key](), x, BaselineEngine())
    for k in got:
        assert END_TO_END.allclose(got[k], want[k]), k


@pytest.mark.parametrize("key", list(UNDEPLOYED))
def test_zoo_models_are_deployed(key):
    model = ZOO[key].make_model()
    assert weight_bytes(model) == weight_bytes(deploy(UNDEPLOYED[key]()))
    for conv in model.conv_layers():
        assert conv.params[0] is conv.weight
        assert np.array_equal(
            conv.weight, conv.weight.astype(np.float16).astype(np.float32)
        )


def test_deploy_rounds_in_place():
    model = MinkUNet(width=0.5)
    arrays = [conv.weight for conv in model.conv_layers()]
    deploy(model)
    assert all(c.weight is w for c, w in zip(model.conv_layers(), arrays))


def test_deploying_twice_changes_nothing():
    once = deploy(MinkUNet(width=0.5))
    arrays = [conv.weight for conv in once.conv_layers()]
    twice = deploy(once)
    assert [conv.weight for conv in twice.conv_layers()] == arrays  # same objects
    assert weight_bytes(twice) == weight_bytes(deploy(MinkUNet(width=0.5)))


def test_deployed_weights_are_read_only():
    conv = deploy(MinkUNet(width=0.5)).conv_layers()[0]
    with pytest.raises(ValueError, match="read-only"):
        conv.weight[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        conv.weight += 1.0


class TestCastOfFrozenWeights:
    def test_fp16_cast_passes_a_frozen_array_through(self):
        w = freeze_half(np.linspace(-1, 1, 27 * 12, dtype=np.float32).reshape(27, 3, 4))
        assert _cast(w, DType.FP16) is w

    def test_armed_injector_gets_a_writable_copy(self):
        w = freeze_half(np.ones((27, 3, 4), dtype=np.float32))
        with inject_faults(FaultInjector(seed=0)):
            got = _cast(w, DType.FP16)
        assert got is not w and not np.shares_memory(got, w)
        assert got.flags.writeable and np.array_equal(got, w)

    def test_tag_does_not_follow_views_or_products(self):
        w = freeze_half(np.full((27, 3, 4), 1.0001, dtype=np.float32))
        assert type(w) is np.ndarray
        for derived in (w[0], w * np.float32(1.0001), w.copy()):
            assert _cast(derived, DType.FP16) is not derived

    @pytest.mark.parametrize("layout", ["strided", "read-only", "float64"])
    def test_only_arrays_it_can_round_in_place_are_accepted(self, layout):
        a = np.full((27, 6, 4), 1.0001, dtype=np.float32)
        if layout == "strided":
            a = a[:, ::2]
        elif layout == "read-only":
            a.flags.writeable = False
        else:
            a = a.astype(np.float64)
        before = a.copy()
        with pytest.raises(ValueError, match="in place"):
            freeze_half(a)
        assert np.array_equal(a, before)


@pytest.mark.parametrize("key", list(UNDEPLOYED))
def test_deployed_forward_rounds_no_weights(key, monkeypatch):
    """The guard: ``_round_half`` sees a 3-D (weight) array once per conv
    undeployed, and never once deployed; features still round."""
    x = sample(key)
    round_half = dataflow._round_half
    shapes = []

    def counting(a):
        shapes.append(a.ndim)
        return round_half(a)

    deployed = ZOO[key].make_model()
    undeployed = UNDEPLOYED[key]()
    monkeypatch.setattr(dataflow, "_round_half", counting)
    engine = FP16_ENGINES["torchsparse"]
    _, ctx = forward(undeployed, x, engine())
    assert shapes.count(3) == len(ctx.layer_workloads) == len(undeployed.conv_layers())
    shapes.clear()
    _, ctx = forward(deployed, x, engine())
    assert shapes.count(3) == 0
    assert shapes.count(2) == len(ctx.layer_workloads)


#: the weight-fault sites each dataflow flips
WEIGHT_SITES = {
    "torchsparse": "weights.v",
    "minkowski-fetch-on-demand": "fetch_on_demand.weights",
}


@pytest.mark.parametrize("engine", list(WEIGHT_SITES))
def test_weight_flips_never_reach_deployed_weights(engine):
    """A ``bitflip_weight`` fault firing on every conv flips the cast
    buffer only: every master weight keeps its bytes."""
    model = ZOO["minkunet_0.5x_kitti"].make_model()
    pristine = [conv.weight.view(np.uint32).copy() for conv in model.conv_layers()]
    inj = FaultInjector(seed=0, specs=[FaultSpec(kind="bitflip_weight", count=-1)])
    with inject_faults(inj):
        _, ctx = forward(model, sample("minkunet_0.5x_kitti"), FP16_ENGINES[engine]())
    assert inj.shots == len(ctx.layer_workloads) == len(pristine)
    assert any(site.startswith(WEIGHT_SITES[engine]) for _, site in inj.fired)
    for conv, want in zip(model.conv_layers(), pristine):
        assert np.array_equal(conv.weight.view(np.uint32), want), conv.name


@pytest.mark.parametrize("engine", list(WEIGHT_SITES))
def test_integrity_sentinel_still_reports_the_flip(engine):
    model = ZOO["minkunet_0.5x_kitti"].make_model()
    pristine = [conv.weight.view(np.uint32).copy() for conv in model.conv_layers()]
    base = FP16_ENGINES[engine]().config
    config = replace(
        base, robustness=RobustConfig(degrade=False, integrity=IntegrityConfig())
    )
    inj = FaultInjector(seed=0, specs=[FaultSpec(kind="bitflip_weight", count=-1)])
    x = sample("minkunet_0.5x_kitti")
    with use_registry(MetricsRegistry()) as reg, inject_faults(inj):
        with pytest.raises(IntegrityError, match="weights checksum"):
            model(x, ExecutionContext(engine=BaseEngine(config)))
    assert inj.fired[-1][1].startswith(WEIGHT_SITES[engine])
    assert reg.scalars()["integrity.mismatches{stage=weights}"] == 1
    for conv, want in zip(model.conv_layers(), pristine):
        assert np.array_equal(conv.weight.view(np.uint32), want), conv.name
