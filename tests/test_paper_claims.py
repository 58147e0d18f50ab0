"""The paper's headline numbers as tier-1 gates, at reduced scale.

One table: every row names a paper anchor, the quantities measured for
it, the tolerance band each must fall in (open interval) and the
function that measures them.  The bands are the ones the full-scale
paper harness in ``benchmarks/`` asserts; here each row runs on an
input no larger than the harness's through a pricing context
(``ExecutionContext(numerics=False)``), which makes every modeled record
a computed forward makes, so the table takes seconds.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.dataflow import MovementConfig, gather_record, scatter_record
from repro.core.engine import (
    BaseEngine,
    EngineConfig,
    ExecutionContext,
    TorchSparseEngine,
)
from repro.datasets.configs import semantic_kitti_like, waymo_like
from repro.gpu.device import RTX_2080TI
from repro.gpu.memory import DType
from repro.models import CenterPoint, MinkUNet

#: never slower than the previous rung by more than 2%
MONOTONE = (1 / 1.02, math.inf)

#: Figure 13's cumulative configurations, in the paper's order
FIG13_LADDER = (
    ("grid map search", dict(map_backend="grid")),
    ("fused downsample", dict(fused_downsample=True)),
    ("simplified logic", dict(simplified_logic=True)),
    ("map symmetry", dict(use_map_symmetry=True)),
)


@functools.cache
def fig13_mapping_ladder() -> dict:
    """Mapping-stage speedups of each Figure 13 rung over the previous
    one, and of the last over the hash baseline, on CenterPoint-3f."""
    x = waymo_like(frames=3).cropped(-0.5, 6.0).sample_tensor(seed=0, scale=0.1)
    model = CenterPoint(num_classes=3)
    overrides: dict = {}
    times = []
    for _, step in ((None, {}),) + FIG13_LADDER:
        overrides.update(step)
        ctx = ExecutionContext(
            engine=BaseEngine(EngineConfig.baseline(**overrides)), numerics=False
        )
        model(x, ctx)
        times.append(ctx.profile.stage_times()["mapping"])
    out = {
        f"step: {label}": prev / t
        for (label, _), prev, t in zip(FIG13_LADDER, times, times[1:])
    }
    out["total"] = times[0] / times[-1]
    return out


#: Table 3's cumulative data-movement configurations, in the paper's order
TAB3_LADDER = (
    ("FP32", MovementConfig(DType.FP32, False, False, False)),
    ("FP16", MovementConfig(DType.FP16, False, False, False)),
    ("+ vectorized", MovementConfig(DType.FP16, True, False, False)),
    ("+ fused", MovementConfig(DType.FP16, True, True, False)),
    ("+ locality-aware", MovementConfig(DType.FP16, True, True, True)),
)


@functools.cache
def tab3_movement_ladder() -> dict:
    """Gather + scatter step of each Table 3 rung over the previous
    one, and the FP16, vectorized and full-stack speedups over FP32,
    on MinkUNet-1.0x.

    Below scale ~0.5 launch overhead hides the DRAM traffic that
    vectorized access saves, so the input stays near full size.
    """
    x = semantic_kitti_like().sample_tensor(seed=0, scale=0.7)
    ctx = ExecutionContext(engine=TorchSparseEngine(), numerics=False)
    MinkUNet(width=1.0)(x, ctx)
    kmaps = list(ctx.kmap_cache.values())
    times = []
    for _, cfg in TAB3_LADDER:
        total = 0.0
        for _, k, stride, c_in, c_out, sizes in ctx.layer_workloads:
            # the layer's kernel map, found by its shape
            km = next((
                km for km in kmaps
                if km.kernel_size == k and km.stride == stride
                and tuple(km.sizes) == sizes
            ), None)
            if km is None:
                continue
            skip = stride == 1 and k % 2 == 1
            total += gather_record(km, c_in, cfg, RTX_2080TI, skip).time
            total += scatter_record(km, c_out, cfg, RTX_2080TI, skip).time
        times.append(total)
    labels = [label for label, _ in TAB3_LADDER]
    out = {
        f"step: {label}": prev / t
        for label, prev, t in zip(labels[1:], times, times[1:])
    }
    for label in ("FP16", "+ vectorized", "+ locality-aware"):
        out[f"total: {label}"] = times[0] / times[labels.index(label)]
    return out


@dataclass(frozen=True)
class Claim:
    anchor: str
    measure: Callable[[], dict]
    bands: dict


CLAIMS = (
    Claim(
        anchor="Fig. 13: mapping optimizations compound to ~4.6x",
        measure=fig13_mapping_ladder,
        bands={
            "step: grid map search": (1.15, math.inf),  # paper 1.6x
            "step: fused downsample": MONOTONE,  # paper 1.5x
            "step: simplified logic": (1.3, math.inf),  # paper 1.8x
            "step: map symmetry": MONOTONE,  # paper 1.1x
            "total": (2.0, 12.0),  # paper ~4.6x
        },
    ),
    Claim(
        anchor="Tab. 3: data-movement optimizations compound to ~2.7x",
        measure=tab3_movement_ladder,
        bands={
            "total: FP16": (0.0, 1.6),  # paper 1.32x
            "total: + vectorized": (1.6, 2.1),  # paper 1.93x
            "total: + locality-aware": (2.0, 4.5),  # paper 2.72x
            # each rung no slower than the previous one by 1%
            "step: FP16": (1 / 1.01, math.inf),
            "step: + vectorized": (1 / 1.01, math.inf),
            "step: + fused": (1 / 1.01, math.inf),
            "step: + locality-aware": (1.2, math.inf),
        },
    ),
)


@pytest.mark.parametrize(
    "claim,quantity",
    [(c, q) for c in CLAIMS for q in c.bands],
    ids=[f"{c.anchor.split(':')[0]}-{q}" for c in CLAIMS for q in c.bands],
)
def test_claim_within_band(claim, quantity):
    lo, hi = claim.bands[quantity]
    value = claim.measure()[quantity]
    assert lo < value < hi, (
        f"{claim.anchor}: {quantity} = {value:.3f}, band ({lo:.3f}, {hi})"
    )


def test_every_band_is_measured():
    for claim in CLAIMS:
        assert set(claim.bands) == set(claim.measure()), claim.anchor
