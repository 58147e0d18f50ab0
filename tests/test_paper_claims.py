"""The paper's headline numbers as tier-1 gates, at reduced scale.

One table: every row names a paper anchor, the quantities measured for
it, the tolerance band each must fall in (open interval) and the
function that measures them.  The bands are the ones the full-scale
paper harness in ``benchmarks/`` asserts; here each row runs on a
reduced input through a pricing context
(``ExecutionContext(numerics=False)``), which makes every modeled record
a computed forward makes, so the table takes seconds.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core.engine import BaseEngine, EngineConfig, ExecutionContext
from repro.datasets.configs import waymo_like
from repro.models import CenterPoint

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
