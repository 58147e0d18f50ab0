"""End-to-end model execution across engines and devices.

``run_model`` produces the modeled latency/FPS of one (model, input,
engine, device) combination; ``run_steady_state`` streams temporally
coherent frames through a persistent mapping cache (cold frame builds,
warm frames reuse); ``collect_workloads``/``tune_model`` run
Algorithm 5's offline strategy search for a model on a dataset sample.

Every runner here reads only the modeled clock (profile, layer
workloads, metrics), so each forward runs in a pricing-only
:class:`~repro.core.engine.ExecutionContext`: mapping and cost models
run, the feature numerics do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from typing import Iterable, Sequence

from repro.core.engine import BaseEngine, EngineConfig, ExecutionContext
from repro.core.sparse_tensor import SparseTensor
from repro.core.tuner import LayerWorkload, StrategyBook, tune_workloads
from repro.gpu.device import GPUSpec, RTX_2080TI
from repro.gpu.timeline import Profile
from repro.mapping.cache import MappingCache
from repro.nn.modules import Module


@dataclass(frozen=True)
class BenchResult:
    """One end-to-end measurement."""

    model: str
    engine: str
    device: str
    latency: float  # modeled seconds per input
    profile: Profile

    @property
    def fps(self) -> float:
        """Frames per second of the modeled latency.

        Zero latency yields ``inf`` rather than ``0.0``: a broken run
        must never masquerade as a "0 FPS" baseline in regression math
        (a real run would then always look infinitely slower, while the
        old ``0.0`` made every comparison against it silently pass).
        """
        return float("inf") if self.latency == 0 else 1.0 / self.latency


def run_model(
    model: Module,
    inputs: Sequence[SparseTensor],
    engine: BaseEngine,
    device: GPUSpec = RTX_2080TI,
    model_name: str = "",
) -> BenchResult:
    """Average modeled latency of ``model`` over ``inputs``.

    Each input gets a fresh context (coordinate/map caches are per-input,
    as in the real systems).
    """
    if not inputs:
        raise ValueError("need at least one input")
    merged = Profile()
    total = 0.0
    for x in inputs:
        ctx = ExecutionContext(engine=engine, device=device, numerics=False)
        model(x, ctx)
        total += ctx.profile.total_time
        merged.extend(ctx.profile.records)
    return BenchResult(
        model=model_name or model.name,
        engine=engine.config.name,
        device=device.name,
        latency=total / len(inputs),
        profile=merged,
    )


@dataclass(frozen=True)
class SteadyStateResult:
    """One temporal-coherence stream: frame 0 cold, the rest warm.

    ``frame_latencies`` / ``frame_mapping`` are per-frame modeled
    end-to-end and mapping-stage seconds; ``cache_stats`` is the
    resident :meth:`~repro.mapping.cache.MappingCache.stats` snapshot
    after the stream.
    """

    model: str
    engine: str
    device: str
    frame_latencies: tuple
    frame_mapping: tuple
    cache_stats: dict

    @property
    def frames(self) -> int:
        return len(self.frame_latencies)

    @property
    def cold_latency(self) -> float:
        return self.frame_latencies[0]

    @property
    def warm_latency(self) -> float:
        """Mean modeled latency of the warm frames (frames 1..N-1)."""
        warm = self.frame_latencies[1:]
        return sum(warm) / len(warm)

    @property
    def cold_mapping(self) -> float:
        return self.frame_mapping[0]

    @property
    def warm_mapping(self) -> float:
        warm = self.frame_mapping[1:]
        return sum(warm) / len(warm)

    @property
    def latency_reduction(self) -> float:
        """Warm-frame end-to-end reduction vs. the cold frame."""
        if self.cold_latency == 0:
            return 0.0
        return 1.0 - self.warm_latency / self.cold_latency

    @property
    def mapping_reduction(self) -> float:
        """Warm-frame mapping-stage reduction vs. the cold frame."""
        if self.cold_mapping == 0:
            return 0.0
        return 1.0 - self.warm_mapping / self.cold_mapping

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "engine": self.engine,
            "device": self.device,
            "frames": self.frames,
            "cold_latency": self.cold_latency,
            "warm_latency": self.warm_latency,
            "cold_mapping": self.cold_mapping,
            "warm_mapping": self.warm_mapping,
            "latency_reduction": self.latency_reduction,
            "mapping_reduction": self.mapping_reduction,
            "frame_latencies": list(self.frame_latencies),
            "frame_mapping": list(self.frame_mapping),
            "cache": dict(self.cache_stats),
        }


def run_steady_state(
    model: Module,
    x: SparseTensor,
    engine: BaseEngine,
    device: GPUSpec = RTX_2080TI,
    frames: int = 4,
    seed: int = 0,
    mapcache: MappingCache | None = None,
    model_name: str = "",
) -> SteadyStateResult:
    """Stream ``frames`` temporally coherent frames through one cache.

    Frame 0 is the input itself (the cold frame, building every
    mapping-stage artifact into ``mapcache``); frames 1..N-1 share the
    *exact* coordinate set with fresh seeded features — the streaming
    LiDAR regime after ego-motion compensation, where the sparsity
    pattern persists while reflectance/intensity features change.  Each
    frame still gets a fresh :class:`ExecutionContext` (as in the real
    serving path); only the content-addressed mapping cache persists.
    """
    if frames < 2:
        raise ValueError("need at least 2 frames (one cold, one warm)")
    cache = mapcache if mapcache is not None else MappingCache()
    latencies: list = []
    mapping: list = []
    for f in range(frames):
        if f == 0:
            frame = x
        else:
            rng = np.random.default_rng(seed + f)
            feats = rng.standard_normal(x.feats.shape).astype(x.feats.dtype)
            frame = x.replace_feats(feats)
        ctx = ExecutionContext(
            engine=engine, device=device, mapcache=cache, numerics=False
        )
        model(frame, ctx)
        latencies.append(ctx.profile.total_time)
        mapping.append(ctx.profile.stage_times().get("mapping", 0.0))
    return SteadyStateResult(
        model=model_name or model.name,
        engine=engine.config.name,
        device=device.name,
        frame_latencies=tuple(latencies),
        frame_mapping=tuple(mapping),
        cache_stats=cache.stats(),
    )


def collect_workloads(
    model: Module,
    inputs: Sequence[SparseTensor],
    device: GPUSpec = RTX_2080TI,
) -> list[LayerWorkload]:
    """Run the model over sample inputs and collect per-layer map sizes.

    Layers are keyed by their module name; each input contributes one
    map-size sample per convolution.
    """
    from repro.core.engine import TorchSparseEngine

    engine = TorchSparseEngine()
    per_layer: dict[str, dict] = {}
    for x in inputs:
        ctx = ExecutionContext(engine=engine, device=device, numerics=False)
        model(x, ctx)
        for name, k, s, c_in, c_out, sizes in ctx.layer_workloads:
            entry = per_layer.setdefault(
                name,
                {"kernel_size": k, "stride": s, "c_in": c_in, "c_out": c_out,
                 "samples": []},
            )
            entry["samples"].append(sizes)
    return [
        LayerWorkload(
            name=name,
            kernel_size=e["kernel_size"],
            stride=e["stride"],
            c_in=e["c_in"],
            c_out=e["c_out"],
            samples=tuple(e["samples"]),
        )
        for name, e in per_layer.items()
    ]


def tune_model(
    model: Module,
    inputs: Sequence[SparseTensor],
    device: GPUSpec = RTX_2080TI,
    dtype=None,
    epsilons: Iterable[float] | None = None,
    thresholds: Iterable[float] | None = None,
) -> StrategyBook:
    """Offline Algorithm 5 for a whole model on a dataset sample."""
    from repro.core.tuner import DEFAULT_EPSILONS, DEFAULT_THRESHOLDS
    from repro.gpu.memory import DType

    workloads = collect_workloads(model, inputs, device)
    return tune_workloads(
        workloads,
        dtype or DType.FP16,
        device,
        epsilons=tuple(epsilons) if epsilons else DEFAULT_EPSILONS,
        thresholds=tuple(thresholds) if thresholds else DEFAULT_THRESHOLDS,
    )


def tuned_engine_config(book: StrategyBook, **overrides) -> EngineConfig:
    """TorchSparse config carrying a tuned strategy book."""
    from dataclasses import replace

    return replace(EngineConfig.torchsparse(), strategy_book=book, **overrides)
