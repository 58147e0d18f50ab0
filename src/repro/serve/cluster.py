"""Device workers and the memoized base-latency oracle.

A :class:`DeviceWorker` is one fleet slot: a :class:`GPUSpec` plus the
minimal serving state (busy flag, accumulated busy time, completion
count).  Service times come from the :class:`LatencyOracle`, which
prices each (zoo model, device spec, batch size, temperature, QoS rung)
**once** through a pricing-only execution context — mapping and cost
models only, no feature numerics — and memoizes the modeled latency.
The simulation then reuses that latency for every request, perturbed
per attempt by stall faults and log-normal noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.engine import BaseEngine, ExecutionContext
from repro.datasets.collate import batch_collate
from repro.datasets.voxelize import coarsen_sparse_tensor
from repro.gpu.device import GPUSpec
from repro.mapping.cache import MappingCache
from repro.models import MODEL_ZOO
from repro.robust.degrade import FULL_QUALITY, QualityConfig

#: Modeled fixed-overhead fraction of a batched frame on the overrides
#: path (no engine to measure): a batch of ``n`` costs
#: ``override * (alpha + (1 - alpha) * n)`` — per-frame cost strictly
#: decreasing in ``n``, mirroring the launch/padding amortization the
#: engine path measures for real models.
OVERRIDE_BATCH_ALPHA = 0.5


@dataclass
class DeviceWorker:
    """One serving slot in the fleet."""

    index: int
    label: str
    spec: GPUSpec
    busy: bool = False
    #: sim seconds spent serving (the placement load signal)
    busy_time: float = 0.0

    def start(self) -> None:
        if self.busy:
            raise RuntimeError(f"device {self.label} already busy")
        self.busy = True

    def release(self, elapsed: float) -> None:
        if not self.busy:
            raise RuntimeError(f"device {self.label} is not busy")
        self.busy = False
        self.busy_time += elapsed


class LatencyOracle:
    """Modeled base latency per (zoo model key, device spec), memoized.

    A *cold* price is one forward without a mapping cache.  A *warm*
    price is one forward through the device's persistent
    :class:`~repro.mapping.cache.MappingCache` after a priming forward
    of the same input has filled it: its mapping stage bills whatever
    the cache does not hold by then (at small scales grid tables can
    evict kernel maps, which are rebuilt and billed).  A priming forward
    that took no mapping-cache hit ran exactly as a cold forward does,
    so it is memoized as the cold price of the same key.

    Args:
        engine: engine whose config prices the latency.
        scale: dataset sample scale fed to ``sample_tensor``.
        seed: sample seed (one fixed input per model keeps the oracle
            deterministic and cheap).
        overrides: optional ``model_key -> seconds`` map bypassing the
            engine entirely (unit tests, synthetic campaigns).
    """

    def __init__(
        self,
        engine: BaseEngine,
        scale: float = 0.15,
        seed: int = 0,
        overrides: dict | None = None,
    ) -> None:
        self.engine = engine
        self.scale = scale
        self.seed = seed
        self.overrides = dict(overrides or {})
        #: (model_key, spec, n, warm, quality) -> attempt time
        self._latency: dict = {}
        self._models: dict = {}
        self._inputs: dict = {}
        #: (model_key, voxel_scale) -> requantized coarse input
        self._coarse_inputs: dict = {}
        #: dtype -> engine repriced at that storage dtype (QoS rungs)
        self._engines: dict = {}
        #: spec -> MappingCache — the per-device persistent mapping
        #: cache of the steady-state serving path
        self._mapcaches: dict = {}

    def _entry(self, key: str):
        for e in MODEL_ZOO:
            if e.key == key:
                return e
        raise ValueError(f"unknown zoo model {key!r}")

    def mapcache(self, spec: GPUSpec) -> MappingCache:
        """The device's persistent mapping cache (one per spec)."""
        cache = self._mapcaches.get(spec)
        if cache is None:
            cache = self._mapcaches[spec] = MappingCache()
        return cache

    def _engine_for(self, quality: QualityConfig) -> BaseEngine:
        """The engine repriced at the rung's storage dtype (memoized)."""
        if quality.dtype is None:
            return self.engine
        engine = self._engines.get(quality.dtype)
        if engine is None:
            engine = self._engines[quality.dtype] = BaseEngine(
                config=replace(self.engine.config, dtype=quality.dtype)
            )
        return engine

    def _input_for(self, model_key: str, quality: QualityConfig):
        """The model's fixed sample input at the rung's voxel scale."""
        if quality.voxel_scale == 1:
            return self._inputs[model_key]
        key = (model_key, quality.voxel_scale)
        x = self._coarse_inputs.get(key)
        if x is None:
            x = self._coarse_inputs[key] = coarsen_sparse_tensor(
                self._inputs[model_key], quality.voxel_scale
            )
        return x

    def _price(
        self,
        model_key: str,
        spec: GPUSpec,
        n: int,
        warm: bool,
        quality: QualityConfig,
    ) -> float:
        """Modeled latency of one forward over ``n`` collated frames.

        Runs through pricing-only contexts (``numerics=False``): every
        modeled record comes out as in a computed forward, without the
        casts, gathers and matmuls.  ``warm`` first primes the device's
        persistent mapping cache with a forward of the same input, then
        prices a second forward through it.  The priming forward is
        memoized as the cold price of the same key when that is not
        memoized yet and the forward took no mapping-cache hit: the
        cache then only stored what it built, so every record is the
        cache-less forward's.  A hit (an INT8 rung over full-resolution
        coordinates, or another model over the same input) would bill
        less mapping than a cold frame, so the cold key keeps its own
        cache-less forward.
        """
        if model_key not in self._models:
            entry = self._entry(model_key)
            self._models[model_key] = entry.make_model()
            self._inputs[model_key] = entry.make_dataset().sample_tensor(
                seed=self.seed, scale=self.scale
            )
        model = self._models[model_key]
        x = self._input_for(model_key, quality)
        if n > 1:
            x = batch_collate([x] * n)
        engine = self._engine_for(quality)
        cache = self.mapcache(spec) if warm else None
        ctx = ExecutionContext(
            engine=engine, device=spec, mapcache=cache, numerics=False
        )
        model(x, ctx)
        if warm:
            cold_key = (model_key, spec, n, False, quality)
            if cold_key not in self._latency and not any(
                r.name.startswith("mapcache.hit.") for r in ctx.profile.records
            ):
                self._latency[cold_key] = ctx.profile.total_time
            ctx = ExecutionContext(
                engine=engine, device=spec, mapcache=cache, numerics=False
            )
            model(x, ctx)
        return ctx.profile.total_time

    def base_latency(
        self,
        model_key: str,
        spec: GPUSpec,
        warm: bool = False,
        quality: QualityConfig | None = None,
    ) -> float:
        """Modeled latency of one frame (:meth:`batch_latency` at ``n=1``).

        ``warm=True`` prices a *warm* frame: the device already served
        this scene, so the frame runs once through the device's
        persistent :class:`~repro.mapping.cache.MappingCache` primed
        with the same input, and its mapping-stage artifacts
        (coordinate tables, downsampled coordinates, kernel maps) come
        out of the cache as far as the cache still holds them.  Latency
        overrides bypass the engine for both temperatures.

        ``quality`` prices a browned-out frame
        (:class:`~repro.robust.degrade.QualityConfig`): the engine runs
        at the rung's storage dtype over the input requantized at the
        rung's voxel scale, so the QoS speedup comes out of the same
        cost model as everything else.  On the overrides path (no
        engine) the rung's modeled ``speedup`` divides the override.
        """
        quality = FULL_QUALITY if quality is None else quality
        latency = self._latency.get((model_key, spec, 1, warm, quality))
        if latency is None:
            return self._miss(model_key, spec, 1, warm, quality)
        return latency

    def batch_latency(
        self,
        model_key: str,
        spec: GPUSpec,
        n: int,
        warm: bool = False,
        quality: QualityConfig | None = None,
    ) -> float:
        """Modeled latency of **one** batched attempt over ``n`` frames.

        The engine path collates ``n`` copies of the model's fixed
        sample input (:func:`~repro.datasets.collate.batch_collate`)
        and prices the batch once per ``(model, spec, n, warm,
        quality)``, memoized — so the sublinear batch cost
        (kernel-launch and bmm-padding amortization under adaptive
        grouping) comes out of the same cost model as everything else.
        A memo hit is one dict probe: specs and QoS rungs hash their
        fields once, at construction.

        On the overrides path (no engine) a batch of ``n`` is priced
        ``override * (OVERRIDE_BATCH_ALPHA + (1 - alpha) * n)``:
        per-frame cost strictly decreasing in ``n``, divided by the
        QoS rung's modeled speedup like :meth:`base_latency`.
        """
        quality = FULL_QUALITY if quality is None else quality
        latency = self._latency.get((model_key, spec, n, warm, quality))
        if latency is None:
            return self._miss(model_key, spec, n, warm, quality)
        return latency

    def _miss(
        self,
        model_key: str,
        spec: GPUSpec,
        n: int,
        warm: bool,
        quality: QualityConfig,
    ) -> float:
        """A memo miss: validate, take an override, or price and memoize."""
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        if model_key in self.overrides:
            base = float(self.overrides[model_key]) / quality.speedup
            if n == 1:
                return base
            return base * (
                OVERRIDE_BATCH_ALPHA + (1.0 - OVERRIDE_BATCH_ALPHA) * n
            )
        memo_key = (model_key, spec, int(n), bool(warm), quality)
        latency = self._latency.get(memo_key)
        if latency is None:
            if n > 1:
                # the n=1 anchor is priced first: the device cache's
                # contents, and so warm prices, depend on pricing order
                self.base_latency(model_key, spec, warm=warm, quality=quality)
            latency = self._latency[memo_key] = self._price(
                model_key, spec, int(n), bool(warm), quality
            )
        return latency

    def mean_latency(self, model_keys, specs) -> float:
        """Mean base latency over a traffic mix x fleet (scale anchor
        for backoff and probe cadence).

        Unique specs are taken in first-seen order, not via ``set``:
        summation order must not depend on string hashing, or two
        processes would disagree on the last float bit and break the
        campaign's bit-for-bit reproducibility.
        """
        uniq: list = []
        for s in specs:
            if s not in uniq:
                uniq.append(s)
        lats = [self.base_latency(m, s) for m in model_keys for s in uniq]
        return sum(lats) / len(lats) if lats else 0.0

    def prewarm(
        self, model_keys, specs, max_batch: int, qualities, warm: bool
    ) -> None:
        """Price every batch size up to ``max_batch``, model, spec and
        QoS rung (``None`` is full quality) a campaign may ask for, cold
        and (with ``warm``) warm.

        The warm price is asked for first, so its priming forward can
        stand in for the cold price (:meth:`_price`).  Cold forwards run
        without a cache, so asking for them later moves no warm price.
        """
        for n in range(1, max_batch + 1):
            for model in model_keys:
                for spec in specs:
                    for q in qualities:
                        if warm:
                            self.batch_latency(
                                model, spec, n, warm=True, quality=q
                            )
                        self.batch_latency(model, spec, n, quality=q)
