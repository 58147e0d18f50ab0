"""Execution engines and per-pass context.

An :class:`EngineConfig` switches every paper optimization on or off;
:class:`BaseEngine.convolution` runs the four-stage pipeline under that
configuration, logging priced :class:`~repro.gpu.timeline.KernelRecord`
entries.  The provided presets mirror the systems evaluated in Figure
11:

* :meth:`EngineConfig.torchsparse` — everything on (adaptive grouping,
  FP16 vectorized fused locality-aware movement, auto grid/hash maps,
  fused downsampling, simplified logic, map symmetry);
* :meth:`EngineConfig.baseline` — the paper's unoptimized FP32 design;
* baselines modeled after MinkowskiEngine and SpConv live in
  :mod:`repro.baselines`.

The :class:`ExecutionContext` owns the per-input caches (coordinates,
coordinate tables and kernel maps per stride level) that real engines
keep in their coordinate managers — built once on the way down the
U-Net, reused by every later layer, including transposed convolutions
on the way up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dataflow import (
    MovementConfig,
    execute_fetch_on_demand,
    execute_gather_matmul_scatter,
)
from repro.core.grouping import make_plan, record_plan
from repro.core.sparse_tensor import SparseTensor
from repro.core.kernel import is_all_odd, normalize, to_tuple
from repro.core.tuner import StrategyBook
from repro.gpu.device import GPUSpec, RTX_2080TI
from repro.gpu.memory import DType
from repro.gpu.timeline import Profile
from repro.hashmap.grid_table import GridTable
from repro.mapping.cache import (
    MappingCache,
    coords_fingerprint,
    coords_key,
    coords_nbytes,
    index_key,
    index_nbytes,
    kmap_key,
    kmap_nbytes,
)
from repro.mapping.downsample import downsample_coords
from repro.mapping.kmap import CoordIndex, KernelMap, build_kmap
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer
from repro.robust.degrade import DEFAULT_LADDER, CircuitBreaker, RobustConfig
from repro.robust.integrity import IntegrityChecker
from repro.robust.errors import (
    FAULT_ERRORS,
    DegradationExhaustedError,
    InputValidationError,
    KernelMapCorruptionError,
    NumericFaultError,
)
from repro.robust.faults import (
    get_injector,
    maybe_corrupt_kmap,
    maybe_drop_strategy,
    maybe_grid_oom,
)

#: Seconds of instruction work per table access in the map-search kernels.
#: The baseline figure reflects un-specialized control flow; TorchSparse's
#: simplified + unrolled kernels cut it ~4x (Section 6.3).
MAPPING_INSTR_BASELINE = 0.22e-9
MAPPING_INSTR_SIMPLIFIED = MAPPING_INSTR_BASELINE / 4.0

#: Slot sizes priced per table access (key+value vs. value-only).
HASH_SLOT_BYTES = 16
GRID_SLOT_BYTES = 8

#: Grid tables (even explicitly requested ones) fall back to hashmaps
#: past this memory budget — mirroring the range-cropped spatial shapes
#: real grid-based engines require.
MAX_GRID_BYTES = 2 * 1024 * 1024 * 1024

#: Spatial slack of every coordinate index's grid box, so neighbor
#: probes at kernel offsets stay inside it.
GRID_MARGIN = 2


@dataclass(frozen=True)
class EngineConfig:
    """Every optimization knob of the engine.

    Attributes:
        name: label used in reports.
        dtype: feature storage dtype (matmul runs in the same precision).
        vectorized: vectorized (4-byte-per-thread) scatter/gather.
        fused: fuse all gathers before matmul / scatters after.
        locality_aware: input-/output-stationary movement order.
        grouping: matmul strategy (``separate``/``symmetric``/``fixed``/
            ``adaptive``).
        epsilon, s_threshold: adaptive-grouping parameters used when no
            tuned strategy book entry exists for a layer.
        strategy_book: per-layer tuned ``(epsilon, S)`` (Algorithm 5).
        map_backend: ``hash``, ``grid`` or ``auto`` (grid while affordable).
        fused_downsample: fuse the 5-stage output-coordinate pipeline.
        simplified_logic: simplified/unrolled map-search control flow.
        use_map_symmetry: probe only half the offsets at stride 1.
        fetch_on_demand_threshold: run the fetch-on-demand dataflow when
            the layer's mean map size falls below this (MinkowskiEngine's
            small-workload specialization); 0 disables it.
        robustness: fault detection / graceful degradation knobs
            (:class:`~repro.robust.degrade.RobustConfig`); ``None``
            disables the robustness layer entirely (seed behavior).
    """

    name: str = "torchsparse"
    dtype: DType = DType.FP16
    vectorized: bool = True
    fused: bool = True
    locality_aware: bool = True
    grouping: str = "adaptive"
    epsilon: float = 0.4
    s_threshold: float = 65536.0
    strategy_book: StrategyBook | None = None
    map_backend: str = "auto"
    fused_downsample: bool = True
    simplified_logic: bool = True
    use_map_symmetry: bool = True
    fetch_on_demand_threshold: int = 0
    robustness: RobustConfig | None = None

    # -- presets -----------------------------------------------------------

    @classmethod
    def torchsparse(cls, **overrides) -> "EngineConfig":
        """The full TorchSparse system (all Section 4 optimizations)."""
        return replace(cls(), **overrides) if overrides else cls()

    @classmethod
    def hardened(cls, base: "EngineConfig | None" = None, **robust_overrides):
        """A preset with the robustness layer enabled (detection +
        graceful degradation down the ladder)."""
        cfg = base if base is not None else cls()
        return replace(cfg, robustness=RobustConfig(**robust_overrides))

    @classmethod
    def baseline(cls, **overrides) -> "EngineConfig":
        """The paper's unoptimized FP32 reference design."""
        cfg = cls(
            name="baseline-fp32",
            dtype=DType.FP32,
            vectorized=False,
            fused=False,
            locality_aware=False,
            grouping="separate",
            map_backend="hash",
            fused_downsample=False,
            simplified_logic=False,
            use_map_symmetry=False,
        )
        return replace(cfg, **overrides) if overrides else cfg

    @property
    def movement(self) -> MovementConfig:
        return MovementConfig(
            dtype=self.dtype,
            vectorized=self.vectorized,
            fused=self.fused,
            locality_aware=self.locality_aware,
        )


class ExecutionContext:
    """Per-input state: device, profile and the coordinate/map caches.

    Create one context per point cloud (or reuse after :meth:`reset`).
    Passing a :class:`~repro.mapping.cache.MappingCache` turns on
    persistent, content-addressed reuse of coordinate tables and kernel
    maps across contexts (steady-state serving of temporally coherent
    streams); without one, every context builds its maps from scratch
    (the seed-exact cold path).

    ``numerics=False`` makes a *pricing* context: the modeled clock
    depends only on coordinates, kernel maps and shapes, so the costly
    kernels (gather-matmul-scatter, fetch-on-demand, dense conv2d) skip
    their casts, gathers and matmuls and return zeros of the right
    shape, while every record, span and metric comes out exactly as in
    a computed forward.  A pricing context refuses what it cannot
    honour: an armed fault injector (its sites mutate values) and ABFT
    integrity checking (verdicts and checksum cost need values).
    """

    def __init__(
        self,
        engine: "BaseEngine | None" = None,
        device: GPUSpec = RTX_2080TI,
        profile: Profile | None = None,
        mapcache: MappingCache | None = None,
        numerics: bool = True,
    ):
        self.engine = engine or TorchSparseEngine()
        if not numerics:
            if get_injector() is not None:
                raise RuntimeError(
                    "a pricing-only forward cannot run under an armed fault "
                    "injector: fault sites mutate feature values"
                )
            robust = self.engine.config.robustness
            if robust is not None and robust.integrity is not None:
                raise ValueError(
                    "a pricing-only forward cannot verify ABFT integrity: "
                    "checksums and their cost need feature values"
                )
        #: False = price the forward from shapes alone (see above)
        self.numerics = numerics
        self.device = device
        self.profile = profile if profile is not None else Profile()
        if self.profile.tracer is None:
            self.profile.tracer = Tracer()
        #: hierarchical span tracer; records logged under an open span
        #: carry its path (layer -> stage) for trace export and reports
        self.trace = self.profile.tracer
        #: metrics registry active when this context was created
        self.metrics = get_registry()
        #: persistent content-addressed cache (None = cold path)
        self.mapcache = mapcache
        self.coords_at_stride: dict[int, np.ndarray] = {}
        self.index_at_stride: dict[int, CoordIndex] = {}
        self.kmap_cache: dict[object, KernelMap] = {}
        #: (layer_name, kernel_size, stride, c_in, c_out, map sizes) per
        #: executed convolution — the tuner's training signal.
        self.layer_workloads: list[tuple] = []

    def reset(self) -> None:
        """Drop caches and profiling for a fresh input.

        The persistent :attr:`mapcache` (if any) survives — its entries
        are content-addressed, so a new input can only ever hit entries
        whose coordinates match exactly.
        """
        self.profile.clear()
        self.coords_at_stride.clear()
        self.index_at_stride.clear()
        self.kmap_cache.clear()
        self.layer_workloads.clear()

    def register_coords(self, stride: int, coords: np.ndarray) -> None:
        """Pin ``coords`` as *the* coordinate set of ``stride``.

        Re-registering the same content (by fingerprint) is a no-op.
        Re-registering *different* content — a new input flowing through
        a reused context without :meth:`reset` — drops every cached
        coordinate set, table and kernel map before registering, so
        nothing derived from the old input can be served against the
        new one.  (The old ``setdefault`` silently kept the stale
        entries, which made the stride-only cache keys serve one
        input's maps against another input's features.)
        """
        cached = self.coords_at_stride.get(stride)
        if cached is None:
            self.coords_at_stride[stride] = coords
            return
        if cached is coords or coords_fingerprint(cached) == coords_fingerprint(
            coords
        ):
            return
        self.metrics.counter("engine.ctx_rebuilds").inc()
        self.coords_at_stride.clear()
        self.index_at_stride.clear()
        self.kmap_cache.clear()
        self.coords_at_stride[stride] = coords


@dataclass
class BaseEngine:
    """Configurable four-stage sparse convolution executor.

    When ``config.robustness`` is set, every convolution runs under the
    fault-detection + graceful-degradation protocol: detected faults
    retry the layer down the ladder (``bmm -> mm``, ``FP16 vectorized ->
    FP32 scalar``, ``grid -> hashmap``) with per-layer circuit breakers
    (``self.breakers``) pinning the fallback after repeated failures.
    The per-attempt engine configuration is threaded explicitly (the
    ``cfg`` parameters below); ``cfg=None`` means ``self.config``.
    """

    config: EngineConfig = field(default_factory=EngineConfig)
    #: per-layer circuit breakers (populated only under robustness)
    breakers: dict = field(default_factory=dict, repr=False, compare=False)

    # -- mapping helpers -----------------------------------------------------

    def _choose_backend(
        self, coords: np.ndarray, cfg: EngineConfig | None = None
    ) -> str:
        cfg = cfg or self.config
        backend = cfg.map_backend
        if backend == "hash":
            return backend
        if backend not in ("grid", "auto"):
            raise ValueError(f"unknown map_backend {backend!r}")
        if coords.shape[0] == 0:
            return "hash"
        # the same box _get_index builds, so "grid" never blows the budget
        _, shape = GridTable.box(coords, GRID_MARGIN)
        volume = int(np.prod(shape))
        # Even a forced "grid" falls back to hash past the memory budget —
        # the paper notes SpConv itself needed such changes "to avoid OOM
        # in large-scale scenes" (Section 5.1).
        return "grid" if volume * GRID_SLOT_BYTES <= MAX_GRID_BYTES else "hash"

    def _mapping_instr(self, cfg: EngineConfig | None = None) -> float:
        cfg = cfg or self.config
        return (
            MAPPING_INSTR_SIMPLIFIED
            if cfg.simplified_logic
            else MAPPING_INSTR_BASELINE
        )

    def _price_table(
        self,
        index: CoordIndex,
        ctx: ExecutionContext,
        label: str,
        cfg: EngineConfig | None = None,
    ):
        """Convert a table's access counters into mapping-stage records."""
        stats = index.stats
        slot = (
            GRID_SLOT_BYTES
            if isinstance(index.table, GridTable)
            else HASH_SLOT_BYTES
        )
        accesses = stats.build_accesses + stats.query_accesses
        t_mem = ctx.device.mem_time(accesses * slot, efficiency=0.5)
        t_instr = accesses * self._mapping_instr(cfg)
        ctx.profile.log(
            label,
            "mapping",
            max(t_mem, t_instr) + ctx.device.launch_overhead,
            bytes_moved=accesses * slot,
        )
        # reset so later reuse of the same table is not double-billed
        stats.build_accesses = 0
        stats.query_accesses = 0

    def _get_index(
        self,
        stride: int,
        coords: np.ndarray,
        ctx: ExecutionContext,
        cfg: EngineConfig | None = None,
    ) -> CoordIndex:
        index = ctx.index_at_stride.get(stride)
        if index is not None:
            ctx.metrics.counter("engine.cache.hits", cache="index").inc()
            return index
        ctx.metrics.counter("engine.cache.misses", cache="index").inc()
        backend = self._choose_backend(coords, cfg)
        cache = ctx.mapcache
        key = index_key(coords, backend) if cache is not None else None
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                ctx.index_at_stride[stride] = cached
                ctx.profile.log(f"mapcache.hit.index.s{stride}", "mapping", 0.0)
                return cached
        if backend == "grid":
            # fault-injection site: simulated grid allocation failure
            maybe_grid_oom(f"table.build.s{stride}.grid")
        index = CoordIndex.build(
            coords,
            backend=backend,
            margin=GRID_MARGIN,
            max_grid_bytes=MAX_GRID_BYTES,
        )
        ctx.index_at_stride[stride] = index
        self._price_table(index, ctx, f"table.build.s{stride}.{backend}", cfg)
        if cache is not None:
            cache.put(key, index, index_nbytes(index))
        return index

    def _get_kmap(
        self,
        x: SparseTensor,
        out_coords: np.ndarray,
        out_stride: int,
        kernel_size: int,
        stride: int,
        ctx: ExecutionContext,
        cfg: EngineConfig | None = None,
    ) -> KernelMap:
        cfg = cfg or self.config
        return self._lookup_kmap(
            x.coords,
            x.stride,
            out_coords,
            out_stride,
            kernel_size,
            stride,
            ctx,
            cfg,
            use_symmetry=cfg.use_map_symmetry,
            label=f"k{kernel_size}.s{stride}",
        )

    def _lookup_kmap(
        self,
        in_coords: np.ndarray,
        in_stride,
        out_coords: np.ndarray,
        out_stride,
        kernel_size,
        stride,
        ctx: ExecutionContext,
        cfg: EngineConfig,
        use_symmetry: bool,
        label: str,
    ) -> KernelMap:
        """Kernel-map lookup through both cache tiers, building on miss.

        The key is fully content-addressed (coordinate fingerprints plus
        every map-shaping parameter — the old per-context key omitted
        symmetry and coordinate identity, so per-context and persistent
        tiers could never have diverged even before the keying fix).
        A persistent hit skips table build, map search and map write
        entirely; it is logged as a zero-cost ``mapcache.hit`` mapping
        record so traces still attribute the stage.
        """
        key = kmap_key(
            in_coords,
            out_coords,
            in_stride,
            out_stride,
            kernel_size,
            stride,
            use_symmetry,
        )
        kmap = ctx.kmap_cache.get(key)
        if kmap is not None:
            ctx.metrics.counter("engine.cache.hits", cache="kmap").inc()
            return kmap
        ctx.metrics.counter("engine.cache.misses", cache="kmap").inc()
        cache = ctx.mapcache
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                if get_injector() is not None:
                    # in-place fault injection must not reach the shared entry
                    cached = cached.clone()
                ctx.kmap_cache[key] = cached
                with ctx.profile.span("mapping"):
                    ctx.profile.log(f"mapcache.hit.kmap.{label}", "mapping", 0.0)
                return cached
        with ctx.profile.span("mapping"):
            index = self._get_index(in_stride, in_coords, ctx, cfg)
            kmap = build_kmap(
                in_coords,
                index,
                out_coords,
                kernel_size,
                stride=stride,
                use_symmetry=use_symmetry,
            )
            self._price_table(index, ctx, f"kmap.search.{label}", cfg)
            self._price_map_write(kmap, ctx, f"kmap.write.{label}", cfg)
        ctx.kmap_cache[key] = kmap
        if cache is not None:
            cache.put(
                key,
                kmap.clone() if get_injector() is not None else kmap,
                kmap_nbytes(kmap),
            )
        return kmap

    def _price_map_write(
        self,
        kmap: KernelMap,
        ctx: ExecutionContext,
        label: str,
        cfg: EngineConfig | None = None,
    ):
        """Writing the searched map entries to DRAM.

        Every entry is an (input index, output index) pair written once;
        mirrored entries (symmetry path) additionally re-read their
        source entry.  This cost does not shrink with symmetry, which is
        what bounds the paper's symmetry gain to ~1.1x.
        """
        entry_bytes = kmap.total * 8 + kmap.mirrored_entries * 8
        instr = (kmap.total + kmap.mirrored_entries) * self._mapping_instr(cfg)
        ctx.profile.log(
            label,
            "mapping",
            max(ctx.device.mem_time(entry_bytes, efficiency=0.7), instr),
            bytes_moved=entry_bytes,
        )

    def _output_coords(
        self,
        x: SparseTensor,
        kernel_size,
        stride,
        out_stride,
        ctx: ExecutionContext,
        fused: bool,
        label: str,
    ) -> np.ndarray:
        """Downsampled output coordinates through both cache tiers.

        Per-context first (one build per stride level per input), then
        the persistent cache keyed by the parent coordinates' content —
        a warm frame re-registers the exact cached array, which keeps
        every downstream fingerprint identical and lets the kernel-map
        lookups hit as well.
        """
        cached = ctx.coords_at_stride.get(out_stride)
        if cached is not None:
            ctx.metrics.counter("engine.cache.hits", cache="coords").inc()
            return cached
        ctx.metrics.counter("engine.cache.misses", cache="coords").inc()
        cache = ctx.mapcache
        key = coords_key(x.coords, kernel_size, stride) if cache is not None else None
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                with ctx.profile.span("mapping"):
                    ctx.profile.log(
                        f"mapcache.hit.coords.s{stride}", "mapping", 0.0
                    )
                ctx.register_coords(out_stride, hit)
                return hit
        out_coords, ds_cost = downsample_coords(x.coords, kernel_size, stride)
        with ctx.profile.span("mapping"):
            ctx.profile.log(
                f"{label}.s{stride}",
                "mapping",
                ctx.device.mem_time(ds_cost.total_bytes(fused), efficiency=0.7)
                + ds_cost.launches(fused) * ctx.device.launch_overhead,
                bytes_moved=ds_cost.total_bytes(fused),
                launches=ds_cost.launches(fused),
            )
        ctx.register_coords(out_stride, out_coords)
        if cache is not None:
            cache.put(key, out_coords, coords_nbytes(out_coords))
        return out_coords

    # -- fault detection / recovery helpers ----------------------------------

    def _detect_kmap_fault(self, kmap: KernelMap, label: str) -> None:
        """Range-check a kernel map, converting defects to typed faults.

        Active only under ``robustness.detect`` + ``verify_kmap``; the
        unprotected engine runs maps unchecked (seed behavior).
        """
        robust = self.config.robustness
        if robust is None or not (robust.detect and robust.verify_kmap):
            return
        try:
            kmap.validate()
        except ValueError as e:
            raise KernelMapCorruptionError(f"{label}: {e}") from e

    def _detect_numeric_fault(self, feats: np.ndarray, label: str) -> None:
        """Raise on NaN/Inf layer outputs when numeric detection is on."""
        robust = self.config.robustness
        if robust is None or not (robust.detect and robust.verify_numerics):
            return
        if not np.isfinite(feats).all():
            n_bad = int((~np.isfinite(feats)).sum())
            raise NumericFaultError(
                f"{label}: {n_bad} non-finite values in layer output"
            )

    def _check_input(
        self, x: SparseTensor, ctx: ExecutionContext, robust: RobustConfig, label: str
    ) -> SparseTensor:
        """Boundary check on input features (repair or raise per policy)."""
        if not robust.verify_numerics:
            return x
        finite = np.isfinite(x.feats)
        if finite.all():
            return x
        n_bad = int((~finite).sum())
        ctx.metrics.counter("robust.input_faults", layer=label).inc()
        if robust.input_policy == "strict":
            raise InputValidationError(
                f"{label}: {n_bad} non-finite input feature values"
            )
        ctx.metrics.counter("robust.inputs", action="repaired").inc()
        return x.replace_feats(np.where(finite, x.feats, np.float32(0.0)))

    def _record_fault(
        self, err: Exception, ctx: ExecutionContext, label: str, level: int
    ) -> None:
        """Make a detected fault visible as a counter and a span."""
        kind = getattr(err, "kind", "fault")
        ctx.metrics.counter("robust.faults", kind=kind, layer=label).inc()
        with ctx.profile.span(
            f"fault.{kind}", kind="fault", layer=label, level=level, error=str(err)
        ):
            ctx.profile.log(f"fault.{kind}", "other", 0.0)

    def _purge_mapping_caches(self, ctx: ExecutionContext, x: SparseTensor) -> None:
        """Drop cached tables/maps touching the input's stride level.

        A corrupted kernel map or overflowed table may already have been
        cached before detection; a retry must rebuild from scratch.
        Persistent entries built from the same coordinates are purged
        too — a chaos-corrupted map must never survive into another
        request as a "warm hit".
        """
        s = x.stride
        for key in [
            k for k in ctx.kmap_cache if s in (k.in_stride, k.out_stride)
        ]:
            ctx.kmap_cache.pop(key, None)
        ctx.index_at_stride.pop(s, None)
        if ctx.mapcache is not None:
            fps = {coords_fingerprint(x.coords)}
            cached = ctx.coords_at_stride.get(s)
            if cached is not None and cached is not x.coords:
                fps.add(coords_fingerprint(cached))
            ctx.mapcache.purge(fps)

    # -- the public op -------------------------------------------------------

    def convolution(
        self,
        x: SparseTensor,
        weights: np.ndarray,
        ctx: ExecutionContext,
        kernel_size: int = 3,
        stride: int = 1,
        transposed: bool = False,
        bias: np.ndarray | None = None,
        layer_name: str = "",
    ) -> SparseTensor:
        """One sparse convolution under this engine's configuration.

        ``stride > 1`` with ``transposed=False`` downsamples (output
        stride multiplies); ``transposed=True`` upsamples back onto the
        cached coordinates of the finer level, reusing the cached kernel
        map of the corresponding downsampling convolution.

        With ``config.robustness`` set, detected faults retry the layer
        down the degradation ladder (see :mod:`repro.robust.degrade`);
        with ``degrade=False`` they surface as typed
        :class:`~repro.robust.errors.RobustnessError` subclasses.
        """
        if x.num_points == 0:
            raise InputValidationError("cannot convolve an empty tensor")
        ctx.register_coords(x.stride, x.coords)

        stride = normalize(stride)
        kernel_size = normalize(kernel_size)
        robust = self.config.robustness
        if robust is None:
            return self._convolve(
                x,
                weights,
                ctx,
                kernel_size,
                stride,
                transposed,
                bias,
                layer_name,
                self.config,
            )
        return self._convolve_robust(
            x, weights, ctx, kernel_size, stride, transposed, bias, layer_name, robust
        )

    def _convolve_robust(
        self,
        x: SparseTensor,
        weights: np.ndarray,
        ctx: ExecutionContext,
        kernel_size: int,
        stride: int,
        transposed: bool,
        bias: np.ndarray | None,
        layer_name: str,
        robust: RobustConfig,
    ) -> SparseTensor:
        """The retry protocol around :meth:`_convolve`.

        Each attempt runs under the engine config degraded to the
        current ladder level; a detected fault advances to the first
        rung addressing its stage, purges mapping caches the fault may
        have poisoned, and retries.  The layer's circuit breaker pins
        the recovery level after repeated failures so later inputs skip
        the known-bad fast path.
        """
        label = layer_name or (
            f"conv{'T' if transposed else ''}.k{kernel_size}.s{stride}"
        )
        breaker = self.breakers.get(label)
        if breaker is None:
            breaker = CircuitBreaker(threshold=robust.breaker_threshold)
            self.breakers[label] = breaker
        if robust.detect:
            x = self._check_input(x, ctx, robust, label)
        level = breaker.pinned
        attempts = 0
        recovered = False
        while True:
            cfg = DEFAULT_LADDER.config_at(self.config, level)
            try:
                out = self._convolve(
                    x,
                    weights,
                    ctx,
                    kernel_size,
                    stride,
                    transposed,
                    bias,
                    layer_name,
                    cfg,
                )
            except FAULT_ERRORS as err:
                self._record_fault(err, ctx, label, level)
                if not robust.degrade:
                    raise
                if err.stage == "mapping":
                    self._purge_mapping_caches(ctx, x)
                attempts += 1
                nxt = DEFAULT_LADDER.next_level(level, err.stage)
                if nxt is None or attempts > robust.max_retries:
                    breaker.record_failure(DEFAULT_LADDER.floor)
                    raise DegradationExhaustedError(
                        f"{label}: fault persists at ladder level "
                        f"{level} ({DEFAULT_LADDER.rung_name(level)}) after "
                        f"{attempts} attempts: {err}"
                    ) from err
                if breaker.record_failure(nxt):
                    ctx.metrics.counter(
                        "robust.breaker_pinned",
                        layer=label,
                        rung=DEFAULT_LADDER.rung_name(nxt),
                    ).inc()
                level = nxt
                recovered = True
                continue
            if level > 0:
                rung = DEFAULT_LADDER.rung_name(level)
                ctx.metrics.counter(
                    "robust.degraded_runs", layer=label, rung=rung
                ).inc()
                if recovered:
                    with ctx.profile.span(
                        f"recovered.{label}", kind="recovery", level=level, rung=rung
                    ):
                        ctx.profile.log(f"recovered.{rung}", "other", 0.0)
            breaker.record_success(level)
            return out

    def _convolve(
        self,
        x: SparseTensor,
        weights: np.ndarray,
        ctx: ExecutionContext,
        kernel_size: int,
        stride: int,
        transposed: bool,
        bias: np.ndarray | None,
        layer_name: str,
        cfg: EngineConfig,
    ) -> SparseTensor:
        """One attempt of the four-stage pipeline under ``cfg``."""
        if transposed:
            out_stride, out_coords = self._upsample_target(x, stride, ctx)
            span_name = layer_name or f"convT.k{kernel_size}.s{stride}"
            site = f"kmap.T.k{kernel_size}.s{stride}"
        else:
            span_name = layer_name or f"conv.k{kernel_size}.s{stride}"
            site = f"kmap.k{kernel_size}.s{stride}"
        with ctx.profile.span(
            span_name,
            kind="conv",
            kernel_size=kernel_size,
            stride=stride,
            in_stride=x.stride,
            c_in=int(weights.shape[1]),
            c_out=int(weights.shape[2]),
            **({"transposed": True} if transposed else {}),
        ):
            if transposed:
                # the forward map of the mirrored downsampling layer; the
                # canonical (effective-symmetry) key makes it shareable
                # with that layer's own cache entry, per-context and
                # persistent
                kmap = self._lookup_kmap(
                    out_coords,
                    out_stride,
                    x.coords,
                    x.stride,
                    kernel_size,
                    stride,
                    ctx,
                    cfg,
                    use_symmetry=False,
                    label=f"T.k{kernel_size}.s{stride}",
                ).transposed()
            else:
                if stride == 1:
                    out_coords, out_stride = x.coords, x.stride
                else:
                    out_stride = normalize(
                        tuple(
                            a * b
                            for a, b in zip(
                                to_tuple(x.stride), to_tuple(stride)
                            )
                        )
                    )
                    out_coords = self._output_coords(
                        x,
                        kernel_size,
                        stride,
                        out_stride,
                        ctx,
                        cfg.fused_downsample,
                        "downsample.coords",
                    )
                kmap = self._get_kmap(
                    x, out_coords, out_stride, kernel_size, stride, ctx, cfg
                )
            # fault-injection site: corrupt searched map entries in place
            # (for a transposed layer, the shared transposed map)
            maybe_corrupt_kmap(kmap, site=site)
            self._detect_kmap_fault(kmap, span_name)
            feats = self._run_dataflow(x.feats, weights, kmap, ctx, layer_name, cfg)
            self._detect_numeric_fault(feats, span_name)
            if bias is not None:
                feats = feats + bias.astype(np.float32)
            return SparseTensor(out_coords, feats, stride=out_stride)

    @staticmethod
    def _upsample_target(
        x: SparseTensor, stride: int, ctx: ExecutionContext
    ) -> tuple:
        """The (stride, coordinates) a transposed conv upsamples ``x``
        onto: those cached by the downsampling layer it mirrors."""
        s3 = to_tuple(stride, name="stride")
        if all(si == 1 for si in s3) or any(si < 1 for si in s3):
            raise ValueError("transposed convolution requires stride > 1")
        x3 = to_tuple(x.stride, name="stride")
        if any(a % b for a, b in zip(x3, s3)):
            raise ValueError(
                f"cannot upsample stride {x.stride} by factor {stride}"
            )
        fine_stride = normalize(tuple(a // b for a, b in zip(x3, s3)))
        fine_coords = ctx.coords_at_stride.get(fine_stride)
        if fine_coords is None:
            raise ValueError(
                f"no cached coordinates at stride {fine_stride}; transposed "
                "convolutions must mirror an earlier downsampling layer"
            )
        return fine_stride, fine_coords

    # -- dataflow dispatch -----------------------------------------------------

    def _run_dataflow(
        self,
        feats: np.ndarray,
        weights: np.ndarray,
        kmap: KernelMap,
        ctx: ExecutionContext,
        layer_name: str,
        cfg: EngineConfig | None = None,
    ) -> np.ndarray:
        cfg = cfg or self.config
        ctx.layer_workloads.append(
            (
                layer_name,
                kmap.kernel_size,
                kmap.stride,
                weights.shape[1],
                weights.shape[2],
                tuple(int(s) for s in kmap.sizes),
            )
        )
        integrity = self._make_integrity(ctx, layer_name, cfg)
        mean_map = kmap.total / max(1, kmap.volume)
        if (
            cfg.fetch_on_demand_threshold > 0
            and mean_map < cfg.fetch_on_demand_threshold
            and self._fetch_on_demand_wins(kmap, weights, ctx.device, cfg)
        ):
            ctx.metrics.counter("engine.dispatch", dataflow="fetch_on_demand").inc()
            return execute_fetch_on_demand(
                feats,
                weights,
                kmap,
                ctx.device,
                ctx.profile,
                dtype=cfg.dtype,
                integrity=integrity,
                numerics=ctx.numerics,
            )
        ctx.metrics.counter("engine.dispatch", dataflow="gather_matmul_scatter").inc()

        eps, s_thr = cfg.epsilon, cfg.s_threshold
        if cfg.strategy_book is not None and layer_name:
            # fault-injection site: the tuned entry for this layer vanishes;
            # the engine falls back to the config's default parameters.
            if maybe_drop_strategy(layer_name):
                ctx.metrics.counter(
                    "robust.strategy_fallback", layer=layer_name
                ).inc()
            else:
                tuned = cfg.strategy_book.get(layer_name)
                if tuned is not None:
                    eps, s_thr = tuned.epsilon, tuned.s_threshold
        skip_center = kmap.is_submanifold
        plan = make_plan(
            cfg.grouping,
            kmap.sizes,
            kmap.kernel_size,
            kmap.stride,
            epsilon=eps,
            s_threshold=s_thr if not math.isnan(s_thr) else math.inf,
        )
        record_plan(plan, kmap.sizes)
        return execute_gather_matmul_scatter(
            feats,
            weights,
            kmap,
            plan,
            cfg.movement,
            ctx.device,
            ctx.profile,
            skip_center=skip_center,
            integrity=integrity,
            numerics=ctx.numerics,
        )

    def _make_integrity(
        self, ctx: ExecutionContext, layer_name: str, cfg: EngineConfig
    ) -> IntegrityChecker | None:
        """Fresh ABFT checker for one dataflow attempt, or ``None``.

        The checker's *settings* come from the engine's own robustness
        config (verification never degrades down the ladder); the
        verified dtype is the attempt's ``cfg.dtype``, so a layer
        retried at the FP32 rung is checked against the FP32 envelope.
        """
        robust = self.config.robustness
        if robust is None or not robust.detect or robust.integrity is None:
            return None
        return IntegrityChecker(
            robust.integrity,
            cfg.dtype,
            ctx.device,
            metrics=ctx.metrics,
            label=layer_name or "conv",
        )

    def pooling(
        self,
        x: SparseTensor,
        ctx: ExecutionContext,
        kernel_size=2,
        stride=2,
        mode: str = "max",
    ) -> SparseTensor:
        """Sparse pooling: reduce each output's kernel window.

        Shares the convolution's mapping machinery (output coordinates,
        kernel maps, caches); data movement is priced like a gather +
        scatter with no matmul.

        Args:
            mode: ``"max"`` or ``"avg"`` over the *present* inputs of
                each window (absent voxels are skipped, not zero-filled).
        """
        if mode not in ("max", "avg"):
            raise ValueError(f"unknown pooling mode {mode!r}")
        if x.num_points == 0:
            raise ValueError("cannot pool an empty tensor")
        stride = normalize(stride)
        kernel_size = normalize(kernel_size)
        ctx.register_coords(x.stride, x.coords)
        with ctx.profile.span(
            f"pool.{mode}.k{kernel_size}.s{stride}",
            kind="pool",
            kernel_size=kernel_size,
            stride=stride,
            in_stride=x.stride,
        ):
            if stride == 1:
                out_coords, out_stride = x.coords, x.stride
            else:
                out_stride = normalize(
                    tuple(
                        a * b
                        for a, b in zip(to_tuple(x.stride), to_tuple(stride))
                    )
                )
                out_coords = self._output_coords(
                    x,
                    kernel_size,
                    stride,
                    out_stride,
                    ctx,
                    self.config.fused_downsample,
                    "pool.downsample.coords",
                )
            kmap = self._get_kmap(
                x, out_coords, out_stride, kernel_size, stride, ctx
            )

            c = x.num_channels
            if mode == "max":
                acc = np.full((kmap.n_out, c), -np.inf, dtype=np.float32)
            else:
                acc = np.zeros((kmap.n_out, c), dtype=np.float32)
                counts = np.zeros(kmap.n_out, dtype=np.int64)
            for n in range(kmap.volume):
                i, o = kmap.in_indices[n], kmap.out_indices[n]
                if not len(i):
                    continue
                if mode == "max":
                    np.maximum.at(acc, o, x.feats[i])
                else:
                    acc[o] += x.feats[i]
                    counts[o] += 1
            if mode == "max":
                acc[np.isneginf(acc)] = 0.0
            else:
                acc[counts > 0] /= counts[counts > 0, None]

            from repro.core.dataflow import gather_record, scatter_record

            with ctx.profile.span("gather"):
                ctx.profile.add(
                    gather_record(
                        kmap, c, self.config.movement, ctx.device, False, emit=True
                    )
                )
            with ctx.profile.span("scatter"):
                ctx.profile.add(
                    scatter_record(
                        kmap, c, self.config.movement, ctx.device, False, emit=True
                    )
                )
            return SparseTensor(out_coords, acc, stride=out_stride)

    def _fetch_on_demand_wins(
        self,
        kmap: KernelMap,
        weights: np.ndarray,
        device: GPUSpec,
        cfg: EngineConfig | None = None,
    ) -> bool:
        """Cost comparison backing the small-workload dispatch.

        Fetch-on-demand skips the staging buffers but runs its math as
        unbatched dot products; whether that trade wins depends on both
        map sizes and channel widths, so the dispatch estimates both
        paths with the same models used for pricing.
        """
        from repro.core.dataflow import (
            fetch_on_demand_cost,
            gather_record,
            scatter_record,
        )
        from repro.gpu.gemm import sequential_cost

        c_in, c_out = weights.shape[1], weights.shape[2]
        cfg = cfg or self.config
        fod = fetch_on_demand_cost(kmap, c_in, c_out, cfg.dtype, device)
        skip = kmap.is_submanifold
        active = [s for s in kmap.sizes if s > 0]
        gms = (
            gather_record(kmap, c_in, cfg.movement, device, skip).time
            + scatter_record(kmap, c_out, cfg.movement, device, skip).time
            + sequential_cost(active, c_in, c_out, cfg.dtype, device).time
        )
        return fod < gms

    # -- pointwise pricing helper ---------------------------------------------

    def pointwise(
        self,
        x: SparseTensor,
        feats: np.ndarray,
        ctx: ExecutionContext,
        name: str,
        reads: int = 1,
        writes: int = 1,
    ) -> SparseTensor:
        """Wrap an elementwise feature transform with an 'other'-stage cost."""
        nbytes = (reads + writes) * x.num_points * x.num_channels * self.config.dtype.nbytes
        with ctx.profile.span(name or "pointwise", kind="pointwise"):
            ctx.profile.log(
                name,
                "other",
                ctx.device.mem_time(nbytes) + ctx.device.launch_overhead,
                bytes_moved=nbytes,
            )
        return x.replace_feats(feats)


class TorchSparseEngine(BaseEngine):
    """The paper's system: all optimizations enabled by default."""

    def __init__(self, config: EngineConfig | None = None):
        super().__init__(config=config or EngineConfig.torchsparse())


class BaselineEngine(BaseEngine):
    """The unoptimized FP32 design TorchSparse is ablated against."""

    def __init__(self, config: EngineConfig | None = None):
        super().__init__(config=config or EngineConfig.baseline())
