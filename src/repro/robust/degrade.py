"""The graceful-degradation ladder and per-layer circuit breakers.

When the engine detects a typed fault in an optimized path it retries
the layer *down the ladder* — each rung trades performance for a
simpler, more robust configuration, cumulatively:

====  ===============  =========================================
rung  name             swaps
====  ===============  =========================================
1     ``mm``           adaptive-grouped ``bmm`` -> plain per-offset
                       ``mm`` (``grouping="separate"``)
2     ``fp32-scalar``  FP16/INT8 vectorized movement -> FP32 scalar
3     ``hashmap``      grid table -> general hashmap, no map symmetry
====  ===============  =========================================

Rung selection is fault-aware: a mapping fault jumps straight to the
rung that swaps the mapping backend instead of burning retries on
matmul rungs that cannot help.  A per-layer :class:`CircuitBreaker`
counts failures and, past a threshold, *pins* the layer at its
recovered rung so later inputs skip the known-bad fast path entirely.

Every retry, fallback and pin is recorded as spans and counters in the
active :mod:`repro.obs` registry by the engine.

**Quality rungs** (:class:`QualityRung`, :class:`QoSLadder`) are the
second, independent ladder: they trade model *quality* for *latency
under load* (INT8 compute, coarser voxelization) and are engaged by the
serving layer's brownout controller (:mod:`repro.robust.brownout`),
never by the engine's fault-retry loop.  The two ladders deliberately
own disjoint state: fault rungs rewrite :class:`EngineConfig` fields
through ``overrides`` tuples and are pinned by circuit breakers;
quality rungs carry typed knobs (``dtype``, ``voxel_scale``) consumed
by the latency-pricing layer, and the fleet-wide QoS level lives in the
brownout controller.  Composition order is fixed — quality first
(chooses the base configuration a request is priced at), fault ladder
second — so a breaker-pinned ``fp32-scalar`` recovery always wins over
a brownout-selected INT8 dtype and the two can never flap against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.gpu.memory import DType
from repro.robust.integrity import IntegrityConfig


@dataclass(frozen=True)
class Rung:
    """One ladder step: which faults it addresses, what it swaps."""

    name: str
    stage: str  # fault stage this rung fixes: "matmul" | "numeric" | "mapping"
    overrides: tuple  # ((config field, value), ...)


DEFAULT_RUNGS = (
    Rung("mm", "matmul", (("grouping", "separate"),)),
    Rung(
        "fp32-scalar",
        "numeric",
        (("dtype", DType.FP32), ("vectorized", False)),
    ),
    Rung(
        "hashmap",
        "mapping",
        (("map_backend", "hash"), ("use_map_symmetry", False)),
    ),
)


@dataclass(frozen=True)
class DegradationLadder:
    """Cumulative sequence of config degradations.

    Level ``L`` applies the overrides of the first ``L`` rungs; level 0
    is the undegraded configuration, ``len(rungs)`` the floor.
    """

    rungs: tuple = DEFAULT_RUNGS

    @property
    def floor(self) -> int:
        return len(self.rungs)

    def rung_name(self, level: int) -> str:
        """Display name of a level (its deepest applied rung)."""
        if level <= 0:
            return "full"
        return self.rungs[min(level, self.floor) - 1].name

    def config_at(self, config, level: int):
        """The engine config degraded to ``level`` (0 = unchanged)."""
        if level < 0 or level > self.floor:
            raise ValueError(f"level must be in [0, {self.floor}], got {level}")
        for rung in self.rungs[:level]:
            config = replace(config, **dict(rung.overrides))
        return config

    def next_level(self, level: int, fault_stage: str) -> int | None:
        """First level past ``level`` whose new rung addresses the fault.

        A fault no remaining rung addresses still advances one step
        (cumulative degradation may clear transient faults); ``None``
        once the floor is exhausted.
        """
        if level >= self.floor:
            return None
        for i in range(level, self.floor):
            if self.rungs[i].stage == fault_stage:
                return i + 1
        return level + 1


DEFAULT_LADDER = DegradationLadder()


@dataclass(frozen=True)
class QualityRung:
    """One brownout step: trades model quality for latency under load.

    Unlike a fault :class:`Rung`, a quality rung never carries
    :class:`EngineConfig` override tuples — its knobs are typed fields
    the serving layer's latency pricing consumes directly, so the
    brownout controller and the per-layer circuit breakers can never
    fight over the same configuration state.

    Attributes:
        name: display name of the rung (the report's QoS mix keys).
        dtype: feature storage dtype this rung computes in (``None``
            keeps the preset's dtype).
        voxel_scale: integer factor multiplying the dataset voxel size
            — a coarser input grid with correspondingly fewer active
            sites (SPIRA's resolution lever).
        speedup: modeled latency factor used **only** when latency
            overrides bypass the engine (synthetic campaigns, unit
            tests); engine-priced campaigns measure the real thing.
    """

    name: str
    dtype: DType | None = None
    voxel_scale: int = 1
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if self.voxel_scale < 1:
            raise ValueError("voxel_scale must be >= 1")
        if self.speedup < 1.0:
            raise ValueError("speedup must be >= 1 (a rung never slows down)")


#: The default brownout ladder: INT8 feature storage first (cheap
#: accuracy hit, moderate speedup — the §4.3.1 ablation), then halved
#: voxel resolution (large speedup, visible accuracy hit).
QUALITY_RUNGS = (
    QualityRung("int8", dtype=DType.INT8, speedup=1.25),
    QualityRung("half-res", voxel_scale=2, speedup=2.5),
)


@dataclass(frozen=True)
class QualityConfig:
    """Cumulative quality state at one QoS level (identity at level 0)."""

    dtype: DType | None = None
    voxel_scale: int = 1
    speedup: float = 1.0

    def __post_init__(self) -> None:
        # frozen: hash the fields once for the serve oracle's memo key
        object.__setattr__(self, "_hash", hash(self._values()))

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: a string's hash is per-process
        return type(self), self._values()

    @property
    def degraded(self) -> bool:
        return self.dtype is not None or self.voxel_scale != 1


FULL_QUALITY = QualityConfig()


@dataclass(frozen=True)
class QoSLadder:
    """Cumulative sequence of quality degradations (brownout levels).

    Level ``L`` applies the first ``L`` quality rungs; level 0 is full
    quality, ``len(rungs)`` the floor.  Mirrors
    :class:`DegradationLadder`'s level algebra but owns none of its
    state: no stages, no breakers, no ``EngineConfig`` overrides.
    """

    rungs: tuple = QUALITY_RUNGS

    @property
    def floor(self) -> int:
        return len(self.rungs)

    def rung_name(self, level: int) -> str:
        """Display name of a level (its deepest applied rung)."""
        if level <= 0:
            return "full"
        return self.rungs[min(level, self.floor) - 1].name

    def rung_names(self) -> tuple:
        """Name per level, index 0 = full quality."""
        return ("full",) + tuple(r.name for r in self.rungs)

    def quality_at(self, level: int) -> QualityConfig:
        """Cumulative quality state at ``level`` (idempotent per level)."""
        if level < 0 or level > self.floor:
            raise ValueError(f"level must be in [0, {self.floor}], got {level}")
        dtype = None
        voxel_scale = 1
        speedup = 1.0
        for rung in self.rungs[:level]:
            if rung.dtype is not None:
                dtype = rung.dtype
            voxel_scale *= rung.voxel_scale
            speedup *= rung.speedup
        return QualityConfig(
            dtype=dtype, voxel_scale=voxel_scale, speedup=speedup
        )

    def config_at(self, config, level: int):
        """The engine config priced at ``level`` (quality dtype applied).

        Only the storage dtype crosses into :class:`EngineConfig`; the
        voxel scale is an *input-side* knob the pricing layer applies
        when it voxelizes.  Fault-rung overrides applied afterwards
        (``DEFAULT_LADDER.config_at``) always win — quality is the base
        a degraded retry starts from, never the other way around.
        """
        quality = self.quality_at(level)
        if quality.dtype is None:
            return config
        return replace(config, dtype=quality.dtype)


DEFAULT_QOS_LADDER = QoSLadder()


@dataclass
class CircuitBreaker:
    """Failure memory for one layer.

    After ``threshold`` recorded failures the breaker *pins* the layer
    at the deepest level that recovered it: subsequent calls start
    degraded instead of re-discovering the fault on every input.
    """

    threshold: int = 3
    failures: int = 0
    pinned: int = 0
    #: level of the most recent successful execution
    last_good: int = 0

    @property
    def open(self) -> bool:
        """True once the breaker has pinned a fallback."""
        return self.pinned > 0

    def record_failure(self, recovered_level: int) -> bool:
        """Count a failure; returns True if this call pinned the layer."""
        self.failures += 1
        if self.failures >= self.threshold and recovered_level > self.pinned:
            self.pinned = recovered_level
            return True
        return False

    def record_success(self, level: int) -> None:
        self.last_good = level


@dataclass(frozen=True)
class RobustConfig:
    """Robustness knobs carried by :class:`repro.core.engine.EngineConfig`.

    Attributes:
        detect: run fault detection (kernel-map verification, numeric
            checks).  Detection without ``degrade`` turns faults into
            *typed* errors instead of silent corruption or bare asserts.
        degrade: retry detected faults down the ladder.
        input_policy: what to do with non-finite input features at the
            convolution boundary: ``"repair"`` (zero them, counted) or
            ``"strict"`` (raise :class:`InputValidationError`).
        verify_kmap: range-check kernel maps after construction.
        verify_numerics: check layer outputs for NaN/Inf.
        max_retries: ladder retries per layer call before giving up.
        breaker_threshold: failures before a layer pins its fallback.
        integrity: ABFT checksum verification of the dataflow
            (:class:`~repro.robust.integrity.IntegrityConfig`); ``None``
            keeps the NaN/Inf-only detection (an exponent bit flip in a
            feature buffer then ships silently).  A detected mismatch
            raises :class:`~repro.robust.errors.IntegrityError` (stage
            ``"numeric"``), so with ``degrade`` on the layer is
            recomputed once at FP32 scalar before escalating.  The
            checker itself never degrades: verification settings are
            identical at every ladder level, only the verified dtype's
            envelope follows the attempt.
    """

    detect: bool = True
    degrade: bool = True
    input_policy: str = "repair"
    verify_kmap: bool = True
    verify_numerics: bool = True
    max_retries: int = 4
    breaker_threshold: int = 3
    integrity: IntegrityConfig | None = None

    def __post_init__(self) -> None:
        if self.input_policy not in ("repair", "strict"):
            raise ValueError(
                f"input_policy must be 'repair' or 'strict', got {self.input_policy!r}"
            )
        if self.max_retries < 0 or self.breaker_threshold < 1:
            raise ValueError("max_retries >= 0 and breaker_threshold >= 1 required")
