"""Requests, terminal states, and retry/hedge policies.

Every request admitted to the serving layer ends in **exactly one** of
four terminal states:

==================  =====================================================
state               meaning
==================  =====================================================
``completed``       finished within its deadline
``shed``            dropped by admission control — the queue was full on
                    arrival (``queue_full``) or the request expired while
                    still queued (``expired``, shed oldest-first)
``deadline_exceeded``  finished, but after its deadline
``failed``          every attempt crashed *or failed integrity
                    verification* and retries/deadline ran out — a
                    corrupted-but-finished attempt is never allowed to
                    resolve ``completed`` while verification is on
==================  =====================================================

``queued`` and ``running`` are the only transient states; the server's
final sweep guarantees nothing is left in them when a campaign ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.robust.errors import ConfigError

# transient
QUEUED = "queued"
RUNNING = "running"
# terminal
COMPLETED = "completed"
SHED = "shed"
DEADLINE_EXCEEDED = "deadline_exceeded"
FAILED = "failed"

TERMINAL_STATES = (COMPLETED, SHED, DEADLINE_EXCEEDED, FAILED)


@dataclass
class Request:
    """One inference request flowing through the serving layer."""

    id: int
    model: str
    arrival: float
    deadline: float
    #: scene id within the model's stream — requests sharing a scene
    #: voxelize to the same coordinates (temporal coherence), so a
    #: device that already served the scene has its mapping cached
    scene: int = 0
    #: campaign-unique causal-trace id (``{seed:08x}-{id:06d}``),
    #: stamped by the server at arrival; every campaign journals, so
    #: it is empty only on a request that never reached a server
    trace_id: str = ""
    state: str = QUEUED
    #: retries consumed (primary dispatch not counted)
    retries: int = 0
    #: attempts currently on a device (1 normally, 2 while hedged)
    in_flight: int = 0
    hedged: bool = False
    #: the hedge duplicate, not the primary, produced the result
    hedge_won: bool = False
    finish: float | None = None
    shed_reason: str = ""
    error: str = ""
    #: device labels in dispatch order (probes excluded)
    devices: list = field(default_factory=list)
    #: batch id per dispatched attempt, aligned with ``devices`` — the
    #: batching scheduler stamps every attempt (hedge duplicates reuse
    #: the primary's batch id); empty when batching is off
    batches: list = field(default_factory=list)
    #: attempts that finished but failed ABFT verification (each counts
    #: toward the device breaker and this request's retry budget)
    integrity_failures: int = 0
    #: a corrupted result was *delivered* — only possible with fleet
    #: verification off (the silent-data-corruption hole)
    corrupted: bool = False
    #: QoS level/rung this request was served at (stamped from the
    #: brownout controller at its final dispatch); 0/"full" when the
    #: campaign runs without brownout
    qos_level: int = 0
    qos_rung: str = "full"

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def fault_rung(self) -> str:
        """Fault-ladder rung that produced the delivered result.

        In the serve simulation the only per-request fault degradation
        is the integrity path: a caught corruption recomputes at the
        numeric rung (``fp32-scalar``), everything else serves at full.
        Reported next to ``qos_rung`` so the fault-degradation mix and
        the brownout QoS mix sit side by side.
        """
        return "fp32-scalar" if self.integrity_failures else "full"

    @property
    def latency(self) -> float | None:
        """End-to-end seconds from arrival to finish (None if unfinished)."""
        return None if self.finish is None else self.finish - self.arrival

    def resolve(self, state: str, now: float | None = None) -> None:
        """Move to a terminal state exactly once."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state!r} is not a terminal state")
        if self.terminal:
            raise RuntimeError(
                f"request {self.id} already terminal ({self.state})"
            )
        self.state = state
        if now is not None:
            self.finish = now

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "model": self.model,
            "arrival": self.arrival,
            "deadline": self.deadline,
            "scene": self.scene,
            "trace_id": self.trace_id,
            "state": self.state,
            "retries": self.retries,
            "hedged": self.hedged,
            "hedge_won": self.hedge_won,
            "finish": self.finish,
            "latency": self.latency,
            "shed_reason": self.shed_reason,
            "error": self.error,
            "devices": list(self.devices),
            "integrity_failures": self.integrity_failures,
            "corrupted": self.corrupted,
            "qos_level": self.qos_level,
            "qos_rung": self.qos_rung,
            "fault_rung": self.fault_rung,
        }
        # present only for batched campaigns: batching=None reports
        # stay byte-exact with pre-batching runs
        if self.batches:
            out["batches"] = list(self.batches)
        return out


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    ``backoff_base=None`` is resolved by the server to half the mean
    base latency of the traffic mix, keeping campaigns scale-invariant.
    """

    max_retries: int = 2
    backoff_base: float | None = None
    backoff_mult: float = 2.0
    #: +/- fraction of the delay drawn uniformly (0 disables jitter)
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base is not None and self.backoff_base <= 0:
            raise ConfigError("backoff_base must be positive")
        if self.backoff_mult < 1.0:
            raise ConfigError("backoff_mult must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")

    def delay(self, retry: int, base: float, rng) -> float:
        """Backoff before retry number ``retry`` (0-indexed).

        The jitter draw comes from ``rng`` — the *server's* seeded
        stream, consumed in event order — never module-level
        ``random``, so same-seed campaigns replay bit for bit.
        """
        d = base * self.backoff_mult**retry
        if self.jitter:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return d


@dataclass(frozen=True)
class HedgePolicy:
    """Straggler hedging: duplicate a slow attempt, first result wins.

    A hedge fires once an attempt has been running longer than the
    ``quantile`` of observed service times (bootstrapped from
    ``bootstrap_factor`` x the model's base latency until
    ``min_samples`` completions exist), provided a healthy idle device
    is available.  The loser is cancelled and its device reclaimed.
    """

    enabled: bool = True
    quantile: float = 95.0
    min_samples: int = 16
    bootstrap_factor: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 100.0:
            raise ConfigError(
                f"quantile must be in (0, 100], got {self.quantile}"
            )
        if self.min_samples < 1 or self.bootstrap_factor <= 0:
            raise ConfigError("min_samples >= 1 and bootstrap_factor > 0")
