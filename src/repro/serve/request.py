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

from dataclasses import dataclass

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
    """One inference request flowing through the serving layer.

    It holds only what scheduling reads; the report's row for it is a
    :class:`~repro.serve.report.RequestRecord` folded from the journal.
    """

    id: int
    model: str
    arrival: float
    deadline: float
    #: scene id within the model's stream — requests sharing a scene
    #: voxelize to the same coordinates (temporal coherence), so a
    #: device that already served the scene has its mapping cached
    scene: int = 0
    state: str = QUEUED
    #: retries consumed (primary dispatch not counted)
    retries: int = 0
    #: attempts currently on a device (1 normally, 2 while hedged)
    in_flight: int = 0
    hedged: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def resolve(self, state: str) -> None:
        """Move to a terminal state exactly once."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state!r} is not a terminal state")
        if self.terminal:
            raise RuntimeError(
                f"request {self.id} already terminal ({self.state})"
            )
        self.state = state


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
