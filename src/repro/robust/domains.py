"""Failure domains and the metastable-failure (retry storm) defense.

Real fleets do not fail independently: a PDU drops a rack, a driver
rollout bricks one zone, a thermal event slows every card sharing an
aisle.  This module gives the serving layer the vocabulary for that —
and the control machinery that keeps a correlated loss from turning
into a *metastable* failure, where the synchronized retry+hedge storm
the outage triggers keeps the fleet down long after the fault clears.

Three pieces:

* :class:`DomainTopology` — maps every fleet device label to a failure
  domain (rack / power / driver zone).  Without an explicit assignment
  every device is its *own* singleton domain (``trivial``), which makes
  all domain-aware machinery collapse exactly onto the pre-domain
  behavior — campaigns without domains stay bit-for-bit identical.
* :class:`StormConfig` — the metastability-defense knobs: the fleet
  retry token bucket, deadline-aware retry admission, and hedge
  suppression while a domain breaker is open.
* :class:`RetryBudget` — the token bucket itself.  Retries spend whole
  tokens; every *successful* completion refills ``refill`` of one, so
  steady-state retry traffic is budgeted to a bounded fraction of
  goodput plus the initial burst allowance — the classic anti-storm
  invariant (retry amplification cannot outrun the work that succeeds).

Everything here is deterministic state machinery — no RNG, no clocks —
so the serve loop's same-seed bit-exactness extends through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.robust.errors import ConfigError


class DomainTopology:
    """Device label -> failure-domain assignment of one fleet.

    Args:
        labels: fleet device labels, in fleet order.
        domains: domain label per device, aligned with ``labels``;
            ``None`` assigns every device its own singleton domain
            (the *trivial* topology — no correlation to exploit, and
            every domain-aware policy degenerates to the flat one).

    Domain order is first-appearance order in ``domains`` — stable, so
    seeded draws over domains are reproducible.
    """

    def __init__(self, labels, domains=None) -> None:
        labels = list(labels)
        if domains is None:
            domains = list(labels)
        else:
            domains = list(domains)
            if len(domains) != len(labels):
                raise ConfigError(
                    f"domains ({len(domains)}) must align with devices "
                    f"({len(labels)})"
                )
        for d in domains:
            if not isinstance(d, str) or not d:
                raise ConfigError(
                    f"domain labels must be non-empty strings, got {d!r}"
                )
        self._domain_of: dict = {}
        self._members: dict = {}
        self.names: list = []  # first-appearance order
        for label, domain in zip(labels, domains):
            self.assign(label, domain)

    def assign(self, label: str, domain: str) -> None:
        """Place ``label`` in ``domain`` (spares join mid-campaign)."""
        if label in self._domain_of:
            raise ConfigError(f"device {label!r} already assigned a domain")
        self._domain_of[label] = domain
        if domain not in self._members:
            self._members[domain] = []
            self.names.append(domain)
        self._members[domain].append(label)

    def domain_of(self, label: str) -> str:
        return self._domain_of[label]

    def members(self, domain: str) -> list:
        return list(self._members[domain])

    @property
    def trivial(self) -> bool:
        """True when no domain holds two devices — nothing is
        correlated, and every domain-aware policy reduces to the flat
        pre-domain behavior."""
        return all(len(m) == 1 for m in self._members.values())

    def to_json(self) -> dict:
        return dict(self._domain_of)


@dataclass(frozen=True)
class StormConfig:
    """Metastability-defense knobs of one serving campaign.

    Attributes:
        retry_budget: initial tokens in the fleet-wide retry bucket —
            the burst of retries the fleet may grant before any
            completion has refilled it.
        retry_refill: tokens credited per *successful* completion.
            0.1 budgets steady-state retry traffic to ~10% of goodput.
        retry_cap: bucket ceiling, so a long healthy stretch cannot
            bank an unbounded storm allowance.
        deadline_aware: skip a retry whose backoff delay plus the best
            healthy device's expected service time already overruns the
            deadline — resolve ``deadline_exceeded`` immediately
            instead of burning a fleet slot on a doomed attempt.
        suppress_hedges: stop launching hedges while any domain breaker
            is open — a mass outage makes p95-triggered duplicates pure
            load amplification onto the survivors.
    """

    retry_budget: float = 8.0
    retry_refill: float = 0.1
    retry_cap: float = 64.0
    deadline_aware: bool = True
    suppress_hedges: bool = True

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if not 0.0 <= self.retry_refill <= 1.0:
            raise ConfigError("retry_refill must be in [0, 1]")
        if self.retry_cap < self.retry_budget:
            raise ConfigError("retry_cap must be >= retry_budget")


class RetryBudget:
    """The fleet-wide retry token bucket (see :class:`StormConfig`).

    ``take()`` spends one whole token (a retry dispatch); ``credit()``
    refills a fraction per successful completion, capped.  Fractional
    tokens accumulate — with ``refill=0.1`` every tenth success earns
    one retry — so the long-run retry:success ratio is bounded by
    ``refill`` regardless of how the outage clusters failures.
    """

    def __init__(self, config: StormConfig) -> None:
        self.config = config
        self.tokens = float(config.retry_budget)

    def take(self) -> bool:
        """Spend a token; False when broke."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def credit(self) -> None:
        """One successful completion refills ``retry_refill`` tokens."""
        self.tokens = min(
            float(self.config.retry_cap),
            self.tokens + float(self.config.retry_refill),
        )
