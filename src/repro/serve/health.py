"""Per-device health tracking: quarantine and probed re-admission.

Reuses the :class:`~repro.robust.degrade.CircuitBreaker` machinery that
pins per-layer fallbacks in the single-request path — here a breaker
counts *device* failures (crashes, failed probes) and, once open,
quarantines the device: placement skips it until a health probe
succeeds and the breaker is reset.

A device that keeps failing probes is eventually declared **dead**
(``max_probes`` exhausted) so a sticky crash fault cannot spin the
probe loop forever; dead devices never rejoin the fleet.

With a non-trivial :class:`~repro.robust.domains.DomainTopology` the
fleet additionally tracks **domain breakers**: when at least
``domain_threshold`` of a domain's members fail within
``domain_window`` sim-seconds, the whole domain is declared out — the
remaining healthy members are *mass-quarantined* in one step instead
of being discovered one crash (and one wasted dispatch) at a time.
A domain has a breaker while it holds two or more devices, checked
live, so a spare joining a singleton domain arms one.  The breaker
closes when any member passes a readmission probe.

This is placement state only: the report's device table and domain
rows are folded from the journal (:func:`repro.serve.report.fold_journal`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.robust.degrade import CircuitBreaker

HEALTHY = "healthy"
QUARANTINED = "quarantined"
PROBING = "probing"
DEAD = "dead"


@dataclass
class DeviceHealth:
    """Health record of one fleet device."""

    label: str
    breaker: CircuitBreaker
    state: str = HEALTHY
    #: probes counted toward ``max_probes`` (forgiven ones excluded)
    probes: int = 0

    @property
    def available(self) -> bool:
        """May placement send work here?"""
        return self.state == HEALTHY


class FleetHealth:
    """Health state of every device, keyed by label.

    Args:
        labels: fleet device labels (see
            :func:`repro.profiling.parallel.device_labels`).
        threshold: breaker failures before quarantine.
        max_probes: failed probes before a device is declared dead.
        topology: failure-domain assignment
            (:class:`~repro.robust.domains.DomainTopology`); ``None``
            or a trivial topology disables all domain-level state.
        domain_threshold: fraction of a domain's members that must fail
            within ``domain_window`` for its breaker to open.
        domain_window: the correlation window, sim seconds (the serve
            loop resolves its scale-invariant default before running).
    """

    def __init__(
        self,
        labels,
        threshold: int = 2,
        max_probes: int = 8,
        topology=None,
        domain_threshold: float = 0.5,
        domain_window: float = 1.0,
    ) -> None:
        if threshold < 1 or max_probes < 1:
            raise ValueError("threshold >= 1 and max_probes >= 1 required")
        self.threshold = threshold
        self.max_probes = max_probes
        self.topology = topology
        self.domain_threshold = domain_threshold
        self.domain_window = domain_window
        self.devices = {
            label: DeviceHealth(
                label=label, breaker=CircuitBreaker(threshold=threshold)
            )
            for label in labels
        }
        #: domain -> {label: last failure time} inside the window
        self._domain_failures: dict = {}
        #: domains whose breaker is open
        self.open_domains: set = set()

    def add_device(self, label: str) -> DeviceHealth:
        """Admit a replacement device to the fleet, healthy.

        Used by the serve layer's spare pool when a DEAD device is
        replaced: the spare gets a fresh breaker (same threshold as the
        rest of the fleet), not the dead device's exhausted one.
        """
        if label in self.devices:
            raise ValueError(f"device {label!r} already tracked")
        dev = DeviceHealth(
            label=label, breaker=CircuitBreaker(threshold=self.threshold)
        )
        self.devices[label] = dev
        return dev

    def __getitem__(self, label: str) -> DeviceHealth:
        return self.devices[label]

    def record_failure(self, label: str) -> bool:
        """Count a device failure; True when this one quarantined it."""
        dev = self.devices[label]
        dev.breaker.record_failure(recovered_level=1)
        if dev.breaker.open and dev.state == HEALTHY:
            dev.state = QUARANTINED
            return True
        return False

    def record_domain_failure(self, label: str, now: float):
        """Feed a device failure to its domain breaker.

        Only a domain that holds two or more devices *now* has a breaker
        (singletons are covered by their device breaker).  Prunes
        failure stamps older than ``domain_window``, then — when at
        least ``domain_threshold`` of the domain's members have failed
        inside the window (or are already out of service) — opens the
        domain breaker and mass-quarantines the remaining HEALTHY
        members in one step.

        Returns ``(domain, mass_quarantined_labels)`` when this failure
        opened the breaker, ``None`` otherwise (including every call on
        a trivial topology or a singleton domain).
        """
        if self.topology is None:
            return None
        domain = self.topology.domain_of(label)
        members = self.topology.members(domain)
        if len(members) < 2 or domain in self.open_domains:
            return None
        stamps = self._domain_failures.setdefault(domain, {})
        stamps[label] = now
        cutoff = now - self.domain_window
        for other in [k for k, t in stamps.items() if t < cutoff]:
            del stamps[other]
        failing = sum(
            1
            for m in members
            if m in stamps or self.devices[m].state != HEALTHY
        )
        if failing / len(members) < self.domain_threshold:
            return None
        self.open_domains.add(domain)
        swept = [m for m in members if self.devices[m].state == HEALTHY]
        for m in swept:
            self.devices[m].state = QUARANTINED
        return domain, swept

    def maybe_close_domain(self, label: str):
        """Close ``label``'s domain breaker after a readmission.

        A member passing its health probe is the evidence the domain's
        fault has cleared.  Returns the domain name when this readmit
        closed an open breaker, ``None`` otherwise.
        """
        if self.topology is None:
            return None
        domain = self.topology.domain_of(label)
        if domain not in self.open_domains:
            return None
        self.open_domains.remove(domain)
        self._domain_failures.pop(domain, None)
        return domain

    def domain_open(self, label: str) -> bool:
        """Is ``label``'s domain breaker currently open?"""
        return (
            self.topology is not None
            and self.topology.domain_of(label) in self.open_domains
        )

    def record_success(self, label: str) -> None:
        dev = self.devices[label]
        if dev.state == HEALTHY:
            dev.breaker.record_success(0)

    def begin_probe(self, label: str) -> None:
        dev = self.devices[label]
        if dev.state not in (QUARANTINED, PROBING):
            raise RuntimeError(
                f"probe on {label!r} in state {dev.state!r}"
            )
        dev.state = PROBING
        dev.probes += 1

    def probe_result(self, label: str, ok: bool, forgive: bool = False) -> bool:
        """Apply a probe outcome; True when the device was readmitted.

        With ``forgive`` a *failed* probe does not count toward the
        ``max_probes`` death sentence: the serve loop sets it while the
        device's domain breaker is open, where the probe is expected to
        fail for the domain-wide reason — a correlated outage must not
        probe its victims to death one by one.
        """
        dev = self.devices[label]
        if ok:
            dev.state = HEALTHY
            # reset the breaker: a probed device starts with a clean slate
            dev.breaker.failures = 0
            dev.breaker.pinned = 0
            return True
        if forgive:
            dev.probes -= 1
        elif dev.probes >= self.max_probes:
            dev.state = DEAD
            return False
        dev.state = QUARANTINED
        return False
