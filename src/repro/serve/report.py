"""Campaign aggregates: latency percentiles, SLO attainment, hedging.

Percentiles use the same nearest-rank
:func:`repro.profiling.report.percentile` as the batch sharding path,
so ``repro-bench serve`` and ``ShardResult.p99`` quote comparable
numbers.

The journal is the ledger: :func:`fold_journal` derives the report's
per-request rows, its device table, its domain rows, its tallies and
every ``serve.*`` counter and histogram from one in-order pass over a
campaign's header and events.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.obs.timeline import windowed_slo, worst_burn
from repro.profiling.report import format_table, percentile
from repro.serve.health import DEAD, HEALTHY, PROBING, QUARANTINED
from repro.serve.request import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    QUEUED,
    SHED,
    TERMINAL_STATES,
)

SERVE_SCHEMA = "repro-bench.serve/1"


@dataclass
class RequestRecord:
    """One request's report row, folded from its journal events.

    Identity comes from ``arrival``, ``retries`` from
    ``retry_scheduled``, devices, batch ids, the hedge flag and the QoS
    rung from the dispatch slices, the hedge win and integrity outcomes
    from ``attempt_finish``, and state, finish, error and shed reason
    from ``terminal``.
    """

    id: int
    model: str
    arrival: float
    deadline: float
    scene: int = 0
    #: campaign-unique causal-trace id (``{seed:08x}-{id:06d}``)
    trace_id: str = ""
    #: ``queued`` until the request's ``terminal`` event
    state: str = QUEUED
    #: retries consumed (primary dispatch not counted)
    retries: int = 0
    hedged: bool = False
    #: the hedge duplicate, not the primary, produced the result
    hedge_won: bool = False
    finish: float | None = None
    shed_reason: str = ""
    error: str = ""
    #: device labels in dispatch order (probes excluded)
    devices: list = field(default_factory=list)
    #: batch id per dispatched attempt, aligned with ``devices`` (hedge
    #: duplicates reuse the primary's batch id); empty when batching is
    #: off
    batches: list = field(default_factory=list)
    #: attempts that finished but failed ABFT verification (each counts
    #: toward the device breaker and this request's retry budget)
    integrity_failures: int = 0
    #: a corrupted result was *delivered* — only possible with fleet
    #: verification off (the silent-data-corruption hole)
    corrupted: bool = False
    #: QoS level/rung of the request's final dispatch; 0/"full" when
    #: the campaign runs without brownout
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


@dataclass
class Ledger:
    """Every count one campaign's journal implies (see :func:`fold_journal`).

    The report's tallies are read off the folded metrics, so the two
    can never disagree.
    """

    #: one :class:`RequestRecord` per arrival, in request-id order
    requests: list = field(default_factory=list)
    #: (metric name, label items) -> counter total
    counters: dict = field(default_factory=dict)
    #: metric name -> histogram observations, in journal order
    histograms: dict = field(default_factory=dict)
    #: the report's device table, busy times and domain rows (see
    #: :class:`ServeReport`), spares included
    fleet: dict = field(default_factory=dict)
    utilization: dict = field(default_factory=dict)
    domains: dict = field(default_factory=dict)
    domain_summary: dict = field(default_factory=dict)
    replacements: list = field(default_factory=list)
    qos_changes: list = field(default_factory=list)

    def total(self, name: str, **labels) -> int:
        """Sum of counter ``name`` over every label set holding ``labels``."""
        want = set(labels.items())
        return sum(
            value
            for (metric, items), value in self.counters.items()
            if metric == name and want <= set(items)
        )

    def report_fields(self) -> dict:
        """Keyword arguments of :class:`ServeReport` this ledger fills."""
        sizes = self.histograms.get("serve.batch_size", [])
        return dict(
            requests=self.requests,
            fleet=self.fleet,
            utilization=self.utilization,
            domains=self.domains,
            domain_summary=self.domain_summary,
            retries=self.total("serve.retries"),
            hedges_launched=self.total("serve.hedges", outcome="launched"),
            hedges_won=self.total("serve.hedges", outcome="won"),
            hedges_cancelled=self.total("serve.hedges", outcome="cancelled"),
            hedges_suppressed=self.total("serve.hedges", outcome="suppressed"),
            integrity_failures=self.total("serve.integrity_failures"),
            attempts=self.total("serve.dispatches"),
            retry_denied={
                reason: self.total("serve.retry_denied", reason=reason)
                for reason in ("budget", "deadline")
            },
            batch_mix={n: sizes.count(n) for n in sorted(set(sizes))},
            warm_dispatches=self.total("serve.mapcache", result="warm"),
            cold_dispatches=self.total("serve.mapcache", result="cold"),
            replacements=self.replacements,
            qos_changes=self.qos_changes,
        )

    def publish(self, registry) -> None:
        """Write the counters and histograms into ``registry``.

        Histograms add their values in journal order, one plain float
        add each, so their sums match a registry written live, event by
        event.
        """
        for (name, labels), total in self.counters.items():
            registry.counter(name, **dict(labels)).inc(total)
        for name, values in self.histograms.items():
            registry.histogram(name).observe_many(values)


def fold_journal(header: dict, events, end_time: float) -> Ledger:
    """One in-order pass over a campaign's events into its :class:`Ledger`.

    Works on live events and on a journal read back with
    :func:`~repro.obs.timeline.load_journal` alike.  ``header`` names
    the starting fleet (``devices``, ``domains``, ``domain_defense``);
    spares join on ``device_replaced``.  ``end_time`` closes a domain
    outage still open at the end.  Attempt-level metrics count an
    attempt once, on its first member slice.  Health probes (events
    with no request) count as ``serve.probes`` and feed the device
    table; a failed probe while its domain is out is forgiven (not
    counted in ``probes``).  The same pass builds each request's
    :class:`RequestRecord`, and the arrival, retry and terminal-state
    tallies are counted off them.
    """
    led = Ledger()
    counters, histograms = led.counters, led.histograms
    fleet, util, domain_of = led.fleet, led.utilization, led.domains
    domain_of.update(header["domains"] or {})

    def join(label: str) -> None:
        fleet[label] = {
            "state": HEALTHY, "crashes": 0, "probes": 0, "quarantines": 0,
        }
        util[label] = {"busy_time": 0.0, "completed": 0}

    for label in header["devices"]:
        join(label)

    def count(name: str, n: int = 1, **labels) -> None:
        key = (name, tuple(labels.items()))
        counters[key] = counters.get(key, 0) + n

    def tally(name: str, **labels) -> int:
        return counters.get((name, tuple(labels.items())), 0)

    def observe(name: str, value: float) -> None:
        histograms.setdefault(name, []).append(value)

    rows: dict = {}  # request -> its RequestRecord
    running: dict = {}  # attempt -> dispatch time
    hedges: set = set()  # attempts that are hedge duplicates
    level = 0  # the fleet's QoS level
    opened: dict = {}  # domain -> time its open breaker opened
    down: dict = {}  # domain -> down time of its closed outages
    for e in events:
        kind = e["kind"]
        if kind == "dequeue":
            continue  # queue waits are read off the primary dispatch
        req, dev, attrs = e["request"], e["device"], e["attrs"]
        if kind == "arrival":
            rows[req] = RequestRecord(
                req, attrs["model"], e["t"], attrs["deadline"],
                attrs["scene"], attrs["trace"],
            )
        elif kind == "admit":
            observe("serve.queue_depth", e["queue_depth"])
        elif kind in ("dispatch", "batch_dispatch"):
            if req is None:  # a health probe
                running[e["attempt"]] = e["t"]
                fleet[dev]["state"] = PROBING
                fleet[dev]["probes"] += 1
                continue
            row = rows[req]
            row.devices.append(dev)
            member_kind = attrs["kind"]
            hedge = member_kind == "hedge"
            if member_kind == "primary":
                observe("serve.wait_ms", (e["t"] - row.arrival) * 1e3)
            elif hedge:
                row.hedged = True
            if kind == "batch_dispatch":
                row.batches.append(attrs["batch"])
            if "qos" in attrs:
                count("serve.qos_dispatches", rung=attrs["qos"])
                row.qos_level, row.qos_rung = level, attrs["qos"]
            if e["attempt"] in running:
                continue  # a further member slice of this attempt
            running[e["attempt"]] = e["t"]
            if hedge:
                hedges.add(e["attempt"])
            if kind == "batch_dispatch":
                observe("serve.batch_size", attrs["size"])
                count("serve.dispatches", kind="hedge" if hedge else "batch")
            else:
                count("serve.dispatches", kind=member_kind)
            if "warm" in attrs:
                count("serve.mapcache",
                      result="warm" if attrs["warm"] else "cold")
            if hedge:
                count("serve.hedges", outcome="launched")
        elif kind == "attempt_finish":
            outcome = attrs["outcome"]
            if req is None:  # a health probe
                count("serve.probes", device=dev,
                      result="ok" if outcome == "ok" else "fail")
                util[dev]["busy_time"] += e["t"] - running.pop(e["attempt"])
                if outcome != "ok":
                    fleet[dev]["state"] = QUARANTINED
                    if domain_of.get(dev) in opened:
                        fleet[dev]["probes"] -= 1  # forgiven
                continue
            row = rows[req]
            hedge = e["attempt"] in hedges
            if outcome == "ok":
                util[dev]["completed"] += 1
                row.hedge_won = hedge
                if attrs["corrupted"]:
                    count("serve.corrupted_completions", device=dev)
                    row.corrupted = True
            elif outcome == "integrity_fail":
                row.integrity_failures += 1
            t0 = running.pop(e["attempt"], None)
            if t0 is None:
                continue  # a further member slice of this attempt
            elapsed = e["t"] - t0
            util[dev]["busy_time"] += elapsed
            if outcome == "ok":
                observe("serve.service_ms", elapsed * 1e3)
                if hedge:
                    count("serve.hedges", outcome="won")
            elif outcome == "cancelled":
                count("serve.hedges", outcome="cancelled")
            elif outcome == "crash":
                count("serve.crashes", device=dev)
            else:
                count("serve.integrity_failures", device=dev)
        elif kind == "terminal":
            row = rows[req]
            row.state, row.finish = attrs["state"], e["t"]
            row.error = attrs.get("error", "")
            row.shed_reason = attrs.get("reason", "")
            if "latency" in attrs:
                # only a finished attempt stamps the end-to-end latency
                observe("serve.latency_ms", attrs["latency"] * 1e3)
        elif kind == "retry_scheduled":
            rows[req].retries += 1
        elif kind == "retry_denied":
            count("serve.retry_denied", reason=attrs["reason"])
        elif kind == "hedge_skip":
            suppressed = attrs["reason"] == "domain_breaker"
            count("serve.hedges",
                  outcome="suppressed" if suppressed else "skipped")
        elif kind == "batch_formed":
            count("serve.batches", reason=attrs["reason"])
        elif kind == "quarantine":
            count("serve.quarantines", device=dev)
            fleet[dev]["state"] = QUARANTINED
        elif kind == "readmit":
            count("serve.readmissions", device=dev)
            fleet[dev]["state"] = HEALTHY
        elif kind == "device_dead":
            count("serve.dead_devices", device=dev)
            fleet[dev]["state"] = DEAD
        elif kind == "domain_outage":
            count("serve.domain_outages", domain=attrs["domain"])
            if attrs["swept"]:
                count("serve.mass_quarantines", attrs["swept"],
                      domain=attrs["domain"])
            opened[attrs["domain"]] = e["t"]
        elif kind == "domain_recovered":
            domain = attrs["domain"]
            count("serve.domain_recoveries", domain=domain)
            outage = e["t"] - opened.pop(domain)
            down[domain] = down.get(domain, 0.0) + outage
        elif kind == "device_replaced":
            count("serve.replacements", device=attrs["slot"])
            join(dev)
            if domain_of:
                domain_of[dev] = attrs["domain"]
            led.replacements.append(dict(
                slot=attrs["slot"], device=dev, t=e["t"], warm_start=False,
                inherited_frames=0, domain=attrs["domain"],
            ))
        elif kind == "store_warmstart":
            count("persist.warmstarts")
            count("persist.warmstart_frames", attrs["frames"])
            if led.replacements and led.replacements[-1]["device"] == dev:
                # a spare warm-starts right after it is admitted
                led.replacements[-1]["warm_start"] = True
                led.replacements[-1]["inherited_frames"] = attrs["frames"]
        elif kind == "qos_change":
            level = attrs["level"]
            count("serve.qos_changes", direction=attrs["direction"])
            led.qos_changes.append(dict(
                t=e["t"], level=attrs["level"], rung=attrs["rung"],
                direction=attrs["direction"], queue_depth=e["queue_depth"],
                burn=attrs["burn"],
            ))
    led.requests = sorted(rows.values(), key=lambda row: row.id)
    if rows:
        count("serve.arrivals", len(rows))
    if "serve.queue_depth" in histograms:
        # one queue-depth sample per admission
        count("serve.admitted", len(histograms["serve.queue_depth"]))
    retries = sum(row.retries for row in led.requests)
    if retries:
        count("serve.retries", retries)
    ends = Counter(
        (row.state, row.shed_reason) for row in led.requests if row.terminal
    )
    for (state, reason), n in ends.items():
        if state == SHED:
            count("serve.shed", n, reason=reason)
        else:
            count(f"serve.{state}", n)
    for label, row in fleet.items():
        # each failed request attempt is one crash, whatever failed it
        row["crashes"] = tally("serve.crashes", device=label) + tally(
            "serve.integrity_failures", device=label
        )
        row["quarantines"] = tally("serve.quarantines", device=label)
    for domain, n in Counter(domain_of.values()).items():
        # a domain has a breaker while it holds two or more devices
        if n < 2 or not header["domain_defense"]:
            continue
        down_time = down.get(domain, 0.0)
        if domain in opened:
            down_time += end_time - opened[domain]
        led.domain_summary[domain] = dict(
            members=n,
            outages=tally("serve.domain_outages", domain=domain),
            mass_quarantined=tally("serve.mass_quarantines", domain=domain),
            down_time=down_time,
            availability=(
                1.0 - down_time / end_time if end_time > 0 else 1.0
            ),
        )
    return led


@dataclass
class ServeReport:
    """Everything a finished campaign produced."""

    #: one :class:`RequestRecord` per request, folded from the journal
    requests: list = field(default_factory=list)
    #: label -> {state, crashes, probes, quarantines}, folded from the
    #: journal like every field below that :class:`Ledger` fills
    fleet: dict = field(default_factory=dict)
    #: label -> {busy_time, completed}
    utilization: dict = field(default_factory=dict)
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    #: hedges withheld while a domain breaker was open (storm defense)
    hedges_suppressed: int = 0
    retries: int = 0
    #: request attempts dispatched (primary + retry + hedge) — the
    #: numerator of :attr:`amplification`
    attempts: int = 0
    #: denial reason -> retries the storm defense refused
    retry_denied: dict = field(default_factory=dict)
    #: whether the deadline-aware batching scheduler was engaged
    batching: bool = False
    #: the scheduler's coalescing ceiling (1 when batching is off)
    max_batch: int = 1
    #: batch size -> batched attempts dispatched at that size
    batch_mix: dict = field(default_factory=dict)
    #: whether the metastability defense was engaged
    storm: bool = False
    #: device label -> failure domain (empty for trivial topologies)
    domains: dict = field(default_factory=dict)
    #: domain -> {members, outages, mass_quarantined, down_time,
    #: availability} for every domain with a breaker (defense on, two
    #: or more devices)
    domain_summary: dict = field(default_factory=dict)
    #: finished attempts that failed ABFT verification (each handled
    #: like a crash: breaker + retry budget)
    integrity_failures: int = 0
    #: whether the fleet ran with integrity verification enabled
    verify_integrity: bool = True
    #: whether per-device persistent mapping reuse was on
    steady_state: bool = False
    #: dispatches served at the warm base latency (mapping cached on
    #: the device) vs. cold — both zero when ``steady_state`` is off
    warm_dispatches: int = 0
    cold_dispatches: int = 0
    #: size of the spare-device pool the campaign ran with
    spares: int = 0
    #: whether a durable artifact store backed the fleet
    store_enabled: bool = False
    #: one record per admitted spare: {slot, device, t, warm_start,
    #: inherited_frames}
    replacements: list = field(default_factory=list)
    seed: int = 0
    duration: float = 0.0
    #: sim time the last event fired at
    end_time: float = 0.0
    #: sim-clock window (seconds) of the SLO monitor; ``None`` disables
    #: the windowed series
    slo_window: float | None = None
    #: SLO objective the error-budget burn rate is measured against
    slo_target: float = 0.99
    #: whether the load-adaptive brownout controller was engaged
    brownout: bool = False
    #: QoS rung name per level, index 0 = full quality
    qos_rungs: tuple = ("full",)
    #: the controller's level-change records, in sim-time order
    qos_changes: list = field(default_factory=list)

    # -- terminal-state taxonomy -------------------------------------------

    def count(self, state: str) -> int:
        return sum(r.state == state for r in self.requests)

    @property
    def total(self) -> int:
        return len(self.requests)

    @property
    def outcomes(self) -> dict:
        """state -> count over the whole taxonomy."""
        return {s: self.count(s) for s in TERMINAL_STATES}

    @property
    def all_terminal(self) -> bool:
        """The core liveness invariant: nothing stuck queued/running."""
        return all(r.terminal for r in self.requests)

    # -- SLO metrics ---------------------------------------------------------

    @property
    def slo_attainment(self) -> float:
        """Fraction of *all* arrivals completed within deadline."""
        return 1.0 if not self.requests else self.count(COMPLETED) / self.total

    @property
    def shed_rate(self) -> float:
        return 0.0 if not self.requests else self.count(SHED) / self.total

    def _latencies(self) -> list:
        return [
            r.latency
            for r in self.requests
            if r.state in (COMPLETED, DEADLINE_EXCEEDED)
            and r.latency is not None
        ]

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of end-to-end finished latencies."""
        return percentile(self._latencies(), q)

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    # -- windowed SLO monitor ------------------------------------------------

    def slo_series(self, window: float | None = None) -> list:
        """Per-window deadline-miss / burn-rate series over the sim
        clock (see :func:`repro.obs.timeline.windowed_slo`).

        Every terminal request contributes one sample at its finish
        time; anything that did not resolve ``completed`` (late,
        failed, shed) burns error budget.  Percentiles are exact
        nearest-rank values over each window's finished latencies.
        """
        width = window if window is not None else self.slo_window
        if width is None:
            return []
        samples = [
            (r.finish, r.state == COMPLETED, r.latency)
            for r in self.requests
            if r.finish is not None
        ]
        return windowed_slo(
            samples, width, target=self.slo_target, end=self.end_time
        )

    @property
    def worst_window_burn(self) -> float:
        """The worst window's error-budget burn rate (0.0 when the
        monitor is disabled or the campaign is empty)."""
        return worst_burn(self.slo_series())

    # -- quality of service ---------------------------------------------------

    def _served(self) -> list:
        """Requests that reached a device at least once (sheds never
        carry a quality level — they were refused, not degraded)."""
        return [r for r in self.requests if r.devices]

    @property
    def qos_mix(self) -> dict:
        """rung name -> requests served at that quality rung."""
        mix = {name: 0 for name in self.qos_rungs}
        for r in self._served():
            mix[r.qos_rung] = mix.get(r.qos_rung, 0) + 1
        return mix

    @property
    def fault_mix(self) -> dict:
        """fault rung name -> served requests recovered at it (the
        integrity path's fp32-scalar recompute vs. full)."""
        mix: dict = {}
        for r in self._served():
            mix[r.fault_rung] = mix.get(r.fault_rung, 0) + 1
        return mix

    @property
    def degraded_fraction(self) -> float:
        """Fraction of served requests browned out below full quality."""
        served = self._served()
        if not served:
            return 0.0
        return sum(r.qos_level > 0 for r in served) / len(served)

    def qos_series(self, window: float | None = None) -> list:
        """Per-window QoS mix of served requests (finish-stamped), on
        the same tumbling sim-clock windows as :meth:`slo_series`."""
        width = window if window is not None else self.slo_window
        if width is None:
            return []
        import math

        n = (
            max(1, int(math.ceil(self.end_time / width)))
            if self.end_time > 0
            else 1
        )
        served = self._served()
        series = []
        for i in range(n):
            lo, hi = i * width, (i + 1) * width
            mix = {name: 0 for name in self.qos_rungs}
            for r in served:
                if r.finish is None:
                    continue
                if lo <= r.finish < hi or (i == n - 1 and r.finish == hi):
                    mix[r.qos_rung] = mix.get(r.qos_rung, 0) + 1
            series.append({"start": lo, "end": hi, "mix": mix})
        return series

    @property
    def amplification(self) -> float:
        """Storm amplification factor: dispatched attempts / arrivals.

        1.0 means every arrival cost exactly one attempt; a correlated
        outage drives it up through retries and hedges — the quantity
        the metastability defense exists to bound.
        """
        return 0.0 if not self.requests else self.attempts / self.total

    @property
    def retries_denied(self) -> int:
        return sum(self.retry_denied.values())

    # -- batching ------------------------------------------------------------

    @property
    def batches_dispatched(self) -> int:
        """Batched attempts launched (all sizes, hedges included)."""
        return sum(self.batch_mix.values())

    @property
    def batched_members(self) -> int:
        """Request-slices carried by batched attempts."""
        return sum(n * c for n, c in self.batch_mix.items())

    @property
    def mean_batch_size(self) -> float:
        """Members per batched attempt (0.0 when batching never fired)."""
        total = self.batches_dispatched
        return 0.0 if total == 0 else self.batched_members / total

    @property
    def batch_occupancy(self) -> float:
        """Mean batch size as a fraction of ``max_batch`` — how full
        the coalescing window ran (1.0 = every batch closed full)."""
        if self.max_batch <= 1:
            return 0.0 if self.mean_batch_size == 0.0 else 1.0
        return self.mean_batch_size / self.max_batch

    @property
    def hedge_effectiveness(self) -> float:
        """Fraction of launched hedges whose duplicate produced the
        result (0.0 when hedging never fired)."""
        return (
            0.0
            if self.hedges_launched == 0
            else self.hedges_won / self.hedges_launched
        )

    @property
    def warm_fraction(self) -> float:
        """Fraction of dispatches served from a warm mapping cache."""
        total = self.warm_dispatches + self.cold_dispatches
        return 0.0 if total == 0 else self.warm_dispatches / total

    # -- replacements --------------------------------------------------------

    def _replacement_latencies(self) -> list:
        """Finished latencies of requests resolved on a spare device —
        the cold-start population the store warm-start is measured on."""
        labels = {rec["device"] for rec in self.replacements}
        if not labels:
            return []
        return [
            r.latency
            for r in self.requests
            if r.state in (COMPLETED, DEADLINE_EXCEEDED)
            and r.latency is not None
            and r.devices
            and r.devices[-1] in labels
        ]

    @property
    def replacement_p50(self) -> float:
        return percentile(self._replacement_latencies(), 50.0)

    @property
    def replacement_p99(self) -> float:
        return percentile(self._replacement_latencies(), 99.0)

    @property
    def corrupted_completions(self) -> int:
        """Requests that *delivered* a corrupted result — the silent-
        data-corruption hole.  Structurally zero with verification on
        (a corrupted attempt is failed like a crash, never completed)."""
        return sum(
            r.corrupted and r.state == COMPLETED for r in self.requests
        )

    @property
    def passed(self) -> bool:
        """Liveness plus integrity: nothing stuck transient, and no
        corrupted result ever shipped as ``completed``."""
        return self.all_terminal and self.corrupted_completions == 0

    def failure(
        self, slo_floor: float = 0.0, burn_ceiling: float | None = None
    ) -> str | None:
        """The first gate this campaign fails, or ``None``: liveness,
        integrity, the SLO floor, then (with the windowed monitor on)
        the worst window's burn against ``burn_ceiling``."""
        if not self.all_terminal:
            return "non-terminal requests at campaign end"
        if self.corrupted_completions:
            return (
                f"{self.corrupted_completions} corrupted results shipped "
                "as completed (silent-data-corruption hole)"
            )
        if self.slo_attainment < slo_floor:
            return (
                f"slo_attainment {self.slo_attainment:.3f} < floor "
                f"{slo_floor:.3f}"
            )
        if burn_ceiling is None or self.slo_window is None:
            return None
        burn = self.worst_window_burn
        if burn <= burn_ceiling:
            return None
        return f"worst-window burn {burn:.2f}x > ceiling {burn_ceiling:.2f}x"

    def to_json(self) -> dict:
        out = {
            "schema": SERVE_SCHEMA,
            "seed": self.seed,
            "duration": self.duration,
            "end_time": self.end_time,
            "total": self.total,
            "outcomes": self.outcomes,
            "all_terminal": self.all_terminal,
            "slo_attainment": self.slo_attainment,
            "shed_rate": self.shed_rate,
            "p50": self.p50,
            "p99": self.p99,
            "retries": self.retries,
            "integrity": {
                "verify": self.verify_integrity,
                "failures": self.integrity_failures,
                "corrupted_completions": self.corrupted_completions,
            },
            "slo": {
                "enabled": self.slo_window is not None,
                "window": self.slo_window,
                "target": self.slo_target,
                "series": [w.to_json() for w in self.slo_series()],
                "worst_window_burn": self.worst_window_burn,
            },
            "steady_state": {
                "enabled": self.steady_state,
                "warm_dispatches": self.warm_dispatches,
                "cold_dispatches": self.cold_dispatches,
                "warm_fraction": self.warm_fraction,
            },
            "replacements": {
                "spares": self.spares,
                "store": self.store_enabled,
                "count": len(self.replacements),
                "records": list(self.replacements),
                "served": len(self._replacement_latencies()),
                "p50": self.replacement_p50,
                "p99": self.replacement_p99,
            },
            "qos": {
                "enabled": self.brownout,
                "rungs": list(self.qos_rungs),
                "mix": self.qos_mix,
                "degraded_fraction": self.degraded_fraction,
                "changes": list(self.qos_changes),
                "series": self.qos_series(),
            },
            "degradation": {
                "mix": self.fault_mix,
            },
            "hedges": {
                "launched": self.hedges_launched,
                "won": self.hedges_won,
                "cancelled": self.hedges_cancelled,
                "suppressed": self.hedges_suppressed,
                "effectiveness": self.hedge_effectiveness,
            },
            "storm": {
                "enabled": self.storm,
                "attempts": self.attempts,
                "amplification": self.amplification,
                "retry_denied": dict(self.retry_denied),
                "hedges_suppressed": self.hedges_suppressed,
            },
            "domains": {
                "enabled": bool(self.domains),
                "assignment": dict(self.domains),
                "summary": {
                    d: dict(s) for d, s in self.domain_summary.items()
                },
            },
            "fleet": dict(self.fleet),
            "utilization": dict(self.utilization),
            "requests": [r.to_json() for r in self.requests],
        }
        # present only for batched campaigns: batching=None reports
        # stay byte-exact with pre-batching runs
        if self.batching:
            out["batching"] = {
                "enabled": True,
                "max_batch": self.max_batch,
                "mix": {str(n): c for n, c in sorted(self.batch_mix.items())},
                "batches": self.batches_dispatched,
                "batched_members": self.batched_members,
                "mean_batch_size": self.mean_batch_size,
                "occupancy": self.batch_occupancy,
            }
        return out


def format_serve_report(report: ServeReport, title: str) -> str:
    """The text view of a campaign: the device table, the summary, one
    line per engaged feature, the terminal states and the SLO windows.

    Every figure is read off ``report``; campaign parameters it does not
    carry (preset, rate, coherence) ride in ``title``.
    """
    rows = [
        [
            label,
            report.fleet[label]["state"],
            str(u["completed"]),
            f"{u['busy_time'] * 1e3:.1f}",
            str(report.fleet[label]["crashes"]),
            str(report.fleet[label]["probes"]),
        ]
        for label, u in report.utilization.items()
    ]
    o = report.outcomes
    lines = [
        format_table(
            ["device", "health", "completed", "busy (ms)", "crashes",
             "probes"],
            rows,
            title=title,
        ),
        f"{report.total} requests: {o[COMPLETED]} completed, "
        f"{o[SHED]} shed, {o[DEADLINE_EXCEEDED]} late, "
        f"{o[FAILED]} failed | "
        f"SLO {report.slo_attainment:.1%} | shed {report.shed_rate:.1%} | "
        f"p50 {report.p50 * 1e3:.2f} ms, p99 {report.p99 * 1e3:.2f} ms | "
        f"hedges {report.hedges_launched} launched / "
        f"{report.hedges_won} won / {report.hedges_cancelled} cancelled | "
        f"retries {report.retries} | "
        f"integrity {report.integrity_failures} caught / "
        f"{report.corrupted_completions} shipped",
    ]
    if report.steady_state:
        lines.append(
            f"steady state: {report.warm_dispatches} warm / "
            f"{report.cold_dispatches} cold dispatches "
            f"({report.warm_fraction:.1%} warm)"
        )
    if report.batching:
        mix = " ".join(
            f"x{n}:{c}" for n, c in sorted(report.batch_mix.items())
        )
        lines.append(
            f"batching: {report.batches_dispatched} batched attempts "
            f"(<= {report.max_batch}) carrying {report.batched_members} "
            f"requests | mean size {report.mean_batch_size:.2f}, "
            f"occupancy {report.batch_occupancy:.1%}"
            + (f" | mix {mix}" if mix else "")
        )
    if report.brownout:
        steps = " -> ".join(["full"] + [c["rung"] for c in report.qos_changes])
        mix = " ".join(f"{k}:{v}" for k, v in report.qos_mix.items())
        lines.append(
            f"brownout: {len(report.qos_changes)} level changes ({steps}) | "
            f"{report.degraded_fraction:.1%} of served requests degraded | "
            f"qos {mix}"
        )
    if report.replacements:
        filled = "; ".join(
            f"{rec['device']} filled slot {rec['slot']} at "
            f"t={rec['t'] * 1e3:.1f} ms "
            + (
                f"(warm-started, {rec['inherited_frames']} frames "
                "inherited from the store)"
                if rec["warm_start"]
                else "(cold start)"
            )
            for rec in report.replacements
        )
        lines.append(
            f"replacement: {filled} | spare-served requests "
            f"p50 {report.replacement_p50 * 1e3:.2f} ms, "
            f"p99 {report.replacement_p99 * 1e3:.2f} ms"
        )
    elif report.spares:
        lines.append(f"spares: {report.spares} armed, none needed")
    # a domain has a breaker (outages, availability) only when the
    # defense is on and it holds two or more devices; spares only join
    # domains, so a singleton at the end was one at the start.  A
    # defended fleet with domains has one such domain at least, so an
    # empty summary means the defense is off
    domains = list(report.domains.values())
    for name in sorted(set(domains)):
        d = report.domain_summary.get(name)
        if d is not None:
            facts = (
                f"{d['outages']} outages, {d['mass_quarantined']} "
                f"mass-quarantined, availability {d['availability']:.1%}"
            )
        elif report.domain_summary:
            facts = "no breaker (singleton at start)"
        else:
            facts = "no breaker (domain defense off)"
        lines.append(f"domain {name}: {domains.count(name)} devices, {facts}")
    if report.storm:
        lines.append(
            f"storm defense: amplification {report.amplification:.2f}x "
            f"({report.attempts} attempts / {report.total} arrivals) | "
            f"{report.retries_denied} retries denied "
            f"(budget {report.retry_denied.get('budget', 0)}, "
            f"deadline {report.retry_denied.get('deadline', 0)}) | "
            f"{report.hedges_suppressed} hedges suppressed"
        )
    lines.append(
        f"terminal states: {'all' if report.all_terminal else 'INCOMPLETE'}"
    )
    if report.slo_window is not None:
        series = report.slo_series()  # never empty: one window at least
        busiest = max(series, key=lambda w: w.total)
        lines.append(
            f"SLO windows ({report.slo_window:.3f}s x {len(series)}, target "
            f"{report.slo_target:.2%}): worst burn "
            f"{worst_burn(series):.2f}x | busiest window "
            f"[{busiest.start:.3f}, {busiest.end:.3f}) "
            f"{busiest.total} finished, miss {busiest.miss_rate:.1%}, "
            f"p99 {busiest.p99 * 1e3:.2f} ms"
        )
    return "\n".join(lines)
