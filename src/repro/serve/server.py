"""The simulated-clock serving loop.

A :class:`Server` drives a seeded, fully deterministic discrete-event
simulation over the fleet:

* arrivals land on the bounded :class:`~repro.serve.queue.AdmissionQueue`
  (reject-on-full, oldest-first expiry);
* queued requests dispatch to the least-loaded healthy idle device
  (via :func:`repro.profiling.parallel.least_loaded` — the same
  placement primitive the batch sharding path uses);
* a crashed attempt retries with exponential backoff + jitter while the
  deadline allows, and the crash feeds the device's circuit breaker:
  past the threshold the device is quarantined and periodically probed
  until readmission (or declared dead);
* an attempt running past the observed service-time percentile is
  *hedged*: a duplicate dispatches to the least-loaded healthy idle
  device, first result wins, and the loser is cancelled with its device
  reclaimed immediately.

Determinism: one seeded RNG drawn in event order, a heap ordered by
``(time, seq)``, and modeled (not wall-clock) service times — the same
seed reproduces every per-request outcome bit for bit.
"""

from __future__ import annotations

import bisect
import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BaseEngine, EngineConfig
from repro.gpu.device import GPUSpec
from repro.obs.metrics import get_registry
from repro.obs.timeline import TimelineRecorder
from repro.profiling.parallel import device_labels, least_loaded
from repro.profiling.report import sorted_percentile
from repro.robust.brownout import BrownoutConfig, BrownoutController
from repro.robust.domains import DomainTopology, RetryBudget, StormConfig
from repro.robust.errors import ConfigError
from repro.robust.faults import (
    FaultInjector,
    domain_degrade_factor,
    draw_domain_windows,
    inject_faults,
    maybe_crash_device,
    maybe_silent_corruption,
    stall_factor,
)
from repro.serve.batching import BatchingConfig, FormingBatch, batch_close_time
from repro.serve.cluster import DeviceWorker, LatencyOracle
from repro.serve.health import DEAD, HEALTHY, QUARANTINED, FleetHealth
from repro.serve.queue import AdmissionQueue
from repro.serve.report import ServeReport, fold_journal
from repro.serve.request import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    HedgePolicy,
    Request,
    RetryPolicy,
)
from repro.serve.traffic import TrafficConfig, generate_arrivals

PRESET_FACTORIES = {
    "torchsparse": EngineConfig.torchsparse,
    "baseline": EngineConfig.baseline,
}


@dataclass(frozen=True)
class ServeConfig:
    """Fleet and policy knobs of one serving campaign.

    ``None`` time constants resolve against the traffic mix's mean base
    latency so campaigns stay meaningful across input scales:
    ``backoff_base`` to 0.5x, ``probe_cooldown`` to 4x.
    """

    devices: tuple
    preset: str = "torchsparse"
    queue_capacity: int = 64
    #: deadline = arrival + factor x (model's base latency on the
    #: slowest card) — the per-request SLO
    deadline_factor: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgePolicy = field(default_factory=HedgePolicy)
    breaker_threshold: int = 2
    probe_cooldown: float | None = None
    max_probes: int = 8
    #: run ABFT integrity verification on every finished attempt: a
    #: corrupted result is detected at completion and handled exactly
    #: like a crash (device breaker + retry budget), so it can never
    #: resolve ``completed``.  Off models the pre-ABFT fleet, where
    #: corruption ships silently (reported as ``corrupted`` requests).
    verify_integrity: bool = True
    #: sigma of the log-normal service-time noise (0 disables)
    noise_sigma: float = 0.15
    #: dataset sample scale for the latency oracle
    scale: float = 0.15
    seed: int = 0
    #: model key -> seconds, bypassing the engine (tests/synthetic runs)
    latency_overrides: dict | None = None
    #: sim-clock window (seconds) of the SLO monitor; ``None`` disables
    #: the per-window deadline-miss / burn-rate series in the report
    slo_window: float | None = None
    #: SLO objective the burn rate is measured against (0.99 = 1%
    #: error budget)
    slo_target: float = 0.99
    #: per-device persistent mapping reuse: a device that already
    #: served a (model, scene) pair serves repeats at the *warm* base
    #: latency (one forward through the device's content-addressed
    #: :class:`~repro.mapping.cache.MappingCache`, primed with the
    #: same input: every mapping artifact it still holds is free).
    #: Off (default) keeps every dispatch cold — bit-exact with
    #: pre-cache campaigns.
    steady_state: bool = False
    #: load-adaptive brownout: a hysteresis controller stepping the
    #: fleet's QoS level (INT8 compute, coarser voxels) on queue depth
    #: and error-budget burn (:class:`~repro.robust.brownout
    #: .BrownoutConfig`).  ``None`` (default) serves everything at full
    #: quality — bit-exact with pre-brownout campaigns.
    brownout: BrownoutConfig | None = None
    #: spare-device pool: when a device is declared DEAD, up to this
    #: many replacements are admitted (same GPU spec as the dead slot,
    #: fresh breaker).  0 (default) keeps the pre-spares fleet: a dead
    #: device just shrinks capacity.
    spares: int = 0
    #: path of a shared :class:`~repro.persist.store.ArtifactStore`.
    #: With ``steady_state`` on, dispatched (model, scene) frames are
    #: persisted as durable markers and a replacement device
    #: *warm-starts* from them instead of re-mapping the whole world
    #: cold.  ``None`` (default) keeps everything process-local.
    store_dir: str | None = None
    #: explicit device labels aligned with ``devices`` (``None`` derives
    #: them from the GPU specs).  Must be unique: labels key health
    #: state, fault sites, and domain membership.
    labels: tuple | None = None
    #: failure-domain label per device (rack / power / driver zone),
    #: aligned with ``devices``.  ``None`` (default) gives every device
    #: its own singleton domain — the trivial topology — so all
    #: domain-aware machinery stays dormant and campaigns are bit-exact
    #: with pre-domain behavior.
    domains: tuple | None = None
    #: metastability defense (fleet-wide retry token bucket,
    #: deadline-aware retry admission, hedge suppression while a domain
    #: breaker is open).  ``None`` (default) grants every retry and
    #: hedge unconditionally — the pre-storm fleet.
    storm: StormConfig | None = None
    #: fraction of a domain's members that must fail within
    #: ``domain_window`` for the domain breaker to open
    domain_threshold: float = 0.5
    #: the domain breaker's correlation window, sim seconds; ``None``
    #: resolves to 4x the traffic mix's mean base latency
    domain_window: float | None = None
    #: deadline-aware cross-request dynamic batching
    #: (:class:`~repro.serve.batching.BatchingConfig`): an idle device
    #: may coalesce up to ``max_batch`` queued same-model (and, in
    #: steady-state mode, same-scene) requests into one batched attempt
    #: priced by the oracle's sublinear
    #: :meth:`~repro.serve.cluster.LatencyOracle.batch_latency`.
    #: ``None`` (default) runs the same pump with ``max_batch`` 1 and
    #: writes no batch metadata — bit-exact with pre-batching campaigns.
    batching: BatchingConfig | None = None
    #: master switch of the domain-aware defense: domain breakers with
    #: mass quarantine, probe forgiveness during an open breaker, and
    #: domain-diverse retry/hedge/spare placement.  ``False`` keeps the
    #: correlated fault *surface* — ``domain_outage``/``domain_degrade``
    #: windows still fire over the configured topology — but the fleet
    #: reacts with only the flat per-device machinery.  This is the
    #: undefended arm of the storm ablation.
    domain_defense: bool = True

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigError("need at least one device")
        if self.spares < 0:
            raise ConfigError(
                f"spares must be >= 0, got {self.spares}"
            )
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.preset not in PRESET_FACTORIES:
            raise ConfigError(
                f"unknown preset {self.preset!r}; expected one of "
                f"{tuple(PRESET_FACTORIES)}"
            )
        if self.deadline_factor <= 0:
            raise ConfigError("deadline_factor must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.slo_window is not None and self.slo_window <= 0:
            raise ConfigError("slo_window must be positive")
        if not 0.0 < self.slo_target < 1.0:
            raise ConfigError("slo_target must be in (0, 1)")
        if self.labels is not None:
            if len(self.labels) != len(self.devices):
                raise ConfigError(
                    f"labels ({len(self.labels)}) must align with "
                    f"devices ({len(self.devices)})"
                )
            seen = set()
            for label in self.labels:
                if label in seen:
                    raise ConfigError(f"duplicate device label {label!r}")
                seen.add(label)
        if self.domains is not None and len(self.domains) != len(
            self.devices
        ):
            raise ConfigError(
                f"domains ({len(self.domains)}) must align with "
                f"devices ({len(self.devices)})"
            )
        if not 0.0 < self.domain_threshold <= 1.0:
            raise ConfigError("domain_threshold must be in (0, 1]")
        if self.domain_window is not None and self.domain_window <= 0:
            raise ConfigError("domain_window must be positive")


@dataclass
class Attempt:
    """One dispatch of a batch of requests (or a health probe) onto a
    device."""

    id: int
    device: int
    kind: str  # "batch" | "hedge" | "probe"
    start: float
    finish: float
    will_fail: bool = False
    #: finishes on time but its result is silently corrupted (SDC)
    will_corrupt: bool = False
    cancelled: bool = False
    done: bool = False
    #: every request riding this attempt, lead first — never empty for
    #: a request attempt (an unbatched dispatch is a batch of one),
    #: empty for probes.  The attempt fans back out to one terminal
    #: state per member.
    members: tuple = ()
    #: id of the batch this attempt carries (hedge duplicates reuse the
    #: primary's batch id); ``None`` for probes
    batch_id: int | None = None


class Server:
    """Event loop over one fleet; see the module docstring.

    Every campaign is flight-recorded into ``recorder`` (a fresh
    :class:`~repro.obs.timeline.TimelineRecorder` when omitted): every
    lifecycle transition (arrival, admit, shed, dequeue, dispatch,
    crash, integrity failure, retry, hedge, probe, quarantine, terminal
    state) is journaled as a typed event stamped with the sim clock,
    device label, queue depth, and the request's remaining deadline
    slack at that instant.  The report's tallies and the ``serve.*``
    counters and histograms are folded from this journal when the
    campaign ends (:func:`~repro.serve.report.fold_journal`).
    """

    def __init__(
        self,
        config: ServeConfig,
        oracle: LatencyOracle,
        recorder=None,
    ) -> None:
        self.config = config
        self.oracle = oracle
        self.labels = (
            list(config.labels)
            if config.labels is not None
            else device_labels(config.devices)
        )
        self.workers = [
            DeviceWorker(index=i, label=label, spec=spec)
            for i, (label, spec) in enumerate(zip(self.labels, config.devices))
        ]
        self._index_of = {w.label: w.index for w in self.workers}
        #: model -> SLO budget (:meth:`deadline_for`)
        self._budgets: dict = {}
        self.topology = DomainTopology(
            self.labels,
            list(config.domains) if config.domains is not None else None,
        )
        #: domain-aware placement and health engage only when the
        #: topology is real AND the defense is on; the correlated fault
        #: windows fire over the topology either way
        self._defended = config.domain_defense and not self.topology.trivial
        self.health = FleetHealth(
            self.labels,
            threshold=config.breaker_threshold,
            max_probes=config.max_probes,
            topology=self.topology if config.domain_defense else None,
            domain_threshold=config.domain_threshold,
        )
        self.storm = config.storm
        self.retry_budget = (
            RetryBudget(config.storm) if config.storm is not None else None
        )
        #: correlated fault windows drawn in run() (pre-event-loop)
        self._domain_windows: list = []
        self.store = None
        if config.store_dir is not None:
            from repro.persist import ArtifactStore

            self.store = ArtifactStore(config.store_dir)
        self._spares_left = config.spares
        #: (model, scene) frames durably persisted this campaign (plus
        #: those recovered from the store on startup) — what a
        #: replacement device inherits instead of an empty cache
        self._fleet_seen: set = set()
        self.recorder = (
            recorder if recorder is not None else TimelineRecorder()
        )
        self.recorder.meta.update(
            seed=config.seed,
            preset=config.preset,
            devices=list(self.labels),
            verify_integrity=config.verify_integrity,
            steady_state=config.steady_state,
            brownout=config.brownout is not None,
            spares=config.spares,
            store=config.store_dir is not None,
            domains=(
                self.topology.to_json()
                if not self.topology.trivial
                else None
            ),
            storm=config.storm is not None,
            domain_defense=config.domain_defense,
        )
        if config.batching is not None:
            # added only when batching is on: batching=None journal
            # headers stay byte-exact with pre-batching campaigns
            self.recorder.meta.update(
                batching=True, max_batch=config.batching.max_batch
            )
        self.queue = AdmissionQueue(
            config.queue_capacity, on_shed=self._on_queue_shed
        )
        self.rng = np.random.default_rng(config.seed + 1)
        #: every arrival's trace id is this seed prefix plus its own id
        self._trace_prefix = f"{config.seed & 0xFFFFFFFF:08x}-"
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._attempts: dict = {}
        #: request id -> in-flight attempt ids
        self._live: dict = {}
        #: request id -> id of its most recently failed attempt (the
        #: causal parent a later retry dispatch links back to)
        self._last_failed: dict = {}
        #: completed attempts' service times, kept sorted ascending so
        #: the hedge trigger reads its quantile without re-sorting
        self._service_samples: list = []
        self._requests: list = []
        self._probe_model = ""
        # time constants resolved in run()
        self._backoff_base = 0.0
        self._probe_cooldown = 0.0
        #: the brownout controller (built in run(), where the tick
        #: interval resolves against the traffic mix's mean latency)
        self.brownout: BrownoutController | None = None
        self._qos_interval = 0.0
        #: cumulative QualityConfig per ladder level (index 0 = full)
        self._qualities: list = []
        #: first journal event the brownout window has not yet read
        self._qos_cursor = 0
        #: per-device (model, scene) pairs already dispatched — a
        #: repeat on the same device is a warm frame for its mapping
        #: cache.  Marked at dispatch: the mapping stage runs first, so
        #: even an attempt that later crashes leaves the cache primed.
        self._seen: list = [set() for _ in self.workers]
        # -- batching scheduler state --
        self.batching = config.batching
        #: without batching every request is a batch of one
        self.max_batch = (
            config.batching.max_batch if config.batching is not None else 1
        )
        #: device index -> FormingBatch holding that (reserved) device
        self._forming: dict = {}
        self._batch_count = 0
        #: monotonically increasing token invalidating stale
        #: ``batch_close`` heap events after a forming batch grows
        self._close_token = 0

    # -- event plumbing ------------------------------------------------------

    def _push(self, when: float, kind: str, ref) -> None:
        heapq.heappush(self._heap, (when, self._seq, kind, ref))
        self._seq += 1

    def _emit(
        self,
        kind: str,
        req: Request | None = None,
        /,
        *,
        attempt: int | None = None,
        device: str | None = None,
        **attrs,
    ) -> None:
        """Journal one lifecycle event.

        Queue depth is sampled at emission time; slack is the request's
        remaining deadline budget at this instant.
        """
        now = self.now
        if req is None:
            request = slack = None
        else:
            request, slack = req.id, req.deadline - now
        self.recorder.record(
            kind, now, request, attempt, device, len(self.queue), slack, attrs
        )

    def _on_queue_shed(self, req: Request, reason: str, now: float) -> None:
        """Queue-internal shed (reject-on-full / expiry) -> terminal."""
        self._emit("terminal", req, state=SHED, reason=reason)

    def _noise(self) -> float:
        sigma = self.config.noise_sigma
        if sigma == 0:
            return 1.0
        return float(np.exp(self.rng.normal(0.0, sigma)))

    def _start_attempt(
        self,
        w: DeviceWorker,
        kind: str,
        base: float,
        members: tuple = (),
        batch_id: int | None = None,
    ) -> Attempt:
        """Start one attempt on ``w`` and arm its completion.

        Request attempts and probes draw their service time and faults
        the same way, in the same order: one service draw, one crash
        draw, one corruption draw.
        """
        service = base * stall_factor(w.label) * self._noise()
        degrade = self._domain_fault(w.label, "domain_degrade")
        if degrade is not None:
            service *= domain_degrade_factor(degrade["severity"])
        will_fail = maybe_crash_device(w.label)
        if not will_fail and self._domain_fault(w.label, "domain_outage"):
            will_fail = True
        # an SDC attempt runs its *full* service time: nothing crashes,
        # the corruption is only discoverable once the result exists
        will_corrupt = not will_fail and maybe_silent_corruption(w.label)
        attempt = Attempt(
            id=len(self._attempts),
            device=w.index,
            kind=kind,
            start=self.now,
            finish=self.now + (0.5 * service if will_fail else service),
            will_fail=will_fail,
            will_corrupt=will_corrupt,
            members=members,
            batch_id=batch_id,
        )
        self._attempts[attempt.id] = attempt
        w.start()
        self._push(attempt.finish, "complete", attempt.id)
        return attempt

    def deadline_for(self, model: str) -> float:
        """SLO budget: factor x base latency on the slowest card.

        Arrivals are generated against the starting fleet before the
        campaign runs, so each model's budget is computed once.
        """
        budget = self._budgets.get(model)
        if budget is None:
            worst = max(
                self.oracle.base_latency(model, w.spec) for w in self.workers
            )
            budget = self._budgets[model] = self.config.deadline_factor * worst
        return budget

    def _record_service(self, seconds: float) -> None:
        """Add one service time: a binary search plus a list insert."""
        bisect.insort(self._service_samples, seconds)

    def _hedge_delay(self, model: str, spec: GPUSpec) -> float:
        hedge = self.config.hedge
        if len(self._service_samples) >= hedge.min_samples:
            return sorted_percentile(self._service_samples, hedge.quantile)
        return hedge.bootstrap_factor * self.oracle.base_latency(model, spec)

    # -- campaign entry ------------------------------------------------------

    def run(self, requests: list) -> ServeReport:
        """Serve ``requests`` to completion; returns the campaign report.

        The run's journal is folded once at the end: the report takes
        its tallies from it and the current metrics registry receives
        its ``serve.*`` counters and histograms, beside the brownout and
        retry-budget gauges.
        """
        cfg = self.config
        self._requests = requests
        models = sorted({r.model for r in requests}) or ["minkunet_0.5x_kitti"]
        self._probe_model = models[0]
        mean = self.oracle.mean_latency(models, [w.spec for w in self.workers])
        self._backoff_base = (
            cfg.retry.backoff_base
            if cfg.retry.backoff_base is not None
            else 0.5 * mean
        )
        self._probe_cooldown = (
            cfg.probe_cooldown if cfg.probe_cooldown is not None else 4.0 * mean
        )
        self.health.domain_window = (
            cfg.domain_window if cfg.domain_window is not None else 4.0 * mean
        )
        if cfg.brownout is not None:
            b = cfg.brownout
            self._qos_interval = (
                b.interval
                if b.interval is not None
                else (cfg.slo_window if cfg.slo_window is not None else 8.0 * mean)
            )
            dwell = b.dwell if b.dwell is not None else 4.0 * self._qos_interval
            self.brownout = BrownoutController(
                b, target=cfg.slo_target, dwell=dwell
            )
            self._qualities = [
                b.ladder.quality_at(level) for level in range(b.ladder.floor + 1)
            ]
        first_event = self._qos_cursor = len(self.recorder.events)
        self._warmstart_fleet()
        # correlated fault windows are drawn once, pre-event-loop, from
        # the injector's RNG — zero draws when no domain kind is armed,
        # so unfaulted campaigns keep their exact event-order RNG stream
        horizon = max((r.arrival for r in requests), default=0.0)
        self._domain_windows = draw_domain_windows(
            self.topology.names, horizon
        )
        for req in requests:
            self._push(req.arrival, "arrival", req.id)
        for win in self._domain_windows:
            if win["kind"] == "domain_outage":
                self._push(win["start"], "domain_down", win)
        if self.brownout is not None and requests:
            self._push(self._qos_interval, "qos", None)
        handlers = {
            "arrival": self._on_arrival,
            "complete": self._on_complete,
            "retry": self._on_retry,
            "hedge": self._on_hedge,
            "probe": self._on_probe,
            "qos": self._on_qos_tick,
            "domain_down": self._on_domain_down,
            "batch_close": self._on_batch_close,
        }
        while self._heap:
            when, _, kind, ref = heapq.heappop(self._heap)
            self.now = when
            handlers[kind](ref)
        self._final_sweep()
        events = self.recorder.events[first_event:]
        ledger = fold_journal(self.recorder.header(), events, self.now)
        registry = get_registry()
        ledger.publish(registry)
        # controller state the journal does not carry, as last-value
        # gauges; the retry bucket's only once a granted retry or a
        # successful attempt has touched it
        if self.brownout is not None:
            registry.gauge("serve.qos_level").set(self.brownout.level)
        budget = self.retry_budget
        succeeded = "serve.service_ms" in ledger.histograms
        if budget is not None and (ledger.total("serve.retries") or succeeded):
            registry.gauge("serve.retry_budget_tokens").set(budget.tokens)
        return self._report(ledger)

    def _req(self, req_id: int) -> Request:
        return self._requests[req_id]

    # -- handlers ------------------------------------------------------------

    def _on_arrival(self, req_id: int) -> None:
        req = self._req(req_id)
        self._emit(
            "arrival", req,
            model=req.model, scene=req.scene, deadline=req.deadline,
            trace=f"{self._trace_prefix}{req.id:06d}",
        )
        if self.queue.offer(req, self.now):
            self._emit("admit", req, retries=req.retries)
            self._pump()

    def _pump(self) -> None:
        """Feed held batches, then open new ones on idle healthy devices.

        Queued requests first top up any batch still forming (a new
        arrival joining a held batch is the whole point of holding);
        then, while an idle healthy *unreserved* device exists, the
        oldest queued request leads a new batch on the least-loaded
        such device.  Devices reserved by a forming batch are invisible
        to placement — the hold is the reservation.  Without batching
        ``max_batch`` is 1: every batch closes ``full`` the instant it
        opens, so nothing is ever held, scooped or peeked at.
        """
        self._feed_forming()
        # with nothing queued the loop below can neither pop nor
        # starve-close (both read None off the queue)
        while self.queue:
            eligible = [
                not w.busy
                and self.health[w.label].available
                and w.index not in self._forming
                for w in self.workers
            ]
            if not any(eligible):
                if self._starve_close():
                    continue
                return
            req = self.queue.pop(self.now)
            if req is None:
                return
            self._emit("dequeue", req, wait=self.now - req.arrival)
            parent = (
                self._last_failed.get(req.id) if req.retries else None
            )
            d = self._place(eligible, parent)
            self._open_batch(req, d)

    # -- batch formation -----------------------------------------------------

    def _open_batch(self, lead: Request, d: int) -> None:
        """Start forming a batch led by ``lead`` on (reserved) device ``d``."""
        self._batch_count += 1
        fb = FormingBatch(
            id=self._batch_count,
            device=d,
            model=lead.model,
            # steady-state batches are scene-pure so the whole attempt
            # has one mapping-cache temperature; otherwise scenes mix
            scene=lead.scene if self.config.steady_state else None,
            members=[lead],
            opened=self.now,
        )
        self._forming[d] = fb
        self._scoop(fb)
        self._settle(fb)

    def _scoop(self, fb: FormingBatch) -> None:
        """Coalesce queued requests into ``fb`` (deadline-aware).

        A candidate joins only if the batch *including it* could still
        dispatch right now without pushing any member — itself
        included — past its deadline at the grown batch's modeled
        service time.  A request too tight to survive the larger batch
        stays queued and will lead its own (likely solo) batch.  An
        empty queue has nothing to shed or take, so it is not scanned.
        """
        limit = self.max_batch - len(fb.members)
        if limit <= 0 or not self.queue:
            return

        def fits(req: Request) -> bool:
            if not self._would_fit(fb, req):
                return False
            fb.members.append(req)
            return True

        for req in self.queue.take_matching(fits, limit, self.now):
            self._emit("dequeue", req, wait=self.now - req.arrival)

    def _settle(self, fb: FormingBatch) -> None:
        """Close ``fb`` now, or arm its deadline-driven close timer.

        The batch closes the instant the oldest member's slack minus
        the modeled batch service time hits zero — dispatch any later
        and that member misses.  Until then the device stays reserved,
        waiting for joiners; every growth re-arms the timer (a bigger
        batch is slower, so the close time only moves earlier).
        """
        n = len(fb.members)
        if n >= self.max_batch:
            self._close_batch(fb, "full")
            return
        # formation prices the *plan* (see _would_fit)
        est = self.oracle.batch_latency(
            fb.model, self.workers[fb.device].spec, n
        )
        close_at = batch_close_time(fb.members, est)
        if close_at <= self.now:
            self._close_batch(fb, "deadline" if n > 1 else "solo")
            return
        fb.close_at = close_at
        self._close_token += 1
        fb.token = self._close_token
        self._push(close_at, "batch_close", (fb.device, fb.token))

    def _would_fit(self, fb: FormingBatch, req: Request) -> bool:
        """Whether ``req`` could join ``fb`` right now (no mutation)."""
        if len(fb.members) >= self.max_batch:
            return False
        if req.model != fb.model:
            return False
        if fb.scene is not None and req.scene != fb.scene:
            return False
        # formation prices the *plan*: oracle batch latency only, no
        # stall factor and no noise draw (drawing here would perturb
        # the RNG stream with scheduling lookahead); the dispatch
        # prices the reality
        est = self.oracle.batch_latency(
            fb.model, self.workers[fb.device].spec, len(fb.members) + 1
        )
        worst = min(m.deadline for m in fb.members)
        return min(worst, req.deadline) - est >= self.now

    def _starve_close(self) -> bool:
        """Work-conserving escape hatch: never idle-hold past a backlog.

        The hold is worth it only while the next queued request could
        still join a forming batch.  When the queue's head fits no held
        batch (wrong model, wrong scene, or too tight) and every device
        is busy or reserved, waiting buys nothing — the head is starved
        behind an idle reservation.  Close the earliest-closing held
        batch immediately so its device starts real work and frees up a
        full hold earlier.  Returns True if a batch was closed.
        """
        if not self._forming:
            return False
        head = self.queue.peek(self.now)
        if head is None:
            return False
        if any(self._would_fit(fb, head) for fb in self._forming.values()):
            return False
        d = min(self._forming, key=lambda i: (self._forming[i].close_at, i))
        self._close_batch(self._forming[d], "starved")
        return True

    def _feed_forming(self) -> None:
        """Offer queued requests to every batch still forming."""
        if not self.queue:
            return
        for d in sorted(self._forming):
            fb = self._forming.get(d)
            if fb is None:
                continue
            before = len(fb.members)
            self._scoop(fb)
            if len(fb.members) != before:
                self._settle(fb)

    def _on_batch_close(self, ref: tuple) -> None:
        """The hold expired: dispatch at the last viable instant.

        Stale timers — the batch grew (token bumped) or already closed
        (device released) — are ignored.
        """
        d, token = ref
        fb = self._forming.get(d)
        if fb is None or fb.token != token:
            return
        self._close_batch(fb, "deadline" if len(fb.members) > 1 else "solo")

    def _close_batch(self, fb: FormingBatch, reason: str) -> None:
        """Release the reservation and dispatch ``fb`` as one attempt."""
        self._forming.pop(fb.device, None)
        members = list(fb.members)
        if self.batching is not None:
            self._emit(
                "batch_formed", members[0],
                device=self.workers[fb.device].label,
                batch=fb.id,
                size=len(members),
                model=fb.model,
                members=[m.id for m in members],
                reason=reason,
                held=self.now - fb.opened,
            )
        self._dispatch(members, fb.device, "batch", fb.id)

    def _dispatch(
        self,
        members: list,
        d: int,
        kind: str,
        batch_id: int,
        parent: int | None = None,
    ) -> None:
        """Start one attempt carrying ``members`` on device ``d``.

        One attempt, one service draw, one crash/corruption draw — the
        batch lives and dies together on this device.  ``kind`` is
        ``"batch"`` for a scheduler close and ``"hedge"`` for a
        straggler duplicate of the whole member set (``parent`` = the
        hedged attempt).  Every member gets its own dispatch journal
        slice sharing the attempt id: ``batch_dispatch`` in batched
        campaigns, the pre-batching ``dispatch`` event otherwise.
        """
        w = self.workers[d]
        n = len(members)
        batched = self.batching is not None
        warm = False
        if self.config.steady_state:
            # scene-pure by construction, so one frame keys the batch
            frame = (members[0].model, members[0].scene)
            warm = frame in self._seen[d]
            self._seen[d].add(frame)
            if self.store is not None and frame not in self._fleet_seen:
                self._fleet_seen.add(frame)
                self._persist_frame(frame)
        quality = None
        if self.brownout is not None:
            quality = self._qualities[self.brownout.level]
        base = self.oracle.batch_latency(
            members[0].model, w.spec, n, warm=warm, quality=quality
        )
        attempt = self._start_attempt(w, kind, base, tuple(members), batch_id)
        for m in members:
            m.state = RUNNING
            m.in_flight += 1
            self._live.setdefault(m.id, []).append(attempt.id)
            # the member's journal kind and causal parent: a hedge
            # links to the hedged attempt, a retry to its last failure
            if kind == "hedge":
                mkind, mparent = "hedge", parent
            elif m.retries:
                mkind, mparent = "retry", self._last_failed.get(m.id)
            else:
                mkind, mparent = "primary", None
            attrs = {"batch": batch_id, "size": n} if batched else {}
            attrs.update(kind=mkind, model=m.model, scene=m.scene)
            if self.config.steady_state:
                attrs["warm"] = warm
            if self.brownout is not None:
                # the fleet's current rung, per member slice: the
                # report credits each request to its final dispatch
                attrs["qos"] = self.brownout.rung
            if mparent is not None:
                attrs["parent"] = mparent
            self._emit(
                "batch_dispatch" if batched else "dispatch", m,
                attempt=attempt.id, device=w.label, **attrs,
            )
        if self.config.hedge.enabled and kind != "hedge":
            self._push(
                self.now + self._hedge_delay(members[0].model, w.spec),
                "hedge",
                attempt.id,
            )

    def _place(self, eligible: list, parent: int | None) -> int:
        """Least-loaded eligible device, domain-diverse after a failure.

        A retry whose causal parent crashed in domain D prefers any
        eligible device *outside* D — a correlated fault should not eat
        the retry too.  Falls back to the flat choice when no other
        domain has capacity (or the topology is trivial, where "another
        domain" would just mean "another device", which placement
        cannot always honor).
        """
        busy = [w.busy_time for w in self.workers]
        if parent is not None and self._defended:
            failed = self.topology.domain_of(
                self.workers[self._attempts[parent].device].label
            )
            diverse = [
                e and self.topology.domain_of(w.label) != failed
                for e, w in zip(eligible, self.workers)
            ]
            if any(diverse):
                return least_loaded(busy, diverse)
        return least_loaded(busy, eligible)

    def _domain_fault(self, label: str, kind: str):
        """The active correlated fault window covering ``label``."""
        if not self._domain_windows:
            return None
        domain = self.topology.domain_of(label)
        for win in self._domain_windows:
            if (
                win["kind"] == kind
                and win["domain"] == domain
                and win["start"] <= self.now < win["end"]
            ):
                return win
        return None

    def _on_domain_down(self, win: dict) -> None:
        """A correlated outage window opens: crash-fail the domain.

        Every in-flight attempt on a member device fails *now* (its
        original completion event later no-ops via the ``done`` guard);
        dispatches and probes landing inside the window crash-fail at
        dispatch time via :meth:`_domain_fault`.  Recovery is organic:
        probes keep failing (forgiven while the domain breaker is open,
        so members cannot be probed to death by the shared fault) until
        the window closes, and the first readmission closes the breaker.
        """
        members = set(self.topology.members(win["domain"]))
        for a in list(self._attempts.values()):
            if a.done or a.cancelled:
                continue
            if self.workers[a.device].label not in members:
                continue
            a.will_fail = True
            a.will_corrupt = False
            a.finish = self.now
            self._push(self.now, "complete", a.id)

    def _on_hedge(self, attempt_id: int) -> None:
        """Hedge a straggling attempt: duplicate its whole member set.

        p95 trigger, storm suppression, domain-diverse placement; the
        duplicate carries the exact member set under the same batch id,
        so first-result-wins cancellation stays attempt-level.  Devices
        reserved by a forming batch are not stolen for hedges.
        """
        a = self._attempts[attempt_id]
        lead = a.members[0]
        if a.done or a.cancelled or lead.terminal or lead.hedged:
            return
        if (
            self.storm is not None
            and self.storm.suppress_hedges
            and self.health.open_domains
        ):
            # a mass outage makes p95-triggered duplicates pure load
            # amplification onto the surviving domains
            self._emit("hedge_skip", lead, reason="domain_breaker")
            return
        eligible = [
            not w.busy
            and self.health[w.label].available
            and w.index != a.device
            and w.index not in self._forming
            for w in self.workers
        ]
        if not any(eligible):
            self._emit("hedge_skip", lead, reason="no_device")
            return
        if self._defended:
            primary = self.topology.domain_of(self.workers[a.device].label)
            diverse = [
                e and self.topology.domain_of(w.label) != primary
                for e, w in zip(eligible, self.workers)
            ]
            if not any(diverse):
                # a same-domain hedge shares the primary's failure
                # domain — it hedges nothing worth hedging
                self._emit("hedge_skip", lead, reason="no_cross_domain")
                return
            eligible = diverse
        d = least_loaded([w.busy_time for w in self.workers], eligible)
        for m in a.members:
            m.hedged = True
        self._dispatch(list(a.members), d, "hedge", a.batch_id, parent=a.id)

    def _on_complete(self, attempt_id: int) -> None:
        a = self._attempts[attempt_id]
        if a.done:
            return
        a.done = True
        if a.cancelled:
            # device was reclaimed when the sibling won
            return
        w = self.workers[a.device]
        w.release(self.now - a.start)
        if a.kind == "probe":
            self._finish_probe(a)
            return
        for m in a.members:
            m.in_flight -= 1
            self._live[m.id].remove(a.id)
        if a.will_fail:
            self._attempt_failed(a, w, "crash")
        elif a.will_corrupt and self.config.verify_integrity:
            self._attempt_failed(a, w, "integrity_fail")
        else:
            self._attempt_succeeded(a, w)
        self._pump()

    def _attempt_failed(
        self, a: Attempt, w: DeviceWorker, outcome: str
    ) -> None:
        """An attempt crashed or failed ABFT verification.

        A corrupted result has the same consequences as a crash — a
        device producing corrupted results is as unhealthy as one that
        dies — except that the full service time was already burned.
        The device breaker hears about *one* failure (one attempt, one
        fault), but every member's retry/terminal verdict runs
        independently in member order — each backoff draw comes from
        the shared RNG in that deterministic order.
        """
        if outcome == "crash":
            reason = "every attempt crashed"
        else:
            reason = "result failed integrity verification"
        for m in a.members:
            self._last_failed[m.id] = a.id
            self._emit(
                "attempt_finish", m,
                attempt=a.id, device=w.label, outcome=outcome,
            )
        self._record_device_failure(w)
        for m in a.members:
            self._member_verdict(m, reason)

    def _record_device_failure(self, w: DeviceWorker) -> None:
        """Feed one attempt failure to the device (and domain) breaker."""
        if self.health.record_failure(w.label):
            self._emit("quarantine", device=w.label)
            self._push(self.now + self._probe_cooldown, "probe", w.index)
        opened = self.health.record_domain_failure(w.label, self.now)
        if opened is not None:
            domain, swept = opened
            self._emit("domain_outage", domain=domain, swept=len(swept))
            for label in swept:
                self._emit("quarantine", device=label)
                self._push(
                    self.now + self._probe_cooldown,
                    "probe",
                    self._index_of[label],
                )

    def _member_verdict(self, req: Request, reason: str) -> None:
        """Retry-or-terminal decision for one request whose attempt failed."""
        if req.terminal:
            return
        if req.in_flight > 0:
            # a hedge twin is still running; it will decide the outcome
            return
        retry = self.config.retry
        if req.retries < retry.max_retries:
            # the backoff draw happens *before* storm gating, so the RNG
            # stream stays aligned between defended and undefended arms
            # of a same-seed ablation
            delay = retry.delay(req.retries, self._backoff_base, self.rng)
            if self.now + delay < req.deadline:
                denial = self._storm_denies_retry(req, delay)
                if denial is None:
                    req.retries += 1
                    req.state = QUEUED
                    self._emit("retry_scheduled", req, retry=req.retries,
                               delay=delay)
                    self._push(self.now + delay, "retry", req.id)
                    return
                self._emit("retry_denied", req, reason=denial)
                if denial == "deadline":
                    # a doomed retry is a deadline miss we already know
                    # about — resolve it now instead of burning a slot
                    req.resolve(DEADLINE_EXCEEDED)
                    self._emit(
                        "terminal", req, state=DEADLINE_EXCEEDED,
                        error="retry denied: insufficient deadline slack",
                    )
                    return
                # budget denial falls through to FAILED
        req.resolve(FAILED)
        self._emit("terminal", req, state=FAILED, error=reason)

    def _storm_denies_retry(self, req: Request, delay: float):
        """``None`` to admit the retry, else the denial reason.

        Deadline admission runs first — a retry that cannot finish in
        time should not spend a budget token on the way to missing.
        """
        if self.storm is None:
            return None
        if self.storm.deadline_aware:
            best = self._best_healthy_service(req.model)
            if best is not None and self.now + delay + best > req.deadline:
                return "deadline"
        if not self.retry_budget.take():
            return "budget"
        return None

    def _best_healthy_service(self, model: str):
        """Expected service time on the best available device."""
        times = [
            self.oracle.base_latency(model, w.spec)
            for w in self.workers
            if self.health[w.label].available
        ]
        return min(times) if times else None

    def _attempt_succeeded(self, a: Attempt, w: DeviceWorker) -> None:
        """An attempt finished: every member gets its verdict."""
        members = a.members
        self.health.record_success(w.label)
        if self.retry_budget is not None:
            # goodput refills the storm budget: n requests of goodput
            # refill n tokens, so retry traffic stays a bounded fraction
            # of what actually succeeds
            for _ in members:
                self.retry_budget.credit()
        self._record_service(self.now - a.start)
        for m in members:
            self._emit(
                "attempt_finish", m,
                attempt=a.id, device=w.label, outcome="ok",
                corrupted=bool(a.will_corrupt),
            )
        # first result wins at the attempt level: a hedge twin carries
        # the same member set, so it is cancelled once, its device
        # reclaimed once, and every member slice closed
        twin_ids: set = set()
        for m in members:
            twin_ids.update(self._live[m.id])
        for tid in sorted(twin_ids):
            twin = self._attempts[tid]
            twin.cancelled = True
            self.workers[twin.device].release(self.now - twin.start)
            for m in twin.members:
                self._live[m.id].remove(tid)
                m.in_flight -= 1
                self._emit(
                    "attempt_finish", m,
                    attempt=tid,
                    device=self.workers[twin.device].label,
                    outcome="cancelled",
                )
        for m in members:
            latency = self.now - m.arrival
            if self.now <= m.deadline:
                m.resolve(COMPLETED)
                # verification off: the SDC hole ships to every member
                self._emit("terminal", m, state=COMPLETED, latency=latency,
                           corrupted=bool(a.will_corrupt))
            else:
                m.resolve(DEADLINE_EXCEEDED)
                self._emit("terminal", m, state=DEADLINE_EXCEEDED,
                           latency=latency)

    def _on_qos_tick(self, _ref) -> None:
        """One brownout-controller tick: observe the window, maybe step.

        The next tick is scheduled only while other events remain — a
        tick never keeps the heap alive on its own, so a campaign still
        terminates the instant its last request resolves.
        """
        # the window's signal is read off the journal: every terminal
        # since the last tick finished, and any not completed missed
        events = self.recorder.events
        states = [
            e["attrs"]["state"]
            for e in events[self._qos_cursor:]
            if e["kind"] == "terminal"
        ]
        self._qos_cursor = len(events)
        change = self.brownout.observe(
            self.now,
            queue_depth=len(self.queue),
            misses=sum(state != COMPLETED for state in states),
            finished=len(states),
        )
        if change is not None:
            self._emit(
                "qos_change",
                level=change["level"],
                rung=change["rung"],
                direction=change["direction"],
                burn=change["burn"],
            )
        if self._heap:
            self._push(self.now + self._qos_interval, "qos", None)

    def _on_retry(self, req_id: int) -> None:
        req = self._req(req_id)
        if req.terminal:
            return
        if self.queue.offer(req, self.now):
            self._emit("admit", req, retries=req.retries)
            self._pump()

    def _on_probe(self, d: int) -> None:
        w = self.workers[d]
        dev = self.health[w.label]
        if dev.state in (HEALTHY, DEAD):
            return
        if w.busy:
            # mass quarantine can catch a device mid-attempt; probe it
            # once the in-flight work drains instead of dropping the
            # probe (and the device) forever
            self._push(self.now + self._probe_cooldown, "probe", d)
            return
        self.health.begin_probe(w.label)
        base = self.oracle.base_latency(self._probe_model, w.spec)
        attempt = self._start_attempt(w, "probe", base)
        self._emit(
            "dispatch", attempt=attempt.id, device=w.label, kind="probe"
        )

    # -- the durable tier ----------------------------------------------------

    def _persist_frame(self, frame: tuple) -> None:
        """Durably record that the fleet has mapped ``frame``."""
        from repro.persist import encode_artifact, frame_key

        model, scene = frame
        value = {"model": model, "scene": scene}
        self.store.save(
            frame_key(model, scene), "frame", encode_artifact("frame", value)
        )

    def _warmstart_fleet(self) -> None:
        """Prime every worker's seen-set from the shared store.

        Every stored frame marker is loaded through the verified path
        (checksum + structural decode — a corrupt marker quarantines
        and is simply not inherited).  The recovered frames seed both
        the fleet-wide set replacements inherit *and* each initial
        worker, so a second same-store campaign starts warm.
        """
        if self.store is None or not self.config.steady_state:
            return
        from repro.persist import decode_artifact
        from repro.robust.errors import StoreCorruptionError

        for key in sorted(self.store.entries):
            if self.store.entries[key]["kind"] != "frame":
                continue
            data = self.store.load(key)
            if data is None:
                continue
            try:
                kind, value = decode_artifact(data)
            except StoreCorruptionError:
                self.store.quarantine(key, reason="decode")
                continue
            if kind != "frame":
                self.store.quarantine(key, reason="kind_mismatch")
                continue
            self._fleet_seen.add((value["model"], value["scene"]))
        if not self._fleet_seen:
            return
        frames = len(self._fleet_seen)
        for w in self.workers:
            self._seen[w.index] |= self._fleet_seen
            self._emit("store_warmstart", device=w.label, frames=frames)

    def _replace_device(self, dead: DeviceWorker) -> None:
        """Admit a spare into a dead device's slot.

        The spare shares the dead slot's GPU spec but gets its own
        label (``spare<n>`` — deliberately *not* derived from the dead
        label, so a sticky fault pinned to the dead device by substring
        site-matching cannot follow the replacement in), a fresh
        breaker, and — when the durable store is on — a seen-set
        warm-started from every frame the fleet has persisted, instead
        of an empty cache that re-maps the whole world cold.
        """
        if self._spares_left <= 0:
            return
        self._spares_left -= 1
        label = f"spare{self.config.spares - self._spares_left}"
        spare = DeviceWorker(
            index=len(self.workers), label=label, spec=dead.spec
        )
        self.workers.append(spare)
        self.labels.append(label)
        self._index_of[label] = spare.index
        # the spare joins the least-impacted domain (fewest unavailable
        # members; ties break in topology order) — backfilling the
        # outage's own domain would stack the replacement under the
        # same correlated fault.  Trivial topologies keep the spare a
        # singleton so they stay trivial.
        domain = label
        if self._defended:
            domain = min(
                self.topology.names,
                key=lambda name: sum(
                    not self.health[m].available
                    for m in self.topology.members(name)
                ),
            )
        self.topology.assign(label, domain)
        self.health.add_device(label)
        warm_start = self.store is not None and self.config.steady_state
        inherited = set(self._fleet_seen) if warm_start else set()
        self._seen.append(inherited)
        self._emit(
            "device_replaced",
            device=label,
            slot=dead.label,
            spec=dead.spec.name,
            domain=domain,
        )
        if warm_start:
            self._emit("store_warmstart", device=label, frames=len(inherited))
        self._pump()

    def _finish_probe(self, a: Attempt) -> None:
        w = self.workers[a.device]
        if a.will_fail:
            outcome = "crash"
        elif a.will_corrupt and self.config.verify_integrity:
            outcome = "integrity_fail"
        else:
            outcome = "ok"
        ok = outcome == "ok"
        self._emit(
            "attempt_finish", attempt=a.id, device=w.label, outcome=outcome
        )
        forgive = not ok and self.health.domain_open(w.label)
        if self.health.probe_result(w.label, ok, forgive=forgive):
            self._emit("readmit", device=w.label)
            closed = self.health.maybe_close_domain(w.label)
            if closed is not None:
                # one member passing its probe is the evidence the
                # domain-wide fault has cleared
                self._emit("domain_recovered", domain=closed)
            self._pump()
        elif self.health[w.label].state == QUARANTINED:
            self._push(self.now + self._probe_cooldown, "probe", w.index)
        elif self.health[w.label].state == DEAD:
            self._emit("device_dead", device=w.label)
            self._replace_device(w)

    def _final_sweep(self) -> None:
        """Force every survivor into a terminal state (liveness)."""
        for req in self.queue.drain():
            req.resolve(SHED)
            self._emit("terminal", req, state=SHED, reason="no_capacity")
        for req in self._requests:
            if not req.terminal:
                req.resolve(FAILED)
                self._emit("terminal", req, state=FAILED,
                           error="stranded at campaign end")

    # -- report --------------------------------------------------------------

    def _report(self, ledger) -> ServeReport:
        """The campaign report: everything the ledger folded from the
        journal, plus the end time and the config echoes."""
        return ServeReport(
            **ledger.report_fields(),
            batching=self.batching is not None,
            max_batch=self.max_batch,
            storm=self.storm is not None,
            verify_integrity=self.config.verify_integrity,
            steady_state=self.config.steady_state,
            spares=self.config.spares,
            store_enabled=self.store is not None,
            seed=self.config.seed,
            end_time=self.now,
            slo_window=self.config.slo_window,
            slo_target=self.config.slo_target,
            brownout=self.brownout is not None,
            qos_rungs=(
                self.brownout.config.ladder.rung_names()
                if self.brownout is not None
                else ("full",)
            ),
        )


def run_serve_campaign(
    config: ServeConfig,
    traffic: TrafficConfig,
    injector: FaultInjector | None = None,
    recorder=None,
) -> ServeReport:
    """Generate traffic, serve it, and report — one deterministic run.

    Base latencies are warmed *before* the injector is installed so the
    oracle's engine runs can never trip pipeline fault sites; serve
    campaigns exercise exactly the fleet-level kinds.

    The campaign journals every lifecycle transition into ``recorder``
    (the flight recorder backing ``repro-bench serve --events``).
    """
    engine = BaseEngine(config=PRESET_FACTORIES[config.preset]())
    oracle = LatencyOracle(
        engine,
        scale=config.scale,
        seed=config.seed,
        overrides=config.latency_overrides,
    )
    server = Server(config, oracle, recorder=recorder)
    server.recorder.meta.update(
        rate=traffic.rate,
        duration=traffic.duration,
        models=list(traffic.models),
        coherence=traffic.coherence,
    )
    qualities = []
    if config.brownout is not None:
        ladder = config.brownout.ladder
        qualities = [
            ladder.quality_at(level) for level in range(1, ladder.floor + 1)
        ]
    # warm every batch size the scheduler may price (n=1 is the base
    # latency), so formation estimates and dispatches never run the
    # engine inside the injector context either
    oracle.prewarm(
        traffic.models,
        [w.spec for w in server.workers],
        server.max_batch,
        [None, *qualities],
        warm=config.steady_state,
    )
    ctx = inject_faults(injector) if injector is not None else nullcontext()
    with ctx:
        requests = generate_arrivals(traffic, server.deadline_for)
        report = server.run(requests)
    report.duration = traffic.duration
    return report
