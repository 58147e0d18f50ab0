"""Tests for the resilient serving layer (repro.serve)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import GTX_1080TI, RTX_2080TI, RTX_3090
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.robust.degrade import CircuitBreaker
from repro.robust.faults import (
    FaultInjector,
    FaultSpec,
    inject_faults,
    maybe_crash_device,
    queue_spike_burst,
    stall_factor,
)
from repro.serve import (
    COMPLETED,
    DEAD,
    DEADLINE_EXCEEDED,
    FAILED,
    HEALTHY,
    QUARANTINED,
    QUEUED,
    SHED,
    TERMINAL_STATES,
    AdmissionQueue,
    BatchingConfig,
    FleetHealth,
    HedgePolicy,
    Request,
    RetryPolicy,
    ServeConfig,
    TrafficConfig,
    format_serve_report,
    generate_arrivals,
    run_serve_campaign,
)

#: synthetic base latency; no engine evaluation in these tests
LAT = {"m": 0.004, "big": 0.012}


def make_config(**kw):
    defaults = dict(
        devices=(RTX_2080TI, RTX_2080TI, RTX_3090),
        latency_overrides=LAT,
        seed=7,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def make_traffic(**kw):
    defaults = dict(rate=300.0, duration=0.5, models=("m",), seed=7)
    defaults.update(kw)
    return TrafficConfig(**defaults)


def campaign(config=None, traffic=None, specs=(), seed=7, recorder=None):
    injector = FaultInjector(seed=seed, specs=list(specs)) if specs else None
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config or make_config(), traffic or make_traffic(),
            injector=injector, recorder=recorder,
        )
    return report, reg, injector


class TestRequest:
    def test_resolve_is_single_shot(self):
        r = Request(id=0, model="m", arrival=0.0, deadline=1.0)
        r.resolve(COMPLETED)
        assert r.terminal and r.state == COMPLETED
        with pytest.raises(RuntimeError):
            r.resolve(FAILED)

    def test_resolve_rejects_transient_state(self):
        r = Request(id=0, model="m", arrival=0.0, deadline=1.0)
        with pytest.raises(ValueError):
            r.resolve("running")

    def test_retry_policy_backoff_and_jitter_bounds(self):
        import numpy as np

        p = RetryPolicy(max_retries=3, backoff_base=0.01, jitter=0.25)
        rng = np.random.default_rng(0)
        for retry in range(3):
            d = p.delay(retry, 0.01, rng)
            nominal = 0.01 * 2.0**retry
            assert 0.75 * nominal <= d <= 1.25 * nominal

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)


class TestAdmissionQueue:
    def _req(self, i, deadline=10.0):
        return Request(id=i, model="m", arrival=0.0, deadline=deadline)

    def _observed(self, capacity):
        """A queue whose ``on_shed`` observer logs (id, reason, now)."""
        sheds = []
        q = AdmissionQueue(
            capacity=capacity,
            on_shed=lambda req, reason, now: sheds.append(
                (req.id, reason, now)
            ),
        )
        return q, sheds

    def test_reject_on_full(self):
        q, sheds = self._observed(2)
        assert q.offer(self._req(0), 0.0)
        assert q.offer(self._req(1), 0.0)
        r = self._req(2)
        assert not q.offer(r, 0.0)
        assert r.state == SHED and sheds == [(2, "queue_full", 0.0)]

    def test_expired_evicted_before_reject(self):
        with use_registry(MetricsRegistry()):
            q, sheds = self._observed(1)
            dead = self._req(0, deadline=1.0)
            assert q.offer(dead, 0.0)
            live = self._req(1, deadline=10.0)
            # at t=2 the queued request is expired: it is shed, not live
            assert q.offer(live, 2.0)
        assert dead.state == SHED and sheds == [(0, "expired", 2.0)]
        assert live.state == "queued"

    def test_shed_expired_oldest_first(self):
        with use_registry(MetricsRegistry()):
            q = AdmissionQueue(capacity=8)
            a = self._req(0, deadline=1.0)
            b = self._req(1, deadline=2.0)
            c = self._req(2, deadline=10.0)
            for r in (a, b, c):
                q.offer(r, 0.0)
            dropped = q.shed_expired(3.0)
        assert [r.id for r in dropped] == [0, 1]
        assert len(q) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)

    def test_shed_expired_with_nothing_expired_keeps_fifo(self):
        q, sheds = self._observed(8)
        # deadlines out of arrival order: a retry re-enters the queue
        # behind requests due later than it
        for i, deadline in enumerate((5.0, 2.0, 10.0)):
            q.offer(self._req(i, deadline=deadline), 0.0)
        assert q.shed_expired(1.0) == []
        assert sheds == []
        # a deadline reached exactly has expired; the rest keep order
        assert [r.id for r in q.shed_expired(2.0)] == [1]
        assert [q.pop(2.0).id for _ in range(2)] == [0, 2]


class TestFleetHealth:
    def test_quarantine_after_threshold(self):
        h = FleetHealth(["a", "b"], threshold=2)
        assert not h.record_failure("a")
        assert h.record_failure("a")
        assert h["a"].state == QUARANTINED
        assert h["b"].state == HEALTHY
        assert [h[label].available for label in "ab"] == [False, True]
        # a quarantined device is quarantined once, not per failure
        assert not h.record_failure("a")

    def test_probe_readmission_resets_breaker(self):
        h = FleetHealth(["a"], threshold=1)
        h.record_failure("a")
        h.begin_probe("a")
        assert h.probe_result("a", True)
        assert h["a"].state == HEALTHY
        assert h["a"].probes == 1
        assert h["a"].breaker.failures == 0 and not h["a"].breaker.open

    def test_dead_after_max_probes(self):
        with use_registry(MetricsRegistry()):
            h = FleetHealth(["a"], threshold=1, max_probes=2)
            h.record_failure("a")
            for _ in range(2):
                h.begin_probe("a")
                assert not h.probe_result("a", False)
        assert h["a"].state == DEAD
        assert h["a"].probes == 2
        with pytest.raises(RuntimeError):
            h.begin_probe("a")  # the dead are never probed again

    def test_reuses_circuit_breaker(self):
        h = FleetHealth(["a"], threshold=3)
        assert isinstance(h["a"].breaker, CircuitBreaker)
        assert h["a"].breaker.threshold == 3


class TestFaultSites:
    def test_sites_are_noops_without_injector(self):
        assert not maybe_crash_device("x")
        assert stall_factor("x") == 1.0
        assert queue_spike_burst() == 0

    def test_crash_site_filter(self):
        inj = FaultInjector(seed=0, specs=[
            FaultSpec(kind="device_crash", site="gpu1", count=1)
        ])
        with use_registry(MetricsRegistry()), inject_faults(inj):
            assert not maybe_crash_device("gpu0")
            assert maybe_crash_device("gpu1")
            assert not maybe_crash_device("gpu1")  # shot spent

    def test_stall_factor_scales_with_severity(self):
        inj = FaultInjector(seed=0, specs=[
            FaultSpec(kind="device_stall", count=-1, severity=0.1)
        ])
        with use_registry(MetricsRegistry()), inject_faults(inj):
            assert stall_factor("x") == pytest.approx(5.0)

    def test_queue_spike_burst_size(self):
        inj = FaultInjector(seed=0, specs=[
            FaultSpec(kind="queue_spike", count=1, severity=0.05)
        ])
        with use_registry(MetricsRegistry()), inject_faults(inj):
            assert queue_spike_burst() == 5
            assert queue_spike_burst() == 0


class TestTraffic:
    def test_arrivals_sorted_and_dense_ids(self):
        reqs = generate_arrivals(make_traffic(), lambda m: 0.1)
        assert [r.id for r in reqs] == list(range(len(reqs)))
        assert all(
            a.arrival <= b.arrival for a, b in zip(reqs, reqs[1:])
        )
        assert all(r.deadline == pytest.approx(r.arrival + 0.1) for r in reqs)

    def test_poisson_rate_roughly_held(self):
        reqs = generate_arrivals(
            make_traffic(rate=500.0, duration=2.0), lambda m: 0.1
        )
        assert 800 <= len(reqs) <= 1200

    def test_seeded_determinism(self):
        a = generate_arrivals(make_traffic(), lambda m: 0.1)
        b = generate_arrivals(make_traffic(), lambda m: 0.1)
        assert a == b

    def test_queue_spike_adds_burst(self):
        base = generate_arrivals(make_traffic(), lambda m: 0.1)
        inj = FaultInjector(seed=0, specs=[
            FaultSpec(kind="queue_spike", count=2, severity=0.05)
        ])
        with use_registry(MetricsRegistry()), inject_faults(inj):
            spiked = generate_arrivals(make_traffic(), lambda m: 0.1)
        assert len(spiked) == len(base) + 10  # two bursts of five

    def test_model_mix_and_weights(self):
        cfg = make_traffic(models=("m", "big"), weights=(0.9, 0.1))
        reqs = generate_arrivals(cfg, lambda m: 0.1)
        models = {r.model for r in reqs}
        assert models == {"m", "big"}
        share = sum(r.model == "m" for r in reqs) / len(reqs)
        assert share > 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(rate=0.0, duration=1.0)
        with pytest.raises(ValueError):
            TrafficConfig(rate=1.0, duration=1.0, models=())
        with pytest.raises(ValueError):
            TrafficConfig(rate=1.0, duration=1.0, models=("m",),
                          weights=(0.5, 0.5))

    def test_degenerate_weights_rejected_at_construction(self):
        """Zero-sum / negative weights used to pass __post_init__ and
        blow up deep inside generate_arrivals (ZeroDivisionError in the
        weights_at normalization, np.random.choice p-error)."""
        from repro.robust.errors import ConfigError

        for bad in ((0.0, 0.0), (1.0, -0.5), (-1.0, -1.0),
                    (float("nan"), 1.0), (float("inf"), 1.0)):
            with pytest.raises(ConfigError):
                TrafficConfig(
                    rate=1.0, duration=1.0, models=("m", "big"), weights=bad
                )
        # a valid mix still constructs and generates
        cfg = TrafficConfig(
            rate=50.0, duration=0.2, models=("m", "big"), weights=(2.0, 1.0)
        )
        assert generate_arrivals(cfg, lambda m: 0.1)


class TestServeCampaign:
    def test_clean_campaign_completes_everything(self):
        report, reg, _ = campaign()
        assert report.all_terminal
        assert report.count(COMPLETED) == report.total > 50
        assert report.slo_attainment == 1.0
        assert report.shed_rate == 0.0
        assert reg.scalars()["serve.completed"] == report.total

    def test_every_request_exactly_one_terminal_state(self):
        from repro.obs.timeline import TimelineRecorder, validate_journal

        specs = [
            FaultSpec(kind="device_crash", count=6),
            FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                      severity=0.1),
            FaultSpec(kind="queue_spike", count=2),
        ]
        rec = TimelineRecorder()
        report, _, inj = campaign(specs=specs, recorder=rec)
        assert inj.shots > 0
        assert report.all_terminal
        assert sum(report.outcomes.values()) == report.total
        for r in report.requests:
            assert r.state in TERMINAL_STATES
        # nothing left on a device: every attempt slice was closed
        assert validate_journal(rec.header(), rec.events) == []

    def test_bit_for_bit_reproducible_under_chaos(self):
        specs = lambda: [  # noqa: E731 — fresh specs per run (mutable count)
            FaultSpec(kind="device_crash", count=6),
            FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                      severity=0.1),
            FaultSpec(kind="queue_spike", count=2),
        ]
        a, _, _ = campaign(specs=specs())
        b, _, _ = campaign(specs=specs())
        assert a.to_json() == b.to_json()

    def test_different_seed_different_schedule(self):
        a, _, _ = campaign()
        b, _, _ = campaign(
            config=make_config(seed=8), traffic=make_traffic(seed=8)
        )
        assert a.to_json() != b.to_json()

    def test_overload_sheds_with_backpressure(self):
        config = make_config(
            devices=(RTX_2080TI,), queue_capacity=4,
            hedge=HedgePolicy(enabled=False),
        )
        traffic = make_traffic(rate=2000.0, duration=0.3)
        report, reg, _ = campaign(config=config, traffic=traffic)
        assert report.all_terminal
        assert report.count(SHED) > 0
        shed_full = reg.scalars().get("serve.shed{reason=queue_full}", 0)
        shed_exp = reg.scalars().get("serve.shed{reason=expired}", 0)
        assert shed_full + shed_exp == report.count(SHED)

    def test_tight_deadline_exceeded(self):
        config = make_config(
            deadline_factor=1.01, hedge=HedgePolicy(enabled=False),
            noise_sigma=0.5,
        )
        report, _, _ = campaign(config=config)
        assert report.all_terminal
        assert report.count(DEADLINE_EXCEEDED) > 0

    def test_crashes_retry_then_fail_when_exhausted(self):
        # every dispatch crashes: no request can ever complete
        specs = [FaultSpec(kind="device_crash", count=-1)]
        config = make_config(
            devices=(RTX_2080TI, RTX_2080TI),
            retry=RetryPolicy(max_retries=1),
        )
        traffic = make_traffic(rate=50.0, duration=0.2)
        report, reg, _ = campaign(config=config, traffic=traffic, specs=specs)
        assert report.all_terminal
        assert report.count(COMPLETED) == 0
        assert report.count(FAILED) + report.count(SHED) == report.total
        assert reg.scalars().get("serve.retries", 0) > 0

    def test_crashes_quarantine_and_probe_readmits(self):
        specs = [FaultSpec(kind="device_crash", site="RTX 2080Ti #0",
                           count=2)]
        config = make_config(breaker_threshold=2)
        report, reg, _ = campaign(config=config, specs=specs)
        fleet = report.fleet["RTX 2080Ti #0"]
        assert fleet["crashes"] == 2
        assert fleet["quarantines"] == 1
        assert fleet["probes"] >= 1
        assert fleet["state"] == HEALTHY  # probe readmitted it
        scal = reg.scalars()
        assert scal["serve.quarantines{device=RTX 2080Ti #0}"] == 1.0
        assert scal["serve.readmissions{device=RTX 2080Ti #0}"] == 1.0

    def test_sticky_crash_kills_device_not_campaign(self):
        specs = [FaultSpec(kind="device_crash", site="RTX 3090", count=-1)]
        config = make_config(max_probes=3)
        report, _, _ = campaign(config=config, specs=specs)
        assert report.all_terminal
        assert report.fleet["RTX 3090"]["state"] == DEAD
        # the two healthy cards absorbed the traffic
        assert report.count(COMPLETED) > 0.8 * report.total

    def test_straggler_hedging_wins_and_cancels(self):
        specs = [FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                           severity=0.2)]
        report, reg, _ = campaign(specs=specs)
        assert report.hedges_launched > 0
        assert report.hedges_won > 0
        assert report.hedges_cancelled == report.hedges_launched
        winners = [r for r in report.requests if r.hedge_won]
        assert len(winners) == report.hedges_won
        assert all(r.hedged for r in winners)
        scal = reg.scalars()
        assert scal["serve.hedges{outcome=won}"] == report.hedges_won
        assert scal["serve.hedges{outcome=cancelled}"] == (
            report.hedges_cancelled
        )

    def test_no_hedge_config_never_hedges(self):
        specs = [FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                           severity=0.2)]
        config = make_config(hedge=HedgePolicy(enabled=False))
        report, reg, _ = campaign(config=config, specs=specs)
        assert report.hedges_launched == 0
        assert "serve.hedges{outcome=launched}" not in reg.scalars()

    def test_hedge_timer_after_terminal_is_noop(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle
        from repro.serve.server import Server

        oracle = LatencyOracle(BaseEngine(), overrides=LAT)
        server = Server(make_config(), oracle)
        req = Request(id=0, model="m", arrival=0.0, deadline=1.0)
        server._requests = [req]
        server._dispatch([req], 0, "batch", 1)
        (aid,) = server._attempts
        # the request resolves before its hedge timer fires — the
        # stale timer must not launch (or journal) anything
        req.resolve(COMPLETED)
        server._on_hedge(aid)
        assert list(server._attempts) == [aid]
        assert not req.hedged
        # the journal holds the primary's dispatch and nothing else
        assert [e["kind"] for e in server.recorder.events] == ["dispatch"]

    def _server(self, **kw):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle
        from repro.serve.server import Server

        oracle = LatencyOracle(BaseEngine(), overrides=LAT)
        return Server(make_config(**kw), oracle)

    def test_emit_builds_the_keyword_emit_event(self):
        from repro.obs.timeline import TimelineRecorder

        server = self._server()
        req = Request(id=4, model="m", arrival=0.0, deadline=1.0)
        server.queue.offer(Request(id=5, model="m", arrival=0.0,
                                   deadline=2.0), 0.0)
        server.now = 0.25
        server._emit("dispatch", req, attempt=2, device="d", kind="retry")
        server._emit("quarantine", device="d")
        server._emit("qos_change", level=1)
        ref = TimelineRecorder()
        ref.emit("dispatch", 0.25, request=4, attempt=2, device="d",
                 queue_depth=1, slack=0.75, kind="retry")
        ref.emit("quarantine", 0.25, device="d", queue_depth=1)
        ref.emit("qos_change", 0.25, queue_depth=1, level=1)
        assert server.recorder.events == ref.events
        assert json.dumps(server.recorder.events) == json.dumps(ref.events)
        # each event owns its attrs: mutating one touches no other
        attrs = [e["attrs"] for e in server.recorder.events]
        assert len({id(a) for a in attrs}) == len(attrs)
        server._emit("quarantine", device="d")
        server.recorder.events[-1]["attrs"]["x"] = 1
        assert server.recorder.events[1]["attrs"] == {}

    def test_pump_on_empty_queue_journals_nothing(self):
        server = self._server(batching=BatchingConfig(max_batch=4))
        server._requests = []
        # all devices idle, and (below) all devices busy: either way
        # there is nothing to pop, feed or starve-close
        server._pump()
        for w in server.workers:
            w.busy = True
        server._pump()
        assert server.recorder.events == []
        assert server._forming == {} and server._heap == []

    def test_hedge_cancel_counter_algebra(self):
        # every launched hedge pair resolves exactly one cancellation
        # (loser cancelled, winner kept), whichever side wins — and the
        # registry counters agree with the report tallies
        specs = [FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                           severity=0.2)]
        report, reg, _ = campaign(specs=specs)
        assert report.hedges_launched > 0
        assert report.hedges_cancelled == report.hedges_launched
        assert 0 < report.hedges_won <= report.hedges_launched
        scal = reg.scalars()
        assert scal["serve.hedges{outcome=launched}"] == (
            report.hedges_launched
        )
        assert scal["serve.hedges{outcome=won}"] == report.hedges_won
        assert scal["serve.hedges{outcome=cancelled}"] == (
            report.hedges_cancelled
        )
        # cancelled attempts reclaim their device slot: total dispatched
        # attempts = per-request attempt counts, nothing leaks
        dispatched = sum(
            v for k, v in scal.items()
            if k.startswith("serve.dispatches{")
        )
        assert dispatched == report.attempts

    def test_heterogeneous_fleet_supported(self):
        config = make_config(devices=(GTX_1080TI, RTX_3090))
        report, _, _ = campaign(config=config)
        assert report.all_terminal
        assert set(report.utilization) == {"GTX 1080Ti", "RTX 3090"}

    def test_serve_metrics_surface(self):
        _, reg, _ = campaign()
        names = set(reg.scalars())
        for required in ("serve.arrivals", "serve.admitted",
                         "serve.completed", "serve.latency_ms.count",
                         "serve.wait_ms.count", "serve.queue_depth.count"):
            assert any(k.startswith(required) for k in names), required


#: service times with deliberate ties: a small pool of repeated values
#: mixed with arbitrary ones
service_times = st.lists(
    st.sampled_from([0.001, 0.004, 0.004, 0.012])
    | st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
    min_size=1,
    max_size=60,
)
hedge_quantiles = st.sampled_from([100.0, 1e-9]) | st.floats(
    min_value=0.0, max_value=100.0, exclude_min=True
)


class TestHedgeTrigger:
    """The hedge delay reads a quantile of an incrementally sorted
    service-time sample; it must agree with the shared nearest-rank
    :func:`~repro.profiling.report.percentile` and never re-sort the
    sample per dispatch."""

    @given(service_times, hedge_quantiles, st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_delay_equals_percentile_after_every_insertion(
        self, times, q, min_samples
    ):
        from repro.core.engine import BaseEngine
        from repro.profiling.report import percentile
        from repro.serve.cluster import LatencyOracle
        from repro.serve.server import Server

        hedge = HedgePolicy(quantile=q, min_samples=min_samples)
        oracle = LatencyOracle(BaseEngine(), overrides=LAT)
        server = Server(make_config(hedge=hedge), oracle)
        spec = server.workers[0].spec
        bootstrap = hedge.bootstrap_factor * oracle.base_latency("m", spec)
        for i, t in enumerate(times):
            server._record_service(t)
            delay = server._hedge_delay("m", spec)
            if i + 1 < min_samples:
                assert delay == bootstrap
            else:
                assert delay == percentile(times[: i + 1], q)

    def test_hedged_campaign_never_sorts_per_dispatch(self, monkeypatch):
        import sys

        from repro.profiling import report as report_mod
        from repro.serve.server import Server

        calls = {"inside": 0}
        depth = {"run": 0}
        original = report_mod.percentile

        def counting(values, q):
            if depth["run"]:
                calls["inside"] += 1
            return original(values, q)

        # every binding of the sorting entry point, wherever imported
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(mod, "percentile", None) is original
            ):
                monkeypatch.setattr(mod, "percentile", counting)
        run = Server.run

        def tracked(self, requests):
            depth["run"] += 1
            try:
                return run(self, requests)
            finally:
                depth["run"] -= 1

        monkeypatch.setattr(Server, "run", tracked)
        specs = [FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                           severity=0.2)]
        report, _, _ = campaign(
            traffic=make_traffic(rate=600.0, duration=1.7), specs=specs
        )
        assert report.total >= 900
        assert report.hedges_launched > 0
        # each dispatch arms a hedge timer, so a per-dispatch sort would
        # scale with report.attempts; the trigger must not sort at all
        assert report.attempts >= 900
        assert calls["inside"] <= 4


class TestBackoffJitter:
    """Satellite audit: retry backoff randomness comes from the
    server's seeded RNG — never the module-level ``random`` (which
    would silently break same-seed bit-exactness)."""

    CRASHES = [FaultSpec(kind="device_crash", count=4)]

    def test_module_level_random_untouched(self):
        import random

        random.seed(1234)
        state = random.getstate()
        report, _, _ = campaign(specs=self.CRASHES)
        assert report.retries > 0  # the jitter path actually ran
        assert random.getstate() == state

    def test_same_seed_backoff_delays_bit_exact(self):
        from repro.obs.timeline import TimelineRecorder

        def delays():
            rec = TimelineRecorder()
            injector = FaultInjector(seed=7, specs=list(self.CRASHES))
            with use_registry(MetricsRegistry()):
                run_serve_campaign(
                    make_config(), make_traffic(),
                    injector=injector, recorder=rec,
                )
            out = [
                e["attrs"]["delay"] for e in rec.events
                if e["kind"] == "retry_scheduled"
            ]
            assert out
            return out

        assert delays() == delays()

    def test_delay_uses_only_the_passed_rng(self):
        import numpy as np

        policy = RetryPolicy(max_retries=3, backoff_base=0.01)
        a = [policy.delay(i, 0.01, np.random.default_rng(5))
             for i in range(3)]
        b = [policy.delay(i, 0.01, np.random.default_rng(5))
             for i in range(3)]
        assert a == b
        # exponential growth under the jittered envelope
        assert all(d > 0 for d in a)


class TestServeReport:
    def _report(self):
        report, _, _ = campaign()
        return report

    def test_percentiles_match_shared_definition(self):
        from repro.profiling.report import percentile

        report = self._report()
        lats = [r.latency for r in report.requests
                if r.state == COMPLETED]
        assert report.p50 == percentile(lats, 50.0)
        assert report.p99 == percentile(lats, 99.0)
        assert report.p50 <= report.p99

    def test_json_roundtrip_and_schema(self):
        report = self._report()
        d = json.loads(json.dumps(report.to_json(), sort_keys=True))
        assert d["schema"] == "repro-bench.serve/1"
        assert d["all_terminal"] is True
        assert d["total"] == len(d["requests"])
        assert sum(d["outcomes"].values()) == d["total"]

    def test_summary_line_mentions_key_numbers(self):
        report = self._report()
        text = format_serve_report(report, "campaign")
        assert "SLO" in text and "p99" in text and "hedges" in text

    def test_failure_verdict_in_gate_order(self):
        report = self._report()
        assert report.failure() is None
        assert report.failure(slo_floor=1.01) == (
            f"slo_attainment {report.slo_attainment:.3f} < floor 1.010"
        )
        # without a windowed monitor there is no burn to gate
        assert report.slo_window is None
        assert report.failure(burn_ceiling=-1.0) is None
        report.requests[0].state = QUEUED
        assert report.failure(slo_floor=1.01) == (
            "non-terminal requests at campaign end"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(devices=())
        with pytest.raises(ValueError):
            make_config(preset="nope")
        with pytest.raises(ValueError):
            make_config(deadline_factor=0.0)
        with pytest.raises(ValueError):
            make_config(noise_sigma=-1.0)


class TestLatencyOracle:
    def test_memoizes_per_spec_not_per_device(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(BaseEngine(), scale=0.08)
        a = oracle.base_latency("minkunet_0.5x_kitti", RTX_2080TI)
        b = oracle.base_latency("minkunet_0.5x_kitti", RTX_2080TI)
        assert a == b
        assert len(oracle._latency) == 1
        assert oracle.base_latency("minkunet_0.5x_kitti", RTX_3090) != a

    def test_overrides_bypass_engine(self):
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(None, overrides={"m": 0.002})
        assert oracle.base_latency("m", RTX_2080TI) == 0.002

    def test_unknown_model_rejected(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        with pytest.raises(ValueError, match="unknown zoo model"):
            LatencyOracle(BaseEngine()).base_latency("nope", RTX_2080TI)


class TestOracleLookupContract:
    """A memo read is keyed by field values, never by object identity.

    Specs and QoS rungs hash their fields once, at construction; the
    oracle's memo must still treat an equal copy as the same key and a
    copy differing in any one field as a new one.
    """

    MODEL = "minkunet_0.5x_kitti"

    @pytest.fixture
    def counted(self, monkeypatch):
        """An engine-priced oracle that counts its priced forwards."""
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(BaseEngine(), scale=0.03)
        priced = []
        price = oracle._price

        def counting(*args):
            priced.append(args)
            return price(*args)

        monkeypatch.setattr(oracle, "_price", counting)
        return oracle, priced

    def test_equal_copy_reads_the_memoized_float(self, counted):
        from dataclasses import replace

        from repro.robust.degrade import FULL_QUALITY

        oracle, priced = counted
        for n in (1, 2):
            for warm in (False, True):
                a = oracle.batch_latency(self.MODEL, RTX_3090, n, warm=warm)
                before = len(priced)
                spec, quality = replace(RTX_3090), replace(FULL_QUALITY)
                assert spec is not RTX_3090 and spec == RTX_3090
                assert quality is not FULL_QUALITY and quality == FULL_QUALITY
                b = oracle.batch_latency(
                    self.MODEL, spec, n, warm=warm, quality=quality
                )
                assert b.hex() == a.hex()
                assert len(priced) == before
        assert oracle.base_latency(self.MODEL, replace(RTX_3090)) == (
            oracle.batch_latency(self.MODEL, RTX_3090, 1)
        )

    @pytest.mark.parametrize("name", [
        "name", "dram_bandwidth", "fp32_tflops", "fp16_tflops",
        "has_fp16_tensor_cores", "l2_bytes", "sm_count", "launch_overhead",
        "blocks_half",
    ])
    def test_spec_differing_in_one_field_is_priced_on_its_own(
        self, counted, name
    ):
        from dataclasses import fields, replace

        assert name in {f.name for f in fields(RTX_3090)}
        oracle, priced = counted
        oracle.base_latency(self.MODEL, RTX_3090)
        value = getattr(RTX_3090, name)
        if isinstance(value, bool):
            other = not value
        elif isinstance(value, str):
            other = value + "*"
        else:
            other = value * 2
        spec = replace(RTX_3090, **{name: other})
        assert spec != RTX_3090
        before = len(priced)
        oracle.base_latency(self.MODEL, spec)
        assert len(priced) == before + 1
        assert priced[-1][1] is spec

    @pytest.mark.parametrize("change", [
        {"dtype": "INT8"}, {"voxel_scale": 2}, {"speedup": 2.0},
    ])
    def test_rung_differing_in_one_field_is_priced_on_its_own(
        self, counted, change
    ):
        from dataclasses import replace

        from repro.gpu.memory import DType
        from repro.robust.degrade import FULL_QUALITY

        oracle, priced = counted
        oracle.batch_latency(self.MODEL, RTX_3090, 2)
        if "dtype" in change:
            change = {"dtype": DType[change["dtype"]]}
        quality = replace(FULL_QUALITY, **change)
        assert quality != FULL_QUALITY
        before = len(priced)
        oracle.batch_latency(self.MODEL, RTX_3090, 2, quality=quality)
        # the n=1 anchor, then the batch
        assert [args[2] for args in priced[before:]] == [1, 2]
        assert all(args[4] is quality for args in priced[before:])

    def test_equal_specs_and_rungs_hash_equal(self):
        import copy
        import pickle
        from dataclasses import fields, replace

        from repro.gpu.memory import DType
        from repro.robust.degrade import FULL_QUALITY, QualityConfig

        rung = QualityConfig(dtype=DType.INT8, voxel_scale=2, speedup=1.5)
        for obj in (RTX_3090, GTX_1080TI, FULL_QUALITY, rung):
            values = tuple(getattr(obj, f.name) for f in fields(obj))
            for twin in (
                replace(obj),
                type(obj)(*values),
                copy.copy(obj),
                copy.deepcopy(obj),
                pickle.loads(pickle.dumps(obj)),
            ):
                assert twin == obj
                assert hash(twin) == hash(obj) == hash(values)
        assert hash(replace(RTX_3090, sm_count=RTX_3090.sm_count + 1)) != (
            hash(RTX_3090)
        )

    def test_spec_pickled_under_another_hash_seed_hashes_locally(self):
        """String hashes differ per process: a cached hash must not
        travel with a pickled spec or rung."""
        import os
        import pickle
        import subprocess
        import sys

        import repro
        from repro.gpu.memory import DType
        from repro.robust.degrade import QualityConfig

        code = (
            "import pickle, sys\n"
            "from repro.gpu.device import RTX_3090\n"
            "from repro.gpu.memory import DType\n"
            "from repro.robust.degrade import QualityConfig\n"
            "q = QualityConfig(dtype=DType.INT8, voxel_scale=2)\n"
            "sys.stdout.buffer.write(pickle.dumps((RTX_3090, q)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, timeout=300,
        ).stdout
        spec, rung = pickle.loads(out)
        assert spec == RTX_3090 and hash(spec) == hash(RTX_3090)
        local = QualityConfig(dtype=DType.INT8, voxel_scale=2)
        assert rung == local and hash(rung) == hash(local)


class TestOraclePrewarm:
    """A warm price's priming forward doubles as the cold price only
    when it took no mapping-cache hit, and a campaign prices each SLO
    budget once per model."""

    KITTI = ("minkunet_0.5x_kitti", "minkunet_1.0x_kitti")
    SCALE = 0.04

    @pytest.fixture
    def contexts(self, monkeypatch):
        """Every pricing context the oracle opens: one per forward."""
        import repro.serve.cluster as cluster

        opened = []
        make = cluster.ExecutionContext

        def counting(*args, **kwargs):
            ctx = make(*args, **kwargs)
            opened.append(ctx)
            return ctx

        monkeypatch.setattr(cluster, "ExecutionContext", counting)
        return opened

    def test_steady_prewarm_runs_one_priming_and_one_warm_forward(
        self, contexts
    ):
        config = ServeConfig(
            devices=(RTX_3090,), batching=BatchingConfig(max_batch=4),
            steady_state=True, scale=self.SCALE, seed=7,
        )
        traffic = TrafficConfig(
            rate=100.0, duration=0.05, models=self.KITTI[:1], seed=7,
            coherence=0.8,
        )
        with use_registry(MetricsRegistry()):
            run_serve_campaign(config, traffic)
        # 4 batch sizes x (priming + warm); the cold prices are the
        # priming forwards
        assert len(contexts) == 8
        assert all(ctx.mapcache is not None for ctx in contexts)

    def test_memoized_cold_prices_equal_a_cacheless_oracle(self, contexts):
        from repro.core.engine import BaseEngine
        from repro.robust.degrade import DEFAULT_QOS_LADDER
        from repro.serve.cluster import LatencyOracle

        qualities = [None] + [
            DEFAULT_QOS_LADDER.quality_at(level)
            for level in range(1, DEFAULT_QOS_LADDER.floor + 1)
        ]
        oracle = LatencyOracle(BaseEngine(), scale=self.SCALE, seed=3)
        oracle.prewarm(
            self.KITTI, [RTX_3090, RTX_2080TI], 2, qualities, warm=True
        )
        cold = [k for k in oracle._latency if not k[3]]
        assert len(cold) == 2 * 2 * 2 * len(qualities)
        cacheless = sum(ctx.mapcache is None for ctx in contexts)
        # priced in reverse: cold prices do not depend on pricing order
        fresh = LatencyOracle(BaseEngine(), scale=self.SCALE, seed=3)
        for model, spec, n, _, quality in reversed(cold):
            price = fresh.batch_latency(model, spec, n, quality=quality)
            key = (model, spec, n, False, quality)
            assert oracle._latency[key].hex() == price.hex(), key
        # some priming forwards stood in for cold prices; others hit the
        # cache (the INT8 rung, the second model over the same input)
        # and the cold key ran its own cache-less forward
        assert 0 < cacheless < len(cold)

    def test_arrivals_price_each_budget_once_per_worker(self, monkeypatch):
        from collections import Counter

        from repro.serve.cluster import LatencyOracle
        from repro.serve.server import Server

        config = make_config()
        server = Server(config, LatencyOracle(None, overrides=LAT))
        calls = Counter()
        base_latency = server.oracle.base_latency

        def counting(model, spec, *args, **kwargs):
            calls[model] += 1
            return base_latency(model, spec, *args, **kwargs)

        monkeypatch.setattr(server.oracle, "base_latency", counting)
        traffic = make_traffic(models=("m", "big"), weights=(1.0, 1.0))
        requests = generate_arrivals(traffic, server.deadline_for)
        assert len(requests) > 100
        assert set(calls) == {"m", "big"}
        assert max(calls.values()) <= len(server.workers)
        for r in requests:
            budget = config.deadline_factor * LAT[r.model]
            assert r.deadline == r.arrival + budget


class TestSilentDataCorruption:
    """The fleet-level SDC hole and its ABFT fix (verify_integrity)."""

    def _specs(self, count=6, site=""):
        return [FaultSpec(kind="bitflip_feature", site=site, count=count)]

    def test_corrupted_attempt_never_completes_verified(self):
        report, reg, inj = campaign(specs=self._specs())
        assert inj.shots > 0
        assert report.integrity_failures > 0
        assert report.corrupted_completions == 0
        assert report.verify_integrity
        assert report.passed
        # no request that ever failed verification carries a corrupted
        # *delivered* result
        for r in report.requests:
            if r.state == COMPLETED:
                assert not r.corrupted

    def test_integrity_failure_spends_retry_budget(self):
        report, reg, _ = campaign(specs=self._specs())
        scalars = reg.scalars()
        assert scalars.get("serve.retries", 0) > 0
        assert any(
            k.startswith("serve.integrity_failures") for k in scalars
        )
        retried = [r for r in report.requests if r.integrity_failures]
        assert retried
        assert all(r.terminal for r in retried)

    def test_integrity_failure_feeds_the_breaker(self):
        # every SDC lands on one device: the breaker must hear about it
        # exactly like crashes and eventually quarantine the card
        config = make_config(devices=(RTX_2080TI, RTX_3090))
        label = "RTX 3090"
        report, reg, inj = campaign(
            config=config,
            specs=[FaultSpec(kind="bitflip_weight", site=label, count=3)],
        )
        assert inj.shots >= 2
        assert report.fleet[label]["crashes"] >= 2
        assert report.corrupted_completions == 0

    def test_verification_off_ships_corruption(self):
        # the pre-ABFT fleet: same faults, nothing notices
        config = make_config(verify_integrity=False)
        report, reg, inj = campaign(config=config, specs=self._specs())
        assert inj.shots > 0
        assert report.integrity_failures == 0
        assert report.corrupted_completions > 0
        assert not report.passed  # liveness holds, integrity does not
        assert report.all_terminal
        # the integrity verdict outranks the SLO floor
        assert report.failure(slo_floor=1.01) == (
            f"{report.corrupted_completions} corrupted results shipped as "
            "completed (silent-data-corruption hole)"
        )
        shipped = [r for r in report.requests if r.corrupted]
        assert all(r.state == COMPLETED for r in shipped)
        assert reg.scalars().get(
            "serve.corrupted_completions{device=RTX 2080Ti}", 0
        ) + sum(
            v
            for k, v in reg.scalars().items()
            if k.startswith("serve.corrupted_completions")
        ) > 0

    def test_sdc_does_not_shorten_service_time(self):
        # corruption is only discoverable at completion: the attempt
        # burns its full service time (a crash burns half)
        report_sdc, _, _ = campaign(specs=self._specs(count=2))
        busy_sdc = sum(u["busy_time"] for u in report_sdc.utilization.values())
        report_crash, _, _ = campaign(
            specs=[FaultSpec(kind="device_crash", count=2)]
        )
        busy_crash = sum(
            u["busy_time"] for u in report_crash.utilization.values()
        )
        assert busy_sdc > busy_crash

    def test_request_json_carries_integrity_fields(self):
        report, _, _ = campaign(specs=self._specs())
        blob = report.to_json()
        assert blob["integrity"]["verify"] is True
        assert blob["integrity"]["failures"] == report.integrity_failures
        assert blob["integrity"]["corrupted_completions"] == 0
        row = blob["requests"][0]
        assert "integrity_failures" in row and "corrupted" in row

    def test_summary_line_reports_integrity(self):
        report, _, _ = campaign(specs=self._specs())
        text = format_serve_report(report, "campaign")
        assert "integrity" in text and "caught" in text and "shipped" in text


class TestTemporalCoherence:
    def test_coherence_zero_scenes_increment_per_model(self):
        reqs = generate_arrivals(
            make_traffic(models=("m", "big"), weights=(0.5, 0.5)),
            lambda m: 0.1,
        )
        for model in ("m", "big"):
            scenes = [r.scene for r in reqs if r.model == model]
            assert scenes == list(range(len(scenes)))

    def test_coherence_zero_stream_unchanged(self):
        """Adding the scene field must not perturb the seeded arrival
        stream: the rng is only consulted when coherence > 0."""
        a = generate_arrivals(make_traffic(), lambda m: 0.1)
        b = generate_arrivals(make_traffic(coherence=0.0), lambda m: 0.1)
        assert [(r.arrival, r.model) for r in a] == \
               [(r.arrival, r.model) for r in b]

    def test_coherent_stream_repeats_scenes(self):
        reqs = generate_arrivals(
            make_traffic(coherence=0.9, duration=1.0), lambda m: 0.1
        )
        scenes = [r.scene for r in reqs]
        assert len(set(scenes)) < len(scenes)  # repeats exist
        # scenes are still dense: 0..max with no gaps
        assert set(scenes) == set(range(max(scenes) + 1))

    def test_coherence_deterministic(self):
        a = generate_arrivals(make_traffic(coherence=0.7), lambda m: 0.1)
        b = generate_arrivals(make_traffic(coherence=0.7), lambda m: 0.1)
        assert a == b

    def test_scene_in_request_json(self):
        report, _, _ = campaign(traffic=make_traffic(coherence=0.7))
        reqs = generate_arrivals(make_traffic(coherence=0.7), lambda m: 0.1)
        assert [r.to_json()["scene"] for r in report.requests] == [
            r.scene for r in reqs
        ]

    def test_coherence_validation(self):
        # 1.0 is legal: a fully scene-coherent stream (warm-cache limit)
        make_traffic(coherence=1.0)
        with pytest.raises(ValueError):
            make_traffic(coherence=1.1)
        with pytest.raises(ValueError):
            make_traffic(coherence=-0.1)

    def test_fully_coherent_stream_rides_one_scene(self):
        reqs = generate_arrivals(make_traffic(coherence=1.0), lambda m: 0.1)
        assert len(reqs) > 1
        assert {r.scene for r in reqs} == {0}


class TestSteadyStateServing:
    def test_default_campaign_reports_disabled(self):
        report, _, _ = campaign()
        assert not report.steady_state
        assert report.warm_dispatches == 0 and report.cold_dispatches == 0
        blob = report.to_json()
        assert blob["steady_state"] == {
            "enabled": False, "warm_dispatches": 0,
            "cold_dispatches": 0, "warm_fraction": 0.0,
        }

    def test_steady_state_counts_warm_dispatches(self):
        report, reg, _ = campaign(
            config=make_config(steady_state=True),
            traffic=make_traffic(coherence=0.8, duration=1.0),
        )
        assert report.steady_state
        assert report.warm_dispatches > 0
        assert report.cold_dispatches > 0
        total = report.warm_dispatches + report.cold_dispatches
        assert report.warm_fraction == report.warm_dispatches / total
        s = reg.scalars()
        assert s["serve.mapcache{result=warm}"] == report.warm_dispatches
        assert s["serve.mapcache{result=cold}"] == report.cold_dispatches

    def test_incoherent_stream_stays_cold(self):
        # every request is a fresh scene: first sight of each frame on
        # each device is cold, and no (model, scene) pair repeats
        report, _, _ = campaign(config=make_config(steady_state=True))
        assert report.warm_dispatches == 0
        assert report.cold_dispatches > 0

    def test_steady_state_deterministic(self):
        runs = [
            campaign(
                config=make_config(steady_state=True),
                traffic=make_traffic(coherence=0.8),
            )[0].to_json()
            for _ in range(2)
        ]
        assert json.dumps(runs[0]) == json.dumps(runs[1])

    def test_warm_dispatch_is_not_slower(self):
        """With synthetic latency overrides warm == cold pricing, so the
        steady-state campaign must not change outcomes — only count."""
        base, _, _ = campaign(traffic=make_traffic(coherence=0.8))
        steady, _, _ = campaign(
            config=make_config(steady_state=True),
            traffic=make_traffic(coherence=0.8),
        )
        assert steady.total == base.total
        assert steady.outcomes == base.outcomes


# -- spare-pool replacement of DEAD devices ----------------------------------


def store_campaign(tmp, specs=(), spares=1, seed=7, store=True,
                   coherence=0.9, recorder=None):
    """A steady-state campaign with a sticky crash that kills one slot."""
    config = make_config(
        max_probes=2,
        steady_state=True,
        spares=spares,
        store_dir=str(tmp) if store else None,
    )
    traffic = make_traffic(coherence=coherence, seed=seed)
    injector = FaultInjector(seed=seed, specs=list(specs)) if specs else None
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config, traffic, injector=injector, recorder=recorder,
        )
    return report, reg


STICKY = [FaultSpec(kind="device_crash", site="RTX 2080Ti #0", count=-1)]


class TestSpareReplacement:
    def test_dead_slot_replaced_and_spare_serves(self, tmp_path):
        from repro.obs.timeline import TimelineRecorder, validate_journal

        rec = TimelineRecorder()
        report, reg = store_campaign(
            tmp_path / "store", specs=STICKY, recorder=rec
        )
        assert report.all_terminal
        assert report.fleet["RTX 2080Ti #0"]["state"] == DEAD
        assert len(report.replacements) == 1
        record = report.replacements[0]
        assert record["slot"] == "RTX 2080Ti #0"
        assert record["device"] == "spare1"
        assert record["warm_start"] is True
        assert record["inherited_frames"] > 0
        # the spare took real traffic
        assert report.utilization["spare1"]["completed"] > 0
        assert report.fleet["spare1"]["state"] == HEALTHY
        # and the whole causal story validates: dead -> replaced ->
        # warm-started, in order, exactly once
        assert validate_journal(rec.header(), rec.events) == []
        kinds = [e["kind"] for e in rec.events]
        assert kinds.count("device_dead") == 1
        assert kinds.count("device_replaced") == 1
        assert kinds.count("store_warmstart") == 1
        scal = reg.scalars()
        assert scal["serve.replacements{device=RTX 2080Ti #0}"] == 1.0
        assert scal["persist.warmstarts"] == 1.0

    def test_no_spares_leaves_slot_dead(self, tmp_path):
        report, _ = store_campaign(
            tmp_path / "store", specs=STICKY, spares=0
        )
        assert report.fleet["RTX 2080Ti #0"]["state"] == DEAD
        assert report.replacements == []
        assert "spare1" not in report.fleet

    def test_replacement_without_store_is_cold(self, tmp_path):
        report, _ = store_campaign(
            tmp_path / "unused", specs=STICKY, store=False
        )
        assert len(report.replacements) == 1
        record = report.replacements[0]
        assert record["warm_start"] is False
        assert record["inherited_frames"] == 0

    def test_spares_never_needed_stay_armed(self, tmp_path):
        report, _ = store_campaign(tmp_path / "store", specs=())
        assert report.replacements == []
        assert report.spares == 1
        assert "spare1" not in report.fleet

    def test_report_json_carries_replacements(self, tmp_path):
        report, _ = store_campaign(tmp_path / "store", specs=STICKY)
        blob = json.loads(json.dumps(report.to_json()))
        rep = blob["replacements"]
        assert rep["spares"] == 1 and rep["store"] is True
        assert rep["count"] == 1
        assert rep["records"][0]["device"] == "spare1"
        assert rep["served"] > 0
        assert rep["p99"] >= rep["p50"] > 0
        text = format_serve_report(report, "campaign")
        [line] = [l for l in text.splitlines() if l.startswith("replacement:")]
        assert line.count("(warm-started") == 1
        assert f"p99 {rep['p99'] * 1e3:.2f} ms" in line

    def test_second_campaign_warm_starts_whole_fleet(self, tmp_path):
        from repro.obs.timeline import TimelineRecorder

        store = tmp_path / "store"
        first, _ = store_campaign(store, specs=())
        rec = TimelineRecorder()
        second, reg = store_campaign(store, specs=(), recorder=rec)
        warmstarts = [
            e for e in rec.events if e["kind"] == "store_warmstart"
        ]
        # every initial worker primed itself from the shared store
        assert len(warmstarts) == 3
        assert all(e["attrs"]["frames"] > 0 for e in warmstarts)
        # and the primed fleet serves warmer than the cold first run
        assert second.warm_fraction > first.warm_fraction

    def test_same_seed_store_campaigns_bit_identical(self, tmp_path):
        a, _ = store_campaign(tmp_path / "a", specs=STICKY, seed=7)
        b, _ = store_campaign(tmp_path / "b", specs=STICKY, seed=7)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )
        # the two stores themselves are byte-identical artifacts
        ma = (tmp_path / "a" / "MANIFEST.jsonl").read_bytes()
        mb = (tmp_path / "b" / "MANIFEST.jsonl").read_bytes()
        assert ma == mb

    def test_spares_validated(self):
        with pytest.raises(ValueError):
            make_config(spares=-1)
