"""Tests for failure domains and the metastable-failure defense.

Covers :mod:`repro.robust.domains` (topology, storm knobs, the retry
token bucket), the domain breakers in :mod:`repro.serve.health`, the
device table and domain rows folded from the journal, the correlated
fault windows in :mod:`repro.robust.faults`, and the serve
loop's domain-aware placement + storm defense end to end — including
the same-seed bit-exactness the whole mechanism is built on.
"""

import json

import pytest

from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import TimelineRecorder, validate_journal
from repro.robust.domains import DomainTopology, RetryBudget, StormConfig
from repro.robust.errors import ConfigError
from repro.robust.faults import (
    DOMAIN_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    domain_degrade_factor,
    draw_domain_windows,
    inject_faults,
)
from repro.serve import (
    DEAD,
    HEALTHY,
    PROBING,
    QUARANTINED,
    FleetHealth,
    HedgePolicy,
    RetryPolicy,
    ServeConfig,
    TrafficConfig,
    format_serve_report,
    run_serve_campaign,
)
from repro.serve.report import fold_journal

LAT = {"m": 0.004}

#: four devices on two racks — the smallest fleet where a correlated
#: outage leaves a survivor domain to fail over to
RACKS = ("rack0", "rack0", "rack1", "rack1")


def make_config(**kw):
    defaults = dict(
        devices=(RTX_2080TI, RTX_2080TI, RTX_3090, RTX_3090),
        domains=RACKS,
        latency_overrides=LAT,
        seed=7,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def make_traffic(**kw):
    defaults = dict(rate=300.0, duration=0.4, models=("m",), seed=7)
    defaults.update(kw)
    return TrafficConfig(**defaults)


def campaign(config=None, traffic=None, specs=(), seed=7, recorder=None):
    injector = FaultInjector(seed=seed, specs=list(specs)) if specs else None
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config or make_config(), traffic or make_traffic(),
            injector=injector, recorder=recorder,
        )
    return report, reg


OUTAGE = [FaultSpec(kind="domain_outage", count=1)]

#: eight devices on three racks, rack0 holding half the fleet: the
#: storm ablation's fleet (benchmarks/test_ablation_storm.py) and the
#: ``storm`` CI campaign's
STORM_DEVICES = (RTX_2080TI,) * 4 + (RTX_3090, RTX_3090, RTX_2080TI,
                                     RTX_2080TI)
STORM_RACKS = ("rack0",) * 4 + ("rack1", "rack1", "rack2", "rack2")


# -- DomainTopology -----------------------------------------------------------


class TestDomainTopology:
    def test_default_is_trivial_singletons(self):
        topo = DomainTopology(["a", "b", "c"])
        assert topo.trivial
        assert topo.domain_of("b") == "b"
        assert topo.names == ["a", "b", "c"]

    def test_explicit_assignment(self):
        topo = DomainTopology(["a", "b", "c"], ["r0", "r0", "r1"])
        assert not topo.trivial
        assert topo.members("r0") == ["a", "b"]
        assert topo.names == ["r0", "r1"]  # first-appearance order
        assert topo.to_json() == {"a": "r0", "b": "r0", "c": "r1"}

    def test_misaligned_domains_rejected(self):
        with pytest.raises(ConfigError):
            DomainTopology(["a", "b"], ["r0"])

    def test_empty_domain_label_rejected(self):
        with pytest.raises(ConfigError):
            DomainTopology(["a", "b"], ["r0", ""])

    def test_duplicate_device_rejected(self):
        topo = DomainTopology(["a"], ["r0"])
        with pytest.raises(ConfigError):
            topo.assign("a", "r1")

    def test_spare_joins_mid_campaign(self):
        topo = DomainTopology(["a", "b"], ["r0", "r0"])
        topo.assign("spare1", "r0")
        assert topo.members("r0") == ["a", "b", "spare1"]


# -- StormConfig / RetryBudget ------------------------------------------------


class TestStormConfig:
    def test_defaults_valid(self):
        cfg = StormConfig()
        assert cfg.retry_budget == 8.0 and cfg.deadline_aware

    @pytest.mark.parametrize("kw", [
        dict(retry_budget=-1.0),
        dict(retry_refill=1.5),
        dict(retry_refill=-0.1),
        dict(retry_budget=8.0, retry_cap=4.0),
    ])
    def test_invalid_knobs_rejected(self, kw):
        with pytest.raises(ConfigError):
            StormConfig(**kw)


class TestRetryBudget:
    def test_take_spends_whole_tokens(self):
        b = RetryBudget(StormConfig(retry_budget=2.0))
        assert b.take() and b.take()
        assert not b.take()
        assert b.tokens == 0.0  # a denial spends nothing

    def test_credit_refills_fractionally_and_caps(self):
        b = RetryBudget(StormConfig(
            retry_budget=0.0, retry_refill=0.5, retry_cap=1.0
        ))
        assert not b.take()
        b.credit()
        assert not b.take()  # 0.5 < 1 whole token
        b.credit()
        assert b.take()
        for _ in range(10):
            b.credit()
        assert b.tokens <= 1.0  # capped

    def test_long_run_ratio_bounded_by_refill(self):
        b = RetryBudget(StormConfig(retry_budget=0.0, retry_refill=0.1))
        granted = 0
        for _ in range(1000):
            b.credit()
            if b.take():
                granted += 1
        # bounded by refill x successes (fp accumulation may round a
        # grant or two down, never up)
        assert 95 <= granted <= 100


# -- typed config validation (satellite 1) ------------------------------------


class TestConfigValidation:
    def test_config_error_is_value_error(self):
        # callers' existing ``except ValueError`` handling keeps working
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("kw", [
        dict(spares=-1),
        dict(queue_capacity=0),
        dict(deadline_factor=0.0),
        dict(labels=("a", "a", "b", "b")),               # duplicate labels
        dict(domains=("rack0", "rack1")),                # misaligned
        dict(domain_threshold=0.0),
        dict(domain_threshold=1.5),
        dict(domain_window=0.0),
    ])
    def test_serve_config_rejects(self, kw):
        with pytest.raises(ConfigError):
            make_config(**kw)

    @pytest.mark.parametrize("kw", [
        dict(max_retries=-1),
        dict(backoff_base=0.0),
        dict(backoff_mult=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
    ])
    def test_retry_policy_rejects(self, kw):
        with pytest.raises(ConfigError):
            RetryPolicy(**kw)

    @pytest.mark.parametrize("q", [0.0, -0.5, 150.0])
    def test_hedge_quantile_range(self, q):
        # the quantile is a percentage: (0, 100]
        with pytest.raises(ConfigError):
            HedgePolicy(quantile=q)


# -- correlated fault windows -------------------------------------------------


class TestDomainWindows:
    def test_no_injector_draws_nothing(self):
        assert draw_domain_windows(["r0", "r1"], horizon=1.0) == []

    def test_armed_spec_fires_one_window(self):
        inj = FaultInjector(seed=3, specs=OUTAGE)
        with use_registry(MetricsRegistry()), inject_faults(inj):
            wins = draw_domain_windows(["r0", "r1"], horizon=1.0)
        assert len(wins) == 1
        (w,) = wins
        assert w["kind"] == "domain_outage" and w["domain"] == "r0"
        assert 0.15 <= w["start"] < 0.45
        assert w["start"] < w["end"] <= w["start"] + 0.8

    def test_sticky_spec_hits_every_domain(self):
        inj = FaultInjector(
            seed=3,
            specs=[FaultSpec(kind="domain_degrade", count=-1)],
        )
        with use_registry(MetricsRegistry()), inject_faults(inj):
            wins = draw_domain_windows(["r0", "r1"], horizon=1.0)
        assert [w["domain"] for w in wins] == ["r0", "r1"]

    def test_windows_are_seed_deterministic(self):
        def draw():
            inj = FaultInjector(seed=11, specs=[
                FaultSpec(kind=k, count=-1) for k in DOMAIN_FAULT_KINDS
            ])
            with use_registry(MetricsRegistry()), inject_faults(inj):
                return draw_domain_windows(["r0", "r1"], horizon=2.0)

        assert draw() == draw()

    def test_degrade_factor_scales_with_severity(self):
        assert domain_degrade_factor(0.0) == 1.0
        assert domain_degrade_factor(0.05) == pytest.approx(2.0)
        assert domain_degrade_factor(0.1) > domain_degrade_factor(0.05)


# -- domain breakers in FleetHealth -------------------------------------------


def rack_health(**kw):
    labels = ["a0", "a1", "b0", "b1"]
    topo = DomainTopology(labels, ["A", "A", "B", "B"])
    # 0.75 on 2-member domains: both members must fail (the default
    # 0.5 would open on the first failure)
    defaults = dict(
        threshold=2, topology=topo, domain_window=1.0,
        domain_threshold=0.75,
    )
    defaults.update(kw)
    return FleetHealth(labels, **defaults)


class TestDomainBreakers:
    def test_opens_at_threshold_and_mass_quarantines(self):
        h = rack_health()
        assert h.record_domain_failure("a0", 0.1) is None
        opened = h.record_domain_failure("a1", 0.2)
        assert opened == ("A", ["a0", "a1"])  # both still HEALTHY -> swept
        assert h["a0"].state == QUARANTINED
        assert h["a1"].state == QUARANTINED
        assert h["b0"].state == HEALTHY
        assert h.open_domains == {"A"} and h.domain_open("a0")
        assert not h.domain_open("b0")
        # an open breaker does not open again
        assert h.record_domain_failure("a0", 0.3) is None

    def test_stale_failures_pruned_outside_window(self):
        with use_registry(MetricsRegistry()):
            h = rack_health(domain_window=0.5)
            assert h.record_domain_failure("a0", 0.0) is None
            # a0 recovered in the meantime; its stamp is stale
            assert h.record_domain_failure("a1", 2.0) is None
        assert not h.open_domains

    def test_already_failed_members_count(self):
        with use_registry(MetricsRegistry()):
            h = rack_health()
            h["a0"].state = QUARANTINED  # out of service pre-window
            opened = h.record_domain_failure("a1", 0.1)
        assert opened == ("A", ["a1"])  # only a1 left to sweep

    def test_readmit_closes_and_accumulates_downtime(self):
        h = rack_health()
        h.record_domain_failure("a0", 0.1)
        h.record_domain_failure("a1", 0.2)
        assert h.maybe_close_domain("a0") == "A"
        assert h.maybe_close_domain("a0") is None  # already closed
        assert not h.open_domains
        # the same outage, journaled, folds to its down time
        summary = fold_rack([
            OUTAGE_A,
            ("domain_recovered", 0.7, dict(domain="A")),
        ], end_time=1.0).domain_summary
        assert summary["A"]["outages"] == 1
        assert summary["A"]["mass_quarantined"] == 2
        assert summary["A"]["down_time"] == pytest.approx(0.5)
        assert summary["A"]["availability"] == pytest.approx(0.5)
        assert summary["B"]["availability"] == 1.0

    def test_open_breaker_closed_out_at_horizon(self):
        s = fold_rack([OUTAGE_A], end_time=1.2).domain_summary
        assert s["A"]["down_time"] == pytest.approx(1.0)
        assert s["A"]["availability"] == pytest.approx(1 - 1.0 / 1.2)

    def test_forgiven_probe_does_not_count_toward_death(self):
        with use_registry(MetricsRegistry()):
            h = rack_health(max_probes=2)
            h.record_domain_failure("a0", 0.1)
            h.record_domain_failure("a1", 0.2)
            for _ in range(5):  # would be DEAD after 2 without forgive
                h.begin_probe("a0")
                assert not h.probe_result("a0", False, forgive=True)
            assert h["a0"].state == QUARANTINED
            h.begin_probe("a0")
            h.probe_result("a0", False)
            h.begin_probe("a0")
            h.probe_result("a0", False)
        assert h["a0"].state == DEAD

    def test_trivial_topology_has_no_domain_state(self):
        with use_registry(MetricsRegistry()):
            h = FleetHealth(
                ["a", "b"], topology=DomainTopology(["a", "b"])
            )
            assert h.record_domain_failure("a", 0.1) is None
            assert h.record_domain_failure("b", 0.1) is None
            assert not h.open_domains
        # a trivial topology journals no domains, and folds to none
        led = fold_journal(
            dict(devices=["a", "b"], domains=None, domain_defense=True),
            [], end_time=1.0,
        )
        assert led.domains == {} and led.domain_summary == {}

    def test_spare_makes_singleton_domain_correlated(self):
        # a spare joining a singleton domain arms its breaker: the
        # eligibility check is live, not fixed at construction
        labels = ["a0", "a1", "s0"]
        topo = DomainTopology(labels, ["A", "A", "S"])
        h = FleetHealth(
            labels, threshold=2, topology=topo, domain_window=1.0,
            domain_threshold=0.75,
        )
        assert h.record_domain_failure("s0", 0.1) is None  # singleton
        topo.assign("spare1", "S")
        h.add_device("spare1")
        assert h.record_domain_failure("s0", 0.2) is None
        assert h.record_domain_failure("spare1", 0.3) == (
            "S", ["s0", "spare1"]
        )
        assert h.open_domains == {"S"}


# -- the device table and domain rows, folded from hand-built journals -------

RACK_HEADER = dict(
    devices=["a0", "a1", "b0", "b1"],
    domains={"a0": "A", "a1": "A", "b0": "B", "b1": "B"},
    domain_defense=True,
)

#: rack A's breaker opening at t=0.2 and sweeping both members
OUTAGE_A = ("domain_outage", 0.2, dict(domain="A", swept=2))


def fold_rack(events, end_time, header=RACK_HEADER):
    """Fold ``(kind, t, fields)`` events journaled on the rack fleet."""
    rec = TimelineRecorder(meta=header)
    for kind, t, kw in events:
        rec.emit(kind, t, **kw)
    return fold_journal(rec.header(), rec.events, end_time)


def probe(t, device, attempt, outcome):
    """A health probe's dispatch at ``t`` and its finish 0.1 s later."""
    return [
        ("dispatch", t, dict(attempt=attempt, device=device, kind="probe")),
        ("attempt_finish", t + 0.1,
         dict(attempt=attempt, device=device, outcome=outcome)),
    ]


class TestFleetFold:
    def test_forgiven_probe_left_out_of_probes(self):
        led = fold_rack([
            ("quarantine", 0.2, dict(device="a0")),
            OUTAGE_A,
            ("quarantine", 0.2, dict(device="a1")),
            *probe(0.3, "a0", 0, "crash"),  # domain out: forgiven
            ("domain_recovered", 0.5, dict(domain="A")),
            *probe(0.6, "a1", 1, "crash"),  # domain back: counted
            *probe(0.8, "a1", 2, "ok"),
            ("readmit", 0.9, dict(device="a1")),
            *probe(1.0, "a0", 3, "ok"),
        ], end_time=1.2)
        assert led.fleet["a0"] == dict(
            state=PROBING, crashes=0, probes=1, quarantines=1
        )
        assert led.fleet["a1"] == dict(
            state=HEALTHY, crashes=0, probes=2, quarantines=1
        )
        assert led.fleet["b0"]["state"] == HEALTHY
        assert led.utilization["a0"]["busy_time"] == pytest.approx(0.2)
        assert led.utilization["a1"]["busy_time"] == pytest.approx(0.2)
        assert led.domain_summary["A"]["down_time"] == pytest.approx(0.3)

    def test_crashes_counted_once_per_attempt(self):
        slice_ = dict(kind="primary", model="m", scene=0)
        led = fold_rack([
            ("arrival", 0.0, dict(request=0, model="m", scene=0,
                                  deadline=1.0, trace="t0")),
            ("arrival", 0.0, dict(request=1, model="m", scene=0,
                                  deadline=1.0, trace="t1")),
            ("batch_dispatch", 0.1, dict(request=0, attempt=0, device="b0",
                                         batch=0, size=2, **slice_)),
            ("batch_dispatch", 0.1, dict(request=1, attempt=0, device="b0",
                                         batch=0, size=2, **slice_)),
            ("attempt_finish", 0.3, dict(request=0, attempt=0, device="b0",
                                         outcome="crash")),
            ("attempt_finish", 0.3, dict(request=1, attempt=0, device="b0",
                                         outcome="crash")),
            ("quarantine", 0.3, dict(device="b0")),
            *probe(0.4, "b0", 1, "crash"),
            *probe(0.6, "b0", 2, "crash"),
            ("device_dead", 0.7, dict(device="b0")),
        ], end_time=1.0)
        assert led.fleet["b0"] == dict(
            state=DEAD, crashes=1, probes=2, quarantines=1
        )
        assert led.utilization["b0"] == dict(
            busy_time=pytest.approx(0.4), completed=0
        )

    def test_spare_row_starts_fresh(self):
        led = fold_rack([
            ("quarantine", 0.1, dict(device="a0")),
            *probe(0.2, "a0", 0, "crash"),
            ("device_dead", 0.3, dict(device="a0")),
            ("device_replaced", 0.3, dict(device="spare1", slot="a0",
                                          spec="RTX 3090", domain="B")),
        ], end_time=1.0)
        assert list(led.fleet) == ["a0", "a1", "b0", "b1", "spare1"]
        assert led.fleet["a0"]["state"] == DEAD
        assert led.fleet["spare1"] == dict(
            state=HEALTHY, crashes=0, probes=0, quarantines=0
        )
        assert led.utilization["spare1"] == dict(busy_time=0.0, completed=0)
        assert led.domains["spare1"] == "B"
        assert led.domain_summary["B"]["members"] == 3

    def test_no_breakers_without_the_defense(self):
        led = fold_rack([], end_time=1.0, header=dict(
            RACK_HEADER, domain_defense=False
        ))
        assert led.domains == RACK_HEADER["domains"]
        assert led.domain_summary == {}


# -- domain-aware campaigns ---------------------------------------------------


class TestDomainCampaign:
    def test_outage_journaled_and_validates(self):
        rec = TimelineRecorder()
        report, reg = campaign(specs=OUTAGE, recorder=rec)
        assert report.all_terminal
        assert validate_journal(rec.header(), rec.events) == []
        kinds = [e["kind"] for e in rec.events]
        assert kinds.count("domain_outage") == 1
        assert kinds.count("domain_recovered") == 1
        outage = next(e for e in rec.events if e["kind"] == "domain_outage")
        assert outage["attrs"]["domain"] == "rack0"
        assert outage["attrs"]["swept"] >= 1
        # the journal header records the topology
        assert rec.header()["domains"]["RTX 2080Ti #0"] == "rack0"

    def test_outage_dents_availability(self):
        report, _ = campaign(specs=OUTAGE)
        summary = report.domain_summary
        assert set(summary) == {"rack0", "rack1"}
        assert summary["rack0"]["outages"] == 1
        assert summary["rack0"]["mass_quarantined"] == 2  # the whole rack
        assert summary["rack0"]["availability"] < 1.0
        assert summary["rack1"]["availability"] == 1.0
        # the fleet as a whole rode through it
        assert report.slo_attainment > 0.9

    def test_degrade_inflates_latency(self):
        base, _ = campaign()
        slow, _ = campaign(specs=[
            FaultSpec(kind="domain_degrade", count=-1, severity=0.1)
        ])
        assert slow.all_terminal
        assert slow.p99 > base.p99

    def test_retries_prefer_another_domain(self):
        # every retry dispatch must land outside the failed attempt's
        # domain while a healthy cross-domain device exists
        rec = TimelineRecorder()
        report, _ = campaign(specs=OUTAGE, recorder=rec)
        topo = rec.header()["domains"]
        by_attempt = {
            e["attempt"]: e for e in rec.events if e["kind"] == "dispatch"
        }
        retries = [
            e for e in rec.events
            if e["kind"] == "dispatch" and e["attrs"]["kind"] == "retry"
        ]
        assert retries, "outage campaign produced no retries"
        for e in retries:
            parent = by_attempt[e["attrs"]["parent"]]
            assert topo[e["device"]] != topo[parent["device"]]

    def test_hedges_land_cross_domain_or_skip(self):
        rec = TimelineRecorder()
        campaign(specs=OUTAGE, recorder=rec)
        topo = rec.header()["domains"]
        by_attempt = {
            e["attempt"]: e for e in rec.events if e["kind"] == "dispatch"
        }
        for e in rec.events:
            if e["kind"] == "dispatch" and e["attrs"]["kind"] == "hedge":
                parent = by_attempt[e["attrs"]["parent"]]
                assert topo[e["device"]] != topo[parent["device"]]
            if e["kind"] == "hedge_skip":
                assert e["attrs"]["reason"] in (
                    "no_device", "no_cross_domain", "domain_breaker"
                )

    def test_trivial_topology_matches_no_topology(self):
        # domains=None and explicit singletons are the same campaign
        flat, _ = campaign(make_config(domains=None))
        singles, _ = campaign(make_config(
            domains=("d0", "d1", "d2", "d3")
        ))
        assert flat.to_json()["requests"] == singles.to_json()["requests"]
        assert singles.domains == {}  # trivial -> dormant, unreported

    def test_same_seed_bit_exact_reports_and_journals(self):
        def run():
            rec = TimelineRecorder()
            report, _ = campaign(
                make_config(storm=StormConfig()),
                specs=OUTAGE, recorder=rec,
            )
            return (
                json.dumps(report.to_json(), sort_keys=True),
                rec.to_jsonl(),
            )

        assert run() == run()


# -- the metastability defense ------------------------------------------------


class TestStormDefense:
    def test_hedges_suppressed_while_breaker_open(self):
        rec = TimelineRecorder()
        report, reg = campaign(
            make_config(storm=StormConfig()), specs=OUTAGE, recorder=rec,
        )
        assert report.storm
        assert report.hedges_suppressed >= 1
        skips = [
            e["attrs"]["reason"]
            for e in rec.events if e["kind"] == "hedge_skip"
        ]
        assert "domain_breaker" in skips
        scal = reg.scalars()
        assert scal["serve.hedges{outcome=suppressed}"] == float(
            report.hedges_suppressed
        )

    def test_broke_budget_denies_retries(self):
        rec = TimelineRecorder()
        report, reg = campaign(
            make_config(
                storm=StormConfig(retry_budget=0.0, retry_refill=0.0),
                deadline_factor=50.0,  # slack is never the binding limit
            ),
            specs=OUTAGE, recorder=rec,
        )
        assert report.all_terminal
        assert report.retry_denied["budget"] >= 1
        denied = [e for e in rec.events if e["kind"] == "retry_denied"]
        assert denied and all(
            e["attrs"]["reason"] == "budget" for e in denied
        )
        assert validate_journal(rec.header(), rec.events) == []
        scal = reg.scalars()
        assert scal["serve.retry_denied{reason=budget}"] == float(
            report.retry_denied["budget"]
        )

    def test_deadline_aware_admission_fails_fast(self):
        report, _ = campaign(
            make_config(
                storm=StormConfig(),
                deadline_factor=1.5,  # slack fits the backoff but not
                # backoff + the best healthy device's service time
                hedge=HedgePolicy(enabled=False),
            ),
            specs=OUTAGE,
        )
        assert report.all_terminal
        assert report.retry_denied["deadline"] >= 1

    def test_amplification_reported(self):
        report, _ = campaign(
            make_config(storm=StormConfig()), specs=OUTAGE,
        )
        assert report.attempts >= report.total
        assert report.amplification == pytest.approx(
            report.attempts / report.total
        )
        blob = report.to_json()["storm"]
        assert blob["enabled"] is True
        assert blob["amplification"] == report.amplification
        assert blob["retry_denied"] == report.retry_denied

    def test_defended_fleet_dominates_undefended_under_rack_outage(self):
        """A patient device breaker (threshold 10) leaves the flat
        per-device machinery slow to react to a rack0 outage; the
        defended fleet completes more with less amplification, and
        only the undefended one probes the outage's victims to death."""

        def run(defended):
            config = make_config(
                devices=STORM_DEVICES,
                domains=STORM_RACKS,
                retry=RetryPolicy(max_retries=2),
                breaker_threshold=10,
                domain_defense=defended,
                storm=StormConfig() if defended else None,
            )
            report, _ = campaign(
                config, make_traffic(rate=800.0, duration=1.2),
                specs=[FaultSpec(kind="domain_outage", count=1,
                                 severity=0.12)],
            )
            return report

        defended, undefended = run(True), run(False)
        assert defended.all_terminal and undefended.all_terminal
        assert defended.count("completed") > undefended.count("completed")
        assert defended.amplification < undefended.amplification
        rack0 = defended.domain_summary["rack0"]
        assert rack0["outages"] == 1
        assert rack0["mass_quarantined"] == 4
        assert rack0["availability"] < 1.0

        def dead(report):
            return sum(d["state"] == DEAD for d in report.fleet.values())

        assert dead(defended) == 0
        assert dead(undefended) > 0
        assert defended.storm and defended.hedges_suppressed > 0
        assert not undefended.storm
        assert undefended.domain_summary == {}

    def test_defense_off_by_default(self):
        report, _ = campaign(specs=OUTAGE)
        assert not report.storm
        assert report.retries_denied == 0
        assert report.to_json()["storm"]["enabled"] is False

    def test_domain_defense_off_keeps_fault_surface(self):
        # the undefended ablation arm: correlated windows still fire
        # over the topology, but no domain breaker ever opens and no
        # mass quarantine sweeps — only flat per-device machinery
        rec = TimelineRecorder()
        report, reg = campaign(
            make_config(domain_defense=False), specs=OUTAGE, recorder=rec,
        )
        assert report.all_terminal
        assert report.domain_summary == {}  # no domain state tracked
        kinds = {e["kind"] for e in rec.events}
        assert "domain_outage" not in kinds
        # the fault still bit: devices crashed and were quarantined
        # one discovery at a time
        scal = reg.scalars()
        assert "serve.domain_outages{domain=rack0}" not in scal
        assert any(k.startswith("serve.quarantines{") for k in scal)
        assert validate_journal(rec.header(), rec.events) == []

    def test_text_view_prints_no_breaker_for_undefended_domains(self):
        # the outage fires and crashes rack members, but an undefended
        # fleet tracks no domain outages or availability to print
        report, _ = campaign(
            make_config(domain_defense=False), specs=OUTAGE,
        )
        assert any(f["crashes"] for f in report.fleet.values())
        lines = format_serve_report(report, "campaign").splitlines()
        assert [line for line in lines if line.startswith("domain ")] == [
            "domain rack0: 2 devices, no breaker (domain defense off)",
            "domain rack1: 2 devices, no breaker (domain defense off)",
        ]

    def test_text_view_prints_no_breaker_for_defended_singletons(self):
        report, _ = campaign(
            make_config(domains=("rack0", "rack0", "rack0", "solo")),
            specs=OUTAGE,
        )
        lines = format_serve_report(report, "campaign").splitlines()
        domain_lines = [line for line in lines if line.startswith("domain ")]
        assert domain_lines[0].startswith("domain rack0: 3 devices, ")
        assert "availability" in domain_lines[0]
        assert domain_lines[1] == (
            "domain solo: 1 devices, no breaker (singleton at start)"
        )

    def test_spare_joining_singleton_domain_is_watched(self, tmp_path):
        # a sticky crash kills a rack0 member; its spare joins the
        # singleton domain ``solo``, which then holds two devices and
        # has a breaker of its own
        config = make_config(
            devices=(RTX_2080TI, RTX_2080TI, RTX_3090),
            domains=("rack0", "rack0", "solo"),
            max_probes=2, spares=1,
        )
        sticky = [FaultSpec(
            kind="device_crash", site="RTX 2080Ti #0", count=-1
        )]
        report, _ = campaign(config, make_traffic(duration=0.5), specs=sticky)
        assert report.domains["spare1"] == "solo"
        assert report.domain_summary["solo"]["members"] == 2
        lines = format_serve_report(report, "campaign").splitlines()
        assert any(
            line.startswith("domain solo: 2 devices, ")
            and "availability" in line
            for line in lines
        )


# -- spare placement under a topology -----------------------------------------


class TestSpareDomainPlacement:
    def test_spare_joins_least_impacted_domain(self, tmp_path):
        rec = TimelineRecorder()
        config = make_config(
            max_probes=2, steady_state=True, spares=1,
            store_dir=str(tmp_path / "store"),
        )
        sticky = [FaultSpec(
            kind="device_crash", site="RTX 2080Ti #0", count=-1
        )]
        report, _ = campaign(
            config, make_traffic(coherence=0.9), specs=sticky, recorder=rec,
        )
        assert report.fleet["RTX 2080Ti #0"]["state"] == DEAD
        (record,) = report.replacements
        # rack0 lost a member; the spare backfills the weakened domain
        # (least unavailable members after the death: still rack0's
        # replacement slot) — and the event journal records the choice
        replaced = next(
            e for e in rec.events if e["kind"] == "device_replaced"
        )
        assert replaced["attrs"]["domain"] == record["domain"]
        assert record["domain"] in ("rack0", "rack1")
        assert validate_journal(rec.header(), rec.events) == []


# -- validator negative cases -------------------------------------------------


def _journal(events):
    rec = TimelineRecorder(meta={"seed": 7})
    for kind, t, kw in events:
        rec.emit(kind, t, **kw)
    return rec


class TestValidatorDomainInvariants:
    def test_double_open_rejected(self):
        rec = _journal([
            ("domain_outage", 0.1, dict(domain="r0")),
            ("domain_outage", 0.2, dict(domain="r0")),
        ])
        problems = validate_journal(rec.header(), rec.events)
        assert any("r0" in p for p in problems)

    def test_recovery_without_outage_rejected(self):
        rec = _journal([("domain_recovered", 0.1, dict(domain="r0"))])
        assert validate_journal(rec.header(), rec.events)

    def test_outage_requires_domain_attr(self):
        rec = _journal([("domain_outage", 0.1, {})])
        assert validate_journal(rec.header(), rec.events)

    def test_retry_denied_requires_known_reason(self):
        rec = _journal([
            ("arrival", 0.0, dict(request=0)),
            ("retry_denied", 0.1, dict(request=0, reason="vibes")),
            ("terminal", 0.2, dict(request=0, state="failed")),
        ])
        problems = validate_journal(rec.header(), rec.events)
        assert any("reason" in p for p in problems)

    def test_open_close_pairing_accepted(self):
        rec = _journal([
            ("domain_outage", 0.1, dict(domain="r0")),
            ("domain_recovered", 0.2, dict(domain="r0")),
            ("domain_outage", 0.3, dict(domain="r0")),
        ])
        assert validate_journal(rec.header(), rec.events) == []


# -- Perfetto domains track ---------------------------------------------------


class TestDomainsTrace:
    def test_domain_events_land_on_domains_track(self, tmp_path):
        from repro.profiling.trace import DOMAINS_TID, write_serve_trace

        rec = TimelineRecorder()
        campaign(
            make_config(storm=StormConfig(retry_budget=0.0,
                                          retry_refill=0.0),
                        deadline_factor=50.0),
            specs=OUTAGE, recorder=rec,
        )
        path = tmp_path / "trace.json"
        write_serve_trace(rec.header(), rec.events, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        threads = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "domains" in threads
        domain_instants = [
            e for e in events
            if e.get("tid") == DOMAINS_TID and e["ph"] == "i"
        ]
        names = {e["name"] for e in domain_instants}
        assert "domain_outage:rack0" in names
        assert "domain_recovered:rack0" in names
        assert any(n.startswith("retry_denied") for n in names)
        counters = [
            e for e in events
            if e["ph"] == "C" and e["name"] == "domains down"
        ]
        values = [e["args"]["down"] for e in counters]
        assert values[0] == 0 and max(values) >= 1 and values[-1] == 0
