"""Tests for the serve-campaign flight recorder (repro.obs.timeline),
the serve-mode Chrome trace, the windowed SLO monitor, and the
Prometheus exposition."""

import json

import pytest

from repro.obs.exposition import prometheus_name, to_prometheus
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import (
    EVENTS_SCHEMA,
    TimelineRecorder,
    load_journal,
    request_timeline,
    validate_journal,
    windowed_slo,
    worst_burn,
)
from repro.profiling.trace import (
    attempt_events,
    flow_events,
    to_serve_trace,
    write_serve_trace,
)
from repro.robust.faults import FaultInjector, FaultSpec
from repro.serve import (
    COMPLETED,
    FAILED,
    SHED,
    HedgePolicy,
    RetryPolicy,
    ServeConfig,
    TrafficConfig,
    run_serve_campaign,
)

try:  # the serve test harness defines the synthetic device tuple
    from repro.gpu.device import RTX_2080TI, RTX_3090
except ImportError:  # pragma: no cover
    RTX_2080TI = RTX_3090 = None

#: synthetic base latency; no engine evaluation in these tests
LAT = {"m": 0.004}


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


def recorded_campaign(config=None, traffic=None, specs=(), seed=7):
    """Run a campaign with the flight recorder attached."""
    injector = FaultInjector(seed=seed, specs=list(specs)) if specs else None
    recorder = TimelineRecorder()
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config or make_config(), traffic or make_traffic(),
            injector=injector, recorder=recorder,
        )
    return report, recorder, reg


# -- recorder mechanics ----------------------------------------------------


class TestRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder().emit("teleport", 0.0)

    def test_events_carry_context(self):
        rec = TimelineRecorder(meta={"seed": 3})
        e = rec.emit("arrival", 0.5, request=1, queue_depth=2, slack=0.25,
                     model="m")
        assert e["seq"] == 0 and e["t"] == 0.5
        assert e["queue_depth"] == 2 and e["slack"] == 0.25
        assert e["attrs"] == {"model": "m"}
        assert rec.header() == {"schema": EVENTS_SCHEMA, "seed": 3}

    def test_kind_named_attr_allowed(self):
        # dispatch events carry attrs["kind"]; the positional-only
        # signature keeps it out of the way of the event kind itself
        e = TimelineRecorder().emit("dispatch", 0.0, request=0, attempt=0,
                                    device="d", kind="retry")
        assert e["kind"] == "dispatch" and e["attrs"]["kind"] == "retry"

    def test_jsonl_roundtrip(self, tmp_path):
        rec = TimelineRecorder(meta={"seed": 1})
        rec.emit("arrival", 0.0, request=0)
        rec.emit("terminal", 0.1, request=0, state="shed")
        path = tmp_path / "ev.jsonl"
        rec.write(str(path))
        header, events = load_journal(str(path))
        assert header["schema"] == EVENTS_SCHEMA and header["seed"] == 1
        assert events == rec.events

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(ValueError):
            load_journal(str(path))

    def test_jsonl_is_deterministic(self):
        def build():
            rec = TimelineRecorder(meta={"seed": 1, "devices": ["a"]})
            rec.emit("arrival", 0.0, request=0, model="m")
            rec.emit("terminal", 0.2, request=0, state="completed",
                     latency=0.2)
            return rec.to_jsonl()

        assert build() == build()


# -- validator -------------------------------------------------------------


def minimal_events():
    rec = TimelineRecorder()
    rec.emit("arrival", 0.0, request=0)
    rec.emit("admit", 0.0, request=0)
    rec.emit("dequeue", 0.001, request=0)
    rec.emit("dispatch", 0.001, request=0, attempt=0, device="d",
             kind="primary")
    rec.emit("attempt_finish", 0.004, request=0, attempt=0, device="d",
             outcome="ok")
    rec.emit("terminal", 0.004, request=0, state="completed")
    return rec


class TestValidator:
    def test_minimal_lifecycle_valid(self):
        rec = minimal_events()
        assert validate_journal(rec.header(), rec.events) == []

    def test_missing_terminal_flagged(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        assert any("no terminal" in p
                   for p in validate_journal(rec.header(), rec.events))

    def test_event_after_terminal_flagged(self):
        rec = minimal_events()
        rec.emit("dequeue", 0.005, request=0)
        assert any("after its terminal" in p
                   for p in validate_journal(rec.header(), rec.events))

    def test_event_before_arrival_flagged(self):
        rec = TimelineRecorder()
        rec.emit("dequeue", 0.0, request=5)
        probs = validate_journal(rec.header(), rec.events)
        assert any("before its arrival" in p for p in probs)

    def test_time_regression_flagged(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.5, request=0)
        rec.events.append(dict(rec.events[0], seq=1, t=0.1, kind="terminal",
                               attrs={"state": "shed"}))
        assert any("precedes previous" in p
                   for p in validate_journal(rec.header(), rec.events))

    def test_unfinished_attempt_flagged(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit("dispatch", 0.0, request=0, attempt=0, device="d",
                 kind="primary")
        rec.emit("terminal", 0.1, request=0, state="failed")
        assert any("never finished" in p
                   for p in validate_journal(rec.header(), rec.events))

    def test_retry_requires_causal_parent(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit("dispatch", 0.0, request=0, attempt=1, device="d",
                 kind="retry")  # no parent at all
        probs = validate_journal(rec.header(), rec.events)
        assert any("without parent" in p for p in probs)

    def test_retry_parent_must_be_earlier_attempt(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit("dispatch", 0.0, request=0, attempt=1, device="d",
                 kind="retry", parent=99)
        probs = validate_journal(rec.header(), rec.events)
        assert any("not an earlier attempt" in p for p in probs)

    def test_finish_device_must_match_dispatch(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit("dispatch", 0.0, request=0, attempt=0, device="a",
                 kind="primary")
        rec.emit("attempt_finish", 0.1, request=0, attempt=0, device="b",
                 outcome="ok")
        rec.emit("terminal", 0.1, request=0, state="completed")
        assert any("dispatched on" in p
                   for p in validate_journal(rec.header(), rec.events))

    def test_finish_request_must_match_dispatch(self):
        """A campaign journal with one successful finish credited to a
        different live request: every other invariant still holds, so
        only the attempt's request check can catch it."""
        _, rec, _ = recorded_campaign()
        events = [dict(e) for e in rec.events]
        arrival = {}
        terminal = {}
        for e in events:
            if e["kind"] == "arrival":
                arrival[e["request"]] = e["seq"]
            elif e["kind"] == "terminal":
                terminal[e["request"]] = e["seq"]
        finish = next(
            e for e in events
            if e["kind"] == "attempt_finish"
            and e["request"] is not None
            and e["attrs"]["outcome"] == "ok"
            and any(
                r != e["request"] and arrival[r] < e["seq"] < terminal[r]
                for r in arrival
            )
        )
        owner = finish["request"]
        other = next(
            r for r in arrival
            if r != owner and arrival[r] < finish["seq"] < terminal[r]
        )
        finish["request"] = other
        assert validate_journal(rec.header(), events) == [
            f"event {finish['seq']}: attempt {finish['attempt']} finished "
            f"for request {other}, dispatched for {owner}"
        ]


#: the two journal formats an attempt can open in
FORMATS = ("dispatch", "batch_dispatch")


class AttemptJournal:
    """A two-request journal whose attempts open in a chosen format.

    ``dispatch`` journals one event per attempt; ``batch_dispatch``
    forms a fresh batch of the attempt's requests and journals one
    member slice per request.  Both requests arrive and are admitted
    first, and :meth:`problems` ends them before validating.  Each
    event lands one millisecond after the previous one.
    """

    def __init__(self) -> None:
        self.rec = TimelineRecorder()
        self.batches = 0
        self.t = 0.0
        for rid in (0, 1):
            self.rec.emit("arrival", self.t, request=rid)
            self.rec.emit("admit", self.t, request=rid)

    def open(self, fmt, attempt, requests=(0,), device="d0", **attrs):
        attrs.setdefault("kind", "primary")
        if fmt == "dispatch":
            (rid,) = requests
            self.rec.emit("dispatch", self.tick(), request=rid,
                          attempt=attempt, device=device, **attrs)
            return
        self.batch(list(requests), device)
        for rid in requests:
            self.rec.emit("batch_dispatch", self.tick(), request=rid,
                          attempt=attempt, device=device, batch=self.batches,
                          size=len(requests), **attrs)

    def batch(self, members, device="d0"):
        self.batches += 1
        self.rec.emit("batch_formed", self.tick(), request=members[0],
                      device=device, batch=self.batches, size=len(members),
                      members=members, reason="full", held=0.0)

    def tick(self):
        self.t += 0.001
        return self.t

    def finish(self, attempt, request=0, device="d0", outcome="ok"):
        self.rec.emit("attempt_finish", self.tick(), request=request,
                      attempt=attempt, device=device, outcome=outcome)

    def problems(self):
        for rid in (0, 1):
            self.rec.emit("terminal", self.tick(), request=rid,
                          state="completed")
        return validate_journal(self.rec.header(), self.rec.events)


def _valid(j, fmt):
    j.open(fmt, 0)
    j.finish(0, outcome="crash")
    j.open(fmt, 1, kind="retry", parent=0)
    j.open(fmt, 2, kind="hedge", parent=1, device="d1")
    j.finish(1)
    j.finish(2, outcome="cancelled", device="d1")
    j.open(fmt, 3, requests=(1,))
    j.finish(3, request=1)


def _undispatched_finish(j, fmt):
    j.open(fmt, 0)
    j.finish(0)
    j.finish(5)


def _finish_on_wrong_device(j, fmt):
    j.open(fmt, 0, device="d0")
    j.finish(0, device="d1")


def _finish_twice(j, fmt):
    j.open(fmt, 0)
    j.finish(0)
    j.finish(0)


def _finish_for_foreign_request(j, fmt):
    j.open(fmt, 0)
    j.finish(0, request=1)


def _never_finishes(j, fmt):
    j.open(fmt, 0)


def _retry_without_parent(j, fmt):
    j.open(fmt, 0)
    j.finish(0, outcome="crash")
    j.open(fmt, 1, kind="retry")
    j.finish(1)


def _retry_with_foreign_parent(j, fmt):
    j.open(fmt, 0, requests=(1,))
    j.finish(0, request=1)
    j.open(fmt, 1)
    j.finish(1, outcome="crash")
    j.open(fmt, 2, kind="retry", parent=0)
    j.finish(2)


def _hedge_names_itself(j, fmt):
    j.open(fmt, 0)
    j.open(fmt, 1, kind="hedge", parent=1, device="d1")
    j.finish(0)
    j.finish(1, outcome="cancelled", device="d1")


#: case -> (journal builder, format -> a substring one problem contains)
VALIDATOR_CASES = {
    "finish-undispatched": (
        _undispatched_finish,
        dict.fromkeys(FORMATS, "attempt_finish for undispatched attempt 5"),
    ),
    "finish-wrong-device": (
        _finish_on_wrong_device,
        dict.fromkeys(FORMATS, "finished on 'd1', dispatched on 'd0'"),
    ),
    "finish-twice": (
        _finish_twice,
        dict.fromkeys(FORMATS, "attempt 0 finished twice"),
    ),
    "finish-foreign-request": (
        _finish_for_foreign_request,
        {
            "dispatch": "finished for request 1, dispatched for 0",
            "batch_dispatch": "request 1 never dispatched in attempt 0",
        },
    ),
    "never-finishes": (
        _never_finishes,
        {
            "dispatch": "attempt 0 (request 0, seq 4) never finished",
            "batch_dispatch": "attempt 0 never finished for request 0",
        },
    ),
    "retry-without-parent": (
        _retry_without_parent,
        {fmt: f"retry {fmt} without parent attempt" for fmt in FORMATS},
    ),
    "retry-foreign-parent": (
        _retry_with_foreign_parent,
        dict.fromkeys(
            FORMATS, "retry parent 0 is not an earlier attempt of request 0"
        ),
    ),
    "hedge-names-itself": (
        _hedge_names_itself,
        dict.fromkeys(
            FORMATS, "hedge parent 1 is not an earlier attempt of request 0"
        ),
    ),
}


class TestAttemptValidation:
    """Every attempt check fires whichever format opened the attempt."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_valid_journal_in_either_format(self, fmt):
        j = AttemptJournal()
        _valid(j, fmt)
        assert j.problems() == []

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", list(VALIDATOR_CASES))
    def test_problem_reported(self, case, fmt):
        build, expected = VALIDATOR_CASES[case]
        j = AttemptJournal()
        build(j, fmt)
        problems = j.problems()
        assert any(expected[fmt] in p for p in problems), problems

    @pytest.mark.parametrize("second", FORMATS)
    @pytest.mark.parametrize("first", FORMATS)
    def test_attempt_id_reused(self, first, second):
        j = AttemptJournal()
        j.open(first, 0)
        j.finish(0)
        j.open(second, 0, requests=(1,))
        j.finish(0, request=1)
        problems = j.problems()
        if first == second == "batch_dispatch":
            # a second batch under a batched attempt's id
            expected = "attempt 0 slices disagree on device/batch"
        else:
            expected = "attempt 0 dispatched twice"
        assert any(expected in p for p in problems), problems

    # membership and slice agreement are batch-only: a ``dispatch`` has
    # no formed batch to be a member of and only one slice

    def test_batch_dispatch_for_non_member(self):
        j = AttemptJournal()
        j.batch([0])
        j.rec.emit("batch_dispatch", j.tick(), request=1, attempt=0,
                   device="d0", batch=1, size=1, kind="primary")
        j.finish(0, request=1)
        assert any("request 1 is not a member of batch 1" in p
                   for p in j.problems())

    def test_batch_slices_disagree_on_device(self):
        j = AttemptJournal()
        j.batch([0, 1])
        for rid, dev in ((0, "d0"), (1, "d1")):
            j.rec.emit("batch_dispatch", j.tick(), request=rid, attempt=0,
                       device=dev, batch=1, size=2, kind="primary")
            j.finish(0, request=rid, device=dev)
        assert any("attempt 0 slices disagree on device/batch" in p
                   for p in j.problems())

    def test_batch_slice_dispatched_twice(self):
        j = AttemptJournal()
        j.open("batch_dispatch", 0)
        j.rec.emit("batch_dispatch", j.tick(), request=0, attempt=0,
                   device="d0", batch=1, size=1, kind="primary")
        j.finish(0)
        assert any("request 0 dispatched twice in attempt 0" in p
                   for p in j.problems())


# -- windowed SLO monitor --------------------------------------------------


class TestWindowedSLO:
    def test_exact_windows_and_burn(self):
        samples = [
            (0.05, True, 0.010),
            (0.08, False, 0.030),   # miss in window 0
            (0.15, True, 0.020),
            (0.25, True, 0.012),    # window 2
        ]
        windows = windowed_slo(samples, 0.1, target=0.9, end=0.3)
        assert len(windows) == 3
        w0 = windows[0]
        assert (w0.total, w0.misses) == (2, 1)
        assert w0.miss_rate == pytest.approx(0.5)
        # budget is 1 - 0.9 = 0.1 -> burn 5x
        assert w0.burn_rate == pytest.approx(5.0)
        # exact nearest-rank percentiles, not bucket bounds
        assert w0.p50 == pytest.approx(0.010)
        assert w0.p99 == pytest.approx(0.030)
        assert windows[1].total == 1 and windows[1].burn_rate == 0.0
        assert worst_burn(windows) == pytest.approx(5.0)

    def test_empty_windows_fill_the_horizon(self):
        windows = windowed_slo([], 0.1, end=0.35)
        assert len(windows) == 4
        assert all(w.total == 0 and w.burn_rate == 0.0 for w in windows)
        assert worst_burn(windows) == 0.0

    def test_boundary_sample_lands_in_later_window(self):
        windows = windowed_slo([(0.1, True, 0.01)], 0.1, end=0.2)
        assert [w.total for w in windows] == [0, 1]

    def test_sample_at_horizon_end_kept(self):
        windows = windowed_slo([(0.2, False, None)], 0.1, end=0.2)
        assert windows[-1].misses == 1

    def test_latency_none_excluded_from_percentiles(self):
        windows = windowed_slo(
            [(0.01, False, None), (0.02, True, 0.004)], 0.1
        )
        assert windows[0].p50 == pytest.approx(0.004)

    def test_rejects_bad_width_and_target(self):
        with pytest.raises(ValueError):
            windowed_slo([], 0.0)
        with pytest.raises(ValueError):
            windowed_slo([], 0.1, target=1.0)


# -- instrumented campaigns ------------------------------------------------


class TestCampaignJournal:
    def test_same_seed_journals_byte_identical(self):
        specs = [FaultSpec(kind="device_crash", count=3)]
        _, rec1, _ = recorded_campaign(specs=specs)
        _, rec2, _ = recorded_campaign(specs=specs)
        assert rec1.to_jsonl() == rec2.to_jsonl()
        trace1 = json.dumps(to_serve_trace(rec1.header(), rec1.events),
                            sort_keys=True)
        trace2 = json.dumps(to_serve_trace(rec2.header(), rec2.events),
                            sort_keys=True)
        assert trace1 == trace2

    def test_lifecycle_valid_under_faults(self):
        specs = [
            FaultSpec(kind="device_crash", count=6),
            FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                      severity=0.1),
            FaultSpec(kind="bitflip_feature", count=3),
        ]
        report, rec, _ = recorded_campaign(specs=specs)
        assert report.all_terminal
        assert validate_journal(rec.header(), rec.events) == []

    def test_every_request_exactly_one_terminal(self):
        report, rec, _ = recorded_campaign()
        terminals = [e for e in rec.events if e["kind"] == "terminal"]
        assert len(terminals) == report.total
        assert len({e["request"] for e in terminals}) == report.total

    def test_timestamps_monotonic_and_after_arrival(self):
        _, rec, _ = recorded_campaign(
            specs=[FaultSpec(kind="device_crash", count=4)]
        )
        times = [e["t"] for e in rec.events]
        assert times == sorted(times)
        arrival = {}
        for e in rec.events:
            req = e["request"]
            if req is None:
                continue
            if e["kind"] == "arrival":
                arrival[req] = e["t"]
            assert e["t"] >= arrival[req]

    def test_journal_matches_report_outcomes(self):
        report, rec, _ = recorded_campaign(
            specs=[FaultSpec(kind="device_crash", count=4)]
        )
        states = [e["attrs"]["state"] for e in rec.events
                  if e["kind"] == "terminal"]
        for state, n in report.outcomes.items():
            assert states.count(state) == n

    def test_retries_carry_causal_parent(self):
        specs = [FaultSpec(kind="device_crash", count=6)]
        report, rec, _ = recorded_campaign(
            config=make_config(retry=RetryPolicy(max_retries=2)),
            specs=specs,
        )
        assert report.retries > 0
        retries = [e for e in rec.events
                   if e["kind"] == "dispatch"
                   and e["attrs"].get("kind") == "retry"]
        assert retries
        finished = {e["attempt"]: e for e in rec.events
                    if e["kind"] == "attempt_finish"}
        for e in retries:
            parent = e["attrs"]["parent"]
            assert finished[parent]["attrs"]["outcome"] in (
                "crash", "integrity_fail"
            )

    def test_hedges_carry_causal_parent(self):
        specs = [FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                           severity=0.2)]
        report, rec, _ = recorded_campaign(specs=specs)
        assert report.hedges_launched > 0
        hedges = [e for e in rec.events
                  if e["kind"] == "dispatch"
                  and e["attrs"].get("kind") == "hedge"]
        assert len(hedges) == report.hedges_launched
        by_attempt = {e["attempt"]: e for e in rec.events
                      if e["kind"] == "dispatch"}
        for e in hedges:
            parent = by_attempt[e["attrs"]["parent"]]
            assert parent["request"] == e["request"]
            assert parent["t"] <= e["t"]

    def test_quarantine_and_readmit_journaled(self):
        specs = [FaultSpec(kind="device_crash", site="RTX 2080Ti #0",
                           count=2)]
        _, rec, _ = recorded_campaign(
            config=make_config(breaker_threshold=2), specs=specs
        )
        kinds = [(e["kind"], e["device"]) for e in rec.events
                 if e["kind"] in ("quarantine", "readmit")]
        assert ("quarantine", "RTX 2080Ti #0") in kinds
        assert ("readmit", "RTX 2080Ti #0") in kinds

    def test_dead_device_journaled(self):
        specs = [FaultSpec(kind="device_crash", site="RTX 3090", count=-1)]
        _, rec, _ = recorded_campaign(
            config=make_config(max_probes=3), specs=specs
        )
        dead = [e for e in rec.events if e["kind"] == "device_dead"]
        assert len(dead) == 1 and dead[0]["device"] == "RTX 3090"

    def test_overload_sheds_journaled(self):
        config = make_config(
            devices=(RTX_2080TI,), queue_capacity=4,
            hedge=HedgePolicy(enabled=False),
        )
        report, rec, _ = recorded_campaign(
            config=config, traffic=make_traffic(rate=2000.0, duration=0.3)
        )
        sheds = [e for e in rec.events if e["kind"] == "terminal"
                 and e["attrs"]["state"] == SHED]
        assert len(sheds) == report.count(SHED) > 0
        assert validate_journal(rec.header(), rec.events) == []

    def test_trace_ids_unique_and_seed_scoped(self):
        report, rec, _ = recorded_campaign()
        traces = [e["attrs"]["trace"] for e in rec.events
                  if e["kind"] == "arrival"]
        assert len(set(traces)) == report.total
        assert all(t.startswith("00000007-") for t in traces)

    def test_report_slo_series_covers_campaign(self):
        report, _, _ = recorded_campaign(
            config=make_config(slo_window=0.1)
        )
        series = report.slo_series()
        assert series and series[-1].end >= report.end_time
        assert sum(w.total for w in series) == report.total
        assert report.worst_window_burn == worst_burn(series)
        assert report.to_json()["slo"]["enabled"] is True


# -- serve-mode Chrome trace ----------------------------------------------


class TestServeTrace:
    def test_tracks_attempts_and_flows(self):
        specs = [
            FaultSpec(kind="device_crash", count=6),
            FaultSpec(kind="device_stall", site="RTX 3090", count=-1,
                      severity=0.2),
        ]
        report, rec, _ = recorded_campaign(specs=specs)
        trace = to_serve_trace(rec.header(), rec.events)
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"requests", "RTX 2080Ti #0", "RTX 2080Ti #1",
                "RTX 3090"} <= names
        attempts = attempt_events(trace)
        dispatches = [e for e in rec.events if e["kind"] == "dispatch"]
        assert attempts and len(attempts) == len(dispatches)
        # every retry/hedge dispatch produced one s/f flow pair
        flows = flow_events(trace)
        linked = [e for e in dispatches
                  if e["attrs"].get("kind") in ("retry", "hedge")]
        assert len([e for e in flows if e["ph"] == "s"]) == len(linked)
        assert len([e for e in flows if e["ph"] == "f"]) == len(linked)
        ids = {}
        for e in flows:
            ids.setdefault(e["id"], []).append(e["ph"])
        assert all(sorted(phs) == ["f", "s"] for phs in ids.values())

    def test_counter_and_terminal_instants(self):
        report, rec, _ = recorded_campaign()
        trace = to_serve_trace(rec.header(), rec.events)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters and all(
            e["name"] == "queue depth" for e in counters
        )
        terminals = [e for e in trace["traceEvents"]
                     if e.get("cat") == "terminal"]
        assert len(terminals) == report.total

    def test_mapcache_instants_in_steady_state(self):
        report, rec, _ = recorded_campaign(
            config=make_config(steady_state=True),
            traffic=make_traffic(coherence=0.8),
        )
        assert report.warm_dispatches > 0
        trace = to_serve_trace(rec.header(), rec.events)
        warm = [e for e in trace["traceEvents"]
                if e.get("cat") == "mapcache"]
        assert sum(e["name"] == "mapcache:warm" for e in warm) == (
            report.warm_dispatches
        )
        assert sum(e["name"] == "mapcache:cold" for e in warm) == (
            report.cold_dispatches
        )

    def test_trace_durations_non_negative(self, tmp_path):
        _, rec, _ = recorded_campaign()
        path = tmp_path / "trace.json"
        write_serve_trace(rec.header(), rec.events, str(path))
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        for e in attempt_events(trace):
            assert e["dur"] >= 0


# -- Prometheus exposition -------------------------------------------------


class TestExposition:
    def test_counter_gauge_histogram_rendering(self):
        reg = MetricsRegistry()
        reg.counter("serve.arrivals").inc(3)
        reg.gauge("fleet.size", role="gpu").set(2)
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = to_prometheus(reg)
        assert "# TYPE repro_serve_arrivals_total counter" in text
        assert "repro_serve_arrivals_total 3" in text
        assert 'repro_fleet_size{role="gpu"} 2' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 11" in text
        assert "repro_lat_count 3" in text
        assert text.endswith("\n")

    def test_output_is_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b.hits", cache="z").inc()
            reg.counter("b.hits", cache="a").inc(2)
            reg.counter("a.first").inc()
            return to_prometheus(reg)

        text = build()
        assert text == build()
        assert text.index("repro_a_first_total") < text.index(
            "repro_b_hits_total"
        )
        assert text.index('cache="a"') < text.index('cache="z"')

    def test_name_sanitization(self):
        assert prometheus_name("serve.latency_ms") == (
            "repro_serve_latency_ms"
        )
        assert prometheus_name("weird metric!", namespace="") == (
            "weird_metric_"
        )

    def test_label_value_escaping_round_trips(self):
        # 0.0.4 escaping: backslash, then newline, then quote — a value
        # carrying all three survives, and the parseable form decodes
        # back to the original
        reg = MetricsRegistry()
        hostile = 'rack"0\\zone\nA'
        reg.counter("serve.quarantines", device=hostile).inc()
        reg.counter("serve.domain_outages", domain="rack/0").inc(2)
        text = to_prometheus(reg)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\n" not in text.split("repro_serve_quarantines_total")[1] \
            .split("\n")[0].replace("\\n", "")
        # slash in a domain label needs no escaping — emitted verbatim
        assert 'domain="rack/0"' in text
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("repro_serve_quarantines_total")
        )
        raw = line.split('device="', 1)[1].rsplit('"} ', 1)[0]
        decoded = (
            raw.replace("\\\\", "\x00")
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\x00", "\\")
        )
        assert decoded == hostile

    def test_nonfinite_samples_render_canonically(self):
        reg = MetricsRegistry()
        reg.gauge("a.nan").set(float("nan"))
        reg.gauge("a.pos").set(float("inf"))
        reg.gauge("a.neg").set(float("-inf"))
        text = to_prometheus(reg)
        assert "repro_a_nan NaN" in text
        assert "repro_a_pos +Inf" in text
        assert "repro_a_neg -Inf" in text
        # the lowercase repr() spellings parsers reject never appear
        assert "nan\n" not in text and " inf" not in text


# -- request_timeline ------------------------------------------------------


def test_request_timeline_filters_one_request():
    rec = minimal_events()
    rec.emit("arrival", 0.01, request=1)
    rows = request_timeline(rec.events, 0)
    assert [e["kind"] for e in rows] == [
        "arrival", "admit", "dequeue", "dispatch", "attempt_finish",
        "terminal",
    ]
    assert all(e["request"] == 0 for e in rows)


# -- replacement / warm-start causal rules -----------------------------------


class TestReplacementValidation:
    def replacement_rec(self):
        rec = minimal_events()
        rec.emit("device_dead", 0.004, device="d")
        rec.emit("device_replaced", 0.004, device="spare1", slot="d",
                 spec="RTX 3090")
        rec.emit("store_warmstart", 0.004, device="spare1", frames=3)
        return rec

    def test_replacement_lifecycle_valid(self):
        rec = self.replacement_rec()
        assert validate_journal(rec.header(), rec.events) == []

    def test_warmstart_zero_frames_valid(self):
        rec = minimal_events()
        rec.emit("store_warmstart", 0.004, device="d", frames=0)
        assert validate_journal(rec.header(), rec.events) == []

    def test_replacement_without_death_flagged(self):
        rec = minimal_events()
        rec.emit("device_replaced", 0.004, device="spare1", slot="d",
                 spec="RTX 3090")
        probs = validate_journal(rec.header(), rec.events)
        assert any("no prior device_dead" in p for p in probs)

    def test_slot_filled_twice_flagged(self):
        rec = self.replacement_rec()
        rec.emit("device_replaced", 0.005, device="spare2", slot="d",
                 spec="RTX 3090")
        probs = validate_journal(rec.header(), rec.events)
        assert any("replaced twice" in p for p in probs)

    def test_replacement_missing_fields_flagged(self):
        rec = minimal_events()
        rec.emit("device_dead", 0.004, device="d")
        rec.emit("device_replaced", 0.004)
        probs = validate_journal(rec.header(), rec.events)
        assert any("without a replacement device" in p for p in probs)
        assert any("without a slot" in p for p in probs)

    def test_warmstart_bad_frames_flagged(self):
        for frames in (-1, True, "three", None):
            rec = minimal_events()
            rec.emit("store_warmstart", 0.004, device="d", frames=frames)
            probs = validate_journal(rec.header(), rec.events)
            assert any("invalid frames" in p for p in probs), frames
