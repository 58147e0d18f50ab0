"""Tests for the deadline-aware batching scheduler (repro.serve.batching).

The load-bearing guarantees:

* **bit-exact off-switch** — ``batching=None`` campaigns reproduce the
  committed pre-batching golden fixture byte for byte (report AND
  journal), so enabling the feature cannot perturb existing runs;
* **deadline safety** — holding a device to coalesce never pushes a
  batch member past its deadline (under the modeled service time, i.e.
  zero noise and no faults);
* **model purity** — a batch never mixes models (and, in steady-state
  mode, never mixes scenes);
* **determinism** — same-seed batched campaigns are byte-for-byte
  reproducible, report and journal.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import (
    BATCH_CLOSE_REASONS,
    TimelineRecorder,
    validate_journal,
)
from repro.profiling.trace import to_serve_trace
from repro.robust.errors import ConfigError
from repro.robust.faults import FaultInjector, FaultSpec
from repro.serve import (
    COMPLETED,
    AdmissionQueue,
    BatchingConfig,
    Request,
    RetryPolicy,
    ServeConfig,
    TrafficConfig,
    batch_close_time,
    format_serve_report,
    run_serve_campaign,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

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
    return report, reg


def canonical(report) -> str:
    return (
        json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        + "\n"
    )


class TestBatchingConfig:
    def test_defaults(self):
        assert BatchingConfig().max_batch == 4

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_max_batch_validated_at_construction(self, bad):
        with pytest.raises(ConfigError, match="max_batch"):
            BatchingConfig(max_batch=bad)

    def test_close_time_is_oldest_slack_minus_service(self):
        members = [
            Request(id=0, model="m", arrival=0.0, deadline=0.040),
            Request(id=1, model="m", arrival=0.001, deadline=0.030),
        ]
        assert batch_close_time(members, 0.010) == pytest.approx(0.020)


class TestBatchLatencyOracle:
    def _oracle(self):
        from repro.core.engine import BaseEngine, EngineConfig
        from repro.serve import LatencyOracle

        return LatencyOracle(
            BaseEngine(config=EngineConfig.torchsparse()), overrides=LAT
        )

    def test_n1_delegates_to_base_latency(self):
        o = self._oracle()
        assert o.batch_latency("m", RTX_2080TI, 1) == o.base_latency(
            "m", RTX_2080TI
        )

    def test_overrides_path_is_sublinear_per_frame(self):
        o = self._oracle()
        per_frame = [
            o.batch_latency("m", RTX_2080TI, n) / n for n in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(per_frame, per_frame[1:]))
        # alpha = 0.5: a batch of 2 costs 1.5x one frame
        assert o.batch_latency("m", RTX_2080TI, 2) == pytest.approx(
            1.5 * LAT["m"]
        )

    def test_batch_cost_still_grows_with_n(self):
        o = self._oracle()
        totals = [o.batch_latency("m", RTX_2080TI, n) for n in (1, 2, 4)]
        assert totals[0] < totals[1] < totals[2]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            self._oracle().batch_latency("m", RTX_2080TI, 0)


class TestQueueCoalescingPrimitives:
    def _queue_with(self, n, now=0.0):
        q = AdmissionQueue(capacity=16)
        reqs = [
            Request(id=i, model="m", arrival=now, deadline=now + 1.0)
            for i in range(n)
        ]
        for r in reqs:
            assert q.offer(r, now)
        return q, reqs

    def test_peek_does_not_remove(self):
        q, reqs = self._queue_with(3)
        assert q.peek(0.0) is reqs[0]
        assert len(q) == 3

    def test_take_matching_preserves_fifo_of_rejects(self):
        q, reqs = self._queue_with(5)
        taken = q.take_matching(lambda r: r.id % 2 == 0, limit=8, now=0.0)
        assert [r.id for r in taken] == [0, 2, 4]
        assert [q.pop(0.0).id for _ in range(2)] == [1, 3]

    def test_take_matching_honors_limit(self):
        q, _ = self._queue_with(5)
        taken = q.take_matching(lambda r: True, limit=2, now=0.0)
        assert [r.id for r in taken] == [0, 1]
        assert len(q) == 3

    @settings(max_examples=200, deadline=None)
    @given(
        verdicts=st.lists(st.booleans(), max_size=12),
        limit=st.integers(-1, 13),
    )
    def test_take_matching_scans_like_a_rebuild(self, verdicts, limit):
        """The predicate sees the same requests in the same order as the
        pop-and-re-append scan it replaced, and stops at ``limit``; the
        taken requests and the FIFO of the rest are the same."""
        def old_take(items, predicate):
            taken, kept = [], []
            for req in items:
                if len(taken) < limit and predicate(req):
                    taken.append(req)
                else:
                    kept.append(req)
            return taken, kept

        def recording(log):
            def predicate(req):
                log.append(req.id)
                return verdicts[req.id]
            return predicate

        q, reqs = self._queue_with(len(verdicts))
        before = q._q
        seen, want_seen = [], []
        taken = q.take_matching(recording(seen), limit, now=0.0)
        want_taken, want_kept = old_take(reqs, recording(want_seen))
        assert seen == want_seen
        assert taken == want_taken
        assert list(q._q) == want_kept
        assert q._q is before  # edited in place, never rebuilt

    def test_take_matching_sheds_expired_first(self):
        sheds = []
        q = AdmissionQueue(
            capacity=16,
            on_shed=lambda req, reason, now: sheds.append((req.id, reason)),
        )
        dead = Request(id=0, model="m", arrival=0.0, deadline=0.1)
        live = Request(id=1, model="m", arrival=0.0, deadline=9.0)
        q.offer(dead, 0.0)
        q.offer(live, 0.0)
        taken = q.take_matching(lambda r: True, limit=8, now=1.0)
        assert [r.id for r in taken] == [1]
        assert dead.state == "shed" and sheds == [(0, "expired")]


class TestDeadlineSafety:
    def test_waiting_never_pushes_a_member_past_deadline(self):
        """The close rule in action: with zero noise and no faults, every
        member of a multi-request batch completes within its deadline —
        coalescing may only spend slack that provably exists."""
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(
                batching=BatchingConfig(max_batch=4), noise_sigma=0.0
            ),
            make_traffic(rate=500.0, duration=0.4),
            recorder=rec,
        )
        assert not validate_journal(rec.header(), rec.events)
        state_of = {r.id: r.state for r in report.requests}
        finish_of = {r.id: r.finish for r in report.requests}
        deadline_of = {r.id: r.deadline for r in report.requests}
        batched = 0
        for e in rec.events:
            if e["kind"] != "batch_formed" or e["attrs"]["size"] < 2:
                continue
            for rid in e["attrs"]["members"]:
                batched += 1
                assert state_of[rid] == COMPLETED
                assert finish_of[rid] <= deadline_of[rid]
        assert batched > 0, "traffic never formed a multi-request batch"

    def test_close_reasons_are_known(self):
        rec = TimelineRecorder()
        campaign(
            make_config(batching=BatchingConfig(max_batch=3)),
            make_traffic(rate=600.0, duration=0.4),
            recorder=rec,
        )
        reasons = {
            e["attrs"]["reason"]
            for e in rec.events
            if e["kind"] == "batch_formed"
        }
        assert reasons and reasons <= set(BATCH_CLOSE_REASONS)


class TestBatchPurity:
    def test_batches_never_mix_models(self):
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4)),
            make_traffic(
                rate=700.0, duration=0.4, models=("m", "big"),
                weights=(1.0, 1.0),
            ),
            recorder=rec,
        )
        assert not validate_journal(rec.header(), rec.events)
        model_of = {r.id: r.model for r in report.requests}
        formed = [e for e in rec.events if e["kind"] == "batch_formed"]
        assert any(e["attrs"]["size"] > 1 for e in formed)
        for e in formed:
            models = {model_of[rid] for rid in e["attrs"]["members"]}
            assert len(models) == 1
            assert e["attrs"]["model"] in models

    def test_steady_state_batches_never_mix_scenes(self):
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(
                batching=BatchingConfig(max_batch=4), steady_state=True
            ),
            make_traffic(rate=700.0, duration=0.4, coherence=0.9),
            recorder=rec,
        )
        assert not validate_journal(rec.header(), rec.events)
        scene_of = {r.id: r.scene for r in report.requests}
        formed = [e for e in rec.events if e["kind"] == "batch_formed"]
        assert any(e["attrs"]["size"] > 1 for e in formed)
        for e in formed:
            assert len({scene_of[rid] for rid in e["attrs"]["members"]}) == 1


class TestDeterminism:
    def _run(self, tmp_path, tag):
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4), seed=11),
            make_traffic(rate=500.0, duration=0.4, seed=11),
            specs=[FaultSpec(kind="device_crash", count=3)],
            seed=11,
            recorder=rec,
        )
        path = tmp_path / f"{tag}.jsonl"
        rec.write(str(path))
        return canonical(report), path.read_bytes()

    def test_same_seed_batched_campaigns_byte_identical(self, tmp_path):
        r1, j1 = self._run(tmp_path, "a")
        r2, j2 = self._run(tmp_path, "b")
        assert r1 == r2
        assert j1 == j2


class TestOffSwitchBitExactness:
    """``batching=None`` must replay the committed pre-batching golden
    fixture byte for byte — the regression that proves running the
    unbatched fleet through the batch-of-one path left its report and
    journal untouched."""

    def _fixture_campaign(self, tmp_path):
        config = ServeConfig(
            devices=(RTX_2080TI, RTX_2080TI, RTX_3090),
            latency_overrides=LAT,
            seed=11,
            retry=RetryPolicy(max_retries=2),
        )
        traffic = TrafficConfig(
            rate=400.0, duration=0.4, models=("m", "big"),
            weights=(3.0, 1.0), seed=11,
        )
        injector = FaultInjector(
            seed=11,
            specs=[
                FaultSpec(kind="device_crash", count=4),
                FaultSpec(
                    kind="device_stall", site="RTX 3090", count=-1,
                    severity=4.0,
                ),
            ],
        )
        rec = TimelineRecorder()
        with use_registry(MetricsRegistry()):
            report = run_serve_campaign(
                config, traffic, injector=injector, recorder=rec
            )
        path = tmp_path / "events.jsonl"
        rec.write(str(path))
        return report, path

    def test_report_bytes_match_pre_batching_golden(self, tmp_path):
        report, _ = self._fixture_campaign(tmp_path)
        with open(os.path.join(DATA, "pre_batching_report.json")) as f:
            assert canonical(report) == f.read()

    def test_journal_bytes_match_pre_batching_golden(self, tmp_path):
        _, path = self._fixture_campaign(tmp_path)
        with open(os.path.join(DATA, "pre_batching_events.jsonl"), "rb") as f:
            assert path.read_bytes() == f.read()

    def test_report_json_has_no_batching_key_when_off(self):
        report, _ = campaign()
        assert "batching" not in report.to_json()
        assert not report.requests[0].to_json().get("batches")


class TestBatchedCampaign:
    def test_under_faults_journal_validates_and_all_terminal(self):
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4), seed=11),
            make_traffic(
                rate=400.0, duration=0.4, models=("m", "big"),
                weights=(3.0, 1.0), seed=11,
            ),
            specs=[
                FaultSpec(kind="device_crash", count=4),
                FaultSpec(
                    kind="device_stall", site="RTX 3090", count=-1,
                    severity=4.0,
                ),
            ],
            seed=11,
            recorder=rec,
        )
        assert not validate_journal(rec.header(), rec.events)
        assert report.passed
        assert rec.meta["batching"] is True and rec.meta["max_batch"] == 4

    def test_report_batching_block_and_mix(self):
        rec = TimelineRecorder()
        report, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4)),
            make_traffic(rate=600.0, duration=0.4),
            recorder=rec,
        )
        j = report.to_json()["batching"]
        assert j["enabled"] and j["max_batch"] == 4
        assert j["batches"] == sum(report.batch_mix.values())
        assert j["batched_members"] == sum(
            n * c for n, c in report.batch_mix.items()
        )
        assert 0.0 < j["occupancy"] <= 1.0
        assert report.mean_batch_size > 1.5
        assert report.all_terminal
        text = format_serve_report(report, "campaign")
        assert "batching: " in text and "(<= 4)" in text
        served = [r for r in report.requests if r.devices]
        assert all(
            len(r.batches) == len(r.devices) for r in report.requests
        )
        assert served, "no requests served"
        # the journal accounts for every batch the report counts: hedges
        # re-dispatch an already-formed batch, so formations = attempts
        # - hedges, and each member of each attempt gets one slice
        kinds = [e["kind"] for e in rec.events]
        assert kinds.count("batch_formed") == (
            j["batches"] - report.hedges_launched
        )
        assert kinds.count("batch_dispatch") == j["batched_members"]
        trace = to_serve_trace(rec.header(), rec.events)["traceEvents"]
        assert any(
            e["ph"] == "C" and e["name"] == "batch size" for e in trace
        )
        assert any(
            e["ph"] == "X" and e.get("cat") == "attempt"
            and e["name"].startswith("batch x")
            for e in trace
        )

    def test_batching_beats_one_request_per_device_under_overload(self):
        """The throughput/deadline frontier, on the overloaded two-model
        traffic of ``test_batches_never_mix_models``: coalescing
        completes strictly more requests at no worse SLO attainment."""
        traffic = make_traffic(
            rate=700.0, duration=0.4, models=("m", "big"), weights=(1.0, 1.0)
        )
        batched, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4)), traffic
        )
        baseline, _ = campaign(make_config(), traffic)
        assert batched.all_terminal and baseline.all_terminal
        assert batched.count(COMPLETED) > baseline.count(COMPLETED)
        assert batched.slo_attainment >= baseline.slo_attainment

    def test_batched_attempts_coalesce_amplification(self):
        """Coalescing means strictly fewer dispatched attempts than
        served requests — the batched fleet's amplification < 1."""
        report, _ = campaign(
            make_config(batching=BatchingConfig(max_batch=4)),
            make_traffic(rate=600.0, duration=0.4),
        )
        served = sum(1 for r in report.requests if r.devices)
        assert 0 < report.attempts < served

    def test_formation_never_scans_an_empty_queue(self, monkeypatch):
        """An empty queue sheds and takes nothing, so batch formation
        must not scan it: every ``take_matching`` call finds work."""
        depths = []
        take = AdmissionQueue.take_matching

        def recording(queue, predicate, limit, now):
            depths.append(len(queue))
            return take(queue, predicate, limit, now)

        monkeypatch.setattr(AdmissionQueue, "take_matching", recording)
        report, _ = campaign(
            make_config(
                batching=BatchingConfig(max_batch=4), steady_state=True
            ),
            make_traffic(rate=700.0, duration=0.4, coherence=0.8),
            specs=[FaultSpec(kind="device_crash", count=2)],
        )
        assert report.all_terminal and report.mean_batch_size > 1.0
        assert len(depths) > 100
        assert min(depths) > 0, (
            f"{depths.count(0)} of {len(depths)} scans found the queue empty"
        )


class TestJournalValidation:
    def _base(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit("admit", 0.0, request=0)
        return rec

    def test_unformed_batch_dispatch_flagged(self):
        rec = self._base()
        rec.emit(
            "batch_dispatch", 0.001, request=0, attempt=0, device="d0",
            batch=7, size=1, kind="primary",
        )
        problems = validate_journal(rec.header(), rec.events)
        assert any("unformed batch" in p for p in problems)

    def test_unadmitted_member_flagged(self):
        rec = TimelineRecorder()
        rec.emit("arrival", 0.0, request=0)
        rec.emit(
            "batch_formed", 0.001, request=0, device="d0",
            batch=1, size=1, members=[0], reason="solo", held=0.0,
        )
        problems = validate_journal(rec.header(), rec.events)
        assert any("never admitted" in p for p in problems)

    def test_unknown_close_reason_flagged(self):
        rec = self._base()
        rec.emit(
            "batch_formed", 0.001, request=0, device="d0",
            batch=1, size=1, members=[0], reason="timer", held=0.0,
        )
        problems = validate_journal(rec.header(), rec.events)
        assert any("unknown reason" in p for p in problems)

    def test_unclosed_member_slice_flagged(self):
        rec = self._base()
        rec.emit("arrival", 0.0, request=1)
        rec.emit("admit", 0.0, request=1)
        rec.emit(
            "batch_formed", 0.001, request=0, device="d0",
            batch=1, size=2, members=[0, 1], reason="full", held=0.0,
        )
        for rid in (0, 1):
            rec.emit(
                "batch_dispatch", 0.001, request=rid, attempt=0,
                device="d0", batch=1, size=2, kind="primary",
            )
        # only member 0's slice closes
        rec.emit(
            "attempt_finish", 0.002, request=0, attempt=0, device="d0",
            outcome="ok",
        )
        rec.emit("terminal", 0.002, request=0, state="completed")
        rec.emit("terminal", 0.002, request=1, state="failed")
        problems = validate_journal(rec.header(), rec.events)
        assert any("never finished for request 1" in p for p in problems)
