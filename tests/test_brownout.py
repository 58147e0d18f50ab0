"""Tests for load-adaptive brownout: the QoS ladder, the hysteresis
controller, traffic shapes, and the serve-loop integration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.core.sparse_tensor import SparseTensor
from repro.datasets.voxelize import coarsen_sparse_tensor
from repro.gpu.device import RTX_2080TI, RTX_3090
from repro.gpu.memory import DType
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import (
    TimelineRecorder,
    load_journal,
    validate_journal,
)
from repro.robust.brownout import BrownoutConfig, BrownoutController
from repro.robust.degrade import (
    DEFAULT_LADDER,
    DEFAULT_QOS_LADDER,
    FULL_QUALITY,
    QUALITY_RUNGS,
    QoSLadder,
    QualityRung,
)
from repro.serve import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
    ServeConfig,
    TrafficConfig,
    format_serve_report,
    generate_arrivals,
    run_serve_campaign,
)
from repro.serve.report import ServeReport, fold_journal

LAT = {"m": 0.004, "big": 0.012}
DEVICES = (RTX_2080TI, RTX_2080TI, RTX_3090)


def make_config(**kw):
    defaults = dict(devices=DEVICES, latency_overrides=LAT, seed=7)
    defaults.update(kw)
    return ServeConfig(**defaults)


def make_traffic(**kw):
    defaults = dict(rate=300.0, duration=0.5, models=("m",), seed=7)
    defaults.update(kw)
    return TrafficConfig(**defaults)


def flash_campaign(brownout, seed=7, **traffic_kw):
    """One seeded flash-crowd campaign, overrides-priced."""
    config = make_config(
        seed=seed, slo_window=0.05, brownout=brownout,
    )
    traffic = make_traffic(
        seed=seed, rate=900.0, duration=0.6, shape="flash", peak_factor=6.0,
        **traffic_kw,
    )
    recorder = TimelineRecorder()
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(config, traffic, recorder=recorder)
    return report, recorder, reg


def misses(report):
    return report.count(DEADLINE_EXCEEDED) + report.count(FAILED)


# -- the quality ladder ----------------------------------------------------


class TestQualityRungs:
    def test_rung_validation(self):
        with pytest.raises(ValueError):
            QualityRung("bad", voxel_scale=0)
        with pytest.raises(ValueError):
            QualityRung("bad", speedup=0.5)

    def test_default_rungs(self):
        names = [r.name for r in QUALITY_RUNGS]
        assert names == ["int8", "half-res"]
        assert QUALITY_RUNGS[0].dtype is DType.INT8
        assert QUALITY_RUNGS[1].voxel_scale == 2

    def test_quality_rungs_never_alias_fault_override_fields(self):
        """The two ladders own disjoint state: a quality rung carries no
        EngineConfig override tuples at all, and the knobs it does carry
        are applied by the pricing layer, never the fault-retry loop."""
        for rung in QUALITY_RUNGS:
            assert not hasattr(rung, "overrides")
            assert not hasattr(rung, "stage")
        fault_names = {r.name for r in DEFAULT_LADDER.rungs}
        quality_names = {r.name for r in QUALITY_RUNGS}
        assert not fault_names & quality_names

    def test_fault_overrides_win_over_quality_dtype(self):
        """Composition order is fixed: quality chooses the base config,
        the fault ladder degrades from it — so fp32-scalar recovery
        always beats a brownout-selected INT8 dtype."""
        base = EngineConfig.torchsparse()
        at_int8 = DEFAULT_QOS_LADDER.config_at(base, 1)
        assert at_int8.dtype is DType.INT8
        recovered = DEFAULT_LADDER.config_at(at_int8, 2)  # fp32-scalar
        assert recovered.dtype is DType.FP32
        assert recovered.vectorized is False

    def test_quality_config_touches_only_dtype(self):
        base = EngineConfig.torchsparse()
        for level in range(DEFAULT_QOS_LADDER.floor + 1):
            out = DEFAULT_QOS_LADDER.config_at(base, level)
            assert out.grouping == base.grouping
            assert out.vectorized == base.vectorized
            assert out.map_backend == base.map_backend
            assert out.use_map_symmetry == base.use_map_symmetry


class TestQoSLadder:
    def test_floor_and_names(self):
        lad = DEFAULT_QOS_LADDER
        assert lad.floor == 2
        assert lad.rung_names() == ("full", "int8", "half-res")
        assert lad.rung_name(0) == "full"
        assert lad.rung_name(1) == "int8"
        assert lad.rung_name(2) == "half-res"

    def test_quality_at_bounds(self):
        with pytest.raises(ValueError):
            DEFAULT_QOS_LADDER.quality_at(-1)
        with pytest.raises(ValueError):
            DEFAULT_QOS_LADDER.quality_at(3)

    def test_quality_at_is_cumulative(self):
        lad = DEFAULT_QOS_LADDER
        assert lad.quality_at(0) == FULL_QUALITY
        q1 = lad.quality_at(1)
        assert q1.dtype is DType.INT8 and q1.voxel_scale == 1
        q2 = lad.quality_at(2)
        assert q2.dtype is DType.INT8  # carried down from the int8 rung
        assert q2.voxel_scale == 2
        assert q2.speedup == pytest.approx(q1.speedup * 2.5)
        assert not lad.quality_at(0).degraded
        assert q1.degraded and q2.degraded

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_quality_at_idempotent_per_level(self, level):
        assert (
            DEFAULT_QOS_LADDER.quality_at(level)
            == DEFAULT_QOS_LADDER.quality_at(level)
        )


class TestFaultLadderProperties:
    """The satellite property suite for DegradationLadder."""

    @given(st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_config_at_idempotent_per_level(self, level):
        base = EngineConfig.torchsparse()
        a = DEFAULT_LADDER.config_at(base, level)
        b = DEFAULT_LADDER.config_at(base, level)
        assert a == b
        # re-degrading an already-degraded config is a no-op
        assert DEFAULT_LADDER.config_at(a, level) == a

    @given(st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_config_at_is_cumulative(self, level):
        """Level L equals level L-1 plus rung L's own overrides."""
        base = EngineConfig.torchsparse()
        if level == 0:
            assert DEFAULT_LADDER.config_at(base, 0) == base
            return
        prev = DEFAULT_LADDER.config_at(base, level - 1)
        from dataclasses import replace

        rung = DEFAULT_LADDER.rungs[level - 1]
        expected = replace(prev, **dict(rung.overrides))
        assert DEFAULT_LADDER.config_at(base, level) == expected

    @given(
        st.integers(0, 3),
        st.sampled_from(["matmul", "numeric", "mapping", "unknown"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_next_level_strictly_increasing_none_at_floor(
        self, level, stage
    ):
        nxt = DEFAULT_LADDER.next_level(level, stage)
        if level >= DEFAULT_LADDER.floor:
            assert nxt is None
        else:
            assert nxt is not None and nxt > level
            assert nxt <= DEFAULT_LADDER.floor

    def test_next_level_walk_terminates_at_floor(self):
        """Repeated stepping always reaches None in <= floor steps."""
        for stage in ("matmul", "numeric", "mapping", "unknown"):
            level, steps = 0, 0
            while True:
                nxt = DEFAULT_LADDER.next_level(level, stage)
                if nxt is None:
                    break
                assert nxt > level
                level = nxt
                steps += 1
            assert level == DEFAULT_LADDER.floor
            assert steps <= DEFAULT_LADDER.floor


# -- the coarsening lever --------------------------------------------------


class TestCoarsenSparseTensor:
    def _tensor(self, n=400, seed=3):
        rng = np.random.default_rng(seed)
        coords = np.concatenate(
            [
                np.zeros((n, 1), dtype=np.int64),
                rng.integers(0, 40, size=(n, 3)),
            ],
            axis=1,
        ).astype(np.int32)
        feats = rng.normal(size=(n, 4)).astype(np.float32)
        return SparseTensor(coords, feats)

    def test_factor_one_is_identity(self):
        t = self._tensor()
        assert coarsen_sparse_tensor(t, 1) is t

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            coarsen_sparse_tensor(self._tensor(), 0)

    def test_coarsening_merges_and_averages(self):
        t = self._tensor()
        c = coarsen_sparse_tensor(t, 2)
        assert c.num_points < t.num_points
        # coarse coords are the integer-divided fine coords, deduped
        fine = np.asarray(t.coords, dtype=np.int64)
        expected = fine.copy()
        expected[:, 1:] //= 2
        got = {tuple(row) for row in np.asarray(c.coords, dtype=np.int64)}
        assert got == {tuple(row) for row in expected}
        # features are the mean over each merged block
        first = tuple(np.asarray(c.coords[0], dtype=np.int64))
        members = [
            i for i, row in enumerate(expected) if tuple(row) == first
        ]
        np.testing.assert_allclose(
            np.asarray(c.feats)[0],
            np.asarray(t.feats)[members].mean(axis=0),
            rtol=1e-6,
        )

    def test_deterministic(self):
        t = self._tensor()
        a, b = coarsen_sparse_tensor(t, 2), coarsen_sparse_tensor(t, 2)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.feats, b.feats)


# -- the controller --------------------------------------------------------


class TestBrownoutConfig:
    def test_defaults_valid(self):
        cfg = BrownoutConfig()
        assert cfg.ceiling == cfg.ladder.floor == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BrownoutConfig(interval=0.0)
        with pytest.raises(ValueError):
            BrownoutConfig(dwell=-1.0)
        with pytest.raises(ValueError):
            BrownoutConfig(enter_depth=4, exit_depth=4)
        with pytest.raises(ValueError):
            BrownoutConfig(enter_burn=0.5, exit_burn=0.5)
        with pytest.raises(ValueError):
            BrownoutConfig(max_level=3)

    def test_max_level_caps_ceiling(self):
        assert BrownoutConfig(max_level=1).ceiling == 1
        assert BrownoutConfig(max_level=0).ceiling == 0


class TestBrownoutController:
    def ctl(self, **kw):
        dwell = kw.pop("dwell", 1.0)
        target = kw.pop("target", 0.99)
        return BrownoutController(
            BrownoutConfig(**kw), target=target, dwell=dwell
        )

    def test_starts_at_full(self):
        c = self.ctl()
        assert c.level == 0 and c.rung == "full"

    def test_steps_down_on_queue_depth(self):
        c = self.ctl()
        change = c.observe(1.0, queue_depth=20, misses=0, finished=10)
        assert change is not None
        assert change["direction"] == "down"
        assert c.level == 1 and c.rung == "int8"

    def test_steps_down_on_burn(self):
        c = self.ctl()
        # 3 misses of 10 at a 99% target: burn = 0.3 / 0.01 = 30x
        change = c.observe(1.0, queue_depth=0, misses=3, finished=10)
        assert change is not None and change["direction"] == "down"
        assert change["burn"] == pytest.approx(30.0)

    def test_burn_rate_empty_window_is_zero(self):
        assert self.ctl().burn_rate(0, 0) == 0.0

    def test_holds_between_thresholds(self):
        c = self.ctl()  # enter_depth 16, exit_depth 2
        assert c.observe(1.0, queue_depth=8, misses=0, finished=10) is None
        assert c.level == 0

    def test_recovery_requires_both_signals(self):
        c = self.ctl()
        c.observe(1.0, queue_depth=20, misses=5, finished=10)
        assert c.level == 1
        # depth recovered but burn between exit and enter -> hold
        # burn = (5/1000)/0.01 = 0.5, inside (exit 0.25, enter 1.0)
        assert c.observe(3.0, queue_depth=0, misses=5, finished=1000) is None
        # both calm -> step back up
        change = c.observe(5.0, queue_depth=0, misses=0, finished=10)
        assert change is not None and change["direction"] == "up"
        assert c.level == 0

    def test_never_steps_past_ceiling_or_floor(self):
        c = self.ctl(max_level=1)
        c.observe(1.0, queue_depth=99, misses=9, finished=10)
        assert c.level == 1
        assert c.observe(3.0, queue_depth=99, misses=9, finished=10) is None
        assert c.level == 1
        c2 = self.ctl()
        assert c2.observe(1.0, queue_depth=0, misses=0, finished=10) is None
        assert c2.level == 0

    def test_dwell_prevents_flapping(self):
        """The acceptance-criteria hysteresis test: no enter->exit->enter
        inside one dwell window, ever."""
        c = self.ctl(dwell=2.0)
        enter = c.observe(1.0, queue_depth=20, misses=0, finished=5)
        assert enter is not None
        # recovered immediately -- but inside the dwell window: hold
        assert c.observe(1.5, queue_depth=0, misses=0, finished=5) is None
        assert c.observe(2.9, queue_depth=0, misses=0, finished=5) is None
        assert c.level == 1
        # dwell elapsed: now it may exit
        exit_ = c.observe(3.1, queue_depth=0, misses=0, finished=5)
        assert exit_ is not None
        assert c.level == 0
        # and the change pair respects the dwell
        assert exit_["t"] - enter["t"] >= c.dwell

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),   # queue depth
                st.integers(0, 10),   # misses
                st.integers(0, 10),   # finished
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_no_flap_property(self, signals):
        """Under arbitrary signal sequences the controller never moves
        twice within one dwell window and never leaves [0, ceiling]."""
        c = self.ctl(dwell=3.0)
        t = 0.0
        changes = []
        for depth, miss, fin in signals:
            t += 1.0
            change = c.observe(
                t, queue_depth=depth, misses=min(miss, fin), finished=fin
            )
            if change is not None:
                changes.append(change)
            assert 0 <= c.level <= c.config.ceiling
        for a, b in zip(changes, changes[1:]):
            assert b["t"] - a["t"] >= c.dwell

    def test_change_records_are_complete(self):
        c = self.ctl()
        change = c.observe(1.0, queue_depth=20, misses=2, finished=10)
        assert set(change) == {
            "t", "level", "rung", "direction", "queue_depth", "burn"
        }
        assert change["t"] == c.last_change
        assert change["level"] == c.level


# -- traffic shapes --------------------------------------------------------


class TestTrafficShapes:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            make_traffic(shape="square")

    def test_shape_knob_validation(self):
        with pytest.raises(ValueError):
            make_traffic(shape="flash", peak_factor=0.5)
        with pytest.raises(ValueError):
            make_traffic(shape="flash", flash_start=1.0)
        with pytest.raises(ValueError):
            make_traffic(shape="flash", flash_width=0.0)
        with pytest.raises(ValueError):
            make_traffic(shape="diurnal", amplitude=1.0)

    def test_poisson_shape_is_bit_exact_with_default(self):
        """shape='poisson' must take the exact pre-shape RNG path."""
        a = generate_arrivals(make_traffic(), lambda m: 0.1)
        b = generate_arrivals(make_traffic(shape="poisson"), lambda m: 0.1)
        assert a == b

    def test_flash_concentrates_arrivals(self):
        cfg = make_traffic(
            rate=400.0, duration=1.0, shape="flash",
            peak_factor=8.0, flash_start=0.4, flash_width=0.2,
        )
        reqs = generate_arrivals(cfg, lambda m: 0.1)
        inside = [r for r in reqs if 0.4 <= r.arrival < 0.6]
        outside = [r for r in reqs if not 0.4 <= r.arrival < 0.6]
        # flash window is 20% of the duration but carries ~8x the rate:
        # it must dominate a window of 4x its width
        assert len(inside) > len(outside)

    def test_flash_rate_envelope(self):
        cfg = make_traffic(shape="flash", peak_factor=6.0)
        assert cfg.peak_rate == pytest.approx(6.0 * cfg.rate)
        assert cfg.rate_at(0.0) == pytest.approx(cfg.rate)
        mid = (cfg.flash_start + cfg.flash_width / 2) * cfg.duration
        assert cfg.rate_at(mid) == pytest.approx(6.0 * cfg.rate)

    def test_diurnal_quiet_edges_busy_middle(self):
        cfg = make_traffic(
            rate=400.0, duration=1.0, shape="diurnal", amplitude=0.9
        )
        assert cfg.rate_at(0.0) == pytest.approx(400.0 * 0.1)
        assert cfg.rate_at(0.5) == pytest.approx(400.0 * 1.9)
        assert cfg.peak_rate == pytest.approx(400.0 * 1.9)
        reqs = generate_arrivals(cfg, lambda m: 0.1)
        middle = sum(0.25 <= r.arrival < 0.75 for r in reqs)
        assert middle > len(reqs) / 2

    def test_diurnal_integrates_to_mean_rate(self):
        cfg = make_traffic(duration=2.0, shape="diurnal", amplitude=0.8)
        n = 4000
        mean = sum(
            cfg.rate_at(i * cfg.duration / n) for i in range(n)
        ) / n
        assert mean == pytest.approx(cfg.rate, rel=1e-3)

    def test_tenants_drift_changes_mix_over_time(self):
        cfg = make_traffic(
            rate=2000.0, duration=1.0, models=("m", "big"),
            shape="tenants", amplitude=0.9,
        )
        w_early = cfg.weights_at(0.25 * cfg.duration)
        w_late = cfg.weights_at(0.75 * cfg.duration)
        assert w_early != w_late
        assert sum(w_early) == pytest.approx(1.0)
        assert sum(w_late) == pytest.approx(1.0)
        reqs = generate_arrivals(cfg, lambda m: 0.1)
        early = [r for r in reqs if r.arrival < 0.5]
        late = [r for r in reqs if r.arrival >= 0.5]
        frac = lambda rs: sum(r.model == "m" for r in rs) / len(rs)
        assert abs(frac(early) - frac(late)) > 0.1

    def test_shaped_arrivals_deterministic(self):
        for shape in ("diurnal", "flash", "tenants"):
            kw = {"models": ("m", "big")} if shape == "tenants" else {}
            a = generate_arrivals(make_traffic(shape=shape, **kw), lambda m: 0.1)
            b = generate_arrivals(make_traffic(shape=shape, **kw), lambda m: 0.1)
            assert a == b


# -- oracle pricing --------------------------------------------------------


class TestQoSPricing:
    def test_overrides_divided_by_speedup(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(
            BaseEngine(config=EngineConfig.torchsparse()), overrides=LAT
        )
        full = oracle.base_latency("m", RTX_3090)
        q1 = DEFAULT_QOS_LADDER.quality_at(1)
        q2 = DEFAULT_QOS_LADDER.quality_at(2)
        assert oracle.base_latency("m", RTX_3090, quality=q1) == pytest.approx(
            full / q1.speedup
        )
        assert oracle.base_latency("m", RTX_3090, quality=q2) == pytest.approx(
            full / q2.speedup
        )

    def test_engine_path_prices_rungs_below_full(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(
            BaseEngine(config=EngineConfig.torchsparse()), scale=0.05
        )
        full = oracle.base_latency("minkunet_0.5x_kitti", RTX_3090)
        for level in range(1, DEFAULT_QOS_LADDER.floor + 1):
            q = DEFAULT_QOS_LADDER.quality_at(level)
            lat = oracle.base_latency(
                "minkunet_0.5x_kitti", RTX_3090, quality=q
            )
            assert 0 < lat < full

    def test_full_quality_memo_key_unchanged(self):
        from repro.core.engine import BaseEngine
        from repro.serve.cluster import LatencyOracle

        oracle = LatencyOracle(
            BaseEngine(config=EngineConfig.torchsparse()), scale=0.05
        )
        a = oracle.base_latency("minkunet_0.5x_kitti", RTX_3090)
        b = oracle.base_latency(
            "minkunet_0.5x_kitti", RTX_3090, quality=FULL_QUALITY
        )
        assert a == b


# -- serve integration -----------------------------------------------------


class TestBrownoutServing:
    def test_brownout_beats_baseline_under_flash_crowd(self):
        """The acceptance gate: same seed, same flash crowd — brownout
        must strictly reduce both the deadline-miss rate and the shed
        count vs. the no-brownout baseline."""
        base, _, _ = flash_campaign(None)
        brown, _, _ = flash_campaign(BrownoutConfig())
        assert misses(brown) < misses(base)
        assert brown.count(SHED) < base.count(SHED)
        assert brown.count(COMPLETED) > base.count(COMPLETED)

    def test_qos_mix_in_report_and_json(self):
        report, _, _ = flash_campaign(BrownoutConfig())
        assert report.brownout
        mix = report.qos_mix
        assert set(mix) == {"full", "int8", "half-res"}
        assert sum(mix.values()) == len([r for r in report.requests if r.devices])
        assert any(v for k, v in mix.items() if k != "full")
        blob = report.to_json()
        assert blob["qos"]["enabled"] is True
        assert blob["qos"]["mix"] == mix
        assert blob["qos"]["rungs"] == ["full", "int8", "half-res"]
        assert blob["qos"]["changes"] == report.qos_changes
        assert 0.0 < blob["qos"]["degraded_fraction"] < 1.0
        # per-request QoS is in the request rows
        row = blob["requests"][0]
        assert "qos_rung" in row and "qos_level" in row

    def test_fault_and_qos_mix_side_by_side(self):
        report, _, _ = flash_campaign(BrownoutConfig())
        blob = report.to_json()
        assert "mix" in blob["degradation"]
        assert sum(blob["degradation"]["mix"].values()) == sum(
            blob["qos"]["mix"].values()
        )
        assert "fault_rung" in blob["requests"][0]

    def test_journal_qos_events_validate_and_replay(self, tmp_path):
        report, recorder, _ = flash_campaign(BrownoutConfig())
        assert validate_journal(recorder.header(), recorder.events) == []
        changes = [
            e for e in recorder.events if e["kind"] == "qos_change"
        ]
        assert len(changes) == len(report.qos_changes) > 0
        # the journal file alone rebuilds the served QoS mix
        path = tmp_path / "events.jsonl"
        recorder.write(str(path))
        header, events = load_journal(str(path))
        replayed = ServeReport(
            requests=fold_journal(header, events, report.end_time).requests,
            qos_rungs=report.qos_rungs,
        )
        assert (replayed.qos_mix, replayed.degraded_fraction) == (
            report.qos_mix, report.degraded_fraction
        )

    def test_journal_flags_rung_skips(self):
        rec = TimelineRecorder()
        rec.emit("qos_change", 1.0, level=2, rung="half-res",
                 direction="down")
        problems = validate_journal(rec.header(), rec.events)
        assert any("skips" in p for p in problems)

    def test_controller_never_flaps_in_campaign(self):
        report, _, _ = flash_campaign(BrownoutConfig())
        changes = report.qos_changes
        # the ladder engages, then steps back up once the crowd passes
        assert changes and changes[0]["direction"] == "down"
        assert any(c["direction"] == "up" for c in changes)
        dwell = 4.0 * 0.05  # default: 4x the tick interval (slo window)
        for a, b in zip(changes, changes[1:]):
            assert b["t"] - a["t"] >= dwell - 1e-9

    def test_campaign_without_brownout_has_no_qos_surface(self):
        report, recorder, _ = flash_campaign(None)
        assert not report.brownout
        assert report.qos_changes == []
        assert all(r.qos_level == 0 for r in report.requests)
        assert not any(
            e["kind"] == "qos_change" for e in recorder.events
        )
        assert not any(
            "qos" in e.get("attrs", {})
            for e in recorder.events
            if e["kind"] == "dispatch"
        )
        blob = report.to_json()
        assert blob["qos"]["enabled"] is False
        assert blob["qos"]["changes"] == []

    def test_brownout_campaign_bit_exact(self):
        r1, rec1, _ = flash_campaign(BrownoutConfig())
        r2, rec2, _ = flash_campaign(BrownoutConfig())
        assert rec1.to_jsonl() == rec2.to_jsonl()
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
            r2.to_json(), sort_keys=True
        )

    def test_qos_metrics_emitted(self):
        _, _, reg = flash_campaign(BrownoutConfig())
        names = {m["name"] for m in reg.collect()}
        assert "serve.qos_level" in names
        assert "serve.qos_changes" in names
        assert "serve.qos_dispatches" in names
        dispatched = sum(
            m["value"]
            for m in reg.collect()
            if m["name"] == "serve.qos_dispatches"
        )
        assert dispatched > 0

    def test_summary_line_mentions_qos(self):
        report, _, _ = flash_campaign(BrownoutConfig())
        assert "qos" in format_serve_report(report, "campaign")
        base, _, _ = flash_campaign(None)
        assert "qos" not in format_serve_report(base, "campaign")

    def test_request_restamped_to_final_dispatch_rung(self):
        report, recorder, _ = flash_campaign(BrownoutConfig())
        last_rung = {}
        for e in recorder.events:
            if e["kind"] == "dispatch" and e.get("request") is not None:
                last_rung[e["request"]] = e["attrs"]["qos"]
        for r in report.requests:
            if r.devices:
                assert r.qos_rung == last_rung[r.id]

    def test_max_level_respected_fleet_wide(self):
        report, _, _ = flash_campaign(BrownoutConfig(max_level=1))
        assert all(c["level"] <= 1 for c in report.qos_changes)
        assert all(r.qos_level <= 1 for r in report.requests)

    def test_qos_series_in_report(self):
        report, _, _ = flash_campaign(BrownoutConfig())
        series = report.qos_series()
        assert series, "slo_window set -> series present"
        total = sum(sum(w["mix"].values()) for w in series)
        assert total == sum(report.qos_mix.values())

    def test_trace_has_qos_track(self):
        from repro.profiling.trace import QOS_TID, to_serve_trace

        _, recorder, _ = flash_campaign(BrownoutConfig())
        trace = to_serve_trace(recorder.header(), recorder.events)
        events = trace["traceEvents"]
        names = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "qos" in names
        counters = [e for e in events if e["ph"] == "C" and e["name"] == "qos level"]
        assert len(counters) >= 2  # the t=0 anchor + at least one change
        instants = [
            e for e in events if e.get("cat") == "qos" and e["ph"] == "i"
        ]
        assert instants and all(e["tid"] == QOS_TID for e in instants)

    def test_trace_without_brownout_has_no_qos_track(self):
        from repro.profiling.trace import to_serve_trace

        _, recorder, _ = flash_campaign(None)
        trace = to_serve_trace(recorder.header(), recorder.events)
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "qos" not in names


# -- CLI -------------------------------------------------------------------


class TestBrownoutCLI:
    def _run(self, tmp_path, label, *extra):
        from repro.cli import main

        out = tmp_path / f"{label}.json"
        events = tmp_path / f"{label}.jsonl"
        rc = main(
            [
                "serve",
                "--scale", "0.05",
                "--rate", "700",
                "--duration", "0.4",
                "--seed", "11",
                "--traffic-shape", "flash",
                "--peak-factor", "6",
                "--slo-window", "0.05",
                "--json", str(out),
                "--events", str(events),
                *extra,
            ]
        )
        assert rc == 0
        return json.loads(out.read_text()), events.read_text()

    def test_serve_brownout_roundtrip(self, tmp_path):
        blob, journal = self._run(tmp_path, "brown", "--brownout")
        assert blob["qos"]["enabled"] is True
        assert set(blob["qos"]["mix"]) == {"full", "int8", "half-res"}
        lines = [json.loads(l) for l in journal.splitlines()]
        header, events = lines[0], lines[1:]
        assert header["brownout"] is True
        assert validate_journal(header, events) == []

