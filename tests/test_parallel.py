"""Tests for multi-device inference sharding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TorchSparseEngine
from repro.core.sparse_tensor import SparseTensor
from repro.datasets.collate import batch_collate
from repro.gpu.device import GTX_1080TI, RTX_2080TI, RTX_3090
from repro.models import MinkUNet
from repro.profiling.parallel import (
    LazyLatencyMatrix,
    data_parallel_batch,
    device_labels,
    least_loaded,
    shard_inference,
)


def make_inputs(n, seed0=0, points=400):
    out = []
    for i in range(n):
        rng = np.random.default_rng(seed0 + i)
        xyz = np.unique(rng.integers(0, 20, size=(points, 3)), axis=0)
        coords = np.concatenate(
            [np.zeros((xyz.shape[0], 1), dtype=np.int64), xyz], axis=1
        ).astype(np.int32)
        out.append(
            SparseTensor(
                coords, rng.standard_normal((xyz.shape[0], 4)).astype(np.float32)
            )
        )
    return out


@pytest.fixture(scope="module")
def model():
    return MinkUNet(width=0.5, num_classes=5)


class TestShardInference:
    def test_two_devices_roughly_halve(self, model):
        xs = make_inputs(4)
        engine = TorchSparseEngine()
        one = shard_inference(model, xs, engine, [RTX_2080TI])
        two = shard_inference(model, xs, engine, [RTX_2080TI, RTX_2080TI])
        assert two.speedup_over(one.makespan) > 1.6

    def test_all_inputs_assigned_exactly_once(self, model):
        xs = make_inputs(5)
        r = shard_inference(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_3090]
        )
        assigned = sorted(i for a in r.assignments.values() for i in a)
        assert assigned == list(range(5))

    def test_greedy_beats_round_robin_on_skewed_work(self, model):
        """With strongly varied input sizes on a mixed fleet, LPT
        placement beats naive round-robin (which can strand the big
        inputs on the slow card)."""
        xs = []
        for i, pts in enumerate((2000, 150, 2000, 150, 2000, 150)):
            xs.extend(make_inputs(1, seed0=10 + i, points=pts))
        engine = TorchSparseEngine()
        devices = [RTX_3090, GTX_1080TI]
        rr = shard_inference(model, xs, engine, devices, policy="round_robin")
        greedy = shard_inference(model, xs, engine, devices, policy="greedy")
        assert greedy.makespan <= rr.makespan * 1.05

    def test_throughput_definition(self, model):
        xs = make_inputs(3)
        r = shard_inference(model, xs, TorchSparseEngine(), [RTX_2080TI])
        assert r.throughput == pytest.approx(3 / r.makespan)

    def test_duplicate_device_names_disambiguated(self, model):
        xs = make_inputs(2)
        r = shard_inference(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_2080TI]
        )
        assert len(r.per_device) == 2

    def test_validation(self, model):
        with pytest.raises(ValueError):
            shard_inference(model, [], TorchSparseEngine(), [RTX_2080TI])
        with pytest.raises(ValueError):
            shard_inference(model, make_inputs(1), TorchSparseEngine(), [])
        with pytest.raises(ValueError):
            shard_inference(
                model, make_inputs(1), TorchSparseEngine(), [RTX_2080TI],
                policy="magic",
            )


class TestHeterogeneousLPT:
    def test_faster_card_gets_at_least_as_much_work(self, model):
        """LPT sends at least as many inputs to whichever card the
        cost model rates faster (at this size that is the 1080Ti —
        small workloads are launch-bound, not compute-bound)."""
        xs = make_inputs(9)
        engine = TorchSparseEngine()
        r = shard_inference(
            model, xs, engine, [RTX_3090, GTX_1080TI], policy="greedy"
        )
        mean = {
            label: sum(ts) / len(ts) for label, ts in r.latencies.items()
        }
        fast = min(mean, key=mean.get)
        slow = max(mean, key=mean.get)
        assert len(r.assignments[fast]) >= len(r.assignments[slow])

    def test_makespan_near_optimal(self, model):
        """LPT's makespan is within one worst-case input of the
        perfect-balance lower bound."""
        xs = make_inputs(9)
        r = shard_inference(
            model, xs, TorchSparseEngine(), [RTX_3090, GTX_1080TI],
            policy="greedy",
        )
        total = sum(sum(ts) for ts in r.latencies.values())
        worst = max(t for ts in r.latencies.values() for t in ts)
        assert r.makespan <= total / 2 + worst

    def test_loads_balanced_within_one_input(self, model):
        """LPT never leaves a device idle while another holds two or
        more inputs' worth of extra time."""
        xs = make_inputs(10)
        r = shard_inference(
            model, xs, TorchSparseEngine(), [RTX_3090, RTX_2080TI],
            policy="greedy",
        )
        worst = max(max(ts) for ts in r.latencies.values() if ts)
        loads = sorted(r.per_device.values())
        assert loads[-1] - loads[0] <= worst + 1e-12

    def test_healthy_mask_excludes_device(self, model):
        xs = make_inputs(4)
        r = shard_inference(
            model, xs, TorchSparseEngine(),
            [RTX_2080TI, RTX_3090, RTX_2080TI],
            healthy=[True, False, True],
        )
        assert r.assignments["RTX 3090"] == []
        assert r.per_device["RTX 3090"] == 0.0
        assigned = sorted(i for a in r.assignments.values() for i in a)
        assert assigned == list(range(4))

    def test_healthy_round_robin_rotates_subset(self, model):
        xs = make_inputs(4)
        r = shard_inference(
            model, xs, TorchSparseEngine(),
            [RTX_2080TI, RTX_3090, GTX_1080TI],
            policy="round_robin", healthy=[True, False, True],
        )
        assert r.assignments["RTX 2080Ti"] == [0, 2]
        assert r.assignments["GTX 1080Ti"] == [1, 3]
        assert r.assignments["RTX 3090"] == []

    def test_healthy_mask_validation(self, model):
        xs = make_inputs(1)
        with pytest.raises(ValueError, match="healthy mask"):
            shard_inference(
                model, xs, TorchSparseEngine(), [RTX_2080TI],
                healthy=[True, False],
            )
        with pytest.raises(ValueError, match="no healthy device"):
            shard_inference(
                model, xs, TorchSparseEngine(), [RTX_2080TI],
                healthy=[False],
            )


class TestDeviceLabels:
    def test_unique_names_unchanged(self):
        assert device_labels([RTX_2080TI, RTX_3090]) == [
            "RTX 2080Ti", "RTX 3090",
        ]

    def test_duplicates_numbered_by_position(self):
        labels = device_labels([RTX_2080TI, RTX_3090, RTX_2080TI])
        assert labels == ["RTX 2080Ti #0", "RTX 3090", "RTX 2080Ti #2"]

    def test_shard_result_keys_use_labels(self, model):
        xs = make_inputs(3)
        r = shard_inference(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_2080TI]
        )
        assert set(r.per_device) == {"RTX 2080Ti #0", "RTX 2080Ti #1"}
        assert set(r.assignments) == set(r.per_device)
        assert set(r.latencies) == set(r.per_device)


class TestLeastLoaded:
    def test_picks_minimum(self):
        assert least_loaded([3.0, 1.0, 2.0]) == 1

    def test_ties_go_lowest_index(self):
        assert least_loaded([1.0, 1.0, 1.0]) == 0

    def test_eligibility_mask(self):
        assert least_loaded([0.0, 1.0, 2.0], [False, True, True]) == 1

    def test_no_eligible_raises(self):
        with pytest.raises(ValueError, match="no eligible device"):
            least_loaded([1.0], [False])

    @staticmethod
    def min_over_candidates(loads, eligible=None):
        """The former implementation, kept as the oracle: a candidate
        list and a ``(load, index)`` key."""
        candidates = [
            d for d in range(len(loads)) if eligible is None or eligible[d]
        ]
        if not candidates:
            raise ValueError("no eligible device")
        return min(candidates, key=lambda d: (loads[d], d))

    @given(
        cells=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf"), float("nan")]),
                    st.floats(allow_nan=True),
                    st.integers(-3, 3),
                ),
                st.booleans(),
            ),
            max_size=8,
        ),
        masked=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_min_over_candidates(self, cells, masked):
        loads = [load for load, _ in cells]
        eligible = [ok for _, ok in cells] if masked else None
        try:
            want = self.min_over_candidates(loads, eligible)
        except ValueError:
            with pytest.raises(ValueError, match="no eligible device"):
                least_loaded(loads, eligible)
            return
        assert least_loaded(loads, eligible) == want

    @given(
        load=st.floats(allow_nan=False), n=st.integers(1, 6),
        first=st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_ties_go_to_the_lowest_eligible_index(self, load, n, first):
        first = min(first, n - 1)
        eligible = [d >= first for d in range(n)]
        assert least_loaded([load] * n, eligible) == first
        assert least_loaded([load] * n) == 0

    @given(
        loads=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
        pick=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_eligible_device_wins(self, loads, pick):
        pick = min(pick, len(loads) - 1)
        eligible = [d == pick for d in range(len(loads))]
        assert least_loaded(loads, eligible) == pick

    @pytest.mark.parametrize("loads,eligible", [
        ([], None), ([], []), ([0.0, 1.0], [False, False]),
        ([float("nan")], [0]),
    ])
    def test_nothing_eligible_raises(self, loads, eligible):
        with pytest.raises(ValueError, match="no eligible device"):
            least_loaded(loads, eligible)


class TestLazyLatencyMatrix:
    def test_round_robin_pays_one_eval_per_input(self, model):
        """round_robin must not pay D× evaluations (the satellite)."""
        xs = make_inputs(4)
        lat = LazyLatencyMatrix(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_3090]
        )
        for i in range(4):
            lat(i, i % 2)
        assert lat.evaluations == 4

    def test_homogeneous_fleet_shares_entries(self, model):
        """D copies of one spec collapse to one eval per input even
        when every (input, device) pair is read."""
        xs = make_inputs(3)
        lat = LazyLatencyMatrix(
            model, xs, TorchSparseEngine(),
            [RTX_2080TI, RTX_2080TI, RTX_2080TI],
        )
        for i in range(3):
            for d in range(3):
                lat(i, d)
        assert lat.evaluations == 3

    def test_memo_hit_returns_same_value(self, model):
        xs = make_inputs(1)
        lat = LazyLatencyMatrix(model, xs, TorchSparseEngine(), [RTX_3090])
        assert lat(0, 0) == lat(0, 0)
        assert lat.evaluations == 1

    def test_heterogeneous_evaluates_per_spec(self, model):
        xs = make_inputs(2)
        lat = LazyLatencyMatrix(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_3090]
        )
        lat.mean_over_devices(0)
        lat.mean_over_devices(1)
        assert lat.evaluations == 4


class TestLatencyAccessors:
    @pytest.fixture(scope="class")
    def result(self, model):
        xs = make_inputs(6)
        return shard_inference(
            model, xs, TorchSparseEngine(), [RTX_2080TI, RTX_3090]
        )

    def test_latencies_cover_every_input(self, result):
        n = sum(len(ts) for ts in result.latencies.values())
        assert n == result.total_inputs

    def test_per_device_sums_match(self, result):
        for label, ts in result.latencies.items():
            assert sum(ts) == pytest.approx(result.per_device[label])

    def test_p50_p99_ordering(self, result):
        assert 0 < result.p50() <= result.p99()
        assert result.p99() <= max(
            t for ts in result.latencies.values() for t in ts
        )

    def test_device_scoped_percentiles(self, result):
        pooled = {t for ts in result.latencies.values() for t in ts}
        for label in result.latencies:
            if result.latencies[label]:
                assert result.p99(label) in pooled

    def test_matches_shared_percentile_helper(self, result):
        from repro.profiling.report import percentile

        pooled = [t for ts in result.latencies.values() for t in ts]
        assert result.latency_percentile(75.0) == percentile(pooled, 75.0)

    def test_unknown_device_raises(self, result):
        with pytest.raises(KeyError):
            result.p50("Imaginary GPU")


class TestDataParallelBatch:
    def test_batch_sharding(self, model):
        xs = make_inputs(4)
        batched = batch_collate(xs)
        r = data_parallel_batch(
            model, batched, TorchSparseEngine(), [RTX_2080TI, RTX_3090]
        )
        assert r.total_inputs == 4
        assert r.makespan > 0
