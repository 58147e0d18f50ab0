"""Tests for the observability layer: tracer, metrics, regression gate."""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    FRACTION_BUCKETS,
    GEOMETRIC_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metric_name,
    get_registry,
    use_registry,
)
from repro.obs.regress import (
    DEFAULT_TOLERANCE,
    Drift,
    compare_snapshots,
    load_snapshot,
    snapshot,
    write_snapshot,
)
from repro.obs.tracing import Tracer


class TestTracer:
    def test_nesting(self):
        t = Tracer()
        assert t.current_path == ()
        with t.span("layer", kind="conv"):
            assert t.current_path == ("layer",)
            with t.span("gather"):
                assert t.current_path == ("layer", "gather")
            assert t.current_path == ("layer",)
        assert t.current_path == ()

    def test_span_log_and_attrs(self):
        t = Tracer()
        with t.span("a", x=1):
            with t.span("b"):
                pass
        assert [s.path for s in t.spans] == [("a",), ("a", "b")]
        assert t.attrs_by_path()[("a",)] == {"x": 1}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            with Tracer().span(""):
                pass

    def test_stack_unwinds_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("a"):
                raise RuntimeError("boom")
        assert t.current_path == ()

    def test_span_attrs_frozen_at_open(self):
        t = Tracer()
        caller_attrs = {"x": 1}
        with t.span("a", **caller_attrs):
            pass
        span = t.spans[0]
        with pytest.raises(TypeError):
            span.attrs["x"] = 99
        # mutating the caller's dict cannot corrupt the recorded span
        caller_attrs["x"] = 99
        assert span.attrs["x"] == 1
        assert t.attrs_by_path()[("a",)]["x"] == 1

    def test_reset_requires_closed_spans(self):
        t = Tracer()
        with t.span("a"):
            with pytest.raises(RuntimeError):
                t.reset()
        t.reset()
        assert t.spans == []


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets_and_stats(self):
        h = Histogram(buckets=(1, 2, 4))
        for v in (1, 1, 2, 3, 100):
            h.observe(v)
        assert h.count == 5
        assert h.counts == [2, 1, 1, 1]  # le-1, le-2, le-4, overflow
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(107 / 5)

    def test_histogram_weighted_and_ignored_counts(self):
        h = Histogram(buckets=FRACTION_BUCKETS)
        h.observe(0.25, count=4)
        h.observe(0.9, count=0)  # ignored
        assert h.count == 4
        assert h.mean == pytest.approx(0.25)

    def test_histogram_quantile(self):
        h = Histogram(buckets=(1, 2, 4, 8))
        for v in (1, 1, 1, 2, 8):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 8.0

    def test_histogram_quantile_zero_is_observed_min(self):
        # q=0 must return the observed minimum, not the first nonempty
        # bucket's upper bound
        h = Histogram(buckets=(1, 2, 4, 8))
        h.observe(0.3)
        h.observe(5)
        assert h.quantile(0.0) == 0.3
        h2 = Histogram(buckets=(1, 2))
        h2.observe(1.7)
        assert h2.quantile(0.0) == 1.7  # bucket bound would say 2.0

    def test_histogram_quantile_one_is_observed_max(self):
        # q=1 must return the observed maximum, not its bucket's bound
        h = Histogram()
        h.observe(3.0)
        assert h.quantile(1.0) == 3.0  # bucket bound would say 4.0
        assert h.quantile(0.5) == 3.0
        h.observe(0.5)
        assert h.quantile(0.5) == 1.0 and h.quantile(1.0) == 3.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        st.floats(0.0, 1.0),
    )
    def test_histogram_quantile_never_exceeds_max(self, values, q):
        h = Histogram()
        for v in values:
            h.observe(v)
        assert min(values) <= h.quantile(q) <= max(values)

    def test_registry_keys_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", cache="kmap")
        b = reg.counter("hits", cache="kmap")
        c = reg.counter("hits", cache="index")
        assert a is b and a is not c
        with pytest.raises(TypeError):
            reg.gauge("hits", cache="kmap")

    def test_format_metric_name(self):
        assert format_metric_name("x", {}) == "x"
        assert format_metric_name("x", {"b": 1, "a": 2}) == "x{a=2,b=1}"

    def test_scalars_derives_hit_rate(self):
        reg = MetricsRegistry()
        reg.counter("engine.cache.hits", cache="kmap").inc(3)
        reg.counter("engine.cache.misses", cache="kmap").inc(1)
        reg.histogram("probe", buckets=(1, 2)).observe(2)
        flat = reg.scalars()
        assert flat["engine.cache.hit_rate{cache=kmap}"] == pytest.approx(0.75)
        assert flat["probe.count"] == 1.0
        assert flat["probe.max"] == 2.0

    def test_jsonl_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g", k="v").set(0.5)
        reg.histogram("h", buckets=(1,)).observe(1)
        path = tmp_path / "metrics.jsonl"
        reg.dump_jsonl(str(path))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [m["name"] for m in lines] == ["c", "g", "h"]
        assert {m["type"] for m in lines} == {"counter", "gauge", "histogram"}

    def test_use_registry_isolation(self):
        outer = get_registry()
        with use_registry(MetricsRegistry()) as reg:
            assert get_registry() is reg
            get_registry().counter("only.inner").inc()
        assert get_registry() is outer
        assert len(reg) == 1


def linear_bucket(bounds, value):
    """The bucket a linear scan picks: the first bound ``>= value``."""
    for j, b in enumerate(bounds):
        if value <= b:
            return j
    return len(bounds)


def bits(x):
    """A float's exact bits (``None`` passes), so -0.0 and NaN compare."""
    return None if x is None else struct.pack("<d", x)


BUCKET_SETS = (GEOMETRIC_BUCKETS, FRACTION_BUCKETS, (-2.5, 0.0, 1, 1e300))

#: NaN, the infinities, both zeros, and every bound with its neighbours
EDGE_VALUES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0] + [
    x
    for bounds in BUCKET_SETS
    for b in bounds
    for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
]

observed_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**20), 2**20),
)


class TestObserveMany:
    """``observe_many`` is a bulk ``observe`` loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BUCKET_SETS),
        st.lists(observed_values, max_size=6),
        st.lists(observed_values, max_size=40),
    )
    def test_matches_observe_loop(self, bounds, prefix, values):
        loop, bulk = Histogram(bounds), Histogram(bounds)
        for h in (loop, bulk):  # a prior history carries over
            for v in prefix:
                h.observe(v)
        for v in values:
            loop.observe(v)
        bulk.observe_many(values)
        assert bulk.counts == loop.counts
        assert bulk.count == loop.count == len(prefix) + len(values)
        assert bits(bulk.total) == bits(loop.total)
        assert bits(bulk.min) == bits(loop.min)
        assert bits(bulk.max) == bits(loop.max)
        # the bucket search agrees with a linear scan of the bounds
        oracle = [0] * (len(bounds) + 1)
        for v in prefix + values:
            oracle[linear_bucket(bounds, float(v))] += 1
        assert loop.counts == oracle

    def test_nan_overflows(self):
        h = Histogram((1, 2))
        h.observe_many([math.nan])
        h.observe(math.nan)
        assert h.counts == [0, 0, 2]

    def test_empty_leaves_histogram_untouched(self):
        h = Histogram()
        h.observe_many([])
        assert h.count == 0 and h.min is None and h.max is None
        assert bits(h.total) == bits(0.0)


class TestRegress:
    def make_snaps(self):
        reg = MetricsRegistry()
        reg.counter("gemm.flops").inc(100)
        base = snapshot(
            model="m", engine="e", device="d", latency=1.0, registry=reg
        )
        return base

    def test_snapshot_roundtrip(self, tmp_path):
        base = self.make_snaps()
        path = tmp_path / "base.json"
        write_snapshot(base, str(path))
        assert load_snapshot(str(path)) == base
        (tmp_path / "junk.json").write_text("{}")
        with pytest.raises(ValueError):
            load_snapshot(str(tmp_path / "junk.json"))

    def test_identical_snapshots_pass(self):
        base = self.make_snaps()
        drifts, failures, only = compare_snapshots(base, dict(base))
        assert failures == [] and only == []
        assert {d.key for d in drifts} == {"latency", "gemm.flops"}

    def test_drift_past_tolerance_fails(self):
        base = self.make_snaps()
        cur = json.loads(json.dumps(base))
        cur["latency"] = 1.5
        _, failures, _ = compare_snapshots(base, cur)
        assert [d.key for d in failures] == ["latency"]
        assert failures[0].rel_change == pytest.approx(0.5)

    def test_tolerance_override_by_pattern(self):
        base = self.make_snaps()
        cur = json.loads(json.dumps(base))
        cur["metrics"]["gemm.flops"] = 110.0
        _, failures, _ = compare_snapshots(base, cur)
        assert failures, "10% drift must fail the 2% default"
        _, failures, _ = compare_snapshots(
            base, cur, tolerances={"gemm.*": 0.2}
        )
        assert failures == []
        # exact key beats the pattern
        _, failures, _ = compare_snapshots(
            base, cur, tolerances={"gemm.*": 0.2, "gemm.flops": 0.01}
        )
        assert [d.key for d in failures] == ["gemm.flops"]

    def test_one_sided_keys_reported_not_failed(self):
        base = self.make_snaps()
        cur = json.loads(json.dumps(base))
        cur["metrics"]["new.metric"] = 7.0
        _, failures, only = compare_snapshots(base, cur)
        assert failures == []
        assert only == ["new.metric"]
        _, failures, _ = compare_snapshots(base, cur, strict=True)
        assert [d.key for d in failures] == ["new.metric"]

    def test_zero_baseline(self):
        d = Drift(key="k", baseline=0.0, current=0.0, tolerance=0.02)
        assert d.rel_change == 0.0 and not d.failed
        d = Drift(key="k", baseline=0.0, current=1.0, tolerance=0.02)
        assert d.failed

    def test_default_tolerance_is_tight(self):
        assert DEFAULT_TOLERANCE <= 0.05
