"""Observability: hierarchical tracing, metrics, and regression gating.

The engine's argument — like the paper's — is made through measurement.
This package supplies the three measurement primitives every other
subsystem hooks into:

* :mod:`repro.obs.tracing` — a hierarchical span tracer carried on
  :class:`~repro.core.engine.ExecutionContext`; every
  :class:`~repro.gpu.timeline.KernelRecord` logged inside a span is
  stamped with the span path (layer -> stage -> kernel), which drives
  the nested Chrome-trace export and the per-layer report.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms.  Instrumentation points live in the cache
  simulator, the GEMM/memory cost models, the hash/grid tables and the
  grouping planner; everything exports to JSONL.
* :mod:`repro.obs.regress` — snapshot a benchmark run (modeled latency,
  stage times, flattened metrics) to JSON and diff a later run against
  it with configurable tolerances; backs ``repro-bench regress``.
* :mod:`repro.obs.timeline` — the serve-campaign flight recorder: a
  typed, schema-versioned causal event journal
  (``repro-bench.events/1``) stamped with the simulated clock, plus
  journal validation and the windowed SLO monitor (exact percentiles,
  error-budget burn rate); backs ``repro-bench timeline``.
* :mod:`repro.obs.exposition` — Prometheus text exposition of the
  metrics registry.
"""

from repro.obs.exposition import to_prometheus, write_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_metrics,
    set_registry,
    use_registry,
)
from repro.obs.regress import Drift, compare_snapshots, snapshot
from repro.obs.timeline import (
    EVENTS_SCHEMA,
    SLOWindow,
    TimelineRecorder,
    load_journal,
    validate_journal,
    windowed_slo,
    worst_burn,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "EVENTS_SCHEMA",
    "SLOWindow",
    "TimelineRecorder",
    "load_journal",
    "validate_journal",
    "windowed_slo",
    "worst_burn",
    "to_prometheus",
    "write_prometheus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "reset_metrics",
    "Span",
    "Tracer",
    "Drift",
    "snapshot",
    "compare_snapshots",
]
