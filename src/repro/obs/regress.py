"""Benchmark snapshots and the perf-regression gate.

A *snapshot* is a plain JSON-able dict capturing one benchmark run:
modeled latency, per-stage times, and the flattened metrics view of a
:class:`~repro.obs.metrics.MetricsRegistry`.  ``repro-bench regress``
writes a snapshot as the baseline, then diffs later runs against it:
any gated value drifting past its tolerance fails the gate (nonzero
exit), which turns every optimization PR into a measurable change.

A baseline gates only a run of the configuration it was taken under:
:func:`config_mismatch` names every run key (``CONFIG_KEYS``) on which
the two snapshots differ, and ``regress`` fails on any of them before
diffing a single value.

Tolerances are *relative*; per-key overrides accept ``fnmatch``
patterns, so ``--tol 'mem.*=0.10'`` loosens all memory counters at
once.  Keys present on only one side are reported but do not fail the
gate unless ``strict`` is set — adding a new metric must not break
every existing baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase

SNAPSHOT_SCHEMA = "repro-bench.snapshot/1"
#: machine-readable chaos-campaign summaries (``repro-bench chaos --json``)
CHAOS_SCHEMA = "repro-bench.chaos/1"

#: Relative drift allowed by default.  The engine's latency is modeled
#: (deterministic given model/input/device), so the default is tight;
#: loosen per key for anything intentionally noisy.
DEFAULT_TOLERANCE = 0.02

#: The run configuration a snapshot records.  Values from different
#: configurations are not comparable, whatever the tolerance.
CONFIG_KEYS = ("model", "engine", "device", "scale", "samples", "seed")


def snapshot(
    *,
    model: str,
    engine: str,
    device: str,
    latency: float,
    profile=None,
    registry=None,
    extra: dict | None = None,
) -> dict:
    """Build a snapshot dict for one benchmark run."""
    snap = {
        "schema": SNAPSHOT_SCHEMA,
        "model": model,
        "engine": engine,
        "device": device,
        "latency": float(latency),
        "stages": {},
        "metrics": {},
    }
    if profile is not None:
        snap["stages"] = {k: float(v) for k, v in profile.stage_times().items()}
        snap["kernels"] = len(profile.records)
    if registry is not None:
        snap["metrics"] = {
            k: float(v) for k, v in sorted(registry.scalars().items())
        }
    if extra:
        snap.update(extra)
    return snap


def write_snapshot(snap: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")


def load_snapshot(path: str, schema: str = SNAPSHOT_SCHEMA) -> dict:
    with open(path) as f:
        snap = json.load(f)
    if snap.get("schema") != schema:
        raise ValueError(
            f"{path}: not a repro-bench snapshot "
            f"(schema {snap.get('schema')!r}, expected {schema!r})"
        )
    return snap


def config_mismatch(baseline: dict, current: dict) -> list:
    """One ``key: baseline -> current`` line per differing config key."""
    return [
        f"{key}: {baseline.get(key)!r} -> {current.get(key)!r}"
        for key in CONFIG_KEYS
        if baseline.get(key) != current.get(key)
    ]


@dataclass(frozen=True)
class Drift:
    """One gated value and how far it moved."""

    key: str
    baseline: float
    current: float
    tolerance: float

    @property
    def rel_change(self) -> float:
        """Relative drift (0 when both sides are zero)."""
        denom = max(abs(self.baseline), 1e-30)
        if self.baseline == 0 and self.current == 0:
            return 0.0
        return abs(self.current - self.baseline) / denom

    @property
    def failed(self) -> bool:
        return self.rel_change > self.tolerance

    def describe(self) -> str:
        sign = "+" if self.current >= self.baseline else "-"
        return (
            f"{self.key}: {self.baseline:.6g} -> {self.current:.6g} "
            f"({sign}{self.rel_change * 100:.2f}%, tol {self.tolerance * 100:.2f}%)"
        )


def _tolerance_for(key: str, default: float, overrides: dict) -> float:
    """Most specific match wins: exact key, then longest fnmatch pattern."""
    if key in overrides:
        return overrides[key]
    best = None
    for pattern, tol in overrides.items():
        if fnmatchcase(key, pattern):
            if best is None or len(pattern) > len(best[0]):
                best = (pattern, tol)
    return best[1] if best else default


def _gated_values(snap: dict) -> dict:
    values = {"latency": float(snap["latency"])}
    for stage, t in snap.get("stages", {}).items():
        values[f"stage.{stage}"] = float(t)
    for key, v in snap.get("metrics", {}).items():
        values[key] = float(v)
    return values


def compare_snapshots(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    tolerances: dict | None = None,
    keys: list | None = None,
    strict: bool = False,
) -> tuple:
    """Diff two snapshots.

    Args:
        tolerance: default relative tolerance.
        tolerances: per-key overrides (exact keys or fnmatch patterns).
        keys: restrict gating to keys matching any of these patterns.
        strict: treat keys present on only one side as failures.

    Returns:
        ``(drifts, failures, only_in_one)`` — every compared
        :class:`Drift`, the failing subset, and the sorted list of keys
        missing from one side.
    """
    overrides = tolerances or {}
    base_vals = _gated_values(baseline)
    cur_vals = _gated_values(current)
    shared = sorted(set(base_vals) & set(cur_vals))
    only = sorted(set(base_vals) ^ set(cur_vals))
    if keys:
        shared = [
            k for k in shared if any(fnmatchcase(k, pat) for pat in keys)
        ]
    drifts = [
        Drift(
            key=k,
            baseline=base_vals[k],
            current=cur_vals[k],
            tolerance=_tolerance_for(k, tolerance, overrides),
        )
        for k in shared
    ]
    failures = [d for d in drifts if d.failed]
    if strict and only:
        failures = failures + [
            Drift(key=k, baseline=float("nan"), current=float("nan"), tolerance=0.0)
            for k in only
        ]
    return drifts, failures, only


def format_report(drifts, failures, only) -> str:
    """Human-readable gate report."""
    lines = [f"compared {len(drifts)} gated values; {len(failures)} drifted"]
    for d in sorted(failures, key=lambda d: -d.rel_change if d.rel_change == d.rel_change else 0):
        lines.append(f"  FAIL {d.describe()}")
    worst = sorted(
        (d for d in drifts if not d.failed and d.rel_change > 0),
        key=lambda d: -d.rel_change,
    )[:5]
    for d in worst:
        lines.append(f"  ok   {d.describe()}")
    if only:
        lines.append(
            f"  note: {len(only)} keys present on one side only "
            f"(e.g. {', '.join(only[:3])})"
        )
    return "\n".join(lines)
