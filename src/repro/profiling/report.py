"""Plain-text tables, series, and the per-layer report.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent.  The per-layer
report aggregates a traced profile by its root span (the layer/module
each kernel ran under) — the per-layer view Figure 4 can only hint at.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.gpu.timeline import STAGES, Profile


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation Figure 11 quotes)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    The single definition shared by the batch sharding path
    (:class:`~repro.profiling.parallel.ShardResult`) and the serving
    layer (:class:`~repro.serve.report.ServeReport`) so both quote the
    same p50/p99.  Nearest-rank (no interpolation) keeps results exactly
    reproducible across platforms; an empty sample yields 0.0.
    """
    return sorted_percentile(sorted(values), q)


def sorted_percentile(vals: Sequence[float], q: float) -> float:
    """:func:`percentile` of ``vals`` already sorted ascending.

    The nearest-rank rule itself, without the sort: a caller that keeps
    its sample sorted as it grows (the serve loop's hedge trigger) reads
    a quantile in O(1) instead of re-sorting on every read.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not vals:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    return float(vals[rank - 1])


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Fixed-width text table."""
    str_rows = [[_fmt(c) for c in r] for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence[float]) -> str:
    """One labeled figure series as ``x=y`` pairs."""
    pairs = ", ".join(f"{x}={_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def layer_table(profile: Profile) -> list:
    """Aggregate records by layer (root span), preserving first-seen order.

    Returns one dict per layer: ``layer``, total ``time``, ``share`` of
    the profile, per-stage seconds, ``kernels`` and ``launches``.
    Records logged outside any span fall under ``(untraced)``.
    """
    total = profile.total_time
    rows: dict = {}
    for rec in profile.records:
        layer = rec.layer or "(untraced)"
        row = rows.get(layer)
        if row is None:
            row = rows[layer] = {
                "layer": layer,
                "time": 0.0,
                "kernels": 0,
                "launches": 0,
                **{stage: 0.0 for stage in STAGES},
            }
        row["time"] += rec.time
        row[rec.stage] += rec.time
        row["kernels"] += 1
        row["launches"] += rec.launches
    out = list(rows.values())
    for row in out:
        row["share"] = 0.0 if total == 0 else row["time"] / total
    return out


def format_layer_report(
    profile: Profile, title: str = "", markdown: bool = False
) -> str:
    """Per-layer time/stage breakdown as a text (or markdown) table."""
    headers = ["layer", "time (ms)", "share"] + [f"{s} (ms)" for s in STAGES] + [
        "kernels"
    ]
    rows = [
        [
            r["layer"],
            f"{r['time'] * 1e3:.3f}",
            f"{r['share'] * 100:.1f}%",
            *(f"{r[s] * 1e3:.3f}" for s in STAGES),
            r["kernels"],
        ]
        for r in layer_table(profile)
    ]
    rows.sort(key=lambda row: -float(row[1]))
    if markdown:
        lines = []
        if title:
            lines.append(f"### {title}")
            lines.append("")
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        for r in rows:
            lines.append("| " + " | ".join(str(c) for c in r) + " |")
        lines.append("")
        lines.append(
            f"Total: {profile.total_time * 1e3:.3f} ms over "
            f"{len(profile.records)} kernels."
        )
        return "\n".join(lines)
    table = format_table(headers, rows, title=title)
    return (
        table
        + f"\ntotal {profile.total_time * 1e3:.3f} ms over "
        + f"{len(profile.records)} kernels"
    )


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)
