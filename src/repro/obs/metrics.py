"""Process-wide metrics registry: counters, gauges, histograms.

Instrumentation points across the engine (cache simulator, GEMM and
memory cost models, hash/grid tables, grouping planner, the engine's
coordinate/map caches) emit into the *current* registry, reachable via
:func:`get_registry`.  Benchmark runs swap in a fresh registry with
:func:`use_registry` so each run's metrics are isolated::

    with use_registry(MetricsRegistry()) as reg:
        run_model(model, xs, engine, device)
    reg.dump_jsonl("metrics.jsonl")

Exports:

* :meth:`MetricsRegistry.collect` — one dict per metric (JSONL lines);
* :meth:`MetricsRegistry.scalars` — a flat ``name{labels} -> float``
  view (histograms contribute ``.count``/``.mean``/``.max``) consumed
  by the regression gate.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager

#: Default histogram buckets: geometric, suited to counts (probe
#: lengths, group sizes, row counts).
GEOMETRIC_BUCKETS = tuple(2**i for i in range(17))  # 1 .. 65536

#: Buckets for quantities in [0, 1] (utilization, efficiency, waste).
FRACTION_BUCKETS = tuple(round(0.1 * i, 1) for i in range(1, 11))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def data(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-written value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def data(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Bucketed distribution with exact count/sum/min/max.

    Buckets are upper bounds (``le``); one implicit overflow bucket
    catches everything past the last bound.
    """

    kind = "histogram"

    def __init__(self, buckets=None) -> None:
        bounds = tuple(sorted(buckets)) if buckets else GEOMETRIC_BUCKETS
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float, count: int = 1) -> None:
        if count <= 0:
            return
        value = float(value)
        # the first bound >= value; NaN compares false with every bound,
        # so bisect would put it in bucket 0: it overflows instead
        bounds = self.bounds
        i = bisect_left(bounds, value) if value == value else len(bounds)
        self.counts[i] += count
        self.count += count
        self.total += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, values) -> None:
        """``observe(v)`` for each of ``values``, in order.

        ``total`` takes one plain float add per value, so its bits are
        the loop's (``sum`` compensates from Python 3.12 on).
        """
        bounds, counts, overflow = self.bounds, self.counts, len(self.bounds)
        total, lo, hi = self.total, self.min, self.max
        n = 0
        for value in values:
            value = float(value)
            counts[
                bisect_left(bounds, value) if value == value else overflow
            ] += 1
            total += value
            if lo is None:
                lo = hi = value
            else:
                # min()/max() keep the incumbent unless strictly beaten
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
            n += 1
        self.count += n
        self.total, self.min, self.max = total, lo, hi

    @property
    def mean(self) -> float:
        return 0.0 if self.count == 0 else self.total / self.count

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding it.

        The extremes are exact: ``q=0`` returns the observed minimum
        (not the first nonempty bucket's upper bound) and ``q=1`` the
        observed maximum; no quantile reads above the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return float(self.min)
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                if i < len(self.bounds):
                    return min(float(self.bounds[i]), float(self.max))
                return float(self.max)
        return float(self.max)

    def data(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": [
                {"le": float(b), "count": c}
                for b, c in zip(self.bounds, self.counts)
            ]
            + [{"le": None, "count": self.counts[-1]}],
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: dict) -> str:
    """Flat display key: ``name{k=v,...}`` (plain name if unlabeled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Keyed store of metrics; one instance per benchmark run."""

    def __init__(self) -> None:
        self._metrics: dict = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        self._metrics.clear()

    # -- export -----------------------------------------------------------

    def collect(self) -> list:
        """One plain dict per metric, sorted by name (JSONL lines)."""
        out = []
        for (name, labels), metric in sorted(self._metrics.items()):
            out.append(
                {
                    "name": name,
                    "type": metric.kind,
                    "labels": dict(labels),
                    **metric.data(),
                }
            )
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(m, sort_keys=True) for m in self.collect())

    def dump_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            text = self.to_jsonl()
            f.write(text + ("\n" if text else ""))

    def scalars(self) -> dict:
        """Flat ``name{labels} -> float`` view, with derived hit rates.

        Histograms contribute ``.count``, ``.mean`` and ``.max``
        sub-keys.  For every counter pair ``X.hits`` / ``X.misses``
        sharing labels, a derived ``X.hit_rate`` is added — this is how
        the cache hit rate reaches the regression gate.
        """
        flat: dict = {}
        pairs: dict = {}
        for (name, labels), metric in self._metrics.items():
            key = format_metric_name(name, dict(labels))
            if isinstance(metric, Histogram):
                flat[f"{key}.count"] = float(metric.count)
                flat[f"{key}.mean"] = float(metric.mean)
                flat[f"{key}.max"] = float(metric.max or 0.0)
            else:
                flat[key] = float(metric.value)
                for suffix in ("hits", "misses"):
                    if name.endswith("." + suffix):
                        base = (name[: -len(suffix) - 1], _label_key(dict(labels)))
                        pairs.setdefault(base, {})[suffix] = float(metric.value)
        for (base, labels), hm in pairs.items():
            total = hm.get("hits", 0.0) + hm.get("misses", 0.0)
            if total > 0:
                key = format_metric_name(f"{base}.hit_rate", dict(labels))
                flat[key] = hm.get("hits", 0.0) / total
        return flat


# -- the process-wide current registry ------------------------------------

_DEFAULT = MetricsRegistry()
_CURRENT = _DEFAULT


def get_registry() -> MetricsRegistry:
    """The registry instrumentation points are currently writing to."""
    return _CURRENT


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as current (``None`` restores the default)."""
    global _CURRENT
    _CURRENT = registry if registry is not None else _DEFAULT
    return _CURRENT


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Temporarily route metrics to ``registry`` (fresh one if omitted)."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def reset_metrics() -> None:
    """Clear the current registry in place."""
    _CURRENT.reset()
