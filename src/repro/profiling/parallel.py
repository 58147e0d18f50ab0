"""Multi-device inference sharding.

TorchSparse supports multi-GPU execution (Section 4.1).  Inference-side
data parallelism needs no gradient exchange: point clouds (or batch
elements) are sharded across devices and the wall time is the makespan
of the slowest shard.  These helpers model exactly that on the device
specs, including heterogeneous fleets.

The per-(input, device) latency matrix is evaluated *lazily* and
memoized by device spec: ``round_robin`` only ever reads one entry per
input, and homogeneous fleets (D copies of the same spec) collapse to a
single model evaluation per input even under ``greedy``.

Placement is health-aware: an optional ``healthy`` mask excludes
quarantined devices (as tracked by :mod:`repro.serve.health`) from both
policies, so the batch path and the serving layer agree on where work
may land.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.engine import BaseEngine, ExecutionContext
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.device import GPUSpec
from repro.nn.modules import Module
from repro.profiling.report import percentile


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one multi-device run."""

    per_device: dict  # device name -> total seconds
    assignments: dict  # device name -> list of input indices
    makespan: float
    total_inputs: int
    #: device name -> tuple of per-input latencies, assignment order
    latencies: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Inputs per second at steady state.

        A zero makespan (degenerate cost model / empty schedule) means
        infinitely fast, not infinitely slow — mirroring
        ``BenchResult.fps``.  Returning 0.0 here made empty runs look
        like the *worst* shard instead of a vacuous one.
        """
        return float("inf") if self.makespan == 0 else self.total_inputs / self.makespan

    def speedup_over(self, single_device_time: float) -> float:
        """Speedup vs. a single-device run (``inf`` on zero makespan)."""
        return (
            float("inf")
            if self.makespan == 0
            else single_device_time / self.makespan
        )

    def _samples(self, device: str | None) -> list:
        if device is None:
            return [t for ts in self.latencies.values() for t in ts]
        if device not in self.latencies:
            raise KeyError(
                f"unknown device {device!r}; have {sorted(self.latencies)}"
            )
        return list(self.latencies[device])

    def latency_percentile(self, q: float, device: str | None = None) -> float:
        """Nearest-rank percentile of per-input latencies.

        ``device=None`` pools every input; a device label restricts to
        that shard.  Shares :func:`repro.profiling.report.percentile`
        with the serving layer so batch and serve paths quote identical
        statistics.
        """
        return percentile(self._samples(device), q)

    def p50(self, device: str | None = None) -> float:
        return self.latency_percentile(50.0, device)

    def p99(self, device: str | None = None) -> float:
        return self.latency_percentile(99.0, device)


def _latency(model: Module, x: SparseTensor, engine: BaseEngine, device: GPUSpec):
    ctx = ExecutionContext(engine=engine, device=device, numerics=False)
    model(x, ctx)
    return ctx.profile.total_time


class LazyLatencyMatrix:
    """Memoized per-(input, device-*spec*) modeled latency.

    Entries are computed on first read; two devices sharing one
    :class:`GPUSpec` (frozen, hence hashable) share every entry, so a
    homogeneous fleet costs one model evaluation per input no matter
    how many copies of the card it holds — and ``round_robin``, which
    only ever reads ``[i][i % D]``, pays exactly one per input.
    """

    def __init__(self, model, inputs, engine, devices) -> None:
        self._model = model
        self._inputs = inputs
        self._engine = engine
        self._devices = devices
        self._memo: dict = {}

    @property
    def evaluations(self) -> int:
        """Model evaluations actually performed (memo size)."""
        return len(self._memo)

    def __call__(self, i: int, d: int) -> float:
        key = (i, self._devices[d])
        if key not in self._memo:
            self._memo[key] = _latency(
                self._model, self._inputs[i], self._engine, self._devices[d]
            )
        return self._memo[key]

    def mean_over_devices(self, i: int) -> float:
        return sum(self(i, d) for d in range(len(self._devices))) / len(
            self._devices
        )


def least_loaded(
    loads: Sequence[float], eligible: Sequence[bool] | None = None
) -> int:
    """Index of the least-loaded eligible device (ties go lowest index).

    The placement primitive of the serving layer's dispatch and
    hedging.  Raises ``ValueError`` when no device is eligible.
    """
    # one pass, keeping the first device no later one strictly beats:
    # the same pick as ``min`` over ``(load, index)`` keys, NaN included
    best = -1
    best_load = 0.0
    for d, load in enumerate(loads):
        if (eligible is None or eligible[d]) and (best < 0 or load < best_load):
            best, best_load = d, load
    if best < 0:
        raise ValueError("no eligible device")
    return best


def device_labels(devices: Sequence[GPUSpec]) -> list:
    """Display labels, disambiguating duplicate names (``"X #k"``)."""
    names = [d.name for d in devices]
    return [
        f"{n} #{k}" if names.count(n) > 1 else n
        for k, n in enumerate(names)
    ]


def shard_inference(
    model: Module,
    inputs: Sequence[SparseTensor],
    engine: BaseEngine,
    devices: Sequence[GPUSpec],
    policy: str = "greedy",
    healthy: Sequence[bool] | None = None,
) -> ShardResult:
    """Assign inputs to devices and report the makespan.

    Policies:
        * ``round_robin`` — input ``i`` to healthy device ``i % H``
          (rotation over the healthy subset);
        * ``greedy`` — longest-processing-time-first onto the device
          with the least accumulated time, weighted by device speed
          (the classic LPT heuristic; better on heterogeneous fleets).

    ``healthy`` masks out quarantined devices: they receive no
    assignments but keep their (empty) rows in the result, so fleet
    shape is stable across health transitions.
    """
    if not inputs:
        raise ValueError("need at least one input")
    if not devices:
        raise ValueError("need at least one device")
    if policy not in ("round_robin", "greedy"):
        raise ValueError(f"unknown policy {policy!r}")
    if healthy is not None and len(healthy) != len(devices):
        raise ValueError(
            f"healthy mask has {len(healthy)} entries for "
            f"{len(devices)} devices"
        )
    mask = [True] * len(devices) if healthy is None else [bool(h) for h in healthy]
    able = [d for d in range(len(devices)) if mask[d]]
    if not able:
        raise ValueError("no healthy device")

    lat = LazyLatencyMatrix(model, inputs, engine, devices)
    loads = [0.0] * len(devices)
    assign: list[list[int]] = [[] for _ in devices]
    samples: list[list[float]] = [[] for _ in devices]

    def place(i: int, d: int) -> None:
        t = lat(i, d)
        loads[d] += t
        assign[d].append(i)
        samples[d].append(t)

    if policy == "round_robin":
        for i in range(len(inputs)):
            place(i, able[i % len(able)])
    else:
        # LPT by mean latency, placed to minimize the resulting load
        order = sorted(
            range(len(inputs)), key=lambda i: -lat.mean_over_devices(i)
        )
        for i in order:
            best = min(able, key=lambda d: (loads[d] + lat(i, d), d))
            place(i, best)

    labels = device_labels(devices)
    return ShardResult(
        per_device=dict(zip(labels, loads)),
        assignments={label: a for label, a in zip(labels, assign)},
        makespan=max(loads),
        total_inputs=len(inputs),
        latencies={
            label: tuple(s) for label, s in zip(labels, samples)
        },
    )


def data_parallel_batch(
    model: Module,
    batched: SparseTensor,
    engine: BaseEngine,
    devices: Sequence[GPUSpec],
) -> ShardResult:
    """Split a batched tensor across devices, one batch element at a
    time (greedy placement)."""
    from repro.datasets.collate import batch_split

    singles = batch_split(batched)
    return shard_inference(model, singles, engine, devices, policy="greedy")
