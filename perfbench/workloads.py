"""The five workloads and the code that runs them in-process.

Engine workloads are a closed loop: one caller, each frame starting when
the previous one returns.  Serve workloads are simulated open-loop
Poisson traffic; their latencies are sim-clock seconds from each
request's arrival.  All inputs are generated from the seed before the
timed phase starts, and every timed phase first covers its whole input
set once, so the modeled and simulated numbers are a function of the
seed alone — host speed only changes how many extra repetitions fit in
``seconds``.

The host clock of a shared machine drifts by tens of percent, for
seconds to minutes at a time.  So every repetition of a timed unit (a
frame, a campaign's event loop) is taken to a reference machine speed
by the calibration probes run just before and after it
(:mod:`perfbench.calibration`); a unit's host time is the median of its
repetitions, and the host metrics are the median and the sum over units
of those.  The units are few and short — four frames, eight campaigns
of a few thousand requests — so each repeats several times in a run.
Peak memory is read once the first pass over the frames (or the first
campaign) is done, so it too depends on the seed alone and not on how
many repetitions followed.

:func:`run` returns plain dicts: ``end_to_end`` and ``per_layer`` metric
values, ``samples`` (the count behind each end-to-end value), and the
``attempted``/``failed`` tallies of the output-correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.engine import BaselineEngine, ExecutionContext, TorchSparseEngine
from repro.core.sparse_tensor import SparseTensor
from repro.gpu.device import GPU_REGISTRY, RTX_2080TI
from repro.gpu.timeline import STAGES
from repro.mapping.cache import MappingCache
from repro.models import MODEL_ZOO
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.timeline import TimelineRecorder, validate_journal
from repro.profiling.parallel import device_labels
from repro.profiling.report import percentile
from repro.robust.faults import FaultInjector, FaultSpec
from repro.robust.tolerance import END_TO_END
from repro.serve import BatchingConfig, ServeConfig, TrafficConfig, run_serve_campaign
from repro.serve.request import COMPLETED, DEADLINE_EXCEEDED, SHED, HedgePolicy, RetryPolicy

from perfbench.calibration import SpeedProbe
from perfbench.tracing import patched

#: The modeled clock of every engine workload.
ENGINE_DEVICE = RTX_2080TI

#: Set-up repetitions per run; ``setup_s`` reports their median.  A
#: serve set-up is a campaign that prices its fleet from scratch.
SETUP_REPS = 3

#: Share of each engine scan's voxels a seeded LiDAR dropout removes.
DROPOUT = 0.02

#: Distinct campaigns per serve run, each with its own traffic seed.
CAMPAIGNS = 8

#: Voxel scale of the scan every serve fleet prices its latencies on.
SERVE_SCALE = 0.1

#: Seed of the serve fleet (pricing scan and server RNG); the run seed
#: drives only the traffic and the fault injector.
FLEET_SEED = 0


@dataclass(frozen=True)
class EngineWorkload:
    """Frames of one zoo model through the TorchSparse engine.

    The workload's dataset is a fixed pool of ``scans`` scenes (scene
    seeds ``0 .. scans-1``), every one of them in every run: the scene
    mix, which sets the cost, is part of the workload.  The run seed
    draws which voxels drop out (:data:`DROPOUT`), so no two seeds feed
    the engine the same coordinates.

    ``warm=False``: each scan runs with a fresh execution context (the
    cold path).  ``warm=True``: steady-state streams — each scan is
    primed once into its own :class:`~repro.mapping.cache.MappingCache`
    (one scene's tables already take ~100 MB of the default 256 MB
    budget, so one shared cache would thrash); its timed frame has the
    same coordinates and fresh seeded features (the frame rule of
    ``run_steady_state``).
    """

    name: str
    model: str
    scale: float
    scans: int
    warm: bool = False


@dataclass(frozen=True)
class ServeWorkload:
    """:data:`CAMPAIGNS` seeded serve campaigns over one fixed fleet."""

    name: str
    devices: tuple
    models: tuple
    rate: float
    duration: float
    crashes: int
    stall: bool = False
    steady_state: bool = False
    max_batch: int = 0
    coherence: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("kitti-seg-cold", "minkunet_1.0x_kitti", 0.2, scans=4),
        EngineWorkload("waymo-det-cold", "centerpoint_3f_waymo", 0.15, scans=4),
        EngineWorkload("waymo-det-warm", "centerpoint_3f_waymo", 0.15, scans=4,
                       warm=True),
        ServeWorkload(
            "serve-solo-faults",
            devices=("2080ti", "2080ti", "3090", "1080ti"),
            models=("minkunet_0.5x_kitti", "centerpoint_1f_waymo"),
            rate=2000.0,
            duration=1.25,
            crashes=5,
            stall=True,
        ),
        ServeWorkload(
            "serve-batched-light",
            devices=("3090",) * 4,
            models=("minkunet_0.5x_kitti",),
            rate=1000.0,
            duration=2.0,
            crashes=4,
            steady_state=True,
            max_batch=4,
            coherence=0.8,
        ),
    )
}

#: Serve-only per-layer metrics (zero on engine workloads).
SIM_METRICS = (
    "serve.sim.latency_ms_p99",
    "serve.sim.slo_attainment",
    "serve.sim.queue_wait_ms_mean",
    "serve.sim.queue_wait_ms_p99",
    "serve.sim.batch_hold_ms_p50",
    "serve.sim.attempts_per_req",
    "serve.sim.hedge_win_frac",
    "serve.sim.shed_frac",
    "serve.sim.device_busy_frac",
    "serve.sim.batch_mean_size",
    "serve.sim.batch_occupancy",
    "serve.sim.warm_frac",
)

#: Engine-only per-layer metrics (zero on serve workloads).
ENGINE_METRICS = tuple(f"gpu.stage.{s}_ms" for s in STAGES) + (
    "gpu.gemm.flops",
    "gpu.gemm.launches",
    "gpu.gemm.useful_frac",
    "gpu.mem.bytes_moved",
    "mapping.cache.hit_frac",
    "mapping.cache.evictions",
)


def campaign_seed(seed: int, i: int) -> int:
    """Traffic and fault seed of the ``i``-th campaign of a run."""
    return seed * 1000 + i


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _region(recorder, name: str, trace_id: str):
    return recorder.region(name, trace_id) if recorder else nullcontext()


def _paused(recorder):
    return recorder.paused() if recorder else nullcontext()


def _zoo(key: str):
    for entry in MODEL_ZOO:
        if entry.key == key:
            return entry
    raise ValueError(f"unknown zoo model {key!r}")


def run(w, seed: int, seconds: float, recorder=None, import_s: float = 0.0) -> dict:
    """Run workload ``w`` for at least ``seconds`` of timed work.

    ``recorder`` (an installed :class:`~perfbench.tracing.SpanRecorder`)
    receives the frame / campaign / set-up region spans.  The timed
    phase starts after the :data:`SETUP_REPS` set-ups.  Host times are
    reported at the reference speed of :mod:`perfbench.calibration`;
    ``info["measured"]`` keeps them as measured.
    """
    if isinstance(w, EngineWorkload):
        return run_engine(w, seed, seconds, recorder, import_s)
    return run_serve(w, seed, seconds, recorder, import_s)


def host_metrics(setup_s: float, probe: SpeedProbe, scaled: list, measured: list,
                 work: float) -> tuple:
    """``(end_to_end, info)`` host-clock values from the per-unit lists
    of repetition times, at reference speed and as measured.

    A unit's time is the median of its repetitions; ``host_ms_p50`` is
    the median over units and ``host_items_per_s`` the ``work`` (frames
    or requests) over their sum.
    """
    def summary(reps: list, setup: float) -> dict:
        unit = [statistics.median(r) for r in reps]
        return {"setup_s": setup, "host_items_per_s": work / sum(unit),
                "host_ms_p50": statistics.median(unit) * 1e3}

    return (summary(scaled, setup_s * probe.scale()),
            {"measured": summary(measured, setup_s), "probes": len(probe.times),
             "probe_ms_p50": statistics.median(probe.times) * 1e3})


# -- engine workloads ---------------------------------------------------------


def make_frames(w: EngineWorkload, dataset, seed: int) -> tuple:
    """``(scenes, frames)``: the scans to prime (none on the cold path)
    and the timed frames, frame ``k`` belonging to scene ``k``.

    Every scan of the pool, in pool order, each losing a seeded
    :data:`DROPOUT` share of its voxels.  A warm frame keeps its scene's
    coordinates and draws fresh seeded features.  (The order stays fixed
    because peak memory depends on which scene is primed last.)
    """
    rng = np.random.default_rng(seed)
    scans = []
    for j in range(w.scans):
        x = dataset.sample_tensor(seed=j, scale=w.scale)
        keep = rng.random(x.coords.shape[0]) >= DROPOUT
        scans.append(SparseTensor(x.coords[keep], x.feats[keep], stride=x.stride))
    if not w.warm:
        return [], scans
    frames = [
        x.replace_feats(rng.standard_normal(x.feats.shape).astype(x.feats.dtype))
        for x in scans
    ]
    return scans, frames


def primary_output(out) -> np.ndarray:
    """The array the correctness gate compares: segmentation logits
    (``feats``) or the detection heatmap."""
    return out.feats if isinstance(out, SparseTensor) else out["heatmap"]


def output_ok(model, x: SparseTensor, out) -> bool:
    """Finite, and shaped as the model's contract says."""
    y = primary_output(out)
    if isinstance(out, SparseTensor):
        shaped = y.shape == (x.coords.shape[0], model.num_classes)
    else:
        shaped = y.ndim == 3 and y.shape[2] == model.num_classes and y.size > 0
    return shaped and bool(np.isfinite(y).all())


def run_engine(w: EngineWorkload, seed, seconds, recorder, import_s):
    entry = _zoo(w.model)
    setup = []
    for r in range(SETUP_REPS):
        with _region(recorder, "setup", f"setup-{r}"):
            t0 = time.perf_counter()
            model = entry.make_model()
            scenes, frames = make_frames(w, entry.make_dataset(), seed)
            setup.append(time.perf_counter() - t0)
    engine = TorchSparseEngine()
    caches = [MappingCache() for _ in scenes]
    # filling the mapping caches is set-up each stream pays once; it is
    # left out of the layer spans, which cover the steady-state frames.
    # The cold path has no caches to fill, so one untimed frame stands in
    # for priming: it pays the process's first-frame costs (allocator
    # growth, first-touch pages) that would otherwise land on frame 0
    with _region(recorder, "prime", "prime"), _paused(recorder):
        t0 = time.perf_counter()
        for x, cache in zip(scenes, caches) if scenes else [(frames[0], None)]:
            model(x, ExecutionContext(engine=engine, device=ENGINE_DEVICE,
                                      mapcache=cache))
        prime_s = time.perf_counter() - t0

    n = len(frames)
    measured, scaled = [[] for _ in frames], [[] for _ in frames]
    ok, modeled = [], []
    stages = dict.fromkeys(STAGES, 0.0)
    kept = {}
    probe = SpeedProbe()
    with use_registry(MetricsRegistry()) as reg:
        t_begin = time.perf_counter()
        probe.measure()
        i = 0
        while i < n or time.perf_counter() - t_begin < seconds:
            k = i % n
            cache = caches[k] if caches else None
            ctx = ExecutionContext(engine=engine, device=ENGINE_DEVICE, mapcache=cache)
            with _region(recorder, "frame", f"frame-{i:04d}"):
                t0 = time.perf_counter()
                out = model(frames[k], ctx)
                t = time.perf_counter() - t0
            measured[k].append(t)
            scaled[k].append(probe.scaled(t))
            ok.append(output_ok(model, frames[k], out))
            if i < n:
                modeled.append(ctx.profile.total_time)
                for stage, t in ctx.profile.stage_times().items():
                    stages[stage] += t
                if k in (0, n - 1):
                    kept[k] = primary_output(out)
                if i == n - 1:
                    rss = peak_rss_mb()
            i += 1

    # the gate's reference: first and last frames under the unoptimized
    # FP32 engine, cold (no mapping cache), untraced
    bad = set()
    with _paused(recorder):
        reference = BaselineEngine()
        for k in sorted(kept):
            ref = model(frames[k], ExecutionContext(engine=reference, device=ENGINE_DEVICE))
            if not END_TO_END.allclose(kept[k], primary_output(ref)):
                bad.add(k)
    failed = sum(1 for i, good in enumerate(ok) if not good or i % n in bad)

    counts = reg.scalars()

    def total(prefix: str) -> float:
        return sum(v for key, v in counts.items() if key.split("{")[0] == prefix)

    frames_run = len(ok)
    hits, misses = total("mapcache.hits"), total("mapcache.misses")
    flops = total("gemm.flops")
    layers = dict.fromkeys(SIM_METRICS, 0.0)
    layers.update({f"gpu.stage.{s}_ms": stages[s] / n * 1e3 for s in STAGES})
    layers.update({
        "gpu.gemm.flops": flops / frames_run,
        "gpu.gemm.launches": total("gemm.launches") / frames_run,
        "gpu.gemm.useful_frac": total("gemm.useful_flops") / flops if flops else 0.0,
        "gpu.mem.bytes_moved": total("mem.bytes_moved") / frames_run,
        "mapping.cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "mapping.cache.evictions": total("mapcache.evictions"),
    })
    host, info = host_metrics(import_s + statistics.median(setup) + prime_s,
                              probe, scaled, measured, n)
    return {
        "attempted": frames_run,
        "failed": failed,
        "end_to_end": {
            **host,
            "peak_rss_mb": rss,
            "modeled_ms_p50": statistics.median(modeled) * 1e3,
            "modeled_ms_mean": statistics.fmean(modeled) * 1e3,
        },
        "samples": {
            "setup_s": len(setup),
            "host_items_per_s": n,
            "host_ms_p50": n,
            "modeled_ms_p50": n,
            "modeled_ms_mean": n,
        },
        "per_layer": layers,
        "info": {**info, "import_s": import_s, "prime_s": prime_s,
                 "setup_reps_s": setup, "frames_run": frames_run},
    }


# -- serve workloads ----------------------------------------------------------


def campaign(w: ServeWorkload, seed: int) -> tuple:
    """``(ServeConfig, TrafficConfig, FaultInjector)`` of one campaign."""
    devices = tuple(GPU_REGISTRY[d] for d in w.devices)
    config = ServeConfig(
        devices=devices,
        scale=SERVE_SCALE,
        seed=FLEET_SEED,
        retry=RetryPolicy(max_retries=2),
        hedge=HedgePolicy(enabled=True),
        steady_state=w.steady_state,
        batching=BatchingConfig(max_batch=w.max_batch) if w.max_batch else None,
    )
    traffic = TrafficConfig(
        rate=w.rate, duration=w.duration, models=w.models, seed=seed,
        coherence=w.coherence,
    )
    specs = [FaultSpec(kind="device_crash", count=w.crashes)]
    if w.stall:
        # a sticky straggler on the last fleet slot, as `repro-bench serve`
        specs.append(FaultSpec(kind="device_stall", site=device_labels(devices)[-1],
                               count=-1, severity=0.1))
    return config, traffic, FaultInjector(seed=seed, specs=specs)


def sim_summary(report, events: list) -> dict:
    """The deterministic outcome of one campaign, as poolable raw values."""
    first_wait = {}
    for e in events:
        if e["kind"] == "dequeue" and e["request"] not in first_wait:
            first_wait[e["request"]] = e["attrs"]["wait"]
    return {
        "latencies": [r.latency for r in report.requests
                      if r.state in (COMPLETED, DEADLINE_EXCEEDED)
                      and r.latency is not None],
        "waits": list(first_wait.values()),
        "holds": [e["attrs"]["held"] for e in events if e["kind"] == "batch_formed"],
        "total": report.total,
        "completed": report.count(COMPLETED),
        "shed": report.count(SHED),
        "attempts": report.attempts,
        "hedges": report.hedges_launched,
        "hedges_won": report.hedges_won,
        "busy": sum(u["busy_time"] for u in report.utilization.values()),
        "capacity": len(report.utilization) * report.end_time,
        "batches": report.batches_dispatched,
        "batched": report.batched_members,
        "warm": report.warm_dispatches,
        "dispatches": report.warm_dispatches + report.cold_dispatches,
    }


def _pooled(sims: list) -> dict:
    pool = {k: [] for k in ("latencies", "waits", "holds")}
    sums: dict = {}
    for s in sims:
        for k, v in s.items():
            if k in pool:
                pool[k].extend(v)
            else:
                sums[k] = sums.get(k, 0) + v
    pool.update(sums)
    return pool


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_serve(w: ServeWorkload, seed, seconds, recorder, import_s):
    # Server.run's entry and exit split each campaign into set-up (model
    # build, scan, latency-oracle pricing) and the event loop
    marks = {}

    def timed(fn, _):
        def run_timed(self, requests):
            marks["enter"] = time.perf_counter()
            try:
                return fn(self, requests)
            finally:
                marks["exit"] = time.perf_counter()
        return run_timed

    # every campaign of a run serves the same fleet, so one priced oracle
    # serves them all: only the SETUP_REPS set-up campaigns price it anew
    fleet = {}

    def priced_once(cls, _):
        def oracle(*args, **kwargs):
            if "oracle" not in fleet:
                fleet["oracle"] = cls(*args, **kwargs)
            return fleet["oracle"]
        return oracle

    m = CAMPAIGNS
    seeds = [campaign_seed(seed, c) for c in range(m)]
    sims, digests = [None] * m, [None] * m
    measured, scaled = [[] for _ in seeds], [[] for _ in seeds]
    setup, validate = [], []
    tally = {"attempted": 0, "failed": 0}
    probe = SpeedProbe()

    def serve(i: int) -> None:
        c = i % m
        config, traffic, injector = campaign(w, seeds[c])
        journal = TimelineRecorder()
        with _region(recorder, "campaign", f"campaign-{i}"):
            with use_registry(MetricsRegistry()):
                t0 = time.perf_counter()
                report = run_serve_campaign(config, traffic, injector=injector,
                                            recorder=journal)
            if i < SETUP_REPS:
                setup.append(marks["enter"] - t0)
            t = marks["exit"] - marks["enter"]
            measured[c].append(t)
            scaled[c].append(probe.scaled(t))
            with recorder.span("obs.timeline.validate") if recorder else nullcontext():
                t0 = time.perf_counter()
                problems = validate_journal(journal.header(), journal.events)
                validate.append(time.perf_counter() - t0)
        digest = hashlib.sha256(
            json.dumps(report.to_json(), sort_keys=True).encode()
        ).hexdigest()
        if problems:
            bad = report.total
        else:
            bad = sum(not r.terminal for r in report.requests)
            bad += report.corrupted_completions
        if digests[c] is None:
            sims[c], digests[c] = sim_summary(report, journal.events), digest
        elif digest != digests[c]:
            bad = report.total  # a same-seed repeat must replay exactly
        tally["attempted"] += report.total
        tally["failed"] += min(bad, report.total)

    with patched([("repro.serve.server", "Server.run")], timed), \
            patched([("repro.serve.server", "LatencyOracle")], priced_once):
        probe.measure()
        for i in range(SETUP_REPS):
            fleet.clear()
            serve(i)
            if i == 0:
                rss = peak_rss_mb()
        t_begin = time.perf_counter()
        i = SETUP_REPS
        while i < m or time.perf_counter() - t_begin < seconds:
            serve(i)
            i += 1
    attempted, failed = tally["attempted"], tally["failed"]

    p = _pooled(sims)
    lat = p["latencies"]
    layers = dict.fromkeys(ENGINE_METRICS, 0.0)
    # the program's percentile is a traced layer; the benchmark's own
    # arithmetic must not count as calls to it
    with _paused(recorder):
        layers.update({
            "serve.sim.latency_ms_p99": percentile(lat, 99.0) * 1e3,
            "serve.sim.slo_attainment": _ratio(p["completed"], p["total"]),
            "serve.sim.queue_wait_ms_mean": _ratio(sum(p["waits"]), len(p["waits"])) * 1e3,
            "serve.sim.queue_wait_ms_p99": percentile(p["waits"], 99.0) * 1e3,
            "serve.sim.batch_hold_ms_p50": percentile(p["holds"], 50.0) * 1e3,
            "serve.sim.attempts_per_req": _ratio(p["attempts"], p["total"]),
            "serve.sim.hedge_win_frac": _ratio(p["hedges_won"], p["hedges"]),
            "serve.sim.shed_frac": _ratio(p["shed"], p["total"]),
            "serve.sim.device_busy_frac": _ratio(p["busy"], p["capacity"]),
            "serve.sim.batch_mean_size": _ratio(p["batched"], p["batches"]),
            "serve.sim.batch_occupancy": _ratio(p["batched"], p["batches"] * w.max_batch),
            "serve.sim.warm_frac": _ratio(p["warm"], p["dispatches"]),
        })
        modeled_p50 = percentile(lat, 50.0)
    host, info = host_metrics(import_s + statistics.median(setup), probe, scaled,
                              measured, p["total"])
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            **host,
            "peak_rss_mb": rss,
            "modeled_ms_p50": modeled_p50 * 1e3,
            "modeled_ms_mean": statistics.fmean(lat) * 1e3,
        },
        "samples": {
            "setup_s": len(setup),
            "host_items_per_s": m,
            "host_ms_p50": m,
            "modeled_ms_p50": len(lat),
            "modeled_ms_mean": len(lat),
        },
        "per_layer": layers,
        "info": {**info, "import_s": import_s, "setup_reps_s": setup,
                 "validate_s": validate, "campaigns_run": i},
    }
