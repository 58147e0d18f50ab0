"""Command-line interface.

Subcommands::

    repro-bench info                      # list models, engines, devices
    repro-bench bench --model minkunet_1.0x_kitti --engine torchsparse
    repro-bench compare --model centerpoint_3f_waymo --device 3090
    repro-bench tune --model minkunet_0.5x_kitti --out strategies.json
    repro-bench regress --model minkunet_0.5x_kitti --baseline base.json
    repro-bench chaos --seeds 3 --json chaos.json
    repro-bench serve --faults device_crash,device_stall --json serve.json
    repro-bench integrity --seeds 3 --json integrity.json
    repro-bench store stats --dir fleet-store
    repro-bench store scrub --dir fleet-store

``bench`` can export observability artifacts: ``--trace`` writes a
nested-span Chrome trace (open in Perfetto), ``--metrics`` a JSONL
metrics dump, ``--json`` a machine-readable snapshot, ``--report`` a
per-layer breakdown.  ``regress`` snapshots a baseline on first run and
on later runs exits nonzero when modeled latency, stage times, or any
gated metric drifts past tolerance, or when the baseline was taken
under another model, engine, device, scale, sample count or seed.
``chaos`` runs seeded fault-injection campaigns end to end (see
:mod:`repro.robust.chaos`) and exits nonzero unless every trial
survives with bit-exact recovery.
``serve`` drives a simulated-clock serving campaign — Poisson traffic
over a device fleet with deadlines, retry/hedging, and fleet health
(see :mod:`repro.serve`) — and exits nonzero on any non-terminal
request or SLO attainment below ``--slo-floor``.  ``integrity`` runs
the seeded silent-data-corruption campaign against the ABFT verifier
(:mod:`repro.robust.integrity`): bit flips in feature/weight buffers
crossed with storage dtypes, measuring detection recall and
false-positive rate, plus clean control runs asserting that verified
output is bit-exact with the unverified engine.  ``store`` manages a
durable artifact store (:mod:`repro.persist`): ``stats`` snapshots it,
``verify`` re-checksums every entry (exit 1 on corruption), ``scrub``
evicts anything unverifiable and compacts the manifest, ``purge``
empties it; ``serve --store DIR --spares N`` runs a fleet whose DEAD
devices are replaced by spares warm-started from the shared store.

All latencies are modeled on the selected device spec (see
``repro.gpu``); wall-clock on the host is reported separately.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from repro.baselines import MinkowskiEngineLike, SpConvLike
from repro.core.engine import BaseEngine, BaselineEngine, TorchSparseEngine
from repro.core.tuner import load_strategy_book
from repro.gpu.device import CPU_16C, GPU_REGISTRY, GPUSpec
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.regress import (
    CHAOS_SCHEMA,
    DEFAULT_TOLERANCE,
    compare_snapshots,
    config_mismatch,
    format_report,
    load_snapshot,
    snapshot,
    write_snapshot,
)
from repro.models import MODEL_ZOO
from repro.profiling import format_table, run_model, tune_model
from repro.profiling.breakdown import format_breakdown
from repro.profiling.report import format_layer_report
from repro.profiling.runner import tuned_engine_config
from repro.profiling.trace import write_chrome_trace

ENGINE_FACTORIES = {
    "torchsparse": TorchSparseEngine,
    "minkowski": MinkowskiEngineLike,
    "spconv": SpConvLike,
    "spconv-fp32": lambda: SpConvLike(fp16=False),
    "baseline": BaselineEngine,
}

DEVICES: dict[str, GPUSpec] = {**GPU_REGISTRY, "cpu": CPU_16C}


def _csv(text: str, default=()) -> list:
    """The comma-separated items of ``text``; ``default`` when it is empty."""
    if not text:
        return list(default)
    return [item.strip() for item in text.split(",") if item.strip()]


def _zoo_entry(key: str):
    for e in MODEL_ZOO:
        if e.key == key:
            return e
    raise SystemExit(
        f"unknown model {key!r}; run 'repro-bench info' for the list"
    )


def _inputs(entry, scale: float, samples: int, seed: int):
    ds = entry.make_dataset()
    return [ds.sample_tensor(seed=seed + i, scale=scale) for i in range(samples)]


def cmd_info(_args) -> int:
    print("models:")
    for e in MODEL_ZOO:
        print(f"  {e.key:26s} {e.label}")
    print("engines: " + ", ".join(ENGINE_FACTORIES))
    print("devices: " + ", ".join(DEVICES))
    return 0


def _bench_once(args):
    """Run one bench under a fresh metrics registry.

    Returns ``(result, registry)``; every engine/kernel metric emitted
    during the run lands in the returned registry, isolated from any
    other run in the same process.
    """
    entry = _zoo_entry(args.model)
    device = DEVICES[args.device]
    engine = ENGINE_FACTORIES[args.engine]()
    if getattr(args, "strategies", None):
        book = load_strategy_book(args.strategies, fallback=True)
        if book is None:
            print(
                f"warning: could not load strategy book {args.strategies!r} "
                "(missing or corrupt); using the default per-layer strategy",
                file=sys.stderr,
            )
        else:
            engine.config = replace(engine.config, strategy_book=book)
    xs = _inputs(entry, args.scale, args.samples, args.seed)
    with use_registry(MetricsRegistry()) as reg:
        result = run_model(entry.make_model(), xs, engine, device)
    return entry, result, reg


STEADY_SCHEMA = "repro-bench.steady/1"


def cmd_bench_steady(args) -> int:
    """Temporal-coherence stream: one cold frame, then warm frames
    through the persistent content-addressed mapping cache."""
    from repro.profiling.runner import run_steady_state

    t0 = time.time()
    entry = _zoo_entry(args.model)
    device = DEVICES[args.device]
    engine = ENGINE_FACTORIES[args.engine]()
    x = entry.make_dataset().sample_tensor(seed=args.seed, scale=args.scale)
    with use_registry(MetricsRegistry()) as reg:
        result = run_steady_state(
            entry.make_model(), x, engine, device,
            frames=args.frames, seed=args.seed,
        )
    print(
        f"{entry.label} | {result.engine} on {result.device} "
        f"(scale {args.scale}, {result.frames} frames, seed {args.seed})"
    )
    print(
        f"cold frame {result.cold_latency * 1e3:.3f} ms "
        f"(mapping {result.cold_mapping * 1e3:.3f} ms) | "
        f"warm frames {result.warm_latency * 1e3:.3f} ms "
        f"(mapping {result.warm_mapping * 1e3:.3f} ms)"
    )
    print(
        f"warm reduction: end-to-end {result.latency_reduction:.1%}, "
        f"mapping {result.mapping_reduction:.1%} | "
        f"cache {result.cache_stats['entries']} entries, "
        f"{result.cache_stats['bytes'] / 1e6:.1f} MB | "
        f"host wall {time.time() - t0:.1f}s"
    )
    if args.metrics:
        reg.dump_jsonl(args.metrics)
        print(f"metrics JSONL written to {args.metrics}")
    if args.json:
        scalars = reg.scalars()
        write_snapshot(
            {
                "schema": STEADY_SCHEMA,
                "scale": args.scale,
                "seed": args.seed,
                **result.to_json(),
                "mapcache_metrics": {
                    k: v for k, v in sorted(scalars.items())
                    if k.startswith("mapcache.")
                },
            },
            args.json,
        )
        print(f"steady-state snapshot written to {args.json}")
    return 0


def cmd_bench(args) -> int:
    if args.steady_state:
        return cmd_bench_steady(args)
    t0 = time.time()
    entry, result, reg = _bench_once(args)
    print(
        f"{entry.label} | {result.engine} on {result.device} "
        f"(scale {args.scale}, {args.samples} samples)"
    )
    print(
        f"modeled latency {result.latency * 1e3:.3f} ms "
        f"({result.fps:.1f} FPS); host wall {time.time() - t0:.1f}s"
    )
    print(format_breakdown(result.profile))
    if args.report:
        print()
        print(format_layer_report(result.profile, title="per-layer breakdown"))
    if args.trace:
        write_chrome_trace(result.profile, args.trace)
        print(f"chrome trace written to {args.trace} (open in Perfetto)")
    if args.metrics:
        reg.dump_jsonl(args.metrics)
        print(f"metrics JSONL written to {args.metrics}")
    if args.json:
        snap = snapshot(
            model=args.model,
            engine=args.engine,
            device=args.device,
            latency=result.latency,
            profile=result.profile,
            registry=reg,
            extra={"scale": args.scale, "samples": args.samples,
                   "seed": args.seed},
        )
        write_snapshot(snap, args.json)
        print(f"snapshot written to {args.json}")
    return 0


def cmd_regress(args) -> int:
    _, result, reg = _bench_once(args)
    current = snapshot(
        model=args.model,
        engine=args.engine,
        device=args.device,
        latency=result.latency,
        profile=result.profile,
        registry=reg,
        extra={"scale": args.scale, "samples": args.samples,
               "seed": args.seed},
    )
    if args.update or not os.path.exists(args.baseline):
        write_snapshot(current, args.baseline)
        print(f"baseline written to {args.baseline}")
        return 0
    try:
        baseline = load_snapshot(args.baseline)
    except ValueError as e:
        raise SystemExit(str(e))
    mismatched = config_mismatch(baseline, current)
    if mismatched:
        print(f"FAIL baseline {args.baseline} is from another configuration:")
        for line in mismatched:
            print(f"  {line}")
        print("  (match its flags, or pass --update to rewrite it)")
        return 1
    tolerances = {}
    for spec in args.tol:
        key, _, tol = spec.rpartition("=")
        try:
            tolerances[key] = float(tol)
        except ValueError:
            key = ""
        if not key:
            raise SystemExit(f"--tol expects NAME=REL, got {spec!r}")
    drifts, failures, only = compare_snapshots(
        baseline, current, tolerance=args.tolerance, tolerances=tolerances
    )
    print(format_report(drifts, failures, only))
    return 1 if failures else 0


def cmd_compare(args) -> int:
    entry = _zoo_entry(args.model)
    device = DEVICES[args.device]
    xs = _inputs(entry, args.scale, args.samples, args.seed)
    model = entry.make_model()
    rows = []
    base_fps = None
    for name, factory in ENGINE_FACTORIES.items():
        r = run_model(model, xs, factory(), device)
        if base_fps is None:
            base_fps = r.fps
        rows.append(
            [name, f"{r.latency * 1e3:.3f}", f"{r.fps:.1f}",
             f"{r.fps / base_fps:.2f}"]
        )
    print(
        format_table(
            ["engine", "latency (ms)", "FPS", "vs torchsparse"],
            rows,
            title=f"{entry.label} on {device.name}",
        )
    )
    return 0


def cmd_tune(args) -> int:
    entry = _zoo_entry(args.model)
    device = DEVICES[args.device]
    xs = _inputs(entry, args.scale, args.samples, args.seed)
    model = entry.make_model()
    book = tune_model(model, xs, device)
    with open(args.out, "w") as f:
        f.write(book.dumps())
    print(f"tuned {len(book.layers)} layers; strategies written to {args.out}")
    if getattr(args, "store", None):
        from repro.persist import ArtifactStore

        store = ArtifactStore(args.store)
        key = book.save_to_store(store, args.model)
        print(
            f"strategy book persisted to store {args.store} "
            f"(key {key}, device {book.device_name!r})"
        )
    tuned = run_model(model, xs, BaseEngine(tuned_engine_config(book)), device)
    plain = run_model(model, xs, TorchSparseEngine(), device)
    print(
        f"modeled latency: tuned {tuned.latency * 1e3:.3f} ms vs "
        f"default {plain.latency * 1e3:.3f} ms"
    )
    return 0


def cmd_chaos(args) -> int:
    from repro.robust.chaos import PRESETS, run_campaign
    from repro.robust.faults import PIPELINE_FAULT_KINDS

    kinds = _csv(args.kinds, PIPELINE_FAULT_KINDS)
    presets = _csv(args.presets, PRESETS)
    seeds = [args.seed + i for i in range(args.seeds)]
    t0 = time.time()
    try:
        report = run_campaign(
            kinds=kinds, presets=presets, seeds=seeds,
            degrade=not args.no_degrade,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    mark = {True: "yes", False: "NO", None: "-"}
    rows = [
        [
            t.kind,
            t.preset,
            str(t.seed),
            str(t.shots),
            mark[t.survived],
            ",".join(sorted(set(t.degraded_layers.values()))) or "-",
            mark[t.bitexact],
            "ok" if t.ok else ("typed" if t.error_kind else "FAIL"),
        ]
        for t in report.trials
    ]
    mode = "detect-only" if args.no_degrade else "graceful degradation"
    print(
        format_table(
            ["fault", "preset", "seed", "shots", "survived", "rungs",
             "bitexact", "status"],
            rows,
            title=f"chaos campaign ({mode})",
        )
    )
    mix = (
        ", ".join(f"{k} x{v}" for k, v in sorted(report.degradation_mix.items()))
        or "none"
    )
    probes = ", ".join(
        f"{k}={'ok' if v else 'FAIL'}" for k, v in report.reference_ok.items()
    )
    print(
        f"survival {report.survival_rate:.0%} | ok {report.ok_rate:.0%} | "
        f"degradation mix: {mix} | reference probes: {probes} | "
        f"host wall {time.time() - t0:.1f}s"
    )
    if args.json:
        write_snapshot({"schema": CHAOS_SCHEMA, **report.to_json()}, args.json)
        print(f"chaos report written to {args.json}")
    return 0 if report.passed else 1


def cmd_integrity(args) -> int:
    from repro.robust.integrity import (
        DTYPE_PRESET_KEYS,
        INTEGRITY_SCHEMA,
        run_integrity_campaign,
    )
    from repro.robust.faults import SDC_FAULT_KINDS

    kinds = _csv(args.kinds, SDC_FAULT_KINDS)
    dtypes = _csv(args.dtypes, DTYPE_PRESET_KEYS)
    seeds = [args.seed + i for i in range(args.seeds)]
    t0 = time.time()
    try:
        report = run_integrity_campaign(
            kinds=kinds, dtypes=dtypes, seeds=seeds, severity=args.severity
        )
    except ValueError as e:
        raise SystemExit(str(e))
    mark = {True: "yes", False: "NO"}
    rows = [
        [
            t.kind,
            t.dtype,
            str(t.seed),
            str(t.shots),
            str(t.detected),
            mark[t.caught],
            mark[t.survived],
            ",".join(sorted(set(t.recovered_layers.values()))) or "-",
            "ok" if t.ok else "FAIL",
        ]
        for t in report.trials
    ]
    print(
        format_table(
            ["fault", "dtype", "seed", "shots", "detected", "caught",
             "survived", "rungs", "status"],
            rows,
            title="integrity campaign (ABFT verification)",
        )
    )
    clean = ", ".join(
        f"{p.dtype}: {p.false_positives}/{p.checks} FP, "
        f"bitexact={'yes' if p.bitexact else 'NO'}, "
        f"ref={'ok' if p.reference_ok else 'FAIL'}"
        for p in report.clean
    )
    recall = ", ".join(
        f"{k}={v:.0%}" for k, v in sorted(report.recall_by_kind.items())
    )
    print(f"clean probes: {clean}")
    print(
        f"recall {report.recall:.0%} ({recall or 'no shots'}) | "
        f"fp32 false positives {report.fp32_false_positives} | "
        f"host wall {time.time() - t0:.1f}s"
    )
    # one verdict for both the JSON report and the exit status — a
    # custom --recall-floor must never make them disagree
    ok = report.gate(recall_floor=args.recall_floor)
    if args.json:
        write_snapshot(
            report.to_json(recall_floor=args.recall_floor), args.json
        )
        print(f"integrity report written to {args.json} "
              f"(schema {INTEGRITY_SCHEMA})")
    if not ok:
        print(
            f"FAIL: recall {report.recall:.3f} < floor {args.recall_floor:.3f}"
            if report.recall < args.recall_floor
            else "FAIL: clean-run false positive, non-bit-exact verified "
            "output, or unrecovered trial"
        )
    return 0 if ok else 1


def cmd_serve(args) -> int:
    from repro.obs.timeline import (
        EVENTS_SCHEMA,
        TimelineRecorder,
        validate_journal,
    )
    from repro.robust.brownout import BrownoutConfig
    from repro.robust.faults import (
        DOMAIN_FAULT_KINDS,
        SDC_FAULT_KINDS,
        SERVE_FAULT_KINDS,
        FaultInjector,
        FaultSpec,
    )
    from repro.serve import (
        BatchingConfig,
        ServeConfig,
        StormConfig,
        TrafficConfig,
        format_serve_report,
        run_serve_campaign,
    )
    from repro.serve.request import HedgePolicy, RetryPolicy

    models = _csv(args.models)
    for m in models:
        _zoo_entry(m)  # fail fast on typos
    devices = []
    for key in _csv(args.devices):
        if key not in DEVICES:
            raise SystemExit(
                f"unknown device {key!r}; expected one of {list(DEVICES)}"
            )
        devices.append(DEVICES[key])
    from repro.profiling.parallel import device_labels

    # the SDC bit-flip kinds are valid fleet faults too: a device starts
    # returning corrupted-but-finished results (checksum_mismatch has no
    # serving-layer site — it lives inside the pipeline verifier)
    serve_kinds = SERVE_FAULT_KINDS + SDC_FAULT_KINDS[:2] + DOMAIN_FAULT_KINDS
    kinds = _csv(args.faults)
    specs = []
    for kind in kinds:
        if kind not in serve_kinds:
            raise SystemExit(
                f"unknown serve fault {kind!r}; expected one of "
                f"{serve_kinds}"
            )
        if kind in DOMAIN_FAULT_KINDS:
            specs.append(
                FaultSpec(
                    kind=kind, site=args.outage_domain, count=1,
                    severity=args.outage_severity,
                )
            )
        elif kind in SDC_FAULT_KINDS:
            specs.append(FaultSpec(kind=kind, count=args.crashes))
        elif kind == "device_crash":
            specs.append(
                FaultSpec(
                    kind=kind, site=args.crash_site, count=args.crashes
                )
            )
        elif kind == "device_stall":
            # pin the sticky stall to the last fleet slot: one genuine
            # straggler card, not a uniform fleet-wide slowdown
            straggler = device_labels(devices)[-1]
            specs.append(
                FaultSpec(kind=kind, site=straggler, count=-1, severity=0.1)
            )
        else:  # queue_spike
            specs.append(FaultSpec(kind=kind, count=max(1, args.crashes // 2)))
    injector = FaultInjector(seed=args.seed, specs=specs) if specs else None

    try:
        config = ServeConfig(
            devices=tuple(devices),
            preset=args.preset,
            queue_capacity=args.queue_capacity,
            deadline_factor=args.deadline_factor,
            retry=RetryPolicy(max_retries=args.max_retries),
            hedge=HedgePolicy(enabled=not args.no_hedge),
            verify_integrity=not args.no_verify,
            scale=args.scale,
            seed=args.seed,
            steady_state=args.steady_state,
            max_probes=args.max_probes,
            slo_window=args.slo_window,
            slo_target=args.slo_target,
            brownout=(
                BrownoutConfig(
                    interval=args.brownout_interval,
                    max_level=args.brownout_max_level,
                )
                if args.brownout
                else None
            ),
            spares=args.spares,
            store_dir=args.store,
            domains=tuple(_csv(args.domains)) or None,
            storm=(
                StormConfig(
                    retry_budget=args.retry_budget,
                    retry_refill=args.retry_refill,
                )
                if args.storm
                else None
            ),
            domain_defense=not args.no_domain_defense,
            breaker_threshold=args.breaker_threshold,
            batching=(
                BatchingConfig(max_batch=args.max_batch)
                if args.max_batch != 1
                else None
            ),
        )
        traffic = TrafficConfig(
            rate=args.rate,
            duration=args.duration,
            models=tuple(models),
            seed=args.seed,
            coherence=args.coherence,
            shape=args.traffic_shape,
            peak_factor=args.peak_factor,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    recorder = TimelineRecorder() if args.events or args.trace else None
    t0 = time.time()
    with use_registry(MetricsRegistry()) as reg:
        report = run_serve_campaign(
            config, traffic, injector=injector, recorder=recorder
        )
    title = (
        f"serve campaign ({args.preset}, seed {args.seed}, "
        f"{args.rate:.0f} req/s x {args.duration:.2f}s"
    )
    if args.steady_state:
        title += f", coherence {args.coherence:.2f}"
    print(format_serve_report(report, title + ")"))
    print(
        f"fault shots {injector.shots if injector else 0} | "
        f"host wall {time.time() - t0:.1f}s"
    )
    if args.metrics:
        reg.dump_jsonl(args.metrics)
        print(f"metrics JSONL written to {args.metrics}")
    if args.prom:
        from repro.obs.exposition import write_prometheus

        write_prometheus(reg, args.prom)
        print(f"prometheus exposition written to {args.prom}")
    if recorder is not None:
        from repro.profiling.trace import write_serve_trace

        problems = validate_journal(recorder.header(), recorder.events)
        if problems:
            for p in problems[:10]:
                print(f"journal invariant violated: {p}", file=sys.stderr)
            raise SystemExit("flight-recorder journal failed validation")
        if args.events:
            recorder.write(args.events)
            print(
                f"event journal written to {args.events} "
                f"({len(recorder.events)} events, schema {EVENTS_SCHEMA})"
            )
        if args.trace:
            write_serve_trace(recorder.header(), recorder.events, args.trace)
            print(
                f"campaign trace written to {args.trace} (open in Perfetto)"
            )
    if args.json:
        write_snapshot(report.to_json(), args.json)
        print(f"serve report written to {args.json}")
    failure = report.failure(args.slo_floor, args.burn_ceiling)
    if failure:
        print(f"FAIL: {failure}")
    return 1 if failure else 0


def cmd_timeline(args) -> int:
    """Inspect, validate, and convert a flight-recorder event journal."""
    from collections import Counter as TallyCounter

    from repro.obs.timeline import (
        load_journal,
        request_timeline,
        validate_journal,
    )
    from repro.profiling.trace import write_serve_trace

    try:
        header, events = load_journal(args.events)
    except ValueError as e:
        raise SystemExit(str(e))
    problems = validate_journal(header, events)
    requests = {
        e["request"] for e in events if e.get("request") is not None
    }
    kinds = TallyCounter(e["kind"] for e in events)
    terminal_states = TallyCounter(
        e["attrs"]["state"] for e in events if e["kind"] == "terminal"
    )
    print(
        f"journal {args.events}: schema {header['schema']}, seed "
        f"{header.get('seed')}, {len(events)} events, "
        f"{len(requests)} requests, devices: "
        f"{', '.join(header.get('devices', [])) or '-'}"
    )
    print(
        "events: "
        + ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
    )
    print(
        "outcomes: "
        + (
            ", ".join(
                f"{k} x{v}" for k, v in sorted(terminal_states.items())
            )
            or "none"
        )
    )
    if args.request is not None:
        rows = request_timeline(events, args.request)
        if not rows:
            raise SystemExit(f"no events for request {args.request}")
        print(f"\ncausal timeline of request {args.request}:")
        for e in rows:
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(e.get("attrs", {}).items())
            )
            slack = e.get("slack")
            print(
                f"  t={e['t'] * 1e3:9.3f} ms  {e['kind']:16s} "
                f"dev={e.get('device') or '-':12s} "
                f"depth={e['queue_depth']:3d}  "
                f"slack={'-' if slack is None else f'{slack * 1e3:.3f} ms':>12s}"
                + (f"  [{attrs}]" if attrs else "")
            )
    if args.trace:
        write_serve_trace(header, events, args.trace)
        print(f"campaign trace written to {args.trace} (open in Perfetto)")
    if problems:
        print(f"\nINVALID: {len(problems)} lifecycle violations:")
        for p in problems[:20]:
            print(f"  {p}")
        return 1
    print("lifecycle: valid (every request one terminal state, "
          "monotonic sim clock, causal retry/hedge links)")
    return 0


def cmd_store(args) -> int:
    """Inspect and maintain a durable artifact store."""
    from repro.persist import ArtifactStore
    from repro.robust.errors import StoreCorruptionError

    if not os.path.isdir(args.dir):
        raise SystemExit(f"store directory {args.dir!r} does not exist")
    try:
        store = ArtifactStore(args.dir, create=False)
    except StoreCorruptionError as e:
        print(f"CORRUPT MANIFEST: {e}")
        return 1

    def show(payload: dict) -> None:
        # path-free, key-sorted output: two same-seed runs over
        # identical stores must print identical snapshots
        if args.json:
            write_snapshot(payload, args.json)
            print(f"store snapshot written to {args.json}")
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, dict):
                v = (
                    ", ".join(f"{kk}={vv}" for kk, vv in sorted(v.items()))
                    or "-"
                )
            elif isinstance(v, list):
                v = ", ".join(str(x) for x in v) or "-"
            print(f"  {k}: {v}")

    if args.action == "stats":
        print(f"store stats ({len(store.entries)} entries)")
        show(store.stats())
        return 0
    if args.action == "verify":
        report = store.verify()
        print(
            f"store verify: {report['ok']}/{report['checked']} entries ok, "
            f"{len(report['corrupt'])} corrupt"
        )
        show(
            {
                "checked": report["checked"],
                "ok": report["ok"],
                "corrupt": [
                    f"{c['kind']}:{c['key']}:{c['reason']}"
                    for c in report["corrupt"]
                ],
                "recovery": report["recovery"],
            }
        )
        return 1 if report["corrupt"] else 0
    if args.action == "scrub":
        result = store.scrub()
        print(
            f"store scrub: evicted {len(result['evicted'])}, "
            f"removed {result['orphans']} orphan blobs and "
            f"{result['tmp_files']} temp files"
        )
        show(
            {
                "evicted": sorted(result["evicted"]),
                "orphans": result["orphans"],
                "tmp_files": result["tmp_files"],
                **{"stats": store.stats()},
            }
        )
        return 0
    # purge
    count = store.purge()
    print(f"store purge: dropped {count} entries")
    show(store.stats())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list models, engines and devices")

    def common(p):
        p.add_argument("--model", required=True)
        p.add_argument("--device", choices=list(DEVICES), default="2080ti")
        p.add_argument("--scale", type=float, default=0.3)
        p.add_argument("--samples", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser(
        "bench",
        help="price one model under one engine (the printed host wall "
        "covers pricing only; perfbench records the numerics' host time)",
    )
    common(p_bench)
    p_bench.add_argument(
        "--engine", choices=list(ENGINE_FACTORIES), default="torchsparse"
    )
    p_bench.add_argument(
        "--trace", metavar="PATH",
        help="write a nested-span Chrome trace (open in Perfetto)",
    )
    p_bench.add_argument(
        "--metrics", metavar="PATH",
        help="dump the run's metrics registry as JSONL",
    )
    p_bench.add_argument(
        "--json", metavar="PATH",
        help="write a machine-readable snapshot of the run",
    )
    p_bench.add_argument(
        "--report", action="store_true",
        help="print the per-layer time/stage breakdown",
    )
    p_bench.add_argument(
        "--strategies", metavar="PATH",
        help="tuned strategy book (from 'tune'); a missing or corrupt "
        "file falls back to the default per-layer strategy with a warning",
    )
    p_bench.add_argument(
        "--steady-state", action="store_true",
        help="stream temporally coherent frames through the persistent "
        "content-addressed mapping cache: frame 0 cold, the rest warm "
        "(same coordinates, fresh features)",
    )
    p_bench.add_argument(
        "--frames", type=int, default=4,
        help="frames in the --steady-state stream (default %(default)s)",
    )

    p_cmp = sub.add_parser("compare", help="run one model under every engine")
    common(p_cmp)

    p_tune = sub.add_parser("tune", help="Algorithm 5 offline strategy search")
    common(p_tune)
    p_tune.add_argument("--out", default="strategies.json")
    p_tune.add_argument(
        "--store", metavar="DIR", default=None,
        help="also persist the tuned book into this durable artifact "
        "store (keyed by model + device), for fleet warm-starts",
    )

    p_reg = sub.add_parser(
        "regress", help="gate a bench run against a snapshot baseline"
    )
    common(p_reg)
    p_reg.add_argument(
        "--engine", choices=list(ENGINE_FACTORIES), default="torchsparse"
    )
    p_reg.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="baseline snapshot; created on first run, diffed afterwards",
    )
    p_reg.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    p_reg.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="default relative tolerance (default %(default)s)",
    )
    p_reg.add_argument(
        "--tol", action="append", default=[], metavar="NAME=REL",
        help="per-key tolerance override; NAME may be an fnmatch pattern "
        "(repeatable)",
    )

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign over the pipeline"
    )
    p_chaos.add_argument(
        "--kinds", default="",
        help="comma-separated fault kinds (default: all)",
    )
    p_chaos.add_argument(
        "--presets", default="",
        help="comma-separated engine presets (default: torchsparse,baseline)",
    )
    p_chaos.add_argument(
        "--seeds", type=int, default=3,
        help="seeds per (fault, preset) cell (default %(default)s)",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="base seed")
    p_chaos.add_argument(
        "--no-degrade", action="store_true",
        help="detection only: faults raise typed errors instead of "
        "degrading down the ladder",
    )
    p_chaos.add_argument(
        "--json", metavar="PATH",
        help="write the full campaign report as JSON "
        f"(schema {CHAOS_SCHEMA})",
    )

    p_serve = sub.add_parser(
        "serve",
        help="seeded serving campaign: deadline-aware admission, "
        "retry/hedging, fleet health",
    )
    p_serve.add_argument(
        "--models", default="minkunet_0.5x_kitti",
        help="comma-separated zoo models in the traffic mix",
    )
    p_serve.add_argument(
        "--devices", default="2080ti,2080ti,3090",
        help="comma-separated fleet (repeat a key for multiple cards)",
    )
    p_serve.add_argument(
        "--preset", choices=["torchsparse", "baseline"],
        default="torchsparse",
    )
    p_serve.add_argument(
        "--rate", type=float, default=250.0,
        help="mean Poisson arrivals per sim second (default %(default)s)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=1.0,
        help="arrival window, sim seconds (default %(default)s)",
    )
    p_serve.add_argument("--scale", type=float, default=0.15)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--queue-capacity", type=int, default=64)
    p_serve.add_argument(
        "--deadline-factor", type=float, default=10.0,
        help="per-request SLO: factor x base latency on the slowest card",
    )
    p_serve.add_argument("--max-retries", type=int, default=2)
    p_serve.add_argument(
        "--no-hedge", action="store_true",
        help="disable straggler hedging",
    )
    p_serve.add_argument(
        "--faults", default="",
        help="comma-separated serve fault kinds to inject "
        "(device_crash, device_stall, queue_spike, bitflip_feature, "
        "bitflip_weight, domain_outage, domain_degrade)",
    )
    p_serve.add_argument(
        "--domains", default="", metavar="D0,D1,...",
        help="comma-separated failure-domain label per device, aligned "
        "with --devices (e.g. rack0,rack0,rack1); empty keeps every "
        "device its own singleton domain",
    )
    p_serve.add_argument(
        "--outage-domain", default="", metavar="DOMAIN",
        help="pin domain_outage/domain_degrade windows to one domain "
        "label substring (default: any domain)",
    )
    p_serve.add_argument(
        "--outage-severity", type=float, default=0.05,
        help="severity of armed domain fault windows — scales the "
        "outage duration / degrade factor (default %(default)s)",
    )
    p_serve.add_argument(
        "--no-domain-defense", action="store_true",
        help="keep the correlated fault surface but react with only "
        "the flat per-device machinery (the undefended ablation arm)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=2,
        help="per-device failures before the device breaker "
        "quarantines it (default %(default)s)",
    )
    p_serve.add_argument(
        "--storm", action="store_true",
        help="engage the metastability defense: fleet-wide retry token "
        "bucket, deadline-aware retry admission, and hedge suppression "
        "while a domain breaker is open",
    )
    p_serve.add_argument(
        "--retry-budget", type=float, default=8.0,
        help="initial tokens in the storm defense's retry bucket "
        "(default %(default)s; needs --storm)",
    )
    p_serve.add_argument(
        "--retry-refill", type=float, default=0.1,
        help="retry tokens credited per successful completion "
        "(default %(default)s; needs --storm)",
    )
    p_serve.add_argument(
        "--no-verify", action="store_true",
        help="disable fleet integrity verification: corrupted results "
        "ship silently as completed (models the pre-ABFT hole)",
    )
    p_serve.add_argument(
        "--crashes", type=int, default=4,
        help="armed device_crash shots (default %(default)s); "
        "queue_spike bursts arm at half this",
    )
    p_serve.add_argument(
        "--crash-site", default="", metavar="LABEL",
        help="pin device_crash to one device label substring "
        "(default: any device); with --crashes -1 this kills the "
        "device, which is how to demo spare replacement",
    )
    p_serve.add_argument(
        "--max-probes", type=int, default=8,
        help="failed readmission probes before a quarantined device "
        "is declared DEAD (default %(default)s)",
    )
    p_serve.add_argument(
        "--slo-floor", type=float, default=0.0,
        help="exit nonzero when SLO attainment falls below this",
    )
    p_serve.add_argument(
        "--steady-state", action="store_true",
        help="per-device persistent mapping reuse: repeats of a "
        "(model, scene) pair on a device serve at the warm base latency",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=1,
        help="deadline-aware dynamic batching: an idle device coalesces "
        "up to N queued same-model requests into one batched attempt, "
        "closing the batch when the oldest member's slack minus the "
        "modeled batch service time hits zero (default %(default)s: "
        "one request per device, batching off)",
    )
    p_serve.add_argument(
        "--coherence", type=float, default=0.0,
        help="probability a request repeats its model's current scene "
        "(temporal coherence of the traffic; default %(default)s)",
    )
    p_serve.add_argument(
        "--traffic-shape", default="poisson",
        choices=("poisson", "diurnal", "flash", "tenants"),
        help="arrival shape: homogeneous poisson, diurnal ramp, flash "
        "crowd, or multi-tenant model-mix drift (default %(default)s)",
    )
    p_serve.add_argument(
        "--peak-factor", type=float, default=4.0,
        help="flash-crowd rate multiplier for --traffic-shape flash "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--brownout", action="store_true",
        help="engage the load-adaptive brownout controller: under queue "
        "or burn-rate pressure the fleet steps down the QoS ladder "
        "(int8 compute, then half-resolution voxels) instead of "
        "shedding or missing deadlines",
    )
    p_serve.add_argument(
        "--brownout-interval", type=float, default=None, metavar="SECONDS",
        help="brownout controller tick period (default: the SLO window "
        "when set, else 8x the traffic mix's mean base latency)",
    )
    p_serve.add_argument(
        "--brownout-max-level", type=int, default=None, metavar="LEVEL",
        help="deepest QoS level the controller may engage "
        "(default: the ladder floor)",
    )
    p_serve.add_argument(
        "--metrics", metavar="PATH",
        help="dump the campaign's metrics registry as JSONL",
    )
    p_serve.add_argument(
        "--json", metavar="PATH",
        help="write the campaign report (schema repro-bench.serve/1)",
    )
    p_serve.add_argument(
        "--events", metavar="PATH",
        help="flight recorder: write the per-request causal event "
        "journal as JSONL (schema repro-bench.events/1)",
    )
    p_serve.add_argument(
        "--trace", metavar="PATH",
        help="write the campaign as a Chrome/Perfetto trace "
        "(per-device tracks, retry/hedge flow arrows, queue counter)",
    )
    p_serve.add_argument(
        "--slo-window", type=float, default=None, metavar="SECONDS",
        help="windowed SLO monitor: sim-clock window width for "
        "deadline-miss / error-budget burn series (off by default)",
    )
    p_serve.add_argument(
        "--slo-target", type=float, default=0.99,
        help="SLO objective the burn rate is measured against "
        "(default %(default)s)",
    )
    p_serve.add_argument(
        "--burn-ceiling", type=float, default=None, metavar="RATE",
        help="exit nonzero when any window's error-budget burn rate "
        "exceeds this (needs --slo-window)",
    )
    p_serve.add_argument(
        "--prom", metavar="PATH",
        help="write the campaign's metrics registry in Prometheus "
        "text exposition format",
    )
    p_serve.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable artifact store backing the fleet: with "
        "--steady-state, dispatched frames persist as durable markers "
        "and replacement devices warm-start from them",
    )
    p_serve.add_argument(
        "--spares", type=int, default=0,
        help="spare-device pool: a DEAD device is replaced by a fresh "
        "worker with the same GPU spec (default %(default)s)",
    )

    p_store = sub.add_parser(
        "store",
        help="inspect / maintain a durable artifact store "
        "(stats, verify, scrub, purge)",
    )
    p_store.add_argument(
        "action", choices=("stats", "verify", "scrub", "purge"),
        help="stats: snapshot; verify: re-checksum every entry (exit 1 "
        "on corruption); scrub: evict unverifiable entries, drop orphan "
        "blobs, compact the manifest; purge: drop everything",
    )
    p_store.add_argument(
        "--dir", required=True, metavar="DIR",
        help="store directory (as passed to serve --store / tune --store)",
    )
    p_store.add_argument(
        "--json", metavar="PATH",
        help="write the action's result as a JSON snapshot",
    )

    p_timeline = sub.add_parser(
        "timeline",
        help="inspect / validate / convert a flight-recorder journal "
        "written by serve --events",
    )
    p_timeline.add_argument(
        "--events", required=True, metavar="PATH",
        help="event journal (JSONL, schema repro-bench.events/1)",
    )
    p_timeline.add_argument(
        "--request", type=int, default=None, metavar="ID",
        help="print one request's full causal timeline",
    )
    p_timeline.add_argument(
        "--trace", metavar="PATH",
        help="convert the journal to a Chrome/Perfetto trace offline",
    )

    p_int = sub.add_parser(
        "integrity",
        help="seeded silent-data-corruption campaign against the ABFT "
        "verifier",
    )
    p_int.add_argument(
        "--kinds", default="",
        help="comma-separated SDC fault kinds (default: bitflip_feature, "
        "bitflip_weight, checksum_mismatch)",
    )
    p_int.add_argument(
        "--dtypes", default="",
        help="comma-separated storage-dtype presets (default: "
        "fp32,fp16,int8)",
    )
    p_int.add_argument(
        "--seeds", type=int, default=3,
        help="seeds per (fault, dtype) cell (default %(default)s)",
    )
    p_int.add_argument("--seed", type=int, default=0, help="base seed")
    p_int.add_argument(
        "--severity", type=float, default=0.05,
        help="fraction of buffer entries flipped per shot "
        "(default %(default)s)",
    )
    p_int.add_argument(
        "--recall-floor", type=float, default=0.95,
        help="exit nonzero when detection recall falls below this "
        "(default %(default)s)",
    )
    p_int.add_argument(
        "--json", metavar="PATH",
        help="write the campaign report (schema repro-bench.integrity/1)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "info": cmd_info,
        "bench": cmd_bench,
        "compare": cmd_compare,
        "tune": cmd_tune,
        "regress": cmd_regress,
        "chaos": cmd_chaos,
        "serve": cmd_serve,
        "timeline": cmd_timeline,
        "integrity": cmd_integrity,
        "store": cmd_store,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
