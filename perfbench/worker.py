"""One workload in one process: ``python -m perfbench.worker``.

:mod:`perfbench.harness` starts this module with the thread environment
pinned.  It prints one JSON line: the correctness tallies, every
end-to-end metric with its unit and sample count, and — with
``--trace 1`` — every per-layer metric.  A traced run does the
workload's fixed minimum of work (one pass over its inputs) so that
call counts repeat exactly; ``--trace-dir`` also writes the Chrome
trace and the per-layer table there.
"""

import time

#: ``setup_s`` counts from here, before the program is imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import load_spec  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    WRAPS,
    SpanRecorder,
    descendants_self,
    layer_table,
    write_chrome_trace,
)


def span_metrics(spans: list) -> dict:
    """``<layer>.calls`` / ``.s`` / ``.self_s`` for every traced layer
    (zero for a layer that never ran)."""
    table = layer_table(spans)
    out = {}
    for name in [n for n, _, _ in WRAPS] + ["obs.timeline.validate"]:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out.update({f"{name}.{k}": float(v) for k, v in row.items()})
    return out


def write_trace_files(spans, trace_dir: Path, workload: str, seed: int,
                      layers: dict) -> None:
    """``<workload>.trace.json`` (Chrome) and ``<workload>.layers.json``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / workload
    meta = {"workload": workload, "seed": seed}
    write_chrome_trace(spans, f"{stem}.trace.json", meta)
    table = layer_table(spans)
    with open(f"{stem}.layers.json", "w") as f:
        json.dump({
            **meta,
            "layers": dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"])),
            "under_serve_run": descendants_self(spans, "serve.server.run"),
            "per_layer": {k: v["value"] for k, v in layers.items()},
        }, f, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python -m perfbench.worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-dir", type=Path)
    args = p.parse_args(argv)

    from perfbench import workloads  # imports NumPy and the program

    import_s = time.perf_counter() - T_START
    spec = load_spec()
    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        recorder = SpanRecorder()
        with recorder.installed():
            result = workloads.run(w, args.seed, 0.0, recorder, import_s)
        result["per_layer"].update(span_metrics(recorder.spans))
    else:
        result = workloads.run(w, args.seed, args.seconds, None, import_s)

    e2e = {
        m["name"]: {
            "value": result["end_to_end"][m["name"]],
            "unit": m["unit"],
            "n": result["samples"].get(m["name"], 1),
        }
        for m in spec["end_to_end"]
    }
    layers = {}
    if args.trace:
        layers = {
            m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        if args.trace_dir is not None:
            write_trace_files(recorder.spans, args.trace_dir, args.workload,
                              args.seed, layers)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": e2e,
        "per_layer": layers,
        "info": result["info"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
