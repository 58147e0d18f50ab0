"""Benchmark entry point named by ``BENCHMARK.json``: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a pinned subprocess from the sources under
``src/`` of the checkout this file sits in, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Exits 2
without a result when the checkout holds no program sources.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)  # import the package, not this directory
    from perfbench import load_spec
    from perfbench.harness import WorkerError, run_worker

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # exit through the worker cleanup when asked to stop
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        res = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    family = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in res[family].items()
    }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
