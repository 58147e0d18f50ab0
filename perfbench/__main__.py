"""Command line: ``python -m perfbench run|trace|compare|baseline``.

    python -m perfbench run [--workload W]... [--seed S] [--runs N] [--json OUT]
    python -m perfbench trace [--workload W]... [--seed S] [--out DIR]
    python -m perfbench compare PARENT.json CHANGE.json
    python -m perfbench baseline SET_A.json SET_B.json --out BASELINE.json

Every workload run is its own pinned subprocess, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from perfbench import DETERMINISTIC, THREAD_ENV, load_spec
from perfbench.harness import WorkerError, run_worker
from perfbench.stats import quartiles, verdict

#: Layers ``trace`` prints per workload, by self time.
TOP_LAYERS = 8


def _names(spec: dict, chosen) -> list:
    known = [w["name"] for w in spec["workloads"]]
    for name in chosen or ():
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; expected one of {known}")
    return list(chosen) if chosen else known


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def cmd_run(args) -> int:
    spec = load_spec()
    names = _names(spec, args.workload)
    seconds = spec["run_seconds"]
    runs: dict = {w: [] for w in names}
    for _ in range(args.runs):
        for w in names:
            try:
                res = run_worker(w, args.seed, seconds, trace=False)
            except WorkerError as e:
                print(f"{w} error {e}", file=sys.stderr)
                return 1
            runs[w].append(res)
            for name, m in res["end_to_end"].items():
                print(f"{w} {name} {_fmt(m['value'])} {m['unit']} n={m['n']}")
            print(f"{w} failed_frac {_fmt(res['failed'] / res['attempted'])} "
                  f"fraction n={res['attempted']}", flush=True)
    for w, results in runs.items():
        for name in DETERMINISTIC:
            seen = sorted({r["end_to_end"][name]["value"] for r in results})
            if len(seen) > 1:
                # the modeled/simulated clock must replay exactly
                print(f"{w} {name} differs between same-seed runs: {seen}")
                for r in results:
                    r["failed"] = r["attempted"]
    if args.runs > 1:
        for w, results in runs.items():
            for m in spec["end_to_end"]:
                q1, med, q3 = quartiles(
                    [r["end_to_end"][m["name"]]["value"] for r in results])
                print(f"{w} {m['name']} median {_fmt(med)} q1 {_fmt(q1)} "
                      f"q3 {_fmt(q3)} {m['unit']} runs={len(results)}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, f,
                      indent=1)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    return 1 if failed else 0


def cmd_trace(args) -> int:
    spec = load_spec()
    names = _names(spec, args.workload)
    seconds = spec["run_seconds"]
    out = Path(args.out)
    combined = {}
    for w in names:
        try:
            plain = run_worker(w, args.seed, seconds, trace=False)
            traced = run_worker(w, args.seed, seconds, trace=True, trace_dir=out)
        except WorkerError as e:
            print(f"{w} error {e}", file=sys.stderr)
            return 1
        with open(out / f"{w}.layers.json") as f:
            table = json.load(f)
        untraced_ms = plain["end_to_end"]["host_ms_p50"]["value"]
        traced_ms = traced["end_to_end"]["host_ms_p50"]["value"]
        table["overhead"] = {
            "host_ms_p50_untraced": untraced_ms,
            "host_ms_p50_traced": traced_ms,
            "frac": traced_ms / untraced_ms - 1.0,
        }
        combined[w] = table
        print(f"{w}: tracing overhead {traced_ms / untraced_ms - 1.0:+.1%} "
              f"(host_ms_p50 {_fmt(traced_ms)} traced vs {_fmt(untraced_ms)})")
        for layer, row in list(table["layers"].items())[:TOP_LAYERS]:
            print(f"  {layer:40s} calls {row['calls']:>8d}  self_s "
                  f"{row['self_s']:8.3f}  s {row['s']:8.3f}")
        if table.get("under_serve_run"):
            top = sorted(table["under_serve_run"].items(), key=lambda kv: -kv[1])
            print("  self time under serve.server.run: " + ", ".join(
                f"{k} {v:.3f}s" for k, v in top[:4]))
    with open(out / "layers.json", "w") as f:
        json.dump({"seed": args.seed, "workloads": combined}, f, indent=1)
    print(f"chrome traces and per-layer tables written to {out}")
    return 0


def _values(doc: dict, workload: str, metric: str) -> list:
    return [r["end_to_end"][metric]["value"] for r in doc["runs"][workload]]


def cmd_compare(args) -> int:
    spec = load_spec()
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    for key in ("seed", "seconds"):
        if parent[key] != change[key]:
            print(f"{args.parent} and {args.change} ran with different {key} "
                  f"({parent[key]} vs {change[key]}): not comparable")
            return 2
    status = 0
    for w in parent["runs"]:
        if w not in change["runs"]:
            print(f"{w}: missing from {args.change}")
            status = 1
            continue
        for m in spec["end_to_end"]:
            pv, cv = _values(parent, w, m["name"]), _values(change, w, m["name"])
            # the modeled clock replays exactly on a seed: any move counts
            bound = 0.0 if m["name"] in DETERMINISTIC else m["bound"]
            v, wins, pairs = verdict(pv, cv, m["better"], bound)
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            print(f"{w:20s} {m['name']:17s} parent {_fmt(p_med)} "
                  f"[{_fmt(p_q1)}, {_fmt(p_q3)}]  change {_fmt(c_med)} "
                  f"[{_fmt(c_q1)}, {_fmt(c_q3)}] {m['unit']}  "
                  f"wins {wins}/{pairs}  {v}")
            status |= v == "regressed"
        p_failed = sum(r["failed"] for r in parent["runs"][w])
        c_failed = sum(r["failed"] for r in change["runs"][w])
        if c_failed > p_failed:
            print(f"{w:20s} more failed operations than the parent "
                  f"({c_failed} > {p_failed}): no gain counts")
            status = 1
    return int(status)


def cmd_baseline(args) -> int:
    import numpy

    spec = load_spec()
    docs = {}
    for label, path in (("A", args.set_a), ("B", args.set_b)):
        with open(path) as f:
            docs[label] = json.load(f)
    sets = {
        label: {
            w: {
                m["name"]: dict(zip(("q1", "median", "q3"),
                                    quartiles(_values(doc, w, m["name"]))))
                | {"runs": len(doc["runs"][w])}
                for m in spec["end_to_end"]
            }
            for w in doc["runs"]
        }
        for label, doc in docs.items()
    }

    def agrees(w: str, m: dict) -> bool:
        # set B's median within set A's median +- the bound; the modeled
        # clock must agree exactly
        a, b = sets["A"][w][m["name"]]["median"], sets["B"][w][m["name"]]["median"]
        bound = 0.0 if m["name"] in DETERMINISTIC else m["bound"]
        return abs(b - a) <= bound * abs(a)

    agreement = {w: {m["name"]: agrees(w, m) for m in spec["end_to_end"]}
                 for w in sets["A"]}
    baseline = {
        "seed": docs["A"]["seed"],
        "seconds": docs["A"]["seconds"],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": THREAD_ENV,
        },
        "sets": sets,
        "agreement": agreement,
    }
    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    ok = all(all(v.values()) for v in agreement.values())
    print(f"baseline written to {args.out}; sets agree within bounds: {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m perfbench")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(q):
        q.add_argument("--workload", action="append",
                       help="workload name (repeatable; default: all)")
        q.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("run", help="end-to-end metrics, tracing off")
    common(q)
    q.add_argument("--runs", type=int, default=1)
    q.add_argument("--json", help="write every run's result here")
    q.set_defaults(fn=cmd_run)

    q = sub.add_parser("trace", help="per-layer metrics from a traced run")
    common(q)
    q.add_argument("--out", default="perfbench/out")
    q.set_defaults(fn=cmd_trace)

    q = sub.add_parser("compare", help="parent vs change, per (workload, metric)")
    q.add_argument("parent")
    q.add_argument("change")
    q.set_defaults(fn=cmd_compare)

    q = sub.add_parser("baseline", help="summarize two run sets into a baseline")
    q.add_argument("set_a")
    q.add_argument("set_b")
    q.add_argument("--out", default="perfbench/baseline.json")
    q.set_defaults(fn=cmd_baseline)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
