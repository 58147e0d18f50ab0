"""Start one workload in its own pinned subprocess and collect its result."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from perfbench import ROOT, THREAD_ENV

#: A worker that outlives this is killed, so a run ends within 180 s.
WORKER_TIMEOUT = 170.0


class WorkerError(RuntimeError):
    """The workload subprocess failed, timed out or printed no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # import the program from this checkout's sources, never an installed
    # copy, and write no bytecode caches into the checkout
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               trace_dir=None) -> dict:
    """Run ``python -m perfbench.worker`` and return its parsed result."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:  # timed out, or this process is exiting
            proc.kill()
            proc.communicate()
    if out is None:
        raise WorkerError(f"{workload}: no result within {WORKER_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"{workload}: worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise WorkerError(f"{workload}: unreadable worker result ({e})") from e
