"""perfbench: the two-clock benchmark of the TorchSparse reproduction.

Every workload runs in its own single-threaded subprocess and reports
two clocks side by side:

* the *modeled* clock — the simulated-GPU latency the paper argues
  about, deterministic for a given seed;
* the *host* clock — the wall time the NumPy engine and the serving
  simulator actually take on this machine.

``python -m perfbench run|trace|compare`` is the command line;
``python3 perfbench/run.py`` is the one-workload entry point that
``BENCHMARK.json`` names.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Pinned into every workload subprocess before the interpreter starts:
#: one BLAS/OpenMP thread (the host clock measures the engine, not the
#: BLAS pool) and a fixed string hash (set iteration order).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: End-to-end metrics on the modeled or simulated clock: a function of
#: the seed alone, so same-seed runs must agree on them exactly.
DETERMINISTIC = ("modeled_ms_p50", "modeled_ms_mean")


def load_spec() -> dict:
    """The benchmark description, ``BENCHMARK.json`` at the checkout root."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)
