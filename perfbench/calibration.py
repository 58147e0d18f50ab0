"""The machine's speed around each timed unit, from a calibration probe.

On a shared machine every process slows down together, by 30–60% for
seconds to minutes at a time, and no statistic taken inside one run can
tell such a slow phase from a slower program.  So the benchmark times a
probe between its timed units: a fixed NumPy gather–matmul–scatter–sort
kernel that belongs to the benchmark, not the program, so that no change
to the program can speed it up or slow it down.  Each unit's host time
is divided by the mean of the probes just before and just after it and
reported at the speed at which the probe takes :data:`REFERENCE_S`.

Measured on a 2-core shared machine, in 12 s windows of four-minute
traces that repeat the benchmark's own units: the median of the
bracketed ratios spread 3–7% (IQR / median) where the units' own
fastest times spread 12–15%, and the fastest probe, which a lucky
instant sets, spread more than either.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's time on the 2-core machine the baseline was recorded on,
#: running at full speed.  It only anchors the unit: at that speed the
#: reported times are wall times.
REFERENCE_S = 0.025


class SpeedProbe:
    """Times the calibration kernel and scales host times by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._feats = rng.standard_normal((8000, 32)).astype(np.float32)
        self._weight = rng.standard_normal((32, 32)).astype(np.float32)
        self._gather = rng.integers(0, 8000, 30000)
        self._scatter = rng.integers(0, 8000, 30000)
        self._keys = rng.integers(0, 1 << 30, 30000)
        #: host seconds of every probe run so far
        self.times: list = []

    def measure(self) -> float:
        """Run the kernel once; return (and keep) its host seconds."""
        t0 = time.perf_counter()
        for _ in range(2):
            out = np.zeros_like(self._feats)
            np.add.at(out, self._scatter, self._feats[self._gather] @ self._weight)
            np.argsort(self._keys, kind="stable")
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def scaled(self, seconds: float) -> float:
        """``seconds`` of work done since the last probe, at reference
        speed: probes again and divides by the two probes' mean."""
        before = self.times[-1]
        return seconds * REFERENCE_S / (0.5 * (before + self.measure()))

    def scale(self) -> float:
        """Factor that takes work spread over the whole run so far to
        reference speed (for set-up, which no pair of probes brackets)."""
        return REFERENCE_S / statistics.median(self.times)
