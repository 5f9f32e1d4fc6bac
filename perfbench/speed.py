"""Machine-speed calibration that scales measured times to a reference speed.

On a shared VM the speed of the whole machine changes by up to 1.8x in
phases that last from seconds to minutes.  The slowdown shows in process CPU
time as well as in wall time, so the cause is load from neighbours, not
steal.  Between runs this moves every time metric by more than any bound the
benchmark can set.  So the benchmark times a fixed calibration loop every
CAL_INTERVAL_S between jobs.  A job's *reference seconds* are its wall
seconds times REFERENCE_CAL_S over the median calibration time within
CAL_WINDOW_S of the job.  On a quiet reference machine reference seconds are
close to wall seconds, and a program change that saves x % of a job's time
saves x % of its reference seconds in any phase.

The loop is benchmark code that never calls the program, so a program change
cannot move it.  It mixes the three kinds of work the workloads do:
float repr and join (scan), a streaming numpy pass over 3 MB (verify, evolve)
and small matrix products in a Python loop (eval).  It runs twice per sample
and only the second run is timed, so the cache state a large job leaves
behind does not leak into the sample.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_INTERVAL_S = 0.5
CAL_WINDOW_S = 1.5
# Calibration loop time on the reference machine (2 vCPU Xeon, quiet phase,
# loop run between jobs).  A fixed scale: changing it rescales every metric.
REFERENCE_CAL_S = 0.005


class Speedometer:
    """Samples the calibration loop and turns wall seconds into reference seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.normal(size=3000).tolist()
        self._grid = np.linspace(-3.0, 3.0, 400_000)
        self._mat = rng.normal(size=(12, 12))
        self._vec = np.ones(12)
        self.samples = []  # (start time, loop seconds)

    def _loop(self) -> None:
        ",".join([repr(v) for v in self._floats])
        float(np.exp(-self._grid * self._grid).sum())
        for _ in range(300):
            self._mat @ self._vec

    def sample(self, force: bool = False) -> None:
        """Time the loop if CAL_INTERVAL_S has passed since the last sample."""
        now = time.perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < CAL_INTERVAL_S:
            return
        self._loop()
        t0 = time.perf_counter()
        self._loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_CAL_S over the machine's calibration time around [t0, t1]."""
        near = [k for t, k in self.samples if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return REFERENCE_CAL_S / statistics.median(near)

    def median_factor(self) -> float:
        """Median calibration time over REFERENCE_CAL_S: how slow the run's machine was."""
        return statistics.median(k for _, k in self.samples) / REFERENCE_CAL_S
