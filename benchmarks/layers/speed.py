"""The host's speed, from a fixed task timed between blocks of verdicts.

The host this benchmark was tuned on (2 vCPUs of a shared Intel Xeon at
2.0 GHz) switches between speeds up to 2x apart, for seconds to minutes
at a time, in CPU time as much as in wall time. The same verdict then
takes up to twice as long, and no estimator inside one run removes a
slow spell that covers the whole run. So every timing the benchmark
reports is also taken in reference seconds: its wall time scaled by
REFERENCE_S / the time of `Calibration.measure()` around it. The task
mixes the three kinds of work the verdicts do (Python object churn,
numpy on 100-element arrays and on a wide array) and touches no
hologroup code, so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about what Calibration.measure() takes on the host above at its faster
# speed, so that reference seconds read close to wall seconds there
REFERENCE_S = 0.0030


class Calibration:
    def __init__(self):
        t0 = time.perf_counter()
        self.spent = 0.0  # seconds spent calibrating so far
        self.small = np.exp(1j * np.linspace(0.0, 6.0, 100))
        self.wide = np.exp(1j * np.linspace(0.0, 6.0, 3 * 4096)).reshape(-1, 3)
        self.samples = []
        self.measure()  # first calls into numpy are slower; not kept
        self.samples.clear()
        self.spent = time.perf_counter() - t0

    def measure(self) -> float:
        """Seconds the fixed task takes now; also kept in `samples`."""
        t0 = time.perf_counter()
        churn = {}
        for i in range(4000):
            churn[i % 97] = (i, i * 1.5)
        x = self.small
        for _ in range(200):
            x = np.exp(1e-3 * x) * self.small + 0.5 * x.conj()
        y = self.wide
        for _ in range(4):
            y = np.exp(1e-3 * y) * self.wide
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    def median(self, repeats: int = 3) -> float:
        return statistics.median(self.measure() for _ in range(repeats))
