"""Host-speed probe: fixed numpy, scipy and pure-Python work timed between
operations.

On a shared machine the speed of the same code drifts by tens of percent
over minutes.  The probe shares no code with csimplex, so a change to
csimplex cannot move it; the median of its samples in a run, against the
nominal PROBE_REF_S, is the run's host-speed factor.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

PROBE_REF_S = 0.03  # about the median probe time on the host of the baseline


class HostSpeed:
    """Probe samples of one run; ``probe`` takes ``samples_per_call`` of them."""

    def __init__(self, samples_per_call: int):
        rng = np.random.default_rng(12345)
        self._pts = rng.uniform(0.0, 1.0, (6000, 2))
        self._batch = rng.uniform(0.0, 1.0, (1000, 3))
        self._per_call = samples_per_call
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        y = self._batch
        for _ in range(400):
            y = y * np.exp(0.2 * (1.0 - y.sum(axis=1)))[:, None]
        cKDTree(self._pts).query(self._pts, k=8)
        acc = 0.0
        for i in range(20000):
            acc += (i % 7) * 0.5 - (i % 3)
        return time.perf_counter() - t0

    def probe(self) -> None:
        self.samples.extend(self._once() for _ in range(self._per_call))

    def factor(self) -> float:
        """Median probe time over the nominal: above 1 means a slow host."""
        return statistics.median(self.samples) / PROBE_REF_S
