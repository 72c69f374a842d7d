"""Host-speed calibration: fixed work that bicforge never runs.

The shared 2-vCPU hosts this benchmark runs on change speed by a third
within minutes, for all code alike, so raw times of runs made minutes
apart spread by more than any useful bound. The worker runs this fixed
work after every untraced round; run.py divides each time metric by
`host_factor`, the median calibration time relative to REF_S. The
reported times are then seconds on a host where the calibration takes
REF_S. The work
is a mix like the workloads': one dense symmetric eigensolve (LAPACK),
batched complex FFTs, and an interpreter loop. Only the benchmark's own
code runs here, so a change to bicforge moves the normalized metrics by
as much as it moves the raw ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.5   # seconds the calibration takes on the reference host


def calibration_s() -> float:
    """Wall seconds of the fixed calibration work. Its arrays live only
    during the call, so they do not add to the worker's peak memory."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(900, 900))
    a = a + a.T
    x = rng.normal(size=(64, 8192)) + 1j * rng.normal(size=(64, 8192))
    t0 = time.perf_counter()
    np.linalg.eigh(a)
    for _ in range(15):
        np.fft.ifft(np.fft.fft(x, axis=1), axis=1)
    s = 0
    for i in range(1_500_000):
        s += i * i % 7
    return time.perf_counter() - t0


def host_factor(samples: list[float]) -> float:
    """How much slower than the reference host this run's host was: the
    median calibration time over REF_S, so one disturbed sample does not
    move it."""
    return statistics.median(samples) / REF_S
