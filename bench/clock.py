"""Job timings corrected for the machine's speed at the moment they ran.

On shared cores a CPU can run this code up to ~1.8x slower for stretches of
seconds to tens of seconds (measured on a 2-vCPU Xeon VM: the same loop
alternated between ~55 ms and ~85 ms), which no run length averages away.
So a short fixed probe of interpreter and small-numpy work, which calls no
isingbath code, runs before every job and after the last one.  Each job's
time is divided by the median probe time around it and multiplied by
``PROBE_REFERENCE_S``: the job's time at the speed where the probe takes
exactly that long.  The raw times are reported alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REFERENCE_S = 2.0e-3  # about one probe on an idle 2.1 GHz Xeon core
PROBE_WINDOW = 4  # probes on each side of a job that set its speed

_M = np.array([[0.9, 0.2j, -0.1, 0.3], [0.1, 0.8, 0.4j, -0.2],
               [0.3j, -0.1, 0.7, 0.2], [0.2, 0.1, -0.3j, 1.0]])


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and 4x4 numpy work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(12_000):
        s += i * i
    x = _M
    for _ in range(140):
        x = x @ _M
        x = x / np.abs(x).max()
    return time.perf_counter() - t0


def speed_factors(probes: list[float]) -> list[float]:
    """Slowdown against the reference for each job, job i running between
    probes i and i + 1."""
    return [statistics.median(probes[max(0, i - PROBE_WINDOW + 1): i + PROBE_WINDOW + 1])
            / PROBE_REFERENCE_S for i in range(len(probes) - 1)]
