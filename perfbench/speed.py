"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds as other tenants come and go; measured on a 2-vCPU VM, the raw
throughput of one workload spread by 20 % (interquartile range over median)
between 30-second runs.  The drift hits every CPU-bound program alike, so
the benchmark times a fixed kernel right before and after each timed rep
and reports the rep at the speed at which that kernel takes REFERENCE_S:

    corrected time = measured time * REFERENCE_S / kernel time around it

On the same VM this cut the spread to 2-5 %.  The kernel is part of the
benchmark, never of the program, so it is identical on both sides of any
comparison; it mixes interpreted arithmetic with tiny numpy calls, as the
workloads do.  The uncorrected rate is printed next to the corrected one.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on a quiet 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4);
# only fixes the scale, so corrected numbers read as seconds on that VM
REFERENCE_S = 0.004

_MATRIX = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])


def kernel() -> float:
    acc = 0.0
    for _ in range(500):
        acc += float(np.linalg.eigvalsh(_MATRIX)[0])
        y = 0.7
        for _ in range(20):
            y -= (y**3 - 0.3) / (3.0 * y * y)
        acc += y
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def corrected(seconds: float, kernel_s: float) -> float:
    """A measured time at the reference speed."""
    return seconds * REFERENCE_S / kernel_s
