"""Machine-speed probe: fixed work that shares no code with neqfridge.

The shared machine the benchmark was tuned on runs the same code up to
1.4x slower in phases that last from under a second to minutes, and CPU
time slows as much as wall time.  A run therefore spends a fixed share of its time on
this probe, between calls, and scales the calls' mean wall time by
``REFERENCE_S / mean probe time``: a call that took 70 ms while the probe
ran 1.3x slow counts as 54 ms.  The probe mixes the two kinds of work the
workloads do: interpreted float arithmetic with small numpy arrays, like
the closed-form kernel, and a 64x64 complex SVD, like the generator route.
Nothing in it depends on the code under test, so a change to neqfridge
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Probe time in a fast phase of the shared 2-core machine the benchmark was
# tuned on (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
# It is fixed so that scaled times stay comparable between commits.
REFERENCE_S = 1.5e-3

_MATRIX = (np.random.default_rng(0).standard_normal((64, 64))
           + 1j * np.random.default_rng(1).standard_normal((64, 64)))


def _kernel_like(steps: int) -> float:
    acc = 0.0
    for i in range(steps):
        x = 0.5 + 1e-3 * i
        r = 1.0 / (1.0 + math.exp(x))
        u = np.eye(4, dtype=complex)
        u[1, 1] = math.cos(x)
        acc += r * math.log((1.0 - r) / r) + u[1, 1].real
    return acc


def probe_once() -> float:
    start = time.perf_counter()
    _kernel_like(150)
    np.linalg.svd(_MATRIX)
    return time.perf_counter() - start


def probe_for(seconds: float) -> list[float]:
    """Probe times from back-to-back probes filling ``seconds`` (at least one)."""
    times = [probe_once()]
    while sum(times) < seconds:
        times.append(probe_once())
    return times
