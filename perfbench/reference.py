"""A fixed reference computation, timed between calls to track machine speed.

The benchmark machine shares its cores with other guests, and its speed
drifts by 10-25 % over minutes.  A drift that long covers whole runs, so
no median within a run removes it.  The reference is timed in the same
process between the calls of a run; dividing a call time by the median
reference time of its run removes the part of the drift the two share.

The reference mixes the kinds of work the workloads do: vectorised numpy
steps on a shrinking set of 4,096 paths (the Monte Carlo stepping loop),
a pure-Python series (``specfun``'s hypergeometric series) and scipy
adaptive quadrature (``potential``).  It uses nothing from ``stablecond``,
so a change to the program never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad


def _numpy_steps(steps: int = 40, n: int = 4096) -> float:
    rng = np.random.default_rng(12345)
    x = np.zeros((n, 2))
    alive = np.arange(n)
    for _ in range(steps):
        z = rng.standard_normal((alive.size, 2)) \
            / rng.standard_exponential(alive.size)[:, None]
        x[alive] += z
        sub = x[alive]
        keep = np.linalg.norm(sub, axis=1) < 1e6
        alive = alive[keep]
    return float(x.sum())


def _python_series(terms: int = 300_000) -> float:
    a, b, c, z = 0.75, 0.75, 1.0, 0.999
    term, total = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def _quadrature(reps: int = 150) -> float:
    total = 0.0
    for j in range(reps):
        s = 0.2 + 0.004 * j
        val, _ = quad(lambda t, s=s: math.sin(t) ** s * math.cos(t) ** (1.0 - s),
                      0.0, math.pi / 2.0, limit=200, epsabs=1e-14, epsrel=1e-12)
        total += val
    return total


def reference_s() -> float:
    """Wall time of one pass of the reference computation."""
    t0 = time.perf_counter()
    for _ in range(6):
        _numpy_steps()
    _python_series()
    _quadrature()
    return time.perf_counter() - t0
