"""Isotropic stable paths on a time grid.

Increments are exactly isotropic: a Gaussian vector evaluated at an
independent positive-stable subordinator time, so that one step of
length h has characteristic function exp(-h |theta|^alpha) for every h.
Every experiment steps its paths in blocks through ``run_paths``, with a
stop callback that records what the experiment observes and says which
paths to freeze.  Hit detection is grid-point membership; there is no
bridge interpolation between grid points, and the resulting one-sided
bias is quantified by refinement studies rather than corrected.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .potential import StableParams


def rng_for_block(master_seed: int, block_index: int) -> np.random.Generator:
    """Counter-based generator for one path block, reproducible regardless
    of scheduling: stream = Philox keyed by (master seed, block index)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_positive_stable(beta: float, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """``size`` positive stable draws S with E exp(-lam S) = exp(-lam^beta).

    Kanter's representation: S = (a(U)/E)^((1-beta)/beta) with U uniform
    on (0, pi) and E unit exponential.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("sample_positive_stable requires beta in (0, 1)")
    u = rng.uniform(0.0, math.pi, size)
    e = rng.exponential(1.0, size)
    a_u = (np.sin(beta * u) ** beta * np.sin((1.0 - beta) * u) ** (1.0 - beta)
           / np.sin(u)) ** (1.0 / (1.0 - beta))
    return (a_u / e) ** ((1.0 - beta) / beta)


def sample_increment(p: StableParams, h: float, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """``size`` increments (size, d) of the stable process over one step
    of length h.

    E exp(i theta . Delta) = exp(-h |theta|^alpha): a N(0, 2 S I_d) draw
    with S a positive alpha/2-stable subordinator time scaled by h^(2/alpha).
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    s = h ** (2.0 / p.alpha) * sample_positive_stable(p.alpha / 2.0, rng, size)
    z = rng.standard_normal((size, p.d))
    return np.sqrt(2.0 * s)[:, None] * z


def check_resolution(h: float, target: geo.Target):
    """Grid step must resolve the target thickness: h <= eps / 4."""
    if h > target.eps / 4.0 + 1e-15:
        raise ValueError(
            f"step h={h} too coarse for target half-width eps={target.eps}; "
            f"need h <= eps/4")


def run_paths(p: StableParams, x: np.ndarray, h: float, n_steps: int,
              rng: np.random.Generator, stop) -> np.ndarray:
    """Step the block of paths ``x`` (m, d) in place, for at most n_steps.

    Step k (from 1) draws one increment per live path, in path order, adds
    it, and calls ``stop(k, alive, x)`` with the indices of the paths just
    stepped.  The callback records what its experiment observes and returns
    a boolean mask over ``alive`` of the paths to freeze; a frozen path
    keeps its position and draws nothing more.  The loop ends at the
    horizon or when no path is live.  Returns the indices of the paths
    still live after the last step.
    """
    alive = np.arange(len(x))
    for k in range(1, n_steps + 1):
        if alive.size == 0:
            break
        x[alive] += sample_increment(p, h, rng, alive.size)
        alive = alive[~stop(k, alive, x)]
    return alive


def reentry_probability(p: StableParams, r_far: float = 50.0,
                        annulus: float = 1.2, n_paths: int = 10_000,
                        h: float = 0.05, seed: int = 7,
                        horizon: float = 400.0) -> float:
    """Monte Carlo estimate of re-entering B(0, annulus) after reaching the
    far-field radius; quantifies the truncation bias of far-field stopping."""
    rng = rng_for_block(seed, 0)
    g = rng.standard_normal((n_paths, p.d))
    x = r_far * g / np.linalg.norm(g, axis=1, keepdims=True)
    reentered = np.zeros(n_paths, dtype=bool)

    def stop(k, alive, x):
        r = np.linalg.norm(x[alive], axis=1)
        back = r < annulus
        reentered[alive[back]] = True
        return back | (r > 10.0 * r_far)

    run_paths(p, x, h, int(horizon / h), rng, stop)
    return float(reentered.mean())
