"""Isotropic stable paths on a time grid.

Increments are exactly isotropic: a Gaussian vector evaluated at an
independent positive-stable subordinator time, so that one step of
length h has characteristic function exp(-h |theta|^alpha) for every h.
Every experiment steps its paths in blocks through ``run_paths``, in
rounds of several steps per live path, with a stop callback that records
what the experiment observes and says at which step each path freezes.
Hit detection is grid-point membership; there is no bridge interpolation
between grid points, and the resulting one-sided bias is quantified by
refinement studies rather than corrected.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .potential import StableParams


# Stream ids: the first entry of the spawn key (stream, level, block) of
# every random stream, one id per use of randomness.
(HIT, SUBSET_CHECK, MARTINGALE, DUALITY, OCCUPATION, REVERSAL,
 REVERSAL_FORWARD) = range(7)


def rng_for_block(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one stream, reproducible regardless of
    scheduling: Philox seeded by ``SeedSequence(seed, spawn_key=key)``.
    Experiments key a path block as (stream id, level, block index), so no
    two (seed, level) pairs share a stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def sample_positive_stable(beta: float, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """``size`` positive stable draws S with E exp(-lam S) = exp(-lam^beta).

    Kanter's representation: S = (a(U)/E)^((1-beta)/beta) with U uniform
    on (0, pi) and E unit exponential.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("sample_positive_stable requires beta in (0, 1)")
    # in place; the same operations in the same order as
    # u = uniform(0, pi); (sin(beta u)^beta sin((1-beta) u)^(1-beta)
    # / sin(u))^(1/(1-beta)) / e, raised to (1-beta)/beta
    u = rng.random(size)
    u *= math.pi
    e = rng.standard_exponential(size)
    a = np.multiply(u, beta)
    np.sin(a, out=a)
    a **= beta
    b = np.multiply(u, 1.0 - beta)
    np.sin(b, out=b)
    b **= 1.0 - beta
    a *= b
    np.sin(u, out=u)
    a /= u
    a **= 1.0 / (1.0 - beta)
    a /= e
    a **= (1.0 - beta) / beta
    return a


def sample_increment(p: StableParams, h: float, rng: np.random.Generator,
                     size: int) -> np.ndarray:
    """``size`` increments (size, d) of the stable process over one step
    of length h.

    E exp(i theta . Delta) = exp(-h |theta|^alpha): a N(0, 2 S I_d) draw
    with S a positive alpha/2-stable subordinator time scaled by h^(2/alpha).
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    s = sample_positive_stable(p.alpha / 2.0, rng, size)
    s *= h ** (2.0 / p.alpha)
    s *= 2.0
    np.sqrt(s, out=s)
    z = rng.standard_normal((size, p.d))
    z *= s[:, None]
    return z


def check_resolution(h: float, target: geo.Target):
    """Grid step must resolve the target thickness: h <= eps / 4."""
    if h > target.eps / 4.0 + 1e-15:
        raise ValueError(
            f"step h={h} too coarse for target half-width eps={target.eps}; "
            f"need h <= eps/4")


def per_point(fn, X: np.ndarray, *args) -> np.ndarray:
    """``fn(points, *args)``, a function of one value per point, over the
    positions X (K, m, d) of a round, shaped (K, m)."""
    return fn(X.reshape(-1, X.shape[2]), *args).reshape(X.shape[:2])


def first_true(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a (K, m) mask that hold a True, in ascending order,
    and per such column the first row that is True: (columns, offsets)."""
    K, m = mask.shape
    flat = np.flatnonzero(mask)
    if K == 1:
        return flat, np.zeros(flat.size, dtype=np.intp)
    # flat is ordered by row, so a column's first entry holds its first row
    cols, first = np.unique(flat % m, return_index=True)
    return cols, flat[first] // m


def run_paths(p: StableParams, x: np.ndarray, h: float, n_steps: int,
              rng: np.random.Generator, stop) -> np.ndarray:
    """Step the block of paths ``x`` (m, d) in place, for at most n_steps.

    The paths step in rounds.  A round from step k (from 1) draws K steps
    for each of the live paths in one ``sample_increment`` call, with
    K = min(m // live, n_steps - k + 1), so no round draws more than the
    first and none passes the horizon; while every path is live, K = 1.
    The draws are laid out step-major, and ``X`` (K, live, d) holds the
    live positions at steps k, ..., k + K - 1.  The engine then calls
    ``stop(k, alive, X)``: ``alive`` holds the indices into ``x`` of the
    columns of ``X``.  The callback records what its experiment observes
    up to each path's freeze step and returns only the paths that freeze
    in the round, as (columns, offsets): the columns of ``X``, in
    ascending order, and for each the offset in [0, K) of the step that
    freezes it (see ``first_true``).  A frozen path's position at its
    freeze step is written back to ``x`` and it draws nothing more.  The
    loop ends at the horizon or when no path is live, and the live
    positions are written back.  Returns the indices of the paths still
    live after the last step.
    """
    alive = np.arange(len(x))
    xl = x.copy()
    k = 1
    while k <= n_steps and alive.size:
        K = min(len(x) // alive.size, n_steps - k + 1)
        X = sample_increment(p, h, rng, K * alive.size).reshape(K, alive.size, -1)
        X[0] += xl
        if K > 1:
            np.cumsum(X, axis=0, out=X)
        cols, offs = stop(k, alive, X)
        xl = X[-1]
        if cols.size:
            x[alive[cols]] = X[offs, cols]
            keep = np.ones(alive.size, dtype=bool)
            keep[cols] = False
            alive = alive[keep]
            # compress, not xl[keep]: numpy's boolean indexing of rows
            # costs several times more than the copy itself
            xl = xl.compress(keep, axis=0)
        k += K
    x[alive] = xl
    return alive
