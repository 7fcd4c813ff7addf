"""Monte Carlo experiments for the conditioned process.

Each experiment distributes paths over fixed-size blocks; block b draws
from a Philox stream keyed by (master seed, b), and block results are
reduced in block order with exact summation, so reports are bit-identical
across reruns and across worker counts.

Hitting experiments compare the scaled hitting frequency of a thickened
target against the limit constant times the harmonic weight of the set.
The theory column uses the equilibrium-normalised constant (see
``potential``); the published closed forms are reported alongside as
alternative normalisations, never silently replaced.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry as geo
from . import potential as pot
from . import simulate as sim
from .potential import StableParams

BLOCK_SIZE = 4096


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its sampling error and provenance."""

    value: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("estimate needs n >= 1")


@dataclass(frozen=True)
class Report:
    """What an experiment hands to the CLI.

    ``data`` is written as report.json; ``header`` and ``rows`` as
    report.csv; ``plot`` as the lines of plot.dat.  A string cell is written
    as is, any other cell with ``repr``.  ``passed`` is the verdict and
    ``summary`` the console text.
    """

    data: dict
    header: tuple
    rows: list
    plot: list
    passed: bool
    summary: str


def describe(set_) -> str:
    if isinstance(set_, geo.CapSet):
        caps = ";".join(f"r={r:.6g}" for _, r in set_.caps)
        return f"sphere caps d={set_.d} [{caps}]"
    return f"plane {set_.shape} d={set_.d}"


def _harmonic(set_, X, p: StableParams) -> np.ndarray:
    if isinstance(set_, geo.CapSet):
        return pot.sphere_harmonic_many(set_, X, p)
    return pot.plane_harmonic_many(set_, X, p)


@contextmanager
def _block_map(n_blocks: int, workers: int):
    """Yields ``map_blocks(fn) -> [fn(0), ..., fn(n_blocks - 1)]``; one
    worker pool serves every call made within the context."""
    if workers <= 1 or n_blocks <= 1:
        yield lambda fn: [fn(b) for b in range(n_blocks)]
        return
    with mp.Pool(processes=workers) as pool:
        yield lambda fn: pool.map(fn, range(n_blocks), chunksize=1)


def _block_sizes(n_paths: int, block: int = BLOCK_SIZE) -> list[int]:
    n_blocks = (n_paths + block - 1) // block
    return [block] * (n_blocks - 1) + [n_paths - block * (n_blocks - 1)]


def _bernoulli_estimate(hits: int, n: int, seed: int) -> MCEstimate:
    phat = hits / n
    var = phat * (1.0 - phat) * n / max(n - 1, 1)
    return MCEstimate(phat, math.sqrt(var / n), n, seed)


# -- h-transform weight ------------------------------------------------------

def _martingale_block(b: int, sizes, master_seed, p, S, x0, n_steps, h, stop_dist):
    rng = sim.rng_for_block(master_seed, b)
    m = sizes[b]
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    # freeze paths that reached S (a NaN distance freezes too)
    sim.run_paths(p, x, h, n_steps, rng, lambda k, alive, xl: ~(
        geo.euclidean_distance_to_shell_many(S, xl) >= stop_dist))
    dist = geo.euclidean_distance_to_shell_many(S, x)
    ok = dist >= pot.SINGULARITY_CUTOFF
    w = np.zeros(m)
    w[ok] = pot.sphere_harmonic_many(S, x[ok], p)
    return float(w[ok].sum()), float((w[ok] ** 2).sum()), int(ok.sum()), int((~ok).sum())


def martingale_check(p: StableParams, S: geo.CapSet, x0, t: float,
                     n_paths: int, h: float, stop_dist: float = 0.05,
                     seed: int = 0, workers: int = 1) -> MCEstimate:
    """Mean of the Doob weight at time t over paths frozen on approach to S.

    The harmonic weight of paths stopped before reaching S has mean
    H_S(x0), so the returned estimate should be 1 within Monte Carlo
    error.  Overflow-flagged paths (within 1e-9 of S) are excluded and
    counted; they are not observed at practical sample sizes.
    """
    p.require_conditioning()
    sizes = _block_sizes(n_paths)
    n_steps = max(1, round(t / h))
    fn = partial(_martingale_block, sizes=sizes, master_seed=seed, p=p, S=S,
                 x0=tuple(x0), n_steps=n_steps, h=h, stop_dist=stop_dist)
    with _block_map(len(sizes), workers) as map_blocks:
        res = map_blocks(fn)
    h0 = pot.sphere_harmonic(S, x0, p)
    sum_w = math.fsum(r[0] for r in res) / h0
    sum_w2 = math.fsum(r[1] for r in res) / h0 ** 2
    n_eff = sum(r[2] for r in res)
    mean = sum_w / n_eff
    var = max(sum_w2 / n_eff - mean * mean, 0.0) * n_eff / max(n_eff - 1, 1)
    return MCEstimate(mean, math.sqrt(var / n_eff), n_eff, seed)


# -- hitting experiment ------------------------------------------------------

def _hit_block(b: int, sizes, master_seed, p, stop_target, monitor_target,
               x0, h, n_steps, r_far):
    """One path block.  Paths stop on the stop target (or far field /
    horizon); entry into the monitor target is tracked without stopping,
    and the position of the first monitor entry is classified against the
    stop target (first-strike column).  Returns (ever hit stop target,
    ever hit monitor, first monitor entry inside stop target, censored)."""
    rng = sim.rng_for_block(master_seed, b)
    m = sizes[b]
    if geo.in_target(x0, stop_target):
        return m, m, m, 0
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    hit_stop = np.zeros(m, dtype=bool)
    hit_mon = np.full(m, monitor_target is not None
                      and geo.in_target(x0, monitor_target))
    first_in_stop = np.zeros(m, dtype=bool)

    def stop(k, alive, xl):
        inside = geo.in_target_many(xl, stop_target)
        if monitor_target is not None:
            entered = geo.in_target_many(xl, monitor_target) & ~hit_mon[alive]
            idx = alive[entered]
            hit_mon[idx] = True
            first_in_stop[idx] = inside[entered]
        hit_stop[alive[inside]] = True
        return inside | (geo.row_norms(xl) > r_far)

    alive = sim.run_paths(p, x, h, n_steps, rng, stop)
    return (int(hit_stop.sum()), int(hit_mon.sum()),
            int(first_in_stop.sum()), int(alive.size))


def _make_target(set_, eps: float, delta: float) -> geo.Target:
    if isinstance(set_, geo.CapSet):
        return geo.shell(set_, eps, delta)
    return geo.slab(set_, eps, delta)


def _hit_levels(p, stop_set, monitor_set, x, eps_grid, n_paths, h, h_rule,
                seed, workers, r_far, horizon):
    """Per eps level, in grid order: (eps, level seed, totals over blocks of
    the four ``_hit_block`` counts).  One worker pool serves all levels."""
    sizes = _block_sizes(n_paths)
    with _block_map(len(sizes), workers) as map_blocks:
        for i, eps in enumerate(eps_grid):
            he = h if h is not None else eps / h_rule
            stop_target = _make_target(stop_set, eps, 0.0)
            sim.check_resolution(he, stop_target)
            monitor_target = (None if monitor_set is None
                              else _make_target(monitor_set, eps, 0.0))
            fn = partial(_hit_block, sizes=sizes, master_seed=seed + 1000 * i,
                         p=p, stop_target=stop_target,
                         monitor_target=monitor_target, x0=tuple(x), h=he,
                         n_steps=int(math.ceil(horizon / he)), r_far=r_far)
            res = map_blocks(fn)
            yield eps, seed + 1000 * i, [sum(col) for col in zip(*res)]


def _hitting_theory(p: StableParams, set_, x):
    """(value, source, alternatives): equilibrium-normalised limit constant
    times the harmonic weight, published normalisations alongside."""
    ct = pot.constants(p)
    hval = float(_harmonic(set_, np.array([x], dtype=float), p)[0])
    alt = {}
    if isinstance(set_, geo.CapSet):
        value = ct.get("A_sphere_eq") * hval
        source = "equilibrium-normalised shell constant * H(x)"
        alt["published"] = ct.get("A_sphere" if p.alpha < 1.0 else "A_sphere_1") * hval
    else:
        value = ct.get("A_plane_eq") * hval
        source = "equilibrium-normalised slab constant * M(x)"
        if p.d >= 3:
            alt["published"] = ct.get("A_plane" if p.alpha < 1.0 else "A_plane_1") * hval
            if p.alpha < 1.0:
                alt["interval_normalised"] = ct.get("A_plane_interval") * hval
    return value, source, alt, hval


def _grid_fields(p: StableParams, geometry: str, eps_grid, estimates, scaled,
                 theory: float, source: str, alt: dict, extras: dict) -> dict:
    """The ``Report`` fields other than the verdict that hitting and strike
    share: one csv row and one plot line per eps."""
    if not eps_grid or any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be non-empty and strictly decreasing")
    if not math.isfinite(theory):
        raise ValueError("theory value must be finite")
    data = {
        "params": {"alpha": p.alpha, "d": p.d},
        "geometry": geometry,
        "grid": list(eps_grid),
        "estimates": [
            {"eps": e, "p_hat": est.value, "stderr": est.stderr,
             "scaled": s, "n": est.n, "seed": est.seed}
            for e, est, s in zip(eps_grid, estimates, scaled)],
        "theory": {"value": theory, "source": source, "alternatives": alt},
        "extras": extras,
    }
    return dict(
        data=data, header=("eps", "p_hat", "stderr", "scaled", "theory"),
        rows=[(e, est.value, est.stderr, s, theory)
              for e, est, s in zip(eps_grid, estimates, scaled)],
        plot=[(e, s, theory) for e, s in zip(eps_grid, scaled)])


def hitting_experiment(p: StableParams, set_, x, eps_grid, n_paths: int,
                       h: float | None = None, h_rule: float = 8.0,
                       seed: int = 0, workers: int = 1, r_far: float = 50.0,
                       horizon: float | None = None) -> Report:
    """Estimate P_x(hit eps-target) over the eps grid and scale it by
    eps^(alpha-1) (or |log eps| at alpha = 1) toward the limit constant."""
    p.require_conditioning()
    x = np.asarray(x, dtype=float)
    if horizon is None:
        horizon = 10.0 * r_far ** p.alpha
    theory, source, alt, hval = _hitting_theory(p, set_, x)
    estimates, scaled, censored = [], [], []
    for eps, lvl_seed, (hits, _, _, live) in _hit_levels(
            p, set_, None, x, eps_grid, n_paths, h, h_rule, seed, workers,
            r_far, horizon):
        est = _bernoulli_estimate(hits, n_paths, lvl_seed)
        estimates.append(est)
        censored.append(live / n_paths)
        sf = abs(math.log(eps)) if p.is_log_case else eps ** (p.alpha - 1.0)
        scaled.append(sf * est.value)
    fields = _grid_fields(
        p, describe(set_), eps_grid, estimates, scaled, theory, source, alt,
        {"harmonic_at_x": hval, "horizon_censored_fraction": censored,
         "r_far": r_far, "horizon": horizon})
    # the last scaled value has settled (within 20 % of the one before) and
    # lies within 30 % of the theory value
    b = scaled[-1]
    settled = len(scaled) < 2 or abs(b - scaled[-2]) <= 0.2 * abs(b)
    ok = settled and abs(b - theory) <= 0.3 * theory
    return Report(**fields, passed=ok, summary=(
        f"hitting: scaled {['%.5g' % s for s in scaled]} vs theory {theory:.5g} "
        f"({source}); alternatives {alt} -> {'OK' if ok else 'OUTSIDE ENVELOPE'}"))


# -- strike-point experiment -------------------------------------------------

def _check_subset(set_sub, set_big, rng) -> None:
    pts = geo.sample_boundary(set_sub, rng, 512)
    if isinstance(set_big, geo.CapSet):
        dist = geo.angular_distance_many(set_big, pts)
    else:
        u = pts @ geo.plane_frame(set_big.normal).T
        dist = geo.plane_distance_many(set_big, u)
    if dist.max() > 1e-9:
        raise ValueError("inner set is not contained in the outer set")


def strike_experiment(p: StableParams, set_big, set_sub, x, eps_grid,
                      n_paths: int, h: float | None = None, h_rule: float = 8.0,
                      seed: int = 0, workers: int = 1, r_far: float = 50.0,
                      horizon: float | None = None) -> Report:
    """Shared-path ratio P(hit inner eps-target) / P(hit outer eps-target),
    the finite-eps surrogate of the strike-point law."""
    p.require_conditioning()
    x = np.asarray(x, dtype=float)
    _check_subset(set_sub, set_big, sim.rng_for_block(seed, 999_999))
    if horizon is None:
        horizon = 10.0 * r_far ** p.alpha
    h_big = _harmonic(set_big, x[None, :], p)[0]
    h_sub = _harmonic(set_sub, x[None, :], p)[0]
    theory = float(h_sub / h_big)
    estimates, scaled, degenerate, raw, ever_ratio = [], [], [], [], []
    for eps, lvl_seed, (hits_inner, hits_outer, first_strikes, _) in _hit_levels(
            p, set_sub, set_big, x, eps_grid, n_paths, h, h_rule, seed,
            workers, r_far, horizon):
        raw.append((hits_inner, hits_outer, first_strikes))
        if hits_outer == 0:
            degenerate.append(eps)
            estimates.append(MCEstimate(math.nan, math.nan, n_paths, lvl_seed))
            scaled.append(math.nan)
            ever_ratio.append(math.nan)
            continue
        # primary column: which part of the outer target the path strikes
        # first; the ever-hit ratio carries a second-order revisit bias at
        # finite eps and is reported alongside
        ratio = first_strikes / hits_outer
        se = math.sqrt(max(ratio * (1.0 - ratio), 0.0) / hits_outer)
        estimates.append(MCEstimate(ratio, se, hits_outer, lvl_seed))
        scaled.append(ratio)
        ever_ratio.append(hits_inner / hits_outer)
    fields = _grid_fields(
        p, f"{describe(set_sub)} within {describe(set_big)}", eps_grid,
        estimates, scaled, theory, "harmonic-weight ratio (exact quadrature)",
        {}, {"hit_counts": raw, "degenerate_eps": degenerate,
             "ever_hit_ratio": ever_ratio})
    # the finest ratio is within max(3 SE, 0.05) of theory
    est = estimates[-1]
    ok = (not math.isnan(est.value)) and \
        abs(est.value - theory) <= max(3.0 * est.stderr, 0.05)
    return Report(**fields, passed=ok, summary=(
        f"strike: first-strike ratio {est.value:.4f} +- {est.stderr:.4f} "
        f"vs theory {theory:.4f} -> {'OK' if ok else 'OUTSIDE'}"))


# -- weak duality ------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """Smooth bump supported on a closed ball: exp(1 - 1/(1-s^2)), s = |x-c|/r."""

    center: tuple
    radius: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s2 = np.sum((X - np.asarray(self.center)) ** 2, axis=1) / self.radius ** 2
        out = np.zeros(len(X))
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out


def _window_eta_grid(S, win: Window, p, n_r: int = 48, n_a: int = 128):
    """Polar quadrature grid over the window and H values on it (d = 2)."""
    xs, ws = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * win.radius * (xs + 1.0)
    wr = 0.5 * win.radius * ws
    ang = (np.arange(n_a) + 0.5) * 2.0 * math.pi / n_a
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)           # (n_a, 2)
    pts = np.asarray(win.center)[None, None, :] \
        + r[:, None, None] * dirs[None, :, :]                     # (n_r, n_a, 2)
    flat = pts.reshape(-1, 2)
    hvals = pot.sphere_harmonic_many(S, flat, p)
    wgt = np.broadcast_to((wr * r)[:, None] * (2.0 * math.pi / n_a),
                          (n_r, n_a))
    return flat, hvals, wgt.reshape(-1).copy()


def _eta_mass(S, win: Window, p) -> tuple[float, float]:
    """(integral of H_S over the window, max of H_S on the window grid)."""
    if p.d != 2:
        raise NotImplementedError("duality windows are implemented for d = 2")
    _, hv, wg = _window_eta_grid(S, win, p)
    return float(hv @ wg), float(hv.max())


def _sample_eta_window(S, win: Window, p, rng, m: int, hmax: float) -> np.ndarray:
    """Rejection sampling from H_S(x) dx restricted to the window."""
    out = np.empty((m, p.d))
    filled = 0
    bound = 1.1 * hmax
    while filled < m:
        todo = m - filled
        g = rng.standard_normal((todo, p.d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        rad = win.radius * rng.random(todo) ** (1.0 / p.d)
        xs = np.asarray(win.center) + rad[:, None] * g
        hv = pot.sphere_harmonic_many(S, xs, p)
        if hv.max() > bound:
            raise ValueError(f"H_S = {hv.max():.6g} on the window exceeds the "
                             f"rejection envelope 1.1 * hmax = {bound:.6g}")
        acc = rng.random(todo) * bound <= hv
        got = xs[acc]
        out[filled:filled + len(got)] = got
        filled += len(got)
    return out


def _duality_block(b, sizes, master_seed, p, S, win_from, win_to, t, h,
                   hmax, weighted):
    rng = sim.rng_for_block(master_seed, b)
    m = sizes[b]
    xs = _sample_eta_window(S, win_from, p, rng, m, hmax)
    steps = 1 if h is None else max(1, round(t / h))
    xt = xs.copy()
    sim.run_paths(p, xt, t / steps, steps, rng,
                  lambda k, alive, xl: np.zeros(alive.size, dtype=bool))
    vals = win_from(xs) * win_to(xt)
    if weighted:
        mask = vals != 0.0
        w = np.zeros(m)
        if mask.any():
            ok = geo.euclidean_distance_to_shell_many(S, xt[mask]) \
                >= pot.SINGULARITY_CUTOFF
            hw = np.zeros(int(mask.sum()))
            hw[ok] = pot.sphere_harmonic_many(S, xt[mask][ok], p)
            w[mask] = hw
            w[mask] /= pot.sphere_harmonic_many(S, xs[mask], p)
        vals = vals * np.where(mask, w, 0.0)
    return float(vals.sum()), float((vals ** 2).sum())


def duality_experiment(p: StableParams, S: geo.CapSet, window_f: Window,
                       window_g: Window, t: float, n_paths: int,
                       h: float | None = None, seed: int = 0,
                       workers: int = 1) -> Report:
    """Both sides of the weak duality identity for the measure H_S(x) dx.

    lhs integrates E_x[f(X_t)] g(x) against the measure, rhs integrates
    f(x) times the conditioned expectation of g(X_t) (h-transform
    weighting).  Time-t marginals are sampled exactly, so the two
    estimates differ only by Monte Carlo error.
    """
    p.require_conditioning()
    if t < 0.0:
        raise ValueError("t must be >= 0")
    for win in (window_f, window_g):
        c = np.zeros(p.d)
        c[: len(win.center)] = win.center
        if geo.euclidean_distance_to_shell(S, c) < win.radius + 1e-3:
            raise ValueError("duality windows must stay clear of the target set")
    if t == 0.0:
        lhs = rhs = MCEstimate(_overlap_integral(S, window_f, window_g, p),
                               0.0, 1, seed)
    else:
        mass_g, hmax_g = _eta_mass(S, window_g, p)
        mass_f, hmax_f = _eta_mass(S, window_f, p)
        sizes = _block_sizes(n_paths)
        with _block_map(len(sizes), workers) as map_blocks:
            res = map_blocks(partial(
                _duality_block, sizes=sizes, master_seed=seed, p=p, S=S,
                win_from=window_g, win_to=window_f, t=t, h=h, hmax=hmax_g,
                weighted=False))
            lhs = _mean_estimate(res, n_paths, mass_g, seed)
            res = map_blocks(partial(
                _duality_block, sizes=sizes, master_seed=seed + 77_000, p=p,
                S=S, win_from=window_f, win_to=window_g, t=t, h=h,
                hmax=hmax_f, weighted=True))
            rhs = _mean_estimate(res, n_paths, mass_f, seed + 77_000)
    # the two sides agree within 4 SE
    tol = 4.0 * math.hypot(lhs.stderr, rhs.stderr)
    ok = abs(lhs.value - rhs.value) <= tol
    sides = {"lhs": lhs, "rhs": rhs}
    return Report(
        data={**{k: {"value": e.value, "stderr": e.stderr, "n": e.n}
                 for k, e in sides.items()}, "t": t, "seed": seed},
        header=("side", "value", "stderr", "n"),
        rows=[(k, e.value, e.stderr, e.n) for k, e in sides.items()],
        plot=[(t, lhs.value, rhs.value)], passed=ok,
        summary=(f"duality: lhs {lhs.value:.5g} rhs {rhs.value:.5g} "
                 f"(4*SE = {tol:.2g}) -> {'OK' if ok else 'OUTSIDE'}"))


def _overlap_integral(S, wf, wg, p) -> float:
    pts, hv, wg_ = _window_eta_grid(S, wf, p)
    return float(((wf(pts) * wg(pts)) * hv) @ wg_)


def _mean_estimate(res, n, scale, seed) -> MCEstimate:
    s1 = math.fsum(r[0] for r in res)
    s2 = math.fsum(r[1] for r in res)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return MCEstimate(scale * mean, scale * math.sqrt(var / n), n, seed)


# -- occupation / potential consistency ---------------------------------------

def _occupation_block(b, sizes, master_seed, p, x0, center, radius, h,
                      n_steps, r_far):
    rng = sim.rng_for_block(master_seed, b)
    m = sizes[b]
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    occ = np.zeros(m)
    cen = np.asarray(center, dtype=float)

    def stop(k, alive, xl):
        occ[alive] += h * (geo.row_norms(xl - cen) <= radius)
        return ~(geo.row_norms(xl) <= r_far)

    sim.run_paths(p, x, h, n_steps, rng, stop)
    return float(occ.sum()), float((occ ** 2).sum())


def occupation_check(p: StableParams, x, center, radius: float, n_paths: int,
                     h: float, seed: int = 0, workers: int = 1,
                     r_far: float = 200.0, horizon: float = 300.0
                     ) -> tuple[MCEstimate, float]:
    """Expected grid occupation of a ball versus the Riesz potential of its
    indicator; returns (estimate, theory)."""
    sizes = _block_sizes(n_paths)
    fn = partial(_occupation_block, sizes=sizes, master_seed=seed, p=p,
                 x0=tuple(np.asarray(x, dtype=float)), center=tuple(center),
                 radius=radius, h=h, n_steps=int(horizon / h), r_far=r_far)
    with _block_map(len(sizes), workers) as map_blocks:
        res = map_blocks(fn)
    est = _mean_estimate(res, n_paths, 1.0, seed)
    b = float(np.linalg.norm(np.asarray(x, float) - np.asarray(center, float)))
    theory = pot.constants(p).potential_const * pot.riesz_ball_integral(b, radius, p)
    return est, theory


# -- time reversal ------------------------------------------------------------

def _reversal_block(b, sizes, master_seed, p, S, r_exit, h, n_steps, r_far,
                    bin_edges, clip, guard):
    rng = sim.rng_for_block(master_seed, b)
    m = sizes[b]
    x = geo.sample_boundary(S, rng, m)
    # pos[i, k] is written for k <= end[i], the only entries read below
    pos = np.empty((m, n_steps + 1, p.d))
    pos[:, 0, :] = x
    end = np.full(m, n_steps, dtype=int)

    def stop(k, alive, xl):
        pos[alive, k] = xl
        gone = geo.row_norms(xl) > r_far
        end[alive[gone]] = k
        return gone

    # paths live at the end reached the horizon before the far field
    truncated = int(sim.run_paths(p, x, h, n_steps, rng, stop).size)
    nb = len(bin_edges) - 1
    cnt = np.zeros(nb, dtype=int)
    ssum = np.zeros(nb)
    ssq = np.zeros(nb)
    starts: list[list] = [[] for _ in range(nb)]
    for i in range(m):
        radii = np.linalg.norm(pos[i, : end[i] + 1, :], axis=1)
        inside = np.nonzero(radii <= r_exit)[0]
        last = int(inside[-1])
        if last == 0:
            continue
        cur = pos[i, 1 : last + 1, :]          # reversed-chain current points
        nxt = pos[i, 0 : last, :]              # reversed-chain next points
        rc = np.linalg.norm(cur, axis=1)
        stat = np.clip(np.linalg.norm(nxt, axis=1) - rc, -clip, clip)
        dist = geo.euclidean_distance_to_shell_many(S, cur)
        ok = dist >= guard
        bins = np.searchsorted(bin_edges, rc, side="right") - 1
        ok &= (bins >= 0) & (bins < nb)
        # one pair per path per bin keeps the per-bin samples independent
        seen = set()
        for j in np.nonzero(ok)[0][::-1]:      # walk in reversed-time order
            bj = int(bins[j])
            if bj in seen:
                continue
            seen.add(bj)
            cnt[bj] += 1
            ssum[bj] += stat[j]
            ssq[bj] += stat[j] ** 2
            if len(starts[bj]) < 64:
                starts[bj].append(cur[j])
    first_inside = float(np.mean(
        np.linalg.norm(pos[np.arange(m), 0, :], axis=1) <= r_exit))
    return cnt, ssum, ssq, [np.array(s) if s else np.empty((0, p.d)) for s in starts], \
        truncated, first_inside


def reversal_experiment(p: StableParams, S: geo.CapSet, r_exit: float = 2.0,
                        n_paths: int = 10_000, h: float = 0.02, seed: int = 0,
                        workers: int = 1, r_far: float = 50.0,
                        horizon: float = 30.0, n_bins: int = 8,
                        clip: float = 0.5, guard: float = 0.05) -> Report:
    """Diagnostic comparison of reversed-path one-step statistics against
    h-weighted forward steps from matched positions.

    Paths start from the normalised surface measure on S; the last grid
    index inside B(0, r_exit) plays the role of the reversal time.  The
    compared statistic is the clipped radial displacement, binned by the
    radius of the current position.  Loose agreement (4 sigma in most
    occupied bins) is the expected outcome, not a sharp test.
    """
    p.require_conditioning()
    if r_exit <= 1.0:
        raise ValueError("r_exit must exceed the unit sphere radius")
    n_steps = int(horizon / h)
    bin_edges = np.linspace(0.0, r_exit, n_bins + 1)
    # full path storage per block; keep blocks small enough for memory
    sizes = _block_sizes(n_paths, block=1024)
    fn = partial(_reversal_block, sizes=sizes, master_seed=seed, p=p, S=S,
                 r_exit=r_exit, h=h, n_steps=n_steps, r_far=r_far,
                 bin_edges=bin_edges, clip=clip, guard=guard)
    with _block_map(len(sizes), workers) as map_blocks:
        res = map_blocks(fn)
    nb = n_bins
    cnt = np.sum([r[0] for r in res], axis=0)
    ssum = np.sum([r[1] for r in res], axis=0)
    ssq = np.sum([r[2] for r in res], axis=0)
    starts = [np.concatenate([r[3][j] for r in res if len(r[3][j])])
              if any(len(r[3][j]) for r in res) else np.empty((0, p.d))
              for j in range(nb)]
    truncated = sum(r[4] for r in res)
    first_inside = float(np.mean([r[5] for r in res]))

    rng = sim.rng_for_block(seed, 10 ** 6)
    bins_out = []
    agree = 0
    occupied = 0
    for j in range(nb):
        if cnt[j] < 50 or len(starts[j]) == 0:
            continue
        occupied += 1
        mean_r = float(ssum[j] / cnt[j])
        var_r = max(ssq[j] / cnt[j] - mean_r ** 2, 0.0)
        se_r = math.sqrt(var_r / cnt[j])
        # forward h-weighted one-step statistic from matched starts
        reps = max(1, int(math.ceil(4000 / len(starts[j]))))
        y = np.repeat(starts[j], reps, axis=0)
        ynew = y + sim.sample_increment(p, h, rng, len(y))
        ok = geo.euclidean_distance_to_shell_many(S, ynew) >= pot.SINGULARITY_CUTOFF
        y, ynew = y[ok], ynew[ok]
        w = pot.sphere_harmonic_many(S, ynew, p) / pot.sphere_harmonic_many(S, y, p)
        s = np.clip(np.linalg.norm(ynew, axis=1) - np.linalg.norm(y, axis=1),
                    -clip, clip)
        wsum = float(w.sum())
        mean_f = float((w * s).sum()) / wsum
        se_f = math.sqrt(float((w ** 2 * (s - mean_f) ** 2).sum())) / wsum
        z = (mean_r - mean_f) / math.sqrt(se_r ** 2 + se_f ** 2)
        agree += abs(z) <= 4.0
        bins_out.append({
            "radius_lo": float(bin_edges[j]), "radius_hi": float(bin_edges[j + 1]),
            "n_reversed": int(cnt[j]), "reversed_mean": mean_r,
            "reversed_se": se_r, "forward_mean": mean_f, "forward_se": se_f,
            "z": float(z)})
    data = {
        "params": {"alpha": p.alpha, "d": p.d},
        "geometry": describe(S),
        "r_exit": r_exit, "h": h, "n_paths": n_paths, "seed": seed,
        "bins": bins_out,
        "occupied_bins": int(occupied),
        "agree_bins": int(agree),
        "agree_fraction": float(agree / occupied) if occupied else math.nan,
        "first_reversed_point_inside_fraction": float(first_inside),
        "horizon_truncated_fraction": float(truncated / n_paths),
    }
    cols = ("radius_lo", "radius_hi", "n_reversed", "reversed_mean",
            "reversed_se", "forward_mean", "forward_se", "z")
    counts = f"({agree}/{occupied} bins)"
    frac = data["agree_fraction"]
    # a diagnostic: low agreement warns but never fails the run
    summary = (f"reversal: agree fraction {frac:.2f} {counts}" if frac >= 0.8
               else f"reversal: WARNING agree fraction {frac:.2f} < 0.8 {counts}")
    return Report(
        data=data, header=cols,
        rows=[tuple(b[k] for k in cols) for b in bins_out],
        plot=[(0.5 * (b["radius_lo"] + b["radius_hi"]), b["reversed_mean"],
               b["forward_mean"]) for b in bins_out],
        passed=True, summary=summary)
