import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from stablecond import condition as cond
from stablecond import geometry as ge
from stablecond import simulate as sim
from stablecond.potential import StableParams


def test_positive_stable_laplace_transform():
    rng = sim.rng_for_block(1, 0)
    s = np.exp(sim._log_positive_stable(0.5, rng, 1_000_000))
    vals = np.exp(-s)
    z = (vals.mean() - math.exp(-1.0)) / (vals.std() / math.sqrt(len(vals)))
    assert abs(z) < 4.0


def test_positive_stable_levy_cdf():
    rng = sim.rng_for_block(2, 0)
    s = np.exp(sim._log_positive_stable(0.5, rng, 100_000))
    res = stats.kstest(s, lambda t: stats.levy.cdf(t, scale=0.5))
    assert res.statistic < 0.005


def test_positive_stable_scaling():
    # horizon-t draws have the law of t^{1/beta} unit draws: quantile ratios
    rng = sim.rng_for_block(3, 0)
    beta = 0.4
    s1 = np.sort(np.exp(sim._log_positive_stable(beta, rng, 50_000)))
    t = 3.0
    s2 = np.sort(t ** (1.0 / beta)
                 * np.exp(sim._log_positive_stable(beta, rng, 50_000)))
    q = np.linspace(0.05, 0.95, 10)
    r1 = np.quantile(s1, q) * t ** (1.0 / beta)
    r2 = np.quantile(s2, q)
    assert np.allclose(r1 / r2, 1.0, atol=0.06)


def test_positive_stable_domain():
    rng = sim.rng_for_block(0, 0)
    with pytest.raises(ValueError):
        sim._log_positive_stable(1.0, rng, 1)


def test_standard_exponential_matches_unit_scale_exponential():
    # the sampler draws E with standard_exponential: the values and the
    # stream state after them are those of exponential(1.0, size)
    a, b = sim.rng_for_block(9, 1), sim.rng_for_block(9, 1)
    assert np.array_equal(a.exponential(1.0, 100_000), b.standard_exponential(100_000))
    assert np.array_equal(a.random(8), b.random(8))


def test_increment_characteristic_function():
    p = StableParams(0.5, 2)
    rng = sim.rng_for_block(4, 0)
    d = sim.sample_increment(p, 1.0, rng, 100_000)
    for mag in (0.5, 1.0, 2.0):
        theta = np.array([mag, 0.0])
        c = np.cos(d @ theta)
        z = (c.mean() - math.exp(-mag ** 0.5)) / (c.std() / math.sqrt(len(c)))
        assert abs(z) < 4.0
        srow = np.sin(d @ theta)
        assert abs(srow.mean()) < 4.0 * srow.std() / math.sqrt(len(srow))


def _kanter_scale(alpha, h, u, e):
    """sqrt(2 h^(2/alpha) S) at 40 digits for Kanter's positive
    beta-stable draw S = (a(u)/e)^((1-beta)/beta), beta = alpha/2, from the
    float draws u in (0, pi) and e."""
    with mp.workdps(40):
        b = mp.mpf(alpha) / 2
        out = []
        for ui, ei in zip(u, e):
            ui = mp.mpf(ui)
            a = (mp.sin(b * ui) ** b * mp.sin((1 - b) * ui) ** (1 - b)
                 / mp.sin(ui)) ** (1 / (1 - b))
            s = (a / mp.mpf(ei)) ** ((1 - b) / b)
            out.append(float(mp.sqrt(2 * mp.mpf(h) ** (2 / mp.mpf(alpha)) * s)))
    return np.array(out)


@pytest.mark.parametrize("alpha", [0.02, 0.5, 1.0, 1.5, 1.99, 1.999])
def test_increment_matches_out_of_place_formula(alpha):
    # Kanter's formula out of place at 40 digits, on the draws the sampler
    # takes from the same stream in the same order: u = pi U, E, then N.
    # The log form is within 3.3e-13 at alpha 0.02, where the rounding of
    # log S is scaled by (1 - beta)/beta ~ 100, and 2.8e-14 elsewhere
    # (the sin/pow form it replaced: 3.1e-13 and 1.3e-14)
    rtol = 1e-12 if alpha < 0.1 else 1e-13
    n = 2000
    for d, h in ((2, 0.05), (3, 1.0)):
        got = sim.sample_increment(StableParams(alpha, d), h,
                                   sim.rng_for_block(9, d), n)
        rng = sim.rng_for_block(9, d)
        u = rng.random(n) * math.pi
        e = rng.standard_exponential(n)
        want = _kanter_scale(alpha, h, u, e)[:, None] * rng.standard_normal((n, d))
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("alpha", [0.02, 1.99, 1.999])
def test_increment_finite_at_the_ends_of_alpha(alpha):
    # Kanter's powers overflowed here: 872, 153 and 1,143 non-finite rows
    # per 10^6 draws in the sin/pow form
    got = sim.sample_increment(StableParams(alpha, 2), 0.05,
                               sim.rng_for_block(12, 0), 1_000_000)
    assert np.isfinite(got).all()


def test_increment_isotropy():
    p = StableParams(0.8, 2)
    rng = sim.rng_for_block(5, 0)
    d1 = sim.sample_increment(p, 1.0, rng, 50_000)
    d2 = sim.sample_increment(p, 1.0, rng, 50_000)
    ang = 0.7
    u = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    res = stats.ks_2samp(d1 @ np.array([1.0, 0.0]), (d2 @ u.T) @ np.array([1.0, 0.0]))
    assert res.pvalue > 0.01


def test_increment_self_similarity():
    p = StableParams(0.5, 2)
    rng = sim.rng_for_block(6, 0)
    c = 2.0
    d1 = np.linalg.norm(sim.sample_increment(p, 1.0, rng, 50_000), axis=1)
    d2 = c * np.linalg.norm(sim.sample_increment(p, c ** -p.alpha, rng, 50_000), axis=1)
    res = stats.ks_2samp(d1, d2)
    assert res.pvalue > 0.01


def test_increment_independence_permutation():
    # correlation of consecutive step magnitudes vanishes under permutation
    p = StableParams(0.7, 2)
    rng = sim.rng_for_block(7, 0)
    steps = np.linalg.norm(sim.sample_increment(p, 0.1, rng, 10_001), axis=1)
    r = np.log(steps)
    obs = abs(np.corrcoef(r[:-1], r[1:])[0, 1])
    perm_rng = np.random.default_rng(8)
    count = 0
    n_perm = 500
    for _ in range(n_perm):
        q = perm_rng.permutation(r)
        count += abs(np.corrcoef(q[:-1], q[1:])[0, 1]) >= obs
    assert (count + 1) / (n_perm + 1) > 0.01


def _dense_first_true(mask):
    """Per column of a (K, m) mask, the first row that is True, or K."""
    K, m = mask.shape
    first = np.full(m, K)
    for j in range(m):
        rows = np.flatnonzero(mask[:, j])
        if rows.size:
            first[j] = rows[0]
    return first


@pytest.mark.parametrize("K", [1, 2, 5])
def test_first_true_matches_dense_definition(K):
    rng = np.random.default_rng(K)
    for density in (0.0, 0.02, 0.3, 1.0):
        mask = rng.random((K, 400)) < density
        mask[:, 7] = False    # a column with no True
        mask[:, 11] = True    # a column that is all True
        cols, offs = sim.first_true(mask)
        first = _dense_first_true(mask)
        assert np.array_equal(cols, np.flatnonzero(first < K))
        assert np.array_equal(offs, first[cols])
        assert cols.dtype.kind == offs.dtype.kind == "i"


def _hit_run(p, x0, h, n_steps, T, rng, m=1, r_far=50.0):
    """m paths from x0, each frozen on entering T or leaving B(0, r_far):
    (hit mask, positions, indices live at the horizon)."""
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    hit = np.zeros(m, dtype=bool)

    def stop(k, alive, X):
        inside = sim.per_point(ge.in_target_many, X, T)
        cols, offs = sim.first_true(
            inside | (np.linalg.norm(X, axis=2) > r_far))
        hit[alive[cols[inside[offs, cols]]]] = True
        return cols, offs

    return hit, x, sim.run_paths(p, x, h, n_steps, rng, stop)


def test_run_paths_trivial_cases(monkeypatch):
    p = StableParams(0.5, 2)
    draws = []
    draw = sim.sample_increment

    def counted(p, h, rng, size):
        draws.append(size)
        return draw(p, h, rng, size)

    monkeypatch.setattr(sim, "sample_increment", counted)
    # every live path draws K increments per round of K steps, and a path
    # draws nothing after the round in which it is frozen
    x = np.tile([2.0, 0.0], (200, 1))
    frozen_at = np.full(200, 40)
    rounds = []

    def stop(k, alive, X):
        rounds.append(X.shape[0] * alive.size)
        cols, offs = sim.first_true(np.linalg.norm(X, axis=2) > 3.0)
        frozen_at[alive[cols]] = k + offs
        return cols, offs

    live = sim.run_paths(p, x, 0.05, 40, sim.rng_for_block(2, 0), stop)
    assert 0 < live.size < 200
    assert np.all(np.linalg.norm(x[live], axis=1) <= 3.0)
    assert np.all(frozen_at[live] == 40)
    assert np.all(np.linalg.norm(x[frozen_at < 40], axis=1) > 3.0)
    assert draws == rounds and draws[0] == 200 and max(draws) <= 200
    assert frozen_at.sum() <= sum(draws)
    # a block that starts inside the target is all hits and draws nothing
    draws.clear()
    rep = cond.hitting_experiment(p, ge.CapSet.full_sphere(2), (1.1, 0.0), [0.2],
                                  n_paths=100, seed=1).data
    assert rep["estimates"][0]["p_hat"] == 1.0
    assert rep["extras"]["horizon_censored_fraction"] == [0.0]
    assert draws == []


def _gather_scatter_run(p, x, h, n_steps, rng, freeze, rounds=True):
    """The stepping loop written step by step: each round draws K steps per
    live path (K = 1 without ``rounds``), in the engine's step-major
    layout, then updates x[alive] one step at a time and drops the paths
    that ``freeze(k, idx, pos)`` freezes.  Returns (live indices, the
    (first step, K, draw size) of every round)."""
    alive = np.arange(len(x))
    log = []
    k = 1
    while k <= n_steps and alive.size:
        K = min(len(x) // alive.size, n_steps - k + 1) if rounds else 1
        inc = sim.sample_increment(p, h, rng, K * alive.size)
        inc = inc.reshape(K, alive.size, -1)
        log.append((k, K, K * alive.size))
        live = np.ones(alive.size, dtype=bool)
        for j in range(K):
            cols = np.flatnonzero(live)
            idx = alive[cols]
            x[idx] += inc[j, cols]
            live[cols[freeze(k + j, idx, x[idx])]] = False
        alive = alive[live]
        k += K
    return alive, log


@pytest.mark.parametrize("case", ["staggered", "all_at_step_1", "never",
                                  "horizon_cut"])
def test_run_paths_matches_gather_scatter_loop(monkeypatch, case):
    p = StableParams(0.7, 3)
    m = 300
    n_steps = 13 if case == "horizon_cut" else 25
    x0 = np.random.default_rng(3).standard_normal((m, 3))

    def freeze(k, alive, pos):
        # per step, from the path index and its position only
        if case == "all_at_step_1":
            return np.ones(alive.size, dtype=bool)
        if case == "never":
            return np.zeros(alive.size, dtype=bool)
        if case == "horizon_cut":
            # 4 of 5 paths at step 1, then 1 in 7 of the rest at step 9
            return (alive % 5 != 0) & (k == 1) | (alive % 7 == 0) & (k == 9)
        # by index at every fourth step, by position at every step
        return (((alive + k) % 11 == 0) & (k % 4 == 0)) \
            | (np.linalg.norm(pos, axis=1) > 4.0)

    x_ref = x0.copy()
    live_ref, log_ref = _gather_scatter_run(p, x_ref, 0.05, n_steps,
                                            sim.rng_for_block(8, 2), freeze)

    log, draws = [], []
    draw = sim.sample_increment

    def counted(p, h, rng, size):
        draws.append(size)
        return draw(p, h, rng, size)

    def stop(k, alive, X):
        assert X.shape == (X.shape[0], alive.size, 3)
        log.append((k, len(X), X.shape[0] * alive.size))
        mask = np.stack([freeze(k + j, alive, X[j]) for j in range(len(X))])
        return sim.first_true(mask)

    monkeypatch.setattr(sim, "sample_increment", counted)
    x = x0.copy()
    live = sim.run_paths(p, x, 0.05, n_steps, sim.rng_for_block(8, 2), stop)

    assert np.array_equal(x, x_ref)
    assert np.array_equal(live, live_ref)
    assert log == log_ref
    assert draws == [size for _, _, size in log]
    assert max(draws) <= m
    # the rounds cover steps 1, 2, ... without a gap and stop at the horizon
    assert [k for k, _, _ in log] == list(np.cumsum([1] + [K for _, K, _ in log])[:-1])
    assert log[-1][0] + log[-1][1] - 1 <= n_steps
    if case == "all_at_step_1":
        assert draws == [m] and live.size == 0
    elif case == "never":
        # every path stays live, so every round is one step: the per-step
        # loop, bit for bit
        assert draws == [m] * n_steps and np.array_equal(live, np.arange(m))
        x_step = x0.copy()
        _gather_scatter_run(p, x_step, 0.05, n_steps, sim.rng_for_block(8, 2),
                            freeze, rounds=False)
        assert np.array_equal(x, x_step)
    elif case == "horizon_cut":
        # rounds of 5 steps from step 2; the last is cut to steps 12-13
        assert [(k, K) for k, K, _ in log] == [(1, 1), (2, 5), (7, 5), (12, 2)]
        assert 0 < live.size < m // 5
    else:
        assert any(K > 1 for _, K, _ in log) and 0 < live.size < m


def _scripted(monkeypatch, script):
    """Make ``sample_increment`` return the arrays of ``script`` in turn."""
    calls = iter(script)

    def scripted(p, h, rng, size):
        inc = np.array(next(calls), dtype=float)
        assert inc.shape == (size, p.d)
        return inc

    monkeypatch.setattr(sim, "sample_increment", scripted)


def test_round_observations_stop_at_the_freeze(monkeypatch):
    # four paths from (0, 2); three leave the far field at step 1, so the
    # fourth steps alone in one round of steps 2-5 (K = 4 // 1)
    p = StableParams(0.5, 2)
    far = [100.0, 0.0]
    a_cap = ge.shell(ge.CapSet.single((1.0, 0.0), 0.3), 0.1)
    b_cap = ge.shell(ge.CapSet.single((-1.0, 0.0), 0.3), 0.1)
    # steps 2-5 of the fourth path: (0, 3), (1, 0), (-1, 0), (0, 3)
    round_ = [[0.0, 0.0], [1.0, -3.0], [-2.0, 0.0], [1.0, 3.0]]
    for stop_target, monitor_target, counts in (
            # stop at step 3, monitor entry only at step 4: not counted
            (a_cap, b_cap, (1, 0, 0, 0)),
            # monitor entry at step 3, stop at step 4: counted, and the
            # entry point is outside the stop target
            (b_cap, a_cap, (1, 1, 0, 0)),
            # monitor entry and stop both at step 3: counted, inside
            (a_cap, ge.shell(ge.CapSet.full_sphere(2), 0.1), (1, 1, 1, 0))):
        _scripted(monkeypatch, [[far, far, far, [0.0, 1.0]], round_])
        assert cond._hit_block(0, [4], 0, 0, p, stop_target, monitor_target,
                               (0.0, 2.0), 0.01, 5, 50.0) == counts
    # occupation of the ball B((0, 3), 0.5): the fourth path is inside at
    # steps 1 and 2 and leaves the far field at step 3; steps 4 and 5, back
    # inside after the freeze, add nothing
    h = 0.01
    _scripted(monkeypatch, [[far, far, far, [0.0, 1.0]],
                            [[0.0, 0.0], [0.0, 100.0], [0.0, -100.0], [0.0, 0.0]]])
    occ, occ2 = cond._occupation_block(0, [4], 0, p, (0.0, 2.0), (0.0, 3.0),
                                       0.5, h, 5, 50.0)
    assert occ == 2 * h and occ2 == (2 * h) ** 2


def test_resolution_rule():
    p = StableParams(0.5, 2)
    with pytest.raises(ValueError, match="too coarse"):
        cond.hitting_experiment(p, ge.CapSet.full_sphere(2), (2.0, 0.0), [0.1],
                                n_paths=10, h=0.05, seed=1)


def test_hit_record_invariant():
    # a path frozen by the target stays where it entered: inside T
    p = StableParams(0.5, 2)
    T = ge.shell(ge.CapSet.full_sphere(2), 0.2)
    hit, x, live = _hit_run(p, (1.5, 0.0), 0.05, 800, T, sim.rng_for_block(0, 0),
                            m=256)
    assert 0 < hit.sum() < 256
    assert ge.in_target_many(x[hit], T).all()
    assert not np.isin(live, np.nonzero(hit)[0]).any()
    gone = ~hit
    gone[live] = False
    assert np.all(np.linalg.norm(x[gone], axis=1) > 50.0)


def test_refinement_one_sided():
    """Halving h never decreases hit frequency by more than noise."""
    p = StableParams(0.5, 2)
    n = 3000
    freqs = []
    for h in (0.025, 0.0125):
        T = ge.shell(ge.CapSet.full_sphere(2), 0.2)
        # one n-path block per h, on the stream of block 0 of seed 1000
        hit, _, _ = _hit_run(p, (1.5, 0.0), h, int(math.ceil(30.0 / h)), T,
                             sim.rng_for_block(1000, 0), m=n)
        freqs.append(hit.sum() / n)
    se = math.sqrt(2 * freqs[0] * (1 - freqs[0]) / n)
    assert freqs[1] >= freqs[0] - 4 * se


def test_block_rng_reproducible_and_distinct():
    a = sim.rng_for_block(7, 3).standard_normal(4)
    b = sim.rng_for_block(7, 3).standard_normal(4)
    c = sim.rng_for_block(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
