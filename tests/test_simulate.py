import math

import numpy as np
import pytest
from scipy import stats

from stablecond import condition as cond
from stablecond import geometry as ge
from stablecond import simulate as sim
from stablecond.potential import StableParams


def test_positive_stable_laplace_transform():
    rng = sim.rng_for_block(1, 0)
    s = sim.sample_positive_stable(0.5, rng, 1_000_000)
    vals = np.exp(-s)
    z = (vals.mean() - math.exp(-1.0)) / (vals.std() / math.sqrt(len(vals)))
    assert abs(z) < 4.0


def test_positive_stable_levy_cdf():
    rng = sim.rng_for_block(2, 0)
    s = sim.sample_positive_stable(0.5, rng, 100_000)
    res = stats.kstest(s, lambda t: stats.levy.cdf(t, scale=0.5))
    assert res.statistic < 0.005


def test_positive_stable_scaling():
    # horizon-t draws have the law of t^{1/beta} unit draws: quantile ratios
    rng = sim.rng_for_block(3, 0)
    beta = 0.4
    s1 = np.sort(sim.sample_positive_stable(beta, rng, 50_000))
    t = 3.0
    s2 = np.sort(t ** (1.0 / beta) * sim.sample_positive_stable(beta, rng, 50_000))
    q = np.linspace(0.05, 0.95, 10)
    r1 = np.quantile(s1, q) * t ** (1.0 / beta)
    r2 = np.quantile(s2, q)
    assert np.allclose(r1 / r2, 1.0, atol=0.06)


def test_positive_stable_domain():
    rng = sim.rng_for_block(0, 0)
    with pytest.raises(ValueError):
        sim.sample_positive_stable(1.0, rng, 1)


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


def _hit_run(p, x0, h, n_steps, T, rng, m=1, r_far=50.0):
    """m paths from x0, each frozen on entering T or leaving B(0, r_far):
    (hit mask, positions, indices live at the horizon)."""
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    hit = np.zeros(m, dtype=bool)

    def stop(k, alive, xl):
        inside = ge.in_target_many(xl, T)
        hit[alive[inside]] = True
        return inside | (np.linalg.norm(xl, axis=1) > r_far)

    return hit, x, sim.run_paths(p, x, h, n_steps, rng, stop)


def test_run_paths_trivial_cases(monkeypatch):
    p = StableParams(0.5, 2)
    draws = []
    draw = sim.sample_increment

    def counted(p, h, rng, size):
        draws.append(size)
        return draw(p, h, rng, size)

    monkeypatch.setattr(sim, "sample_increment", counted)
    # every path draws one increment per step until it is frozen
    x = np.tile([2.0, 0.0], (200, 1))
    frozen_at = np.full(200, 40)

    def stop(k, alive, xl):
        gone = np.linalg.norm(xl, axis=1) > 3.0
        frozen_at[alive[gone]] = k
        return gone

    live = sim.run_paths(p, x, 0.05, 40, sim.rng_for_block(2, 0), stop)
    assert 0 < live.size < 200
    assert np.all(np.linalg.norm(x[live], axis=1) <= 3.0)
    assert np.all(frozen_at[live] == 40)
    assert draws[0] == 200 and sum(draws) == frozen_at.sum()
    # a block that starts inside the target is all hits and draws nothing
    draws.clear()
    rep = cond.hitting_experiment(p, ge.CapSet.full_sphere(2), (1.1, 0.0), [0.2],
                                  n_paths=100, seed=1).data
    assert rep["estimates"][0]["p_hat"] == 1.0
    assert rep["extras"]["horizon_censored_fraction"] == [0.0]
    assert draws == []


def _gather_scatter_run(p, x, h, n_steps, rng, stop, draws):
    """The stepping loop that keeps no live array: each step updates
    x[alive] in place and hands the callback the whole block."""
    alive = np.arange(len(x))
    for k in range(1, n_steps + 1):
        if alive.size == 0:
            break
        draws.append(alive.size)
        x[alive] += sim.sample_increment(p, h, rng, alive.size)
        alive = alive[~stop(k, alive, x)]
    return alive


@pytest.mark.parametrize("case", ["staggered", "all_at_step_1", "never"])
def test_run_paths_matches_gather_scatter_loop(monkeypatch, case):
    p = StableParams(0.7, 3)
    m, n_steps = 300, 25
    x0 = np.random.default_rng(3).standard_normal((m, 3))

    def freeze(k, alive, pos):
        if case == "all_at_step_1":
            return np.ones(alive.size, dtype=bool)
        if case == "never":
            return np.zeros(alive.size, dtype=bool)
        # by index at every fourth step, by position at every step
        return (((alive + k) % 11 == 0) & (k % 4 == 0)) \
            | (np.linalg.norm(pos, axis=1) > 4.0)

    seen_ref, draws_ref = [], []

    def stop_ref(k, alive, x):
        seen_ref.append((k, alive.copy(), x[alive].copy()))
        return freeze(k, alive, x[alive])

    x_ref = x0.copy()
    live_ref = _gather_scatter_run(p, x_ref, 0.05, n_steps, sim.rng_for_block(8, 2),
                                   stop_ref, draws_ref)

    seen, draws = [], []
    draw = sim.sample_increment

    def counted(p, h, rng, size):
        draws.append(size)
        return draw(p, h, rng, size)

    def stop(k, alive, xl):
        assert xl.flags.c_contiguous and xl.shape == (alive.size, 3)
        seen.append((k, alive.copy(), xl.copy()))
        return freeze(k, alive, xl)

    monkeypatch.setattr(sim, "sample_increment", counted)
    x = x0.copy()
    live = sim.run_paths(p, x, 0.05, n_steps, sim.rng_for_block(8, 2), stop)

    assert np.array_equal(x, x_ref)
    assert np.array_equal(live, live_ref)
    assert draws == draws_ref
    assert len(seen) == len(seen_ref)
    for (k, alive, xl), (k_ref, alive_ref, x_alive_ref) in zip(seen, seen_ref):
        assert k == k_ref
        assert np.array_equal(alive, alive_ref)
        assert np.array_equal(xl, x_alive_ref)
    if case == "all_at_step_1":
        assert draws == [m] and live.size == 0
    elif case == "never":
        assert draws == [m] * n_steps and np.array_equal(live, np.arange(m))
    else:
        assert len(set(draws)) > 5 and 0 < live.size < m


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
        hits = 0
        for k in range(n):
            # one path per run, on the stream of block 0 of seed 1000 + k
            hit, _, _ = _hit_run(p, (1.5, 0.0), h, int(math.ceil(30.0 / h)), T,
                                 sim.rng_for_block(1000 + k, 0))
            hits += int(hit[0])
        freqs.append(hits / n)
    se = math.sqrt(2 * freqs[0] * (1 - freqs[0]) / n)
    assert freqs[1] >= freqs[0] - 4 * se


def test_far_field_reentry_probability():
    # transience truncation bias: small at the default radius (measured
    # ~1.2e-3 for alpha=0.5, d=2, marginally above the 1e-3 design figure)
    # and decreasing in the radius, reaching 1e-3 by r_far = 100
    p = StableParams(0.5, 2)
    p50 = sim.reentry_probability(p, r_far=50.0, annulus=1.2, n_paths=20_000,
                                  h=0.05, seed=9, horizon=200.0)
    assert p50 <= 2e-3
    p100 = sim.reentry_probability(p, r_far=100.0, annulus=1.2, n_paths=20_000,
                                   h=0.05, seed=9, horizon=300.0)
    assert p100 <= 1e-3
    assert p100 <= p50


def test_block_rng_reproducible_and_distinct():
    a = sim.rng_for_block(7, 3).standard_normal(4)
    b = sim.rng_for_block(7, 3).standard_normal(4)
    c = sim.rng_for_block(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
