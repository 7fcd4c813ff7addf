import json
import math

import numpy as np
import pytest

from stablecond import condition as cond
from stablecond import geometry as ge
from stablecond import potential as pot
from stablecond import simulate as sim
from stablecond.potential import StableParams

P2 = StableParams(0.5, 2)
FULL = ge.CapSet.full_sphere(2)
HALF = ge.CapSet.single((1.0, 0.0), math.pi / 2)
QUARTER = ge.CapSet.single((1.0, 0.0), math.pi / 8)


def test_mc_estimate_invariants():
    with pytest.raises(ValueError):
        cond.MCEstimate(0.0, 0.0, 0, 0)
    est = cond.MCEstimate(1.0, 0.1, 100, 7)
    assert est.n == 100


def test_grid_report_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        cond.hitting_experiment(P2, FULL, (2.0, 0.0), [0.1, 0.2], n_paths=20,
                                seed=1)
    with pytest.raises(ValueError, match="strictly decreasing"):
        cond.strike_experiment(P2, FULL, HALF, (2.0, 0.0), [0.1, 0.2],
                               n_paths=20, seed=1)


@pytest.mark.parametrize("x0,t", [((0.0, 2.0), 0.25), ((1.5, 0.5), 0.1),
                                  ((-2.0, -1.0), 0.5)])
def test_martingale_mean_one(x0, t):
    est = cond.martingale_check(P2, HALF, x0, t, 15_000, h=0.01, seed=21)
    assert abs(est.value - 1.0) <= 4.0 * est.stderr


def test_martingale_mean_one_d3():
    # paths freeze within 0.05 of S, where d >= 3 weights once raised
    S = ge.CapSet.single((1.0, 0.0, 0.0), math.pi / 2)
    est = cond.martingale_check(StableParams(0.5, 3), S, (1.5, 0.5, 0.0), 0.1, 15_000,
                                h=0.01, seed=21)
    assert abs(est.value - 1.0) <= 4.0 * est.stderr


def test_hitting_experiment_small():
    rep = cond.hitting_experiment(P2, FULL, (2.0, 0.0), [0.2, 0.1],
                                  n_paths=6000, seed=31).data
    theory = rep["theory"]["value"]
    assert theory == pytest.approx(
        pot.constants(P2).A_sphere_eq
        * pot.full_sphere_harmonic_closed(2.0, P2), rel=1e-9)
    assert "published" in rep["theory"]["alternatives"]
    for est in rep["estimates"]:
        assert 0.0 < est["scaled"] < 10.0 * theory
        assert est["stderr"] > 0.0


def test_hitting_theory_log_case_scaling():
    p1 = StableParams(1.0, 2)
    est = cond.hitting_experiment(p1, FULL, (2.0, 0.0), [0.2], n_paths=2000,
                                  seed=32).data["estimates"][0]
    assert est["scaled"] == pytest.approx(abs(math.log(0.2)) * est["p_hat"])


def test_hitting_event_inclusion_shared_seeds():
    # smaller target set gives no more hits, path by path (same seeds)
    rep_small = cond.hitting_experiment(P2, QUARTER, (2.0, 0.0), [0.1],
                                        n_paths=4000, seed=33).data
    rep_big = cond.hitting_experiment(P2, HALF, (2.0, 0.0), [0.1],
                                      n_paths=4000, seed=33).data
    assert rep_small["estimates"][0]["p_hat"] \
        <= rep_big["estimates"][0]["p_hat"] + 1e-12


def test_streams_distinct_across_seed_and_level():
    # seed s at eps index 1 and seed s + 1000 at eps index 0, same eps and
    # h, draw different streams (one seed offset per level made them equal)
    at_level_1 = cond.hitting_experiment(P2, HALF, (2.0, 0.0), [0.2, 0.1],
                                         n_paths=2000, h=0.0125, seed=31).data
    at_level_0 = cond.hitting_experiment(P2, HALF, (2.0, 0.0), [0.1],
                                         n_paths=2000, h=0.0125, seed=1031).data
    assert at_level_1["estimates"][1]["p_hat"] \
        != at_level_0["estimates"][0]["p_hat"]


def test_strike_exact_cases():
    rep = cond.strike_experiment(P2, FULL, FULL, (2.0, 0.0), [0.1],
                                 n_paths=3000, seed=41).data
    assert rep["estimates"][0]["p_hat"] == 1.0
    assert rep["theory"]["value"] == 1.0
    rep2 = cond.strike_experiment(P2, FULL, HALF, (0.0, 0.0), [0.1],
                                  n_paths=20_000, seed=42).data
    est = rep2["estimates"][0]
    assert rep2["theory"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert abs(est["p_hat"] - 0.5) <= 3.0 * est["stderr"]


def test_strike_subset_precondition():
    left = ge.CapSet.single((-1.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        cond.strike_experiment(P2, QUARTER, left, (2.0, 0.0), [0.1],
                               n_paths=100, seed=1)


def test_strike_degenerate_reported():
    # a start far away with a tiny horizon yields no outer hits
    rep = cond.strike_experiment(P2, FULL, QUARTER, (40.0, 0.0), [0.1],
                                 n_paths=50, seed=43, horizon=0.3).data
    assert rep["extras"]["degenerate_eps"] == [0.1] \
        or rep["estimates"][0]["n"] > 0


def test_theory_ratio_composition():
    x = np.array([2.0, 0.0])
    hq = pot.sphere_harmonic(QUARTER, x, P2)
    hh = pot.sphere_harmonic(HALF, x, P2)
    hf = pot.sphere_harmonic(FULL, x, P2)
    assert (hq / hh) * (hh / hf) == pytest.approx(hq / hf, rel=1e-12)


def test_strike_rotation_invariance():
    ang = 1.1
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    x = np.array([2.0, 0.0])
    quarter_rot = ge.CapSet.single(tuple(rot @ np.array([1.0, 0.0])), math.pi / 8)
    full_rot = ge.CapSet.full_sphere(2)
    t1 = pot.sphere_harmonic(QUARTER, x, P2) / pot.sphere_harmonic(FULL, x, P2)
    t2 = pot.sphere_harmonic(quarter_rot, rot @ x, P2) \
        / pot.sphere_harmonic(full_rot, rot @ x, P2)
    assert t1 == pytest.approx(t2, rel=1e-8)
    # estimates agree within Monte Carlo error
    r1 = cond.strike_experiment(P2, FULL, QUARTER, x, [0.1], n_paths=8000, seed=44)
    r2 = cond.strike_experiment(P2, full_rot, quarter_rot, rot @ x, [0.1],
                                n_paths=8000, seed=45)
    e1, e2 = r1.data["estimates"][0], r2.data["estimates"][0]
    assert abs(e1["p_hat"] - e2["p_hat"]) \
        <= 4.0 * math.hypot(e1["stderr"], e2["stderr"])


def test_duality_t0_identities():
    wf = cond.Window((2.0, 0.0), 0.3)
    wg = cond.Window((0.0, 2.0), 0.3)
    rep = cond.duality_experiment(P2, HALF, wf, wg, 0.0, 100, seed=51).data
    assert rep["lhs"]["value"] == 0.0 and rep["rhs"]["value"] == 0.0
    rep2 = cond.duality_experiment(P2, HALF, wf, wf, 0.0, 100, seed=51).data
    assert rep2["lhs"]["value"] == rep2["rhs"]["value"]
    assert rep2["lhs"]["value"] > 0.0


def test_duality_window_clearance():
    wf = cond.Window((1.2, 0.0), 0.3)  # touches the set's neighbourhood
    wg = cond.Window((0.0, 2.0), 0.3)
    with pytest.raises(ValueError):
        cond.duality_experiment(P2, HALF, wf, wg, 0.5, 100, seed=52)


def test_duality_window_center_needs_d_coordinates():
    # (2,) was padded to (2, 0) for the clearance check but broadcast to
    # (2, 2) by the window itself; (2, 0, 0) failed in numpy broadcasting
    wg = cond.Window((0.0, 2.0), 0.3)
    for center in ((2.0,), (2.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="must have d = 2 coordinates"):
            cond.duality_experiment(P2, HALF, cond.Window(center, 0.3), wg, 0.5,
                                    100, seed=52)
        with pytest.raises(ValueError, match="must have d = 2 coordinates"):
            cond.duality_experiment(P2, HALF, wg, cond.Window(center, 0.3), 0.0,
                                    100, seed=52)


def test_duality_envelope_guard():
    win = cond.Window((2.0, 0.0), 0.3)
    _, hmax = cond._eta_mass(HALF, win, P2)
    xs, hs = cond._sample_eta_window(HALF, win, P2, sim.rng_for_block(54, 0), 200,
                                     hmax)
    assert xs.shape == (200, 2)
    # the sampler returns H_S at the accepted points, for the duality weight;
    # the kernel sums of a different batch of points may differ in the last bit
    np.testing.assert_allclose(hs, pot.sphere_harmonic_many(HALF, xs, P2),
                               rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="envelope"):
        cond._sample_eta_window(HALF, win, P2, sim.rng_for_block(54, 0), 200,
                                0.1 * hmax)


def test_duality_identity_small():
    wf = cond.Window((2.0, 0.0), 0.3)
    wg = cond.Window((0.0, 2.0), 0.3)
    rep = cond.duality_experiment(P2, HALF, wf, wg, 0.5, 30_000, seed=53).data
    lhs, rhs = rep["lhs"], rep["rhs"]
    tol = 4.0 * math.hypot(lhs["stderr"], rhs["stderr"])
    assert abs(lhs["value"] - rhs["value"]) <= tol


def test_occupation_check_small():
    est, theory = cond.occupation_check(P2, (3.0, 0.0), (0.0, 0.0), 0.5,
                                        4000, h=0.02, seed=61)
    assert est.value == pytest.approx(theory, rel=0.25)


def test_reversal_structure():
    rep = cond.reversal_experiment(P2, HALF, r_exit=2.0, n_paths=2048,
                                   h=0.02, seed=71, horizon=15.0).data
    assert rep["first_reversed_point_inside_fraction"] == 1.0
    assert rep["occupied_bins"] >= 4
    for b in rep["bins"]:
        assert b["n_reversed"] >= 50
        assert math.isfinite(b["z"])
    json.dumps(rep)  # report must serialise


def test_worker_count_independence():
    kwargs = dict(n_paths=6000, seed=81)
    r1 = cond.hitting_experiment(P2, FULL, (2.0, 0.0), [0.2], workers=1, **kwargs)
    r2 = cond.hitting_experiment(P2, FULL, (2.0, 0.0), [0.2], workers=3, **kwargs)
    e1, e2 = r1.data["estimates"], r2.data["estimates"]
    assert e1[0]["p_hat"] == e2[0]["p_hat"]
    assert [e["scaled"] for e in e1] == [e["scaled"] for e in e2]


def test_scaled_sanity_envelope():
    rep = cond.hitting_experiment(P2, HALF, (2.0, 0.0), [0.2, 0.1],
                                  n_paths=4000, seed=91).data
    for est in rep["estimates"]:
        assert 0.0 < est["scaled"] < 10.0 * rep["theory"]["value"]


def _dense_hit_stop(stop_target, monitor_target, r_far, hit_stop, hit_mon,
                    first_in_stop):
    """The hitting callback written densely: every position takes the full
    membership test, and the freeze offset of every live path is returned,
    K for a path that stays live."""
    def first_or_K(mask):
        return np.where(mask.any(axis=0), mask.argmax(axis=0), len(mask))

    def stop(k, alive, X):
        K = len(X)
        inside = sim.per_point(ge.in_target_many, X, stop_target)
        first = first_or_K(inside | (sim.per_point(ge.row_norms, X) > r_far))
        if monitor_target is not None:
            entry = first_or_K(sim.per_point(ge.in_target_many, X, monitor_target))
            j = np.flatnonzero((entry < K) & (entry <= first) & ~hit_mon[alive])
            hit_mon[alive[j]] = True
            first_in_stop[alive[j]] = inside[entry[j], j]
        j = np.flatnonzero(first < K)
        hit_stop[alive[j[inside[first[j], j]]]] = True
        return first

    return stop


def _hit_positions(rng, kind, eps, r_far, n):
    """n positions near a shell (d = 2) or a slab in z = 0 (d = 3), some far,
    plus the edge cases: the band edges, radius 0 and r_far, cap and disk
    boundaries, and the infinite and NaN rows of an overflowing sampler."""
    inf, nan = np.inf, np.nan
    if kind == "shell":
        t = rng.uniform(-np.pi, np.pi, n)
        rad = rng.uniform(1.0 - 2 * eps, 1.0 + 2 * eps, n)
        rad[::5] = rng.uniform(0.9 * r_far, 1.1 * r_far, rad[::5].size)
        X = rad[:, None] * np.column_stack([np.cos(t), np.sin(t)])
        edges = [(0.0, 0.0), (1.0 + eps, 0.0), (1.0 - eps, 0.0),
                 (0.0, -(1.0 + eps)), (-(1.0 - eps), 0.0), (r_far, 0.0),
                 (0.0, -r_far), (np.nextafter(r_far, inf), 0.0),
                 (inf, 0.0), (-inf, inf), (inf, nan), (nan, 0.0), (nan, nan)]
        # on the boundaries of the caps of radius 0.5 and 1 about (1, 0)
        for ang in (0.5, -0.5, 1.0):
            for rho in (1.0, 1.0 + eps, 1.0 - eps):
                edges.append((rho * math.cos(ang), rho * math.sin(ang)))
    else:
        X = np.column_stack([rng.uniform(-1.5, 1.5, (n, 2)),
                             rng.uniform(-2 * eps, 2 * eps, n)])
        X[::5] *= r_far
        edges = [(0.0, 0.0, 0.0), (0.5, 0.0, eps), (0.0, -0.5, -eps),
                 (1.0, 0.0, eps), (0.0, 1.0, -eps), (0.6, 0.8, 0.0),
                 (0.0, 0.0, r_far), (r_far, 0.0, 0.0),
                 (np.nextafter(r_far, inf), 0.0, 0.0), (0.0, 0.0, inf),
                 (inf, -inf, 0.0), (0.0, nan, 0.0), (nan, nan, nan)]
    X[rng.choice(n, len(edges), replace=False)] = edges
    return X


def test_hit_callback_matches_dense_membership():
    # the callback freezes and classifies exactly like the full test
    # in_target_many(X, T) | (row_norms(X) > r_far) on every position
    eps, r_far = 0.05, 4.0
    shell_cases = [(ge.shell(ge.CapSet.single((1.0, 0.0), 0.5), eps), None),
                   (ge.shell(ge.CapSet.single((1.0, 0.0), 0.5), eps),
                    ge.shell(ge.CapSet.single((1.0, 0.0), 1.0), eps)),
                   (ge.shell(FULL, eps), ge.shell(QUARTER, eps))]
    slab_cases = [(ge.slab(ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 0.5), eps),
                   ge.slab(ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0), eps))]
    rng = np.random.default_rng(41)
    totals = np.zeros(4, dtype=int)
    for kind, cases in (("shell", shell_cases), ("slab", slab_cases)):
        for stop_target, monitor_target in cases:
            for K in (1, 2, 6):
                m, live = 150, 60
                alive = np.sort(rng.choice(m, live, replace=False))
                X = _hit_positions(rng, kind, eps, r_far, K * live)
                X = X.reshape(K, live, -1)
                start = (np.zeros(m, bool), rng.random(m) < 0.2, np.zeros(m, bool))
                ref = tuple(a.copy() for a in start)
                got = tuple(a.copy() for a in start)
                with np.errstate(invalid="ignore", over="ignore"):
                    first = _dense_hit_stop(stop_target, monitor_target,
                                            r_far, *ref)(1, alive, X)
                    cols, offs = cond._hit_stop(stop_target, monitor_target,
                                                r_far, *got)(1, alive, X)
                assert np.array_equal(cols, np.flatnonzero(first < K))
                assert np.array_equal(offs, first[cols])
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b)
                totals += [cols.size, ref[0].sum(), ref[1].sum() - start[1].sum(),
                           ref[2].sum()]
    # the positions freeze paths, hit the stop target, and enter the monitor
    # both inside and outside the stop target
    assert (totals > 0).all()


def test_random_streams_pinned():
    # integer counts of small seeded runs: every change that keeps the
    # random streams keeps them; a deliberate change of streams updates
    # them and says so
    rep = cond.hitting_experiment(P2, FULL, (2.0, 0.0), [0.2, 0.1],
                                  n_paths=5000, seed=101).data
    assert [e["p_hat"] for e in rep["estimates"]] == [655 / 5000, 500 / 5000]
    rep = cond.strike_experiment(P2, FULL, QUARTER, (2.0, 0.0), [0.1],
                                 n_paths=3000, seed=102).data
    assert rep["extras"]["hit_counts"] == [(79, 247, 70)]
    rev = cond.reversal_experiment(P2, HALF, r_exit=2.0, n_paths=1500, h=0.02,
                                   seed=103, horizon=10.0).data
    assert [b["n_reversed"] for b in rev["bins"]] == \
        [59, 153, 299, 637, 717, 472, 349, 292]
