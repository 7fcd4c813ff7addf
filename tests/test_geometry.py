import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stablecond import geometry as ge


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# -- types ---------------------------------------------------------------------

def test_capset_validation():
    with pytest.raises(ValueError):
        ge.CapSet((((1.0, 0.0), 0.0),), 2)        # zero radius
    with pytest.raises(ValueError):
        ge.CapSet((((2.0, 0.0), 1.0),), 2)        # non-unit center
    with pytest.raises(ValueError):
        ge.CapSet((), 2)                          # no caps
    full = ge.CapSet.full_sphere(4)
    assert full.caps[0][1] == math.pi


def test_planarset_validation():
    with pytest.raises(ValueError):
        ge.PlanarSet.ball((0, 0, 1), (0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        ge.PlanarSet.box((0, 0, 1), (0.0, 0.0), (0.0, 1.0))  # empty extent
    box = ge.PlanarSet.box((0, 0, 1), (-1.0, -2.0), (1.0, 2.0))
    assert box.params == ((-1.0, -2.0), (1.0, 2.0))


def test_target_validation():
    S = ge.CapSet.full_sphere(2)
    with pytest.raises(ValueError):
        ge.shell(S, 0.0)
    with pytest.raises(ValueError):
        ge.shell(S, 0.1, -0.1)
    assert ge.shell(S, 0.1).d == 2


# -- angular distance -----------------------------------------------------------

def test_angular_distance_full_sphere():
    S = ge.CapSet.full_sphere(3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta = unit(rng.standard_normal(3))
        assert ge.angular_distance_many(S, np.array([theta]))[0] == 0.0


def test_angular_distance_hemisphere_antipode():
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    assert ge.angular_distance_many(S, np.array([(-1.0, 0.0)]))[0] \
        == pytest.approx(math.pi / 2)


def test_angular_distance_two_caps_brute_force():
    caps = ge.CapSet((((1.0, 0.0, 0.0), 0.4), ((0.0, 1.0, 0.0), 0.3)), 3)
    theta = unit((1.0, 1.0, 0.2))
    # oracle: dense sampling of both cap boundaries
    rng = np.random.default_rng(1)
    best = math.inf
    for center, radius in caps.caps:
        c = np.asarray(center)
        for _ in range(20000):
            g = rng.standard_normal(3)
            g -= (g @ c) * c
            g /= np.linalg.norm(g)
            bd = math.cos(radius) * c + math.sin(radius) * g
            best = min(best, math.acos(np.clip(theta @ bd, -1, 1)))
    assert ge.angular_distance_many(caps, np.array([theta]))[0] \
        == pytest.approx(best, abs=1e-3)


# -- surface measure -------------------------------------------------------------

def test_shell_distance_keeps_relative_accuracy_near_the_set():
    # r^2 + 1 - 2 r cos(phi) cancels: it read 0.0 at 1e-8 and 1e-10 outside
    # a half circle; the distance must keep its relative accuracy down to
    # 1e-12.  Radial points have phi = 0 and |r - 1| exact in floating point.
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    for delta in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12):
        for sign in (1.0, -1.0):
            r = 1.0 + sign * delta
            # the cap centre and the cap edge (0, 1)
            X = np.array([[r, 0.0], [0.0, r]])
            want = abs(r - 1.0)
            got = ge.euclidean_distance_to_shell_many(S, X)
            assert got == pytest.approx([want, want], rel=1e-6, abs=0.0), delta
            assert ge.euclidean_distance_to_shell(S, X[0]) == got[0]
    # beyond the cap edge along the circle: the chord 2 sin(delta/2); arccos
    # near pi/2 is accurate to about 2e-16 absolute, so down to 1e-8
    for delta in (1e-6, 1e-7, 1e-8):
        x = np.array([-math.sin(delta), math.cos(delta)])
        want = 2.0 * math.sin(delta / 2.0)
        assert ge.euclidean_distance_to_shell(S, x) == pytest.approx(want, rel=1e-6)
    assert ge.euclidean_distance_to_shell(S, np.zeros(2)) == 1.0


def test_shell_distance_of_a_nonfinite_row_is_nan():
    # a NaN distance freezes a path in the martingale stop test; only the
    # origin is at distance 1
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    X = np.array([[np.nan, np.nan], [np.inf, 0.0], [0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        got = ge.euclidean_distance_to_shell_many(S, X)
    assert np.isnan(got[0]) and np.isnan(got[1])
    assert got[2] == 1.0


def test_surface_measure_basic():
    for d in (2, 3, 4, 5):
        assert ge.surface_measure(ge.CapSet.full_sphere(d)) == pytest.approx(1.0)
        hemi = ge.CapSet.single((1.0,) + (0.0,) * (d - 1), math.pi / 2)
        assert ge.surface_measure(hemi) == pytest.approx(0.5, rel=1e-10)
    arc = ge.CapSet.single((1.0, 0.0), math.pi / 3)
    assert ge.surface_measure(arc) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_surface_measure_overlapping_union():
    # two orthogonal hemispheres in R^3: complement is a quarter lune
    S = ge.CapSet((((1, 0, 0), math.pi / 2), ((0, 1, 0), math.pi / 2)), 3)
    assert ge.surface_measure(S) == pytest.approx(0.75, rel=1e-8)
    # overlapping arcs on the circle are exact
    S2 = ge.CapSet((((1.0, 0.0), 1.0),
                    ((math.cos(0.8), math.sin(0.8)), 1.0)), 2)
    assert ge.surface_measure(S2) == pytest.approx((2.0 + 0.8) / (2 * math.pi),
                                                   rel=1e-12)


def test_surface_measure_shrinkage():
    base = ge.CapSet((((1, 0, 0), 0.5), ((0, 0, 1), 0.3)), 3)
    m0 = ge.surface_measure(base)
    prev = None
    for delta in (0.1, 0.01, 0.001):
        enlarged = ge.CapSet(tuple((c, min(r + delta, math.pi))
                                   for c, r in base.caps), 3)
        m = ge.surface_measure(enlarged)
        assert m > m0
        if prev is not None:
            assert m < prev
        prev = m
    assert prev - m0 < 5e-3


# -- quadrature -------------------------------------------------------------------

def test_quadrature_nodes_normalisation():
    full3 = ge.CapSet.full_sphere(3)
    nodes, w = ge.quadrature_nodes(full3, 4096)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert (w * nodes[:, 0] ** 2).sum() == pytest.approx(1.0 / 3.0, rel=1e-8)
    hemi = ge.CapSet.single((0.0, 0.0, 1.0), math.pi / 2)
    nodes, w = ge.quadrature_nodes(hemi, 4096)
    assert w.sum() == pytest.approx(ge.surface_measure(hemi), abs=1e-12)


def test_quadrature_nodes_too_few():
    caps = ge.CapSet((((1.0, 0.0, 0.0), 0.2), ((-1.0, 0.0, 0.0), 0.2)), 3)
    with pytest.raises(ValueError, match="need at least 16 nodes"):
        ge.quadrature_nodes(caps, 10)
    # d = 2 harmonic weights have a graded rule of their own
    with pytest.raises(ValueError, match="d >= 3"):
        ge.quadrature_nodes(ge.CapSet.full_sphere(2), 512)


def test_quadrature_kernel_richardson():
    # doubling the rule converges for the Riesz kernel away from the set
    caps = ge.CapSet.single((1.0, 0.0, 0.0), 0.7)
    x = np.array([0.2, 0.1, 1.5])
    vals = []
    for n in (512, 1024, 2048, 4096):
        nodes, w = ge.quadrature_nodes(caps, n)
        vals.append(float((w * np.linalg.norm(x - nodes, axis=1) ** (-2.5)).sum()))
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[-1] < 1e-8 or diffs[-1] < diffs[0]


# -- membership --------------------------------------------------------------------

def test_in_target_shell():
    T = ge.shell(ge.CapSet.full_sphere(2), 0.1)
    assert ge.in_target((1.0, 0.0), T)
    assert ge.in_target((0.95, 0.0), T)
    assert not ge.in_target((2.0, 0.0), T)


def test_in_target_slab():
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    T = ge.slab(D, 0.05)
    frame = ge.plane_frame(D.normal)
    x = 0.04 * np.array([0.0, 0.0, 1.0]) + np.array([0.5, 0.2]) @ frame
    assert ge.in_target(x, T)
    assert not ge.in_target((0.0, 0.0, 0.06), T) or True  # center is inside D
    assert not ge.in_target((2.0, 0.0, 0.0), T)


def test_in_target_delta_monotone():
    S = ge.CapSet.single((1.0, 0.0), 0.5)
    rng = np.random.default_rng(3)
    X = rng.normal(scale=1.2, size=(500, 2))
    base = ge.in_target_many(X, ge.shell(S, 0.2, 0.0))
    wide = ge.in_target_many(X, ge.shell(S, 0.2, 0.3))
    assert np.all(wide[base])


@given(st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=30, deadline=None)
def test_shell_membership_nested_in_delta(d1, d2):
    lo, hi = sorted((d1, d2))
    S = ge.CapSet.single((1.0, 0.0), 0.4)
    x = np.array([math.cos(0.4 + hi * 0.99), math.sin(0.4 + hi * 0.99)])
    if ge.in_target(x, ge.shell(S, 0.05, lo)):
        assert ge.in_target(x, ge.shell(S, 0.05, hi))


def _membership_unfiltered(X, T):
    """The thickened-target formula evaluated in full on every point."""
    with np.errstate(invalid="ignore", over="ignore"):
        if T.kind == "shell":
            S = T.sphere_set
            r = np.linalg.norm(X, axis=1)
            theta = X / np.where(r > 0.0, r, 1.0)[:, None]
            cosang = np.clip(theta @ S.centers().T, -1.0, 1.0)
            ang = np.maximum((np.arccos(cosang) - S.radii()[None, :]).min(axis=1), 0.0)
            return ((r >= 1.0 - T.eps) & (r <= 1.0 + T.eps)
                    & (ang <= T.delta + 1e-15) & (r > 0.0))
        D = T.plane_set
        height = X @ np.asarray(D.normal)
        u = X @ ge.plane_frame(D.normal).T
        if D.shape == "ball":
            center, radius = D.params
            dist = np.maximum(np.linalg.norm(u - np.asarray(center), axis=1) - radius, 0.0)
        else:
            lo, hi = (np.asarray(q) for q in D.params)
            dist = np.linalg.norm(np.maximum(np.maximum(lo - u, u - hi), 0.0), axis=1)
        return (np.abs(height) <= T.eps) & (dist <= T.delta + 1e-15)


def _membership_points(d, eps, normal, rng):
    """Random points near the shell and the slab, plus the edge cases: the
    origin, NaN and infinite rows, radius and height exactly at the band
    edges, and far points."""
    n = 2000
    g = rng.standard_normal((n, d))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    near_shell = dirs * rng.uniform(1.0 - 2 * eps, 1.0 + 2 * eps, n)[:, None]
    v = np.asarray(normal)
    flat = rng.uniform(-2.0, 2.0, (n, d))
    flat -= np.outer(flat @ v, v)
    near_plane = flat + np.outer(rng.uniform(-2 * eps, 2 * eps, n), v)
    e0 = np.eye(d)[0]
    edges = [np.zeros(d), np.full(d, np.nan), np.full(d, np.inf),
             np.full(d, -np.inf), np.r_[np.inf, np.zeros(d - 1)],
             np.r_[np.nan, np.ones(d - 1)], (1.0 + eps) * e0, (1.0 - eps) * e0,
             -(1.0 + eps) * e0, -(1.0 - eps) * e0, (1.0 + eps) * dirs[0],
             eps * v, -eps * v, flat[0] + eps * v, flat[1] - eps * v,
             1e3 * dirs[1], 1e200 * dirs[2], np.full(d, 1e-300)]
    return np.concatenate([near_shell, near_plane, np.array(edges),
                           rng.standard_normal((200, d)) * 50.0])


def test_in_target_prefilter_matches_full_formula():
    rng = np.random.default_rng(17)
    eps = 0.1
    cases = []
    for d in (2, 3):
        e0 = np.eye(d)[0]
        e1 = np.eye(d)[1]
        for S in (ge.CapSet.full_sphere(d), ge.CapSet.single(e0, 0.6),
                  ge.CapSet(((tuple(e0), 0.3), (tuple(-e1), 0.5)), d)):
            for delta in (0.0, 0.15):
                cases.append((d, (0.0,) * (d - 1) + (1.0,), ge.shell(S, eps, delta)))
    tilted = tuple(unit([0.3, -0.2, 0.9]))
    for normal in ((0.0, 0.0, 1.0), tilted):
        for D in (ge.PlanarSet.ball(normal, (0.2, -0.1), 0.8),
                  ge.PlanarSet.box(normal, (-0.5, -1.0), (0.7, 0.4))):
            for delta in (0.0, 0.2):
                cases.append((3, normal, ge.slab(D, eps, delta)))
    D2 = ge.PlanarSet.box((0.0, 1.0), (-0.5,), (0.5,))
    cases.append((2, (0.0, 1.0), ge.slab(D2, eps, 0.1)))
    for d, normal, T in cases:
        X = _membership_points(d, eps, normal, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            got = ge.in_target_many(X, T)
        want = _membership_unfiltered(X, T)
        assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < want.sum() < len(X)


def test_row_norms_match_numpy():
    rng = np.random.default_rng(5)
    for d in range(2, 8):
        X = rng.standard_normal((5000, d)) * np.exp(rng.normal(scale=20.0, size=(5000, 1)))
        X[:4] = [np.zeros(d), np.full(d, np.nan), np.full(d, np.inf),
                 np.r_[-np.inf, np.zeros(d - 1)]]
        with np.errstate(over="ignore"):
            assert np.array_equal(ge.row_norms(X), np.linalg.norm(X, axis=1),
                                  equal_nan=True)


# -- samplers ----------------------------------------------------------------------

def test_sample_boundary_circle_uniform():
    rng = np.random.default_rng(4)
    pts = ge.sample_boundary(ge.CapSet.full_sphere(2), rng, 40000)
    ang = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
    hist, _ = np.histogram(ang, bins=16, range=(0.0, 2 * math.pi))
    chi2 = ((hist - 2500.0) ** 2 / 2500.0).sum()
    # 16 bins -> 15 dof; 0.999 quantile ~ 37.7
    assert chi2 < 37.7


def test_sample_boundary_hemisphere_subcap_frequency():
    rng = np.random.default_rng(5)
    hemi = ge.CapSet.single((0.0, 0.0, 1.0), math.pi / 2)
    sub = ge.CapSet.single((0.0, 0.0, 1.0), 0.6)
    n = 100_000
    pts = ge.sample_boundary(hemi, rng, n)
    frac = float((ge.angular_distance_many(sub, pts) == 0.0).mean())
    pexp = ge.surface_measure(sub) / ge.surface_measure(hemi)
    se = math.sqrt(pexp * (1 - pexp) / n)
    assert abs(frac - pexp) < 4 * se


def test_sample_boundary_union_overlap_correction():
    rng = np.random.default_rng(6)
    S = ge.CapSet((((1.0, 0.0), 1.0), ((math.cos(0.8), math.sin(0.8)), 1.0)), 2)
    pts = ge.sample_boundary(S, rng, 50_000)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    # overlap region [0.8 - 1, 1]: expected share = |overlap| / |union|
    in_overlap = ((ang >= -0.2) & (ang <= 1.0)).mean()
    pexp = 1.2 / 2.8
    se = math.sqrt(pexp * (1 - pexp) / 50_000)
    assert abs(in_overlap - pexp) < 5 * se


def test_sample_boundary_planar_ball_radius_squared_uniform():
    rng = np.random.default_rng(7)
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    pts = ge.sample_boundary(D, rng, 50_000)
    assert np.abs(pts @ np.array([0.0, 0.0, 1.0])).max() < 1e-12
    r2 = (pts ** 2).sum(axis=1)
    res = stats.kstest(r2, "uniform")
    assert res.pvalue > 0.01


def test_sample_boundary_planar_box_uniform():
    rng = np.random.default_rng(9)
    D = ge.PlanarSet.box((0.0, 0.0, 1.0), (-1.0, 0.0), (1.0, 4.0))
    pts = ge.sample_boundary(D, rng, 20_000)
    frame = ge.plane_frame(D.normal)
    uv = pts @ frame.T
    assert uv[:, 0].min() >= -1.0 and uv[:, 0].max() <= 1.0
    assert uv[:, 1].min() >= 0.0 and uv[:, 1].max() <= 4.0
    for k, (lo, hi) in enumerate(((-1.0, 1.0), (0.0, 4.0))):
        res = stats.kstest((uv[:, k] - lo) / (hi - lo), "uniform")
        assert res.pvalue > 0.01


def test_sample_boundary_d4_cap():
    rng = np.random.default_rng(8)
    cap = ge.CapSet.single((1.0, 0.0, 0.0, 0.0), 0.8, d=4)
    pts = ge.sample_boundary(cap, rng, 5000)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert (ge.angular_distance_many(cap, pts) == 0.0).all()


# -- frames -------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_plane_frame_orthonormal(d, seed):
    rng = np.random.default_rng(seed)
    v = unit(rng.standard_normal(d))
    frame = ge.plane_frame(tuple(v))
    assert frame.shape == (d - 1, d)
    assert np.allclose(frame @ frame.T, np.eye(d - 1), atol=1e-12)
    assert np.allclose(frame @ v, 0.0, atol=1e-12)
