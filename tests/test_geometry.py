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
    assert ge.plane_measure(box) == pytest.approx(8.0)


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
    full2 = ge.CapSet.full_sphere(2)
    nodes, w = ge.quadrature_nodes(full2, 512)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert (w * nodes[:, 0] ** 2).sum() == pytest.approx(0.5, rel=1e-8)
    full3 = ge.CapSet.full_sphere(3)
    nodes, w = ge.quadrature_nodes(full3, 4096)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)
    assert (w * nodes[:, 0] ** 2).sum() == pytest.approx(1.0 / 3.0, rel=1e-8)
    hemi = ge.CapSet.single((0.0, 0.0, 1.0), math.pi / 2)
    nodes, w = ge.quadrature_nodes(hemi, 4096)
    assert w.sum() == pytest.approx(ge.surface_measure(hemi), abs=1e-12)


def test_quadrature_nodes_too_few():
    caps = ge.CapSet((((1.0, 0.0), 0.2), ((-1.0, 0.0), 0.2)), 2)
    with pytest.raises(ValueError):
        ge.quadrature_nodes(caps, 10)


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
