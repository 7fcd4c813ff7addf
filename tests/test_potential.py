import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from stablecond import geometry as ge
from stablecond import potential as pot
from stablecond.potential import StableParams
from stablecond.specfun import ConvergenceError, gamma_ratio


# -- StableParams / ConstantTable ----------------------------------------------

def test_stable_params_validation():
    with pytest.raises(ValueError):
        StableParams(0.0, 2)
    with pytest.raises(ValueError):
        StableParams(2.0, 2)
    with pytest.raises(ValueError):
        StableParams(0.5, 1)
    with pytest.raises(ValueError):
        StableParams(1.5, 2).require_conditioning()
    StableParams(1.0, 2).require_conditioning()


def test_constant_examples():
    # reflection oracle: Gamma(1/4) Gamma(3/4) = pi sqrt(2)
    ct = pot.constants(StableParams(0.5, 2))
    assert ct.c_alpha_d == pytest.approx(
        1.0 / (math.sqrt(math.pi) * math.gamma(0.75) ** 2), rel=1e-13)
    ct3 = pot.constants(StableParams(1.0, 3))
    assert ct3.A_sphere_1 == pytest.approx(1.0 / math.pi, rel=1e-14)
    # unit identity at (0.5, 3)
    c = pot.constants(StableParams(0.5, 3)).c_alpha_d
    lhs = 2 ** 0.5 * c * math.pi ** 1.5 * math.gamma(0.5) * math.gamma(0.75) \
        / math.gamma(0.75)
    assert lhs == pytest.approx(1.0, abs=1e-12)


def test_constant_branch_errors():
    ct = pot.constants(StableParams(0.5, 2))
    with pytest.raises(ValueError):
        ct.get("c_1_d")
    ct1 = pot.constants(StableParams(1.0, 2))
    with pytest.raises(ValueError):
        ct1.get("c_alpha_d")
    # plane closed forms lose meaning at d = 2; the equilibrium ones do not
    with pytest.raises(ValueError):
        ct.get("A_plane")
    assert ct.get("A_plane_eq") > 0.0


def test_equilibrium_constants_cross_geometry():
    # one equilibrium coefficient serves shell and slab; the limit constants
    # differ exactly by the sphere area
    for a in (0.2, 0.5, 0.8, 1.0):
        for d in (2, 3, 4):
            ct = pot.constants(StableParams(a, d))
            assert ct.get("A_sphere_eq") == pytest.approx(
                pot.sphere_area(d) * ct.get("A_plane_eq"), rel=1e-13)


# -- harmonic functions -----------------------------------------------------------

def test_sphere_harmonic_full_sphere_origin():
    p = StableParams(0.5, 2)
    assert pot.sphere_harmonic(ge.CapSet.full_sphere(2), (0.0, 0.0), p) \
        == pytest.approx(1.0, rel=1e-10)


def test_sphere_harmonic_closed_form_example():
    p = StableParams(0.5, 2)
    val = pot.sphere_harmonic(ge.CapSet.full_sphere(2), (2.0, 0.0), p)
    from stablecond.specfun import gauss_2f1
    closed = 2.0 ** (0.5 - 2.0) * gauss_2f1(0.75, 0.75, 1.0, 0.25)
    assert val == pytest.approx(closed, rel=1e-10)


def test_sphere_harmonic_monotone_in_set():
    p = StableParams(0.7, 3)
    S = ge.CapSet.single((1.0, 0.0, 0.0), 1.0)
    S_half = ge.CapSet.single((1.0, 0.0, 0.0), 0.5)
    x = (0.3, 0.4, 1.5)
    assert pot.sphere_harmonic(S_half, x, p) <= pot.sphere_harmonic(S, x, p)


def test_sphere_harmonic_singularity_error():
    p = StableParams(0.5, 2)
    with pytest.raises(pot.SingularityError):
        pot.sphere_harmonic(ge.CapSet.full_sphere(2), (1.0, 0.0), p)


def test_sphere_harmonic_next_to_the_set():
    # 1e-8 from S is above the 1e-9 cutoff (the distance once read 0 there,
    # and the adaptive rule returned negative values from about 1e-6);
    # oracle: mpmath quadrature, split geometrically around the peak
    mp = pytest.importorskip("mpmath")
    p = StableParams(0.5, 2)
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    for x in ((1.0 + 1e-8, 0.0), (1.0 - 1e-8, 0.0), (1.0 + 1e-6, 0.0),
              (0.0, 1.0 + 1e-8)):
        val = pot.sphere_harmonic(S, x, p)
        with mp.workdps(30):
            r = mp.hypot(x[0], x[1])
            psi = mp.atan2(x[1], x[0])
            cuts = {-mp.pi / 2, mp.pi / 2, psi} | {
                psi + s * mp.mpf(10) ** -k for k in range(11) for s in (-1, 1)}
            oracle = mp.quad(
                lambda t: ((r - 1) ** 2 + 4 * r * mp.sin((t - psi) / 2) ** 2)
                ** mp.mpf(-0.75),
                sorted(c for c in cuts if abs(c) <= mp.pi / 2)) / (2 * mp.pi)
        assert val == pytest.approx(float(oracle), rel=1e-8), x


def test_sphere_harmonic_near_set_adaptive():
    # near-set evaluation (within the adaptive band) matches mpmath-grade quad
    p = StableParams(0.5, 2)
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    x = np.array([1.001, 0.3])  # ~1e-3 from the set
    val = pot.sphere_harmonic_many(S, x[None, :], p)[0]
    psi = math.atan2(x[1], x[0])
    r = np.linalg.norm(x)
    f = lambda t: (r * r + 1 - 2 * r * math.cos(t - psi)) ** (-0.75)
    oracle, _ = quad(f, -math.pi / 2, math.pi / 2, points=[psi], limit=500)
    assert val == pytest.approx(oracle / (2 * math.pi), rel=1e-7)


def _mp_arc_harmonic(mp, arcs, x, alpha):
    # (1/2 pi) sum over the arcs of the kernel ((r-1)^2 + 4 r sin^2(t/2))^pw
    # of the offset t from arg x, at 30 digits, cut around each copy of arg x
    # down to a tenth of its width |r - 1|
    with mp.workdps(30):
        r, psi = mp.hypot(x[0], x[1]), mp.atan2(x[1], x[0])
        pw = (mp.mpf(alpha) - 2) / 2
        f = lambda t: ((r - 1) ** 2 + 4 * r * mp.sin((t - psi) / 2) ** 2) ** pw
        levels = range(min(12, max(1, int(2 - mp.log10(abs(r - 1) + 1e-30)))))
        total = 0
        for lo, hi in arcs:
            cuts = {lo, hi}
            for c in (psi - 2 * mp.pi, psi, psi + 2 * mp.pi):
                cuts |= {c} | {c + s * mp.mpf(10) ** -k for k in levels for s in (-1, 1)}
            total += mp.quad(f, sorted(c for c in cuts if lo <= c <= hi))
        return float(total / (2 * mp.pi))


def test_sphere_harmonic_graded_rule_oracle():
    # radial points at 1e-8 ... 3 from the circle, with arg x inside and
    # outside the arcs (on the axes, so |x| and arg x are exact), and
    # (50, 3) and the origin; one batch per set.  The seam cap contains
    # arg x = pi and, through (-r, -0.0), arg x = -pi; on the full circle
    # no piece may end next to the copy of arg x one turn away
    mp = pytest.importorskip("mpmath")
    sets = [  # caps as (center angle, radius), directions of the points
        ([(0.0, math.pi / 2)], [(1.0, 0.0), (-1.0, 0.0)], (0.1, 0.5, 1.0)),
        ([(0.0, 0.4), (math.pi / 2, 0.5)], [(0.0, 1.0), (-1.0, 0.0)], (0.5,)),
        ([(math.pi, 0.5)], [(-1.0, 0.0), (-1.0, -0.0), (1.0, 0.0)], (0.5,)),
        ([(0.0, math.pi)], [(0.0, -1.0)], (0.5,)),
    ]
    for caps, dirs, alphas in sets:
        S = ge.CapSet(tuple(((math.cos(a), math.sin(a)), rad) for a, rad in caps), 2)
        arcs = [(mp.atan2(c[1], c[0]) - rad, mp.atan2(c[1], c[0]) + rad)
                for c, rad in S.caps]
        X = [(50.0, 3.0), (0.0, 0.0)] + [
            (r * ux, r * uy) for ux, uy in dirs
            for dist in (1e-8, 1e-6, 1e-3, 0.02, 0.5, 3.0)
            for r in (1.0 + dist, 1.0 - dist) if r > 0.0]
        for alpha in alphas:
            vals = pot.sphere_harmonic_many(S, np.array(X), StableParams(alpha, 2))
            for x, val in zip(X, vals):
                assert val == pytest.approx(_mp_arc_harmonic(mp, arcs, x, alpha),
                                            rel=1e-12), (caps, x, alpha)


def test_plane_harmonic_d2_graded_rule_oracle():
    # the segment [-1, 1] at heights 1e-8 ... 0.4, the foot of x inside it,
    # at an end and outside it
    mp = pytest.importorskip("mpmath")
    p = StableParams(0.5, 2)
    D = ge.PlanarSet.box((0.0, 1.0), (-1.0,), (1.0,))
    for eta in (1e-8, 1e-3, 0.4):
        for u in (0.3, -0.999, 1.0, 1.7, -1.2):
            with mp.workdps(30):
                cuts = {mp.mpf(-1), mp.mpf(1)} | {
                    u + s * mp.mpf(10) ** -k for k in range(12) for s in (-1, 1)}
                oracle = mp.quad(lambda t: ((t - u) ** 2 + mp.mpf(eta) ** 2) ** -0.75,
                                 sorted(c for c in cuts if -1 <= c <= 1))
            assert pot.plane_harmonic(D, (u, eta), p) == pytest.approx(
                float(oracle), rel=1e-12), (eta, u)


def test_sphere_harmonic_batch_independence():
    # rows are padded to the panel count of the batch: a point next to the
    # set must not change the value at a far one; a NaN row gives NaN
    p = StableParams(0.5, 2)
    S = ge.CapSet.single((1.0, 0.0), math.pi / 2)
    alone = pot.sphere_harmonic(S, (2.0, 0.0), p)
    batch = pot.sphere_harmonic_many(
        S, np.array([[1.0 + 1e-8, 0.0], [2.0, 0.0], [np.nan, 0.0]]), p)
    assert batch[1] == pytest.approx(alone, rel=1e-14)
    assert np.isnan(batch[2])


def test_sphere_harmonic_continuity():
    p = StableParams(0.5, 2)
    S = ge.CapSet.single((1.0, 0.0), 1.0)
    xs = np.stack([np.full(41, 1.7), np.linspace(-0.5, 0.5, 41)], axis=1)
    vals = pot.sphere_harmonic_many(S, xs, p)
    steps = np.abs(np.diff(vals))
    assert steps.max() < 0.05 * np.abs(vals).max()


def _cap_oracle_d3(x, cap, alpha, minus=None):
    # int over the cap (minus the cap ``minus``) of |x - y|^(alpha-3) against
    # sigma_1, in the cap's own polar coordinates by nested scalar quad: the
    # azimuths inside ``minus`` are cut out of each circle of colatitude
    (c, rho), pw = cap, (alpha - 3.0) / 2.0
    c = np.asarray(c)
    u, v = ge.plane_frame(tuple(c))
    kinks = []
    if minus is not None:
        cm, rm = np.asarray(minus[0]), minus[1]
        gap = math.acos(float(cm @ c))
        kinks = [t for t in (abs(gap - rm), gap + rm) if 0.0 < t < rho]

    def circle(t):
        lo, hi = 0.0, 2.0 * math.pi
        if minus is not None:
            psi, tang = math.atan2(cm @ v, cm @ u), math.hypot(cm @ u, cm @ v)
            mu = (math.cos(rm) - math.cos(t) * (cm @ c)) / (math.sin(t) * tang)
            beta = math.acos(min(1.0, max(-1.0, mu)))
            lo, hi = psi + beta, psi + 2.0 * math.pi - beta
        y = lambda s: math.cos(t) * c + math.sin(t) * (math.cos(s) * u + math.sin(s) * v)
        val, _ = quad(lambda s: float((x - y(s)) @ (x - y(s))) ** pw, lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        return math.sin(t) * val

    val, _ = quad(circle, 0.0, rho, points=kinks or None, epsabs=0.0, epsrel=1e-13,
                  limit=200)
    return val / (4.0 * math.pi)


def test_sphere_harmonic_overlapping_caps_oracle():
    # two overlapping caps in d = 3, where the product rule weighted by
    # covering counts did not converge; oracle H(A) + H(B \ A), each in its
    # own cap's polar coordinates
    A, B = ((1.0, 0.0, 0.0), 0.8), ((0.0, 1.0, 0.0), 0.9)
    S = ge.CapSet((A, B), 3)
    X = np.array([(0.3, 0.4, 1.5), (0.0, 0.0, 3.0), (0.8, 0.75, 0.4), (0.2, 0.1, -0.3)])
    vals = pot.sphere_harmonic_many(S, X, StableParams(0.7, 3))
    for x, val in zip(X, vals):
        oracle = _cap_oracle_d3(x, A, 0.7) + _cap_oracle_d3(x, B, 0.7, minus=A)
        assert val == pytest.approx(oracle, rel=1e-12), x


def test_sphere_harmonic_next_to_a_cap_d3():
    # points on the axis at |x| = 1 +- 1e-8 (exact), 1e-8 from the cap in
    # its interior and 1e-3 inside its boundary, and 1e-3 outside it.  (At
    # 1e-8 from the boundary itself an ulp of the radius moves H by about
    # 1e-8 relative.)  Oracle: the azimuthal mean in closed form, (A + B)^p
    # 2F1(-p, 1/2; 1; 2B/(A + B)), and mpmath quadrature in the colatitude
    # about the centre
    rho, alpha = 0.7, 0.5
    for r, a in ((1.0 + 1e-8, 0.3), (1.0 - 1e-8, rho - 1e-3), (1.0 + 1e-8, rho + 1e-3)):
        S = ge.CapSet.single((math.sin(a), 0.0, math.cos(a)), rho)
        (c1, _, c3), _ = S.caps[0]
        val = pot.sphere_harmonic(S, (0.0, 0.0, r), StableParams(alpha, 3))
        with mp.workdps(30):
            rr, af, pw = mp.mpf(r), mp.atan2(c1, c3), (mp.mpf(alpha) - 3) / 2

            def f(t):
                A = rr * rr + 1 - 2 * rr * mp.cos(t) * mp.cos(af)
                B = 2 * rr * mp.sin(t) * mp.sin(af)
                return mp.sin(t) * (A + B) ** pw * mp.hyp2f1(-pw, 0.5, 1, 2 * B / (A + B))

            cuts = {mp.mpf(0), mp.mpf(rho)} | {
                af + s * mp.mpf(10) ** -k for k in range(11) for s in (-1, 1)}
            oracle = mp.quad(f, sorted(c for c in cuts if 0 <= c <= rho)) / 2
        assert val == pytest.approx(float(oracle), rel=1e-12), (r, a)


def test_sphere_harmonic_full_sphere_hyp2f1_oracle():
    # next to |x| = 1 (where full_sphere_harmonic_closed loses digits) and
    # away from it, against 30-digit mpmath
    for d in (3, 4):
        for alpha in (0.3, 0.7, 1.5):
            for r in (1.0 - 1e-6, 1.0 + 1e-8, 0.5, 5.0):
                x = np.zeros(d)
                x[0] = r
                with mp.workdps(30):
                    a, hi, lo = mp.mpf(alpha), max(mp.mpf(r), 1), min(mp.mpf(r), 1)
                    oracle = hi ** (a - d) * mp.hyp2f1((d - a) / 2, (2 - a) / 2,
                                                       mp.mpf(d) / 2, (lo / hi) ** 2)
                val = pot.sphere_harmonic(ge.CapSet.full_sphere(d), x, StableParams(alpha, d))
                assert val == pytest.approx(float(oracle), rel=1e-12), (d, alpha, r)


def test_plane_harmonic_disk_oracle():
    p = StableParams(0.5, 3)
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    val = pot.plane_harmonic(D, (0.0, 0.0, 1.0), p)
    assert val == pytest.approx(4 * math.pi * (1 - 2 ** -0.25), rel=1e-10)


def test_plane_harmonic_monotone_and_far_field():
    p = StableParams(0.5, 3)
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    D_sub = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 0.5)
    x = (0.3, -0.2, 0.8)
    assert pot.plane_harmonic(D_sub, x, p) <= pot.plane_harmonic(D, x, p)
    far = (0.0, 0.0, 1000.0)
    assert pot.plane_harmonic(D, far, p) * 1000.0 ** 2.5 \
        == pytest.approx(math.pi, rel=1e-3)


def test_plane_harmonic_box_oracle():
    p = StableParams(0.5, 3)
    D = ge.PlanarSet.box((0.0, 0.0, 1.0), (-0.5, -1.0), (0.5, 1.0))
    x = np.array([0.2, 0.1, 0.7])
    val = pot.plane_harmonic(D, x, p)
    oracle, _ = dblquad(
        lambda v, u: ((u - 0.2) ** 2 + (v - 0.1) ** 2 + 0.49) ** (-1.25),
        -0.5, 0.5, -1.0, 1.0, epsabs=1e-12, epsrel=1e-10)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_plane_harmonic_box_edge_oracle():
    # 1e-8 above an edge and above a corner of a d = 3 box (alpha = 1 once
    # divided by alpha - 1); oracle: the inner integral over y2 in closed
    # form, t c^(2q) 2F1(-q, 1/2; 3/2; -t^2/c^2), and mpmath quadrature over
    # y1 cut around the foot
    D = ge.PlanarSet.box((0.0, 0.0, 1.0), (-0.5, -1.0), (0.5, 1.0))
    for alpha, x in ((0.5, (0.2, -1.0, 1e-8)), (1.0, (0.5, -1.0, 1e-8))):
        val = pot.plane_harmonic(D, x, StableParams(alpha, 3))
        with mp.workdps(30):
            u1, u2, eta = (mp.mpf(v) for v in x)
            q = (mp.mpf(alpha) - 3) / 2

            def inner(c2, t):
                return t * c2 ** q * mp.hyp2f1(-q, 0.5, 1.5, -t * t / c2) if t else 0

            def f(y1):
                c2 = (y1 - u1) ** 2 + eta ** 2
                return inner(c2, 1 - u2) - inner(c2, -1 - u2)

            cuts = {mp.mpf(-0.5), mp.mpf(0.5)} | {
                u1 + s * mp.mpf(10) ** -k for k in range(11) for s in (-1, 1)}
            oracle = mp.quad(f, sorted(c for c in cuts if -0.5 <= c <= 0.5))
        assert val == pytest.approx(float(oracle), rel=1e-12), (alpha, x)


def test_plane_harmonic_disk_rim_oracle():
    # feet on the rim of the unit disk in d = 3 and 1e-6 either side of it;
    # oracle: polar coordinates (s, phi) about the disk's centre, the
    # integral over phi in closed form,
    # 2 pi A^q 2F1(-q/2, (1-q)/2; 1; (B/A)^2) with A - B cos phi the squared
    # distance, and mpmath quadrature over s cut around the foot's radius
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    for alpha in (0.5, 1.0):
        for u in (1.0, 1.0 - 1e-6, 1.0 + 1e-6):
            for eta in (1e-2, 1e-8):
                val = pot.plane_harmonic(D, (u, 0.0, eta), StableParams(alpha, 3))
                with mp.workdps(30):
                    b, q = mp.mpf(u), (mp.mpf(alpha) - 3) / 2

                    def f(s):
                        A, B = s * s + b * b + mp.mpf(eta) ** 2, 2 * s * b
                        return 2 * mp.pi * s * A ** q * mp.hyp2f1(-q / 2, (1 - q) / 2, 1,
                                                                 (B / A) ** 2)

                    cuts = {mp.mpf(0), mp.mpf(1), b} | {
                        b + sg * mp.mpf(10) ** -k for k in range(0, 11, 2) for sg in (-1, 1)}
                    oracle = mp.quad(f, sorted(c for c in cuts if 0 <= c <= 1))
                assert val == pytest.approx(float(oracle), rel=1e-12), (alpha, u, eta)


def test_plane_harmonic_many_matches_rows():
    # one array call over all rows gives each row's value
    for D, X in ((ge.PlanarSet.box((0.0, 1.0), (-1.0,), (1.0,)),
                  [(0.3, 0.4), (-1.5, 0.01), (2.0, -0.3)]),
                 (ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0),
                  [(0.3, -0.2, 0.8), (1.5, 0.5, 0.01), (0.0, 0.0, 1.5)])):
        p = StableParams(0.5, D.d)
        batch = pot.plane_harmonic_many(D, np.array(X), p)
        for x, val in zip(X, batch):
            assert val == pytest.approx(pot.plane_harmonic(D, x, p), rel=1e-14)


def test_plane_harmonic_d2_segment():
    p = StableParams(0.5, 2)
    D = ge.PlanarSet.box((0.0, 1.0), (-1.0,), (1.0,))
    x = (0.3, 0.4)
    val = pot.plane_harmonic(D, x, p)
    oracle, _ = quad(lambda s: ((s - 0.3) ** 2 + 0.16) ** (-0.75), -1.0, 1.0)
    assert val == pytest.approx(oracle, rel=1e-9)


def test_plane_harmonic_singularity():
    p = StableParams(0.5, 3)
    D = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    with pytest.raises(pot.SingularityError):
        pot.plane_harmonic(D, (0.2, 0.0, 0.0), p)


def test_plane_harmonic_d4_ball():
    p = StableParams(0.5, 4)
    D = ge.PlanarSet.ball((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 1.0)
    x = (0.0, 0.0, 0.0, 2.0)
    val = pot.plane_harmonic(D, x, p)
    # radial oracle in the 3-dimensional frame
    oracle, _ = quad(lambda r: 4 * math.pi * r * r * (r * r + 4.0) ** (-1.75),
                     0.0, 1.0)
    assert val == pytest.approx(oracle, rel=1e-8)


# -- interval potential -------------------------------------------------------------

def test_interval_potential_endpoint_beta():
    for a in (0.3, 0.5, 0.7):
        bval = gamma_ratio((a / 2, 1 - a / 2), ())
        assert pot.interval_potential(1.0, a) == pytest.approx(bval, rel=1e-9)
        assert pot.interval_potential(0.0, a) == pytest.approx(bval, rel=1e-9)


def test_interval_potential_constancy():
    ref = pot.interval_potential(1.0, 0.3)
    assert pot.interval_potential(0.37, 0.3) == pytest.approx(ref, rel=1e-7)


def test_interval_potential_domain():
    with pytest.raises(ValueError):
        pot.interval_potential(1.5, 0.5)
    with pytest.raises(ValueError):
        pot.interval_potential(0.0, 1.0)


def test_interval_potential_next_to_the_endpoints():
    # 1 - y lost its relative accuracy next to y = x: at 1 - 1e-13 the value
    # was 23 % off at alpha 0.05 and 5e-3 off at alpha 0.3
    for a in (0.05, 0.3, 0.5, 0.7, 0.95):
        bval = gamma_ratio((a / 2, 1 - a / 2), ())
        for gap in (1e-13, 1e-12, 1e-10):
            for x in (1.0 - gap, -(1.0 - gap)):
                assert pot.interval_potential(x, a) == pytest.approx(bval, rel=1e-12), \
                    (a, x)


# -- the endpoint-singular rule ----------------------------------------------------

def test_quad_endpoint_singular_beta_integrals():
    # int_0^L x^pa (L-x)^qb dx = L^(1+pa+qb) B(1+pa, 1+qb)
    powers = (-0.975, -0.5, 0.0, 0.7, 1.5)
    for pa in powers:
        for qb in powers:
            for length in (1e-8, 1.0, 10.0):
                exact = length ** (1 + pa + qb) * gamma_ratio(
                    (1 + pa, 1 + qb), (2 + pa + qb,))
                val = pot.quad_endpoint_singular(
                    lambda x, dxa, dxb: np.ones_like(x), 0.0, length, pa, qb)
                assert val == pytest.approx(exact, rel=1e-13), (pa, qb, length)


def test_quad_endpoint_singular_power_kernel_small_shift():
    # the identity of check_interval_power_kernel with the singularity of
    # (x + beta)^lam down to 1e-13 beyond the endpoint x = 0
    from stablecond.specfun import gauss_2f1
    rng = np.random.default_rng(104)
    for beta in (1e-13, 1e-11, 1e-8, 1e-5, 1e-2):
        for _ in range(6):
            mu, nu = rng.uniform(0.3, 2.5, 2)
            lam = rng.uniform(-1.5, 1.5)
            u = rng.uniform(0.3, 2.0)
            direct = pot.quad_endpoint_singular(
                lambda x, dxa, dxb: (x + beta) ** lam, 0.0, u, pa=nu - 1.0, qb=mu - 1.0)
            closed = beta ** lam * u ** (mu + nu - 1.0) \
                * gamma_ratio((mu, nu), (mu + nu,)) \
                * gauss_2f1(-lam, nu, mu + nu, -u / beta)
            assert direct == pytest.approx(closed, rel=1e-11), (beta, mu, nu, lam, u)


# -- shell measure ------------------------------------------------------------------

def test_shell_density_midpoint_and_symmetry():
    p = StableParams(0.5, 2)
    eps = 0.01
    c = pot.constants(p).c_alpha_d
    assert pot.shell_density(1.0, eps, p) == pytest.approx(c * eps ** -0.5, rel=1e-12)
    u = 0.004
    assert pot.shell_density(1.0 + u, eps, p) == pytest.approx(
        pot.shell_density(1.0 - u, eps, p), rel=1e-12)
    with pytest.raises(ValueError):
        pot.shell_density(1.02, eps, p)


def test_shell_density_log_prefactor():
    p = StableParams(1.0, 3)
    eps = math.exp(-10.0)
    c1 = pot.constants(p).c_1_d
    val = pot.shell_density(1.0, eps, p)
    assert val == pytest.approx((c1 / 10.0) * eps ** -1.0, rel=1e-12)


def test_shell_mass_closed_form_vs_quadrature():
    p = StableParams(0.5, 3)
    eps = 0.01
    closed = pot.shell_total_mass(eps, p)
    oracle = pot.quad_endpoint_singular(
        lambda r, da, db: pot.constants(p).c_alpha_d,
        1.0 - eps, 1.0 + eps, pa=-0.25, qb=-0.25)
    assert closed == pytest.approx(oracle, rel=1e-9)
    # scaling in eps
    assert pot.shell_total_mass(2 * eps, p) / closed == pytest.approx(
        2 ** 0.5, rel=1e-12)


def test_shell_mass_arcsine_case():
    # alpha = 1 without prefactor: the radial integral alone is pi
    v, _ = quad(lambda u: (1e-4 ** 2 - u * u) ** -0.5, -1e-4 + 1e-18, 1e-4 - 1e-18)
    assert v == pytest.approx(math.pi, rel=1e-3)
    p = StableParams(1.0, 3)
    eps = 0.01
    mass = pot.shell_total_mass(eps, p)
    c = pot.constants(p).c_1_d / abs(math.log(eps))
    assert mass == pytest.approx(c * math.pi, rel=1e-12)


# -- shell potential -----------------------------------------------------------------

def test_shell_potential_unit_trend():
    p = StableParams(0.5, 2)
    devs = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        xs = np.linspace(1 - eps, 1 + eps, 21)
        devs.append(max(abs(pot.shell_potential(float(x), eps, p) - 1.0)
                        for x in xs))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05
    assert all(pot.shell_potential(1.0, eps, p) > 0.0 for eps in (1e-1, 1e-3))


def test_shell_potential_raw_plateau():
    # raw normalisation tends to the gamma-ratio constant, not to 1
    p = StableParams(0.5, 2)
    plateau = gamma_ratio((0.25, 0.25), (0.75, 0.75))
    val = pot.shell_potential(1.0, 1e-4, p, normalization="raw")
    assert val == pytest.approx(plateau, rel=3e-3)
    # and the two normalisations differ by exactly the coefficient ratio
    eq = pot.shell_potential(1.0, 1e-4, p)
    ct = pot.constants(p)
    assert val / eq == pytest.approx(ct.c_alpha_d / ct.k_equilibrium, rel=1e-12)


def test_shell_potential_log_case_trend():
    p = StableParams(1.0, 3)
    vals = [abs(pot.shell_potential(1.0, eps, p) - 1.0)
            for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[0] > vals[1] > vals[2]


def test_shell_potential_next_to_the_edges():
    # 1e-12 inside an edge the value was 4.7 % above its value 1e-10 inside
    p = StableParams(0.2, 3)
    eps = 0.01
    for edge, inward in ((1.0 - eps, 1.0), (1.0 + eps, -1.0)):
        near = pot.shell_potential(edge + inward * 1e-12, eps, p)
        ref = pot.shell_potential(edge + inward * 1e-10, eps, p)
        assert near == pytest.approx(ref, abs=1e-9), edge


def test_log_series_sums_raise_past_their_reach():
    # the alpha = 1 shell potential sums these series up to w of about 0.71;
    # next to w = 1, 10,000 terms fall short of the sum
    gp, _ = pot._log_series_sums(0.5, 0.5, [0.71])
    assert gp[0] == pytest.approx(float(mp.hyp2f1(0.5, 0.5, 1, 0.71)), rel=1e-14)
    with pytest.raises(ConvergenceError):
        pot._log_series_sums(0.5, 0.5, [0.5, 0.9999])


def test_shell_potential_domain():
    p = StableParams(0.5, 2)
    with pytest.raises(ValueError):
        pot.shell_potential(1.2, 0.1, p)
    with pytest.raises(ValueError):
        pot.shell_potential(1.0, 0.5, p)


# -- slab potential -------------------------------------------------------------------

def test_plane_shell_potential_unit_and_raw():
    p = StableParams(0.5, 3)
    for height_frac in (-0.9, 0.0, 0.6):
        v = pot.plane_shell_potential(height_frac * 1e-3, 1e-3, p)
        assert v == pytest.approx(1.0, rel=1e-9)
    raw = pot.plane_shell_potential(0.0, 1e-3, p, normalization="raw")
    # raw value equals pi * B(alpha/2, 1-alpha/2) at d = 3
    assert raw == pytest.approx(math.pi * gamma_ratio((0.25, 0.75), ()), rel=1e-9)


def test_plane_shell_potential_next_to_the_faces():
    # through the interval potential, 23 % off at alpha 0.05 before
    for a in (0.05, 0.3, 0.5, 0.7, 0.95):
        p = StableParams(a, 3)
        for h in (1.0 - 1e-13, -(1.0 - 1e-13)):
            assert pot.plane_shell_potential(h * 1e-3, 1e-3, p) == pytest.approx(
                1.0, abs=1e-12), (a, h)


def test_hypergeometric_pair_sum_in_situ():
    # the two boundary-layer expressions combine to B(alpha/2, 1-alpha/2)
    from stablecond.specfun import gauss_2f1
    for a in (0.3, 0.5, 0.9):
        bcoef = gamma_ratio((1 - a / 2, a), (1 + a / 2,))
        for ratio in (0.3, 1.0, 4.0):
            total = bcoef * (ratio ** (a / 2)
                             * gauss_2f1(a / 2, a, 1 + a / 2, -ratio)
                             + ratio ** (-a / 2)
                             * gauss_2f1(a / 2, a, 1 + a / 2, -1.0 / ratio))
            assert total == pytest.approx(gamma_ratio((a / 2, 1 - a / 2), ()),
                                          rel=1e-11)


# -- Riesz ball integral ---------------------------------------------------------------

def test_riesz_ball_integral_vs_dblquad():
    p = StableParams(0.5, 2)
    val = pot.riesz_ball_integral(3.0, 0.5, p)
    oracle, _ = dblquad(
        lambda r, t: r * (9.0 + r * r - 6.0 * r * math.cos(t)) ** -0.75,
        0.0, 2 * math.pi, 0.0, 0.5, epsabs=1e-12, epsrel=1e-10)
    assert val == pytest.approx(oracle, rel=1e-8)


def _riesz_ball_polar(b, radius, alpha, d):
    # 40-digit oracle in polar coordinates about the point: with rho_in and
    # rho_out where the ray at angle t from the direction to the centre
    # enters and leaves the ball, U = |S^(d-2)| / alpha
    # int_0^pi (rho_out^alpha - rho_in^alpha) sin^(d-2) t dt; the short
    # chord is written as (R^2 - b^2) / (long chord) to avoid cancellation
    with mp.workdps(40):
        b, R, a = mp.mpf(b), mp.mpf(radius), mp.mpf(alpha)
        area = 2 * mp.pi ** (mp.mpf(d - 1) / 2) / mp.gamma(mp.mpf(d - 1) / 2)

        def parts(t):
            return b * mp.cos(t), mp.sqrt(max(R * R - (b * mp.sin(t)) ** 2, 0))

        if b <= R:
            def f(t):
                c, h = parts(t)
                rho = (R * R - b * b) / (h + c) if c > 0 else h - c
                return rho ** a * mp.sin(t) ** (d - 2)
            val = mp.quad(f, [0, mp.pi / 2, mp.pi])
        else:
            top = mp.asin(R / b)

            def f(t):
                c, h = parts(t)
                return ((c + h) ** a - ((b * b - R * R) / (c + h)) ** a) \
                    * mp.sin(t) ** (d - 2)
            val = mp.quad(f, [0, top / 2, top])
        return float(area * val / a)


def test_riesz_ball_integral_inside():
    # singular case: evaluation point inside the ball
    p = StableParams(0.5, 2)
    val = pot.riesz_ball_integral(0.2, 0.5, p)
    assert val == pytest.approx(_riesz_ball_polar(0.2, 0.5, 0.5, 2), rel=1e-12)


def test_riesz_ball_integral_finite_next_to_z_one():
    # the kernel's 2F1 is evaluated within 1e-14 of z = 1 here, where
    # scipy's hyp2f1 returns inf; the value was 35.2505... when recorded
    p = StableParams(0.19791583150283087, 2)
    val = pot.riesz_ball_integral(0.0012230457735780131, 1.6971758963259707, p)
    assert math.isfinite(val)
    assert val == pytest.approx(35.2505, rel=1e-5)


# -- far-field re-entry ---------------------------------------------------------------

def test_far_field_reentry_probability():
    # transience truncation bias of far-field stopping: I_{R^2/r^2}((d-a)/2,
    # a/2) against mpmath, small at the default radius 50 and decreasing in it
    mp = pytest.importorskip("mpmath")
    cases = [((0.5, 2), 1.2, 50.0, 1.116018e-3), ((0.5, 2), 1.2, 100.0, 3.945171e-4),
             ((0.5, 3), 1.2, 50.0, 1.925596e-5)]
    for (a, d), R, r, approx in cases:
        val = pot.reentry_probability(StableParams(a, d), R, r)
        with mp.workdps(30):
            ref = mp.betainc((d - mp.mpf(a)) / 2, mp.mpf(a) / 2, 0,
                             (mp.mpf(R) / r) ** 2, regularized=True)
        assert val == pytest.approx(float(ref), rel=1e-13)
        assert val == pytest.approx(approx, rel=1e-6)
    p = StableParams(0.5, 2)
    assert pot.reentry_probability(p, 1.2, 100.0) < pot.reentry_probability(p, 1.2, 50.0)
    assert pot.reentry_probability(p, 1.2, 1.2) == 1.0
    with pytest.raises(ValueError):
        pot.reentry_probability(p, 1.2, 1.0)
