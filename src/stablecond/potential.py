"""Riesz-kernel harmonic functions, shell equilibrium densities and the
named constants of the hitting asymptotics.

The kernel is |x-y|^(alpha-d).  ``sphere_harmonic`` integrates it over a
cap union against normalised surface measure, ``plane_harmonic`` over a
planar set against Lebesgue measure; both are the Doob weights used by
the conditioning experiments.  ``shell_potential`` evaluates the
potential of the candidate shell equilibrium measure and should approach
1 on the shell as the shell thins; its hyperplane counterpart is
``plane_shell_potential``.

Two normalisations are carried for every hitting-asymptotics constant.
The "raw" values follow the published closed forms verbatim.  The
"equilibrium" values renormalise the candidate measures so their
potential actually equals one on the thickened target, which direct
quadrature, the hypergeometric limit formulas and Monte Carlo hitting
frequencies all require (see the test suite; the experiment reports
print both and their ratio).  With the equilibrium normalisation one
coefficient serves both geometries and the sphere/plane limit constants
differ exactly by the sphere area 2 pi^{d/2} / Gamma(d/2), as local
flatness of the shell demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from . import geometry as geo
from .specfun import (ConvergenceError, gamma_ratio, gauss_2f1,
                      hyp2f1_near_one_parts, hyp2f1_series_many, ln_gamma)

SINGULARITY_CUTOFF = 1e-9


class SingularityError(ValueError):
    """Evaluation point is too close to the target set."""


@dataclass(frozen=True)
class StableParams:
    """Stability index alpha in (0, 2) and ambient dimension d >= 2."""

    alpha: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if int(self.d) != self.d or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def is_log_case(self) -> bool:
        return self.alpha == 1.0

    def require_conditioning(self):
        if self.alpha > 1.0:
            raise ValueError("conditioning experiments require alpha in (0, 1]")


@dataclass(frozen=True)
class ConstantTable:
    """Named constants of the hitting asymptotics for one (alpha, d).

    Fields belonging to the other alpha-branch (or to the hyperplane case
    at d = 2, where the raw closed forms lose meaning) are None; ``get``
    raises on access to an unpopulated field.
    """

    alpha: float
    d: int
    potential_const: float
    c_alpha_d: float | None = None
    A_sphere: float | None = None
    c_1_d: float | None = None
    A_sphere_1: float | None = None
    k_alpha_d: float | None = None
    A_plane: float | None = None
    A_plane_1: float | None = None
    k_equilibrium: float | None = None
    A_sphere_eq: float | None = None
    A_plane_eq: float | None = None
    A_plane_interval: float | None = None

    def get(self, name: str) -> float:
        val = getattr(self, name)
        if val is None:
            raise ValueError(
                f"constant {name!r} is not defined for alpha={self.alpha}, d={self.d}")
        return val


def constants(p: StableParams) -> ConstantTable:
    """Populate every constant available for the branch of ``p``."""
    a, d = p.alpha, p.d
    fields: dict = {
        "alpha": a, "d": d,
        "potential_const": gamma_ratio(((d - a) / 2.0,), (a / 2.0,))
        / (2.0 ** a * math.pi ** (d / 2.0)),
    }
    if a < 1.0:
        fields["c_alpha_d"] = math.exp(
            ln_gamma((d + a - 2.0) / 2.0) - a * math.log(2.0)
            - 0.5 * d * math.log(math.pi) - ln_gamma(1.0 - a) - ln_gamma((2.0 - a) / 2.0))
        fields["A_sphere"] = math.exp(
            (1.0 - 2.0 * a) * math.log(2.0) + ln_gamma((d + a - 2.0) / 2.0)
            - 0.5 * d * math.log(math.pi) - ln_gamma(1.0 - a)
            + ln_gamma((2.0 - a) / 2.0) - ln_gamma(2.0 - a))
        if d >= 3:
            k_ad = math.exp(
                ln_gamma((d - 2.0) / 2.0) + ln_gamma((d - a) / 2.0)
                - 0.5 * (d - 2) * math.log(math.pi)
                - ln_gamma((1.0 - a) / 2.0) - ln_gamma((d - 1) / 2.0))
            fields["k_alpha_d"] = k_ad
            fields["A_plane"] = k_ad * _arcsine_mass_factor(a)
            fields["A_plane_interval"] = fields["A_plane"] * math.sin(math.pi * a / 2.0) / math.pi
        # unit-potential normalisation: the same coefficient serves the shell
        # and the slab (Legendre duplication makes the two closed forms equal)
        k_eq = math.exp(
            ln_gamma((d - a) / 2.0) - 0.5 * (d - 1) * math.log(math.pi)
            - ln_gamma((1.0 - a) / 2.0) - ln_gamma(a / 2.0) - ln_gamma(1.0 - a / 2.0))
        fields["k_equilibrium"] = k_eq
        fields["A_plane_eq"] = k_eq * _arcsine_mass_factor(a)
        fields["A_sphere_eq"] = sphere_area(d) * fields["A_plane_eq"]
    elif a == 1.0:
        fields["c_1_d"] = math.exp(
            ln_gamma((d - 1.0) / 2.0) - 0.5 * (d + 1) * math.log(math.pi))
        fields["A_sphere_1"] = math.exp(
            ln_gamma((d - 1.0) / 2.0) - 0.5 * (d - 1) * math.log(math.pi))
        if d >= 3:
            fields["A_plane_1"] = math.exp(
                ln_gamma((d - 2.0) / 2.0) - 0.5 * (d - 2) * math.log(math.pi))
        fields["k_equilibrium"] = math.exp(
            ln_gamma((d - 1.0) / 2.0) - math.log(2.0) - 0.5 * (d + 1) * math.log(math.pi))
        fields["A_plane_eq"] = math.pi * fields["k_equilibrium"]
        fields["A_sphere_eq"] = sphere_area(d) * fields["A_plane_eq"]
    return ConstantTable(**fields)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _arcsine_mass_factor(alpha: float) -> float:
    # 2^{1-a} Gamma((2-a)/2)^2 / Gamma(2-a): the eps^{1-a}-scaled mass of the
    # endpoint-singular radial profile
    return math.exp((1.0 - alpha) * math.log(2.0)
                    + 2.0 * ln_gamma((2.0 - alpha) / 2.0) - ln_gamma(2.0 - alpha))


# -- harmonic functions ------------------------------------------------------

def sphere_harmonic_many(S: geo.CapSet, X, p: StableParams) -> np.ndarray:
    """Integral of |x-theta|^(alpha-d) over S against sigma_1, vectorised;
    a row that is not finite gives NaN.

    d = 2: one distance-graded Gauss-Legendre rule for all points, on the
    arc pieces between arg x, its antipode and the arc ends.  d >= 3: the
    section rule (``geometry._section_rule``) in the colatitude about
    x/|x|, graded at the kernel's peak and toward the kinks of the section
    fraction, for all points in one array call.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dist = geo.euclidean_distance_to_shell_many(S, X)
    if np.any(dist < SINGULARITY_CUTOFF):
        raise SingularityError("point within 1e-9 of the spherical target set")
    if p.d == 2:
        return np.where(np.isnan(dist), np.nan, _sphere_harmonic_d2(S, X, p))
    out = np.full(len(X), np.nan)
    ok = np.flatnonzero(np.isfinite(dist))
    out[ok] = _sphere_harmonic_sections(S, X[ok], p)
    return out


def _sphere_harmonic_sections(S: geo.CapSet, X, p: StableParams) -> np.ndarray:
    # the kernel ((r - 1)^2 + 4 r sin^2(t/2))^((alpha-d)/2) of the colatitude
    # t about x/|x| peaks at t = 0 with the width |r - 1|/sqrt(r) of
    # _sphere_harmonic_d2; at the origin it is 1 about any pole
    r = np.linalg.norm(X, axis=1)
    E = X / np.where(r > 0.0, r, 1.0)[:, None]
    E[r == 0.0, 0] = 1.0
    c, q, pw = (r - 1.0) ** 2, 4.0 * r, (p.alpha - p.d) / 2.0
    with np.errstate(divide="ignore"):
        w0 = np.abs(r - 1.0) / np.sqrt(r)
    shape = (len(X),) + S.radii().shape
    return geo._section_rule(
        np.broadcast_to(S.centers(), shape + (p.d,)), np.broadcast_to(S.radii(), shape), E,
        lambda i, t: (c[i, None] + q[i, None] * np.sin(0.5 * t) ** 2) ** pw, w0)


def _sphere_harmonic_d2(S: geo.CapSet, X, p: StableParams) -> np.ndarray:
    # the kernel ((r - 1)^2 + 4 r sin^2(t/2))^((alpha-2)/2) of the offset t
    # from psi = arg x is even and 2 pi-periodic, and it peaks at the
    # multiples of 2 pi: cut every arc at the multiples of pi, so that no
    # piece ends next to the peak one turn away, and integrate each piece
    # outward from the end nearest a peak.  Its complex singularities lie
    # about |r - 1|/sqrt(r) off the peak, which gives the distance w
    r = np.hypot(X[:, 0], X[:, 1])
    psi = np.arctan2(X[:, 1], X[:, 0])
    point, start, length = [], [], []
    for lo, hi in geo._merge_arcs(S.caps):
        a, b = lo - psi, hi - psi       # offsets in (-3 pi, 3 pi)
        for k in range(-3, 3):
            s0, s1 = np.maximum(a, k * math.pi), np.minimum(b, (k + 1) * math.pi)
            keep = np.flatnonzero(s1 > s0)
            point.append(keep)
            start.append(s0[keep] - k * math.pi if k % 2 == 0
                         else (k + 1) * math.pi - s1[keep])
            length.append(s1[keep] - s0[keep])
    point, start, length = (np.concatenate(v) for v in (point, start, length))
    rp = r[point]
    with np.errstate(divide="ignore"):      # the origin: one panel
        w = np.hypot(np.abs(rp - 1.0) / np.sqrt(rp), start)
    c, q = (rp - 1.0) ** 2, 4.0 * rp
    pw = (p.alpha - 2.0) / 2.0
    vals = geo._peak_integrals(
        lambda i, s: (c[i, None] + q[i, None] * np.sin(0.5 * (start[i, None] + s)) ** 2) ** pw,
        w, length)
    return np.bincount(point, weights=vals, minlength=len(X)) / (2.0 * math.pi)


def sphere_harmonic(S: geo.CapSet, x, p: StableParams) -> float:
    """Harmonic weight of the spherical set at one point x not in S."""
    return float(sphere_harmonic_many(S, np.array([x], dtype=float), p)[0])


def full_sphere_harmonic_closed(radius: float, p: StableParams) -> float:
    """Closed form of the full-sphere harmonic weight at |x| = radius != 1."""
    if radius < 0.0 or abs(radius - 1.0) < SINGULARITY_CUTOFF:
        raise SingularityError("closed form requires |x| != 1")
    hi = max(radius, 1.0)
    lo = min(radius, 1.0)
    z = (lo / hi) ** 2
    return hi ** (p.alpha - p.d) * gauss_2f1(
        (p.d - p.alpha) / 2.0, (2.0 - p.alpha) / 2.0, p.d / 2.0, z)


def plane_harmonic_many(D: geo.PlanarSet, X, p: StableParams) -> np.ndarray:
    """Integral of |x-y|^(alpha-d) over the planar set against Lebesgue
    measure, for every row x of X.

    d = 2: the distance-graded rule on the segment pieces of all rows in
    one call; d = 3: the graded rule over the angle about the foot of x,
    all rows in one call; d >= 4 (balls only): a nested quad per row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    eta = X @ np.asarray(D.normal)
    U = X @ geo.plane_frame(D.normal).T
    if np.any(np.hypot(eta, geo.plane_distance_many(D, U)) < SINGULARITY_CUTOFF):
        raise SingularityError("point within 1e-9 of the planar target set")
    if p.d == 2:
        return _plane_harmonic_d2(D, U, eta, p)
    if p.d == 3:
        return _plane_harmonic_d3(D, U, eta, p)
    if D.shape == "ball":
        return np.array([_plane_harmonic_ball(D, u, e, p) for u, e in zip(U, eta)])
    raise NotImplementedError("box planar sets are supported for d <= 3 only")


def plane_harmonic(D: geo.PlanarSet, x, p: StableParams) -> float:
    """Harmonic weight of the planar set at one point x not in D."""
    return float(plane_harmonic_many(D, np.array([x], dtype=float), p)[0])


def _plane_harmonic_d2(D, U, eta, p):
    if D.shape == "ball":
        (c0,), radius = D.params
        lo, hi = c0 - radius, c0 + radius
    else:
        (lo,), (hi,) = D.params
    # the segment as offsets from each foot u, cut at 0 and integrated
    # outward from the peak of (t^2 + eta^2)^((alpha-2)/2) at t = 0
    a, b = lo - U[:, 0], hi - U[:, 0]
    start = np.concatenate([np.fmax(-b, 0.0), np.fmax(a, 0.0)])
    length = np.concatenate([np.fmin(b, 0.0) - a, b - np.fmax(a, 0.0)])
    point = np.tile(np.arange(len(U)), 2)
    keep = length > 0.0
    start, length, point = start[keep], length[keep], point[keep]
    e2, pw = eta[point] * eta[point], (p.alpha - 2.0) / 2.0
    vals = geo._peak_integrals(lambda i, s: ((start[i, None] + s) ** 2 + e2[i, None]) ** pw,
                               np.hypot(eta[point], start), length)
    return np.bincount(point, weights=vals, minlength=len(U))


def _plane_harmonic_d3(D, U, eta, p):
    # over the angle t about the foot u of x, the exact radial antiderivative
    # of (rho^2 + eta^2)^((alpha-3)/2) rho across the chord (rho0, rho1) of D
    # along t.  It kinks where the chord's ends change sides: at the box
    # corners, or at the tangent directions of a ball seen from its rim or
    # outside.  From inside, one turn from -pi/2 off the centre direction,
    # cut at pi/2: a foot a gap g inside the rim sees the chord drop at
    # +-pi/2 to about g, within about sqrt(g/radius) + eta/radius
    am1, e2 = p.alpha - 1.0, eta * eta
    if D.shape == "ball":
        center, radius = D.params
        cvec = np.asarray(center) - U
        b = np.hypot(cvec[:, 0], cvec[:, 1])
        base = np.arctan2(cvec[:, 1], cvec[:, 0])
        inside = (radius - b) * (radius + b)
        outer = np.where(inside > 0.0, math.pi, np.arctan2(radius, np.sqrt(np.fmax(-inside, 0.0))))
        inner = np.fmin(outer, 0.5 * math.pi)
        ends = base[:, None] + np.stack([-inner, inner, 2.0 * outer - inner], axis=1)

        def chord(i, t):
            # the roots along -+ sqrt(along^2 + inside): the one of smaller
            # size as -inside over the other, accurate next to the rim
            along = b[i, None] * np.cos(t - base[i, None])
            c = inside[i, None]
            big = np.fmax(np.abs(along) + np.sqrt(np.fmax(c + along * along, 0.0)), 1e-300)
            return np.fmax(np.where(along >= 0.0, [-c / big, big], [-big, c / big]), 0.0)
    else:
        lo, hi = (np.asarray(q) for q in D.params)
        corners = np.array([(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])
        ang = np.sort(np.arctan2(corners[:, 1] - U[:, 1:], corners[:, 0] - U[:, :1]), axis=1)
        ends = np.concatenate([ang, ang[:, :1] + 2.0 * math.pi], axis=1)

        def chord(i, t):
            # the slab method; a direction along a face the foot lies on
            # gives 0/0, which fmin and fmax ignore
            dirs = (np.cos(t), np.sin(t))
            with np.errstate(divide="ignore", invalid="ignore"):
                s = [((lo[k] - U[i, k, None]) / dirs[k], (hi[k] - U[i, k, None]) / dirs[k])
                     for k in range(2)]
            r0 = np.fmax(np.fmax(*(np.fmin(*sk) for sk in s)), 0.0)
            r1 = np.fmin(*(np.fmax(*sk) for sk in s))
            return r0, np.fmax(r1, r0)

    def radial(i, t):
        r0, r1 = chord(i, t)
        b0, b1 = r0 * r0 + e2[i, None], r1 * r1 + e2[i, None]
        if am1 == 0.0:
            return 0.5 * np.log(b1 / b0)
        return (b1 ** (am1 / 2.0) - b0 ** (am1 / 2.0)) / am1

    return geo._piece_integrals(ends, radial, 0.0)


def _plane_harmonic_ball(D, u, eta, p):
    # two-center reduction in the (d-1)-dimensional frame, d >= 4
    center, radius = D.params
    k = p.d - 1
    b = float(np.linalg.norm(np.asarray(center) - u))
    pw = (p.alpha - p.d) / 2.0
    omega = 2.0 * math.pi ** ((k - 1) / 2.0) / math.gamma((k - 1) / 2.0)

    def inner(s):
        f = lambda psi: math.sin(psi) ** (k - 2) * \
            (b * b + s * s - 2.0 * b * s * math.cos(psi) + eta * eta) ** pw
        val, _ = quad(f, 0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-10)
        return val * s ** (k - 1)

    val, _ = quad(inner, 0.0, radius, limit=200, epsabs=1e-13, epsrel=1e-8)
    return omega * val


# -- interval potential and the log-kernel integral --------------------------

@lru_cache(maxsize=1)
def _graded_panels():
    # Gauss-Legendre nodes and weights of the graded panels of one half of
    # [0, 1] as distances from its endpoint, and the innermost panel length
    edges = 0.5 * geo._GRADING_RATIO ** np.arange(geo._GRADING_LEVELS, -1, -1.0)
    gx, gw = np.polynomial.legendre.leggauss(geo._PANEL_NODES)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * gx).ravel(), \
        (half[:, None] * gw).ravel(), edges[0]


@lru_cache(maxsize=256)
def _jacobi_nodes(p: float):
    # Gauss-Jacobi on [-1, 1] with weight (1+x)^p; room for the 151 fixed
    # powers of the kernel checks and the three of each alpha's rules
    return sc.roots_jacobi(geo._PANEL_NODES, 0.0, p)


def _half_rule(p_near: float, p_far: float):
    # distances s in (0, 1/2) from one endpoint of [0, 1] and weights for
    # int g(s) s^p_near (1-s)^p_far ds: the innermost panel is Gauss-Jacobi
    # with s^p_near in its weight, the graded ones Gauss-Legendre
    s_leg, w_leg, inner = _graded_panels()
    jx, jw = _jacobi_nodes(p_near)
    s = np.concatenate([0.5 * inner * (1.0 + jx), s_leg])
    w = np.concatenate([jw * (0.5 * inner) ** (1.0 + p_near), w_leg * s_leg ** p_near])
    return s, w * (1.0 - s) ** p_far


@lru_cache(maxsize=8)
def _endpoint_rule(pa: float, qb: float):
    # nodes t of [0, 1], their exact complements 1 - t and the weights with
    # t^pa (1-t)^qb included
    sa, wa = _half_rule(pa, qb)
    sb, wb = _half_rule(qb, pa)
    return (np.concatenate([sa, 1.0 - sb]), np.concatenate([1.0 - sa, sb]),
            np.concatenate([wa, wb]))


def quad_endpoint_singular(f, a: float, b: float, pa: float = 0.0,
                           qb: float = 0.0) -> float:
    """int_a^b f(x) (x-a)^pa (b-x)^qb dx for pa, qb > -1.

    One fixed composite rule: each half of [a, b] is cut into panels that
    shrink geometrically toward its endpoint (ratio 0.15, 19 levels, so the
    innermost panel spans 2.2e-16 of the half-length) with 20 nodes per
    panel.  The two innermost panels are Gauss-Jacobi and absorb
    (x-a)^pa and (b-x)^qb exactly; the others are Gauss-Legendre.  The
    grading also resolves a factor of f that is singular just beyond an
    endpoint, such as (1 - y)^(-alpha/2) in ``interval_potential`` when
    its upper end x lies 1e-13 short of 1.

    ``f`` is called once, on arrays, as f(x, x - a, b - x); the offsets are
    computed in exact form so that integrands singular at the endpoints
    stay accurate there.  It may return a scalar for a constant integrand.
    """
    length = b - a
    if length <= 0.0:
        return 0.0
    t, u, w = _endpoint_rule(float(pa), float(qb))
    dxa, dxb = length * t, length * u
    val = np.broadcast_to(f(a + dxa, dxa, dxb), w.shape) @ w
    return float(length ** (1.0 + pa + qb) * val)


def interval_potential(x: float, alpha: float) -> float:
    """int_{-1}^{1} |x-y|^(alpha-1) (1-y)^(-alpha/2) (1+y)^(-alpha/2) dy.

    Constant in x on [-1, 1]; the constant is B(alpha/2, 1 - alpha/2),
    not 1 as sometimes printed, and callers needing a unit-potential
    normalisation must divide by it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("interval_potential requires alpha in (0, 1)")
    if abs(x) > 1.0:
        raise ValueError("interval_potential requires |x| <= 1")
    ml = -alpha / 2.0
    s = alpha - 1.0
    total = 0.0
    if x > -1.0 + 1e-14:
        # lower piece: kernel singular at the upper endpoint y = x
        # 1 - y = (1 - x) + (x - y) keeps its relative accuracy next to y = x
        at_one = x >= 1.0 - 1e-14
        f_lo = (lambda y, dya, dyb: 1.0) if at_one \
            else (lambda y, dya, dyb: ((1.0 - x) + dyb) ** ml)
        total += quad_endpoint_singular(f_lo, -1.0, x, pa=ml,
                                        qb=s + (ml if at_one else 0.0))
    if x < 1.0 - 1e-14:
        at_minus_one = x <= -1.0 + 1e-14
        f_hi = (lambda y, dya, dyb: 1.0) if at_minus_one \
            else (lambda y, dya, dyb: ((1.0 + x) + dya) ** ml)
        total += quad_endpoint_singular(f_hi, x, 1.0,
                                        pa=s + (ml if at_minus_one else 0.0), qb=ml)
    return total


# -- shell equilibrium measure ----------------------------------------------

def _shell_coefficient(eps: float, p: StableParams, normalization: str) -> float:
    """Coefficient of the endpoint-singular radial shell profile.

    "raw" follows the published choice verbatim; "equilibrium" rescales so
    the measure's potential tends to 1 on the shell (quadrature- and
    Monte-Carlo-validated, see module docstring).
    """
    ct = constants(p)
    if normalization == "raw":
        c = ct.get("c_alpha_d") if p.alpha < 1.0 else ct.get("c_1_d")
    elif normalization == "equilibrium":
        c = ct.get("k_equilibrium")
    else:
        raise ValueError("normalization must be 'raw' or 'equilibrium'")
    if p.alpha == 1.0:
        c /= abs(math.log(eps))
    return c


def shell_density(r: float, eps: float, p: StableParams,
                  normalization: str = "raw") -> float:
    """Radial density of the candidate shell equilibrium measure at radius r."""
    p.require_conditioning()
    if not 1.0 - eps < r < 1.0 + eps:
        raise ValueError("shell_density requires 1-eps < r < 1+eps")
    c = _shell_coefficient(eps, p, normalization)
    return c * (r - (1.0 - eps)) ** (-p.alpha / 2.0) * (1.0 + eps - r) ** (-p.alpha / 2.0)


def shell_total_mass(eps: float, p: StableParams, normalization: str = "raw") -> float:
    """Closed-form radial mass of the shell density over (1-eps, 1+eps)."""
    p.require_conditioning()
    if not 0.0 < eps < 1.0:
        raise ValueError("shell_total_mass requires eps in (0, 1)")
    return _shell_coefficient(eps, p, normalization) * eps ** (1.0 - p.alpha) \
        * _arcsine_mass_factor(p.alpha)


def _log_series_sums(a: float, b: float, w):
    """(G_p, G_h) with G_p = 2F1(a,b;1;w) and G_h the digamma-weighted series
    sum_k (a)_k (b)_k / (k!)^2 (2 psi(k+1) - psi(a+k) - psi(b+k)) w^k, at
    every entry of the array w; ConvergenceError past 10,000 terms."""
    w = np.asarray(w, dtype=float)
    pk = np.ones_like(w)
    psi1 = float(sc.digamma(1.0))
    psia = float(sc.digamma(a))
    psib = float(sc.digamma(b))
    gp = pk.copy()
    gh = pk * (2.0 * psi1 - psia - psib)
    for k in range(10_000):
        pk *= (a + k) * (b + k) / ((k + 1.0) ** 2) * w
        psi1 += 1.0 / (k + 1.0)
        psia += 1.0 / (a + k)
        psib += 1.0 / (b + k)
        tp = pk
        th = pk * (2.0 * psi1 - psia - psib)
        gp += tp
        gh += th
        if (np.abs(tp) <= 1e-17 * np.abs(gp)).all() and \
                (np.abs(th) <= 1e-17 * np.maximum(np.abs(gh), 1e-300)).all():
            return gp, gh
    raise ConvergenceError(f"log 2F1 series did not converge for max w={np.max(w)}")


def shell_potential(x, eps: float, p: StableParams,
                    normalization: str = "equilibrium") -> float:
    """Potential of the full-shell equilibrium candidate at a shell point.

    With the default normalisation it tends to 1 uniformly on the shell as
    eps -> 0 (for alpha = 1 the approach is logarithmically slow); with
    normalization="raw" it tends to the published coefficient's limit
    instead, which quadrature shows is not 1.  Accepts a point or a
    radius; only |x| matters.
    """
    p.require_conditioning()
    if not 0.0 < eps < 0.3:
        raise ValueError("shell_potential requires 0 < eps < 0.3")
    xr = float(np.linalg.norm(x)) if np.ndim(x) else float(x)
    if not 1.0 - eps <= xr <= 1.0 + eps:
        raise ValueError("shell_potential requires 1-eps <= |x| <= 1+eps")
    a, d = p.alpha, p.d
    rl, ru = (1.0 - eps) / xr, (1.0 + eps) / xr
    ha, hb, hc = (d - a) / 2.0, (2.0 - a) / 2.0, d / 2.0
    pref = 2.0 * _shell_coefficient(eps, p, normalization) \
        * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    merge_hi = ru - 1.0 < 1e-13   # |x| at the outer edge
    merge_lo = 1.0 - rl < 1e-13   # |x| at the inner edge

    if a < 1.0:
        s = a - 1.0
        coef_sing, coef_reg = hyp2f1_near_one_parts(ha, hb, hc)
        fa = lambda w: hyp2f1_series_many(hc - ha, hc - hb, 1.0 + s, w)
        fb = lambda w: hyp2f1_series_many(ha, hb, 1.0 - s, w)
        total = 0.0
        if not merge_lo:
            out_hi = (lambda r, db: 1.0) if merge_hi else \
                (lambda r, db: ((ru - 1.0) + db) ** (-a / 2.0))
            q_extra = -a / 2.0 if merge_hi else 0.0
            # (1-r^2)^s split as (1-r)^s (1+r)^s, the first absorbed in qb
            f1 = lambda r, da, db: (1.0 + r) ** s * fa(db * (1.0 + r)) \
                * r ** (d - 1) * out_hi(r, db)
            f2 = lambda r, da, db: fb(db * (1.0 + r)) * r ** (d - 1) * out_hi(r, db)
            total += coef_sing * quad_endpoint_singular(f1, rl, 1.0, -a / 2.0, s + q_extra)
            total += coef_reg * quad_endpoint_singular(f2, rl, 1.0, -a / 2.0, q_extra)
        if not merge_hi:
            out_lo = (lambda r, da: 1.0) if merge_lo else \
                (lambda r, da: ((1.0 - rl) + da) ** (-a / 2.0))
            p_extra = -a / 2.0 if merge_lo else 0.0
            # (1-r^{-2})^s = (r-1)^s (r+1)^s r^{-2s}, the first absorbed in pa
            g1 = lambda r, da, db: (r + 1.0) ** s * r ** (-2.0 * s) \
                * fa(da * (r + 1.0) / (r * r)) * r ** (a - 1.0) * out_lo(r, da)
            g2 = lambda r, da, db: fb(da * (r + 1.0) / (r * r)) \
                * r ** (a - 1.0) * out_lo(r, da)
            total += coef_sing * quad_endpoint_singular(g1, 1.0, ru, s + p_extra, -a / 2.0)
            total += coef_reg * quad_endpoint_singular(g2, 1.0, ru, p_extra, -a / 2.0)
        return pref * total

    # logarithmic branch (alpha = 1): 2F1(a,b;a+b;z) decomposition with
    # log(1-r^2) = log(1-r) + log(1+r) handled through the exact offsets
    a1 = gamma_ratio((hc,), (ha, hb))
    total = 0.0
    if not merge_lo:
        out_hi = (lambda r, db: 1.0) if merge_hi else \
            (lambda r, db: ((ru - 1.0) + db) ** -0.5)
        q_extra = -0.5 if merge_hi else 0.0

        def f_all(r, da, db):
            w = db * (1.0 + r)
            gp, gh = _log_series_sums(ha, hb, w)
            return (gh - np.log(np.maximum(db, 5e-324)) * gp
                    - np.log(1.0 + r) * gp) * r ** (d - 1) * out_hi(r, db)

        total += quad_endpoint_singular(f_all, rl, 1.0, -0.5, q_extra)
    if not merge_hi:
        out_lo = (lambda r, da: 1.0) if merge_lo else \
            (lambda r, da: ((1.0 - rl) + da) ** -0.5)
        p_extra = -0.5 if merge_lo else 0.0

        def g_all(r, da, db):
            w = da * (r + 1.0) / (r * r)
            gp, gh = _log_series_sums(ha, hb, w)
            return (gh - np.log(np.maximum(da, 5e-324)) * gp
                    - (np.log(1.0 + r) - 2.0 * np.log(r)) * gp) * out_lo(r, da)

        total += quad_endpoint_singular(g_all, 1.0, ru, p_extra, -0.5)
    return pref * a1 * total


def riesz_ball_integral(b: float, radius: float, p: StableParams) -> float:
    """int_{B(0, radius)} |x - z|^(alpha-d) dz for a point at distance b.

    The angular integral collapses to a Gauss hypergeometric factor, so a
    single radial quadrature remains (singular at s = b when b < radius).
    """
    if radius <= 0.0 or b < 0.0:
        raise ValueError("riesz_ball_integral requires radius > 0 and b >= 0")
    a, d = p.alpha, p.d
    nu = (d - a) / 2.0
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def f(s):
        if s < 1e-300:
            return 0.0
        hi, lo = max(b, s), min(b, s)
        if hi - lo < 1e-14:
            hi = lo * (1.0 + 1e-14) + 1e-300
        return s ** (d - 1) * hi ** (a - d) * gauss_2f1(
            nu, 1.0 - a / 2.0, d / 2.0, (lo / hi) ** 2)

    pts = [b] if 0.0 < b < radius else None
    val, _ = quad(f, 0.0, radius, points=pts, limit=400, epsabs=1e-13, epsrel=1e-9)
    return area * val


def reentry_probability(p: StableParams, radius: float, r: float) -> float:
    """P_x(the process ever enters B(0, radius)) from |x| = r >= radius.

    The exact law of Blumenthal, Getoor & Ray (Trans. AMS 99, 1961), the
    regularised incomplete beta I_{radius^2/r^2}((d - alpha)/2, alpha/2).
    From r = r_far it bounds the hits that far-field stopping misses.
    """
    if not 0.0 < radius <= r:
        raise ValueError("reentry_probability requires 0 < radius <= r")
    return float(sc.betainc((p.d - p.alpha) / 2.0, p.alpha / 2.0, (radius / r) ** 2))


def plane_shell_potential(height: float, eps: float, p: StableParams,
                          normalization: str = "equilibrium") -> float:
    """Potential of the slab equilibrium candidate at signed height from the
    hyperplane (|height| <= eps), alpha < 1.

    normalization="raw" uses the published slab constant verbatim;
    "equilibrium" renormalises so the value tends to 1.
    """
    if not 0.0 < p.alpha < 1.0:
        raise ValueError("plane_shell_potential requires alpha in (0, 1)")
    if abs(height) > eps:
        raise ValueError("plane_shell_potential requires |height| <= eps")
    ct = constants(p)
    if normalization == "raw":
        k = ct.get("k_alpha_d")
    elif normalization == "equilibrium":
        k = ct.get("k_equilibrium")
    else:
        raise ValueError("normalization must be 'raw' or 'equilibrium'")
    # exact reduction over the parallel hyperplane at each height
    radial = math.pi ** ((p.d - 1) / 2.0) * gamma_ratio(
        ((1.0 - p.alpha) / 2.0,), ((p.d - p.alpha) / 2.0,))
    return k * radial * interval_potential(height / eps, p.alpha)
