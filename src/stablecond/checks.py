"""Deterministic verification suites for the special-function and
potential layers.

Each check returns (name, passed, detail).  The suites double as the
``specfun-suite`` and ``potential-suite`` CLI experiments and back the
corresponding acceptance tests; every identity is compared against an
independent quadrature or series oracle, never against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import potential as pot
from .condition import Report
from .potential import StableParams, quad_endpoint_singular
from .specfun import gamma_ratio, gauss_2f1, lobachevsky


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _beta(a: float, b: float) -> float:
    return gamma_ratio((a, b), (a + b,))


# -- specfun suite ------------------------------------------------------------

def check_unit_normalisation() -> CheckResult:
    """2^a c_{a,d} pi^{d/2} Gamma(1-a) Gamma((2-a)/2) / Gamma((d+a-2)/2) = 1."""
    worst = 0.0
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        for d in (2, 3, 4, 5):
            c = pot.constants(StableParams(a, d)).get("c_alpha_d")
            lhs = 2.0 ** a * c * math.pi ** (d / 2.0) * gamma_ratio(
                (1.0 - a, (2.0 - a) / 2.0), ((d + a - 2.0) / 2.0,))
            worst = max(worst, abs(lhs - 1.0))
    return CheckResult("unit-normalisation identity", worst <= 1e-12,
                       f"max |lhs - 1| = {worst:.2e} (tol 1e-12)")


def check_reflection_combination() -> CheckResult:
    """(-z)^{-a/2} 2F1(a/2,a;1+a/2;1/z) + (-z)^{a/2} 2F1(a/2,a;1+a/2;z)
    equals Gamma(a/2) Gamma((2+a)/2) / Gamma(a) for z < 0."""
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 1.95)
        z = rng.uniform(-10.0, -0.1)
        rhs = gamma_ratio((a / 2.0, (2.0 + a) / 2.0), (a,))
        lhs = (-z) ** (-a / 2.0) * gauss_2f1(a / 2.0, a, 1.0 + a / 2.0, 1.0 / z) \
            + (-z) ** (a / 2.0) * gauss_2f1(a / 2.0, a, 1.0 + a / 2.0, z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult("reflection-combination identity", worst <= 1e-10,
                       f"max rel err = {worst:.2e} over 100 draws (tol 1e-10)")


def check_angular_kernel() -> CheckResult:
    """Angular integral of sin^{d-2}(phi) (a^2+2ar cos(phi)+r^2)^{-nu} against
    its hypergeometric closed form."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        alpha = rng.uniform(0.05, 1.95)
        nu = (d - alpha) / 2.0
        r = rng.uniform(0.5, 2.0)
        a = r * rng.uniform(0.05, 0.95)
        direct, _ = quad(lambda t: math.sin(t) ** (d - 2)
                         * (a * a + 2.0 * a * r * math.cos(t) + r * r) ** (-nu),
                         0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-11)
        closed = r ** (-2.0 * nu) * _beta((d - 1) / 2.0, 0.5) \
            * gauss_2f1(nu, nu - d / 2.0 + 1.0, d / 2.0, (a / r) ** 2)
        worst = max(worst, abs(direct - closed) / abs(closed))
    return CheckResult("angular kernel reduction", worst <= 1e-8,
                       f"max rel err = {worst:.2e} over 50 draws (tol 1e-08)")


def check_interval_power_kernel() -> CheckResult:
    """int_0^u x^{nu-1} (u-x)^{mu-1} (x+beta)^lam dx against its closed form."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.3, 2.5)
        nu = rng.uniform(0.3, 2.5)
        lam = rng.uniform(-1.5, 1.5)
        u = rng.uniform(0.3, 2.0)
        beta = rng.uniform(0.4, 3.0)
        direct = quad_endpoint_singular(
            lambda x, dxa, dxb: (x + beta) ** lam, 0.0, u, pa=nu - 1.0, qb=mu - 1.0)
        closed = beta ** lam * u ** (mu + nu - 1.0) * _beta(mu, nu) \
            * gauss_2f1(-lam, nu, mu + nu, -u / beta)
        worst = max(worst, abs(direct - closed) / abs(closed))
    return CheckResult("interval power kernel reduction", worst <= 1e-8,
                       f"max rel err = {worst:.2e} over 50 draws (tol 1e-08)")


def check_binomial_kernel() -> CheckResult:
    """int_0^u x^{mu-1} (1+beta x)^{-nu} dx = u^mu/mu 2F1(nu, mu; 1+mu; -beta u),
    including |beta u| > 1 through the analytic extension."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(50):
        mu = rng.uniform(0.3, 2.5)
        nu = rng.uniform(0.3, 2.5)
        while abs((nu - mu) - round(nu - mu)) < 1e-3:
            nu = rng.uniform(0.3, 2.5)
        beta = rng.uniform(0.3, 3.0)
        # force the extension branch on half the draws
        u = rng.uniform(1.05, 5.0) / beta if k % 2 else rng.uniform(0.05, 0.95) / beta
        direct = quad_endpoint_singular(
            lambda x, dxa, dxb: (1.0 + beta * x) ** (-nu), 0.0, u, pa=mu - 1.0)
        closed = u ** mu / mu * gauss_2f1(nu, mu, 1.0 + mu, -beta * u)
        worst = max(worst, abs(direct - closed) / abs(closed))
    return CheckResult("binomial kernel reduction", worst <= 1e-8,
                       f"max rel err = {worst:.2e} over 50 draws (tol 1e-08)")


def check_log_cosine() -> CheckResult:
    """Lobachevsky series value against quadrature of -log cos."""
    worst = 0.0
    for x in np.linspace(-math.pi / 2.0, math.pi / 2.0, 50):
        direct, _ = quad(lambda t: -math.log(math.cos(t)), 0.0, x,
                         limit=200, epsabs=1e-13, epsrel=1e-12)
        worst = max(worst, abs(lobachevsky(float(x)) - direct))
    return CheckResult("log-cosine integral", worst <= 1e-10,
                       f"max abs err = {worst:.2e} on 50-point grid (tol 1e-10)")


def specfun_suite() -> list[CheckResult]:
    return [
        check_unit_normalisation(),
        check_reflection_combination(),
        check_angular_kernel(),
        check_interval_power_kernel(),
        check_binomial_kernel(),
        check_log_cosine(),
    ]


# -- potential suite ----------------------------------------------------------

def check_constant_identities() -> CheckResult:
    worst = 0.0
    for a in (0.1, 0.5, 0.9):
        for d in (2, 3, 5):
            ct = pot.constants(StableParams(a, d))
            c = ct.get("c_alpha_d")
            lhs = 2.0 ** a * c * math.pi ** (d / 2.0) * gamma_ratio(
                (1.0 - a, (2.0 - a) / 2.0), ((d + a - 2.0) / 2.0,))
            worst = max(worst, abs(lhs - 1.0))
            if d >= 3:
                k = ct.get("k_alpha_d")
                lhs2 = k * math.pi ** ((d - 2) / 2.0) * gamma_ratio(
                    ((1.0 - a) / 2.0, (d - 1) / 2.0),
                    ((d - 2.0) / 2.0, (d - a) / 2.0))
                worst = max(worst, abs(lhs2 - 1.0))
            # sphere and plane equilibrium constants differ by the sphere area
            worst = max(worst, abs(ct.get("A_sphere_eq")
                                   / (pot.sphere_area(d) * ct.get("A_plane_eq")) - 1.0))
    for d in (2, 3, 4):
        ct = pot.constants(StableParams(1.0, d))
        worst = max(worst, abs(ct.get("A_sphere_1")
                               - gamma_ratio(((d - 1) / 2.0,), ())
                               / math.pi ** ((d - 1) / 2.0)))
    return CheckResult("constant-table identities", worst <= 1e-12,
                       f"max residual = {worst:.2e} (tol 1e-12)")


def check_interval_potential() -> CheckResult:
    """Constancy of the interval potential (max/min - 1 <= 1e-6 on 41
    points) and its endpoint Beta value (relative error <= 1e-8)."""
    details = []
    ok = True
    for a in (0.3, 0.5, 0.7):
        grid = np.linspace(-1.0, 1.0, 41)
        vals = np.array([pot.interval_potential(float(x), a) for x in grid])
        spread = vals.max() / vals.min() - 1.0
        bval = _beta(a / 2.0, 1.0 - a / 2.0)
        end_err = abs(pot.interval_potential(1.0, a) - bval) / bval
        ok &= spread <= 1e-6 and end_err <= 1e-8
        details.append(f"alpha={a}: constant={vals.mean():.12g} "
                       f"(B(a/2,1-a/2)={bval:.12g}), spread={spread:.2e}, "
                       f"endpoint rel err={end_err:.2e}")
    return CheckResult("interval potential constancy", bool(ok), "; ".join(details))


def check_shell_potential_trend() -> CheckResult:
    """max |U - 1| over 21 shell points decreases along the eps grid and ends
    below 0.05 (equilibrium normalisation); the raw-normalisation plateau is
    reported for comparison."""
    p = StableParams(0.5, 2)
    eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
    devs = []
    for eps in eps_grid:
        xs = np.linspace(1.0 - eps, 1.0 + eps, 21)
        devs.append(max(abs(pot.shell_potential(float(x), eps, p) - 1.0)
                        for x in xs))
    raw = pot.shell_potential(1.0, eps_grid[-1], p, normalization="raw")
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[-1] < 0.05
    return CheckResult(
        "shell potential unit limit", ok,
        f"max|U-1| along eps {list(eps_grid)}: "
        + ", ".join(f"{v:.4f}" for v in devs)
        + f"; raw-normalisation value at eps={eps_grid[-1]:g}: {raw:.4f}")


def check_full_sphere_closed_form() -> CheckResult:
    import itertools
    from . import geometry as geo
    worst = 0.0
    for d, a, r in itertools.product((2, 3), (0.3, 0.7), (0.5, 2.0, 5.0)):
        p = StableParams(a, d)
        x = np.zeros(d)
        x[0] = r
        hq = pot.sphere_harmonic(geo.CapSet.full_sphere(d), x, p)
        hc = pot.full_sphere_harmonic_closed(r, p)
        worst = max(worst, abs(hq - hc) / hc)
    return CheckResult("full-sphere closed form", worst <= 1e-6,
                       f"max rel err = {worst:.2e} (tol 1e-06)")


def check_plane_shell_potential() -> CheckResult:
    """Slab equilibrium potential is 1 (within 1e-8) under the equilibrium
    normalisation; the raw (published) normalisation plateau is reported
    alongside."""
    details = []
    ok = True
    for d in (3, 4):
        p = StableParams(0.5, d)
        eps = 1e-3
        eq = [pot.plane_shell_potential(f * eps, eps, p) for f in (-0.9, 0.0, 0.6)]
        raw = pot.plane_shell_potential(0.0, eps, p, normalization="raw")
        dev = max(abs(v - 1.0) for v in eq)
        ok &= dev <= 1e-8
        details.append(f"d={d}: max|U_eq-1|={dev:.2e}, raw value={raw:.4f}")
    return CheckResult("slab potential unit limit", bool(ok), "; ".join(details))


def potential_suite() -> list[CheckResult]:
    return [
        check_constant_identities(),
        check_interval_potential(),
        check_shell_potential_trend(),
        check_full_sphere_closed_form(),
        check_plane_shell_potential(),
    ]


def suite_report(results: list[CheckResult]) -> Report:
    """The report of a suite: one csv row and one plot line per check."""
    return Report(
        data={"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                         for r in results]},
        header=("name", "passed", "detail"),
        rows=[(r.name, int(r.passed), f'"{r.detail}"') for r in results],
        plot=[(i, int(r.passed), 1) for i, r in enumerate(results)],
        passed=all(r.passed for r in results),
        summary="\n".join(r.line() for r in results))
