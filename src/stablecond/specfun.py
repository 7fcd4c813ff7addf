"""Gamma-family and Gauss hypergeometric evaluation.

Everything here is a plain function of floats, accurate to near machine
precision on the parameter ranges the rest of the package feeds it
(hypergeometric parameters built from a stability index in (0, 2) and a
dimension up to 6).  The 2F1 evaluator dispatches between the defining
power series, the 1-z connection formula (with the logarithmic variant
when the parameter excess is an integer), the large-negative-argument
combination formula and a Pfaff transform.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

# standard mathematical constants, 20 digits
CATALAN = 0.91596559417721901505

_SERIES_MAX_TERMS = 10_000
_SERIES_STOP = 1e-17
_INT_TOL = 5e-13


class ConvergenceError(RuntimeError):
    """No dispatch branch converged for the requested arguments."""


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_ratio(numer: tuple[float, ...], denom: tuple[float, ...]) -> float:
    """prod Gamma(numer) / prod Gamma(denom), evaluated in log space.

    Arguments may be negative non-integers; signs are tracked with
    gammasgn.  A pole in the denominator gives 0, a pole in the
    numerator raises.
    """
    logs = 0.0
    sign = 1.0
    for v in numer:
        if v <= 0.0 and abs(v - round(v)) < _INT_TOL:
            raise ValueError(f"gamma pole in numerator at {v}")
        logs += float(sc.gammaln(v))
        sign *= float(sc.gammasgn(v))
    for v in denom:
        if v <= 0.0 and abs(v - round(v)) < _INT_TOL:
            return 0.0
        logs -= float(sc.gammaln(v))
        sign *= float(sc.gammasgn(v))
    return sign * math.exp(logs)


def _is_nonpos_int(x: float) -> bool:
    return x <= _INT_TOL and abs(x - round(x)) < _INT_TOL


def hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Defining power series of 2F1; caller guarantees |z| small enough."""
    total = 1.0
    term = 1.0
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= _SERIES_STOP * abs(total):
            return total
    if abs(z) <= 0.5:
        # ratio <= ~0.5, stop criterion must have been hit; defensive only
        raise ConvergenceError(f"2F1 series stalled at z={z}")
    raise ConvergenceError(f"2F1 series diverges for z={z}")


def hyp2f1_series_many(a: float, b: float, c: float, z) -> np.ndarray:
    """``hyp2f1_series`` at every entry of the array z, |z| < 1.

    Every entry takes the scalar series' terms and, until the slowest entry
    has converged, further terms below 1e-17 of its sum.
    """
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if (np.abs(term) <= _SERIES_STOP * np.abs(total)).all():
            return total
    raise ConvergenceError(f"2F1 series did not converge for max |z|={np.abs(z).max()}")


def _hyp2f1_polynomial(a: float, b: float, c: float, z: float) -> float:
    # a or b is a non-positive integer: the series terminates
    if _is_nonpos_int(a) and (not _is_nonpos_int(b) or round(a) >= round(b)):
        m = int(-round(a))
    else:
        m = int(-round(b))
    total = 1.0
    term = 1.0
    for n in range(m):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def _hyp2f1_near_one(a: float, b: float, c: float, z: float) -> float:
    # connection in powers of 1-z, c-a-b not an integer
    s = c - a - b
    w = 1.0 - z
    t1 = gamma_ratio((c, s), (c - a, c - b)) * hyp2f1_series(a, b, 1.0 - s, w)
    t2 = gamma_ratio((c, -s), (a, b)) * w ** s * hyp2f1_series(c - a, c - b, 1.0 + s, w)
    return t1 + t2


def _hyp2f1_near_one_log(a: float, b: float, m: int, z: float) -> float:
    # connection in powers of w=1-z for c = a+b+m with integer m >= 0
    c = a + b + m
    w = 1.0 - z
    logw = math.log(w)
    finite = 0.0
    if m > 0:
        term = 1.0
        finite = term
        for n in range(1, m):
            term *= (a + n - 1.0) * (b + n - 1.0) / (n * (n - float(m))) * w
            finite += term
        finite *= gamma_ratio((float(m), c), (a + m, b + m))
    # series sum_{n>=0} [(a+m)_n (b+m)_n / (n! (n+m)!)] w^n
    #                   * (log w - psi(n+1) - psi(n+m+1) + psi(a+m+n) + psi(b+m+n))
    psi1 = float(sc.digamma(1.0))
    psim = float(sc.digamma(m + 1.0))
    psia = float(sc.digamma(a + m))
    psib = float(sc.digamma(b + m))
    coef = 1.0 / math.gamma(m + 1.0)
    total = 0.0
    for n in range(_SERIES_MAX_TERMS):
        bracket = logw - psi1 - psim + psia + psib
        term = coef * bracket
        total += term
        if n > 2 and abs(term) <= _SERIES_STOP * abs(total):
            break
        coef *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        psi1 += 1.0 / (n + 1.0)
        psim += 1.0 / (n + m + 1.0)
        psia += 1.0 / (a + m + n)
        psib += 1.0 / (b + m + n)
    else:
        raise ConvergenceError("logarithmic 2F1 branch did not converge")
    sign = -1.0 if m % 2 else 1.0
    total *= -sign * gamma_ratio((c,), (a, b)) * w ** m
    return finite + total


def _hyp2f1_large_negative(a: float, b: float, c: float, z: float) -> float:
    # combination formula in powers of 1/z, b-a not an integer
    t1 = gamma_ratio((b - a, c), (c - a, b)) * (-z) ** (-a) \
        * gauss_2f1(a, a - c + 1.0, a - b + 1.0, 1.0 / z)
    t2 = gamma_ratio((a - b, c), (c - b, a)) * (-z) ** (-b) \
        * gauss_2f1(b - c + 1.0, b, b - a + 1.0, 1.0 / z)
    return t1 + t2


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1.

    Arguments z < -1 are evaluated through the analytic extension.
    Accuracy degrades when c-a-b (or, for z < -1, b-a) is within about
    1e-5 of a nonzero integer; exact integer cases take the logarithmic
    branch and are fine.  It does not delegate to ``scipy.special.hyp2f1``
    (scipy 1.17), which within 1e-14 of z = 1 returns inf for c-a-b <= 0
    and is off by about 1e-3 for c-a-b > 0, where ``riesz_ball_integral``
    evaluates the kernel.
    """
    if _is_nonpos_int(c):
        raise ValueError(f"2F1 undefined for non-positive integer c={c}")
    if z >= 1.0:
        raise ValueError(f"2F1 requires z < 1, got z={z}")
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _hyp2f1_polynomial(a, b, c, z)
    if abs(z) <= 0.5:
        return hyp2f1_series(a, b, c, z)
    if 0.5 < z < 1.0:
        s = c - a - b
        if abs(s - round(s)) < _INT_TOL:
            m = int(round(s))
            if m >= 0:
                return _hyp2f1_near_one_log(a, b, m, z)
            # Euler transform flips the sign of the parameter excess
            return (1.0 - z) ** s * _hyp2f1_near_one_log(c - a, c - b, -m, z)
        return _hyp2f1_near_one(a, b, c, z)
    if z < -1.0:
        if abs((b - a) - round(b - a)) < _INT_TOL:
            # Pfaff moves the argument to (0.5, 1); the integer-excess
            # logarithmic connection applies there
            return (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
        return _hyp2f1_large_negative(a, b, c, z)
    # z in (-1, -0.5]: Pfaff into the series disk
    return (1.0 - z) ** (-a) * hyp2f1_series(a, c - b, c, z / (z - 1.0))


# -- Lobachevsky function and the log-kernel interval integral --------------

_CLAUSEN_TERMS = 64


def _clausen(theta: float) -> float:
    """Clausen function Cl2 on [0, 2*pi]."""
    if theta < 0.0 or theta > 2.0 * math.pi + 1e-12:
        raise ValueError("clausen argument out of range")
    if theta > math.pi:
        return -_clausen(2.0 * math.pi - theta)
    if theta == 0.0:
        return 0.0
    # Cl2(t) = t - t log t - int_0^t log(sin(u/2)/(u/2)) du, with the tail
    # integral summed from log(sin u / u) = -sum zeta(2n) u^{2n} / (n pi^{2n})
    half = 0.5 * theta
    acc = 0.0
    u2 = (half / math.pi) ** 2
    pw = u2
    for n in range(1, _CLAUSEN_TERMS):
        t = float(sc.zeta(2 * n)) / n * pw * half / (2 * n + 1.0)
        acc += t
        if abs(t) < 1e-18 * max(abs(acc), 1e-30):
            break
        pw *= u2
    return theta - theta * math.log(theta) + 2.0 * acc


def lobachevsky(x: float) -> float:
    """Lobachevsky function L(x) = -int_0^x log cos(t) dt on [-pi/2, pi/2]."""
    if abs(x) > math.pi / 2.0 + 1e-12:
        raise ValueError(f"lobachevsky requires |x| <= pi/2, got {x}")
    if x == 0.0:
        return 0.0
    x = min(max(x, -math.pi / 2.0), math.pi / 2.0)
    # L(x) = x log 2 + Cl2(2x + pi) / 2
    return x * math.log(2.0) + 0.5 * _clausen(2.0 * x + math.pi)


def log_interval_integral(a: float, b: float) -> float:
    """int_0^a log(u) / sqrt((b+u)(a-u)) du in closed form.

    The closed form is
        2 phi log(a+b) + 2 L(pi/2 - 2 phi) - pi log 2,   phi = arctan sqrt(a/b),
    the sign and scale of which are fixed by direct quadrature (see the
    test suite); published versions of this identity disagree on both.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("log_interval_integral requires a > 0 and b > 0")
    phi = math.atan(math.sqrt(a / b))
    return 2.0 * phi * math.log(a + b) + 2.0 * lobachevsky(math.pi / 2.0 - 2.0 * phi) \
        - math.pi * math.log(2.0)


def hyp2f1_near_one_parts(a: float, b: float, c: float):
    """Coefficients (A, B) of 2F1(a,b;c;z) ~ A (1-z)^{c-a-b} + B as z -> 1.

    Requires non-integer c-a-b.
    """
    s = c - a - b
    if abs(s - round(s)) < _INT_TOL:
        raise ValueError("parameter excess c-a-b must not be an integer")
    coef_sing = gamma_ratio((c, -s), (a, b))
    coef_reg = gamma_ratio((c, s), (c - a, c - b))
    return coef_sing, coef_reg


def hyp2f1_log_parts(a: float, b: float):
    """Limit data of 2F1(a,b;a+b;z) as z -> 1.

    Returns (A1, B1) with 2F1(a,b;a+b;z) = -A1*log(1-z) + B1 + o(1), where
    A1 = Gamma(a+b)/(Gamma(a)Gamma(b)) and B1 = A1*(2 psi(1) - psi(a) - psi(b)).
    """
    a1 = gamma_ratio((a + b,), (a, b))
    b1 = a1 * (2.0 * float(sc.digamma(1.0)) - float(sc.digamma(a)) - float(sc.digamma(b)))
    return a1, b1
