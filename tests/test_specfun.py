import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from stablecond import specfun as sf

mp.mp.dps = 30


# -- gamma family -------------------------------------------------------------

def test_ln_gamma_special_values():
    assert sf.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)
    assert sf.ln_gamma(1.0) == 0.0
    assert sf.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


def test_ln_gamma_accuracy_grid():
    for x in np.geomspace(1e-3, 50.0, 60):
        ref = mp.loggamma(mp.mpf(float(x)))
        # relative error of exp(result) below 1e-13 means absolute log error
        assert abs(sf.ln_gamma(float(x)) - float(ref)) < 1e-13


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        sf.ln_gamma(0.0)
    with pytest.raises(ValueError):
        sf.ln_gamma(-1.3)


# -- 2F1 ----------------------------------------------------------------------

def test_2f1_empty_sum():
    assert sf.gauss_2f1(0.7, 1.3, 2.2, 0.0) == 1.0


def test_series_many_matches_the_scalar_series():
    # the array series sums the scalar series' terms, plus terms below
    # 1e-17 relative for the entries that converge first
    z = np.concatenate([[0.0, 1e-16, -0.4], np.linspace(-0.5, 0.9, 29)])
    for a, b, c in ((0.75, 0.5, 1.4), (1.9, -0.3, 0.6), (2.5, 0.05, 3.0)):
        many = sf.hyp2f1_series_many(a, b, c, z)
        scalar = [sf.hyp2f1_series(a, b, c, float(v)) for v in z]
        np.testing.assert_allclose(many, scalar, rtol=1e-15, atol=0.0)


def test_2f1_classical_log_form():
    z = 0.3
    assert sf.gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log(1 - z) / z,
                                                           rel=1e-14)


def test_2f1_combination_identity_at_minus_one():
    a = 0.5
    z = -1.0
    lhs = (-z) ** (-a / 2) * sf.gauss_2f1(a / 2, a, 1 + a / 2, 1.0 / z) \
        + (-z) ** (a / 2) * sf.gauss_2f1(a / 2, a, 1 + a / 2, z)
    rhs = math.gamma(a / 2) * math.gamma((2 + a) / 2) / math.gamma(a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_2f1_against_mpmath_all_branches():
    rng = np.random.default_rng(20)
    zones = [(-0.5, 0.5), (0.5, 0.98), (-12.0, -1.02), (-1.0, -0.5)]
    for k in range(400):
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.05, 3.0)
        c = rng.uniform(0.1, 4.0)
        lo, hi = zones[k % 4]
        z = rng.uniform(lo, hi)
        s = c - a - b
        if 0.5 < z < 1.0 and abs(s - round(s)) < 1e-4:
            continue
        if z < -1.0 and abs((b - a) - round(b - a)) < 1e-4:
            continue
        ref = float(mp.hyp2f1(a, b, c, z))
        assert sf.gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=2e-11), (a, b, c, z)


def test_2f1_riesz_kernel_next_to_one():
    # the 2F1 of the Riesz ball kernel, c - a - b = alpha - 1, within 1e-13
    # of z = 1 (scipy 1.17's hyp2f1 returns inf there for alpha <= 1 and is
    # about 1e-3 off above)
    for alpha in (0.1, 0.198, 1.0, 1.209):
        for d in (2, 3, 4, 6):
            a, b, c = (d - alpha) / 2.0, 1.0 - alpha / 2.0, d / 2.0
            for w in (1e-13, 1e-14, 1e-15, 1e-16):
                z = 1.0 - w
                with mp.workdps(30):
                    ref = float(mp.hyp2f1(a, b, c, mp.mpf(z)))
                assert sf.gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10), \
                    (alpha, d, w)


def test_2f1_integer_excess_branches():
    # logarithmic connection cases: c - a - b integer, and b - a integer with
    # large negative argument
    cases = [(1.0, 0.5, 1.5, 0.7), (1.5, 0.5, 2.0, 0.9), (0.5, 0.25, 2.75, 0.97),
             (1.7, 1.3, 2.0, 0.9), (1.0, 1.0, 2.0, -5.0), (1.0, 2.0, 2.5, -3.0),
             (1.35, 1.35, 2.35, -40.0), (2.5, 2.5, 3.5, -100.0)]
    for a, b, c, z in cases:
        ref = float(mp.hyp2f1(a, b, c, z))
        assert sf.gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10), (a, b, c, z)


def test_2f1_parameter_errors():
    with pytest.raises(ValueError):
        sf.gauss_2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        sf.gauss_2f1(0.5, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError):
        sf.gauss_2f1(0.5, 0.5, 1.5, 1.0)


@given(st.floats(min_value=0.1, max_value=2.5), st.floats(min_value=0.1, max_value=2.5),
       st.floats(min_value=0.3, max_value=4.0), st.floats(min_value=-0.9, max_value=0.45))
@settings(max_examples=60, deadline=None)
def test_2f1_symmetric_in_upper_parameters(a, b, c, z):
    assert sf.gauss_2f1(a, b, c, z) == pytest.approx(sf.gauss_2f1(b, a, c, z),
                                                     rel=1e-10)


def test_series_transform_consistency_invariant():
    """Connection-formula evaluation agrees with the defining series summed in
    high precision, for z in (0.5, 0.95) and non-integer parameter excess."""
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    while checked < 1000:
        a = rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        c = rng.uniform(0.5, 3.5)
        z = rng.uniform(0.5, 0.95)
        s = c - a - b
        if abs(s - round(s)) < 1e-3:
            continue
        with mp.workdps(35):
            term = mp.mpf(1)
            total = mp.mpf(1)
            za = mp.mpf(float(z))
            n = 0
            while abs(term) > mp.mpf(10) ** (-30) * abs(total):
                term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * za
                total += term
                n += 1
                if n > 60_000:
                    break
            ref = float(total)
        worst = max(worst, abs(sf.gauss_2f1(a, b, c, z) - ref) / abs(ref))
        checked += 1
    assert worst < 1e-9, worst


# -- near-one limit data ------------------------------------------------------

def test_near_one_parts_match_limit():
    a, b, c = 0.85, 0.65, 1.1
    s = c - a - b
    cs, cr = sf.hyp2f1_near_one_parts(a, b, c)
    for w in (1e-6, 1e-8):
        val = sf.gauss_2f1(a, b, c, 1.0 - w)
        assert val == pytest.approx(cs * w ** s + cr, rel=1e-5)


def test_log_parts_match_limit():
    a, b = 1.0, 0.5
    a1, b1 = sf.hyp2f1_log_parts(a, b)
    for w in (1e-7, 1e-9):
        val = sf.gauss_2f1(a, b, a + b, 1.0 - w)
        assert val == pytest.approx(-a1 * math.log(w) + b1, rel=1e-5)


# -- Lobachevsky and the interval log integral --------------------------------

def test_lobachevsky_special_values():
    assert sf.lobachevsky(0.0) == 0.0
    assert sf.lobachevsky(math.pi / 2) == pytest.approx((math.pi / 2) * math.log(2),
                                                        abs=1e-14)
    # quadrature oracle for the pi/4 value, then the Catalan closed form
    oracle, _ = quad(lambda t: -math.log(math.cos(t)), 0.0, math.pi / 4)
    assert sf.lobachevsky(math.pi / 4) == pytest.approx(oracle, abs=1e-12)
    assert sf.lobachevsky(math.pi / 4) == pytest.approx(
        (math.pi / 4) * math.log(2) - sf.CATALAN / 2, abs=1e-14)


def test_lobachevsky_domain():
    with pytest.raises(ValueError):
        sf.lobachevsky(2.0)


@given(st.floats(min_value=0.0, max_value=math.pi / 2))
@settings(max_examples=40, deadline=None)
def test_lobachevsky_odd(x):
    assert sf.lobachevsky(-x) == pytest.approx(-sf.lobachevsky(x), abs=1e-14)


def _log_interval_oracle(a: float, b: float) -> float:
    val, _ = quad(lambda u: math.log(u) / math.sqrt((b + u) * (a - u)),
                  0.0, a, points=[a / 2], limit=400)
    return val


def test_log_interval_integral_unit_case():
    # oracle first: the direct quadrature fixes sign and scale
    oracle = _log_interval_oracle(1.0, 1.0)
    assert oracle == pytest.approx(-(math.pi / 2) * math.log(2), abs=1e-9)
    assert sf.log_interval_integral(1.0, 1.0) == pytest.approx(oracle, rel=1e-8)


def test_log_interval_integral_matches_quadrature():
    for a, b in [(0.01, 1.0), (2.0, 0.3), (0.5, 4.0), (1.0, 1000.0)]:
        assert sf.log_interval_integral(a, b) == pytest.approx(
            _log_interval_oracle(a, b), rel=1e-8)


def test_log_interval_integral_large_b_trend():
    # magnitude decays toward zero as the far endpoint grows
    vals = [abs(sf.log_interval_integral(1.0, b)) for b in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]


def test_log_interval_integral_domain():
    with pytest.raises(ValueError):
        sf.log_interval_integral(0.0, 1.0)
    with pytest.raises(ValueError):
        sf.log_interval_integral(1.0, -2.0)
