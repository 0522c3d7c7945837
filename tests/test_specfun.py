"""Special-function layer: golden values and analytic invariants."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koshliakov import specfun
from koshliakov.errors import DomainError, LimitError, PoleError
from koshliakov.specfun import (_B2K, EULER_GAMMA, bessel_j, bessel_k,
                                bessel_k_scaled, bessel_y, big_xi, digamma,
                                exp_integral_ei, exp_integral_li, gamma,
                                hurwitz_zeta, log_gamma, riemann_zeta, xi)

from conftest import hurwitz_zeta_hermite, rel_err


def test_bernoulli_literals_match_exact_recurrence():
    # B_m = -sum_{j<m} binom(m+1, j) B_j / (m+1), in exact rationals.
    b = [Fraction(1)]
    for m in range(1, 2 * len(_B2K) + 1):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    assert [float(b[2 * k]) for k in range(1, len(_B2K) + 1)] == list(_B2K)


def test_rgamma_taylor_literals():
    # sum_k a_k mu^k = 1/Gamma(1 + mu): 1 and 1/2 at mu = 1, 2, zero at the
    # poles mu = -1, -2, the a_k of DLMF 5.7.1's recurrence where it is
    # accurate, and Gamma(1 + mu) at |mu| = 2.1.
    wide = specfun._RGAMMA_WIDE
    for mu, value in ((1.0, 1.0), (2.0, 0.5), (-1.0, 0.0), (-2.0, 0.0)):
        assert abs(math.fsum(wide * mu ** np.arange(wide.size)) - value) < 4e-16
    # 1/Gamma(z) = sum_k c_k z^k, c_1 = 1, c_2 = gamma, (k - 1) c_k =
    # gamma c_{k-1} - zeta(2) c_{k-2} + ... + (-1)^k zeta(k - 1) c_1; a_k = c_{k+1}.
    zeta = riemann_zeta(np.arange(2.0, 9.0)).real
    c = [0.0, 1.0, EULER_GAMMA]
    for k in range(3, 10):
        c.append((EULER_GAMMA * c[k - 1] + sum((-1.0) ** (j + 1) * zeta[j - 2] * c[k - j]
                                               for j in range(2, k))) / (k - 1))
    assert np.allclose(wide[:8], c[1:9], rtol=2e-14, atol=0.0)
    for mu in (2.1j, 0.5 + 2j, -0.5 - 2j, 1.3 - 1.6j):
        assert rel_err(np.polyval(wide[::-1], mu) * gamma(1.0 + mu), 1.0) < 4e-15


def test_gamma_golden(golden):
    assert rel_err(gamma(0.25), golden["gamma_quarter"]) < 1e-12
    assert rel_err(gamma(1 + 1j), golden["gamma_1_plus_i"]) < 1e-12


def test_gamma_small_integers():
    assert rel_err(gamma(1.0), 1.0) < 1e-14
    assert rel_err(gamma(5.0), 24.0) < 1e-14
    assert rel_err(gamma(0.5), math.sqrt(math.pi)) < 1e-14


def test_gamma_poles():
    for s in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma(s)


def test_gamma_reflection():
    # Gamma(s) Gamma(1-s) = pi / sin(pi s)
    for s in (0.3, 0.5 + 2.0j, -1.7 + 0.4j, 2.25, 0.9 - 3.0j):
        lhs = gamma(s) * gamma(1.0 - s)
        rhs = cmath.pi / cmath.sin(cmath.pi * s)
        assert rel_err(lhs, rhs) < 1e-12


def test_gamma_duplication():
    # Gamma(s) Gamma(s+1/2) = 2^{1-2s} sqrt(pi) Gamma(2s)
    for s in (0.25, 1.0, 2.5 + 1.0j, 0.6 - 0.8j, 4.0):
        lhs = gamma(s) * gamma(s + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * s) * cmath.sqrt(cmath.pi) * gamma(2.0 * s)
        assert rel_err(lhs, rhs) < 1e-12


def test_gamma_recurrence():
    for s in (0.1, 0.5 + 5.0j, 3.7, -0.3 + 1.0j, 12.0):
        assert rel_err(gamma(s + 1.0), s * gamma(s)) < 1e-12


def test_log_gamma_matches_gamma():
    for s in (0.5, 2.0 + 3.0j, 10.0, 1.0 - 4.0j):
        assert rel_err(cmath.exp(log_gamma(s)), gamma(s)) < 1e-12


def test_digamma_golden(golden):
    assert rel_err(digamma(0.5), golden["digamma_0p5"]) < 1e-12
    assert rel_err(digamma(3.7), golden["digamma_3p7"]) < 1e-12
    assert rel_err(digamma(1.0), -EULER_GAMMA) < 1e-12


@pytest.mark.parametrize("z", [0.3, 0.49, -0.7, -2.5 + 0.5j, 0.2 - 3.0j, 0.45 + 1e-3j])
def test_digamma_reflection_matches_the_recurrence(z):
    # Below Re z = 1/2 digamma reflects; z + 1 is past it, so the recurrence
    # psi(z + 1) = psi(z) + 1/z ties the two branches together.
    lhs, rhs = digamma(z + 1.0), digamma(z) + 1.0 / z
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(1.0 / z))


def test_zeta_golden(golden):
    assert rel_err(riemann_zeta(3.0), golden["zeta_3"]) < 1e-12
    assert rel_err(riemann_zeta(0.5), golden["zeta_half"]) < 1e-12
    assert rel_err(riemann_zeta(-0.5), golden["zeta_minus_half"]) < 1e-12
    assert rel_err(riemann_zeta(0.5 + 3.0j), golden["zeta_half_plus_3i"]) < 1e-12


def test_zeta_known_points():
    assert rel_err(riemann_zeta(2.0), math.pi ** 2 / 6.0) < 1e-13
    assert rel_err(riemann_zeta(4.0), math.pi ** 4 / 90.0) < 1e-13
    assert rel_err(riemann_zeta(0.0), -0.5) < 1e-13
    assert rel_err(riemann_zeta(-1.0), -1.0 / 12.0) < 1e-13


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_zeta_shift_bound():
    # The Euler-Maclaurin shift grows like 0.4|s|; past 10^7 terms its row
    # would not fit in memory (2.9 TiB at s = 1e12), so the shift is
    # refused before any row is allocated.  At s = 2.6e7 it is 1.04e7.
    for s in (1e12, 0.5 + 1e12j, 2.6e7):
        with pytest.raises(LimitError):
            riemann_zeta(s)
    with pytest.raises(LimitError):
        hurwitz_zeta(1e12, np.array([0.5, 2.0]))


def test_hurwitz_discards_overflowing_tail_terms_silently():
    # At |w| = 3e6 the Pochhammer factor of the last Euler-Maclaurin terms
    # overflows, past the stop, which picks a finite term; no warning
    # (pytest turns RuntimeWarnings into errors).  At a = 4e6 the shift is
    # one term, so the probe stays small; eval zeta --s=2.4e7 runs the same
    # lines with a 9.6e6-term shift.  Where the sum and every term
    # underflow, the stop is the first term: 0, not nan.
    assert np.isfinite(hurwitz_zeta(0.5 + 3e6j, 4e6))
    assert hurwitz_zeta(3e6, 1e7) == 0.0


def test_zeta_functional_equation():
    # zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
    for s in (-0.5, 0.25, 0.5 + 6.0j, -2.5 + 1.0j, 0.9):
        lhs = riemann_zeta(s)
        rhs = (2.0 ** s * cmath.pi ** (s - 1.0) * cmath.sin(cmath.pi * s / 2.0)
               * gamma(1.0 - s) * riemann_zeta(1.0 - s))
        assert rel_err(lhs, rhs) < 1e-9


def test_hurwitz_golden(golden):
    assert rel_err(hurwitz_zeta(0.75, 3.25), golden["hurwitz_0p75_3p25"]) < 1e-12
    assert rel_err(hurwitz_zeta(1.5, 2.5), golden["hurwitz_1p5_2p5"]) < 1e-12
    assert rel_err(hurwitz_zeta(2 + 2j, 1.5), golden["hurwitz_2p2i_1p5"]) < 1e-12


def test_hurwitz_reduces_to_zeta():
    for s in (2.0, 3.5, 0.5 + 2.0j):
        assert rel_err(hurwitz_zeta(s, 1.0), riemann_zeta(s)) < 1e-12


def test_hurwitz_shift_recurrence():
    # zeta(s, a) = a^{-s} + zeta(s, a+1)
    for s, a in ((2.5, 0.7), (0.5 + 1.0j, 2.0), (-0.5, 1.3)):
        lhs = hurwitz_zeta(s, a)
        rhs = complex(a) ** (-complex(s)) + hurwitz_zeta(s, a + 1.0)
        assert rel_err(lhs, rhs) < 1e-12


def _hurwitz_direct(w: float, a: float) -> float:
    # (a+n)^{-w} summed by math.fsum over n < M, where the dropped tail,
    # below (a+M)^{1-w}/(w-1), is under 1e-17 a^{-w}.
    log_end = (math.log(1e17) + w * math.log(a) - math.log(w - 1.0)) / (w - 1.0)
    m = math.ceil(math.exp(log_end) - a)
    return math.fsum((a + np.arange(0, max(m, 1), dtype=float)) ** (-w))


@settings(max_examples=60)
@given(st.floats(min_value=10.0, max_value=120.0),
       st.floats(min_value=0.5, max_value=500.0))
def test_hurwitz_relative_accuracy_far_below_one(w, a):
    # Values far below 1 (large w or a) keep full relative accuracy;
    # w log(a+1) < 600 keeps them clear of underflow.
    assume(w * math.log(a + 1.0) < 600.0)
    got = hurwitz_zeta(w, a)
    assert rel_err(got, _hurwitz_direct(w, a)) < 1e-13
    assert rel_err(got, a ** (-w) + hurwitz_zeta(w, a + 1.0)) < 1e-13


# The (w, a) the verifiers reach: w = z + k for the lambda sides (z in
# the strip 0 < |Re z| < 1, k = 0, 1, 3, 5) and w = s or s + z with
# s = 2j + 2 for the divisor-tail moments; a from n alpha >= 1/4 up to
# the tail points (N + 1) alpha.
_HZ_W = st.one_of(
    st.builds(lambda re, im, k: complex(re, im) + k,
              st.floats(-0.99, 0.99).filter(lambda x: abs(x) > 1e-3),
              st.floats(-1.5, 1.5), st.sampled_from([0.0, 1.0, 3.0, 5.0])),
    st.builds(lambda j, re: complex(2 * j + 2 + re), st.integers(0, 40),
              st.sampled_from([0.0, 0.3, -0.6])))
_HZ_A = st.lists(st.floats(0.25, 2000.0), min_size=1, max_size=40)


@settings(max_examples=60)
@given(_HZ_W, _HZ_A)
def test_hurwitz_array_matches_scalar_calls(w, a):
    # One array call gives every point its scalar value, bit for bit: each
    # point keeps its own shift and its own stop in the tail.
    assume(abs(w - 1.0) > 1e-3)
    got = hurwitz_zeta(w, np.array(a))
    assert got.shape == (len(a),)
    assert list(got) == [hurwitz_zeta(w, x) for x in a]


def test_hurwitz_array_golden(golden):
    # The goldens hold inside arrays whose other points need other shifts.
    for w, a, key in ((0.75, 3.25, "hurwitz_0p75_3p25"), (1.5, 2.5, "hurwitz_1p5_2p5"),
                      (2 + 2j, 1.5, "hurwitz_2p2i_1p5")):
        got = hurwitz_zeta(w, np.array([0.25, a, 40.0, 1e3]))
        assert rel_err(got[1], golden[key]) < 1e-12
        assert got[1] == hurwitz_zeta(w, a)


@pytest.mark.parametrize("f, points", [
    (gamma, [0.25, 1 + 1j, -0.4 + 0.3j, 5.5, -2.5, 0.1 - 15j, 60.5]),
    (riemann_zeta, [3.0, 0.5, -0.5, 0.5 + 3j, 0.0, 1e-5, 1.004, -7.5 + 3j, 0.5 + 30j]),
    (big_xi, [0.0, 2.5, 2 + 0.5j, 14.13, 30.0 - 0.4j, 60.0]),
], ids=["gamma", "riemann_zeta", "big_xi"])
def test_array_calls_match_scalar_calls(f, points):
    got = f(np.array(points))
    assert got.dtype == complex and list(got) == [f(p) for p in points]
    assert f(np.array(points).reshape(-1, 1)).shape == (len(points), 1)


def test_bessel_j_skips_y_bit_identically():
    # bessel_j's J-only path gives the J of the joint J/Y routine.
    x = np.concatenate([np.geomspace(1e-6, 1.99, 40), np.linspace(2.0, 60.0, 40)])
    for nu in (0.0, 0.3, 1.0, 2.7, 12.4, -1.0, -0.3, -2.7):
        assert np.array_equal(bessel_j(nu, x), specfun._bessel_jy(nu, x)[0])


def test_bessel_j_series_forms_rgamma_once_per_order(monkeypatch):
    # The series' 1/Gamma(nu + 1) is memoised per order: a repeat call
    # makes no Gamma call, and the factor has rgamma's bits.
    x = np.geomspace(1e-3, 1.9, 7)
    first = bessel_j(0.3712, x)
    calls = []
    monkeypatch.setattr(specfun, "gamma", lambda z: calls.append(z) or gamma(z))
    assert np.array_equal(bessel_j(0.3712, x), first)
    assert calls == []
    assert specfun._series_rgamma(0.3712) == specfun.rgamma(1.3712).real
    assert calls == [1.3712]


def test_hurwitz_cross_method():
    # Euler-Maclaurin vs Hermite integral, two independent routes.
    for s, a in ((0.75, 3.25), (2.0, 0.5), (3.5, 1.25), (1.5 + 1.0j, 2.0)):
        assert rel_err(hurwitz_zeta(s, a), hurwitz_zeta_hermite(s, a)) < 1e-9


def test_hurwitz_hermite_checked_tail(monkeypatch):
    # Hermite's integral runs through the half-line integrator, under a
    # certificate at 0.9 of the 2 pi rate, and agrees with Euler-Maclaurin
    # to near rounding.
    from koshliakov import quadrature

    calls = []
    orig = quadrature.integrate_half_line
    monkeypatch.setattr(quadrature, "integrate_half_line",
                        lambda *a, **k: calls.append(a[1].rate) or orig(*a, **k))
    points = ((0.75, 3.25), (2.0, 0.5), (3.5, 1.25), (1.5 + 1.0j, 2.0),
              (0.3, 0.1), (5.0 + 3.0j, 0.7))
    for s, a in points:
        assert rel_err(hurwitz_zeta_hermite(s, a), hurwitz_zeta(s, a)) < 1e-14
    assert calls == [0.9 * 2.0 * math.pi] * len(points)


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -1.0)
    # Below Re w = -1 the direct terms outgrow zeta(w, a): refused, not
    # 2.9e-10 off; Re w = -1 itself is inside.
    with pytest.raises(DomainError):
        hurwitz_zeta(-2.948 - 3.193j, 0.587 + 0.340j)
    with pytest.raises(DomainError):
        hurwitz_zeta(-1.0001, np.array([0.5, 2.0]))
    assert rel_err(hurwitz_zeta(-1.0, 1.0), -1.0 / 12.0) < 1e-14
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 2.0)


def test_xi_golden(golden):
    assert rel_err(xi(2.0), golden["xi_at_2"]) < 1e-12
    assert rel_err(xi(0.5), golden["xi_half"]) < 1e-12


def test_xi_symmetry():
    for s in (2.0, 0.3, 0.5 + 4.0j, -1.5, 1.0 + 1.0j):
        assert rel_err(xi(s), xi(1.0 - s)) < 1e-9


def test_big_xi_golden(golden):
    assert rel_err(big_xi(2.5), golden["big_xi_2p5"]) < 1e-12
    assert rel_err(big_xi(2 + 0.5j), golden["big_xi_2_p5i"]) < 1e-12


def test_big_xi_even():
    for t in (0.7, 3.0, 1.0 + 0.25j):
        assert rel_err(big_xi(t), big_xi(-t)) < 1e-12
    # Xi(0) = xi(1/2)
    assert rel_err(big_xi(0.0), xi(0.5)) < 1e-13


def test_bessel_j_golden(golden):
    assert rel_err(bessel_j(0.25, 2.0), golden["bessel_j_0p25_2"]) < 1e-12
    assert rel_err(bessel_j(0.3, 7.5), golden["bessel_j_0p3_7p5"]) < 1e-12
    assert rel_err(bessel_j(0.6, 25.0), golden["bessel_j_0p6_25"]) < 1e-12
    assert rel_err(bessel_j(1.25, 2.0), golden["bessel_j_1p25_2"]) < 1e-12
    assert rel_err(bessel_j(-0.8, 14.0), golden["bessel_j_m0p8_14"]) < 1e-12
    # Below the Hankel knee at 8 < x < 14: a near-zero and a negative order.
    assert rel_err(bessel_j(0.001, 13.9), golden["bessel_j_0p001_13p9"]) < 1e-12
    assert rel_err(bessel_j(-1.4, 13.2), golden["bessel_j_m1p4_13p2"]) < 1e-12
    # Orders past 12 between 3|nu| and nu^2/4, below the Hankel knee.
    assert rel_err(bessel_j(20.5, 70.0), golden["bessel_j_20p5_70"]) < 1e-13
    assert rel_err(bessel_j(60.0, 500.0), golden["bessel_j_60_500"]) < 1e-13


def test_bessel_y_golden(golden):
    assert rel_err(bessel_y(0.0, 1.0), golden["bessel_y_0_1"]) < 1e-12
    assert rel_err(bessel_y(0.25, 2.0), golden["bessel_y_0p25_2"]) < 1e-12
    assert rel_err(bessel_y(0.3, 30.0), golden["bessel_y_0p3_30"]) < 1e-12
    assert rel_err(bessel_y(1.25, 2.0), golden["bessel_y_1p25_2"]) < 1e-12
    assert rel_err(bessel_y(2.0, 3.5), golden["bessel_y_2_3p5"]) < 1e-12
    # Below the Hankel knee: small, near-integer and negative orders.
    for nu, x, name in ((0.3, 13.9, "bessel_y_0p3_13p9"),
                        (0.001, 13.9, "bessel_y_0p001_13p9"),
                        (0.0021, 13.9, "bessel_y_0p0021_13p9"),
                        (0.001, 12.0, "bessel_y_0p001_12"),
                        (3.0018, 4.0, "bessel_y_3p0018_4"),
                        (-0.6, 12.5, "bessel_y_m0p6_12p5")):
        assert rel_err(bessel_y(nu, x), golden[name]) < 1e-12, name
    # Negative orders past 12 between 3|nu| and nu^2/4, below the Hankel knee.
    assert rel_err(bessel_y(-30.0, 100.0), golden["bessel_y_m30_100"]) < 1e-13
    assert rel_err(bessel_y(-45.2, 300.0), golden["bessel_y_m45p2_300"]) < 1e-13


def test_bessel_k_golden(golden):
    assert rel_err(bessel_k(0.0, 1.0), golden["bessel_k_0_1"]) < 1e-12
    assert rel_err(bessel_k(0.25, 2.0), golden["bessel_k_0p25_2"]) < 1e-12
    assert rel_err(bessel_k(1.6, 0.3), golden["bessel_k_1p6_0p3"]) < 1e-12
    assert rel_err(bessel_k_scaled(0.0, 377.0), golden["bessel_k_0_377"]) < 1e-12
    arg = 2.0 * cmath.exp(0.25j * cmath.pi)
    assert rel_err(bessel_k(0.3, arg), golden["bessel_k_0p3_cplx"]) < 1e-12


_K_REAL_GOLDENS = (
    (0.0, 1.999, "bessel_k_0_1p999"), (0.0, 2.0, "bessel_k_0_2"),
    (0.0, 2.001, "bessel_k_0_2p001"), (0.49, 1.999, "bessel_k_0p49_1p999"),
    (0.49, 2.0, "bessel_k_0p49_2"), (0.49, 2.001, "bessel_k_0p49_2p001"),
    (1.6, 1.999, "bessel_k_1p6_1p999"), (1.6, 2.0, "bessel_k_1p6_2"),
    (1.6, 2.001, "bessel_k_1p6_2p001"), (12.7, 0.5, "bessel_k_12p7_0p5"),
    (29.9, 50.0, "bessel_k_29p9_50"), (0.25, 1e-6, "bessel_k_0p25_1em6"),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_real_order_goldens(golden):
    # Across the series / trapezoid switch at x = 2, high orders reached by
    # the upward recurrence from either side, a tiny and a huge argument.
    for nu, x, key in _K_REAL_GOLDENS:
        assert rel_err(bessel_k(nu, x), golden[key]) < 1e-13, key
        assert rel_err(bessel_k(-nu, x), golden[key]) < 1e-13, key
    assert rel_err(bessel_k_scaled(0.3, 1e5), golden["bessel_k_0p3_1e5"]) < 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80)
@given(nu=st.floats(min_value=-30.0, max_value=30.0),
       log_x=st.floats(min_value=math.log(1e-6), max_value=math.log(1e3)))
def test_bessel_k_real_matches_integral(nu, log_x):
    # The closed forms against the tanh-sinh integral, wherever K is finite.
    x = np.array([math.exp(log_x)])
    with np.errstate(over="ignore"):
        reference = _k_batch_reference(complex(nu), x.astype(complex))
    assume(np.all(np.isfinite(reference)))
    got = bessel_k_scaled(nu, x)
    assert got.dtype == complex
    assert rel_err(got[0], reference[0]) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_real_path_warning_free_at_the_edges():
    # Orders whose K_{mu+1} overflows at tiny x must not form it.
    xs = np.array([1e-300, 1e-150, 1e-8, 1.0, 2.0, 1e5])
    for nu in (0.0, 0.25, 0.5, -0.5, 0.49):
        assert np.all(np.isfinite(bessel_k_scaled(nu, xs)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_subnormal_complex_order():
    # Temme's sinh(e)/e at e = mu log(2/x) is 1 for a subnormal complex mu;
    # dividing by e overflowed and gave nan.
    for x in (0.3, 1.0, 1.9):
        assert rel_err(bessel_k(2.2250738585e-313j, x), bessel_k(0.0, x)) < 1e-15


def test_bessel_k_zero_imaginary_part_takes_the_real_path():
    # Float and zero-imaginary complex arguments and orders: the same bits.
    xs = np.array([0.3 + 0.0j, 2.5 + 0.0j])
    expected = bessel_k(0.7, xs.real)
    assert np.array_equal(bessel_k(0.7, xs), expected)
    assert np.array_equal(bessel_k(0.7 + 0.0j, xs), expected)


def _k_cutoff(re_nu: float, re_x: float) -> float:
    """The T at which exp(-x (cosh u - 1)) cosh(nu u) has fallen 41 digits."""
    T = 1.0
    for _ in range(60):
        T_new = math.acosh(1.0 + (41.0 + abs(re_nu) * T) / re_x)
        if abs(T_new - T) < 1e-9:
            return T_new
        T = T_new
    return T


def _k_batch_reference(nu, xs):
    """exp(x) K_nu(x) as the tanh-sinh integral of exp(-x (cosh u - 1))
    cosh(nu u) over [0, T], the rule's variable cut at |u| <= 4.5, levels
    0..10: the independent reference for the library's closed forms."""
    T = max(_k_cutoff(nu.real, float(np.min(xs.real))), 1.0)
    total = prev = None
    for level in range(11):
        h = math.ldexp(1.0, -level)
        u = np.arange(0 if level == 0 else 1, math.floor(4.5 / h) + 1, 1 if level == 0 else 2) * h
        v = 0.5 * math.pi * np.sinh(u)
        w = 0.5 * T * 0.5 * math.pi * np.cosh(u) / np.square(np.cosh(v))
        dist = T / (1.0 + np.exp(2.0 * v))
        contrib = np.zeros(xs.shape, dtype=complex)
        for uu, centre in ((T - dist, True), (dist, level > 0)):
            sel = (w > 0.0) & (uu > 0.0) & (uu < T) & (centre | (u > 0.0))
            s = np.sinh(0.5 * uu[sel])
            expo = -np.outer(xs.ravel(), 2.0 * s * s)
            nun = (nu * uu[sel])[None, :]
            with np.errstate(over="ignore", under="ignore"):
                vals = 0.5 * (np.exp(expo + nun) + np.exp(expo - nun))
                contrib += (vals @ w[sel]).reshape(xs.shape)
        total = h * contrib if level == 0 else 0.5 * total + h * contrib
        if prev is not None and level >= 4:
            if np.all(np.abs(total - prev) <= 5e-16 * np.abs(total) + 1e-300):
                break
        prev = total
    return total


# Each case's arguments in one call.  The complex arguments and |Im nu| = 2
# compare with 40-digit goldens, the rest with the tanh-sinh reference.
_K_COMPLEX_CASES = [
    (0.3 + 0.5j, [0.01, 0.5, 1.0, 2.0, 10.0, 50.0]),
    (0.25, [1 + 1j, 2 - 0.5j, 0.1 + 3j]),
    (1.5 - 2j, [0.001, 0.3, 7.0]),
    (0j, [1e-6 + 1e-6j, 100.0 + 1j]),
    (12.7 + 0.1j, [0.5, 3.0, 40.0]),
    (-0.4 + 0.2j, list(np.linspace(0.05, 20.0, 37))),
    (2j, [5.0]),
    (29.0 + 1j, [50.0, 200.0]),
    (0.1, [0.2 + 0.2j]),
    (0.45 + 0.3j, list(np.geomspace(1e-4, 1e3, 25))),
]


_K_CASE_GOLDENS = {
    (0.25, 1 + 1j): "bessel_k_case_0p25_1p1i", (0.25, 2 - 0.5j): "bessel_k_case_0p25_2m0p5i",
    (0.25, 0.1 + 3j): "bessel_k_case_0p25_0p1p3i", (1.5 - 2j, 0.001): "bessel_k_case_1p5m2i_0p001",
    (1.5 - 2j, 0.3): "bessel_k_case_1p5m2i_0p3", (1.5 - 2j, 7.0): "bessel_k_case_1p5m2i_7",
    (0j, 1e-6 + 1e-6j): "bessel_k_case_0_1em6p1em6i", (0j, 100 + 1j): "bessel_k_case_0_100p1i",
    (2j, 5.0): "bessel_k_case_2i_5", (0.1, 0.2 + 0.2j): "bessel_k_case_0p1_0p2p0p2i",
}


@pytest.mark.parametrize("nu,xs", _K_COMPLEX_CASES)
def test_complex_k_keeps_the_tanh_sinh_arithmetic(nu, xs, golden):
    # The closed forms keep the tanh-sinh integral's values to its
    # accuracy: a complex argument or |Im nu| > 1 against the 40-digit
    # oracle, the rest against the reference loop.
    xs = np.array(xs, dtype=complex)
    got, reference = bessel_k_scaled(nu, xs), _k_batch_reference(complex(nu), xs)
    if np.any(xs.imag) or abs(complex(nu).imag) > 1.0:
        for x, value in zip(xs, got * np.exp(-xs)):
            assert rel_err(value, golden[_K_CASE_GOLDENS[nu, x]]) < 1e-13
    else:
        assert np.max(np.abs(got - reference) / np.abs(reference)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80)
@given(re_nu=st.floats(min_value=-30.0, max_value=30.0),
       im_nu=st.floats(min_value=-1.0, max_value=1.0),
       log_x=st.floats(min_value=math.log(1e-6), max_value=math.log(1e3)))
def test_bessel_k_complex_order_matches_integral(re_nu, im_nu, log_x):
    # The closed forms at a complex order with |Im nu| <= 1 against the
    # tanh-sinh integral, wherever K is finite.
    nu = complex(re_nu, im_nu)
    x = np.array([math.exp(log_x)])
    with np.errstate(over="ignore"):
        reference = _k_batch_reference(nu, x.astype(complex))
    assume(np.all(np.isfinite(reference)))
    got = bessel_k_scaled(nu, x)
    assert rel_err(got[0], reference[0]) < 1e-12


def test_complex_order_real_argument_never_calls_the_integral():
    xs = np.array([1e-3, 0.5, 1.999, 2.0, 7.0, 300.0])
    for nu in (0.3 + 0.5j, -0.49 + 1j, 0.5 - 1j, 1j, 12.7 + 0.1j, -29.0 - 1j):
        assert bessel_k_scaled(nu, xs).shape == xs.shape
        assert bessel_k_scaled(nu, xs.astype(complex)).shape == xs.shape


_K_COMPLEX_GOLDENS = (
    (0.49 + 0.3j, 1.5, "bessel_k_0p49p0p3i_1p5"), (1.51 + 0.3j, 0.01, "bessel_k_1p51p0p3i_0p01"),
    (0.49 + 0.3j, 2.5, "bessel_k_0p49p0p3i_2p5"), (1.51 - 0.3j, 40.0, "bessel_k_1p51m0p3i_40"),
    (0.5 + 1j, 1.999, "bessel_k_0p5p1i_1p999"), (0.5 + 1j, 2.0, "bessel_k_0p5p1i_2"),
    (-0.3 - 1j, 0.2, "bessel_k_m0p3m1i_0p2"), (-0.3 - 1j, 9.0, "bessel_k_m0p3m1i_9"),
    (7.6 + 1j, 0.7, "bessel_k_7p6p1i_0p7"), (7.6 + 1j, 25.0, "bessel_k_7p6p1i_25"),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_complex_order_goldens(golden):
    # mu = nu - round(Re nu) with Re mu near +1/2 and -1/2 on both sides of
    # the switch at x = 2, |Im nu| = 1 on both sides of it, and an order
    # reached by the recurrence.
    for nu, x, key in _K_COMPLEX_GOLDENS:
        assert rel_err(bessel_k(nu, x), golden[key]) < 1e-13, key
        assert rel_err(bessel_k(-nu, x), golden[key]) < 1e-13, key


# e^x K_nu(x) at complex x: Omega's arguments 4 pi sqrt(nx) e^{+-i pi/4} at
# nx = 1/2, 2 and 50, and |arg x| = 0.45 pi on both sides of |x| = 2.
_K_SCALED_GOLDENS = tuple(
    (nu, 4.0 * math.pi * math.sqrt(nx) * cmath.exp(sign * 0.25j * math.pi), f"bessel_k_{tag}_omega_{key}")
    for nu, tag in ((0.5, "0p5"), (0.3 + 0.2j, "0p3p0p2i"))
    for nx, sign, key in ((0.5, 1, "0p5"), (2.0, 1, "2"), (2.0, -1, "2_conj"), (50.0, 1, "50"))) + tuple(
    (nu, r * cmath.exp(sign * 0.45j * math.pi), f"bessel_k_{tag}_{rtag}_arg{'' if sign > 0 else 'm'}0p45pi")
    for nu, tag in ((0.3, "0p3"), (0.4 + 1.5j, "0p4p1p5i"))
    for r, rtag, sign in ((1.5, "1p5", 1), (3.0, "3", -1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_complex_argument_goldens(golden):
    for nu, x, key in _K_SCALED_GOLDENS:
        assert rel_err(bessel_k_scaled(nu, x), golden[key]) < 1e-13, key
        assert rel_err(bessel_k_scaled(-nu, x), golden[key]) < 1e-13, key


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bessel_k_goldens_above_im_one(golden):
    # |Im nu| = 2 on both sides of x = 2, mellin-k's order 5+2i, and
    # |Im nu| = 5, the bound, on both sides of it.
    for nu, x, key in ((0.3 + 2j, 1.9, "bessel_k_0p3p2i_1p9"), (0.3 + 2j, 2.1, "bessel_k_0p3p2i_2p1"),
                       (5 + 2j, 6.0, "bessel_k_5p2i_6"), (0.5 + 5j, 3.0, "bessel_k_0p5p5i_3"),
                       (-0.2 - 5j, 0.7, "bessel_k_m0p2m5i_0p7")):
        assert rel_err(bessel_k(nu, x), golden[key]) < 1e-13, key
        assert rel_err(bessel_k(-nu, x), golden[key]) < 1e-13, key


def test_bessel_k_order_bounds():
    # |Re nu| <= 30 and |Im nu| <= 5 hold; past either, a DomainError.
    assert np.isfinite(bessel_k(30.0 + 5j, 3.0)) and np.isfinite(bessel_k(-0.5 - 5j, 0.5 + 1j))
    for nu in (30.5, 0.3 + 5.01j, -2.0 - 6j, 20j):
        with pytest.raises(DomainError, match="bessel_k supports"):
            bessel_k(nu, 1.0)


def test_bessel_wronskian():
    # J_{nu+1}(x) Y_nu(x) - J_nu(x) Y_{nu+1}(x) = 2/(pi x); 1e-12 below
    # the Hankel knee, also at near-integer orders.
    for nu in (0.0, 0.25, 1.25, -0.4, 1.001, -1.999, 0.0021, 3.0018):
        for x in (0.5, 1.0, 3.5, 9.5, 12.0, 13.9, 28.0):
            w = (bessel_j(nu + 1.0, x) * bessel_y(nu, x)
                 - bessel_j(nu, x) * bessel_y(nu + 1.0, x))
            assert rel_err(w, 2.0 / (math.pi * x)) < (1e-12 if x < 14.0 else 1e-9)


def test_bessel_k_recurrence():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    for nu in (0.5, 1.0, 0.3 + 0.2j):
        for x in (0.4, 1.0, 3.0, 10.0):
            lhs = bessel_k(nu + 1.0, x)
            rhs = bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x)
            assert rel_err(lhs, rhs) < 1e-9


def test_bessel_half_order_closed_forms():
    for x in (0.5, 1.0, 2.0, 7.0):
        assert rel_err(bessel_j(0.5, x),
                       math.sqrt(2.0 / (math.pi * x)) * math.sin(x)) < 1e-12
        assert rel_err(bessel_k(0.5, x),
                       math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)) < 1e-12


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_j(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_y(0.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.0, -2.0)
    # J and Y are real-order only: a typed error, not numpy's TypeError.
    for fn in (bessel_j, bessel_y):
        with pytest.raises(DomainError, match="real order only"):
            fn(1 + 1j, 2.0)
        assert fn(0.5 + 0j, 2.0) == fn(0.5, 2.0)


def test_bessel_past_the_double_range():
    # At tiny x, Y_nu leaves the double range as it climbs in order: it is
    # -inf, and J, computed alongside it, is unaffected and quiet.
    assert bessel_j(5.0, 1e-70) == 0.0
    assert bessel_j(10.0, 1e-40) == 0.0
    assert bessel_y(10.0, 1e-40) == -math.inf
    assert bessel_j(-2.5, 1e-150) == math.inf


def test_exp_integrals_golden(golden):
    assert rel_err(exp_integral_ei(1.0), golden["ei_1"]) < 1e-12
    assert rel_err(exp_integral_li(2.0), golden["li_2"]) < 1e-12
    # log(1e30) = 69.1 is past y = 50, where Ei is exp(y) times its scaled form.
    assert rel_err(exp_integral_li(1e30), golden["li_1e30"]) < 1e-12
    # li at the Soldner point vanishes; absolute comparison.
    soldner = 1.4513692348833810502839684858920274494
    assert abs(exp_integral_li(soldner)) < 1e-12


def test_li_via_ei():
    for x in (2.0, 5.0, 0.5):
        assert rel_err(exp_integral_li(x), exp_integral_ei(math.log(x))) < 1e-12


@pytest.mark.parametrize("tag, w", [("1", 1.0), ("1p0001", 1.0001), ("2", 2.0), ("4", 4.0),
                                    ("20", 20.0), ("49p9", 49.9)])
def test_e1_scaled_goldens(golden, tag, w):
    # The continued fraction summed backward from depth 100, where it
    # starts (w = 1, its slowest point) and across its range.
    assert rel_err(specfun.exp_integral_e1_scaled(w), golden[f"e1_scaled_{tag}"]) < 5e-16


def _ei_series_loop(y):
    """The term-by-term loop `_ei_positive_series` replaced, kept as the
    reference for its bits."""
    out = EULER_GAMMA + np.log(y)
    term = np.ones_like(y)
    done = np.zeros(y.shape, dtype=bool)
    for k in range(1, 400):
        term = term * (y / k)
        out = np.where(done, out, out + term / k)
        done |= (term / k < 1e-18 * np.abs(out)) & (k > y)
        if np.all(done):
            break
    return out


def test_ei_series_block_keeps_the_loop_arithmetic():
    # One cumprod/cumsum block with a stop per point adds the same terms in
    # the same order as the loop did.
    rng = np.random.default_rng(0)
    y = np.r_[np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 5000)), 1e-3, 1.0, 50.0]
    assert np.array_equal(specfun._ei_positive_series(y), _ei_series_loop(y))
