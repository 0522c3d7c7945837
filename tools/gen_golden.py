#!/usr/bin/env python3
"""Generate the frozen golden-value file used by the test suite.

Independent arbitrary-precision oracle built on mpmath at 40 significant
digits.  It is run once, before the double-precision library is written,
and its output is committed at tests/data/golden.json.  The test suite
only ever reads the frozen file; it never calls mpmath.

    python tools/gen_golden.py                  # write the golden file
    python tools/gen_golden.py --checks         # also run slow identity
                                                # cross-verifications

--checks evaluates both sides of the deep identities (Xi-integral vs.
series forms, kernel self-reciprocality, the two candidate closed forms
for the two-exponential difference, the divisor-sum vs. Hurwitz-tail
identity) entirely within mpmath, so any later disagreement in the fast
library is attributable to the implementation and not to the formulas.
"""

from __future__ import annotations

import argparse
import json
import time

from mpmath import (
    mp, mpf, mpc, pi, exp, log, sqrt, sin, cos, atan, gamma, digamma,
    zeta, besselj, bessely, besselk, li, ei, e1, quad, nsum, inf, expm1,
    euler, binomial, fabs, arg, re, im, bernoulli, factorial, rf, fsum,
)

mp.dps = 40


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return sorted(out)


def sigma(a, n: int):
    """Divisor power sum sigma_a(n) = sum_{d|n} d^a."""
    return sum(mpf(d) ** a if im(mpc(a)) == 0 else mpc(d) ** a
               for d in divisors(n))


def xi(s):
    """Completed zeta xi(s) = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s)."""
    s = mpc(s)
    if fabs(s - 1) < mpf("1e-30"):
        # (s-1) zeta(s) -> 1 at s = 1
        return mpf("0.5") * s * pi ** (-s / 2) * gamma(s / 2)
    return mpf("0.5") * s * (s - 1) * pi ** (-s / 2) * gamma(s / 2) * zeta(s)


def big_xi(w):
    """Xi(w) = xi(1/2 + i w)."""
    return xi(mpf("0.5") + mpc(0, 1) * mpc(w))


def kernel_m(z, x):
    """M_z(x) = (2/pi) K_z(x) - Y_z(x)."""
    return 2 / pi * besselk(z, x) - bessely(z, x)


def kosh_kernel(z, x):
    """cos(pi z/2) M_z(4 sqrt(x)) - sin(pi z/2) J_z(4 sqrt(x))."""
    v = 4 * sqrt(mpf(x))
    return cos(pi * z / 2) * kernel_m(z, v) - sin(pi * z / 2) * besselj(z, v)


def transform_kernel(z, v):
    """cos(pi z) M_{2z}(v) - sin(pi z) J_{2z}(v); v = 2 sqrt(x t)."""
    return cos(pi * z) * kernel_m(2 * z, v) - sin(pi * z) * besselj(2 * z, v)


def df_phi(x):
    return exp(-x)


def df_psi(x):
    """Second member of the Dixon-Ferrar reciprocal pair at z = 0."""
    x = mpf(x)
    return -(2 / pi) * (exp(4 * x) * li(exp(-4 * x))
                        + exp(-4 * x) * li(exp(4 * x)))


def omega_term(n, x, z):
    """Single term of the K-Bessel definition of Omega(x, z)."""
    n, x, z = mpf(n), mpf(x), mpc(z)
    rot = exp(mpc(0, 1) * pi * z / 4)
    u = 4 * pi * sqrt(n * x)
    return 2 * sigma(-z, int(n)) * n ** (z / 2) * (
        rot * besselk(z, u * exp(mpc(0, 1) * pi / 4))
        + (1 / rot) * besselk(z, u * exp(-mpc(0, 1) * pi / 4)))


def omega_def(x, z, nmax=80):
    """Omega(x, z) by its exponentially convergent K-Bessel definition."""
    s = mpc(0)
    for n in range(1, nmax + 1):
        t = omega_term(n, x, z)
        s += t
        if n > 4 and fabs(t) < mpf(10) ** (-mp.dps - 8) * max(1, fabs(s)):
            break
    return s


def omega_pf(x, z, nexp=60, kmax=60):
    """Omega(x, z) by partial fractions plus zeta-moment tail.

    Omega(x,z) = -Gamma(z) zeta(z) (2 pi sqrt(x))^(-z)
                 + zeta(z) x^(z/2 - 1) / (2 pi)
                 - x^(z/2) zeta(z+1) / 2
                 + x^(z/2 + 1) / pi * S(x, z),
    S = sum_{n>=1} sigma_{-z}(n) / (n^2 + x^2), with the n > N tail
    rewritten through sum_{n>N} sigma_{-z}(n) n^(-2k-2) =
    zeta(2k+2) zeta(2k+2+z) - partial sum.
    """
    x, z = mpf(x), mpc(z)
    N = max(nexp, int(2 * x) + 10)
    s_direct = sum(sigma(-z, n) / (n * n + x * x) for n in range(1, N + 1))
    tail = mpc(0)
    for k in range(kmax):
        mom = zeta(2 * k + 2) * zeta(2 * k + 2 + z) - sum(
            sigma(-z, n) * mpf(n) ** (-2 * k - 2) for n in range(1, N + 1))
        term = (-1) ** k * x ** (2 * k) * mom
        tail += term
        if fabs(term) < mpf(10) ** (-mp.dps - 8):
            break
    S = s_direct + tail
    return (-gamma(z) * zeta(z) * (2 * pi * sqrt(x)) ** (-z)
            + zeta(z) * x ** (z / 2 - 1) / (2 * pi)
            - x ** (z / 2) * zeta(z + 1) / 2
            + x ** (z / 2 + 1) / pi * S)


def lam(x, z):
    """lambda(x, z) = zeta(z+1, x) - x^(-z)/z - x^(-z-1)/2."""
    x, z = mpf(x), mpc(z)
    return zeta(z + 1, x) - x ** (-z) / z - x ** (-z - 1) / 2


def lam_sum(alpha, z, nmax=400):
    """sum_{n>=1} lambda(n alpha, z), Richardson-accelerated tail."""
    return nsum(lambda n: lam(n * alpha, z), [1, inf], method="r+s+e")


def lam_sum_em(alpha, z, m=100, k_max=15):
    """sum_{n>=1} lambda(n alpha, z): n <= m directly, the rest by Euler-
    Maclaurin from n = m + 1 with the closed antiderivative of lambda and
    its exact derivatives, d^j/dn^j lambda(n alpha, z) = (-alpha)^j (z+1)_j
    lambda(n alpha, z+j); term k shrinks like (k / (pi (m+1)))^2, so at
    m = 100 the remainder is far below 40 digits."""
    alpha, z = mpf(alpha), mpc(z)
    u = (m + 1) * alpha
    tail = ((zeta(z, u) / z + u ** (1 - z) / (z * (1 - z)) - u ** (-z) / (2 * z)) / alpha
            + lam(u, z) / 2)
    for k in range(1, k_max + 1):
        j = 2 * k - 1
        tail -= (bernoulli(2 * k) / factorial(2 * k) * (-alpha) ** j * rf(z + 1, j)
                 * lam(u, z + j))
    return fsum(lam(n * alpha, z) for n in range(1, m + 1)) + tail


def hurwitz_F(alpha, z):
    """F(alpha, z) = alpha^((z+1)/2) (sum_n lambda(n alpha, z)
    - zeta(z+1)/(2 alpha^(z+1)) - zeta(z)/(alpha z)), the function whose
    alpha -> 1/alpha invariance is the hurwitz-modular identity."""
    alpha, z = mpf(alpha), mpc(z)
    return alpha ** ((z + 1) / 2) * (lam_sum_em(alpha, z) - zeta(z + 1) / (2 * alpha ** (z + 1))
                                     - zeta(z) / (alpha * z))


def Z_closed(s, alpha):
    return (mpf(alpha) ** (-mpc(s)) + mpf(alpha) ** (mpc(s) - 1)) / 4


def dZ_closed(s, alpha):
    a = mpf(alpha)
    return log(a) * (-a ** (-mpc(s)) + a ** (mpc(s) - 1)) / 4


def theta_k(x, w, alpha):
    beta = 1 / mpf(alpha)
    return besselk(w, 2 * alpha * x) + beta * besselk(w, 2 * beta * x)


# ----------------------------------------------------------------------
# golden values
# ----------------------------------------------------------------------

def golden_values():
    i = mpc(0, 1)
    soldner = mpf("1.45136923488338105028396848589202744949303228")
    vals = {}

    def put(name, value, what):
        v = mpc(value)
        vals[name] = {"re": mp.nstr(v.real, 36), "im": mp.nstr(v.imag, 36),
                      "what": what}

    put("gamma_1_plus_i", gamma(1 + i), "Gamma(1+i)")
    put("gamma_quarter", gamma(mpf("0.25")), "Gamma(1/4)")
    put("zeta_half", zeta(mpf("0.5")), "zeta(1/2)")
    put("zeta_half_plus_3i", zeta(mpf("0.5") + 3 * i), "zeta(1/2+3i)")
    put("zeta_minus_half", zeta(mpf("-0.5")), "zeta(-1/2)")
    put("zeta_3", zeta(3), "zeta(3)")
    put("hurwitz_1p5_2p5", zeta(mpf("1.5"), mpf("2.5")), "zeta(3/2, 5/2)")
    put("hurwitz_0p75_3p25", zeta(mpf("0.75"), mpf("3.25")),
        "zeta(3/4, 13/4)")
    put("hurwitz_2p2i_1p5", zeta(2 + 2 * i, mpf("1.5")), "zeta(2+2i, 3/2)")
    put("digamma_3p7", digamma(mpf("3.7")), "psi(37/10)")
    put("digamma_0p5", digamma(mpf("0.5")), "psi(1/2)")
    put("xi_half", xi(mpf("0.5")), "xi(1/2) = Xi(0)")
    put("big_xi_2p5", big_xi(mpf("2.5")), "Xi(5/2)")
    put("big_xi_2_p5i", big_xi(2 + mpf("0.5") * i), "Xi(2+i/2)")
    put("xi_at_2", xi(mpf(2)), "xi(2)")
    put("bessel_j_0p3_7p5", besselj(mpf("0.3"), mpf("7.5")), "J_0.3(7.5)")
    put("bessel_j_0p25_2", besselj(mpf("0.25"), 2), "J_0.25(2)")
    put("bessel_j_1p25_2", besselj(mpf("1.25"), 2), "J_1.25(2)")
    put("bessel_j_m0p8_14", besselj(mpf("-0.8"), 14), "J_-0.8(14)")
    put("bessel_j_0p6_25", besselj(mpf("0.6"), 25), "J_0.6(25)")
    put("bessel_y_0_1", bessely(0, 1), "Y_0(1)")
    put("bessel_y_0p25_2", bessely(mpf("0.25"), 2), "Y_0.25(2)")
    put("bessel_y_1p25_2", bessely(mpf("1.25"), 2), "Y_1.25(2)")
    put("bessel_y_2_3p5", bessely(2, mpf("3.5")), "Y_2(3.5)")
    put("bessel_y_0p3_30", bessely(mpf("0.3"), 30), "Y_0.3(30)")
    # Near-integer orders of Y, the negative integer orders of J and Y,
    # and Ei below -1 (li below 1/e).
    put("bessel_y_1p001_3", bessely(mpf("1.001"), 3), "Y_1.001(3)")
    put("bessel_y_m1p999_5p5", bessely(mpf("-1.999"), mpf("5.5")), "Y_-1.999(5.5)")
    put("bessel_y_0p0015_0p7", bessely(mpf("0.0015"), mpf("0.7")), "Y_0.0015(0.7)")
    put("bessel_j_m3_2p5", besselj(-3, mpf("2.5")), "J_-3(2.5)")
    put("bessel_j_m4_10", besselj(-4, 10), "J_-4(10)")
    put("bessel_y_m1_5", bessely(-1, 5), "Y_-1(5)")
    put("bessel_y_m2_1p5", bessely(-2, mpf("1.5")), "Y_-2(1.5)")
    # Steed's region below the Hankel knee: 8 < x < 14 at small,
    # near-integer and negative orders, and a near-integer order at x = 4.
    put("bessel_y_0p3_13p9", bessely(mpf("0.3"), mpf("13.9")), "Y_0.3(13.9)")
    put("bessel_j_0p001_13p9", besselj(mpf("0.001"), mpf("13.9")), "J_0.001(13.9)")
    put("bessel_y_0p001_13p9", bessely(mpf("0.001"), mpf("13.9")), "Y_0.001(13.9)")
    put("bessel_y_0p0021_13p9", bessely(mpf("0.0021"), mpf("13.9")), "Y_0.0021(13.9)")
    put("bessel_y_0p001_12", bessely(mpf("0.001"), 12), "Y_0.001(12)")
    put("bessel_y_3p0018_4", bessely(mpf("3.0018"), 4), "Y_3.0018(4)")
    put("bessel_j_m1p4_13p2", besselj(mpf("-1.4"), mpf("13.2")), "J_-1.4(13.2)")
    put("bessel_y_m0p6_12p5", bessely(mpf("-0.6"), mpf("12.5")), "Y_-0.6(12.5)")
    # Large orders between 3|nu| and nu^2/4, where Hankel's expansion
    # cannot start: Steed's region up to the knee.
    put("bessel_j_20p5_70", besselj(mpf("20.5"), 70), "J_20.5(70)")
    put("bessel_y_m30_100", bessely(-30, 100), "Y_-30(100)")
    put("bessel_j_60_500", besselj(60, 500), "J_60(500)")
    put("bessel_y_m45p2_300", bessely(mpf("-45.2"), 300), "Y_-45.2(300)")
    put("bessel_k_0_1", besselk(0, 1), "K_0(1)")
    put("bessel_k_0p25_2", besselk(mpf("0.25"), 2), "K_0.25(2)")
    put("bessel_k_0p3_cplx", besselk(mpf("0.3"), 2 * exp(i * pi / 4)),
        "K_0.3(2 e^{i pi/4})")
    put("bessel_k_1p6_0p3", besselk(mpf("1.6"), mpf("0.3")), "K_1.6(0.3)")
    put("bessel_k_0_377", besselk(0, 377) * exp(mpf(377)),
        "e^377 K_0(377) (scaled)")
    # Real-order K: both sides of the switch at x = 2, a high order reached
    # by recurrence from each side, a tiny argument, a huge one (scaled).
    for nu, nu_tag in ((0, "0"), ("0.49", "0p49"), ("1.6", "1p6")):
        for x, x_tag in (("1.999", "1p999"), ("2", "2"), ("2.001", "2p001")):
            put(f"bessel_k_{nu_tag}_{x_tag}", besselk(mpf(nu), mpf(x)),
                f"K_{nu}({x})")
    put("bessel_k_12p7_0p5", besselk(mpf("12.7"), mpf("0.5")), "K_12.7(0.5)")
    put("bessel_k_29p9_50", besselk(mpf("29.9"), 50), "K_29.9(50)")
    put("bessel_k_0p25_1em6", besselk(mpf("0.25"), mpf("1e-6")),
        "K_0.25(1e-6)")
    put("bessel_k_0p3_1e5", besselk(mpf("0.3"), mpf("1e5")) * exp(mpf("1e5")),
        "e^100000 K_0.3(100000) (scaled)")
    # Complex order at real x: mu = nu - round(Re nu) with Re mu near +1/2
    # and -1/2 on both sides of the switch at x = 2, |Im nu| = 1 on both
    # sides of it, and an order reached by the recurrence.
    for nu, x in (("0.49+0.3j", "1.5"), ("1.51+0.3j", "0.01"), ("0.49+0.3j", "2.5"),
                  ("1.51-0.3j", "40"), ("0.5+1j", "1.999"), ("0.5+1j", "2"),
                  ("-0.3-1j", "0.2"), ("-0.3-1j", "9"), ("7.6+1j", "0.7"),
                  ("7.6+1j", "25")):
        tag = nu.replace("-", "m").replace("+", "p").replace(".", "p").replace("j", "i")
        put(f"bessel_k_{tag}_{x.replace('.', 'p')}", besselk(mpc(complex(nu)), mpf(x)),
            f"K_{{{nu}}}({x})")
    # Complex argument and |Im nu| > 1: Omega's arguments 4 pi sqrt(nx)
    # e^{+-i pi/4} and |arg x| = 0.45 pi on both sides of |x| = 2 (both
    # scaled by e^x), |Im nu| = 2 on both sides of x = 2, mellin-k's order
    # 5+2i, and |Im nu| = 5, the bound of bessel_k's domain.
    for nu in ("0.5", "0.3+0.2j"):
        for nx, sign in (("0.5", 1), ("2", 1), ("2", -1), ("50", 1)):
            w = 4 * pi * sqrt(mpf(nx)) * exp(sign * i * pi / 4)
            tag = nu.replace("+", "p").replace(".", "p").replace("j", "i")
            put(f"bessel_k_{tag}_omega_{nx.replace('.', 'p')}{'' if sign > 0 else '_conj'}",
                besselk(mpc(complex(nu)), w) * exp(w),
                f"e^w K_{{{nu}}}(w), w = 4 pi sqrt({nx}) e^{{{'' if sign > 0 else '-'}i pi/4}}")
    for nu in ("0.3", "0.4+1.5j"):
        for r, sign in (("1.5", 1), ("3", -1)):
            w = mpf(r) * exp(sign * i * mpf("0.45") * pi)
            tag = nu.replace("+", "p").replace(".", "p").replace("j", "i")
            put(f"bessel_k_{tag}_{r.replace('.', 'p')}_arg{'' if sign > 0 else 'm'}0p45pi",
                besselk(mpc(complex(nu)), w) * exp(w),
                f"e^w K_{{{nu}}}(w), w = {r} e^{{{'' if sign > 0 else '-'}0.45 i pi}}")
    for nu, x in (("0.3+2j", "1.9"), ("0.3+2j", "2.1"), ("5+2j", "6"), ("0.5+5j", "3"),
                  ("-0.2-5j", "0.7")):
        tag = nu.replace("-", "m").replace("+", "p").replace(".", "p").replace("j", "i")
        put(f"bessel_k_{tag}_{x.replace('.', 'p')}", besselk(mpc(complex(nu)), mpf(x)),
            f"K_{{{nu}}}({x})")
    # The complex arguments and |Im nu| = 2 of _K_COMPLEX_CASES in
    # tests/test_specfun.py.
    for nu, xs in (("0.25", ("1+1j", "2-0.5j", "0.1+3j")), ("1.5-2j", ("0.001", "0.3", "7")),
                   ("0", ("1e-6+1e-6j", "100+1j")), ("2j", ("5",)), ("0.1", ("0.2+0.2j",))):
        for x in xs:
            tag = f"{nu}_{x}".replace("-", "m").replace("+", "p").replace(".", "p").replace("j", "i")
            put(f"bessel_k_case_{tag}", besselk(mpc(complex(nu)), mpc(complex(x))),
                f"K_{{{nu}}}({x})")
    put("li_2", li(2), "li(2)")
    put("li_soldner", li(soldner), "li at the Soldner point (approx 0)")
    put("ei_1", ei(1), "Ei(1)")
    put("ei_m2p5", ei(mpf("-2.5")), "Ei(-2.5)")
    put("li_0p1", li(mpf("0.1")), "li(1/10)")
    # Ei(log 1e30) = Ei(69.1): past y = 50, where Ei takes its asymptotic series.
    put("li_1e30", li(mpf("1e30")), "li(1e30)")
    put("df_psi_1", df_psi(1), "Dixon-Ferrar psi(1)")
    put("df_psi_6", df_psi(6), "Dixon-Ferrar psi(6)")
    # psi across its series / asymptotic switch at 4x = 50 and far out,
    # where psi ~ -1/(4 pi x^2) is the difference of two O(1/x) values.
    for t, tag in (("0.01", "0p01"), ("0.3", "0p3"), ("2", "2"),
                   ("12.5", "12p5"), ("13", "13"), ("100", "100"),
                   ("8000", "8000")):
        put(f"df_psi_{tag}", df_psi(t), f"Dixon-Ferrar psi({t})")
    put("kernel_m_0_1", kernel_m(0, 1), "M_0(1)")
    put("kosh_kernel_0p5_1", kosh_kernel(mpf("0.5"), 1),
        "kernel at z=1/2, x=1")
    put("kosh_kernel_0_2", kosh_kernel(0, 2), "kernel at z=0, x=2")
    put("theta_k_alpha2_pi", theta_k(pi, 0, 2),
        "Theta(pi, 0) for the K pair at alpha=2")
    put("lambda_2_half", lam(2, mpf("0.5")), "lambda(2, 1/2)")
    put("lambda_1_0", log(1) - digamma(1) - mpf("0.5"),
        "lambda(1, 0) = gamma - 1/2")
    put("omega_1_0p4", omega_def(1, mpf("0.4")), "Omega(1, 2/5)")
    put("omega_2_m0p4", omega_def(2, mpf("-0.4")), "Omega(2, -2/5)")
    put("omega_5_0p3p0p2i", omega_def(5, mpc("0.3", "0.2")),
        "Omega(5, 3/10 + i/5)")
    # Omega where it is small: it decays like exp(-2 sqrt(2) pi sqrt(x)).
    # At x = 1/4 the terms fall below 1e-48 before n = 700.
    for xtag, x in (("0p25", mpf("0.25")), ("10", mpf(10)), ("30", mpf(30))):
        for ztag, z in (("0p5", mpf("0.5")), ("m0p4", mpf("-0.4")),
                        ("0p3p0p2i", mpc("0.3", "0.2"))):
            put(f"omega_{xtag}_{ztag}", omega_def(x, z, nmax=700),
                f"Omega({x}, {z})")
    put("sigma_c_12", sigma(-mpc("0.5", "0.5"), 12), "sigma_{-(1/2+i/2)}(12)")
    put("mellin_k_closed", 2 ** (mpc("1.2", "0.7") - 2)
        * gamma((mpc("1.2", "0.7") - mpf("0.3")) / 2)
        * gamma((mpc("1.2", "0.7") + mpf("0.3")) / 2),
        "2^(s-2) q^(-s) Gamma((s-nu)/2) Gamma((s+nu)/2), s=1.2+0.7i, nu=0.3, q=1")

    # quadrature targets
    put("hz0_inner_n1", quad(lambda xx: 2 * xx * besselk(0, 2 * xx)
                             / (xx * xx + pi * pi) ** mpf("1.5"),
                             [0, 1, 5, 30]),
        "int_0^inf 2 x K_0(2x) (x^2+pi^2)^(-3/2) dx")
    put("bh_inner_n1", quad(lambda xx: xx ** mpf("1.25")
                            * besselk(mpf("0.25"), 2 * xx)
                            / (xx * xx + pi * pi) ** mpf("1.75"),
                            [0, 1, 5, 30]),
        "int_0^inf x^(5/4) K_{1/4}(2x) (x^2+pi^2)^(-7/4) dx")
    put("laplace_bessel_rhs_1_1_0", exp(-2 * pi) / (2 * pi),
        "e^(-2 pi y/alpha) y^(z/2) / (2 pi alpha^(z+1)) at alpha=y=1, z=0")

    # identity right-hand sides frozen for regression
    z, alpha = mpf("0.5"), mpf(1)
    ksum = sum(sigma(-z, n) * mpf(n) ** (z / 2) * besselk(z / 2, 2 * n * pi * alpha)
               for n in range(1, 40))
    rg_rhs = sqrt(alpha) * (alpha ** (z / 2 - 1) * pi ** (-z / 2)
                            * gamma(z / 2) * zeta(z)
                            + alpha ** (-z / 2 - 1) * pi ** (z / 2)
                            * gamma(-z / 2) * zeta(-z) - 4 * ksum)
    put("rg_rhs_half_1", rg_rhs, "difference-form RHS at z=1/2, alpha=1")

    dsum = sum(sigma(0, n) * theta_k(pi * n, 0, 1) for n in range(1, 30))
    put("rgz0_rhs_alpha1", dsum - (euler - log(4 * pi)) / 2,
        "z->0 corollary RHS at alpha=1")

    put("hurwitz_F_1_half", hurwitz_F(1, mpf("0.5")),
        "F(alpha, z) of hurwitz-modular at alpha=1, z=1/2")
    # F at complex z runs at 60 digits: at 40, lambda's cancellations at
    # large n alpha leave it good to about 1e-21 at alpha = 4, z = 0.4i,
    # and to 7e-31 here.
    with mp.workdps(60):
        F = hurwitz_F(2, mpc("-0.4", "0.3"))
    put("hurwitz_F_2_c", F, "F(alpha, z) of hurwitz-modular at alpha=2, z=-0.4+0.3i")
    # F across the strip |Re z| < 1 of the Hurwitz identities: z = 0 (the
    # mean of z = +-1e-30 at 90 digits, as for f_frak below), the line
    # Re z = 0 and -1 < Re z < 0, at both alpha ends and at 1.  The rest
    # run at 60 digits, as above.
    for ztag, z in (("0", None), ("0p4i", mpc(0, "0.4")), ("m0p5", mpf("-0.5")),
                    ("m0p9", mpf("-0.9")), ("m0p5p0p3i", mpc("-0.5", "0.3"))):
        for atag, alpha in (("0p25", mpf("0.25")), ("1", mpf(1)), ("4", mpf(4))):
            if z is None:
                with mp.workdps(90):
                    F = (hurwitz_F(alpha, mpf("1e-30")) + hurwitz_F(alpha, mpf("-1e-30"))) / 2
            else:
                with mp.workdps(60):
                    F = hurwitz_F(alpha, z)
            put(f"hurwitz_F_{atag}_{ztag}", F, f"F(alpha, z) at alpha={atag}, z={ztag}")
            # The lambda side of bessel-hurwitz-sum at z = -1/2.
            if ztag == "m0p5":
                with mp.workdps(60):
                    put(f"lam_sum_{atag}_m0p5", lam_sum_em(alpha, z),
                        f"sum_n lambda(n alpha, z) at alpha={atag}, z=-1/2")
    put("f_frak_2_c", frak_f(mpf(2), mpc("0.3", "0.2")),
        "F(alpha, z) at alpha=2, z=0.3+0.2i")
    put("f_frak_half_c", frak_f(mpf("0.5"), mpc("0.3", "0.2")),
        "F(alpha, z) at alpha=1/2, z=0.3+0.2i")
    # Complex order K below x = 2 (Temme's series) at the n = 1 term.
    put("f_frak_quarter_c", frak_f(mpf("0.25"), mpc("0.3", "0.2")),
        "F(alpha, z) at alpha=1/4, z=0.3+0.2i")
    put("f_frak_0p3_0p9c", frak_f(mpf("0.3"), mpc("0.9", "-0.4")),
        "F(alpha, z) at alpha=0.3, z=0.9-0.4i")
    # The removable singularities at z = 0 taken as limits: z = 0 and
    # |z| = 1e-6, real and complex.  Omega's definition and lambda's digamma
    # form hold at z = 0 itself; F there is the mean of z = +-1e-30 at 90
    # digits (an O(z^2) error; the poles cancel 30 of the digits).
    for tag, z in (("0", mpf(0)), ("1em6", mpf("1e-6")), ("1em6c", mpc("6e-7", "8e-7"))):
        x = mpf("1.5")
        put(f"omega_comb_1p5_{tag}", omega_def(x, z) - zeta(z) * x ** (z / 2 - 1) / (2 * pi),
            f"Omega(3/2, z) - zeta(z) (3/2)^(z/2-1)/(2 pi) at z = {tag}")
        put(f"lambda_2_{tag}", lam(2, z) if z else log(2) - digamma(2) - mpf("0.25"),
            f"lambda(2, z) at z = {tag}")
        if not z:
            with mp.workdps(90):
                frak = (frak_f(mpf("1.3"), mpf("1e-30")) + frak_f(mpf("1.3"), mpf("-1e-30"))) / 2
        else:
            frak = frak_f(mpf("1.3"), z)
        put(f"f_frak_1p3_{tag}", frak, f"F(alpha, z) at alpha=1.3, z = {tag}")
    # e^w E1(w) where the continued fraction starts (w = 1) and across it.
    for tag, w in (("1", "1"), ("1p0001", "1.0001"), ("2", "2"), ("4", "4"),
                   ("20", "20"), ("49p9", "49.9")):
        put(f"e1_scaled_{tag}", exp(mpf(w)) * e1(mpf(w)), f"e^w E1(w) at w = {w}")
    return vals


def frak_f(alpha, z):
    """F(alpha, z): the completed K-Bessel divisor series.

    F = sqrt(alpha) (alpha^(z/2-1) pi^(-z/2) Gamma(z/2) zeta(z) / 8
        + alpha^(-z/2-1) pi^(z/2) Gamma(-z/2) zeta(-z) / 8
        - (1/2) sum sigma_{-z}(n) n^(z/2) K_{z/2}(2 pi n alpha)).
    Invariant under alpha -> 1/alpha.
    """
    alpha, z = mpf(alpha), mpc(z)
    ks = mpc(0)
    for n in range(1, 60):
        t = sigma(-z, n) * mpf(n) ** (z / 2) * besselk(z / 2, 2 * pi * n * alpha)
        ks += t
        if fabs(t) < mpf(10) ** (-mp.dps - 6):
            break
    return sqrt(alpha) * (alpha ** (z / 2 - 1) * pi ** (-z / 2) * gamma(z / 2)
                          * zeta(z) / 8
                          + alpha ** (-z / 2 - 1) * pi ** (z / 2)
                          * gamma(-z / 2) * zeta(-z) / 8 - ks / 2)


# ----------------------------------------------------------------------
# identity cross-checks (slow; run with --checks)
# ----------------------------------------------------------------------

def check(name, lhs, rhs):
    lhs, rhs = mpc(lhs), mpc(rhs)
    denom = max(fabs(lhs), fabs(rhs), mpf("1e-30"))
    rel = fabs(lhs - rhs) / denom
    print(f"  {name}: lhs={mp.nstr(lhs, 20)} rhs={mp.nstr(rhs, 20)} "
          f"rel={mp.nstr(rel, 3)}")
    return rel


def run_checks():
    print("[checks] prefactor identity 8 (4 pi)^((z-3)/2) vs 2^z pi^((z-3)/2)")
    for z in (mpf("0.75"), mpc("0.4", "0.2")):
        check(f"z = {z}", 8 * (4 * pi) ** ((z - 3) / 2),
              2 ** z * pi ** ((z - 3) / 2))

    print("[checks] two-exponential difference: candidate closed forms")
    old = mp.dps
    mp.dps = 25
    z = mpf("0.5")
    a = mpf("1.5") * pi
    b = pi * pi / a
    lhs = (sqrt(a) * nsum(lambda n: sigma(-z, int(n)) * mpf(n) ** (z / 2)
                          * besselk(z / 2, 2 * n * a), [1, 40])
           - sqrt(b) * nsum(lambda n: sigma(-z, int(n)) * mpf(n) ** (z / 2)
                            * besselk(z / 2, 2 * n * b), [1, 40]))
    gz = gamma(z / 2) * zeta(z) / 4
    gmz = gamma(-z / 2) * zeta(-z) / 4
    va = (gz * (b ** ((1 - z) / 2) - a ** ((1 - z) / 2)) / pi ** (z / 2)
          + gmz * pi ** (z / 2) * (a ** ((1 + z) / 2) - b ** ((1 + z) / 2))
          / pi ** z)
    # variant printed in the source: second brace {a^((1+z)/2) - a^((1+z)/2)}
    vb = gz * (b ** ((1 - z) / 2) - a ** ((1 - z) / 2)) / pi ** (z / 2)
    check("variant braces (a-b)", lhs, va)
    check("variant braces (a-a), i.e. zero second term", lhs, vb)

    print("[checks] self-reciprocality of K_z under the first kernel")
    for z, x in ((mpf("0.25"), mpf(2)), (mpf(0), mpf(1))):
        val = quad(lambda t: besselk(z, t) * transform_kernel(z, 2 * sqrt(x * t)),
                   [0, x, 1 + x, 10, 60])
        check(f"z={z}, x={x}", val, besselk(z, x))

    print("[checks] scaled-pair normalization: transform of beta K_z(2 beta t)")
    alpha = mpf(2)
    beta = 1 / alpha
    x = mpf(1)
    val = quad(lambda t: beta * besselk(0, 2 * beta * t)
               * transform_kernel(0, 2 * sqrt(x * t)), [0, 1, 10, 80])
    check("alpha=2, z=0, x=1 vs K_0(alpha x/2)/2", val, besselk(0, 1) / 2)

    print("[checks] Dixon-Ferrar pair, mirrored direction (psi from phi)")
    for x in (mpf("0.5"), mpf(1)):
        val = 2 * quad(lambda t: df_phi(t) * kernel_m(0, 4 * sqrt(t * x)),
                       [0, mpf("0.05"), 1, 10, 60])
        check(f"x={x}", val, df_psi(x))

    print("[checks] Dixon-Ferrar pair, forward direction (phi from psi)")
    x = mpf(1)
    mp.dps = 15
    val = 2 * quad(lambda t: df_psi(t) * kernel_m(0, 4 * sqrt(t * x)),
                   [0, mpf("0.05"), 1, 10, 100, 400, 1600, 4000],
                   maxdegree=7)
    check("x=1 (coarse tail to T=4000)", val, df_phi(x))
    mp.dps = 25

    print("[checks] Xi-integral identity, difference form, z=1/2, alpha=1")
    z, alpha = mpf("0.5"), mpf(1)
    num = lambda t: (big_xi((t + mpc(0, 1) * z) / 2)
                     * big_xi((t - mpc(0, 1) * z) / 2)
                     * cos(t * log(alpha) / 2)
                     / ((t * t + (z + 1) ** 2) * (t * t + (z - 1) ** 2)))
    lhs = -(32 / pi) * quad(num, [0, 5, 15, 40])
    ksum = nsum(lambda n: sigma(-z, int(n)) * mpf(n) ** (z / 2)
                * besselk(z / 2, 2 * n * pi * alpha), [1, 30])
    rhs = sqrt(alpha) * (alpha ** (z / 2 - 1) * pi ** (-z / 2) * gamma(z / 2)
                         * zeta(z) + alpha ** (-z / 2 - 1) * pi ** (z / 2)
                         * gamma(-z / 2) * zeta(-z) - 4 * ksum)
    check("difference form", lhs, rhs)

    print("[checks] Xi-integral identity, z->0 corollary, alpha=1")
    num0 = lambda t: (big_xi(t / 2) ** 2 * cos(t * log(mpf(1)) / 2)
                      / (t * t + 1) ** 2)
    lhs0 = (32 / pi) * quad(num0, [0, 5, 15, 40])
    rhs0 = (nsum(lambda n: sigma(0, int(n)) * theta_k(pi * n, 0, 1), [1, 25])
            - (euler - log(4 * pi)) / 2)
    check("z->0 corollary", lhs0, rhs0)

    print("[checks] Hurwitz-tail identity (lambda form), z=3/4, alpha=1")
    z, alpha = mpf("0.75"), mpf(1)
    numh = lambda t: (gamma((z - 1 + mpc(0, 1) * t) / 4)
                      * gamma((z - 1 - mpc(0, 1) * t) / 4)
                      * big_xi((t + mpc(0, 1) * z) / 2)
                      * big_xi((t - mpc(0, 1) * z) / 2)
                      * cos(t * log(alpha) / 2) / (t * t + (z + 1) ** 2))
    pref = 2 ** z * pi ** ((z - 3) / 2) / gamma(z + 1)
    lhsh = pref * quad(numh, [0, 5, 15, 40]) * alpha ** ((z + 1) / 2)
    rhsh = alpha ** ((z + 1) / 2) * (lam_sum(alpha, z)
                                     - zeta(z + 1) / (2 * alpha ** (z + 1))
                                     - zeta(z) / (alpha * z))
    check("lambda form", lhsh, rhsh)

    print("[checks] Hurwitz-tail z->0 corollary, alpha=1")
    numh0 = lambda t: (gamma((-1 + mpc(0, 1) * t) / 4)
                       * gamma((-1 - mpc(0, 1) * t) / 4)
                       * big_xi(t / 2) ** 2 / ((t * t + 1) * pi ** mpf("1.5")))
    lhsh0 = quad(numh0, [0, 5, 15, 40])
    inner = lambda n: quad(lambda xx: xx * theta_k(xx, 0, 1)
                           / (xx * xx + pi * pi * n * n) ** mpf("1.5"),
                           [0, 1, 5, 30])
    ssum = nsum(lambda n: n * sigma(0, int(n)) * inner(int(n)), [1, inf],
                method="r+e")
    rhsh0 = (pi / 2) * ssum - ((euler - log(2 * pi)) * Z_closed(1, 1)
                               + dZ_closed(1, 1)) / 2
    check("z->0 corollary", lhsh0, rhsh0)

    print("[checks] divisor series vs lambda series (single-sum identity), "
          "z=1/2, alpha=1")
    z, alpha = mpf("0.5"), mpf(1)
    inner2 = lambda n: quad(lambda xx: xx ** (1 + z / 2)
                            * besselk(z / 2, 2 * alpha * xx)
                            / (xx * xx + pi * pi * n * n) ** ((z + 3) / 2),
                            [0, 1, 5, 30])
    lhs_d = (pi ** (z + mpf("0.5")) * gamma((z + 3) / 2)
             * nsum(lambda n: sigma(-z, int(n)) * mpf(n) ** (z + 1)
                    * inner2(int(n)), [1, inf], method="r+e"))
    rhs_lam = (alpha ** (z / 2) / 2 ** (z + 2) * gamma(z + 1)
               * lam_sum(alpha, z))
    rhs_printed = (alpha ** (z / 2) / 2 ** (z + 2) * gamma(z + 1)
                   * nsum(lambda m: zeta(z + 1, m * alpha)
                          - (m * alpha) ** (-z) / z - (m * alpha) ** (-z) / 2,
                          [1, 60]))
    check("lambda bracket", lhs_d, rhs_lam)
    check("bracket as printed, (m a)^(-z)/2 last term", lhs_d, rhs_printed)

    print("[checks] Omega: K-definition vs partial fractions + moment tail")
    for x, z in ((mpf(1), mpf("0.4")), (mpf(2), mpf("-0.4")),
                 (mpf("0.7"), mpc("0.2", "0.1"))):
        check(f"x={x}, z={z}", omega_def(x, z), omega_pf(x, z))

    print("[checks] self-transform of the Omega combination, x=1, z=0.3")
    z, x = mpf("0.3"), mpf(1)
    comb = lambda y: omega_def(y, z) - zeta(z) * y ** (z / 2 - 1) / (2 * pi)
    lhs_s = quad(lambda y: besselj(z, 4 * pi * sqrt(x * y)) * comb(y),
                 [0, mpf("0.25"), 1, 4, 16])
    rhs_s = comb(x)
    check("self-transform", lhs_s, rhs_s)

    print("[checks] Laplace-type J integral, alpha=1, y=1, z=0")
    val = quad(lambda xx: exp(-2 * pi * xx) * besselj(0, 4 * pi * sqrt(xx)),
               [0, 1, 4, 10])
    check("closed form", val, exp(-2 * pi) / (2 * pi))

    print("[checks] exponential-damping identity (equi), z=1/2, alpha=2")
    z, alpha = mpf("0.5"), mpf(2)
    comb2 = lambda y: omega_def(y, z) - zeta(z) * y ** (z / 2 - 1) / (2 * pi)
    lhs_e = quad(lambda y: exp(-2 * pi * alpha * y) * y ** (z / 2) * comb2(y),
                 [0, mpf("0.25"), 1, 4])
    gsum = nsum(lambda n: sigma(-z, int(n)) * (
        (n * n + alpha * alpha) ** (-z / 2 - mpf("0.5"))
        * gamma(z + 1) * cos((z + 1) * atan(mpf(n) / alpha)) / (2 * pi) ** (z + 1)),
        [1, inf], method="r+e")
    rhs_e = (gamma(z + 1) * zeta(z + 1) / (2 * pi * alpha) ** (z + 1) / 2
             - zeta(z) / (4 * pi * alpha) + gsum)
    check("constants outside the sum", lhs_e, rhs_e)

    mp.dps = old


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="tests/data/golden.json")
    ap.add_argument("--checks", action="store_true",
                    help="run slow identity cross-verifications")
    args = ap.parse_args()

    t0 = time.time()
    vals = golden_values()
    payload = {
        "generator": "tools/gen_golden.py",
        "dps": mp.dps,
        "values": vals,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(vals)} golden values to {args.out} "
          f"({time.time() - t0:.1f}s)")

    if args.checks:
        run_checks()
        print(f"checks done ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
