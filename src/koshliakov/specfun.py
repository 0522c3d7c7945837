"""Special functions built from scratch on float64/complex128.

Everything here is implemented directly (Lanczos, Euler-Maclaurin,
ascending/asymptotic Bessel series, Temme's series and a trapezoid rule
for real-order K, an integral representation for complex-order K);
numpy supplies array arithmetic only.  Scalar entry points accept Python
or numpy scalars; the Bessel functions also broadcast over arrays of
arguments since the kernel layer feeds them quadrature nodes.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, PoleError
from .quadrature import _ts_levels

EULER_GAMMA = 0.5772156649015328606065120900824024

# Stieltjes constants gamma_0..gamma_5 for the expansion of (s-1)zeta(s)
# about s=1; six terms keep the error below 1e-26 for |s-1| <= 0.01.
_STIELTJES = (
    0.57721566490153286060651209008240243,
    -0.072815845483676724860586375874901319,
    -0.0096903631928723184845303860352125293,
    0.0020538344203033458661600465427533842,
    0.0023253700654673000574681701775260680,
    0.00079332381730106270175333487744444483,
)


# B_2, B_4, ..., B_64 as correctly rounded floats (tests/test_specfun.py
# rebuilds them from the exact rational recurrence).
_B2K = np.array([
    0.16666666666666666, -0.03333333333333333,
    0.023809523809523808, -0.03333333333333333,
    0.07575757575757576, -0.2531135531135531,
    1.1666666666666667, -7.092156862745098,
    54.971177944862156, -529.1242424242424,
    6192.123188405797, -86580.25311355312,
    1425517.1666666667, -27298231.067816094,
    601580873.9006424, -15116315767.092157,
    429614643061.1667, -13711655205088.332,
    488332318973593.2, -1.9296579341940068e+16,
    8.416930475736826e+17, -4.0338071854059454e+19,
    2.1150748638081993e+21, -1.2086626522296526e+23,
    7.500866746076964e+24, -5.038778101481069e+26,
    3.6528776484818122e+28, -2.849876930245088e+30,
    2.3865427499683627e+32, -2.1399949257225335e+34,
    2.0500975723478097e+36, -2.093800591134638e+38,
])


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _near_nonpositive_integer(z: complex, tol: float = 1e-12):
    n = round(z.real)
    if n <= 0 and abs(z - n) < tol:
        return n
    return None


def _lanczos_core(z: complex) -> complex:
    # Requires Re z >= 0.5.
    a = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        a = a + _LANCZOS_C[i] / (z - 1.0 + i)
    t = z + _LANCZOS_G - 0.5
    return _SQRT_TWO_PI * t ** (z - 0.5) * cmath.exp(-t) * a


def gamma(z) -> complex:
    """Gamma function for complex z; PoleError at the nonpositive integers."""
    z = complex(z)
    if _near_nonpositive_integer(z) is not None:
        raise PoleError(f"gamma pole at z={z}")
    if z.real >= 0.5:
        out = _lanczos_core(z)
    else:
        # Reflection keeps the Lanczos sum on its accurate half-plane.
        out = math.pi / (cmath.sin(math.pi * z) * _lanczos_core(1.0 - z))
    if z.imag == 0.0 and z.real > 0.0:
        out = complex(out.real, 0.0)
    return out


def rgamma(z) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at the nonpositive integers."""
    z = complex(z)
    if _near_nonpositive_integer(z) is not None:
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


def log_gamma(z) -> complex:
    """Principal log-gamma via shifted Stirling; Re z > 0 required."""
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError("log_gamma implemented for Re z > 0 only")
    shift = 0.0 + 0.0j
    while z.real < 12.0:
        shift -= cmath.log(z)
        z = z + 1.0
    out = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zpow = z
    z2 = z * z
    for k in range(1, 11):
        out += _B2K[k - 1] / ((2 * k) * (2 * k - 1) * zpow)
        zpow *= z2
    return out + shift


def digamma(z) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z); PoleError at the nonpositive integers."""
    z = complex(z)
    if _near_nonpositive_integer(z) is not None:
        raise PoleError(f"digamma pole at z={z}")
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z = z + 1.0
    inv2 = 1.0 / (z * z)
    out = cmath.log(z) - 0.5 / z
    term = inv2
    for k in range(1, 13):
        out -= _B2K[k - 1] / (2 * k) * term
        term *= inv2
    out += acc
    if out.imag == 0.0:
        out = complex(out.real, 0.0)
    return out


# ---------------------------------------------------------------------------
# Zeta family
# ---------------------------------------------------------------------------

_EM_TERMS = 25


def _sinc(w: complex) -> complex:
    if abs(w) < 1e-4:
        w2 = w * w
        return 1.0 - w2 / 6.0 + w2 * w2 / 120.0
    return cmath.sin(w) / w


def _zeta_em(s: complex) -> complex:
    """Euler-Maclaurin evaluation, reliable for Re s >= 0.5."""
    N = max(20, math.ceil(1.3 * abs(s.imag)))
    n = np.arange(1, N, dtype=float)
    out = complex(np.sum(n ** (-s)))
    Ns = N ** (-s)
    out += 0.5 * Ns + N * Ns / (s - 1.0)
    # Tail: sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
    poch = s
    fact = 2.0
    npow = Ns / N                     # N^{-s-1}, then divided by N^2 each k
    corr = 0.0 + 0.0j
    for k in range(1, _EM_TERMS + 1):
        term = _B2K[k - 1] / fact * poch * npow
        corr += term
        if abs(term) < 1e-20 * max(1.0, abs(out)):
            break
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        npow /= N * N
    return out + corr


def zeta_star(s) -> complex:
    """(s-1) * zeta(s): entire, equals 1 at s=1."""
    s = complex(s)
    ds = s - 1.0
    if abs(ds) <= 0.01:
        out = 1.0 + 0.0j
        fact = 1.0
        dpow = ds
        for k, g in enumerate(_STIELTJES):
            out += (-1.0) ** k * g * dpow / fact
            fact *= k + 1
            dpow *= ds
        return out
    return ds * riemann_zeta(s)


def riemann_zeta(s) -> complex:
    """zeta(s) on the whole plane; PoleError within 1e-12 of s=1."""
    s = complex(s)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("zeta pole at s=1")
    if s.real >= 0.5:
        return _zeta_em(s)
    # Reflection written through (s-1)zeta(s) and sin(pi s/2)/s, so the
    # trivial zeros come out exact and s=0 is unexceptional.
    w = 1.0 - s
    return (-cmath.exp((s - 1.0) * math.log(2.0))
            * cmath.exp(s * math.log(math.pi)) * _sinc(0.5 * math.pi * s)
            * gamma(w) * zeta_star(w))


def hurwitz_zeta(w, a) -> complex:
    """zeta(w, a) for Re a > 0 by Euler-Maclaurin; PoleError at w=1."""
    w = complex(w)
    a = complex(a)
    if a.real <= 0.0:
        raise DomainError("hurwitz_zeta requires Re a > 0")
    if abs(w - 1.0) < 1e-12:
        raise PoleError("hurwitz zeta pole at w=1")
    # Term k of the Euler-Maclaurin tail is about 2 (w-1)_{2k} / (2 pi A)^{2k}
    # of the sum at the shift A, so A grows with |w|: A >= 0.4|w| + 8
    # brings it under 1e-17 within _EM_TERMS terms.  The stop rule is
    # relative because zeta(w, a) is far below 1 for large w or a.
    target = max(15.0, 1.3 * (abs(w.imag) + abs(a.imag)), 0.4 * abs(w) + 8.0)
    N = max(1, math.ceil(target - a.real))
    n = np.arange(0, N, dtype=float)
    out = complex(np.sum((n + a) ** (-w)))
    A = N + a
    As = A ** (-w)
    out += 0.5 * As + A * As / (w - 1.0)
    poch = w
    fact = 2.0
    apow = As / A
    for k in range(1, _EM_TERMS + 1):
        term = _B2K[k - 1] / fact * poch * apow
        out += term
        poch = poch * (w + 2 * k - 1) * (w + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        apow /= A * A
        if abs(term) < 1e-20 * abs(out):
            break
    return out


def hurwitz_zeta_hermite(w, a, spec=None) -> complex:
    """zeta(w, a) by Hermite's integral; real a > 0, independent method.

    Exists as a cross-check on the Euler-Maclaurin path; the integrand
    decays like exp(-2 pi t).
    """
    from .quadrature import QuadratureSpec, integrate_half_line

    w = complex(w)
    a = float(a)
    if a <= 0.0:
        raise DomainError("hurwitz_zeta_hermite requires real a > 0")
    if abs(w - 1.0) < 1e-12:
        raise PoleError("hurwitz zeta pole at w=1")

    def integrand(t):
        t = np.asarray(t, dtype=float)
        phase = np.arctan2(t, a)
        num = np.sin(w * phase)
        den = np.power(a * a + t * t, 0.5 * w) * np.expm1(2.0 * math.pi * t)
        return num / den

    # The 1/(e^{2 pi t}-1) factor dominates the tail; integrate_half_line
    # fits and checks its envelope at 0.9 of that rate.
    res = integrate_half_line(integrand, 0.9 * 2.0 * math.pi,
                              spec or QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    main = 0.5 * a ** (-w) + a ** (1.0 - w) / (w - 1.0)
    return main + 2.0 * res.value


def xi(s) -> complex:
    """Riemann xi, the entire completion of zeta; xi(s) = xi(1-s)."""
    s = complex(s)
    if s.real < 0.5:
        s = 1.0 - s
    # (1/2)s(s-1)pi^{-s/2}Gamma(s/2)zeta(s) with the pole of zeta absorbed
    # into (s-1)zeta(s) and the s/2 factor into Gamma(s/2+1).
    return cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(0.5 * s + 1.0) * zeta_star(s)


def big_xi(t) -> complex:
    """Xi(t) = xi(1/2 + it); real and even for real t."""
    t = complex(t)
    out = xi(0.5 + 1j * t)
    if t.imag == 0.0:
        out = complex(out.real, 0.0)
    return out


# ---------------------------------------------------------------------------
# Bessel J and Y (real order, positive real argument)
# ---------------------------------------------------------------------------

_J_SERIES_MAX = 80


def _bessel_j_series(nu: float, x: np.ndarray, dtype) -> np.ndarray:
    """Ascending series; dtype float64 below the cancellation knee,
    longdouble above it."""
    x = x.astype(dtype)
    half = x / dtype(2.0)
    n_int = round(nu)
    if abs(nu - n_int) < 1e-12 and n_int < 0:
        # J_{-n} = (-1)^n J_n; the series recursion cannot pass the zero
        # of 1/Gamma at the nonpositive integers.
        return dtype(-1.0) ** (-n_int) * _bessel_j_series(float(-n_int), x, dtype)
    r0 = rgamma(nu + 1.0).real
    term = np.power(half, dtype(nu)) * dtype(r0)
    out = term.copy()
    mx2 = -np.square(half)
    for k in range(1, _J_SERIES_MAX + 1):
        term = term * mx2 / dtype(k * (nu + k))
        out += term
        if np.all(np.abs(term) <= 1e-20 * np.maximum(np.abs(out), 1e-30)):
            break
    return out


def _hankel_pq(nu: float, x: np.ndarray):
    """P and Q asymptotic sums, truncated at the smallest term."""
    mu = 4.0 * nu * nu
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = np.abs(term)
        if np.all(mag >= prev):
            break
        sign = (-1.0) ** (k // 2)
        if k % 2 == 1:
            Q += sign * term
        else:
            P += sign * term
        prev = mag
        if np.all(mag < 1e-19):
            break
    return P, Q


def _bessel_jy_asymptotic(nu: float, x: np.ndarray):
    P, Q = _hankel_pq(nu, x)
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    j = amp * (P * np.cos(chi) - Q * np.sin(chi))
    y = amp * (P * np.sin(chi) + Q * np.cos(chi))
    return j, y


def _as_positive_array(x):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    return arr, scalar


def bessel_j(nu: float, x):
    """J_nu(x) for real order and x >= 0; broadcasts over x."""
    nu = float(nu)
    if abs(nu) > 60.0:
        raise DomainError("bessel_j supports |nu| <= 60")
    arr, scalar = _as_positive_array(x)
    if np.any(arr < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    out = np.empty(arr.shape, dtype=float)
    asym_knee = max(14.0, 3.0 * abs(nu))
    lo = arr <= 8.0
    mid = (arr > 8.0) & (arr < asym_knee)
    hi = arr >= asym_knee
    if np.any(lo):
        out[lo] = _bessel_j_series(nu, arr[lo], np.float64).astype(float)
    if np.any(mid):
        # Cancellation in the alternating series reaches ~e^x; longdouble
        # keeps the relative error below ~1e-12 out to the asymptotic knee.
        out[mid] = _bessel_j_series(nu, arr[mid], np.longdouble).astype(float)
    if np.any(hi):
        out[hi], _ = _bessel_jy_asymptotic(nu, arr[hi])
    return float(out[0]) if scalar else out


def _bessel_y_integer(n: int, x: np.ndarray, dtype) -> np.ndarray:
    """Y_n for integer n >= 0 by the logarithmic series."""
    x = x.astype(dtype)
    half = x / dtype(2.0)
    jn = _bessel_j_series(float(n), x, dtype)
    out = (dtype(2.0) / dtype(math.pi)) * np.log(half) * jn
    # Finite part: -(1/pi) sum_{k<n} (n-1-k)!/k! (x/2)^{2k-n}
    if n > 0:
        acc = np.zeros_like(x)
        coeff = dtype(math.factorial(n - 1))
        pw = np.power(half, dtype(-n))
        for k in range(n):
            acc += coeff * pw
            if k + 1 < n:
                coeff = coeff / dtype((k + 1) * (n - 1 - k))
                pw = pw * half * half
        out -= acc / dtype(math.pi)
    # psi-weighted ascending series.
    hk = 0.0          # harmonic number H_k
    hkn = float(sum(1.0 / m for m in range(1, n + 1)))
    term = np.power(half, dtype(n)) / dtype(math.factorial(n))
    acc = (hk + hkn - 2.0 * EULER_GAMMA) * term
    sgn = 1.0
    for k in range(1, _J_SERIES_MAX + 1):
        term = term * half * half / dtype(k * (k + n))
        sgn = -sgn
        hk += 1.0 / k
        hkn += 1.0 / (k + n)
        piece = sgn * (hk + hkn - 2.0 * EULER_GAMMA) * term
        acc += piece
        if np.all(np.abs(piece) <= 1e-20 * np.maximum(np.abs(acc), 1e-30)):
            break
    out -= acc / dtype(math.pi)
    return out


def _bessel_y_three_term(nu: float, x: np.ndarray, dtype) -> np.ndarray:
    jp = _bessel_j_series(nu, x, dtype)
    jm = _bessel_j_series(-nu, x, dtype)
    return (jp * dtype(math.cos(math.pi * nu)) - jm) / dtype(math.sin(math.pi * nu))


def bessel_y(nu: float, x):
    """Y_nu(x) for real order and x > 0; broadcasts over x.

    Near integer orders the three-term formula loses all digits, so the
    integer case uses the exact logarithmic series and a narrow band
    around each integer is filled by polynomial interpolation in nu
    across safely-computable offsets.
    """
    nu = float(nu)
    if abs(nu) > 60.0:
        raise DomainError("bessel_y supports |nu| <= 60")
    arr, scalar = _as_positive_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_y requires x > 0")
    out = np.empty(arr.shape, dtype=float)
    asym_knee = max(14.0, 3.0 * abs(nu))
    hi = arr >= asym_knee
    lo = ~hi
    if np.any(hi):
        _, out[hi] = _bessel_jy_asymptotic(nu, arr[hi])
    if np.any(lo):
        xs = arr[lo]
        dtype = np.longdouble if np.any(xs > 8.0) else np.float64
        n_int = round(nu)
        dist = abs(nu - n_int)
        if dist < 1e-12:
            vals = _bessel_y_integer(abs(n_int), xs, dtype)
            if n_int < 0 and n_int % 2 != 0:
                vals = -vals
            out[lo] = vals.astype(float)
        elif dist < 2e-3:
            # Lagrange interpolation in the order across +-{1.5,3,4.5}e-3,
            # where the three-term formula still has ~10 safe digits.
            offsets = np.array([-4.5e-3, -3e-3, -1.5e-3, 1.5e-3, 3e-3, 4.5e-3])
            nodes = n_int + offsets
            samples = [_bessel_y_three_term(float(nd), xs, np.longdouble)
                       for nd in nodes]
            vals = np.zeros_like(xs, dtype=np.longdouble)
            for i, nd in enumerate(nodes):
                w = 1.0
                for jn, other in enumerate(nodes):
                    if jn != i:
                        w *= (nu - other) / (nd - other)
                vals = vals + np.longdouble(w) * samples[i]
            out[lo] = vals.astype(float)
        else:
            out[lo] = _bessel_y_three_term(nu, xs, dtype).astype(float)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Modified Bessel K: complex order, complex argument with Re x > 0
# ---------------------------------------------------------------------------

_K_DECAY_DIGITS = 41.0


def _k_cutoff(re_nu: float, re_x: float) -> float:
    T = 1.0
    for _ in range(60):
        T_new = math.acosh(1.0 + (_K_DECAY_DIGITS + abs(re_nu) * T) / re_x)
        if abs(T_new - T) < 1e-9:
            return T_new
        T = T_new
    return T


def _k_batch(nu: complex, xs: np.ndarray) -> np.ndarray:
    """exp(x) K_nu(x) for an array of arguments, by tanh-sinh on [0, T]:
    the integral of exp(-x (cosh u - 1)) cosh(nu u), levels 0..10 with
    |u| <= 4.5 in the rule's own variable."""
    T = max(_k_cutoff(nu.real, float(np.min(xs.real))), 1.0)
    total = prev = None
    for level, h, sides in _ts_levels(0.0, T, 10, u_max=4.5):
        contrib = np.zeros(xs.shape, dtype=complex)
        for un, wn in sides:
            s = np.sinh(0.5 * un)        # cosh u - 1 == 2 sinh^2(u/2), stable for small u
            expo = -np.outer(xs.ravel(), 2.0 * s * s)
            # cosh(nu u) folded into the exponent: exp(expo) underflows
            # while cosh overflows near u = T for tiny Re x, and 0 * inf
            # would poison the quadrature with nan.
            nun = (nu * un)[None, :]
            with np.errstate(over="ignore", under="ignore"):
                vals = 0.5 * (np.exp(expo + nun) + np.exp(expo - nun))
                contrib += (vals @ wn).reshape(xs.shape)
        total = h * contrib if level == 0 else 0.5 * total + h * contrib
        if prev is not None and level >= 4:
            if np.all(np.abs(total - prev) <= 5e-16 * np.abs(total) + 1e-300):
                break
        prev = total
    return total


# Real order, real argument: closed forms for K_mu and K_{mu+1} with
# mu = nu - round(nu) in [-1/2, 1/2], then the upward recurrence.
_RGAMMA_TERMS = 26          # |a_k mu^k| < 4e-18 for k >= 20 and |mu| <= 1/2

# Trapezoid rule for x >= 2 (Trefethen & Weideman 2014): after
# s = sqrt(2x) sinh(t/2),
#   exp(x) K_mu(x) = int_0^inf exp(-s^2) cosh(2 mu asinh(s/sqrt(2x))) 2/sqrt(2x+s^2) ds,
# an even integrand analytic in |Im s| < sqrt(2x) >= 2, so step 0.3 is
# exponentially accurate, and exp(-36) ends the rule at s = 6.
_K_TRAP_S = 0.3 * np.arange(21)
_K_TRAP_W = 0.3 * np.exp(-np.square(_K_TRAP_S))
_K_TRAP_W[0] *= 0.5


@functools.lru_cache(maxsize=1)
def _rgamma_taylor() -> tuple:
    """a_0..a_25 with 1/Gamma(1+mu) = sum_k a_k mu^k.

    DLMF 5.7.1: 1/Gamma(z) = sum_{k>=1} c_k z^k with c_1 = 1, c_2 = gamma
    and (k-1) c_k = gamma c_{k-1} - zeta(2) c_{k-2} + ... + (-1)^k zeta(k-1) c_1;
    1/Gamma(1+mu) = 1/(mu Gamma(mu)) gives a_k = c_{k+1}.
    """
    zeta = [float(_zeta_em(complex(j)).real) if j >= 2 else 0.0
            for j in range(_RGAMMA_TERMS)]
    c = [0.0, 1.0, EULER_GAMMA]
    for k in range(3, _RGAMMA_TERMS + 1):
        acc = EULER_GAMMA * c[k - 1]
        for j in range(2, k):
            acc += (-1.0) ** (j + 1) * zeta[j] * c[k - j]
        c.append(acc / (k - 1))
    return tuple(c[1:])


def _k_temme_scaled(mu: float, x: np.ndarray, need_next: bool) -> np.ndarray:
    """exp(x) K_mu(x), and exp(x) K_{mu+1}(x) as a second row when
    need_next, for |mu| <= 1/2 and 0 < x < 2 by Temme's series (J. Comput.
    Phys. 19 (1975) 324-337; Numerical Recipes' bessik).  Gamma_1 and
    Gamma_2 come from the Taylor series of 1/Gamma(1 +- mu), so mu -> 0
    needs no special case."""
    a = _rgamma_taylor()
    gam2 = math.fsum(a[k] * mu ** k for k in range(0, _RGAMMA_TERMS, 2))
    gam1 = -math.fsum(a[k] * mu ** (k - 1) for k in range(1, _RGAMMA_TERMS, 2))
    gampl = gam2 - mu * gam1                     # 1/Gamma(1+mu)
    gammi = gam2 + mu * gam1                     # 1/Gamma(1-mu)
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d = -np.log(0.5 * x)
    e = mu * d
    fact2 = np.sinh(e) / np.where(e == 0.0, 1.0, e)
    fact2[e == 0.0] = 1.0
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    total = ff
    ex = np.exp(e)                               # (x/2)^-mu
    p = 0.5 * ex / gampl
    q = 0.5 / (ex * gammi)
    total1 = p
    c = np.ones_like(x)
    x2 = np.square(0.5 * x)
    for i in range(1, 60):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * x2 / i
        p = p / (i - mu)
        q = q / (i + mu)
        term = c * ff
        total = total + term
        if need_next:
            total1 = total1 + c * (p - i * ff)
        if np.all(np.abs(term) <= 1.1e-16 * np.abs(total)):
            break
    rows = (total, total1 * (2.0 / x)) if need_next else (total,)
    return np.array(rows) * np.exp(x)


def _k_trapezoid_scaled(mu: float, x: np.ndarray, need_next: bool) -> np.ndarray:
    """exp(x) K_mu(x), and exp(x) K_{mu+1}(x) as a second row when
    need_next, for x >= 2 by the fixed 21-node trapezoid rule above, as
    one (points x 21) product per order."""
    r = np.sqrt(2.0 * x)[:, None]
    base = _K_TRAP_W * (2.0 / np.sqrt(np.square(r) + np.square(_K_TRAP_S)))
    t = 2.0 * np.arcsinh(_K_TRAP_S / r)          # the original variable
    orders = np.array([mu, mu + 1.0] if need_next else [mu])
    return np.sum(base * np.cosh(np.multiply.outer(orders, t)), axis=-1)


def _k_real_scaled(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(x) K_nu(x) for real order and an array of real x > 0.

    K_{-nu} = K_nu; with n = round(|nu|) and mu = |nu| - n, K_mu and
    K_{mu+1} come from Temme's series (x < 2) or the trapezoid rule
    (x >= 2), and K_{mu+k+1} = K_{mu+k-1} + (2(mu+k)/x) K_{mu+k} climbs to
    the order; the recurrence is stable upward because K grows with it.
    K_{mu+1} is formed only when n >= 1: at tiny x it can overflow when
    it is not needed.
    """
    nu = abs(nu)
    n = round(nu)
    mu = nu - n
    k = np.empty((2 if n >= 1 else 1,) + x.shape)
    lo = x < 2.0                                 # nan goes to the rule and stays nan
    for sel, branch in ((lo, _k_temme_scaled), (~lo, _k_trapezoid_scaled)):
        if np.any(sel):
            k[:, sel] = branch(mu, x[sel], n >= 1)
    if n == 0:
        return k[0]
    k0, k1 = k
    for j in range(1, n):
        k0, k1 = k1, k0 + (2.0 * (mu + j) / x) * k1
    return k1


def bessel_k(nu, x):
    """K_nu(x) for complex order and complex x with Re x > 0."""
    scaled = bessel_k_scaled(nu, x)
    if np.ndim(x) == 0:
        return scaled * cmath.exp(-complex(x))
    return scaled * np.exp(-np.asarray(x, dtype=complex))


def bessel_k_scaled(nu, x):
    """exp(x) K_nu(x); avoids underflow for large Re x.

    Real order at arguments with zero imaginary part (any dtype) takes the
    closed forms of _k_real_scaled; everything else the tanh-sinh integral.
    """
    nu = complex(nu)
    if abs(nu.real) > 30.0:
        raise DomainError("bessel_k supports |Re nu| <= 30")
    arr = np.asarray(x, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr.real <= 0.0):
        raise DomainError("bessel_k requires Re x > 0")
    if nu.imag == 0.0 and not np.any(arr.imag):
        out = _k_real_scaled(nu.real, arr.real).astype(complex)
    else:
        out = _k_batch(nu, arr)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Exponential and logarithmic integrals
# ---------------------------------------------------------------------------

# The private helpers take arrays, and an array call gives every point
# its scalar value: `_e1_cf` and `_ei_positive_series` freeze a point
# once it has converged, and the terms that `_e1_series` and
# `_factorial_series` go on adding to a converged point (until the
# whole array has converged) are below half an ulp of its sum, so they
# leave it unchanged.

# Above this argument e^{-y} Ei(y) is summed from its asymptotic series.
_EI_ASYMPTOTIC = 50.0


def _e1_series(w: np.ndarray) -> np.ndarray:
    # E1(w) = -gamma - ln w + sum (-1)^{k+1} w^k / (k k!),  0 < w <= 1
    out = -EULER_GAMMA - np.log(w)
    term = np.ones_like(w)
    for k in range(1, 40):
        term = term * (-w / k)
        out = out - term / k
        if np.all(np.abs(term) < 1e-20):
            break
    return out


def _e1_cf(w: np.ndarray) -> np.ndarray:
    # Scaled continued fraction: e^w E1(w), modified Lentz.
    tiny = 1e-300
    b = w + 1.0
    c = np.full_like(w, 1.0 / tiny)
    d = 1.0 / b
    h = d
    done = np.zeros(w.shape, dtype=bool)
    for k in range(1, 200):
        a = -k * k
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        c[c == 0.0] = tiny
        delta = c * d
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < 1e-16
        if np.all(done):
            break
    return h


def exp_integral_e1_scaled(w):
    """e^w E1(w) for w > 0; broadcasts over arrays of w."""
    arr, scalar = _as_positive_array(w)
    if np.any(arr <= 0.0):
        raise DomainError("E1 requires w > 0")
    out = np.piecewise(arr, [arr <= 1.0],
                       [lambda v: np.exp(v) * _e1_series(v), _e1_cf])
    return float(out[0]) if scalar else out


def _ei_positive_series(y: np.ndarray) -> np.ndarray:
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


def _factorial_series(y: np.ndarray, first: int, step: int) -> np.ndarray:
    """Sum of k!/y^{k+1} over k = first, first + step, ... below y, where
    the terms stop shrinking (and below 400).  With first 0 and step 1
    this is the asymptotic series of e^{-y} Ei(y), truncated at its
    smallest term.  Stops once no point has a term left above 1e-17 of
    its sum."""
    term = math.factorial(first) / y ** (first + 1)
    out = term
    k = first
    while k + step < 400:
        for j in range(k + 1, k + step + 1):
            term = term * (j / y)
        k += step
        live = k < y
        if not np.any(live & (term > 1e-17 * out)):
            break
        out = out + np.where(live, term, 0.0)
    return out


def exp_integral_ei_scaled(y):
    """e^{-y} Ei(y) for y > 0; broadcasts over arrays of y."""
    arr, scalar = _as_positive_array(y)
    if np.any(arr <= 0.0):
        raise DomainError("scaled Ei requires y > 0")
    out = np.piecewise(arr, [arr <= _EI_ASYMPTOTIC],
                       [lambda v: np.exp(-v) * _ei_positive_series(v),
                        lambda v: _factorial_series(v, 0, 1)])
    return float(out[0]) if scalar else out


def _e1_minus_ei_scaled(w: np.ndarray) -> np.ndarray:
    """e^w E1(w) - e^{-w} Ei(w) for an array of w > 0, an O(1/w^2) value.

    Where Ei takes its asymptotic series the two O(1/w) values would
    cancel, so there the even terms of the two series are cancelled
    exactly instead, leaving -2 sum_{k odd} k!/w^{k+1}.
    """
    return np.piecewise(
        w, [w <= _EI_ASYMPTOTIC],
        [lambda v: exp_integral_e1_scaled(v) - exp_integral_ei_scaled(v),
         lambda v: -2.0 * _factorial_series(v, 1, 2)])


def exp_integral_ei(y: float) -> float:
    """Ei(y) for real y != 0 (principal value sense for y > 0)."""
    y = float(y)
    if y == 0.0:
        raise PoleError("Ei has a logarithmic singularity at 0")
    if y > 700.0:
        raise DomainError("Ei overflows double precision for y > 700")
    if y > _EI_ASYMPTOTIC:
        return math.exp(y) * exp_integral_ei_scaled(y)
    if y > 0.0:
        return float(_ei_positive_series(np.array([y]))[0])
    if y >= -1.0:
        return -float(_e1_series(np.array([-y]))[0])
    return -math.exp(y) * exp_integral_e1_scaled(-y)


def exp_integral_li(x: float) -> float:
    """Logarithmic integral li(x) = Ei(ln x) for x > 0, x != 1."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("li requires x > 0")
    if x == 1.0:
        raise PoleError("li diverges at x=1")
    return exp_integral_ei(math.log(x))
