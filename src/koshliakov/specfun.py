"""Special functions built from scratch on float64/complex128.

Everything here is implemented directly (Lanczos, Euler-Maclaurin, the
J series, Temme's series for Y and for K below |x| = 2, Steed's method
for J and Y up to the Hankel knee and Hankel's expansion above it, a
trapezoid rule for K above |x| = 2); numpy supplies array arithmetic
only.  Gamma, zeta, xi, Xi, the Hurwitz zeta (over a) and the Bessel and
exponential integrals take a scalar or an array, since the kernel and
identity layers feed them integration nodes and alpha grids; a scalar
goes through the array path as a one-element array and comes back a
scalar.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import arith
from .errors import DomainError, LimitError, PoleError

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

_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _as_array(x, dtype=float):
    """x as an array of dtype with at least one dimension, and whether it
    was a scalar."""
    arr = np.asarray(x, dtype=dtype)
    return np.atleast_1d(arr), arr.ndim == 0


def _at_pole(z):
    """True where z lies within 1e-12 of a nonpositive integer."""
    n = np.round(np.real(z))
    return (n <= 0.0) & (np.abs(z - n) < 1e-12)


def _cpow(x, b):
    """x^b on the principal branch, elementwise, in the polar form CPython
    uses: |x|^Re b by the real power (to an ulp on the positive real line,
    where exp(b log x) would lose |b log x| ulps) times exp(-arg(x) Im b)
    and the phase."""
    r, th = np.abs(x), np.arctan2(x.imag, x.real)
    mag = np.power(r, b.real) * np.exp(-th * b.imag)
    ph = th * b.real + b.imag * np.log(r)
    return mag * (np.cos(ph) + 1j * np.sin(ph))


def _lanczos_core(z: np.ndarray) -> np.ndarray:
    # Requires Re z >= 0.5.
    a = _LANCZOS_C[0] + np.sum(_LANCZOS_C[1:] / np.add.outer(z - 1.0, _LANCZOS_K), axis=-1)
    t = z + _LANCZOS_G - 0.5
    return _SQRT_TWO_PI * _cpow(t, z - 0.5) * np.exp(-t) * a


def gamma(z):
    """Gamma function for complex z, a scalar or an array; PoleError at the
    nonpositive integers."""
    arr, scalar = _as_array(z, complex)
    pole = _at_pole(arr)
    if pole.any():
        raise PoleError(f"gamma pole at z={complex(arr[pole][0])}")
    refl = arr.real < 0.5
    out = _lanczos_core(np.where(refl, 1.0 - arr, arr))
    # Reflection keeps the Lanczos sum on its accurate half-plane.
    out[refl] = math.pi / (np.sin(math.pi * arr[refl]) * out[refl])
    out.imag[(arr.imag == 0.0) & (arr.real > 0.0)] = 0.0
    return complex(out[0]) if scalar else out


def rgamma(z) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at the nonpositive integers."""
    z = complex(z)
    if _at_pole(z):
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
    if _at_pole(z):
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
_EM_COEF = _B2K[:_EM_TERMS] / np.array([math.factorial(2 * k) for k in range(1, _EM_TERMS + 1)],
                                       dtype=float)
_EM_RISE = np.arange(2.0 * _EM_TERMS - 1.0)     # w + 0, ..., w + 2K - 2
_EM_STEP = np.arange(float(_EM_TERMS))
_EM_BLOCK = 256


def _sinc(w: np.ndarray) -> np.ndarray:
    small = np.abs(w) < 1e-4
    w2 = w * w
    return np.where(small, 1.0 - w2 / 6.0 + w2 * w2 / 120.0,
                    np.sin(w) / np.where(small, 1.0, w))


def _hurwitz_em(w, a, lam: bool = False) -> np.ndarray:
    """zeta(w, a) by Euler-Maclaurin, elementwise over the broadcast of w
    and a (scalars or arrays, Re a > 0); PoleError at w = 1.  With lam, the
    pair lambda(a, w - 1) = zeta(w, a) - a^{1-w}/(w-1) - a^{-w}/2, finite at
    w = 1, and the sum of its pieces' magnitudes (the pieces cancel).

    Every point takes its own shift N and its own stop in the tail; a shift
    past arith._TABLE_LIMIT terms is a LimitError, before its row is made.
    The points go through in blocks of _EM_BLOCK, so the (points x shift)
    and (points x tail term) temporaries stay a few hundred kB at any size.
    """
    w, a = np.broadcast_arrays(np.asarray(w, dtype=complex), np.asarray(a, dtype=complex))
    if (a.real <= 0.0).any():
        raise DomainError("hurwitz_zeta requires Re a > 0")
    if not lam and (np.abs(w - 1.0) < 1e-12).any():
        raise PoleError("hurwitz zeta pole at w=1")
    out = np.empty((2,) + w.shape, dtype=complex)
    flat, wf, af = out.reshape(2, -1), w.ravel(), a.ravel()
    for i in range(0, wf.size, _EM_BLOCK):
        flat[:, i:i + _EM_BLOCK] = _hurwitz_block(wf[i:i + _EM_BLOCK], af[i:i + _EM_BLOCK], lam)
    return (out[0], out[1].real) if lam else out[0]


def _hurwitz_block(w: np.ndarray, a: np.ndarray, lam: bool):
    # Term k of the Euler-Maclaurin tail is about 2 (w-1)_{2k} / (2 pi A)^{2k}
    # of the sum at the shift A, so A grows with |w|: A >= 0.4|w| + 8
    # brings it under 1e-17 within _EM_TERMS terms.
    target = np.maximum(np.maximum(1.3 * (np.abs(w.imag) + np.abs(a.imag)), 15.0),
                        0.4 * np.abs(w) + 8.0)
    # lambda needs no shift past the target: its head is then 0.
    N = np.maximum(np.ceil(target - a.real), 0.0 if lam else 1.0)
    if not (N <= arith._TABLE_LIMIT).all():
        raise LimitError(f"Euler-Maclaurin shift of {N.max():.3g} terms exceeds the bound")
    N = N.astype(int)
    rows = np.arange(w.size)
    # (n + a)^-w for n <= N: the running sum read at n = N - 1 is the direct
    # sum, the power at n = N is A^-w at the shift A = N + a.
    powers = _cpow(np.add.outer(a, np.arange(N.max() + 1.0)), -w[:, None])
    A, As, a0 = N + a, powers[rows, N], powers[:, 0]
    head = np.cumsum(powers, axis=1)[rows, N - 1] * (N > 0)
    if lam:   # (A^{1-w} - a^{1-w})/(w-1) as a^{1-w} times a slope in w - 1
        pole = a * a0 * _exp_slope(-np.log(A / a), w - 1.0)
        mag = (np.cumsum(np.abs(powers), axis=1)[rows, N - 1] * (N > 0) + np.abs(pole)
               + 0.5 * (np.abs(As) + np.abs(a0)))
        head = head + 0.5 * (As - a0) + pole
    else:
        head, mag = head + (0.5 * As + A * As / (w - 1.0)), np.zeros(w.size)
    # Tail term k = B_2k/(2k)! (w)_{2k-1} A^{-w-2k+1}; the sum stops at the
    # first term at most 1e-20 of the partial sum (0 where both underflow),
    # a relative rule because zeta(w, a) is far below 1 for large w or a;
    # terms past the stop may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.cumprod(np.add.outer(w, _EM_RISE), axis=1)[:, ::2]
        terms = _EM_COEF * poch * ((As / A)[:, None]
                                   * np.power((1.0 / (A * A))[:, None], _EM_STEP))
        partial = head[:, None] + np.cumsum(terms, axis=1)
    done = np.abs(terms) <= 1e-20 * np.abs(partial)
    return partial[rows, np.where(done.any(axis=1), done.argmax(axis=1), _EM_TERMS - 1)], mag


def _zeta_star_slope(ds: np.ndarray) -> np.ndarray:
    """((s-1) zeta(s) - 1)/(s-1) from the Stieltjes constants at an array
    of ds = s - 1 with |ds| <= 0.01."""
    return np.polyval([(-1) ** k * g / math.factorial(k) for k, g in enumerate(_STIELTJES)][::-1], ds)


def zeta_star(s):
    """(s-1) * zeta(s) for a scalar or an array: entire, equals 1 at s=1."""
    arr, scalar = _as_array(s, complex)
    ds = arr - 1.0
    near = np.abs(ds) <= 0.01                    # by the series; 2 holds their place
    out = ds * riemann_zeta(np.where(near, 2.0, arr))
    out[near] = 1.0 + ds[near] * _zeta_star_slope(ds[near])
    return complex(out[0]) if scalar else out


def _exp_slope(c, z):
    """(e^{cz} - 1)/z elementwise, finite at z = 0."""
    h = 0.5 * c * z
    return c * np.exp(h) * _sinc(1j * h)


@functools.lru_cache(maxsize=8)
def _reflection_slopes(z: complex):
    """(value, slope) pairs, the slope of f being (f - 1)/z, of zeta*(1+z)
    and of zeta*(1-z) sec(pi z/2): the Stieltjes series below |z| = 0.01,
    the quotient above; sec u - 1 is 2 sin^2(u/2) / cos u."""
    d = np.array([z, -z])
    near = np.abs(d) <= 0.01
    zs = zeta_star(1.0 + d)
    s = np.where(near, _zeta_star_slope(d), (zs - 1.0) / np.where(near, 1.0, d))
    u = 0.25 * math.pi * z
    sec = 1.0 / cmath.cos(2.0 * u)
    sec_slope = 0.5 * math.pi * cmath.sin(u) * complex(_sinc(np.array([u]))[0]) * sec
    return (zs[0], s[0]), (zs[1] * sec, sec_slope - s[1] * sec)


def _pole_quotient(z: complex, cp, cr):
    """(P - R)/z for P = zeta*(1+z) e^{cp z} and R = zeta*(1-z) sec(pi z/2)
    e^{cr z}, cp and cr scalars or arrays (which may carry _lgamma_slope
    terms), as the difference of two slopes, finite at z = 0; and its
    roundoff scale (|P| + |R|) / max(|z|, 0.01), in ulps: the slopes are
    difference quotients above |z| = 0.01 and series below it.  By the
    reflection formula (DLMF 25.4.1, 5.5.3)
        Gamma(1+z) zeta(z) (2 pi)^{-z} = -zeta*(1-z) sec(pi z/2) / 2,
    every pole pair at z = 0 of the kernels and identities takes this form."""
    (p, sp), (r, sr) = _reflection_slopes(z)
    ep, er = np.exp(cp * z), np.exp(cr * z)
    return (sp * ep + _exp_slope(cp, z) - sr * er - _exp_slope(cr, z),
            (np.abs(p * ep) + np.abs(r * er)) / max(abs(z), 0.01))


def riemann_zeta(s):
    """zeta(s) on the whole plane, for a scalar or an array; PoleError
    within 1e-12 of s=1.  Euler-Maclaurin at s itself for Re s >= 1/2;
    left of it the reflection takes (w-1) zeta(w) at w = 1 - s from
    zeta_star."""
    arr, scalar = _as_array(s, complex)
    if (np.abs(arr - 1.0) < 1e-12).any():
        raise PoleError("zeta pole at s=1")
    left = arr.real < 0.5
    out = np.empty_like(arr)
    out[~left] = _hurwitz_em(arr[~left], 1.0)
    if left.any():
        sl, wl = arr[left], 1.0 - arr[left]
        zs = zeta_star(wl)       # its shift bound raises before Gamma(wl) can overflow
        # Reflection written through (s-1)zeta(s) and sin(pi s/2)/s, so the
        # trivial zeros come out exact and s=0 is unexceptional.
        out[left] = (-np.exp((sl - 1.0) * math.log(2.0)) * np.exp(sl * math.log(math.pi))
                     * _sinc(0.5 * math.pi * sl) * gamma(wl) * zs)
    return complex(out[0]) if scalar else out


def hurwitz_zeta(w, a):
    """zeta(w, a) for Re w >= -1 and Re a > 0 by Euler-Maclaurin, at one w
    and a scalar or an array of a; PoleError at w=1.  Below Re w = -1 the
    direct terms (n + a)^-w grow like n^-Re w up to the shift while zeta(w, a)
    may be far smaller (2.9e-10 relative at w = -2.948-3.193i,
    a = 0.587+0.340i), so DomainError there."""
    w = complex(w)
    if w.real < -1.0:
        raise DomainError("hurwitz_zeta requires Re w >= -1")
    arr, scalar = _as_array(a, complex)
    out = _hurwitz_em(w, arr)
    return complex(out[0]) if scalar else out


def xi(s):
    """Riemann xi, the entire completion of zeta, for a scalar or an array;
    xi(s) = xi(1-s)."""
    arr, scalar = _as_array(s, complex)
    arr = np.where(arr.real < 0.5, 1.0 - arr, arr)
    # (1/2)s(s-1)pi^{-s/2}Gamma(s/2)zeta(s) with the pole of zeta absorbed
    # into (s-1)zeta(s) and the s/2 factor into Gamma(s/2+1).
    out = np.exp(-0.5 * arr * math.log(math.pi)) * gamma(0.5 * arr + 1.0) * zeta_star(arr)
    return complex(out[0]) if scalar else out


def big_xi(t):
    """Xi(t) = xi(1/2 + it) for a scalar or an array; real and even for
    real t."""
    arr, scalar = _as_array(t, complex)
    out = xi(0.5 + 1j * arr)
    out.imag[arr.imag == 0.0] = 0.0
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Bessel J and Y (real order, positive real argument)
# ---------------------------------------------------------------------------

_J_SERIES_MAX = 80


@functools.lru_cache(maxsize=8)
def _series_rgamma(nu: float) -> float:
    """1/Gamma(nu + 1), formed once per order of the J series."""
    return rgamma(nu + 1.0).real


def _bessel_j_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series for nu >= 0; float64 holds for x < 2.  The terms
    shrink, so those past a point's own stop leave its sum unchanged."""
    half = 0.5 * x
    term = np.power(half, nu) * _series_rgamma(nu)
    out = term.copy()
    mx2 = -np.square(half)
    for k in range(1, _J_SERIES_MAX + 1):
        term = term * mx2 / (k * (nu + k))
        out += term
        if np.all(np.abs(term) <= 1e-20 * np.abs(out)):
            break
    return out


def _bessel_jy_hankel(nu: float, x: np.ndarray):
    """J and Y from Hankel's expansion, each point's P and Q sums truncated
    at its own smallest term (or after one below 1e-19)."""
    mu = 4.0 * nu * nu
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 40):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = np.abs(term)
        live &= mag < prev
        if not live.any():
            break
        add = np.where(live, (-1.0) ** (k // 2) * term, 0.0)
        if k % 2 == 1:
            Q += add
        else:
            P += add
        prev = mag
        live &= mag >= 1e-19
    chi = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    j = amp * (P * np.cos(chi) - Q * np.sin(chi))
    y = amp * (P * np.sin(chi) + Q * np.cos(chi))
    return j, y


def _bessel_jy_steed(mu: float, n: int, x: np.ndarray) -> np.ndarray:
    """Rows J_{mu+n}(x), Y_mu(x), Y_{mu+1}(x) for |mu| <= 1/2 and x >= 2 by
    Steed's method (Barnett, Feng, Steed & Goldfarb, Comput. Phys. Commun.
    8 (1974) 377-395; Numerical Recipes' bessjy), both continued fractions
    summed from a fixed depth.  CF1, as the backward recurrence of
    r_v = J_v/J_{v-1} = 1/(2v/x - r_{v+1}), gives J'_mu/J_mu = mu/x - r_{mu+1}
    and J_{mu+n}/J_mu; CF2 gives p + iq = (J'_mu + i Y'_mu)/(J_mu + i Y_mu);
    the Wronskian J_mu Y'_mu - Y_mu J'_mu = 2/(pi x) fixes |J_mu|, and
    J_v > 0 for v > x its sign."""
    inv = 1.0 / x
    # Past v = x, r_v falls off like Airy's function on the scale x^(1/3):
    # started 8 such steps beyond the order and every x, r = 0 is forgotten
    # to the last bit before v = mu + 1.
    top = max(mu + n, float(np.max(x)))
    r = np.zeros_like(x)
    ratio = np.ones_like(x)                      # J_{mu+n}/J_mu
    sign = np.ones_like(x)                       # of J_mu: r_v > 0 for v > x + 1
    for k in range(math.ceil(top + 8.0 * top ** (1.0 / 3.0)) + 5, 0, -1):
        r = 1.0 / ((2.0 * (mu + k)) * inv - r)
        if k <= n:
            ratio = ratio * r
        if mu + k < top + 1.0:
            sign = sign * np.sign(r)
    # CF2 to 1e-17 for x >= 2 from depth 110/x + 5:
    # p + iq = -1/(2x) + i + (i/x) a_1/(b_1 + a_2/(b_2 + ...)),
    # a_k = (k - 1/2)^2 - mu^2, b_k = 2(x + ki).
    two_x = 2.0 * x
    f = np.zeros(x.shape, dtype=complex)
    for k in range(math.ceil(110.0 / float(np.min(x))) + 5, 0, -1):
        f = ((k - 0.5) ** 2 - mu * mu) / (two_x + 2.0j * k + f)
    pq = (1.0j * inv) * f + (1.0j - 0.5 * inv)
    p, q = pq.real, pq.imag
    g = p - mu * inv + r                         # p - J'_mu/J_mu
    j_mu = sign * np.sqrt((2.0 / math.pi) * inv * q / (g * g + q * q))
    y_mu = (g / q) * j_mu
    return np.array([ratio * j_mu, y_mu, (mu * inv) * y_mu - p * y_mu - q * j_mu])


def _bessel_jy(nu: float, x: np.ndarray, need_y: bool = True):
    """J_nu(x) and Y_nu(x) for real order and an array of x > 0; with
    need_y False, Y below x = 2 is left nan unless a negative non-integer
    order needs it for the reflection.

    With n = round(|nu|) and mu = |nu| - n: below x = 2, J is the
    ascending series and Y_mu, Y_{mu+1} are Temme's series (the loop K
    uses); from 2 up to the knee max(14, 3|nu|, nu^2/4), Steed's method
    gives J and Y_mu, Y_{mu+1}; Y climbs to the order by the upward
    recurrence, stable because Y grows with it.  Negative orders reflect
    there: J_{-a} = cos(a pi) J_a - sin(a pi) Y_a, Y_{-a} = sin(a pi) J_a +
    cos(a pi) Y_a.  At and above the knee both come from the Hankel
    expansion at nu, whose second term is below its first only where
    16x > 4 nu^2 - 9: below about x = nu^2/4 it would stop after one term.
    """
    a = abs(nu)
    n = round(a)
    mu = a - n
    lo = x < 2.0
    hi = x >= max(14.0, 3.0 * a, 0.25 * a * a)
    mid = (x >= 2.0) & ~hi
    j = np.full_like(x, np.nan)                  # nan stays in no region and stays nan
    y = np.full((2 if n >= 1 else 1,) + x.shape, np.nan)   # Y_mu, Y_{mu+1} if n >= 1
    # At tiny x, Y passes the double range on its way up in order: it is
    # -inf there, also where the recurrence next meets inf - inf.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.any(lo):
            j[lo] = _bessel_j_series(a, x[lo])
            if need_y or (nu < 0.0 and mu != 0.0):
                y[:, lo] = _temme(mu, x[lo], n >= 1, bessel_y=True)
        if np.any(mid):
            j[mid], *rows = _bessel_jy_steed(mu, n, x[mid])
            y[:, mid] = rows[:len(y)]
        y0, y = y[0], y[-1]
        for k in range(1, n):
            y0, y = y, (2.0 * (mu + k) / x) * y - y0
    y[lo & np.isnan(y)] = -np.inf
    if nu < 0.0:
        c = (-1.0) ** n * math.cos(math.pi * mu)
        s = (-1.0) ** n * math.sin(math.pi * mu)
        j, y = (c * j - s * y, s * j + c * y) if s else (c * j, c * y)
    if np.any(hi):
        j[hi], y[hi] = _bessel_jy_hankel(nu, x[hi])
    return j, y


def _real_order(nu) -> float:
    """nu as a float: J and Y, and the kernels built from them, are
    computed at real order only."""
    nu = complex(nu)
    if nu.imag != 0.0:
        raise DomainError(f"J and Y take a real order only, got {nu}")
    return nu.real


def bessel_j(nu: float, x):
    """J_nu(x) for real order and x >= 0; broadcasts over x."""
    nu = _real_order(nu)
    if abs(nu) > 60.0:
        raise DomainError("bessel_j supports |nu| <= 60")
    arr, scalar = _as_array(x)
    if np.any(arr < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    # J_nu(0): 1 at nu = 0, 0 at other nu >= 0 and at the negative
    # integers, infinite with the sign of 1/Gamma(1 + nu) elsewhere.
    out = np.full(arr.shape, 1.0 if nu == 0.0 else 0.0 if nu > 0.0 or nu == round(nu)
                  else math.copysign(math.inf, rgamma(1.0 + nu).real))
    live = arr != 0.0
    out[live], _ = _bessel_jy(nu, arr[live], need_y=False)
    return float(out[0]) if scalar else out


def bessel_y(nu: float, x):
    """Y_nu(x) for real order and x > 0; broadcasts over x."""
    nu = _real_order(nu)
    if abs(nu) > 60.0:
        raise DomainError("bessel_y supports |nu| <= 60")
    arr, scalar = _as_array(x)
    if np.any(arr <= 0.0):
        raise DomainError("bessel_y requires x > 0")
    _, out = _bessel_jy(nu, arr)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Modified Bessel K: complex order, complex argument with Re x > 0
# ---------------------------------------------------------------------------

# Above |Im nu| = 5, K near |x| = 2 is so small (e^{-pi |Im nu| / 2})
# against the terms that sum to it that their rounding passes 1e-13.
_K_IM_MAX = 5.0

# K_mu and K_{mu+1} with mu = nu - round(Re nu), |Re mu| <= 1/2, then the
# upward recurrence.  A real mu at real x keeps the arithmetic in float64.
# For |Im mu| <= 1 the series of 1/Gamma(1 +- mu) stops after a_25:
# |a_k mu^k| < 3.1e-17 for k >= 26 and |mu| <= sqrt(1/4 + 1) ~ 1.12, and the
# rest sums to < 6e-17 (< 4e-18 per term from k = 20 at |mu| <= 1/2).
_RGAMMA_TERMS = 26

# a_k with 1/Gamma(1 + mu) = sum_k a_k mu^k (DLMF 5.7.1), to k = 40 and
# correctly rounded (mpmath at 50 digits): all of them for 1 < |Im mu| and
# |mu| <= 2.1, where |a_k mu^k| < 1.1e-16 from k = 37.
_RGAMMA_WIDE = np.array([
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13, -2.0583260535665066e-14,
    -5.348122539423018e-15, 1.2267786282382608e-15, -1.1812593016974588e-16, 1.1866922547516004e-18,
    1.4123806553180319e-18, -2.29874568443537e-19, 1.7144063219273374e-20, 1.337351730493693e-22,
    -2.0542335517666728e-22, 2.736030048608e-23, -1.7323564459105165e-24, -2.3606190244992872e-26,
    1.8649829417172943e-26, -2.2180956242071973e-27, 1.2977819749479937e-28,
    1.1806974749665284e-30, -1.124584349277088e-30, 1.277085175140866e-31])


def _lgamma_slope(w: complex) -> complex:
    """log Gamma(1+w) / w, finite at w = 0: -log(1 + w s)/w, s = (1/Gamma(1+w)
    - 1)/w from the Taylor series _RGAMMA_WIDE, for |w| <= 1; log(1 + y) is
    2 atanh(y/(2 + y)), accurate at small complex y where numpy's log1p is not."""
    if abs(w) > 1.0:
        return log_gamma(1.0 + w) / w
    s = complex(np.polyval(_RGAMMA_WIDE[:0:-1], w))
    y = w * s
    return -s * (2.0 * cmath.atanh(y / (2.0 + y)) / y if y else 1.0)


def _temme(mu, x: np.ndarray, need_next: bool,
           bessel_y: bool = False) -> np.ndarray:
    """Temme's series for |Re mu| <= 1/2 and 0 < |x| < 2 (J. Comput. Phys.
    19 (1975) 324-337 and 21 (1976) 343-350; Numerical Recipes' bessik and
    bessjy): exp(x) K_mu(x), or Y_mu(x) when bessel_y, and the order
    mu + 1 as a second row when need_next.  Y's sums are K's with x^2/4
    negated and r q added to ff, r = 2 sin^2(pi mu/2)/mu; r = 0 leaves
    K's.  For |Im mu| <= 1 (|mu| <= 1.12, see _RGAMMA_TERMS) Gamma_1 and
    Gamma_2 come from the Taylor series of 1/Gamma(1 +- mu), so mu -> 0
    needs no special case; above it (|mu| > 1) the series starts from
    1/Gamma(1 +- mu) themselves.  K also takes a complex mu and a complex
    x with Re x > 0: the series is one in (x/2)^2."""
    pimu = math.pi * mu
    d = -np.log(0.5 * x)
    e = mu * d
    ex = np.exp(e)                               # (x/2)^-mu
    if abs(mu.imag) <= 1.0:
        a = _RGAMMA_WIDE.tolist()
        add = math.fsum if isinstance(mu, float) else sum   # fsum takes no complex terms
        gam2 = add(a[k] * mu ** k for k in range(0, _RGAMMA_TERMS, 2))
        gam1 = -add(a[k] * mu ** (k - 1) for k in range(1, _RGAMMA_TERMS, 2))
        gampl = gam2 - mu * gam1                 # 1/Gamma(1+mu)
        gammi = gam2 + mu * gam1                 # 1/Gamma(1-mu)
        fact = pimu / (math.sin if isinstance(mu, float) else cmath.sin)(pimu) if mu != 0.0 else 1.0
        # sinh(e)/e rounds to 1 below |e| = 1e-8 (1/e of a subnormal overflows).
        tiny = np.abs(e) < 1e-8
        fact2 = np.sinh(e) / np.where(tiny, 1.0, e)
        fact2[tiny] = 1.0
        ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    else:
        # (Gamma(mu) (x/2)^-mu + Gamma(-mu) (x/2)^mu) / 2, the sum Temme's
        # form rearranges to spare mu -> 0.
        if abs(mu) <= 2.1:
            gampl, gammi = (complex(np.polyval(_RGAMMA_WIDE[::-1], z)) for z in (mu, -mu))
        else:
            gampl, gammi = rgamma(1.0 + mu), rgamma(1.0 - mu)
        ff = 0.5 * (ex / gampl - 1.0 / (ex * gammi)) / mu
    p = 0.5 * ex / gampl
    q = 0.5 / (ex * gammi)
    x2 = np.square(0.5 * x) * (-1.0 if bessel_y else 1.0)
    r = 2.0 * math.sin(0.5 * pimu) ** 2 / mu if bessel_y and mu != 0.0 else 0.0
    total = ff + r * q
    total1 = p
    c = np.ones_like(x)
    for i in range(1, 60):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * x2 / i
        p = p / (i - mu)
        q = q / (i + mu)
        g = ff + r * q
        term = c * g
        total = total + term
        if need_next:
            total1 = total1 + c * (p - i * g)
        if np.all(np.abs(term) <= 1.1e-16 * np.abs(total)):
            break
    rows = (total, total1 * (2.0 / x)) if need_next else (total,)
    # One 1-D product per row: numpy's broadcast complex product may round
    # a point differently from the same product on a shorter array.
    scale = -2.0 / math.pi if bessel_y else np.exp(x)
    return np.array([row * scale for row in rows])


def _k_trapezoid_scaled(mu, x: np.ndarray, need_next: bool) -> np.ndarray:
    """exp(x) K_mu(x), and exp(x) K_{mu+1}(x) as a second row when
    need_next, for Re x > 0 away from 0, by the trapezoid rule (Trefethen &
    Weideman, SIAM Rev. 56 (2014) 385-458).  After s = sqrt(2x) sinh(t/2),
      exp(x) K_mu(x) = int_0^inf exp(-s^2) cosh(2 mu asinh(s/sqrt(2x))) 2/sqrt(2x+s^2) ds
    on the steepest-descent path for any |arg x| < pi/2, an even integrand
    analytic in |Im s| < d = Re sqrt(2x), where it grows like e^{pi |Im mu|}:
    the step 0.3/k, k = ceil(0.3 (38.7 + pi |Im mu|) / (2 pi d)), is
    exponentially accurate (k = 1 at real x >= 2 with |Im mu| <= 1).  The
    rule ends at s = 6 (exp(-36) = 2.3e-16), moved out by |Im mu arg x| / 12
    (|cosh(mu t)| reaches e^{|Im mu arg x|} on the path) and by
    0.8 sqrt(Re mu - 3/2) (the peak of exp(-s^2) s^{2 Re mu}): (20 + m) k + 1
    nodes, m = ceil(move / 0.3).  One (points x nodes) product per (k, m)."""
    r = np.sqrt(2.0 * x)
    b = abs(mu.imag)
    # fmax: a nan x takes the k = 1, m = 0 rule and stays nan; m < 18.
    k = np.fmax(np.ceil(0.3 * (38.7 + math.pi * b) / (2.0 * math.pi * r.real)), 1.0)
    move = (0.8 * math.sqrt(max(mu.real + need_next - 1.5, 0.0))
            + (b * np.abs(np.angle(x)) / 12.0 if np.iscomplexobj(x) else 0.0))
    rule = 32.0 * k + np.fmax(np.ceil(move / 0.3), 0.0)
    orders = np.array([mu, mu + 1.0] if need_next else [mu])
    out = np.empty(orders.shape + x.shape, dtype=np.result_type(mu, x))
    for key in set(rule.tolist()):               # np.unique would import numpy.ma: 15 ms cold
        sel = rule == key
        kk, mm = divmod(int(key), 32)
        s = 0.3 / kk * np.arange((20 + mm) * kk + 1)
        w = 0.3 / kk * np.exp(-np.square(s))
        w[0] *= 0.5
        rs = r[sel][:, None]
        base = w * (2.0 / np.sqrt(np.square(rs) + np.square(s)))
        t = 2.0 * np.arcsinh(s / rs)              # the original variable
        out[:, sel] = np.sum(base * np.cosh(np.multiply.outer(orders, t)), axis=-1)
    return out


def _k_climb(mu, n: int, x: np.ndarray) -> np.ndarray:
    """exp(x) K_{mu+n}(x): K_mu and K_{mu+1} from Temme's series or the
    trapezoid rule, then K_{mu+k+1} = K_{mu+k-1} + (2(mu+k)/x) K_{mu+k}.
    Temme's series runs below |x| = 2, but only below |x| = 1 at complex x
    with |Im mu| <= 1, where its terms turn with arg x^2 and cancel (4e-15
    near |x| = 2, against the rule's 4e-16).  K_{mu+1} is formed only when
    n >= 1: at tiny x it can overflow when it is not needed."""
    k = np.empty((2 if n >= 1 else 1,) + x.shape, dtype=np.result_type(mu, x))
    edge = 1.0 if np.iscomplexobj(x) and abs(mu.imag) <= 1.0 else 2.0
    lo = np.abs(x) < edge                        # nan goes to the rule and stays nan
    for sel, branch in ((lo, _temme), (~lo, _k_trapezoid_scaled)):
        if np.any(sel):
            k[:, sel] = branch(mu, x[sel], n >= 1)
    if n == 0:
        return k[0]
    k0, k1 = k
    for j in range(1, n):
        k0, k1 = k1, k0 + (2.0 * (mu + j) / x) * k1
    return k1


def bessel_k(nu, x):
    """K_nu(x) for |Re nu| <= 30, |Im nu| <= 5 and Re x > 0 (bessel_k_scaled)."""
    scaled = bessel_k_scaled(nu, x)
    if np.ndim(x) == 0:
        return scaled * cmath.exp(-complex(x))
    return scaled * np.exp(-np.asarray(x, dtype=complex))


def bessel_k_scaled(nu, x):
    """exp(x) K_nu(x) for |Re nu| <= 30, |Im nu| <= 5 and Re x > 0
    (DomainError outside); avoids underflow for large Re x.

    One algorithm for every order and argument, _k_climb: Temme's series
    at small |x|, the trapezoid rule above, the recurrence in the order.
    K_{-nu} = K_nu, so Re nu >= 0, and K climbs from mu = nu - round(Re nu),
    stable where K grows with the order.  Each point takes one of three
    paths: a real argument (any dtype with zero imaginary part) in real
    arithmetic; a complex argument that climbs; and a complex argument with
    Im nu arg x < -pi/2 (|Im nu| > 1), where K_mu is mostly the other
    solution, which falls with the order, and the climb would lose up to
    e^{2 |Im nu arg x|}: there K is taken at nu itself.  Each point gets the
    value it gets alone.  Relative error below 3e-14 for |Re nu| <= 2
    (tools/accuracy_map.json); where |arg x| nears pi/2 with
    |x| ~ |Re nu| >= 15 and |Im nu| >= 3, 1e-12 to 1e-11.
    """
    nu = complex(nu)
    if abs(nu.real) > 30.0:
        raise DomainError("bessel_k supports |Re nu| <= 30")
    if abs(nu.imag) > _K_IM_MAX:
        raise DomainError(f"bessel_k supports |Im nu| <= {_K_IM_MAX:g}")
    arr, scalar = _as_array(x, complex)
    if np.any(arr.real <= 0.0):
        raise DomainError("bessel_k requires Re x > 0")
    nu = nu if nu.imag else nu.real              # a real order keeps float arithmetic
    nu = -nu if nu.real < 0.0 else nu
    n = round(nu.real)
    real = arr.imag == 0.0
    falls = nu.imag * np.angle(arr) < -0.5 * math.pi     # never at a real x
    out = np.empty(arr.shape, dtype=complex)
    for sel, x, k in ((real, arr.real, n), (~real & ~falls, arr, n), (falls, arr, 0)):
        if np.any(sel):
            out[sel] = _k_climb(nu - k, k, x[sel])
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Exponential and logarithmic integrals
# ---------------------------------------------------------------------------

# The private helpers take arrays, and an array call gives every point
# its scalar value: `_e1_cf` runs to a fixed depth, `_ei_positive_series`
# reads each point's sum at its own stop, and the terms that `_e1_series` and
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
    # e^w E1(w) = 1/(w+1 - 1^2/(w+3 - 2^2/(w+5 - ...))) for w >= 1, summed
    # backward from depth 100, as Steed's continued fractions are: at w = 1,
    # the slowest point, 80 levels leave 5.8e-15 and 100 leave 2.7e-16.
    t = np.zeros_like(w)
    for k in range(100, 0, -1):
        t = k * k / (w + (2 * k + 1) - t)
    return 1.0 / (w + 1.0 - t)


def exp_integral_e1_scaled(w):
    """e^w E1(w) for w > 0; broadcasts over arrays of w."""
    arr, scalar = _as_array(w)
    if np.any(arr <= 0.0):
        raise DomainError("E1 requires w > 0")
    out = np.piecewise(arr, [arr <= 1.0],
                       [lambda v: np.exp(v) * _e1_series(v), _e1_cf])
    return float(out[0]) if scalar else out


def _ei_positive_series(y: np.ndarray) -> np.ndarray:
    # Ei(y) = gamma + ln y + sum_k y^k/(k k!), 0 < y <= 50, read at each
    # point's first k > y whose term is below 1e-18 of the sum; 2.5 y + 30
    # terms pass every such k.
    k = np.arange(1.0, min(int(2.5 * float(np.max(y))) + 31, 400))
    terms = np.cumprod(y[:, None] / k, axis=1) / k
    out = np.cumsum(np.c_[EULER_GAMMA + np.log(y), terms], axis=1)[:, 1:]
    done = (terms < 1e-18 * np.abs(out)) & (k > y[:, None])
    return out[np.arange(y.size), np.where(done.any(axis=1), done.argmax(axis=1), k.size - 1)]


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
    arr, scalar = _as_array(y)
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
