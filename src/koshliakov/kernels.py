"""The Koshliakov kernel, its integral transform, reciprocal pairs, and
the Z / Theta / Omega / lambda family feeding the identity verifiers.

Kernel conventions (both appear in the literature and differ by a
substitution): the named kernel uses order z, argument 4 sqrt(x) and
half-angle trig weights; the transform kernel uses order 2z, argument
2 sqrt(xt) and full-angle weights.  The transform of t -> K_z(t) under
the latter reproduces K_z(x) exactly, which the test-suite checks.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import arith, quadrature   # head/tail rules via the module, so wrappers see them
from .errors import ConvergenceError, DecayError, DomainError
from .quadrature import QuadratureResult, QuadratureSpec, integrate_half_line
from .specfun import (_EM_COEF, _bessel_jy, _e1_minus_ei_scaled, _exp_slope, _hurwitz_em,
                      _pole_quotient, _real_order, bessel_k, bessel_k_scaled, gamma, riemann_zeta)

# The kernels hand their Hurwitz points to specfun._hurwitz_em, the array
# core of hurwitz_zeta, one array per call.  perfbench/trace_child.py keys
# each hurwitz_zeta call on one scalar a, so this work is charged to the
# calling kernel's span.


def _check_z(z) -> complex:
    """z as a complex number in the strip |Re z| < 1 of Omega and of the
    Xi-pair, Hurwitz and Omega identities; z = 0 is a point of it like any
    other."""
    z = complex(z)
    if not abs(z.real) < 1.0:
        raise DomainError("|Re z| < 1 required")
    return z


def _kernel(nu: float, v):
    """cos(pi nu/2) M_nu(v) - sin(pi nu/2) J_nu(v), with J and Y from one
    call; bessel_k's domain check (|nu| <= 30, v > 0) covers J's and Y's."""
    k = bessel_k(nu, v).real
    j, y = _bessel_jy(nu, np.atleast_1d(np.asarray(v, dtype=float)))
    out = (math.cos(0.5 * math.pi * nu) * ((2.0 / math.pi) * k - y)
           - math.sin(0.5 * math.pi * nu) * j)
    return float(out[0]) if np.ndim(v) == 0 else out


def _k_envelope(nu, c: float) -> tuple:
    """(A, -1/2, c) with |K_nu(c t)| <= A t^{-1/2} e^{-ct} for t >= 1, c > 0:
    |K_nu| <= K_r with r = |Re nu| (DLMF 10.32.9), and sqrt(x) e^x K_r(x)
    falls with x for r >= 1/2 and rises to sqrt(pi/2) for r < 1/2
    (DLMF 10.32.8), so A is the larger of e^c K_r(c) and sqrt(pi/(2c))."""
    r = abs(complex(nu).real)
    return max(bessel_k_scaled(r, c).real, math.sqrt(0.5 * math.pi / c)), -0.5, c


def koshliakov_kernel(z, x):
    """cos(pi z/2) M_z(4 sqrt(x)) - sin(pi z/2) J_z(4 sqrt(x))."""
    return _kernel(_real_order(z), 4.0 * np.sqrt(np.asarray(x, dtype=float)))


def transform_kernel(z, v):
    """cos(pi z) M_{2z}(v) - sin(pi z) J_{2z}(v): the first-transform kernel
    evaluated at a precomputed argument v."""
    return _kernel(2.0 * _real_order(z), v)


def first_koshliakov_transform(g, z, x: float, envelope: tuple | None,
                               spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integral of g(t) against the transform kernel at argument 2 sqrt(xt).

    g must accept an array of t > 0, with |g(t)| <= A t^p e^{-bt} for
    t >= 1, envelope = (A, p, b).  The kernel grows like |log t| toward 0,
    which the half-line rule's singular-endpoint head absorbs.  For t >= 1
    it is at most (2/pi) |cos pi z| K_{2z}(v0) + (|cos pi z| + |sin pi z|)
    sqrt(J^2 + Y^2)(v0), v0 = 2 sqrt(x): K (real order) and Nicholson's
    J^2 + Y^2 (DLMF 10.9.30, Watson 13.74) fall with the argument.  With
    envelope None, for a g that decays like a power, the singular head runs
    to t = 25 and the oscillating rest goes by half-periods pi/(2 sqrt x) of
    the kernel in u = sqrt(t).
    """
    zr = _real_order(z)
    if not abs(zr) < 0.5:
        raise DomainError("first Koshliakov transform needs |Re z| < 1/2")
    if x <= 0.0:
        raise DomainError("transform argument x must be positive")
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(g(t)) * transform_kernel(zr, 2.0 * np.sqrt(x * t))

    if envelope is None:
        head = quadrature.integrate_singular_head(integrand, 25.0, spec)
        tail = quadrature.integrate_alternating_tail(
            lambda u: 2.0 * u * np.asarray(g(u * u)) * transform_kernel(zr, 2.0 * u * math.sqrt(x)),
            5.0, math.pi / (2.0 * math.sqrt(x)))
        return QuadratureResult(head.value + tail.value, head.err_estimate + tail.err_estimate,
                                head.nodes_used + tail.nodes_used)
    v0 = 2.0 * math.sqrt(x)
    (j,), (y,) = _bessel_jy(2.0 * zr, np.array([v0]))
    cos, sin = abs(math.cos(math.pi * zr)), abs(math.sin(math.pi * zr))
    kernel = (2.0 / math.pi) * cos * bessel_k(2.0 * zr, v0).real + (cos + sin) * math.hypot(j, y)
    A, p, b = envelope
    return integrate_half_line(integrand, (A * kernel, p, b), spec)


class ReciprocalPair(NamedTuple):
    """A (phi, psi) pair reciprocal under the factor-2 kernel convention.

    phi and psi map (x: positive array or scalar, z) to values.  The pair
    is reciprocal where the first transform is defined (real z, |Re z| <
    1/2); phi and psi may refuse more, as the Dixon-Ferrar pair's refuse
    every z but 0.  phi_envelope(z) gives (A, p, b) with |phi(t, z)| <=
    A t^p e^{-bt} for t >= 1; psi_envelope likewise, or None where psi has
    no exponential envelope.  Z_closed, when present, gives the closed
    form of the shared normalized Mellin transform.
    """

    phi: Callable
    psi: Callable
    label: str
    phi_envelope: Callable
    psi_envelope: Optional[Callable]
    Z_closed: Optional[Callable] = None


def pair_k_bessel(alpha: float) -> ReciprocalPair:
    """phi = K_z(2 alpha x), psi = beta K_z(2 beta x) with beta = 1/alpha."""
    alpha = float(alpha)
    if alpha <= 0.0:
        raise DomainError("pair_k_bessel requires alpha > 0")
    beta = 1.0 / alpha
    log_a = math.log(alpha)

    def phi(x, z):
        return bessel_k(z, 2.0 * alpha * np.asarray(x, dtype=float))

    def psi(x, z):
        return beta * bessel_k(z, 2.0 * beta * np.asarray(x, dtype=float))

    def z_closed(s, z):
        s = complex(s)
        return (cmath.exp(-s * log_a) + cmath.exp((s - 1.0) * log_a)) / 4.0

    def psi_envelope(z):
        A, p, b = _k_envelope(z, 2.0 * beta)
        return beta * A, p, b

    return ReciprocalPair(phi=phi, psi=psi, label=f"k-bessel(alpha={alpha:g})",
                          phi_envelope=lambda z: _k_envelope(z, 2.0 * alpha),
                          psi_envelope=psi_envelope, Z_closed=z_closed)


def _df_psi(x):
    """-(2/pi)(e^{4x} li(e^{-4x}) + e^{-4x} li(e^{4x})), fully scaled so no
    exponential is ever formed; decays like -1/(4 pi x^2).

    With w = 4x it is (2/pi)(e^w E1(w) - e^{-w} Ei(w)).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    out = (2.0 / math.pi) * _e1_minus_ei_scaled(4.0 * np.atleast_1d(arr))
    return float(out[0]) if scalar else out


def pair_dixon_ferrar() -> ReciprocalPair:
    """The z=0 pair (e^{-x}, -(2/pi)(e^{4x} li(e^{-4x}) + e^{-4x} li(e^{4x})));
    psi decays like a power, so it has no exponential envelope."""

    def check(z):
        if complex(z) != 0.0:
            raise DomainError("the Dixon-Ferrar pair is defined at z=0 only")

    def phi(x, z):
        check(z)
        return np.exp(-np.asarray(x, dtype=float))

    def psi(x, z):
        check(z)
        return _df_psi(x)

    return ReciprocalPair(phi=phi, psi=psi, label="dixon-ferrar",
                          phi_envelope=lambda z: (1.0, 0.0, 1.0), psi_envelope=None)


def theta_eval(pair: ReciprocalPair, x, z):
    """Theta(x, z) = phi(x, z) + psi(x, z)."""
    return pair.phi(x, z) + pair.psi(x, z)


def pair_Z_numeric(pair: ReciprocalPair, s, z) -> complex:
    """Mellin(Theta)(s) / (Gamma((s-z)/2) Gamma((s+z)/2)), Theta = phi + psi:
    for t >= 1, |x^{s-1} Theta| <= (A1 + A2) t^{max(p1, p2) + Re s - 1}
    e^{-min(b1, b2) t} by the pair's envelopes; DecayError for a psi
    without an exponential envelope."""
    z = complex(z)
    s = complex(s)
    if s.real <= abs(z.real) + 1e-9:
        raise DomainError(
            f"Mellin strip needs Re s > |Re z|; got Re s = {s.real}, Re z = {z.real}")
    if pair.psi_envelope is None:
        raise DecayError(f"the {pair.label} pair's psi has no exponential envelope")
    (A1, p1, b1), (A2, p2, b2) = pair.phi_envelope(z), pair.psi_envelope(z)
    r = integrate_half_line(lambda x: np.power(x, s - 1.0) * theta_eval(pair, x, z),
                            (A1 + A2, max(p1, p2) + s.real - 1.0, min(b1, b2)),
                            QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))
    return r.value / (gamma(0.5 * (s - z)) * gamma(0.5 * (s + z)))


# ---------------------------------------------------------------------------
# Omega
# ---------------------------------------------------------------------------

_OMEGA_ROT = cmath.exp(0.25j * math.pi)          # e^{i pi/4}


# Partial fractions carry an absolute error near 5e-16 from four cancelling
# O(1) pieces, while Omega decays like exp(-2 sqrt(2) pi sqrt(x)): against
# the 40-digit oracle they read 6e-4 relative at x = 10, the definition
# 1.6e-15.  Below x = 1/4 the definition would need more than 92 terms;
# partial fractions read about 1e-13 there for |Re z| <= 0.9, and lose more
# toward |Re z| = 1, where a pole pair cancels between their pieces
# (tools/accuracy_map.py).
_OMEGA_SWITCH = 0.25


def _omega_definition(x: float, z: complex) -> complex:
    """2 sum sigma_{-z}(n) n^{z/2} (e^{i pi z/4} K_z(4 pi e^{i pi/4} sqrt(nx))
    + e^{-i pi z/4} K_z(4 pi e^{-i pi/4} sqrt(nx))); terms die like
    exp(-2 sqrt(2) pi sqrt(nx)).  At real z the two K terms are complex
    conjugates, so the pair is 2 Re of the first and the sum is real."""
    n_eff = max(6, math.ceil(22.0 / x) + 4)
    n = np.arange(1, n_eff + 1, dtype=float)
    sig = arith.build_table(-z, n_eff)
    w = 4.0 * math.pi * np.sqrt(n * x) * _OMEGA_ROT
    # K first: it refuses |Im z| > 5 before the phase can overflow.
    k = bessel_k(z, w if z.imag == 0.0 else np.concatenate([w, np.conj(w)]))
    rot = cmath.exp(0.25j * math.pi * z)
    if z.imag == 0.0:
        pair = 2.0 * (rot * k).real
    else:
        kp, km = np.split(k, 2)
        pair = rot * kp + km / rot
    return complex(np.sum(2.0 * sig * np.power(n, 0.5 * z) * pair))


def _omega_bound(z: complex, Y: float = 1.0) -> float:
    """M with |Omega(x, z)| <= M (Y/x)^{1/4} e^{-k (sqrt x - sqrt Y)} <= M
    for x >= Y >= 1, k = 2 sqrt(2) pi, from the defining K-series:
    |sigma_{-z}(n)| <= n^{1+|Re z|}, the two phases are at most
    2 cosh(pi Im z/4), and |K_z(w)| <= K_{|Re z|}(Re w) (DLMF 10.32.9), Re w
    = k sqrt(nx), under _k_envelope; so term n is at most
    4 cosh(pi Im z/4) A n^a x^{-1/4} e^{-k sqrt(nx)}, a = 3/4 + |Re z| +
    Re z/2, and n^a e^{-k sqrt(nx)} <= e^{-k sqrt x} n^a e^{-k sqrt Y (sqrt n
    - 1)}.  Past n = 1 these sum to at most their integral from 1,
    2 int_1^inf u^{2a+1} e^{-k sqrt Y (u - 1)} du <= 2/(k sqrt Y - 2a - 1)."""
    k = 2.0 * math.sqrt(2.0) * math.pi
    kY = k * math.sqrt(Y)
    a = 0.75 + abs(z.real) + 0.5 * z.real
    series = Y ** -0.25 * math.exp(-kY) * (1.0 + 2.0 / (kY - 2.0 * a - 1.0))
    return 4.0 * math.cosh(0.25 * math.pi * z.imag) * _k_envelope(z, k)[0] * series


@functools.lru_cache(maxsize=4)          # a sweep holds z fixed
def _omega_plan(z: complex, N: int) -> np.ndarray:
    """sigma_{-z}(1..N), read-only: the first N weights of _divisor_sum's
    two callers, partial-fraction Omega and the divisor-K series."""
    sig = arith.build_table(-z, N)
    sig.flags.writeable = False
    return sig


@functools.lru_cache(maxsize=256)
def _divisor_tail_moment(z: complex, N: int, j: int) -> complex:
    """d_j = sum_{n>N} sigma_{-z}(n) n^{-2j-2}, the coefficients of the one
    caller's (_divisor_sum's) n > N series, from Hurwitz-zeta tails by
    sigma's Dirichlet convolution,
        d_j = sum_{d<=N} d^{-s-z} zeta(s, floor(N/d)+1)
              + zeta(s) zeta(s+z, N+1),    s = 2j+2.
    Differencing zeta(s) zeta(s+z) against a partial sum instead leaves
    only roundoff for j >= 2, which y2^j then amplifies without bound.
    """
    n = np.arange(1, N + 1, dtype=float)
    uniq, inverse = np.unique(N // np.arange(1, N + 1), return_inverse=True)
    s = 2 * j + 2
    # One Hurwitz call: zeta(s, m+1) at the distinct m, zeta(s), zeta(s+z, N+1).
    hz = _hurwitz_em(np.r_[np.full(uniq.size + 1, s), s + z], np.r_[uniq + 1.0, 1.0, N + 1.0])
    return np.sum(n ** (-s - z) * hz[inverse]) + hz[-2] * hz[-1]


def _divisor_sum(y2: np.ndarray, z: complex, N: int, weights: np.ndarray, expo) -> np.ndarray:
    """sum_{n>=1} w_n (n^2 + y2)^expo at each y2 >= 0, for the weights
    w_n = sigma_{-z}(n) n^{-2-2 expo}, whose first N are given: n <= N
    directly, row by row (a point's bits do not depend on its array) in
    blocks of 32 points; n > N as sum_j binom(expo, j) y2^j d_j in the
    tail moments d_j, until each term is below 1e-19 of the direct sum.
    That series converges geometrically in y2/(N+1)^2 and stalls
    (ConvergenceError) from (N+1)^2 on; at expo = -1 binom is exactly +-1.
    """
    n2 = np.arange(1, N + 1, dtype=float) ** 2
    direct = np.concatenate([np.sum(weights / (n2 + yb[:, None]) ** -expo, axis=1)
                             for yb in np.split(y2, range(32, y2.size, 32))])
    tail = np.zeros_like(y2, dtype=complex)
    binom = 1.0                     # binom(expo, j), by product recursion
    for j in range(61):
        piece = binom * y2 ** j * _divisor_tail_moment(z, N, j)
        tail += piece
        if np.all(np.abs(piece) <= 1e-19 * np.maximum(np.abs(direct), 1e-30)):
            return direct + tail
        binom *= (expo - j) / (j + 1.0)
    raise ConvergenceError(f"divisor-sum moment series stalled: y2 near (N+1)^2 = {(N + 1) ** 2}")


def _omega_pf(x: np.ndarray, z: complex, n_terms: int) -> np.ndarray:
    """Partial-fraction omega_combination, vectorized over x < n_terms + 1:
    sum sigma_{-z}(n)/(n^2 + x^2) is _divisor_sum's at expo = -1, its n > N
    tail restored by the moment series (a bare truncation at the default N
    would strand the cross-mode agreement near 1e-7).  The pole pieces
    -Gamma(z) zeta(z) (2 pi sqrt x)^{-z} - zeta(1+z) x^{z/2}/2 are
    (R - P)/(2z) with P = zeta*(1+z) x^{z/2} and R = zeta*(1-z) sec(pi z/2)
    x^{-z/2} (specfun._pole_quotient): z = 0 is no exception.
    """
    if float(np.max(x)) >= n_terms + 1.0:
        raise DomainError("partial fractions need x < n_terms + 1")
    s_all = _divisor_sum(x ** 2, z, n_terms, _omega_plan(z, n_terms), -1.0)
    lx = 0.5 * np.log(x)
    return -0.5 * _pole_quotient(z, lx, -lx)[0] + np.power(x, 0.5 * z + 1.0) * s_all / math.pi


def _positive_x(x, name: str):
    """x as a float array (at least 1-D) and whether it was a scalar."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError(f"{name} requires x > 0")
    return np.atleast_1d(arr), arr.ndim == 0


def omega(x, z):
    """Omega(x, z) for x > 0 and |Re z| < 1, each point from the form that
    is accurate there (_OMEGA_SWITCH): partial fractions below x = 1/4,
    through one formula at every z, 0 included (_omega_pf); the defining
    K-series from 1/4 up."""
    z = _check_z(z)
    arr, scalar = _positive_x(x, "omega")
    out = np.empty(arr.shape, dtype=complex)
    low = arr < _OMEGA_SWITCH
    if low.any():
        xl = arr[low]
        out[low] = _omega_pf(xl, z, 500) + riemann_zeta(z) * xl ** (0.5 * z - 1.0) / (2 * math.pi)
    out[~low] = [_omega_definition(float(t), z) for t in arr[~low]]
    return complex(out[0]) if scalar else out


def omega_combination(x, z, n_terms: int = 500):
    """Omega(x,z) - zeta(z) x^{z/2-1} / (2 pi): the self-reciprocal
    combination; partial-fraction based with the pole term dropped
    analytically, vectorized over x.  Its pole pieces round to within a
    few ulps of k (x^{Re z/2} + x^{-Re z/2}), k = _omega_roundoff(z)."""
    z = _check_z(z)
    arr, scalar = _positive_x(x, "omega_combination")
    out = _omega_pf(arr, z, n_terms)
    return complex(out[0]) if scalar else out


def _omega_roundoff(z: complex) -> float:
    """k of omega_combination's roundoff rule: half the roundoff scale of
    _omega_pf's pole quotient at x = 1."""
    return 0.5 * float(_pole_quotient(z, 0.0, 0.0)[1])


# ---------------------------------------------------------------------------
# lambda and its tail-corrected sums
# ---------------------------------------------------------------------------

def lambda_fn(x, z):
    """lambda(x, z) = zeta(z+1, x) - x^{-z}/z - x^{-z-1}/2, log x - psi(x) -
    1/(2x) at z = 0, from one specfun._hurwitz_em call; decays like x^{-Re z - 2}."""
    z = complex(z)
    arr, scalar = _positive_x(x, "lambda_fn")
    out = _hurwitz_em(z + 1.0, arr, True)[0]
    return complex(out[0]) if scalar else out


def _lambda_antiderivative_tail(U: np.ndarray, z: complex):
    """Integral of lambda(v, z) over [U, inf), lambda(U, z - 1)/z, at an
    array of U, and the sum of its pieces' magnitudes: Euler-Maclaurin for
    zeta(z, U) cut at A = U + M >= 20 per point, with each v^{-z} written
    as 1 + z e(v), e(v) = (v^{-z} - 1)/z, so the pieces constant in z
    cancel exactly and leave, finite at z = 0,
        (M + A e(A) - U e(U))/(z - 1) + the trapezoid sum of e over U..A
        + sum_{k<=8} B_2k/(2k)! (z+1)_{2k-2} A^{1-z-2k}   (k = 9: < 1e-20)."""
    M = np.ceil(np.maximum(20.0 - U, 0.0))
    rows, n = np.arange(U.size), M.astype(int)
    e = _exp_slope(-np.log(np.add.outer(U, np.arange(n.max() + 1.0))), z)
    A, eA, eU = U + M, e[rows, n], e[:, 0]
    poch = np.cumprod(np.r_[1.0, z + np.arange(1.0, 15.0)])[::2]
    tail = np.power(A, 1.0 - z) * np.sum(_EM_COEF[:8] * poch
                                         * np.power.outer(A, -2.0 * np.arange(1.0, 9.0)), axis=1)
    ends = (M + A * eA - U * eU) / (z - 1.0)
    value = ends + np.cumsum(e, axis=1)[rows, n] - 0.5 * (eU + eA) + tail
    # At M = 0 the ends and the trapezoid sum cancel exactly (A is U).
    mag = ((M + np.abs(A * eA) + np.abs(U * eU)) / abs(z - 1.0)
           + np.cumsum(np.abs(e), axis=1)[rows, n]) * (M > 0) + np.abs(tail)
    return value, mag


def lambda_sum(alpha, z, n_terms: int):
    """sum_{n>=1} lambda(n alpha, z) at a scalar alpha or an array of them,
    as (value, residual_bound, magnitude), each a scalar or an array like
    alpha.  The magnitude sums the magnitudes of every piece added, the
    scale of the roundoff: lambda's pieces cancel.

    The first n_terms terms are summed directly, from lambda evaluated
    once at the distinct points n alpha of the whole grid; the rest by
    Euler-Maclaurin through the closed antiderivative and the derivative
    recursion lambda'(v, z) = -(z+1) lambda(v, z+1), one lambda call per
    order at U = (n_terms + 1) alpha.  Plain truncation decays only like
    N^{-Re z - 1} and cannot reach the verification tolerances at small
    term counts such as N=10.
    """
    z = complex(z)
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    N = max(int(n_terms), 1)
    points = np.multiply.outer(alpha, np.arange(1, N + 1, dtype=float))
    uniq, inverse = np.unique(points, return_inverse=True)
    head, head_mag = (np.sum(v[inverse].reshape(points.shape), axis=1)
                      for v in _hurwitz_em(z + 1.0, uniq, True))
    U = (N + 1.0) * alpha
    integral, int_mag = _lambda_antiderivative_tail(U, z)
    (f_a, mag0), (l1, mag1), (l3, mag3), (l5, _) = (_hurwitz_em(z + k, U, True)
                                                    for k in (1.0, 2.0, 4.0, 6.0))
    d1 = alpha * (z + 1.0)                       # f'(a) = -d1 lambda(U, z+1)
    d3 = alpha ** 3 * (z + 1.0) * (z + 2.0) * (z + 3.0)
    tail = integral / alpha + 0.5 * f_a + d1 * l1 / 12.0 - d3 * l3 / 720.0
    resid = np.abs(alpha ** 5 * (z + 1.0) * (z + 2.0) * (z + 3.0) * (z + 4.0)
                   * (z + 5.0) * l5) / 30240.0
    mag = (head_mag + int_mag / alpha + 0.5 * mag0 + np.abs(d1) * mag1 / 12.0
           + np.abs(d3) * mag3 / 720.0)
    if scalar:
        return complex(head[0] + tail[0]), float(resid[0]), float(mag[0])
    return head + tail, resid, mag
