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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import arith
from .errors import ConvergenceError, DecayError, DomainError, NearPoleError
from .quadrature import QuadratureResult, QuadratureSpec, integrate_half_line
from .specfun import (EULER_GAMMA, _bessel_jy, _e1_minus_ei_scaled, _hurwitz_em,
                      bessel_k, bessel_y, digamma, gamma, riemann_zeta)

# The kernels hand their Hurwitz points to specfun._hurwitz_em, the array
# core of hurwitz_zeta, one array per call.  perfbench/trace_child.py keys
# each hurwitz_zeta call on one scalar a, so this work is charged to the
# calling kernel's span.


def _require_real_order(z) -> float:
    z = complex(z)
    if z.imag != 0.0:
        raise DomainError("kernel orders must be real (Y is real-order only)")
    return z.real


def kernel_m(z, x):
    """M_z(x) = (2/pi) K_z(x) - Y_z(x) for real order z and x > 0."""
    zr = _require_real_order(z)
    return (2.0 / math.pi) * bessel_k(zr, x).real - bessel_y(zr, x)


def _kernel(nu: float, v):
    """cos(pi nu/2) M_nu(v) - sin(pi nu/2) J_nu(v), with J and Y from one
    call; bessel_k's domain check (|nu| <= 30, v > 0) covers J's and Y's."""
    k = bessel_k(nu, v).real
    j, y = _bessel_jy(nu, np.atleast_1d(np.asarray(v, dtype=float)))
    out = (math.cos(0.5 * math.pi * nu) * ((2.0 / math.pi) * k - y)
           - math.sin(0.5 * math.pi * nu) * j)
    return float(out[0]) if np.ndim(v) == 0 else out


def koshliakov_kernel(z, x):
    """cos(pi z/2) M_z(4 sqrt(x)) - sin(pi z/2) J_z(4 sqrt(x))."""
    return _kernel(_require_real_order(z), 4.0 * np.sqrt(np.asarray(x, dtype=float)))


def transform_kernel(z, v):
    """cos(pi z) M_{2z}(v) - sin(pi z) J_{2z}(v): the first-transform kernel
    evaluated at a precomputed argument v."""
    return _kernel(2.0 * _require_real_order(z), v)


def first_koshliakov_transform(g, z, x: float,
                               spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integral of g(t) against the transform kernel at argument 2 sqrt(xt).

    g must accept an array of t > 0 and decay exponentially.  The kernel
    grows like |log t| toward 0, which the half-line rule's singular-
    endpoint head absorbs; the tail rate is 0.9 times the log-slope of |g|
    from t=2 to t=6, and the half-line rule checks its envelope.
    """
    zr = _require_real_order(z)
    if abs(zr) >= 0.5:
        raise DomainError("first Koshliakov transform needs |z| < 1/2")
    if x <= 0.0:
        raise DomainError("transform argument x must be positive")
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(g(t)) * transform_kernel(zr, 2.0 * np.sqrt(x * t))

    a, b = np.abs(np.asarray(g(np.array([2.0, 6.0])))).tolist()
    slope = math.log(max(a, 1e-300) / max(b, 1e-300)) / 4.0
    return integrate_half_line(integrand, min(max(0.9 * slope, 0.15), 12.0), spec)


@dataclass(frozen=True)
class ReciprocalPair:
    """A (phi, psi) pair reciprocal under the factor-2 kernel convention.

    phi and psi map (x: positive array or scalar, z) to values; z_domain
    bounds Re z; Z_closed, when present, gives the closed form of the
    shared normalized Mellin transform.
    """

    phi: Callable
    psi: Callable
    z_domain: tuple
    label: str
    Z_closed: Optional[Callable] = None

    def check_z(self, z) -> complex:
        z = complex(z)
        lo, hi = self.z_domain
        if not lo <= z.real <= hi:
            raise DomainError(
                f"pair '{self.label}' requires Re z in [{lo}, {hi}], got {z.real}")
        return z


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

    return ReciprocalPair(phi=phi, psi=psi, z_domain=(-0.5, 0.5),
                          label=f"k-bessel(alpha={alpha:g})",
                          Z_closed=z_closed)


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
    """The z=0 pair (e^{-x}, -(2/pi)(e^{4x} li(e^{-4x}) + e^{-4x} li(e^{4x})))."""

    def check(z):
        if abs(complex(z)) > 1e-12:
            raise DomainError("the Dixon-Ferrar pair is defined at z=0 only")

    def phi(x, z):
        check(z)
        return np.exp(-np.asarray(x, dtype=float))

    def psi(x, z):
        check(z)
        return _df_psi(x)

    return ReciprocalPair(phi=phi, psi=psi, z_domain=(0.0, 0.0),
                          label="dixon-ferrar")


def theta_eval(pair: ReciprocalPair, x, z):
    """Theta(x, z) = phi(x, z) + psi(x, z)."""
    z = pair.check_z(z)
    return pair.phi(x, z) + pair.psi(x, z)


def _mellin_numeric(f, s: complex, spec: QuadratureSpec) -> complex:
    """Integral of x^{s-1} f(x) over (0, inf) for exponentially decaying f;
    the tail rate is fitted from samples at x=4 and x=8, and the half-line
    rule checks it."""

    def integrand(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, s - 1.0) * np.asarray(f(x))

    a, b = np.abs(np.asarray(integrand(np.array([4.0, 8.0])))).tolist()
    if not b <= 0.125 * a:
        raise DecayError(
            f"Mellin integrand is not exponentially decaying: |x^(s-1) f| is "
            f"{a:.3g} at x=4 and {b:.3g} at x=8")
    rate = min(max(math.log(a / b) / 4.0, 0.15), 12.0) if b > 0.0 else 12.0
    return integrate_half_line(integrand, rate, spec).value


def pair_Z_numeric(pair: ReciprocalPair, s, z) -> complex:
    """(Mellin(phi) + Mellin(psi))(s) / (Gamma((s-z)/2) Gamma((s+z)/2))."""
    z = pair.check_z(z)
    s = complex(s)
    if s.real <= abs(z.real) + 1e-9:
        raise DomainError(
            f"Mellin strip needs Re s > |Re z|; got Re s = {s.real}, Re z = {z.real}")
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    total = (_mellin_numeric(lambda x: pair.phi(x, z), s, spec)
             + _mellin_numeric(lambda x: pair.psi(x, z), s, spec))
    return total / (gamma(0.5 * (s - z)) * gamma(0.5 * (s + z)))


# ---------------------------------------------------------------------------
# Omega
# ---------------------------------------------------------------------------

_OMEGA_ROT = cmath.exp(0.25j * math.pi)          # e^{i pi/4}


def _omega_definition(x: float, z: complex, n_terms: int) -> complex:
    """2 sum sigma_{-z}(n) n^{z/2} (e^{i pi z/4} K_z(4 pi e^{i pi/4} sqrt(nx))
    + e^{-i pi z/4} K_z(4 pi e^{-i pi/4} sqrt(nx))); terms die like
    exp(-2 sqrt(2) pi sqrt(nx))."""
    n_eff = min(n_terms, max(6, math.ceil(22.0 / x) + 4))
    n = np.arange(1, n_eff + 1, dtype=float)
    sig = arith.build_table(-z, n_eff)
    root = 4.0 * math.pi * np.sqrt(n * x)
    kp, km = np.split(bessel_k(z, np.concatenate([root * _OMEGA_ROT,
                                                  root * np.conj(_OMEGA_ROT)])), 2)
    rot = cmath.exp(0.25j * math.pi * z)
    terms = 2.0 * sig * np.power(n, 0.5 * z) * (rot * kp + km / rot)
    return complex(np.sum(terms))


def omega_definition_term(x: float, z: complex, n: int) -> complex:
    """A single term of the defining K-series (diagnostics and tests)."""
    root = 4.0 * math.pi * math.sqrt(n * x)
    rot = cmath.exp(0.25j * math.pi * complex(z))
    kp = bessel_k(z, root * _OMEGA_ROT)
    km = bessel_k(z, root * np.conj(_OMEGA_ROT))
    return 2.0 * arith.sigma(-complex(z), n) * n ** (0.5 * complex(z)) * (rot * kp + km / rot)


@dataclass(frozen=True)
class _OmegaPlan:
    """The x-independent pieces of partial-fraction Omega at (z, N):
    sigma_{-z}(1..N) (read-only), Gamma(z) zeta(z), zeta(z), zeta(z+1)."""

    sigma: np.ndarray = field(repr=False)
    gamma_zeta: complex
    zeta_z: complex
    zeta_z1: complex


# A process needs at most two plans at a time (z = 0 averages the plans at
# z = +-1e-4, and a sweep holds z fixed), each with at most 61 moments.
@functools.lru_cache(maxsize=4)
def _omega_plan(z: complex, N: int) -> _OmegaPlan:
    sig = arith.build_table(-z, N)
    sig.flags.writeable = False
    zeta_z = riemann_zeta(z)
    return _OmegaPlan(sigma=sig, gamma_zeta=gamma(z) * zeta_z, zeta_z=zeta_z,
                      zeta_z1=riemann_zeta(z + 1.0))


@functools.lru_cache(maxsize=256)
def _divisor_tail_moment(z: complex, N: int, j: int) -> complex:
    """d_j = sum_{n>N} sigma_{-z}(n) n^{-2j-2}, assembled from Hurwitz-zeta
    tails through sigma's Dirichlet convolution,
        d_j = sum_{d<=N} d^{-s-z} zeta(s, floor(N/d)+1)
              + zeta(s) zeta(s+z, N+1),    s = 2j+2.
    Differencing zeta(s) zeta(s+z) against a partial sum instead leaves
    only roundoff for j >= 2, which x^{2j} then amplifies without bound.
    Partial-fraction Omega and the n > N remainder of the divisor-K
    series in identities both take their divisor tails from here.
    """
    n = np.arange(1, N + 1, dtype=float)
    uniq, inverse = np.unique(N // np.arange(1, N + 1), return_inverse=True)
    s = 2 * j + 2
    # One Hurwitz call: zeta(s, m+1) at the distinct m, zeta(s), zeta(s+z, N+1).
    hz = _hurwitz_em(np.r_[np.full(uniq.size + 1, s), s + z], np.r_[uniq + 1.0, 1.0, N + 1.0])
    return np.sum(n ** (-s - z) * hz[inverse]) + hz[-2] * hz[-1]


def _omega_pf_array(x: np.ndarray, z: complex, n_terms: int,
                    include_pole_term: bool = True) -> np.ndarray:
    """Partial-fraction form, vectorized over x; requires max(x) < N+1.

    The n > N remainder is restored analytically through the moments
    d_j of _divisor_tail_moment, whose alternating series in x^{2j}
    converges geometrically in (x/(N+1))^2; a bare truncation at the default N
    would strand the cross-mode agreement near 1e-7.  Everything that
    does not depend on x comes from the (z, N) plan and moment caches.
    """
    N = n_terms
    if float(np.max(x)) >= N + 1.0:
        raise DomainError("partial-fraction mode needs x < N + 1")
    plan = _omega_plan(z, N)
    n2 = np.arange(1, N + 1, dtype=float) ** 2
    # The (points x N) direct sum in blocks of 32 points bounds the memory.
    s_direct = np.concatenate([np.sum(plan.sigma / (n2 + xb[:, None] ** 2), axis=1)
                               for xb in np.split(x, range(32, x.size, 32))])

    # Moment tail.
    s_tail = np.zeros_like(x, dtype=complex)
    x2 = x ** 2
    converged = False
    for j in range(0, 61):
        piece = (-1.0) ** j * x2 ** j * _divisor_tail_moment(z, N, j)
        s_tail += piece
        if np.all(np.abs(piece) <= 1e-19 * np.maximum(np.abs(s_direct), 1e-30)):
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            "partial-fraction moment tail stalled; raise n_terms above 2x")
    s_all = s_direct + s_tail

    half = 0.5 * z
    a = -plan.gamma_zeta * np.power(2.0 * math.pi * np.sqrt(x), -z)
    c = -plan.zeta_z1 * np.power(x, half) / 2.0
    out = a + c + np.power(x, half + 1.0) * s_all / math.pi
    if include_pole_term:
        # The zeta(z) x^{z/2-1} piece overflows at double-exponential nodes
        # near 0 for Re z < 0; callers that subtract it ask for it dropped
        # here instead of cancelling infinities.
        out = out + plan.zeta_z * np.power(x, half - 1.0) / (2.0 * math.pi)
    return out


def _omega_pf(x: np.ndarray, z: complex, n_terms: int,
              include_pole_term: bool) -> np.ndarray:
    """_omega_pf_array with the removable singularity at z=0 evaluated by
    averaging z = +-1e-4; orders with 0 < |z| < 1e-4 are refused."""
    if abs(z) < 1e-12:
        hi = _omega_pf_array(x, 1e-4 + 0.0j, n_terms,
                             include_pole_term=include_pole_term)
        lo = _omega_pf_array(x, -1e-4 + 0.0j, n_terms,
                             include_pole_term=include_pole_term)
        return 0.5 * (hi + lo)
    if abs(z) < 1e-4:
        raise NearPoleError(
            "partial-fraction omega is ill-conditioned for 0 < |z| < 1e-4")
    return _omega_pf_array(x, z, n_terms, include_pole_term=include_pole_term)


def omega(x, z, mode: str = "partial-fraction", n_terms: int = 500):
    """Omega(x, z) in either representation; |Re z| < 1.

    In partial-fraction mode z=0 is a removable singularity evaluated by
    averaging z = +-1e-4 (error near 1e-8 by symmetry of the pole terms),
    and orders closer to 0 than that are refused.
    """
    z = complex(z)
    if abs(z.real) >= 1.0:
        raise DomainError("omega requires |Re z| < 1")
    if n_terms < 1:
        raise DomainError("omega needs n_terms >= 1")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr <= 0.0):
        raise DomainError("omega requires x > 0")

    if mode == "definition":
        out = np.array([_omega_definition(float(t), z, n_terms) for t in arr])
    elif mode == "partial-fraction":
        out = _omega_pf(arr, z, n_terms, include_pole_term=True)
    else:
        raise DomainError(f"unknown omega mode '{mode}'")
    return complex(out[0]) if scalar else out


def omega_pf_tail_envelope(n_terms: int, z) -> float:
    """Provable envelope for sum_{n>N} sigma_{-z}(n)/(n^2 + x^2) using
    sigma_{-z}(n) <= 2 n^{1/2 + max(0, -Re z)}; valid for Re z > -1/2."""
    p = 0.5 + max(0.0, -complex(z).real)
    if p >= 1.0:
        raise DecayError("envelope inapplicable for Re z <= -1/2")
    return 2.0 * n_terms ** (p - 1.0) / (1.0 - p)


def omega_combination(x, z, n_terms: int = 500):
    """Omega(x,z) - zeta(z) x^{z/2-1} / (2 pi): the self-reciprocal
    combination; partial-fraction based with the pole term dropped
    analytically, vectorized over x."""
    z = complex(z)
    if abs(z.real) >= 1.0:
        raise DomainError("omega_combination requires |Re z| < 1")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr <= 0.0):
        raise DomainError("omega_combination requires x > 0")
    out = _omega_pf(arr, z, n_terms, include_pole_term=False)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# lambda and its tail-corrected sums
# ---------------------------------------------------------------------------

def _lambda(x: np.ndarray, z: complex):
    """lambda(x, z) at an array of x > 0 for |z| >= 1e-4, from one Hurwitz
    call, and the sum of its three pieces' magnitudes: its roundoff scale,
    since the pieces cancel to O(x^{-Re z - 2})."""
    pieces = (_hurwitz_em(z + 1.0, x), np.power(x, -z) / z, 0.5 * np.power(x, -z - 1.0))
    return pieces[0] - (pieces[1] + pieces[2]), sum(np.abs(p) for p in pieces)


def lambda_fn(x, z):
    """lambda(x, z) = zeta(z+1, x) - x^{-z}/z - x^{-z-1}/2, with the z=0
    limit log x - psi(x) - 1/(2x); decays like x^{-Re z - 2}."""
    z = complex(z)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr <= 0.0):
        raise DomainError("lambda_fn requires x > 0")
    if abs(z) < 1e-12:
        out = np.array([math.log(t) - digamma(t).real - 0.5 / t for t in arr],
                       dtype=complex)
    elif abs(z) < 1e-4:
        raise NearPoleError("lambda_fn is ill-conditioned for 0 < |z| < 1e-4")
    else:
        out = _lambda(arr, z)[0]
    return complex(out[0]) if scalar else out


def _lambda_antiderivative_tail(U: np.ndarray, z: complex):
    """Integral of lambda(v, z) over [U, inf) at an array of U, and the sum
    of its three pieces' magnitudes."""
    pieces = (_hurwitz_em(z, U) / z, np.power(U, 1.0 - z) / (z * (1.0 - z)),
              np.power(U, -z) / (2.0 * z))
    return pieces[0] + pieces[1] - pieces[2], sum(np.abs(p) for p in pieces)


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
    if abs(z) < 1e-4:
        raise NearPoleError("lambda_sum needs |z| >= 1e-4")
    scalar = np.ndim(alpha) == 0
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    N = max(int(n_terms), 1)
    points = np.multiply.outer(alpha, np.arange(1, N + 1, dtype=float))
    uniq, inverse = np.unique(points, return_inverse=True)
    head, head_mag = (np.sum(v[inverse].reshape(points.shape), axis=1) for v in _lambda(uniq, z))
    U = (N + 1.0) * alpha
    integral, int_mag = _lambda_antiderivative_tail(U, z)
    (f_a, mag0), (l1, mag1), (l3, mag3), (l5, _) = (_lambda(U, z + k) for k in (0.0, 1.0, 3.0, 5.0))
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
