"""Both sides of every verified identity, with residuals and error budgets.

Every verifier returns a VerificationReport whose budgets (quadrature error
estimates plus analytic truncation bounds) must themselves sit below the
pass tolerance: a pass is never claimed on an under-resolved computation.
Budget keys ending in "_diff" are cross-checks, not error bounds, and are
excluded from that resolution test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import arith
from .errors import DomainError, KoshliakovError, NearPoleError
from .kernels import (ReciprocalPair, first_koshliakov_transform, lambda_sum,
                      omega_combination, pair_dixon_ferrar, pair_k_bessel,
                      transform_kernel)
from .quadrature import (QuadratureSpec, integrate_finite, integrate_half_line,
                         tanh_sinh)
from .specfun import (EULER_GAMMA, bessel_j, bessel_k, big_xi, gamma,
                      riemann_zeta)

_TINY = 1e-300


@dataclass(frozen=True)
class IdentityParams:
    """Shared parameter bundle: order z, scale alpha (beta = 1/alpha),
    series truncation, and the quadrature budget."""

    z: complex = 0.5
    alpha: float = 1.0
    terms: int = 50
    spec: Optional[QuadratureSpec] = None

    def __post_init__(self):
        if not 0.25 <= self.alpha <= 4.0:
            raise DomainError("alpha must lie in [1/4, 4] (quad oscillation limit)")
        if self.terms < 1:
            raise DomainError("terms must be >= 1")

    def quad_spec(self) -> QuadratureSpec:
        return self.spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)


@dataclass(frozen=True)
class VerificationReport:
    identity_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_diff: float
    rel_diff: float
    budgets: dict
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        # numpy scalars leak in through the budget arithmetic; JSON needs
        # plain floats.
        def _py(v):
            if hasattr(v, "item") and not isinstance(v, (str, bytes)):
                v = v.item()
            if isinstance(v, complex):
                return [float(v.real), float(v.imag)]
            if isinstance(v, (list, tuple)):
                return [_py(t) for t in v]
            if isinstance(v, (bool, int, str)):
                return v
            return float(v)

        return {
            "identity": self.identity_id,
            "params": {k: _py(v) for k, v in self.params.items()},
            "lhs": [float(self.lhs.real), float(self.lhs.imag)],
            "rhs": [float(self.rhs.real), float(self.rhs.imag)],
            "abs_diff": float(self.abs_diff),
            "rel_diff": float(self.rel_diff),
            "budgets": {k: float(v) for k, v in self.budgets.items()},
            "pass": bool(self.passed),
        }


def _report(identity_id: str, params: dict, lhs: complex, rhs: complex,
            budgets: dict, tolerance: float, real_inputs: bool) -> VerificationReport:
    lhs, rhs = complex(lhs), complex(rhs)
    abs_diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_diff = abs_diff / max(scale, _TINY)
    if abs(rhs) < 1e-3:
        diff_ok = abs_diff <= tolerance
        budget_cap = tolerance
    else:
        diff_ok = rel_diff <= tolerance
        budget_cap = tolerance * max(scale, _TINY)
    budget_sum = sum(v for k, v in budgets.items() if not k.endswith("_diff"))
    resolved = budget_sum < budget_cap
    ok = diff_ok and resolved
    if real_inputs:
        for v in (lhs, rhs):
            if abs(v.imag) > 1e-10 * max(abs(v.real), _TINY):
                ok = False
    if any(k.endswith("_diff") and v > tolerance for k, v in budgets.items()):
        ok = False
    return VerificationReport(identity_id, params, lhs, rhs, abs_diff,
                              rel_diff, dict(budgets), tolerance, ok)


# ---------------------------------------------------------------------------
# Xi-pair integrals
# ---------------------------------------------------------------------------

def _xi_pair(t: np.ndarray, z: complex) -> np.ndarray:
    """Xi((t+iz)/2) Xi((t-iz)/2) elementwise."""
    out = np.empty(t.shape, dtype=complex)
    real_z = z.imag == 0.0
    for i, tv in enumerate(t):
        a = big_xi(0.5 * (tv + 1j * z))
        # For real z the two factors are conjugates.
        out[i] = a * a.conjugate() if real_z else a * big_xi(0.5 * (tv - 1j * z))
    return out


def _xi_weighted(z: complex, weight: Callable, weight_mag: Callable,
                 spec: QuadratureSpec, T: float = 60.0):
    """Integral over [0, T] of the Xi pair against weight(t), one column per
    alpha of a grid, plus a recorded bound per column for the discarded
    [T, inf) piece.

    weight(t) returns shape (nodes, m), so the Xi pair is evaluated once
    per node for the whole grid.  The paired Xi factors decay at least like
    exp(-pi t/4); weight_mag(T) must bound |weight| on [T, inf) per column
    (oscillatory factors replaced by 1).
    """

    def f(t):
        return _xi_pair(t, z)[:, None] * weight(t)

    res = integrate_finite(f, 0.0, T, spec)
    pair_T = abs(complex(_xi_pair(np.array([T]), z)[0]))
    trunc = pair_T * np.asarray(weight_mag(T), dtype=float) * (4.0 / math.pi) * 5.0
    return res, np.broadcast_to(trunc, res.value.shape)


def _grid_spec(z, alphas, terms: int, spec) -> QuadratureSpec:
    """IdentityParams' checks on every alpha of a grid; returns the grid's
    quadrature spec."""
    for alpha in alphas:
        p = IdentityParams(z, alpha, terms, spec)
    return p.quad_spec()


def _log_alphas(alphas) -> np.ndarray:
    return np.array([math.log(alpha) for alpha in alphas])


def _rows(alphas, row: Callable) -> list:
    """row(col, alpha) for every alpha of a grid.  A KoshliakovError raised by
    one row takes that row's place in the list, so it fails that row only."""
    out = []
    for col, alpha in enumerate(alphas):
        try:
            out.append(row(col, alpha))
        except KoshliakovError as exc:
            out.append(exc)
    return out


def _single(rows: list) -> "VerificationReport":
    """The report of a one-alpha grid; re-raises that alpha's error."""
    (out,) = rows
    if isinstance(out, KoshliakovError):
        raise out
    return out


# ---------------------------------------------------------------------------
# Oscillatory tails: alternating half-period segments + iterated averaging
# ---------------------------------------------------------------------------

def _euler_limit(partials: np.ndarray):
    """Limit of an alternating-tail sequence of partial sums by repeated
    adjacent averaging; returns (limit, error estimate)."""
    arr = np.asarray(partials, dtype=complex)
    if arr.size == 1:
        return complex(arr[0]), abs(complex(arr[0]))
    est_prev = complex(arr[-1])
    err = abs(est_prev)
    while arr.size > 1:
        arr = 0.5 * (arr[1:] + arr[:-1])
        est = complex(arr[-1])
        err = abs(est - est_prev)
        est_prev = est
    return est_prev, err


def _oscillatory_tail(g: Callable, u0: float, half_period: float,
                      max_segments: int = 96):
    """Integral of g over [u0, inf) for g that alternates in sign on
    consecutive half-period windows with decaying envelope."""
    seg_spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_panels=64)
    sums = []
    partial = 0.0 + 0.0j
    partials = []
    for k in range(max_segments):
        a = u0 + k * half_period
        b = a + half_period
        s = integrate_finite(g, a, b, seg_spec)
        sums.append(s.value)
        partial += s.value
        partials.append(partial)
        if abs(s.value) < 1e-17:
            return partial, abs(s.value) + 1e-17
    value, err = _euler_limit(np.array(partials[len(partials) // 3:]))
    return value, err


def _bessel_power_tail(z: float, U: float):
    """Integral of J_z(u) u^{z-1} over [U, inf) via half-period segmentation;
    the envelope u^{z-3/2} decays too slowly to truncate but alternates."""

    def g(u):
        u = np.asarray(u, dtype=float)
        return bessel_j(z, u) * np.power(u, z - 1.0)

    return _oscillatory_tail(g, U, math.pi)


# ---------------------------------------------------------------------------
# Series with certified tails
# ---------------------------------------------------------------------------

def _k_series_tail(z: complex, alpha: float, n_from: int) -> float:
    """Bound for 4 sum_{n>=n_from} |sigma_{-z}(n) n^{z/2} K_{z/2}(2 n pi alpha)|
    using sigma_{-Re z}(n) <= n^{1+|Re z|} and the K asymptotic."""
    p = 1.0 + abs(z.real) + 0.5 * z.real
    c = 2.0 * math.pi * alpha

    def term(n):
        return 4.0 * n ** p * math.sqrt(math.pi / (2.0 * c * n)) * math.exp(-c * n)

    ratio = math.exp(-c) * ((n_from + 1.0) / n_from) ** max(p - 0.5, 0.0)
    return term(n_from) / max(1.0 - ratio, 0.5)


def _k_series_terms_for(z: complex, alpha: float, target: float, floor: int) -> int:
    n = max(floor, 1)
    while n < 500 and _k_series_tail(z, alpha, n + 1) > target:
        n += 1
    return n


# Relative accuracy claimed for each piece of f_frak (Gamma, zeta, the
# powers, each K term), applied to the sum of the pieces' magnitudes, so
# cancellation among them is charged to the bound.  Against 30-digit
# mpmath over 84 (z, alpha) points the largest error was 0.38 of it.
_FRAK_ULPS = 16.0 * 2.0 ** -52


def f_frak(z: complex, alpha: float, terms: int):
    """The modular combination sqrt(alpha) (alpha^{z/2-1} pi^{-z/2} Gamma(z/2) zeta(z)
    + alpha^{-z/2-1} pi^{z/2} Gamma(-z/2) zeta(-z)
    - 4 sum sigma_{-z}(n) n^{z/2} K_{z/2}(2 n pi alpha));
    invariant under alpha -> 1/alpha.  Returns (value, tail bound,
    evaluation bound)."""
    z = complex(z)
    if abs(z) < 1e-4:
        raise NearPoleError("Gamma(z/2) pole: need |z| >= 1e-4")
    n_eff = _k_series_terms_for(z, alpha, 1e-13, terms)
    n = np.arange(1, n_eff + 1, dtype=float)
    sig = arith.build_table(-z, n_eff).slice(n_eff)
    kv = bessel_k(0.5 * z, 2.0 * math.pi * alpha * n)
    series_terms = sig * np.power(n, 0.5 * z) * kv
    series = np.sum(series_terms)
    a_term = alpha ** (0.5 * z - 1.0) * math.pi ** (-0.5 * z) * gamma(0.5 * z) * riemann_zeta(z)
    b_term = alpha ** (-0.5 * z - 1.0) * math.pi ** (0.5 * z) * gamma(-0.5 * z) * riemann_zeta(-z)
    value = math.sqrt(alpha) * (a_term + b_term - 4.0 * series)
    tail = math.sqrt(alpha) * _k_series_tail(z, alpha, n_eff + 1)
    eval_err = _FRAK_ULPS * math.sqrt(alpha) * (
        abs(a_term) + abs(b_term) + 4.0 * float(np.sum(np.abs(series_terms))))
    return value, tail, eval_err


def _hurwitz_F(z: complex, alpha: float, terms: int):
    """alpha^{(z+1)/2} (sum_n lambda(n alpha, z) - zeta(z+1)/(2 alpha^{z+1})
    - zeta(z)/(alpha z)), lambda-sum tail-corrected; returns (value, residual)."""
    z = complex(z)
    s, resid = lambda_sum(alpha, z, terms)
    pref = alpha ** (0.5 * (z + 1.0))
    value = pref * (s - riemann_zeta(z + 1.0) / (2.0 * alpha ** (z + 1.0))
                    - riemann_zeta(z) / (alpha * z))
    return value, abs(pref) * resid


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_rg_corollary(p: IdentityParams, tolerance: float = 1e-8) -> VerificationReport:
    """Xi-pair integral against cos(t log(alpha)/2)/((t^2+(z+1)^2)(t^2+(z-1)^2))
    versus the modular K-Bessel combination f_frak."""
    return _single(rg_corollary_grid(p.z, [p.alpha], p.terms, p.spec, tolerance))


def rg_corollary_grid(z, alphas, terms: int = 50,
                      spec: Optional[QuadratureSpec] = None,
                      tolerance: float = 1e-8) -> list:
    """verify_rg_corollary at every alpha of a grid, from one vector
    integral: the Xi pair and the rational factor are evaluated once per
    node, the cosine once per node and alpha.  Returns one report per
    alpha, or in its place the KoshliakovError that alpha's rhs raised."""
    spec = _grid_spec(z, alphas, terms, spec)
    z = complex(z)
    if abs(z.real) >= 1.0:
        raise DomainError("|Re z| < 1 required")
    if abs(z) < 1e-12:
        return rg_corollary_z0_grid(alphas, terms, spec, tolerance)
    if abs(z) < 1e-4:
        raise NearPoleError("z too close to 0; use the z=0 form")
    la = _log_alphas(alphas)
    zp, zm = (z + 1.0) ** 2, (z - 1.0) ** 2

    def w(t):
        return (np.cos(0.5 * np.multiply.outer(t, la))
                / ((t * t + zp) * (t * t + zm))[:, None])

    def w_mag(T):
        return 1.0 / abs((T * T + zp) * (T * T + zm))

    res, trunc = _xi_weighted(z, w, w_mag, spec)

    def row(col, alpha):
        rhs, ktail, eval_err = f_frak(z, alpha, terms)
        lhs = -(32.0 / math.pi) * complex(res.value[col])
        budgets = {"quad_err": (32.0 / math.pi) * float(res.err_estimate[col]),
                   "xi_cutoff": (32.0 / math.pi) * float(trunc[col]),
                   "series_tail": ktail, "eval_err": eval_err}
        params = {"z": [z.real, z.imag], "alpha": alpha, "terms": terms}
        return _report("rg-corollary", params, lhs, rhs, budgets, tolerance,
                       real_inputs=(z.imag == 0.0))

    return _rows(alphas, row)


def _theta_series_tail(alpha: float, n_from: int) -> float:
    """Bound for sum_{n>=n_from} d(n) Theta(pi n) with the K-pair Theta,
    using d(n) <= 2 sqrt(n)."""
    beta = 1.0 / alpha
    c = 2.0 * math.pi * min(alpha, beta)

    def term(n):
        env = math.sqrt(math.pi / (2.0 * c * n)) * math.exp(-c * n)
        return 2.0 * math.sqrt(n) * (1.0 + beta) * env

    ratio = math.exp(-c) * math.sqrt((n_from + 1.0) / n_from)
    return term(n_from) / max(1.0 - ratio, 0.5)


def verify_rg_corollary_z0(p: IdentityParams, tolerance: float = 1e-8) -> VerificationReport:
    """z=0 limit: (32/pi) Xi^2-integral with the K-pair Z weight versus
    sum d(n) Theta(pi n) minus the (Z'(1) + (gamma - log 4 pi) Z(1)) constant."""
    return _single(rg_corollary_z0_grid([p.alpha], p.terms, p.spec, tolerance))


def rg_corollary_z0_grid(alphas, terms: int = 50,
                         spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-8) -> list:
    """verify_rg_corollary_z0 at every alpha of a grid, from one vector
    integral; returns one report (or rhs error) per alpha."""
    spec = _grid_spec(0.0, alphas, terms, spec)
    la = _log_alphas(alphas)
    pref = np.array([1.0 / (2.0 * math.sqrt(alpha)) for alpha in alphas])

    def w(t):
        return (pref * np.cos(0.5 * np.multiply.outer(t, la))
                / np.square(1.0 + t * t)[:, None])

    def w_mag(T):
        return pref / (1.0 + T * T) ** 2

    res, trunc = _xi_weighted(0.0 + 0.0j, w, w_mag, spec)
    n_eff = max(terms, 8)
    n = np.arange(1, n_eff + 1, dtype=float)
    dn = arith.build_table(0.0, n_eff).slice(n_eff).real

    def row(col, alpha):
        beta = 1.0 / alpha
        lhs = (32.0 / math.pi) * complex(res.value[col])
        theta = (bessel_k(0.0, 2.0 * alpha * math.pi * n).real
                 + beta * bessel_k(0.0, 2.0 * beta * math.pi * n).real)
        z1 = (1.0 / alpha + 1.0) / 4.0
        z1p = la[col] * (1.0 - 1.0 / alpha) / 4.0
        rhs = float(np.sum(dn * theta)) - (z1p + (EULER_GAMMA - math.log(4.0 * math.pi)) * z1)
        budgets = {"quad_err": (32.0 / math.pi) * float(res.err_estimate[col]),
                   "xi_cutoff": (32.0 / math.pi) * float(trunc[col]),
                   "series_tail": _theta_series_tail(alpha, n_eff + 1)}
        params = {"z": [0.0, 0.0], "alpha": alpha, "terms": terms}
        return _report("rg-corollary-z0", params, lhs, rhs, budgets, tolerance,
                       real_inputs=True)

    return _rows(alphas, row)


def verify_rg_formula(z, alpha: float, N: int = 10,
                      spec: Optional[QuadratureSpec] = None,
                      tolerance: float = 1e-8) -> VerificationReport:
    """f_frak(alpha, z) = f_frak(1/alpha, z)."""
    z = complex(z)
    if abs(z.real) >= 1.0:
        raise DomainError("|Re z| < 1 required")
    if abs(z) < 1e-4:
        raise NearPoleError("need |z| >= 1e-4")
    if not 0.25 <= alpha <= 4.0:
        raise DomainError("alpha must lie in [1/4, 4]")
    lhs, t1, e1 = f_frak(z, alpha, N)
    rhs, t2, e2 = f_frak(z, 1.0 / alpha, N)
    params = {"z": [z.real, z.imag], "alpha": alpha, "terms": N}
    return _report("rg-formula", params, lhs, rhs,
                   {"series_tail": t1 + t2, "eval_err": e1 + e2}, tolerance,
                   real_inputs=(z.imag == 0.0))


def verify_hurwitz_corollary(p: IdentityParams, tolerance: float = 1e-6) -> VerificationReport:
    """Gamma-weighted Xi-pair integral versus the tail-corrected
    Hurwitz-lambda combination alpha^{(z+1)/2}(sum lambda - boundary terms)."""
    return _single(hurwitz_corollary_grid(p.z, [p.alpha], p.terms, p.spec, tolerance))


def hurwitz_corollary_grid(z, alphas, terms: int = 50,
                           spec: Optional[QuadratureSpec] = None,
                           tolerance: float = 1e-6) -> list:
    """verify_hurwitz_corollary at every alpha of a grid, from one vector
    integral: the Xi pair and the alpha-free weight Gamma((z-1+it)/4)
    Gamma((z-1-it)/4)/(t^2+(z+1)^2) are evaluated once per node.  Returns
    one report (or rhs error) per alpha."""
    spec = _grid_spec(z, alphas, terms, spec)
    z = complex(z)
    if not 0.0 < abs(z.real) < 1.0:
        raise DomainError("0 < |Re z| < 1 required")
    if abs(z) < 1e-4:
        raise NearPoleError("need |z| >= 1e-4")
    la = _log_alphas(alphas)
    zp = (z + 1.0) ** 2
    base = 0.25 * (z - 1.0)

    def w(t):
        g = np.empty(t.shape, dtype=complex)
        for i, tv in enumerate(t):
            g[i] = gamma(base + 0.25j * tv) * gamma(base - 0.25j * tv) / (tv * tv + zp)
        return g[:, None] * np.cos(0.5 * np.multiply.outer(t, la))

    def w_mag(T):
        return abs(gamma(base + 0.25j * T) * gamma(base - 0.25j * T)) / abs(T * T + zp)

    res, trunc = _xi_weighted(z, w, w_mag, spec)
    pref = 8.0 * (4.0 * math.pi) ** (0.5 * (z - 3.0)) / gamma(z + 1.0)

    def row(col, alpha):
        rhs, resid = _hurwitz_F(z, alpha, terms)
        lhs = pref * complex(res.value[col])
        budgets = {"quad_err": abs(pref) * float(res.err_estimate[col]),
                   "xi_cutoff": abs(pref) * float(trunc[col]),
                   "em_residual": resid}
        params = {"z": [z.real, z.imag], "alpha": alpha, "terms": terms}
        return _report("hurwitz-corollary", params, lhs, rhs, budgets, tolerance,
                       real_inputs=(z.imag == 0.0))

    return _rows(alphas, row)


def verify_hurwitz_modular(z, alpha: float, spec: Optional[QuadratureSpec] = None,
                           terms: int = 50, tolerance: float = 1e-8) -> VerificationReport:
    """F(alpha) = F(1/alpha) for the Hurwitz-lambda combination."""
    z = complex(z)
    if not 0.0 < abs(z.real) < 1.0:
        raise DomainError("0 < |Re z| < 1 required")
    if abs(z) < 1e-4:
        raise NearPoleError("need |z| >= 1e-4")
    if not 0.25 <= alpha <= 4.0:
        raise DomainError("alpha must lie in [1/4, 4]")
    lhs, r1 = _hurwitz_F(z, alpha, terms)
    rhs, r2 = _hurwitz_F(z, 1.0 / alpha, terms)
    params = {"z": [z.real, z.imag], "alpha": alpha, "terms": terms}
    return _report("hurwitz-modular", params, lhs, rhs,
                   {"em_residual": r1 + r2}, tolerance,
                   real_inputs=(z.imag == 0.0))


def _theta_pair_inner(alpha: float, weights: np.ndarray, power: complex,
                      order: complex, spec: QuadratureSpec, both: bool):
    """Integral over x > 0 of
    x^{1+power} Kw(x) sum_{n=1}^{N} w_n (x^2 + pi^2 n^2)^{-(power+3/2)},
    N = len(weights): the inner integrals of both Hurwitz-type series,
    summed under one integral so the n-independent K-weight Kw is
    evaluated once per node.  Kw(x) is Theta(x) = K_order(2 alpha x)
    + beta K_order(2 beta x) when both=True, else K_order(2 alpha x).
    Returns (value, error estimate incl. the tail truncation bound)."""
    beta = 1.0 / alpha
    a2 = (math.pi * np.arange(1, weights.size + 1)) ** 2
    expo = -(power + 1.5)

    def f(x):
        x = np.asarray(x, dtype=float)
        if both:
            kw = (bessel_k(order, 2.0 * alpha * x).real
                  + beta * bessel_k(order, 2.0 * beta * x).real)
        else:
            kw = bessel_k(order, 2.0 * alpha * x)
        mix = np.power(np.add.outer(x * x, a2), expo) @ weights
        return np.power(x, 1.0 + power) * kw * mix

    r = integrate_half_line(f, 2.0 * (min(alpha, beta) if both else alpha) * 0.9, spec)
    return r.value, r.total_error


def _binom_series_coeff(expo: complex, j: int) -> complex:
    """binom(expo, j) by product recursion."""
    out = 1.0 + 0.0j
    for i in range(j):
        out *= (expo - i) / (i + 1.0)
    return out


def _hurwitz_z0_series(alpha: float, terms: int, spec: QuadratureSpec):
    """(pi/2) sum n d(n) I_n - ((gamma - log 2 pi) Z(1) + Z'(1))/2, the
    series side of the z=0 Hurwitz corollary.  Returns (value, quadrature
    error, series tail bound), both errors already scaled by pi/2."""
    beta = 1.0 / alpha
    N = max(terms, 4)
    dn = arith.build_table(0.0, N).slice(N).real
    nn = np.arange(1, N + 1, dtype=float)
    series, quad_err = _theta_pair_inner(alpha, nn * dn, 0.0, 0.0, spec, both=True)
    series = series.real

    # n > N remainder: expand (x^2+pi^2 n^2)^{-3/2} in x/(pi n) and trade the
    # divisor sums for zeta moments; asymptotic, truncated at the smallest
    # term, with the x > pi n interchange mass bounded by the Theta decay.
    tail = 0.0
    tail_err = 0.0
    prev = math.inf
    for j in range(0, 60):
        mj = (gamma(1.0 + j).real ** 2 / 4.0) * (alpha ** (-2.0 - 2 * j) + beta ** (-1.0 - 2 * j))
        zeta_rem = (riemann_zeta(2.0 * j + 2.0).real ** 2
                    - float(np.sum(dn * nn ** (-2.0 - 2.0 * j))))
        term = _binom_series_coeff(-1.5, j).real * math.pi ** (-3.0 - 2 * j) * mj * zeta_rem
        if abs(term) >= prev:
            tail_err = abs(term)
            break
        tail += term
        prev = abs(term)
        if abs(term) < 1e-18:
            tail_err = abs(term)
            break
    tail_err += 10.0 * math.exp(-2.0 * math.pi * (N + 1) * min(alpha, beta))

    z1 = (1.0 / alpha + 1.0) / 4.0
    z1p = math.log(alpha) * (1.0 - 1.0 / alpha) / 4.0
    rhs = (0.5 * math.pi) * (series + tail) - 0.5 * ((EULER_GAMMA - math.log(2.0 * math.pi)) * z1 + z1p)
    return rhs, 0.5 * math.pi * quad_err, 0.5 * math.pi * tail_err


def verify_hurwitz_corollary_z0(p: IdentityParams, tolerance: float = 1e-6) -> VerificationReport:
    """z=0 limit with |Gamma((-1+it)/4)|^2 weight versus
    (pi/2) sum n d(n) I_n - ((gamma - log 2 pi) Z(1) + Z'(1))/2, where
    I_n integrates x Theta(x) (x^2 + pi^2 n^2)^{-3/2}.  The n <= N part
    of the series is one integral of x Theta(x) sum n d(n) (x^2 + pi^2
    n^2)^{-3/2}; the n > N remainder is an asymptotic zeta-moment sum."""
    return _single(hurwitz_corollary_z0_grid([p.alpha], p.terms, p.spec, tolerance))


def hurwitz_corollary_z0_grid(alphas, terms: int = 50,
                              spec: Optional[QuadratureSpec] = None,
                              tolerance: float = 1e-6) -> list:
    """verify_hurwitz_corollary_z0 at every alpha of a grid, from one
    vector Xi-pair integral (the series side stays per alpha); returns one
    report (or rhs error) per alpha."""
    spec = _grid_spec(0.0, alphas, terms, spec)
    la = _log_alphas(alphas)
    pref = np.array([1.0 / (2.0 * math.sqrt(alpha)) for alpha in alphas])

    def w(t):
        g = np.empty(t.shape, dtype=complex)
        for i, tv in enumerate(t):
            gp = gamma(-0.25 + 0.25j * tv)
            g[i] = (gp * gp.conjugate()) / (1.0 + tv * tv)
        return pref * (g[:, None] * np.cos(0.5 * np.multiply.outer(t, la)))

    def w_mag(T):
        return pref * abs(gamma(-0.25 + 0.25j * T)) ** 2 / (1.0 + T * T)

    res, trunc = _xi_weighted(0.0 + 0.0j, w, w_mag, spec)

    def row(col, alpha):
        rhs, series_err, tail_err = _hurwitz_z0_series(alpha, terms, spec)
        lhs = math.pi ** (-1.5) * complex(res.value[col])
        budgets = {"quad_err": math.pi ** (-1.5) * float(res.err_estimate[col]) + series_err,
                   "xi_cutoff": math.pi ** (-1.5) * float(trunc[col]),
                   "series_tail": tail_err}
        params = {"z": [0.0, 0.0], "alpha": alpha, "terms": terms}
        return _report("hurwitz-corollary-z0", params, lhs, rhs, budgets, tolerance,
                       real_inputs=True)

    return _rows(alphas, row)


def verify_bessel_hurwitz_sum(alpha: float, z, N: int = 8,
                              spec: Optional[QuadratureSpec] = None,
                              tolerance: float = 1e-5) -> VerificationReport:
    """pi^{z+1/2} Gamma((z+3)/2) sum sigma_{-z}(n) n^{z+1} I_n(z) versus
    (alpha^{z/2}/2^{z+2}) Gamma(z+1) sum_m lambda(m alpha, z); the printed
    bracket's (m alpha)^{-z}/2 reading diverges, the lambda reading is used.
    I_n(z) integrates x^{1+z/2} K_{z/2}(2 alpha x) (x^2 + pi^2 n^2)^{-(z+3)/2};
    the n <= N part of the series is one integral with the weighted n-sum
    inside, the n > N remainder an asymptotic zeta-moment sum."""
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError("0 < Re z < 1 required")
    if not 0.25 <= alpha <= 4.0:
        raise DomainError("alpha must lie in [1/4, 4]")
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    N = max(int(N), 2)
    sig = arith.build_table(-z, N).slice(N)
    nn = np.arange(1, N + 1, dtype=float)
    series, quad_err = _theta_pair_inner(alpha, sig * nn ** (z + 1.0), 0.5 * z,
                                         0.5 * z, spec, both=False)

    tail = 0.0 + 0.0j
    tail_err = 0.0
    prev = math.inf
    base_expo = -0.5 * (z + 3.0)
    for j in range(0, 60):
        mj = (2.0 ** (0.5 * z + 2 * j) * (2.0 * alpha) ** (-(2.0 + 0.5 * z + 2 * j))
              * gamma(1.0 + j) * gamma(1.0 + j + 0.5 * z))
        zeta_rem = (riemann_zeta(2.0 * j + 2.0) * riemann_zeta(2.0 * j + 2.0 + z)
                    - complex(np.sum(sig * nn ** (-2.0 - 2.0 * j))))
        term = (_binom_series_coeff(base_expo, j) * math.pi ** (-(z + 3.0) - 2 * j)
                * mj * zeta_rem)
        if abs(term) >= prev:
            tail_err = abs(term)
            break
        tail += term
        prev = abs(term)
        if abs(term) < 1e-18:
            tail_err = abs(term)
            break
    tail_err += 10.0 * math.exp(-2.0 * math.pi * (N + 1) * alpha)

    pref_l = math.pi ** (z + 0.5) * gamma(0.5 * (z + 3.0))
    lhs = pref_l * (series + tail)
    lam, resid = lambda_sum(alpha, z, max(N, 10))
    pref_r = alpha ** (0.5 * z) / 2.0 ** (z + 2.0) * gamma(z + 1.0)
    rhs = pref_r * lam
    budgets = {"quad_err": abs(pref_l) * quad_err,
               "series_tail": abs(pref_l) * tail_err,
               "em_residual": abs(pref_r) * resid}
    params = {"z": [z.real, z.imag], "alpha": alpha, "terms": N}
    return _report("bessel-hurwitz-sum", params, lhs, rhs, budgets, tolerance,
                   real_inputs=(z.imag == 0.0))


def verify_mellin_k(s, nu, q: float, spec: Optional[QuadratureSpec] = None,
                    tolerance: float = 1e-9) -> VerificationReport:
    """Integral of x^{s-1} K_nu(q x) versus 2^{s-2} q^{-s} Gamma((s-nu)/2) Gamma((s+nu)/2)."""
    s, nu = complex(s), complex(nu)
    if q <= 0.0:
        raise DomainError("q > 0 required")
    if s.real <= abs(nu.real):
        raise DomainError("Re s > |Re nu| required")
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        tiny = x < 1e-40
        if np.any(~tiny):
            xs = x[~tiny]
            out[~tiny] = np.power(xs, s - 1.0) * bessel_k(nu, q * xs)
        if np.any(tiny):
            # Deep tanh-sinh nodes reach x ~ 1e-275 where x^{s-1} underflows
            # while K_nu(qx) overflows; assemble the small-argument form in
            # log space instead (two-term error here is O(x^2) relative).
            xs = x[tiny]
            with np.errstate(under="ignore"):
                lx = np.log(xs)
                mu = nu if nu.real >= 0.0 else -nu
                if abs(mu) < 1e-12:
                    out[tiny] = -np.exp((s - 1.0) * lx) * (
                        np.log(0.5 * q) + lx + EULER_GAMMA)
                else:
                    lead = (0.5 * gamma(mu) * (2.0 / q) ** mu
                            * np.exp((s - 1.0 - mu) * lx))
                    if mu.imag == 0.0 and abs(mu.real - round(mu.real)) < 1e-9:
                        # gamma(-mu) pole; the reflected term is part of the
                        # O(x^2) remainder at integer order.
                        out[tiny] = lead
                    else:
                        out[tiny] = lead + (0.5 * gamma(-mu) * (0.5 * q) ** mu
                                            * np.exp((s - 1.0 + mu) * lx))
        return out

    r = integrate_half_line(f, 0.8 * q, spec)
    lhs = r.value
    rhs = 2.0 ** (s - 2.0) * q ** (-s) * gamma(0.5 * (s - nu)) * gamma(0.5 * (s + nu))
    budgets = {"quad_err": r.err_estimate, "truncation": r.truncation_bound}
    params = {"s": [s.real, s.imag], "nu": [nu.real, nu.imag], "q": q}
    return _report("mellin-k", params, lhs, rhs, budgets, tolerance,
                   real_inputs=(s.imag == 0.0 and nu.imag == 0.0))


def verify_laplace_bessel(alpha: float, y: float, z,
                          spec: Optional[QuadratureSpec] = None,
                          tolerance: float = 1e-9) -> VerificationReport:
    """Integral of e^{-2 pi alpha x} x^{z/2} J_z(4 pi sqrt(xy)) versus
    e^{-2 pi y/alpha} y^{z/2} / (2 pi alpha^{z+1})."""
    z = complex(z)
    if z.imag != 0.0:
        raise DomainError("real z only (real-order J)")
    zr = z.real
    if zr <= -1.0:
        raise DomainError("Re z > -1 required")
    if alpha <= 0.0 or y <= 0.0:
        raise DomainError("alpha > 0 and y > 0 required")
    spec = spec or QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    c = 4.0 * math.pi * math.sqrt(y)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-2.0 * math.pi * alpha * x) * np.power(x, 0.5 * zr) * bessel_j(zr, c * np.sqrt(x))

    r = integrate_half_line(f, 2.0 * math.pi * alpha, spec)
    lhs = r.value
    rhs = math.exp(-2.0 * math.pi * y / alpha) * y ** (0.5 * zr) / (2.0 * math.pi * alpha ** (zr + 1.0))
    budgets = {"quad_err": r.err_estimate, "truncation": r.truncation_bound}
    params = {"alpha": alpha, "y": y, "z": [zr, 0.0]}
    return _report("laplace-bessel", params, lhs, rhs, budgets, tolerance,
                   real_inputs=True)


def verify_omega_self_reciprocal(x: float, z, spec: Optional[QuadratureSpec] = None,
                                 tolerance: float = 1e-6,
                                 n_terms: int = 500) -> VerificationReport:
    """J_z transform of Omega(y,z) - zeta(z) y^{z/2-1}/(2 pi) reproduces the
    same combination at x, divided by 2 pi.

    The combination is O(y^{-z/2}) at the origin (regular after the J weight)
    but only decays like y^{z/2-1}: past Y, Omega itself is exponentially
    small and the power part's J-transform tail is summed over half-period
    segments with iterated averaging.
    """
    z = complex(z)
    if z.imag != 0.0:
        raise DomainError("real z only (real-order J)")
    zr = z.real
    if abs(zr) >= 1.0:
        raise DomainError("|Re z| < 1 required")
    if 1e-12 <= abs(zr) < 1e-4:
        raise NearPoleError("need z = 0 exactly or |z| >= 1e-4")
    if x <= 0.0:
        raise DomainError("x > 0 required")
    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    c = 4.0 * math.pi * math.sqrt(x)
    Y = 14.0

    def f(y):
        y = np.asarray(y, dtype=float)
        return bessel_j(zr, c * np.sqrt(y)) * omega_combination(y, zr, n_terms)

    head1 = tanh_sinh(f, 0.0, 1.0, spec)
    head2 = integrate_finite(f, 1.0, Y, spec)

    U = c * math.sqrt(Y)
    ev, eerr = _bessel_power_tail(zr, U)
    if abs(zr) < 1e-12:
        zeta_z = -0.5 + 0.0j  # zeta(0)
    else:
        zeta_z = riemann_zeta(zr)
    tail = -(zeta_z / (2.0 * math.pi)) * 2.0 * c ** (-zr) * ev
    # Discarded exponentially small Omega remainder past Y.
    om_rem = 40.0 * math.exp(-2.0 * math.sqrt(2.0) * math.pi * math.sqrt(Y))

    lhs = head1.value + head2.value + tail
    rhs = omega_combination(x, zr, n_terms) / (2.0 * math.pi)
    budgets = {"quad_err": head1.err_estimate + head2.err_estimate,
               "oscillation_err": abs(zeta_z / math.pi) * c ** (-zr) * eerr,
               "omega_remainder": om_rem}
    if abs(zr) < 1e-12:
        budgets["pole_averaging"] = 1e-7
    params = {"x": x, "z": [zr, 0.0], "terms": n_terms}
    return _report("omega-self-reciprocal", params, lhs, rhs, budgets, tolerance,
                   real_inputs=True)


def _omega_laplace_integral(alpha: float, z: complex, spec: QuadratureSpec,
                            n_terms: int = 500):
    """Integral of e^{-2 pi alpha x} x^{z/2} (Omega - zeta(z) x^{z/2-1}/(2 pi))."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return (np.exp(-2.0 * math.pi * alpha * x) * np.power(x, 0.5 * z)
                * omega_combination(x, z, n_terms))

    r = integrate_half_line(f, 2.0 * math.pi * alpha * 0.95, spec)
    return r.value, r.total_error


def verify_omega_modular(alpha: float, z, spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-6) -> VerificationReport:
    """alpha^{(z+1)/2} times the Omega Laplace integral is invariant under
    alpha -> 1/alpha."""
    z = complex(z)
    if abs(z.real) >= 1.0:
        raise DomainError("|Re z| < 1 required")
    if 1e-12 <= abs(z) < 1e-4:
        raise NearPoleError("need z = 0 exactly or |z| >= 1e-4")
    if not 0.25 <= alpha <= 4.0:
        raise DomainError("alpha must lie in [1/4, 4]")
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    beta = 1.0 / alpha
    v1, e1 = _omega_laplace_integral(alpha, z, spec)
    v2, e2 = _omega_laplace_integral(beta, z, spec)
    lhs = alpha ** (0.5 * (z + 1.0)) * v1
    rhs = beta ** (0.5 * (z + 1.0)) * v2
    budgets = {"quad_err": abs(alpha ** (0.5 * (z + 1.0))) * e1
               + abs(beta ** (0.5 * (z + 1.0))) * e2}
    if abs(z) < 1e-12:
        budgets["pole_averaging"] = 1e-7
    params = {"alpha": alpha, "z": [z.real, z.imag]}
    return _report("omega-modular", params, lhs, rhs, budgets, tolerance,
                   real_inputs=(z.imag == 0.0))


def verify_omega_laplace(alpha: float, z, spec: Optional[QuadratureSpec] = None,
                         terms: int = 50, tolerance: float = 1e-6) -> VerificationReport:
    """The Omega Laplace integral versus Gamma(z+1)/(2 pi)^{z+1} times the
    tail-corrected lambda combination; the boundary terms appear once (the
    printed form repeats them inside the sum, which diverges)."""
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError("0 < Re z < 1 required")
    if abs(z) < 1e-4:
        raise NearPoleError("need |z| >= 1e-4")
    if not 0.25 <= alpha <= 4.0:
        raise DomainError("alpha must lie in [1/4, 4]")
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
    lhs, err = _omega_laplace_integral(alpha, z, spec)
    lam, resid = lambda_sum(alpha, z, terms)
    pref = gamma(z + 1.0) / (2.0 * math.pi) ** (z + 1.0)
    rhs = pref * (lam - riemann_zeta(z + 1.0) / (2.0 * alpha ** (z + 1.0))
                  - riemann_zeta(z) / (alpha * z))
    budgets = {"quad_err": err, "em_residual": abs(pref) * resid}
    params = {"alpha": alpha, "z": [z.real, z.imag], "terms": terms}
    return _report("omega-laplace", params, lhs, rhs, budgets, tolerance,
                   real_inputs=(z.imag == 0.0))


def verify_pair_reciprocity(pair: ReciprocalPair, z, x: float,
                            spec: Optional[QuadratureSpec] = None,
                            tolerance: Optional[float] = None) -> VerificationReport:
    """phi(x) versus 2 * transform of psi at x (factor-2, argument-4sqrt(tx)
    convention), plus the mirrored psi-from-phi check.  The transform needs
    |Re z| < 1/2, an open bound even where the pair's own domain is closed."""
    z = complex(pair.check_z(z))
    if z.imag != 0.0:
        raise DomainError("real z only (real-order kernel)")
    zr = z.real
    if abs(zr) >= 0.5:
        raise DomainError("the transform needs |Re z| < 1/2")
    if x <= 0.0:
        raise DomainError("x > 0 required")
    if tolerance is None:
        tolerance = 1e-4 if pair.label == "dixon-ferrar" else 1e-6
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
    power_tailed = pair.label == "dixon-ferrar"

    def one_direction(source):
        if not power_tailed:
            r = first_koshliakov_transform(lambda t: source(t, zr), zr, 4.0 * x, spec)
            return r.value, r.total_error

        def f(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(source(t, zr)) * transform_kernel(zr, 4.0 * np.sqrt(t * x))

        # psi ~ -1/(4 pi t^2): go to T0, then sum half-period segments of
        # the oscillatory remainder in u = sqrt(t).
        head = tanh_sinh(f, 0.0, 1.0, spec)
        T0 = 25.0
        mid = integrate_finite(f, 1.0, T0, spec)

        def g(u):
            u = np.asarray(u, dtype=float)
            return 2.0 * u * np.asarray(source(u * u, zr)) * transform_kernel(
                zr, 4.0 * u * math.sqrt(x))

        osc, oerr = _oscillatory_tail(g, math.sqrt(T0), math.pi / (4.0 * math.sqrt(x)))
        return (head.value + mid.value + osc,
                head.err_estimate + mid.err_estimate + oerr)

    fwd, fwd_err = one_direction(pair.psi)
    lhs = complex(np.asarray(pair.phi(np.array([x]), zr))[0])
    rhs = 2.0 * fwd
    mir, mir_err = one_direction(pair.phi)
    psi_x = complex(np.asarray(pair.psi(np.array([x]), zr))[0])
    # Judged like the report's own diff: absolute where |psi(x)| < 1e-3,
    # since the transform is only accurate to an absolute 1e-11 there.
    mir_diff = abs(2.0 * mir - psi_x)
    if abs(psi_x) >= 1e-3:
        mir_diff /= abs(psi_x)
    budgets = {"quad_err": 2.0 * (fwd_err + mir_err),
               "mirrored_rel_diff": mir_diff}
    params = {"pair": pair.label, "z": [zr, 0.0], "x": x}
    return _report("pair-reciprocity", params, lhs, rhs, budgets, tolerance,
                   real_inputs=True)


# ---------------------------------------------------------------------------
# Registry (CLI surface)
# ---------------------------------------------------------------------------

def _each_alpha(runner: Callable, args: dict, alphas, tolerance: float) -> list:
    """The sweep of an identity with nothing to share across alpha: one
    runner call per alpha, each row failing on its own."""
    return _rows(alphas, lambda col, alpha: runner(**{**args, "alpha": alpha},
                                                   spec=None, tolerance=tolerance))


@dataclass(frozen=True)
class IdentityEntry:
    """runner(*args, spec, tolerance) gives one report.  sweep(runner, args,
    alphas, tolerance) gives one report per alpha, or in its place the
    KoshliakovError that row raised; an error it raises fails every row."""

    runner: Callable
    arg_names: tuple
    tolerance: float
    summary: str
    sweep: Callable = _each_alpha


def _run_rg(z, alpha, terms, spec, tolerance):
    return verify_rg_corollary(IdentityParams(z, alpha, terms, spec), tolerance)


def _run_rg_z0(alpha, terms, spec, tolerance):
    return verify_rg_corollary_z0(IdentityParams(0.0, alpha, terms, spec), tolerance)


def _run_hurwitz(z, alpha, terms, spec, tolerance):
    return verify_hurwitz_corollary(IdentityParams(z, alpha, terms, spec), tolerance)


def _run_hurwitz_z0(alpha, terms, spec, tolerance):
    return verify_hurwitz_corollary_z0(IdentityParams(0.0, alpha, terms, spec), tolerance)


def _run_pair(pair_name, pair_alpha, z, x, spec, tolerance):
    if pair_name == "k-bessel":
        pair = pair_k_bessel(pair_alpha)
    elif pair_name == "dixon-ferrar":
        pair = pair_dixon_ferrar()
    else:
        raise DomainError(f"unknown pair '{pair_name}' (k-bessel, dixon-ferrar)")
    return verify_pair_reciprocity(pair, z, x, spec, tolerance)


IDENTITIES: dict = {
    "rg-corollary": IdentityEntry(
        _run_rg, ("z", "alpha", "terms"), 1e-8,
        "Xi-pair integral vs the modular K-Bessel combination",
        lambda runner, a, alphas, tolerance:
            rg_corollary_grid(a["z"], alphas, a["terms"], None, tolerance)),
    "rg-corollary-z0": IdentityEntry(
        _run_rg_z0, ("alpha", "terms"), 1e-8,
        "z=0 corollary: Xi^2 integral vs divisor Theta series",
        lambda runner, a, alphas, tolerance:
            rg_corollary_z0_grid(alphas, a["terms"], None, tolerance)),
    "rg-formula": IdentityEntry(
        lambda z, alpha, terms, spec, tolerance:
            verify_rg_formula(z, alpha, terms, spec, tolerance),
        ("z", "alpha", "terms"), 1e-8,
        "modular invariance of the K-Bessel combination"),
    "hurwitz-corollary": IdentityEntry(
        _run_hurwitz, ("z", "alpha", "terms"), 1e-6,
        "Gamma-weighted Xi-pair integral vs the Hurwitz lambda combination",
        lambda runner, a, alphas, tolerance:
            hurwitz_corollary_grid(a["z"], alphas, a["terms"], None, tolerance)),
    "hurwitz-corollary-z0": IdentityEntry(
        _run_hurwitz_z0, ("alpha", "terms"), 1e-6,
        "z=0 corollary: |Gamma|^2 Xi^2 integral vs n d(n) Theta moments",
        lambda runner, a, alphas, tolerance:
            hurwitz_corollary_z0_grid(alphas, a["terms"], None, tolerance)),
    "hurwitz-modular": IdentityEntry(
        lambda z, alpha, terms, spec, tolerance:
            verify_hurwitz_modular(z, alpha, spec, terms, tolerance),
        ("z", "alpha", "terms"), 1e-8,
        "modular invariance of the Hurwitz lambda combination"),
    "mellin-k": IdentityEntry(
        lambda s, nu, q, spec, tolerance:
            verify_mellin_k(s, nu, q, spec, tolerance),
        ("s", "nu", "q"), 1e-9,
        "Mellin transform of K_nu vs Gamma product closed form"),
    "laplace-bessel": IdentityEntry(
        lambda alpha, y, z, spec, tolerance:
            verify_laplace_bessel(alpha, y, z, spec, tolerance),
        ("alpha", "y", "z"), 1e-9,
        "Laplace-type J_z integral vs exponential closed form"),
    "omega-self-reciprocal": IdentityEntry(
        lambda x, z, terms, spec, tolerance:
            verify_omega_self_reciprocal(x, z, spec, tolerance, terms),
        ("x", "z", "terms"), 1e-6,
        "Omega combination is self-reciprocal under the J_z transform"),
    "omega-modular": IdentityEntry(
        lambda alpha, z, spec, tolerance:
            verify_omega_modular(alpha, z, spec, tolerance),
        ("alpha", "z"), 1e-6,
        "alpha^{(z+1)/2} Omega Laplace integral invariant under alpha -> 1/alpha"),
    "omega-laplace": IdentityEntry(
        lambda alpha, z, terms, spec, tolerance:
            verify_omega_laplace(alpha, z, spec, terms, tolerance),
        ("alpha", "z", "terms"), 1e-6,
        "Omega Laplace integral vs the lambda combination closed form"),
    "bessel-hurwitz-sum": IdentityEntry(
        lambda alpha, z, terms, spec, tolerance:
            verify_bessel_hurwitz_sum(alpha, z, terms, spec, tolerance),
        ("alpha", "z", "terms"), 1e-5,
        "K-weighted divisor series vs the lambda series closed form"),
    "pair-reciprocity": IdentityEntry(
        _run_pair, ("pair", "pair_alpha", "z", "x"), 1e-6,
        "phi/psi pair reciprocity under the factor-2 kernel transform"),
}
