"""Both sides of every verified identity, with residuals and error budgets.

Every verifier returns a VerificationReport whose budgets (quadrature error
estimates plus analytic truncation bounds) must themselves sit below the
pass tolerance: a pass is never claimed on an under-resolved computation.
Budget keys ending in "_diff" are cross-checks, not error bounds, and are
excluded from that resolution test.

Every verifier that takes a scale alpha takes one alpha or a sequence of
them: one number gives one report, a sequence one report per alpha, and
either raises its error.  The work is shared across the alphas: each
integral is one vector integral with a column per alpha (or per K scale
or Laplace rate), each lambda or f_frak side one call, so no verifier
integrates per alpha.  The verifier hands _reports a column per side and
budget, an entry per alpha.

Every truncated series sums _SERIES_TERMS terms directly and adds a
bound or a convergent remainder for the rest, so no verifier takes a
term count.
"""

from __future__ import annotations

import collections
import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from . import arith, quadrature   # head/tail rules via the module, so wrappers see them
from .errors import DomainError
from .kernels import (ReciprocalPair, _check_z, _divisor_sum, _k_envelope, _omega_bound,
                      _omega_plan, _omega_roundoff, first_koshliakov_transform, lambda_sum,
                      omega_combination, pair_dixon_ferrar, pair_k_bessel)
from .quadrature import QuadratureSpec, integrate_finite, integrate_half_line
from .specfun import (EULER_GAMMA, _bessel_jy, _lgamma_slope, _pole_quotient, _real_order,
                      bessel_j, bessel_k, big_xi, gamma, riemann_zeta)

_TINY = 1e-300
_EPS = 2.0 ** -52


class VerificationReport(NamedTuple):
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
        # A complex parameter (numpy's too) is [re, im]; JSON needs any
        # other number as a plain float.
        def _py(v):
            if isinstance(v, complex):
                return [float(v.real), float(v.imag)]
            return v if isinstance(v, (bool, int, str)) else float(v)

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
            budgets: dict, tolerance: float) -> VerificationReport:
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
    # Budgets that bound both sides bound lhs - rhs up to its rounding: half
    # an ulp per part and one for the modulus, 2 eps of |lhs - rhs| <= 2 scale.
    bounded = abs_diff <= budget_sum + 4.0 * _EPS * scale
    ok = diff_ok and resolved and bounded
    # Real inputs (no parameter off the real axis) must give real sides.
    if not any(isinstance(v, complex) and v.imag != 0.0 for v in params.values()):
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
    """Xi((t+iz)/2) Xi((t-iz)/2) over an array of t."""
    a = big_xi(0.5 * (t + 1j * z))
    # For real z the two factors are conjugates.
    return a * (a.conjugate() if z.imag == 0.0 else big_xi(0.5 * (t - 1j * z)))


# Each identity's quadrature accuracy, read when its verifier runs: the
# four Xi-pair integrals (with the divisor-K series of
# hurwitz-corollary-z0), then the other identities' integrals.
_XI_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
_BESSEL_HURWITZ_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
_MELLIN_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
_LAPLACE_BESSEL_SPEC = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
_OMEGA_SELF_RECIPROCAL_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
_OMEGA_LAPLACE_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)
_PAIR_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)


def _alphas(alpha) -> list:
    """The alphas of a verifier's alpha argument, one number or a sequence,
    under the rule every identity with a scale alpha (beta = 1/alpha)
    shares: alpha in [1/4, 4], the quadrature's oscillation limit."""
    alphas = [alpha] if np.ndim(alpha) == 0 else list(alpha)
    if any(not 0.25 <= a <= 4.0 for a in alphas):
        raise DomainError("alpha must lie in [1/4, 4]")
    return alphas


def _reports(identity_id: str, params: dict, alphas: list, lhs, rhs, budgets: dict,
             tolerance: float):
    """The report at each of alphas (_alphas of params["alpha"]) from columns
    with an entry per alpha (lhs, rhs, each budget); params names the
    identity's parameters in its order, alpha among them.  One alpha gives
    one report, a sequence a list."""
    reports = [_report(identity_id, {**params, "alpha": a}, lhs[col], rhs[col],
                       {k: v[col] for k, v in budgets.items()}, tolerance)
               for col, a in enumerate(alphas)]
    return reports if np.ndim(params["alpha"]) else reports[0]


def _xi_grid(identity_id: str, z: complex, g: Callable, alpha, alphas: list,
             tolerance: float, pref, rhs, budgets: dict):
    """The report(s) of a Xi-pair identity at alpha (_reports), alphas its
    list (_alphas), from one vector integral over [0, T] of the Xi pair
    against g(t) cos(t log(alpha)/2), a column per alpha, to _XI_SPEC: g(t), the
    alpha-free part of the weight, and the Xi pair are evaluated once per
    node.  The Xi pair decays at least like exp(-pi t/4) and |g(T)| must
    bound |g| on [T, inf): with the cosine replaced by 1 that bounds every
    column's discarded piece (xi_cutoff).  The lhs is pref times the
    integral; pref, rhs and the rhs's budgets (a quad_err adds to the
    integral's) are columns, pref a number where it is one for every alpha."""
    pref = pref if np.ndim(pref) else [pref] * len(alphas)
    T = 60.0
    la = np.array([math.log(a) for a in alphas])

    def f(t):
        return (_xi_pair(t, z) * g(t))[:, None] * np.cos(0.5 * np.multiply.outer(t, la))

    res = integrate_finite(f, 0.0, T, _XI_SPEC)
    end = np.array([T])
    trunc = abs(complex(_xi_pair(end, z)[0])) * abs(complex(g(end)[0])) * (4.0 / math.pi) * 5.0
    own = {"quad_err": [abs(p) * e for p, e in zip(pref, res.err_estimate.tolist())],
           "xi_cutoff": [abs(p) * trunc for p in pref]}
    for key, col in budgets.items():
        own[key] = np.add(own.get(key, 0.0), col)
    lhs = [complex(p) * v for p, v in zip(pref, res.value.tolist())]
    return _reports(identity_id, {"z": z, "alpha": alpha}, alphas, lhs, rhs, own, tolerance)


def _modular_grid(identity_id: str, F: Callable, z: complex, alpha, tolerance: float):
    """The report(s) of F(alpha) = F(1/alpha) at alpha (_reports), F(points)
    giving (values, budgets) as arrays.  F is called once, over the alphas
    and then their reciprocals; each budget is the sum of the two sides'."""
    alphas = _alphas(alpha)
    m = len(alphas)
    values, budgets = F([*alphas, *(1.0 / a for a in alphas)])
    return _reports(identity_id, {"alpha": alpha, "z": z}, alphas, values[:m], values[m:],
                    {k: v[:m] + v[m:] for k, v in budgets.items()}, tolerance)


# ---------------------------------------------------------------------------
# Series with certified tails
# ---------------------------------------------------------------------------

# Terms summed directly by every truncated series of the verifiers: the
# K-Bessel combination f_frak, the z = 0 Theta series, the divisor-K and
# lambda sums, and partial-fraction Omega in omega-self-reciprocal (the
# Laplace identities' Omega weight takes 500).
_SERIES_TERMS = 50


def _k_series_tail(coeff: float, p: float, c: float, n_from: int) -> float:
    """Bound for sum_{n>=n_from} coeff n^p |K_nu(c n)| with |Re nu| <= 1/2,
    where |K_nu(x)| <= sqrt(pi/(2x)) e^{-x}: the envelope's terms shrink
    by at most the ratio of its first two, so they sum to at most a
    geometric series from its first."""

    def term(n):
        return coeff * n ** p * math.sqrt(math.pi / (2.0 * c * n)) * math.exp(-c * n)

    ratio = math.exp(-c) * ((n_from + 1.0) / n_from) ** max(p - 0.5, 0.0)
    return term(n_from) / max(1.0 - ratio, 0.5)


# Relative accuracy claimed for each piece of f_frak (a pole pair at its
# specfun._pole_quotient scale, the powers, each K term) and of the lambda
# sides (each Hurwitz value, power and pole pair), applied to the sum of
# the pieces' magnitudes, so cancellation among them is charged to the
# bound.  Against 30-digit mpmath the largest error was 0.38 of it over 84
# (z, alpha) points of f_frak and 0.050 of it over the 17 golden points of
# _hurwitz_F.
_EVAL_ULPS = 16.0 * _EPS


def f_frak(z: complex, alpha):
    """The modular combination sqrt(alpha) (alpha^{z/2-1} pi^{-z/2} Gamma(z/2) zeta(z)
    + alpha^{-z/2-1} pi^{z/2} Gamma(-z/2) zeta(-z)
    - 4 sum sigma_{-z}(n) n^{z/2} K_{z/2}(2 n pi alpha));
    invariant under alpha -> 1/alpha.  Returns (value, budgets): the
    series_tail bound (the K envelope with sigma_{-Re z}(n) <= n^{1+|Re z|})
    and the eval_err bound, scalars at a scalar alpha, arrays at an array
    of them.  By Lambda(s) = Lambda(1-s), Legendre's duplication and DLMF
    5.5.3 the Gamma-zeta pair is (P - R)/(alpha z) with G = Gamma(1+z) /
    Gamma(1+z/2), P = zeta*(1+z) (4 pi alpha)^{-z/2} G and R = zeta*(1-z)
    sec(pi z/2) (4 pi alpha)^{z/2} / G (specfun._pole_quotient)."""
    z = complex(z)
    g = _lgamma_slope(z) - 0.5 * _lgamma_slope(0.5 * z)        # log G / z
    p, rows = 1.0 + abs(z.real) + 0.5 * z.real, []
    n = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    weights = arith.build_table(-z, _SERIES_TERMS) * np.power(n, 0.5 * z)
    for a in np.atleast_1d(alpha).tolist():
        c = 2.0 * math.pi * a
        series_terms = weights * bessel_k(0.5 * z, c * n)
        h = 0.5 * math.log(4.0 * math.pi * a)
        pair, mag = _pole_quotient(z, g - h, h - g)
        rows.append((math.sqrt(a) * (complex(pair) / a - 4.0 * np.sum(series_terms)),
                     math.sqrt(a) * _k_series_tail(4.0, p, c, _SERIES_TERMS + 1),
                     _EVAL_ULPS * math.sqrt(a) * (float(mag) / a
                                                  + 4.0 * float(np.sum(np.abs(series_terms))))))
    value, tail, eval_err = (np.array(v) if np.ndim(alpha) else v[0] for v in zip(*rows))
    return value, {"series_tail": tail, "eval_err": eval_err}


def _hurwitz_F(z: complex, alphas, pref=None):
    """F(alpha) = pref (sum_n lambda(n alpha, z) - zeta(z+1)/(2 alpha^{z+1})
    - zeta(z)/(alpha z)) at every alpha of a grid, pref alpha^{(z+1)/2} by
    default, from one lambda_sum call; returns (values, budgets: the
    em_residual bound and the eval_err ulp charge), arrays."""
    alphas = np.asarray(alphas, dtype=float)
    pref = alphas ** (0.5 * (z + 1.0)) if pref is None else pref
    s, resid, mag = lambda_sum(alphas, z, _SERIES_TERMS)
    # The boundary terms are (P - R)/(2 alpha z), P = zeta*(1+z) alpha^{-z}
    # and R = zeta*(1-z) sec(pi z/2) (2 pi)^z / Gamma(1+z) = -2 zeta(z).
    b, b_mag = _pole_quotient(z, -np.log(alphas), math.log(2.0 * math.pi) - _lgamma_slope(z))
    scale = np.abs(pref)
    return pref * (s - b / (2.0 * alphas)), {"em_residual": scale * resid, "eval_err": _EVAL_ULPS
                                             * scale * (mag + b_mag / (2.0 * alphas))}


def _k_pair_z1(alpha: float):
    """Z(1) and Z'(1) of the K-Bessel pair at alpha, where Z(s) =
    (alpha^{-s} + alpha^{s-1})/4: the constants of both z = 0 forms."""
    return (1.0 / alpha + 1.0) / 4.0, math.log(alpha) * (1.0 - 1.0 / alpha) / 4.0


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_rg_corollary(z=0.5+0j, alpha=1.0,
                        tolerance: float = 1e-8) -> VerificationReport | list:
    """Xi-pair integral against cos(t log(alpha)/2)/((t^2+(z+1)^2)(t^2+(z-1)^2))
    versus the modular K-Bessel combination f_frak, from one vector integral
    and one f_frak call over the alphas, at z = 0 too (f_frak's limit there;
    verify_rg_corollary_z0 checks the paper's Theta form of that case)."""
    alphas = _alphas(alpha)
    z = _check_z(z)
    zp, zm = (z + 1.0) ** 2, (z - 1.0) ** 2

    def g(t):
        return 1.0 / ((t * t + zp) * (t * t + zm))

    frak, budgets = f_frak(z, alphas)
    return _xi_grid("rg-corollary", z, g, alpha, alphas, tolerance, -(32.0 / math.pi), frak,
                    budgets)


def verify_rg_corollary_z0(alpha=1.0,
                           tolerance: float = 1e-8) -> VerificationReport | list:
    """z=0 limit: (32/pi) Xi^2-integral with the K-pair Z weight versus
    sum d(n) Theta(pi n) minus the (Z'(1) + (gamma - log 4 pi) Z(1)) constant,
    from one vector integral over the alphas (the series side per alpha)."""

    def g(t):
        return 1.0 / np.square(1.0 + t * t)

    n = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    dn = arith.build_table(0.0, _SERIES_TERMS).real
    alphas, rhs, tail = _alphas(alpha), [], []
    for a in alphas:
        beta = 1.0 / a
        theta = (bessel_k(0.0, 2.0 * a * math.pi * n).real
                 + beta * bessel_k(0.0, 2.0 * beta * math.pi * n).real)
        z1, z1p = _k_pair_z1(a)
        rhs.append(float(np.sum(dn * theta)) - (z1p + (EULER_GAMMA - math.log(4.0 * math.pi)) * z1))
        # d(n) Theta(pi n) <= 2 sqrt(n) (1 + beta) times the K envelope.
        tail.append(_k_series_tail(2.0 * (1.0 + beta), 0.5, 2.0 * math.pi * min(a, beta),
                                   _SERIES_TERMS + 1))
    return _xi_grid("rg-corollary-z0", 0.0 + 0.0j, g, alpha, alphas, tolerance,
                    (32.0 / math.pi) / (2.0 * np.sqrt(alphas)), rhs, {"series_tail": tail})


def verify_rg_formula(z=0.5+0j, alpha=1.0,
                      tolerance: float = 1e-8) -> VerificationReport | list:
    """f_frak(alpha, z) = f_frak(1/alpha, z), f_frak evaluated once over the
    alphas and their reciprocals (_modular_grid)."""
    z = _check_z(z)
    return _modular_grid("rg-formula", lambda points: f_frak(z, points), z, alpha, tolerance)


def verify_hurwitz_corollary(z=0.5+0j, alpha=1.0,
                             tolerance: float = 1e-6) -> VerificationReport | list:
    """Gamma-weighted Xi-pair integral versus the tail-corrected
    Hurwitz-lambda combination alpha^{(z+1)/2}(sum lambda - boundary terms),
    from one vector integral (the weight Gamma((z-1+it)/4) Gamma((z-1-it)/4)
    /(t^2+(z+1)^2) once per node) and one _hurwitz_F call over the alphas."""
    alphas = _alphas(alpha)
    z = _check_z(z)
    zp, base = (z + 1.0) ** 2, 0.25 * (z - 1.0)

    def g(t):
        return gamma(base + 0.25j * t) * gamma(base - 0.25j * t) / (t * t + zp)

    pref = 8.0 * (4.0 * math.pi) ** (0.5 * (z - 3.0)) / gamma(z + 1.0)
    F, budgets = _hurwitz_F(z, alphas)
    return _xi_grid("hurwitz-corollary", z, g, alpha, alphas, tolerance, pref, F, budgets)


def verify_hurwitz_modular(z=0.5+0j, alpha=1.0,
                           tolerance: float = 1e-8) -> VerificationReport | list:
    """F(alpha) = F(1/alpha) for the Hurwitz-lambda combination, F evaluated
    once over the alphas and their reciprocals (_modular_grid)."""
    z = _check_z(z)
    return _modular_grid("hurwitz-modular", lambda points: _hurwitz_F(z, points), z,
                         alpha, tolerance)


def _divisor_k_series(cs, z: complex, spec: QuadratureSpec):
    """sum_n sigma_{-z}(n) n^{z+1} I_n(c) at every K scale c of cs, where
    I_n(c) integrates x^{1+z/2} K_{z/2}(2 c x) (x^2 + pi^2 n^2)^{-(z+3)/2}
    over x > 0: the series side of both Hurwitz-type identities.  It is
    one vector integral with a column per c, whose n-sum runs to infinity
    once per node: pi^{2 expo} times kernels._divisor_sum at y2 = (x/pi)^2
    and expo = -(z+3)/2, _SERIES_TERMS terms direct and the rest from the
    tail moments.  Returns (values, quadrature errors), arrays.  With
    |x^2 + pi^2 n^2|^expo <= (pi n)^{-(Re z+3)} the n-sum is at most
    pi^{-(Re z+3)} zeta(2) zeta(2+Re z), times x^{1+Re z/2} and K's
    _k_envelope: each column's tail bound."""
    cs = np.asarray(cs, dtype=float)
    N, expo = _SERIES_TERMS, -0.5 * (z + 3.0)
    weights = _omega_plan(z, N) * np.arange(1, N + 1, dtype=float) ** (z + 1.0)

    def f(x):
        mix = math.pi ** (2.0 * expo) * _divisor_sum((x / math.pi) ** 2, z, N, weights, expo)
        kw = bessel_k(0.5 * z, np.multiply.outer(x, 2.0 * cs))
        return (np.power(x, 1.0 + 0.5 * z) * mix)[:, None] * kw

    n_sum = math.pi ** -(z.real + 3.0) * math.pi ** 2 / 6.0 * riemann_zeta(2.0 + z.real).real
    r = integrate_half_line(f, [(n_sum * A, p + 1.0 + 0.5 * z.real, b)
                                for A, p, b in (_k_envelope(0.5 * z, 2.0 * c) for c in cs)], spec)
    return r.value, r.total_error


def verify_hurwitz_corollary_z0(alpha=1.0,
                                tolerance: float = 1e-6) -> VerificationReport | list:
    """z=0 limit with |Gamma((-1+it)/4)|^2 weight versus
    (pi/2) sum n d(n) I_n - ((gamma - log 2 pi) Z(1) + Z'(1))/2, where
    I_n integrates x Theta(x) (x^2 + pi^2 n^2)^{-3/2} with Theta(x) =
    K_0(2 alpha x) + beta K_0(2 beta x): one divisor-K series call with a
    column per scale of the alphas and their reciprocals, against one
    vector Xi-pair integral over the alphas."""
    alphas = _alphas(alpha)

    def g(t):
        gp = gamma(-0.25 + 0.25j * t)
        return (gp * gp.conjugate()) / (1.0 + t * t)

    cs = sorted({*alphas, *(1.0 / a for a in alphas)})
    own, mirror = [cs.index(a) for a in alphas], [cs.index(1.0 / a) for a in alphas]
    series, quad_err = (v[own] + v[mirror] / np.array(alphas)
                        for v in _divisor_k_series(cs, 0.0, _XI_SPEC))
    z1, z1p = np.array([_k_pair_z1(a) for a in alphas]).T
    rhs = (0.5 * math.pi) * series.real - 0.5 * ((EULER_GAMMA - math.log(2.0 * math.pi)) * z1 + z1p)
    return _xi_grid("hurwitz-corollary-z0", 0.0 + 0.0j, g, alpha, alphas, tolerance,
                    math.pi ** (-1.5) / (2.0 * np.sqrt(alphas)), rhs,
                    {"quad_err": 0.5 * math.pi * quad_err})


def verify_bessel_hurwitz_sum(alpha=1.0, z=0.5+0j,
                              tolerance: float = 1e-5) -> VerificationReport | list:
    """pi^{z+1/2} Gamma((z+3)/2) sum sigma_{-z}(n) n^{z+1} I_n(z) versus
    (alpha^{z/2}/2^{z+2}) Gamma(z+1) sum_m lambda(m alpha, z); the printed
    bracket's (m alpha)^{-z}/2 reading diverges, the lambda reading is used.
    I_n(z) integrates x^{1+z/2} K_{z/2}(2 alpha x) (x^2 + pi^2 n^2)^{-(z+3)/2}:
    one divisor-K series call with a column per alpha, and one lambda_sum
    call over the alphas."""
    z = _check_z(z)
    alphas = _alphas(alpha)
    pref_l, gamma_z1 = math.pi ** (z + 0.5) * gamma(0.5 * (z + 3.0)), gamma(z + 1.0)
    series, quad_err = _divisor_k_series(alphas, z, _BESSEL_HURWITZ_SPEC)
    lam, resid, mag = lambda_sum(np.asarray(alphas, dtype=float), z, _SERIES_TERMS)
    pref_r = [a ** (0.5 * z) / 2.0 ** (z + 2.0) * gamma_z1 for a in alphas]
    scale_r = np.array([abs(p) for p in pref_r])
    budgets = {"quad_err": abs(pref_l) * quad_err, "em_residual": scale_r * resid,
               "eval_err": _EVAL_ULPS * scale_r * mag}
    return _reports("bessel-hurwitz-sum", {"z": z, "alpha": alpha}, alphas,
                    [complex(pref_l) * v for v in series.tolist()],
                    [complex(p) * v for p, v in zip(pref_r, lam.tolist())], budgets, tolerance)


def verify_mellin_k(s=2+0j, nu=0j, q: float = 1.0,
                    tolerance: float = 1e-9) -> VerificationReport:
    """Integral of x^{s-1} K_nu(q x) versus 2^{s-2} q^{-s} Gamma((s-nu)/2) Gamma((s+nu)/2)."""
    s, nu = complex(s), complex(nu)
    if q <= 0.0:
        raise DomainError("q > 0 required")
    if s.real <= abs(nu.real):
        raise DomainError("Re s > |Re nu| required")
    # Deep tanh-sinh nodes reach x ~ 1e-275 where x^{s-1} underflows while
    # K_nu(qx) overflows; below x = 1e-40, and below qx = 2 (1e-250)^{1/Re mu},
    # where K ~ Gamma(mu)/2 (2/(qx))^mu passes 1e250 at a large order, the
    # small-argument form is assembled in log space instead (two-term error
    # there is O((qx)^2) relative): c_lead x^{s-1-mu} + c_refl x^{s-1+mu}, or
    # at mu = 0 -x^{s-1} (log(q/2) + log x + gamma).  At integer order the
    # reflected term (a Gamma(-mu) pole) is part of the O((qx)^2) remainder.
    mu = nu if nu.real >= 0.0 else -nu
    small = max(1e-40, 2.0 / q * 1e-250 ** (1.0 / max(mu.real, 1.0)))
    if abs(mu) >= 1e-12:
        c_lead = 0.5 * gamma(mu) * (2.0 / q) ** mu
        integer = mu.imag == 0.0 and abs(mu.real - round(mu.real)) < 1e-9
        c_refl = None if integer else 0.5 * gamma(-mu) * (0.5 * q) ** mu

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        tiny = x < small
        if np.any(~tiny):
            xs = x[~tiny]
            out[~tiny] = np.power(xs, s - 1.0) * bessel_k(nu, q * xs)
        if np.any(tiny):
            with np.errstate(under="ignore"):
                lx = np.log(x[tiny])
                if abs(mu) < 1e-12:
                    out[tiny] = -np.exp((s - 1.0) * lx) * (
                        np.log(0.5 * q) + lx + EULER_GAMMA)
                else:
                    out[tiny] = c_lead * np.exp((s - 1.0 - mu) * lx)
                    if c_refl is not None:
                        out[tiny] += c_refl * np.exp((s - 1.0 + mu) * lx)
        return out

    # The integrand peaks near x = (Re s - 1)/q: integrate in u = x/m with
    # that peak at u <= 1, in the head.  For u >= 1, |m (mu)^{s-1} K_nu(qmu)|
    # <= m^{Re s} u^{Re s - 1} |K_nu(qmu)|, and _k_envelope bounds K.
    m = max(1.0, (s.real - 1.0) / q)
    A, p, b = _k_envelope(nu, q * m)
    r = integrate_half_line(lambda u: m * f(m * u), (m ** s.real * A, p + s.real - 1.0, b),
                            _MELLIN_SPEC)
    lhs = r.value
    rhs = 2.0 ** (s - 2.0) * q ** (-s) * gamma(0.5 * (s - nu)) * gamma(0.5 * (s + nu))
    # The sides' rounding: each multiplies at most four factors, each within
    # _EVAL_ULPS (the rhs 2^{s-2}, q^{-s} and two Gamma values; the integrand
    # m, x^{s-1} and K_nu, then the node sum): 64 ulps of |lhs| + |rhs|.
    budgets = {"quad_err": r.err_estimate, "truncation": r.truncation_bound,
               "eval_err": 4.0 * _EVAL_ULPS * (abs(lhs) + abs(rhs))}
    return _report("mellin-k", {"s": s, "nu": nu, "q": q}, lhs, rhs, budgets, tolerance)


def verify_laplace_bessel(alpha=1.0, y: float = 1.0, z=0.5+0j,
                          tolerance: float = 1e-9) -> VerificationReport | list:
    """Integral of e^{-2 pi alpha x} x^{z/2} J_z(4 pi sqrt(xy)) versus
    e^{-2 pi y/alpha} y^{z/2} / (2 pi alpha^{z+1}), from one vector Laplace
    integral with a column per alpha (_laplace_columns)."""
    zr = _real_order(z)
    if zr <= -1.0:
        raise DomainError("Re z > -1 required")
    alphas = _alphas(alpha)
    if y <= 0.0:
        raise DomainError("y > 0 required")
    c = 4.0 * math.pi * math.sqrt(y)
    # For x >= 1, |J_z(c sqrt x)| <= sqrt(J^2 + Y^2)(c): Nicholson's J^2 + Y^2
    # falls with the argument (DLMF 10.9.30, Watson 13.74).
    j, yc = _bessel_jy(zr, np.array([c]))
    r = _laplace_columns(lambda x: np.power(x, 0.5 * zr) * bessel_j(zr, c * np.sqrt(x)),
                         (math.hypot(j[0], yc[0]), 0.5 * zr), alphas, _LAPLACE_BESSEL_SPEC)
    rhs = [math.exp(-2.0 * math.pi * y / a) * y ** (0.5 * zr) / (2.0 * math.pi * a ** (zr + 1.0))
           for a in alphas]
    # The sides' rounding: each multiplies three factors, each within
    # _EVAL_ULPS (the rhs e^{-2 pi y/alpha}, y^{z/2} and 2 pi alpha^{z+1};
    # the integrand e^{-2 pi alpha x}, x^{z/2} and J_z): 48 ulps of |lhs| + |rhs|.
    budgets = {"quad_err": r.err_estimate, "truncation": r.truncation_bound,
               "eval_err": [3.0 * _EVAL_ULPS * (abs(v) + abs(h))
                            for v, h in zip(r.value.tolist(), rhs)]}
    return _reports("laplace-bessel", {"alpha": alpha, "y": y, "z": complex(zr)}, alphas,
                    r.value, rhs, budgets, tolerance)


def verify_omega_self_reciprocal(x: float = 1.0, z=0.5+0j,
                                 tolerance: float = 1e-6) -> VerificationReport:
    """J_z transform of Omega(y,z) - zeta(z) y^{z/2-1}/(2 pi) reproduces the
    same combination at x, divided by 2 pi.

    The combination is O(y^{-z/2}) at the origin (regular after the J weight)
    but only decays like y^{z/2-1}: past Y, Omega itself is exponentially
    small and the power part's J-transform tail is summed over half-period
    segments with iterated averaging.
    """
    z = _check_z(_real_order(z))
    zr = z.real
    if x <= 0.0:
        raise DomainError("x > 0 required")
    c = 4.0 * math.pi * math.sqrt(x)
    Y = 14.0

    def f(y):
        y = np.asarray(y, dtype=float)
        return bessel_j(zr, c * np.sqrt(y)) * omega_combination(y, zr, _SERIES_TERMS)

    head = quadrature.integrate_singular_head(f, Y, _OMEGA_SELF_RECIPROCAL_SPEC)

    def g(u):
        return bessel_j(zr, u) * np.power(u, zr - 1.0)

    # The power part's envelope u^{z-3/2} decays too slowly to truncate,
    # but J_z alternates with half-period pi.
    osc = quadrature.integrate_alternating_tail(g, c * math.sqrt(Y), math.pi)
    zeta_z = riemann_zeta(zr)
    tail = -(zeta_z / (2.0 * math.pi)) * 2.0 * c ** (-zr) * osc.value
    # The discarded Omega piece past Y: |J_z(u)| <= 1 for z >= 0, and for
    # z < 0 at most 1 + (u/2)^z / Gamma(1+z) (as below), which falls with u;
    # |Omega(y, z)| <= M (Y/y)^{1/4} e^{-w (sqrt(y/Y) - 1)} (_omega_bound),
    # w = 2 sqrt(2) pi sqrt Y, integrates over y >= Y to M Y e^w 2 w^{-3/2}
    # times the upper incomplete Gamma(3/2, w) = sqrt(w) e^{-w} + erfc(sqrt w)
    # sqrt(pi)/2.
    j_tail = 1.0 if zr >= 0.0 else 1.0 + (0.5 * c * math.sqrt(Y)) ** zr / gamma(1.0 + zr).real
    w = 2.0 * math.sqrt(2.0) * math.pi * math.sqrt(Y)
    om_rem = (j_tail * _omega_bound(z, Y) * Y * 2.0 * w ** -1.5
              * (math.sqrt(w) + 0.5 * math.sqrt(math.pi) * math.exp(w) * math.erfc(math.sqrt(w))))
    # Omega's roundoff bound (omega_combination) at x and over [0, Y] against
    # |J_z(u)| <= 1 + (u/2)^z / Gamma(1+z) (mpmath at z < 0; |J_z| <= 1 at z >= 0).
    k = _omega_roundoff(z)
    jz = (0.5 * c) ** zr / gamma(1.0 + zr).real

    lhs = head.value + tail
    rhs = omega_combination(x, zr, _SERIES_TERMS) / (2.0 * math.pi)
    budgets = {"quad_err": head.err_estimate,
               "oscillation_err": abs(zeta_z / math.pi) * c ** (-zr) * osc.err_estimate,
               "omega_remainder": om_rem,
               "eval_err": _EVAL_ULPS * k * sum(x ** e / (2.0 * math.pi) + Y ** (1.0 + e) / (1.0 + e)
                                                + jz * Y ** (1.0 + e + 0.5 * zr) / (1.0 + e + 0.5 * zr)
                                                for e in (0.5 * zr, -0.5 * zr))}
    return _report("omega-self-reciprocal", {"x": x, "z": complex(zr)}, lhs, rhs, budgets,
                   tolerance)


def _laplace_columns(weight: Callable, bound: tuple, cols, spec: QuadratureSpec):
    """Integral over x > 0 of e^{-2 pi c x} weight(x) for every c of cols,
    from one vector integral: weight is evaluated once per node, the
    exponential once per node and column.  bound = (A, p) has |weight(x)|
    <= A x^p for x >= 1, which gives each column its tail bound.
    Returns the QuadratureResult, one value and error per column."""
    cols = np.asarray(cols, dtype=float)

    def f(x):
        return weight(x)[:, None] * np.exp(-2.0 * math.pi * np.multiply.outer(x, cols))

    return integrate_half_line(f, [(*bound, 2.0 * math.pi * c) for c in cols], spec)


def _omega_laplace(z: complex, points):
    """The Laplace side of both Omega identities, the integral over x > 0 of
    e^{-w x} x^{z/2} (Omega - zeta(z) x^{z/2-1}/(2 pi)) at each w = 2 pi p
    of points (_laplace_columns): (values, quadrature errors, ulps), where
    _EVAL_ULPS ulps bounds Omega's roundoff integrated against the weight,
    at most (_omega_bound + |zeta(z)|/(2 pi)) x^{Re z/2} for x >= 1."""
    bound = _omega_bound(z) + abs(riemann_zeta(z)) / (2.0 * math.pi), 0.5 * z.real
    r = _laplace_columns(lambda x: omega_combination(x, z, 500) * np.power(x, 0.5 * z),
                         bound, points, _OMEGA_LAPLACE_SPEC)
    k = _omega_roundoff(z)
    w = 2.0 * math.pi * np.asarray(points)
    return r.value, r.total_error, k * (gamma(1.0 + z.real).real * w ** (-1.0 - z.real) + 1.0 / w)


def verify_omega_modular(alpha=1.0, z=0.5+0j,
                         tolerance: float = 1e-6) -> VerificationReport | list:
    """alpha^{(z+1)/2} times the Omega Laplace integral is invariant under
    alpha -> 1/alpha, from one vector Laplace integral whose columns are the
    alphas, then their reciprocals (_modular_grid)."""
    z = _check_z(z)

    def F(points):
        value, quad_err, ulps = _omega_laplace(z, points)
        pref = np.array([p ** (0.5 * (z + 1.0)) for p in points])
        return pref * value, {"quad_err": np.abs(pref) * quad_err,
                              "eval_err": _EVAL_ULPS * np.abs(pref) * ulps}

    return _modular_grid("omega-modular", F, z, alpha, tolerance)


def verify_omega_laplace(alpha=1.0, z=0.5+0j,
                         tolerance: float = 1e-6) -> VerificationReport | list:
    """The Omega Laplace integral versus Gamma(z+1)/(2 pi)^{z+1} times the
    tail-corrected lambda combination; the boundary terms appear once (the
    printed form repeats them inside the sum, which diverges).  One vector
    Laplace integral with a column per alpha and one _hurwitz_F call."""
    z = _check_z(z)
    alphas = _alphas(alpha)
    lhs, quad_err, ulps = _omega_laplace(z, alphas)
    rhs, rhs_budgets = _hurwitz_F(z, alphas, gamma(z + 1.0) / (2.0 * math.pi) ** (z + 1.0))
    budgets = {"quad_err": quad_err, **rhs_budgets}
    budgets["eval_err"] += _EVAL_ULPS * ulps           # the lhs's Omega
    return _reports("omega-laplace", {"alpha": alpha, "z": z}, alphas, lhs, rhs, budgets,
                    tolerance)


def verify_pair_reciprocity(pair: ReciprocalPair, z=0.5+0j, x: float = 1.0,
                            tolerance: float = 1e-6) -> VerificationReport:
    """phi(x) versus 2 * transform of psi at x (factor-2, argument-4sqrt(tx)
    convention), plus the mirrored psi-from-phi check, which runs first:
    the transform checks z (real, |Re z| < 1/2) and x > 0 for both
    directions, and the pair's phi any narrower rule of its own."""
    zr = complex(z).real
    mir = first_koshliakov_transform(lambda t: pair.phi(t, zr), z, 4.0 * x,
                                     pair.phi_envelope(zr), _PAIR_SPEC)
    fwd = first_koshliakov_transform(lambda t: pair.psi(t, zr), zr, 4.0 * x,
                                     pair.psi_envelope and pair.psi_envelope(zr), _PAIR_SPEC)
    lhs = complex(np.asarray(pair.phi(np.array([x]), zr))[0])
    rhs = 2.0 * fwd.value
    psi_x = complex(np.asarray(pair.psi(np.array([x]), zr))[0])
    # Judged like the report's own diff: absolute where |psi(x)| < 1e-3,
    # since the transform is only accurate to an absolute 1e-11 there.
    mir_diff = abs(2.0 * mir.value - psi_x)
    if abs(psi_x) >= 1e-3:
        mir_diff /= abs(psi_x)
    budgets = {"quad_err": 2.0 * (fwd.total_error + mir.total_error),
               "mirrored_rel_diff": mir_diff}
    return _report("pair-reciprocity", {"pair": pair.label, "z": complex(zr), "x": x}, lhs, rhs,
                   budgets, tolerance)


# ---------------------------------------------------------------------------
# Registry (CLI surface)
# ---------------------------------------------------------------------------

def _current(fn: Callable) -> Callable:
    """A function of this module as its name is bound now.  The registry
    looks its verifiers up at call time rather than holding them, so a
    wrapper installed on the module attribute (a tracer's, a test's) sees
    the calls made through the CLI."""
    if fn.__module__ != __name__:
        return fn
    return globals()[fn.__name__]


class IdentityEntry(collections.namedtuple("IdentityEntry", "runner summary defaults tolerance")):
    """runner(**args, tolerance=...) gives one report, or with a sequence
    for alpha one per alpha.  Its parameters before
    tolerance are the CLI's flags, with their defaults (defaults), and its
    tolerance default is the identity's tolerance.  A namedtuple: read-only,
    and equal to an entry with the same fields."""

    __slots__ = ()

    def __new__(cls, runner: Callable, summary: str):
        params = inspect.signature(runner).parameters
        names = list(params)
        defaults = {name: params[name].default for name in names[:names.index("tolerance")]}
        return super().__new__(cls, runner, summary, defaults, params["tolerance"].default)

    @property
    def arg_names(self) -> tuple:
        return tuple(self.defaults)

    def verify(self, args: dict, tolerance: float):
        return _current(self.runner)(**args, tolerance=tolerance)


def _run_pair(pair: str = "k-bessel", pair_alpha: float = 2.0, z=0.5+0j, x: float = 1.0,
              tolerance: float = 1e-6) -> VerificationReport:
    """verify_pair_reciprocity with the pair named as the CLI names it."""
    if pair == "k-bessel":
        made = pair_k_bessel(pair_alpha)
    elif pair == "dixon-ferrar":
        made = pair_dixon_ferrar()
    else:
        raise DomainError(f"unknown pair '{pair}' (k-bessel, dixon-ferrar)")
    return verify_pair_reciprocity(made, z, x, tolerance)


# The CLI's verify and sweep flags follow the order in which the entries
# below first name each parameter.
IDENTITIES: dict = {
    "rg-corollary": IdentityEntry(
        verify_rg_corollary,
        "Xi-pair integral vs the modular K-Bessel combination"),
    "rg-corollary-z0": IdentityEntry(
        verify_rg_corollary_z0,
        "z=0 corollary: Xi^2 integral vs divisor Theta series"),
    "rg-formula": IdentityEntry(
        verify_rg_formula,
        "modular invariance of the K-Bessel combination"),
    "hurwitz-corollary": IdentityEntry(
        verify_hurwitz_corollary,
        "Gamma-weighted Xi-pair integral vs the Hurwitz lambda combination"),
    "hurwitz-corollary-z0": IdentityEntry(
        verify_hurwitz_corollary_z0,
        "z=0 corollary: |Gamma|^2 Xi^2 integral vs n d(n) Theta moments"),
    "hurwitz-modular": IdentityEntry(
        verify_hurwitz_modular,
        "modular invariance of the Hurwitz lambda combination"),
    "mellin-k": IdentityEntry(
        verify_mellin_k,
        "Mellin transform of K_nu vs Gamma product closed form"),
    "omega-self-reciprocal": IdentityEntry(
        verify_omega_self_reciprocal,
        "Omega combination is self-reciprocal under the J_z transform"),
    "omega-modular": IdentityEntry(
        verify_omega_modular,
        "alpha^{(z+1)/2} Omega Laplace integral invariant under alpha -> 1/alpha"),
    "omega-laplace": IdentityEntry(
        verify_omega_laplace,
        "Omega Laplace integral vs the lambda combination closed form"),
    "laplace-bessel": IdentityEntry(
        verify_laplace_bessel,
        "Laplace-type J_z integral vs exponential closed form"),
    "bessel-hurwitz-sum": IdentityEntry(
        verify_bessel_hurwitz_sum,
        "K-weighted divisor series vs the lambda series closed form"),
    "pair-reciprocity": IdentityEntry(
        _run_pair,
        "phi/psi pair reciprocity under the factor-2 kernel transform"),
}
