"""Both sides of every verified identity, with residuals and error budgets.

Every verifier returns a VerificationReport whose budgets (quadrature error
estimates plus analytic truncation bounds) must themselves sit below the
pass tolerance: a pass is never claimed on an under-resolved computation.
Budget keys ending in "_diff" are cross-checks, not error bounds, and are
excluded from that resolution test.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import arith
from .errors import DomainError, KoshliakovError, NearPoleError
from .kernels import (ReciprocalPair, _divisor_tail_moment,
                      first_koshliakov_transform, lambda_sum,
                      omega_combination, pair_dixon_ferrar, pair_k_bessel,
                      transform_kernel)
from .quadrature import (QuadratureSpec, integrate_finite, integrate_half_line,
                         tanh_sinh)
from .specfun import (EULER_GAMMA, bessel_j, bessel_k, big_xi, gamma,
                      riemann_zeta)

_TINY = 1e-300
_EPS = 2.0 ** -52


def _check_domain(alphas=(), terms: int = 1) -> None:
    """The rule every identity with a scale alpha (beta = 1/alpha) or a
    series truncation shares: alpha in [1/4, 4], the quadrature's
    oscillation limit, and at least one term."""
    if any(not 0.25 <= alpha <= 4.0 for alpha in alphas):
        raise DomainError("alpha must lie in [1/4, 4]")
    if terms < 1:
        raise DomainError("terms must be >= 1")


_Z_STRIPS = {"|Re z| < 1": lambda x: abs(x) < 1.0,
             "0 < |Re z| < 1": lambda x: 0.0 < abs(x) < 1.0,
             "0 < Re z < 1": lambda x: 0.0 < x < 1.0}


def _check_z(z, strip: str, zero_ok: bool = False) -> complex:
    """z as a complex number with Re z in the named strip (a key of
    _Z_STRIPS, whose text is also the error message) and |z| >= 1e-4,
    below which the poles at z = 0 leave too few digits.  With zero_ok,
    z = 0 itself (|z| < 1e-12) passes, for an identity's z = 0 form."""
    z = complex(z)
    if not _Z_STRIPS[strip](z.real):
        raise DomainError(f"{strip} required")
    if (1e-12 if zero_ok else 0.0) <= abs(z) < 1e-4:
        raise NearPoleError(("need z = 0 exactly or " if zero_ok else "need ") + "|z| >= 1e-4")
    return z


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
    """Xi((t+iz)/2) Xi((t-iz)/2) over an array of t."""
    a = big_xi(0.5 * (t + 1j * z))
    # For real z the two factors are conjugates.
    return a * (a.conjugate() if z.imag == 0.0 else big_xi(0.5 * (t - 1j * z)))


# The default accuracy of the four Xi-pair integrals.
_XI_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)


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


def _xi_grid(identity_id: str, z: complex, g: Callable, alphas, terms: int,
             spec: Optional[QuadratureSpec], tolerance: float, row: Callable) -> list:
    """The reports of a Xi-pair identity over an alpha grid, from one vector
    integral over [0, T] of the Xi pair against g(t) cos(t log(alpha)/2), a
    column per alpha (spec defaults to _XI_SPEC): g(t), the alpha-free part
    of the weight, and the Xi pair are evaluated once per node.  The Xi pair
    decays at least like exp(-pi t/4) and |g(T)| must bound |g| on
    [T, inf): with the cosine replaced by 1 that bounds every column's
    discarded piece (xi_cutoff).  row(col, alpha) gives the lhs prefactor,
    the rhs and its own budgets (one named quad_err adds to the integral's).
    Returns one report per alpha, or in its place that row's error."""
    T = 60.0
    la = np.array([math.log(alpha) for alpha in alphas])

    def f(t):
        return (_xi_pair(t, z) * g(t))[:, None] * np.cos(0.5 * np.multiply.outer(t, la))

    res = integrate_finite(f, 0.0, T, spec or _XI_SPEC)
    end = np.array([T])
    trunc = abs(complex(_xi_pair(end, z)[0])) * abs(complex(g(end)[0])) * (4.0 / math.pi) * 5.0

    def report(col, alpha):
        pref, rhs, rhs_budgets = row(col, alpha)
        budgets = {"quad_err": abs(pref) * float(res.err_estimate[col]),
                   "xi_cutoff": abs(pref) * trunc}
        for key, value in rhs_budgets.items():
            budgets[key] = budgets.get(key, 0.0) + value
        params = {"z": [z.real, z.imag], "alpha": alpha, "terms": terms}
        return _report(identity_id, params, pref * complex(res.value[col]), rhs,
                       budgets, tolerance, real_inputs=(z.imag == 0.0))

    return _rows(alphas, report)


def _modular_grid(identity_id: str, F: Callable, z: complex, alphas, tolerance: float,
                  terms: Optional[int] = None) -> list:
    """The reports of F(alpha) = F(1/alpha) over an alpha grid, F(points)
    giving (values, budgets) as arrays.  F is called once, over the alphas
    and then their reciprocals, so an error there fails every row; each
    budget is the sum of the two sides'.  The params name terms if given."""
    _check_domain(alphas, 1 if terms is None else terms)
    m = len(alphas)
    values, budgets = F([*alphas, *(1.0 / a for a in alphas)])

    def row(col, alpha):
        params = ({"alpha": alpha, "z": [z.real, z.imag]} if terms is None
                  else {"z": [z.real, z.imag], "alpha": alpha, "terms": terms})
        return _report(identity_id, params, values[col], values[m + col],
                       {k: v[col] + v[m + col] for k, v in budgets.items()},
                       tolerance, real_inputs=(z.imag == 0.0))

    return _rows(alphas, row)


# ---------------------------------------------------------------------------
# Oscillatory tails: alternating half-period segments + iterated averaging
# ---------------------------------------------------------------------------

def _euler_limit(partials: np.ndarray):
    """Limit of an alternating-tail sequence of partial sums by repeated
    adjacent averaging; returns (limit, error estimate).  The estimate is
    the last change of the averaging, floored at one rounding of the
    largest partial sum per averaging level: the last two averaged values
    can coincide in floating point, which would otherwise claim 0."""
    arr = np.asarray(partials, dtype=complex)
    if arr.size == 1:
        return complex(arr[0]), abs(complex(arr[0]))
    floor = arr.size * _EPS * float(np.max(np.abs(arr)))
    est_prev = complex(arr[-1])
    err = abs(est_prev)
    while arr.size > 1:
        arr = 0.5 * (arr[1:] + arr[:-1])
        est = complex(arr[-1])
        err = abs(est - est_prev)
        est_prev = est
    return est_prev, max(err, floor)


# Half-period segments summed before the averaging takes the limit.
_SEGMENTS = 96


def _oscillatory_tail(g: Callable, u0: float, half_period: float):
    """Integral of g over [u0, inf) for g that alternates in sign on
    consecutive half-period windows with decaying envelope.  The segments
    are the columns of one vector integral over [0, 1]; g takes a 1-D
    array of points."""
    seg_spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-12, max_panels=64)
    starts = u0 + half_period * np.arange(_SEGMENTS)

    def f(s):
        u = np.add.outer(half_period * s, starts)
        return half_period * g(u.ravel()).reshape(u.shape)

    segs = integrate_finite(f, 0.0, 1.0, seg_spec).value
    partials = np.cumsum(segs)
    small = np.flatnonzero(np.abs(segs) < 1e-17)
    if small.size:
        k = small[0]
        return complex(partials[k]), abs(complex(segs[k])) + 1e-17
    return _euler_limit(partials[_SEGMENTS // 3:])


# ---------------------------------------------------------------------------
# Series with certified tails
# ---------------------------------------------------------------------------

def _k_series_tail(coeff: float, p: float, c: float, n_from: int) -> float:
    """Bound for sum_{n>=n_from} coeff n^p |K_nu(c n)| with |Re nu| <= 1/2,
    where |K_nu(x)| <= sqrt(pi/(2x)) e^{-x}: the envelope's terms shrink
    by at most the ratio of its first two, so they sum to at most a
    geometric series from its first."""

    def term(n):
        return coeff * n ** p * math.sqrt(math.pi / (2.0 * c * n)) * math.exp(-c * n)

    ratio = math.exp(-c) * ((n_from + 1.0) / n_from) ** max(p - 0.5, 0.0)
    return term(n_from) / max(1.0 - ratio, 0.5)


# Relative accuracy claimed for each piece of f_frak (Gamma, zeta, the
# powers, each K term) and of the lambda sides (each Hurwitz value, power
# and boundary term), applied to the sum of the pieces' magnitudes, so
# cancellation among them is charged to the bound.  Against 30-digit
# mpmath the largest error was 0.38 of it over 84 (z, alpha) points of
# f_frak and RATIO_LAMBDA of it over LAMBDA_POINTS points of _hurwitz_F.
_EVAL_ULPS = 16.0 * _EPS


def f_frak(z: complex, alpha, terms: int):
    """The modular combination sqrt(alpha) (alpha^{z/2-1} pi^{-z/2} Gamma(z/2) zeta(z)
    + alpha^{-z/2-1} pi^{z/2} Gamma(-z/2) zeta(-z)
    - 4 sum sigma_{-z}(n) n^{z/2} K_{z/2}(2 n pi alpha));
    invariant under alpha -> 1/alpha.  Returns (value, budgets): the
    series_tail bound (the K envelope with sigma_{-Re z}(n) <= n^{1+|Re z|})
    and the eval_err bound, scalars at a scalar alpha, arrays at an array
    of them (the Gamma and zeta factors are evaluated once)."""
    z = complex(z)
    if abs(z) < 1e-4:
        raise NearPoleError("Gamma(z/2) pole: need |z| >= 1e-4")
    (ga, gb), (za, zb) = gamma(np.array([0.5 * z, -0.5 * z])), riemann_zeta(np.array([z, -z]))
    p, rows, n_effs = 1.0 + abs(z.real) + 0.5 * z.real, [], []
    alphas = np.atleast_1d(alpha).tolist()
    for a in alphas:
        n_eff = max(terms, 1)       # raised until the K tail is below 1e-13
        while n_eff < 500 and _k_series_tail(4.0, p, 2.0 * math.pi * a, n_eff + 1) > 1e-13:
            n_eff += 1
        n_effs.append(n_eff)
    # One sieve for the grid: it adds each n's divisors in the same order
    # at any size, so every slice is the table of its own n_eff.
    table = arith.build_table(-z, max(n_effs))
    for a, n_eff in zip(alphas, n_effs):
        c = 2.0 * math.pi * a
        n = np.arange(1, n_eff + 1, dtype=float)
        series_terms = table.slice(n_eff) * np.power(n, 0.5 * z) * bessel_k(0.5 * z, c * n)
        a_term = a ** (0.5 * z - 1.0) * math.pi ** (-0.5 * z) * ga * za
        b_term = a ** (-0.5 * z - 1.0) * math.pi ** (0.5 * z) * gb * zb
        rows.append((math.sqrt(a) * (a_term + b_term - 4.0 * np.sum(series_terms)),
                     math.sqrt(a) * _k_series_tail(4.0, p, c, n_eff + 1),
                     _EVAL_ULPS * math.sqrt(a) * (abs(a_term) + abs(b_term)
                                                  + 4.0 * float(np.sum(np.abs(series_terms))))))
    value, tail, eval_err = (np.array(v) if np.ndim(alpha) else v[0] for v in zip(*rows))
    return value, {"series_tail": tail, "eval_err": eval_err}


def _hurwitz_F(z: complex, alphas, terms: int, pref=None):
    """F(alpha) = pref (sum_n lambda(n alpha, z) - zeta(z+1)/(2 alpha^{z+1})
    - zeta(z)/(alpha z)) at every alpha of a grid, pref alpha^{(z+1)/2} by
    default, from one lambda_sum call; returns (values, budgets: the
    em_residual bound and the eval_err ulp charge), arrays."""
    alphas = np.asarray(alphas, dtype=float)
    pref = alphas ** (0.5 * (z + 1.0)) if pref is None else pref
    s, resid, mag = lambda_sum(alphas, z, terms)
    zeta_z1, zeta_z = riemann_zeta(np.array([z + 1.0, z]))
    b1, b2 = zeta_z1 / (2.0 * alphas ** (z + 1.0)), zeta_z / (alphas * z)
    scale = np.abs(pref)
    return pref * (s - b1 - b2), {"em_residual": scale * resid, "eval_err": _EVAL_ULPS * scale
                                  * (mag + np.abs(b1) + np.abs(b2))}


def _k_pair_z1(alpha: float):
    """Z(1) and Z'(1) of the K-Bessel pair at alpha, where Z(s) =
    (alpha^{-s} + alpha^{s-1})/4: the constants of both z = 0 forms."""
    return (1.0 / alpha + 1.0) / 4.0, math.log(alpha) * (1.0 - 1.0 / alpha) / 4.0


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def verify_rg_corollary(z=0.5, alpha: float = 1.0, terms: int = 50,
                        spec: Optional[QuadratureSpec] = None,
                        tolerance: float = 1e-8) -> VerificationReport:
    """Xi-pair integral against cos(t log(alpha)/2)/((t^2+(z+1)^2)(t^2+(z-1)^2))
    versus the modular K-Bessel combination f_frak."""
    return _single(rg_corollary_grid([alpha], z, terms, spec, tolerance))


def rg_corollary_grid(alphas, z, terms: int = 50,
                      spec: Optional[QuadratureSpec] = None,
                      tolerance: float = 1e-8) -> list:
    """verify_rg_corollary at every alpha of a grid, from one vector
    integral: the Xi pair and the rational factor are evaluated once per
    node, the cosine once per node and alpha.  Returns one report per
    alpha, or in its place the KoshliakovError that alpha's rhs raised."""
    _check_domain(alphas, terms)
    z = _check_z(z, "|Re z| < 1", zero_ok=True)
    if abs(z) < 1e-12:
        return rg_corollary_z0_grid(alphas, terms, spec, tolerance)
    zp, zm = (z + 1.0) ** 2, (z - 1.0) ** 2

    def g(t):
        return 1.0 / ((t * t + zp) * (t * t + zm))

    frak, budgets = f_frak(z, alphas, terms)
    return _xi_grid("rg-corollary", z, g, alphas, terms, spec, tolerance,
                    lambda col, alpha: (-(32.0 / math.pi), frak[col],
                                        {k: v[col] for k, v in budgets.items()}))


def verify_rg_corollary_z0(alpha: float = 1.0, terms: int = 50,
                           spec: Optional[QuadratureSpec] = None,
                           tolerance: float = 1e-8) -> VerificationReport:
    """z=0 limit: (32/pi) Xi^2-integral with the K-pair Z weight versus
    sum d(n) Theta(pi n) minus the (Z'(1) + (gamma - log 4 pi) Z(1)) constant."""
    return _single(rg_corollary_z0_grid([alpha], terms, spec, tolerance))


def rg_corollary_z0_grid(alphas, terms: int = 50,
                         spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-8) -> list:
    """verify_rg_corollary_z0 at every alpha of a grid, from one vector
    integral; returns one report (or rhs error) per alpha."""
    _check_domain(alphas, terms)

    def g(t):
        return 1.0 / np.square(1.0 + t * t)

    n_eff = max(terms, 8)
    n = np.arange(1, n_eff + 1, dtype=float)
    dn = arith.build_table(0.0, n_eff).slice(n_eff).real

    def row(col, alpha):
        beta = 1.0 / alpha
        theta = (bessel_k(0.0, 2.0 * alpha * math.pi * n).real
                 + beta * bessel_k(0.0, 2.0 * beta * math.pi * n).real)
        z1, z1p = _k_pair_z1(alpha)
        rhs = float(np.sum(dn * theta)) - (z1p + (EULER_GAMMA - math.log(4.0 * math.pi)) * z1)
        # d(n) Theta(pi n) <= 2 sqrt(n) (1 + beta) times the K envelope.
        tail = _k_series_tail(2.0 * (1.0 + beta), 0.5, 2.0 * math.pi * min(alpha, beta),
                              n_eff + 1)
        return (32.0 / math.pi) / (2.0 * math.sqrt(alpha)), rhs, {"series_tail": tail}

    return _xi_grid("rg-corollary-z0", 0.0 + 0.0j, g, alphas, n_eff, spec, tolerance, row)


def verify_rg_formula(z, alpha: float, terms: int = 10,
                      spec: Optional[QuadratureSpec] = None,
                      tolerance: float = 1e-8) -> VerificationReport:
    """f_frak(alpha, z) = f_frak(1/alpha, z)."""
    return _single(rg_formula_grid([alpha], z, terms, spec, tolerance))


def rg_formula_grid(alphas, z, terms: int = 10,
                    spec: Optional[QuadratureSpec] = None,
                    tolerance: float = 1e-8) -> list:
    """verify_rg_formula at every alpha of a grid: f_frak is evaluated once
    over the alphas and their reciprocals (_modular_grid)."""
    z = _check_z(z, "|Re z| < 1")
    return _modular_grid("rg-formula", lambda points: f_frak(z, points, terms), z,
                         alphas, tolerance, terms)


def verify_hurwitz_corollary(z=0.5, alpha: float = 1.0, terms: int = 50,
                             spec: Optional[QuadratureSpec] = None,
                             tolerance: float = 1e-6) -> VerificationReport:
    """Gamma-weighted Xi-pair integral versus the tail-corrected
    Hurwitz-lambda combination alpha^{(z+1)/2}(sum lambda - boundary terms)."""
    return _single(hurwitz_corollary_grid([alpha], z, terms, spec, tolerance))


def hurwitz_corollary_grid(alphas, z, terms: int = 50,
                           spec: Optional[QuadratureSpec] = None,
                           tolerance: float = 1e-6) -> list:
    """verify_hurwitz_corollary at every alpha of a grid, from one vector
    integral (the weight Gamma((z-1+it)/4) Gamma((z-1-it)/4)/(t^2+(z+1)^2)
    once per node) and one _hurwitz_F call, so an error there fails every
    row.  Returns one report per alpha."""
    _check_domain(alphas, terms)
    z = _check_z(z, "0 < |Re z| < 1")
    zp, base = (z + 1.0) ** 2, 0.25 * (z - 1.0)

    def g(t):
        return gamma(base + 0.25j * t) * gamma(base - 0.25j * t) / (t * t + zp)

    pref = 8.0 * (4.0 * math.pi) ** (0.5 * (z - 3.0)) / gamma(z + 1.0)
    F, budgets = _hurwitz_F(z, alphas, terms)
    return _xi_grid("hurwitz-corollary", z, g, alphas, terms, spec, tolerance,
                    lambda col, alpha: (pref, F[col], {k: v[col] for k, v in budgets.items()}))


def verify_hurwitz_modular(z, alpha: float, terms: int = 50,
                           spec: Optional[QuadratureSpec] = None,
                           tolerance: float = 1e-8) -> VerificationReport:
    """F(alpha) = F(1/alpha) for the Hurwitz-lambda combination."""
    return _single(hurwitz_modular_grid([alpha], z, terms, spec, tolerance))


def hurwitz_modular_grid(alphas, z, terms: int = 50,
                         spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-8) -> list:
    """verify_hurwitz_modular at every alpha of a grid: F is evaluated once
    over the alphas and their reciprocals (_modular_grid)."""
    z = _check_z(z, "0 < |Re z| < 1")
    return _modular_grid("hurwitz-modular", lambda points: _hurwitz_F(z, points, terms), z,
                         alphas, tolerance, terms)


def _theta_pair_inner(alpha: float, weights: np.ndarray, order: complex,
                      spec: QuadratureSpec, both: bool):
    """Integral over x > 0 of
    x^{1+order} Kw(x) sum_{n=1}^{N} w_n (x^2 + pi^2 n^2)^{-(order+3/2)},
    N = len(weights): the n <= N part of the divisor-K series, summed
    under one integral so the n-independent K-weight Kw is evaluated once
    per node.  Kw(x) is Theta(x) = K_order(2 alpha x)
    + beta K_order(2 beta x) when both=True, else K_order(2 alpha x).
    Returns (value, error estimate incl. the tail truncation bound)."""
    beta = 1.0 / alpha
    a2 = (math.pi * np.arange(1, weights.size + 1)) ** 2
    expo = -(order + 1.5)

    def f(x):
        x = np.asarray(x, dtype=float)
        if both:
            kw = (bessel_k(order, 2.0 * alpha * x).real
                  + beta * bessel_k(order, 2.0 * beta * x).real)
        else:
            kw = bessel_k(order, 2.0 * alpha * x)
        mix = np.power(np.add.outer(x * x, a2), expo) @ weights
        return np.power(x, 1.0 + order) * kw * mix

    r = integrate_half_line(f, 2.0 * (min(alpha, beta) if both else alpha) * 0.9, spec)
    return r.value, r.total_error


def _divisor_k_series(alpha: float, z: complex, N: int, spec: QuadratureSpec,
                      both: bool):
    """sum_n sigma_{-z}(n) n^{z+1} I_n, where I_n integrates
    x^{1+z/2} Kw(x) (x^2 + pi^2 n^2)^{-(z+3)/2} over x > 0 with the K-weight
    Kw of _theta_pair_inner: the series side of both Hurwitz-type
    identities.  The n <= N part is one integral; the n > N remainder is
    asymptotic.  Returns (value, quadrature error, series tail bound)."""
    nn = np.arange(1, N + 1, dtype=float)
    weights = arith.build_table(-z, N).slice(N) * nn ** (z + 1.0)
    series, quad_err = _theta_pair_inner(alpha, weights, 0.5 * z, spec, both)

    # n > N remainder: expand (x^2+pi^2 n^2)^{-(z+3)/2} in x/(pi n), so each
    # term is a Mellin moment of Kw times a divisor tail; asymptotic,
    # truncated at the smallest term, with the x > pi n interchange mass
    # bounded by the K decay.  Kw(x) = sum of scale * K_{z/2}(2 c x).
    scales = [(alpha, 1.0)] + ([(1.0 / alpha, 1.0 / alpha)] if both else [])
    expo = -0.5 * (z + 3.0)
    tail, tail_err, prev = 0.0, 0.0, math.inf
    binom = 1.0 + 0.0j          # binom(expo, j), by product recursion
    gam = gamma(np.arange(1.0, 61.0)) * gamma(np.arange(1.0, 61.0) + 0.5 * z)
    for j in range(0, 60):
        mj = sum(scale * 2.0 ** (0.5 * z + 2 * j) * (2.0 * c) ** (-(2.0 + 0.5 * z + 2 * j))
                 for c, scale in scales) * gam[j]
        term = (binom * math.pi ** (-(z + 3.0) - 2 * j)
                * mj * _divisor_tail_moment(z, N, j))
        binom *= (expo - j) / (j + 1.0)
        if abs(term) >= prev:
            tail_err = abs(term)
            break
        tail += term
        prev = abs(term)
        if abs(term) < 1e-18:
            tail_err = abs(term)
            break
    c_min = min(c for c, _ in scales)
    tail_err += 10.0 * math.exp(-2.0 * math.pi * (N + 1) * c_min)
    return series + tail, quad_err, tail_err


def verify_hurwitz_corollary_z0(alpha: float = 1.0, terms: int = 50,
                                spec: Optional[QuadratureSpec] = None,
                                tolerance: float = 1e-6) -> VerificationReport:
    """z=0 limit with |Gamma((-1+it)/4)|^2 weight versus
    (pi/2) sum n d(n) I_n - ((gamma - log 2 pi) Z(1) + Z'(1))/2, where
    I_n integrates x Theta(x) (x^2 + pi^2 n^2)^{-3/2}: the divisor-K
    series at z = 0 with the Theta weight (_divisor_k_series)."""
    return _single(hurwitz_corollary_z0_grid([alpha], terms, spec, tolerance))


def hurwitz_corollary_z0_grid(alphas, terms: int = 50,
                              spec: Optional[QuadratureSpec] = None,
                              tolerance: float = 1e-6) -> list:
    """verify_hurwitz_corollary_z0 at every alpha of a grid, from one
    vector Xi-pair integral (the series side stays per alpha); returns one
    report (or rhs error) per alpha."""
    _check_domain(alphas, terms)
    spec = spec or _XI_SPEC

    def g(t):
        gp = gamma(-0.25 + 0.25j * t)
        return (gp * gp.conjugate()) / (1.0 + t * t)

    N = max(terms, 4)

    def row(col, alpha):
        series, series_err, tail_err = _divisor_k_series(alpha, 0.0, N, spec, both=True)
        z1, z1p = _k_pair_z1(alpha)
        rhs = (0.5 * math.pi) * series.real - 0.5 * ((EULER_GAMMA - math.log(2.0 * math.pi)) * z1 + z1p)
        return (math.pi ** (-1.5) / (2.0 * math.sqrt(alpha)), rhs,
                {"quad_err": 0.5 * math.pi * series_err, "series_tail": 0.5 * math.pi * tail_err})

    return _xi_grid("hurwitz-corollary-z0", 0.0 + 0.0j, g, alphas, N, spec, tolerance, row)


def verify_bessel_hurwitz_sum(alpha: float, z, terms: int = 8,
                              spec: Optional[QuadratureSpec] = None,
                              tolerance: float = 1e-5) -> VerificationReport:
    """pi^{z+1/2} Gamma((z+3)/2) sum sigma_{-z}(n) n^{z+1} I_n(z) versus
    (alpha^{z/2}/2^{z+2}) Gamma(z+1) sum_m lambda(m alpha, z); the printed
    bracket's (m alpha)^{-z}/2 reading diverges, the lambda reading is used.
    I_n(z) integrates x^{1+z/2} K_{z/2}(2 alpha x) (x^2 + pi^2 n^2)^{-(z+3)/2}:
    the divisor-K series with the single K weight (_divisor_k_series)."""
    z = _check_z(z, "0 < Re z < 1")
    _check_domain([alpha], terms)
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    N = max(int(terms), 2)
    series, quad_err, tail_err = _divisor_k_series(alpha, z, N, spec, both=False)
    pref_l = math.pi ** (z + 0.5) * gamma(0.5 * (z + 3.0))
    lhs = pref_l * series
    lam, resid, mag = lambda_sum(alpha, z, N)
    pref_r = alpha ** (0.5 * z) / 2.0 ** (z + 2.0) * gamma(z + 1.0)
    rhs = pref_r * lam
    budgets = {"quad_err": abs(pref_l) * quad_err,
               "series_tail": abs(pref_l) * tail_err,
               "em_residual": abs(pref_r) * resid,
               "eval_err": _EVAL_ULPS * abs(pref_r) * mag}
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
    # Deep tanh-sinh nodes reach x ~ 1e-275 where x^{s-1} underflows while
    # K_nu(qx) overflows; below x = 1e-40 the small-argument form is
    # assembled in log space instead (two-term error there is O(x^2)
    # relative): c_lead x^{s-1-mu} + c_refl x^{s-1+mu}, or at mu = 0
    # -x^{s-1} (log(q/2) + log x + gamma).  At integer order the reflected
    # term (a Gamma(-mu) pole) is part of the O(x^2) remainder.
    mu = nu if nu.real >= 0.0 else -nu
    if abs(mu) >= 1e-12:
        c_lead = 0.5 * gamma(mu) * (2.0 / q) ** mu
        integer = mu.imag == 0.0 and abs(mu.real - round(mu.real)) < 1e-9
        c_refl = None if integer else 0.5 * gamma(-mu) * (0.5 * q) ** mu

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=complex)
        tiny = x < 1e-40
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


def verify_omega_self_reciprocal(x: float, z, terms: int = 500,
                                 spec: Optional[QuadratureSpec] = None,
                                 tolerance: float = 1e-6) -> VerificationReport:
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
    zr = _check_z(z, "|Re z| < 1", zero_ok=True).real
    if x <= 0.0:
        raise DomainError("x > 0 required")
    _check_domain(terms=terms)
    spec = spec or QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10)
    c = 4.0 * math.pi * math.sqrt(x)
    Y = 14.0

    def f(y):
        y = np.asarray(y, dtype=float)
        return bessel_j(zr, c * np.sqrt(y)) * omega_combination(y, zr, terms)

    head1 = tanh_sinh(f, 0.0, 1.0, spec)
    head2 = integrate_finite(f, 1.0, Y, spec)

    def g(u):
        return bessel_j(zr, u) * np.power(u, zr - 1.0)

    # The power part's envelope u^{z-3/2} decays too slowly to truncate,
    # but J_z alternates with half-period pi.
    ev, eerr = _oscillatory_tail(g, c * math.sqrt(Y), math.pi)
    zeta_z = -0.5 + 0.0j if abs(zr) < 1e-12 else riemann_zeta(zr)   # zeta(0) exactly
    tail = -(zeta_z / (2.0 * math.pi)) * 2.0 * c ** (-zr) * ev
    # Discarded exponentially small Omega remainder past Y.
    om_rem = 40.0 * math.exp(-2.0 * math.sqrt(2.0) * math.pi * math.sqrt(Y))

    lhs = head1.value + head2.value + tail
    rhs = omega_combination(x, zr, terms) / (2.0 * math.pi)
    budgets = {"quad_err": head1.err_estimate + head2.err_estimate,
               "oscillation_err": abs(zeta_z / math.pi) * c ** (-zr) * eerr,
               "omega_remainder": om_rem}
    if abs(zr) < 1e-12:
        budgets["pole_averaging"] = 1e-7
    params = {"x": x, "z": [zr, 0.0], "terms": terms}
    return _report("omega-self-reciprocal", params, lhs, rhs, budgets, tolerance,
                   real_inputs=True)


def _omega_laplace_columns(cols, z: complex, spec: QuadratureSpec):
    """Integral of e^{-2 pi c x} x^{z/2} (Omega - zeta(z) x^{z/2-1}/(2 pi))
    for every c of cols, from one vector integral: the Omega factor is
    evaluated once per node, the exponential once per node and column.
    The tail rate is that of the smallest c; spec defaults to 1e-11
    absolute and relative.  Returns (values, errors), one per column."""
    cols = np.asarray(cols, dtype=float)

    def f(x):
        w = omega_combination(x, z, 500) * np.power(x, 0.5 * z)
        return w[:, None] * np.exp(-2.0 * math.pi * np.multiply.outer(x, cols))

    r = integrate_half_line(f, 2.0 * math.pi * cols.min() * 0.95,
                            spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11))
    return r.value, r.total_error


def verify_omega_modular(alpha: float, z, spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-6) -> VerificationReport:
    """alpha^{(z+1)/2} times the Omega Laplace integral is invariant under
    alpha -> 1/alpha."""
    return _single(omega_modular_grid([alpha], z, spec, tolerance))


def omega_modular_grid(alphas, z, spec: Optional[QuadratureSpec] = None,
                       tolerance: float = 1e-6) -> list:
    """verify_omega_modular at every alpha of a grid, from one vector
    Laplace integral whose columns are the alphas, then their reciprocals
    (_modular_grid)."""
    z = _check_z(z, "|Re z| < 1", zero_ok=True)

    def F(points):
        values, errs = _omega_laplace_columns(points, z, spec)
        pref = np.array([p ** (0.5 * (z + 1.0)) for p in points])
        # At z = 0 each side carries half of the averaging budget.
        return pref * values, {"quad_err": np.abs(pref) * errs,
                               **({"pole_averaging": np.full(len(points), 0.5e-7)}
                                  if abs(z) < 1e-12 else {})}

    return _modular_grid("omega-modular", F, z, alphas, tolerance)


def verify_omega_laplace(alpha: float, z, terms: int = 50,
                         spec: Optional[QuadratureSpec] = None,
                         tolerance: float = 1e-6) -> VerificationReport:
    """The Omega Laplace integral versus Gamma(z+1)/(2 pi)^{z+1} times the
    tail-corrected lambda combination; the boundary terms appear once (the
    printed form repeats them inside the sum, which diverges)."""
    return _single(omega_laplace_grid([alpha], z, terms, spec, tolerance))


def omega_laplace_grid(alphas, z, terms: int = 50,
                       spec: Optional[QuadratureSpec] = None,
                       tolerance: float = 1e-6) -> list:
    """verify_omega_laplace at every alpha of a grid, from one vector
    Laplace integral with a column per alpha and one _hurwitz_F call, so
    an error in either fails every row; returns one report per alpha."""
    z = _check_z(z, "0 < Re z < 1")
    _check_domain(alphas, terms)
    values, errs = _omega_laplace_columns(alphas, z, spec)
    rhs, rhs_budgets = _hurwitz_F(z, alphas, terms, gamma(z + 1.0) / (2.0 * math.pi) ** (z + 1.0))

    def row(col, alpha):
        budgets = {"quad_err": float(errs[col]), **{k: v[col] for k, v in rhs_budgets.items()}}
        params = {"alpha": alpha, "z": [z.real, z.imag], "terms": terms}
        return _report("omega-laplace", params, complex(values[col]), rhs[col], budgets,
                       tolerance, real_inputs=(z.imag == 0.0))

    return _rows(alphas, row)


def verify_pair_reciprocity(pair: ReciprocalPair, z, x: float,
                            spec: Optional[QuadratureSpec] = None,
                            tolerance: float = 1e-6) -> VerificationReport:
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
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10)
    if pair.label == "dixon-ferrar":
        # psi ~ -1/(4 pi t^2) decays like a power: go to T0, then sum
        # half-period segments of the oscillatory remainder in u = sqrt(t).
        def f(t):
            return pair.psi(t, zr) * transform_kernel(zr, 4.0 * np.sqrt(t * x))

        def g(u):
            return 2.0 * u * pair.psi(u * u, zr) * transform_kernel(zr, 4.0 * u * math.sqrt(x))

        T0 = 25.0
        head = tanh_sinh(f, 0.0, 1.0, spec)
        mid = integrate_finite(f, 1.0, T0, spec)
        osc, oerr = _oscillatory_tail(g, math.sqrt(T0), math.pi / (4.0 * math.sqrt(x)))
        fwd = head.value + mid.value + osc
        fwd_err = head.err_estimate + mid.err_estimate + oerr
    else:
        # psi, like phi below, decays exponentially: the first transform.
        r = first_koshliakov_transform(lambda t: pair.psi(t, zr), zr, 4.0 * x, spec)
        fwd, fwd_err = r.value, r.total_error
    lhs = complex(np.asarray(pair.phi(np.array([x]), zr))[0])
    rhs = 2.0 * fwd
    mir = first_koshliakov_transform(lambda t: pair.phi(t, zr), zr, 4.0 * x, spec)
    psi_x = complex(np.asarray(pair.psi(np.array([x]), zr))[0])
    # Judged like the report's own diff: absolute where |psi(x)| < 1e-3,
    # since the transform is only accurate to an absolute 1e-11 there.
    mir_diff = abs(2.0 * mir.value - psi_x)
    if abs(psi_x) >= 1e-3:
        mir_diff /= abs(psi_x)
    budgets = {"quad_err": 2.0 * (fwd_err + mir.total_error),
               "mirrored_rel_diff": mir_diff}
    params = {"pair": pair.label, "z": [zr, 0.0], "x": x}
    return _report("pair-reciprocity", params, lhs, rhs, budgets, tolerance,
                   real_inputs=True)


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


@dataclass(frozen=True)
class IdentityEntry:
    """runner(**args, spec=None, tolerance=...) gives one report.  Its
    parameters before spec are the CLI's flags (arg_names), and its
    tolerance default is the identity's tolerance.  grid(alphas, **args
    without alpha, tolerance=...), when set, gives the whole sweep at
    once."""

    runner: Callable
    summary: str
    grid: Optional[Callable] = None
    arg_names: tuple = field(init=False)
    tolerance: float = field(init=False)

    def __post_init__(self):
        params = inspect.signature(self.runner).parameters
        names = list(params)
        object.__setattr__(self, "arg_names", tuple(names[:names.index("spec")]))
        object.__setattr__(self, "tolerance", params["tolerance"].default)

    def verify(self, args: dict, tolerance: float) -> VerificationReport:
        return _current(self.runner)(**args, tolerance=tolerance)

    def sweep(self, args: dict, alphas, tolerance: float) -> list:
        """One report per alpha, or in its place the KoshliakovError that
        row raised; an error it raises fails every row.  Without a grid,
        each row is its own runner call."""
        fixed = {k: v for k, v in args.items() if k != "alpha"}
        if self.grid is not None:
            return _current(self.grid)(alphas, **fixed, tolerance=tolerance)
        runner = _current(self.runner)
        return _rows(alphas, lambda col, alpha: runner(**fixed, alpha=alpha,
                                                       tolerance=tolerance))


def _run_pair(pair: str, pair_alpha: float, z, x: float,
              spec: Optional[QuadratureSpec] = None,
              tolerance: float = 1e-6) -> VerificationReport:
    """verify_pair_reciprocity with the pair named as the CLI names it."""
    if pair == "k-bessel":
        made = pair_k_bessel(pair_alpha)
    elif pair == "dixon-ferrar":
        made = pair_dixon_ferrar()
    else:
        raise DomainError(f"unknown pair '{pair}' (k-bessel, dixon-ferrar)")
    return verify_pair_reciprocity(made, z, x, spec, tolerance)


IDENTITIES: dict = {
    "rg-corollary": IdentityEntry(
        verify_rg_corollary,
        "Xi-pair integral vs the modular K-Bessel combination",
        rg_corollary_grid),
    "rg-corollary-z0": IdentityEntry(
        verify_rg_corollary_z0,
        "z=0 corollary: Xi^2 integral vs divisor Theta series",
        rg_corollary_z0_grid),
    "rg-formula": IdentityEntry(
        verify_rg_formula,
        "modular invariance of the K-Bessel combination",
        rg_formula_grid),
    "hurwitz-corollary": IdentityEntry(
        verify_hurwitz_corollary,
        "Gamma-weighted Xi-pair integral vs the Hurwitz lambda combination",
        hurwitz_corollary_grid),
    "hurwitz-corollary-z0": IdentityEntry(
        verify_hurwitz_corollary_z0,
        "z=0 corollary: |Gamma|^2 Xi^2 integral vs n d(n) Theta moments",
        hurwitz_corollary_z0_grid),
    "hurwitz-modular": IdentityEntry(
        verify_hurwitz_modular,
        "modular invariance of the Hurwitz lambda combination",
        hurwitz_modular_grid),
    "mellin-k": IdentityEntry(
        verify_mellin_k,
        "Mellin transform of K_nu vs Gamma product closed form"),
    "laplace-bessel": IdentityEntry(
        verify_laplace_bessel,
        "Laplace-type J_z integral vs exponential closed form"),
    "omega-self-reciprocal": IdentityEntry(
        verify_omega_self_reciprocal,
        "Omega combination is self-reciprocal under the J_z transform"),
    "omega-modular": IdentityEntry(
        verify_omega_modular,
        "alpha^{(z+1)/2} Omega Laplace integral invariant under alpha -> 1/alpha",
        omega_modular_grid),
    "omega-laplace": IdentityEntry(
        verify_omega_laplace,
        "Omega Laplace integral vs the lambda combination closed form",
        omega_laplace_grid),
    "bessel-hurwitz-sum": IdentityEntry(
        verify_bessel_hurwitz_sum,
        "K-weighted divisor series vs the lambda series closed form"),
    "pair-reciprocity": IdentityEntry(
        _run_pair,
        "phi/psi pair reciprocity under the factor-2 kernel transform"),
}
