"""Tail bounds: every bound |f(t)| <= A t^p e^{-bt} on t >= 1 that a
caller hands quadrature.integrate_half_line holds for its integrand.  Each
test draws its caller's documented domain, takes the integrand and the
(A, p, b) of every column as the caller hands them over, and checks the
bound at points of [1, T], T the tail cutoff.  Last, the Omega majorant
behind omega-self-reciprocal's omega_remainder, against Omega past the
head and against the budget."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koshliakov import identities, kernels, quadrature
from koshliakov.kernels import pair_dixon_ferrar, pair_k_bessel
from koshliakov.specfun import bessel_j


class _Grabbed(Exception):
    pass


def _certified(run, module):
    """The integrand and the (A, p, b) of each column that run() hands
    module.integrate_half_line, which is stopped there, and the tail cutoff
    T of their envelopes (quadrature._envelope)."""
    grabbed = []

    def grab(f, bound, spec):
        grabbed.append((f, bound if isinstance(bound, list) else [bound], spec))
        raise _Grabbed

    with mock.patch.object(module, "integrate_half_line", grab), pytest.raises(_Grabbed):
        run()
    f, bounds, spec = grabbed[0]
    cutoffs = [-math.log(0.1 * spec.abs_tol * r / C) / r
               for C, r in (quadrature._envelope(bound, 1.0) for bound in bounds)]
    return f, bounds, max(2.0, *cutoffs)


def _assert_bounded(run, module=identities):
    """|f(t)| <= A t^p e^{-bt} per column at 200 points of [1, T], compared
    as logarithms (both sides underflow far out), with 1e-12 relative room
    for the rounding where a bound is tight."""
    f, bounds, T = _certified(run, module)
    t = np.geomspace(1.0, T, 200)
    mags = np.abs(np.asarray(f(t))).reshape(t.size, -1)
    assert mags.shape[1] == len(bounds)
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    for col, (A, p, b) in enumerate(bounds):
        envelope = math.log(A) + p * np.log(t) - b * t
        over = logs[:, col] > envelope + 1e-12
        assert not over.any(), (col, t[over], logs[over, col] - envelope[over])


def _hundredths(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: k / 100.0)


_ALPHA = st.floats(0.25, 4.0)
_STRIP_Z = st.builds(complex, _hundredths(-99, 99), _hundredths(-50, 50))


@settings(max_examples=30)
@given(z=_STRIP_Z, alpha=_ALPHA)
@example(z=0j, alpha=0.25)
@example(z=-0.99 + 0j, alpha=4.0)
def test_divisor_k_columns_stay_under_their_envelopes(z, alpha):
    # Both callers' columns: bessel-hurwitz-sum's alpha, hurwitz-corollary-z0's
    # alpha and 1/alpha at z = 0.
    _assert_bounded(lambda: identities._divisor_k_series(
        [alpha, 1.0 / alpha], z, identities._BESSEL_HURWITZ_SPEC))


@settings(max_examples=40)
@given(re_nu=_hundredths(-3000, 3000), im_nu=_hundredths(-500, 500),
       gap=_hundredths(1, 1000), im_s=_hundredths(-1000, 1000), log_q=_hundredths(-200, 200))
@example(re_nu=20.0, im_nu=0.0, gap=5.0, im_s=0.0, log_q=math.log10(3.0))
@example(re_nu=30.0, im_nu=0.0, gap=1.0, im_s=0.0, log_q=math.log10(20.0))
@example(re_nu=0.0, im_nu=0.0, gap=2.0, im_s=0.0, log_q=0.0)
def test_mellin_k_stays_under_its_envelope(re_nu, im_nu, gap, im_s, log_q):
    # verify_mellin_k's domain: |Re nu| <= 30, |Im nu| <= 5, Re s - |Re nu|
    # in (0, 10], |Im s| <= 10, q in [1/100, 100].
    s, nu = complex(abs(re_nu) + gap, im_s), complex(re_nu, im_nu)
    _assert_bounded(lambda: identities.verify_mellin_k(s, nu, 10.0 ** log_q))


@settings(max_examples=30)
@given(z=_hundredths(-99, 99), alpha=_ALPHA, y=st.floats(0.01, 10.0))
@example(z=-0.99, alpha=4.0, y=0.01)
def test_laplace_bessel_weight_stays_under_its_envelope(z, alpha, y):
    _assert_bounded(lambda: identities.verify_laplace_bessel([alpha, 1.0 / alpha], y, z))


@settings(max_examples=30)
@given(z=_STRIP_Z, alpha=_ALPHA)
@example(z=0.5 + 14.1347j, alpha=1.0)
@example(z=0.99 + 0j, alpha=0.25)
@example(z=-0.99 + 0.5j, alpha=4.0)
def test_omega_laplace_weight_stays_under_its_envelope(z, alpha):
    # The columns of omega-modular: alpha, then 1/alpha.  At the first zeta
    # zero the Omega majorant carries the bound.
    _assert_bounded(lambda: identities._omega_laplace(z, [alpha, 1.0 / alpha]))


@settings(max_examples=30)
@given(pair_alpha=_ALPHA, z=_hundredths(-49, 49), x=st.floats(0.05, 10.0))
@example(pair_alpha=2.0, z=0.3, x=0.05)
@example(pair_alpha=0.25, z=-0.49, x=10.0)
def test_pair_transforms_stay_under_their_envelopes(pair_alpha, z, x):
    # Each of phi and psi against the transform kernel at 4x, as
    # verify_pair_reciprocity runs them: the k-bessel pair's both, the
    # Dixon-Ferrar pair's phi at z = 0 (its psi has no exponential envelope).
    k_pair, df_pair = pair_k_bessel(pair_alpha), pair_dixon_ferrar()
    assert df_pair.psi_envelope is None
    for g, envelope, zz in ((k_pair.phi, k_pair.phi_envelope, z),
                            (k_pair.psi, k_pair.psi_envelope, z),
                            (df_pair.phi, df_pair.phi_envelope, 0.0)):
        _assert_bounded(lambda: kernels.first_koshliakov_transform(
            lambda t: g(t, zz), zz, 4.0 * x, envelope(zz), identities._PAIR_SPEC), kernels)


_OMEGA_Y = 14.0


def _omega_majorant(y, z):
    """_omega_bound's majorant of |Omega(y, z)| on y >= _OMEGA_Y."""
    w = 2.0 * math.sqrt(2.0) * math.pi * math.sqrt(_OMEGA_Y)
    return (kernels._omega_bound(complex(z), _OMEGA_Y) * (_OMEGA_Y / y) ** 0.25
            * np.exp(-w * (np.sqrt(y / _OMEGA_Y) - 1.0)))


@settings(max_examples=30)
@given(z=_hundredths(-99, 99))
@example(z=-0.99)
@example(z=0.0)
@example(z=0.99)
def test_omega_majorant_covers_omega_past_the_head(z):
    # The Omega piece that omega-self-reciprocal drops past y = 14, against
    # Omega's definition form, with 1e-12 relative room for rounding.
    y = np.linspace(_OMEGA_Y, 60.0, 93)
    assert np.all(np.abs(kernels.omega(y, z)) <= _omega_majorant(y, z) * (1.0 + 1e-12))


@pytest.mark.parametrize("x, z", [(1.0, 0.5), (0.3, -0.9), (2.0, -0.6), (0.5, 0.0)])
def test_omega_remainder_is_the_majorants_integral(x, z):
    # omega_remainder = sup |J_z| on the tail times the integral of the
    # majorant over [14, inf), here by quadrature (the majorant is below
    # 1e-70 past y = 400).
    c = 4.0 * math.pi * math.sqrt(x)
    u0 = c * math.sqrt(_OMEGA_Y)
    j_tail = 1.0 if z >= 0.0 else 1.0 + (0.5 * u0) ** z / math.gamma(1.0 + z)
    u = np.linspace(u0, u0 + 200.0, 2001)
    assert np.all(np.abs(bessel_j(z, u)) <= j_tail)
    spec = quadrature.QuadratureSpec(abs_tol=1e-30, rel_tol=1e-12)
    tail = quadrature.integrate_finite(lambda y: _omega_majorant(y, z), _OMEGA_Y, 400.0, spec)
    budget = identities.verify_omega_self_reciprocal(x, z).budgets["omega_remainder"]
    assert abs(budget - j_tail * tail.value.real) <= 1e-10 * budget
