"""The integrand contract: the quadrature layer hands f every node of a
refinement round in one call, so the functions the integrands are built
from must give each point of an array the value it gets in any other
array.  Each test evaluates a function on a concatenated array and on its
pieces, bit for bit."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koshliakov import identities, kernels, quadrature, specfun
from koshliakov.kernels import pair_dixon_ferrar, pair_k_bessel


def _pieces(lo: float, hi: float):
    """An array of 8-40 points, log-uniform on [lo, hi], and 1-4 cuts."""
    logs = st.lists(st.floats(math.log(lo), math.log(hi)), min_size=8, max_size=40)
    return logs.flatmap(lambda v: st.tuples(
        st.just(np.exp(np.array(v))),
        st.lists(st.integers(1, len(v) - 1), min_size=1, max_size=4)))


def _whole_and_parts(fn, x, cuts):
    whole = np.asarray(fn(x))
    parts = np.concatenate([np.atleast_1d(fn(p)) for p in np.split(x, sorted(set(cuts)))])
    return whole, parts


def _assert_same_bits(fn, x, cuts):
    whole, parts = _whole_and_parts(fn, x, cuts)
    assert whole.dtype == parts.dtype
    assert whole.tobytes() == parts.tobytes()


@settings(max_examples=60)
@given(_pieces(1e-300, 1e4))
def test_df_psi_is_pointwise(xc):
    _assert_same_bits(kernels._df_psi, *xc)


@settings(max_examples=60)
@given(_pieces(1e-300, 700.0))
def test_scaled_e1_and_ei_are_pointwise(xc):
    _assert_same_bits(specfun.exp_integral_e1_scaled, *xc)
    _assert_same_bits(specfun.exp_integral_ei_scaled, *xc)


@settings(max_examples=80)
@given(st.floats(-25.0, 25.0), _pieces(1e-3, 1e3))
def test_bessel_j_y_and_real_order_k_are_pointwise(nu, xc):
    # J and Y in every region: the series and Temme's below x = 2, Steed's
    # method up to the knee, Hankel's expansion above it; K by Temme's
    # series and the trapezoid rule.
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bits(lambda x: specfun.bessel_j(nu, x), *xc)
        _assert_same_bits(lambda x: specfun.bessel_y(nu, x), *xc)
        _assert_same_bits(lambda x: specfun.bessel_k(nu, x), *xc)


@settings(max_examples=40)
@given(st.floats(-1.0, 1.0), st.floats(-25.0, 25.0), _pieces(1e-3, 200.0))
def test_complex_order_closed_k_is_pointwise(im, re, xc):
    _assert_same_bits(lambda x: specfun.bessel_k(complex(re, im), x), *xc)


@settings(max_examples=150)
@given(st.floats(-0.499, 0.499), _pieces(1e-3, 1e3))
def test_transform_kernel_is_pointwise(z, xc):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bits(lambda v: kernels.transform_kernel(z, v), *xc)


@settings(max_examples=25)
@given(st.sampled_from([0.5, 0.0, -0.6, 0.3 + 0.2j, -0.4 + 0.3j]), _pieces(1e-3, 50.0))
def test_omega_combination_is_pointwise(z, xc):
    # 32-point blocks of the direct sum: a batch of 40 points spans two.
    # omega takes partial fractions below x = 1/4 and the definition from
    # there up, so an array may mix the two.
    _assert_same_bits(lambda x: kernels.omega_combination(x, z), *xc)
    _assert_same_bits(lambda x: kernels.omega(x, z), *xc)


@settings(max_examples=40)
@given(st.sampled_from([5.0 + 2.0j, 0.5 + 1.5j, -3.2 - 4.9j, 17.4 + 3.1j, 0.3 + 0.0j, 0.4 - 0.7j]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_complex_argument_and_order_k_is_pointwise(nu, rotate, seed):
    # K at complex arguments (|arg x| up to 0.49 pi) and at 1 < |Im nu| <= 5
    # at real or complex arguments: Temme's series, the trapezoid rule with
    # the step and end each point needs, the climb in the order or K taken
    # at nu itself.  Seeded draws spread the points, so the pieces differ.
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), rng.integers(8, 41)))
    if rotate:
        x = x * np.exp(1j * rng.uniform(-0.49 * math.pi, 0.49 * math.pi, x.size))
    cuts = rng.integers(1, x.size, rng.integers(1, 5))
    _assert_same_bits(lambda t: specfun.bessel_k(nu, t), x, cuts)


class _Grabbed(Exception):
    pass


def _first_call(run, name: str, module=identities) -> tuple:
    """The arguments of the first call that run() makes to module.name,
    which is stopped there."""
    seen = []

    def grab(*args, **kwargs):
        seen.append(args)
        raise _Grabbed

    with mock.patch.object(module, name, grab), pytest.raises(_Grabbed):
        run()
    return seen[0]


def _integrand_of(run, name: str = "integrate_half_line", module=identities):
    """The integrand that run() hands the quadrature rule module.name."""
    return _first_call(run, name, module)[0]


_SCALES = [0.25, 1.0, 4.0]


@settings(max_examples=40)
@given(st.sampled_from([0.0, 0.5, 0.3 + 0.2j, 0.7 - 0.1j]), _pieces(1e-6, 60.0))
def test_divisor_k_integrand_is_pointwise(z, xc):
    # The n-sum under the integral is formed row by row: as a matrix
    # product it gave some points other bits in another batch.
    _assert_same_bits(_integrand_of(lambda: identities._divisor_k_series(
        _SCALES, z, identities._XI_SPEC)), *xc)


@settings(max_examples=25)
@given(st.sampled_from([0.5, -0.6, 0.3 + 0.2j]), _pieces(1e-6, 60.0))
def test_laplace_columns_integrand_is_pointwise(z, xc):
    # Both weights: Omega's (complex z too) and laplace-bessel's J_z.
    _assert_same_bits(_integrand_of(lambda: identities._omega_laplace(z, _SCALES)), *xc)
    _assert_same_bits(_integrand_of(lambda: identities.verify_laplace_bessel(
        _SCALES, 1.0, z.real)), *xc)


# The four Xi-pair identities at real and complex z, the z = 0 forms at 0.
_XI_RUNS = {
    **{f"rg-corollary-{z}": lambda z=z: identities.verify_rg_corollary(z, _SCALES)
       for z in (0.5, -0.6, 0.3 + 0.2j)},
    **{f"hurwitz-corollary-{z}": lambda z=z: identities.verify_hurwitz_corollary(z, _SCALES)
       for z in (0.5, -0.4 + 0.3j)},
    "rg-corollary-z0": lambda: identities.verify_rg_corollary_z0(_SCALES),
    "hurwitz-corollary-z0": lambda: identities.verify_hurwitz_corollary_z0(_SCALES),
}


@functools.cache
def _xi_integrand(name: str):
    return _integrand_of(_XI_RUNS[name], "integrate_finite")


@pytest.mark.parametrize("name", _XI_RUNS)
@settings(max_examples=10)
@given(xc=_pieces(1e-6, 60.0))
def test_xi_grid_integrand_is_pointwise(name, xc):
    # The Xi pair times each identity's weight g(t), against a cosine
    # column per alpha.
    _assert_same_bits(_xi_integrand(name), *xc)


@settings(max_examples=30)
@given(st.sampled_from([(2.0, 0.0), (2.5, 0.3 + 0.5j), (6.0, 5.0 + 2.0j), (1.2 + 0.7j, 0.3)]),
       _pieces(1e-300, 60.0))
def test_mellin_k_integrand_is_pointwise(s_nu, xc):
    # Below x = 1e-40 the integrand takes K's small-argument form.
    s, nu = s_nu
    _assert_same_bits(_integrand_of(lambda: identities.verify_mellin_k(s, nu, 1.0)), *xc)


@settings(max_examples=30)
@given(st.sampled_from([0.0, 0.3, -0.4]), st.sampled_from([0.25, 1.0, 4.0]),
       _pieces(1e-6, 60.0))
def test_first_transform_integrand_is_pointwise(z, x, xc):
    # The K pair's psi and the Dixon-Ferrar pair's phi = e^{-t}, each
    # against the transform kernel.
    for g, bound in ((lambda t: pair_k_bessel(2.0).psi(t, z), (1.0, 0.0, 1.0)),
                     (lambda t: pair_dixon_ferrar().phi(t, 0.0), (1.0, 0.0, 1.0))):
        _assert_same_bits(_integrand_of(lambda: kernels.first_koshliakov_transform(
            g, z, 4.0 * x, bound), module=kernels), *xc)


@settings(max_examples=20)
@given(st.sampled_from([1.5 + 0.7j, 2.0, 0.8 - 0.3j]), _pieces(1e-6, 60.0))
def test_pair_Z_integrand_is_pointwise(s, xc):
    # x^{s-1} Theta(x) at complex s, for the K pair.
    _assert_same_bits(_integrand_of(lambda: kernels.pair_Z_numeric(
        pair_k_bessel(2.0), s, 0.3), module=kernels), *xc)


# The verifiers that sum an oscillatory tail: omega-self-reciprocal's
# J_z power part and the Dixon-Ferrar forward transform (real z only).
_TAIL_RUNS = {
    "omega-0.5": lambda: identities.verify_omega_self_reciprocal(1.0, 0.5),
    "omega-m0.6": lambda: identities.verify_omega_self_reciprocal(2.0, -0.6),
    "omega-0": lambda: identities.verify_omega_self_reciprocal(0.5, 0.0),
    "dixon-ferrar-1": lambda: identities.verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, 1.0),
    "dixon-ferrar-0.01": lambda: identities.verify_pair_reciprocity(pair_dixon_ferrar(), 0.0,
                                                                    0.01),
}


@functools.cache
def _segment_integrand(name: str):
    args = _first_call(_TAIL_RUNS[name], "integrate_alternating_tail", quadrature)
    return _integrand_of(lambda: quadrature.integrate_alternating_tail(*args),
                         "integrate_finite", quadrature)


@pytest.mark.parametrize("name", _TAIL_RUNS)
@settings(max_examples=15)
@given(xc=_pieces(1e-6, 14.0))
def test_head_integrand_is_pointwise(name, xc):
    # The integrand of the finite range before the oscillatory tail (J_z
    # times Omega, or psi times the transform kernel), which the tanh-sinh
    # head on [0, 1] and the panels after it share.
    _assert_same_bits(_integrand_of(_TAIL_RUNS[name], "tanh_sinh", quadrature), *xc)


@pytest.mark.parametrize("name", _TAIL_RUNS)
@settings(max_examples=10)
@given(xc=_pieces(1e-6, 1.0))
def test_oscillatory_tail_segment_integrand_is_pointwise(name, xc):
    # One row per point s of [0, 1], one column per half-period segment.
    _assert_same_bits(_segment_integrand(name), *xc)
