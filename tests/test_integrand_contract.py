"""The integrand contract: the quadrature layer hands f every node of a
refinement round in one call, so the functions the integrands are built
from must give each point of an array the value it gets in any other
array.  Each test evaluates a function on a concatenated array and on its
pieces, bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from koshliakov import kernels, specfun


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
    _assert_same_bits(lambda x: kernels.omega_combination(x, z), *xc)


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
