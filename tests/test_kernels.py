"""Kernel layer: Koshliakov kernels, reciprocal pairs, Omega, lambda."""

import cmath
import math

import numpy as np
import pytest

from koshliakov import kernels
from koshliakov.errors import ConvergenceError, DecayError, DomainError
from koshliakov.kernels import (_omega_definition, first_koshliakov_transform,
                                koshliakov_kernel, lambda_fn, lambda_sum,
                                omega, omega_combination,
                                pair_dixon_ferrar, pair_k_bessel,
                                pair_Z_numeric, theta_eval, transform_kernel)
from koshliakov.specfun import (EULER_GAMMA, bessel_k, bessel_y, hurwitz_zeta,
                                riemann_zeta)

from conftest import omega_partial_fractions, rel_err


def test_kernel_m_golden(golden):
    # At z = 0 the kernel is M_0(4 sqrt(x)), and 4 sqrt(1/16) is 1.
    assert rel_err(koshliakov_kernel(0.0, 1.0 / 16.0), golden["kernel_m_0_1"]) < 1e-12


def test_koshliakov_kernel_golden(golden):
    assert rel_err(koshliakov_kernel(0.5, 1.0), golden["kosh_kernel_0p5_1"]) < 1e-12
    assert rel_err(koshliakov_kernel(0.0, 2.0), golden["kosh_kernel_0_2"]) < 1e-12


def test_kernel_z0_reduces_to_m():
    # cos(0) M_0 - sin(0) J_0 = M_0(4 sqrt(x)), M_0 = (2/pi) K_0 - Y_0
    for x in (0.25, 1.0, 3.0):
        v = 4.0 * math.sqrt(x)
        m0 = (2.0 / math.pi) * bessel_k(0.0, v).real - bessel_y(0.0, v)
        assert rel_err(koshliakov_kernel(0.0, x), m0) < 1e-13


def test_kernel_rejects_complex_order():
    with pytest.raises(DomainError):
        koshliakov_kernel(0.3 + 0.1j, 1.0)
    with pytest.raises(DomainError):
        transform_kernel(1.0j, 2.0)


def test_k_bessel_self_reciprocal_under_transform():
    # K_z is its own image under the first transform.
    for z in (0.0, 0.25):
        for x in (0.5, 2.0):
            got = first_koshliakov_transform(
                lambda t: np.real(bessel_k(z, np.asarray(t, dtype=float))),
                z, x, kernels._k_envelope(z, 1.0))
            assert rel_err(got.value, bessel_k(z, x)) < 1e-8


@pytest.mark.parametrize("x", [0.3, 1.0, 7.0])
def test_transform_takes_a_power_decaying_psi(x):
    # The Dixon-Ferrar psi decays like -1/(4 pi t^2): with no envelope the
    # transform at 4x gives back phi(x) = e^{-x}, within its own error.
    pair = pair_dixon_ferrar()
    got = first_koshliakov_transform(lambda t: pair.psi(t, 0.0), 0.0, 4.0 * x, None)
    assert abs(2.0 * got.value - math.exp(-x)) <= 2.0 * got.total_error
    assert got.total_error < 1e-10


def test_transform_order_domain():
    # |Re z| < 1/2 is open, and refuses nan as the pairs' rule.
    for z in (0.7, 0.5, math.nan):
        with pytest.raises(DomainError, match="1/2"):
            first_koshliakov_transform(lambda t: np.exp(-t), z, 1.0, (1.0, 0.0, 1.0))


def test_theta_golden(golden):
    pair = pair_k_bessel(2.0)
    assert rel_err(theta_eval(pair, math.pi, 0.0), golden["theta_k_alpha2_pi"]) < 1e-12


def test_dixon_ferrar_psi_golden(golden):
    pair = pair_dixon_ferrar()
    assert rel_err(pair.psi(1.0, 0.0), golden["df_psi_1"]) < 1e-12
    assert rel_err(pair.psi(6.0, 0.0), golden["df_psi_6"]) < 1e-12


_PSI_POINTS = ((0.01, "df_psi_0p01"), (0.3, "df_psi_0p3"), (2.0, "df_psi_2"),
               (12.5, "df_psi_12p5"), (13.0, "df_psi_13"),
               (100.0, "df_psi_100"), (8000.0, "df_psi_8000"))


def test_dixon_ferrar_psi_vector_goldens(golden):
    # Both sides of the switch at 4t = 50, and far out, where psi is the
    # O(1/t^2) difference of two O(1/t) values; one array call and one
    # scalar call per point give the same numbers.
    ts = np.array([t for t, _ in _PSI_POINTS])
    got = kernels._df_psi(ts)
    for (t, key), value in zip(_PSI_POINTS, got):
        assert rel_err(value, golden[key]) < 1e-13, key
        assert kernels._df_psi(t) == value


def test_pair_Z_refuses_a_psi_without_envelope():
    # The Dixon-Ferrar psi decays like a power: no exponential tail.
    with pytest.raises(DecayError, match="no exponential envelope"):
        pair_Z_numeric(pair_dixon_ferrar(), 1.5, 0.0)


def test_dixon_ferrar_z_domain():
    # The pair narrows the transform's |Re z| < 1/2 to z = 0 in phi and psi.
    pair = pair_dixon_ferrar()
    for fn in (pair.phi, pair.psi):
        for z in (0.25, 1e-13, 1e-13j):
            with pytest.raises(DomainError, match="z=0 only"):
                fn(1.0, z)


def test_pair_Z_matches_closed_form():
    pair = pair_k_bessel(2.0)
    for s, z in ((0.3, 0.15), (0.5 + 2.0j, 0.3), (0.8, -0.25)):
        num = pair_Z_numeric(pair, s, z)
        assert rel_err(num, pair.Z_closed(s, z)) < 1e-9


def test_omega_golden(golden):
    assert rel_err(omega(1.0, 0.4), golden["omega_1_0p4"]) < 1e-12
    assert rel_err(omega(2.0, -0.4), golden["omega_2_m0p4"]) < 1e-12


@pytest.mark.parametrize("x, xtag", [(0.25, "0p25"), (10.0, "10"), (30.0, "30")])
@pytest.mark.parametrize("z, ztag", [(0.5, "0p5"), (-0.4, "m0p4"), (0.3 + 0.2j, "0p3p0p2i")])
def test_omega_where_it_is_small_golden(golden, x, xtag, z, ztag):
    # From x = 1/4 up Omega decays like exp(-2 sqrt(2) pi sqrt(x)), to about
    # 1e-23 at x = 30, and keeps its relative accuracy.
    assert rel_err(omega(x, z), golden[f"omega_{xtag}_{ztag}"]) < 1e-12


def test_omega_switches_form_at_a_quarter():
    # Each x takes one form: partial fractions (N = 500) below 1/4, the
    # definition from 1/4 up; a real z gives a real Omega in both.
    x = np.array([0.01, 0.1, np.nextafter(0.25, 0.0), 0.25, 3.0])
    for z in (0.5, 0.0, -0.6, 0.3 + 0.2j):
        got = omega(x, z)
        low = [omega_partial_fractions(t, z) for t in x[:3]]
        assert list(got) == low + [_omega_definition(t, complex(z)) for t in x[3:]]
        assert np.all(got.imag == 0.0) or complex(z).imag != 0.0


def test_omega_complex_order_golden(golden):
    # Omega(5, 0.3+0.2i) is ~9e-10 assembled from O(1) pieces, so partial
    # fractions are compared absolutely.
    ref = golden["omega_5_0p3p0p2i"]
    assert rel_err(omega(5.0, 0.3 + 0.2j), ref) < 1e-12
    assert abs(omega_partial_fractions(5.0, 0.3 + 0.2j) - ref) < 1e-12


def test_omega_cross_mode():
    # The series definition and the partial-fraction form must agree.
    d = _omega_definition(1.0, 0.4 + 0j)
    p = omega_partial_fractions(1.0, 0.4)
    assert rel_err(p, d) < 1e-8


def test_omega_pf_small_magnitude_cancellation():
    # At (2, -0.4) Omega is ~3e-6 assembled from O(1) pieces, so partial
    # fractions carry ~1e-12 absolute roundoff; the definition is the
    # accurate route there (compare absolutely).
    d = _omega_definition(2.0, -0.4 + 0j)
    p = omega_partial_fractions(2.0, -0.4)
    assert abs(p - d) < 1e-10


def test_omega_combination_modes_agree():
    # The pole-subtracted combination stays accurate out to moderate y,
    # where the identity integrands actually sample it, and at small N,
    # where the moment tail reaches the high-order Hurwitz tails.
    cases = [(y, 500) for y in (0.1, 1.0, 5.0, 13.9, 20.0)]
    cases += [(y, n) for y in (6.0, 10.0) for n in (15, 20)]
    for z in (0.3, -0.4, 0.5, 0.3 + 0.2j):
        for y, n in cases:
            ref = (_omega_definition(y, complex(z))
                   - riemann_zeta(z) * y ** (z / 2.0 - 1.0) / (2.0 * math.pi))
            got = omega_combination(y, z, n)
            assert rel_err(got, ref) < 1e-9


def _clear_omega_caches():
    kernels._omega_plan.cache_clear()
    kernels._divisor_tail_moment.cache_clear()


def _counting(calls, name, f):
    def wrapped(*args):
        calls.append(name)
        return f(*args)
    return wrapped


@pytest.mark.parametrize("z", [0.0, 0.3 + 0.2j])
@pytest.mark.parametrize("j", [3, 6])
def test_divisor_tail_moment_matches_direct_sum(z, j):
    # |sigma_{-z}(n)| <= d(n) < 2 sqrt(n), so the part past M is below
    # 2 M^{-2j-1/2}: 2e-24 at j = 3 and M = 5000, against moments of 2e-8
    # (j = 3) and 8e-15 (j = 6).  Differencing zeta(s) zeta(s+z) against
    # the partial sum leaves only roundoff at these j.
    N, M = 10, 5000
    n = np.arange(N + 1, M + 1, dtype=float)
    sig = kernels.arith.build_table(-complex(z), M)[N:]
    direct = complex(np.sum(sig * n ** (-2.0 * j - 2.0)))
    assert rel_err(kernels._divisor_tail_moment(z, N, j), direct) < 1e-12



def _divisor_weights(z: complex, N: int, expo) -> np.ndarray:
    """The first N weights sigma_{-z}(n) n^{-2-2 expo} that _divisor_sum's
    tail moments continue."""
    n = np.arange(1, N + 1, dtype=float)
    return kernels.arith.build_table(-z, N) * n ** (-2.0 - 2.0 * expo)


@pytest.mark.parametrize("z", [0.0, 0.5, 0.3 + 0.2j, -0.9 + 0.5j])
def test_divisor_sum_split_does_not_matter(z):
    # Where the direct sum stops is no part of the value: 40 terms and the
    # moment series agree with 400 terms and theirs, for partial-fraction
    # Omega (expo = -1) and the divisor-K integrand (expo = -(z+3)/2), out
    # to y2/(N+1)^2 = 1/4 at N = 40.
    z = complex(z)
    y2 = np.linspace(0.0, (41.0 / 2.0) ** 2, 101)
    for expo in (-1.0, -0.5 * (z + 3.0)):
        short, long = (kernels._divisor_sum(y2, z, N, _divisor_weights(z, N, expo), expo)
                       for N in (40, 400))
        assert np.max(np.abs(short - long) / np.abs(long)) < 2e-15, expo


@pytest.mark.parametrize("expo", [-1.0, -1.65 - 0.1j])
def test_divisor_sum_refuses_its_radius(expo):
    # The moment series converges only for y2 < (N+1)^2; at and past that
    # radius it stalls and raises.
    N = 10
    w = _divisor_weights(0.3 + 0.2j, N, expo)
    for y2 in (float((N + 1) ** 2), 400.0):
        with pytest.raises(ConvergenceError):
            kernels._divisor_sum(np.array([1.0, y2]), 0.3 + 0.2j, N, w, expo)

def test_omega_plan_reused_across_x(monkeypatch):
    # A second call at the same (z, N) and a new x rebuilds nothing.
    _clear_omega_caches()
    omega_combination(np.array([0.5, 5.0]), 0.4, 500)
    calls = []
    for module, name in ((kernels, "_hurwitz_em"), (kernels, "gamma"),
                         (kernels, "riemann_zeta"), (kernels.arith, "build_table")):
        monkeypatch.setattr(module, name,
                            _counting(calls, name, getattr(module, name)))
    omega_combination(np.array([1.0, 2.0]), 0.4, 500)
    assert calls == []


def test_omega_plan_cache_is_exact():
    x = np.array([0.3, 2.0, 11.0])
    for z in (0.4, -0.6, 0.3 + 0.2j, 0.0):
        _clear_omega_caches()
        fresh = omega_combination(x, z)
        cached = omega_combination(x, z)
        _clear_omega_caches()
        again = omega_combination(x, z)
        assert np.array_equal(fresh, cached) and np.array_equal(fresh, again)


def test_omega_plan_sigma_read_only():
    _clear_omega_caches()
    plan = kernels._omega_plan(0.4 + 0.0j, 50)
    with pytest.raises(ValueError):
        plan[0] = 0.0


def test_omega_z0_matches_definition():
    # z = 0 is a limit: partial fractions match the definition to rounding.
    for x in (0.5, 1.0, 3.0):
        v = omega_partial_fractions(x, 0.0)
        d = _omega_definition(x, 0j)
        assert abs(v - d) < 1e-14


def test_omega_near_pole_is_continuous():
    # 0 < |z| < 1e-4 takes the same formula as every other z.
    x = np.array([0.1, 0.5, 1.0, 3.0])
    at0 = omega(x, 0.0)
    for z in (1e-9, -1e-6, 1e-6j, 5e-5):
        assert np.all(np.abs(omega(x, z) - at0) < 2.0 * abs(z))


def test_omega_domain():
    with pytest.raises(DomainError):
        omega(1.0, 1.2)
    with pytest.raises(DomainError):
        omega(-1.0, 0.3)
    with pytest.raises(DomainError):
        omega_combination(600.0, 0.3, 500)


@pytest.mark.parametrize("tag, z", [("0", 0.0), ("1em6", 1e-6), ("1em6c", 6e-7 + 8e-7j)])
def test_z0_limit_goldens(golden, tag, z):
    # Omega's pole pieces and lambda at z = 0 and |z| = 1e-6 take the one
    # formula every z takes; 40-digit oracle values (z = 0 from Omega's
    # definition and lambda's digamma form).
    assert rel_err(omega_combination(1.5, z), golden[f"omega_comb_1p5_{tag}"]) < 1e-13
    assert rel_err(lambda_fn(2.0, z), golden[f"lambda_2_{tag}"]) < 1e-13


def test_lambda_antiderivative_tail_at_z0():
    # The integral of lambda(v, 0) over [U, inf) is Binet's function
    # log Gamma(U) - (U - 1/2) log U + U - log(2 pi)/2 (a Stirling remainder;
    # in float64 its own four terms round to about 1e-16 of U log U).
    U = np.array([0.5, 2.75, 11.0, 19.99, 20.0, 51.0])
    value, mag = kernels._lambda_antiderivative_tail(U, 0.0 + 0.0j)
    binet = [math.lgamma(u) - (u - 0.5) * math.log(u) + u - 0.5 * math.log(2 * math.pi)
             for u in U]
    assert np.all(np.abs(value - binet) <= 16 * 2.0 ** -52 * (mag + 2.0 * U * np.log(U + 1.0)))


def test_lambda_golden(golden):
    assert rel_err(lambda_fn(2.0, 0.5), golden["lambda_2_half"]) < 1e-12
    assert rel_err(lambda_fn(1.0, 0.0), golden["lambda_1_0"]) < 1e-12
    assert rel_err(lambda_fn(1.0, 0.0), EULER_GAMMA - 0.5) < 1e-12


def test_lambda_definition():
    # lambda(x, z) = zeta(z+1, x) - x^{-z}/z - x^{-z-1}/2 away from z=0.
    for x, z in ((2.0, 0.5), (1.5, -0.3), (3.0, 0.25 + 0.1j)):
        direct = (hurwitz_zeta(z + 1.0, x)
                  - x ** (-complex(z)) / z - x ** (-complex(z) - 1.0) / 2.0)
        assert rel_err(lambda_fn(x, z), direct) < 1e-12


def test_lambda_sum_tail_correction():
    # The Euler-Maclaurin tail makes a 10-term sum match a 400-term sum.
    v10, r10, _ = lambda_sum(2.0, 0.5, 10)
    v400, r400, _ = lambda_sum(2.0, 0.5, 400)
    assert abs(v10 - v400) <= r10 + r400 + 1e-13
    assert rel_err(v10, v400) < 1e-8


@pytest.mark.parametrize("z", [0.5, -0.4 + 0.3j])
def test_lambda_sum_grid_is_the_per_alpha_sums(z):
    # One grid call, lambda evaluated once per distinct n alpha of the grid
    # and its reciprocals, gives each alpha its one-alpha value, residual
    # and magnitude bit for bit.
    alphas = np.arange(0.25, 4.0 + 1e-12, 0.0625)
    alphas = np.concatenate([alphas, 1.0 / alphas])
    values, resids, mags = lambda_sum(alphas, z, 50)
    for alpha, v, r, m in zip(alphas, values, resids, mags):
        assert (v, r, m) == lambda_sum(float(alpha), z, 50)


def test_lambda_fn_array_is_one_hurwitz_call(monkeypatch):
    x = np.linspace(0.25, 30.0, 50)
    calls = []
    monkeypatch.setattr(kernels, "_hurwitz_em",
                        _counting(calls, "hz", kernels._hurwitz_em))
    got = lambda_fn(x, 0.3 + 0.2j)
    assert calls == ["hz"]
    monkeypatch.undo()
    assert list(got) == [lambda_fn(t, 0.3 + 0.2j) for t in x]


def test_lambda_sum_residual_shrinks():
    _, r10, _ = lambda_sum(2.0, 0.5, 10)
    _, r100, _ = lambda_sum(2.0, 0.5, 100)
    assert r100 < r10
