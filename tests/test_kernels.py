"""Kernel layer: Koshliakov kernels, reciprocal pairs, Omega, lambda."""

import cmath
import math

import numpy as np
import pytest

from koshliakov import kernels
from koshliakov.errors import DecayError, DomainError, NearPoleError
from koshliakov.kernels import (first_koshliakov_transform, kernel_m,
                                koshliakov_kernel, lambda_fn, lambda_sum,
                                omega, omega_combination,
                                omega_definition_term, omega_pf_tail_envelope,
                                pair_dixon_ferrar, pair_k_bessel,
                                pair_Z_numeric, theta_eval, transform_kernel)
from koshliakov.quadrature import QuadratureSpec
from koshliakov.specfun import EULER_GAMMA, bessel_k, hurwitz_zeta, riemann_zeta

from conftest import rel_err


def test_kernel_m_golden(golden):
    assert rel_err(kernel_m(0.0, 1.0), golden["kernel_m_0_1"]) < 1e-12


def test_koshliakov_kernel_golden(golden):
    assert rel_err(koshliakov_kernel(0.5, 1.0), golden["kosh_kernel_0p5_1"]) < 1e-12
    assert rel_err(koshliakov_kernel(0.0, 2.0), golden["kosh_kernel_0_2"]) < 1e-12


def test_kernel_z0_reduces_to_m():
    # cos(0) M_0 - sin(0) J_0 = M_0(4 sqrt(x))
    for x in (0.25, 1.0, 3.0):
        assert rel_err(koshliakov_kernel(0.0, x),
                       kernel_m(0.0, 4.0 * math.sqrt(x))) < 1e-13


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
                z, x)
            assert rel_err(got.value, bessel_k(z, x)) < 1e-8


def test_transform_order_domain():
    with pytest.raises(DomainError):
        first_koshliakov_transform(lambda t: np.exp(-t), 0.7, 1.0)


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


def test_mellin_numeric_refuses_power_decay():
    with pytest.raises(DecayError):
        kernels._mellin_numeric(lambda x: 1.0 / (1.0 + x) ** 3, 1.5,
                                QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12))


def test_dixon_ferrar_z_domain():
    pair = pair_dixon_ferrar()
    with pytest.raises(DomainError):
        pair.check_z(0.25)


def test_pair_Z_matches_closed_form():
    pair = pair_k_bessel(2.0)
    for s, z in ((0.3, 0.15), (0.5 + 2.0j, 0.3), (0.8, -0.25)):
        num = pair_Z_numeric(pair, s, z)
        assert rel_err(num, pair.Z_closed(s, z)) < 1e-9


def test_omega_golden(golden):
    assert rel_err(omega(1.0, 0.4, mode="definition"), golden["omega_1_0p4"]) < 1e-12
    assert rel_err(omega(2.0, -0.4, mode="definition"), golden["omega_2_m0p4"]) < 1e-12


def test_omega_complex_order_golden(golden):
    # Omega(5, 0.3+0.2i) is ~9e-10 assembled from O(1) pieces, so the
    # partial-fraction mode is compared absolutely (see the test below).
    ref = golden["omega_5_0p3p0p2i"]
    assert rel_err(omega(5.0, 0.3 + 0.2j, mode="definition"), ref) < 1e-12
    assert abs(omega(5.0, 0.3 + 0.2j) - ref) < 1e-12


def test_omega_cross_mode():
    # The series definition and the partial-fraction form must agree.
    d = omega(1.0, 0.4, mode="definition")
    p = omega(1.0, 0.4, mode="partial-fraction")
    assert rel_err(p, d) < 1e-8


def test_omega_pf_small_magnitude_cancellation():
    # At (2, -0.4) Omega is ~3e-6 assembled from O(1) pieces, so the
    # partial-fraction mode carries ~1e-12 absolute roundoff; definition
    # mode is the accurate route there (compare absolutely).
    d = omega(2.0, -0.4, mode="definition")
    p = omega(2.0, -0.4, mode="partial-fraction")
    assert abs(p - d) < 1e-10


def test_omega_definition_term_golden(golden):
    term = omega_definition_term(1.0, 0.0, 10)
    assert rel_err(abs(term), golden["omega_term10_1_0"]) < 1e-10


def test_omega_combination_modes_agree():
    # The pole-subtracted combination stays accurate out to moderate y,
    # where the identity integrands actually sample it, and at small N,
    # where the moment tail reaches the high-order Hurwitz tails.
    cases = [(y, 500) for y in (0.1, 1.0, 5.0, 13.9, 20.0)]
    cases += [(y, n) for y in (6.0, 10.0) for n in (15, 20)]
    for z in (0.3, -0.4, 0.5, 0.3 + 0.2j):
        for y, n in cases:
            ref = (omega(y, z, mode="definition")
                   - riemann_zeta(z) * y ** (z / 2.0 - 1.0) / (2.0 * math.pi))
            got = omega_combination(y, z, n)
            assert rel_err(got, ref) < 1e-9


def _clear_omega_caches():
    kernels._omega_plan.cache_clear()
    kernels._omega_moment.cache_clear()


def _counting(calls, name, f):
    def wrapped(*args):
        calls.append(name)
        return f(*args)
    return wrapped


def test_omega_plan_reused_across_x(monkeypatch):
    # A second call at the same (z, N) and a new x rebuilds nothing.
    _clear_omega_caches()
    omega_combination(np.array([0.5, 5.0]), 0.4, 500)
    calls = []
    for module, name in ((kernels, "hurwitz_zeta"), (kernels, "gamma"),
                         (kernels, "riemann_zeta"), (kernels.arith, "build_table")):
        monkeypatch.setattr(module, name,
                            _counting(calls, name, getattr(module, name)))
    omega_combination(np.array([1.0, 2.0]), 0.4, 500)
    assert calls == []


def test_omega_plan_cache_is_exact():
    x = np.array([0.3, 2.0, 11.0])
    for z in (0.4, -0.6, 0.3 + 0.2j, 0.0):
        _clear_omega_caches()
        fresh = omega(x, z)
        cached = omega(x, z)
        _clear_omega_caches()
        again = omega(x, z)
        assert np.array_equal(fresh, cached) and np.array_equal(fresh, again)


def test_omega_plan_sigma_read_only():
    _clear_omega_caches()
    plan = kernels._omega_plan(0.4 + 0.0j, 50)
    with pytest.raises(ValueError):
        plan.sigma[0] = 0.0


def test_omega_z0_routes_through_average():
    v = omega(1.0, 0.0, mode="partial-fraction")
    d = omega(1.0, 0.0, mode="definition")
    assert abs(v - d) < 1e-7


def test_omega_near_pole_refused():
    with pytest.raises(NearPoleError):
        omega(1.0, 1e-6, mode="partial-fraction")


def test_omega_domain():
    with pytest.raises(DomainError):
        omega(1.0, 1.2)
    with pytest.raises(DomainError):
        omega(-1.0, 0.3)
    with pytest.raises(DomainError):
        omega(600.0, 0.3, n_terms=500)


def test_omega_pf_truncation_within_envelope():
    # Dropping the moment tail cannot hurt by more than the provable
    # envelope on sum_{n>N} sigma_{-z}(n)/(n^2+x^2).
    z, x = 0.4, 1.0
    full = omega(x, z, n_terms=500)
    short = omega(x, z, n_terms=200)
    envelope = omega_pf_tail_envelope(200, z) * x ** (z / 2.0 + 1.0) / math.pi
    assert abs(full - short) <= envelope


def test_omega_pf_envelope_domain():
    with pytest.raises(DecayError):
        omega_pf_tail_envelope(100, -0.6)


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
    v10, r10 = lambda_sum(2.0, 0.5, 10)
    v400, r400 = lambda_sum(2.0, 0.5, 400)
    assert abs(v10 - v400) <= r10 + r400 + 1e-13
    assert rel_err(v10, v400) < 1e-8


def test_lambda_sum_residual_shrinks():
    _, r10 = lambda_sum(2.0, 0.5, 10)
    _, r100 = lambda_sum(2.0, 0.5, 100)
    assert r100 < r10
