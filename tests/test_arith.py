"""Divisor-sum arithmetic: exact values, sieve table, Dirichlet series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koshliakov.arith import build_table, sigma
from koshliakov.errors import DomainError, LimitError
from koshliakov.specfun import riemann_zeta

from conftest import rel_err


def test_sigma_exact_small():
    assert sigma(0.0, 1) == 1
    assert sigma(0.0, 6) == 4
    assert sigma(0.0, 12) == 6
    assert sigma(1.0, 6) == 12
    assert sigma(1.0, 28) == 56
    assert sigma(2.0, 4) == 21


def test_sigma_golden(golden):
    assert rel_err(sigma(-(0.5 + 0.5j), 12), golden["sigma_c_12"]) < 1e-13


def test_sigma_negative_exponent():
    # sigma_{-a}(n) = sigma_a(n) / n^a
    for a in (0.5, 1.0, 0.3 + 0.2j):
        for n in (2, 6, 30, 97):
            assert rel_err(sigma(-a, n), sigma(a, n) / n ** a) < 1e-13


def test_divisor_count_matches_sigma0():
    # d(n) = sigma_0(n): 1, 2, 3, 9, 2 and 30 divisors.
    table = build_table(0, 720)
    for n, d in ((1, 1), (2, 2), (9, 3), (36, 9), (97, 2), (720, 30)):
        assert table[n - 1] == sigma(0.0, n) == d


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma(0.0, 0)
    with pytest.raises(DomainError):
        sigma(0.0, -5)


def test_sigma_trial_division_bound():
    # Trial division runs to sqrt(n): past build_table's bound it took
    # 9.5 s at n = 10^16 and would take minutes at 10^20, so it is refused.
    for n in ((10 ** 7 + 1) ** 2, 10 ** 16, 10 ** 20):
        with pytest.raises(LimitError):
            sigma(0.0, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
def test_sigma_multiplicative(m, n):
    # sigma_a is multiplicative on coprime arguments.
    if math.gcd(m, n) != 1:
        return
    a = -0.5
    assert rel_err(sigma(a, m * n), sigma(a, m) * sigma(a, n)) < 1e-12


def test_table_matches_scalar():
    table = build_table(-0.3, 64)
    for n in (1, 2, 17, 63, 64):
        assert rel_err(table[n - 1], sigma(-0.3, n)) < 1e-13


def test_table_slice():
    values = build_table(0.0, 32)[:10]
    assert values.shape == (10,)
    assert values[5] == sigma(0.0, 6)


def test_table_bounds():
    assert build_table(0.0, 8).shape == (8,)
    with pytest.raises(DomainError):
        build_table(0.0, 0)
    with pytest.raises(LimitError):
        build_table(0.0, 20_000_000)


def test_dirichlet_series():
    # sum sigma_{-z}(n) n^{-s} = zeta(s) zeta(s+z); N=1e4 leaves a tail
    # below 1e-6 relative for s=3, z=0.5.
    N = 10_000
    table = build_table(-0.5, N)
    acc = 0.0
    for n in range(1, N + 1):
        acc += table[n - 1] * n ** (-3.0)
    target = riemann_zeta(3.0) * riemann_zeta(3.5)
    assert rel_err(acc, target) < 1e-3
