"""Identity verifiers: representative points, report invariants, and the
structural properties promised by the registry."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koshliakov import arith, identities, kernels, quadrature
from koshliakov.errors import ConvergenceError, DecayError, DomainError, KoshliakovError
from koshliakov.identities import (IDENTITIES, _hurwitz_F, _k_series_tail,
                                   _divisor_k_series, _report, f_frak,
                                   verify_bessel_hurwitz_sum,
                                   verify_hurwitz_corollary,
                                   verify_hurwitz_corollary_z0,
                                   verify_hurwitz_modular,
                                   verify_laplace_bessel, verify_mellin_k,
                                   verify_omega_laplace, verify_omega_modular,
                                   verify_omega_self_reciprocal,
                                   verify_pair_reciprocity,
                                   verify_rg_corollary, verify_rg_corollary_z0,
                                   verify_rg_formula)
from koshliakov.kernels import pair_dixon_ferrar, pair_k_bessel
from koshliakov.quadrature import QuadratureSpec, integrate_half_line
from koshliakov.specfun import _pole_quotient, bessel_k, gamma

from conftest import rel_err


def test_params_domain():
    with pytest.raises(DomainError):
        verify_rg_corollary(z=0.5, alpha=0.2)
    with pytest.raises(DomainError):
        verify_rg_corollary(z=0.5, alpha=5.0)
    # laplace-bessel takes the same alphas, one alpha or a grid.
    for alpha in (0.05, 10.0, [1.0, 10.0]):
        with pytest.raises(DomainError, match=r"alpha must lie in \[1/4, 4\]"):
            verify_laplace_bessel(alpha)


def test_rg_corollary_passes():
    r = verify_rg_corollary(z=0.5, alpha=1.0)
    assert r.passed and r.rel_diff < 1e-12


def test_rg_corollary_complex_z():
    r = verify_rg_corollary(z=0.3 + 0.2j, alpha=1.25)
    assert r.passed and r.rel_diff < 1e-9


def test_rg_corollary_domain_message():
    with pytest.raises(DomainError, match=r"\|Re z\| < 1 required"):
        verify_rg_corollary(z=1.5, alpha=1.0)


def test_rg_corollary_near_pole():
    # |z| = 1e-6 is an ordinary point of the strip: f_frak's Gamma-zeta
    # pair is a difference of slopes, finite at z = 0.
    r = verify_rg_corollary(z=1e-6, alpha=1.0)
    assert r.passed and r.rel_diff < 1e-10


def test_rg_z0_routing():
    # z = 0 is a point of rg-corollary's strip like any other: the report
    # is rg-corollary's, its rhs f_frak's limit there.  That rhs is
    # -2 sqrt(alpha) times the rhs of rg-corollary-z0, the paper's Theta
    # form of the same case, within both reports' budget sums.
    for alpha in (0.25, 1.0, 1.7, 4.0):
        r, z0 = verify_rg_corollary(z=0.0, alpha=alpha), verify_rg_corollary_z0(alpha=alpha)
        assert r.identity_id == "rg-corollary" and r.passed and z0.passed
        scale = 2.0 * math.sqrt(alpha)
        budget = sum(v for k, v in r.budgets.items() if not k.endswith("_diff")) + scale * sum(
            v for k, v in z0.budgets.items() if not k.endswith("_diff"))
        assert abs(r.rhs + scale * z0.rhs) <= budget


def test_rg_z0_direct():
    r = verify_rg_corollary_z0(alpha=2.0)
    assert r.passed and r.rel_diff < 1e-10


def test_rg_formula():
    for z, alpha in ((0.3 + 0.2j, 2.0), (-0.6, 1.5)):
        r = verify_rg_formula(z, alpha)
        assert r.passed and r.rel_diff < 1e-12


_STRIP_Z = (("0", 0.0), ("0p4i", 0.4j), ("m0p5", -0.5), ("m0p9", -0.9),
            ("m0p5p0p3i", -0.5 + 0.3j))
_ALPHA_ENDS = (("0p25", 0.25), ("1", 1.0), ("4", 4.0))


@pytest.mark.parametrize("z, alpha, key", [
    (0.5, 1.0, "hurwitz_F_1_half"), (-0.4 + 0.3j, 2.0, "hurwitz_F_2_c"),
    *((z, alpha, f"hurwitz_F_{atag}_{ztag}") for ztag, z in _STRIP_Z
      for atag, alpha in _ALPHA_ENDS),
    *((-0.5, alpha, f"lam_sum_{atag}_m0p5") for atag, alpha in _ALPHA_ENDS)])
@pytest.mark.parametrize("n", [10, 50])
def test_hurwitz_F_bounds_cover_the_oracle(golden, z, alpha, key, n):
    # The lambda side's value within its Euler-Maclaurin residual plus its
    # evaluation bound of the 40-digit golden, across the strip |Re z| < 1
    # (z = 0 included): F of the Hurwitz identities, and the lambda sum of
    # bessel-hurwitz-sum (lam_sum_*).  The ulp charge is what covers the
    # roundoff of the cancelling pieces.  The residual bounds the
    # Euler-Maclaurin tail from n terms on: the sum at n is within both
    # residuals and ulp charges of the sum at 400.
    if key.startswith("lam_sum"):
        value, resid, mag = kernels.lambda_sum(alpha, z, identities._SERIES_TERMS)
        budgets = {"em_residual": [resid], "eval_err": [identities._EVAL_ULPS * mag]}
    else:
        values, budgets = _hurwitz_F(z, [alpha])
        value = values[0]
    assert 0.0 < budgets["eval_err"][0] < 1e-11
    assert abs(value - golden[key]) <= budgets["em_residual"][0] + budgets["eval_err"][0]
    (short, r_short, m_short), (long, r_long, m_long) = (kernels.lambda_sum(alpha, z, N)
                                                         for N in (n, 400))
    assert abs(short - long) <= r_short + r_long + identities._EVAL_ULPS * (m_short + m_long)


def test_hurwitz_modular_grid_rows_are_the_verifies():
    # F over the alphas and their reciprocals in one call gives each row
    # the report its own verify gives, bit for bit.
    alphas = list(np.arange(0.25, 4.0 + 1e-12, 0.1875))
    for z in (0.5, -0.4 + 0.3j):
        rows = verify_hurwitz_modular(z, alphas)
        assert rows == [verify_hurwitz_modular(z, alpha) for alpha in alphas]
        assert all(r.passed for r in rows)


def test_rg_formula_grid_rows_are_the_verifies():
    # f_frak over the alphas and their reciprocals in one call (one divisor
    # table) gives each row its own verify's report.
    alphas = list(np.arange(0.25, 4.0 + 1e-12, 0.1875))
    for z in (0.5, 0.3 + 0.2j):
        rows = verify_rg_formula(z, alphas)
        assert rows == [verify_rg_formula(z, alpha) for alpha in alphas]
        assert all(r.passed for r in rows)


@pytest.mark.parametrize("tag, z", [("0", 0.0), ("1em6", 1e-6), ("1em6c", 6e-7 + 8e-7j)])
def test_f_frak_z0_limit_goldens(golden, tag, z):
    # The Gamma-zeta pair at z = 0 and |z| = 1e-6 is a difference of slopes
    # (the golden F is f_frak / 8; at z = 0 the oracle's mean of +-1e-30).
    value, budgets = f_frak(z, 1.3)
    assert rel_err(value / 8.0, golden[f"f_frak_1p3_{tag}"]) < 1e-13
    assert abs(value - 8.0 * golden[f"f_frak_1p3_{tag}"]) <= budgets["eval_err"]


def test_f_frak_bounds_cover_the_oracle(golden):
    # value within tail + evaluation bound of the 40-digit goldens (the
    # complex-z ones are stored with a 1/8 normalization; at alpha <= 0.3
    # the n = 1 K term is below x = 2, in Temme's series), and both
    # bounds reach the reports that use f_frak.
    for z, alpha, key, scale in ((0.3 + 0.2j, 2.0, "f_frak_2_c", 8.0),
                                 (0.3 + 0.2j, 0.5, "f_frak_half_c", 8.0),
                                 (0.3 + 0.2j, 0.25, "f_frak_quarter_c", 8.0),
                                 (0.9 - 0.4j, 0.3, "f_frak_0p3_0p9c", 8.0),
                                 (0.5, 1.0, "rg_rhs_half_1", 1.0)):
        value, budgets = f_frak(z, alpha)
        tail, eval_err = budgets["series_tail"], budgets["eval_err"]
        assert 0.0 < eval_err < 1e-12
        assert abs(value - scale * golden[key]) <= tail + eval_err, key
    r = verify_rg_formula(0.5, 1.4375)
    assert r.budgets["eval_err"] > 0.0 and r.abs_diff <= sum(r.budgets.values())
    r = verify_rg_corollary(z=0.5, alpha=1.4375)
    assert r.budgets["eval_err"] > 0.0


def test_hurwitz_corollary():
    r = verify_hurwitz_corollary(z=0.75, alpha=1.0)
    assert r.passed and r.rel_diff < 1e-9


def test_hurwitz_modular():
    r = verify_hurwitz_modular(0.5, 2.0)
    assert r.passed and r.rel_diff < 1e-12


def test_hurwitz_z0():
    r = verify_hurwitz_corollary_z0(alpha=2.0)
    assert r.passed and r.rel_diff < 1e-9


def test_bessel_hurwitz_sum():
    r = verify_bessel_hurwitz_sum(1.0, 0.5)
    assert r.passed and r.rel_diff < 1e-8


_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def _n_sum_columns(monkeypatch, cs, z, N):
    """_divisor_k_series summed to N terms with its n > N remainder
    switched off (every divisor tail 0): (values, errors)."""
    monkeypatch.setattr(kernels, "_divisor_tail_moment", lambda z, N, j: 0.0)
    monkeypatch.setattr(identities, "_SERIES_TERMS", N)
    return _divisor_k_series(cs, z, _SPEC)


def test_divisor_k_columns_one_hot_goldens(golden, monkeypatch):
    # At N = 1 the n-sum is its n = 1 term, of weight 1; the Theta weight
    # at alpha = 1 is twice the c = 1 column.
    hz0, _ = _n_sum_columns(monkeypatch, [1.0], 0.0, 1)
    bh, _ = _n_sum_columns(monkeypatch, [1.0], 0.5, 1)
    assert rel_err(2.0 * hz0[0], golden["hz0_inner_n1"]) < 1e-10
    assert rel_err(bh[0], golden["bh_inner_n1"]) < 1e-10


@pytest.mark.parametrize("cs,z", [([1.7, 1.0 / 1.7], 0.0), ([0.6], 0.3 + 0.2j)],
                         ids=["theta-z0", "one-scale-complex-z"])
def test_divisor_k_columns_are_sums_of_one_hot_integrals(cs, z, monkeypatch):
    # The n-sum folded under one vector integral is, column by column, the
    # weighted sum of each n's own integral, each n taken to 1e-15 so the
    # reference is finer than the 1e-12 fold.
    N = 6
    nn = np.arange(1, N + 1, dtype=float)
    weights = arith.build_table(-z, N) * nn ** (z + 1.0)
    folded, errs = _n_sum_columns(monkeypatch, cs, z, N)
    for col, c in enumerate(cs):
        # (x^2 + pi^2 n^2)^{-(z+3)/2} <= (pi n)^{-(Re z+3)}, and the K envelope.
        A = kernels._k_envelope(0.5 * z, 2.0 * c)[0]
        parts = sum(w * integrate_half_line(
            lambda x: (np.power(x, 1.0 + 0.5 * z) * bessel_k(0.5 * z, 2.0 * c * x)
                       * np.power(x * x + (math.pi * n) ** 2, -0.5 * (z + 3.0))),
            ((math.pi * n) ** -(z.real + 3.0) * A, 0.5 * (1.0 + z.real), 2.0 * c),
            QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15)).value
            for n, w in zip(nn, weights))
        assert rel_err(folded[col], parts) < 1e-10
        assert errs[col] < 1e-10 * abs(folded[col])


def test_hurwitz_z0_many_terms_at_large_alpha():
    # The summed per-n error estimates once exceeded the cap at alpha = 4
    # although the residual was 40x below it; one folded integral resolves
    # it.  Where the n-sum splits into direct terms and moment series is
    # no part of the value (test_divisor_sum_split_does_not_matter).
    r = verify_hurwitz_corollary_z0(alpha=4.0)
    assert r.passed and r.rel_diff < 1e-9


def test_divisor_k_series_at_the_alpha_ends():
    # Divisor tails taken as zeta(s) zeta(s+z) minus the partial sum left
    # rel_diff 7e-13 to 2e-12 at these points; the exact tail moments do not.
    for r in (verify_hurwitz_corollary_z0(alpha=0.25),
              verify_hurwitz_corollary_z0(alpha=4.0),
              verify_bessel_hurwitz_sum(0.25, 0.5)):
        assert r.passed and r.rel_diff < 1e-13


def _budget_sum(report) -> float:
    return sum(v for k, v in report.budgets.items() if not k.endswith("_diff"))


def _meets_tolerance(report) -> bool:
    """A pass but for abs_diff within the budget sum: the diff within the
    tolerance (absolute where |rhs| < 1e-3), the budget sum below its cap,
    each cross-check within the tolerance and real inputs giving real sides."""
    small = abs(report.rhs) < 1e-3
    scale = max(abs(report.lhs), abs(report.rhs))
    cap = report.tolerance if small else report.tolerance * scale
    diff = report.abs_diff if small else report.rel_diff
    real = all(not isinstance(v, complex) or v.imag == 0.0 for v in report.params.values())
    return (diff <= report.tolerance and _budget_sum(report) < cap
            and all(v <= report.tolerance for k, v in report.budgets.items() if k.endswith("_diff"))
            and not (real and any(abs(v.imag) > 1e-10 * max(abs(v.real), 1e-300)
                                  for v in (report.lhs, report.rhs))))


def test_mellin_k_trivial_point():
    r = verify_mellin_k(2.0, 0.0, 1.0)
    assert r.passed
    assert abs(r.lhs - 1.0) < 1e-12 and abs(r.rhs - 1.0) < 1e-12


def test_mellin_k_strip():
    with pytest.raises(DomainError):
        verify_mellin_k(0.2, 0.5, 1.0)


@pytest.mark.parametrize("s, nu, q", [(6.0, 0.0, 1.0), (5.0, 0.0, 0.4), (4.0, 0.0, 0.5),
                                      (4.5, 1.7, 0.5)])
def test_mellin_k_hump_past_the_fit_window(s, nu, q):
    # x^{s-1} K_nu(q x) peaks near x = (s - 1)/q, past the [1, 2] window
    # where the tail envelope is fitted: each report passes, within its
    # budget sum.
    r = verify_mellin_k(s, nu, q)
    assert r.passed and r.abs_diff <= _budget_sum(r), r


@pytest.mark.parametrize("s, nu, q", [(9.0, 8.0, 1.0), (14.02, 13.77, 27.0),
                                      (15.36+1.1j, -11.97-2.79j, 9.0), (20.12, -16.45, 2.0)])
def test_mellin_k_large_order_near_zero(s, nu, q):
    # From |Re nu| ~ 6, K_nu(q x) passes the double range at nodes above
    # x = 1e-40: there the small-argument form takes over, so no overflow
    # reaches the integral (a RuntimeWarning fails this test) and no node
    # is lost to it, and each report passes within its budget sum.
    r = verify_mellin_k(s, nu, q)
    assert r.passed and r.abs_diff <= _budget_sum(r), r


def test_laplace_bessel():
    # z=0.5 is the CLI default; there f(1) = -5.8e-19, so a tail envelope
    # fitted at t=1 alone would collapse.
    for z in (0.0, 0.5):
        r = verify_laplace_bessel(1.0, 1.0, z)
        assert r.passed and r.rel_diff < 1e-10


def test_omega_self_reciprocal():
    r = verify_omega_self_reciprocal(1.0, 0.3)
    assert r.passed and r.rel_diff < 1e-9


def test_omega_self_reciprocal_budget_bounds_diff():
    # At small N partial-fraction Omega leans on high-order moments of the
    # divisor tail, so an inaccurate Hurwitz tail would show up as a move
    # above the roundoff charge that the verifier's eval_err integrates.
    r = verify_omega_self_reciprocal(1.0, 0.5)
    assert r.abs_diff <= sum(r.budgets.values())
    for z in (0.5, 0.0, -0.6):
        k = 0.5 * float(identities._pole_quotient(complex(z), 0.0, 0.0)[1])
        for n in (15, 20, 28):
            x = np.linspace(0.01, 0.5 * n, 200)
            charge = identities._EVAL_ULPS * k * (x ** (0.5 * z) + x ** (-0.5 * z))
            move = np.abs(kernels.omega_combination(x, z, n) - kernels.omega_combination(x, z, 500))
            assert np.all(move <= charge), (z, n)


def test_omega_laplace_charges_the_roundoff_of_both_sides():
    # The lhs integrates omega_combination, k ulps of roundoff at every x,
    # against e^{-2 pi x} x^{1/4}: k (Gamma(3/2) (2 pi)^{-3/2} + 1/(2 pi))
    # ulps, on top of the rhs's own charge.
    z, w = 0.5 + 0j, 2.0 * math.pi
    r = verify_omega_laplace(1.0, z)
    rhs = _hurwitz_F(z, [1.0], gamma(z + 1.0) / w ** (z + 1.0))[1]["eval_err"][0]
    k = 0.5 * float(_pole_quotient(z, 0.0, 0.0)[1])
    lhs = identities._EVAL_ULPS * k * (math.gamma(1.5) * w ** -1.5 + 1.0 / w)
    assert lhs > 0.01 * rhs
    assert r.budgets["eval_err"] == pytest.approx(rhs + lhs, rel=1e-12)


@pytest.mark.parametrize("run", [lambda: verify_mellin_k(2.83, -2.71, 0.1272),
                                 lambda: verify_laplace_bessel(3.72, 1.29, -0.23)],
                         ids=["mellin-k", "laplace-bessel"])
def test_side_rounding_is_charged(run):
    # Both sides round a few factors each: with a tight quadrature error
    # only the eval_err charge covers abs_diff (1.46e-11 against a budget
    # sum of 8.98e-12, and 1.04e-17 against 4.69e-18, without it).
    r = run()
    assert r.passed and r.abs_diff <= _budget_sum(r), r
    assert r.abs_diff > _budget_sum(r) - r.budgets["eval_err"]


def test_omega_modular():
    # At alpha = 4 or 1/4 with Re z < 0 the whole tail on [1, inf) sits
    # below the budget, so its cutoff lands at the floor of the envelope.
    for alpha, z in ((2.0, 0.5), (4.0, -0.5), (0.25, -0.5)):
        r = verify_omega_modular(alpha, z)
        assert r.passed and r.rel_diff < 1e-10


def test_omega_laplace():
    for z in (0.5, 0.3 + 0.2j):
        r = verify_omega_laplace(2.0, z)
        assert r.passed and r.rel_diff < 1e-10


def test_pair_reciprocity_k():
    r = verify_pair_reciprocity(pair_k_bessel(2.0), 0.0, 1.0)
    assert r.passed and r.rel_diff < 1e-9


def test_pair_reciprocity_transform_edge():
    # The transform's open |Re z| < 1/2 is where a pair is reciprocal.
    for z in (0.5, -0.5):
        with pytest.raises(DomainError, match="1/2"):
            verify_pair_reciprocity(pair_k_bessel(2.0), z, 1.0)


@pytest.mark.parametrize("pair_alpha, x, z", [(0.25, 5.0, 0.3), (0.25, 2.0, -0.4),
                                              (0.5, 5.0, 0.0), (2.0, 1.0, 0.0)])
def test_pair_reciprocity_scaled_psi_fails(pair_alpha, x, z):
    # The first three have psi(x) far below the transform's absolute
    # accuracy, where the mirrored check is absolute; a psi off by 1%
    # still fails everywhere.
    good = pair_k_bessel(pair_alpha)
    r = verify_pair_reciprocity(good, z, x)
    assert r.passed and r.budgets["mirrored_rel_diff"] < 1e-10
    bad = good._replace(psi=lambda t, zz: 1.01 * good.psi(t, zz))
    assert not verify_pair_reciprocity(bad, z, x).passed


def test_pair_reciprocity_dixon_ferrar():
    r = verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, 1.0)
    assert r.passed and r.rel_diff < 1e-10


def test_dixon_ferrar_integrand_call_count(monkeypatch):
    # Every integrand of the check (forward and mirrored) multiplies by the
    # transform kernel, so its calls count the quadrature layer's rounds:
    # one call per round is 13 calls over 2064 nodes.
    sizes = []
    orig = kernels.transform_kernel

    def counted(z, v):
        sizes.append(np.size(v))
        return orig(z, v)

    monkeypatch.setattr(kernels, "transform_kernel", counted)
    assert verify_pair_reciprocity(pair_dixon_ferrar(), 0, 1).passed
    assert (len(sizes), sum(sizes)) == (13, 2064)


@pytest.mark.parametrize("x", [0.01, 1.0])
def test_dixon_ferrar_runs_one_oscillatory_tail(x, monkeypatch):
    # Only the forward psi decays like a power; the mirrored phi = e^{-t}
    # decays exponentially and goes through the first transform.
    calls = []
    orig = quadrature.integrate_alternating_tail

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(quadrature, "integrate_alternating_tail", counted)
    assert verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, x).passed
    assert len(calls) == 1


def test_power_tail_verifiers_take_their_rules_from_quadrature(monkeypatch):
    # omega-self-reciprocal and the Dixon-Ferrar forward transform take
    # their (0, 1] head from quadrature (the Dixon-Ferrar mirror, a first
    # transform, one more), and identities binds no rule of its own.
    calls = []
    orig = quadrature.tanh_sinh

    def counted(*args):
        calls.append(args[1:3])
        return orig(*args)

    monkeypatch.setattr(quadrature, "tanh_sinh", counted)
    assert verify_omega_self_reciprocal(1.0, 0.5).passed
    assert calls == [(0.0, 1.0)]
    assert verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, 1.0).passed
    assert calls == [(0.0, 1.0)] * 3
    for name in ("tanh_sinh", "_oscillatory_tail", "_euler_limit", "_SEGMENTS"):
        assert not hasattr(identities, name), name


_N_DIRECT = 80          # the terms past it are below 1e-30 of the first


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("z", [0.5, 0.3 + 0.2j, -0.9])
def test_k_series_tail_bounds_the_summed_frak_tail(alpha, z):
    # 4 sum_{n >= n_from} |sigma_{-z}(n) n^{z/2} K_{z/2}(2 pi alpha n)|, as f_frak bounds it.
    z = complex(z)
    n = np.arange(1, _N_DIRECT + 1, dtype=float)
    c = 2.0 * math.pi * alpha
    terms = 4.0 * np.abs(arith.build_table(-z, _N_DIRECT)
                         * np.power(n, 0.5 * z) * bessel_k(0.5 * z, c * n))
    p = 1.0 + abs(z.real) + 0.5 * z.real
    for n_from in range(2, 13):
        assert _k_series_tail(4.0, p, c, n_from) >= np.sum(terms[n_from - 1:]), n_from


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_k_series_tail_bounds_the_summed_theta_tail(alpha):
    # sum_{n >= n_from} d(n) Theta(pi n) with the K-pair Theta, as the
    # rg-corollary-z0 rhs bounds it.
    beta = 1.0 / alpha
    n = np.arange(1, _N_DIRECT + 1, dtype=float)
    dn = arith.build_table(0.0, _N_DIRECT).real
    terms = dn * (bessel_k(0.0, 2.0 * alpha * math.pi * n).real
                  + beta * bessel_k(0.0, 2.0 * beta * math.pi * n).real)
    c = 2.0 * math.pi * min(alpha, beta)
    for n_from in range(2, 13):
        assert _k_series_tail(2.0 * (1.0 + beta), 0.5, c, n_from) >= np.sum(terms[n_from - 1:])


def test_cos_evenness_alpha_inversion():
    # The Xi-integral side is even in log alpha: LHS(alpha) = LHS(1/alpha),
    # independent of the series side.
    for make in (verify_rg_corollary, verify_hurwitz_corollary):
        a = make(z=0.5, alpha=2.0)
        b = make(z=0.5, alpha=0.5)
        q_budget = (a.budgets["quad_err"] + b.budgets["quad_err"]
                    + a.budgets["xi_cutoff"] + b.budgets["xi_cutoff"])
        assert abs(a.lhs - b.lhs) <= q_budget + 1e-12 * abs(a.lhs)


def test_conjugation_real_inputs_real_sides():
    for r in (verify_rg_corollary(z=0.5, alpha=1.25),
              verify_omega_laplace(1.5, 0.5),
              verify_hurwitz_modular(0.75, 2.0)):
        assert abs(r.lhs.imag) <= 1e-10 * max(abs(r.lhs.real), 1e-300)
        assert abs(r.rhs.imag) <= 1e-10 * max(abs(r.rhs.real), 1e-300)


def test_monotone_refinement(monkeypatch):
    # Doubling the series terms and tightening quadrature never worsens
    # rel_diff by more than the stated budgets.  The term count and the
    # tight accuracy replace the module's own constants; hurwitz-modular
    # integrates nothing, so its case doubles the terms only.
    tight = QuadratureSpec(abs_tol=5e-12, rel_tol=5e-12)
    cases = [
        ("_XI_SPEC", lambda: verify_rg_corollary(z=0.5, alpha=1.25)),
        ("_OMEGA_LAPLACE_SPEC", lambda: verify_omega_laplace(1.5, 0.5)),
        (None, lambda: verify_hurwitz_modular(0.5, 2.0)),
    ]
    for constant, run in cases:
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_SERIES_TERMS", 20)
            coarse = run()
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_SERIES_TERMS", 40)
            if constant is not None:
                patch.setattr(identities, constant, tight)
            fine = run()
        slack = (sum(v for k, v in coarse.budgets.items()
                     if not k.endswith("_diff"))
                 + sum(v for k, v in fine.budgets.items()
                       if not k.endswith("_diff")))
        scale = max(abs(coarse.lhs), abs(coarse.rhs), 1e-300)
        assert fine.rel_diff <= coarse.rel_diff + slack / scale + 1e-13


def test_modular_triangle_chain():
    # The alpha<->beta symmetry is implied by two Laplace-integral
    # evaluations; its residual cannot exceed their combined residuals.
    alpha = 2.0
    sym = verify_omega_modular(alpha, 0.5)
    a = verify_omega_laplace(alpha, 0.5)
    b = verify_omega_laplace(1.0 / alpha, 0.5)
    assert sym.rel_diff <= 10.0 * (a.rel_diff + b.rel_diff) + 1e-12


def test_reports_serialize():
    r = verify_mellin_k(2.0, 0.0, 1.0)
    doc = json.loads(json.dumps(r.to_dict()))
    assert set(doc) == {"identity", "params", "lhs", "rhs", "abs_diff",
                        "rel_diff", "budgets", "pass"}
    assert isinstance(doc["lhs"], list) and len(doc["lhs"]) == 2
    assert doc["budgets"]


def test_registry_complete():
    assert len(IDENTITIES) == 13
    for name, entry in IDENTITIES.items():
        assert entry.arg_names and entry.tolerance > 0 and entry.summary


def test_budgets_below_tolerance_on_pass():
    # A pass is never claimed on an under-resolved computation.
    for r in (verify_rg_corollary(z=0.5, alpha=1.0),
              verify_omega_modular(2.0, 0.5),
              verify_mellin_k(2.0, 0.0, 1.0)):
        assert r.passed
        budget = sum(v for k, v in r.budgets.items()
                     if not k.endswith("_diff"))
        scale = max(abs(r.lhs), abs(r.rhs))
        cap = r.tolerance if abs(r.rhs) < 1e-3 else r.tolerance * scale
        assert budget < cap


_GRID = list(np.geomspace(0.25, 4.0, 7))


@pytest.mark.parametrize("grid, single, shared_rhs", [
    (lambda: verify_rg_corollary(0.3 + 0.2j, _GRID),
     lambda a: verify_rg_corollary(0.3 + 0.2j, a), False),
    (lambda: verify_rg_corollary_z0(_GRID),
     lambda a: verify_rg_corollary_z0(a), False),
    (lambda: verify_hurwitz_corollary(-0.4 + 0.3j, _GRID),
     lambda a: verify_hurwitz_corollary(-0.4 + 0.3j, a), False),
    (lambda: verify_hurwitz_corollary_z0(_GRID),
     lambda a: verify_hurwitz_corollary_z0(a), True),
    (lambda: verify_laplace_bessel(_GRID, 0.5, -0.5),
     lambda a: verify_laplace_bessel(a, 0.5, -0.5), False),
    (lambda: verify_bessel_hurwitz_sum(_GRID, 0.3 + 0.2j),
     lambda a: verify_bessel_hurwitz_sum(a, 0.3 + 0.2j), False),
], ids=["rg-corollary", "rg-corollary-z0", "hurwitz-corollary",
        "hurwitz-corollary-z0", "laplace-bessel", "bessel-hurwitz-sum"])
def test_grid_rows_agree_with_single_alpha(grid, single, shared_rhs):
    # One vector integral over the grid gives every row's lhs within that
    # row's budget sum of its own one-alpha integral.  So does the rhs of
    # hurwitz-corollary-z0, its divisor-K series one vector integral over
    # the alphas and their reciprocals; every other rhs keeps its bits.
    rows = grid()
    assert len(rows) == len(_GRID)
    for alpha, row in zip(_GRID, rows):
        ref = single(alpha)
        assert row.params == ref.params and row.passed
        budget = sum(v for k, v in ref.budgets.items() if not k.endswith("_diff"))
        assert abs(row.lhs - ref.lhs) <= budget
        if shared_rhs:
            assert abs(row.rhs - ref.rhs) <= budget
        else:
            assert row.rhs == ref.rhs


def test_rg_grid_dispatches_z0():
    # A grid at z = 0 is rg-corollary's own, one f_frak call over it: each
    # row's rhs is its verify's.
    rows = verify_rg_corollary(0.0, [0.5, 2.0])
    assert [r.identity_id for r in rows] == ["rg-corollary"] * 2
    assert all(r.passed for r in rows)
    assert [r.rhs for r in rows] == [verify_rg_corollary(0.0, a).rhs for a in (0.5, 2.0)]


_PART = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False))
_NUDGE = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6, allow_subnormal=False))


@given(rhs=st.tuples(_PART, _PART), nudge=st.tuples(_NUDGE, _NUDGE),
       budgets=st.dictionaries(st.sampled_from(["quad_err", "series_tail",
                                                "x_diff", "y_diff"]),
                               st.floats(0.0, 1e-3), max_size=4),
       tolerance=st.floats(1e-12, 1e-2),
       params=st.dictionaries(st.sampled_from(["z", "s", "x", "pair"]),
                              st.one_of(st.floats(-2.0, 2.0), st.just("k-bessel"),
                                        st.builds(complex, st.floats(-2.0, 2.0),
                                                  st.sampled_from([0.0, -0.0, 1e-9, 0.5]))),
                              max_size=3))
def test_report_never_passes_unresolved(rhs, nudge, budgets, tolerance, params):
    # lhs is rhs moved by at most 1e-6 per part, so passing reports occur.
    # The inputs are real when no parameter is complex off the real axis.
    rhs = complex(*rhs)
    lhs = rhs + complex(*nudge)
    r = _report("t", params, lhs, rhs, budgets, tolerance)
    real_inputs = all(not isinstance(v, complex) or v.imag == 0.0 for v in params.values())
    scale = max(abs(lhs), abs(rhs))
    cap = tolerance if abs(rhs) < 1e-3 else tolerance * scale
    budget = sum(v for k, v in budgets.items() if not k.endswith("_diff"))
    if budget >= cap:
        assert not r.passed
    if r.abs_diff > budget + 4.0 * 2.0 ** -52 * scale:
        assert not r.passed
    if any(k.endswith("_diff") and v > tolerance for k, v in budgets.items()):
        assert not r.passed
    if real_inputs and any(abs(v.imag) > 1e-10 * max(abs(v.real), 1e-300)
                           for v in (lhs, rhs)):
        assert not r.passed
    if r.passed:
        assert r.abs_diff <= cap * (1.0 + 1e-12)


def test_pass_needs_abs_diff_within_the_budgets():
    # Budgets that bound both sides bound lhs - rhs up to its own rounding,
    # 4 ulps of the larger side: a diff of 2 ulps passes with no budget, one
    # of 8 ulps fails without a budget that covers it.
    eps = 2.0 ** -52
    assert _report("t", {}, 1.0, 1.0 + 2.0 * eps, {"quad_err": 0.0}, 1e-6).passed
    assert not _report("t", {}, 1.0, 1.0 + 8.0 * eps, {"quad_err": 0.0}, 1e-6).passed
    assert _report("t", {}, 1.0, 1.0 + 8.0 * eps, {"quad_err": 4.0 * eps}, 1e-6).passed
    # A cross-check is no bound.
    assert not _report("t", {}, 1.0, 1.0 + 1e-9, {"quad_err": 0.0, "x_diff": 1e-8}, 1e-6).passed


# The identities that take z, with whether their strips admit a complex z.
_Z_IDENTITIES = [("rg-corollary", True), ("rg-formula", True), ("hurwitz-corollary", True),
                 ("hurwitz-modular", True), ("omega-self-reciprocal", False),
                 ("omega-modular", True), ("omega-laplace", True),
                 ("bessel-hurwitz-sum", True), ("laplace-bessel", False),
                 ("pair-reciprocity", False)]


@pytest.mark.parametrize("name, complex_z", _Z_IDENTITIES)
@settings(max_examples=8)
@given(size=st.floats(1e-9, 1e-3), turn=st.floats(0.0, 1.0))
@example(size=0.0, turn=0.0)
def test_small_z_passes_or_names_its_edge(name, complex_z, size, turn):
    # z = 0 and 1e-9 <= |z| <= 1e-3 are points of every strip like any
    # other: each report passes.  Where the identity takes alpha, a one-row
    # sweep gives the verify's row.
    z = size * (cmath.exp(2j * math.pi * turn) if complex_z else (1.0 if turn < 0.5 else -1.0))
    entry = IDENTITIES[name]
    report = entry.verify({"z": z}, entry.tolerance)
    assert report.passed, report
    if "alpha" in entry.arg_names:
        assert entry.verify({"z": z, "alpha": [1.0]}, entry.tolerance) == [report]


# The identities on the strip |Re z| < 1; each takes complex z and alpha.
_STRIP_IDENTITIES = ["rg-corollary", "rg-formula", "hurwitz-corollary", "hurwitz-modular",
                     "omega-modular", "omega-laplace", "bessel-hurwitz-sum"]
# From about Re z = -0.958 down, the tanh-sinh head on (0, 1] of the Omega
# Laplace integral (integrand ~ x^{Re z}) misses mass below its smallest
# node and under-reports its error, and from about -0.97 down it raises
# (ROADMAP item 2).
_OMEGA_HEAD_EDGE = -0.955


def _hundredths(lo: int, hi: int):
    """k/100 for k from lo to hi: hypothesis's floats crowd near 0 and the
    ends of their range, which would leave most of the strip undrawn."""
    return st.integers(lo, hi).map(lambda k: k / 100.0)


@pytest.mark.parametrize("name", _STRIP_IDENTITIES)
def test_strip_reports_hold_their_budgets(name):
    # Over the whole strip (with weight on z = 0) and alpha in [1/4, 4],
    # each report passes with abs_diff within its budget sum, and a one-row
    # sweep gives the verify's row.  Draws past _OMEGA_HEAD_EDGE that hit
    # the Omega head's known failure (it raises, or the report meets its
    # tolerance with abs_diff over its budget sum) are collected, and the
    # test then xfails (non-strict) naming them; any other failure fails
    # it, a DecayError (a refused tail certificate) among them.
    entry, edge_draws = IDENTITIES[name], []

    @settings(max_examples=15)
    @given(re=st.one_of(st.just(0.0), _hundredths(-99, 99)), im=_hundredths(-50, 50),
           alpha=st.floats(0.25, 4.0))
    @example(re=-0.99, im=0.0, alpha=1.0)
    @example(re=-0.965, im=0.25, alpha=4.0)
    @example(re=0.99, im=-0.5, alpha=0.25)
    def draw(re, im, alpha):
        z = complex(re, im)
        known = name.startswith("omega-") and re <= _OMEGA_HEAD_EDGE
        try:
            report = entry.verify({"z": z, "alpha": alpha}, entry.tolerance)
        except ConvergenceError as exc:
            if known and "[0, 1]" in str(exc):
                edge_draws.append(z)
                return
            raise
        assert entry.verify({"z": z, "alpha": [alpha]}, entry.tolerance) == [report]
        budget = _budget_sum(report)
        if known and report.abs_diff > budget:
            # Within the tolerance still: only the budgets miss.
            assert _meets_tolerance(report), report
            edge_draws.append(z)
            return
        assert report.passed and report.abs_diff <= budget, report

    draw()
    if edge_draws:
        pytest.xfail(f"ROADMAP item 2, the Omega head at Re z <= {_OMEGA_HEAD_EDGE}: "
                     f"{edge_draws}")


@pytest.mark.parametrize("name", ["rg-corollary-z0", "hurwitz-corollary-z0"])
@settings(max_examples=15)
@given(alpha=st.floats(0.25, 4.0))
@example(alpha=0.25)
@example(alpha=4.0)
def test_z0_reports_hold_their_budgets(name, alpha):
    # Over alpha in [1/4, 4] each z = 0 report passes with abs_diff within
    # its budget sum, and a one-row sweep gives the verify's row.
    entry = IDENTITIES[name]
    report = entry.verify({"alpha": alpha}, entry.tolerance)
    assert report.passed and report.abs_diff <= _budget_sum(report), report
    assert entry.verify({"alpha": [alpha]}, entry.tolerance) == [report]


# laplace-bessel's tanh-sinh head on (0, 1] (integrand ~ x^{Re z}) raises
# from about Re z = -0.97 down and under-reports its error just above that
# (ROADMAP item 2).
_LAPLACE_HEAD_EDGE = -0.955


def test_laplace_bessel_reports_hold_their_budgets():
    # Over Re z in (-1, 1), alpha in [1/4, 4] and y in [1/100, 10], each
    # report passes with abs_diff within its budget sum, and a one-row
    # sweep gives the verify's row.  Draws that hit the head's known
    # failure (it raises, or the report meets its tolerance with abs_diff
    # over its budget sum) are collected, and the test then xfails
    # (non-strict) naming them; any other failure fails it, a miss by
    # roundoff and a DecayError (a refused tail certificate) among them.
    entry, known_draws = IDENTITIES["laplace-bessel"], []

    @settings(max_examples=40)
    @given(z=_hundredths(-99, 99), alpha=st.floats(0.25, 4.0), y=st.floats(0.01, 10.0))
    @example(z=-0.96, alpha=0.569, y=0.257)
    @example(z=-0.23, alpha=3.72, y=1.29)
    @example(z=-0.99, alpha=1.0, y=1.0)
    def draw(z, alpha, y):
        head = z <= _LAPLACE_HEAD_EDGE
        try:
            report = entry.verify({"z": z, "alpha": alpha, "y": y}, entry.tolerance)
        except ConvergenceError as exc:
            if head and "[0, 1]" in str(exc):
                known_draws.append((z, alpha, y))
                return
            raise
        assert entry.verify({"z": z, "alpha": [alpha], "y": y}, entry.tolerance) == [report]
        assert _meets_tolerance(report), report
        if head and report.abs_diff > _budget_sum(report):
            known_draws.append((z, alpha, y))
            return
        assert report.passed and report.abs_diff <= _budget_sum(report), report

    draw()
    if known_draws:
        pytest.xfail(f"ROADMAP item 2, the laplace-bessel head at Re z <= "
                     f"{_LAPLACE_HEAD_EDGE}: {known_draws}")


# mellin-k's integrand x^{s-1} K_nu(q x) goes like x^{Re s - |Re nu| - 1} at
# 0: below Re s - |Re nu| = 1 the tanh-sinh head on (0, 1] integrates a
# singularity, and as Re s - |Re nu| nears 0 it raises, overflows or
# under-reports its error (ROADMAP item 2).
_MELLIN_HEAD_GAP = 1.0


def test_mellin_k_reports_hold_their_budgets():
    # Over bessel_k's orders (|Re nu| <= 30, |Im nu| <= 5), Re s - |Re nu|
    # in (0, 10], |Im s| <= 10 and q in [1/100, 100], each report passes
    # with abs_diff within its budget sum, or the verifier raises a typed
    # error other than DecayError: the tail certificate is derived, so a
    # refused one is a failure.  Real inputs give real sides.  Draws below
    # _MELLIN_HEAD_GAP that hit the head's known failure are collected, and
    # the test then xfails (non-strict) naming them; any other failure
    # fails it.  The last two examples peak past the head, where a tail
    # envelope fitted on [1, 2] was exceeded.
    known_draws = []

    @settings(max_examples=100)
    @given(re_nu=_hundredths(-3000, 3000), im_nu=_hundredths(-500, 500),
           gap=_hundredths(1, 1000), im_s=_hundredths(-1000, 1000),
           log_q=_hundredths(-200, 200), real=st.booleans())
    @example(re_nu=0.3, im_nu=0.5, gap=2.2, im_s=0.0, log_q=0.0, real=False)
    @example(re_nu=5.0, im_nu=2.0, gap=1.0, im_s=0.0, log_q=0.0, real=False)
    @example(re_nu=-2.71, im_nu=0.0, gap=0.12, im_s=0.0, log_q=-0.9, real=True)
    @example(re_nu=13.77, im_nu=0.0, gap=0.25, im_s=0.0, log_q=1.43, real=True)
    @example(re_nu=20.0, im_nu=0.0, gap=5.0, im_s=0.0, log_q=math.log10(3.0), real=True)
    @example(re_nu=30.0, im_nu=0.0, gap=1.0, im_s=0.0, log_q=math.log10(20.0), real=True)
    def draw(re_nu, im_nu, gap, im_s, log_q, real):
        s = complex(abs(re_nu) + gap, 0.0 if real else im_s)
        nu = complex(re_nu, 0.0 if real else im_nu)
        q = 10.0 ** log_q
        head = gap < _MELLIN_HEAD_GAP
        try:
            report = verify_mellin_k(s, nu, q)
        except DecayError:
            raise
        except KoshliakovError as exc:
            if head and isinstance(exc, ConvergenceError) and "[0, 1]" in str(exc):
                known_draws.append((s, nu, q))
            return
        except RuntimeWarning:
            # Near the edge the head's integrand passes the double range.
            if not head:
                raise
            known_draws.append((s, nu, q))
            return
        if real:
            assert report.lhs.imag == 0.0 and report.rhs.imag == 0.0, report
        if head and not (report.passed and report.abs_diff <= _budget_sum(report)):
            known_draws.append((s, nu, q))
            return
        assert report.passed and report.abs_diff <= _budget_sum(report), report

    draw()
    if known_draws:
        pytest.xfail(f"ROADMAP item 2, the mellin-k head below Re s - |Re nu| = "
                     f"{_MELLIN_HEAD_GAP}: {known_draws}")


# pair-reciprocity's tanh-sinh head on (0, 1] integrates the transform
# kernel's |t|^{-2|z|} growth at 0: near |z| = 1/2 it raises or
# under-reports its error (ROADMAP item 2).
_PAIR_HEAD_EDGE = 0.45


def test_pair_reciprocity_reports_hold_their_budgets():
    # The k-bessel pair over pair-alpha in [1/4, 4], real |z| < 1/2 and x in
    # [0.05, 10], the Dixon-Ferrar pair at z = 0 over the same x: each report
    # passes with abs_diff within its budget sum, or the verifier raises a
    # typed error other than DecayError (the tail certificates are derived).
    # Draws from _PAIR_HEAD_EDGE on that hit the head's known failure (it
    # raises, or the report misses) are collected, and the test then xfails
    # (non-strict) naming them; any other failure fails it.
    entry, known_draws = IDENTITIES["pair-reciprocity"], []

    @settings(max_examples=40)
    @given(pair=st.sampled_from(["k-bessel", "dixon-ferrar"]), pair_alpha=st.floats(0.25, 4.0),
           z=_hundredths(-49, 49), x=st.floats(0.05, 10.0))
    @example(pair="k-bessel", pair_alpha=2.0, z=0.3, x=0.05)
    @example(pair="k-bessel", pair_alpha=0.25, z=-0.4, x=10.0)
    @example(pair="dixon-ferrar", pair_alpha=2.0, z=0.0, x=0.05)
    def draw(pair, pair_alpha, z, x):
        z = 0.0 if pair == "dixon-ferrar" else z
        head = abs(z) >= _PAIR_HEAD_EDGE
        args = {"pair": pair, "pair_alpha": pair_alpha, "z": z, "x": x}
        try:
            report = entry.verify(args, entry.tolerance)
        except DecayError:
            raise
        except KoshliakovError as exc:
            if head and isinstance(exc, ConvergenceError) and "[0, 1]" in str(exc):
                known_draws.append(args)
            return
        if head and not (report.passed and report.abs_diff <= _budget_sum(report)):
            known_draws.append(args)
            return
        assert report.passed and report.abs_diff <= _budget_sum(report), report

    draw()
    if known_draws:
        pytest.xfail(f"ROADMAP item 2, the pair-reciprocity head at |z| >= "
                     f"{_PAIR_HEAD_EDGE}: {known_draws}")
