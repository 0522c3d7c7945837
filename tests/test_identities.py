"""Identity verifiers: representative points, report invariants, and the
structural properties promised by the registry."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from koshliakov import arith, identities, kernels
from koshliakov.errors import DomainError, NearPoleError
from koshliakov.identities import (IDENTITIES, _hurwitz_F, _k_series_tail,
                                   _oscillatory_tail, _report,
                                   f_frak, _theta_pair_inner,
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
from koshliakov.kernels import ReciprocalPair, pair_dixon_ferrar, pair_k_bessel
from koshliakov.quadrature import QuadratureSpec, tanh_sinh
from koshliakov.specfun import bessel_j, bessel_k

from conftest import rel_err


def test_params_domain():
    with pytest.raises(DomainError):
        verify_rg_corollary(z=0.5, alpha=0.2)
    with pytest.raises(DomainError):
        verify_rg_corollary(z=0.5, alpha=5.0)
    with pytest.raises(DomainError):
        verify_rg_corollary(z=0.5, alpha=1.0, terms=0)


def test_rg_corollary_passes():
    r = verify_rg_corollary(z=0.5, alpha=1.0, terms=10)
    assert r.passed and r.rel_diff < 1e-12


def test_rg_corollary_complex_z():
    r = verify_rg_corollary(z=0.3 + 0.2j, alpha=1.25, terms=30)
    assert r.passed and r.rel_diff < 1e-9


def test_rg_corollary_domain_message():
    with pytest.raises(DomainError, match=r"\|Re z\| < 1 required"):
        verify_rg_corollary(z=1.5, alpha=1.0)


def test_rg_corollary_near_pole():
    with pytest.raises(NearPoleError):
        verify_rg_corollary(z=1e-6, alpha=1.0)


def test_rg_z0_routing():
    # z=0 is served by the z->0 corollary, not the generic strip formula.
    r = verify_rg_corollary(z=0.0, alpha=1.0, terms=10)
    assert r.identity_id == "rg-corollary-z0"
    assert r.passed


def test_rg_z0_direct():
    r = verify_rg_corollary_z0(alpha=2.0, terms=12)
    assert r.passed and r.rel_diff < 1e-10


def test_rg_formula():
    for z, alpha in ((0.3 + 0.2j, 2.0), (-0.6, 1.5)):
        r = verify_rg_formula(z, alpha, 10)
        assert r.passed and r.rel_diff < 1e-12


@pytest.mark.parametrize("z, alpha, key", [(0.5, 1.0, "hurwitz_F_1_half"),
                                           (-0.4 + 0.3j, 2.0, "hurwitz_F_2_c")])
@pytest.mark.parametrize("terms", [10, 50])
def test_hurwitz_F_bounds_cover_the_oracle(golden, z, alpha, key, terms):
    # The lambda side's value within its Euler-Maclaurin residual plus its
    # evaluation bound of the 40-digit golden; the ulp charge is what
    # covers the roundoff of the cancelling pieces.
    values, budgets = _hurwitz_F(z, [alpha], terms)
    assert 0.0 < budgets["eval_err"][0] < 1e-11
    assert abs(values[0] - golden[key]) <= budgets["em_residual"][0] + budgets["eval_err"][0]


def test_hurwitz_modular_grid_rows_are_the_verifies():
    # F over the alphas and their reciprocals in one call gives each row
    # the report its own verify gives, bit for bit.
    alphas = list(np.arange(0.25, 4.0 + 1e-12, 0.1875))
    for z in (0.5, -0.4 + 0.3j):
        rows = verify_hurwitz_modular(z, alphas, 50)
        assert rows == [verify_hurwitz_modular(z, alpha, 50) for alpha in alphas]
        assert all(r.passed for r in rows)


def test_rg_formula_grid_rows_are_the_verifies():
    # f_frak over the alphas and their reciprocals in one call (one divisor
    # table, sliced per alpha) gives each row its own verify's report.
    alphas = list(np.arange(0.25, 4.0 + 1e-12, 0.1875))
    for z in (0.5, 0.3 + 0.2j):
        rows = verify_rg_formula(z, alphas, 10)
        assert rows == [verify_rg_formula(z, alpha, 10) for alpha in alphas]
        assert all(r.passed for r in rows)


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
        value, budgets = f_frak(z, alpha, 60)
        tail, eval_err = budgets["series_tail"], budgets["eval_err"]
        assert 0.0 < eval_err < 1e-12
        assert abs(value - scale * golden[key]) <= tail + eval_err, key
    r = verify_rg_formula(0.5, 1.4375, 10)
    assert r.budgets["eval_err"] > 0.0 and r.abs_diff <= sum(r.budgets.values())
    r = verify_rg_corollary(z=0.5, alpha=1.4375, terms=10)
    assert r.budgets["eval_err"] > 0.0


def test_hurwitz_corollary():
    r = verify_hurwitz_corollary(z=0.75, alpha=1.0, terms=40)
    assert r.passed and r.rel_diff < 1e-9


def test_hurwitz_modular():
    r = verify_hurwitz_modular(0.5, 2.0)
    assert r.passed and r.rel_diff < 1e-12


def test_hurwitz_z0():
    r = verify_hurwitz_corollary_z0(alpha=2.0, terms=8)
    assert r.passed and r.rel_diff < 1e-9


def test_bessel_hurwitz_sum():
    r = verify_bessel_hurwitz_sum(1.0, 0.5, 8)
    assert r.passed and r.rel_diff < 1e-8


_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)


def test_theta_pair_inner_one_hot_goldens(golden):
    # With weight vector (1,) the folded integral is the n=1 inner integral.
    hz0, _ = _theta_pair_inner(1.0, np.array([1.0]), 0.0, _SPEC, both=True)
    bh, _ = _theta_pair_inner(1.0, np.array([1.0]), 0.25, _SPEC, both=False)
    assert rel_err(hz0, golden["hz0_inner_n1"]) < 1e-10
    assert rel_err(bh, golden["bh_inner_n1"]) < 1e-10


@pytest.mark.parametrize("alpha,z,both", [(1.7, 0.0, True),
                                          (0.6, 0.3 + 0.2j, False)])
def test_theta_pair_inner_is_sum_of_one_hot_calls(alpha, z, both):
    N = 6
    nn = np.arange(1, N + 1, dtype=float)
    weights = arith.build_table(-z, N) * nn ** (z + 1.0)
    folded, err = _theta_pair_inner(alpha, weights, 0.5 * z, _SPEC, both)
    parts = sum(_theta_pair_inner(alpha, np.where(nn == n, weights, 0.0),
                                  0.5 * z, _SPEC, both)[0] for n in nn)
    assert rel_err(folded, parts) < 1e-10
    assert err < 1e-10 * abs(folded)


def test_hurwitz_z0_many_terms_at_large_alpha():
    # The summed per-n error estimates once exceeded the cap here although
    # the residual was 40x below it; one folded integral resolves it.
    r = verify_hurwitz_corollary_z0(alpha=4.0, terms=200)
    assert r.passed and r.rel_diff < 1e-9


def test_divisor_k_series_at_the_alpha_ends():
    # Divisor tails taken as zeta(s) zeta(s+z) minus the partial sum left
    # rel_diff 7e-13 to 2e-12 at these points; the exact tail moments do not.
    for r in (verify_hurwitz_corollary_z0(alpha=0.25, terms=50),
              verify_hurwitz_corollary_z0(alpha=4.0, terms=50),
              verify_bessel_hurwitz_sum(0.25, 0.5, 50)):
        assert r.passed and r.rel_diff < 1e-13


@pytest.mark.parametrize("z", [0.5, 0.75])
def test_oscillatory_tail_closed_form(z):
    # The integral of J_z(u) u^{z-1} over (0, inf) is 2^{z-1} Gamma(z); its
    # envelope u^{z-3/2} is the slow alternating tail of the Omega verifier.
    def g(u):
        return bessel_j(z, u) * np.power(u, z - 1.0)

    U = 20.0
    head = tanh_sinh(g, 0.0, U, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    tail, err = _oscillatory_tail(g, U, math.pi)
    exact = 2.0 ** (z - 1.0) * math.gamma(z)
    assert rel_err(head.value + tail, exact) < 1e-10
    assert 0.0 < err < 1e-10


def test_mellin_k_trivial_point():
    r = verify_mellin_k(2.0, 0.0, 1.0)
    assert r.passed
    assert abs(r.lhs - 1.0) < 1e-12 and abs(r.rhs - 1.0) < 1e-12


def test_mellin_k_strip():
    with pytest.raises(DomainError):
        verify_mellin_k(0.2, 0.5, 1.0)


def test_laplace_bessel():
    # z=0.5 is the CLI default; there f(1) = -5.8e-19, so a tail envelope
    # fitted at t=1 alone would collapse.
    for z in (0.0, 0.5):
        r = verify_laplace_bessel(1.0, 1.0, z)
        assert r.passed and r.rel_diff < 1e-10


def test_omega_self_reciprocal():
    r = verify_omega_self_reciprocal(1.0, 0.3, 500)
    assert r.passed and r.rel_diff < 1e-9


def test_omega_self_reciprocal_budget_bounds_diff():
    # At small N the rhs leans on high-order Omega moments, so an
    # inaccurate Hurwitz tail shows up as a diff above the budgets.
    for terms in (20, 28, 50):
        r = verify_omega_self_reciprocal(1.0, 0.5, terms=terms)
        assert r.abs_diff <= sum(r.budgets.values())


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
    # The K-pair admits Re z = +-1/2, the transform does not.
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
    bad = ReciprocalPair(good.phi, lambda t, zz: 1.01 * good.psi(t, zz),
                         good.z_domain, good.label)
    assert not verify_pair_reciprocity(bad, z, x).passed


def test_pair_reciprocity_dixon_ferrar():
    r = verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, 1.0)
    assert r.passed and r.rel_diff < 1e-10


def test_dixon_ferrar_integrand_call_count(monkeypatch):
    # Every integrand of the check (forward and mirrored) multiplies by the
    # transform kernel, so its calls count the quadrature layer's rounds:
    # one call per round is 14 calls over 2092 nodes (one call per GK
    # panel and per tanh-sinh side would be 45).
    sizes = []
    orig = kernels.transform_kernel

    def counted(z, v):
        sizes.append(np.size(v))
        return orig(z, v)

    monkeypatch.setattr(kernels, "transform_kernel", counted)
    monkeypatch.setattr(identities, "transform_kernel", counted)
    assert verify_pair_reciprocity(pair_dixon_ferrar(), 0, 1).passed
    assert (len(sizes), sum(sizes)) == (14, 2092)


@pytest.mark.parametrize("x", [0.01, 1.0])
def test_dixon_ferrar_runs_one_oscillatory_tail(x, monkeypatch):
    # Only the forward psi decays like a power; the mirrored phi = e^{-t}
    # decays exponentially and goes through the first transform.
    calls = []
    orig = identities._oscillatory_tail

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(identities, "_oscillatory_tail", counted)
    assert verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, x).passed
    assert len(calls) == 1


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
        a = make(z=0.5, alpha=2.0, terms=30)
        b = make(z=0.5, alpha=0.5, terms=30)
        q_budget = (a.budgets["quad_err"] + b.budgets["quad_err"]
                    + a.budgets["xi_cutoff"] + b.budgets["xi_cutoff"])
        assert abs(a.lhs - b.lhs) <= q_budget + 1e-12 * abs(a.lhs)


def test_conjugation_real_inputs_real_sides():
    for r in (verify_rg_corollary(z=0.5, alpha=1.25, terms=20),
              verify_omega_laplace(1.5, 0.5),
              verify_hurwitz_modular(0.75, 2.0)):
        assert abs(r.lhs.imag) <= 1e-10 * max(abs(r.lhs.real), 1e-300)
        assert abs(r.rhs.imag) <= 1e-10 * max(abs(r.rhs.real), 1e-300)


def test_monotone_refinement(monkeypatch):
    # Doubling terms and tightening quadrature never worsens rel_diff by
    # more than the stated budgets.  The tight accuracy replaces the
    # verifier's own constant; hurwitz-modular integrates nothing, so its
    # case doubles the terms only.
    tight = QuadratureSpec(abs_tol=5e-12, rel_tol=5e-12)
    cases = [
        ("_XI_SPEC", lambda n: verify_rg_corollary(z=0.5, alpha=1.25, terms=n)),
        ("_OMEGA_LAPLACE_SPEC", lambda n: verify_omega_laplace(1.5, 0.5, terms=n)),
        (None, lambda n: verify_hurwitz_modular(0.5, 2.0, terms=n)),
    ]
    for constant, run in cases:
        coarse = run(20)
        with monkeypatch.context() as patch:
            if constant is not None:
                patch.setattr(identities, constant, tight)
            fine = run(40)
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
    for r in (verify_rg_corollary(z=0.5, alpha=1.0, terms=10),
              verify_omega_modular(2.0, 0.5),
              verify_mellin_k(2.0, 0.0, 1.0)):
        assert r.passed
        budget = sum(v for k, v in r.budgets.items()
                     if not k.endswith("_diff"))
        scale = max(abs(r.lhs), abs(r.rhs))
        cap = r.tolerance if abs(r.rhs) < 1e-3 else r.tolerance * scale
        assert budget < cap


_GRID = list(np.geomspace(0.25, 4.0, 7))


@pytest.mark.parametrize("grid, single", [
    (lambda: verify_rg_corollary(0.3 + 0.2j, _GRID, 50),
     lambda a: verify_rg_corollary(0.3 + 0.2j, a, 50)),
    (lambda: verify_rg_corollary_z0(_GRID, 50),
     lambda a: verify_rg_corollary_z0(a, 50)),
    (lambda: verify_hurwitz_corollary(-0.4 + 0.3j, _GRID, 50),
     lambda a: verify_hurwitz_corollary(-0.4 + 0.3j, a, 50)),
    (lambda: verify_hurwitz_corollary_z0(_GRID, 20),
     lambda a: verify_hurwitz_corollary_z0(a, 20)),
], ids=["rg-corollary", "rg-corollary-z0", "hurwitz-corollary",
        "hurwitz-corollary-z0"])
def test_grid_rows_agree_with_single_alpha(grid, single):
    # One vector integral over the grid gives every row's lhs within that
    # row's budget sum of its own one-alpha integral.
    rows = grid()
    assert len(rows) == len(_GRID)
    for alpha, row in zip(_GRID, rows):
        ref = single(alpha)
        assert row.params == ref.params and row.passed
        budget = sum(v for k, v in ref.budgets.items() if not k.endswith("_diff"))
        assert abs(row.lhs - ref.lhs) <= budget
        assert row.rhs == ref.rhs


def test_rg_grid_dispatches_z0():
    rows = verify_rg_corollary(0.0, [0.5, 2.0], 20)
    assert [r.identity_id for r in rows] == ["rg-corollary-z0"] * 2


_PART = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False))
_NUDGE = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6, allow_subnormal=False))


@given(rhs=st.tuples(_PART, _PART), nudge=st.tuples(_NUDGE, _NUDGE),
       budgets=st.dictionaries(st.sampled_from(["quad_err", "series_tail",
                                                "x_diff", "y_diff"]),
                               st.floats(0.0, 1e-3), max_size=4),
       tolerance=st.floats(1e-12, 1e-2), real_inputs=st.booleans())
def test_report_never_passes_unresolved(rhs, nudge, budgets, tolerance, real_inputs):
    # lhs is rhs moved by at most 1e-6 per part, so passing reports occur.
    rhs = complex(*rhs)
    lhs = rhs + complex(*nudge)
    r = _report("t", {}, lhs, rhs, budgets, tolerance, real_inputs)
    scale = max(abs(lhs), abs(rhs))
    cap = tolerance if abs(rhs) < 1e-3 else tolerance * scale
    if sum(v for k, v in budgets.items() if not k.endswith("_diff")) >= cap:
        assert not r.passed
    if any(k.endswith("_diff") and v > tolerance for k, v in budgets.items()):
        assert not r.passed
    if real_inputs and any(abs(v.imag) > 1e-10 * max(abs(v.real), 1e-300)
                           for v in (lhs, rhs)):
        assert not r.passed
    if r.passed:
        assert r.abs_diff <= cap * (1.0 + 1e-12)
