"""Acceptance gate: twelve criteria, one test (and one PASS/FAIL line) each.

Every expected value here is either a committed golden (tests/data/
golden.json, generated at 40 digits by the independent oracle in
tools/gen_golden.py) or an analytic invariant; tolerances are the
criterion tolerances, not looser.
"""

import cmath
import csv
import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from koshliakov.cli import main as cli_main
from koshliakov.identities import (_hurwitz_F, f_frak, verify_bessel_hurwitz_sum,
                                   verify_hurwitz_corollary,
                                   verify_hurwitz_modular,
                                   verify_laplace_bessel, verify_mellin_k,
                                   verify_omega_laplace, verify_omega_modular,
                                   verify_omega_self_reciprocal,
                                   verify_pair_reciprocity,
                                   verify_rg_corollary, verify_rg_corollary_z0,
                                   verify_rg_formula)
from koshliakov.kernels import (_k_envelope, _omega_definition, first_koshliakov_transform,
                                koshliakov_kernel, lambda_fn, lambda_sum, omega,
                                omega_combination, pair_dixon_ferrar,
                                pair_k_bessel, theta_eval)
from koshliakov.quadrature import ExpDecay, integrate_semi_infinite, tanh_sinh
from koshliakov.specfun import (bessel_j, bessel_k, bessel_k_scaled, bessel_y,
                                big_xi, digamma, exp_integral_e1_scaled,
                                exp_integral_ei, exp_integral_li, gamma,
                                hurwitz_zeta, riemann_zeta, xi)
from koshliakov.arith import sigma

from conftest import hurwitz_zeta_hermite, omega_partial_fractions, rel_err


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_special_function_invariants():
    t0 = time.monotonic()
    worst_gamma = 0.0
    for s in (0.3, 0.5 + 2.0j, -1.7 + 0.4j, 2.25, 0.9 - 3.0j, 0.1 + 7.0j):
        r1 = rel_err(gamma(s) * gamma(1.0 - s), cmath.pi / cmath.sin(cmath.pi * s))
        r2 = rel_err(gamma(s) * gamma(s + 0.5),
                     2.0 ** (1.0 - 2.0 * s) * cmath.sqrt(cmath.pi) * gamma(2.0 * s))
        r3 = rel_err(gamma(s + 1.0), s * gamma(s))
        worst_gamma = max(worst_gamma, r1, r2, r3)

    worst = 0.0
    for s in (-0.5, 0.25, 0.5 + 6.0j, -2.5 + 1.0j, 0.9):
        fe = (2.0 ** s * cmath.pi ** (s - 1.0) * cmath.sin(cmath.pi * s / 2.0)
              * gamma(1.0 - s) * riemann_zeta(1.0 - s))
        worst = max(worst, rel_err(riemann_zeta(s), fe))
    for s in (2.0, 0.3, 0.5 + 4.0j, -1.5, 1.0 + 1.0j):
        worst = max(worst, rel_err(xi(s), xi(1.0 - s)))
    for s, a in ((0.75, 3.25), (2.0, 0.5), (3.5, 1.25), (1.5 + 1.0j, 2.0)):
        worst = max(worst, rel_err(hurwitz_zeta(s, a), hurwitz_zeta_hermite(s, a)))
    for nu in (0.0, 0.25, 1.25, -0.4):
        for x in (0.5, 1.0, 3.5, 12.0, 28.0):
            w = (bessel_j(nu + 1.0, x) * bessel_y(nu, x)
                 - bessel_j(nu, x) * bessel_y(nu + 1.0, x))
            worst = max(worst, rel_err(w, 2.0 / (math.pi * x)))
    for nu in (0.5, 1.0, 0.3 + 0.2j):
        for x in (0.4, 1.0, 3.0, 10.0):
            worst = max(worst, rel_err(
                bessel_k(nu + 1.0, x),
                bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x)))

    elapsed = time.monotonic() - t0
    ok = worst_gamma <= 1e-12 and worst <= 1e-9 and elapsed < 30.0
    _line("criterion 01 invariants", ok,
          f"gamma worst {worst_gamma:.2e}, other worst {worst:.2e}, "
          f"{elapsed:.1f}s")
    assert worst_gamma <= 1e-12
    assert worst <= 1e-9
    assert elapsed < 30.0


def _bh_inner_n1() -> complex:
    def f(x):
        x = np.asarray(x, dtype=float)
        return (x ** 1.25 * np.real(bessel_k(0.25, 2.0 * x))
                * (x * x + math.pi ** 2) ** -1.75)

    head = tanh_sinh(f, 0.0, 1.0)
    tail = integrate_semi_infinite(f, 1.0, decay=ExpDecay(coeff=50.0, rate=1.8))
    return complex(head.value) + complex(tail.value)


def _hz0_inner_n1() -> complex:
    def f(x):
        x = np.asarray(x, dtype=float)
        return (2.0 * x * np.real(bessel_k(0.0, 2.0 * x))
                * (x * x + math.pi ** 2) ** -1.5)

    head = tanh_sinh(f, 0.0, 1.0)
    tail = integrate_semi_infinite(f, 1.0, decay=ExpDecay(coeff=50.0, rate=1.8))
    return complex(head.value) + complex(tail.value)


def test_criterion_02_golden_suite(golden):
    # The F-series goldens were stored with a 1/8 normalization relative
    # to the boundary-plus-series form assembled here; the difference-form
    # RHS golden is unscaled.  Both conventions were pinned against the
    # oracle before the build.
    evaluators = {
        "bessel_j_0p001_13p9": lambda: bessel_j(0.001, 13.9),
        "bessel_j_0p25_2": lambda: bessel_j(0.25, 2.0),
        "bessel_j_0p3_7p5": lambda: bessel_j(0.3, 7.5),
        "bessel_j_0p6_25": lambda: bessel_j(0.6, 25.0),
        "bessel_j_1p25_2": lambda: bessel_j(1.25, 2.0),
        "bessel_j_m0p8_14": lambda: bessel_j(-0.8, 14.0),
        "bessel_j_m1p4_13p2": lambda: bessel_j(-1.4, 13.2),
        "bessel_j_m3_2p5": lambda: bessel_j(-3.0, 2.5),
        "bessel_j_m4_10": lambda: bessel_j(-4.0, 10.0),
        "bessel_j_20p5_70": lambda: bessel_j(20.5, 70.0),
        "bessel_j_60_500": lambda: bessel_j(60.0, 500.0),
        "bessel_k_0_1": lambda: bessel_k(0.0, 1.0),
        "bessel_k_0_377": lambda: bessel_k_scaled(0.0, 377.0),
        "bessel_k_0p25_2": lambda: bessel_k(0.25, 2.0),
        "bessel_k_0p3_cplx": lambda: bessel_k(0.3, 2.0 * cmath.exp(0.25j * cmath.pi)),
        "bessel_k_1p6_0p3": lambda: bessel_k(1.6, 0.3),
        "bessel_k_0_1p999": lambda: bessel_k(0.0, 1.999),
        "bessel_k_0_2": lambda: bessel_k(0.0, 2.0),
        "bessel_k_0_2p001": lambda: bessel_k(0.0, 2.001),
        "bessel_k_0p49_1p999": lambda: bessel_k(0.49, 1.999),
        "bessel_k_0p49_2": lambda: bessel_k(0.49, 2.0),
        "bessel_k_0p49_2p001": lambda: bessel_k(0.49, 2.001),
        "bessel_k_1p6_1p999": lambda: bessel_k(1.6, 1.999),
        "bessel_k_1p6_2": lambda: bessel_k(1.6, 2.0),
        "bessel_k_1p6_2p001": lambda: bessel_k(1.6, 2.001),
        "bessel_k_12p7_0p5": lambda: bessel_k(12.7, 0.5),
        "bessel_k_29p9_50": lambda: bessel_k(29.9, 50.0),
        "bessel_k_0p25_1em6": lambda: bessel_k(0.25, 1e-6),
        "bessel_k_0p3_1e5": lambda: bessel_k_scaled(0.3, 1e5),
        "bessel_k_0p49p0p3i_1p5": lambda: bessel_k(0.49 + 0.3j, 1.5),
        "bessel_k_0p49p0p3i_2p5": lambda: bessel_k(0.49 + 0.3j, 2.5),
        "bessel_k_1p51p0p3i_0p01": lambda: bessel_k(1.51 + 0.3j, 0.01),
        "bessel_k_1p51m0p3i_40": lambda: bessel_k(1.51 - 0.3j, 40.0),
        "bessel_k_0p5p1i_1p999": lambda: bessel_k(0.5 + 1j, 1.999),
        "bessel_k_0p5p1i_2": lambda: bessel_k(0.5 + 1j, 2.0),
        "bessel_k_m0p3m1i_0p2": lambda: bessel_k(-0.3 - 1j, 0.2),
        "bessel_k_m0p3m1i_9": lambda: bessel_k(-0.3 - 1j, 9.0),
        "bessel_k_7p6p1i_0p7": lambda: bessel_k(7.6 + 1j, 0.7),
        "bessel_k_7p6p1i_25": lambda: bessel_k(7.6 + 1j, 25.0),
        "bessel_y_0_1": lambda: bessel_y(0.0, 1.0),
        "bessel_y_0p001_12": lambda: bessel_y(0.001, 12.0),
        "bessel_y_0p001_13p9": lambda: bessel_y(0.001, 13.9),
        "bessel_y_0p0015_0p7": lambda: bessel_y(0.0015, 0.7),
        "bessel_y_0p0021_13p9": lambda: bessel_y(0.0021, 13.9),
        "bessel_y_0p25_2": lambda: bessel_y(0.25, 2.0),
        "bessel_y_0p3_13p9": lambda: bessel_y(0.3, 13.9),
        "bessel_y_0p3_30": lambda: bessel_y(0.3, 30.0),
        "bessel_y_1p001_3": lambda: bessel_y(1.001, 3.0),
        "bessel_y_1p25_2": lambda: bessel_y(1.25, 2.0),
        "bessel_y_2_3p5": lambda: bessel_y(2.0, 3.5),
        "bessel_y_3p0018_4": lambda: bessel_y(3.0018, 4.0),
        "bessel_y_m0p6_12p5": lambda: bessel_y(-0.6, 12.5),
        "bessel_y_m1_5": lambda: bessel_y(-1.0, 5.0),
        "bessel_y_m1p999_5p5": lambda: bessel_y(-1.999, 5.5),
        "bessel_y_m2_1p5": lambda: bessel_y(-2.0, 1.5),
        "bessel_y_m30_100": lambda: bessel_y(-30.0, 100.0),
        "bessel_y_m45p2_300": lambda: bessel_y(-45.2, 300.0),
        "bh_inner_n1": _bh_inner_n1,
        "big_xi_2_p5i": lambda: big_xi(2 + 0.5j),
        "big_xi_2p5": lambda: big_xi(2.5),
        "df_psi_1": lambda: pair_dixon_ferrar().psi(1.0, 0.0),
        "df_psi_6": lambda: pair_dixon_ferrar().psi(6.0, 0.0),
        "df_psi_0p01": lambda: pair_dixon_ferrar().psi(0.01, 0.0),
        "df_psi_0p3": lambda: pair_dixon_ferrar().psi(0.3, 0.0),
        "df_psi_2": lambda: pair_dixon_ferrar().psi(2.0, 0.0),
        "df_psi_12p5": lambda: pair_dixon_ferrar().psi(12.5, 0.0),
        "df_psi_13": lambda: pair_dixon_ferrar().psi(13.0, 0.0),
        "df_psi_100": lambda: pair_dixon_ferrar().psi(100.0, 0.0),
        "df_psi_8000": lambda: pair_dixon_ferrar().psi(8000.0, 0.0),
        "digamma_0p5": lambda: digamma(0.5),
        "digamma_3p7": lambda: digamma(3.7),
        "ei_1": lambda: exp_integral_ei(1.0),
        "ei_m2p5": lambda: exp_integral_ei(-2.5),
        "f_frak_2_c": lambda: f_frak(0.3 + 0.2j, 2.0)[0] / 8.0,
        "f_frak_half_c": lambda: f_frak(0.3 + 0.2j, 0.5)[0] / 8.0,
        "f_frak_quarter_c": lambda: f_frak(0.3 + 0.2j, 0.25)[0] / 8.0,
        "f_frak_0p3_0p9c": lambda: f_frak(0.9 - 0.4j, 0.3)[0] / 8.0,
        "gamma_1_plus_i": lambda: gamma(1 + 1j),
        "gamma_quarter": lambda: gamma(0.25),
        "hurwitz_0p75_3p25": lambda: hurwitz_zeta(0.75, 3.25),
        "hurwitz_1p5_2p5": lambda: hurwitz_zeta(1.5, 2.5),
        "hurwitz_2p2i_1p5": lambda: hurwitz_zeta(2 + 2j, 1.5),
        "hurwitz_F_1_half": lambda: _hurwitz_F(0.5, [1.0])[0][0],
        "hurwitz_F_2_c": lambda: _hurwitz_F(-0.4 + 0.3j, [2.0])[0][0],
        "hz0_inner_n1": _hz0_inner_n1,
        "kernel_m_0_1": lambda: koshliakov_kernel(0.0, 1.0 / 16.0),
        "kosh_kernel_0_2": lambda: koshliakov_kernel(0.0, 2.0),
        "kosh_kernel_0p5_1": lambda: koshliakov_kernel(0.5, 1.0),
        "lambda_1_0": lambda: lambda_fn(1.0, 0.0),
        "lambda_2_half": lambda: lambda_fn(2.0, 0.5),
        "laplace_bessel_rhs_1_1_0": lambda: verify_laplace_bessel(1.0, 1.0, 0.0).rhs,
        "li_0p1": lambda: exp_integral_li(0.1),
        "li_2": lambda: exp_integral_li(2.0),
        "li_1e30": lambda: exp_integral_li(1e30),
        "mellin_k_closed": lambda: verify_mellin_k(1.2 + 0.7j, 0.3, 1.0).rhs,
        "omega_1_0p4": lambda: omega_partial_fractions(1.0, 0.4),
        "omega_2_m0p4": lambda: omega(2.0, -0.4),
        "omega_5_0p3p0p2i": lambda: omega(5.0, 0.3 + 0.2j),
        "rg_rhs_half_1": lambda: f_frak(0.5, 1.0)[0],
        "rgz0_rhs_alpha1": lambda: verify_rg_corollary_z0(1.0).rhs,
        "sigma_c_12": lambda: sigma(-(0.5 + 0.5j), 12),
        "theta_k_alpha2_pi": lambda: theta_eval(pair_k_bessel(2.0), math.pi, 0.0),
        "xi_at_2": lambda: xi(2.0),
        "xi_half": lambda: xi(0.5),
        "zeta_3": lambda: riemann_zeta(3.0),
        "zeta_half": lambda: riemann_zeta(0.5),
        "zeta_half_plus_3i": lambda: riemann_zeta(0.5 + 3.0j),
        "zeta_minus_half": lambda: riemann_zeta(-0.5),
    }
    # K at complex arguments (scaled by e^x where the key says omega or arg)
    # and at |Im nu| > 1.
    rot, turn = cmath.exp(0.25j * math.pi), cmath.exp(0.45j * math.pi)
    for key, nu, x in (
            ("0p5_omega_0p5", 0.5, 4.0 * math.pi * math.sqrt(0.5) * rot),
            ("0p5_omega_2", 0.5, 4.0 * math.pi * math.sqrt(2.0) * rot),
            ("0p5_omega_2_conj", 0.5, 4.0 * math.pi * math.sqrt(2.0) / rot),
            ("0p5_omega_50", 0.5, 4.0 * math.pi * math.sqrt(50.0) * rot),
            ("0p3p0p2i_omega_0p5", 0.3 + 0.2j, 4.0 * math.pi * math.sqrt(0.5) * rot),
            ("0p3p0p2i_omega_2", 0.3 + 0.2j, 4.0 * math.pi * math.sqrt(2.0) * rot),
            ("0p3p0p2i_omega_2_conj", 0.3 + 0.2j, 4.0 * math.pi * math.sqrt(2.0) / rot),
            ("0p3p0p2i_omega_50", 0.3 + 0.2j, 4.0 * math.pi * math.sqrt(50.0) * rot),
            ("0p3_1p5_arg0p45pi", 0.3, 1.5 * turn), ("0p3_3_argm0p45pi", 0.3, 3.0 / turn),
            ("0p4p1p5i_1p5_arg0p45pi", 0.4 + 1.5j, 1.5 * turn),
            ("0p4p1p5i_3_argm0p45pi", 0.4 + 1.5j, 3.0 / turn)):
        evaluators[f"bessel_k_{key}"] = lambda nu=nu, x=x: bessel_k_scaled(nu, x)
    for key, nu, x in (
            ("0p3p2i_1p9", 0.3 + 2j, 1.9), ("0p3p2i_2p1", 0.3 + 2j, 2.1), ("5p2i_6", 5 + 2j, 6.0),
            ("0p5p5i_3", 0.5 + 5j, 3.0), ("m0p2m5i_0p7", -0.2 - 5j, 0.7),
            ("case_0p25_1p1i", 0.25, 1 + 1j), ("case_0p25_2m0p5i", 0.25, 2 - 0.5j),
            ("case_0p25_0p1p3i", 0.25, 0.1 + 3j), ("case_1p5m2i_0p001", 1.5 - 2j, 0.001),
            ("case_1p5m2i_0p3", 1.5 - 2j, 0.3), ("case_1p5m2i_7", 1.5 - 2j, 7.0),
            ("case_0_1em6p1em6i", 0.0, 1e-6 + 1e-6j), ("case_0_100p1i", 0.0, 100 + 1j),
            ("case_2i_5", 2j, 5.0), ("case_0p1_0p2p0p2i", 0.1, 0.2 + 0.2j)):
        evaluators[f"bessel_k_{key}"] = lambda nu=nu, x=x: bessel_k(nu, x)
    # Omega where it is small, down to about 1e-23 at x = 30.
    for xtag, x in (("0p25", 0.25), ("10", 10.0), ("30", 30.0)):
        for ztag, z in (("0p5", 0.5), ("m0p4", -0.4), ("0p3p0p2i", 0.3 + 0.2j)):
            evaluators[f"omega_{xtag}_{ztag}"] = lambda x=x, z=z: omega(x, z)
    # The z = 0 limits and |z| = 1e-6, real and complex.
    for tag, z in (("0", 0.0), ("1em6", 1e-6), ("1em6c", 6e-7 + 8e-7j)):
        evaluators[f"omega_comb_1p5_{tag}"] = lambda z=z: omega_combination(1.5, z)
        evaluators[f"lambda_2_{tag}"] = lambda z=z: lambda_fn(2.0, z)
        evaluators[f"f_frak_1p3_{tag}"] = lambda z=z: f_frak(z, 1.3)[0] / 8.0
    for tag, w in (("1", 1.0), ("1p0001", 1.0001), ("2", 2.0), ("4", 4.0),
                   ("20", 20.0), ("49p9", 49.9)):
        evaluators[f"e1_scaled_{tag}"] = lambda w=w: exp_integral_e1_scaled(w)
    # F of the Hurwitz identities across the strip |Re z| < 1, and the
    # lambda sum of bessel-hurwitz-sum at z = -1/2.
    for atag, alpha in (("0p25", 0.25), ("1", 1.0), ("4", 4.0)):
        for ztag, z in (("0", 0.0), ("0p4i", 0.4j), ("m0p5", -0.5), ("m0p9", -0.9),
                        ("m0p5p0p3i", -0.5 + 0.3j)):
            evaluators[f"hurwitz_F_{atag}_{ztag}"] = (
                lambda z=z, alpha=alpha: _hurwitz_F(z, [alpha])[0][0])
        evaluators[f"lam_sum_{atag}_m0p5"] = lambda alpha=alpha: lambda_sum(alpha, -0.5, 50)[0]
    required = ("zeta_half", "bessel_k_0_1", "bessel_y_0_1", "xi_half",
                "li_2", "bessel_k_0p3_cplx")

    worst_name, worst = "", 0.0
    matched = 0
    for name, make in evaluators.items():
        r = rel_err(make(), golden[name])
        if r > worst:
            worst_name, worst = name, r
        if r <= 1e-10:
            matched += 1
        assert r <= 1e-10, f"{name}: rel {r:.3e}"
    # li at the Soldner zero: golden is ~1e-41, compared absolutely.
    soldner = 1.4513692348833810502839684858920274494
    assert abs(exp_integral_li(soldner)) <= 1e-12
    matched += 1

    for name in required:
        assert name in evaluators
    assert matched >= 25 and matched == len(golden)
    _line("criterion 02 golden suite", True,
          f"{matched}/{len(golden)} matched at 1e-10, worst {worst_name} "
          f"{worst:.2e}")


def test_criterion_03_kernel_self_reciprocality():
    t0 = time.monotonic()
    worst = 0.0
    for z in (0.0, 0.25, -0.4):
        for x in (0.5, 1.0, 2.0, 4.0):
            got = first_koshliakov_transform(
                lambda t, _z=z: np.real(bessel_k(_z, np.asarray(t, dtype=float))),
                z, x, _k_envelope(z, 1.0))
            worst = max(worst, rel_err(got.value, bessel_k(z, x)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _line("criterion 03 self-reciprocal K", ok,
          f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_04_rg_corollary_grid_and_sweep(tmp_path):
    t0 = time.monotonic()
    worst = 0.0
    for z in (0.5, -0.5, 0.75):
        for alpha in (0.6, 0.8, 1.0, 1.25, 5.0 / 3.0):
            r = verify_rg_corollary(z=z, alpha=alpha)
            assert r.passed, f"z={z} alpha={alpha}: rel {r.rel_diff:.3e}"
            worst = max(worst, r.rel_diff)
    assert worst <= 1e-8

    out = tmp_path / "fig1.csv"
    code = cli_main(["sweep", "rg-corollary", "--z", "0", "--alpha-min",
                     "0.5", "--alpha-max", "2", "--steps", "31", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 31
    sweep_worst = max(abs(float(row["abs_diff"])) for row in rows)
    elapsed = time.monotonic() - t0
    ok = sweep_worst <= 1e-6 and elapsed < 300.0
    _line("criterion 04 rg corollary", ok,
          f"grid worst rel {worst:.2e}, sweep worst abs {sweep_worst:.2e}, "
          f"{elapsed:.1f}s")
    assert sweep_worst <= 1e-6
    assert elapsed < 300.0


def test_criterion_05_series_modular_symmetry(golden):
    worst = 0.0
    for z in (0.3 + 0.2j, -0.6):
        for alpha in (1.5, 2.0):
            r = verify_rg_formula(z, alpha)
            assert r.passed
            worst = max(worst, r.rel_diff)
    assert worst <= 1e-8
    # Reconciliation record: the assembled series form reproduces the
    # committed oracle values on both sides of alpha -> 1/alpha.
    a = rel_err(f_frak(0.3 + 0.2j, 2.0)[0] / 8.0, golden["f_frak_2_c"])
    b = rel_err(f_frak(0.3 + 0.2j, 0.5)[0] / 8.0, golden["f_frak_half_c"])
    assert max(a, b) <= 1e-10
    _line("criterion 05 series symmetry", True,
          f"worst rel {worst:.2e}, golden recon {max(a, b):.2e}")


def test_criterion_06_hurwitz_corollary_and_sweep(tmp_path):
    t0 = time.monotonic()
    worst = 0.0
    for z in (0.75, 0.5):
        for alpha in (1.0, 2.0):
            r = verify_hurwitz_corollary(z=z, alpha=alpha)
            assert r.passed, f"z={z} alpha={alpha}: rel {r.rel_diff:.3e}"
            worst = max(worst, r.rel_diff)
    assert worst <= 1e-6

    out = tmp_path / "fig2.csv"
    code = cli_main(["sweep", "hurwitz-corollary", "--z", "0.75",
                     "--alpha-min", "0.5", "--alpha-max", "2", "--steps",
                     "31", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    quot_worst = max(
        abs(complex(float(r["lhs_re"]), float(r["lhs_im"]))
            / complex(float(r["rhs_re"]), float(r["rhs_im"])) - 1.0)
        for r in rows)
    elapsed = time.monotonic() - t0
    ok = quot_worst <= 1e-5 and elapsed < 300.0
    _line("criterion 06 hurwitz corollary", ok,
          f"grid worst rel {worst:.2e}, quotient worst {quot_worst:.2e}, "
          f"{elapsed:.1f}s")
    assert quot_worst <= 1e-5
    assert elapsed < 300.0


def test_criterion_07_hurwitz_modular():
    worst = 0.0
    for z in (0.5, 0.75):
        r = verify_hurwitz_modular(z, 2.0)
        assert r.passed
        worst = max(worst, r.rel_diff)
    _line("criterion 07 hurwitz modular", worst <= 1e-8,
          f"worst rel {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_08_omega_self_reciprocal():
    worst = 0.0
    for x, z in ((1.0, 0.3), (2.0, -0.4)):
        r = verify_omega_self_reciprocal(x, z)
        assert r.passed, f"(x,z)=({x},{z}): rel {r.rel_diff:.3e}"
        worst = max(worst, r.rel_diff)
    assert worst <= 1e-6
    cross = rel_err(omega_partial_fractions(1.0, 0.4),
                    _omega_definition(1.0, 0.4 + 0j))
    _line("criterion 08 omega lemma", cross <= 1e-8,
          f"worst rel {worst:.2e}, cross-mode {cross:.2e}")
    assert cross <= 1e-8


def test_criterion_09_omega_modular_and_laplace():
    worst = 0.0
    for z in (0.5, -0.5):
        r = verify_omega_modular(2.0, z)
        assert r.passed
        worst = max(worst, r.rel_diff)
    for alpha in (1.0, 2.0):
        r = verify_omega_laplace(alpha, 0.5)
        assert r.passed
        worst = max(worst, r.rel_diff)
    _line("criterion 09 omega modular/laplace", worst <= 1e-6,
          f"worst rel {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_10_closed_form_integrals():
    worst = 0.0
    for s, nu, q in ((2.0, 0.0, 1.0), (1.2 + 0.7j, 0.3, 1.0),
                     (3.5, 1.25, 2.0)):
        r = verify_mellin_k(s, nu, q)
        assert r.passed, f"mellin ({s},{nu},{q}): rel {r.rel_diff:.3e}"
        worst = max(worst, r.rel_diff)
    for alpha, y, z in ((1.0, 1.0, 0.0), (2.0, 0.5, 0.3), (1.5, 2.0, 0.5)):
        r = verify_laplace_bessel(alpha, y, z)
        assert r.passed, f"laplace ({alpha},{y},{z}): rel {r.rel_diff:.3e}"
        worst = max(worst, r.rel_diff)
    _line("criterion 10 closed forms", worst <= 1e-9,
          f"worst rel {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_11_pair_reciprocity():
    worst_df = 0.0
    for x in (0.5, 1.0):
        r = verify_pair_reciprocity(pair_dixon_ferrar(), 0.0, x)
        assert r.passed
        worst_df = max(worst_df, r.rel_diff)
    assert worst_df <= 1e-4
    worst_k = 0.0
    for alpha, z, x in ((2.0, 0.0, 1.0), (1.0, 0.25, 0.5)):
        r = verify_pair_reciprocity(pair_k_bessel(alpha), z, x)
        assert r.passed
        worst_k = max(worst_k, r.rel_diff)
    _line("criterion 11 pair reciprocity", worst_k <= 1e-6,
          f"dixon-ferrar worst {worst_df:.2e}, K-pair worst {worst_k:.2e}")
    assert worst_k <= 1e-6


def test_criterion_12_cli_end_to_end(tmp_path, capsys):
    # verify: pass JSON and exit 0
    assert cli_main(["verify", "mellin-k", "--s", "2", "--nu", "0",
                     "--q", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"identity", "params", "lhs", "rhs", "abs_diff",
                        "rel_diff", "budgets", "pass"}
    # exit 2 on a forced failure, 3 on domain error, 64 on usage error
    assert cli_main(["verify", "mellin-k", "--s", "2", "--nu", "0", "--q",
                     "1", "--tolerance", "1e-30"]) == 2
    capsys.readouterr()
    assert cli_main(["verify", "rg-corollary", "--z", "1.5"]) == 3
    assert "|Re z| < 1 required" in capsys.readouterr().err
    assert cli_main(["verify", "not-an-identity"]) == 64
    capsys.readouterr()

    # sweep: schema-exact CSV, valid SVG, byte-stable rerun
    args = ["sweep", "rg-formula", "--z", "0.5", "--alpha-min", "0.5",
            "--alpha-max", "2", "--steps", "5"]
    csv1, csv2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    svg = tmp_path / "s.svg"
    assert cli_main(args + ["--out", str(csv1), "--svg", str(svg)]) == 0
    assert cli_main(args + ["--out", str(csv2)]) == 0
    lines = csv1.read_text().strip().split("\n")
    assert lines[0] == "alpha,lhs_re,lhs_im,rhs_re,rhs_im,abs_diff,rel_diff"
    assert len(lines) == 6
    stable = csv1.read_bytes() == csv2.read_bytes()
    root = ET.parse(str(svg)).getroot()
    svg_ok = (root.tag == "{http://www.w3.org/2000/svg}svg"
              and root.get("version") == "1.1")
    _line("criterion 12 cli", stable and svg_ok,
          f"byte-stable={stable}, svg-valid={svg_ok}")
    assert stable and svg_ok
