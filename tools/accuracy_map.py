#!/usr/bin/env python3
"""Worst relative error of the special functions, region by region.

    python tools/accuracy_map.py                  # writes tools/accuracy_map.json
    python tools/accuracy_map.py --out map.json

Samples each function over its regions at seeded points, evaluates it
with the library (one array call per region where the function takes
arrays) and with mpmath at 30 significant digits, and records the worst
relative error per region together with the point where it occurred.
The committed tools/accuracy_map.json is the accuracy counterpart of
BENCHMARK.json: re-run it in every change that touches these functions.
mpmath is the oracle here and in tools/gen_golden.py only; the library
and its tests never import it.

Covered: exp(x) K_nu(x) at real order (order bands by |nu|, x below
and above the switch at 2), at complex order and real x (|Im nu| <= 1,
1 < |Im nu| <= 2 and 2 < |Im nu| <= 5, each split at x = 2), at complex
argument (real order at |arg x| <= pi/4 and in (pi/4, pi/2), complex
order with |Im nu| <= 5 split at |x| = 2); e^w E1(w); e^{-y} Ei(y); the
Dixon-Ferrar psi; J_nu(x) and Y_nu(x) by order band (|nu| in [0, 0.5],
within 2e-3 of an integer, [0.5, 2] and [2, 10], each sign) and by x
range (the series and Temme's series below 2, Steed's method in [2, 8)
and [8, knee), the Hankel expansion from the knee max(14, 3|nu|) to
1e3).  J and Y errors are
relative, except near a zero (where the oracle changes sign within
min(1/2, x/4) of x): there they are absolute over sqrt(2/(pi x)), the
functions' envelope.

Then Gamma (relative; the Lanczos half-plane and the reflection), zeta
(the Euler-Maclaurin half-plane, the critical strip and the reflection;
relative where |zeta| >= 1, absolute below, since zeta has zeros there),
Hurwitz zeta (the lambda sides' w = z + k and the divisor moments' real
w, over the a the verifiers reach, and complex a; relative to the larger
of |zeta(w, a)| and |a^(1-w)/(w-1)|, the size of its leading term, since
zeta(w, a) changes sign in a for Re w < 1) and Xi (along the Xi-pair
integrals' arguments (t +- iz)/2; absolute over |pi^(-s/2) Gamma(s/2+1)
(s-1)| at s = 1/2 + it, Xi's size with zeta taken as 1, since Xi has
zeros there), each region through one array call, or one per 8 points
sharing a Hurwitz w.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from mpmath import mp, mpc, mpf

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from koshliakov.kernels import _df_psi  # noqa: E402
from koshliakov.specfun import (bessel_j, bessel_k_scaled,  # noqa: E402
                                bessel_y, big_xi, exp_integral_e1_scaled,
                                exp_integral_ei_scaled, gamma, hurwitz_zeta,
                                riemann_zeta)

mp.dps = 30
_OVERFLOW = mpf("1e300")
POINTS = 400  # sample points per region
SEED = 0


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _worst(got, points, oracle, scale=None) -> dict:
    """Worst relative error of got[i] against oracle(points[i]), or its
    error over scale(points[i], reference) when scale is given; points
    where the oracle exceeds double range are skipped."""
    worst, at, used = 0.0, None, 0
    for value, point in zip(got, points):
        ref = oracle(point)
        if abs(ref) > _OVERFLOW:
            continue
        used += 1
        err = float(abs(mpc(complex(value)) - ref) / (abs(ref) if scale is None
                                                      else scale(point, ref)))
        if err >= worst:
            worst, at = err, point
    return {"points": used, "worst_rel_err": float(f"{worst:.3g}"),
            "at": [str(p) for p in np.atleast_1d(at)]}


def _k_scaled_oracle(nu, x):
    return mp.besselk(mpc(nu), mpc(x)) * mp.exp(mpc(x))


def _k_real_region(rng, nu_lo, nu_hi, x_lo, x_hi, n) -> dict:
    # One order per 8 points (each call shares its order), random signs.
    out = []
    for _ in range(max(n // 8, 1)):
        nu = float(rng.uniform(nu_lo, nu_hi)) * float(rng.choice([-1.0, 1.0]))
        xs = _log_uniform(rng, x_lo, x_hi, 8)
        got = bessel_k_scaled(nu, xs)
        out.append(_worst(got, [(nu, x) for x in xs],
                          lambda p: _k_scaled_oracle(*p)))
    worst = max(out, key=lambda r: r["worst_rel_err"])
    return {"points": sum(r["points"] for r in out),
            "worst_rel_err": worst["worst_rel_err"], "at": worst["at"]}


def _k_complex_order_regions(rng, lo: float, hi: float, n: int) -> dict:
    """n points of complex order (|Re nu| <= 2, lo <= |Im nu| <= hi, either
    sign) at real x in [0.1, 50], split at the switch x = 2."""
    band = f"|Im| <= {hi:g}" if lo == 0.0 else f"{lo:g} < |Im| <= {hi:g}"
    pts = []
    for _ in range(n):
        re, im = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        nu = complex(re, math.copysign(lo + (hi - lo) * abs(im), im))
        pts.append((nu, float(_log_uniform(rng, 0.1, 50.0, 1)[0])))
    regions = {}
    for name, side in (("[0.1, 2)", lambda x: x < 2.0), ("[2, 50]", lambda x: x >= 2.0)):
        sel = [p for p in pts if side(p[1])]
        regions[f"bessel_k complex nu (|Re| <= 2, {band}), x in {name}"] = _worst(
            [bessel_k_scaled(nu, x) for nu, x in sel], sel, lambda p: _k_scaled_oracle(*p))
    return regions


def _k_complex_argument_regions(near_axis_seed, complex_order_seed, n: int) -> dict:
    """n points each at x = r e^{i theta} of two more regions, each with its
    own generator: a real order in [-1, 1] near the imaginary axis
    (pi/4 < |theta| < pi/2, r in [1, 200]), and a complex order (|Re nu| <= 2,
    |Im nu| <= 5) at |theta| < pi/2, r in [0.1, 50], split at |x| = 2."""
    rng = np.random.default_rng(near_axis_seed)
    pts = [(float(rng.uniform(-1.0, 1.0)),
            complex(float(_log_uniform(rng, 1.0, 200.0, 1)[0])
                    * np.exp(1j * rng.choice([-1.0, 1.0]) * rng.uniform(math.pi / 4, math.pi / 2))))
           for _ in range(n)]
    regions = {"bessel_k real nu in [-1, 1], x = r e^{i theta}, r in [1, 200], "
               "pi/4 < |theta| < pi/2": _worst([bessel_k_scaled(nu, x) for nu, x in pts], pts,
                                               lambda p: _k_scaled_oracle(*p))}
    rng = np.random.default_rng(complex_order_seed)
    pts = [(complex(rng.uniform(-2.0, 2.0), rng.uniform(-5.0, 5.0)),
            complex(float(_log_uniform(rng, 0.1, 50.0, 1)[0])
                    * np.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2))))
           for _ in range(n)]
    for name, side in (("[0.1, 2)", lambda x: abs(x) < 2.0), ("[2, 50]", lambda x: abs(x) >= 2.0)):
        sel = [p for p in pts if side(p[1])]
        regions[f"bessel_k complex nu (|Re| <= 2, |Im| <= 5), x = r e^{{i theta}}, r in {name}, "
                "|theta| < pi/2"] = _worst([bessel_k_scaled(nu, x) for nu, x in sel], sel,
                                           lambda p: _k_scaled_oracle(*p))
    return regions


_JY = ((bessel_j, mp.besselj), (bessel_y, mp.bessely))


def _jy_regions(rng, draw, sign, x_range, n) -> list:
    """Worst errors of bessel_j and bessel_y over n points, 8 per order
    sign * draw(rng) (one array call each); x_range(nu) gives the order's
    x interval."""
    worst = [{"points": 0, "worst_rel_err": 0.0, "at": None} for _ in _JY]
    for _ in range(max(n // 8, 1)):
        nu = sign * draw(rng)
        xs = _log_uniform(rng, *x_range(nu), 8)
        for (fn, oracle), w in zip(_JY, worst):
            for value, x in zip(fn(nu, xs), xs):
                ref = oracle(nu, x)
                if abs(ref) > _OVERFLOW:
                    continue
                w["points"] += 1
                step = min(0.5, x / 4.0)
                scale = abs(ref)
                if oracle(nu, x - step) * oracle(nu, x + step) <= 0:
                    scale = max(scale, math.sqrt(2.0 / (math.pi * x)))
                err = float(abs(mpf(value) - ref) / scale)
                if err >= w["worst_rel_err"]:
                    w["worst_rel_err"], w["at"] = err, [str(nu), str(x)]
    for w in worst:
        w["worst_rel_err"] = float(f"{w['worst_rel_err']:.3g}")
    return worst


def _jy_build(rng, n: int) -> dict:
    def knee(nu):
        return max(14.0, 3.0 * abs(nu))

    def near_integer(r):
        # One order in four is the integer itself.
        return round(r.uniform(0.0, 10.0)) + (
            float(r.uniform(-2e-3, 2e-3)) if r.random() < 0.75 else 0.0)

    bands = (("[0, 0.5]", lambda r: float(r.uniform(0.0, 0.5))),
             ("within 2e-3 of an integer", near_integer),
             ("[0.5, 2]", lambda r: float(r.uniform(0.5, 2.0))),
             ("[2, 10]", lambda r: float(r.uniform(2.0, 10.0))))
    x_ranges = (("[1e-8, 2)", lambda nu: (1e-8, 2.0 - 1e-12)),
                ("[2, 8)", lambda nu: (2.0, 8.0 - 1e-12)),
                ("[8, knee)", lambda nu: (8.0, knee(nu) * (1.0 - 1e-12))),
                ("[knee, 1e3]", lambda nu: (knee(nu), 1e3)))
    regions = {}
    for band, draw in bands:
        for sign in (1.0, -1.0):
            for xname, x_range in x_ranges:
                where = f"{'+' if sign > 0 else '-'}nu, |nu| {band}, x in {xname}"
                regions[f"bessel_j {where}"], regions[f"bessel_y {where}"] = _jy_regions(
                    rng, draw, sign, x_range, n)
    return regions


def _uniform_complex(rng, re, im, n: int) -> np.ndarray:
    return rng.uniform(*re, n) + 1j * rng.uniform(*im, n)


def _gamma_zeta_xi_build(rng, n: int) -> dict:
    regions = {}
    for name, re in (("Re z in [0.5, 60]", (0.5, 60.0)), ("Re z in [-10, 0.5)", (-10.0, 0.5))):
        zs = _uniform_complex(rng, re, (-20.0, 20.0), n)
        zs = zs[np.abs(zs - np.round(zs.real)) > 1e-3]        # clear of the poles
        regions[f"gamma {name}, |Im z| <= 20"] = _worst(
            gamma(zs), zs, lambda z: mp.gamma(mpc(z)))

    def zeta_scale(s, ref):
        return max(abs(ref), 1)

    for name, re in (("Re s in [1.5, 10]", (1.5, 10.0)), ("Re s in [0, 1]", (0.0, 1.0)),
                     ("Re s in [-10, 0)", (-10.0, 0.0))):
        ss = _uniform_complex(rng, re, (-30.0, 30.0), n)
        regions[f"riemann_zeta {name}, |Im s| <= 30"] = _worst(
            riemann_zeta(ss), ss, lambda s: mp.zeta(mpc(s)), zeta_scale)

    def hz_oracle(p):
        # mpmath's own zeta(w, a) loses about w log10(a) digits at large w
        # and a, so the oracle is Euler-Maclaurin at 40 digits: 60 terms
        # direct, then 30 Bernoulli terms at A = a + 60.
        with mp.workdps(40):
            w, a = mpc(p[0]), mpc(p[1])
            big = a + 60
            out = mp.fsum((n + a) ** -w for n in range(60)) + big ** (1 - w) / (w - 1) + big ** -w / 2
            return out + mp.fsum(mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(w, 2 * k - 1)
                                 * big ** (-w - 2 * k + 1) for k in range(1, 31))

    def hz_scale(p, ref):
        w, a = mpc(p[0]), mpc(p[1])
        return max(abs(ref), abs(a ** (1 - w) / (w - 1)))

    def hz_region(draw_w, draw_a):
        got, pts = [], []
        for _ in range(max(n // 8, 1)):
            w, a = draw_w(), draw_a(8)
            got.extend(hurwitz_zeta(w, a))
            pts.extend((w, x) for x in a)
        return _worst(got, pts, hz_oracle, hz_scale)

    def strip_z():
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))
        return z if abs(z.real) > 1e-3 else z + 0.5

    regions["hurwitz_zeta w = z + k (0 < |Re z| < 1, |Im z| <= 1.5, k in {0, 1, 3, 5}), "
            "a in [0.25, 2000]"] = hz_region(
        lambda: strip_z() + float(rng.choice([0.0, 1.0, 3.0, 5.0])),
        lambda m: _log_uniform(rng, 0.25, 2000.0, m))
    regions["hurwitz_zeta w = 2j + 2 (+ z with |Re z| < 1), j in [0, 40], a in [1, 1000]"] = \
        hz_region(lambda: 2.0 * rng.integers(0, 41) + 2.0 + (
            strip_z() if rng.random() < 0.5 else 0.0),
            lambda m: _log_uniform(rng, 1.0, 1000.0, m))
    regions["hurwitz_zeta w in [-1, 4] + i[-5, 5], a = r e^{i theta}, r in [0.25, 50], "
            "|theta| <= pi/4"] = hz_region(
        lambda: complex(rng.uniform(-1.0, 4.0), rng.uniform(-5.0, 5.0)),
        lambda m: _log_uniform(rng, 0.25, 50.0, m) * np.exp(
            1j * rng.uniform(-math.pi / 4, math.pi / 4, m)))

    def xi_oracle(t):
        s = mpf("0.5") + 1j * mpc(t)
        return s * (s - 1) / 2 * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)

    def xi_scale(t, ref):
        s = mpf("0.5") + 1j * mpc(t)
        return abs(mp.pi ** (-s / 2) * mp.gamma(s / 2 + 1) * (s - 1))

    ts = 0.5 * (rng.uniform(0.0, 60.0, n) + 1j * rng.choice([-1.0, 1.0], n)
                * _uniform_complex(rng, (-1.0, 1.0), (-0.5, 0.5), n))
    regions["big_xi t = (u +- i z)/2, u in [0, 60], |Re z| < 1, |Im z| <= 0.5"] = _worst(
        big_xi(ts), ts, xi_oracle, xi_scale)
    return regions


def build(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    regions = {}
    bands = (("0-0.5", 0.0, 0.5), ("0.5-2", 0.5, 2.0),
             ("2-10", 2.0, 10.0), ("10-30", 10.0, 30.0))
    for band, nu_lo, nu_hi in bands:
        regions[f"bessel_k real |nu| {band}, x in [1e-8, 2)"] = _k_real_region(
            rng, nu_lo, nu_hi, 1e-8, 2.0 - 1e-12, n)
        regions[f"bessel_k real |nu| {band}, x in [2, 1e5]"] = _k_real_region(
            rng, nu_lo, nu_hi, 2.0, 1e5, n)

    regions.update(_k_complex_order_regions(rng, 0.0, 1.0, n))
    regions.update(_k_complex_order_regions(np.random.default_rng([seed, 1]), 1.0, 2.0, n))

    got, pts = [], []
    for _ in range(n):
        nu = float(rng.uniform(-1.0, 1.0))
        x = complex(float(_log_uniform(rng, 1.0, 200.0, 1)[0])
                    * np.exp(1j * rng.uniform(-math.pi / 4, math.pi / 4)))
        got.append(bessel_k_scaled(nu, x))
        pts.append((nu, x))
    regions["bessel_k real nu in [-1, 1], x = r e^{i theta}, r in [1, 200], "
            "|theta| <= pi/4"] = _worst(got, pts, lambda p: _k_scaled_oracle(*p))
    regions.update(_k_complex_argument_regions([seed, 2], [seed, 3], n))
    regions.update(_k_complex_order_regions(np.random.default_rng([seed, 4]), 2.0, 5.0, n))

    def e1_oracle(w):
        return mp.exp(mpf(w)) * mp.e1(mpf(w))

    def ei_oracle(y):
        return mp.exp(-mpf(y)) * mp.ei(mpf(y))

    def psi_oracle(t):
        w = 4 * mpf(t)
        return (2 / mp.pi) * (mp.exp(w) * mp.e1(w) - mp.exp(-w) * mp.ei(w))

    for name, fn, oracle, lo, mid, hi in (
            ("exp_integral_e1_scaled", exp_integral_e1_scaled, e1_oracle,
             1e-8, 1.0, 1e4),
            ("exp_integral_ei_scaled", exp_integral_ei_scaled, ei_oracle,
             1e-8, 50.0, 1e5),
            ("df_psi (t, with w = 4t)", _df_psi, psi_oracle,
             1e-8 / 4, 12.5, 1e5)):
        for a, b in ((lo, mid), (mid * (1.0 + 1e-12), hi)):
            xs = _log_uniform(rng, a, b, n)
            regions[f"{name} in [{a:.3g}, {b:.3g}]"] = _worst(fn(xs), xs, oracle)
    regions.update(_jy_build(rng, n))
    regions.update(_gamma_zeta_xi_build(rng, n))
    return regions


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(here, "accuracy_map.json"))
    args = ap.parse_args(argv)
    regions = build(POINTS, SEED)
    payload = {"generator": "tools/accuracy_map.py", "dps": mp.dps,
               "points_per_region": POINTS, "seed": SEED,
               "regions": regions}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    for name, r in regions.items():
        print(f"{r['worst_rel_err']:9.2e}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
