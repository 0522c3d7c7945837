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

Covered: exp(x) K_nu(x) on the real path (order bands by |nu|, x below
and above the switch at 2) and on the tanh-sinh path (complex order,
complex argument); e^w E1(w); e^{-y} Ei(y); the Dixon-Ferrar psi.
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
from koshliakov.specfun import (bessel_k_scaled,  # noqa: E402
                                exp_integral_e1_scaled,
                                exp_integral_ei_scaled)

mp.dps = 30
_OVERFLOW = mpf("1e300")
POINTS = 400  # sample points per region
SEED = 0


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _worst(got, points, oracle) -> dict:
    """Worst relative error of got[i] against oracle(points[i]); points
    where the oracle exceeds double range are skipped."""
    worst, at, used = 0.0, None, 0
    for value, point in zip(got, points):
        ref = oracle(point)
        if abs(ref) > _OVERFLOW:
            continue
        used += 1
        err = float(abs(mpc(complex(value)) - ref) / abs(ref))
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

    got, pts = [], []
    for _ in range(n):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        x = float(_log_uniform(rng, 0.1, 50.0, 1)[0])
        got.append(bessel_k_scaled(nu, x))
        pts.append((nu, x))
    regions["bessel_k complex nu (|Re| <= 2, |Im| <= 1), x in [0.1, 50]"] = _worst(
        got, pts, lambda p: _k_scaled_oracle(*p))

    got, pts = [], []
    for _ in range(n):
        nu = float(rng.uniform(-1.0, 1.0))
        x = complex(float(_log_uniform(rng, 1.0, 200.0, 1)[0])
                    * np.exp(1j * rng.uniform(-math.pi / 4, math.pi / 4)))
        got.append(bessel_k_scaled(nu, x))
        pts.append((nu, x))
    regions["bessel_k real nu in [-1, 1], x = r e^{i theta}, r in [1, 200], "
            "|theta| <= pi/4"] = _worst(got, pts, lambda p: _k_scaled_oracle(*p))

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
