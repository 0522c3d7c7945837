#!/usr/bin/env python3
"""Compare the numbers that two source trees print for a fixed command list.

    python tools/same_numbers.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `koshliakov` package
(a checkout's `src`).  Every command runs as a cold
`python -m koshliakov.cli ...` child, once with PYTHONPATH=OLD_SRC and
once with PYTHONPATH=NEW_SRC.  The commands are the benchmark's seed-0
jobs, written out here: the 16 `verify-cold` commands, the 7 `sweep-xi`
sweeps (61 alpha rows each) and the 5 `sweep-omega` sweeps (11 rows
each).  Then come `hurwitz-modular` and `rg-formula` sweeps at complex z
and a `hurwitz-corollary-z0` sweep over the `sweep-xi` grid, six verifies off the defaults that reach the divisor-K series at
the ends of the alpha range and the oscillatory tails at other x and z,
two Omega sweeps and three of `laplace-bessel` and `bessel-hurwitz-sum`
(real and complex z) over the whole alpha range [1/4, 4], three k-bessel
`pair-reciprocity` cases whose psi(x) is far below the transform's
absolute accuracy, five verifies of the modular checks, the Dixon-Ferrar
pair, the z = 0 Theta series and complex-order K off their defaults,
three verifies that reach Bessel J and Y below the Hankel knee off the
defaults, the removable singularities at z = 0 and near it (a verify
each of `rg-formula`, `hurwitz-modular` and `omega-modular`, and `eval
lambda` at z = 0), `eval li` at four points that reach the E1
continued fraction, the E1 series and the Ei series, `eval omega` on
both sides of its switch from partial fractions to the definition at
x = 1/4, and `list`, whose `tol` column both this tool and the benchmark
read.  Then come the one z strip |Re z| < 1 and the one alpha rule:
`rg-corollary` at z = 0 (its own report, no longer `rg-corollary-z0`'s),
the Hurwitz identities at z = 0, on the line Re z = 0 and at Re z < 0,
an `omega-laplace` sweep at z = -0.6, and an alpha outside [1/4, 4] in
`verify laplace-bessel` and in a sweep's grid (exit 3, as in `verify`),
`mellin-k` where its integrand peaks past x = 2, and a `mellin-k` and a
`laplace-bessel` report whose abs_diff only the sides' rounding charge
covers.  Then the input rules, each said once: complex z refused by the
three J-kernel identities (J and Y take a real order only), an x the
pair transform refuses, Omega outside its strip |Re z| < 1, and a
complex literal with a leading dot.  Then J and Y at orders 20.5 and
-30 between 3|nu| and nu^2/4, a sweep over a degenerate grid (alpha-min =
alpha-max), and the pair inputs that the one z rule refuses: |Re z| >= 1/2,
complex z, and z other than 0 for the Dixon-Ferrar pair, and the
divisor-K series at the strip and alpha edges (`bessel-hurwitz-sum` at
z = -0.95 and 0.5+3i with alpha = 1/4 and at z = -0.99 with alpha = 4,
`hurwitz-corollary-z0` at alpha = 0.6).  Then the derived tail
certificates: `mellin-k` at two large orders whose integrand peaks past
the head, a k-bessel `pair-reciprocity` at x = 0.05, where the kernel
bound's argument is small, and `omega-laplace` at the first zeta zero,
where the Omega majorant carries the weight's bound.  Last, one sweep
writes --out and --svg into a temp dir per tree, and its CSV and SVG
bytes are compared with its exit code and stdout: 102 commands in all.

Then come five bit probes, one per special function that every identity
runs through: `bessel_k_scaled`, `bessel_k`, `riemann_zeta`, `zeta_star`
and `xi`.  A child per tree hashes (sha256) each function's values over a
fixed probe set, array and scalar calls alike, and a refusal's message in
place of a value.  K takes real and complex orders (|Im nu| up to 5, both
signs of Re nu) at real, complex and mixed argument arrays and at scalars,
with |arg x| up to 1.5, so Im nu arg x < -pi/2 is reached; zeta, zeta* and
xi take points left and right of Re s = 1/2 and within 0.01 of s = 0 and
s = 1.  These are the gate for a change that must keep the bits of a
special function.

One line per command and per bit probe: `identical` when the exit code
and stdout (the probe's hash) match byte for byte.  Otherwise the line gives both exit codes and the largest
move of lhs or rhs in units of the budget sum (the sum of a report's
non-`_diff` budgets, the resolution it claims), the larger of the OLD
and the NEW report's: a change that adds a bound the old report lacked
is judged with it.  A sweep CSV carries no budgets, so for a sweep whose
CSV differs both trees run `verify` at every row's alpha, all rows in
one process per tree, to supply them;
the line also counts rows whose status changed, a row failing when it
is `nan` or its diff misses the identity's tolerance (as `verify` judges
it).  An `eval` that differs gives both exit codes and the relative move
of its value.  The sweep that writes files names the parts that differ
(exit code, stdout, CSV, SVG).  Any other command or probe that differs is
reported as `differs`.  The exit status is 0 when every command and every probe is
identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

_XI_GRID = ("--alpha-min=0.2500", "--alpha-max=4.0000", "--steps=61")
_OMEGA_GRID = ("--alpha-min=0.5000", "--alpha-max=2.0000", "--steps=11")
_FULL_GRID = ("--alpha-min=0.25", "--alpha-max=4", "--steps=11")

COMMANDS = (
    # verify-cold: every identity at CLI defaults, then three extra paths.
    *(("verify", name) for name in (
        "rg-corollary", "rg-corollary-z0", "rg-formula", "hurwitz-corollary",
        "hurwitz-corollary-z0", "hurwitz-modular", "mellin-k",
        "laplace-bessel", "omega-self-reciprocal", "omega-modular",
        "omega-laplace", "bessel-hurwitz-sum", "pair-reciprocity")),
    ("verify", "bessel-hurwitz-sum", "--z=0.3+0.2i"),
    ("verify", "mellin-k", "--s=2.5", "--nu=0.3+0.5i"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0"),
    # sweep-xi
    ("sweep", "rg-corollary", *_XI_GRID, "--z=0.5"),
    ("sweep", "rg-corollary", *_XI_GRID, "--z=0.3+0.2i"),
    ("sweep", "rg-corollary-z0", *_XI_GRID),
    ("sweep", "hurwitz-corollary", *_XI_GRID, "--z=0.5"),
    ("sweep", "hurwitz-corollary", *_XI_GRID, "--z=-0.4+0.3i"),
    ("sweep", "rg-formula", *_XI_GRID),
    ("sweep", "hurwitz-modular", *_XI_GRID),
    # sweep-omega
    ("sweep", "omega-modular", *_OMEGA_GRID, "--z=0.5"),
    ("sweep", "omega-modular", *_OMEGA_GRID, "--z=0"),
    ("sweep", "omega-modular", *_OMEGA_GRID, "--z=-0.6"),
    ("sweep", "omega-laplace", *_OMEGA_GRID, "--z=0.5"),
    ("sweep", "omega-laplace", *_OMEGA_GRID, "--z=0.3+0.2i"),
    # hurwitz-modular at complex z: its lambda sides are one call over the
    # alphas and their reciprocals.
    ("sweep", "hurwitz-modular", *_XI_GRID, "--z=-0.4+0.3i"),
    # rg-formula at complex z: f_frak is one call over the alphas and their
    # reciprocals, with K at the complex order z/2.
    ("sweep", "rg-formula", *_XI_GRID, "--z=0.3+0.2i"),
    # A grid identity without a benchmark sweep, and verifies off the
    # defaults: the divisor-K series at both ends of the alpha range, the
    # oscillatory tails at other x and z.
    ("sweep", "hurwitz-corollary-z0", *_XI_GRID),
    ("verify", "hurwitz-corollary-z0", "--alpha=0.25"),
    ("verify", "hurwitz-corollary-z0", "--alpha=4"),
    ("verify", "bessel-hurwitz-sum", "--alpha=0.25"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=0.25"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=4"),
    ("verify", "omega-self-reciprocal", "--z=-0.6", "--x=2"),
    # Omega sweeps over the full alpha range: the columns' tail rates differ
    # by 16x, so the smallest-rate tail is compared where it is widest.
    ("sweep", "omega-modular", *_FULL_GRID, "--z=-0.6"),
    ("sweep", "omega-laplace", *_FULL_GRID, "--z=0.3+0.2i"),
    # The grids whose rows share one half-line integral with a column per
    # alpha: the Laplace J_z integral and the divisor-K series.
    ("sweep", "laplace-bessel", *_FULL_GRID),
    ("sweep", "bessel-hurwitz-sum", *_FULL_GRID),
    ("sweep", "bessel-hurwitz-sum", *_FULL_GRID, "--z=0.3+0.2i"),
    # k-bessel pairs with psi(x) far below 1e-11.
    ("verify", "pair-reciprocity", "--pair-alpha=0.25", "--x=5", "--z=0.3"),
    ("verify", "pair-reciprocity", "--pair-alpha=0.25", "--x=2", "--z=-0.4"),
    ("verify", "pair-reciprocity", "--pair-alpha=0.5", "--x=5", "--z=0"),
    # The modular checks at an alpha end and complex z, the Dixon-Ferrar
    # pair at small x, the z = 0 Theta series at the alpha end where its
    # K terms decay slowest, and complex-order K under the Mellin integral.
    ("verify", "rg-formula", "--z=0.3+0.2i", "--alpha=0.25"),
    ("verify", "hurwitz-modular", "--z=-0.4+0.3i", "--alpha=4"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=0.01"),
    ("verify", "rg-corollary-z0", "--alpha=0.25"),
    ("verify", "mellin-k", "--s=6", "--nu=5+2i"),
    # Bessel J and Y below the Hankel knee at other orders and arguments:
    # a negative order, the transform kernel at z = 0.3, J_0 under Omega.
    ("verify", "laplace-bessel", "--alpha=0.5", "--y=0.5", "--z=-0.5"),
    ("verify", "pair-reciprocity", "--z=0.3"),
    ("verify", "omega-self-reciprocal", "--z=0", "--x=0.5"),
    # z = 0 and near it, where the pole pairs are limits.
    ("verify", "rg-formula", "--z=1e-6"),
    ("verify", "hurwitz-modular", "--z=5e-5"),
    ("verify", "omega-modular", "--z=0"),
    ("eval", "lambda", "--x=2", "--z=0"),
    # li(x) = Ei(log x): at x = 0.1 the E1 continued fraction (Ei(-2.3)),
    # at 0.5 the E1 series (Ei(-0.69)), at 2 and 1e10 the Ei series.
    *(("eval", "li", f"--x={x}") for x in ("0.1", "0.5", "2", "1e10")),
    # Omega by partial fractions at x = 0.1, by its definition from x = 1/4
    # up, where it decays to about 1e-23 at x = 30.
    *(("eval", "omega", f"--x={x}", "--z=0.5") for x in ("0.1", "1", "10", "30")),
    ("eval", "omega", "--x=5", "--z=0.3+0.2i"),
    ("list",),
    # One z strip |Re z| < 1 with no z = 0 redirect, and alpha checked by
    # the verifiers alone.
    ("verify", "rg-corollary", "--z=0"),
    ("verify", "hurwitz-corollary", "--z=0"),
    ("verify", "hurwitz-modular", "--z=0.4i", "--alpha=3"),
    ("verify", "bessel-hurwitz-sum", "--z=-0.5+0.2i"),
    ("sweep", "omega-laplace", *_OMEGA_GRID, "--z=-0.6"),
    ("verify", "laplace-bessel", "--alpha=10"),
    ("sweep", "rg-formula", "--alpha-min=0.1", "--alpha-max=2", "--steps=3"),
    # mellin-k where x^{s-1} K_nu(q x) peaks past x = 2.
    ("verify", "mellin-k", "--s=6"),
    ("verify", "mellin-k", "--s=5", "--q=0.4"),
    ("verify", "mellin-k", "--s=4", "--q=0.5"),
    ("verify", "mellin-k", "--s=4.5", "--nu=1.7", "--q=0.5"),
    # Sides that round past a tight quadrature error: eval_err covers them.
    ("verify", "mellin-k", "--s=2.83", "--nu=-2.71", "--q=0.1272"),
    ("verify", "laplace-bessel", "--z=-0.23", "--alpha=3.72", "--y=1.29"),
    # Each input rule said once: the real-order rule of J and Y, the pair
    # transform's checks, Omega's strip, the complex literal.
    ("verify", "laplace-bessel", "--z=0.3+0.2i"),
    ("verify", "omega-self-reciprocal", "--z=0.3+0.2i"),
    ("verify", "pair-reciprocity", "--z=0.1+0.1i"),
    ("verify", "pair-reciprocity", "--x=-1"),
    ("eval", "omega", "--z=1.5"),
    ("eval", "gamma", "--s=-.5-.5i"),
    # J and Y at large orders between 3|nu| and nu^2/4, below the Hankel knee.
    ("eval", "bessel-j", "--nu=20.5", "--x=70"),
    ("eval", "bessel-y", "--nu=-30", "--x=100"),
    # A degenerate grid: tied alphas keep grid order.
    ("sweep", "rg-formula", "--alpha-min=1", "--alpha-max=1", "--steps=3"),
    # One z rule per pair: the transform's, narrowed to z = 0 by the
    # Dixon-Ferrar pair's own functions.
    ("verify", "pair-reciprocity", "--z=0.7"),
    ("verify", "pair-reciprocity", "--z=0.7+0.1i"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0.25"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=1e-13"),
    # The divisor-K series at the strip and alpha edges: its n-sum runs
    # to infinity once per node through the tail moments.
    ("verify", "bessel-hurwitz-sum", "--z=-0.95", "--alpha=0.25"),
    ("verify", "bessel-hurwitz-sum", "--z=0.5+3i", "--alpha=0.25"),
    ("verify", "bessel-hurwitz-sum", "--z=-0.99", "--alpha=4"),
    ("verify", "hurwitz-corollary-z0", "--alpha=0.6"),
    # Tail certificates derived from each integrand: K at large order past
    # the head, the transform kernel's bound at a small argument, and the
    # Omega majorant where |zeta(z)| is near 0.
    ("verify", "mellin-k", "--s=25", "--nu=20", "--q=3"),
    ("verify", "mellin-k", "--s=31", "--nu=30", "--q=20"),
    ("verify", "pair-reciprocity", "--x=0.05", "--z=0.3"),
    ("verify", "omega-laplace", "--z=0.5+14.1347i"),
)

# A sweep that writes --out and --svg, into a temp dir per tree; its exit
# code, stdout, CSV and SVG are compared byte for byte.
FILE_SWEEP = ("sweep", "rg-formula", "--alpha-min=0.5", "--alpha-max=2", "--steps=5")

# Reads a JSON list of argv lists on stdin and prints, per argv, the
# report `verify` printed, or null when it printed none.
_ROWS_CHILD = """
import contextlib, io, json, sys
from koshliakov.cli import main
for argv in json.loads(sys.stdin.read()):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    print(buf.getvalue().strip() or "null")
"""

# Prints one line per probed function: its name and the sha256 of its
# values over the probe set (see the module docstring).
_BITS_CHILD = """
import hashlib
import numpy as np
from koshliakov import specfun
np.seterr(all="ignore")

def digest(fn, calls):
    h = hashlib.sha256()
    for args in calls:
        try:
            h.update(np.asarray(fn(*args), dtype=complex).tobytes())
        except Exception as exc:
            h.update(repr(exc).encode())
    return h.hexdigest()

real_orders = [-30.0, -12.4, -2.7, -1.0, -0.5, -0.3, 0.0, 1e-9, 0.3, 0.5, 1.0, 1.5,
               2.7, 4.2, 12.4, 29.9, 30.0, 30.5]
complex_orders = [complex(re, im) for re in (-7.3, -0.4, 0.0, 0.25, 1.6, 14.8, 25.5)
                  for im in (-5.0, -2.6, -0.7, 0.9, 1.3, 4.2)]
xr = np.geomspace(1e-3, 60.0, 37)
xc = xr * np.exp(1j * np.linspace(-1.5, 1.5, 37))
xm = np.where(np.arange(37) % 2 == 0, xr, xc)
k_args = (xr, xc, xm, xr.astype(complex), 0.3, 2.0, 25.0, 2.0 + 0j, 0.4 + 0.9j, 3.0 - 2.9j)
k_calls = [(nu, x) for nu in real_orders + complex_orders for x in k_args]
for fn in (specfun.bessel_k_scaled, specfun.bessel_k):
    print(fn.__name__, digest(fn, k_calls))

s = [complex(re, im) for re in (-12.5, -3.2, -0.7, 0.2, 0.49, 0.5, 0.51, 0.8, 1.6, 3.5, 9.0)
     for im in (0.0, 0.3, -5.7, 14.1, 40.0)]
s += [0.0, 0.004, -0.007j, 0.003 + 0.005j, -0.0099, 1.004, 0.995, 1.0 + 0.006j,
      0.997 - 0.004j, 1.0 - 0.0099j]
z_calls = [(np.array(s),), *((p,) for p in s)]
for fn in (specfun.riemann_zeta, specfun.zeta_star, specfun.xi):
    print(fn.__name__, digest(fn, z_calls))
"""


def _run(src: str, args: list, stdin: str | None = None):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _cli(src: str, argv) -> tuple:
    return _run(src, ["-m", "koshliakov.cli", *argv])


def _files(src: str, argv) -> dict:
    """Exit code, stdout and the CSV and SVG bytes (None if not written)
    of a sweep run with --out and --svg in a temp dir."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"CSV": os.path.join(tmp, "sweep.csv"), "SVG": os.path.join(tmp, "sweep.svg")}
        rc, out = _cli(src, [*argv, f"--out={paths['CSV']}", f"--svg={paths['SVG']}"])
        got = {"exit code": rc, "stdout": out}
        for name, path in paths.items():
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    got[name] = fh.read()
            else:
                got[name] = None
        return got


def _tolerances(src: str) -> dict:
    tols = {}
    for line in _cli(src, ["list"])[1].splitlines():
        words = line.split()
        tols[words[0]] = float(words[words.index("tol") + 1])
    return tols


def _budget_sum(report: dict) -> float:
    return sum(v for k, v in report["budgets"].items() if not k.endswith("_diff"))


def _move(old: tuple, new: tuple, budget: float) -> float:
    """Largest of |lhs change|, |rhs change| over the budget sum; old and
    new are (lhs, rhs) pairs of complex numbers."""
    step = max(abs(new[0] - old[0]), abs(new[1] - old[1]))
    return step / budget if budget > 0.0 else math.inf


def _sides(report: dict) -> tuple:
    return complex(*report["lhs"]), complex(*report["rhs"])


def compare_verify(old, new) -> str:
    (old_rc, old_out), (new_rc, new_out) = old, new
    text = f"exit {old_rc} -> {new_rc}"
    if not (old_out.strip() and new_out.strip()):
        return text
    a, b = json.loads(old_out), json.loads(new_out)
    move = _move(_sides(a), _sides(b), max(_budget_sum(a), _budget_sum(b)))
    return f"{text}, pass {a['pass']} -> {b['pass']}, moved {move:.3g} budget sums"


def compare_eval(old, new) -> str:
    (old_rc, old_out), (new_rc, new_out) = old, new
    text = f"exit {old_rc} -> {new_rc}"
    if not (old_out.strip() and new_out.strip()):
        return text
    a, b = (complex(*map(float, out.split())) for out in (old_out, new_out))
    return f"{text}, moved {abs(b - a) / max(abs(a), 1e-300):.3g} relative"


def _csv_rows(text: str) -> list:
    rows = []
    for line in text.strip().splitlines()[1:]:
        alpha_text, *vals = line.split(",")
        v = [float(x) for x in vals]
        rows.append((alpha_text, complex(v[0], v[1]), complex(v[2], v[3]), v[4], v[5]))
    return rows


def _row_ok(row, tol: float) -> bool:
    _, lhs, rhs, abs_diff, rel_diff = row
    if math.isnan(abs_diff):
        return False
    return abs_diff <= tol if abs(rhs) < 1e-3 else rel_diff <= tol


def compare_sweep(argv, old, new, srcs: tuple, tols: tuple) -> str:
    (old_rc, old_out), (new_rc, new_out) = old, new
    a, b = _csv_rows(old_out), _csv_rows(new_out)
    text = f"exit {old_rc} -> {new_rc}"
    if [r[0] for r in a] != [r[0] for r in b]:
        return f"{text}, alpha grids differ"
    identity = argv[1]
    fixed = [f for f in argv[2:] if not f.startswith(("--alpha-", "--steps"))]
    rows = json.dumps([["verify", identity, f"--alpha={r[0]}", *fixed] for r in a])
    old_reports, new_reports = (_run(src, ["-c", _ROWS_CHILD], rows)[1].splitlines()
                                for src in srcs)
    status = 0
    worst, worst_alpha = 0.0, None
    for ra, rb, line_a, line_b in zip(a, b, old_reports, new_reports):
        if _row_ok(ra, tols[0][identity]) != _row_ok(rb, tols[1][identity]):
            status += 1
        ref_a, ref_b = json.loads(line_a), json.loads(line_b)
        if ref_a is None or ref_b is None or math.isnan(ra[3]) or math.isnan(rb[3]):
            continue
        move = _move(ra[1:3], rb[1:3], max(_budget_sum(ref_a), _budget_sum(ref_b)))
        if move >= worst:
            worst, worst_alpha = move, ra[0]
    return (f"{text}, {len(a)} rows, {status} changed status, largest move "
            f"{worst:.3g} budget sums (alpha={worst_alpha})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    tols = (_tolerances(args.old_src), _tolerances(args.new_src))
    differ = 0
    for cmd in COMMANDS:
        old, new = _cli(args.old_src, cmd), _cli(args.new_src, cmd)
        if old == new:
            verdict = "identical"
        else:
            differ += 1
            if cmd[0] == "sweep":
                verdict = compare_sweep(cmd, old, new,
                                        (args.old_src, args.new_src), tols)
            elif cmd[0] == "verify":
                verdict = compare_verify(old, new)
            elif cmd[0] == "eval":
                verdict = compare_eval(old, new)
            else:
                verdict = "differs"
        print(f"{' '.join(cmd)}: {verdict}", flush=True)
    old, new = (_files(src, FILE_SWEEP) for src in (args.old_src, args.new_src))
    parts = [part for part in old if old[part] != new[part]]
    differ += bool(parts)
    print(f"{' '.join(FILE_SWEEP)} --out --svg: "
          f"{'differs in ' + ', '.join(parts) if parts else 'identical'}", flush=True)
    print(f"{len(COMMANDS) + 1 - differ} of {len(COMMANDS) + 1} commands identical")
    old_bits, new_bits = (_run(src, ["-c", _BITS_CHILD])[1].splitlines()
                          for src in (args.old_src, args.new_src))
    bits_differ = 0
    for old_line, new_line in zip(old_bits, new_bits):
        bits_differ += old_line != new_line
        verdict = "identical" if old_line == new_line else "differs"
        print(f"bits {old_line.split()[0]}: {verdict}", flush=True)
    if len(old_bits) != 5 or len(new_bits) != 5:
        print("bits: a probe child failed")
        bits_differ += 1
    return 1 if differ or bits_differ else 0


if __name__ == "__main__":
    sys.exit(main())
