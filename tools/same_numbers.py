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
two Omega sweeps over the whole alpha range [1/4, 4], three k-bessel
`pair-reciprocity` cases whose psi(x) is far below the transform's
absolute accuracy, five verifies of the modular checks, the Dixon-Ferrar
pair, the z = 0 Theta series and complex-order K off their defaults,
three verifies that reach Bessel J and Y below the Hankel knee off the
defaults, and `list`, whose `tol` column both this tool and the
benchmark read: 51 commands in all.

One line per command: `identical` when the exit code and stdout match
byte for byte.  Otherwise the line gives both exit codes and the largest
move of lhs or rhs in units of the budget sum (the sum of a report's
non-`_diff` budgets, the resolution it claims), the larger of the OLD
and the NEW report's: a change that adds a bound the old report lacked
is judged with it.  A sweep CSV carries no budgets, so for a sweep whose
CSV differs both trees run `verify` at every row's alpha, all rows in
one process per tree, to supply them;
the line also counts rows whose status changed, a row failing when it
is `nan` or its diff misses the identity's tolerance (as `verify` judges
it).  Any other command that differs is reported as `differs`.  The exit
status is 0 when every command is identical, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

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
    # The one grid identity without a benchmark sweep, and verifies off the
    # defaults: the divisor-K series at both ends of the alpha range, the
    # oscillatory tails at other x and z.
    ("sweep", "hurwitz-corollary-z0", *_XI_GRID),
    ("verify", "hurwitz-corollary-z0", "--alpha=0.25"),
    ("verify", "hurwitz-corollary-z0", "--alpha=4", "--terms=200"),
    ("verify", "bessel-hurwitz-sum", "--alpha=0.25"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=0.25"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=4"),
    ("verify", "omega-self-reciprocal", "--z=-0.6", "--x=2"),
    # Omega sweeps over the full alpha range: the columns' tail rates differ
    # by 16x, so the smallest-rate tail is compared where it is widest.
    ("sweep", "omega-modular", *_FULL_GRID, "--z=-0.6"),
    ("sweep", "omega-laplace", *_FULL_GRID, "--z=0.3+0.2i"),
    # k-bessel pairs with psi(x) far below 1e-11.
    ("verify", "pair-reciprocity", "--pair-alpha=0.25", "--x=5", "--z=0.3"),
    ("verify", "pair-reciprocity", "--pair-alpha=0.25", "--x=2", "--z=-0.4"),
    ("verify", "pair-reciprocity", "--pair-alpha=0.5", "--x=5", "--z=0"),
    # The modular checks at an alpha end and complex z, the Dixon-Ferrar
    # pair at small x, the z = 0 Theta series at its smallest term count
    # (an honest failure), and complex-order K under the Mellin integral.
    ("verify", "rg-formula", "--z=0.3+0.2i", "--alpha=0.25"),
    ("verify", "hurwitz-modular", "--z=-0.4+0.3i", "--alpha=4"),
    ("verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=0.01"),
    ("verify", "rg-corollary-z0", "--alpha=0.25", "--terms=1"),
    ("verify", "mellin-k", "--s=6", "--nu=5+2i"),
    # Bessel J and Y below the Hankel knee at other orders and arguments:
    # a negative order, the transform kernel at z = 0.3, J_0 under Omega.
    ("verify", "laplace-bessel", "--alpha=0.5", "--y=0.5", "--z=-0.5"),
    ("verify", "pair-reciprocity", "--z=0.3"),
    ("verify", "omega-self-reciprocal", "--z=0", "--x=0.5"),
    ("list",),
)

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


def _run(src: str, args: list, stdin: str | None = None):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _cli(src: str, argv) -> tuple:
    return _run(src, ["-m", "koshliakov.cli", *argv])


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
            else:
                verdict = "differs"
        print(f"{' '.join(cmd)}: {verdict}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
