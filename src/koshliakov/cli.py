"""Command-line front end.

Subcommands: `verify` runs one identity check and prints a JSON report,
`sweep` tabulates an identity over an alpha grid into CSV (optionally an
SVG chart), `eval` evaluates a single special function, and `list` shows
the registered identities.

Exit codes: 0 pass, 2 verification failure (in `sweep`, only a
convergence failure in the work its rows share, which writes every row
as nan: a row that misses its tolerance leaves the exit code alone), 3
domain/convergence error (in `sweep` too for an input error, with the
message `verify` prints: an alpha grid outside [1/4, 4] is one), 64
usage error (a nan or inf float or complex flag, a sweep grid of fewer
than 2 steps or with alpha-min > alpha-max, a sweep --out or --svg path
that cannot be written, among others).  A sweep grid ends exactly at
alpha-max.  Complex flags take Python's complex literal with
i (or I) for j, such as `0.5+0.25i`, `-i` or `1e-3i`; spaces are dropped.

Each parameter flag's kind and default come from the callable it feeds:
the verifiers' signatures (IDENTITIES) for verify and sweep, _EVAL for
eval.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import math
import os
import sys
from typing import NoReturn

from . import arith, kernels, specfun
from .errors import ConvergenceError, DecayError, KoshliakovError
from .identities import IDENTITIES
from .reporting import csv_lines, report_json, write_csv, write_svg

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64


def parse_complex_literal(text: str) -> complex:
    """`0.5`, `-0.3`, `0.5+0.25i`, `1e-3i`, `i`: Python's complex literal
    with i (or I) for j, spaces ignored."""
    s = text.strip().replace(" ", "")
    if not s.endswith(("i", "I")):
        return complex(float(s), 0.0)
    return complex(s[:-1] + "j")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for
    # verification failures and uses 64 for usage problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(parse):
    """parse, rejecting nan and inf, which no identity or function takes."""
    def parsed(text):
        value = parse(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value
    parsed.__name__ = parse.__name__     # argparse's "invalid <name> value"
    return parsed


# The parser of each default's type, widest first: a flag parses as the
# widest type among the defaults of the parameters it sets.
_PARSERS = {str: str, complex: _finite(parse_complex_literal), float: _finite(float),
            int: int}


def _add_param_flags(parser: argparse.ArgumentParser, defaults, skip: tuple = ()) -> None:
    """One flag per parameter named in the dicts of defaults."""
    types: dict = {}
    for table in defaults:
        for name, default in table.items():
            types.setdefault(name, set()).add(type(default))
    params = tuple(name for name in types if name not in skip)
    for name in params:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                            type=next(_PARSERS[t] for t in _PARSERS if t in types[name]))
    parser.set_defaults(params=params)


def _resolve_args(defaults: dict, args, what: str) -> dict:
    """The value of each parameter named in defaults, its default where the
    flag is not given, for the identity or function getattr(args, what).
    A parameter flag given that defaults lacks is a usage error, and so is
    an imaginary part for a parameter whose default is a float."""
    extraneous = [flag for flag in args.params
                  if getattr(args, flag) is not None and flag not in defaults]
    if extraneous:
        raise _UsageError(
            f"parameter(s) {', '.join('--' + e for e in extraneous)} do not "
            f"apply; this {what} takes ({', '.join(defaults)})")
    values = {}
    for param, default in defaults.items():
        given = getattr(args, param, None)
        if given is None:
            given = default
        elif isinstance(default, float) and isinstance(given, complex):
            if given.imag != 0.0:
                raise _UsageError(f"--{param} must be real for {getattr(args, what)}")
            given = given.real
        values[param] = given
    return values


class _UsageError(Exception):
    pass


def _identity(args):
    """The registry entry that verify and sweep name, its arguments and
    its tolerance (the identity's own unless --tolerance is given, which
    must be finite and positive)."""
    entry = IDENTITIES.get(args.identity)
    if entry is None:
        raise _UsageError(f"unknown identity '{args.identity}'; "
                          f"known: {', '.join(sorted(IDENTITIES))}")
    named = _resolve_args(entry.defaults, args, "identity")
    tol = entry.tolerance if args.tolerance is None else args.tolerance
    if not (math.isfinite(tol) and tol > 0.0):
        raise _UsageError(f"tolerance must be finite and positive, got {tol}")
    return entry, named, tol


def _alpha_grid(alpha_min: float, alpha_max: float, steps: int) -> list[float]:
    """steps equally spaced alphas from alpha_min to alpha_max, each capped
    there against rounding; the verifier, as in verify, judges their domain."""
    if steps < 2:
        raise _UsageError("steps must be >= 2")
    if not alpha_min <= alpha_max:
        raise _UsageError("alpha-min must not exceed alpha-max")
    h = (alpha_max - alpha_min) / (steps - 1)
    return [min(alpha_min + i * h, alpha_max) for i in range(steps)]


def cmd_verify(args) -> int:
    entry, named, tol = _identity(args)
    report = entry.verify(named, tol)
    print(report_json(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_sweep(args) -> int:
    entry, named, tol = _identity(args)
    if "alpha" not in entry.arg_names:
        raise _UsageError(f"identity '{args.identity}' has no alpha "
                          "parameter to sweep")
    grid = _alpha_grid(args.alpha_min, args.alpha_max, args.steps)
    try:
        reports, code = entry.verify({**named, "alpha": grid}, tol), EXIT_PASS
    except (ConvergenceError, DecayError) as exc:
        # Work shared by every row failed, so no row has a value.  Any
        # other error is an input error, and exits 3 as in verify.
        print(f"alpha={grid[0]:.6g}..{grid[-1]:.6g}: {exc}", file=sys.stderr)
        reports, code = [None] * len(grid), EXIT_FAIL
    # The files first, so a path that cannot be written leaves stdout empty.
    for path, write, rest in ((args.out, write_csv, ()), (args.svg, write_svg, (args.identity,))):
        if path:
            try:
                write(path, grid, reports, *rest)
            except OSError as exc:
                raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    if not args.out:
        print("\n".join(csv_lines(grid, reports)))
    return code


# eval's functions: name -> (function, the defaults of its arguments in
# call order).  A float default makes the argument real: its flag refuses
# an imaginary part for that function.
_EVAL = {
    "gamma": (specfun.gamma, {"s": 2 + 0j}),
    "zeta": (specfun.riemann_zeta, {"s": 2 + 0j}),
    "hurwitz": (specfun.hurwitz_zeta, {"s": 2 + 0j, "a": 1 + 0j}),
    "digamma": (specfun.digamma, {"s": 2 + 0j}),
    "xi": (specfun.xi, {"s": 2 + 0j}),
    "big-xi": (specfun.big_xi, {"t": 0j}),
    "bessel-j": (specfun.bessel_j, {"nu": 0.0, "x": 1.0}),
    "bessel-y": (specfun.bessel_y, {"nu": 0.0, "x": 1.0}),
    "bessel-k": (specfun.bessel_k, {"nu": 0j, "x": 1 + 0j}),
    "li": (specfun.exp_integral_li, {"x": 1.0}),
    "kernel": (kernels.koshliakov_kernel, {"z": 0.5 + 0j, "x": 1.0}),
    "omega": (kernels.omega, {"x": 1.0, "z": 0.5 + 0j}),
    "lambda": (kernels.lambda_fn, {"x": 1.0, "z": 0.5 + 0j}),
    "sigma": (arith.sigma, {"a": 1 + 0j, "n": 1}),
}


def cmd_eval(args) -> int:
    if args.function not in _EVAL:
        raise _UsageError(f"unknown function '{args.function}'; "
                          f"known: {', '.join(sorted(_EVAL))}")
    fn, defaults = _EVAL[args.function]
    named = _resolve_args(defaults, args, "function")
    value = complex(fn(*named.values()))
    print(f"{value.real:.15g} {value.imag:.15g}")
    return EXIT_PASS


def cmd_list(args) -> int:
    for name, entry in sorted(IDENTITIES.items()):
        params = ", ".join(entry.arg_names)
        print(f"{name:24s} ({params})  tol {entry.tolerance:g}  "
              f"{entry.summary}")
    return EXIT_PASS


def build_parser() -> _Parser:
    parser = _Parser(prog="koshliakov",
                     description="Verify Koshliakov-kernel zeta identities "
                                 "and evaluate the special functions behind "
                                 "them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check")
    p_verify.add_argument("identity")
    identity_defaults = [entry.defaults for entry in IDENTITIES.values()]
    _add_param_flags(p_verify, identity_defaults)
    p_verify.add_argument("--tolerance", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="tabulate an identity over alpha")
    p_sweep.add_argument("identity")
    p_sweep.add_argument("--alpha-min", type=_PARSERS[float], default=0.5)
    p_sweep.add_argument("--alpha-max", type=_PARSERS[float], default=2.0)
    p_sweep.add_argument("--steps", type=int, default=31)
    _add_param_flags(p_sweep, identity_defaults, skip=("alpha",))
    p_sweep.add_argument("--tolerance", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: "
                                                     "stdout)")
    p_sweep.add_argument("--svg", default=None, help="SVG chart path")

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("function")
    _add_param_flags(p_eval, [defaults for _, defaults in _EVAL.values()])

    sub.add_parser("list", help="list registered identities")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return {"verify": cmd_verify, "sweep": cmd_sweep, "eval": cmd_eval,
                "list": cmd_list}[args.command](args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KoshliakovError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> NoReturn:
    """The process entry of `python -m koshliakov.cli` and the `koshliakov`
    command: main() on sys.argv, then exit with its code.

    Tearing the interpreter down (numpy's modules most of all) is about a
    tenth of a cold call, and no output needs it: the report is printed
    and every file is closed by `with`.  So the process runs the atexit
    handlers, flushes stdout and stderr and ends with os._exit.  It exits
    normally instead when main raises (argparse's usage errors and --help
    too), when a flush fails (a closed pipe keeps the interpreter's
    message and status), or when something waits for the exit: a profiler
    or tracer (cProfile prints its stats after it) or `python -i`.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)     # Python 3.12+: cProfile, coverage
    if not (sys.getprofile() or sys.gettrace() or sys.flags.inspect
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:       # None when the fd was closed at start
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
