"""Command-line front end.

Subcommands: `verify` runs one identity check and prints a JSON report,
`sweep` tabulates an identity over an alpha grid into CSV (optionally an
SVG chart), `eval` evaluates a single special function, and `list` shows
the registered identities.

Exit codes: 0 pass, 2 verification failure (in `sweep`, only a row that
raised, written as nan: a row that misses its tolerance leaves the exit
code alone; a convergence failure in the work a sweep's rows share fails
every row), 3 domain/convergence error (in `sweep` too for an input
error, with the message `verify` prints: an alpha grid outside [1/4, 4]
is one), 64 usage error (a nan or inf float or complex flag, a sweep grid
of fewer than 2 steps or with alpha-min > alpha-max, among others).
Complex flags accept sign-delimited literals such as `0.5+0.25i`.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from . import arith, kernels, specfun
from .errors import ConvergenceError, DecayError, KoshliakovError
from .identities import IDENTITIES, VerificationReport
from .reporting import SweepRow, csv_lines, report_json, write_csv, write_svg

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64


def parse_complex_literal(text: str) -> complex:
    """`0.5`, `-0.3`, `0.5+0.25i`, `1e-3i`, `i`: i-suffixed, sign-delimited."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith(("i", "I")):
        return complex(float(s), 0.0)
    body = s[:-1]
    re_part, im_part = "", body
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    re = float(re_part) if re_part else 0.0
    return complex(re, im)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CLI contract reserves 2 for
    # verification failures and uses 64 for usage problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Per-parameter parse kind for the verify/sweep dispatch; the defaults are
# the verifiers' own (IdentityEntry.defaults).
_PARAMS: dict = {"z": "complex", "alpha": "float", "s": "complex", "nu": "complex",
                 "q": "float", "x": "float", "y": "float", "pair": "str",
                 "pair_alpha": "float"}

# The same for eval, and its defaults.
_EVAL_PARAMS: dict = {"s": "complex", "a": "complex", "t": "complex", "nu": "complex",
                      "z": "complex", "x": "complex", "n": "int"}
_EVAL_DEFAULTS: dict = {"s": 2.0 + 0.0j, "a": 1.0 + 0.0j, "t": 0.0 + 0.0j, "nu": 0.0,
                        "z": 0.5 + 0.0j, "x": 1.0, "n": 1}
# The eval flags parsed as complex that these functions take real.
_EVAL_REAL: dict = {"x": ("li", "kernel", "omega", "lambda", "bessel-j", "bessel-y"),
                    "nu": ("bessel-j", "bessel-y")}


def _finite(parse):
    """parse, rejecting nan and inf, which no identity or function takes."""
    def parsed(text):
        value = parse(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        return value
    parsed.__name__ = parse.__name__     # argparse's "invalid <name> value"
    return parsed


_KIND_TYPES = {"complex": _finite(parse_complex_literal), "float": _finite(float),
               "int": int, "str": str}


def _add_param_flags(parser: argparse.ArgumentParser, kinds: dict,
                     skip: tuple = ()) -> None:
    for name, kind in kinds.items():
        if name not in skip:
            parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                                type=_KIND_TYPES[kind], default=None)


def _resolve_args(defaults: dict, flags, args, what: str) -> dict:
    """The value of each parameter named in defaults, its default where the
    flag is not given; a flag of flags given that defaults lacks is a usage
    error."""
    extraneous = [name for name in flags
                  if getattr(args, name, None) is not None
                  and name not in defaults]
    if extraneous:
        raise _UsageError(
            f"parameter(s) {', '.join('--' + e for e in extraneous)} do not "
            f"apply; this {what} takes ({', '.join(defaults)})")
    values = {}
    for name, default in defaults.items():
        given = getattr(args, name, None)
        values[name] = default if given is None else given
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
    named = _resolve_args(entry.defaults, _PARAMS, args, "identity")
    tol = entry.tolerance if args.tolerance is None else args.tolerance
    if not (math.isfinite(tol) and tol > 0.0):
        raise _UsageError(f"tolerance must be finite and positive, got {tol}")
    return entry, named, tol


def _alpha_grid(alpha_min: float, alpha_max: float, steps: int) -> list[float]:
    """steps equally spaced alphas from alpha_min to alpha_max; the
    verifier, as in verify, judges whether they lie in its domain."""
    if steps < 2:
        raise _UsageError("steps must be >= 2")
    if not alpha_min <= alpha_max:
        raise _UsageError("alpha-min must not exceed alpha-max")
    h = (alpha_max - alpha_min) / (steps - 1)
    return [alpha_min + i * h for i in range(steps)]


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
        outcomes = entry.verify({**named, "alpha": grid}, tol)
    except (ConvergenceError, DecayError) as exc:
        # Work shared by every row failed, so no row has a value.  Any
        # other error is an input error, and exits 3 as in verify.
        print(f"alpha={grid[0]:.6g}..{grid[-1]:.6g}: {exc}", file=sys.stderr)
        outcomes = [None] * len(grid)
    rows = []
    for alpha, out in zip(grid, outcomes):
        if isinstance(out, VerificationReport):
            rows.append(SweepRow.from_report(out))
            continue
        if out is not None:
            print(f"alpha={alpha:.6g}: {out}", file=sys.stderr)
        rows.append(SweepRow.failed(alpha))
    if args.out:
        write_csv(args.out, rows)
    else:
        print("\n".join(csv_lines(rows)))
    if args.svg:
        write_svg(args.svg, rows, args.identity)
    return EXIT_PASS if all(r.ok for r in rows) else EXIT_FAIL


# eval function table: name -> (argument names, callable taking them in
# that order).  Built at each call, so it holds the current module
# attributes (a wrapped function is the one called).
def _eval_table() -> dict:
    return {
        "gamma": (("s",), specfun.gamma),
        "zeta": (("s",), specfun.riemann_zeta),
        "hurwitz": (("s", "a"), specfun.hurwitz_zeta),
        "digamma": (("s",), specfun.digamma),
        "xi": (("s",), specfun.xi),
        "big-xi": (("t",), specfun.big_xi),
        "bessel-j": (("nu", "x"), specfun.bessel_j),
        "bessel-y": (("nu", "x"), specfun.bessel_y),
        "bessel-k": (("nu", "x"), specfun.bessel_k),
        "li": (("x",), specfun.exp_integral_li),
        "kernel": (("z", "x"), kernels.koshliakov_kernel),
        "omega": (("x", "z"), kernels.omega),
        "lambda": (("x", "z"), kernels.lambda_fn),
        "sigma": (("a", "n"), arith.sigma),
    }


def cmd_eval(args) -> int:
    table = _eval_table()
    if args.function not in table:
        raise _UsageError(f"unknown function '{args.function}'; "
                          f"known: {', '.join(sorted(table))}")
    arg_names, fn = table[args.function]
    named = _resolve_args({name: _EVAL_DEFAULTS[name] for name in arg_names},
                          _EVAL_PARAMS, args, "function")
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
    _add_param_flags(p_verify, _PARAMS)
    p_verify.add_argument("--tolerance", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="tabulate an identity over alpha")
    p_sweep.add_argument("identity")
    p_sweep.add_argument("--alpha-min", type=_KIND_TYPES["float"], default=0.5)
    p_sweep.add_argument("--alpha-max", type=_KIND_TYPES["float"], default=2.0)
    p_sweep.add_argument("--steps", type=int, default=31)
    _add_param_flags(p_sweep, _PARAMS, skip=("alpha",))
    p_sweep.add_argument("--tolerance", type=float, default=None)
    p_sweep.add_argument("--out", default=None, help="CSV path (default: "
                                                     "stdout)")
    p_sweep.add_argument("--svg", default=None, help="SVG chart path")

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("function")
    _add_param_flags(p_eval, _EVAL_PARAMS)

    sub.add_parser("list", help="list registered identities")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "eval":
            # eval accepts complex --x and --nu for bessel-k; a function
            # that takes them real refuses an imaginary part.
            for name, functions in _EVAL_REAL.items():
                value = getattr(args, name, None)
                if value is not None and args.function in functions:
                    if value.imag != 0.0:
                        raise _UsageError(f"--{name} must be real for {args.function}")
                    setattr(args, name, value.real)
            return cmd_eval(args)
        if args.command == "list":
            return cmd_list(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KoshliakovError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
