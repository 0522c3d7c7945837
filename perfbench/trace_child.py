"""Traced CLI process: `python perfbench/trace_child.py OUT JOB_ID -- ARGS...`.

Runs `koshliakov.cli.main(ARGS)` after wrapping the layer functions named
in TARGETS in every `koshliakov` module namespace that binds them, so
calls between modules and inside a module (e.g. `xi` calling `gamma`)
are both seen.  Each wrapper appends a span to an in-memory list; the
spans are written to OUT as JSON when the command ends.  Integrands
handed to the quadrature layer are wrapped too, as
`quadrature.integrand` spans.

Span columns: name index, start, end (perf_counter seconds), parent span
index (-1 for the root), points (array size of the argument), nodes
(quadrature nodes reported by the result), repeats (points whose key was
already evaluated earlier in this process), complex-order points.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (module, function, what to count): "points1" counts the size of the
# second argument, "k_points" also records (order, argument) keys.
TARGETS = (
    ("specfun", "bessel_k", "k_points"),
    ("specfun", "bessel_j", "points1"),
    ("specfun", "big_xi", None),
    ("specfun", "gamma", None),
    ("specfun", "hurwitz_zeta", "hurwitz_keys"),
    ("specfun", "riemann_zeta", None),
    ("arith", "build_table", None),
    ("quadrature", "tanh_sinh", "nodes"),
    ("quadrature", "integrate_finite", "nodes"),
    ("quadrature", "integrate_semi_infinite", "nodes"),
    ("kernels", "omega_combination", "points0"),
    ("kernels", "lambda_sum", None),
    ("kernels", "transform_kernel", "points1"),
    ("reporting", "report_json", None),
    ("reporting", "csv_lines", None),
    ("reporting", "write_csv", None),
    ("reporting", "write_svg", None),
)
VERIFIERS = (
    "verify_rg_corollary", "verify_rg_corollary_z0", "verify_rg_formula",
    "verify_hurwitz_corollary", "verify_hurwitz_corollary_z0",
    "verify_hurwitz_modular", "verify_mellin_k", "verify_laplace_bessel",
    "verify_omega_self_reciprocal", "verify_omega_modular",
    "verify_omega_laplace", "verify_bessel_hurwitz_sum",
    "verify_pair_reciprocity",
)
INTEGRAND = "quadrature.integrand"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.seen: set = set()

    def name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_idx: int) -> list:
        rec = [name_idx, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               0, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def count_keys(self, rec: list, tag, values) -> None:
        repeats = 0
        seen = self.seen
        for v in values:
            key = (tag, v)
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
        rec[6] = repeats

    def wrap(self, qualname: str, fn, what):
        idx = self.name_index(qualname)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            tracer.count(rec, what, args)
            return result

        return traced

    def count(self, rec: list, what, args) -> None:
        if what is None:
            return
        if what == "hurwitz_keys":
            rec[4] = 1
            self.count_keys(rec, "hz", [(complex(args[0]), complex(args[1]))])
            return
        xs = np.ravel(np.asarray(args[0 if what == "points0" else 1]))
        rec[4] = xs.size
        if what == "k_points":
            nu = complex(args[0])
            if nu.imag != 0.0:
                rec[7] = xs.size
            self.count_keys(rec, nu, xs.astype(complex).tolist())


class TracedIntegrand:
    """An integrand handed to the quadrature layer, timed as its own span."""

    def __init__(self, tracer: Tracer, idx: int, fn):
        self.tracer, self.idx, self.fn = tracer, idx, fn

    def __call__(self, x):
        rec = self.tracer.open(self.idx)
        try:
            return self.fn(x)
        finally:
            self.tracer.close(rec)
            rec[4] = int(np.size(x))


def _wrap_quadrature(tracer: Tracer, qualname: str, fn):
    idx = tracer.name_index(qualname)
    integrand_idx = tracer.name_index(INTEGRAND)

    def traced(f, *args, **kwargs):
        if not isinstance(f, TracedIntegrand):
            f = TracedIntegrand(tracer, integrand_idx, f)
        rec = tracer.open(idx)
        try:
            result = fn(f, *args, **kwargs)
        finally:
            tracer.close(rec)
        rec[5] = int(result.nodes_used)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every target in every loaded koshliakov module; returns the
    traced `cli.main`."""
    import koshliakov.cli as cli

    modules = [m for name, m in sys.modules.items()
               if name == "koshliakov" or name.startswith("koshliakov.")]
    replacements = {}
    for mod_name, fn_name, what in TARGETS:
        fn = getattr(sys.modules[f"koshliakov.{mod_name}"], fn_name)
        qualname = f"{mod_name}.{fn_name}"
        if what == "nodes":
            replacements[id(fn)] = (fn, _wrap_quadrature(tracer, qualname, fn))
        else:
            replacements[id(fn)] = (fn, tracer.wrap(qualname, fn, what))
    identities = sys.modules["koshliakov.identities"]
    for fn_name in VERIFIERS:
        fn = getattr(identities, fn_name)
        replacements[id(fn)] = (fn, tracer.wrap(f"identities.{fn_name}", fn, None))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer.wrap("cli.main", cli.main, None)


def main(argv: list) -> int:
    out_path, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py OUT JOB_ID -- ARGS...")
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        code = traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"job_id": job_id, "names": tracer.names,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
