"""Per-layer metrics from the spans that `trace_child.py` writes.

A span's self time is its duration minus the durations of its direct
children (the CLI is single-threaded, so children never overlap).
`<layer>.self_s` sums the self time of the layer's wrapped functions;
integrand bodies (closures defined in `identities` or `kernels` and run
by the quadrature layer) are reported on their own as
`quadrature.integrand.share` and belong to no layer total.
`<fn>.nodes` includes the nodes of nested quadrature calls, so
`integrate_semi_infinite` nodes also appear under `integrate_finite`.
"""

from __future__ import annotations

import json
from collections import defaultdict

from trace_child import INTEGRAND, VERIFIERS

LAYERS = ("specfun", "arith", "quadrature", "kernels", "identities",
          "reporting", "cli")

# name -> unit.  Counts repeat exactly between traced runs of one seed.
COUNTS = {
    "specfun.bessel_k.calls": "count",
    "specfun.bessel_k.points": "count",
    "specfun.bessel_k.points_complex_order": "count",
    "specfun.bessel_k.repeat_ratio": "1",
    "quadrature.tanh_sinh.calls": "count",
    "quadrature.tanh_sinh.nodes": "count",
    "quadrature.integrate_semi_infinite.calls": "count",
    "quadrature.integrate_semi_infinite.nodes": "count",
    "quadrature.integrate_finite.calls": "count",
    "quadrature.integrate_finite.nodes": "count",
    "quadrature.integrand.evals": "count",
    "specfun.big_xi.calls": "count",
    "specfun.gamma.calls": "count",
    "specfun.hurwitz_zeta.calls": "count",
    "specfun.hurwitz_zeta.repeat_ratio": "1",
    "specfun.riemann_zeta.calls": "count",
    "specfun.bessel_j.points": "count",
    "arith.build_table.calls": "count",
    "kernels.omega_combination.calls": "count",
    "kernels.omega_combination.points": "count",
    "kernels.lambda_sum.calls": "count",
    "kernels.transform_kernel.points": "count",
}
# Functions whose self time is reported as a share of `trace.compute_s`.
# A share, not seconds: a function a workload never calls reads exactly 0
# on every run, and that is a count-like fact rather than a timing.
FUNCTIONS = (
    "specfun.bessel_k", "quadrature.tanh_sinh",
    "quadrature.integrate_semi_infinite", "quadrature.integrate_finite",
    INTEGRAND, "specfun.big_xi", "specfun.gamma", "specfun.hurwitz_zeta",
    "specfun.riemann_zeta", "specfun.bessel_j", "arith.build_table",
    "kernels.omega_combination", "kernels.lambda_sum",
    "kernels.transform_kernel",
)
TIMES = {
    "specfun.bessel_k.points_per_ms": "1/ms",
    **{f"{fn}.share": "1" for fn in FUNCTIONS},
    **{f"identities.{v}.share": "1" for v in VERIFIERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.compute_s": "s",
}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tally(docs: list) -> defaultdict:
    """Per-function totals over the span files of one pass; a function
    that never ran reads as zeros."""
    acc = defaultdict(lambda: defaultdict(float))
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child_time = [0.0] * len(spans)
        for name_idx, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_idx, start, end, parent, points, nodes, repeats,
                cplx) in enumerate(spans):
            a = acc[names[name_idx]]
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += end - start - child_time[i]
            a["points"] += points
            a["nodes"] += nodes
            a["repeats"] += repeats
            a["points_complex_order"] += cplx
    return acc


def counts(acc: dict) -> dict:
    out = {}
    for name in COUNTS:
        fn, key = name.rsplit(".", 1)
        a = acc[fn]
        if key == "repeat_ratio":
            out[name] = a["repeats"] / a["points"] if a["points"] else 0.0
        else:
            out[name] = a["calls" if key == "evals" else key]
    return out


def times(acc: dict) -> dict:
    compute = acc["cli.main"]["total_s"]
    out = {"trace.compute_s": compute}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            a["self_s"] for fn, a in acc.items()
            if fn.split(".", 1)[0] == layer and fn != INTEGRAND)
    for fn in FUNCTIONS:
        out[f"{fn}.share"] = acc[fn]["self_s"] / compute
    for v in VERIFIERS:
        out[f"identities.{v}.share"] = acc[f"identities.{v}"]["total_s"] / compute
    k = acc["specfun.bessel_k"]
    out["specfun.bessel_k.points_per_ms"] = (
        k["points"] / (1e3 * k["self_s"]) if k["self_s"] else 0.0)
    return out
