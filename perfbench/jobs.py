"""Seeded job lists for the three benchmark workloads.

A job is one cold CLI command.  Seed 0 gives the canonical lists (the
thirteen `verify` commands run at CLI defaults, with no flags at all).
Any other seed draws each job's z and alpha (or alpha range) from a box
inside the identity's documented domain.  A drawn z keeps the kind of
the canonical one (real or complex, and the sign of its real part), so
the same layers do the work on every seed.

`sweep-xi` is the exception: it keeps the canonical alpha range on
every seed and draws z for the three `hurwitz-*` jobs only.  Any other
draw changes how deep the `bessel_k` batch inside `f_frak` refines, and
a batch that reaches the last level holds ~8 MB more at its peak, so
the largest child max-RSS would jump by a quarter from seed to seed
(6 of 20 seeds with z drawn for every job).  The `hurwitz-*` jobs do
not call `f_frak`; with z drawn, their max-RSS stayed within
31.0-31.5 MB over 30 seeds.

The two inner-series verifiers (`hurwitz-corollary-z0`,
`bessel-hurwitz-sum`) dominate `verify-cold`.  They draw alpha from
[0.8, 1.25]: across that window their K-point counts move by under 5%,
while across the whole [1/4, 4] domain they move by 27%, which would
drown any regression bound in seed-to-seed variation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify-cold", "sweep-xi", "sweep-omega")


@dataclass(frozen=True)
class Job:
    """One CLI command: `argv` follows `python -m koshliakov.cli`."""

    job_id: str
    argv: tuple
    kind: str          # "verify" or "sweep"
    identity: str
    points: int        # reports (verify) or CSV rows (sweep) it yields
    alpha_grid: tuple = ()   # (alpha_min, alpha_max, steps) for sweeps

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def fmt_real(v: float) -> str:
    return f"{v:.4f}"


def fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt_real(z.real)
    return f"{z.real:.4f}{z.imag:+.4f}i"


def flag(name: str, value: str) -> str:
    # `--z=-0.4+0.3i`: argparse takes `--z -0.4` for a new option.
    return f"--{name}={value}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _real_z(rng, lo, hi) -> complex:
    return complex(round(rng.uniform(lo, hi), 4), 0.0)


def _complex_z(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(round(rng.uniform(re_lo, re_hi), 4),
                   round(rng.uniform(im_lo, im_hi), 4))


def _alpha(rng, lo=0.25, hi=4.0) -> float:
    return round(_log_uniform(rng, lo, hi), 4)


# ---------------------------------------------------------------------------
# verify-cold
# ---------------------------------------------------------------------------

def _z_alpha(z_lo, z_hi, a_lo=0.25, a_hi=4.0):
    """Drawer of a real z in [z_lo, z_hi] and a log-uniform alpha."""
    def draw(rng):
        return [flag("z", fmt_complex(_real_z(rng, z_lo, z_hi))),
                flag("alpha", fmt_real(_alpha(rng, a_lo, a_hi)))]
    return draw


def _draw_pair_edge(rng):
    # The k-bessel pair's documented domain is the closed [-1/2, 1/2] and
    # the CLI default sits on its edge; other seeds keep the edge (sign
    # drawn) so the default's known failure is measured on every seed.
    return [flag("z", fmt_real(rng.choice((0.5, -0.5)))),
            flag("pair-alpha", fmt_real(_alpha(rng, 0.5, 2.0)))]


def _draw_omega_self_z(rng):
    # z = 0 exactly is a documented point of the domain (the pole-averaged
    # branch), drawn with probability 1/4.
    z = 0.0 if rng.random() < 0.25 else rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.8)
    return [flag("z", fmt_real(z)), flag("x", fmt_real(_alpha(rng, 0.5, 2.0)))]


# (identity, canonical flags, drawer).  A drawer maps an rng to the flags
# of a non-zero seed; None keeps the canonical flags (the identity takes
# neither z nor alpha).
_VERIFY_COLD = (
    ("rg-corollary", (), _z_alpha(0.1, 0.9)),
    ("rg-corollary-z0", (), lambda r: [flag("alpha", fmt_real(_alpha(r)))]),
    ("rg-formula", (), _z_alpha(0.1, 0.9)),
    ("hurwitz-corollary", (), _z_alpha(0.1, 0.9)),
    ("hurwitz-corollary-z0", (), lambda r: [flag("alpha", fmt_real(_alpha(r, 0.8, 1.25)))]),
    ("hurwitz-modular", (), _z_alpha(0.1, 0.9)),
    ("mellin-k", (), None),
    ("laplace-bessel", (), _z_alpha(0.1, 0.9)),
    ("omega-self-reciprocal", (), _draw_omega_self_z),
    ("omega-modular", (), _z_alpha(0.1, 0.9)),
    ("omega-laplace", (), _z_alpha(0.1, 0.9)),
    ("bessel-hurwitz-sum", (), _z_alpha(0.2, 0.8, 0.8, 1.25)),
    ("pair-reciprocity", (), _draw_pair_edge),
    # Complex-order K inside the per-n inner integrals.
    ("bessel-hurwitz-sum", (flag("z", "0.3+0.2i"),),
     lambda r: [flag("z", fmt_complex(_complex_z(r, 0.2, 0.4, 0.1, 0.3))),
                flag("alpha", fmt_real(_alpha(r, 0.8, 1.25)))]),
    # Complex-order K under the Mellin integral.
    ("mellin-k", (flag("s", "2.5"), flag("nu", "0.3+0.5i")), None),
    # The oscillatory power-tail path.
    ("pair-reciprocity", (flag("pair", "dixon-ferrar"), flag("z", "0")), None),
)


def _verify_cold(rng, canonical: bool) -> list:
    jobs = []
    for i, (identity, flags, draw) in enumerate(_VERIFY_COLD, start=1):
        argv = list(flags) if canonical or draw is None else draw(rng)
        jobs.append(Job(f"v{i:02d}-{identity}", ("verify", identity, *argv),
                        "verify", identity, 1))
    return jobs


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_job(job_id, identity, z_flag, grid):
    amin, amax, steps = grid
    argv = ["sweep", identity, flag("alpha-min", fmt_real(amin)),
            flag("alpha-max", fmt_real(amax)), flag("steps", str(steps))]
    if z_flag is not None:
        argv.append(flag("z", z_flag))
    return Job(job_id, tuple(argv), "sweep", identity, steps, grid)


# (identity, canonical z or None, drawer of z for other seeds)
# The rg-* jobs keep their canonical z on every seed (see the module
# docstring).  The two `hurwitz-corollary` jobs are the slowest of the
# workload, so their z stays near the canonical one: over the box
# [-0.6, -0.2] x [0.1, 0.4] the complex job's `gamma` calls moved from
# 36.7k to 49.2k, over [-0.42, -0.38] x [0.27, 0.33] from 39.3k to 43.7k.
_SWEEP_XI = (
    ("rg-corollary", "0.5", None),
    ("rg-corollary", "0.3+0.2i", None),
    ("rg-corollary-z0", None, None),
    ("hurwitz-corollary", "0.5", lambda r: _real_z(r, 0.45, 0.55)),
    ("hurwitz-corollary", "-0.4+0.3i", lambda r: _complex_z(r, -0.42, -0.38, 0.27, 0.33)),
    ("rg-formula", None, None),
    ("hurwitz-modular", None, lambda r: _real_z(r, 0.1, 0.9)),
)

_SWEEP_OMEGA = (
    ("omega-modular", "0.5", lambda r: _real_z(r, 0.3, 0.7)),
    # z = 0 exercises the +-1e-4 averaging branch, which doubles the work.
    ("omega-modular", "0", None),
    ("omega-modular", "-0.6", lambda r: _real_z(r, -0.7, -0.5)),
    ("omega-laplace", "0.5", lambda r: _real_z(r, 0.3, 0.7)),
    ("omega-laplace", "0.3+0.2i", lambda r: _complex_z(r, 0.2, 0.4, 0.1, 0.3)),
)


def _sweeps(table, prefix, canonical_grid, rng, canonical: bool, draw_grid=None):
    jobs = []
    for i, (identity, z, draw) in enumerate(table, start=1):
        grid = canonical_grid
        if not canonical:
            if draw_grid is not None:
                grid = draw_grid(rng)
            if draw is not None:
                z = fmt_complex(draw(rng))
        jobs.append(_sweep_job(f"{prefix}{i:02d}-{identity}", identity, z, grid))
    return jobs


def _omega_grid(rng):
    # Near the canonical range: the Omega sweeps are the slowest per row.
    return (round(0.5 * _log_uniform(rng, 0.9, 1.1), 4),
            round(2.0 * _log_uniform(rng, 0.9, 1.1), 4), 11)


def make_jobs(workload: str, seed: int) -> list:
    """The job list of `workload` for `seed`; same seed, same list."""
    rng = random.Random(f"{workload}/{seed}")
    canonical = seed == 0
    if workload == "verify-cold":
        return _verify_cold(rng, canonical)
    if workload == "sweep-xi":
        return _sweeps(_SWEEP_XI, "x", (0.25, 4.0, 61), rng, canonical)
    if workload == "sweep-omega":
        return _sweeps(_SWEEP_OMEGA, "o", (0.5, 2.0, 11), rng, canonical, _omega_grid)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
