"""Checks on what one CLI command printed.

Every command is checked for its exit code and the shape of its output.
An *operation* is one verify report or one sweep row; it fails when the
command raised (exit 3, or a `nan` row), or when its report does not pass
(for sweep rows: when the row's diff exceeds the identity's tolerance,
the part of `pass` that the CSV carries).  Failed operations are counted,
never skipped.

A command whose output is malformed, or that exits with a code the CLI
does not give for a verification outcome (a crash, a usage error, a
timeout), makes the run incorrect.  So does a value that moved:
where a reference from `reference_seed0.json` exists for the command,
every `lhs` must sit within the identity's tolerance times the scale of
the reference, the same acceptance rule the reports use, so a change that
moves both sides together is still caught.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

EXIT_PASS, EXIT_FAIL, EXIT_DOMAIN = 0, 2, 3
CSV_HEADER = "alpha,lhs_re,lhs_im,rhs_re,rhs_im,abs_diff,rel_diff"
REPORT_KEYS = {"identity", "params", "lhs", "rhs", "abs_diff", "rel_diff",
               "budgets", "pass"}


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # reasons the run is incorrect
    failures: list = field(default_factory=list)   # reasons operations failed


def parse_tolerances(list_output: str) -> dict:
    """identity -> tolerance, from `koshliakov list`."""
    tols = {}
    for line in list_output.splitlines():
        words = line.split()
        if "tol" in words:
            tols[words[0]] = float(words[words.index("tol") + 1])
    return tols


def _allowed(tol: float, ref_lhs: complex, ref_rhs: complex) -> float:
    if abs(ref_rhs) < 1e-3:
        return tol
    return tol * max(abs(ref_lhs), abs(ref_rhs))


def _diff_ok(tol: float, rhs: complex, abs_diff: float, rel_diff: float) -> bool:
    return abs_diff <= tol if abs(rhs) < 1e-3 else rel_diff <= tol


def check_verify(job, rc: int, stdout: str, tol: float, ref) -> Outcome:
    out = Outcome(ops=1)
    if rc == EXIT_DOMAIN:
        out.failed = 1
        out.failures.append(f"{job.job_id}: exit 3 (domain or convergence error)")
        return out
    if rc not in (EXIT_PASS, EXIT_FAIL):
        out.failed = 1
        out.problems.append(f"{job.job_id}: unexpected exit code {rc}")
        return out
    try:
        doc = json.loads(stdout)
        passed = doc["pass"]
        lhs = complex(*doc["lhs"])
        ok_shape = (set(doc) == REPORT_KEYS and doc["identity"] == job.identity
                    and isinstance(passed, bool) and len(doc["rhs"]) == 2)
    except (ValueError, KeyError, TypeError):
        ok_shape = False
    if not ok_shape:
        out.failed = 1
        out.problems.append(f"{job.job_id}: malformed report")
        return out
    if passed != (rc == EXIT_PASS):
        out.problems.append(f"{job.job_id}: exit {rc} disagrees with pass={passed}")
    if not passed:
        out.failed = 1
        out.failures.append(f"{job.job_id}: report does not pass")
    if ref is not None:
        ref_lhs, ref_rhs = complex(*ref["lhs"]), complex(*ref["rhs"])
        if not abs(lhs - ref_lhs) <= _allowed(tol, ref_lhs, ref_rhs):
            out.problems.append(f"{job.job_id}: lhs {lhs} moved from the "
                                f"reference {ref_lhs}")
    return out


def _grid(alpha_grid) -> list:
    amin, amax, steps = alpha_grid
    h = (amax - amin) / (steps - 1)
    return [amin + i * h for i in range(steps)]


def check_sweep(job, rc: int, stdout: str, tol: float, ref) -> Outcome:
    out = Outcome(ops=job.points)
    if rc not in (EXIT_PASS, EXIT_FAIL):
        out.failed = job.points
        reason = f"{job.job_id}: exit {rc}"
        (out.failures if rc == EXIT_DOMAIN else out.problems).append(reason)
        return out
    lines = stdout.strip().splitlines()
    grid = _grid(job.alpha_grid)
    rows = []
    try:
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("bad header")
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            if len(fields) != 7:
                raise ValueError("row without 7 columns")
            rows.append(fields)
        if len(rows) != len(grid):
            raise ValueError(f"{len(rows)} rows for {len(grid)} grid points")
        alphas = [r[0] for r in rows]
        if alphas != sorted(alphas) or any(
                abs(a - g) > 1e-12 * max(1.0, g) for a, g in zip(alphas, grid)):
            raise ValueError("alpha column is not the sorted grid")
    except ValueError as exc:
        out.failed = job.points
        out.problems.append(f"{job.job_id}: malformed CSV ({exc})")
        return out
    nan_rows = 0
    ref_rows = ref["rows"] if ref is not None else None
    for i, (alpha, lre, lim, rre, rim, abs_diff, rel_diff) in enumerate(rows):
        if any(math.isnan(v) for v in (lre, lim, rre, rim, abs_diff, rel_diff)):
            nan_rows += 1
            out.failed += 1
            out.failures.append(f"{job.job_id}: nan row at alpha={alpha:g}")
            continue
        lhs, rhs = complex(lre, lim), complex(rre, rim)
        if not _diff_ok(tol, rhs, abs_diff, rel_diff):
            out.failed += 1
            out.failures.append(f"{job.job_id}: row alpha={alpha:g} misses "
                                f"the tolerance")
        if ref_rows is not None:
            r_lhs = complex(ref_rows[i][1], ref_rows[i][2])
            r_rhs = complex(ref_rows[i][3], ref_rows[i][4])
            if not abs(lhs - r_lhs) <= _allowed(tol, r_lhs, r_rhs):
                out.problems.append(f"{job.job_id}: lhs at alpha={alpha:g} "
                                    f"moved from the reference")
    if (nan_rows > 0) != (rc == EXIT_FAIL):
        out.problems.append(f"{job.job_id}: exit {rc} with {nan_rows} nan rows")
    return out


def check(job, rc: int, stdout: str, tolerances: dict, references: dict) -> Outcome:
    tol = tolerances.get(job.identity)
    if tol is None:
        return Outcome(ops=job.points, failed=job.points,
                       problems=[f"{job.job_id}: unknown identity {job.identity!r}"])
    ref = references.get(job.key)
    if job.kind == "verify":
        return check_verify(job, rc, stdout, tol, ref)
    return check_sweep(job, rc, stdout, tol, ref)


def reference_entry(job, stdout: str) -> dict:
    """The reference record of one seed-0 command's output."""
    if job.kind == "verify":
        doc = json.loads(stdout)
        return {"lhs": doc["lhs"], "rhs": doc["rhs"]}
    rows = [[float(v) for v in line.split(",")[:5]]
            for line in stdout.strip().splitlines()[1:]]
    return {"rows": rows}
