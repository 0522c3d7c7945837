"""Smoke test of the benchmark harness; it does not gate on timings.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
from jobs import WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# One passing job and one out-of-domain job (alpha > 4 exits 3).
JOBS = [Job("j01-rg-formula", ("verify", "rg-formula"), "verify", "rg-formula", 1),
        Job("j02-rg-corollary", ("verify", "rg-corollary", "--alpha=5"),
            "verify", "rg-corollary", 1)]


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace,section",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_and_failure_counted(trace, section, monkeypatch,
                                                  capsys, tmp_path):
    monkeypatch.setattr(run, "make_jobs", lambda workload, seed: JOBS)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "verify-cold", "--seed", "0",
                     "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # Each operation counts once, although `--trace 1` runs every job
    # three times.
    assert result["attempted"] == 2
    assert result["failed"] == 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-xi",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_jobs_are_seeded():
    sizes = {"verify-cold": (16, 16), "sweep-xi": (7, 427),
             "sweep-omega": (5, 55)}
    for workload in WORKLOADS:
        jobs = make_jobs(workload, 0)
        assert (len(jobs), sum(j.points for j in jobs)) == sizes[workload]
        assert make_jobs(workload, 7) == make_jobs(workload, 7)
        assert make_jobs(workload, 7) != jobs
    canonical = make_jobs("verify-cold", 0)
    assert all(len(j.argv) == 2 for j in canonical[:13])
    for job in make_jobs("sweep-xi", 3):
        assert all(" " not in arg for arg in job.argv)


def test_host_speed_scale():
    helper = hostspeed.Helper(dict(os.environ))
    try:
        now = helper.slowness()
    finally:
        helper.close()
    assert helper.proc.returncode == 0
    assert set(now) == {"interpreter", "vector", "memory", "slowness"}
    assert now["slowness"] > 0
    at_reference = {"slowness": 1.0}
    assert hostspeed.scaled_s(2.0, at_reference, at_reference) == 2.0
    # On a host half as fast as the reference, a child reads half its wall time.
    assert hostspeed.scaled_s(2.0, {"slowness": 1.8}, {"slowness": 2.2}) == pytest.approx(1.0)
