"""koshliakov benchmark runner.

    python3 perfbench/run.py --workload verify-cold --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Every job is a cold CLI process
(`python -m koshliakov.cli ...` with `src` on PYTHONPATH), run one at a
time.  With `--trace 0` every job runs once and the slow ones again until
`--seconds` have gone by, and the end-to-end metrics are printed; with
`--trace 1` the list runs once untraced and twice under
`trace_child.py`, and the per-layer metrics are printed.  The last line
of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`,
where `attempted` and `failed` count operations (verify reports and
sweep rows) of one pass over the job list.  A result file with the
environment stamp, the drawn jobs and per-job timings is written to
`.bench_out/results/`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import hostspeed
import layers
from jobs import WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference_seed0.json"
SETUP_RUNS = 3          # cold `list` runs before the jobs ...
SETUP_SPREAD = 16       # ... and one more each 1/16 of --seconds
# The run must end within 180 s; a job still running at this point is killed.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **layers.COUNTS,
    **layers.TIMES,
    "trace.overhead_ratio": "1",
    "run.max_rss_mb": "MB",
    "run.ops": "count",
    "run.ops_failed": "count",
    "run.fail_ratio": "1",
}


class Runner:
    """Runs cold CLI processes one at a time and checks what they print."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        # One BLAS thread: the CLI's matrix products are small (no speed
        # difference measured on 2 cores), and a second BLAS thread that
        # spins while the host takes a core away made single jobs several
        # times slower.
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / "spans").mkdir(exist_ok=True)
        (OUT_DIR / "results").mkdir(exist_ok=True)
        self.tolerances: dict = {}
        self.references: dict = {}
        # job id -> (operations, failed operations) of its first run
        self.outcomes: dict = {}
        self.problems: list = []
        self.failures: list = []

    @property
    def ops(self) -> int:
        return sum(ops for ops, _ in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.outcomes.values())

    def spawn(self, cmd: list) -> dict:
        """One child process: exit code, wall seconds, max RSS, output."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        # Unnamed files: runs that share a checkout cannot read each other's.
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
                tempfile.TemporaryFile(dir=OUT_DIR) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.perf_counter() >= self.deadline:
            raise TimeoutError(f"killed at the run deadline: {shlex.join(cmd)}")
        return {"rc": proc.returncode, "wall_s": wall,
                "maxrss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def cli(self, argv) -> list:
        return [sys.executable, "-m", "koshliakov.cli", *argv]

    def setup_sample(self) -> dict:
        """One cold `list` process; returns its wall time."""
        res = self.spawn(self.cli(["list"]))
        if res["rc"] != 0:
            raise RuntimeError(f"`koshliakov list` exited {res['rc']}: "
                               f"{res['stderr'].strip()}")
        self.tolerances = checks.parse_tolerances(res["stdout"])
        if len(self.tolerances) != 13:
            raise RuntimeError(f"`koshliakov list` shows {len(self.tolerances)} "
                               "identities, expected 13")
        return {"job": None, "wall_s": res["wall_s"]}

    def setup(self) -> None:
        """One untimed cold `list` process (which may compile bytecode);
        loads the tolerances and references."""
        self.setup_sample()
        if REFERENCE.exists():
            self.references = json.loads(REFERENCE.read_text())

    def run_job(self, job: Job, traced_to: Path | None = None) -> dict:
        if traced_to is None:
            cmd = self.cli(job.argv)
        else:
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                   str(traced_to), job.job_id, "--", *job.argv]
        res = self.spawn(cmd)
        outcome = checks.check(job, res["rc"], res["stdout"], self.tolerances,
                               self.references)
        # An operation counts once per run, however often its job repeats,
        # so `attempted` and `failed` depend on the seed only; a repeat must
        # give the first run's outcome.
        counted = (outcome.ops, outcome.failed)
        first = self.outcomes.get(job.job_id)
        if first is None:
            self.outcomes[job.job_id] = counted
            self.failures += outcome.failures
        elif first != counted:
            self.problems.append(f"{job.job_id}: {counted[1]} of {counted[0]} "
                                 f"operations failed, {first[1]} of {first[0]} "
                                 "on its first run")
        self.problems += [p for p in outcome.problems if p not in self.problems]
        return {"job": job.job_id, "rc": res["rc"], "wall_s": res["wall_s"],
                "maxrss_mb": res["maxrss_mb"], "failed": outcome.failed}

    def run_pass(self, jobs: list, traced: bool = False) -> tuple:
        records, docs = [], []
        for job in jobs:
            path = (OUT_DIR / "spans" / f"{os.getpid()}-{job.job_id}.json"
                    if traced else None)
            records.append(self.run_job(job, path))
            if traced:
                docs.append(layers.load(path))
                path.unlink()
        return records, docs


def measure_end_to_end(runner: Runner, jobs: list, seconds: float) -> tuple:
    """Run every job once, then more runs until `seconds` have passed,
    each time the job with the fewest runs per second of its first run:
    a job runs about as often as its length, so the slow jobs that set
    `slowest_job_s` and most of `points_per_s` get the most samples.
    Cold `list` runs for `setup_s` are spread over the run, so they see
    the same host conditions as the jobs.  Every time is scaled to the
    reference host (`hostspeed`)."""
    runner.setup()
    children = []           # records of the jobs and the `list` runs
    helper = hostspeed.Helper(runner.env)
    try:
        speeds = [helper.slowness()]

        def child(job) -> None:
            children.append(runner.setup_sample() if job is None
                            else runner.run_job(job))
            speeds.append(helper.slowness())

        for _ in range(SETUP_RUNS):
            child(None)
        t0 = last_setup = time.perf_counter()
        runs = dict.fromkeys(jobs, 0)
        first_s: dict = {}
        job_iter = iter(jobs)
        while True:
            now = time.perf_counter()
            job = next(job_iter, None)
            if job is None:
                if now - t0 >= seconds:
                    break
                job = min(jobs, key=lambda j: runs[j] / first_s[j])
            if now - last_setup >= seconds / SETUP_SPREAD:
                child(None)
                last_setup = now
            child(job)
            runs[job] += 1
            first_s.setdefault(job, children[-1]["wall_s"])
    finally:
        helper.close()
    ref_s: dict = {}
    for record, before, after in zip(children, speeds, speeds[1:]):
        record["ref_s"] = hostspeed.scaled_s(record["wall_s"], before, after)
        ref_s.setdefault(record["job"], []).append(record["ref_s"])
    setup_ref_s = ref_s.pop(None)
    # A job's time is the median of its scaled runs.
    job_s = {job_id: statistics.median(v) for job_id, v in ref_s.items()}
    records = [r for r in children if r["job"] is not None]
    rss: dict = {}
    for r in records:
        rss[r["job"]] = max(rss.get(r["job"], 0.0), r["maxrss_mb"])
    points = sum(job.points for job in jobs)
    metrics = {
        "setup_s": statistics.median(setup_ref_s),
        "points_per_s": points / sum(job_s.values()),
        "slowest_job_s": max(job_s.values()),
        "peak_rss_mb": max(rss.values()),
    }
    detail = {"host_speed": speeds,
              "setup_runs": [r for r in children if r["job"] is None],
              "records": records, "job_ref_s": job_s, "peak_rss_mb": rss}
    return metrics, detail


def measure_per_layer(runner: Runner, jobs: list) -> tuple:
    runner.setup()
    untraced, _ = runner.run_pass(jobs)
    traced = [runner.run_pass(jobs, traced=True) for _ in range(2)]
    tallies = [layers.tally(docs) for _, docs in traced]
    counts = [layers.counts(acc) for acc in tallies]
    if counts[0] != counts[1]:
        moved = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        runner.problems.append(f"per-layer counts differ between two traced "
                               f"passes: {', '.join(moved)}")
    times = [layers.times(acc) for acc in tallies]
    metrics = dict(counts[0])
    for name in times[0]:
        metrics[name] = statistics.mean(t[name] for t in times)
    traced_wall = statistics.mean(sum(r["wall_s"] for r in records)
                                  for records, _ in traced)
    metrics["trace.overhead_ratio"] = traced_wall / sum(r["wall_s"] for r in untraced)
    metrics["run.max_rss_mb"] = max(r["maxrss_mb"] for r in untraced)
    metrics["run.ops"] = runner.ops
    metrics["run.ops_failed"] = runner.failed
    metrics["run.fail_ratio"] = runner.failed / runner.ops
    detail = {"passes": [untraced] + [records for records, _ in traced]}
    return metrics, detail


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "git_commit": _git_commit(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "koshliakov" / "cli.py").is_file():
        print(f"error: no koshliakov sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics, detail = measure_per_layer(runner, jobs)
            units = PER_LAYER
        else:
            metrics, detail = measure_end_to_end(runner, jobs, args.seconds)
            units = END_TO_END
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": not runner.problems,
        "attempted": runner.ops,
        "failed": runner.failed,
        "metrics": {name: {"value": int(metrics[name]) if unit == "count"
                           else metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"environment": environment(args),
              "jobs": [{"id": j.job_id, "argv": list(j.argv)} for j in jobs],
              "result": result, "problems": runner.problems,
              "failures": runner.failures, **detail}
    out = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for problem in runner.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"ops {runner.ops}, failed {runner.failed}; result file {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Stopped from outside, the runner still kills and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
