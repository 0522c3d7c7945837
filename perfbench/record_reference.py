"""Record `reference_seed0.json`: the lhs/rhs of every seed-0 command.

    python3 perfbench/record_reference.py

The checks compare later outputs against these values, so re-record only
when a change is meant to move them, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import checks
from jobs import WORKLOADS, make_jobs
from run import REFERENCE, Runner


def main() -> int:
    runner = Runner(time.perf_counter() + 3600.0)
    runner.setup()
    reference = {}
    for workload in WORKLOADS:
        for job in make_jobs(workload, 0):
            res = runner.spawn(runner.cli(job.argv))
            outcome = checks.check(job, res["rc"], res["stdout"],
                                   runner.tolerances, {})
            if outcome.problems:
                print("\n".join(outcome.problems), file=sys.stderr)
                return 1
            reference[job.key] = checks.reference_entry(job, res["stdout"])
            print(f"{res['wall_s']:6.2f}s  {job.key}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
