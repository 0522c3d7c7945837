"""How fast the host runs right now, relative to a fixed reference host.

Other tenants of the host change its speed by up to 1.8x from minute to
minute, and a whole 36-second run can fall into a slow stretch, so raw
wall times move from run to run whatever the program does.  The runner
therefore times three fixed kernels, the benchmark's own code, before and
after every child process, and scales the child's wall time by how much
slower than the reference they ran.  The kernels stress what the CLI
stresses, each in its own way, because a slowdown does not hit them all
alike:

- `interpreter`: a pure-Python float loop (the CLI's per-point Python code);
- `vector`: tanh-sinh-style sums of a Bessel-type integrand over 801 nodes
  with numpy (the quadrature layer);
- `memory`: random gathers from a 16 MB table (cache misses).

The reference host is one on which the kernels take the seconds in
`speed_kernels.REFERENCE` (round figures near their medians on a 2-vCPU
Xeon VM).  On such a host a child reads its wall time.  A change to the
program moves the child's time, not the scale.

The kernels run in a helper process (`speed_kernels.py`), idle while a
child runs, not in the runner: a child's max RSS includes the RSS of the
process that started it, so the runner must not hold numpy and the
16 MB table.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

KERNELS = Path(__file__).resolve().parent / "speed_kernels.py"


def scaled_s(wall_s: float, before: dict, after: dict) -> float:
    """A child's wall time on the reference host, given the kernels timed
    just before and just after it."""
    return wall_s / ((before["slowness"] + after["slowness"]) / 2)


class Helper:
    """The runner's side of the helper process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(KERNELS)], env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def slowness(self) -> dict:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the host-speed helper exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
