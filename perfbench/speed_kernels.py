"""The host-speed kernels; run as a helper process by `hostspeed.Helper`.

    python3 perfbench/speed_kernels.py

Each line read from standard input runs the three kernels once and prints
one JSON line: the seconds each took and their mean slowness.  See
`hostspeed.py` for why they exist and what each stands for.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

import numpy as np

_NODES = np.linspace(-4.0, 4.0, 801)
_TABLE = np.random.default_rng(0).random(1 << 21)
_INDEX = np.random.default_rng(1).integers(0, 1 << 21, 1 << 18)


def interpreter() -> float:
    acc = 0.0
    for k in range(150_000):
        acc += math.sin(k * 1e-3) * (k & 7)
    return acc


def vector() -> float:
    acc = 0.0
    for i in range(160):
        x = 0.1 + 0.025 * i
        for nu in (0.0, 0.5, 1.3):
            u = (math.pi / 2) * np.sinh(_NODES)
            w = (math.pi / 2) * np.cosh(_NODES) / np.cosh(u) ** 2
            s = 3.0 * (1.0 + np.tanh(u))
            acc += float(np.sum(w * np.exp(-x * np.cosh(s)) * np.cosh(nu * s)))
    return acc


def memory() -> float:
    acc = 0.0
    for _ in range(12):
        acc += float(_TABLE[_INDEX].sum())
    return acc


# Seconds each kernel takes on the reference host.
REFERENCE = {interpreter: 0.025, vector: 0.018, memory: 0.028}


def slowness() -> dict:
    """Seconds each kernel takes now, and their mean over the reference
    seconds (`"slowness"`: 1 on the reference host, 2 on one half as fast)."""
    times = {}
    for kernel in REFERENCE:
        t0 = time.perf_counter()
        kernel()
        times[kernel.__name__] = time.perf_counter() - t0
    times["slowness"] = statistics.mean(
        times[k.__name__] / ref for k, ref in REFERENCE.items())
    return times


def main() -> int:
    for _ in sys.stdin:
        print(json.dumps(slowness()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
