"""Divisor sums sigma_a(n) for complex exponents, plus sieve-built arrays."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, LimitError

# A table of complex128 entries at this size is ~160 MB; anything bigger
# than that is a caller bug, not a workload.
_TABLE_LIMIT = 10_000_000


def sigma(a, n: int) -> complex:
    """sigma_a(n) = sum of d**a over the divisors d of n, by trial division to sqrt(n)."""
    n = int(n)
    if n < 1:
        raise DomainError("sigma requires n >= 1")
    if math.isqrt(n) > _TABLE_LIMIT:
        raise LimitError(f"trial division to sqrt({n}) exceeds the {_TABLE_LIMIT} bound")
    a = complex(a)
    total = 0.0 + 0.0j
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += complex(d) ** a
            q = n // d
            if q != d:
                total += complex(q) ** a
        d += 1
    if a.imag == 0.0:
        total = complex(total.real, 0.0)
    return total


def build_table(a, n_max: int) -> np.ndarray:
    """sigma_a(1..n_max) as a complex array (entry n - 1 is sigma_a(n)),
    by a sieve: each divisor d adds d**a to its multiples, O(N log N)
    additions with one power per d."""
    n_max = int(n_max)
    if n_max < 1:
        raise DomainError("build_table requires n_max >= 1")
    if n_max > _TABLE_LIMIT:
        raise LimitError(f"table size {n_max} exceeds the {_TABLE_LIMIT} bound")
    a = complex(a)
    vals = np.zeros(n_max, dtype=complex)
    for d in range(1, n_max + 1):
        vals[d - 1::d] += complex(d) ** a
    if a.imag == 0.0:
        vals = vals.real + 0.0j
    return vals
