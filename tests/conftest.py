import json
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from koshliakov import kernels, quadrature
from koshliakov.errors import DomainError, PoleError

# Property tests draw the same examples on every run, so a tier-1 result
# over quadrature tolerances does not depend on the run; no deadline,
# because a cold first call pays for numpy and the special functions.
settings.register_profile("koshliakov", derandomize=True, deadline=None)
settings.load_profile("koshliakov")

_DATA = os.path.join(os.path.dirname(__file__), "data", "golden.json")


def load_golden() -> dict:
    """name -> complex, parsed from the 40-digit decimal strings."""
    with open(_DATA) as fh:
        doc = json.load(fh)
    return {name: complex(float(entry["re"]), float(entry["im"]))
            for name, entry in doc["values"].items()}


@pytest.fixture(scope="session")
def golden() -> dict:
    return load_golden()


def rel_err(value, reference) -> float:
    value, reference = complex(value), complex(reference)
    return abs(value - reference) / max(abs(reference), 1e-300)


def omega_partial_fractions(x: float, z, n_terms: int = 500) -> complex:
    """Omega(x, z) by partial fractions at any x < n_terms + 1: the paper's
    lemma sets it equal to the K-series definition (kernels._omega_definition)."""
    z, x = complex(z), np.array([float(x)])
    pole = kernels.riemann_zeta(z) * x ** (0.5 * z - 1.0) / (2.0 * math.pi)
    return complex((kernels._omega_pf(x, z, n_terms) + pole)[0])


def hurwitz_zeta_hermite(w, a) -> complex:
    """zeta(w, a) by Hermite's integral for real a > 0: the independent
    cross-check of the library's Euler-Maclaurin path.  The integrand
    decays like exp(-2 pi t)."""
    w = complex(w)
    a = float(a)
    if a <= 0.0:
        raise DomainError("hurwitz_zeta_hermite requires real a > 0")
    if abs(w - 1.0) < 1e-12:
        raise PoleError("hurwitz zeta pole at w=1")

    def integrand(t):
        t = np.asarray(t, dtype=float)
        phase = np.arctan2(t, a)
        num = np.sin(w * phase)
        den = np.power(a * a + t * t, 0.5 * w) * np.expm1(2.0 * math.pi * t)
        return num / den

    # For t >= 1: |sin(w phase)| <= cosh(|Im w| pi/2) as 0 < phase < pi/2,
    # a^2 + t^2 <= (a^2 + 1) t^2, and 1/(e^{2 pi t} - 1) <= e^{-2 pi t} /
    # (1 - e^{-2 pi}): the tail bound of the 1/(e^{2 pi t}-1) factor.
    bound = (math.cosh(0.5 * math.pi * abs(w.imag)) * (a * a + 1.0) ** (-0.5 * w.real)
             / -math.expm1(-2.0 * math.pi))
    res = quadrature.integrate_half_line(
        integrand, (bound, max(0.0, -w.real), 2.0 * math.pi),
        quadrature.QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    main = 0.5 * a ** (-w) + a ** (1.0 - w) / (w - 1.0)
    return main + 2.0 * res.value
