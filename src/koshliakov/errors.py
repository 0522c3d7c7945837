"""Error taxonomy for the numerical layer.

Poles, domain violations and convergence failures are reported as typed
exceptions, never as NaN/Inf return values.  The CLI prints their
message and exits 3, except where a sweep records a failed row instead.
"""

from __future__ import annotations


class KoshliakovError(Exception):
    """Base class for all library errors."""


class PoleError(KoshliakovError):
    """Evaluation requested at (or within tolerance of) a pole."""


class DomainError(KoshliakovError):
    """Argument outside the documented domain of the operation."""


class LimitError(KoshliakovError):
    """Requested size exceeds a configured resource bound."""


class ConvergenceError(KoshliakovError):
    """Quadrature or series failed to meet the error budget within the
    allowed work."""


class DecayError(KoshliakovError):
    """Supplied tail-decay model cannot certify a finite truncation."""
