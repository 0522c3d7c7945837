"""Numerical verification of Koshliakov-kernel identities for the
Riemann and Hurwitz zeta functions.

The package stacks four layers: scalar special functions (`specfun`),
divisor-sum arithmetic (`arith`), adaptive quadrature (`quadrature`),
and the kernel/identity layer (`kernels`, `identities`) whose verifiers
return immutable reports with explicit error budgets.  `cli` wraps the
registry for shell use; `reporting` renders reports to JSON/CSV/SVG.
"""

from .arith import build_table, sigma
from .errors import (ConvergenceError, DecayError, DomainError,
                     KoshliakovError, LimitError, PoleError)
from .identities import (IDENTITIES, IdentityEntry, VerificationReport,
                         verify_bessel_hurwitz_sum, verify_hurwitz_corollary,
                         verify_hurwitz_corollary_z0, verify_hurwitz_modular,
                         verify_laplace_bessel, verify_mellin_k,
                         verify_omega_laplace, verify_omega_modular,
                         verify_omega_self_reciprocal,
                         verify_pair_reciprocity, verify_rg_corollary,
                         verify_rg_corollary_z0, verify_rg_formula)
from .kernels import (ReciprocalPair, first_koshliakov_transform,
                      koshliakov_kernel, lambda_fn, lambda_sum, omega,
                      omega_combination, pair_dixon_ferrar, pair_k_bessel,
                      theta_eval, transform_kernel)
from .quadrature import (ExpDecay, QuadratureResult, QuadratureSpec,
                         integrate_finite, integrate_half_line,
                         integrate_semi_infinite, tanh_sinh)
from .specfun import (EULER_GAMMA, bessel_j, bessel_k, bessel_y, big_xi,
                      digamma, exp_integral_ei, exp_integral_li, gamma,
                      hurwitz_zeta, log_gamma, riemann_zeta, xi)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA", "IDENTITIES", "IdentityEntry", "ConvergenceError",
    "DecayError", "DomainError", "ExpDecay",
    "KoshliakovError", "LimitError", "PoleError",
    "QuadratureResult", "QuadratureSpec", "ReciprocalPair",
    "VerificationReport", "bessel_j", "bessel_k",
    "bessel_y", "big_xi", "build_table", "digamma",
    "exp_integral_ei", "exp_integral_li", "first_koshliakov_transform",
    "gamma", "hurwitz_zeta", "integrate_finite",
    "integrate_half_line", "integrate_semi_infinite",
    "koshliakov_kernel", "lambda_fn", "lambda_sum", "log_gamma",
    "omega", "omega_combination", "pair_dixon_ferrar", "pair_k_bessel",
    "riemann_zeta", "sigma", "tanh_sinh", "theta_eval", "transform_kernel",
    "verify_bessel_hurwitz_sum", "verify_hurwitz_corollary",
    "verify_hurwitz_corollary_z0", "verify_hurwitz_modular",
    "verify_laplace_bessel", "verify_mellin_k", "verify_omega_laplace",
    "verify_omega_modular", "verify_omega_self_reciprocal",
    "verify_pair_reciprocity", "verify_rg_corollary",
    "verify_rg_corollary_z0", "verify_rg_formula", "xi",
]
