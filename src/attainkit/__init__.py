"""attain-kit: decide attainability for a family of Sobolev-type
maximization problems, compute the associated sharp constants and
threshold weights, and construct explicit maximizer profiles.

The half-line reduction is the backbone: the supremum of the functional
equals the supremum of an explicit scalar curve on (0, inf), and a
maximizer exists exactly when that curve attains its supremum in the
interior.  Modules:

* ``params``    — parameter validation and regime selection
* ``curves``    — ``CurveParams``, the exponent tuple that fixes one
  problem's objective and ratio curves, their evaluators and boundary
  limits
* ``halfline``  — the curves' derivative sign functions, and their optima
  on (0, inf) by root-finding on those signs
* ``constants`` — sharp Sobolev constant (closed form), interpolation
  constant (ground-state shooting), fractional constant (user input)
* ``classify``  — thresholds, the attainability decision table and the
  explicit maximizer (``maximizer``)
* ``profiles``  — radial profiles, norms (the bubble's in closed form),
  bubbles, truncations, orbit curves
* ``verify``    — cross-cutting consistency checks
* ``cli``       — the ``attain-kit`` command
"""

import os as _os

# Cap numeric thread pools before the numeric stack initializes.
_cap = _os.environ.get("ATTAIN_KIT_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .classify import (ConstantSet, Maximizer, Reason, Verdict, classify,
                       log_kappa_multiplier, maximizer, resolve_constants,
                       threshold_alpha)
from .constants import (SharpConstant, fractional_constant,
                        gns_constant_estimate, sobolev_constant)
from .curves import CurveParams, f_at_log_t, g_at_log_t
from .errors import (DivergentNormError, NearCriticalWarning, NumericalError,
                     ParamError)
from .halfline import OptResult, maximize_halfline, minimize_halfline
from .params import (Exponents, ProblemParams, Regime, critical_exponent,
                     extremal_in_energy_space, fractional_critical_exponent,
                     fractional_gamma_threshold_exponent,
                     gamma_threshold_exponent)
from .profiles import (Norms, NormValue, RadialProfile, bubble_norms,
                       build_truncated, build_u_star, dilate, log_lambda,
                       norms, orbit_curve, random_profiles, sphere_area)
from .verify import (CheckReport, run_all, run_derivative_checks,
                     run_envelope, run_monotonicity_scan, run_truth_table)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ConstantSet", "CurveParams", "DivergentNormError",
    "Exponents", "Maximizer", "NearCriticalWarning", "NormValue",
    "Norms", "NumericalError", "OptResult",
    "ParamError", "ProblemParams", "RadialProfile", "Reason", "Regime",
    "SharpConstant", "Verdict",
    "bubble_norms", "build_truncated", "build_u_star", "classify",
    "critical_exponent", "dilate",
    "extremal_in_energy_space", "f_at_log_t",
    "fractional_constant", "fractional_critical_exponent",
    "fractional_gamma_threshold_exponent", "g_at_log_t",
    "gamma_threshold_exponent", "gns_constant_estimate",
    "log_kappa_multiplier", "log_lambda",
    "maximize_halfline", "maximizer", "minimize_halfline", "norms", "orbit_curve",
    "random_profiles", "resolve_constants",
    "run_all", "run_derivative_checks", "run_envelope",
    "run_monotonicity_scan", "run_truth_table",
    "sobolev_constant", "sphere_area", "threshold_alpha",
]
