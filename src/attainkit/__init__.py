"""attain-kit: decide attainability for a family of Sobolev-type
maximization problems, compute the associated sharp constants and
threshold weights, and construct explicit maximizer profiles.

The half-line reduction is the backbone: the supremum of the functional
equals the supremum of an explicit scalar curve on (0, inf), and a
maximizer exists exactly when that curve attains its supremum in the
interior.  Modules:

* ``params``    — parameter validation and regime selection
* ``curves``    — the scalar objective/ratio curves and their derivative
  sign factors
* ``halfline``  — the curves' optima on (0, inf), by root-finding on the
  derivative signs
* ``constants`` — sharp Sobolev constant (closed form), interpolation
  constant (ground-state shooting), fractional constant (user input)
* ``classify``  — thresholds and the attainability decision table
* ``profiles``  — radial profiles, norms, bubbles, truncations
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

from .classify import (ConstantSet, Reason, ThresholdCurve, Verdict, classify,
                       d_value, kappa_multiplier, resolve_constants,
                       threshold_alpha, threshold_curve)
from .constants import (SharpConstant, fractional_constant,
                        gns_constant_estimate, sobolev_constant, sphere_area)
from .curves import (CurveParams, ScalarCurve, h_factor, m_factor,
                     objective_curve, ratio_curve, sample_rows, s_of_t,
                     t_of_s, value_f, value_g, value_l)
from .errors import (DivergentNormError, NearCriticalWarning,
                     NormalizationError, NumericalError, ParamError)
from .halfline import (OptResult, maximize_halfline, minimize_halfline,
                       stationary_points)
from .params import (Exponents, ProblemParams, Regime, critical_exponent,
                     exponents, extremal_in_energy_space,
                     fractional_critical_exponent,
                     fractional_gamma_threshold_exponent,
                     gamma_threshold_exponent)
from .profiles import (Norms, NormValue, RadialProfile, Tail, build_truncated,
                       build_u_star, build_w_lambda, dilate,
                       evaluate_I, evaluate_J, log_lambda,
                       normalize_scaled, norms, random_profiles,
                       scale_amplitude, smoothstep_cutoff,
                       smoothstep_cutoff_deriv, t_of)
from .verify import (CheckReport, run_all, run_derivative_checks,
                     run_envelope, run_monotonicity_scan, run_truth_table)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ConstantSet", "CurveParams", "DivergentNormError",
    "Exponents", "NearCriticalWarning", "NormValue",
    "NormalizationError", "Norms", "NumericalError", "OptResult",
    "ParamError", "ProblemParams", "RadialProfile", "Reason", "Regime",
    "ScalarCurve", "SharpConstant", "Tail", "ThresholdCurve", "Verdict",
    "build_truncated", "build_u_star", "build_w_lambda", "classify",
    "critical_exponent", "d_value", "dilate", "evaluate_I", "evaluate_J",
    "exponents", "extremal_in_energy_space", "fractional_constant",
    "fractional_critical_exponent", "fractional_gamma_threshold_exponent",
    "gamma_threshold_exponent", "gns_constant_estimate",
    "h_factor", "kappa_multiplier", "log_lambda", "m_factor",
    "maximize_halfline", "minimize_halfline", "normalize_scaled", "norms",
    "objective_curve", "random_profiles", "ratio_curve", "resolve_constants",
    "run_all", "run_derivative_checks", "run_envelope",
    "run_monotonicity_scan", "run_truth_table", "s_of_t", "sample_rows",
    "scale_amplitude", "smoothstep_cutoff", "smoothstep_cutoff_deriv",
    "sobolev_constant",
    "sphere_area", "stationary_points", "t_of", "t_of_s", "threshold_alpha",
    "threshold_curve", "value_f", "value_g", "value_l",
]
