"""Attainability decision tables for the constrained maximization problem.

Given validated problem parameters and the relevant sharp constant, this
module answers the questions the one-dimensional reduction makes
answerable exactly:

* ``threshold_alpha`` -- the smallest weight (if any) at which maximizers
  can exist, computed from the infimum of the ratio curve divided by the
  sharp constant, with closed forms used where they exist;
* ``classify`` -- the full verdict: attained or not, why, where, and the
  supremum D of the functional, computed from the maximum of the
  objective curve and cross-checked against closed forms.

Boundary cases (gamma at an endpoint, alpha exactly at the threshold) are
decided analytically by the decision table, never by comparing two nearly
equal floating-point optimizer outputs: the numeric layer flags such ties
as marginal and this module breaks them by rule.

One ``classify`` call validates the parameters once (``ProblemParams``
caches its ``Exponents``, the regime with its upper gamma boundary
``gamma_crit``, and every decision below reads that one record), resolves
the constant once, locates gamma once and builds one ``CurveParams``,
whose ratio curve gives the threshold (it does not read kappa) and whose
objective curve gives D.  Which constant a regime reads is decided in one
table, ``_CONSTANT_FIELD``.  ``threshold_alpha`` applies ``classify``'s
threshold rule to the problem's curve at kappa = 0, so its answer never
depends on the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .constants import SharpConstant, gns_constant_estimate, sobolev_constant
from .curves import CurveParams, t_from_log
from .errors import NumericalError, ParamError
from .halfline import maximize_halfline, minimize_halfline
from .params import ProblemParams, Regime, extremal_in_energy_space

#: relative slack when comparing gamma against an exponent boundary
GAMMA_BOUNDARY_RTOL = 1e-12
#: relative slack when comparing alpha against the computed threshold
ALPHA_THRESHOLD_RTOL = 1e-11
#: required relative agreement between numeric and closed-form values
CLOSED_FORM_RTOL = 1e-9


class Reason(Enum):
    """Why a verdict holds.  Values double as the wire/JSON labels."""

    UNIQUE_INTERIOR_MAX = "UniqueInteriorMax"
    SOBOLEV_NOT_ATTAINED = "SobolevNotAttained"
    BELOW_THRESHOLD = "BelowThreshold"
    AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR = "AtThresholdCriticalGammaEqPstar"
    AT_THRESHOLD_GAMMA_EQ_GAMMA_C = "AtThresholdGammaEqGammaC"
    CONVEXITY_EXCLUSION = "ConvexityExclusion"
    ALPHA_ZERO = "AlphaZero"


@dataclass(frozen=True)
class Verdict:
    """Complete answer for one parameter point.

    attained       whether a maximizer exists
    reason         the decision-table rule that fired
    D              supremum of the functional (numeric, curve-based)
    threshold      critical weight alpha(gamma) (0 when none)
    log_t_star     log of the gradient-to-mass ratio t* of a maximizer,
                   exactly when the verdict is attained
    closed_form_D  closed-form value of D when the table provides one;
                   always within CLOSED_FORM_RTOL of D
    regime         which of the four problem families was classified
    """

    attained: bool
    reason: Reason
    D: float
    threshold: float
    log_t_star: float | None
    closed_form_D: float | None
    regime: Regime

    @property
    def t_star(self) -> float | None:
        """t* = exp(log_t_star) when a double holds it, else None."""
        return t_from_log(self.log_t_star)


@dataclass(frozen=True)
class ConstantSet:
    """Sharp constants a classification may need.

    sobolev        S, the sharp Sobolev constant (critical local regime)
    interpolation  B, the sharp interpolation constant (subcritical local)
    fractional     the user-supplied fractional constant (both fractional
                   regimes; there is no built-in way to compute it)
    """

    sobolev: SharpConstant | None = None
    interpolation: SharpConstant | None = None
    fractional: SharpConstant | None = None


#: the ConstantSet field each regime reads
_CONSTANT_FIELD = {
    Regime.CRITICAL_LOCAL: "sobolev",
    Regime.SUBCRITICAL_LOCAL: "interpolation",
    Regime.SUBCRITICAL_FRACTIONAL: "fractional",
    Regime.CRITICAL_FRACTIONAL: "fractional",
}


def resolve_constants(params: ProblemParams,
                      constants: ConstantSet | None = None) -> ConstantSet:
    """Fill in the constant the regime reads (``_CONSTANT_FIELD``) when it
    is absent and computable.

    The local constants are computed on demand (Sobolev in closed form,
    interpolation as the certified ground-state lower bound).  Fractional
    constants cannot be computed here and must be supplied; a missing one
    raises ``ParamError``.
    """
    cs = constants if constants is not None else ConstantSet()
    name = _CONSTANT_FIELD[params.regime()]
    if getattr(cs, name) is not None:
        return cs
    if name == "sobolev":
        return replace(cs, sobolev=sobolev_constant(params.N, params.p))
    if name == "interpolation":
        return replace(cs, interpolation=gns_constant_estimate(params.N, params.p, params.q))
    raise ParamError("constants", "fractional regimes need a user-supplied fractional "
                                  "constant in ConstantSet.fractional")


def kappa_multiplier(params: ProblemParams, constants: ConstantSet) -> float:
    """The factor C in kappa = alpha * C: the constant the regime reads
    (``_CONSTANT_FIELD``), raised to p* (``gamma_crit``) for the Sobolev
    constant of the critical local regime and taken as it is otherwise.
    """
    exps = params.exponents
    name = _CONSTANT_FIELD[exps.regime]
    constant = getattr(constants, name)
    if constant is None:
        raise ParamError("constants", f"the {exps.regime.value} regime needs ConstantSet.{name}")
    if name != "sobolev":
        return constant.value
    try:
        return constant.value ** exps.gamma_crit
    except OverflowError:
        log10_c = exps.gamma_crit * math.log10(constant.value)
        raise NumericalError(
            f"C = S^(p*) leaves the double range: log10 C = {log10_c!r}") from None


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def _gamma_band(params: ProblemParams) -> str:
    """Locate gamma among the regime's decision boundaries.

    Returns one of "le_base", "interior", "eq_upper", "gt_upper", where
    the upper boundary is ``gamma_crit``: the critical exponent (critical
    regimes) or the gamma-threshold exponent (subcritical regimes).
    Boundary equality is decided with a relative snap so that a
    user-entered gamma meant to hit an irrational boundary exactly is not
    misrouted by one ulp.
    """
    exps, gamma, p = params.exponents, params.gamma, params.p
    if _close(gamma, exps.gamma_crit, GAMMA_BOUNDARY_RTOL):
        return "eq_upper"
    if gamma > exps.gamma_crit:
        return "gt_upper"
    if exps.regime.is_critical and (gamma < p or _close(gamma, p, GAMMA_BOUNDARY_RTOL)):
        return "le_base"
    return "interior"


def _alpha_vs_threshold(alpha: float, threshold: float) -> int:
    """-1 below, 0 at (within snap), +1 above the threshold.

    The snap is relative to the two weights themselves: thresholds span
    hundreds of decades (1/C with C = S^(p*) reaches 1e49 as p nears N),
    so an absolute floor would call every small weight a tie.
    """
    if abs(alpha - threshold) <= ALPHA_THRESHOLD_RTOL * max(alpha, threshold):
        return 0
    return -1 if alpha < threshold else 1


def _threshold(cp: CurveParams, band: str, params: ProblemParams, C: float) -> float:
    """The threshold of the problem ``params``, whose curve is ``cp`` and
    gamma band ``band``; only the ratio curve is read, which does not depend
    on kappa."""
    if not 0 < C < math.inf:
        raise ParamError("constants", f"normalizing constant must be finite and positive, got {C}")
    if band == "gt_upper":
        return 0.0
    if band == "eq_upper":
        return params.p / (params.exponents.gamma_crit * C)
    if band == "le_base":  # critical regimes only
        return 1.0 / C
    # interior band (and subcritical gamma <= base): numeric infimum
    opt = minimize_halfline(cp)
    if not math.isfinite(opt.value) or opt.value <= 0:
        raise NumericalError(f"ratio-curve infimum came out {opt.value}")
    return opt.value / C


def threshold_alpha(params: ProblemParams,
                    constants: ConstantSet | None = None) -> float:
    """The critical weight alpha(gamma): infimum of the ratio curve over C.

    Closed forms are used where the decision table provides them (zero
    above the upper gamma boundary, base/(upper*C) on it, 1/C at or below
    the base exponent in critical regimes); elsewhere the infimum is
    computed numerically.  The result is 0 exactly when every positive
    weight admits a maximizer.  It is ``classify``'s threshold rule applied
    to the curve at kappa = 0: the ratio curve does not read kappa, so the
    weight never enters (a negative weight is still refused).
    """
    C = kappa_multiplier(params, resolve_constants(params, constants))
    return _threshold(CurveParams.from_problem(params, 0.0), _gamma_band(params), params, C)


def _closed_form_d(cp: CurveParams, regime: Regime, band: str,
                   rel_alpha: int) -> float | None:
    """Closed-form D where the decision table provides one.

    Critical gamma <= base: max(1, kappa) at every alpha.  Any regime at
    or below its threshold (on or inside the upper gamma boundary): 1.
    """
    if regime.is_critical and band == "le_base":
        return max(1.0, cp.kappa)
    if band in ("eq_upper", "interior") and rel_alpha <= 0:
        return 1.0
    return None


def classify(params: ProblemParams,
             constants: ConstantSet | None = None) -> Verdict:
    """Full attainability verdict for one parameter point.

    Decision order: the energy-space obstruction in critical regimes
    (the optimal bubble fails to be admissible, so no weight or exponent
    rescues attainment) is checked first; a zero weight is refused next;
    then gamma is located against the regime's boundaries and alpha
    against the threshold, with equalities resolved by the analytic table
    rather than by floating-point optimizer ties.  The objective curve is
    maximized once: its maximum is D and its maximizer is t*.
    """
    regime = params.regime()
    C = kappa_multiplier(params, resolve_constants(params, constants))
    band = _gamma_band(params)
    cp = CurveParams.from_problem(params, C)
    thr = _threshold(cp, band, params, C)
    opt = maximize_halfline(cp)
    D = opt.value
    if not math.isfinite(D) or D <= 0:
        raise NumericalError(f"objective-curve supremum came out {D}")
    rel_alpha = _alpha_vs_threshold(params.alpha, thr)

    def verdict(attained: bool, reason: Reason, cf: float | None) -> Verdict:
        if cf is not None and not _close(D, cf, CLOSED_FORM_RTOL):
            raise NumericalError(
                f"numeric D={D!r} disagrees with closed form {cf!r} "
                f"beyond relative {CLOSED_FORM_RTOL}")
        # at an exact threshold tie the optimizer reports a marginal result
        # whose candidate is still f's interior stationary point
        if attained and opt.log_argopt is None:
            raise NumericalError(
                "verdict says attained but the objective curve has no interior maximum")
        return Verdict(attained=attained, reason=reason, D=D, threshold=thr,
                       log_t_star=opt.log_argopt if attained else None,
                       closed_form_D=cf, regime=regime)

    cf = _closed_form_d(cp, regime, band, rel_alpha)

    if regime.is_critical and not extremal_in_energy_space(params):
        return verdict(False, Reason.SOBOLEV_NOT_ATTAINED, cf)
    if params.alpha == 0.0:
        return verdict(False, Reason.ALPHA_ZERO, 1.0)

    if band == "gt_upper":
        # threshold is zero: every positive weight admits a maximizer
        return verdict(True, Reason.UNIQUE_INTERIOR_MAX, cf)
    if band == "le_base":
        # critical regimes only: convexity excludes attainment at every alpha
        return verdict(False, Reason.CONVEXITY_EXCLUSION, cf)
    if band == "eq_upper":
        # on the upper gamma boundary equality with the threshold loses
        if rel_alpha > 0:
            return verdict(True, Reason.UNIQUE_INTERIOR_MAX, cf)
        if rel_alpha == 0:
            at = (Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR if regime.is_critical
                  else Reason.AT_THRESHOLD_GAMMA_EQ_GAMMA_C)
            return verdict(False, at, cf)
        return verdict(False, Reason.BELOW_THRESHOLD, cf)
    # interior band: equality with the threshold wins
    if rel_alpha >= 0:
        return verdict(True, Reason.UNIQUE_INTERIOR_MAX, cf)
    return verdict(False, Reason.BELOW_THRESHOLD, cf)
