"""Attainability decision tables for the constrained maximization problem.

Given validated problem parameters and the relevant sharp constant, this
module answers the questions the one-dimensional reduction makes
answerable exactly:

* ``threshold_alpha`` -- the smallest weight (if any) at which maximizers
  can exist, computed from the infimum of the ratio curve divided by the
  sharp constant, with closed forms used where they exist;
* ``classify`` -- the full verdict: attained or not, why, where, and the
  supremum D of the functional, computed from the maximum of the
  objective curve and cross-checked against closed forms;
* ``maximizer`` -- the verdict and, where attained, the explicit maximizer
  (the dilated optimal bubble), its profile table and its J checked against D.

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

import numpy as np

from .constants import SharpConstant, gns_constant_estimate, sobolev_constant
from .curves import CurveParams, f_at_log_t, t_from_log
from .errors import NumericalError, ParamError
from .halfline import maximize_halfline, minimize_halfline
from .params import ProblemParams, Regime, extremal_in_energy_space
from .profiles import RadialProfile, bubble_norms, build_w_lambda, log_lambda, orbit_curve

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


def log_kappa_multiplier(params: ProblemParams, constants: ConstantSet) -> float:
    """log C, C the factor in kappa = alpha * C: the constant the regime
    reads (``_CONSTANT_FIELD``), raised to p* (``gamma_crit``) for the
    Sobolev constant of the critical local regime (C reaches 1e585 as p
    nears N) and taken as it is otherwise.

    A computed constant names its problem in ``meta`` (N and p, and q for
    the interpolation constant); one named for another problem, or one not
    finite and positive, raises ``ParamError``.  A user-supplied constant
    names none and is taken.
    """
    exps = params.exponents
    name = _CONSTANT_FIELD[exps.regime]
    constant = getattr(constants, name)
    if constant is None:
        raise ParamError("constants", f"the {exps.regime.value} regime needs ConstantSet.{name}")
    meta = constant.meta
    if (meta.get("N", params.N) != params.N or meta.get("p", params.p) != params.p
            or (name == "interpolation" and meta.get("q", params.q) != params.q)):
        named = ", ".join(f"{k}={meta[k]}" for k in ("N", "p", "q") if k in meta)
        raise ParamError("constants", f"ConstantSet.{name} was resolved for {named}, not for "
                                      f"N={params.N}, p={params.p}, q={params.q}")
    if not 0 < constant.value < math.inf:
        raise ParamError("constants", "normalizing constant must be finite and positive, "
                                      f"got {constant.value}")
    return (exps.gamma_crit if name == "sobolev" else 1.0) * math.log(constant.value)


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


def _alpha_vs_threshold(alpha: float, log_thr: float) -> int:
    """-1 below, 0 at (within snap), +1 above the threshold e^log_thr.

    The snap is relative to the two weights themselves: thresholds span
    hundreds of decades (1/C with C = S^(p*) reaches 1e-585 as p nears N),
    so an absolute floor would call every small weight a tie.
    """
    log_alpha = math.log(alpha) if alpha > 0 else -math.inf
    if log_alpha == log_thr or abs(log_alpha - log_thr) <= -math.log1p(-ALPHA_THRESHOLD_RTOL):
        return 0
    return -1 if log_alpha < log_thr else 1


def _log_threshold(cp: CurveParams, band: str, params: ProblemParams, log_C: float) -> float:
    """log threshold of the problem ``params``, whose curve is ``cp`` and
    gamma band ``band``; -inf only above the upper gamma boundary.  Only the
    ratio curve is read, which does not depend on kappa."""
    if band == "gt_upper":
        return -math.inf
    if band == "eq_upper":
        return math.log(params.p / params.exponents.gamma_crit) - log_C
    if band == "le_base":  # critical regimes only
        return -log_C
    # interior band (and subcritical gamma <= base): numeric infimum
    return minimize_halfline(cp).log_value - log_C


def _fill(name: str, log_value: float) -> float:
    """The ``Verdict`` field ``name`` from its log: 0.0 for -inf, else e^log_value
    where a double holds it (``t_from_log``), else a ``NumericalError``."""
    value = 0.0 if log_value == -math.inf else t_from_log(log_value)
    if value is None:
        raise NumericalError(f"{name} leaves the double range: "
                             f"log10 {name} = {log_value / math.log(10.0)!r}")
    return value


def threshold_alpha(params: ProblemParams,
                    constants: ConstantSet | None = None) -> float:
    """The critical weight alpha(gamma): infimum of the ratio curve over C.

    Closed forms are used where the decision table provides them (zero
    above the upper gamma boundary, base/(upper*C) on it, 1/C at or below
    the base exponent in critical regimes); elsewhere the infimum is
    computed numerically.  The result is 0 exactly when every positive
    weight admits a maximizer.  It is ``classify``'s threshold rule applied
    to the curve at kappa = 0: the ratio curve does not read kappa, so the
    weight never enters (a negative weight is still refused).  One no double
    holds is a ``NumericalError`` (``_fill``)."""
    log_C = log_kappa_multiplier(params, resolve_constants(params, constants))
    cp = CurveParams.from_problem(params, log_C=-math.inf)
    return _fill("threshold", _log_threshold(cp, _gamma_band(params), params, log_C))


def _log_closed_form_d(cp: CurveParams, regime: Regime, band: str,
                       rel_alpha: int) -> float | None:
    """log of the closed-form D where the decision table provides one.

    Critical gamma <= base: max(1, kappa) at every alpha.  Any regime at
    or below its threshold (on or inside the upper gamma boundary): 1.
    """
    if regime.is_critical and band == "le_base":
        return max(0.0, cp.log_kappa)
    if band in ("eq_upper", "interior") and rel_alpha <= 0:
        return 0.0
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

    C, kappa, D and the threshold are logs until the ``Verdict`` is filled;
    a ``D`` or ``threshold`` no double holds is a ``NumericalError`` there.
    """
    regime = params.regime()
    log_C = log_kappa_multiplier(params, resolve_constants(params, constants))
    band = _gamma_band(params)
    cp = CurveParams.from_problem(params, log_C=log_C)
    log_thr = _log_threshold(cp, band, params, log_C)
    opt = maximize_halfline(cp)
    rel_alpha = _alpha_vs_threshold(params.alpha, log_thr)

    def verdict(attained: bool, reason: Reason, log_cf: float | None) -> Verdict:
        D = _fill("D", opt.log_value)
        cf = None if log_cf is None else _fill("closed_form_D", log_cf)
        if cf is not None and not abs(opt.log_value - log_cf) <= CLOSED_FORM_RTOL:
            raise NumericalError(
                f"numeric D={D!r} disagrees with closed form {cf!r} "
                f"beyond relative {CLOSED_FORM_RTOL}")
        # at an exact threshold tie the optimizer reports a marginal result
        # whose candidate is still f's interior stationary point
        if attained and opt.log_argopt is None:
            raise NumericalError(
                "verdict says attained but the objective curve has no interior maximum")
        return Verdict(attained=attained, reason=reason, D=D,
                       threshold=_fill("threshold", log_thr),
                       log_t_star=opt.log_argopt if attained else None,
                       closed_form_D=cf, regime=regime)

    log_cf = _log_closed_form_d(cp, regime, band, rel_alpha)

    if regime.is_critical and not extremal_in_energy_space(params):
        return verdict(False, Reason.SOBOLEV_NOT_ATTAINED, log_cf)
    if params.alpha == 0.0:
        return verdict(False, Reason.ALPHA_ZERO, 0.0)

    if band == "gt_upper":
        # threshold is zero: every positive weight admits a maximizer
        return verdict(True, Reason.UNIQUE_INTERIOR_MAX, log_cf)
    if band == "le_base":
        # critical regimes only: convexity excludes attainment at every alpha
        return verdict(False, Reason.CONVEXITY_EXCLUSION, log_cf)
    if band == "eq_upper":
        # on the upper gamma boundary equality with the threshold loses
        if rel_alpha > 0:
            return verdict(True, Reason.UNIQUE_INTERIOR_MAX, log_cf)
        if rel_alpha == 0:
            at = (Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR if regime.is_critical
                  else Reason.AT_THRESHOLD_GAMMA_EQ_GAMMA_C)
            return verdict(False, at, log_cf)
        return verdict(False, Reason.BELOW_THRESHOLD, log_cf)
    # interior band: equality with the threshold wins
    if rel_alpha >= 0:
        return verdict(True, Reason.UNIQUE_INTERIOR_MAX, log_cf)
    return verdict(False, Reason.BELOW_THRESHOLD, log_cf)


@dataclass(frozen=True, eq=False)  # r and u are arrays: records compare by identity
class Maximizer:
    """The explicit maximizer: ``profile`` is the optimal bubble u*'s
    normalized dilation to log t* (``build_w_lambda``), ``log_lambda`` the
    log of its dilation, ``J_check`` J on u*'s orbit at log t* (the curve at
    u*'s own Beta quotient, ``orbit_curve``), and ``r``, ``u`` its table at
    512 radii geomspace(1e-6, 1e4 lambda^(-1/N)), over the core and tail."""

    profile: RadialProfile
    log_lambda: float
    J_check: float
    r: np.ndarray
    u: np.ndarray


def maximizer(params: ProblemParams, constants: ConstantSet | None = None, *,
              tol: float = 1e-6) -> tuple[Verdict, Maximizer | None]:
    """The verdict and, when it is attained, the explicit maximizer.

    Only the critical local family has one (Talenti 1976): any other regime
    is a ``ParamError`` before a constant is resolved.  A table that leaves
    the double range, or a J_check more than ``tol`` relative from D (two
    closed forms of one number), is a ``NumericalError``."""
    if params.regime() is not Regime.CRITICAL_LOCAL:
        raise ParamError("params", "explicit maximizer profiles are available for the critical "
                                   "local family only; other regimes have no closed-form extremal")
    if not (math.isfinite(tol) and tol > 0):
        raise ParamError("tol", f"--tol must be finite and > 0, got {tol}")
    v = classify(params, constants)
    if not v.attained:
        return v, None
    N, p, gamma, log_t = params.N, params.p, params.gamma, v.log_t_star
    nm = bubble_norms(N, p, params.q)
    log_lam = log_lambda(log_t, nm, gamma, N)
    r_max = 1e4 * (t_from_log(-log_lam / N) or 0.0)
    if 1e-6 < r_max < math.inf:
        r = np.geomspace(1e-6, r_max, 512)
        w = build_w_lambda(N, p, gamma, nm, log_t=log_t)
        u = w.values(r)[0]
    if not (1e-6 < r_max < math.inf and np.all((0.0 < u) & (u < math.inf))):
        raise NumericalError(
            f"the maximizer needs log lambda = {log_lam!r}, where its profile "
            "table leaves the double range")
    j_check = f_at_log_t(orbit_curve(nm, params)[0], log_t)
    if abs(j_check - v.D) > tol * max(1.0, abs(v.D)):
        raise NumericalError(
            f"constructed maximizer evaluates to {j_check!r} but the "
            f"supremum is {v.D!r} (relative tolerance {tol})")
    return v, Maximizer(profile=w, log_lambda=log_lam, J_check=j_check, r=r, u=u)
