"""Cross-cutting consistency checks tying curves, classifier, and profiles.

Four deterministic checks, each returning a self-describing report:

* ``run_truth_table``    — replays the attainability decision on a grid of
  representative parameter cells (every regime, every exponent band, both
  sides of the threshold) and compares against the expected verdicts.
* ``run_envelope``       — random trial profiles never beat the scalar
  upper envelope; the normalized dilated bubbles meet it to quadrature
  accuracy; the truncated family in a non-attained regime climbs toward
  the supremum without crossing it.
* ``run_derivative_checks`` — the sign functions the half-line optimizer
  reads agree with central differences of the curves away from their
  roots, and each interior optimum is a sign change between adjacent
  doubles.
* ``run_monotonicity_scan`` — the threshold is non-increasing in the
  exponent, constant on the convexity band, strictly decreasing on the
  open band above it, continuous under shrinking perturbations, and
  matches its closed forms at both band endpoints.

Every report carries its tolerance, 0: each violation is already the
excess over its own allowance, so ``passed`` is exactly
``worst_violation <= 0``.  Each check builds its own problems and resolves
their sharp constants where it reads them (``resolve_constants``): the
Sobolev constants are closed forms, the fractional cells read
``DEFAULT_FRACTIONAL_CONSTANT``, and the one solve, the (2, 2, 4)
interpolation constant, happens once, in the truth table.  ``run_all``
executes the four checks with a fixed seed in well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import (ConstantSet, Reason, classify, log_kappa_multiplier,
                       resolve_constants, threshold_alpha)
from .constants import fractional_constant
from .curves import CurveParams, f_at_log_t, g_at_log_t
from .errors import DivergentNormError, NumericalError, ParamError
from .halfline import (maximize_halfline, minimize_halfline, objective_sign,
                       ratio_sign)
from .params import ProblemParams, critical_exponent
from .profiles import (bubble_norms, build_truncated, build_u_star, dilate, norms,
                       orbit_curve, random_profiles)

#: fractional smoothing constant used by the default truth-table cells;
#: an arbitrary positive user-supplied value (the checks only use ratios).
DEFAULT_FRACTIONAL_CONSTANT = 1.7


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``worst_violation`` is the largest excess over the per-case allowance
    (sub-tolerances are already subtracted; details list them), so the
    pass criterion is uniformly ``worst_violation <= tolerance``.
    """

    name: str
    passed: bool
    worst_violation: float
    n_cases: int
    tolerance: float
    details: tuple[str, ...] = ()

    @staticmethod
    def from_violations(name: str, violations: list[float], n_cases: int,
                        details: list[str]) -> "CheckReport":
        """A report whose violations already carry their allowances, so
        every check passes exactly when none exceeds zero."""
        worst = max(violations) if violations else float("-inf")
        return CheckReport(name=name, passed=bool(worst <= 0.0),
                           worst_violation=worst, n_cases=n_cases,
                           tolerance=0.0, details=tuple(details))


# -- truth table ----------------------------------------------------------

def _truth_cells():
    """(label, params, constant_set, expected_attained, expected_reason, expected_D).

    Each family resolves its constant once, from its own problem."""
    cells = []

    p5 = lambda g, a: ProblemParams.local_critical(N=5, p=2.0, gamma=g, alpha=a)
    cs5 = resolve_constants(p5(2.5, 1.0))
    C5 = math.exp(log_kappa_multiplier(p5(2.5, 1.0), cs5))
    thr_int = threshold_alpha(p5(3.0, 1.0), cs5)
    pstar5 = critical_exponent(5, 2.0)
    thr_star = threshold_alpha(p5(pstar5, 1.0), cs5)
    cells += [
        ("crit convexity, small alpha", p5(1.5, 0.5 / C5), cs5, False,
         Reason.CONVEXITY_EXCLUSION, 1.0),
        ("crit convexity, large alpha", p5(1.5, 2.0 / C5), cs5, False,
         Reason.CONVEXITY_EXCLUSION, 2.0),
        ("crit convexity at base exponent", p5(2.0, 1.0 / C5), cs5, False,
         Reason.CONVEXITY_EXCLUSION, 1.0),
        ("crit interior, below threshold", p5(3.0, 0.9 * thr_int), cs5, False,
         Reason.BELOW_THRESHOLD, 1.0),
        ("crit interior, at threshold", p5(3.0, thr_int), cs5, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("crit interior, above threshold", p5(3.0, 1.1 * thr_int), cs5, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("crit top exponent, below threshold", p5(pstar5, 0.9 * thr_star), cs5,
         False, Reason.BELOW_THRESHOLD, 1.0),
        ("crit top exponent, at threshold", p5(pstar5, thr_star), cs5, False,
         Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR, 1.0),
        ("crit top exponent, above threshold", p5(pstar5, 1.1 * thr_star), cs5,
         True, Reason.UNIQUE_INTERIOR_MAX, None),
        ("crit beyond top exponent, any alpha", p5(3.8, 0.05), cs5, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("crit beyond top exponent, alpha zero", p5(3.8, 0.0), cs5, False,
         Reason.ALPHA_ZERO, 1.0),
    ]

    p3 = lambda g, a: ProblemParams.local_critical(N=3, p=2.0, gamma=g, alpha=a)
    cs3 = resolve_constants(p3(3.0, 1.0))
    C3 = math.exp(log_kappa_multiplier(p3(3.0, 1.0), cs3))
    cells += [
        ("no-extremal dimension, huge alpha", p3(3.0, 1000.0), cs3, False,
         Reason.SOBOLEV_NOT_ATTAINED, None),
        ("no-extremal dimension, convexity band", p3(1.5, 2.0 / C3), cs3, False,
         Reason.SOBOLEV_NOT_ATTAINED, None),
        ("no-extremal dimension, alpha zero", p3(6.0, 0.0), cs3, False,
         Reason.SOBOLEV_NOT_ATTAINED, None),
    ]
    p4 = ProblemParams.local_critical(N=4, p=2.0, gamma=3.0, alpha=5.0)
    cells.append(("boundary dimension p*p = N", p4, None, False,
                  Reason.SOBOLEV_NOT_ATTAINED, None))

    p2 = lambda g, a: ProblemParams.local(N=2, p=2.0, q=4.0, gamma=g, alpha=a)
    cs2 = resolve_constants(p2(1.5, 1.0))  # the ground-state solve
    gc = p2(1.5, 1.0).exponents.gamma_crit
    thr_low = threshold_alpha(p2(1.0, 1.0), cs2)
    thr_mid = threshold_alpha(p2(1.5, 1.0), cs2)
    thr_gc = threshold_alpha(p2(gc, 1.0), cs2)
    cells += [
        ("subcrit low exponent, below threshold", p2(1.0, 0.9 * thr_low), cs2,
         False, Reason.BELOW_THRESHOLD, 1.0),
        ("subcrit low exponent, at threshold", p2(1.0, thr_low), cs2, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("subcrit interior, above threshold", p2(1.5, 1.1 * thr_mid), cs2, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("subcrit at top exponent, at threshold", p2(gc, thr_gc), cs2, False,
         Reason.AT_THRESHOLD_GAMMA_EQ_GAMMA_C, 1.0),
        ("subcrit at top exponent, above threshold", p2(gc, 1.1 * thr_gc), cs2,
         True, Reason.UNIQUE_INTERIOR_MAX, None),
        ("subcrit beyond top exponent, any alpha", p2(2.5, 0.01), cs2, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("subcrit beyond top exponent, alpha zero", p2(2.5, 0.0), cs2, False,
         Reason.ALPHA_ZERO, 1.0),
    ]

    csf = ConstantSet(fractional=fractional_constant(DEFAULT_FRACTIONAL_CONSTANT))
    S = csf.fractional.value
    pf = lambda g, b: ProblemParams.fractional_critical(N=5, s=0.6, gamma=g, alpha=b)
    qf = pf(2.3, 1.0).q
    thr_f = threshold_alpha(pf(2.3, 1.0), csf)
    thr_fq = threshold_alpha(pf(qf, 1.0), csf)
    pfs = lambda g, b: ProblemParams.fractional(N=5, s=0.6, q=2.2, gamma=g, alpha=b)
    gcf = pfs(0.5, 1.0).exponents.gamma_crit
    thr_fs = threshold_alpha(pfs(0.5, 1.0), csf)
    thr_fgc = threshold_alpha(pfs(gcf, 1.0), csf)
    cells += [
        ("frac convexity band", pf(1.5, 2.0 / S), csf, False,
         Reason.CONVEXITY_EXCLUSION, 2.0),
        ("frac interior, above threshold", pf(2.3, 1.1 * thr_f), csf, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("frac top exponent, at threshold", pf(qf, thr_fq), csf, False,
         Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR, 1.0),
        ("frac no-extremal smoothing, any alpha",
         ProblemParams.fractional_critical(N=3, s=0.8, gamma=2.3, alpha=5.0),
         csf, False, Reason.SOBOLEV_NOT_ATTAINED, None),
        ("frac subcrit, above threshold", pfs(0.5, 1.2 * thr_fs), csf, True,
         Reason.UNIQUE_INTERIOR_MAX, None),
        ("frac subcrit top exponent, at threshold", pfs(gcf, thr_fgc), csf,
         False, Reason.AT_THRESHOLD_GAMMA_EQ_GAMMA_C, 1.0),
    ]
    return cells


def run_truth_table() -> CheckReport:
    """Verdicts on representative cells match the expected decision table.

    The violation count is the number of mismatched cells (tolerance 0).
    """
    cells = _truth_cells()
    mismatches: list[str] = []
    for label, params, cset, want_attained, want_reason, want_d in cells:
        try:
            v = classify(params, constants=cset)
        except (ParamError, NumericalError, DivergentNormError) as exc:
            mismatches.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        problems = []
        if v.attained != want_attained:
            problems.append(f"attained={v.attained}, expected {want_attained}")
        if v.reason is not want_reason:
            problems.append(f"reason={v.reason.value}, expected {want_reason.value}")
        if want_d is not None and abs(v.D - want_d) > 1e-9 * max(1.0, want_d):
            problems.append(f"D={v.D!r}, expected {want_d!r}")
        if problems:
            mismatches.append(f"{label}: " + "; ".join(problems))
    return CheckReport.from_violations(
        name="truth_table",
        violations=[float(len(mismatches))],
        n_cases=len(cells),
        details=["each cell compares attained/reason (and D where closed-form)"]
                + mismatches[:10])


# -- envelope -------------------------------------------------------------

def run_envelope(n_profiles: int = 1000, seed: int = 2024) -> CheckReport:
    """No admissible profile beats the scalar envelope; test families behave.

    The random and bubble parts run on the N = 5 critical problem, the
    truncated family on N = 3, each with its own Sobolev constant.
    Three parts, each folded in as (measured - allowance):

    * random normalized profiles: J(u) - f(t(u)) <= 1e-8;
    * dilated-bubble family: |J - f(t)| relative error <= 1e-6 (equality
      case, limited only by quadrature);
    * truncated family in a no-extremal regime: values strictly below the
      supremum, increasing in the truncation radius, final relative gap
      below 1e-2.

    Every part reads J from ``orbit_curve``.  The random profiles are one
    family, and so are the bubble's explicit dilations (``dilate`` of an
    array of lam): each family costs one batched quadrature, and each cut
    bubble one.  The bubble family integrates each explicit dilation and
    compares it with the sharp-constant curve at the bubble's closed-form
    log t (``bubble_norms``) moved by gamma/N log lam, so it checks the
    dilation laws and Q(u*) = C by quadrature.
    """
    params = ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=1.0)
    cp = CurveParams.from_problem(
        params, log_C=log_kappa_multiplier(params, resolve_constants(params)))
    N, p, q, gamma = params.N, params.p, params.q, params.gamma

    violations: list[float] = []
    details: list[str] = []

    # J of each normalized profile is its own orbit curve at its own t
    orbits = [orbit_curve(nm, params)
              for nm in norms(random_profiles(n_profiles, N=N, seed=seed), p, q)]
    j_random = np.array([f_at_log_t(cp_u, log_t) for cp_u, log_t in orbits])
    log_ts = np.array([log_t for _, log_t in orbits])
    worst_random = float(np.max(j_random - f_at_log_t(cp, log_ts)))
    violations.append(worst_random - 1e-8)
    details.append(f"random profiles: worst J - f = {worst_random:.3e} (allow 1e-8)")

    _, log_ratio = orbit_curve(bubble_norms(N, p, q), params)
    worst_family = 0.0
    lams = np.geomspace(1e-3, 1e3, 50)
    for lam, nm in zip(lams, norms(dilate(build_u_star(N, p), lams, p), p, q)):
        j = f_at_log_t(*orbit_curve(nm, params))
        f = f_at_log_t(cp, gamma / N * math.log(lam) + log_ratio)
        worst_family = max(worst_family, abs(j - f) / max(1.0, abs(f)))
    violations.append(worst_family - 1e-6)
    details.append(f"bubble family: worst rel |J - f| = {worst_family:.3e} (allow 1e-6)")

    tr_params = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    tr_constants = resolve_constants(tr_params)
    tr_params = replace(tr_params, alpha=2.0 * threshold_alpha(tr_params, tr_constants))
    cp3 = CurveParams.from_problem(tr_params,
                                   log_C=log_kappa_multiplier(tr_params, tr_constants))
    opt = maximize_halfline(cp3)
    D = opt.value
    # J of each cut bubble's normalized dilation to t*, from one quadrature
    js = [f_at_log_t(orbit_curve(norms(build_truncated(3, 2.0, radius), 2.0, 6.0),
                                 tr_params)[0], opt.log_argopt)
          for radius in (10.0, 100.0, 1000.0)]
    violations.append(max(j - D for j in js))
    violations.append(max(a - b for a, b in zip(js, js[1:])))
    violations.append((D - js[-1]) / D - 1e-2)
    details.append(
        f"truncated family: J = {[f'{j:.6f}' for j in js]} vs D = {D:.6f}, "
        f"final rel gap {(D - js[-1]) / D:.2e} (allow 1e-2, strictly below, increasing)")

    return CheckReport.from_violations(
        name="envelope", violations=violations,
        n_cases=n_profiles + len(lams) + len(js), details=details)


# -- derivative sign checks ------------------------------------------------

def _sign_mismatches(sign, at_log_t, cp: CurveParams, x: np.ndarray,
                     step: float = 1e-6) -> int:
    """Count samples where ``sign`` disagrees with the central difference of
    the curve ``at_log_t`` in log t.  A sample is left out where, judged
    from its slope, a root of ``sign`` may lie within the stencil, or where
    the difference is within the curve's rounding."""
    v, d = np.array(list(map(sign, x.tolist()))).T
    diff = at_log_t(cp, x + step) - at_log_t(cp, x - step)
    keep = ~(np.abs(v) <= 2.0 * step * np.abs(d))  # NaN is kept, and counts
    keep &= np.abs(diff) > 1e-11 * np.abs(at_log_t(cp, x))
    return int(np.count_nonzero(np.sign(v[keep]) != np.sign(diff[keep])))


def run_derivative_checks(n_points: int = 1000) -> CheckReport:
    """The optimizer's derivative signs agree with central differences of
    the curves at ``n_points`` values of t in [1e-4, 1e4], and each attained
    optimum is > 0 at its log t and <= 0 at the next double across.

    The critical cases use the N = 5 Sobolev constant.  The violation count
    is the number of disagreements (tolerance 0).  Each sign is a Python
    call of a few microseconds, which sets the default.
    """
    crit = lambda g, a: ProblemParams.local_critical(N=5, p=2.0, gamma=g, alpha=a)
    sub = lambda g, a: ProblemParams.local(N=2, p=2.0, q=4.0, gamma=g, alpha=a)
    log_C5 = log_kappa_multiplier(crit(2.5, 1.0), resolve_constants(crit(2.5, 1.0)))
    # only signs are read, so any positive C serves; 0.17 stands in for
    # B(2, 2, 4), whose solve here would double run_all's dominant cost
    cases = [CurveParams.from_problem(pp, log_C=log_C) for pp, log_C in (
        (crit(2.5, 200.0), log_C5), (crit(2.5, 10.0), log_C5), (crit(3.5, 1.0), log_C5),
        (sub(1.5, 0.7), math.log(0.17)), (sub(3.0, 2.0), math.log(0.17)))]
    x = np.log(np.geomspace(1e-4, 1e4, n_points))
    mism = 0
    total = 0
    details = []
    for cp in cases:
        G, F = objective_sign(cp), ratio_sign(cp)
        bad = [_sign_mismatches(G, f_at_log_t, cp, x), _sign_mismatches(F, g_at_log_t, cp, x), 0]
        total += 2 * n_points
        # f's optimum: G turns + to - as log t grows; g's: F turns - to +
        for res, sign, across in ((maximize_halfline(cp), G, math.inf),
                                  (minimize_halfline(cp), F, -math.inf)):
            if res.attained:
                y = res.log_argopt
                bad[2] += not sign(y)[0] > 0.0 >= sign(math.nextafter(y, across))[0]
                total += 1
        mism += sum(bad)
        if any(bad):
            details.append(f"{cp}: {bad} f-sign, g-sign and optimum mismatches")
    return CheckReport.from_violations(
        name="derivative_signs", violations=[float(mism)], n_cases=total,
        details=["sign agreement away from the sign functions' roots (judged "
                 "from their slopes, 1e-6 stencil in log t), and each attained "
                 "optimum a sign change between adjacent doubles"]
                + details)


# -- threshold monotonicity ------------------------------------------------

def run_monotonicity_scan() -> CheckReport:
    """Threshold-versus-exponent curve of the N = 5, p = 2 critical problem
    has the advertised shape.

    Non-increasing on the whole grid; constant (equal to the closed form)
    on the convexity band; strictly decreasing between the base and top
    exponents; continuous under perturbations shrinking through 1e-2,
    1e-3, 1e-4; endpoint values match their closed forms to 1e-6.
    """
    base = ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)
    constants = resolve_constants(base)
    C = math.exp(log_kappa_multiplier(base, constants))
    pstar = critical_exponent(5, 2.0)
    grid = np.linspace(0.5, pstar, 200)
    thr = np.array([threshold_alpha(replace(base, gamma=float(g)), constants) for g in grid])

    violations: list[float] = []
    details: list[str] = []

    increase = float(np.max(np.diff(thr))) if thr.size > 1 else -math.inf
    violations.append(increase)
    details.append(f"max consecutive increase {increase:.3e} (allow 0)")

    flat = thr[grid <= 2.0]
    flat_dev = float(np.max(np.abs(flat - 1.0 / C))) / (1.0 / C)
    violations.append(flat_dev - 1e-6)
    details.append(f"convexity band deviation from closed form {flat_dev:.3e} (allow 1e-6)")

    # Strict decrease holds analytically on the whole open band, but just
    # above the base exponent the drop is exponentially small in
    # 1/(gamma - p) and falls below double-precision resolution; demand
    # strictness only where the decrease is representable.
    inner = (grid > 2.0 + 0.05) & (grid < pstar - 1e-9)
    idx = np.nonzero(inner)[0]
    ties = float(np.count_nonzero(thr[idx[1:]] - thr[idx[:-1]] >= 0.0))
    violations.append(ties)
    details.append(f"strict decrease on open band (beyond base + 0.05): "
                   f"{ties:.0f} non-decreasing consecutive pairs (0 required; "
                   f"nearer the base the true drop is below float resolution)")

    thr_p = threshold_alpha(ProblemParams.local_critical(N=5, p=2.0, gamma=2.0, alpha=1.0),
                            constants)
    end_p = abs(thr_p - 1.0 / C) / (1.0 / C)
    thr_star = thr[-1]  # np.linspace ends the grid on pstar exactly
    closed_star = 2.0 / (pstar * C)
    end_star = abs(thr_star - closed_star) / closed_star
    violations += [end_p - 1e-6, end_star - 1e-6]
    details.append(f"endpoint closed forms: rel dev {end_p:.3e} at base, {end_star:.3e} at top (allow 1e-6)")

    probe_gammas = (1.0, 2.0, 2.5, 3.0)
    worst_final = 0.0
    worst_growth = -math.inf
    for g0 in probe_gammas:
        gaps = []
        t0 = threshold_alpha(ProblemParams.local_critical(N=5, p=2.0, gamma=g0, alpha=1.0),
                             constants)
        for delta in (1e-2, 1e-3, 1e-4):
            t1 = threshold_alpha(ProblemParams.local_critical(N=5, p=2.0, gamma=g0 + delta,
                                                              alpha=1.0), constants)
            gaps.append(abs(t1 - t0) / max(1.0, t0))
        worst_final = max(worst_final, gaps[-1])
        worst_growth = max(worst_growth, gaps[1] - gaps[0], gaps[2] - gaps[1])
    violations.append(worst_final - 1e-3)
    violations.append(worst_growth)
    details.append(f"continuity probe: final rel gap {worst_final:.3e} (allow 1e-3), "
                   f"gaps non-increasing (slack {worst_growth:.3e})")

    return CheckReport.from_violations(
        name="threshold_monotonicity", violations=violations,
        n_cases=grid.size + 2 + 3 * len(probe_gammas), details=details)


def run_all(seed: int = 2024) -> tuple[CheckReport, ...]:
    """All four checks, ``seed`` drawing the envelope's random profiles;
    deterministic, < 60 s."""
    return (run_truth_table(), run_envelope(seed=seed), run_derivative_checks(),
            run_monotonicity_scan())
