"""Cross-cutting consistency checks tying curves, classifier, and profiles.

Four deterministic checks, each returning a self-describing report:

* ``run_truth_table``    — replays the attainability decision on a grid of
  representative parameter cells (every regime, every exponent band, both
  sides of the threshold) and compares against the expected verdicts.
* ``run_envelope``       — random trial profiles never beat the scalar
  upper envelope; the normalized dilated bubbles meet it to quadrature
  accuracy; the truncated family in a non-attained regime climbs toward
  the supremum without crossing it.
* ``run_derivative_checks`` — the closed-form sign factors for the curve
  derivatives agree with central differences away from their roots.
* ``run_monotonicity_scan`` — the threshold is non-increasing in the
  exponent, constant on the convexity band, strictly decreasing on the
  open band above it, continuous under shrinking perturbations, and
  matches its closed forms at both band endpoints.

Every report carries its tolerance; ``passed`` is exactly
``worst_violation <= tolerance``.  ``run_all`` executes the four checks
with shared constants and a fixed seed in well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (ConstantSet, Reason, classify, kappa_multiplier,
                       resolve_constants, threshold_alpha, threshold_curve)
from .constants import fractional_constant
from .curves import CurveParams, h_factor, m_factor, objective_curve, value_f, value_l
from .errors import (DivergentNormError, NormalizationError, NumericalError,
                     ParamError)
from .halfline import maximize_halfline, stationary_points
from .params import ProblemParams, critical_exponent, exponents
from .profiles import (build_truncated, build_u_star, build_w_lambda,
                       evaluate_J, log_lambda, norms, random_profiles, t_of)

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
                        details: list[str], tolerance: float = 0.0) -> "CheckReport":
        worst = max(violations) if violations else float("-inf")
        return CheckReport(name=name, passed=bool(worst <= tolerance),
                           worst_violation=worst, n_cases=n_cases,
                           tolerance=tolerance, details=tuple(details))


def _default_constants() -> dict[str, ConstantSet]:
    """Constants for the three default local problems plus the fractional stub."""
    crit5 = ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)
    crit3 = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    sub2 = ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=1.0)
    return {
        "critical": resolve_constants(crit5),
        "nonexistence": resolve_constants(crit3),
        "subcritical": resolve_constants(sub2),
        "fractional": ConstantSet(
            fractional=fractional_constant(DEFAULT_FRACTIONAL_CONSTANT)),
    }


# -- truth table ----------------------------------------------------------

def _truth_cells(constants: dict[str, ConstantSet]):
    """(label, params, constant_set, expected_attained, expected_reason, expected_D)."""
    cells = []

    cs5 = constants["critical"]
    p5 = lambda g, a: ProblemParams.local_critical(N=5, p=2.0, gamma=g, alpha=a)
    C5 = kappa_multiplier(p5(2.5, 1.0), cs5)
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

    cs3 = constants["nonexistence"]
    p3 = lambda g, a: ProblemParams.local_critical(N=3, p=2.0, gamma=g, alpha=a)
    C3 = kappa_multiplier(p3(3.0, 1.0), cs3)
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

    cs2 = constants["subcritical"]
    p2 = lambda g, a: ProblemParams.local(N=2, p=2.0, q=4.0, gamma=g, alpha=a)
    gc = exponents(p2(1.5, 1.0)).gamma_crit
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

    csf = constants["fractional"]
    S = csf.fractional.value
    pf = lambda g, b: ProblemParams.fractional_critical(N=5, s=0.6, gamma=g, alpha=b)
    qf = pf(2.3, 1.0).q
    thr_f = threshold_alpha(pf(2.3, 1.0), csf)
    thr_fq = threshold_alpha(pf(qf, 1.0), csf)
    pfs = lambda g, b: ProblemParams.fractional(N=5, s=0.6, q=2.2, gamma=g, alpha=b)
    gcf = exponents(pfs(0.5, 1.0)).gamma_crit
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


def run_truth_table(constants: dict[str, ConstantSet] | None = None) -> CheckReport:
    """Verdicts on representative cells match the expected decision table.

    The violation count is the number of mismatched cells (tolerance 0).
    """
    constants = constants or _default_constants()
    cells = _truth_cells(constants)
    mismatches: list[str] = []
    for label, params, cset, want_attained, want_reason, want_d in cells:
        try:
            v = classify(params, constants=cset)
        except (ParamError, NumericalError, DivergentNormError,
                NormalizationError) as exc:
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

def run_envelope(params: ProblemParams | None = None,
                 constants: ConstantSet | None = None,
                 n_profiles: int = 1000, seed: int = 2024) -> CheckReport:
    """No admissible profile beats the scalar envelope; test families behave.

    Three parts, each folded in as (measured - allowance):

    * random normalized profiles: J(u) - f(t(u)) <= 1e-8;
    * dilated-bubble family: |J - f(t)| relative error <= 1e-6 (equality
      case, limited only by quadrature);
    * truncated family in a no-extremal regime: values strictly below the
      supremum, increasing in the truncation radius, final relative gap
      below 1e-2.
    """
    params = params or ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=1.0)
    constants = constants or resolve_constants(params)
    C = kappa_multiplier(params, constants)
    cp = CurveParams.from_problem(params, C)
    N, p, q, gamma = params.N, params.p, params.q, params.gamma

    violations: list[float] = []
    details: list[str] = []

    worst_random = -math.inf
    for prof in random_profiles(n_profiles, N=N, seed=seed):
        # amplitude scaling is exact: the normalized copy has norms nm / z, same t
        nm = norms(prof, p, q, gamma)
        z = nm.w_norm(gamma)
        j = (nm.lp.value / z) ** p + params.alpha * (nm.lq.value / z) ** q
        worst_random = max(worst_random, j - value_f(cp, t_of(nm, gamma)))
    violations.append(worst_random - 1e-8)
    details.append(f"random profiles: worst J - f = {worst_random:.3e} (allow 1e-8)")

    star_norms = norms(build_u_star(N, p), p, q, gamma)
    ratio = t_of(star_norms, gamma)
    worst_family = 0.0
    lams = np.geomspace(1e-3, 1e3, 50)
    for lam in lams:
        w = build_w_lambda(N, p, float(lam), gamma, u_norms=star_norms)
        j = evaluate_J(w, params)
        f = value_f(cp, float(lam) ** (gamma / N) * ratio)
        worst_family = max(worst_family, abs(j - f) / max(1.0, abs(f)))
    violations.append(worst_family - 1e-6)
    details.append(f"bubble family: worst rel |J - f| = {worst_family:.3e} (allow 1e-6)")

    tr_params = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    tr_constants = resolve_constants(tr_params)
    thr = threshold_alpha(tr_params, tr_constants)
    tr_params = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=2.0 * thr)
    v3 = classify(tr_params, constants=tr_constants)
    cp3 = CurveParams.from_problem(tr_params, kappa_multiplier(tr_params, tr_constants))
    log_t_star = maximize_halfline(objective_curve(cp3)).log_argopt
    js = []
    for radius in (10.0, 100.0, 1000.0):
        base = build_truncated(3, 2.0, radius, gamma=3.0)
        lam = math.exp(log_lambda(log_t_star, norms(base, 2.0, 6.0, 3.0), 3.0, 3))
        js.append(evaluate_J(build_truncated(3, 2.0, radius, gamma=3.0, lam=lam),
                             tr_params))
    violations.append(max(j - v3.D for j in js))
    violations.append(max(a - b for a, b in zip(js, js[1:])))
    violations.append((v3.D - js[-1]) / v3.D - 1e-2)
    details.append(
        f"truncated family: J = {[f'{j:.6f}' for j in js]} vs D = {v3.D:.6f}, "
        f"final rel gap {(v3.D - js[-1]) / v3.D:.2e} (allow 1e-2, strictly below, increasing)")

    return CheckReport.from_violations(
        name="envelope", violations=violations,
        n_cases=n_profiles + len(lams) + len(js), details=details)


# -- derivative sign checks ------------------------------------------------

def _sign_mismatches_f(cp: CurveParams, n: int) -> int:
    """Count sign disagreements between h_factor and central differences of f."""
    t = np.geomspace(1e-4, 1e4, n)
    for root in stationary_points(cp):
        t = t[np.abs(np.log(t) - root) > 1e-5]
    delta = 1e-6 * t
    fp = value_f(cp, t + delta) - value_f(cp, t - delta)
    h = h_factor(cp, t)
    keep = np.abs(fp) > 1e-11 * np.maximum(1.0, np.abs(value_f(cp, t)))
    return int(np.count_nonzero(np.sign(fp[keep]) != np.sign(h[keep])))


def _sign_mismatches_l(cp: CurveParams, n: int) -> int:
    """Count sign disagreements between m_factor and central differences of l."""
    s = np.linspace(1e-4, 1.0 - 1e-4, n)
    m = m_factor(cp, s)
    flips = np.nonzero(np.sign(m[:-1]) * np.sign(m[1:]) < 0)[0]
    keep_mask = np.ones_like(s, dtype=bool)
    for i in flips:
        keep_mask &= np.abs(s - s[i]) > 1e-3
    s, m = s[keep_mask], m[keep_mask]
    delta = 1e-7
    lp = value_l(cp, s + delta) - value_l(cp, s - delta)
    keep = np.abs(lp) > 1e-10
    return int(np.count_nonzero(np.sign(lp[keep]) != np.sign(m[keep])))


def run_derivative_checks(n_points: int = 10_000) -> CheckReport:
    """Closed-form derivative signs agree with central differences.

    The violation count is the number of sign disagreements outside small
    neighborhoods of the derivative roots (tolerance 0).
    """
    crit = ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)
    cs = resolve_constants(crit)
    C = kappa_multiplier(crit, cs)
    cases = [
        CurveParams.from_problem(
            ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=200.0), C),
        CurveParams.from_problem(
            ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=10.0), C),
        CurveParams.from_problem(
            ProblemParams.local_critical(N=5, p=2.0, gamma=3.5, alpha=1.0), C),
        CurveParams.from_problem(
            ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=0.7), 0.17),
        CurveParams.from_problem(
            ProblemParams.local(N=2, p=2.0, q=4.0, gamma=3.0, alpha=2.0), 0.17),
    ]
    mism = 0
    total = 0
    details = []
    for cp in cases:
        bad_f = _sign_mismatches_f(cp, n_points)
        bad_l = _sign_mismatches_l(cp, n_points)
        mism += bad_f + bad_l
        total += 2 * n_points
        if bad_f or bad_l:
            details.append(f"{cp}: {bad_f} f-sign and {bad_l} l-sign mismatches")
    return CheckReport.from_violations(
        name="derivative_signs", violations=[float(mism)], n_cases=total,
        details=["sign agreement outside 1e-5-relative root neighborhoods"]
                + details)


# -- threshold monotonicity ------------------------------------------------

def run_monotonicity_scan(constants: ConstantSet | None = None) -> CheckReport:
    """Threshold-versus-exponent curve has the advertised shape.

    Non-increasing on the whole grid; constant (equal to the closed form)
    on the convexity band; strictly decreasing between the base and top
    exponents; continuous under perturbations shrinking through 1e-2,
    1e-3, 1e-4; endpoint values match their closed forms to 1e-6.
    """
    base = ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)
    constants = constants or resolve_constants(base)
    C = kappa_multiplier(base, constants)
    pstar = critical_exponent(5, 2.0)
    grid = np.linspace(0.5, pstar, 200)
    curve = threshold_curve(base, grid, constants=constants)
    thr = np.asarray(curve.thresholds)

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
    thr_star = threshold_alpha(ProblemParams.local_critical(N=5, p=2.0, gamma=pstar,
                                                            alpha=1.0), constants)
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
    """All four checks with shared constants; deterministic, < 60 s."""
    constants = _default_constants()
    return (
        run_truth_table(constants),
        run_envelope(constants=None, seed=seed),
        run_derivative_checks(),
        run_monotonicity_scan(constants["critical"]),
    )
