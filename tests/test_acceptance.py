"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every test computes its criterion from scratch at the stated tolerance,
prints exactly one ``[acceptance N] PASS/FAIL`` line, and then asserts.
Time boxes are enforced where the criterion states one.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import attainkit as ak
from attainkit import (
    CurveParams,
    ProblemParams,
    build_truncated,
    build_u_star,
    f_at_log_t,
    gns_constant_estimate,
    log_kappa_multiplier,
    maximize_halfline,
    minimize_halfline,
    norms,
    orbit_curve,
    random_profiles,
    run_derivative_checks,
    run_monotonicity_scan,
    run_truth_table,
    sobolev_constant,
)
from attainkit.curves import log_f_limits
from attainkit.profiles import build_w_lambda
from oracles import (FROZEN_SOBOLEV_50_DIGITS, curve_at_t, grid_oracle, j_oracle,
                     shooting_oracle_2_2_4, sobolev_constant_oracle)

N5 = 5
P2 = 2.0
P_STAR_5 = 10.0 / 3.0


def _report(n: int, ok: bool, msg: str, capsys) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {n}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"[acceptance {n}] {msg}"


def test_acceptance_01_truth_table(capsys):
    t0 = time.time()
    rep = run_truth_table()
    dt = time.time() - t0
    ok = rep.passed and dt < 10.0
    _report(1, ok, f"decision table exact on {rep.n_cases} cells "
                   f"(worst excess {rep.worst_violation:.1e}) in {dt:.1f}s "
                   f"(limit 10s)", capsys)


def test_acceptance_02_threshold_closed_forms(capsys):
    checks = []  # (label, numeric inf g, closed form, elapsed)
    # subcritical families at their upper coupling exponent
    for N, p, q in ((2, 2.0, 4.0), (3, 2.0, 3.0)):
        gamma_c = ak.gamma_threshold_exponent(N, p, q)
        pp = ProblemParams.local(N=N, p=p, q=q, gamma=gamma_c, alpha=1.0)
        t0 = time.time()
        got = minimize_halfline(CurveParams.from_problem(pp, log_C=0.0)).value
        checks.append((f"subcritical N={N} q={q}", got, p / gamma_c, time.time() - t0))
    # critical family on the upper boundary
    pp = ProblemParams.local_critical(N=N5, p=P2, gamma=P_STAR_5, alpha=1.0)
    t0 = time.time()
    got = minimize_halfline(CurveParams.from_problem(pp, log_C=0.0)).value
    checks.append(("critical gamma=q_crit", got, P2 / P_STAR_5, time.time() - t0))
    # critical family at and below the base exponent
    for gamma in (1.0, 2.0):
        pp = ProblemParams.local_critical(N=N5, p=P2, gamma=gamma, alpha=1.0)
        t0 = time.time()
        got = minimize_halfline(CurveParams.from_problem(pp, log_C=0.0)).value
        checks.append((f"critical gamma={gamma}", got, 1.0, time.time() - t0))
    worst = max(abs(g - w) / w for _, g, w, _ in checks)
    slowest = max(dt for *_, dt in checks)
    ok = worst <= 1e-8 and slowest < 1.0
    _report(2, ok, f"ratio-curve infima match closed forms on {len(checks)} "
                   f"cases (worst rel {worst:.1e}, allow 1e-8; slowest "
                   f"{slowest * 1e3:.0f}ms, limit 1s each)", capsys)


def test_acceptance_03_low_gamma_critical_supremum(capsys):
    worst = 0.0
    attained_anywhere = False
    cells = 0
    for gamma in (1.5, 2.0):
        for kappa in (0.25, 0.5, 1.0, 2.0, 4.0):
            pp = ProblemParams.local_critical(N=N5, p=P2, gamma=gamma, alpha=kappa)
            res = maximize_halfline(CurveParams.from_problem(pp, log_C=0.0))
            worst = max(worst, abs(res.value - max(1.0, kappa)))
            attained_anywhere |= res.attained
            cells += 1
    ok = worst <= 1e-9 and not attained_anywhere
    _report(3, ok, f"low-coupling critical suprema equal max(1, kappa) on "
                   f"{cells} cells (worst abs {worst:.1e}, allow 1e-9; "
                   f"attained nowhere: {not attained_anywhere})", capsys)


PROBE_T = np.geomspace(1e-12, 1e12, 200_001)


def _oracle_resolvable(cp: CurveParams) -> bool:
    """Keep only curves whose supremum a uniform 1e6-point grid can see."""
    vals = np.asarray(curve_at_t(cp, "max", PROBE_T), dtype=float)
    boundary = math.exp(max(log_f_limits(cp)))
    i = int(np.argmax(vals))
    excess = float(vals[i]) - boundary
    if excess <= 1e-12 * max(1.0, abs(boundary)):
        return True  # boundary limit is the supremum; the oracle has it analytically
    return 1e-3 <= PROBE_T[i] <= 1e3


def _random_curves(count: int, seed: int) -> list[CurveParams]:
    rng = np.random.default_rng(seed)
    out: list[CurveParams] = []
    while len(out) < count:
        pg = float(np.exp(rng.uniform(np.log(0.3), np.log(4.0))))
        a = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        b = pg + a
        critical = rng.random() < 0.5
        c = b if critical else float(rng.uniform(max(0.15, 0.25 * b), 0.9 * b))
        if rng.random() < 1.0 / 3.0:
            log_kappa = -math.inf
        else:
            # plant a stationary point at an oracle-visible location
            t_pk = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
            if not critical:
                t_pk = min(t_pk, 0.5 * c / (b - c))
            den = c * t_pk ** (c - 1.0) + (c - b) * t_pk ** c
            if den <= 0:
                continue
            kappa = pg * (1.0 + t_pk) ** a / den
            if not math.isfinite(kappa) or kappa <= 0:
                continue
            log_kappa = math.log(kappa)
        cp = CurveParams(b=b, c=c, log_kappa=log_kappa, pgamma=pg)
        if _oracle_resolvable(cp):
            out.append(cp)
    return out


def test_acceptance_04_optimizer_vs_grid_oracle(capsys):
    t0 = time.time()
    curves = _random_curves(200, seed=20240816)
    worst = 0.0
    for cp in curves:
        worst = max(worst, abs(maximize_halfline(cp).value
                               - grid_oracle(cp, n=10**6, mode="max").value))
        gopt = minimize_halfline(cp)
        if math.isfinite(gopt.value):
            worst = max(worst, abs(gopt.value
                                   - grid_oracle(cp, n=10**6, mode="min").value))
    dt = time.time() - t0
    n_crit = sum(1 for cp in curves if cp.c == cp.b)
    n_zero = sum(1 for cp in curves if cp.kappa == 0.0)
    ok = worst <= 1e-8 and dt < 30.0
    _report(4, ok, f"optimizer vs 1e6-point grid oracle on 200 random curves "
                   f"({n_crit} critical, {n_zero} zero-weight): worst |dv| "
                   f"{worst:.1e} (allow 1e-8) in {dt:.1f}s (limit 30s)", capsys)


def test_acceptance_05_sobolev_constant(capsys):
    t0 = time.time()
    got = sobolev_constant(N5, P2)
    want = sobolev_constant_oracle(N5, P2)
    rel = abs(got.value - want) / want
    pairs = [(3, 2.0), (4, 2.0), (5, 2.0), (5, 2.5), (4, 1.5),
             (6, 3.0), (7, 2.2), (8, 2.0), (5, 1.25), (10, 4.0)]
    refs = [(N, p, sobolev_constant_oracle(N, p)) for N, p in pairs]
    refs += [(N, p, v) for (N, p), v in FROZEN_SOBOLEV_50_DIGITS.items()]
    honest = all(abs(c.value - v) <= c.err_bound
                 for c, v in ((sobolev_constant(N, p), v) for N, p, v in refs))
    dt = time.time() - t0
    ok = rel <= 1e-8 and honest and dt < 10.0
    _report(5, ok, f"Sobolev constant: rel vs Beta oracle {rel:.1e} (allow 1e-8), "
                   f"error bound honest on {len(pairs)} Beta-oracle pairs and "
                   f"{len(FROZEN_SOBOLEV_50_DIGITS)} 50-digit values: {honest}, "
                   f"in {dt:.1f}s (limit 10s)", capsys)


def test_acceptance_06_interpolation_constant(capsys):
    t0 = time.time()
    live = shooting_oracle_2_2_4()
    est = gns_constant_estimate(2, 2.0, 4.0)
    rel = abs(est.value - live["B"]) / live["B"]
    lower_bound = est.value <= live["B"] * (1.0 + 1e-9)
    ratios_ok = True
    worst_ratio = 0.0
    pp = ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=1.0)
    for nm in norms(random_profiles(50, N=2, seed=2024), p=2.0, q=4.0):
        # the profile's quotient Q(u) = |u|_4^4 / (|grad u|_2^2 |u|_2^2)
        ratio = orbit_curve(nm, pp)[0].kappa
        worst_ratio = max(worst_ratio, ratio / live["B"])
        ratios_ok &= ratio <= live["B"] * (1.0 + 1e-9)
    dt = time.time() - t0
    ok = rel <= 1e-9 and lower_bound and ratios_ok and dt < 60.0
    _report(6, ok, f"interpolation constant: ground state vs shooting oracle "
                   f"rel {rel:.1e} (allow 1e-9), estimate is a lower bound: "
                   f"{lower_bound}, 50 random profiles respect the inequality "
                   f"(max ratio {worst_ratio:.6f} of sharp) in {dt:.1f}s "
                   f"(limit 60s)", capsys)


def test_acceptance_07_dilation_envelope(constants_crit5, capsys):
    t0 = time.time()
    pp = ProblemParams.local_critical(N=N5, p=P2, gamma=2.2, alpha=180.0)
    cp = CurveParams.from_problem(pp, log_C=log_kappa_multiplier(pp, constants_crit5))
    star_norms = norms(build_u_star(N5, P2), p=P2, q=pp.q)

    worst_env = -math.inf
    for nm in norms(random_profiles(1000, N=N5, seed=2024), p=P2, q=pp.q):
        # J of each normalized profile from the family's one quadrature,
        # against the curve oracle
        cp_u, log_t = orbit_curve(nm, pp)
        worst_env = max(worst_env, f_at_log_t(cp_u, log_t)
                        - float(curve_at_t(cp, "max", math.exp(log_t))))

    ratio = (star_norms.grad_lp.value / star_norms.lp.value) ** pp.gamma
    worst_fam = 0.0
    for lam in np.geomspace(1e-3, 1e3, 50):
        t = float(lam) ** (pp.gamma / N5) * ratio
        w = build_w_lambda(N5, P2, pp.gamma, star_norms, log_t=math.log(t))
        f = float(curve_at_t(cp, "max", t))
        worst_fam = max(worst_fam, abs(j_oracle(w, pp) - f) / abs(f))

    v, m = ak.maximizer(pp, constants_crit5)
    gap_at_star = abs(j_oracle(m.profile, pp) - v.D) / v.D

    dt = time.time() - t0
    ok = (worst_env <= 1e-8 and worst_fam <= 1e-6 and v.attained
          and gap_at_star <= 1e-6 and dt < 60.0)
    _report(7, ok, f"dilation envelope: 1000 profiles stay under the curve "
                   f"(worst excess {worst_env:.1e}, allow 1e-8); 50-point "
                   f"dilation family matches the curve (worst rel {worst_fam:.1e}, "
                   f"allow 1e-6); optimal dilation reaches the supremum "
                   f"(rel gap {gap_at_star:.1e}, allow 1e-6) in {dt:.1f}s "
                   f"(limit 60s)", capsys)


def test_acceptance_08_derivative_signs_and_threshold_monotonicity(capsys):
    signs = run_derivative_checks(n_points=10_000)
    mono = run_monotonicity_scan()
    ok = signs.passed and mono.passed
    _report(8, ok, f"the optimizer's derivative signs match central differences, "
                   f"and its optima are sign changes between adjacent doubles, on "
                   f"{signs.n_cases} cases (mismatches beyond excluded root "
                   f"neighborhoods: {int(max(0.0, signs.worst_violation))}); "
                   f"threshold curve non-increasing with flat band and endpoint "
                   f"limits verified at 1e-6: {mono.passed}", capsys)


def test_acceptance_09_truncated_family_approach(constants_crit3, capsys):
    pp = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    thr = ak.threshold_alpha(pp, constants_crit3)
    pp = dataclasses.replace(pp, alpha=2.0 * thr)
    cp = CurveParams.from_problem(pp, log_C=log_kappa_multiplier(pp, constants_crit3))
    opt = maximize_halfline(cp)
    D = opt.value
    # one quadrature per radius: J of the cut bubble's normalized dilation to t*
    js = [f_at_log_t(orbit_curve(norms(build_truncated(3, 2.0, R=R), 2.0, 6.0), pp)[0],
                     opt.log_argopt)
          for R in (10.0, 100.0, 1000.0)]
    increasing = all(a < b for a, b in zip(js, js[1:]))
    below = all(j <= D for j in js)
    gap = (D - js[-1]) / D
    ok = increasing and below and gap < 1e-2
    _report(9, ok, f"truncated profiles approach the supremum from below: "
                   f"J = {[f'{j:.6f}' for j in js]} vs D = {D:.6f}, increasing: "
                   f"{increasing}, final rel gap {gap:.1e} (allow 1e-2)", capsys)
