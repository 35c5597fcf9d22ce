#!/usr/bin/env python3
"""Concentration study: how truncated bubbles approach the supremum.

Two experiments side by side:

1. A family where the supremum IS attained (5-d, coupling above the base
   exponent, weight above threshold): the optimally dilated bubble profile,
   built at the curve maximizer and integrated once, evaluates to D on the
   nose.

2. A family where it is NOT (3-d: the optimal bubble has divergent mass, so
   no admissible maximizer exists): compactly supported truncations, each
   redilated to the curve maximizer, climb monotonically toward D but
   never touch it.  Each truncation is integrated once; J of its dilations
   follows from its norms (``orbit_curve``).  The printed gaps quantify the
   concentration loss as the truncation radius grows.

Run:
    python3 scripts/concentration_study.py
    python3 scripts/concentration_study.py --radii 10 100 1000 10000
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from attainkit import (
    CurveParams,
    ProblemParams,
    build_truncated,
    extremal_in_energy_space,
    f_at_log_t,
    log_kappa_multiplier,
    log_lambda,
    maximize_halfline,
    maximizer,
    norms,
    orbit_curve,
    resolve_constants,
    threshold_alpha,
)


def attained_case() -> None:
    pp = ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=180.0)
    v, m = maximizer(pp)
    lam, w = math.exp(m.log_lambda), m.profile
    # w has unit combined norm, so J(w) is its own orbit curve at its own t
    J = f_at_log_t(*orbit_curve(norms(w, 2.0, pp.q), pp))
    print("attained case: N=5 p=2 gamma=2.2 alpha=180")
    print(f"  verdict: attained={v.attained} ({v.reason.value}), "
          f"D={v.D:.12g}, t*={v.t_star:.6g}")
    print(f"  optimal dilation lambda = {lam:.6g}")
    print(f"  J(optimally dilated bubble) = {J:.12g}  "
          f"(rel gap {abs(J - v.D) / v.D:.2e})")
    print()


def truncated_case(radii: list[float]) -> None:
    pp = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    constants = resolve_constants(pp)
    thr = threshold_alpha(pp, constants)
    pp = dataclasses.replace(pp, alpha=2.0 * thr)
    cp = CurveParams.from_problem(pp, log_C=log_kappa_multiplier(pp, constants))
    opt = maximize_halfline(cp)
    print("non-attained case: N=3 p=2 gamma=3 alpha=2x threshold")
    print(f"  bubble in the energy space: {extremal_in_energy_space(pp)}, "
          f"so D={opt.value:.12g} is a supremum only")
    print(f"  curve maximizer log t* = {opt.log_argopt:.6g}")
    print(f"  {'radius':>10}  {'log lambda':>14}  {'J':>16}  {'rel gap to D':>14}")
    for R in radii:
        # one quadrature of the cut bubble; its orbit curve gives J at every dilation
        nm = norms(build_truncated(3, 2.0, R=float(R)), 2.0, 6.0)
        J = f_at_log_t(orbit_curve(nm, pp)[0], opt.log_argopt)
        log_lam = log_lambda(opt.log_argopt, nm, pp.gamma, 3)
        print(f"  {R:>10g}  {log_lam:>14.6g}  {J:>16.10g}  {(opt.value - J) / opt.value:>14.3e}")
    print()
    print("  the gap shrinks like the truncated mass surplus: the supremum is")
    print("  approached by ever-wider profiles yet never attained in 3-d.")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[10.0, 100.0, 1000.0],
                    help="truncation radii for the 3-d family")
    ns = ap.parse_args(argv)
    attained_case()
    truncated_case(ns.radii)
    return 0


if __name__ == "__main__":
    sys.exit(main())
