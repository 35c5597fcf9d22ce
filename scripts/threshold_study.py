#!/usr/bin/env python3
"""Threshold-curve study: map the critical weight alpha(gamma) across the band.

For a chosen problem family this sweeps the coupling exponent gamma from
well below the base exponent to past the attainment boundary, reports the
numeric threshold at each grid point next to the closed forms that pin the
two ends of the curve (the flat band at 1/C and the boundary value
2/(q_crit*C)), and summarizes where the curve starts to decrease.

Run:
    python3 scripts/threshold_study.py
    python3 scripts/threshold_study.py --N 6 --p 2.5 --points 101 --csv out.csv
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

import numpy as np

from attainkit import (
    ProblemParams,
    classify,
    critical_exponent,
    log_kappa_multiplier,
    resolve_constants,
    threshold_alpha,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=5, help="ambient dimension")
    ap.add_argument("--p", type=float, default=2.0, help="base exponent")
    ap.add_argument("--points", type=int, default=61, help="gamma grid size")
    ap.add_argument("--pad", type=float, default=0.3,
                    help="how far past the boundary exponent to sweep")
    ap.add_argument("--csv", help="also write the table to this CSV path")
    ns = ap.parse_args(argv)

    q_crit = critical_exponent(ns.N, ns.p)
    base = ProblemParams.local_critical(N=ns.N, p=ns.p, gamma=ns.p, alpha=1.0)
    constants = resolve_constants(base)
    log_C = log_kappa_multiplier(base, constants)

    grid = np.linspace(0.5, q_crit + ns.pad, ns.points)
    thresholds = [threshold_alpha(dataclasses.replace(base, gamma=float(g)), constants)
                  for g in grid]

    flat = math.exp(-log_C)
    closed_boundary = 2.0 / q_crit * flat

    print(f"# threshold curve, N={ns.N} p={ns.p} (q_crit={q_crit:.6f})")
    print(f"# flat-band closed form 1/C          = {flat:.12g}")
    print(f"# boundary closed form 2/(q_crit*C)  = {closed_boundary:.12g}")
    print(f"{'gamma':>10}  {'threshold':>18}  {'regime note':<28}")
    first_drop = None
    for g, thr in zip(grid, thresholds):
        if g <= ns.p:
            note = "flat band"
        elif g < q_crit:
            note = "interior decay"
            if first_drop is None and thr < flat * (1.0 - 1e-12):
                first_drop = g
        elif abs(g - q_crit) < 1e-9:
            note = "boundary exponent"
        else:
            note = "past boundary (always attained)"
        print(f"{g:>10.5f}  {thr:>18.12g}  {note:<28}")

    interior = [thr for g, thr in zip(grid, thresholds) if ns.p < g < q_crit]
    print()
    print(f"strictly decreasing on the interior samples: "
          f"{bool(interior) and all(b < a for a, b in zip(interior, interior[1:]))}")
    if first_drop is not None:
        print(f"first visible drop below the flat band at gamma = {first_drop:.5f} "
              f"(the true decrease just above gamma = p falls below float "
              f"resolution)")

    # spot verdicts either side of the curve at a mid-band gamma
    mid = 0.5 * (ns.p + q_crit)
    pp = ProblemParams.local_critical(N=ns.N, p=ns.p, gamma=mid, alpha=1.0)
    thr_mid = float(np.interp(mid, grid, thresholds))
    for mult in (0.5, 2.0):
        v = classify(dataclasses.replace(pp, alpha=mult * thr_mid), constants)
        print(f"gamma={mid:.4f} alpha={mult:.1f}x threshold: attained={v.attained} "
              f"({v.reason.value}), D={v.D:.9g}")

    if ns.csv:
        with open(ns.csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["gamma", "threshold"])
            for g, thr in zip(grid, thresholds):
                w.writerow([repr(float(g)), repr(thr)])
        print(f"wrote {ns.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
