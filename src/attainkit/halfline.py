"""Global optimization of scalar curves on the half-line.

Works in the compactified variable s = t/(1+t) in (0,1):  a dense scan
(uniform grid plus geometric tails hugging both endpoints) locates every
interior local optimum bracket, each bracket is polished by golden-section
search, and the polished interior best is compared against the curve's
*analytic* boundary limits.  Attainment of the supremum/infimum at an
interior point is decided by that comparison with a safety margin; ties
within the margin are reported as marginal rather than guessed, because
boundary cases belong to the analytic classifier, not to float luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import ScalarCurve, t_of_s
from .errors import NumericalError

#: golden ratio conjugate
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_SCAN_N = 4096
_TAIL_N = 512
_TAIL_EDGE = 1e-12


@dataclass(frozen=True)
class OptResult:
    """Outcome of a half-line optimization.

    value      supremum (or infimum) over (0, inf) including boundary limits
    argopt     interior optimizer t* > 0, None when the optimum is a
               boundary limit; still populated for marginal ties
    attained   True iff an interior point strictly beats every boundary
               limit by the safety margin
    marginal   True when interior best and boundary limit agree within the
               margin (analytically ambiguous at float precision)
    err_bound  estimated absolute error of ``value``
    n_evals    number of curve evaluations spent
    """

    value: float
    argopt: float | None
    attained: bool
    err_bound: float
    n_evals: int
    marginal: bool = False


@lru_cache(maxsize=8)
def _scan_grid(n: int, tail_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, log s, log(1-s)) for the scan grid.

    The two geometric tails are built in their own local coordinate
    (distance to the nearest endpoint), so the logs stay exact even at
    distance 1e-12 where 1-s would lose 4 digits.
    """
    s_mid = np.arange(1, n + 1, dtype=float) / (n + 1)
    lo = np.geomspace(_TAIL_EDGE, s_mid[0], tail_n, endpoint=False)
    hi_u = np.geomspace(_TAIL_EDGE, 1.0 - s_mid[-1], tail_n, endpoint=False)

    s = np.concatenate([lo, s_mid, 1.0 - hi_u[::-1]])
    log_s = np.concatenate([np.log(lo), np.log(s_mid), np.log1p(-hi_u[::-1])])
    log_u = np.concatenate([np.log1p(-lo), np.log1p(-s_mid), np.log(hi_u[::-1])])
    return s, log_s, log_u


def _golden(fun, lo: float, hi: float, tol: float, sign: float) -> tuple[float, float, int]:
    """Golden-section search for the max of sign*fun on [lo, hi]."""
    a, b = lo, hi
    h = b - a
    x1 = a + (1.0 - _INVPHI) * h
    x2 = a + _INVPHI * h
    f1 = sign * fun(x1)
    f2 = sign * fun(x2)
    n = 2
    while h > tol and n < 400:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = a + (1.0 - _INVPHI) * h
            f1 = sign * fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + _INVPHI * h
            f2 = sign * fun(x2)
        n += 1
    if f1 >= f2:
        return x1, sign * f1, n
    return x2, sign * f2, n


def _optimize(curve: ScalarCurve, tol: float, sign: float) -> OptResult:
    """Shared engine; sign=+1 maximizes, sign=-1 minimizes."""
    if not 0.0 < tol < 1e-2:
        raise ValueError(f"tol must lie in (0, 1e-2), got {tol}")
    s, log_s, log_u = _scan_grid(_SCAN_N, _TAIL_N)
    vals = np.asarray(curve.value_s_logs(log_s, log_u), dtype=float)
    n_evals = s.size
    if np.any(np.isnan(vals)):
        bad = s[np.isnan(vals)][0]
        raise NumericalError(f"curve evaluated to NaN at s={bad!r}")

    v = sign * vals
    # interior local-max brackets of the signed values
    idx = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1

    best_raw = None
    best_s = None
    err = 0.0
    fun = lambda x: float(curve.value_s(x))
    for i in idx:
        x, fx, used = _golden(fun, s[i - 1], s[i + 1], tol, sign)
        n_evals += used
        if best_raw is None or sign * fx > sign * best_raw:
            best_raw, best_s = fx, x

    limits = curve.limits()
    if sign > 0:
        boundary = max(limits)
    else:
        boundary = min(limits)
    if math.isnan(boundary):
        raise NumericalError("boundary limit evaluated to NaN")

    margin = 10.0 * tol
    if best_s is None:
        return OptResult(value=boundary, argopt=None, attained=False,
                         err_bound=4.0 * np.finfo(float).eps * abs(boundary)
                         if math.isfinite(boundary) else 0.0,
                         n_evals=n_evals)

    # roundoff-floor error estimate; the golden bracket itself is far
    # tighter than the margin ever needs
    d = 1e-6
    xm, xp = max(best_s - d, s[0]), min(best_s + d, s[-1])
    curv = abs(fun(xp) + fun(xm) - 2.0 * best_raw) / d**2
    n_evals += 2
    err = 0.5 * curv * tol * tol + 16.0 * np.finfo(float).eps * abs(best_raw)

    gap = sign * (best_raw - boundary)  # > 0 means interior beats boundary
    if math.isinf(boundary):
        gap = math.inf
    if gap > margin:
        return OptResult(value=best_raw, argopt=t_of_s(best_s), attained=True,
                         err_bound=err, n_evals=n_evals)
    if gap < -margin:
        return OptResult(value=boundary, argopt=None, attained=False,
                         err_bound=4.0 * np.finfo(float).eps * abs(boundary),
                         n_evals=n_evals)
    value = max(best_raw, boundary) if sign > 0 else min(best_raw, boundary)
    return OptResult(value=value, argopt=t_of_s(best_s), attained=False,
                     err_bound=max(err, abs(best_raw - boundary)),
                     n_evals=n_evals, marginal=True)


def maximize_halfline(curve: ScalarCurve, tol: float = 1e-12) -> OptResult:
    """Supremum of the curve over (0, inf), boundary limits included."""
    return _optimize(curve, tol, +1.0)


def minimize_halfline(curve: ScalarCurve, tol: float = 1e-12) -> OptResult:
    """Infimum of the curve over (0, inf), boundary limits included."""
    return _optimize(curve, tol, -1.0)
