"""Optima of the reduction curves on the half-line, by root-finding on the
signs of their derivatives.  Each curve has at most one interior optimum:

* f'(t) has the sign of G(x), x = log t, the log form of ``h_factor``:

      G(x) = log kappa + (c-1) x + log(c + (c-b) e^x) - log pgamma
             - a log(1 + e^x)

  left of x_max = log(c/(b-c)) when c < b (right of it h < 0).  G' is
  strictly decreasing as a > 0 and c <= b, so G has at most two roots: a
  local minimum of f, then a local maximum.
* l'(s) has the sign of F(u) = c u m(s) = (b-c) - b u + (c-a) u^k
  + a u^(k+1), with u = 1/(1+t) and k = pgamma.  F(1) = 0, and
  F'' = k u^(k-2) [(k-1)(c-a) + a(k+1) u] goes from - to + at most once; a
  positive lobe ending at u = 1 needs F concave there, so concave to its
  left too, and F cannot run +, -, +.  F starts at b - c > 0; when c = b,
  F/u = -b + (c-a) u^(k-1) + a u^k starts positive for k < 1, and F is
  convex and negative for k >= 1.  So F changes sign at most once.

Whether a root exists is read off the analytic signs at the ends of the
range.  The root is then bisected over the whole range of its variable in
the order of the double bit patterns, which reaches adjacent doubles within
64 evaluations wherever it sits (log t* = -222344 occurs on valid input).
Off the critical case f's maximum is solved in z = x - x_max, as it can sit
closer to x_max than one ulp of x.  The optimum is compared with the
analytic boundary limits; values closer than 1e-11 are reported as a
marginal tie rather than guessed, because boundary cases belong to the
analytic classifier, not to float luck.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .curves import CurveParams, ScalarCurve, t_from_log
from .errors import NumericalError

#: interior optimum and boundary limit closer than this (absolute) tie
_MARGIN = 1e-11
_EPS = 2.0 ** -52
_SIGN_BIT = 1 << 63


@dataclass(frozen=True)
class OptResult:
    """Outcome of a half-line optimization.

    value       supremum (or infimum) over (0, inf) including boundary limits
    attained    True iff an interior point strictly beats every boundary
                limit by the safety margin
    err_bound   estimated absolute error of ``value``
    n_evals     number of sign-function and curve evaluations spent
    marginal    True when interior best and boundary limit agree within the
                margin (analytically ambiguous at float precision)
    log_argopt  log t* of the interior optimizer, None when the optimum is
                a boundary limit; still populated for marginal ties
    """

    value: float
    attained: bool
    err_bound: float
    n_evals: int
    marginal: bool = False
    log_argopt: float | None = None

    @property
    def argopt(self) -> float | None:
        """t* = exp(log_argopt) when a double holds it, else None."""
        return t_from_log(self.log_argopt)


def _order(i: int) -> int:
    """Bit pattern of a double <-> its rank among the doubles (an involution)."""
    return i if i >= 0 else -i - _SIGN_BIT


def _sign_change(fun, pos: float, neg: float) -> tuple[float, int]:
    """Where ``fun`` turns from > 0 on the ``pos`` side to <= 0 on ``neg``'s.

    The ends are never evaluated, so they may be infinite; the caller knows
    their signs from the asymptotes.  Returns the last double found
    positive (``pos`` itself if none is) and the evaluations spent.
    """
    i, j = (_order(struct.unpack("<q", struct.pack("<d", x))[0]) for x in (pos, neg))
    n = 0
    while abs(i - j) > 1:
        m = (i + j) // 2
        if fun(struct.unpack("<d", struct.pack("<q", _order(m)))[0]) > 0.0:
            i = m
        else:
            j = m
        n += 1
    return struct.unpack("<d", struct.pack("<q", _order(i)))[0], n


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow."""
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _objective_roots(cp: CurveParams, left: bool
                     ) -> tuple[float | None, float | None, float | None, int]:
    """(left root, peak, right root) of G as log t values, and evaluations.

    An entry is None where it does not exist; the left root, a local
    minimum of f, is looked for only when ``left``.  Critical curves are
    solved in z = x, the others in z = x - x_max < 0.
    """
    none = (None, None, None, 0)
    if cp.kappa == 0.0:
        return none  # h < 0: f decreasing
    a, c, pg = cp.a, cp.c, cp.pgamma
    K = math.log(cp.kappa) + math.log(c) - math.log(pg)
    crit = cp.is_critical
    x0, z_end = (0.0, math.inf) if crit else (math.log(c / (cp.b - c)), 0.0)

    def G(z: float) -> float:
        x = x0 + z
        v = K + (c - 1.0) * x - a * _softplus(x)
        return v if crit else v + math.log(-math.expm1(z))

    # sign of G as t -> 0, and as t -> inf (critical) or e^x_max
    lo_pos = c < 1.0 or (c == 1.0 and K > 0.0)
    hi_pos = crit and (pg > 1.0 or (pg == 1.0 and K > 0.0))
    if lo_pos != hi_pos:  # exactly one root
        if hi_pos and not left:
            return none
        z, n = _sign_change(G, -math.inf, z_end) if lo_pos else _sign_change(G, z_end, -math.inf)
        return (None, None, x0 + z, n) if lo_pos else (x0 + z, None, None, n)
    if lo_pos or c <= 1.0 or (crit and pg >= 1.0):
        return none  # G keeps one sign, or is monotone and negative

    # both ends negative, G' runs from c - 1 > 0 down to below zero
    n = 0
    if crit:
        zp = math.log((c - 1.0) / (1.0 - pg))  # G' = c - 1 - a e^x/(1+e^x)
    else:
        def dG(z: float) -> float:
            sigmoid = 0.5 * (1.0 + math.tanh(0.5 * (x0 + z)))
            return c - 1.0 - a * sigmoid + math.exp(z) / math.expm1(z)
        zp, n = _sign_change(dG, -math.inf, 0.0)
    n += 1
    if G(zp) <= 0.0:
        return None, x0 + zp, None, n  # f only flattens at the peak
    zr, m = _sign_change(G, zp, z_end)
    n += m
    xl = None
    if left:
        zl, m = _sign_change(G, zp, -math.inf)
        n += m
        xl = x0 + zl
    return xl, x0 + zp, x0 + zr, n


def _ratio_root(cp: CurveParams) -> tuple[float | None, int]:
    """log t of the sign change of F (module docstring), and evaluations."""
    a, b, c, k = cp.a, cp.b, cp.c, cp.pgamma
    # F < 0 near u = 1: F'(1) = k (c - 1), and F''(1) = k (k - 1 + 2a) at c = 1
    # (where F'''(1) > 0 settles F''(1) = 0)
    if not (c > 1.0 or (c == 1.0 and 2.0 * a + k <= 1.0)):
        return None, 0
    if cp.is_critical:
        if k >= 1.0:
            return None, 0

        def F(x: float) -> float:  # F/u, positive near u = 0 for k < 1
            w = -_softplus(x)  # log u
            # capped: past e^700 the first term dominates, and only the sign counts
            return (c - a) * math.expm1(min((k - 1.0) * w, 700.0)) + a * math.expm1(k * w)
    else:
        def F(x: float) -> float:  # tends to b - c > 0 at u = 0
            w = -_softplus(x)
            return (-b * math.expm1(w) + (c - a) * math.expm1(k * w)
                    + a * math.expm1((k + 1.0) * w))
    return _sign_change(F, math.inf, -math.inf)


def _result(curve: ScalarCurve, log_t: float | None, n_evals: int,
            sign: float) -> OptResult:
    """Compare the interior candidate at ``log_t`` with the boundary limits."""
    limits = curve.limits()
    boundary = max(limits) if sign > 0 else min(limits)
    if log_t is not None:
        best = float(curve.value_log_t(log_t))
        n_evals += 1
        if math.isnan(best):
            raise NumericalError(f"curve evaluated to NaN at log t={log_t!r}")
        # roundoff of exponentials whose arguments grow like b |log t|
        err = 8.0 * _EPS * abs(best) * (1.0 + curve.params.b * (1.0 + abs(log_t)))
        gap = math.inf if math.isinf(boundary) else sign * (best - boundary)
        if gap > _MARGIN:
            return OptResult(value=best, attained=True, err_bound=err,
                             n_evals=n_evals, log_argopt=log_t)
        if gap >= -_MARGIN:
            value = max(best, boundary) if sign > 0 else min(best, boundary)
            return OptResult(value=value, attained=False,
                             err_bound=max(err, abs(best - boundary)),
                             n_evals=n_evals, marginal=True, log_argopt=log_t)
    return OptResult(value=boundary, attained=False,
                     err_bound=4.0 * _EPS * abs(boundary) if math.isfinite(boundary) else 0.0,
                     n_evals=n_evals)


def stationary_points(cp: CurveParams) -> list[float]:
    """Interior stationary points of f, as log t values in increasing order.

    They are the roots of G (module docstring): at most two, a local
    minimum of f and, right of it, a local maximum.  Log values, because
    for weights near zero they sit at t far outside the double range.
    Empty when f is monotone (e.g. kappa = 0).
    """
    left, _, right, _ = _objective_roots(cp, left=True)
    return [x for x in (left, right) if x is not None]


def maximize_halfline(curve: ScalarCurve) -> OptResult:
    """Supremum of the objective curve over (0, inf), boundary limits included.

    The candidate is the right root of G.  Where G peaks at or below zero,
    f only flattens at the peak, which is then the candidate of a tie.
    """
    if curve.kind != "objective":
        raise ValueError("maximize_halfline takes the objective curve")
    _, peak, right, n = _objective_roots(curve.params, left=False)
    return _result(curve, peak if right is None else right, n, +1.0)


def minimize_halfline(curve: ScalarCurve) -> OptResult:
    """Infimum of the ratio curve over (0, inf), boundary limits included."""
    if curve.kind != "ratio":
        raise ValueError("minimize_halfline takes the ratio curve")
    x, n = _ratio_root(curve.params)
    return _result(curve, x, n, -1.0)
