"""Optima of the reduction curves on the half-line, by root-finding on the
signs of their derivatives.  Both optimizers take the ``CurveParams`` of a
family: ``maximize_halfline`` the supremum of the objective curve f,
``minimize_halfline`` the infimum of the ratio curve g, which does not
read kappa.  Each curve has at most one interior optimum:

* f'(t) has the sign of G(x), x = log t (``objective_sign``):

      G(x) = log kappa + (c-1) x + log(c + (c-b) e^x) - log pgamma
             - a log(1 + e^x)

  left of x_max = log(c/(b-c)) when c < b; right of it, and for kappa = 0,
  f' < 0 outright and G is -inf.  G' is strictly decreasing as a > 0 and
  c <= b, so G has at most two roots: a local minimum of f, then a local
  maximum.  Only the right root, a + to - change, is looked for.
* g'(t) has the sign of F(u) = (b-c) - b u + (c-a) u^k + a u^(k+1), with
  u = 1/(1+t) and k = pgamma (``ratio_sign``, as the quotient below).
  F(1) = 0, and F'' = k u^(k-2) [(k-1)(c-a) + a(k+1) u] goes from - to +
  at most once; a positive lobe ending at u = 1 needs F concave there, so
  concave to its left too, and F cannot run +, -, +.  F starts at
  b - c > 0; when c = b, F/u = -b + (c-a) u^(k-1) + a u^k starts positive
  for k < 1, and F is convex and negative for k >= 1.  So F changes sign
  at most once.

Whether a root exists is read off the analytic signs at the ends of the
range.  Each root is then found in x by safeguarded Newton (``rtsafe`` of
Press et al., *Numerical Recipes*, section 9.4) on a bracket kept in the
order of the double bit patterns, so that it still ends at adjacent doubles
wherever the root sits (log t* = -222344 occurs on valid input) and never
evaluates an infinite end; ``_sign_change`` gives the safeguard.  Newton
sees well-scaled forms from analytic starts, K = log(kappa c / pgamma):

* G lies below its asymptotes K + (c-1) x (t -> 0) and, critical,
  K + (pgamma-1) x (t -> inf), and is concave.  Started where an asymptote
  vanishes, at -K/(c-1) or K/(1-pgamma), Newton stays on the nonpositive
  side and converges monotonically.  Where c = 1 the first asymptote is
  flat; G without its (c-1) x term vanishes where a log(1 + e^x) = K
  instead.  Off the critical case the log(-expm1 z) term, z = x - x_max,
  is linear in w = log(x_max - x) near x_max: the rest of G there, G_s,
  puts the root near x_max - e^-G_s, and within 1 of x_max the right root
  takes Newton's steps in w.  The bracket stays in x, so that the returned
  log t* is a sign change between adjacent doubles of x.
* Near a tangency (a weight at its threshold) the two roots flank the peak
  x_p closely and plain Newton converges only linearly; the right one
  starts where the peak's quadratic model vanishes,
  x_p + sqrt(2 G(x_p)/|G''(x_p)|).
* The peak is closed-form in the critical case.  Off it, it is the sign
  change of z G'(x), which tends to 1 at x_max instead of diverging.
* F is divided by its trivial zero at u = 1, as F/s with s = 1 - u, and in
  the critical case also by u^k, its order at u = 0, so that it tends to
  constants at both ends.  Newton starts where the quotient's linear model
  in log u at u = 1 vanishes when that lies within log u > -1, else from
  its small-u form (critical) or from t = 1.

The last doubles are only as good as the rounding of the sign functions
near the root.  So each is summed as its value at the nearest anchor plus
a remainder that is small there: G and G' about either asymptote or t = 1,
F's quotient about u = 1, u = 1/2 or u = 0 (with the series of
expm1(m w) - m expm1(w) next to u = 1), and log(1 - e^z) by log1p where
e^z is small.  The rounding then shrinks with the distance to the anchor,
and a root at t = 1 exactly (pgamma = 1 with c = (b+1)/2, say), or one set
by a tiny c - 1 or b - c, costs a few evaluations instead of a bisection
through the 2^60 doubles that an absolute 1e-16 spans near x = 0.

The optimum is compared with the analytic boundary limits as logs, since
either may lie beyond the doubles; values closer than 1e-11 (absolute) are
reported as a marginal tie rather than guessed, because boundary cases
belong to the analytic classifier, not to float luck.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .curves import (CurveParams, _exp_or_inf, log_f_at_log_t, log_f_limits, log_g_at_log_t,
                     log_g_limits)
from .errors import NumericalError

#: interior optimum and boundary limit closer than this (absolute) tie
_MARGIN = 1e-11
_EPS = 2.0 ** -52
_LOG2 = math.log(2.0)
_SIGN_BIT = 1 << 63
#: a refused Newton step this many times shorter than the bracket hops
_LOCAL = 64
_BITS = struct.Struct("<q")
_DOUBLE = struct.Struct("<d")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a half-line optimization.

    log_value   log of the supremum (or infimum) over (0, inf) including
                boundary limits; ``value`` is its exponential
    attained    True iff an interior point strictly beats every boundary
                limit by the safety margin
    err_bound   estimated absolute error of ``value``
    n_evals     number of evaluations spent: each of a sign function (its
                value and slope count as one) and of the curve counts one
    marginal    True when interior best and boundary limit agree within the
                margin (analytically ambiguous at float precision)
    log_argopt  log t* of the interior optimizer, None when the optimum is
                a boundary limit; still populated for marginal ties
    """

    log_value: float
    attained: bool
    err_bound: float
    n_evals: int
    marginal: bool = False
    log_argopt: float | None = None

    @property
    def value(self) -> float:
        """e^log_value, inf where no double holds it."""
        return _exp_or_inf(self.log_value)


def _rank(x: float) -> int:
    """Rank of a double among the doubles, from its bit pattern."""
    i = _BITS.unpack(_DOUBLE.pack(x))[0]
    return i if i >= 0 else -i - _SIGN_BIT


def _double(i: int) -> float:
    """The double of rank ``i``, the inverse of :func:`_rank`."""
    return _DOUBLE.unpack(_BITS.pack(i if i >= 0 else -i - _SIGN_BIT))[0]


def _sign_change(fun, pos: float, neg: float, x: float) -> tuple[float, int]:
    """Where ``fun`` turns from > 0 on the ``pos`` side to <= 0 on ``neg``'s.

    ``fun`` returns its value and slope; Newton starts at ``x`` (a start
    outside the bracket, or NaN, bisects first).  The bracket is kept in
    bit order, and every step lands strictly inside it:

    * Newton's step, if it is shorter than half the step before last;
      while nothing has been evaluated past the root, any step toward a
      finite end, and toward an infinite one a step shorter than half the
      last (else the last step doubles, which speeds up the slow Newton
      steps on an exponential tail);
    * where Newton puts the root at or just past the bound across it (an
      evaluated point or a finite end), the double next to that bound,
      then 2, 4, ... doubles from it (the root sits right at the bound);
    * where a refused Newton step is ``_LOCAL`` times shorter than the
      bracket, Newton has stalled in rounding noise: a hop toward the root
      from the larger of the step and about an ulp, doubling while it
      repeats, crosses the noise;
    * else the bisection of the bracket in bit order.

    The ends are never evaluated, so they may be infinite; the caller knows
    their signs from the asymptotes.  Returns the last double found
    positive (``pos`` itself if none is) and the evaluations spent.
    """
    ends = i, j = _rank(pos), _rank(neg)
    k = _rank(x) if x == x else i
    if not min(i, j) < k < max(i, j):
        k = (i + j) // 2
        x = _double(k)
    n, dx, dx_old, hop, back = 0, math.inf, math.inf, 0.0, 1
    while abs(i - j) > 1:
        v, d = fun(x)
        n += 1
        if v > 0.0:
            i, far = k, j
        else:
            j, far = k, i
        lo, hi = (i, j) if i < j else (j, i)
        toward = 1 if far > k else -1
        unexplored = far in ends
        unbounded = unexplored and math.isinf(pos if far == ends[0] else neg)
        y = x - v / d if d else math.nan
        m = _rank(y) if abs(y) < math.inf else None
        inside = m is not None and lo < m < hi
        if m is not None and not unbounded and 0 <= toward * (m - far) <= 2 * back:
            m = far - toward * back
            y = None
            back *= 2
        elif inside and (abs(y - x) < 0.5 * dx_old or unexplored and not unbounded
                         or unbounded and abs(y - x) < 0.5 * dx):
            hop, back = 0.0, 1
        elif (m is None or inside) and unbounded:
            y = x + toward * 2.0 * dx
            m = _rank(y) if abs(y) < math.inf else None
        elif m is not None and _LOCAL * abs(m - k) < hi - lo:
            hop = max(2.0 * hop, abs(y - x), _EPS * max(1.0, abs(x)))
            y = x + toward * hop
            m, back = _rank(y), 1
        else:
            m = None
        if m is None or not lo < m < hi:
            m = (i + j) // 2
            y = None
        if y is None:
            y = _double(m)
        dx_old, dx = dx, abs(y - x)
        x, k = y, m
    return _double(i), n


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow."""
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _softplus_inv(y: float) -> float:
    """log(e^y - 1) for y > 0, the inverse of :func:`_softplus`."""
    return y + math.log(-math.expm1(-y))


def _log1mexp(z: float) -> float:
    """log(1 - e^z) for z < 0, accurate at both ends (Maechler 2012)."""
    return math.log(-math.expm1(z)) if z > -_LOG2 else math.log1p(-math.exp(z))


def _expm1_gap(m: float, w: float) -> float:
    """expm1(m w) - m expm1(w), by its series sum (m^n - m) w^n / n! for
    |w| < 1e-3, where the difference cancels to O(w^2)."""
    if abs(w) >= 1e-3:
        return math.expm1(m * w) - m * math.expm1(w)
    total, mw_n, w_n = 0.0, m * w, w
    for n in range(2, 9):
        mw_n *= m * w / n
        w_n *= w / n
        total += mw_n - m * w_n
    return total


def _start(lo: float, hi: float, xs: tuple[float, ...]) -> float:
    """The least of ``xs`` strictly between ``lo`` < ``hi``; if there is
    none, their midpoint, or 1 inside the finite end, or 0."""
    inside = [x for x in xs if lo < x < hi]
    if inside:
        return min(inside)
    if math.isinf(lo):
        return hi - 1.0 if math.isfinite(hi) else 0.0
    return lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)


def objective_sign(cp: CurveParams):
    """x = log t -> (G(x), G'(x)), G of the module docstring, on the whole
    real line; -inf with slope 0 where f' < 0 outright."""
    if cp.log_kappa == -math.inf:
        return lambda x: (-math.inf, 0.0)
    a, c = cp.a, cp.c
    K = cp.log_kappa + math.log(c) - math.log(cp.pgamma)
    crit = cp.is_critical
    x0 = math.inf if crit else math.log(c / (cp.b - c))

    # G and G' at t = 1 without the log(-expm1 z) term, and that term and
    # its derivative there, which anchor at t = 1 where 0 is nearer than x_max
    g1 = K - a * _LOG2
    d1 = c - 1.0 - 0.5 * a
    mid = min(1.0, 0.5 * x0) if not crit and x0 > 0.0 else -1.0
    if mid > -1.0:
        e0 = math.expm1(x0)
        t1 = math.log(-math.expm1(-x0))
        r1 = math.exp(-x0) / math.expm1(-x0)

    def G(x: float) -> tuple[float, float]:
        """G and G', each summed as its value at the nearest anchor (the
        asymptotes as t -> 0 and t -> inf, and t = 1) plus a remainder, so
        that the rounding shrinks with the remainder near the anchor."""
        if x >= x0:
            return -math.inf, 0.0
        if x > 1.0:
            r = math.log1p(math.exp(-x))
            v, rest = K, (c - 1.0 - a) * x - a * r
            d, slope = c - 1.0 - a, a * math.exp(-x - r)
        elif x < -1.0:
            r = math.log1p(math.exp(x))
            v, rest = K, (c - 1.0) * x - a * r
            d, slope = c - 1.0, -a * math.exp(x - r)
        else:
            v, rest = g1, (c - 1.0) * x - a * math.log1p(0.5 * math.expm1(x))
            d, slope = d1, -0.5 * a * math.tanh(0.5 * x)
        if not crit and -1.0 <= x < mid:
            v += t1
            d += r1
            rest += math.log1p(-math.expm1(x) / e0)
            slope += (e0 + 1.0) * math.expm1(-x) / (math.expm1(x0 - x) * e0)
        elif not crit:
            rest += _log1mexp(x - x0)
            slope += math.exp(x - x0) / math.expm1(x - x0)
        return v + rest, d + slope

    return G


def ratio_sign(cp: CurveParams):
    """x = log t -> (value, slope) of F's quotient (module docstring) on the
    whole real line; -inf with slope 0 where it falls below the doubles."""
    a, b, c, k = cp.a, cp.b, cp.c, cp.pgamma
    crit = cp.is_critical
    at_one = k * (1.0 - c)  # both quotients at u = 1: -F'(1)
    h = 2.0 ** -k
    f_half = (b - c) - 0.5 * b + (c - a) * h + 0.5 * a * h  # F(1/2)
    # critical with k > 1 the quotient falls like -b u^(1-k) as u -> 0
    w_min = -700.0 / (k - 1.0) if crit and k > 1.0 else -math.inf

    def F(x: float) -> tuple[float, float]:
        """The quotient (F / (s u^k) = b (1 - u^(1-k)) / (1 - u) - a when
        critical, else F / s) summed about the nearest of u = 1, u = 1/2
        and u = 0; and its slope."""
        sp = _softplus(x)
        w = -sp  # log u
        if w > -1e-300:
            return at_one, 0.0
        if w < w_min:
            return -math.inf, 0.0
        e1 = math.expm1(w)
        if crit:
            ek = math.expm1((1.0 - k) * w)
            slope = -math.exp(x - sp) * b * ((1.0 - k) * (ek + 1.0) - ek / e1 * (e1 + 1.0)) / e1
        else:
            ek, ek1 = math.expm1(k * w), math.expm1((k + 1.0) * w)
            q = ((c - a) * ek + a * ek1) / e1
            slope = math.exp(x - sp) * ((c - a) * k * (ek + 1.0) + a * (k + 1.0) * (ek1 + 1.0)
                                        - q * (e1 + 1.0)) / e1
        if x <= -1.0:
            if crit:
                gap = -b * _expm1_gap(1.0 - k, w)
            else:
                gap = (c - a) * _expm1_gap(k, w) + a * _expm1_gap(k + 1.0, w)
            return at_one - gap / e1, slope
        if x < 1.0:
            L = -math.log1p(0.5 * math.expm1(x))  # log 2u
            m1, mk = math.expm1(L), math.expm1(k * L)
            f = f_half + (-0.5 * b * m1 + (c - a) * h * mk
                          + 0.5 * a * h * math.expm1((k + 1.0) * L))
            s1 = 0.5 * (1.0 - m1)
            return (f / (s1 * (h * (1.0 + mk))) if crit else f / s1), slope
        u = math.exp(w)
        if crit:
            return k + b * (math.exp((1.0 - k) * w) - u) / e1, slope
        rest = c * u - (c - a) * math.exp(k * w) - a * math.exp((k + 1.0) * w)
        return (b - c) + rest / e1, slope

    return F


def _objective_roots(cp: CurveParams) -> tuple[float | None, float | None, int]:
    """(peak, right root) of G as log t values, and evaluations.

    An entry is None where it does not exist.  G's left root, a local
    minimum of f, is never looked for: no optimum sits there.
    """
    none = (None, None, 0)
    if cp.log_kappa == -math.inf:
        return none  # h < 0: f decreasing
    a, c, pg = cp.a, cp.c, cp.pgamma
    K = cp.log_kappa + math.log(c) - math.log(pg)
    crit = cp.is_critical
    x0 = math.inf if crit else math.log(c / (cp.b - c))
    G = objective_sign(cp)

    def G2(x: float) -> float:
        """G''."""
        d2 = -a * math.exp(x - 2.0 * _softplus(x))
        if crit:
            return d2
        e = math.expm1(x - x0)
        return d2 - (e + 1.0) / e / e

    def Gw(x: float) -> tuple[float, float]:
        """G and, within 1 of x_max, the slope of the chord to where G's
        tangent in w = log(x_max - x) vanishes: Newton in w, where the
        log(-expm1 z) term is linear, on the bracket in x."""
        g, dg = G(x)
        gap = x0 - x
        if gap >= 1.0 or not g or not dg * gap:
            return g, dg
        dw = g / (dg * gap)
        chord = gap * math.expm1(dw) if dw < 700.0 else math.inf
        return g, (g / chord if chord else dg)

    def zG1(x: float) -> tuple[float, float]:
        """(x - x_max) G' and its slope."""
        z = x - x0
        d = G(x)[1]
        return z * d, d + z * G2(x)

    # starts (module docstring): where an asymptote vanishes, and near x_max
    # when the rest of G there, G_s, puts the root within 1 of it
    x_lo = -K / (c - 1.0) if c != 1.0 else math.nan
    x_hi = K / (1.0 - pg) if crit and pg != 1.0 else math.nan
    gs = math.nan if crit else K + (c - 1.0) * x0 - a * _softplus(x0)
    x_w = min(x0 - math.exp(-gs), math.nextafter(x0, -math.inf)) if gs > 0.0 else math.nan

    # sign of G as t -> 0, and as t -> inf (critical) or e^x_max
    lo_pos = c < 1.0 or (c == 1.0 and K > 0.0)
    hi_pos = crit and (pg > 1.0 or (pg == 1.0 and K > 0.0))
    if lo_pos != hi_pos:  # exactly one root
        if hi_pos:
            return none  # a left root: f falls, then rises toward kappa
        x_e = _softplus_inv(K / a) if K > 0.0 else math.nan
        x, n = _sign_change(Gw, -math.inf, x0,
                            _start(-math.inf, x0, (x_lo, x_hi, x_w, x_e)))
        return None, x, n
    if lo_pos or c <= 1.0 or (crit and pg >= 1.0):
        return none  # G keeps one sign, or is monotone and negative

    # both ends negative, G' runs from c - 1 > 0 down to below zero
    n = 0
    if crit:
        xp = math.log((c - 1.0) / (1.0 - pg))  # G' = c - 1 - a e^x/(1+e^x)
    else:
        # G' ~ G_s' + 1/z near x_max; G_s' = c - 1 - a e^x/(1+e^x)
        gs1 = c - 1.0 - a * math.exp(x0 - _softplus(x0))
        start = x0 - 1.0 / (gs1 + 0.5) if gs1 > 0.0 else math.log((c - 1.0) / (a + 1.0 - c))
        xp, n = _sign_change(zG1, x0, -math.inf, start)
    vp = G(xp)[0]
    n += 1
    if vp <= 0.0:
        return xp, None, n  # f only flattens at the peak
    d2 = G2(xp)
    half = math.sqrt(2.0 * vp / -d2) if d2 < 0.0 else math.nan
    xr, m = _sign_change(Gw, xp, x0, _start(xp, x0, (xp + half, x_hi, x_w)))
    return xp, xr, n + m


def _ratio_root(cp: CurveParams) -> tuple[float | None, int]:
    """log t of the sign change of F (module docstring), and evaluations."""
    a, b, c, k = cp.a, cp.b, cp.c, cp.pgamma
    # F < 0 near u = 1: F'(1) = k (c - 1), and F''(1) = k (k - 1 + 2a) at c = 1
    # (where F'''(1) > 0 settles F''(1) = 0)
    if not (c > 1.0 or (c == 1.0 and 2.0 * a + k <= 1.0)):
        return None, 0
    crit = cp.is_critical
    if crit and k >= 1.0:
        return None, 0
    at_one = k * (1.0 - c)  # -F'(1), the quotient at u = 1
    if crit:
        # at small u the quotient is b (1 - u^(1-k)) - a
        start = _softplus_inv(math.log(b / k) / (1.0 - k))
        rate = 0.5 * b * k * (1.0 - k)
    else:
        start = 0.0
        rate = 0.5 * k * ((k - 1.0) * (c - a) + a * (k + 1.0))
    # near u = 1 the quotient is at_one - rate log u
    if rate > 0.0 and at_one > -rate:
        w = at_one / rate
        start = math.log(-math.expm1(w)) - w
    return _sign_change(ratio_sign(cp), math.inf, -math.inf, start)


def _result(cp: CurveParams, log_at_log_t, log_limits: tuple[float, float],
            log_t: float | None, n_evals: int, sign: float) -> OptResult:
    """Compare the curve's log ``log_at_log_t`` at the interior candidate
    ``log_t`` with the logs of its boundary limits ``log_limits``."""
    bound = max(log_limits) if sign > 0 else min(log_limits)
    if log_t is not None:
        best = float(log_at_log_t(cp, log_t))
        n_evals += 1
        if math.isnan(best):
            raise NumericalError(f"curve evaluated to NaN at log t={log_t!r}")
        # roundoff of exponentials whose arguments grow like b |log t|
        err = 8.0 * _EPS * _exp_or_inf(best) * (1.0 + cp.b * (1.0 + abs(log_t)))
        hi, lo = max(best, bound), min(best, bound)
        gap = _exp_or_inf(hi + _log1mexp(lo - hi)) if lo < hi else 0.0  # |e^best - e^bound|
        if gap > _MARGIN and sign * (best - bound) > 0:
            return OptResult(log_value=best, attained=True, err_bound=err,
                             n_evals=n_evals, log_argopt=log_t)
        if gap <= _MARGIN:
            return OptResult(log_value=hi if sign > 0 else lo, attained=False,
                             err_bound=max(err, gap), n_evals=n_evals, marginal=True,
                             log_argopt=log_t)
    return OptResult(log_value=bound, attained=False,
                     err_bound=4.0 * _EPS * _exp_or_inf(bound) if bound < math.inf else 0.0,
                     n_evals=n_evals)


def maximize_halfline(cp: CurveParams) -> OptResult:
    """Supremum of the objective curve f over (0, inf), boundary limits included.

    The candidate is the right root of G.  Where G peaks at or below zero,
    f only flattens at the peak, which is then the candidate of a tie.
    """
    peak, right, n = _objective_roots(cp)
    return _result(cp, log_f_at_log_t, log_f_limits(cp), peak if right is None else right, n,
                   +1.0)


def minimize_halfline(cp: CurveParams) -> OptResult:
    """Infimum of the ratio curve g over (0, inf), boundary limits included.

    g does not depend on kappa, and neither does the result.
    """
    x, n = _ratio_root(cp)
    return _result(cp, log_g_at_log_t, log_g_limits(cp), x, n, -1.0)
