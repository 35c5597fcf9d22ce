"""Radial profiles, their norms, and the explicit test families.

Everything the functional sees is a radial profile: the optimal bubble,
its dilations, its truncations, and random trial functions.  Each one is
one closed-form callable that returns u and u' together, plus where it
ends (a compact support, or the rate of an algebraic decay) and the radii
(breaks) where it is not smooth or changes scale; nothing is stored on a
grid.  A family of profiles is one such object whose callable broadcasts
over a (rows, nodes) array.  This module computes the three norms every
evaluation needs by Gauss panels (with ``log_sphere_area``), with analytic
head and tail corrections, and turns them into J on the profile's
normalized dilation orbit (``orbit_curve``).

Norm quadrature layout for a moment integral of |u|^e r^(N-1) dr, the
same for every profile and every row of a family:

* panels: Gauss-Kronrod 7-15 between edges that include every declared
  break; in r over [0, support], graded as support (i/K)^2, for a compact
  profile, and in log r over [r_min, r_cut], at most _LOG_STEP wide and
  graded geometrically toward each break, for an algebraic one;
* value: the 7-point Gauss sum; err_bound: the Kronrod-Gauss difference,
  which is the Gauss sum's error up to the Kronrod sum's far smaller one,
  plus a roundoff floor read from the size of each exponent;
* head [0, r_min] (log r only): |u(r_min)|^e r_min^N / N;
* tail [r_cut, inf): zero for compact support; for algebraic decay of
  rate d the closed form |u(r_cut)|^e r_cut^N / (d e - N), with u' read
  as decaying at rate d + 1, and the power law's own error extrapolated
  from the last two decades below r_cut into the bound.  One r_cut serves
  all three moments: the one placed from the smallest decay excess d e - N
  (the mass moment's when q > p), capped when slow decay would push it
  astronomically far.

u and u' are evaluated together, once per profile, over all rows at once
(in node blocks of _CHUNK for a large family), and all three moments are
read from those values.

A moment whose tail exponent fails d*e > N is divergent and raises
``DivergentNormError`` rather than returning a large number.

Each profile, and each family, needs this quadrature once:
``orbit_curve`` turns its norms into J on its whole normalized dilation
orbit.  The optimal bubble needs
none: ``bubble_norms`` gives its norms as Beta functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .curves import CurveParams, _exp_or_inf
from .errors import DivergentNormError, NumericalError, ParamError
from .params import ProblemParams

_R_MIN = 1e-6          # log-r panels start here, after a closed-form head
_TAIL_TARGET = 1e-14   # desired tail/total fraction of an algebraic tail
_R_CUT_MAX = 1e8
_GRADED_PANELS = 16    # edges support * (i/K)^2 on a compact support
_LOG_STEP = 0.5        # widest panel in log r
_LOG_REFINE = tuple(2.0 ** (k / 2.0) / 32.0 for k in range(10))  # log-r edges this far from each break
_TINY = 5e-324         # added before a log, so that log 0 is finite and exp of it 0
_NORMAL = np.finfo(float).tiny  # the least normal double
_CHUNK = 1 << 15       # nodes per values call, so that its temporaries stay in cache


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N, 2 pi^(N/2) / Gamma(N/2).

    Gamma(N/2) overflows from N = 344.  There Legendre's duplication formula
    Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z + 1/2) / sqrt(pi), z = N/4, splits
    the quotient into two factors that stay in the double range.  From
    N = 439 the area lies below the normal doubles, where it would keep few
    digits, and is 0.
    """
    if N < 344:
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    if N >= 439:
        return 0.0
    half = (math.pi / 2.0) ** (N / 4.0)
    return (4.0 * math.sqrt(math.pi) * (half / math.gamma(N / 4.0))
            * (half / math.gamma(N / 4.0 + 0.5)))


def log_sphere_area(N: int) -> float:
    """log |S^(N-1)|, for every N: the log of ``sphere_area``, which keeps
    more digits, and where that is 0, log 2 + N/2 log pi - lgamma(N/2)."""
    area = sphere_area(N)
    if area > 0.0:
        return math.log(area)
    return math.log(2.0) + N / 2.0 * math.log(math.pi) - math.lgamma(N / 2.0)


def _unheld(name: str, N: int, shown: str) -> NumericalError:
    """The error for a norm outside [_NORMAL, inf): one that underflowed
    (a subnormal keeps few digits), overflowed, or is the zero profile's,
    which no quotient can read."""
    return NumericalError(f"the {name} norm in dimension {N} is {shown}, "
                          "outside the normal doubles")


# Gauss-Kronrod 7-15 on [0, 1]: the 7 Gauss nodes, then the 8 Kronrod
# nodes added to them (Kronrod 1965; QUADPACK's qk15, Piessens et al.
# 1983), and the columns (Kronrod weights, Gauss weights) over all 15
_XG7, _WG7 = np.polynomial.legendre.leggauss(7)
_XG7, _WG7 = (_XG7 + 1.0) / 2.0, _WG7 / 2.0
_XK8 = 0.5 + 0.5 * np.array([-0.991455371120812639206854697526329,
                             -0.864864423359769072789712788640926,
                             -0.586087235467691130294144845693013,
                             -0.207784955007898467600689403773245])
_XK8 = np.concatenate([_XK8, 1.0 - _XK8[::-1]])
_X15 = np.concatenate([_XG7, _XK8])
_WK_GAUSS = np.array([0.063092092629978553290700663189204, 0.140653259715525918745189590510238,
                      0.190350578064785409913256402421014, 0.209482141084727828012999174891714])
_WK_ADDED = np.array([0.022935322010529224963732008058970, 0.104790010322250183839876322541518,
                      0.169004726639267902826583426598550, 0.204432940075298892414161999234649])
_RULES = np.stack([
    np.concatenate([_WK_GAUSS, _WK_GAUSS[-2::-1], _WK_ADDED, _WK_ADDED[::-1]]) / 2.0,
    np.concatenate([_WG7, np.zeros(8)])], axis=1)


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A radial function given by exact callables, or a family of them.

    N         ambient dimension (fixes the r^(N-1) measure)
    values    closed-form r -> (u(r), u'(r)), vectorized over r
    support   u(r) = 0 for r >= support (one per row for a family), or
    decay     u(r) ~ const * r^(-decay) as r -> inf: exactly one is given
    breaks    radii where u or u' is not smooth or changes scale; the
              quadrature puts panel edges there
    rows      None for one profile; for a family, its number of profiles:
              values then broadcasts over r of shape (rows, nodes), and
              a support and the breaks carry one row per profile

    A family reads as a sequence of its rows, each one profile.
    """

    N: int
    values: Callable = field(repr=False)
    support: float | np.ndarray | None = None
    decay: float | None = None
    breaks: tuple | np.ndarray = field(default=(), repr=False)
    rows: int | None = None

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ParamError("N", f"need integer N >= 1, got {self.N!r}")
        if not callable(self.values):
            raise ParamError("profile", "a profile needs a callable values(r) -> (u, du)")
        if self.rows is not None and not (isinstance(self.rows, int) and self.rows >= 1):
            raise ParamError("rows", f"a family needs an integer rows >= 1, got {self.rows!r}")
        if (self.support is None) == (self.decay is None):
            raise ParamError("tail", "a profile needs exactly one of support and decay")
        if self.support is not None and not np.all(np.asarray(self.support) > 0):
            raise ParamError("tail", f"a support must be > 0, got {self.support}")
        if self.decay is not None and not self.decay > 0:
            raise ParamError("tail", f"a decay rate must be > 0, got {self.decay}")
        if self.support is not None and np.size(self.support) != len(self):
            raise ParamError("tail", f"need one support per row, got {np.size(self.support)} "
                                     f"for {len(self)}")
        if np.size(self.breaks) % len(self):
            raise ParamError("breaks", f"need the same number of breaks in every row, got "
                                       f"{np.size(self.breaks)} for {len(self)}")

    def __len__(self) -> int:
        return 1 if self.rows is None else self.rows

    def __getitem__(self, i: int) -> "RadialProfile":
        """Row i of a family as one profile, whose values evaluate the
        whole family and keep row i; a single profile is its own row 0."""
        i = range(len(self))[i]
        if self.rows is None:
            return self
        family = self.values

        def values(r):
            r = np.asarray(r, dtype=float)
            return tuple(v[i].reshape(r.shape) for v in family(r.reshape(1, -1)))

        support = None if self.support is None else float(np.asarray(self.support)[i])
        return RadialProfile(N=self.N, values=values, support=support, decay=self.decay,
                             breaks=np.asarray(self.breaks, dtype=float).reshape(self.rows, -1)[i])


@dataclass(frozen=True)
class NormValue:
    value: float
    err_bound: float


@dataclass(frozen=True)
class Norms:
    """The three norms of a profile, each with an error bound (of the
    quadrature, or of roundoff for the closed forms of ``bubble_norms``)."""

    lp: NormValue
    grad_lp: NormValue
    lq: NormValue


# -- norm quadrature ------------------------------------------------------

def _cut_off(profile: RadialProfile, p: float,
             q: float) -> tuple[float | np.ndarray, tuple[float | None, ...]]:
    """(r_cut, tail decay excess of each moment lp, grad_lp, lq); no excesses
    when compact.  The first divergent moment raises.  The smallest excess
    places r_cut farthest, so it serves all three moments: the mass
    moment's d p - N, when q > p."""
    if profile.decay is None:
        return profile.support, (None, None, None)
    excesses = []
    for name, rate, e in (("lp", profile.decay, p), ("grad_lp", profile.decay + 1.0, p),
                          ("lq", profile.decay, q)):
        excess = rate * e - profile.N
        if excess <= 0:
            raise DivergentNormError(
                name,
                f"tail decay rate {rate} with exponent {e} gives a "
                f"divergent moment in dimension {profile.N}")
        excesses.append(excess)
    # clamp the base-10 exponent first: 10**x overflows for a tiny excess
    expo = min(max(-math.log10(_TAIL_TARGET) / min(excesses), 2.0), math.log10(_R_CUT_MAX))
    return min(_R_CUT_MAX, 10.0 ** expo), tuple(excesses)


def _layout(profile: RadialProfile, r_cut, rows: int):
    """Nodes of one cut-off: (r, log measure, panel edges, tail-check panels).

    Panels run in r over [0, support] for a compact profile and in log r
    over [r_min, r_cut] for an algebraic one; the log measure is that of
    |S^(N-1)| r^(N-1) dr in the panel's coordinate, the area taken in as a
    log so that no integrand overflows where its norm is a double, nor
    vanishes with an area below the doubles; the decade index (log r only)
    is k for the panels in [r_cut/10^k, r_cut/10^(k-1)], k = 1, 2, else 0.
    r has shape (rows, 15 per panel), plus, for log r, the nodes r_min,
    r_cut/100, r_cut/10 and r_cut that the head and tails read; it is
    stored node-major, so that an elementwise operation with a (rows, 1)
    parameter runs along rows.
    """
    breaks = np.asarray(profile.breaks, dtype=float).reshape(rows, -1)
    N = profile.N
    log_area = log_sphere_area(N)
    compact = profile.decay is None
    if compact:
        top = np.asarray(r_cut, dtype=float).reshape(-1, 1) * np.ones((rows, 1))
        edges = np.concatenate([top * (np.arange(_GRADED_PANELS + 1) / _GRADED_PANELS) ** 2,
                                np.clip(breaks, 0.0, top)], axis=1)
    else:
        lo, hi = math.log(_R_MIN), math.log(r_cut)
        n = math.ceil((hi - lo) / _LOG_STEP)
        with np.errstate(divide="ignore"):
            at = np.log(breaks)[:, :, None] + np.array(
                [0.0, *_LOG_REFINE, *(-d for d in _LOG_REFINE)])
        decades = hi - math.log(10.0) * np.array([2.0, 1.0])
        edges = np.concatenate([np.broadcast_to(np.linspace(lo, hi, n + 1), (rows, n + 1)),
                                np.broadcast_to(decades, (rows, 2)),
                                np.clip(at.reshape(rows, -1), lo, hi)], axis=1)
    edges = np.sort(edges, axis=1)
    a, h = edges[:, :-1], np.diff(edges, axis=1)
    s = (a.T[:, None, :] + h.T[:, None, :] * _X15[:, None]).reshape(-1, rows)
    if compact:
        return s.T, (N - 1) * np.log(s.T + _TINY) + log_area, edges, None
    s = np.concatenate([s, np.broadcast_to(
        np.array([[math.log(_R_MIN)], *decades[:, None], [hi]]), (4, rows))]).T
    return np.exp(s), N * s + log_area, edges, 2 * (a >= decades[0]) - (a >= decades[1])


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x), read as 0 below e^-700 (about 1e-304), as an underflow would,
    but off exp's far slower path for such arguments."""
    y = np.maximum(x, -700.0)
    np.exp(y, out=y)
    np.copyto(y, 0.0, where=x <= -700.0)
    return y


def _log_abs(values, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |u|, log |u'|) at r, with log 0 finite, from calls of ``values``
    on whole panels of every row at once, _CHUNK nodes at a time (one call
    for a single profile)."""
    logs = np.empty(r.shape, order="F"), np.empty(r.shape, order="F")
    step = max(1, _CHUNK // (15 * len(r))) * 15
    for c in range(0, r.shape[1], step):
        part = r[:, c:c + step]
        for out, v in zip(logs, values(part)):
            out[:, c:c + step] = np.log(np.abs(np.broadcast_to(
                np.asarray(v, dtype=float), part.shape)) + _TINY)
    return logs


def _head_and_tail(y: np.ndarray, kronrod: np.ndarray, decade: np.ndarray,
                   N: int, excess: float) -> tuple[np.ndarray, np.ndarray]:
    """(head + tail, bound on the tail law's error) of an algebraic moment.

    ``y`` holds the integrand |u|^e r^N at r_min, r_cut/100, r_cut/10 and
    r_cut, ``kronrod`` the panel sums (panels, rows), ``decade`` their
    decade index.  The head on [0, r_min] is y(r_min)/N and the tail past
    r is y(r)/excess, exact for a pure power law.  With a correction of
    relative size A r^(-s) the tail at r is off by E(r) ~ r^(-m),
    m = excess + s, so the gaps G_k between the tail at r_cut/10^k and the
    decade above it plus the tail at its top are G_1 = E(r_cut)(10^m - 1)
    and G_2 = 10^m G_1: twice the extrapolated E(r_cut) = G_1^2/(G_2 - G_1)
    is the bound, capped by G_1/(10^excess - 1), which holds for any s > 0.
    """
    tails = y[:, 1:] / excess
    bodies = [np.where(decade.T == k, kronrod, 0.0).sum(axis=0) for k in (2, 1)]
    g2 = bodies[0] + tails[:, 1] - tails[:, 0]
    g1 = bodies[1] + tails[:, 2] - tails[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        extrapolated = np.where(np.abs(g2) > np.abs(g1), 2.0 * g1 * g1 / np.abs(g2 - g1), np.inf)
    return y[:, 0] / N + tails[:, 2], np.minimum(extrapolated, np.abs(g1) / math.expm1(
        excess * math.log(10.0)))


def _gauss_err(kg: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Bound on the Gauss sum over ``_panel_sums``'s panels: the Kronrod-Gauss
    difference, up to the Kronrod sums' own errors, taken as at most 1% of
    each panel's difference (far below it wherever a panel's integrand is
    smooth), plus the roundoff of each panel's scale."""
    diff = kg[:, 0] - kg[:, 1]
    return (2.0 * np.abs(diff.sum(axis=0)) + 0.01 * np.abs(diff).sum(axis=0)
            + 2.0 * np.finfo(float).eps * size.sum(axis=0))


def _panel_sums(profile: RadialProfile, p: float, q: float):
    """What ``norms`` adds up: (panel edges (rows, panels + 1) from
    ``_layout``, tail excesses, decade index, moments), ``moments`` holding
    for lp, grad_lp and lq (kg, size, y_end, ends): the panels' (Kronrod,
    Gauss) sums (panels, 2, rows) and roundoff scales, and the integrand
    and its roundoff scale at the last four nodes, for an algebraic head
    and tail."""
    N = profile.N
    rows = len(profile)
    r_cut, excesses = _cut_off(profile, p, q)
    r, log_measure, edges, decade = _layout(profile, r_cut, rows)
    h = np.diff(edges, axis=1)
    P = h.shape[1]
    log_u, log_du = _log_abs(profile.values, r)
    moments = []
    for e, log_v in zip((p, p, q), (log_u, log_du, log_u)):
        arg = e * log_v + log_measure
        y = _exp(arg)
        kg = (_RULES.T @ y[:, :15 * P].T.reshape(P, 15, rows)) * h.T[:, None, :]  # (P, 2, rows)
        # rounding the argument and the exponential costs y about
        # |arg| + |e log|u|| + 2 ulps, read at each panel's middle node
        mid = arg[:, 3:15 * P:15].T
        size = kg[:, 0] * (2.0 + np.abs(mid) + np.abs(mid - log_measure[:, 3:15 * P:15].T))
        ends = 2.0 + np.abs(arg[:, -4:]) + np.abs(arg[:, -4:] - log_measure[:, -4:])
        moments.append((kg, size, y[:, -4:], ends))
    return edges, excesses, decade, moments


def norms(profile: RadialProfile, p: float, q: float) -> Norms | tuple[Norms, ...]:
    """All three norms of a radial profile, or of each row of a family, by
    Gauss panels.

    u and u' are evaluated together, once, over every row at once, at the
    nodes of one cut-off radius, and all three moments read those values
    (``_panel_sums``).  A family returns a tuple of Norms, one per row.  A
    norm of any row that comes out 0, subnormal or inf is a
    ``NumericalError``.
    """
    if not (p > 1 and q > 0):
        raise ParamError("p", f"need p > 1, q > 0; got {p}, {q}")
    N = profile.N
    eps = np.finfo(float).eps
    _, excesses, decade, moments = _panel_sums(profile, p, q)
    out = []
    for name, e, (kg, size, y_end, ends), excess in zip(("lp", "grad_lp", "lq"), (p, p, q),
                                                       moments, excesses):
        gauss = kg[:, 1].sum(axis=0)
        err = _gauss_err(kg, size)
        raw = gauss
        if excess is not None:
            raw, tail_err = _head_and_tail(y_end, kg[:, 0], decade, N, excess)
            raw = raw + gauss
            err = err + tail_err + 2.0 * eps * (y_end[:, 0] * ends[:, 0] / N
                                                + y_end[:, -1] * ends[:, -1] / excess)
        value = raw ** (1.0 / e)
        held = (value >= _NORMAL) & (value < math.inf)
        if not held.all():
            raise _unheld(name, N, repr(float(value[~held][0])))
        err_norm = np.where(raw > 0, value * (err / (e * np.where(raw > 0, raw, 1.0))),
                            err ** (1.0 / e))
        out.append((value, err_norm))
    columns = [map(NormValue, v.tolist(), b.tolist()) for v, b in out]
    family = tuple(map(Norms, *columns))
    return family[0] if profile.rows is None else family


# -- the optimal bubble and its families ---------------------------------

def _check_bubble(N: int, p: float) -> None:
    if not (isinstance(N, int) and N >= 2):
        raise ParamError("N", f"need integer N >= 2, got {N!r}")
    if not (1.0 < p < N):
        raise ParamError("p", f"need 1 < p < N, got p={p}")


def build_u_star(N: int, p: float) -> RadialProfile:
    """The optimal radial bubble, with closed-form derivative.

    u(r) = (1 + r^(p/(p-1)))^(-(N-p)/p); algebraic tail of rate
    (N-p)/(p-1).  Its mass norm diverges exactly when p*p >= N, which the
    norm quadrature reports as a divergence error.
    """
    _check_bubble(N, p)
    pp = p / (p - 1.0)
    expo = (N - p) / p
    rate = (N - p) / (p - 1.0)

    def values(r):
        r = np.asarray(r, dtype=float)
        log1p = np.log1p(r ** pp)
        return np.exp(-expo * log1p), -expo * pp * r ** (pp - 1.0) * np.exp(-(expo + 1.0) * log1p)

    # r = 1 is its core, where it turns from flat to the algebraic tail
    return RadialProfile(N=N, values=values, decay=rate, breaks=(1.0,))


def bubble_norms(N: int, p: float, q: float) -> Norms:
    """The three norms of ``build_u_star(N, p)`` in closed form (Talenti 1976).

    With pp = p/(p-1), v = r^pp turns each moment into a Beta integral:
    |u*|_e^e = |S^(N-1)| B(a, k-a) / pp with a = N/pp, k = e (N-p)/p, and
    |grad u*|_p^p = |S^(N-1)| ((N-p)/(p-1))^p B(a, k-a) / pp with
    a = N/pp + 1, k = N.  Evaluated with lgamma; err_bound is a roundoff
    bound, as for ``sobolev_constant``.  The area |S^(N-1)| is read from
    ``log_sphere_area``, so that any N works where the norms themselves are
    doubles.  A moment with k <= a diverges (the mass
    exactly when p*p >= N) and raises ``DivergentNormError``; a norm
    outside the normal doubles is a ``NumericalError``.
    """
    _check_bubble(N, p)
    if not q > 0:
        raise ParamError("q", f"need q > 0, got {q}")
    pp = p / (p - 1.0)
    log_area = (log_sphere_area(N), -math.log(pp))
    out = {}
    for name, e, a, k, log_scale in (
            ("lp", p, N / pp, N - p, 0.0),
            ("grad_lp", p, N / pp + 1.0, float(N), p * math.log((N - p) / (p - 1.0))),
            ("lq", q, N / pp, q * (N - p) / p, 0.0)):
        if k <= a:
            raise DivergentNormError(
                name, f"the bubble's moment of exponent {e} diverges in dimension "
                      f"{N}: B({a}, {k - a}) needs a positive second argument")
        terms = (*log_area, log_scale, math.lgamma(a), math.lgamma(k - a), -math.lgamma(k))
        # each argument y is off by a few ulps of k, and |lgamma'(y)| <= |log y| + 1/y
        slopes = sum(abs(math.log(y)) + 1.0 / y for y in (a, k - a, k))
        value = _exp_or_inf(sum(terms) / e)
        if not _NORMAL <= value < math.inf:
            raise _unheld(name, N, f"10^{sum(terms) / e / math.log(10.0):.6g}")
        err = 4.0 * math.ulp(1.0) * value * (1.0 + sum(map(abs, terms)) + k * slopes) / e
        out[name] = NormValue(value=value, err_bound=err)
    return Norms(**out)


def _rescaled(profile: RadialProfile, amp, scale, rows: int | None = None) -> RadialProfile:
    """u -> amp * u(scale * r), with a compact support and the breaks shrunk
    by scale; amp and scale of shape (rows, 1) make a family of one profile."""
    base = profile.values

    def values(r):
        u, du = base(scale * np.asarray(r, dtype=float))
        return amp * u, amp * scale * du

    support = profile.support
    if support is not None:
        support = np.reshape(support / scale, -1) if rows else support / scale
    with np.errstate(divide="ignore"):  # a scale that underflowed to 0 moves them to inf
        breaks = np.asarray(profile.breaks, dtype=float) / scale
    return RadialProfile(N=profile.N, values=values, support=support, decay=profile.decay,
                         rows=rows or profile.rows, breaks=breaks)


def dilate(profile: RadialProfile, lam, p: float) -> RadialProfile:
    """Mass-preserving dilation u -> lam^(1/p) u(lam^(1/N) r).

    Leaves the p-th mass norm invariant, multiplies the gradient norm by
    lam^(1/N), and multiplies the q-th power of the q-norm by
    lam^(q/p - 1).  A 1-d array of lam dilates one profile into the family
    of its dilations, one row per lam.
    """
    lams = np.asarray(lam, dtype=float)
    if not (lams.ndim <= 1 and lams.size and np.all(lams > 0) and np.all(np.isfinite(lams))):
        raise ParamError("lambda", f"dilation parameter must be positive, got {lam}")
    if lams.ndim == 0:
        return _rescaled(profile, float(lam) ** (1.0 / p), float(lam) ** (1.0 / profile.N))
    if profile.rows is not None:
        raise ParamError("lambda", "an array of lambda dilates one profile, not a family")
    lams = lams.reshape(-1, 1)
    return _rescaled(profile, lams ** (1.0 / p), lams ** (1.0 / profile.N), rows=len(lams))


def build_w_lambda(N: int, p: float, gamma: float, u_norms: Norms, *,
                   log_t: float) -> RadialProfile:
    """The optimal bubble's normalized dilation at the curve point log t, as
    ``classify`` returns ``log_t_star``.

    With lam from ``log_lambda``, it is lam^(1/p) u*(lam^(1/N) r) over its
    combined norm |u*|_p (1 + t)^(1/gamma) (the laws stated in ``dilate``),
    formed in logs from the bubble's norms ``u_norms``, which exist only
    when p*p < N.  Its J is the curve of ``orbit_curve(u_norms, params)`` at
    log t.  An amplitude below the double range rounds to 0; one above it
    is a ``NumericalError``.
    """
    log_lam = log_lambda(log_t, u_norms, gamma, N)
    log_amp = log_lam / p - math.log(u_norms.lp.value) - np.logaddexp(0.0, log_t) / gamma
    try:
        amp, scale = math.exp(log_amp), math.exp(log_lam / N)
    except OverflowError:
        raise NumericalError(f"the normalized dilation at log lambda = {log_lam!r} "
                             "leaves the double range") from None
    return _rescaled(build_u_star(N, p), amp, scale)


def log_lambda(log_t_star: float, u_norms: Norms, gamma: float, N: int) -> float:
    """log lambda of the dilated bubble at t* = lambda^(gamma/N) (grad/mass)^gamma,
    in logs so that any finite log t* works, also where no double holds lambda."""
    if not math.isfinite(log_t_star):
        raise ParamError("t_star", f"need a finite log t*, got {log_t_star}")
    return N / gamma * log_t_star + N * math.log(u_norms.lp.value / u_norms.grad_lp.value)


def _smoothstep_cutoff(rho):
    """C^2 cutoff of rho and its derivative: 1 below 1, 0 above 2, quintic
    smoothstep between."""
    rho = np.asarray(rho, dtype=float)
    chi = np.clip(rho - 1.0, 0.0, 1.0)
    return 1.0 - chi**3 * (10.0 - 15.0 * chi + 6.0 * chi**2), -30.0 * chi**2 * (1.0 - chi) ** 2


def build_truncated(N: int, p: float, R: float) -> RadialProfile:
    """The optimal bubble cut to compact support, not normalized.

    The bubble is multiplied by the quintic-smoothstep cutoff (identically
    one inside radius R, zero beyond 2R).  Works for every 1 < p < N:
    truncation restores finite mass even when the bubble itself has none,
    which is exactly why this family probes the non-attained regimes.
    """
    if not (R > 0 and math.isfinite(R)):
        raise ParamError("R", f"need truncation radius R > 0, got {R}")
    star = build_u_star(N, p)

    def values(r):
        u, du = star.values(r)
        cut, dcut = _smoothstep_cutoff(r / R)
        return u * cut, du * cut + u * dcut / R

    # the cutoff is only C^2 at R and 2R; from half its core radius (1) out
    # to R the bubble turns algebraic, so its scale changes by each octave
    octaves = [2.0 ** k for k in range(-1, math.ceil(math.log2(R))) if k]
    return RadialProfile(N=N, values=values, support=2.0 * R,
                         breaks=(*star.breaks, *octaves, R, 2.0 * R))


# -- functional evaluation ------------------------------------------------

def orbit_curve(nm: Norms, params: ProblemParams) -> tuple[CurveParams, float]:
    """(cp_u, log_t) of a profile u with norms ``nm``: if w_lam is u's
    lam-dilation (``dilate``) over its combined norm, then

        J(w_lam) = f_at_log_t(cp_u, log_t + gamma/N * log lam),

    with log_t = gamma log(|grad u|_p / |u|_p) and cp_u the objective curve
    with u's quotient Q(u) = |u|_q^q / (|grad u|_p^gc |u|_p^(q - gc)),
    gc = gamma_crit, in place of the sharp constant C.  Q is invariant under
    dilation and amplitude, and Q <= C is the sharp inequality; only log Q
    is formed, so a Q no double holds still gives its curve."""
    if params.is_fractional:
        raise ParamError("params", "profile quadrature covers the local regimes only")
    cp = CurveParams.from_problem(
        params, log_C=_log_quotient(nm, params.q, params.exponents.gamma_crit))
    return cp, params.gamma * math.log(nm.grad_lp.value / nm.lp.value)


def _log_quotient(nm: Norms, q: float, gc: float) -> float:
    """log Q(u), Q the quotient of ``orbit_curve``, from u's norms ``nm``."""
    lp, grad, lq = nm.lp.value, nm.grad_lp.value, nm.lq.value
    return gc * math.log(lq / grad) + (q - gc) * math.log(lq / lp)


# -- random trial profiles ------------------------------------------------

def random_profiles(count: int, N: int, seed: int = 2024) -> RadialProfile:
    """A deterministic family of ``count`` nonnegative trial profiles with
    exact derivatives, one per row.

    Each row is a mixture of one to three off-center Gaussians
    a exp(-b (r - c)^2) and up to two compactly supported bumps
    a (1 - ((r - c)/w)^2)^3, clipped to |r - c| <= w, so every norm is
    computable to quadrature accuracy from closed-form callables.  Each
    parameter is one array of shape (count, 1), drawn for every row at once;
    a component a row does not use has a = 0.  The breaks are the bump
    edges, where u''' jumps, and the bumps' centers, which split each bump
    into two panels of its own.  Profiles are NOT normalized; callers
    rescale for the functional under test.
    """
    if count < 1:
        raise ParamError("count", f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    shape = (count, 1)
    n_gauss = rng.integers(1, 4, size=shape)
    n_bump = rng.integers(0, 3, size=shape)
    gauss = [(np.where(j < n_gauss, rng.uniform(0.2, 1.0, shape), 0.0),
              rng.uniform(0.5, 8.0, shape), rng.uniform(0.0, 2.0, shape)) for j in range(3)]
    bumps = [(np.where(j < n_bump, rng.uniform(0.2, 1.0, shape), 0.0),
              rng.uniform(0.3, 2.0, shape), rng.uniform(0.0, 3.0, shape)) for j in range(2)]

    def values(r):
        r = np.asarray(r, dtype=float)
        u = du = 0.0
        for a, b, c in gauss:
            g = _exp(-b * (r - c) ** 2)
            u = u + a * g
            du = du + a * (-2.0 * b * (r - c)) * g
        for a, w, c in bumps:
            z = (r - c) / w
            inside = np.maximum(1.0 - z * z, 0.0)
            u = u + a * inside * inside * inside
            du = du + (-6.0 * a / w) * z * inside * inside
        return u, du

    # a Gaussian is cut where it has fallen by e^-64 (below 2e-28), past
    # which no moment of it changes in double precision
    support = np.max([np.where(a > 0, c + np.sqrt(64.0 / b), 0.0) for a, b, c in gauss]
                     + [np.where(a > 0, c + w, 0.0) for a, w, c in bumps], axis=0)[:, 0]
    breaks = np.concatenate([np.where(a > 0, c + w * np.array([-1.0, 0.0, 1.0]), 0.0)
                             for a, w, c in bumps], axis=1)
    return RadialProfile(N=N, values=values, support=support, breaks=breaks, rows=count)
