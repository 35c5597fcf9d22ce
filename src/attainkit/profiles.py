"""Radial profiles, their norms, and the explicit test families.

Everything the functional sees is a radial profile: the optimal bubble,
its dilations, its truncations, and random trial functions.  Each one is
its two closed-form callables, u and u', plus an exact tail description;
nothing is stored on a grid.  This module computes the three norms every
evaluation needs by composite Simpson quadrature in log-radius with
analytic head and tail corrections, and turns them into the constrained
functional J on the profile's normalized dilation orbit (``orbit_curve``).

Norm quadrature layout for a moment integral of |u|^e r^(N-1) dr:

* head [0, r_min]: |u(r_min)|^e r_min^N / N (relative weight ~ r_min^N),
  read from the first node;
* body [r_min, r_cut]: Simpson in x = log r at a fixed density per decade,
  on an interval count rounded up to a multiple of 4, so that the nested
  half-density pass on every other node (which gives the error bound) is
  a Simpson rule too;
* tail [r_cut, inf): zero for compact support; for algebraic decay of
  rate d the closed form |u(r_cut)|^e r_cut^N / (d e - N), with r_cut
  placed from the decay rate so the tail is far inside the body's error
  (capped when slow decay would push it astronomically far).

u and u' are each evaluated once per distinct r_cut on that one grid, and
all three moments are read from those values: a compactly supported
profile is evaluated once for u and once for u'.

A moment whose tail exponent fails d*e > N is divergent and raises
``DivergentNormError`` rather than returning a large number.

Each profile needs this quadrature once: ``orbit_curve`` turns its norms
into J on its whole normalized dilation orbit.  The optimal bubble needs
none: ``bubble_norms`` gives its norms as Beta functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import sphere_area
from .curves import CurveParams
from .errors import DivergentNormError, NumericalError, ParamError
from .params import ProblemParams

# quadrature grid: log-spaced body from _R_MIN at a fixed density per decade
_R_MIN = 1e-6
_POINTS_PER_DECADE = 256
_TAIL_TARGET = 1e-14  # desired tail/total fraction of an algebraic tail
_R_CUT_MAX = 1e8


@dataclass(frozen=True)
class Tail:
    """How a profile behaves at large radius.

    kind "algebraic": u(r) ~ const * r^(-rate) as r -> inf.
    kind "compact":   u(r) = 0 for r >= support.
    """

    kind: str
    rate: float = math.nan
    support: float = math.nan

    def __post_init__(self):
        if self.kind not in ("algebraic", "compact"):
            raise ParamError("tail", f"unknown tail kind {self.kind!r}")
        if self.kind == "algebraic" and not (self.rate > 0):
            raise ParamError("tail", f"algebraic tail needs rate > 0, got {self.rate}")
        if self.kind == "compact" and not (self.support > 0):
            raise ParamError("tail", f"compact tail needs support > 0, got {self.support}")


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A radial function given by exact callables.

    N         ambient dimension (fixes the r^(N-1) measure)
    tail      behavior at large radius
    fn / dfn  closed-form u(r) and u'(r), vectorized over r
    """

    N: int
    tail: Tail
    fn: Callable = field(repr=False)
    dfn: Callable = field(repr=False)

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ParamError("N", f"need integer N >= 1, got {self.N!r}")
        if not (callable(self.fn) and callable(self.dfn)):
            raise ParamError("profile", "a profile needs callables fn and dfn")


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


# -- evaluation helpers ---------------------------------------------------

def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on equally spaced samples (even interval count)."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _cut_off(profile: RadialProfile, e: float, use_deriv: bool,
             norm_name: str) -> tuple[float, float | None]:
    """(r_cut, tail decay excess) of one moment; no excess when compact."""
    tail = profile.tail
    if tail.kind == "compact":
        r_cut, excess = tail.support, None
    else:
        rate = tail.rate + (1.0 if use_deriv else 0.0)
        excess = rate * e - profile.N
        if excess <= 0:
            raise DivergentNormError(
                norm_name,
                f"tail decay rate {rate} with exponent {e} gives a "
                f"divergent moment in dimension {profile.N}")
        # clamp the base-10 exponent first: 10**x overflows for a tiny excess
        expo = min(max(-math.log10(_TAIL_TARGET) / excess, 2.0),
                   math.log10(_R_CUT_MAX))
        r_cut = min(_R_CUT_MAX, 10.0 ** expo)
    if r_cut <= _R_MIN:
        raise ParamError("grid", f"profile support {r_cut} does not exceed r_min {_R_MIN}")
    return r_cut, excess


def norms(profile: RadialProfile, p: float, q: float) -> Norms:
    """All three norms of a radial profile by log-Simpson quadrature.

    u and u' are evaluated once per distinct cut-off radius, and every
    moment on that cut-off reads the same values.
    """
    if not (p > 1 and q > 0):
        raise ParamError("p", f"need p > 1, q > 0; got {p}, {q}")
    N, r_lo = profile.N, _R_MIN
    omega = sphere_area(N)
    nodes: dict[float, tuple] = {}  # r_cut -> (h, r, r^N, {use_deriv: |u| or |u'|})
    out = {}
    for name, e, use_deriv in (("lp", p, False), ("grad_lp", p, True), ("lq", q, False)):
        r_cut, excess = _cut_off(profile, e, use_deriv, name)
        if r_cut not in nodes:
            n = int(math.ceil(math.log10(r_cut / r_lo) * _POINTS_PER_DECADE))
            n = -(-n // 4) * 4  # the nested half pass needs an even count too
            x = np.linspace(math.log(r_lo), math.log(r_cut), n + 1)
            r = np.exp(x)
            r[0], r[-1] = r_lo, r_cut  # head and tail read the end nodes
            nodes[r_cut] = ((x[-1] - x[0]) / n, r, np.exp(N * x), {})
        h, r, weight, values = nodes[r_cut]
        if use_deriv not in values:
            values[use_deriv] = np.abs(np.asarray(
                profile.dfn(r) if use_deriv else profile.fn(r), dtype=float))
        ue = values[use_deriv] ** e
        y = ue * weight
        body_fine = _simpson(y, h)
        body_half = _simpson(y[::2], 2.0 * h)
        head = float(ue[0]) * r_lo ** N / N
        tail_val = 0.0 if excess is None else float(ue[-1]) * r_cut ** N / excess
        raw = head + body_fine + tail_val
        err = abs(body_fine - body_half) / 15.0 + 1e-15 * abs(raw)
        value = (omega * raw) ** (1.0 / e)
        err_norm = value * (err / raw) / e if raw > 0 else err ** (1.0 / e)
        out[name] = NormValue(value=value, err_bound=err_norm)
    return Norms(**out)


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

    def fn(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-expo * np.log1p(r ** pp))

    def dfn(r):
        r = np.asarray(r, dtype=float)
        return (-expo * pp * r ** (pp - 1.0)
                * np.exp(-(expo + 1.0) * np.log1p(r ** pp)))

    return RadialProfile(N=N, tail=Tail(kind="algebraic", rate=rate), fn=fn, dfn=dfn)


def bubble_norms(N: int, p: float, q: float) -> Norms:
    """The three norms of ``build_u_star(N, p)`` in closed form (Talenti 1976).

    With pp = p/(p-1), v = r^pp turns each moment into a Beta integral:
    |u*|_e^e = |S^(N-1)| B(a, k-a) / pp with a = N/pp, k = e (N-p)/p, and
    |grad u*|_p^p = |S^(N-1)| ((N-p)/(p-1))^p B(a, k-a) / pp with
    a = N/pp + 1, k = N.  Evaluated with lgamma; err_bound is a roundoff
    bound, as for ``sobolev_constant``.  A moment with k <= a diverges (the
    mass exactly when p*p >= N) and raises ``DivergentNormError``.
    """
    _check_bubble(N, p)
    if not q > 0:
        raise ParamError("q", f"need q > 0, got {q}")
    pp = p / (p - 1.0)
    log_area = math.log(sphere_area(N) / pp)
    out = {}
    for name, e, a, k, log_scale in (
            ("lp", p, N / pp, N - p, 0.0),
            ("grad_lp", p, N / pp + 1.0, float(N), p * math.log((N - p) / (p - 1.0))),
            ("lq", q, N / pp, q * (N - p) / p, 0.0)):
        if k <= a:
            raise DivergentNormError(
                name, f"the bubble's moment of exponent {e} diverges in dimension "
                      f"{N}: B({a}, {k - a}) needs a positive second argument")
        terms = (log_area, log_scale, math.lgamma(a), math.lgamma(k - a), -math.lgamma(k))
        # each argument y is off by a few ulps of k, and |lgamma'(y)| <= |log y| + 1/y
        slopes = sum(abs(math.log(y)) + 1.0 / y for y in (a, k - a, k))
        value = math.exp(sum(terms) / e)
        err = 4.0 * math.ulp(1.0) * value * (1.0 + sum(map(abs, terms)) + k * slopes) / e
        out[name] = NormValue(value=value, err_bound=err)
    return Norms(**out)


def _rescaled(profile: RadialProfile, amp: float, scale: float) -> RadialProfile:
    """u -> amp * u(scale * r), with a compact support shrunk by scale."""
    base_fn, base_dfn = profile.fn, profile.dfn

    def fn(r):
        return amp * base_fn(scale * np.asarray(r, dtype=float))

    def dfn(r):
        return amp * scale * base_dfn(scale * np.asarray(r, dtype=float))

    tail = profile.tail
    if tail.kind == "compact":
        tail = Tail(kind="compact", support=tail.support / scale)
    return RadialProfile(N=profile.N, tail=tail, fn=fn, dfn=dfn)


def dilate(profile: RadialProfile, lam: float, p: float) -> RadialProfile:
    """Mass-preserving dilation u -> lam^(1/p) u(lam^(1/N) r).

    Leaves the p-th mass norm invariant, multiplies the gradient norm by
    lam^(1/N), and multiplies the q-th power of the q-norm by
    lam^(q/p - 1).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ParamError("lambda", f"dilation parameter must be positive, got {lam}")
    return _rescaled(profile, lam ** (1.0 / p), lam ** (1.0 / profile.N))


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
    """C^2 cutoff: 1 below 1, 0 above 2, quintic smoothstep between."""
    rho = np.asarray(rho, dtype=float)
    chi = np.clip(rho - 1.0, 0.0, 1.0)
    return 1.0 - chi**3 * (10.0 - 15.0 * chi + 6.0 * chi**2)


def _smoothstep_cutoff_deriv(rho):
    """Derivative of the cutoff with respect to rho."""
    rho = np.asarray(rho, dtype=float)
    chi = np.clip(rho - 1.0, 0.0, 1.0)
    return -30.0 * chi**2 * (1.0 - chi) ** 2


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
    star_fn, star_dfn = star.fn, star.dfn

    def fn(r):
        return star_fn(r) * _smoothstep_cutoff(r / R)

    def dfn(r):
        return (star_dfn(r) * _smoothstep_cutoff(r / R)
                + star_fn(r) * _smoothstep_cutoff_deriv(r / R) / R)

    return RadialProfile(N=N, tail=Tail(kind="compact", support=2.0 * R), fn=fn, dfn=dfn)


# -- functional evaluation ------------------------------------------------

def orbit_curve(nm: Norms, params: ProblemParams) -> tuple[CurveParams, float]:
    """(cp_u, log_t) of a profile u with norms ``nm``: if w_lam is u's
    lam-dilation (``dilate``) over its combined norm, then

        J(w_lam) = f_at_log_t(cp_u, log_t + gamma/N * log lam),

    with log_t = gamma log(|grad u|_p / |u|_p) and cp_u the objective curve
    with u's quotient Q(u) = |u|_q^q / (|grad u|_p^gc |u|_p^(q - gc)),
    gc = gamma_crit, in place of the sharp constant C.  Q is invariant under
    dilation and amplitude, and Q <= C is the sharp inequality.  A Q beyond
    the double range is a ``NumericalError``.
    """
    if params.is_fractional:
        raise ParamError("params", "profile quadrature covers the local regimes only")
    lp, grad, lq = nm.lp.value, nm.grad_lp.value, nm.lq.value
    q, gc = params.q, params.exponents.gamma_crit
    try:
        quotient = (lq / grad) ** gc * (lq / lp) ** (q - gc)
    except OverflowError:
        quotient = math.inf
    if quotient == math.inf:
        log10_q = gc * math.log10(lq / grad) + (q - gc) * math.log10(lq / lp)
        raise NumericalError(f"Q(u) leaves the double range: log10 Q = {log10_q!r}")
    return CurveParams.from_problem(params, quotient), params.gamma * math.log(grad / lp)


# -- random trial profiles ------------------------------------------------

def random_profiles(count: int, N: int, seed: int = 2024) -> list[RadialProfile]:
    """Deterministic nonnegative trial profiles with exact derivatives.

    Each profile is a mixture of one to three off-center Gaussians and up
    to two compactly supported cubic bumps, so every norm is computable
    to quadrature accuracy from closed-form callables.  Profiles are NOT
    normalized; callers rescale for the functional under test.
    """
    if count < 1:
        raise ParamError("count", f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    out: list[RadialProfile] = []
    for _ in range(count):
        n_gauss = int(rng.integers(1, 4))
        n_bump = int(rng.integers(0, 3))
        gauss = [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 8.0)),
                  float(rng.uniform(0.0, 2.0))) for _ in range(n_gauss)]
        bumps = [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.3, 2.0)),
                  float(rng.uniform(0.0, 3.0))) for _ in range(n_bump)]

        def fn(r, gauss=gauss, bumps=bumps):
            r = np.asarray(r, dtype=float)
            total = np.zeros_like(r)
            for a, b, c in gauss:
                total = total + a * np.exp(-b * (r - c) ** 2)
            for a, w, c in bumps:
                z = (r - c) / w
                total = total + a * np.clip(1.0 - z * z, 0.0, None) ** 3
            return total

        def dfn(r, gauss=gauss, bumps=bumps):
            r = np.asarray(r, dtype=float)
            total = np.zeros_like(r)
            for a, b, c in gauss:
                total = total + a * (-2.0 * b * (r - c)) * np.exp(-b * (r - c) ** 2)
            for a, w, c in bumps:
                z = (r - c) / w
                inside = np.clip(1.0 - z * z, 0.0, None)
                total = total + a * 3.0 * inside**2 * (-2.0 * z / w)
            return total

        support = max(max(c + math.sqrt(600.0 / b) for _, b, c in gauss),
                      max((c + w for _, w, c in bumps), default=0.0))
        out.append(RadialProfile(N=N, tail=Tail(kind="compact", support=support),
                                 fn=fn, dfn=dfn))
    return out
