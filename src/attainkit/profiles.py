"""Radial profiles, their norms, and the explicit test families.

Everything the functional sees is a radial profile: the optimal bubble,
its dilations, its truncations, and random trial functions.  Each one is
its two closed-form callables, u and u', plus an exact tail description;
nothing is stored on a grid.  This module computes the three norms every
evaluation needs by composite Simpson quadrature in log-radius with
analytic head and tail corrections, and evaluates the constrained
functional J and the threshold functional I on normalized profiles.

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

Each profile needs this quadrature once: a rescaled copy's norms are the
original's times the factor, and a dilated copy's follow by the exact laws
stated in ``dilate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import sphere_area
from .errors import DivergentNormError, NormalizationError, ParamError
from .params import ProblemParams

#: |W-norm - 1| allowed before J / I evaluation refuses a profile
NORMALIZATION_TOL = 1e-6


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
    """The three norms of a profile, each with a quadrature error bound."""

    lp: NormValue
    grad_lp: NormValue
    lq: NormValue

    def w_norm(self, gamma: float) -> float:
        """Combined norm (grad^gamma + mass^gamma)^(1/gamma)."""
        return (self.grad_lp.value ** gamma + self.lp.value ** gamma) ** (1.0 / gamma)


def t_of(norms: Norms, gamma: float) -> float:
    """Gradient-to-mass ratio raised to gamma: the curve coordinate of u."""
    return (norms.grad_lp.value / norms.lp.value) ** gamma


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


def norms(profile: RadialProfile, p: float, q: float, gamma: float) -> Norms:
    """All three norms of a radial profile by log-Simpson quadrature.

    u and u' are evaluated once per distinct cut-off radius, and every
    moment on that cut-off reads the same values.
    """
    if not (p > 1 and q > 0 and gamma > 0):
        raise ParamError("p", f"need p > 1, q > 0, gamma > 0; got {p}, {q}, {gamma}")
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

def build_u_star(N: int, p: float) -> RadialProfile:
    """The optimal radial bubble, with closed-form derivative.

    u(r) = (1 + r^(p/(p-1)))^(-(N-p)/p); algebraic tail of rate
    (N-p)/(p-1).  Its mass norm diverges exactly when p*p >= N, which the
    norm quadrature reports as a divergence error.
    """
    if not (isinstance(N, int) and N >= 2):
        raise ParamError("N", f"need integer N >= 2, got {N!r}")
    if not (1.0 < p < N):
        raise ParamError("p", f"need 1 < p < N, got p={p}")
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


def dilate(profile: RadialProfile, lam: float, p: float) -> RadialProfile:
    """Mass-preserving dilation u -> lam^(1/p) u(lam^(1/N) r).

    Leaves the p-th mass norm invariant, multiplies the gradient norm by
    lam^(1/N), and multiplies the q-th power of the q-norm by
    lam^(q/p - 1).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ParamError("lambda", f"dilation parameter must be positive, got {lam}")
    amp = lam ** (1.0 / p)
    scale = lam ** (1.0 / profile.N)
    base_fn, base_dfn = profile.fn, profile.dfn

    def fn(r):
        return amp * base_fn(scale * np.asarray(r, dtype=float))

    def dfn(r):
        return amp * scale * base_dfn(scale * np.asarray(r, dtype=float))

    tail = profile.tail
    if tail.kind == "compact":
        tail = Tail(kind="compact", support=tail.support / scale)
    return RadialProfile(N=profile.N, tail=tail, fn=fn, dfn=dfn)


def scale_amplitude(profile: RadialProfile, factor: float) -> RadialProfile:
    """The profile multiplied pointwise by a positive constant."""
    if not (factor > 0 and math.isfinite(factor)):
        raise ParamError("factor", f"need a positive finite factor, got {factor}")
    base_fn, base_dfn = profile.fn, profile.dfn
    return RadialProfile(N=profile.N, tail=profile.tail,
                         fn=lambda r: factor * base_fn(r),
                         dfn=lambda r: factor * base_dfn(r))


def normalize_scaled(profile: RadialProfile, p: float, gamma: float) -> RadialProfile:
    """Rescale so the combined (gradient, mass) norm equals one."""
    nm = norms(profile, p, max(p, 2.0), gamma)
    z = nm.w_norm(gamma)
    if not (z > 0 and math.isfinite(z)):
        raise NormalizationError(f"combined norm came out {z}")
    return scale_amplitude(profile, 1.0 / z)


def build_w_lambda(N: int, p: float, lam: float, gamma: float,
                   u_norms: Norms) -> RadialProfile:
    """The normalized dilated bubble: unit combined norm by construction.

    Dilates the optimal bubble by lam, then divides by
    (mass^gamma + lam^(gamma/N) grad^gamma)^(1/gamma) formed from the
    bubble's own norms ``u_norms``, which the dilation identities make
    exactly the combined norm of the dilated profile.  Those norms exist
    only when the bubble has finite mass (p*p < N); otherwise their
    quadrature raises the divergence error.
    """
    star = build_u_star(N, p)
    z = (u_norms.lp.value ** gamma
         + lam ** (gamma / N) * u_norms.grad_lp.value ** gamma) ** (1.0 / gamma)
    return scale_amplitude(dilate(star, lam, p), 1.0 / z)


def log_lambda(log_t_star: float, u_norms: Norms, gamma: float, N: int) -> float:
    """log lambda of the dilated bubble at t* = lambda^(gamma/N) (grad/mass)^gamma,
    in logs so that any finite log t* works, also where no double holds lambda."""
    if not math.isfinite(log_t_star):
        raise ParamError("t_star", f"need a finite log t*, got {log_t_star}")
    return N / gamma * log_t_star + N * math.log(u_norms.lp.value / u_norms.grad_lp.value)


def smoothstep_cutoff(rho):
    """C^2 cutoff: 1 below 1, 0 above 2, quintic smoothstep between."""
    rho = np.asarray(rho, dtype=float)
    chi = np.clip(rho - 1.0, 0.0, 1.0)
    return 1.0 - chi**3 * (10.0 - 15.0 * chi + 6.0 * chi**2)


def smoothstep_cutoff_deriv(rho):
    """Derivative of the cutoff with respect to rho."""
    rho = np.asarray(rho, dtype=float)
    chi = np.clip(rho - 1.0, 0.0, 1.0)
    return -30.0 * chi**2 * (1.0 - chi) ** 2


def build_truncated(N: int, p: float, R: float, gamma: float,
                    lam: float = 1.0) -> RadialProfile:
    """Bubble cut to compact support, dilated, and normalized to unit norm.

    The bubble is multiplied by the quintic-smoothstep cutoff (identically
    one inside radius R, zero beyond 2R), optionally dilated, and rescaled
    so the combined norm is one.  Works for every 1 < p < N: truncation
    restores finite mass even when the bubble itself has none, which is
    exactly why this family probes the non-attained regimes.
    """
    if not (R > 0 and math.isfinite(R)):
        raise ParamError("R", f"need truncation radius R > 0, got {R}")
    star = build_u_star(N, p)
    star_fn, star_dfn = star.fn, star.dfn

    def fn(r):
        r = np.asarray(r, dtype=float)
        return star_fn(r) * smoothstep_cutoff(r / R)

    def dfn(r):
        r = np.asarray(r, dtype=float)
        return (star_dfn(r) * smoothstep_cutoff(r / R)
                + star_fn(r) * smoothstep_cutoff_deriv(r / R) / R)

    raw = RadialProfile(N=N, tail=Tail(kind="compact", support=2.0 * R), fn=fn, dfn=dfn)
    if lam != 1.0:
        raw = dilate(raw, lam, p)
    return normalize_scaled(raw, p, gamma)


# -- functional evaluation ------------------------------------------------

def _check_local(params: ProblemParams) -> None:
    if params.is_fractional:
        raise ParamError(
            "params",
            "profile quadrature covers the local regimes only; the "
            "fractional seminorm is not computable here")


def _normalized_norms(profile: RadialProfile, params: ProblemParams) -> Norms:
    nm = norms(profile, params.p, params.q, params.gamma)
    w = nm.w_norm(params.gamma)
    if abs(w - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"profile is not normalized: combined norm {w!r} differs from 1 "
            f"by more than {NORMALIZATION_TOL}")
    return nm


def evaluate_J(profile: RadialProfile, params: ProblemParams) -> float:
    """Constrained objective mass^p + alpha * qnorm^q of a normalized profile."""
    _check_local(params)
    nm = _normalized_norms(profile, params)
    return nm.lp.value ** params.p + params.alpha * nm.lq.value ** params.q


def evaluate_I(profile: RadialProfile, params: ProblemParams) -> float:
    """Threshold functional (1 - mass^p) / qnorm^q of a normalized profile."""
    _check_local(params)
    nm = _normalized_norms(profile, params)
    return (1.0 - nm.lp.value ** params.p) / nm.lq.value ** params.q


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
