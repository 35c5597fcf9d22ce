"""Radial profiles, their norms, and the explicit test families.

Everything the functional sees is a radial profile: the optimal bubble,
its dilations, its truncations, and random trial functions.  This module
represents them uniformly (samples on a log grid plus, when available,
closed-form callables and an exact tail description), computes the three
norms every evaluation needs by composite Simpson quadrature in log-radius
with analytic head and tail corrections, and evaluates the constrained
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

u and u' are each sampled once per distinct r_cut on that one grid, and
all three moments are read from those samples: a compactly supported
profile is sampled once for u and once for u'.

A moment whose tail exponent fails d*e > N is divergent and raises
``DivergentNormError`` rather than returning a large number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import sphere_area
from .errors import DivergentNormError, NormalizationError, ParamError
from .params import ProblemParams, critical_exponent, exponents

#: |W-norm - 1| allowed before J / I evaluation refuses a profile
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid controls: log-spaced body, density per decade."""

    r_min: float = 1e-6
    points_per_decade: int = 256
    tail_target: float = 1e-14  # desired tail/total fraction
    r_cut_max: float = 1e8

    def __post_init__(self):
        if not (0 < self.r_min < 1):
            raise ParamError("grid", f"r_min must lie in (0,1), got {self.r_min}")
        if self.points_per_decade < 16:
            raise ParamError("grid", "points_per_decade must be >= 16")


@dataclass(frozen=True)
class Tail:
    """How a profile behaves beyond the sampled range.

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
    """A radial function known on a grid, with optional exact callables.

    grid/values  strictly increasing radii (grid[0] > 0) and u there
    N            ambient dimension (fixes the r^(N-1) measure)
    tail         behavior beyond the grid
    deriv        u'(grid) when known in closed form
    fn / dfn     exact callables for u and u'; quadrature prefers these
    analytic_deriv  False when derivatives must come from finite
                 differences of the samples (sampled test functions)
    """

    grid: np.ndarray
    values: np.ndarray
    N: int
    tail: Tail
    deriv: np.ndarray | None = None
    fn: Callable | None = field(default=None, repr=False)
    dfn: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or g[0] <= 0 or np.any(np.diff(g) <= 0):
            raise ParamError("profile", "grid must be strictly increasing with grid[0] > 0")
        if v.shape != g.shape or not np.all(np.isfinite(v)):
            raise ParamError("profile", "values must be finite and match the grid")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ParamError("N", f"need integer N >= 1, got {self.N!r}")
        if self.deriv is not None and np.asarray(self.deriv).shape != g.shape:
            raise ParamError("profile", "deriv must match the grid")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def analytic_deriv(self) -> bool:
        return self.dfn is not None or self.deriv is not None


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

def _sample_fn(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    if profile.fn is not None:
        return np.asarray(profile.fn(r), dtype=float)
    out = np.interp(r, profile.grid, profile.values, left=profile.values[0], right=0.0)
    if profile.tail.kind == "algebraic":
        beyond = r > profile.grid[-1]
        if np.any(beyond):
            amp = profile.values[-1] * profile.grid[-1] ** profile.tail.rate
            out = np.where(beyond, amp * r ** (-profile.tail.rate), out)
    return out


def _fd_derivative(profile: RadialProfile) -> np.ndarray:
    """Derivative of a sampled profile by differences on the log grid.

    Uniform log grids (within rounding) get the 4th-order 5-point central
    stencil in x = log r; anything else falls back to 2nd-order gradients.
    Either way du/dr = (du/dx) / r.
    """
    x = np.log(profile.grid)
    v = profile.values
    h = np.diff(x)
    if v.size >= 5 and np.allclose(h, h[0], rtol=1e-9, atol=0):
        h0 = h[0]
        dv = np.empty_like(v)
        dv[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h0)
        dv[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h0)
        dv[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h0)
        dv[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h0)
        dv[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h0)
    else:
        dv = np.gradient(v, x)
    return dv / profile.grid


def _sample_dfn(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    if profile.dfn is not None:
        return np.asarray(profile.dfn(r), dtype=float)
    deriv = profile.deriv if profile.deriv is not None else _fd_derivative(profile)
    out = np.interp(r, profile.grid, deriv, left=deriv[0], right=0.0)
    if profile.tail.kind == "algebraic":
        beyond = r > profile.grid[-1]
        if np.any(beyond):
            rate = profile.tail.rate + 1.0
            amp = deriv[-1] * profile.grid[-1] ** rate
            out = np.where(beyond, amp * r ** (-rate), out)
    return out


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on equally spaced samples (even interval count)."""
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _cut_off(profile: RadialProfile, e: float, use_deriv: bool,
             grid: GridSpec, norm_name: str) -> tuple[float, float | None]:
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
        expo = min(max(-math.log10(grid.tail_target) / excess, 2.0),
                   math.log10(grid.r_cut_max))
        r_cut = min(grid.r_cut_max, 10.0 ** expo)
    if r_cut <= grid.r_min:
        raise ParamError("grid", f"profile support {r_cut} does not exceed r_min {grid.r_min}")
    return r_cut, excess


def norms(profile: RadialProfile, p: float, q: float, gamma: float,
          grid: GridSpec | None = None) -> Norms:
    """All three norms of a radial profile by log-Simpson quadrature.

    u and u' are sampled once per distinct cut-off radius, and every
    moment on that cut-off reads the same samples.
    """
    if not (p > 1 and q > 0 and gamma > 0):
        raise ParamError("p", f"need p > 1, q > 0, gamma > 0; got {p}, {q}, {gamma}")
    grid = grid or GridSpec()
    N, r_lo = profile.N, grid.r_min
    omega = sphere_area(N)
    nodes: dict[float, tuple] = {}  # r_cut -> (h, r, r^N, {use_deriv: |u| or |u'|})
    out = {}
    for name, e, use_deriv in (("lp", p, False), ("grad_lp", p, True), ("lq", q, False)):
        r_cut, excess = _cut_off(profile, e, use_deriv, grid, name)
        if r_cut not in nodes:
            n = int(math.ceil(math.log10(r_cut / r_lo) * grid.points_per_decade))
            n = -(-n // 4) * 4  # the nested half pass needs an even count too
            x = np.linspace(math.log(r_lo), math.log(r_cut), n + 1)
            r = np.exp(x)
            r[0], r[-1] = r_lo, r_cut  # head and tail read the end nodes
            nodes[r_cut] = ((x[-1] - x[0]) / n, r, np.exp(N * x), {})
        h, r, weight, sampled = nodes[r_cut]
        if use_deriv not in sampled:
            sampled[use_deriv] = np.abs(
                _sample_dfn(profile, r) if use_deriv else _sample_fn(profile, r))
        ue = sampled[use_deriv] ** e
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

def _default_store_grid(r_hi: float) -> np.ndarray:
    return np.geomspace(1e-6, r_hi, 512)


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

    grid = _default_store_grid(1e4)
    return RadialProfile(grid=grid, values=fn(grid), N=N,
                         tail=Tail(kind="algebraic", rate=rate),
                         deriv=dfn(grid), fn=fn, dfn=dfn)


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
    if base_fn is None:
        raise ParamError("profile", "dilate needs a profile with exact callables")

    def fn(r):
        return amp * base_fn(scale * np.asarray(r, dtype=float))

    def dfn(r):
        if base_dfn is None:
            raise ParamError("profile", "dilate needs an exact derivative")
        return amp * scale * base_dfn(scale * np.asarray(r, dtype=float))

    tail = profile.tail
    if tail.kind == "compact":
        new_tail = Tail(kind="compact", support=tail.support / scale)
        grid_hi = tail.support / scale
    else:
        new_tail = tail
        grid_hi = profile.grid[-1] / scale
    grid = _default_store_grid(grid_hi)
    return RadialProfile(grid=grid, values=fn(grid), N=profile.N, tail=new_tail,
                         deriv=dfn(grid) if base_dfn is not None else None,
                         fn=fn, dfn=dfn if base_dfn is not None else None)


def scale_amplitude(profile: RadialProfile, factor: float) -> RadialProfile:
    """The profile multiplied pointwise by a positive constant."""
    if not (factor > 0 and math.isfinite(factor)):
        raise ParamError("factor", f"need a positive finite factor, got {factor}")
    base_fn, base_dfn = profile.fn, profile.dfn
    fn = (lambda r: factor * base_fn(r)) if base_fn is not None else None
    dfn = (lambda r: factor * base_dfn(r)) if base_dfn is not None else None
    return RadialProfile(grid=profile.grid, values=factor * profile.values,
                         N=profile.N, tail=profile.tail,
                         deriv=None if profile.deriv is None else factor * profile.deriv,
                         fn=fn, dfn=dfn)


def normalize_scaled(profile: RadialProfile, p: float, gamma: float,
                     grid: GridSpec | None = None) -> RadialProfile:
    """Rescale so the combined (gradient, mass) norm equals one."""
    nm = norms(profile, p, max(p, 2.0), gamma, grid)
    z = nm.w_norm(gamma)
    if not (z > 0 and math.isfinite(z)):
        raise NormalizationError(f"combined norm came out {z}")
    return scale_amplitude(profile, 1.0 / z)


def build_w_lambda(N: int, p: float, lam: float, gamma: float,
                   u_norms: Norms | None = None,
                   grid: GridSpec | None = None) -> RadialProfile:
    """The normalized dilated bubble: unit combined norm by construction.

    Dilates the optimal bubble by lam, then divides by
    (mass^gamma + lam^(gamma/N) grad^gamma)^(1/gamma) formed from the
    bubble's own norms, which the dilation identities make exactly the
    combined norm of the dilated profile.  Requires the bubble to have
    finite mass norm (p*p < N); otherwise the quadrature raises the
    divergence error.
    """
    star = build_u_star(N, p)
    if u_norms is None:
        u_norms = norms(star, p, critical_exponent(N, p), gamma, grid)
    z = (u_norms.lp.value ** gamma
         + lam ** (gamma / N) * u_norms.grad_lp.value ** gamma) ** (1.0 / gamma)
    return scale_amplitude(dilate(star, lam, p), 1.0 / z)


def lambda_from_tstar(t_star: float, u_norms: Norms, gamma: float, N: int) -> float:
    """Dilation parameter whose normalized bubble sits at curve coordinate t_star."""
    if not (t_star > 0 and math.isfinite(t_star)):
        raise ParamError("t_star", f"need t_star > 0, got {t_star}")
    return t_star ** (N / gamma) * (u_norms.lp.value / u_norms.grad_lp.value) ** N


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


def build_truncated(N: int, p: float, R: float, gamma: float, lam: float = 1.0,
                    grid: GridSpec | None = None) -> RadialProfile:
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

    g = _default_store_grid(2.0 * R)
    raw = RadialProfile(grid=g, values=fn(g), N=N,
                        tail=Tail(kind="compact", support=2.0 * R),
                        deriv=dfn(g), fn=fn, dfn=dfn)
    if lam != 1.0:
        raw = dilate(raw, lam, p)
    return normalize_scaled(raw, p, gamma, grid)


# -- functional evaluation ------------------------------------------------

def _check_local(params: ProblemParams) -> None:
    if params.is_fractional:
        raise ParamError(
            "params",
            "profile quadrature covers the local regimes only; the "
            "fractional seminorm is not computable here")


def _normalized_norms(profile: RadialProfile, params: ProblemParams,
                      grid: GridSpec | None) -> Norms:
    nm = norms(profile, params.p, params.q, params.gamma, grid)
    w = nm.w_norm(params.gamma)
    if abs(w - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(
            f"profile is not normalized: combined norm {w!r} differs from 1 "
            f"by more than {NORMALIZATION_TOL}")
    return nm


def evaluate_J(profile: RadialProfile, params: ProblemParams,
               grid: GridSpec | None = None) -> float:
    """Constrained objective mass^p + alpha * qnorm^q of a normalized profile."""
    _check_local(params)
    nm = _normalized_norms(profile, params, grid)
    return nm.lp.value ** params.p + params.alpha * nm.lq.value ** params.q


def evaluate_I(profile: RadialProfile, params: ProblemParams,
               grid: GridSpec | None = None) -> float:
    """Threshold functional (1 - mass^p) / qnorm^q of a normalized profile."""
    _check_local(params)
    nm = _normalized_norms(profile, params, grid)
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
        grid = _default_store_grid(support)
        out.append(RadialProfile(grid=grid, values=fn(grid), N=N,
                                 tail=Tail(kind="compact", support=support),
                                 deriv=dfn(grid), fn=fn, dfn=dfn))
    return out
