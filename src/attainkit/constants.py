"""Sharp constants entering the curve normalization.

Three constants are consumed downstream:

* the sharp Sobolev constant S(N, p) = ||u||_{p*} / ||grad u||_p on the
  optimal bubble (Talenti-Aubin closed form),
* the sharp subcritical interpolation constant
  B(N, p, q) = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
  gc = N(q-p)/p  (bounded here from below by the quotient of the shot
  radial ground state's Hermite interpolant, integrated by the same
  Gauss-Kronrod panel rule as every other norm.  Every shot starts a
  tenth of a core width out, on a power series of the solution regular at
  r = 0, and steps further as it decays into its tail.  err_bound is the
  distance to a second bracket that steps twice as far, starts 100 times
  further in and closes 100 times wider, plus that rule's bound.  Each
  round of shots is placed in a window that a fit of how far the previous
  round's shots rode points to, read off the cubic through each shot's
  miss and slope, so (2, 2, 4) closes in six rounds per bracket),
* the fractional seminorm constant, which has no elementary closed form
  and is supplied by the caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .curves import _exp_or_inf
from .errors import NumericalError, ParamError
from .params import critical_exponent, gamma_threshold_exponent
from .profiles import RadialProfile, _log_quotient, norms


@dataclass(frozen=True)
class SharpConstant:
    """A constant plus a record of how it was obtained.

    method "closed-form":  value carries a roundoff err_bound.
    method "ground-state": value is a lower bound, the quotient of the shot
                           ground state's Hermite interpolant by the same
                           Gauss-Kronrod rule as every other norm; err_bound
                           is the distance to a bracket with doubled steps,
                           an inner start and a wider cut, plus that rule's
                           bound: an estimate, not an enclosure radius.
    method "user-input":   value passed through unchanged.
    """

    value: float
    method: str
    err_bound: float
    meta: dict = field(default_factory=dict, compare=False)


def sobolev_constant(N: int, p: float) -> SharpConstant:
    """Sharp Sobolev constant S in ||u||_{p*} <= S ||grad u||_p, 1 < p < N.

    Talenti-Aubin closed form (Talenti 1976, Aubin 1976), evaluated in the
    log domain:

        log S = -1/2 log pi - (log N)/p + (1 - 1/p) log((p-1)/(N-p))
                + [lgamma(1+N/2) + lgamma(N) - lgamma(N/p)
                   - lgamma(1+N-N/p)] / N.

    err_bound is a roundoff bound: a few ulps of every summand, carried
    through the exponential.
    """
    if not (isinstance(N, int) and N >= 2):
        raise ParamError("N", f"need integer N >= 2, got {N!r}")
    if not 1.0 < p < N:
        raise ParamError("p", f"need 1 < p < N, got p={p}")
    terms = (-0.5 * math.log(math.pi), -math.log(N) / p,
             (1.0 - 1.0 / p) * math.log((p - 1.0) / (N - p)))
    gammas = (math.lgamma(1.0 + N / 2.0), math.lgamma(N),
              -math.lgamma(N / p), -math.lgamma(1.0 + N - N / p))
    value = math.exp(sum(terms) + sum(gammas) / N)
    size = 1.0 + sum(map(abs, terms)) + sum(map(abs, gammas)) / N
    err = 4.0 * math.ulp(1.0) * value * size
    return SharpConstant(value=value, method="closed-form", err_bound=err,
                         meta={"N": N, "p": p})


# -- subcritical interpolation constant ---------------------------------
#
# The maximizer of the interpolation ratio is, up to amplitude and
# dilation, the positive radial ground state of
#
#     -Delta_p w + w^(p-1) = w^(q-1)
#
# (Weinstein 1983 for p = 2, Agueh 2008 for general p).  It is found by
# shooting on its height w(0): with psi = |w'|^(p-2) w' the radial equation
# is the first-order system
#
#     psi' = -(N-1) psi / r + w^(p-1) - w^(q-1),   w' = sign(psi) |psi|^(1/(p-1)).

_BATCH = 32            # trial heights integrated side by side per round
_START = 0.1           # first radius, in core widths, unless the start series ...
_SERIES_TERMS = 16     # ... cut after at most this many terms ...
_SERIES_TOL = 2.0**-53  # ... would leave a last term above this fraction of its first
_INNER = 12            # the profile's nodes inside the first radius, off the series, ...
_INNER_RATIO = 1.5     # ... each this many times closer to r = 0 than the next
_STEP_PER_R = 0.05     # steps grow with r (a geometric grid) ...
_STEP_MAX = 0.04       # ... up to this cap, which grows as the shot decays, ...
_STEP_GROWTH = 8.0     # ... to at most this many times itself at p = 2 (_tail_growth), ...
_MASS_POWER = 1 / 7    # ... and no faster than this power of its mass density's fall
_CROSSING_NEWTON = 3   # Newton steps to each crossing radius from the linear estimate
_MAX_STEPS = 20_000    # per round; shots still undecided then stay so
_HEIGHT_RTOL = 1e-14   # the fine height bracket counts as closed at this width
_COARSE_START = 1e-2   # the step-doubled bracket starts this fraction of the fine radius
_COARSE_CUT = 100.0    # out, and closes at this multiple of _HEIGHT_RTOL
_MAX_ROUNDS = 64
_MAX_HEIGHT = 1e100
_FIT_SHOTS = 4         # decided shots per side that the miss-distance fit reads
_FIT_GRID = 48         # candidate heights per pass of the fit's two-pass search
_WINDOW_MIN = 1 / 40   # fitted window half-width, in bracket widths, at least ...
_WINDOW_PER_RMS = 8    # ... this many times the fit's rms residual ...
_WINDOW_MAX = 1 / 4    # ... and no wider, else the fit is too poor to use


def _tail_growth(p: float) -> float:
    """How many times _STEP_MAX a shot's step may grow in its tail.

    The tail decays like exp(-c r), c = (p-1)^(-1/p), and psi = |w'|^(p-2)
    w' like exp(-(p-1) c r), so from p = 2 up the faster of the two rates is
    (p-1) c, 1 at p = 2.  RK4's error per step goes like (rate * step)^5, so
    the cap may grow _STEP_GROWTH times at p = 2 and that many times less
    where the tail is faster (2.6 times at p = 5).  Below p = 2 it stays
    put: growth there cost up to 43 times the fixed cap's error near q = p
    in N = 3, and a flat 8 lifted (6, 1.1, 1.3)'s err_bound 14 times.
    """
    if p < 2.0:
        return 1.0
    return max(1.0, _STEP_GROWTH / (p - 1.0) ** ((p - 1.0) / p))


def _series_start(heights: np.ndarray, N: int, p: float, q: float, coarsen: np.ndarray,
                  depth: int = 1):
    """(r, w, psi) where each shot starts, from the power series of the
    solution that is regular at r = 0, each an array (depth, shots): the
    start radius last, after depth - 1 radii each _INNER_RATIO times closer
    to r = 0.

    With p' = p/(p-1), u = h^(p-q), core = h^(-(q-p)/p) and x = (r/core)^p',

        w = h (1 + sum_{k=1..K} a_k x^k),   psi = c r sum_{k=0..K-1} b_k x^k,

    c = (h^(p-1) - h^(q-1))/N, a_0 = b_0 = 1.  (r^(N-1) psi)' = r^(N-1) F(w),
    F(w) = w^(p-1) - w^(q-1), gives b_k = N f_k / (N + k p'), f_k the
    coefficients of F(w)/(N c) = (u (1+A)^(p-1) - (1+A)^(q-1)) / (u - 1) with
    1 + A = w/h; w' = sign(psi)|psi|^(1/(p-1)) gives a_(k+1) = a_1 g_k/(k+1),
    g_k those of (sum_j b_j x^j)^(1/(p-1)), and a_1 = -((1-u)/N)^(1/(p-1))/p'.
    Each power series follows J. C. P. Miller's recurrence (Henrici, Applied
    and Computational Complex Analysis I, sec. 1.6): coefficient k of
    (sum_i d_i x^i)^m, d_0 = 1, is sum_{i=1..k} ((m+1) i/k - 1) d_i y_(k-i).
    The whole recurrence is triangular, and h enters it through u alone.  At
    p = 2 it is the Taylor series in r^2; K = 1 is psi = c r, w = h (1 + a_1 x).

    K = _SERIES_TERMS.  The radius is _START core widths, or less where
    either sum's last term would pass _SERIES_TOL of its first there (p'
    near 1 converges slowly); each shot's coefficients and radius depend on
    its own height alone, so no batch changes them.  A column whose
    ``coarsen`` is not 1 starts _COARSE_START times that, so the
    step-doubled bracket also differs from the fine one in its start.
    """
    pp, e, K = p / (p - 1.0), 1.0 / (p - 1.0), _SERIES_TERMS
    u = heights ** (p - q)
    i = np.arange(K + 1.0)
    miller = [(m + 1.0) * i / np.maximum(i[:, None], 1.0) - 1.0 for m in (p - 1.0, q - 1.0, e)]
    a, b, g, f1, f2 = (np.zeros((K + 1, heights.size)) for _ in range(5))
    a[0] = b[0] = g[0] = f1[0] = f2[0] = 1.0
    a[1] = -(((1.0 - u) / N) ** e) / pp
    # einsum, not BLAS, so that each shot's sums run in one order whatever
    # the batch around it
    for k in range(1, K):
        f1[k] = np.einsum("i,in,in->n", miller[0][k, 1:k + 1], a[1:k + 1], f1[k - 1::-1])
        f2[k] = np.einsum("i,in,in->n", miller[1][k, 1:k + 1], a[1:k + 1], f2[k - 1::-1])
        b[k] = N / (N + k * pp) * (u * f1[k] - f2[k]) / (u - 1.0)
        g[k] = np.einsum("i,in,in->n", miller[2][k, 1:k + 1], b[1:k + 1], g[k - 1::-1])
        a[k + 1] = a[1] * g[k] / (k + 1)
    reach = [(_SERIES_TOL / np.maximum(np.abs(last), _SERIES_TOL)) ** (1.0 / (n * pp))
             for last, n in ((a[K], K), (b[K - 1], K - 1))]
    frac = np.minimum(_START, np.minimum(*reach)) * np.where(coarsen == 1.0, 1.0, _COARSE_START)
    frac = frac * _INNER_RATIO ** np.arange(1.0 - depth, 1.0)[:, None]
    r, x = frac * heights ** ((p - q) / p), frac ** pp
    w = heights + heights * x * polyval(x, a[1:], tensor=False)
    psi = (heights ** (p - 1.0) - heights ** (q - 1.0)) / N * r * polyval(x, b[:K], tensor=False)
    return r, w, psi


def _shoot(heights: np.ndarray, N: int, p: float, q: float, coarsen: np.ndarray):
    """RK4-integrate the ground-state system from every height at once.

    Each shot starts where ``_series_start`` puts it, on the series of the
    solution regular at r = 0: _START core widths out, core = w0^(-(q-p)/p)
    its width, or less where the series converges slowly, and a hundredth
    of that in a column whose ``coarsen`` is not 1.  Steps are
    _STEP_PER_R * r, so the concentrated cores near q -> p* and at small p
    are resolved, capped at _STEP_MAX times the shot's tail growth, all
    times its entry of ``coarsen``.  RK4's local error goes like h^5 times
    the solution's size, so holding it at the core's in absolute terms lets
    the step grow like (w0 / max(|w|, |w'|))^(1/5) as the shot decays into
    its tail.  Its error weighs in the norms as the mass that lies beyond
    it, so the growth is also held to (D_peak / D)^_MASS_POWER, D = max(|w|,
    |w'|)^p r^(N-1) the mass density and D_peak its running maximum: near
    q = p in N >= 3 the tail carries much of the mass, and w alone let the
    error grow over 200 times.  The growth is clipped to [1, _tail_growth(p)].
    The steps are set at the start and at the end of every block of four
    nodes from that shot's own state, so no batch changes them.  At p = 2
    the right-hand side reads w' = psi and w^(p-1) = w, which is what the
    general one computes there, bit for bit, with four fewer numpy calls
    per evaluation.  A shot is decided at its first node with w <= 0 (fate
    +1: it crossed zero, the height was too large) or with psi > 0 or
    negative energy E = (p-1)/p |w'|^p -
    w^p/p + w^q/q (fate -1: it turned, or can no longer reach zero since E
    is nonincreasing and E >= 0 there; the height was too small).  Energy
    is tested every fourth node only, which may decide a shot a few nodes
    late but never wrongly.  The tests are read once per block of four
    nodes, ending at an energy node or at _MAX_STEPS, and each shot gets
    the first node in the block that decides it.  Returns (fate,
    decided-at index, r, w, psi), the last three at every node from r = 0,
    up to 3 nodes past the last decision.
    """
    e, pm1, qm1, nm1 = 1.0 / (p - 1.0), p - 1.0, q - 1.0, N - 1.0
    growth = _tail_growth(p)

    if p == 2.0:
        def rhs(r, w, psi):
            wp = np.maximum(w, 0.0)
            return psi, wp - wp ** qm1 - nm1 * psi / r
    else:
        def rhs(r, w, psi):
            wp = np.maximum(w, 0.0)
            return (np.copysign(np.abs(psi) ** e, psi),
                    wp ** pm1 - wp ** qm1 - nm1 * psi / r)

    r, w, psi = (v[0] for v in _series_start(heights, N, p, q, coarsen))
    fate = np.zeros(heights.size, dtype=int)
    at = np.zeros(heights.size, dtype=int)
    rs, ws, psis = [np.zeros_like(r), r], [heights, w], [np.zeros_like(r), psi]
    block = 2
    for k in range(2, _MAX_STEPS):
        if k == block:
            size = np.maximum(np.abs(w), np.abs(psi) ** e)
            density = p * np.log(size) + nm1 * np.log(r)
            peak = density if k == 2 else np.maximum(peak, density)
            grow = np.minimum((heights / size) ** 0.2, np.exp(_MASS_POWER * (peak - density)))
            cap = _STEP_MAX * np.clip(grow, 1.0, growth)
            h = coarsen * np.minimum(_STEP_PER_R * r, cap)
            hh, h6 = 0.5 * h, h / 6.0
        rm = r + hh
        a1, b1 = rhs(r, w, psi)
        a2, b2 = rhs(rm, w + hh * a1, psi + hh * b1)
        a3, b3 = rhs(rm, w + hh * a2, psi + hh * b2)
        r = r + h
        a4, b4 = rhs(r, w + h * a3, psi + h * b3)
        w = w + h6 * (a1 + a4 + 2.0 * (a2 + a3))
        psi = psi + h6 * (b1 + b4 + 2.0 * (b2 + b3))
        rs.append(r)
        ws.append(w)
        psis.append(psi)
        if k % 4 and k < _MAX_STEPS - 1:
            continue
        w_block = np.array(ws[block:])
        done = (w_block <= 0) | (np.array(psis[block:]) > 0)
        if k % 4 == 0:
            wp = np.maximum(w, 0.0)
            done[-1] |= pm1 / p * np.abs(psi) ** (p * e) + wp**q / q < wp**p / p
        done &= fate == 0
        new = done.any(axis=0)
        if new.any():
            node = done[:, new].argmax(axis=0)
            fate[new] = np.where(w_block[node, new] <= 0, 1, -1)
            at[new] = block + node
            if fate.all():
                break
        block = k + 1
    return fate, at, np.array(rs), np.array(ws), np.array(psis)


def _hermite_profile(N: int, r: np.ndarray, w: np.ndarray, dw: np.ndarray) -> RadialProfile:
    """The C^1 piecewise-cubic Hermite interpolant of nodal (w, w'), w[-1] = 0,
    on [0, r[-1]] with a break at every interior node.  Values are clipped
    at zero, which only overstates the gradient term.
    """
    h, dv = np.diff(r), np.diff(w)
    # on cell i, u = sum_k coef[k, i] t^k and u' = sum_k dcoef[k, i] t^k, t = (x - r[i]) / h[i]
    coef = np.array([w[:-1], h * dw[:-1], 3.0 * dv - h * (2.0 * dw[:-1] + dw[1:]),
                     h * (dw[:-1] + dw[1:]) - 2.0 * dv])
    dcoef = coef[1:] * np.array([[1.0], [2.0], [3.0]]) / h

    def piece(x, c):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(r, x, side="right") - 1, 0, h.size - 1)
        u = polyval(np.clip((x - r[i]) / h[i], 0.0, 1.0), c[:, i], tensor=False)
        return np.where(x < r[-1], u, 0.0)

    return RadialProfile(N=N, support=float(r[-1]), breaks=r[1:-1],
                         fn=lambda x: np.maximum(piece(x, coef), 0.0),
                         dfn=lambda x: piece(x, dcoef))


def _crossing_radii(fate, at, rs, ws, psis, N: int, p: float, q: float) -> np.ndarray:
    """Radius at which each decided shot's miss crossed zero: w for an
    overshoot, the energy E for an undershoot (E falls below zero before
    psi turns positive, and within the last four nodes, where E was last
    tested).  The root of the cubic Hermite interpolant of the miss and its
    slope (w', or E' = -(N-1)/r |w'|^p) between the nodes around the first
    sign change among the shot's last five, by _CROSSING_NEWTON Newton
    steps from the linear estimate, so the radius follows the miss between
    nodes even where the steps are long; where no change shows, the node it
    was decided at.  Undecided shots get a meaningless value.
    """
    cols = np.arange(fate.size)[:, None]
    nodes = np.maximum(at[:, None] + np.arange(-4, 1), 0)
    r, w, psi = rs[nodes, cols], ws[nodes, cols], psis[nodes, cols]
    wp, dw = np.maximum(w, 0.0), np.copysign(np.abs(psi) ** (1.0 / (p - 1.0)), psi)
    kinetic = np.abs(psi) ** (p / (p - 1.0))
    over = fate[:, None] > 0
    miss = np.where(over, w, (p - 1.0) / p * kinetic + wp**q / q - wp**p / p)
    slope = np.where(over, dw, -(N - 1.0) / r * kinetic)
    j = np.argmax(miss <= 0.0, axis=1)
    i, k = np.arange(fate.size), np.maximum(j - 1, 0)
    r0, width = r[i, k], r[i, j] - r[i, k]
    m0, m1, s0, s1 = miss[i, k], miss[i, j], width * slope[i, k], width * slope[i, j]
    # H(t) = m0 + s0 t + c2 t^2 + c3 t^3 on t = (x - r0) / width
    c2, c3 = 3.0 * (m1 - m0) - 2.0 * s0 - s1, 2.0 * (m0 - m1) + s0 + s1
    t = m0 / (m0 - m1)
    for _ in range(_CROSSING_NEWTON):
        t = np.clip(t - (m0 + t * (s0 + t * (c2 + t * c3))) / (s0 + t * (2.0 * c2 + 3.0 * t * c3)),
                    0.0, 1.0)
    return np.where(j > 0, r0 + width * t, r[:, -1])


def _fit_window(heights, fate, radii, lo: float, hi: float) -> tuple[float, float] | None:
    """The window that the next round's heights fill evenly, or None when
    the fit is too poor to place one.

    Near the ground-state height h*, a shot leaves the ground state along
    the growing tail mode, whose coefficient is linear in h - h*.  So
    log|h - h*| = a - s r, with r the shot's crossing radius, holds on each
    side of h*; each side has its own a and s, as the two sides cross on
    different quantities.  The _FIT_SHOTS decided shots nearest the new
    bracket (lo, hi) on each side are fitted by least squares, and h* by
    a two-pass grid search over (lo, hi): the design does not depend on
    h*, so every candidate's residual is one projection of its log
    distances.  The window is centred on the estimate, _WINDOW_PER_RMS rms
    residuals but at least _WINDOW_MIN bracket widths to each side, and
    clipped to (lo, hi).  The fit is poor when a slope is not positive or
    the half-width would pass _WINDOW_MAX bracket widths.  This is shooting
    with a smooth miss distance in place of bisection (Keller 1968,
    Numerical Methods for Two-Point Boundary-Value Problems; Stoer and
    Bulirsch, Introduction to Numerical Analysis, sec. 7.3).
    """
    under = np.flatnonzero((fate < 0) & (heights <= lo))[-_FIT_SHOTS:]
    over = np.flatnonzero((fate > 0) & (heights >= hi))[:_FIT_SHOTS]
    if under.size < _FIT_SHOTS or over.size < _FIT_SHOTS:
        return None
    shots = np.concatenate([under, over])
    h, r = heights[shots], radii[shots]
    side = np.repeat([1.0, 0.0], _FIT_SHOTS)
    design = np.column_stack([side, 1.0 - side, -r * side, -r * (1.0 - side)])
    solve = np.linalg.pinv(design)
    residual = np.eye(h.size) - design @ solve
    a, b, floor = lo, hi, np.spacing(hi)
    for _ in range(2):
        width = (b - a) / _FIT_GRID
        guess = a + width * (np.arange(_FIT_GRID) + 0.5)
        logd = np.log(np.maximum(np.abs(h - guess[:, None]), floor))
        ssr = np.sum((logd @ residual) ** 2, axis=1)
        k = int(np.argmin(ssr))
        a, b = max(lo, guess[k] - width), min(hi, guess[k] + width)
    rms = math.sqrt(ssr[k] / (h.size - design.shape[1] - 1))
    half = max(_WINDOW_MIN, _WINDOW_PER_RMS * rms)
    if np.min((solve @ logd[k])[2:]) <= 0.0 or half > _WINDOW_MAX:
        return None
    half *= hi - lo
    return max(lo, guess[k] - half), min(hi, guess[k] + half)


class _Bracket:
    """One resolution's height bracket, the window its next round fills and
    its last undershooting shot.  A step-doubled bracket (coarsen != 1)
    closes at _COARSE_CUT times the fine one's width."""

    def __init__(self, coarsen: float, lo: float):
        self.coarsen, self.lo, self.hi, self.spread = coarsen, lo, math.inf, 4.0
        self.window, self.rounds, self.best = None, 0, None
        self.last = None  # (undecided shots, steps, farthest r) of its last round
        self.rtol = _HEIGHT_RTOL * (1.0 if coarsen == 1.0 else _COARSE_CUT)

    @property
    def closed(self) -> bool:
        return self.hi - self.lo <= self.rtol * self.lo

    def heights(self) -> np.ndarray:
        """The next round's heights: spread geometrically above lo until a
        shot overshoots, then evenly inside the window, or inside (lo, hi)
        when there is none."""
        if math.isinf(self.hi):
            return self.lo * self.spread ** (np.arange(1, _BATCH + 1) / _BATCH)
        a, b = self.window or (self.lo, self.hi)
        return np.linspace(a, b, _BATCH + 2)[1:-1]

    def narrow(self, heights, fate, radii) -> int | None:
        """Narrow the bracket to the last undershooting and the first
        overshooting height of a round, and fit the next round's window to
        its shots.  No window follows the geometric round or a round whose
        fates all fall on one side.  Returns the index of the new last
        undershoot, if the round has one."""
        over = np.flatnonzero(fate > 0)
        first_over = over[0] if over.size else heights.size
        under = np.flatnonzero(fate[:first_over] < 0)
        spread_round, self.window = math.isinf(self.hi), None
        if under.size:
            self.lo = float(heights[under[-1]])
        if over.size:
            self.hi = float(heights[first_over])
        else:
            self.spread *= self.spread
        if under.size and over.size and not (spread_round or self.closed):
            self.window = _fit_window(heights, fate, radii, self.lo, self.hi)
        return int(under[-1]) if under.size else None


def _ground_states(N: int, p: float, q: float, coarsens: tuple[float, ...]) -> list[dict]:
    """Bracket the ground-state height by batched shooting, once per step
    multiplier in ``coarsens``; profile quotients.

    A bracket starts at lo = (q/p)^(1/(q-p)), where the energy at the
    origin vanishes, so every lower height undershoots.  Rounds first
    spread the batch geometrically above lo until a shot crosses zero;
    each narrows the bracket to the last undershooting and the first
    overshooting height.  The next round fills a window around the height
    that a fit of how far the shots rode points to (``_fit_window``), or
    (lo, hi) evenly when there is no fit: the fates, not the fit, decide
    the bracket, so a missed window still narrows it.  A round shoots the
    heights of every open bracket side by side; each bracket reads only its
    own columns and leaves once it closes or decides nothing, so it ends as
    it would alone.  The profile is the last undershooting shot up to the
    node before it was decided, with _INNER more nodes off the series inside
    its first radius (one cubic on [0, r0] cannot follow w - w0 ~ r^p',
    which cost (4, 4, 6) 7e-8 of its value), minus its value there:
    nonnegative, non-increasing and zero at the edge, so its quotient is a
    lower bound.
    """
    brackets = [_Bracket(c, (q / p) ** (1.0 / (q - p))) for c in coarsens]
    live, rounds = brackets, 0
    while live and rounds < _MAX_ROUNDS:
        rounds += 1
        heights = np.concatenate([b.heights() for b in live])
        if heights.max() > _MAX_HEIGHT:
            raise NumericalError("ground-state height out of range")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fate, at, rs, ws, psis = _shoot(heights, N, p, q,
                                            np.repeat([b.coarsen for b in live], _BATCH))
            radii = _crossing_radii(fate, at, rs, ws, psis, N, p, q)
        still = []
        for b, col in zip(live, range(0, heights.size, _BATCH)):
            b.rounds = rounds
            own = slice(col, col + _BATCH)
            b.last = (int(np.sum(fate[own] == 0)), len(rs) - 2, float(rs[-1, own].max()))
            i = b.narrow(heights[own], fate[own], radii[own])
            if i is not None:
                i += col
                b.best = (rs[:at[i], i], ws[:at[i], i], psis[:at[i], i])
            if fate[own].any() and not b.closed:
                still.append(b)
        live = still
    gc = gamma_threshold_exponent(N, p, q)
    results = []
    for b in brackets:
        if b.best is None:
            raise NumericalError(
                "shooting found no undershooting height: in round {}, {} of {} shots were "
                "still undecided after {} RK4 steps, at r = {:.4g} (the ground state widens as "
                "q -> p)".format(b.rounds, b.last[0], _BATCH, *b.last[1:]))
        inner = _series_start(np.array([b.lo]), N, p, q, np.array([b.coarsen]), _INNER + 1)
        r, w, psi = (np.concatenate([v[:1], i[:-1, 0], v[1:]]) for v, i in zip(b.best, inner))
        dw = np.copysign(np.abs(psi) ** (1.0 / (p - 1.0)), psi)
        profile = _hermite_profile(N, r, w - w[-1], dw)
        nm = norms(profile, p, q)
        value = _exp_or_inf(_log_quotient(nm, q, gc))
        rel_err = sum(k * n.err_bound / n.value
                      for k, n in ((q, nm.lq), (gc, nm.grad_lp), (q - gc, nm.lp)))
        results.append({"value": value, "quadrature_err": value * rel_err,
                        "height": b.lo, "rounds": b.rounds, "profile": profile,
                        "converged": b.closed})
    return results


def gns_constant_estimate(N: int, p: float, q: float) -> SharpConstant:
    """Certified lower bound on the subcritical interpolation constant

        B = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
        gc = N (q - p) / p,

    from the radial ground state (see the note above ``_shoot``), shot
    with steps that grow as each shot and its mass density decay into the
    tail, up to a cap read off the tail's decay rate (none below p = 2),
    and each shot's crossing radius read off the cubic through its miss
    and slope.  The value is the quotient of an explicit admissible
    profile, the last undershooting shot cut to compact support: its C^1
    Hermite interpolant, integrated by the same Gauss-Kronrod panel rule as
    every other norm, so ``value <= B`` up to that rule's bound.

    err_bound is the distance to a second bracket plus that quadrature
    bound.  The second bracket is shot side by side with the first, but
    every step is doubled (the tail growth too), every shot starts
    _COARSE_START times as far out (on the same series) and the bracket
    closes at _COARSE_CUT times the width.  So the two values differ by
    about the coarse one's error in the steps, in the start and in how far
    the last undershoot lies from the ground-state height: an
    overstatement of the returned one's when the method converges.  Not an
    enclosure radius.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ParamError("N", f"need integer N >= 1, got {N!r}")
    if not (1.0 < p <= N):
        raise ParamError("p", f"need 1 < p <= N, got p={p}")
    gc = gamma_threshold_exponent(N, p, q)
    upper = math.inf if p == N else critical_exponent(N, p)
    if not (p < q < upper):
        raise ParamError("q", f"need p < q < {upper}, got q={q}")
    fine, coarse = _ground_states(N, p, q, (1.0, 2.0))
    value = fine["value"]
    if not (math.isfinite(value) and value > 0):
        raise NumericalError(f"ground-state ratio is {value}")
    return SharpConstant(
        value=value, method="ground-state",
        err_bound=abs(value - coarse["value"]) + fine["quadrature_err"],
        meta={"N": N, "p": p, "q": q, "gamma_c": gc, "height": fine["height"],
              "sweeps": fine["rounds"] + coarse["rounds"],
              "converged": fine["converged"]})


def fractional_constant(value: float) -> SharpConstant:
    """Wrap a user-supplied fractional seminorm constant: any finite
    positive real number, numpy scalars included, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParamError("frac_constant", f"fractional constant must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ParamError("frac_constant", f"fractional constant must be finite and positive, got {value!r}")
    return SharpConstant(value=float(value), method="user-input", err_bound=0.0,
                         meta={"source": "user"})
