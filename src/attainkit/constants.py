"""Sharp constants entering the curve normalization.

Three constants are consumed downstream:

* the sharp Sobolev constant S(N, p) = ||u||_{p*} / ||grad u||_p on the
  optimal bubble (Talenti-Aubin closed form),
* the sharp subcritical interpolation constant
  B(N, p, q) = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
  gc = N(q-p)/p  (bounded here from below by the quotient of the shot
  radial ground state's Hermite interpolant, integrated by the same
  Gauss-Kronrod panel rule as every other norm, with err_bound the
  step-halving distance plus that rule's bound; each round of shots is
  placed in a window that a fit of how far the previous round's shots
  rode points to, so (2, 2, 4) closes in six rounds per bracket),
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
                           is the step-halving distance plus that rule's
                           bound, an estimate, not an enclosure radius.
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
_START = 1e-3          # first radius, in units of the core width
_STEP_PER_R = 0.05     # steps grow with r (a geometric grid) ...
_STEP_MAX = 0.04       # ... up to this cap
_MAX_STEPS = 20_000    # per round; shots still undecided then stay so
_HEIGHT_RTOL = 1e-14   # the height bracket counts as closed at this width; the
                       # value moves with the last undershoot's distance from
                       # h*, by up to 2.6 err_bounds at 1e-13
_MAX_ROUNDS = 64
_MAX_HEIGHT = 1e100
_FIT_SHOTS = 4         # decided shots per side that the miss-distance fit reads
_FIT_GRID = 48         # candidate heights per pass of the fit's two-pass search
_WINDOW_MIN = 1 / 40   # fitted window half-width, in bracket widths, at least ...
_WINDOW_PER_RMS = 8    # ... this many times the fit's rms residual ...
_WINDOW_MAX = 1 / 4    # ... and no wider, else the fit is too poor to use


def _shoot(heights: np.ndarray, N: int, p: float, q: float, coarsen: np.ndarray):
    """RK4-integrate the ground-state system from every height at once.

    Each shot starts at r = _START * core, core = w0^(-(q-p)/p) its width,
    from the series psi = c r, c = (w0^(p-1) - w0^(q-1))/N.  Steps are
    _STEP_PER_R * r, capped at _STEP_MAX (both times the shot's entry of
    ``coarsen``), so the concentrated cores near q -> p* and at small p are
    resolved; once every shot's step is capped they no longer change.  At
    p = 2 the right-hand side reads w' = psi and w^(p-1) = w, which is what
    the general one computes there, bit for bit, with four fewer numpy
    calls per evaluation.  A shot is decided at its first node with w <= 0
    (fate +1: it crossed zero, the height was too large) or with psi > 0
    or negative energy E = (p-1)/p |w'|^p - w^p/p + w^q/q (fate -1: it
    turned, or can no longer reach zero since E is nonincreasing and E >= 0
    there; the height was too small).  Energy is tested every fourth node
    only, which may decide a shot a few nodes late but never wrongly.  The
    tests are read once per block of four nodes, ending at an energy node
    or at _MAX_STEPS, and each shot gets the first node in the block that
    decides it.  Returns (fate, decided-at index, r, w, psi), the last
    three at every node from r = 0, up to 3 nodes past the last decision.
    """
    e, pm1, qm1, nm1 = 1.0 / (p - 1.0), p - 1.0, q - 1.0, N - 1.0

    if p == 2.0:
        def rhs(r, w, psi):
            wp = np.maximum(w, 0.0)
            return psi, wp - wp ** qm1 - nm1 * psi / r
    else:
        def rhs(r, w, psi):
            wp = np.maximum(w, 0.0)
            return (np.copysign(np.abs(psi) ** e, psi),
                    wp ** pm1 - wp ** qm1 - nm1 * psi / r)

    r = _START * heights ** (-(q - p) / p)
    c = (heights ** pm1 - heights ** qm1) / N
    psi = c * r
    w = heights - pm1 / p * np.abs(psi) ** e * r
    fate = np.zeros(heights.size, dtype=int)
    at = np.zeros(heights.size, dtype=int)
    rs, ws, psis = [np.zeros_like(r), r], [heights, w], [np.zeros_like(r), psi]
    capped, block = False, 2
    for k in range(2, _MAX_STEPS):
        if not capped:
            step = _STEP_PER_R * r
            capped = step.min() >= _STEP_MAX
            h = coarsen * np.minimum(step, _STEP_MAX)
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


def _crossing_radii(fate, at, rs, ws, psis, p: float, q: float) -> np.ndarray:
    """Radius at which each decided shot's miss crossed zero: w for an
    overshoot, the energy E for an undershoot (E falls below zero before
    psi turns positive, and within the last four nodes, where E was last
    tested).  Linear between the nodes around the first sign change among
    the shot's last five, so the radius is not quantized to the step;
    where no change shows, the node it was decided at.  Undecided shots
    get a meaningless value.
    """
    cols = np.arange(fate.size)[:, None]
    nodes = np.maximum(at[:, None] + np.arange(-4, 1), 0)
    r, w, psi = rs[nodes, cols], ws[nodes, cols], psis[nodes, cols]
    wp = np.maximum(w, 0.0)
    energy = (p - 1.0) / p * np.abs(psi) ** (p / (p - 1.0)) + wp**q / q - wp**p / p
    miss = np.where(fate[:, None] > 0, w, energy)
    j = np.argmax(miss <= 0.0, axis=1)
    i, k = np.arange(fate.size), np.maximum(j - 1, 0)
    inside = r[i, k] + (r[i, j] - r[i, k]) * miss[i, k] / (miss[i, k] - miss[i, j])
    return np.where(j > 0, inside, r[:, -1])


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
    its last undershooting shot."""

    def __init__(self, coarsen: float, lo: float):
        self.coarsen, self.lo, self.hi, self.spread = coarsen, lo, math.inf, 4.0
        self.window, self.rounds, self.best = None, 0, None

    @property
    def closed(self) -> bool:
        return self.hi - self.lo <= _HEIGHT_RTOL * self.lo

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
    node before it was decided, minus its value there: nonnegative,
    non-increasing and zero at the edge, so its quotient is a lower bound.
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
            radii = _crossing_radii(fate, at, rs, ws, psis, p, q)
        still = []
        for b, col in zip(live, range(0, heights.size, _BATCH)):
            b.rounds = rounds
            own = slice(col, col + _BATCH)
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
            raise NumericalError("shooting found no undershooting height")
        r, w, psi = b.best
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

    from the radial ground state (see the note above ``_shoot``).  The
    value is the quotient of an explicit admissible profile, the last
    undershooting shot cut to compact support: its C^1 Hermite interpolant,
    integrated by the same Gauss-Kronrod panel rule as every other norm, so
    ``value <= B`` up to that rule's bound.

    err_bound is the step-halving distance plus that quadrature bound: a
    second bracket with every step doubled is shot side by side, and the two
    values differ by about the coarse one's error, an overstatement of the
    returned one's when the method converges.  Not an enclosure radius.
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
