"""Sharp constants entering the curve normalization.

Three constants are consumed downstream:

* the sharp Sobolev constant S(N, p) = ||u||_{p*} / ||grad u||_p on the
  optimal bubble (Talenti-Aubin closed form),
* the sharp subcritical interpolation constant
  B(N, p, q) = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
  gc = N(q-p)/p  (bounded here from below by the quotient of the shot
  radial ground state's Hermite interpolant, integrated by the same
  Gauss-Kronrod panel rule as every other norm, with err_bound the
  step-halving distance plus that rule's bound),
* the fractional seminorm constant, which has no elementary closed form
  and is supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import NumericalError, ParamError
from .params import critical_exponent, gamma_threshold_exponent
from .profiles import RadialProfile, _quotient, norms


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
_HEIGHT_RTOL = 1e-13   # the height bracket counts as closed at this width
_MAX_ROUNDS = 64
_MAX_HEIGHT = 1e100


def _shoot(heights: np.ndarray, N: int, p: float, q: float, coarsen: np.ndarray):
    """RK4-integrate the ground-state system from every height at once.

    Each shot starts at r = _START * core, core = w0^(-(q-p)/p) its width,
    from the series psi = c r, c = (w0^(p-1) - w0^(q-1))/N.  Steps are
    _STEP_PER_R * r, capped at _STEP_MAX (both times the shot's entry of
    ``coarsen``), so the concentrated cores near q -> p* and at small p are
    resolved.  A shot is decided at its first node with w <= 0 (fate +1: it
    crossed zero, the height was too large) or with psi > 0 or negative
    energy E = (p-1)/p |w'|^p - w^p/p + w^q/q (fate -1: it turned, or can
    no longer reach zero since E is nonincreasing and E >= 0 there; the
    height was too small).  Energy is tested every fourth node only, which
    may decide a shot a few nodes late but never wrongly.  Returns (fate,
    decided-at index, r, w, psi), the last three at every node from r = 0.
    """
    e, pm1, qm1, nm1 = 1.0 / (p - 1.0), p - 1.0, q - 1.0, N - 1.0

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
    for k in range(2, _MAX_STEPS):
        h = coarsen * np.minimum(_STEP_PER_R * r, _STEP_MAX)
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
        done = (w <= 0) | (psi > 0)
        if k % 4 == 0:
            wp = np.maximum(w, 0.0)
            done |= pm1 / p * np.abs(psi) ** (p * e) + wp**q / q < wp**p / p
        new = done & (fate == 0)
        if new.any():
            fate[new] = np.where(w[new] <= 0, 1, -1)
            at[new] = k
            if fate.all():
                break
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


class _Bracket:
    """One resolution's height bracket and its last undershooting shot."""

    def __init__(self, coarsen: float, lo: float):
        self.coarsen, self.lo, self.hi, self.spread = coarsen, lo, math.inf, 4.0
        self.rounds, self.best = 0, None


def _ground_states(N: int, p: float, q: float, coarsens: tuple[float, ...]) -> list[dict]:
    """Bracket the ground-state height by batched shooting, once per step
    multiplier in ``coarsens``; profile quotients.

    A bracket starts at lo = (q/p)^(1/(q-p)), where the energy at the
    origin vanishes, so every lower height undershoots.  Rounds first
    spread the batch geometrically above lo until a shot crosses zero, then
    evenly inside (lo, hi); each narrows the bracket to the last
    undershooting and the first overshooting height.  A round shoots the
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
        heights = np.concatenate([
            b.lo * b.spread ** (np.arange(1, _BATCH + 1) / _BATCH) if math.isinf(b.hi)
            else np.linspace(b.lo, b.hi, _BATCH + 2)[1:-1] for b in live])
        if heights.max() > _MAX_HEIGHT:
            raise NumericalError("ground-state height out of range")
        with np.errstate(over="ignore", invalid="ignore"):
            fate, at, rs, ws, psis = _shoot(heights, N, p, q,
                                            np.repeat([b.coarsen for b in live], _BATCH))
        still = []
        for b, col in zip(live, range(0, heights.size, _BATCH)):
            b.rounds = rounds
            over = np.flatnonzero(fate[col:col + _BATCH] > 0)
            first_over = over[0] if over.size else _BATCH
            under = np.flatnonzero(fate[col:col + first_over] < 0)
            if under.size:
                i = col + under[-1]
                b.lo = float(heights[i])
                b.best = (rs[:at[i], i], ws[:at[i], i], psis[:at[i], i])
            if over.size:
                b.hi = float(heights[col + first_over])
            else:
                b.spread *= b.spread
            if (under.size or over.size) and b.hi - b.lo > _HEIGHT_RTOL * b.lo:
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
        value = _quotient(nm, q, gc)
        rel_err = sum(k * n.err_bound / n.value
                      for k, n in ((q, nm.lq), (gc, nm.grad_lp), (q - gc, nm.lp)))
        results.append({"value": value, "quadrature_err": value * rel_err,
                        "height": b.lo, "rounds": b.rounds, "profile": profile,
                        "converged": b.hi - b.lo <= _HEIGHT_RTOL * b.lo})
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
    """Wrap a user-supplied fractional seminorm constant."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ParamError("frac_constant", f"fractional constant must be positive, got {value!r}")
    return SharpConstant(value=float(value), method="user-input", err_bound=0.0,
                         meta={"source": "user"})
