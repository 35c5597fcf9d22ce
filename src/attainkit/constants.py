"""Sharp constants entering the curve normalization.

Three constants are consumed downstream:

* the sharp Sobolev constant S(N, p) = ||u||_{p*} / ||grad u||_p on the
  optimal bubble (Talenti-Aubin closed form),
* the sharp subcritical interpolation constant
  B(N, p, q) = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
  gc = N(q-p)/p  (bounded here from below by the quotient of the shot
  radial ground state: the last undershoot's Hermite interpolant glued at
  its best node to the exponential that continues it C^1, by the same
  Gauss-Kronrod panel rule as every other norm and the tail in closed
  form.  Every shot starts a tenth of a core width out, on a power series
  of the solution regular at r = 0, with steps that hold its local error
  near one tolerance of the core's size.  Even rounds of shots close the
  height bracket at 1e-8, to which the glued value is only second order.
  err_bound is the distance to a second bracket that steps twice as far
  and starts 100 times further in, plus that rule's bound),
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
from .profiles import (_NORMAL, RadialProfile, _gauss_err, _panel_sums, _unheld,
                       log_sphere_area)


@dataclass(frozen=True)
class SharpConstant:
    """A constant plus a record of how it was obtained.

    method "closed-form":  value carries a roundoff err_bound.
    method "ground-state": value is a lower bound, the quotient of the shot
                           ground state's Hermite interpolant glued to an
                           exponential tail, by the same Gauss-Kronrod rule
                           as every other norm and the tail in closed form;
                           err_bound is the distance to a bracket with twice
                           the error-controlled steps and an inner start,
                           plus that rule's bound: an estimate, not an
                           enclosure radius.
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
_FIRST_STEP = 0.05     # the first step, in start radii; later steps hold ...
_STEP_TOL = 1.3e-8     # ... each shot's local error near this fraction of the core's scale ...
_STEP_GROWTH = 2.0     # ... and grow at most this many times per block of four nodes
_MAX_STEPS = 20_000    # per round; shots still undecided then stay so
_HEIGHT_RTOL = 1e-8    # a height bracket counts as closed at this relative width
_COARSE_START = 1e-2   # the step-doubled bracket starts this fraction of the fine radius out
_MAX_ROUNDS = 64
_MAX_HEIGHT = 1e100


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
    of that in a column whose ``coarsen`` is not 1.  Each shot's step is
    coarsen * h_c, h_c first _FIRST_STEP times its start radius and then set
    by local error control (Hairer, Norsett and Wanner, Solving Ordinary
    Differential Equations I, sec. II.4) at no extra right-hand-side call.
    With k5 = f(r + h, y_(n+1)), the next step's k1, the companion
    y_n + h (k1 + 2 k2 + 2 k3 + k5) / 6 is third order, so
    err = h/6 max(|k4_w - k5_w| / (_STEP_TOL w0), |k4_psi - k5_psi| /
    (_STEP_TOL w0^(q(p-1)/p))) estimates the step's local error on the
    core's scales: w0 for w, and the core's slope w0^(q/p) raised to p - 1
    for psi.  The error goes like h^4, so at the end of every block of four
    nodes h_c becomes min(_STEP_GROWTH h_c, h err^(-1/4)), h the step just
    taken, from that shot's own state, so no batch changes it.  No step is
    rejected: every column advances each iteration, and a column with
    coarsen = 2 takes twice the steps a fine one takes from the same state.
    At p = 2 the right-hand side reads w' = psi and w^(p-1) = w, which is
    what the general one computes there, bit for bit, with four fewer numpy
    calls per evaluation.  A shot is decided at its first node with w <= 0
    (fate +1: it crossed zero, the height was too large) or with psi > 0 or
    negative energy E = (p-1)/p |w'|^p - w^p/p + w^q/q (fate -1: it turned,
    or can no longer reach zero since E is nonincreasing and E >= 0 there;
    the height was too small).  Energy is tested every fourth node only,
    which may decide a shot a few nodes late but never wrongly.  The tests
    are read once per block of four nodes, ending at an energy node or at
    _MAX_STEPS, and each shot gets the first node in the block that decides
    it.  Returns (fate, decided-at index, r, w, psi), the last three at
    every node from r = 0, up to 3 nodes past the last decision.
    """
    e, pm1, qm1, nm1 = 1.0 / (p - 1.0), p - 1.0, q - 1.0, N - 1.0
    tol_w, tol_psi = 6.0 * _STEP_TOL * heights, 6.0 * _STEP_TOL * heights ** (q * pm1 / p)

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
    block, h_c = 2, _FIRST_STEP * r
    for k in range(2, _MAX_STEPS):
        a1, b1 = rhs(r, w, psi)
        if k == block:
            if k > 2:
                err = h * np.maximum(np.abs(a4 - a1) / tol_w, np.abs(b4 - b1) / tol_psi)
                with np.errstate(divide="ignore"):  # err = 0 asks for an infinite step
                    h_c = np.minimum(_STEP_GROWTH * h_c, h / err ** 0.25)
            h = coarsen * h_c
            hh, h6 = 0.5 * h, h / 6.0
        rm = r + hh
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
        # nan propagates through every step and fails every test, so a nan shot is never decided
        if np.all((fate != 0) | np.isnan(w) | np.isnan(psi)):
            break
        block = k + 1
    return fate, at, np.array(rs), np.array(ws), np.array(psis)


def _hermite_profile(N: int, r: np.ndarray, w: np.ndarray, dw: np.ndarray) -> RadialProfile:
    """The C^1 piecewise-cubic Hermite interpolant of nodal (w, w') on
    [0, r[-1]], with a break at every interior node, and 0 from r[-1] on.
    Each call finds the cells of its radii once, for u and u' both.  Values
    are clipped at zero, which only overstates the gradient term.
    """
    h, dv = np.diff(r), np.diff(w)
    # on cell i, u = sum_k coef[k, i] t^k and u' = sum_k dcoef[k, i] t^k, t = (x - r[i]) / h[i]
    coef = np.array([w[:-1], h * dw[:-1], 3.0 * dv - h * (2.0 * dw[:-1] + dw[1:]),
                     h * (dw[:-1] + dw[1:]) - 2.0 * dv])
    dcoef = coef[1:] * np.array([[1.0], [2.0], [3.0]]) / h

    def values(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(r, x, side="right") - 1, 0, h.size - 1)
        t, inside = np.clip((x - r[i]) / h[i], 0.0, 1.0), x < r[-1]
        return (np.maximum(np.where(inside, polyval(t, coef[:, i], tensor=False), 0.0), 0.0),
                np.where(inside, polyval(t, dcoef[:, i], tensor=False), 0.0))

    return RadialProfile(N=N, values=values, support=float(r[-1]), breaks=r[1:-1])


def _glued_profile(N: int, r: np.ndarray, w: np.ndarray, dw: np.ndarray) -> RadialProfile:
    """``_hermite_profile`` continued C^1 past r[-1] as w[-1] exp(-kappa s),
    s = x - r[-1], kappa = -w'[-1]/w[-1] > 0, up to where the tail falls
    below w[-1] times the least normal double: its support.  Breaks at
    r[-1] and ten radii graded toward it by halves let ``norms`` resolve
    the tail on its scale 1/kappa.  Each call evaluates the core and the
    exponential once, for u and u' both."""
    core = _hermite_profile(N, r, w, dw).values
    kappa = -dw[-1] / w[-1]
    reach = -math.log(_NORMAL) / kappa
    support = r[-1] + reach

    def values(x):
        x = np.asarray(x, dtype=float)
        u, du = core(x)
        on = (x >= r[-1]) & (x < support)
        tail = np.exp(-kappa * np.maximum(x - r[-1], 0.0))
        return (u + np.where(on, w[-1] * tail, 0.0),
                du + np.where(on, (-kappa * w[-1]) * tail, 0.0))

    breaks = np.concatenate([r[1:], r[-1] + reach / 2.0 ** np.arange(10, 0, -1)])
    return RadialProfile(N=N, values=values, support=support, breaks=breaks)


def _best_glue(N: int, p: float, q: float, r: np.ndarray, w: np.ndarray,
               dw: np.ndarray) -> tuple[int, float, float]:
    """(k, log Q, relative quadrature bound) of the best glued profile: of
    every node k with w'_k < 0 whose glued support is a double, the one
    whose ``_glued_profile`` of the nodes up to k has the largest quotient Q.

    Each such profile is admissible, so each Q is a lower bound on B.  The
    panel sums of ``norms`` are taken once, on the whole shot's Hermite
    interpolant, and summed up to each r_k, which is a panel edge.  The
    tail adds, to the moment of |u|^e, |S^(N-1)| w_k^e I(e kappa_k) (with
    (kappa_k w_k)^p for the gradient), where, N being an integer,

        I(a) = int_0^inf e^(-a s) (r_k + s)^(N-1) ds
             = sum_{j<N} (N-1)!/(N-1-j)! r_k^(N-1-j) / a^(j+1),

    summed in logs, as a flat core's long tail would overflow it.  The
    quadrature bound is the sum of the panels' bounds in ``norms`` up to the
    chosen r_k over each moment, formed in logs for the same reason, plus
    the roundoff of log Q; the tails are closed forms, exact up to
    roundoff.  A norm of the whole shot outside the normal doubles raises
    as in ``norms``.
    """
    gc = N * (q - p) / p
    edges, _, _, moments = _panel_sums(_hermite_profile(N, r, w, dw), p, q)
    k = np.flatnonzero((dw < 0.0) & (w > 0.0))
    kappa = -dw[k] / w[k]
    # a tail too flat for its support to be a double (kappa 0 among them) is no candidate
    with np.errstate(divide="ignore", over="ignore"):
        held = np.isfinite(r[k] + -math.log(_NORMAL) / kappa)
    k, kappa = k[held], kappa[held]
    panels = np.searchsorted(edges[0, 1:], r[k], side="right")
    j = np.arange(N)
    falling = np.array([math.lgamma(N) - math.lgamma(N - i) for i in j])
    log_m, log_w, log_r = [], np.log(w[k]), np.log(r[k])[:, None]
    for name, (kg, _, _, _), e, log_amp in zip(("lp", "grad_lp", "lq"), moments, (p, p, q),
                                               (log_w, log_w + np.log(kappa), log_w)):
        gauss = kg[:, 1, 0]
        norm = gauss.sum() ** (1.0 / e)
        if not _NORMAL <= norm < math.inf:  # as ``norms`` would find for the whole shot
            raise _unheld(name, N, repr(float(norm)))
        body = np.cumsum(gauss)[panels - 1]
        terms = falling + (N - 1 - j) * log_r - (j + 1) * np.log(e * kappa)[:, None]
        tail = log_sphere_area(N) + e * log_amp + np.logaddexp.reduce(terms, axis=1)
        with np.errstate(divide="ignore"):  # a moment that underflows near r = 0 scores -inf
            log_m.append(np.logaddexp(np.log(body), tail))
    log_q = log_m[2] - gc / p * log_m[1] - (q - gc) / p * log_m[0]
    best = int(np.argmax(log_q))
    n = panels[best]
    rel_err = 0.0
    for (kg, size, _, _), m, weight in zip(moments, log_m, ((q - gc) / p, gc / p, 1.0)):
        with np.errstate(divide="ignore"):
            log_err = np.log(_gauss_err(kg[:n], size[:n])[0])
        # the panels' bound over the moment, and the roundoff of weight * log m in log Q
        rel_err += weight * math.exp(log_err - m[best]) + math.ulp(1.0) * abs(weight * m[best])
    return int(k[best]), float(log_q[best]), float(rel_err)


class _Bracket:
    """One resolution's height bracket and its last undershooting shot."""

    def __init__(self, coarsen: float, lo: float):
        self.coarsen, self.lo, self.hi, self.spread = coarsen, lo, math.inf, 4.0
        self.rounds, self.best = 0, None
        self.last = None  # (undecided shots, steps, farthest r) of its last round

    @property
    def closed(self) -> bool:
        return self.hi - self.lo <= _HEIGHT_RTOL * self.lo

    def heights(self) -> np.ndarray:
        """The next round's heights: spread geometrically above lo until a
        shot overshoots, then evenly inside (lo, hi)."""
        if math.isinf(self.hi):
            return self.lo * self.spread ** (np.arange(1, _BATCH + 1) / _BATCH)
        return np.linspace(self.lo, self.hi, _BATCH + 2)[1:-1]

    def narrow(self, heights, fate) -> int | None:
        """Narrow the bracket to the last undershooting and the first
        overshooting height of a round.  Returns the index of the new last
        undershoot, if the round has one."""
        over = np.flatnonzero(fate > 0)
        first_over = over[0] if over.size else heights.size
        under = np.flatnonzero(fate[:first_over] < 0)
        if under.size:
            self.lo = float(heights[under[-1]])
        if over.size:
            self.hi = float(heights[first_over])
        else:
            self.spread *= self.spread
        return int(under[-1]) if under.size else None


def _ground_states(N: int, p: float, q: float, coarsens: tuple[float, ...]) -> list[dict]:
    """Bracket the ground-state height by batched shooting, once per step
    multiplier in ``coarsens``; glued profile quotients.

    A bracket starts at lo = (q/p)^(1/(q-p)), where the energy at the
    origin vanishes, so every lower height undershoots.  Rounds first
    spread the batch geometrically above lo until a shot crosses zero,
    then fill (lo, hi) evenly, so each shrinks the bracket 33-fold; each
    narrows it to the last undershooting and the first overshooting
    height, until it closes at _HEIGHT_RTOL.  A round shoots the heights of
    every open bracket side by side; each bracket reads only its own
    columns and leaves once it closes or decides nothing, so it ends as it
    would alone.  The profile is the last undershooting shot up to the
    node before it was decided, with _INNER more nodes off the series
    inside its first radius (one cubic on [0, r0] cannot follow
    w - w0 ~ r^p', which cost (4, 4, 6) 7e-8 of its value), glued to an
    exponential tail at its best node (``_best_glue``).  The ground state
    maximizes the quotient, so a profile that leaves it by epsilon loses
    only O(epsilon^2) of the value, and the node where the shot has not
    yet left it along the growing mode wins.  Each result carries the
    shot's nodes (r, w, w') and the glue's node index.
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
        still = []
        for b, col in zip(live, range(0, heights.size, _BATCH)):
            b.rounds = rounds
            own = slice(col, col + _BATCH)
            b.last = (int(np.sum(fate[own] == 0)), len(rs) - 2, float(rs[-1, own].max()))
            i = b.narrow(heights[own], fate[own])
            if i is not None:
                i += col
                b.best = (rs[:at[i], i], ws[:at[i], i], psis[:at[i], i])
            if fate[own].any() and not b.closed:
                still.append(b)
        live = still
    results = []
    for b in brackets:
        if b.best is None:
            raise NumericalError(
                "shooting found no undershooting height: in round {}, {} of {} shots were "
                "still undecided after {} RK4 steps, at r = {:.4g} (the step budget per round "
                "is {})".format(b.rounds, b.last[0], _BATCH, *b.last[1:], _MAX_STEPS - 2))
        inner = _series_start(np.array([b.lo]), N, p, q, np.array([b.coarsen]), _INNER + 1)
        r, w, psi = (np.concatenate([v[:1], i[:-1, 0], v[1:]]) for v, i in zip(b.best, inner))
        dw = np.copysign(np.abs(psi) ** (1.0 / (p - 1.0)), psi)
        k, log_q, rel_err = _best_glue(N, p, q, r, w, dw)
        value = _exp_or_inf(log_q)
        results.append({"value": value, "quadrature_err": value * rel_err,
                        "height": b.lo, "rounds": b.rounds,
                        "profile": _glued_profile(N, r[:k + 1], w[:k + 1], dw[:k + 1]),
                        "converged": b.closed, "nodes": (r, w, dw), "glue": k})
    return results


def gns_constant_estimate(N: int, p: float, q: float) -> SharpConstant:
    """Certified lower bound on the subcritical interpolation constant

        B = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
        gc = N (q - p) / p,

    from the radial ground state (see the note above ``_shoot``), shot
    with steps set by local error control against one tolerance of the
    core's scale (_STEP_TOL), its height bracketed by even rounds to
    _HEIGHT_RTOL.  The value is the quotient of an explicit admissible
    profile, the last undershooting shot's C^1 Hermite interpolant glued
    at its best node to the exponential that continues it C^1
    (``_best_glue``): the interpolant integrated by the same Gauss-Kronrod
    panel rule as every other norm, the tail in closed form, so
    ``value <= B`` up to that rule's bound.  The ground state maximizes
    the quotient, so the glue leaves the value only second order in how
    far the last undershoot lies from the ground-state height.

    err_bound is the distance to a second bracket plus that quadrature
    bound.  The second bracket is shot side by side with the first, but
    every step is twice the one the control sets and every shot starts
    _COARSE_START times as far out (on the same series).  So the two
    values differ by about the coarse one's error in the steps and in the
    start: an overstatement of the returned one's when the method
    converges.  Not an enclosure radius.
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
