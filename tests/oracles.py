"""Independent reference computations used only by the tests.

Thirteen oracles, all but ``rk4_shoot_oracle`` methodologically independent
of the library code:

* Beta-function closed forms for every power-weighted integral of the
  optimal bubble (so radial quadrature and the sharp Sobolev constant
  can be checked to machine precision);
* ODE-shooting computations of the sharp interpolation constant for
  p = 2 with scipy's adaptive LSODA: the ground state of
  w'' + (N-1) w'/r - w + w^(q-1) = 0 is found by bisection on the initial
  height, and the constant follows from ||w||_2^2 alone through the
  Pohozaev identities (for (N, p, q) = (2, 2, 4) it is 2 / ||w||_2^2);
* a dense-grid evaluator of the half-line curves with no refinement, to
  cross-check the library's optimizer, and the same closed forms at any t
  (``curve_at_t``), to cross-check the library's evaluators in log t;
* bisection of a sign change in the order of the double bit patterns, the
  reference for the optimizer's safeguarded Newton;
* each family's own closed forms for the upper gamma boundary and the
  bubble's finite energy, which the library derives from one rule.
* J of a profile over its combined norm, read straight off its three
  quadrature norms, the reference for the dilation identity the library
  evaluates J by (``j_oracle``);
* the norms of a compactly supported profile or family by 20-point
  Gauss-Legendre on 128 even panels of its support split at its declared
  breaks, with plain powers, the reference for the library's graded
  Gauss-Kronrod panels and their error bounds (``norm_oracle``);
* a central difference of a profile's u, away from its declared breaks,
  the reference for the u' every profile returns with it
  (``central_difference_oracle``);
* the interpolation quotient of the C^1 piecewise-cubic Hermite
  interpolant of nodal values and slopes, by the 8-point Gauss-Legendre
  rule on every cell, the reference for the library's Hermite profile of
  a shot ground state and its Gauss-Kronrod norms
  (``hermite_ratio_oracle``);
* the ground-state solution regular at r = 0 near the origin by LSODA, the
  reference for the library's power series that every shot starts from
  (``regular_solution_oracle``);
* the ground-state shooting loop node by node, with its step rule restated,
  deciding each shot node by node and calling the general right-hand side
  at p = 2 as well, the reference the library's ``_shoot`` must match bit
  for bit up to each shot's decided node (``rk4_shoot_oracle``);
* the slope of log B(N, p, q) in q at q = p, from the optimal L^p
  log-Sobolev constant in closed form (``log_sobolev_slope``);
* the interpolation quotient of exp(-r^p'), that constant's optimizer, as
  Gamma functions: a closed-form floor on B (``exp_power_quotient_oracle``).

It also keeps ``json_reference``, the standard library's rendering of CLI
documents, against which the CLI's own JSON writer is checked.
"""

from __future__ import annotations

import json
import math
import struct
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import beta as beta_fn

from attainkit import constants
from attainkit.curves import CurveParams, log_f_limits, log_g_limits
from attainkit.errors import NumericalError
from attainkit.halfline import OptResult
from attainkit.profiles import norms

#: frozen outputs of shooting_oracle_2_2_4 (LSODA, rtol 1e-12, atol 1e-14),
#: recorded once so every later run can cross-check determinism
FROZEN_GROUND_STATE_HEIGHT = 2.2062008646442175
FROZEN_GROUND_STATE_MASS2 = 11.700896524325204
FROZEN_INTERPOLATION_B_2_2_4 = 0.1709270734806606

#: rigorous floors on B(N, p, q): the values the multigrid coordinate ascent
#: that preceded the ground-state solver returned at gns_constant_estimate(
#: N, p, q, budget=1200, grid_n=200), its classify default.  Each is the
#: ratio of an explicit admissible profile, so B can only lie above it.
FROZEN_ASCENT_LOWER_BOUNDS = {
    (3, 1.5, 2.5): 0.06073858500516228,
    (3, 2.5, 4.0): 0.18854227906437246,
    (5, 3.0, 4.0): 0.17424228593699256,
    (2, 1.2, 2.8): 0.03256866947657911,
    (4, 4.0, 6.0): 0.2924012494972844,
    (3, 2.0, 5.5): 0.007863965382797452,
    (6, 1.1, 1.3): 0.10247358076907877,
    (8, 5.0, 12.0): 0.014247603210991142,
}

#: (value, err_bound, meta["sweeps"]) of gns_constant_estimate(N, p, q) when
#: every round after the geometric one spread its 32 heights evenly over the
#: bracket and the bracket closed at 1e-13 relative width, recorded with
#: numpy 2.4.6 so that a faster height placement can be held to the same
#: answers in no more sweeps
FROZEN_EVEN_SPACING_GROUND_STATES = {
    (3, 1.5, 2.5): (0.060746810111477104, 2.9751187425838824e-10, 20),
    (3, 2.5, 4.0): (0.18856310380812272, 1.7053733282027826e-11, 18),
    (5, 3.0, 4.0): (0.17427430389446058, 2.791410371138121e-11, 18),
    (2, 1.2, 2.8): (0.03257617067038722, 2.693704119977778e-09, 20),
    (4, 4.0, 6.0): (0.29244675641653006, 1.9287973136961428e-08, 18),
    (3, 2.0, 5.5): (0.007876863979833117, 1.0163951709293595e-10, 20),
    (6, 1.1, 1.3): (0.1024817299016399, 1.540992245110351e-06, 24),
    (8, 5.0, 12.0): (0.015057529515127671, 3.3305926435538605e-06, 20),
    (2, 2.0, 4.0): (0.17092707347557926, 3.736531418744606e-11, 18),
    (3, 2.0, 2.01): (0.9810736597482774, 1.2374523291626724e-14, 18),
}

#: sharp Sobolev constants S(N, p) for p just below N, frozen from a
#: 50-digit computation: mpmath 1.3.0 at mp.dps = 50, evaluating
#: sobolev_constant_oracle's Beta-function formula (mp.beta, mp.gamma) at the
#: double nearest each p and rounding to the nearest double; the
#: Talenti-Aubin log-Gamma formula at the same precision gives the same doubles
FROZEN_SOBOLEV_50_DIGITS = {
    (2, 1.9999): 39.88335436570564,
    (3, 2.99999): 1470.9894741368357,
    (7, 6.999999): 391539.3345905428,
    (4, 3.9999999): 192312.91462768515,
    (10, 9.99): 329.19564752081345,
}


def sphere_area_oracle(N: int) -> float:
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def bubble_moment_oracle(N: int, p: float, e: float) -> float:
    """integral of u_*(r)^e r^(N-1) dr over (0, inf) via the Beta function.

    u_*(r) = (1 + r^(p/(p-1)))^(-(N-p)/p); substituting v = r^(p/(p-1))
    turns the integral into Beta(N/pp, k - N/pp)/pp with pp = p/(p-1) and
    k = e (N-p)/p.  Finite exactly when k > N/pp.
    """
    pp = p / (p - 1.0)
    k = e * (N - p) / p
    if k <= N / pp:
        raise ValueError("divergent moment")
    return float(beta_fn(N / pp, k - N / pp)) / pp


def bubble_grad_moment_oracle(N: int, p: float) -> float:
    """integral of |u_*'(r)|^p r^(N-1) dr over (0, inf) via the Beta function."""
    pp = p / (p - 1.0)
    slope = (N - p) / (p - 1.0)
    a = (N + (pp - 1.0) * p) / pp
    k = ((N - p) / p + 1.0) * p
    return slope ** p * float(beta_fn(a, k - a)) / pp


def combined_norm_oracle(nm, gamma: float) -> float:
    """(|grad u|_p^gamma + |u|_p^gamma)^(1/gamma) of the norms ``nm``."""
    return (nm.grad_lp.value ** gamma + nm.lp.value ** gamma) ** (1.0 / gamma)


def j_oracle(profile, params) -> float:
    """J(u / z) = (|u|_p / z)^p + alpha (|u|_q / z)^q, z the combined norm,
    from the profile's quadrature norms."""
    nm = norms(profile, params.p, params.q)
    z = combined_norm_oracle(nm, params.gamma)
    return (nm.lp.value / z) ** params.p + params.alpha * (nm.lq.value / z) ** params.q


def norm_oracle(profile, p: float, q: float) -> dict[str, np.ndarray]:
    """{"lp", "grad_lp", "lq"} of a compactly supported profile (one entry)
    or family (one per row), by 20-point Gauss-Legendre on 128 even panels
    of [0, support] split at the declared breaks, with values called on
    64-node column blocks."""
    rows = 1 if profile.rows is None else profile.rows
    top = np.asarray(profile.support, dtype=float).reshape(-1, 1) * np.ones((rows, 1))
    breaks = np.clip(np.asarray(profile.breaks, dtype=float).reshape(rows, -1), 0.0, top)
    edges = np.sort(np.concatenate([top * np.linspace(0.0, 1.0, 129), breaks], axis=1), axis=1)
    x, w = np.polynomial.legendre.leggauss(20)
    a, h = edges[:, :-1, None], np.diff(edges, axis=1)[:, :, None]
    r = (a + h * (x + 1.0) / 2.0).reshape(rows, -1)
    weight = (h * w / 2.0).reshape(rows, -1) * r ** (profile.N - 1)
    u, du = np.empty_like(r), np.empty_like(r)
    for c in range(0, r.shape[1], 64):
        u[:, c:c + 64], du[:, c:c + 64] = map(np.abs, profile.values(r[:, c:c + 64]))
    area = sphere_area_oracle(profile.N)
    return {name: (area * (v ** e * weight).sum(axis=1)) ** (1.0 / e)
            for name, v, e in (("lp", u, p), ("grad_lp", du, p), ("lq", u, q))}


def central_difference_oracle(profile, r: np.ndarray):
    """(du, central difference of u, scale |u|/r + |du|) of one profile at
    those of the radii r that lie more than 1e-4 r from every declared break
    and from its support, so that u is smooth on [r - h, r + h].  The step
    h = 3e-7 r balances the difference's truncation, h^2 |u^(3)| / 6 (a
    glued exponential tail's, far out), against the roundoff of u over h (a
    cutoff's, near its end); on the library's profiles each stays near 1e-8
    of the scale."""
    edges = np.append(np.asarray(profile.breaks, dtype=float).ravel(),
                      math.inf if profile.support is None else profile.support)
    r = r[np.abs(r[:, None] - edges).min(axis=1) > 1e-4 * r]
    u, du = profile.values(r)
    h = 3e-7 * r
    fd = (profile.values(r + h)[0] - profile.values(r - h)[0]) / (2.0 * h)
    return du, fd, np.abs(u) / r + np.abs(du)


def hermite_ratio_oracle(r: np.ndarray, w: np.ndarray, dw: np.ndarray,
                         N: int, p: float, q: float) -> float:
    """|u|_q^q / (|grad u|_p^gc |u|_p^(q - gc)), gc = N(q-p)/p, of the C^1
    piecewise-cubic Hermite interpolant u of nodal values w and slopes dw
    on the increasing nodes r, values clipped at zero, by the 8-point
    Gauss-Legendre rule on each cell between consecutive nodes."""
    x, wg = np.polynomial.legendre.leggauss(8)
    x, wg = (x + 1.0) / 2.0, wg / 2.0
    # cubic Hermite basis and its derivative at the nodes, acting on
    # (w0, h w0', w1, h w1') of a cell
    basis = np.array([2 * x**3 - 3 * x**2 + 1, x**3 - 2 * x**2 + x,
                      3 * x**2 - 2 * x**3, x**3 - x**2])
    dbasis = np.array([6 * x**2 - 6 * x, 3 * x**2 - 4 * x + 1,
                       6 * x - 6 * x**2, 3 * x**2 - 2 * x])
    h = np.diff(r)[:, None]
    nodal = np.stack([w[:-1], dw[:-1] * h[:, 0], w[1:], dw[1:] * h[:, 0]], axis=1)
    u = np.maximum(nodal @ basis, 0.0)
    du = (nodal @ dbasis) / h
    weight = sphere_area_oracle(N) * h * wg * (r[:-1, None] + h * x) ** (N - 1)
    mq, mp, mg = ((v ** e * weight).sum() for v, e in ((u, q), (u, p), (np.abs(du), p)))
    gc = N * (q - p) / p
    return mq / (mg ** (gc / p) * mp ** ((q - gc) / p))


def local_gamma_crit_oracle(N: int, p: float, q: float, critical: bool) -> float:
    """Local upper gamma boundary: p* = N p / (N - p), or N (q - p) / p."""
    return N * p / (N - p) if critical else N * (q - p) / p


def fractional_gamma_crit_oracle(N: int, s: float, q: float, critical: bool) -> float:
    """Fractional upper gamma boundary: the sharp exponent 2N / (N - 2s)
    (Lieb 1983; Cotsiolis and Tavoularis 2004), or N (q - 2) / (2 s)."""
    return 2.0 * N / (N - 2.0 * s) if critical else N * (q - 2.0) / (2.0 * s)


def local_extremal_oracle(N: int, p: float, critical: bool) -> bool:
    """The local bubble has finite mass exactly when p^2 < N."""
    return not critical or p * p < N


def fractional_extremal_oracle(N: int, s: float, critical: bool) -> bool:
    """The fractional bubble has finite energy exactly when s < N/4."""
    return not critical or s < N / 4.0


def sobolev_constant_oracle(N: int, p: float) -> float:
    """Sharp Sobolev constant from the bubble's Beta-function norms."""
    pstar = N * p / (N - p)
    omega = sphere_area_oracle(N)
    lq = (omega * bubble_moment_oracle(N, p, pstar)) ** (1.0 / pstar)
    grad = (omega * bubble_grad_moment_oracle(N, p)) ** (1.0 / p)
    return lq / grad


def log_sobolev_slope(N: int, p: float) -> float:
    """(N/p^2) log L_p, the slope in q at q = p of log B(N, p, q).

    With ||u||_p = 1, log of the interpolation quotient is log int |u|^q -
    (N (q-p)/p) log ||grad u||_p: 0 at q = p and convex in q (L^q moments are
    log-convex), with slope int |u|^p log|u| - (N/p) log ||grad u||_p there.
    The sup of that slope over u is (N/p^2) log L_p, L_p the optimal
    Euclidean L^p log-Sobolev constant (Del Pino and Dolbeault 2003, J.
    Funct. Anal. 197; Weissler 1978 for p = 2):

        L_p = (p/N) ((p-1)/e)^(p-1) pi^(-p/2)
              [Gamma(N/2 + 1) / Gamma(N (p-1)/p + 1)]^(p/N).

    So log B is convex in q with this slope at q = p, and B >= exp(slope
    (q - p)).
    """
    log_l = (math.log(p / N) + (p - 1.0) * (math.log(p - 1.0) - 1.0) - p / 2.0 * math.log(math.pi)
             + p / N * (math.lgamma(N / 2.0 + 1.0) - math.lgamma(N * (p - 1.0) / p + 1.0)))
    return N / p**2 * log_l


def exp_power_quotient_oracle(N: int, p: float, q: float) -> tuple[float, float]:
    """(Q, roundoff bound) of u = exp(-r^b), b = p' = p/(p-1), where
    Q = ||u||_q^q / (||grad u||_p^gc ||u||_p^(q-gc)), gc = N (q-p)/p.

    With a = N/b, t = e r^b turns each moment into a Gamma function:
    int u^e = |S^(N-1)| Gamma(a) / (b e^a), and, as |u'|^p = b^p r^b e^(-p r^b),
    int |u'|^p = |S^(N-1)| b^(p-1) Gamma(a+1) / p^(a+1).  u is admissible, so
    Q <= B(N, p, q): a floor, exact at q = p and at (2, 2, 4) equal to
    1/(2 pi).  Evaluated in logs with lgamma; the bound is 4 ulps of every
    weighted summand, carried through the exponential, as for the library's
    ``sobolev_constant``.
    """
    b = p / (p - 1.0)
    a, gc = N / b, N * (q - p) / p
    log_area = math.log(sphere_area_oracle(N))

    def moment(e):
        return (log_area, math.lgamma(a), -math.log(b), -a * math.log(e))

    grad = (log_area, (p - 1.0) * math.log(b), math.lgamma(a + 1.0), -(a + 1.0) * math.log(p))
    terms = [*moment(q), *(-gc / p * t for t in grad), *(-(q - gc) / p * t for t in moment(p))]
    value = math.exp(sum(terms))
    return value, 4.0 * math.ulp(1.0) * value * (1.0 + sum(map(abs, terms)))


def _shoot(height: float, r_max: float = 25.0):
    """Integrate w'' + w'/r - w + w^3 = 0 from w(0)=height, w'(0)=0.

    Returns the solver result; the state is (w, w', m) with
    m' = 2 pi r w^2 accumulating the squared 2-norm.
    """

    def rhs(r, y):
        w, dw, _ = y
        return (dw, w - w**3 - dw / r, 2.0 * math.pi * r * w * w)

    r0 = 1e-8
    c2 = (height - height**3) / 4.0
    y0 = (height + c2 * r0 * r0, 2.0 * c2 * r0, math.pi * r0 * r0 * height**2)

    crossed = lambda r, y: y[0]
    crossed.terminal = True
    crossed.direction = -1
    turned = lambda r, y: y[1]
    turned.terminal = True
    turned.direction = 1

    return solve_ivp(rhs, (r0, r_max), y0, method="LSODA",
                     rtol=1e-12, atol=1e-14, events=(crossed, turned),
                     dense_output=False)


def shooting_oracle_2_2_4() -> dict:
    """Sharp constant for ||u||_4^4 <= B ||grad u||_2^2 ||u||_2^2 on R^2.

    The optimizer is the positive radial ground state w of the cubic
    equation above, and B = 2/||w||_2^2.  Shooting: an initial height
    above the ground-state height makes w cross zero, below makes w turn
    upward; bisection on that dichotomy pins the height, after which the
    accumulated mass of the last sub-critical trajectory gives ||w||_2^2
    (its exponential tail contributes below the tolerance).
    """
    lo, hi = 2.0, 2.5
    best_mass = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        sol = _shoot(mid)
        if sol.t_events[0].size:  # crossed zero: height too large
            hi = mid
        else:
            lo = mid
            best_mass = float(sol.y[2, -1])
    height = 0.5 * (lo + hi)
    mass2 = best_mass if best_mass is not None else float(_shoot(lo).y[2, -1])
    return {"height": height, "mass2": mass2, "B": 2.0 / mass2}


def _shoot_p2(N: int, q: float, height: float, r_max: float = 60.0):
    """Integrate w'' + (N-1) w'/r - w + w^(q-1) = 0 from w(0) = height.

    The state is (w, w', m) with m' = r^(N-1) w^2, so that m times the
    sphere area accumulates ||w||_2^2.
    """

    def rhs(r, y):
        w, dw, _ = y
        return (dw, w - abs(w) ** (q - 1.0) - (N - 1) * dw / r,
                r ** (N - 1) * w * w)

    r0 = 1e-5  # the series below is exact to O(r0^4); starting at 1e-8
    # makes LSODA crawl on some shots, the mass being ~r0^N below atol
    c2 = (height - height ** (q - 1.0)) / (2.0 * N)
    y0 = (height + c2 * r0 * r0, 2.0 * c2 * r0, r0**N / N * height**2)

    crossed = lambda r, y: y[0]
    crossed.terminal = True
    crossed.direction = -1
    turned = lambda r, y: y[1]
    turned.terminal = True
    turned.direction = 1

    return solve_ivp(rhs, (r0, r_max), y0, method="LSODA",
                     rtol=1e-12, atol=1e-14, events=(crossed, turned))


@lru_cache(maxsize=None)
def shooting_oracle_p2(N: int, q: float) -> float:
    """Sharp constant B(N, 2, q) from the LSODA-shot ground state Q.

    Bisection on the height as in shooting_oracle_2_2_4, starting from the
    height where the energy at the origin vanishes (every lower one
    undershoots) and doubling until a shot crosses zero.  With
    P = ||Q||_2^2 over R^N and gc = N (q-2)/2 the Pohozaev identities give

        B = q/(q-gc) * (gc/(q-gc))^(-gc/2) * P^(1-q/2).
    """
    lo = (q / 2.0) ** (1.0 / (q - 2.0))
    hi = 2.0 * lo
    while not _shoot_p2(N, q, hi).t_events[0].size:
        lo, hi = hi, 2.0 * hi
    mass = None
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        sol = _shoot_p2(N, q, mid)
        if sol.t_events[0].size:  # crossed zero: height too large
            hi = mid
        else:
            lo = mid
            mass = float(sol.y[2, -1])
    if mass is None:
        mass = float(_shoot_p2(N, q, lo).y[2, -1])
    P = sphere_area_oracle(N) * mass
    gc = N * (q - 2.0) / 2.0
    return q / (q - gc) * (gc / (q - gc)) ** (-gc / 2.0) * P ** (1.0 - q / 2.0)


def regular_solution_oracle(height: float, N: int, p: float, q: float,
                            radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, psi) at each of the ascending ``radii`` on the solution of the
    ground-state system psi' = -(N-1) psi/r + w^(p-1) - w^(q-1), w' =
    sign(psi)|psi|^(1/(p-1)) that is regular at r = 0 with w(0) = height.

    LSODA at rtol 1e-13 (atol far below every value) from 1e-6 core widths,
    core = height^(-(q-p)/p), starting as ``shooting_oracle_p2`` does from
    the series' first term, psi = c r, w = height - (p-1)/p |c|^(1/(p-1))
    r^(p/(p-1)), c = (height^(p-1) - height^(q-1))/N, whose error is far
    below the tolerance there.
    """
    e = 1.0 / (p - 1.0)

    def rhs(r, y):
        w, psi = y
        wp = max(w, 0.0)
        return (math.copysign(abs(psi) ** e, psi), wp ** (p - 1.0) - wp ** (q - 1.0) - (N - 1) * psi / r)

    r0 = 1e-6 * height ** (-(q - p) / p)
    c = (height ** (p - 1.0) - height ** (q - 1.0)) / N
    y0 = (height - (p - 1.0) / p * abs(c) ** e * r0 ** (p / (p - 1.0)), c * r0)
    sol = solve_ivp(rhs, (r0, radii[-1]), y0, method="LSODA", rtol=1e-13, atol=1e-300,
                    t_eval=radii)
    return sol.y[0], sol.y[1]


def rk4_shoot_oracle(heights: np.ndarray, N: int, p: float, q: float, coarsen: np.ndarray):
    """The ground-state shooting loop node by node, deciding each shot at
    the node that decides it and calling the general right-hand side at
    p = 2 as well.  It takes its start from the library's series
    (``constants._series_start``) as ``_shoot`` does: the loop, not the
    start, is what it checks.  Its step control is restated here: the step
    is coarsen * h_c, h_c first _FIRST_STEP times the start radius, and at
    every node k = 1 (mod 4) from k = 5 on h_c becomes min(_STEP_GROWTH h_c,
    h err^(-1/4)), h the step just taken and err = h/6 max(|k4_w - k1_w| /
    (_STEP_TOL w0), |k4_psi - k1_psi| / (_STEP_TOL w0^(q(p-1)/p))) from the
    last step's k4 and the coming step's k1.  It reads the module's step
    constants at call time, so a patched ``_MAX_STEPS`` or ``_STEP_TOL``
    applies to both.  Returns (fate, decided-at index, r, w, psi) as
    ``_shoot`` does, the last three ending at the node where the last shot
    was decided.
    """
    _FIRST_STEP, _STEP_TOL, _STEP_GROWTH, _MAX_STEPS = (
        constants._FIRST_STEP, constants._STEP_TOL, constants._STEP_GROWTH, constants._MAX_STEPS)
    e, pm1, qm1, nm1 = 1.0 / (p - 1.0), p - 1.0, q - 1.0, N - 1.0

    def rhs(r, w, psi):
        wp = np.maximum(w, 0.0)
        return (np.copysign(np.abs(psi) ** e, psi),
                wp ** pm1 - wp ** qm1 - nm1 * psi / r)

    r, w, psi = (v[0] for v in constants._series_start(heights, N, p, q, coarsen))
    fate = np.zeros(heights.size, dtype=int)
    at = np.zeros(heights.size, dtype=int)
    rs, ws, psis = [np.zeros_like(r), r], [heights, w], [np.zeros_like(r), psi]
    h_c = _FIRST_STEP * r
    for k in range(2, _MAX_STEPS):
        a1, b1 = rhs(r, w, psi)
        if k % 4 == 1:
            err_w = np.abs(a4 - a1) / (6.0 * _STEP_TOL * heights)
            err_psi = np.abs(b4 - b1) / (6.0 * _STEP_TOL * heights ** (q * pm1 / p))
            h_c = np.minimum(_STEP_GROWTH * h_c, h / (h * np.maximum(err_w, err_psi)) ** 0.25)
        if k == 2 or k % 4 == 1:
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


@lru_cache(maxsize=4)
def _oracle_grid(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, log s, log u) on the grid s_j = j/n, with u = 1 - s = 1/(1+t)."""
    s = np.arange(1, n, dtype=float) / n
    return s / (1.0 - s), np.log(s), np.log1p(-s)


def _curve_on_grid(cp: CurveParams, mode: str, log_s: np.ndarray,
                   log_u: np.ndarray) -> np.ndarray:
    """f = u^pgamma + kappa s^c u^(b-c) (mode "max") or
    g = s^-c u^(c-b) (1 - u^pgamma) (mode "min")."""
    if mode == "max":
        return (np.exp(cp.pgamma * log_u)
                + cp.kappa * np.exp(cp.c * log_s + (cp.b - cp.c) * log_u))
    return np.exp((cp.c - cp.b) * log_u - cp.c * log_s) * -np.expm1(cp.pgamma * log_u)


def curve_at_t(cp: CurveParams, mode: str, t):
    """f (mode "max") or g (mode "min") at t > 0, from log s = log t - log(1+t)."""
    log_u = -np.log1p(np.asarray(t, dtype=float))
    return _curve_on_grid(cp, mode, np.log(t) + log_u, log_u)


def grid_oracle(cp: CurveParams, n: int = 10**6, mode: str = "max") -> OptResult:
    """Reference evaluator: dense uniform grid s_j = j/n, no refinement.

    Mode "max" takes the supremum of the objective curve f, mode "min" the
    infimum of the ratio curve g.  The curve is evaluated by its own closed
    form in s (not the library's evaluators) and no root is solved.  Grids
    are nested under doubling of n.  Requires n >= 1e5 so the answer is
    meaningful.  err_bound is inf: it deliberately does not refine.
    """
    if n < 10**5:
        raise ValueError(f"grid_oracle needs n >= 1e5, got {n}")
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    t, log_s, log_u = _oracle_grid(n)
    vals = _curve_on_grid(cp, mode, log_s, log_u)
    if np.any(np.isnan(vals)):
        raise NumericalError("curve evaluated to NaN on the oracle grid")
    if mode == "max":
        i = int(np.argmax(vals))
        boundary = math.exp(max(log_f_limits(cp)))
        inner_wins = vals[i] > boundary
        value = max(vals[i], boundary)
    else:
        i = int(np.argmin(vals))
        boundary = math.exp(min(log_g_limits(cp)))
        inner_wins = vals[i] < boundary
        value = min(vals[i], boundary)
    return OptResult(log_value=math.log(value) if value > 0 else -math.inf,
                     attained=bool(inner_wins),
                     err_bound=math.inf,
                     n_evals=t.size,
                     log_argopt=math.log(t[i]) if inner_wins else None)


def _rank(x: float) -> int:
    """Bit pattern of a double <-> its rank among the doubles (an involution)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -i - (1 << 63)


def _unrank(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i if i >= 0 else -i - (1 << 63)))[0]


def bisect_sign_change(fun, pos: float, neg: float) -> tuple[float, int]:
    """Where ``fun`` turns from > 0 on the ``pos`` side to <= 0 on ``neg``'s.

    Bisection over the whole range between the two ends in the order of
    the double bit patterns, so it reaches adjacent doubles within 64
    evaluations wherever the sign change sits.  The ends are never
    evaluated.  Returns the last double found positive (``pos`` itself if
    none is) and the evaluations spent.
    """
    i, j = _rank(pos), _rank(neg)
    n = 0
    while abs(i - j) > 1:
        m = (i + j) // 2
        if fun(_unrank(m)) > 0.0:
            i = m
        else:
            j = m
        n += 1
    return _unrank(i), n


def _plain(obj):
    """Python values ``json.dumps`` writes as the README promises: numpy
    scalars and arrays become Python ones, nan/inf become strings."""
    if type(obj) is float and math.isfinite(obj):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def json_reference(obj) -> str:
    """A CLI document as ``json.dumps`` writes it, indent 2, non-ASCII kept."""
    return json.dumps(_plain(obj), indent=2, ensure_ascii=False)
