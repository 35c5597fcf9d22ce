"""Sharp constants entering the curve normalization.

Three constants are consumed downstream:

* the sharp Sobolev constant S(N, p) = ||u||_{p*} / ||grad u||_p on the
  optimal bubble (Talenti-Aubin closed form),
* the sharp subcritical interpolation constant
  B(N, p, q) = sup ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
  gc = N(q-p)/p  (estimated here from below by profile ascent),
* the fractional seminorm constant, which has no elementary closed form
  and is supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParamError
from .params import critical_exponent, gamma_threshold_exponent


@dataclass(frozen=True)
class SharpConstant:
    """A constant plus a record of how it was obtained.

    method "closed-form":     value carries a roundoff err_bound.
    method "ascent-estimate": value is a rigorous lower bound (it is the
                              ratio of an explicit admissible profile);
                              err_bound is a grid-refinement extrapolation
                              of the remaining one-sided gap, a heuristic
                              distance estimate rather than an enclosure
                              radius.
    method "user-input":      value passed through unchanged.
    """

    value: float
    method: str
    err_bound: float
    meta: dict = field(default_factory=dict, compare=False)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


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

def _ascend_level(r: np.ndarray, u: np.ndarray, N: int, p: float, q: float,
                  gc: float, budget: int, tol: float) -> tuple[np.ndarray, list[float], int, bool]:
    """Projected coordinate ascent of the interpolation ratio on one grid.

    ``u`` holds nodal values of a nonnegative non-increasing piecewise-linear
    radial profile with u[0] pinned (amplitude invariance) and u[-1] = 0
    (compact support -- without it a constant plateau with zero gradient
    would send the ratio to infinity).  Each sweep line-searches the odd
    nodes in a batch, then the even nodes, each node inside the monotone
    band its neighbours allow (red-black ordering: same-colour nodes share
    no interval, so their trial contributions are independent and the whole
    batch vectorizes).  A batch is applied only if the fully re-evaluated
    ratio improves, halving the step toward the proposal otherwise; each
    node's move is individually improving with the others frozen, so the
    batch direction is an ascent direction and backtracking terminates.
    The sweep ends with a line search over a global dilation
    u(r) -> u(lam r), the one coherent mode nodal moves crawl along.
    Returns (profile, per-sweep ratio log, sweeps used, converged flag).
    """
    grid_n = len(r) - 1
    xg, wg = np.polynomial.legendre.leggauss(8)
    xg = (xg + 1.0) / 2.0
    wg = wg / 2.0

    # fixed-grid quadrature weights: contribution of interval i to the
    # e-norm is sum_g (u_i + (u_{i+1}-u_i) xg_g)^e * W[i, g]
    dr = np.diff(r)
    rm = r[:-1, None] + dr[:, None] * xg[None, :]
    W = dr[:, None] * wg[None, :] * rm ** (N - 1)
    dRN = np.diff(r**N) / N
    omega = sphere_area(N)
    log_omega_factor = (1.0 - q / p) * math.log(omega)
    cq_ = gc / p
    cp2 = (q - gc) / p

    def contribs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        um = vals[:-1, None] + np.diff(vals)[:, None] * xg[None, :]
        return ((um**q * W).sum(axis=1), (um**p * W).sum(axis=1),
                np.abs(np.diff(vals) / dr) ** p * dRN)

    def log_ratio_sums(sq: float, sp: float, sg: float) -> float:
        if not (sq > 0 and sp > 0 and sg > 0):
            return -math.inf
        return (log_omega_factor + math.log(sq)
                - cq_ * math.log(sg) - cp2 * math.log(sp))

    def full_log_ratio(vals: np.ndarray) -> float:
        nq, np_, ng = contribs(vals)
        return log_ratio_sums(float(nq.sum()), float(np_.sum()), float(ng.sum()))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def batch_pass(parity: int, best_lg: float) -> float:
        """One coloured half-sweep; returns the (monotone) updated ratio."""
        nonlocal u, cq, cp_, cg, sq, sp, sg
        J = np.arange(1 + parity, grid_n, 2)
        if J.size == 0:
            return best_lg
        ul = u[J - 1][:, None]
        ur = u[J + 1][:, None]
        Wl, Wr = W[J - 1], W[J]
        drl, drr = dr[J - 1], dr[J]
        dRNl, dRNr = dRN[J - 1], dRN[J]
        base_q = sq - cq[J - 1] - cq[J]
        base_p = sp - cp_[J - 1] - cp_[J]
        base_g = sg - cg[J - 1] - cg[J]

        def F(x: np.ndarray) -> np.ndarray:
            xm = x[:, None]
            uml = ul + (xm - ul) * xg[None, :]
            umr = xm + (ur - xm) * xg[None, :]
            nq = (uml**q * Wl).sum(axis=1) + (umr**q * Wr).sum(axis=1)
            np_b = (uml**p * Wl).sum(axis=1) + (umr**p * Wr).sum(axis=1)
            ng = (np.abs(x - ul[:, 0]) / drl) ** p * dRNl \
                + (np.abs(ur[:, 0] - x) / drr) ** p * dRNr
            return (np.log(base_q + nq) - cq_ * np.log(base_g + ng)
                    - cp2 * np.log(base_p + np_b))

        a, b = u[J + 1].copy(), u[J - 1].copy()
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1, f2 = F(x1), F(x2)
        for _ in range(24):
            m = f1 >= f2
            b = np.where(m, x2, b)
            a = np.where(m, a, x1)
            x1 = b - invphi * (b - a)
            x2 = a + invphi * (b - a)
            f1, f2 = F(x1), F(x2)
        xstar = np.where(f1 >= f2, x1, x2)

        step = xstar - u[J]
        for k in range(8):
            cand = u.copy()
            cand[J] = u[J] + step * 0.5**k
            lg = full_log_ratio(cand)
            if lg > best_lg:
                u = cand
                cq, cp_, cg = contribs(u)
                sq, sp, sg = float(cq.sum()), float(cp_.sum()), float(cg.sum())
                return lg
        return best_lg

    def dilated(lam: float) -> np.ndarray:
        w = np.interp(lam * r, r, u, right=0.0)
        w[0] = u[0]
        w[-1] = 0.0
        return w

    cq, cp_, cg = contribs(u)
    sq, sp, sg = float(cq.sum()), float(cp_.sum()), float(cg.sum())
    best_lg = log_ratio_sums(sq, sp, sg)

    history: list[float] = []
    sweeps = 0
    converged = False
    for _ in range(budget):
        sweeps += 1
        prev_lg = best_lg
        best_lg = batch_pass(1, best_lg)
        best_lg = batch_pass(0, best_lg)
        # global dilation line search in log(lam)
        a, b = math.log(0.6), math.log(1.6)
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1 = full_log_ratio(dilated(math.exp(x1)))
        f2 = full_log_ratio(dilated(math.exp(x2)))
        for _ in range(28):
            if f1 >= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = full_log_ratio(dilated(math.exp(x1)))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = full_log_ratio(dilated(math.exp(x2)))
        cand = dilated(math.exp(x1 if f1 >= f2 else x2))
        lg = full_log_ratio(cand)
        if lg > best_lg:
            u = cand
            cq, cp_, cg = contribs(u)
            sq, sp, sg = float(cq.sum()), float(cp_.sum()), float(cg.sum())
            best_lg = lg
        if not math.isfinite(best_lg):
            raise NumericalError("ascent ratio became non-finite")
        history.append(math.exp(best_lg))
        if best_lg - prev_lg < tol * max(abs(best_lg), 1.0):
            converged = True
            break
    return u, history, sweeps, converged


def gns_constant_estimate(N: int, p: float, q: float, budget: int = 4000,
                          grid_n: int = 800, r_max: float = 12.0) -> SharpConstant:
    """Lower-bound estimate of the subcritical interpolation constant.

    Maximizes the scale- and amplitude-invariant ratio

        R(u) = ||u||_q^q / ( ||grad u||_p^gc * ||u||_p^(q-gc) ),
        gc = N (q - p) / p,

    over nonnegative, non-increasing, compactly supported piecewise-linear
    radial profiles by projected coordinate ascent from a Gaussian start.
    Ascent runs coarse-to-fine (node counts doubling up to grid_n): nodal
    sweeps only move information one cell at a time, so converging the
    smooth error modes on coarse grids first cuts the sweep count by orders
    of magnitude.  The ratio of the returned profile IS the returned value,
    hence a certified lower bound for the supremum; its distance to the
    true constant is dominated by the piecewise-linear discretization gap,
    which shrinks quadratically in the node spacing.  ``budget`` caps the
    total number of sweeps across all levels.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ParamError("N", f"need integer N >= 1, got {N!r}")
    if not (1.0 < p <= N):
        raise ParamError("p", f"need 1 < p <= N, got p={p}")
    gc = gamma_threshold_exponent(N, p, q)
    upper = math.inf if p == N else critical_exponent(N, p)
    if not (p < q < upper):
        raise ParamError("q", f"need p < q < {upper}, got q={q}")
    if budget < 1:
        raise ParamError("budget", f"budget must be >= 1, got {budget}")
    if grid_n < 16:
        raise ParamError("grid_n", f"grid_n must be >= 16, got {grid_n}")

    def graded(n: int) -> np.ndarray:
        i = np.arange(n + 1, dtype=float)
        return r_max * (i / n) ** 2

    levels = []
    n = grid_n
    while n >= 32 and len(levels) < 6:
        levels.append(n)
        n //= 2
    levels = sorted(set(levels + [max(grid_n // 16, 16)]))

    r = graded(levels[0])
    u = np.exp(-np.minimum(r * r / 2.0, 700.0))
    u[0] = 1.0
    u[-1] = 0.0

    history: list[float] = []
    level_values: list[float] = []
    total_sweeps = 0
    converged = False
    for li, n in enumerate(levels):
        r_lvl = graded(n)
        if li > 0:
            u = np.interp(r_lvl, r, u)  # same PL profile, finer nodes
            u[-1] = 0.0
        r = r_lvl
        is_last = li == len(levels) - 1
        remaining = budget - total_sweeps
        share = remaining if is_last else max(1, remaining // 2)
        if remaining <= 0:
            break
        u, hist, used, conv = _ascend_level(r, u, N, p, q, gc, share, 1e-13)
        history.extend(hist)
        level_values.append(hist[-1])
        total_sweeps += used
        if is_last:
            converged = conv

    if not history:
        raise NumericalError("ascent budget too small to complete one sweep")
    value = history[-1]
    if not math.isfinite(value) or value <= 0:
        raise NumericalError(f"ascent produced non-finite ratio {value}")
    # Heuristic distance to the supremum: the certified statement is only
    # value <= true constant; the gap is discretization-dominated and
    # shrinks ~4x per grid doubling, so extrapolate from the last two
    # levels (with a safety factor for unconverged asymptotics) and never
    # report less than the final per-sweep stall.
    stall = abs(history[-1] - history[-2]) if len(history) > 1 else math.inf
    if len(level_values) > 1:
        gap = 2.0 * (level_values[-1] - level_values[-2]) / 3.0
        err = max(abs(gap), stall)
    else:
        err = stall
    return SharpConstant(
        value=value, method="ascent-estimate", err_bound=err,
        meta={"N": N, "p": p, "q": q, "gamma_c": gc, "sweeps": total_sweeps,
              "converged": converged, "ascent_log": history,
              "level_values": level_values, "levels": levels,
              "grid": r.tolist(), "profile": u.tolist()})


def fractional_constant(value: float, source: str = "user") -> SharpConstant:
    """Wrap a user-supplied fractional seminorm constant."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ParamError("frac_constant", f"fractional constant must be positive, got {value!r}")
    return SharpConstant(value=float(value), method="user-input", err_bound=0.0,
                         meta={"source": source})
