"""Independent references for checking attain-kit's outputs.

Nothing here imports attainkit.  The curves are the closed forms from the
docstring of ``attainkit/curves.py``, evaluated in log t on a dense grid
and polished by golden section; the sharp Sobolev constant is the
Talenti-Aubin Gamma-function formula; the (2, 2, 4) interpolation constant
is the frozen ODE-shooting value recorded in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: sharp interpolation constant B(2, 2, 4) from ODE shooting (tests/oracles.py)
FROZEN_B_2_2_4 = 0.1709270734806606
#: user-supplied constant for the fractional families, as in verify.py
FRACTIONAL_CONSTANT = 1.7
#: relative snap the library applies to gamma at a band edge
GAMMA_EDGE_RTOL = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# log t grid: fine where the curves have structure, coarse in the flat tails
_X_GRID = np.unique(np.concatenate([
    np.linspace(-800.0, -60.0, 186),
    np.linspace(-60.0, 60.0, 801),
    np.linspace(60.0, 800.0, 186),
]))


def sobolev_talenti(N: int, p: float) -> float:
    """Sharp constant S in ||u||_{p*} <= S ||grad u||_p on R^N, 1 < p < N."""
    lg = math.lgamma
    log_s = (-0.5 * math.log(math.pi) - math.log(N) / p
             + (1.0 - 1.0 / p) * math.log((p - 1.0) / (N - p))
             + (lg(1.0 + N / 2.0) + lg(N) - lg(N / p) - lg(1.0 + N - N / p)) / N)
    return math.exp(log_s)


@dataclass(frozen=True)
class Family:
    """One problem family: everything except (gamma, alpha).

    ``base`` and ``upper`` are the band edges of gamma: base is p (or 2 for
    the fractional family), upper is the critical exponent for critical
    families and the gamma-threshold exponent for subcritical ones.  ``C``
    is the multiplier in kappa = alpha * C.
    """

    label: str
    critical: bool
    q: float
    base: float
    upper: float
    C: float
    extremal: bool  # whether the bubble lies in the energy space

    @staticmethod
    def local_critical(N: int, p: float) -> "Family":
        q = N * p / (N - p)
        return Family(f"local-critical N={N} p={p}", True, q, p, q,
                      sobolev_talenti(N, p) ** q, p * p < N)

    @staticmethod
    def local_subcritical_2_2_4() -> "Family":
        return Family("local-subcritical N=2 p=2 q=4", False, 4.0, 2.0,
                      2.0 * (4.0 - 2.0) / 2.0, FROZEN_B_2_2_4, True)

    @staticmethod
    def fractional_critical(N: int, s: float) -> "Family":
        q = 2.0 * N / (N - 2.0 * s)
        return Family(f"fractional-critical N={N} s={s}", True, q, 2.0, q,
                      FRACTIONAL_CONSTANT, s < N / 4.0)

    @staticmethod
    def fractional_subcritical(N: int, s: float, q: float) -> "Family":
        return Family(f"fractional-subcritical N={N} s={s} q={q}", False, q, 2.0,
                      N * (q - 2.0) / (2.0 * s), FRACTIONAL_CONSTANT, True)

    def band(self, gamma: float) -> str:
        """'le_base', 'interior', 'eq_upper' or 'gt_upper'."""
        if abs(gamma - self.upper) <= GAMMA_EDGE_RTOL * max(1.0, self.upper):
            return "eq_upper"
        if gamma > self.upper:
            return "gt_upper"
        if self.critical and (gamma < self.base
                              or abs(gamma - self.base) <= GAMMA_EDGE_RTOL * max(1.0, self.base)):
            return "le_base"
        return "interior"


def _exponents(fams: list[Family], gammas: np.ndarray):
    """Column vectors (a, b, c, pg) for each (family, gamma) pair."""
    q = np.array([f.q for f in fams])
    base = np.array([f.base for f in fams])
    upper = np.array([f.upper for f in fams])
    crit = np.array([f.critical for f in fams])
    b = q / gammas
    pg = base / gammas
    c = np.where(crit, b, upper / gammas)
    return (b - pg)[:, None], b[:, None], c[:, None], pg[:, None], crit


def _log_parts(x: np.ndarray):
    """L = log(1+e^x) and log L, both accurate for x far below zero."""
    u = np.exp(np.minimum(x, 700.0))
    L = np.where(x > 30.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(u))
    with np.errstate(divide="ignore"):
        logL = np.where(x < -30.0, x - 0.5 * u, np.log(np.where(L > 0, L, 1.0)))
    return L, logL


def _f(x, a, b, c, pg, kappa):
    L, _ = _log_parts(x)
    return np.exp(-pg * L) + kappa * np.exp(c * x - b * L)


def _g(x, a, b, c, pg):
    L, logL = _log_parts(x)
    y = pg * L
    with np.errstate(all="ignore"):
        big = y + np.log1p(-np.exp(-np.maximum(y, 30.0)))
        small = np.log(pg) + logL + 0.5 * y
        mid = np.log(np.expm1(np.clip(y, 1e-300, 30.0)))
        log_em1 = np.where(y > 30.0, big, np.where(y < 1e-8, small, mid))
        return np.exp(np.minimum(a * L - c * x + log_em1, 700.0))


def _polish(fun, idx: np.ndarray, sign: float) -> np.ndarray:
    """Vectorized golden section for max of sign*fun within one grid cell
    of node idx[row] of each row; returns the polished values."""
    lo = _X_GRID[np.maximum(idx - 1, 0)]
    hi = _X_GRID[np.minimum(idx + 1, _X_GRID.size - 1)]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = sign * fun(x1), sign * fun(x2)
    for _ in range(45):  # the bracket shrinks below 1e-8 of a cell
        left = f1 >= f2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        x_new = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        f_new = sign * fun(x_new)
        x1, x2, f1, f2 = (np.where(left, x_new, x2), np.where(left, x1, x_new),
                          np.where(left, f_new, f2), np.where(left, f1, f_new))
    return sign * np.maximum(f1, f2)


def _best(fun, values: np.ndarray, sign: float) -> np.ndarray:
    """Best of sign*fun over each row, polished around the grid's best node
    and around its best interior local optimum.

    A peak can rise above the boundary limit over a span narrower than the
    grid step (just above the threshold), so the best node alone may sit in
    the flat boundary region while the interior optimum is elsewhere.  Local
    optima must beat both neighbours by more than rounding, which leaves out
    the flat tails.
    """
    v = sign * values
    mid = v[:, 1:-1]
    interior = np.full(v.shape, -np.inf)
    interior[:, 1:-1] = np.where(
        mid - np.maximum(v[:, :-2], v[:, 2:]) > 1e-12 * np.abs(mid), mid, -np.inf)
    best = np.max(v, axis=1)
    for idx in (np.argmax(v, axis=1), np.argmax(interior, axis=1)):
        best = np.maximum(best, sign * _polish(fun, idx, sign))
    return sign * best


def curve_references(fams: list[Family], gammas, alphas, chunk: int = 1024):
    """(D, threshold) references for each (family, gamma, alpha) point.

    D is sup f over (0, inf) with the boundary limits f(0+) = 1 and
    f(inf) = kappa (critical) or 0; the threshold is inf g over (0, inf)
    divided by C, with g(0+) = 0, pg or inf as c <, =, > 1 and g(inf) = 1
    (critical) or inf.
    """
    gammas = np.asarray(gammas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    D = np.empty(gammas.size)
    thr = np.empty(gammas.size)
    for lo in range(0, gammas.size, chunk):
        sl = slice(lo, lo + chunk)
        fs = fams[sl]
        a, b, c, pg, crit = _exponents(fs, gammas[sl])
        C = np.array([f.C for f in fs])
        kappa = (alphas[sl] * C)[:, None]
        x = _X_GRID[None, :]

        best = _best(lambda z: _f(z[:, None], a, b, c, pg, kappa)[:, 0],
                     _f(x, a, b, c, pg, kappa), +1.0)
        f_inf = np.where(crit, kappa[:, 0], 0.0)
        D[sl] = np.maximum(np.maximum(best, 1.0), f_inf)

        low = _best(lambda z: _g(z[:, None], a, b, c, pg)[:, 0], _g(x, a, b, c, pg), -1.0)
        c0, pg0 = c[:, 0], pg[:, 0]
        g0 = np.where(c0 < 1.0, 0.0, np.where(c0 == 1.0, pg0, np.inf))
        g_inf = np.where(crit, 1.0, np.inf)
        thr[sl] = np.minimum(np.minimum(low, g0), g_inf) / C
    return D, thr


def expected_attained(fam: Family, gamma: float, alpha: float, thr: float,
                      tie_rtol: float) -> bool | None:
    """Attainability by the paper's decision table, using the reference
    threshold; None where alpha is within ``tie_rtol`` of the threshold and
    the table's tie rule cannot be applied from the reference alone."""
    if fam.critical and not fam.extremal:
        return False
    if alpha == 0.0:
        return False
    band = fam.band(gamma)
    if band == "gt_upper":
        return True
    if band == "le_base":
        return False
    if abs(alpha - thr) <= tie_rtol * thr:
        if band == "eq_upper" and alpha == fam.base / (fam.upper * fam.C):
            return False  # exactly at the closed-form threshold on the edge
        return None
    return alpha > thr


def rel_err(value: float, ref: float) -> float:
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)
