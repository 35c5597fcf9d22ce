"""One-dimensional reduction curves on the half-line.

Every instance of the maximization problem reduces, along the scaling ray
through the optimal bubble profile, to elementary curves of a single
variable t > 0 (t is the gradient-to-mass ratio ||grad u||_p^gamma /
||u||_p^gamma of a trial function):

    objective curve   f(t) = [ (1+t)^a + kappa * t^c ] / (1+t)^b
    ratio curve       g(t) = (1+t)^a * [ (1+t)^pgamma - 1 ] / t^c

with exponents

    a = (q - p)/gamma,   b = q/gamma,   c = gamma_crit/gamma,
    pgamma = p/gamma,    kappa = alpha * C, C the sharp constant normalization,

satisfying a = b - pgamma > 0, 0 < c <= b, formed and checked in doubles
by ``params.validate`` (``Exponents``); ``CurveParams`` stores b, c,
log kappa (kappa reaches 1e2495 on valid input) and pgamma.  The problem's
supremum is sup_t f(t) and the attainability threshold weight is inf_t g(t)
divided by C.  The critical case is exactly c = b.

With s = t/(1+t) and u = 1 - s = 1/(1+t) the curves read

    f = u^pgamma + kappa * s^c * u^(b-c)
    g = s^(-c) * u^(c-b) * (1 - u^pgamma)

Each curve has one evaluator, of its log, on log s and log u, both
computed from log t by softplus without cancellation:

    log f = logaddexp(pgamma log u, log kappa + c log s + (b-c) log u)
    log g = -c log s + (c-b) log u + log(-expm1(pgamma log u))

So the curves stay accurate at any t and kappa, also where no double holds
t, kappa or the curve; ``f_at_log_t`` and ``g_at_log_t`` are their exps.

The signs of f' and g' are ``halfline.objective_sign`` and ``ratio_sign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .params import ProblemParams


def _exp_or_inf(x: float) -> float:
    """e^x, with inf where that passes the largest double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def t_from_log(log_t: float | None) -> float | None:
    """t = e^log_t when 0 < t < inf in doubles, else None."""
    t = 0.0 if log_t is None else _exp_or_inf(log_t)
    return t if 0.0 < t < math.inf else None


@dataclass(frozen=True)
class CurveParams:
    """Exponents (b, c, pgamma) and log kappa of one curve family; a =
    b - pgamma and kappa = e^log_kappa are properties, so neither can
    disagree with them.

    Invariants enforced: a > 0, 0 < c <= b, pgamma > 0, log_kappa < inf
    (-inf for kappa = 0; kappa itself may lie beyond the doubles).
    """

    b: float
    c: float
    log_kappa: float
    pgamma: float

    def __post_init__(self):
        for name in ("b", "c", "pgamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParamError(name, f"{name} must be finite, got {v!r}")
        if not (isinstance(self.log_kappa, (int, float)) and self.log_kappa < math.inf):
            raise ParamError("log_kappa", f"log_kappa must be below inf, got {self.log_kappa!r}")
        if self.pgamma <= 0:
            raise ParamError("pgamma", f"pgamma must be positive, got {self.pgamma}")
        if not 0 < self.c <= self.b:
            raise ParamError("c", f"need 0 < c <= b, got c={self.c}, b={self.b}")
        if self.a <= 0:
            raise ParamError("pgamma", f"need pgamma < b, got pgamma={self.pgamma}, b={self.b}")

    @property
    def a(self) -> float:
        return self.b - self.pgamma

    @property
    def kappa(self) -> float:
        """e^log_kappa; inf where no double holds it."""
        return _exp_or_inf(self.log_kappa)

    @classmethod
    def from_problem(cls, params: ProblemParams, *, log_C: float) -> "CurveParams":
        """Curve exponents of a validated problem.

        ``log_C`` is keyword-only, so a linear C cannot be passed by
        position.  It is the log of the normalization C in kappa = alpha * C:
        S^(p*) (the sharp Sobolev constant raised to p*) in the critical
        local case, the sharp interpolation constant in the subcritical
        local case, and the user-supplied constant in the fractional cases.
        """
        exps, alpha = params.exponents, params.alpha
        log_kappa = math.log(alpha) + log_C if alpha > 0 else -math.inf
        return cls(b=exps.b, c=exps.c, log_kappa=log_kappa, pgamma=exps.pgamma)

    @property
    def is_critical(self) -> bool:
        return self.c == self.b


# -- evaluation --------------------------------------------------------

def _shape(out):
    return float(out) if out.ndim == 0 else out


_LOG_T_SMALL = -700.0  # log t below which log_g_at_log_t reads 1 - u^pgamma off t


def _log_s_u(x):
    """(log s, log u) = (log t/(1+t), -log(1+t)) from x = log t, by softplus."""
    x = np.asarray(x, dtype=float)
    return -np.logaddexp(0.0, -x), -np.logaddexp(0.0, x)


def log_f_at_log_t(cp: CurveParams, x):
    """log f, f = u^pgamma + kappa s^c u^(b-c), at t = e^x, for any x."""
    log_s, log_u = _log_s_u(x)
    return _shape(np.logaddexp(cp.pgamma * log_u,
                               cp.log_kappa + cp.c * log_s + (cp.b - cp.c) * log_u))


def log_g_at_log_t(cp: CurveParams, x):
    """log g, g = s^(-c) u^(c-b) (1 - u^pgamma), at t = e^x, for any x;
    it does not read kappa.

    Below x = _LOG_T_SMALL, log u = -log(1+t) nears the subnormals (and is 0
    below x = -745), so 1 - u^pgamma is read off t instead: it is pgamma t
    (1 - (pgamma+1) t/2 + ...), and with t < e^-700 the bracket is 1 in
    doubles, so its log is log pgamma + x."""
    x = np.asarray(x, dtype=float)
    log_s, log_u = _log_s_u(x)
    if (float(x) if x.ndim == 0 else x.min(initial=math.inf)) >= _LOG_T_SMALL:
        tail = np.log(-np.expm1(cp.pgamma * log_u))
    else:
        small = x < _LOG_T_SMALL
        tail = np.where(small, math.log(cp.pgamma) + x,
                        np.log(-np.expm1(cp.pgamma * np.where(small, -1.0, log_u))))
    return _shape(-cp.c * log_s + (cp.c - cp.b) * log_u + tail)


def f_at_log_t(cp: CurveParams, x):
    """The objective curve f = e^(log f), inf where no double holds it."""
    return _shape(np.exp(log_f_at_log_t(cp, x)))


def g_at_log_t(cp: CurveParams, x):
    """The ratio curve g = e^(log g), inf where no double holds it."""
    return _shape(np.exp(log_g_at_log_t(cp, x)))


# -- analytic boundary limits ------------------------------------------

def log_f_limits(cp: CurveParams) -> tuple[float, float]:
    """(lim_{t->0} log f, lim_{t->inf} log f): 0, and log kappa (critical) or -inf."""
    return 0.0, (cp.log_kappa if cp.is_critical else -math.inf)


def log_g_limits(cp: CurveParams) -> tuple[float, float]:
    """(lim_{t->0} log g, lim_{t->inf} log g); entries may be +-inf.  Near
    zero g ~ pgamma * t^(1-c), whose limit is 0 / pgamma / inf as c < 1 /
    c = 1 / c > 1; near infinity g ~ t^(b-c), giving 1 (critical) or +inf."""
    at0 = -math.inf if cp.c < 1.0 else math.log(cp.pgamma) if cp.c == 1.0 else math.inf
    return at0, (0.0 if cp.is_critical else math.inf)
