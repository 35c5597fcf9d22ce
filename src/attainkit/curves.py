"""One-dimensional reduction curves on the half-line.

Every instance of the maximization problem reduces, along the scaling ray
through the optimal bubble profile, to elementary curves of a single
variable t > 0 (t is the gradient-to-mass ratio ||grad u||_p^gamma /
||u||_p^gamma of a trial function):

    objective curve   f(t) = [ (1+t)^a + kappa * t^c ] / (1+t)^b
    ratio curve       g(t) = (1+t)^a * [ (1+t)^pgamma - 1 ] / t^c

with exponents

    a = (q - p)/gamma,   b = q/gamma,   c = gamma_crit/gamma,
    pgamma = p/gamma,    kappa = alpha * (sharp constant normalization),

satisfying a = b - pgamma > 0, 0 < c <= b; ``CurveParams`` stores b, c,
kappa and pgamma, and a is derived from them.  The problem's supremum is
sup_t f(t) and the attainability threshold weight is inf_t g(t) divided by
the normalization.  The critical case is exactly c = b.

With s = t/(1+t) and u = 1 - s = 1/(1+t) the curves read

    f = u^pgamma + kappa * s^c * u^(b-c)
    g = s^(-c) * u^(c-b) * (1 - u^pgamma)

and every evaluation runs on log s and log u, both computed from log t by
softplus without cancellation, with 1 - u^pgamma as -expm1(pgamma log u).
So the curves stay accurate at any t, including values of t no double can
hold (``f_at_log_t``, ``g_at_log_t``).

The signs of f' and g' are ``halfline.objective_sign`` and ``ratio_sign``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParamError
from .params import ProblemParams


def t_from_log(log_t: float | None) -> float | None:
    """t = e^log_t when 0 < t < inf in doubles, else None."""
    if log_t is None:
        return None
    try:
        t = math.exp(log_t)
    except OverflowError:
        return None
    return t if 0.0 < t < math.inf else None


@dataclass(frozen=True)
class CurveParams:
    """Exponents (b, c, kappa, pgamma) of one curve family; a = b - pgamma
    is a property, so it cannot disagree with them.

    Invariants enforced: a > 0, 0 < c <= b, kappa >= 0, pgamma > 0.
    """

    b: float
    c: float
    kappa: float
    pgamma: float

    def __post_init__(self):
        for name in ("b", "c", "kappa", "pgamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParamError(name, f"{name} must be finite, got {v!r}")
        if self.pgamma <= 0:
            raise ParamError("pgamma", f"pgamma must be positive, got {self.pgamma}")
        if self.kappa < 0:
            raise ParamError("kappa", f"kappa must be nonnegative, got {self.kappa}")
        if not 0 < self.c <= self.b:
            raise ParamError("c", f"need 0 < c <= b, got c={self.c}, b={self.b}")
        if self.a <= 0:
            raise ParamError("pgamma", f"need pgamma < b, got pgamma={self.pgamma}, b={self.b}")

    @property
    def a(self) -> float:
        return self.b - self.pgamma

    @classmethod
    def from_problem(cls, params: ProblemParams, constant: float) -> "CurveParams":
        """Curve exponents of a validated problem.

        ``constant`` is the multiplicative normalization entering
        kappa = alpha * constant: the critical local case takes S^(p*) (the
        sharp Sobolev constant raised to p*), the subcritical local case the
        sharp interpolation constant, and the fractional cases the
        user-supplied fractional constant.  A kappa beyond the double range
        is a ``NumericalError``, as both factors are valid.
        """
        exps = params.exponents
        gamma, alpha = params.gamma, params.alpha
        if constant < 0 or not math.isfinite(constant):
            raise ParamError("constant", f"normalizing constant must be finite >= 0, got {constant}")
        b = params.q / gamma
        pg = params.p / gamma
        if exps.regime.is_critical:
            c = b  # exact, so is_critical round-trips bit-for-bit
        else:
            c = exps.gamma_crit / gamma
        kappa = alpha * constant
        if math.isinf(kappa):
            log10_kappa = math.log10(alpha) + math.log10(constant)
            raise NumericalError(
                f"kappa = alpha * C leaves the double range: log10 kappa = {log10_kappa!r}")
        return cls(b=b, c=c, kappa=kappa, pgamma=pg)

    @property
    def is_critical(self) -> bool:
        return self.c == self.b


# -- evaluation --------------------------------------------------------

def _shape(out):
    return float(out) if out.ndim == 0 else out


def _log_s_u(x):
    """(log s, log u) = (log t/(1+t), -log(1+t)) from x = log t, by softplus."""
    x = np.asarray(x, dtype=float)
    return -np.logaddexp(0.0, -x), -np.logaddexp(0.0, x)


def f_at_log_t(cp: CurveParams, x):
    """Objective curve f = u^pgamma + kappa s^c u^(b-c) at t = e^x, for any x,
    including t no double can hold."""
    log_s, log_u = _log_s_u(x)
    out = np.exp(cp.pgamma * log_u)
    if cp.kappa:
        out = out + cp.kappa * np.exp(cp.c * log_s + (cp.b - cp.c) * log_u)
    return _shape(out)


def g_at_log_t(cp: CurveParams, x):
    """Ratio curve g = s^(-c) u^(c-b) (1 - u^pgamma) at t = e^x, for any x,
    including t no double can hold; it does not read kappa."""
    log_s, log_u = _log_s_u(x)
    return _shape(np.exp(-cp.c * log_s + (cp.c - cp.b) * log_u)
                  * (-np.expm1(cp.pgamma * log_u)))


# -- analytic boundary limits ------------------------------------------

def f_limits(cp: CurveParams) -> tuple[float, float]:
    """(lim_{t->0} f, lim_{t->inf} f); both always finite."""
    return 1.0, (cp.kappa if cp.is_critical else 0.0)


def g_limits(cp: CurveParams) -> tuple[float, float]:
    """(lim_{t->0} g, lim_{t->inf} g); entries may be math.inf.

    Near zero g ~ pgamma * t^(1-c), so the limit is 0 / pgamma / inf as
    c < 1 / c = 1 / c > 1.  Near infinity g ~ t^(b-c), giving 1 in the
    critical case and +inf otherwise.
    """
    if cp.c < 1.0:
        at0 = 0.0
    elif cp.c == 1.0:
        at0 = cp.pgamma
    else:
        at0 = math.inf
    atinf = 1.0 if cp.is_critical else math.inf
    return at0, atinf
