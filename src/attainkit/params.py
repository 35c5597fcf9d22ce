"""Problem parameters and admissibility for a two-term Sobolev quotient family.

The object of study is the scale-invariant maximization problem

    D  =  sup { ||u||_p^p + alpha ||u||_q^q }
          over u with (||grad u||_p^gamma + ||u||_p^gamma)^(1/gamma) = 1,

posed on R^N either for the full gradient (the *local* family, N >= 2 and
1 < p <= N) or, with p = 2, for the order-s Fourier seminorm
||(-Delta)^(s/2) u||_2 (the *fractional* family, 0 < s < N/2).  The
Gagliardo seminorm is not meant: it exists only for s < 1, so it does not
cover this range.

One rule decides the regime of both families: the fractional problem is
the local one at p = 2 with order s where the local family has order 1.
With the order o (1 or s),

    p*      = N p / (N - o p)      (infinite when o p = N, i.e. local p = N)
    gamma_c = N (q - p) / (o p)
    the bubble has finite energy  <=>  o p^2 < N

so the admissible window for q is p < q <= p*, the problem is *critical*
when q = p*, and the fractional forms 2N/(N - 2s), N(q - 2)/(2s) and
s < N/4 are these formulas at p = 2, bit for bit (multiplying by 1 or 2
is exact in binary).  This module owns parameter validation and the
critical/subcritical decision.  ``validate`` returns the regime together
with its upper gamma boundary (``Exponents``), so ``gamma_crit`` is
computed once: p* in the critical regimes, gamma_c in the subcritical ones.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import NearCriticalWarning, ParamError

#: Relative tolerance at which a numeric q is *snapped* to the critical
#: exponent (with a NearCriticalWarning).  Exact rational agreement is
#: checked first and never warns.
CRITICAL_Q_RTOL = 1e-12


class Regime(Enum):
    SUBCRITICAL_LOCAL = "subcritical-local"
    CRITICAL_LOCAL = "critical-local"
    SUBCRITICAL_FRACTIONAL = "subcritical-fractional"
    CRITICAL_FRACTIONAL = "critical-fractional"

    @property
    def is_critical(self) -> bool:
        return self in (Regime.CRITICAL_LOCAL, Regime.CRITICAL_FRACTIONAL)


def _q_critical(N: int, p: float, order: float) -> float:
    """p* = N p / (N - order p) of the order-``order`` seminorm."""
    return N * p / (N - order * p)


def _gamma_c(N: int, p: float, q: float, order: float) -> float:
    """gamma_c = N (q - p) / (order p) of the order-``order`` seminorm."""
    return N * (q - p) / (order * p)


def critical_exponent(N: int, p: float) -> float:
    """Sobolev conjugate p* = N p / (N - p); requires 1 < p < N."""
    if not 1.0 < p < N:
        raise ParamError("p", f"critical exponent needs 1 < p < N, got p={p}, N={N}")
    return _q_critical(N, p, 1)


def fractional_critical_exponent(N: int, s: float) -> float:
    """Fractional Sobolev conjugate 2N / (N - 2s); requires 0 < s < N/2."""
    if not 0.0 < s < N / 2:
        raise ParamError("s", f"fractional exponent needs 0 < s < N/2, got s={s}, N={N}")
    return _q_critical(N, 2.0, s)


def gamma_threshold_exponent(N: int, p: float, q: float) -> float:
    """The exponent N (q - p) / p separating compact from non-compact scaling."""
    return _gamma_c(N, p, q, 1)


def fractional_gamma_threshold_exponent(N: int, s: float, q: float) -> float:
    """Fractional analogue N (q - 2) / (2 s) of the threshold exponent."""
    return _gamma_c(N, 2.0, q, s)


def _order(params: "ProblemParams") -> float:
    """Order of the seminorm: 1 for the gradient, s for the fractional family."""
    return 1 if params.s is None else params.s


#: frames a warning looks past to name its caller: this package's own and
#: ``cached_property``'s (``ProblemParams.exponents`` validates through it)
_INTERNAL_FILES = (os.path.dirname(__file__) + os.sep,
                   cached_property.__get__.__code__.co_filename)


def _caller_stacklevel() -> int:
    """The ``stacklevel`` at which a warning raised by this function's caller
    names the first frame outside the package, however it was reached."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_INTERNAL_FILES):
        frame, level = frame.f_back, level + 1
    return level


def _q_critical_match(N: int, p: float, q: float, order: float, crit: float) -> bool:
    """Decide q == p* (``crit``, finite): exact rationals first, then a snap
    tolerance that warns (binary floats cannot represent e.g. 10/3)."""
    # q = N p / (N - order p) exactly, cross-multiplied over p = a/b, q = c/d, order = e/f
    a, b = p.as_integer_ratio()
    c, d = q.as_integer_ratio()
    e, f = order.as_integer_ratio()
    if c * (N * f * b - e * a) == N * a * d * f:
        return True
    if abs(q - crit) <= CRITICAL_Q_RTOL * crit:
        warnings.warn(
            f"q={q!r} is within {CRITICAL_Q_RTOL:g} of the critical exponent "
            f"{crit!r}; treating the problem as critical",
            NearCriticalWarning,
            stacklevel=_caller_stacklevel(),
        )
        return True
    return False


@dataclass(frozen=True)
class ProblemParams:
    """Full parameter set for one instance of the maximization problem.

    ``alpha`` is the weight of the q-term in the objective; ``gamma`` is the
    exponent coupling the gradient and mass terms inside the constraint norm.
    ``s`` selects the fractional family (order-s seminorm, p forced to 2);
    ``s=None`` selects the local family.  ``q_critical=True`` requests the
    critical exponent symbolically, which is the only exact way to do so
    when p*=Np/(N-p) is not floating-point representable.
    """

    N: int
    p: float
    q: float
    gamma: float
    alpha: float
    s: float | None = None
    q_critical: bool = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def local(cls, N: int, p: float, q: float, gamma: float, alpha: float) -> "ProblemParams":
        return cls(N=N, p=float(p), q=float(q), gamma=float(gamma), alpha=float(alpha))

    @classmethod
    def local_critical(cls, N: int, p: float, gamma: float, alpha: float) -> "ProblemParams":
        qc = critical_exponent(N, float(p))
        return cls(N=N, p=float(p), q=qc, gamma=float(gamma), alpha=float(alpha),
                   q_critical=True)

    @classmethod
    def fractional(cls, N: int, s: float, q: float, gamma: float, alpha: float) -> "ProblemParams":
        return cls(N=N, p=2.0, q=float(q), gamma=float(gamma), alpha=float(alpha),
                   s=float(s))

    @classmethod
    def fractional_critical(cls, N: int, s: float, gamma: float, alpha: float) -> "ProblemParams":
        qc = fractional_critical_exponent(N, float(s))
        return cls(N=N, p=2.0, q=qc, gamma=float(gamma), alpha=float(alpha),
                   s=float(s), q_critical=True)

    # -- derived --------------------------------------------------------

    def regime(self) -> Regime:
        return self.exponents.regime

    @cached_property
    def exponents(self) -> "Exponents":
        """Regime and derived exponents; the fields are frozen, so one
        validation per instance is enough."""
        return validate(self)

    @property
    def is_fractional(self) -> bool:
        return self.s is not None


@dataclass(frozen=True)
class Exponents:
    """Regime, upper gamma boundary and curve exponents of a validated problem.

    regime:      which of the four families the problem belongs to
    gamma_crit:  the upper gamma boundary: p* in the critical regimes,
                 gamma_c in the subcritical ones
    b, c, pgamma: the exponents q/gamma, gamma_crit/gamma and p/gamma of
                 the half-line curves (``curves.CurveParams``); b is formed
                 as p/gamma + (q - p)/gamma, whose q - p is exact as q nears
                 p, so b - pgamma > 0 holds in doubles; c is b itself in the
                 critical regimes and at most b in the subcritical ones,
                 where gamma_c < q can round to q or past it as q nears p*

    The base exponent is ``params.p`` itself (2 in the fractional family).
    """

    regime: Regime
    gamma_crit: float
    b: float
    c: float
    pgamma: float


def validate(params: ProblemParams) -> Exponents:
    """Check admissibility and classify the regime, with its exponents.

    Each family checks only its own admissibility and names its order and
    regimes; one rule (see the module docstring) then decides the window
    and the regime for both.  ``q_critical=True`` is checked, not trusted:
    q must equal p*.  Raises ParamError with a stable ``code`` naming the
    offending parameter.  alpha = 0 is admitted (degenerate objective);
    alpha < 0 is rejected.
    """
    N, p, q, gamma, alpha, s = (params.N, params.p, params.q, params.gamma,
                                params.alpha, params.s)
    if not isinstance(N, int) or N < 1:
        raise ParamError("N", f"N must be a positive integer, got {N!r}")
    for name, val in (("p", p), ("q", q), ("gamma", gamma), ("alpha", alpha)):
        if not (isinstance(val, (int, float)) and math.isfinite(val)):
            raise ParamError(name, f"{name} must be a finite number, got {val!r}")
    if gamma <= 0:
        raise ParamError("gamma", f"gamma must be positive, got {gamma}")
    if alpha < 0:
        raise ParamError("alpha", f"alpha must be nonnegative, got {alpha}")

    if s is None:
        if N < 2:
            raise ParamError("N", f"the local family needs N >= 2, got N={N}")
        if not 1.0 < p <= N:
            raise ParamError("p", f"local family needs 1 < p <= N, got p={p}, N={N}")
        family, critical, subcritical = "local", Regime.CRITICAL_LOCAL, Regime.SUBCRITICAL_LOCAL
    else:
        if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 < s < N / 2):
            raise ParamError("s", f"s must lie in (0, N/2) = (0, {N/2}), got {s!r}")
        if p != 2.0:
            raise ParamError("p", f"the fractional family is posed for p = 2, got p={p}")
        family, critical, subcritical = ("fractional", Regime.CRITICAL_FRACTIONAL,
                                         Regime.SUBCRITICAL_FRACTIONAL)

    order = _order(params)
    crit = _q_critical(N, p, order) if order * p < N else math.inf
    if crit <= p:  # 2N/(N - 2s) rounds to 2 for s below about N eps / 4
        raise ParamError("s", f"s={s} leaves no q window: p* = 2N/(N - 2s) rounds to p = {p}")
    if params.q_critical and q != crit:
        raise ParamError("q", f"q_critical needs q = p* = {crit}, got q={q}")
    if params.q_critical or (crit < math.inf and _q_critical_match(N, p, q, order, crit)):
        regime, gamma_crit = critical, crit
    elif not p < q < crit:
        raise ParamError("q", f"{family} family needs {p} < q <= {crit}, got q={q}")
    else:
        regime, gamma_crit = subcritical, _gamma_c(N, p, q, order)
    pgamma = p / gamma
    b = pgamma + (q - p) / gamma
    c = b if regime.is_critical else min(gamma_crit / gamma, b)
    if not (pgamma < b < math.inf and 0.0 < c):
        raise ParamError("gamma", f"gamma={gamma} puts the curve exponents outside the "
                                  f"doubles: p/gamma = {pgamma}, q/gamma = {b}, "
                                  f"gamma_crit/gamma = {c}")
    return Exponents(regime, gamma_crit, b, c, pgamma)


def extremal_in_energy_space(params: ProblemParams) -> bool:
    """Whether the scale-optimal bubble profile itself has finite energy norm.

    Critical problems require order * p^2 < N: p^2 < N locally (the
    bubble's own L^p mass is finite exactly then), s < N/4 in the
    fractional family.  For subcritical problems this obstruction never
    applies.
    """
    return not params.regime().is_critical or _order(params) * params.p * params.p < params.N
