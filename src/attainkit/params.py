"""Problem parameters and admissibility for a two-term Sobolev quotient family.

The object of study is the scale-invariant maximization problem

    D  =  sup { ||u||_p^p + alpha ||u||_q^q }
          over u with (||grad u||_p^gamma + ||u||_p^gamma)^(1/gamma) = 1,

posed on R^N either for the full gradient (the *local* family, 1 < p <= N)
or, with p = 2, for the order-s Fourier seminorm ||(-Delta)^(s/2) u||_2 (the
*fractional* family, 0 < s < N/2).  The Gagliardo seminorm is not meant: it
exists only for s < 1, so it does not cover this range.  The admissible
window for q is

    local:       p < q <= p N/(N-p)      (any finite q > N when p = N)
    fractional:  2 < q <= 2N/(N-2s)

and the problem is *critical* when q sits exactly at the right endpoint.
This module owns parameter validation and the critical/subcritical
decision.  ``validate`` returns the regime together with its exponents
(``Exponents``), each from the branch that decides the regime, so the
upper gamma boundary every other module consumes, ``gamma_crit``, is
computed once: the critical exponent in the critical regimes, the
gamma-threshold exponent in the subcritical ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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

    @property
    def is_fractional(self) -> bool:
        return self in (Regime.SUBCRITICAL_FRACTIONAL, Regime.CRITICAL_FRACTIONAL)


def critical_exponent(N: int, p: float) -> float:
    """Sobolev conjugate p* = N p / (N - p); requires 1 < p < N."""
    if not 1.0 < p < N:
        raise ParamError("p", f"critical exponent needs 1 < p < N, got p={p}, N={N}")
    return N * p / (N - p)


def fractional_critical_exponent(N: int, s: float) -> float:
    """Fractional Sobolev conjugate 2N / (N - 2s); requires 0 < s < N/2."""
    if not 0.0 < s < N / 2:
        raise ParamError("s", f"fractional exponent needs 0 < s < N/2, got s={s}, N={N}")
    return 2.0 * N / (N - 2.0 * s)


def gamma_threshold_exponent(N: int, p: float, q: float) -> float:
    """The exponent N (q - p) / p separating compact from non-compact scaling."""
    return N * (q - p) / p


def fractional_gamma_threshold_exponent(N: int, s: float, q: float) -> float:
    """Fractional analogue N (q - 2) / (2 s) of the threshold exponent."""
    return N * (q - 2.0) / (2.0 * s)


def _as_fraction(x: float | int | Fraction) -> Fraction:
    # Fraction(float) is exact in binary, so this comparison is deterministic.
    return x if isinstance(x, Fraction) else Fraction(x)


def _q_critical_match(q: float, crit: float, q_exact: Fraction, crit_exact: Fraction) -> bool:
    """Decide q == critical exponent: exact rationals first, then a snap
    tolerance that warns (binary floats cannot represent e.g. 10/3)."""
    if q_exact == crit_exact:
        return True
    if math.isfinite(crit) and abs(q - crit) <= CRITICAL_Q_RTOL * crit:
        warnings.warn(
            f"q={q!r} is within {CRITICAL_Q_RTOL:g} of the critical exponent "
            f"{crit!r}; treating the problem as critical",
            NearCriticalWarning,
            stacklevel=3,
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
    """Regime and derived exponents of a validated problem.

    regime:      which of the four families the problem belongs to
    base:        p (local) or 2 (fractional)
    gamma_crit:  the upper gamma boundary: the critical exponent in the
                 critical regimes, the gamma-threshold exponent in the
                 subcritical ones
    """

    regime: Regime
    base: float
    gamma_crit: float


def validate(params: ProblemParams) -> Exponents:
    """Check admissibility and classify the regime, with its exponents.

    Raises ParamError with a stable ``code`` naming the offending
    parameter.  alpha = 0 is admitted (degenerate objective); alpha < 0 is
    rejected.
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

    if s is not None:
        if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 < s < N / 2):
            raise ParamError("s", f"s must lie in (0, N/2) = (0, {N/2}), got {s!r}")
        if p != 2.0:
            raise ParamError("p", f"the fractional family is posed for p = 2, got p={p}")
        crit = fractional_critical_exponent(N, s)
        if params.q_critical or _q_critical_match(
                q, crit, _as_fraction(q),
                Fraction(2 * N) / (Fraction(N) - 2 * _as_fraction(s))):
            return Exponents(Regime.CRITICAL_FRACTIONAL, 2.0, crit)
        if not 2.0 < q < crit:
            raise ParamError("q", f"fractional family needs 2 < q <= {crit}, got q={q}")
        return Exponents(Regime.SUBCRITICAL_FRACTIONAL, 2.0,
                         fractional_gamma_threshold_exponent(N, s, q))

    if N < 2:
        raise ParamError("N", f"the local family needs N >= 2, got N={N}")
    if not 1.0 < p <= N:
        raise ParamError("p", f"local family needs 1 < p <= N, got p={p}, N={N}")
    if p == N:
        if params.q_critical:
            raise ParamError("q", "p = N has no finite critical exponent")
        if not q > p:
            raise ParamError("q", f"p = N admits any finite q > p = {p}, got q={q}")
        return Exponents(Regime.SUBCRITICAL_LOCAL, p, gamma_threshold_exponent(N, p, q))
    crit = critical_exponent(N, p)
    if params.q_critical or _q_critical_match(
            q, crit, _as_fraction(q),
            Fraction(N) * _as_fraction(p) / (Fraction(N) - _as_fraction(p))):
        return Exponents(Regime.CRITICAL_LOCAL, p, crit)
    if not p < q < crit:
        raise ParamError("q", f"local family needs {p} < q <= {crit}, got q={q}")
    return Exponents(Regime.SUBCRITICAL_LOCAL, p, gamma_threshold_exponent(N, p, q))


def extremal_in_energy_space(params: ProblemParams) -> bool:
    """Whether the scale-optimal bubble profile itself has finite energy norm.

    Critical local problems require p^2 < N (the bubble's own L^p mass is
    finite exactly then); critical fractional problems require s < N/4.
    For subcritical problems this obstruction never applies.
    """
    regime = params.regime()
    if regime is Regime.CRITICAL_LOCAL:
        return params.p * params.p < params.N
    if regime is Regime.CRITICAL_FRACTIONAL:
        return params.s < params.N / 4.0
    return True
