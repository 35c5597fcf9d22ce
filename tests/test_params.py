"""Parameter validation, regime selection, and exponent helpers."""

import dataclasses
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from attainkit import classify
from attainkit.errors import NearCriticalWarning, ParamError
from attainkit.params import (ProblemParams, Regime, _q_critical, _q_critical_match,
                              critical_exponent,
                              extremal_in_energy_space,
                              fractional_critical_exponent,
                              fractional_gamma_threshold_exponent,
                              gamma_threshold_exponent, validate)
from oracles import (fractional_extremal_oracle, fractional_gamma_crit_oracle,
                     local_extremal_oracle, local_gamma_crit_oracle)


def test_local_regimes():
    assert ProblemParams.local(3, 2.0, 4.0, 1.0, 1.0).regime() is Regime.SUBCRITICAL_LOCAL
    assert ProblemParams.local_critical(5, 2.0, 1.0, 1.0).regime() is Regime.CRITICAL_LOCAL


def test_fractional_regimes():
    assert (ProblemParams.fractional(5, 0.6, 2.2, 1.0, 1.0).regime()
            is Regime.SUBCRITICAL_FRACTIONAL)
    assert (ProblemParams.fractional_critical(5, 0.6, 1.0, 1.0).regime()
            is Regime.CRITICAL_FRACTIONAL)


@pytest.mark.parametrize("bad", [
    dict(N=1, p=0.5, q=1.0, gamma=1.0, alpha=1.0),       # N too small for local
    dict(N=3, p=1.0, q=2.0, gamma=1.0, alpha=1.0),       # p must exceed 1
    dict(N=3, p=4.0, q=5.0, gamma=1.0, alpha=1.0),       # p beyond N
    dict(N=3, p=2.0, q=2.0, gamma=1.0, alpha=1.0),       # q must exceed p
    dict(N=3, p=2.0, q=7.0, gamma=1.0, alpha=1.0),       # q beyond critical
    dict(N=3, p=2.0, q=4.0, gamma=0.0, alpha=1.0),       # gamma positive
    dict(N=3, p=2.0, q=4.0, gamma=1.0, alpha=-1.0),      # alpha nonnegative
])
def test_local_validation_errors(bad):
    with pytest.raises(ParamError):
        ProblemParams.local(**bad).regime()


def test_param_error_carries_code():
    with pytest.raises(ParamError) as err:
        ProblemParams.local(3, 2.0, 4.0, -1.0, 1.0).regime()
    assert err.value.code == "gamma"


def test_fractional_validation_errors():
    with pytest.raises(ParamError):
        ProblemParams.fractional(5, 2.6, 2.2, 1.0, 1.0).regime()  # s >= N/2
    with pytest.raises(ParamError):
        ProblemParams.fractional(5, 0.6, 1.5, 1.0, 1.0).regime()  # q <= 2
    with pytest.raises(ParamError):
        ProblemParams.fractional(5, 0.6, 3.0, 1.0, 1.0).regime()  # q beyond critical
    with pytest.raises(ParamError):
        ProblemParams(N=5, p=3.0, q=2.2, gamma=1.0, alpha=1.0, s=0.6).regime()


def test_near_critical_q_warns_and_upgrades():
    qc = critical_exponent(5, 2.0)
    with pytest.warns(NearCriticalWarning):
        regime = ProblemParams.local(5, 2.0, qc, 1.0, 1.0).regime()
    assert regime is Regime.CRITICAL_LOCAL


def test_near_critical_warning_names_the_caller():
    # every path validates through the cached ProblemParams.exponents
    qc = critical_exponent(5, 2.0)
    near = lambda: ProblemParams.local(5, 2.0, qc, 2.2, 180.0)
    for call in (lambda: classify(near()), lambda: near().regime(), lambda: validate(near())):
        with pytest.warns(NearCriticalWarning) as rec:
            call()
        assert [w.filename for w in rec] == [__file__]


def _exact_match_cases():
    """(N, p, order, q): q at p* (rounded), a double off it either way, and
    off by far, for local (order 1) and fractional (order s, p = 2) problems."""
    for N, p, order in ((5, 2.0, 1), (3, 1.5, 1), (4, 2.0, 1), (7, 2.5, 1), (6, 1.05, 1),
                        (6, 1.5, 1), (5, 2.0, 0.6), (4, 2.0, 1.0), (3, 2.0, 0.8), (9, 2.0, 0.3),
                        (5, 2.0, 1.25), (8, 2.0, 2.0)):
        crit = _q_critical(N, p, order)
        for q in (crit, math.nextafter(crit, 0.0), math.nextafter(crit, math.inf),
                  0.5 * (p + crit)):
            yield N, p, order, q


@pytest.mark.parametrize("N,p,order,q", list(_exact_match_cases()))
def test_q_critical_match_is_the_exact_rational_test(N, p, order, q):
    # the exact match admits q with no warning; the snap tolerance warns
    exact = Fraction(q) == Fraction(N) * Fraction(p) / (N - Fraction(order) * Fraction(p))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matched = _q_critical_match(N, p, q, order, _q_critical(N, p, order))
    assert (matched and not caught) == exact


def test_p_equal_N_has_no_critical_exponent():
    with pytest.raises(ParamError):
        ProblemParams.local_critical(3, 3.0, 1.0, 1.0)


def test_exponent_values():
    assert critical_exponent(5, 2.0) == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert gamma_threshold_exponent(2, 2.0, 4.0) == pytest.approx(2.0, rel=1e-15)
    assert fractional_critical_exponent(5, 0.6) == pytest.approx(10.0 / 3.8, rel=1e-15)
    assert fractional_gamma_threshold_exponent(5, 0.6, 2.2) == pytest.approx(
        5 * 0.2 / 1.2, rel=1e-15)


def test_exponents_bundle(crit5, sub224):
    # one record per regime; in both critical regimes the upper gamma
    # boundary is the critical exponent itself, the same float
    e5 = crit5.exponents
    assert (e5.regime, e5.gamma_crit) == (Regime.CRITICAL_LOCAL, critical_exponent(5, 2.0))
    e2 = sub224.exponents
    assert (e2.regime, e2.gamma_crit) == (Regime.SUBCRITICAL_LOCAL, 2.0)
    ef = ProblemParams.fractional(5, 0.6, 2.2, 1.0, 1.0).exponents
    assert ef.regime is Regime.SUBCRITICAL_FRACTIONAL
    assert ef.gamma_crit == pytest.approx(5 * 0.2 / 1.2, rel=1e-15)
    ec = ProblemParams.fractional_critical(5, 0.6, 1.0, 1.0).exponents
    assert (ec.regime, ec.gamma_crit) == (
        Regime.CRITICAL_FRACTIONAL, fractional_critical_exponent(5, 0.6))
    for params in (crit5, sub224):
        assert params.regime() is params.exponents.regime


@given(N=st.integers(3, 12), p=st.floats(1.05, 2.8))
def test_gamma_threshold_at_critical_q_is_critical_exponent(N, p):
    # the interpolation band's top exponent continuously meets the
    # critical exponent when q reaches it
    if p >= N:
        return
    pstar = critical_exponent(N, p)
    assert gamma_threshold_exponent(N, p, pstar) == pytest.approx(pstar, rel=1e-12)


@given(N=st.integers(2, 12), p=st.floats(1.05, 3.0))
def test_critical_exponent_exceeds_p(N, p):
    if p >= N:
        return
    assert critical_exponent(N, p) > p


def test_extremal_in_energy_space_truth():
    assert extremal_in_energy_space(ProblemParams.local_critical(5, 2.0, 1.0, 1.0))
    assert not extremal_in_energy_space(ProblemParams.local_critical(3, 2.0, 1.0, 1.0))
    assert not extremal_in_energy_space(ProblemParams.local_critical(4, 2.0, 1.0, 1.0))
    assert extremal_in_energy_space(ProblemParams.fractional_critical(5, 0.6, 1.0, 1.0))
    assert not extremal_in_energy_space(ProblemParams.fractional_critical(3, 0.8, 1.0, 1.0))
    # subcritical problems always admit extremals in the energy space
    assert extremal_in_energy_space(ProblemParams.local(3, 2.0, 4.0, 1.0, 1.0))


def test_params_frozen():
    params = ProblemParams.local(3, 2.0, 4.0, 1.0, 1.0)
    with pytest.raises(Exception):
        params.alpha = 2.0


@st.composite
def admissible_problems(draw):
    """An admissible problem of either family, critical or strictly inside
    the q window (away from the snap to p*), with its per-family closed
    forms for gamma_crit and the bubble's finite energy."""
    N = draw(st.integers(2, 12))
    critical = draw(st.booleans())
    u = draw(st.floats(0.01, 0.99))
    if draw(st.booleans()):
        s = draw(st.one_of(st.just(N / 4.0), st.floats(1e-3, 0.999).map(lambda x: x * N / 2)))
        pstar = fractional_gamma_crit_oracle(N, s, 0.0, True)
        params = (ProblemParams.fractional_critical(N, s, 1.0, 1.0) if critical
                  else ProblemParams.fractional(N, s, 2.0 + u * (pstar - 2.0), 1.0, 1.0))
        return (params, critical, fractional_gamma_crit_oracle(N, s, params.q, critical),
                fractional_extremal_oracle(N, s, critical))
    p = draw(st.one_of(st.just(float(N)), st.just(math.sqrt(N)), st.floats(1.01, float(N))))
    critical = critical and p < N
    if critical:
        params = ProblemParams.local_critical(N, p, 1.0, 1.0)
    else:
        top = p + 10.0 if p == N else local_gamma_crit_oracle(N, p, 0.0, True)
        params = ProblemParams.local(N, p, p + u * (top - p), 1.0, 1.0)
    return (params, critical, local_gamma_crit_oracle(N, p, params.q, critical),
            local_extremal_oracle(N, p, critical))


@given(problem=admissible_problems())
def test_one_rule_reproduces_each_family_bit_for_bit(problem):
    # one rule at order 1 (local) or s (fractional, p = 2) gives each
    # family's own closed forms, to the last bit
    params, critical, gamma_crit, extremal = problem
    assert params.regime().is_critical is critical
    assert params.exponents.gamma_crit.hex() == gamma_crit.hex()
    assert extremal_in_energy_space(params) is extremal


def test_q_critical_flag_is_checked_not_trusted():
    # q = 3 lies inside the window, not at p* = 10/3
    bad = [ProblemParams(N=5, p=2.0, q=3.0, gamma=3.0, alpha=1.0, q_critical=True),
           # a new p keeps the old q = 10/3, while p* moves to 5
           dataclasses.replace(ProblemParams.local_critical(5, 2.0, 3.0, 1.0), p=2.5),
           dataclasses.replace(ProblemParams.fractional_critical(5, 0.6, 3.0, 1.0), s=0.7)]
    for params in bad:
        with pytest.raises(ParamError) as err:
            params.regime()
        assert err.value.code == "q"


def test_q_critical_flag_is_exact():
    params = ProblemParams.local_critical(7, 2.0, 1.0, 1.0)
    assert params.q_critical
    assert math.isclose(params.q, 14.0 / 5.0, rel_tol=1e-15)
