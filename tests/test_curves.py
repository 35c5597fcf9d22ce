"""Scalar curves: identities, limits, derivative signs, roots."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from attainkit.classify import log_kappa_multiplier
from attainkit.curves import (CurveParams, f_at_log_t, g_at_log_t, log_f_limits,
                              log_g_at_log_t, log_g_limits)
from attainkit.errors import ParamError
from attainkit.halfline import maximize_halfline, objective_sign, ratio_sign
from attainkit.params import ProblemParams
from oracles import _curve_on_grid, curve_at_t

@st.composite
def curve_params(draw):
    pgamma = draw(st.floats(0.2, 4.0))
    b = pgamma + draw(st.floats(0.05, 3.0))
    c = b if draw(st.booleans()) else draw(st.floats(0.2 * b, 0.95 * b))
    log_kappa = draw(st.one_of(st.just(-math.inf), st.floats(math.log(1e-3), math.log(1e3))))
    return CurveParams(b=b, c=c, log_kappa=log_kappa, pgamma=pgamma)


def test_invariant_a_exact():
    cp = CurveParams(b=1.7, c=1.3, log_kappa=math.log(2.0), pgamma=0.9)
    assert cp.a == cp.b - cp.pgamma


def test_from_problem_critical_sets_c_equal_b(crit5, constants_crit5):
    cp = CurveParams.from_problem(crit5, log_C=log_kappa_multiplier(crit5, constants_crit5))
    assert cp.c == cp.b  # exact float equality is the critical marker


def test_from_problem_subcritical_c_below_b(sub224):
    cp = CurveParams.from_problem(sub224, log_C=math.log(0.17))
    assert cp.c < cp.b
    assert cp.kappa == pytest.approx(sub224.alpha * 0.17, rel=1e-15)


def test_from_problem_takes_log_c_by_keyword_only(sub224):
    # a linear C passed by position fails loudly instead of being read as a log
    with pytest.raises(TypeError):
        CurveParams.from_problem(sub224, 0.17)
    assert CurveParams.from_problem(
        dataclasses.replace(sub224, alpha=0.0), log_C=math.log(0.17)).log_kappa == -math.inf


@given(cp=curve_params(), s=st.floats(1e-6, 1.0 - 1e-6))
def test_compactified_curves_match(cp, s):
    # l(s) in log s and log(1 - s) is g at log t = log s - log(1 - s)
    l_of_s = _curve_on_grid(cp, "min", np.log(s), np.log1p(-s))
    assert g_at_log_t(cp, math.log(s) - math.log1p(-s)) == pytest.approx(
        l_of_s, rel=1e-9, abs=1e-300)


def test_f_limits():
    crit = CurveParams(b=1.5, c=1.5, log_kappa=math.log(2.5), pgamma=0.8)
    assert log_f_limits(crit) == (0.0, math.log(2.5))
    sub = CurveParams(b=1.5, c=1.2, log_kappa=math.log(2.5), pgamma=0.8)
    assert log_f_limits(sub) == (0.0, -math.inf)


def test_g_limits_cases():
    lo, hi = log_g_limits(CurveParams(b=2.0, c=0.7, log_kappa=-math.inf, pgamma=1.1))
    assert lo == -math.inf and hi == math.inf
    lo, hi = log_g_limits(CurveParams(b=2.0, c=1.0, log_kappa=-math.inf, pgamma=1.1))
    assert lo == pytest.approx(math.log(1.1)) and hi == math.inf
    lo, hi = log_g_limits(CurveParams(b=2.0, c=1.5, log_kappa=-math.inf, pgamma=1.1))
    assert lo == hi == math.inf
    lo, hi = log_g_limits(CurveParams(b=2.0, c=2.0, log_kappa=-math.inf, pgamma=1.1))
    assert hi == 0.0  # critical: mass ratio tends to one under concentration


def _assert_sign_matches_slope(sign, cp, mode, t):
    # sign(log t) and the central difference of the curve in log t agree
    step = 1e-7  # half-width of the stencil in log t
    v, d = sign(math.log(t))
    if abs(v) <= 2.0 * step * abs(d):
        return  # judged from the slope, a root may lie in the stencil
    slope = float(curve_at_t(cp, mode, t * math.exp(step))
                  - curve_at_t(cp, mode, t * math.exp(-step)))
    if abs(slope) < 1e-12 * abs(float(curve_at_t(cp, mode, t))):
        return  # within the curve's rounding
    assert np.sign(v) == np.sign(slope)


@given(cp=curve_params())
def test_h_factor_sign_matches_difference_quotient(cp):
    # h is f's slope sign: objective_sign at x = log t
    for t in (0.05, 0.4, 1.0, 3.0, 40.0):
        _assert_sign_matches_slope(objective_sign(cp), cp, "max", t)


@given(cp=curve_params())
def test_m_factor_sign_matches_difference_quotient(cp):
    # m is the slope sign of g, read at t = s / (1 - s) by ratio_sign
    for s in (0.1, 0.35, 0.6, 0.9):
        _assert_sign_matches_slope(ratio_sign(cp), cp, "min", s / (1.0 - s))


def test_argmax_is_a_sign_change_of_objective_sign():
    cp = CurveParams(b=5.0 / 3.0, c=5.0 / 3.0, log_kappa=math.log(90.0), pgamma=2.0 / 3.0)
    res = maximize_halfline(cp)
    assert res.attained
    x, G = res.log_argopt, objective_sign(cp)
    assert G(x - 1e-6)[0] > 0.0 > G(x + 1e-6)[0]


def test_far_scale_argmax_is_a_sign_change_of_objective_sign():
    # a tiny weight puts f's interior maximum far outside any feasible
    # sampling grid; it ties with the limit 1, and still carries its log t
    cp = CurveParams(b=0.875, c=0.875, log_kappa=math.log(1e-9), pgamma=0.5)
    res = maximize_halfline(cp)
    assert res.marginal
    x, G = res.log_argopt, objective_sign(cp)
    assert x < math.log(1e-12)
    assert G(x - 1e-9)[0] > 0.0 > G(x + 1e-9)[0]


def test_curves_at_log_t():
    for cp in (CurveParams(b=2.0, c=1.5, log_kappa=math.log(0.5), pgamma=1.0),
               CurveParams(b=2.0, c=2.0, log_kappa=math.log(3.0), pgamma=1.0)):
        t = np.geomspace(1e-6, 1e6, 7)
        for at_log_t, mode in ((f_at_log_t, "max"), (g_at_log_t, "min")):
            np.testing.assert_allclose(at_log_t(cp, np.log(t)), curve_at_t(cp, mode, t),
                                       rtol=1e-12)
    # beyond the double range of t the log form still meets the limits
    crit = CurveParams(b=2.0, c=2.0, log_kappa=math.log(3.0), pgamma=1.0)
    assert f_at_log_t(crit, -1e5) == 1.0
    assert f_at_log_t(crit, 1e5) == crit.kappa
    assert g_at_log_t(crit, 1e5) == 1.0


def log_g_mpmath(cp, x):
    """log g at log t = x in 50 digits, with log u = -log1p(t) kept exact
    however small t is."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        log_u = -mpmath.log1p(mpmath.exp(x))
        return float(-cp.c * (x + log_u) + (cp.c - cp.b) * log_u
                     + mpmath.log(-mpmath.expm1(cp.pgamma * log_u)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b,c,pgamma", [(2.0, 1.5, 1.0), (3.5, 1.2, 2.5)])
def test_log_g_below_the_normal_doubles_matches_mpmath(b, c, pgamma):
    # below log t = -708, t is subnormal or zero, and so is log u = -log(1+t)
    cp = CurveParams(b=b, c=c, log_kappa=0.0, pgamma=pgamma)
    xs = [800.0, -10.0, -700.0, -740.0, -760.0, -1e4]
    for x in xs:
        assert log_g_at_log_t(cp, x) == pytest.approx(log_g_mpmath(cp, x), rel=1e-14), x
    # an array mixing both sides takes the same value at each entry
    assert np.array_equal(log_g_at_log_t(cp, np.array(xs)), [log_g_at_log_t(cp, x) for x in xs])


def test_critical_curve_limits():
    cp = CurveParams(b=2.0, c=2.0, log_kappa=math.log(3.0), pgamma=1.0)
    assert log_f_limits(cp) == (0.0, math.log(3.0))
    assert log_g_limits(cp) == (math.inf, 0.0)


def test_curve_params_validation():
    with pytest.raises(Exception):
        CurveParams(b=1.0, c=1.5, log_kappa=0.0, pgamma=1.2)  # c beyond b
    with pytest.raises(Exception):
        CurveParams(b=1.0, c=0.5, log_kappa=math.nan, pgamma=0.5)  # kappa not a number
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.5, log_kappa=0.0, pgamma=1.0)  # a = 0
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.8, log_kappa=0.0, pgamma=1.5)  # a < 0
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.5, log_kappa=math.inf, pgamma=0.5)  # kappa not finite
    # kappa beyond the doubles is a valid curve
    assert CurveParams(b=1.0, c=0.5, log_kappa=2000.0, pgamma=0.5).kappa == math.inf


def test_from_problem_fractional_base_two():
    params = ProblemParams.fractional(5, 0.6, 2.2, 1.1, 0.9)
    cp = CurveParams.from_problem(params, log_C=math.log(1.7))
    assert cp.pgamma == pytest.approx(2.0 / 1.1, rel=1e-15)
    assert cp.b == pytest.approx(2.2 / 1.1, rel=1e-15)


@pytest.mark.parametrize("code,fields", [
    ("b", dict(b=math.nan)),
    ("c", dict(c=math.inf)),
    ("pgamma", dict(pgamma=math.nan)),
    ("pgamma", dict(pgamma=0.0)),
    ("pgamma", dict(pgamma=-1.0)),
])
def test_curve_params_refuse_nonfinite_exponents_and_a_nonpositive_pgamma(code, fields):
    with pytest.raises(ParamError) as err:
        CurveParams(**{"b": 2.0, "c": 1.0, "log_kappa": 0.0, "pgamma": 1.0, **fields})
    assert err.value.code == code
