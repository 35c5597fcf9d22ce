"""Scalar curves: identities, limits, derivative sign factors, roots."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attainkit.classify import kappa_multiplier
from attainkit.curves import (CurveParams, f_at_log_t, f_limits, g_at_log_t,
                              g_limits, h_factor, m_factor)
from attainkit.errors import ParamError
from attainkit.halfline import maximize_halfline
from attainkit.params import ProblemParams
from oracles import _curve_on_grid, curve_at_t

@st.composite
def curve_params(draw):
    pgamma = draw(st.floats(0.2, 4.0))
    b = pgamma + draw(st.floats(0.05, 3.0))
    c = b if draw(st.booleans()) else draw(st.floats(0.2 * b, 0.95 * b))
    kappa = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    return CurveParams(b=b, c=c, kappa=kappa, pgamma=pgamma)


def test_invariant_a_exact():
    cp = CurveParams(b=1.7, c=1.3, kappa=2.0, pgamma=0.9)
    assert cp.a == cp.b - cp.pgamma


def test_from_problem_critical_sets_c_equal_b(crit5, constants_crit5):
    cp = CurveParams.from_problem(crit5, kappa_multiplier(crit5, constants_crit5))
    assert cp.c == cp.b  # exact float equality is the critical marker


def test_from_problem_subcritical_c_below_b(sub224):
    cp = CurveParams.from_problem(sub224, 0.17)
    assert cp.c < cp.b
    assert cp.kappa == pytest.approx(sub224.alpha * 0.17, rel=1e-15)


@given(cp=curve_params(), s=st.floats(1e-6, 1.0 - 1e-6))
def test_compactified_curves_match(cp, s):
    # l(s) in log s and log(1 - s) is g at log t = log s - log(1 - s)
    l_of_s = _curve_on_grid(cp, "min", np.log(s), np.log1p(-s))
    assert g_at_log_t(cp, math.log(s) - math.log1p(-s)) == pytest.approx(
        l_of_s, rel=1e-9, abs=1e-300)


def test_f_limits():
    crit = CurveParams(b=1.5, c=1.5, kappa=2.5, pgamma=0.8)
    assert f_limits(crit) == (1.0, 2.5)
    sub = CurveParams(b=1.5, c=1.2, kappa=2.5, pgamma=0.8)
    assert f_limits(sub) == (1.0, 0.0)


def test_g_limits_cases():
    lo, hi = g_limits(CurveParams(b=2.0, c=0.7, kappa=0.0, pgamma=1.1))
    assert lo == 0.0 and math.isinf(hi)
    lo, hi = g_limits(CurveParams(b=2.0, c=1.0, kappa=0.0, pgamma=1.1))
    assert lo == pytest.approx(1.1) and math.isinf(hi)
    lo, hi = g_limits(CurveParams(b=2.0, c=1.5, kappa=0.0, pgamma=1.1))
    assert math.isinf(lo) and math.isinf(hi)
    lo, hi = g_limits(CurveParams(b=2.0, c=2.0, kappa=0.0, pgamma=1.1))
    assert hi == 1.0  # critical: mass ratio tends to one under concentration


@given(cp=curve_params())
def test_h_factor_sign_matches_difference_quotient(cp):
    for t in (0.05, 0.4, 1.0, 3.0, 40.0):
        d = 1e-7 * t
        slope = curve_at_t(cp, "max", t + d) - curve_at_t(cp, "max", t - d)
        h = float(h_factor(cp, t))
        if abs(slope) < 1e-13 * max(1.0, abs(curve_at_t(cp, "max", t))):
            continue  # too close to a stationary point for a sign call
        assert np.sign(h) == np.sign(slope)


@given(cp=curve_params())
def test_m_factor_sign_matches_difference_quotient(cp):
    def l_of_s(s):  # l(s) = g(t(s)), in log s and log(1 - s)
        return _curve_on_grid(cp, "min", np.log(s), np.log1p(-s))

    for s in (0.1, 0.35, 0.6, 0.9):
        d = 1e-8
        slope = l_of_s(s + d) - l_of_s(s - d)
        m = float(m_factor(cp, s))
        scale = max(1.0, abs(l_of_s(s)))
        if abs(slope) < 1e-12 * scale:
            continue
        assert np.sign(m) == np.sign(slope)


def test_argmax_is_a_sign_change_of_h_factor():
    cp = CurveParams(b=5.0 / 3.0, c=5.0 / 3.0, kappa=90.0, pgamma=2.0 / 3.0)
    res = maximize_halfline(cp)
    assert res.attained
    x = res.log_argopt
    assert h_factor(cp, math.exp(x - 1e-6)) > 0.0 > h_factor(cp, math.exp(x + 1e-6))


def test_far_scale_argmax_is_a_sign_change_of_h_factor():
    # a tiny weight puts f's interior maximum far outside any feasible
    # sampling grid; it ties with the limit 1, and still carries its log t
    cp = CurveParams(b=0.875, c=0.875, kappa=1e-9, pgamma=0.5)
    res = maximize_halfline(cp)
    assert res.marginal
    x = res.log_argopt
    assert x < math.log(1e-12)
    assert h_factor(cp, math.exp(x - 1e-9)) > 0.0 > h_factor(cp, math.exp(x + 1e-9))


def test_curves_at_log_t():
    for cp in (CurveParams(b=2.0, c=1.5, kappa=0.5, pgamma=1.0),
               CurveParams(b=2.0, c=2.0, kappa=3.0, pgamma=1.0)):
        t = np.geomspace(1e-6, 1e6, 7)
        for at_log_t, mode in ((f_at_log_t, "max"), (g_at_log_t, "min")):
            np.testing.assert_allclose(at_log_t(cp, np.log(t)), curve_at_t(cp, mode, t),
                                       rtol=1e-12)
    # beyond the double range of t the log form still meets the limits
    crit = CurveParams(b=2.0, c=2.0, kappa=3.0, pgamma=1.0)
    assert f_at_log_t(crit, -1e5) == 1.0
    assert f_at_log_t(crit, 1e5) == 3.0
    assert g_at_log_t(crit, 1e5) == 1.0


def test_critical_curve_limits():
    cp = CurveParams(b=2.0, c=2.0, kappa=3.0, pgamma=1.0)
    assert f_limits(cp) == (1.0, 3.0)
    assert g_limits(cp) == (math.inf, 1.0)


def test_curve_params_validation():
    with pytest.raises(Exception):
        CurveParams(b=1.0, c=1.5, kappa=1.0, pgamma=1.2)  # c beyond b
    with pytest.raises(Exception):
        CurveParams(b=1.0, c=0.5, kappa=-1.0, pgamma=0.5)  # negative kappa
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.5, kappa=1.0, pgamma=1.0)  # a = 0
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.8, kappa=1.0, pgamma=1.5)  # a < 0
    with pytest.raises(ParamError):
        CurveParams(b=1.0, c=0.5, kappa=math.inf, pgamma=0.5)  # kappa not finite


def test_from_problem_fractional_base_two():
    params = ProblemParams.fractional(5, 0.6, 2.2, 1.1, 0.9)
    cp = CurveParams.from_problem(params, 1.7)
    assert cp.pgamma == pytest.approx(2.0 / 1.1, rel=1e-15)
    assert cp.b == pytest.approx(2.2 / 1.1, rel=1e-15)
