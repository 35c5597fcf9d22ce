"""Half-line optimizer: boundary suprema, interior attainment, oracle agreement."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import attainkit as ak
from attainkit import CurveParams, OptResult, maximize_halfline, minimize_halfline
from attainkit import halfline
from attainkit.curves import log_f_limits
from attainkit.halfline import objective_sign, ratio_sign
from oracles import bisect_sign_change, curve_at_t, grid_oracle


@st.composite
def curve_params(draw):
    pgamma = draw(st.floats(0.2, 4.0))
    b = pgamma + draw(st.floats(0.05, 3.0))
    c = b if draw(st.booleans()) else draw(st.floats(0.2 * b, 0.95 * b))
    log_kappa = draw(st.one_of(st.just(-math.inf), st.floats(math.log(1e-3), math.log(1e3))))
    return CurveParams(b=b, c=c, log_kappa=log_kappa, pgamma=pgamma)


def _critical_cell(gamma: float, alpha_times_thr: float):
    """Curve for the 5-dim quadratic-energy critical family at the given weight."""
    params = ak.ProblemParams.local_critical(N=5, p=2.0, gamma=gamma, alpha=1.0)
    S = ak.sobolev_constant(5, 2.0)
    log_C = params.exponents.gamma_crit * math.log(S.value)
    thr = ak.threshold_alpha(params)
    p2 = dataclasses.replace(params, alpha=alpha_times_thr * thr)
    return CurveParams.from_problem(p2, log_C=log_C), thr, math.exp(log_C)


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_low_gamma_critical_sup_is_boundary(kappa):
    # gamma at the base exponent: the objective never beats its endpoint limits
    cp = CurveParams(b=5.0 / 3.0, c=5.0 / 3.0, log_kappa=math.log(kappa), pgamma=1.0)
    res = maximize_halfline(cp)
    assert res.value == max(1.0, kappa)
    assert not res.attained
    assert res.log_argopt is None
    assert not res.marginal


def test_attained_interior_beats_boundary():
    cp, _, _ = _critical_cell(gamma=2.2, alpha_times_thr=2.0)
    res = maximize_halfline(cp)
    assert res.attained and not res.marginal
    assert res.log_argopt is not None and math.isfinite(res.log_argopt)
    assert res.value > max(1.0, cp.kappa)
    # the reported optimum sits on a + to - sign change of f'
    x = res.log_argopt
    assert _G(cp, x - 1e-6) > 0.0 > _G(cp, x + 1e-6)
    assert float(curve_at_t(cp, "max", math.exp(x))) == pytest.approx(res.value, rel=1e-12)
    # naive dense-grid reference agrees on the value
    gro = grid_oracle(cp, n=10**6, mode="max")
    assert gro.attained
    assert gro.value == pytest.approx(res.value, abs=1e-8)


def test_marginal_tie_at_threshold_weight():
    cp, _, _ = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = maximize_halfline(cp)
    assert res.marginal
    assert not res.attained
    assert res.log_argopt is not None
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_ratio_infimum_matches_threshold_product():
    cp, thr, C = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = minimize_halfline(cp)
    assert res.attained
    assert res.value == pytest.approx(thr * C, rel=1e-10)


@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_ratio_infimum_is_one_for_low_gamma_critical(gamma):
    cp, _, _ = _critical_cell(gamma=gamma, alpha_times_thr=1.0)
    res = minimize_halfline(cp)
    assert res.value == 1.0
    assert not res.attained
    assert res.log_argopt is None


@pytest.mark.parametrize("c", [5.0 / 3.0, 1.2])
def test_zero_kappa_sup_is_left_boundary(c):
    cp = CurveParams(b=5.0 / 3.0, c=c, log_kappa=-math.inf, pgamma=1.0)
    res = maximize_halfline(cp)
    assert res.value == 1.0
    assert not res.attained
    assert res.log_argopt is None


def test_subcritical_attained_matches_oracle_and_roots():
    cp = CurveParams(b=8.0 / 3.0, c=4.0 / 3.0, log_kappa=math.log(10.0), pgamma=4.0 / 3.0)
    res = maximize_halfline(cp)
    assert res.attained
    x = res.log_argopt
    assert _G(cp, x - 1e-6) > 0.0 > _G(cp, x + 1e-6)
    gro = grid_oracle(cp, n=10**6, mode="max")
    assert gro.value == pytest.approx(res.value, abs=1e-8)


def test_err_bound_small_when_attained():
    cp = CurveParams(b=8.0 / 3.0, c=4.0 / 3.0, log_kappa=math.log(10.0), pgamma=4.0 / 3.0)
    res = maximize_halfline(cp)
    assert math.isfinite(res.err_bound)
    assert res.err_bound < 1e-8


def test_grid_oracle_validation():
    cp = CurveParams(b=2.0, c=1.5, log_kappa=0.0, pgamma=1.0)
    with pytest.raises(ValueError):
        grid_oracle(cp, n=10**4)
    with pytest.raises(ValueError):
        grid_oracle(cp, n=10**6, mode="sup")


def test_grid_oracle_min_mode():
    cp, thr, C = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = minimize_halfline(cp)
    gro = grid_oracle(cp, n=10**6, mode="min")
    assert gro.value == pytest.approx(res.value, abs=1e-8)
    assert math.isinf(gro.err_bound)


def test_result_is_frozen_dataclass():
    res = OptResult(log_value=0.0, attained=False, err_bound=0.0, n_evals=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 2.0


@given(cp=curve_params(), seed=st.integers(0, 2**16))
def test_maximize_dominates_samples(cp, seed):
    res = maximize_halfline(cp)
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(-20.0, 20.0, size=24))
    vals = curve_at_t(cp, "max", t)
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert res.value >= float(np.max(vals)) - 1e-7 * scale


@given(cp=curve_params(), seed=st.integers(0, 2**16), log_kappa=st.floats(-2000.0, 2000.0))
def test_minimize_dominated_by_samples(cp, seed, log_kappa):
    res = minimize_halfline(cp)
    # the ratio curve does not read kappa, so neither does its infimum, also
    # at kappas no double holds
    assert minimize_halfline(dataclasses.replace(cp, log_kappa=-math.inf)) == res
    assert minimize_halfline(dataclasses.replace(cp, log_kappa=log_kappa)) == res
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(-20.0, 20.0, size=24))
    vals = curve_at_t(cp, "min", t)
    finite = vals[np.isfinite(vals)]
    if finite.size:
        scale = max(1.0, float(np.max(np.abs(finite))))
        assert res.value <= float(np.min(finite)) + 1e-7 * scale


def _G(cp, x):
    """G of the halfline docstring, naively; -inf where h < 0 outright."""
    inner = cp.c + (cp.c - cp.b) * np.exp(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inner > 0, cp.log_kappa + (cp.c - 1.0) * x
                        + np.log(np.where(inner > 0, inner, 1.0)) - np.log(cp.pgamma)
                        - cp.a * np.logaddexp(0.0, x), -np.inf)


@given(cp=curve_params(), log_kappa=st.floats(-2000.0, 2000.0))
def test_maximize_at_kappas_no_double_holds(cp, log_kappa):
    cp = dataclasses.replace(cp, log_kappa=log_kappa)
    res = maximize_halfline(cp)
    assert math.isfinite(res.log_value)
    assert all(res.log_value >= limit for limit in log_f_limits(cp))


@given(cp=curve_params())
def test_sign_lemmas_the_solver_relies_on(cp):
    # F(u) changes sign at most once on (0, 1); the solver's quotient is
    # F / s, and F / (s u^k) when critical
    u = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    k = cp.pgamma
    F = (cp.b - cp.c) - cp.b * u + (cp.c - cp.a) * u**k + cp.a * u ** (k + 1.0)
    scale = cp.b + abs(cp.c - cp.a) + cp.a
    quotient = np.array([v for v, _ in map(ratio_sign(cp), np.log1p(-u) - np.log(u))])
    np.testing.assert_allclose(F, quotient * (1.0 - u) * (u**k if cp.is_critical else 1.0),
                               rtol=0, atol=1e-12 * scale)
    signs = np.sign(F[np.abs(F) > 1e-10 * scale])
    assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1
    # G' is strictly decreasing where G is defined
    x_hi = 20.0 if cp.is_critical else min(20.0, math.log(cp.c / (cp.b - cp.c)) - 1e-3)
    x = np.linspace(-20.0, x_hi, 2001)
    e = np.exp(x)
    dG = cp.c - 1.0 - cp.a * e / (1.0 + e) + (cp.c - cp.b) * e / (cp.c + (cp.c - cp.b) * e)
    assert np.all(np.diff(dG) < 0)
    # the reported maximizer is a + -> - sign change of G
    res = maximize_halfline(cp)
    if res.attained:
        x, d = res.log_argopt, 1e-9 * max(1.0, abs(res.log_argopt))
        assert _G(cp, x - d) > 0 >= _G(cp, x + d)


def _by_bisection(fun, pos, neg, x):
    """The reference root finder on the solver's own sign function."""
    return bisect_sign_change(lambda y: fun(y)[0], pos, neg)


@given(cp=curve_params())
def test_newton_agrees_with_bisection_oracle(cp):
    got = (maximize_halfline(cp), minimize_halfline(cp))
    with mock.patch.object(halfline, "_sign_change", _by_bisection):
        want = (maximize_halfline(cp), minimize_halfline(cp))
    for g, w in zip(got, want):
        assert (g.attained, g.marginal) == (w.attained, w.marginal)
        assert g.value == pytest.approx(w.value, rel=1e-14, abs=0.0)
    # each returned optimizer is a sign change between adjacent doubles; a
    # marginal candidate may instead be the peak of a G that stays <= 0
    fmax, gmin = got
    G, F = objective_sign(cp), ratio_sign(cp)
    x = fmax.log_argopt
    if x is not None and (fmax.attained or G(x)[0] > 0.0):
        assert G(x)[0] > 0.0 >= G(math.nextafter(x, math.inf))[0]
    x = gmin.log_argopt
    if x is not None:
        assert F(x)[0] > 0.0 >= F(math.nextafter(x, -math.inf))[0]


@given(cp=curve_params())
def test_objective_sign_matches_the_naive_form(cp):
    if cp.log_kappa == -math.inf:
        return  # both are -inf throughout
    G = objective_sign(cp)
    x_max = math.inf if cp.is_critical else math.log(cp.c / (cp.b - cp.c))
    K = cp.log_kappa + math.log(cp.c / cp.pgamma)
    for x in (-30.0, -3.0, -0.5, 0.0, 0.7, 3.0, 30.0):
        if x > x_max - 1e-3:
            continue
        # each term of the naive sum is rounded to its own size
        scale = 1.0 + abs(K) + (abs(cp.c - 1.0) + cp.a + 1.0) * abs(x)
        assert G(x)[0] == pytest.approx(float(_G(cp, x)), rel=0, abs=1e-13 * scale)


@given(cp=curve_params(), x=st.floats(-30.0, 30.0))
def test_sign_function_slopes_match_their_values(cp, x):
    # Newton's steps read the slopes, so each is the derivative of its value
    x_max = math.inf if cp.is_critical else math.log(cp.c / (cp.b - cp.c))
    h = 1e-5 * max(1.0, abs(x))
    for sign, x_hi in ((objective_sign(cp), x_max - 1e-2), (ratio_sign(cp), math.inf)):
        if x > x_hi:
            continue
        (v, d), left, right = sign(x), sign(x - h)[0], sign(x + h)[0]
        if not all(map(math.isfinite, (v, left, right))):
            continue
        assert (right - left) / (2.0 * h) == pytest.approx(d, rel=0, abs=1e-5 * max(1.0, abs(d)))


@given(cp=curve_params())
def test_sign_functions_are_total(cp):
    G, F = objective_sign(cp), ratio_sign(cp)
    x_max = math.inf if cp.is_critical else math.log(cp.c / (cp.b - cp.c))
    for x in (-1e300, -800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0, 1e300):
        v, d = G(x)
        if cp.log_kappa == -math.inf or x >= x_max:
            assert v < 0.0  # f' < 0 outright
        assert not (math.isnan(v) or math.isnan(d))
        v, d = F(x)
        assert not (math.isnan(v) or math.isnan(d))
    for x in (x_max, math.nextafter(x_max, math.inf), x_max + 1.0):
        if math.isfinite(x):
            assert G(x)[0] < 0.0


#: evaluations one root may cost; bisection in bit order takes about 62
ROOT_BUDGET = 24


def _assert_within_budget(optimize, cp):
    spent = []

    def counted(*args):
        out = real(*args)
        spent.append(out[1])
        return out

    real = halfline._sign_change
    with mock.patch.object(halfline, "_sign_change", counted):
        res = optimize(cp)
    assert all(n <= ROOT_BUDGET for n in spent), spent
    assert res.n_evals <= sum(spent) + 2  # plus the peak value and the optimum
    return res


@given(cp=curve_params())
def test_each_root_within_evaluation_budget(cp):
    _assert_within_budget(maximize_halfline, cp)
    _assert_within_budget(minimize_halfline, cp)


def test_tie_and_far_roots_within_evaluation_budget():
    cp, _, _ = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    assert _assert_within_budget(maximize_halfline, cp).marginal
    _assert_within_budget(minimize_halfline, cp)
    frac = ak.ConstantSet(fractional=ak.fractional_constant(1.7))
    p_star = ak.critical_exponent(5, 2.0)
    for pp, cs, log_t_star in [
        (ak.ProblemParams.local_critical(N=5, p=2.0, gamma=1.001 * p_star, alpha=1.0),
         None, -3985.54),
        (ak.ProblemParams.fractional(N=5, s=0.6, q=2.2, gamma=0.8333469073689064,
                                     alpha=0.037747494237528545), frac, -222344.57),
        (ak.ProblemParams.local_critical(N=6, p=1.05, gamma=1.0502312310584088,
                                         alpha=1295.8598210709758), None, 21277.94),
    ]:
        log_C = ak.log_kappa_multiplier(pp, ak.resolve_constants(pp, cs))
        res = _assert_within_budget(maximize_halfline,
                                    CurveParams.from_problem(pp, log_C=log_C))
        assert res.log_argopt == pytest.approx(log_t_star, abs=0.01)
