"""Half-line optimizer: boundary suprema, interior attainment, oracle agreement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import attainkit as ak
from attainkit import (
    CurveParams,
    OptResult,
    maximize_halfline,
    m_factor,
    minimize_halfline,
    objective_curve,
    ratio_curve,
    stationary_points,
    value_f,
    value_g,
)
from oracles import grid_oracle


@st.composite
def curve_params(draw):
    pgamma = draw(st.floats(0.2, 4.0))
    b = pgamma + draw(st.floats(0.05, 3.0))
    c = b if draw(st.booleans()) else draw(st.floats(0.2 * b, 0.95 * b))
    kappa = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    return CurveParams.make(b=b, c=c, kappa=kappa, pgamma=pgamma)


def _critical_cell(gamma: float, alpha_times_thr: float):
    """Curve for the 5-dim quadratic-energy critical family at the given weight."""
    params = ak.ProblemParams.local_critical(N=5, p=2.0, gamma=gamma, alpha=1.0)
    S = ak.sobolev_constant(5, 2.0)
    C = S.value ** ak.exponents(params).crit
    thr = ak.threshold_alpha(params)
    p2 = dataclasses.replace(params, alpha=alpha_times_thr * thr)
    return CurveParams.from_problem(p2, C), thr, C


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_low_gamma_critical_sup_is_boundary(kappa):
    # gamma at the base exponent: the objective never beats its endpoint limits
    cp = CurveParams.make(b=5.0 / 3.0, c=5.0 / 3.0, kappa=kappa, pgamma=1.0)
    res = maximize_halfline(objective_curve(cp))
    assert res.value == max(1.0, kappa)
    assert not res.attained
    assert res.argopt is None
    assert not res.marginal


def test_attained_interior_beats_boundary():
    cp, _, _ = _critical_cell(gamma=2.2, alpha_times_thr=2.0)
    res = maximize_halfline(objective_curve(cp))
    assert res.attained and not res.marginal
    assert res.argopt is not None and res.argopt > 0
    assert res.value > max(1.0, cp.kappa)
    # the reported optimum sits on a true stationary point
    roots = stationary_points(cp)
    nearest = min(roots, key=lambda r: abs(r - res.log_argopt))
    assert abs(nearest - res.log_argopt) < 1e-3
    assert float(value_f(cp, math.exp(nearest))) == pytest.approx(res.value, rel=1e-12)
    # naive dense-grid reference agrees on the value
    gro = grid_oracle(objective_curve(cp), n=10**6, mode="max")
    assert gro.attained
    assert gro.value == pytest.approx(res.value, abs=1e-8)


def test_marginal_tie_at_threshold_weight():
    cp, _, _ = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = maximize_halfline(objective_curve(cp))
    assert res.marginal
    assert not res.attained
    assert res.argopt is not None
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_ratio_infimum_matches_threshold_product():
    cp, thr, C = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = minimize_halfline(ratio_curve(cp))
    assert res.attained
    assert res.value == pytest.approx(thr * C, rel=1e-10)


@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_ratio_infimum_is_one_for_low_gamma_critical(gamma):
    cp, _, _ = _critical_cell(gamma=gamma, alpha_times_thr=1.0)
    res = minimize_halfline(ratio_curve(cp))
    assert res.value == 1.0
    assert not res.attained
    assert res.argopt is None


@pytest.mark.parametrize("c", [5.0 / 3.0, 1.2])
def test_zero_kappa_sup_is_left_boundary(c):
    cp = CurveParams.make(b=5.0 / 3.0, c=c, kappa=0.0, pgamma=1.0)
    res = maximize_halfline(objective_curve(cp))
    assert res.value == 1.0
    assert not res.attained
    assert res.argopt is None


def test_subcritical_attained_matches_oracle_and_roots():
    cp = CurveParams.make(b=8.0 / 3.0, c=4.0 / 3.0, kappa=10.0, pgamma=4.0 / 3.0)
    res = maximize_halfline(objective_curve(cp))
    assert res.attained
    roots = stationary_points(cp)
    nearest = min(roots, key=lambda r: abs(r - res.log_argopt))
    assert math.exp(nearest) == pytest.approx(res.argopt, rel=1e-6)
    gro = grid_oracle(objective_curve(cp), n=10**6, mode="max")
    assert gro.value == pytest.approx(res.value, abs=1e-8)


def test_err_bound_small_when_attained():
    cp = CurveParams.make(b=8.0 / 3.0, c=4.0 / 3.0, kappa=10.0, pgamma=4.0 / 3.0)
    res = maximize_halfline(objective_curve(cp))
    assert math.isfinite(res.err_bound)
    assert res.err_bound < 1e-8


def test_grid_oracle_validation():
    cp = CurveParams.make(b=2.0, c=1.5, kappa=1.0, pgamma=1.0)
    with pytest.raises(ValueError):
        grid_oracle(objective_curve(cp), n=10**4)
    with pytest.raises(ValueError):
        grid_oracle(objective_curve(cp), n=10**6, mode="sup")


def test_grid_oracle_min_mode():
    cp, thr, C = _critical_cell(gamma=2.2, alpha_times_thr=1.0)
    res = minimize_halfline(ratio_curve(cp))
    gro = grid_oracle(ratio_curve(cp), n=10**6, mode="min")
    assert gro.value == pytest.approx(res.value, abs=1e-8)
    assert math.isinf(gro.err_bound)


def test_result_is_frozen_dataclass():
    res = OptResult(value=1.0, attained=False, err_bound=0.0, n_evals=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 2.0


@given(cp=curve_params(), seed=st.integers(0, 2**16))
def test_maximize_dominates_samples(cp, seed):
    res = maximize_halfline(objective_curve(cp))
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(-20.0, 20.0, size=24))
    vals = value_f(cp, t)
    scale = max(1.0, float(np.max(np.abs(vals))))
    assert res.value >= float(np.max(vals)) - 1e-7 * scale


@given(cp=curve_params(), seed=st.integers(0, 2**16))
def test_minimize_dominated_by_samples(cp, seed):
    res = minimize_halfline(ratio_curve(cp))
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(-20.0, 20.0, size=24))
    vals = value_g(cp, t)
    finite = vals[np.isfinite(vals)]
    if finite.size:
        scale = max(1.0, float(np.max(np.abs(finite))))
        assert res.value <= float(np.min(finite)) + 1e-7 * scale


def _G(cp, x):
    """log form of h_factor (the halfline docstring), -inf where h < 0 outright."""
    inner = cp.c + (cp.c - cp.b) * np.exp(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inner > 0, np.log(cp.kappa) + (cp.c - 1.0) * x
                        + np.log(np.where(inner > 0, inner, 1.0)) - np.log(cp.pgamma)
                        - cp.a * np.logaddexp(0.0, x), -np.inf)


@given(cp=curve_params())
def test_sign_lemmas_the_solver_relies_on(cp):
    # F(u) = c u m(s) changes sign at most once on (0, 1)
    u = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    k = cp.pgamma
    F = (cp.b - cp.c) - cp.b * u + (cp.c - cp.a) * u**k + cp.a * u ** (k + 1.0)
    scale = cp.b + abs(cp.c - cp.a) + cp.a
    np.testing.assert_allclose(F, cp.c * u * m_factor(cp, 1.0 - u), rtol=0, atol=1e-12 * scale)
    signs = np.sign(F[np.abs(F) > 1e-10 * scale])
    assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1
    # G' is strictly decreasing where G is defined
    x_hi = 20.0 if cp.is_critical else min(20.0, math.log(cp.c / (cp.b - cp.c)) - 1e-3)
    x = np.linspace(-20.0, x_hi, 2001)
    e = np.exp(x)
    dG = cp.c - 1.0 - cp.a * e / (1.0 + e) + (cp.c - cp.b) * e / (cp.c + (cp.c - cp.b) * e)
    assert np.all(np.diff(dG) < 0)
    # the reported maximizer is a + -> - sign change of G
    res = maximize_halfline(objective_curve(cp))
    if res.attained:
        x, d = res.log_argopt, 1e-9 * max(1.0, abs(res.log_argopt))
        assert _G(cp, x - d) > 0 >= _G(cp, x + d)
