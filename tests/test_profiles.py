"""Radial profiles: quadrature norms, dilation algebra, cutoff families."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import attainkit as ak
from attainkit import (
    CurveParams,
    DivergentNormError,
    NormalizationError,
    ParamError,
    ProblemParams,
    Tail,
    build_truncated,
    build_u_star,
    build_w_lambda,
    dilate,
    evaluate_I,
    evaluate_J,
    log_lambda,
    normalize_scaled,
    norms,
    random_profiles,
    scale_amplitude,
    smoothstep_cutoff,
    smoothstep_cutoff_deriv,
    t_of,
    value_f,
    value_g,
)
from oracles import bubble_grad_moment_oracle, bubble_moment_oracle, sphere_area_oracle

N5 = 5
P2 = 2.0
Q_CRIT5 = 10.0 / 3.0


@pytest.fixture(scope="module")
def star5():
    return build_u_star(N5, P2)


@pytest.fixture(scope="module")
def star5_norms(star5):
    return norms(star5, p=P2, q=Q_CRIT5, gamma=2.5)


def test_bubble_norms_match_beta_oracle(star5, star5_norms):
    area = sphere_area_oracle(N5)
    want_lp = (area * bubble_moment_oracle(N5, P2, P2)) ** (1.0 / P2)
    want_lq = (area * bubble_moment_oracle(N5, P2, Q_CRIT5)) ** (1.0 / Q_CRIT5)
    want_grad = (area * bubble_grad_moment_oracle(N5, P2)) ** (1.0 / P2)
    assert star5_norms.lp.value == pytest.approx(want_lp, rel=1e-12)
    assert star5_norms.lq.value == pytest.approx(want_lq, rel=1e-12)
    assert star5_norms.grad_lp.value == pytest.approx(want_grad, rel=1e-12)
    # error bounds stay honest against the closed forms
    assert abs(star5_norms.lp.value - want_lp) <= star5_norms.lp.err_bound
    assert abs(star5_norms.lq.value - want_lq) <= star5_norms.lq.err_bound
    assert abs(star5_norms.grad_lp.value - want_grad) <= star5_norms.grad_lp.err_bound


def test_bubble_height_closed_form(star5):
    # (1 + r^{p'})^{-(N-p)/p} at r=1 for N=5, p=2
    assert star5.fn(1.0) == pytest.approx(2.0 ** (-1.5), rel=1e-15)
    assert star5.fn(0.0) == 1.0


def test_bubble_mass_diverges_in_low_dimension():
    with pytest.raises(DivergentNormError) as exc:
        norms(build_u_star(3, 2.0), p=2.0, q=6.0, gamma=2.5)
    assert exc.value.norm == "lp"


def test_bubble_mass_diverges_at_dimension_boundary():
    with pytest.raises(DivergentNormError):
        norms(build_u_star(4, 2.0), p=2.0, q=4.0, gamma=2.5)


@given(lam=st.floats(1e-4, 1e4))
def test_dilation_identities(star5, star5_norms, lam):
    moved = dilate(star5, lam, P2)
    got = norms(moved, p=P2, q=Q_CRIT5, gamma=2.5)
    assert got.lp.value == pytest.approx(star5_norms.lp.value, rel=1e-10)
    assert got.grad_lp.value == pytest.approx(
        star5_norms.grad_lp.value * lam ** (1.0 / N5), rel=1e-10)
    want_lq_q = star5_norms.lq.value ** Q_CRIT5 * lam ** (Q_CRIT5 / P2 - 1.0)
    assert got.lq.value ** Q_CRIT5 == pytest.approx(want_lq_q, rel=1e-10)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 42.0, 1e6])
def test_w_lambda_has_unit_constraint_norm(star5_norms, lam):
    gamma = 2.5
    w = build_w_lambda(N5, P2, lam, gamma, u_norms=star5_norms)
    got = norms(w, p=P2, q=Q_CRIT5, gamma=gamma)
    assert got.w_norm(gamma) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 42.0, 1e6])
def test_w_lambda_objective_equals_curve_value(crit5, constants_crit5, star5_norms, lam):
    gamma = crit5.gamma
    C = ak.kappa_multiplier(crit5, constants_crit5)
    cp = CurveParams.from_problem(crit5, C)
    w = build_w_lambda(N5, P2, lam, gamma, u_norms=star5_norms)
    t = lam ** (gamma / N5) * (star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
    J = evaluate_J(w, crit5)
    # the constrained objective along the dilation path is exactly the
    # one-dimensional objective curve
    assert J == pytest.approx(float(value_f(cp, t)), rel=1e-12)


def test_w_lambda_quotient_equals_ratio_curve(crit5, constants_crit5, star5_norms):
    gamma = crit5.gamma
    C = ak.kappa_multiplier(crit5, constants_crit5)
    cp = CurveParams.from_problem(crit5, C)
    lam = 7.5
    w = build_w_lambda(N5, P2, lam, gamma, u_norms=star5_norms)
    t = lam ** (gamma / N5) * (star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
    got = evaluate_I(w, crit5) * C
    assert got == pytest.approx(float(value_g(cp, t)), rel=1e-10)


def test_attained_maximizer_reaches_supremum(constants_crit5, star5_norms):
    pp = ProblemParams.local_critical(N=N5, p=P2, gamma=2.2, alpha=180.0)
    v = ak.classify(pp, constants_crit5)
    assert v.attained
    lam = math.exp(log_lambda(v.log_t_star, star5_norms, pp.gamma, N5))
    w = build_w_lambda(N5, P2, lam, pp.gamma, u_norms=star5_norms)
    assert evaluate_J(w, pp) == pytest.approx(v.D, rel=1e-9)


def test_lambda_tstar_roundtrip(star5_norms):
    gamma = 2.2
    for t_star in (1e-3, 1.0, 1e4):
        lam = math.exp(log_lambda(math.log(t_star), star5_norms, gamma, N5))
        t_back = lam ** (gamma / N5) * (
            star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
        assert t_back == pytest.approx(t_star, rel=1e-12)


def test_log_lambda_roundtrip_beyond_the_double_range(star5_norms):
    # t* = e^(+-2000) and its dilation hold in no double; their logs do
    gamma = 2.2
    log_ratio = math.log(star5_norms.grad_lp.value / star5_norms.lp.value)
    for log_t in (-2000.0, 2000.0):
        log_lam = log_lambda(log_t, star5_norms, gamma, N5)
        assert abs(log_lam) > 709.0
        assert gamma / N5 * log_lam + gamma * log_ratio == pytest.approx(log_t, rel=1e-14)
    with pytest.raises(ParamError):
        log_lambda(math.inf, star5_norms, gamma, N5)


def test_t_of_matches_norm_ratio(star5_norms):
    gamma = 2.5
    want = (star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
    assert t_of(star5_norms, gamma) == pytest.approx(want, rel=1e-14)


def test_smoothstep_cutoff_shape():
    assert smoothstep_cutoff(0.0) == 1.0
    assert smoothstep_cutoff(1.0) == 1.0
    assert smoothstep_cutoff(2.0) == 0.0
    assert smoothstep_cutoff(3.0) == 0.0
    rho = np.linspace(1.0, 2.0, 257)
    vals = smoothstep_cutoff(rho)
    assert np.all(np.diff(vals) <= 0.0)
    # C^1 at both junctions
    assert smoothstep_cutoff_deriv(1.0) == 0.0
    assert smoothstep_cutoff_deriv(2.0) == 0.0
    assert smoothstep_cutoff_deriv(1.5) < 0.0
    # derivative matches central differences in the transition zone
    h = 1e-6
    mid = np.linspace(1.05, 1.95, 19)
    fd = (smoothstep_cutoff(mid + h) - smoothstep_cutoff(mid - h)) / (2 * h)
    np.testing.assert_allclose(smoothstep_cutoff_deriv(mid), fd, rtol=1e-7, atol=1e-9)


def test_truncated_profile_support_is_exact():
    w = build_truncated(3, 2.0, R=10.0, gamma=3.0)
    assert w.tail.kind == "compact"
    assert w.fn(20.0) == 0.0
    assert w.fn(20.0 + 1e-9) == 0.0
    assert w.fn(19.999) > 0.0


def test_truncated_family_approaches_supremum(constants_crit3):
    pp = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    thr = ak.threshold_alpha(pp, constants_crit3)
    pp = dataclasses.replace(pp, alpha=2.0 * thr)
    D = ak.d_value(pp, constants_crit3)
    C = ak.kappa_multiplier(pp, constants_crit3)
    cp = CurveParams.from_problem(pp, C)
    log_t_star = ak.maximize_halfline(ak.objective_curve(cp)).log_argopt
    vals = []
    for R in (10.0, 100.0, 1000.0):
        base = build_truncated(3, 2.0, R=R, gamma=3.0)
        lam = math.exp(log_lambda(log_t_star, norms(base, 2.0, 6.0, 3.0), 3.0, 3))
        w = build_truncated(3, 2.0, R=R, gamma=3.0, lam=lam)
        vals.append(evaluate_J(w, pp))
    assert vals == sorted(vals)
    assert all(v <= D for v in vals)
    assert D - vals[-1] < 1e-2 * D


def test_normalize_scaled_restores_constraint(star5):
    bumped = scale_amplitude(star5, 3.7)
    w = normalize_scaled(bumped, p=P2, gamma=2.5)
    got = norms(w, p=P2, q=Q_CRIT5, gamma=2.5)
    assert got.w_norm(2.5) == pytest.approx(1.0, rel=1e-12)


def test_evaluate_j_requires_normalization(star5, crit5):
    with pytest.raises(NormalizationError):
        evaluate_J(star5, crit5)  # the raw bubble is far from unit constraint norm


def test_evaluate_j_rejects_fractional_params(star5):
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=1.0, alpha=1.0)
    w = normalize_scaled(star5, p=P2, gamma=1.0)
    with pytest.raises(ParamError):
        evaluate_J(w, pp)


def test_random_profiles_deterministic_and_nonnegative():
    a = random_profiles(5, N=N5, seed=2024)
    b = random_profiles(5, N=N5, seed=2024)
    assert len(a) == 5
    for pa, pb in zip(a, b):
        r = np.geomspace(1e-4, 50.0, 200)
        np.testing.assert_array_equal(pa.fn(r), pb.fn(r))
        assert np.all(pa.fn(r) >= 0.0)
        assert pa.tail.kind == "compact"


def test_random_profiles_envelope(crit5, constants_crit5):
    # every admissible profile sits under the one-dimensional objective curve
    C = ak.kappa_multiplier(crit5, constants_crit5)
    cp = CurveParams.from_problem(crit5, C)
    for prof in random_profiles(20, N=N5, seed=7):
        w = normalize_scaled(prof, p=P2, gamma=crit5.gamma)
        nm = norms(w, p=P2, q=Q_CRIT5, gamma=crit5.gamma)
        t = t_of(nm, crit5.gamma)
        assert evaluate_J(w, crit5) <= float(value_f(cp, t)) + 1e-8


def _counting(profile):
    """The profile with fn/dfn wrapped to record the radii of every call."""
    calls = {"fn": [], "dfn": []}

    def wrap(name, f):
        def counted(r):
            calls[name].append(float(np.max(r)))
            return f(r)
        return counted

    return dataclasses.replace(profile, fn=wrap("fn", profile.fn),
                               dfn=wrap("dfn", profile.dfn)), calls


def test_norms_sample_a_compact_profile_once():
    prof, calls = _counting(random_profiles(1, N=N5, seed=11)[0])
    norms(prof, p=P2, q=Q_CRIT5, gamma=2.5)
    assert len(calls["fn"]) == 1 and len(calls["dfn"]) == 1


def test_norms_sample_the_bubble_once_per_cut_off(star5, star5_norms):
    prof, calls = _counting(star5)
    got = norms(prof, p=P2, q=Q_CRIT5, gamma=2.5)
    assert got == star5_norms
    # the mass and q moments decay at different rates, so their cut-offs differ
    assert len(calls["fn"]) == len(set(calls["fn"])) == 2
    assert len(calls["dfn"]) == 1


def test_tail_validation():
    with pytest.raises(ParamError):
        Tail(kind="exponential", rate=1.0)
    with pytest.raises(ParamError):
        Tail(kind="compact", rate=1.0, support=-2.0)
