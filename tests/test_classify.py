"""Attainability verdicts: decision table, thresholds, constants resolution."""

import dataclasses
import importlib
import math
import re

import numpy as np
import pytest

import attainkit as ak
from attainkit import (
    ConstantSet,
    CurveParams,
    NumericalError,
    ParamError,
    ProblemParams,
    Reason,
    classify,
    fractional_constant,
    gamma_threshold_exponent,
    log_kappa_multiplier,
    maximize_halfline,
    maximizer,
    resolve_constants,
    threshold_alpha,
)

P_STAR_5 = 10.0 / 3.0


def test_threshold_zero_above_upper_gamma(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=3.5)
    assert threshold_alpha(pp, constants_crit5) == 0.0


def test_threshold_closed_form_at_upper_gamma(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=P_STAR_5)
    C = math.exp(log_kappa_multiplier(pp, constants_crit5))
    assert threshold_alpha(pp, constants_crit5) == pytest.approx(
        2.0 / (P_STAR_5 * C), rel=1e-12)


@pytest.mark.parametrize("gamma", [1.2, 2.0])
def test_threshold_flat_band_low_gamma(crit5, constants_crit5, gamma):
    pp = dataclasses.replace(crit5, gamma=gamma)
    C = math.exp(log_kappa_multiplier(pp, constants_crit5))
    assert threshold_alpha(pp, constants_crit5) == pytest.approx(1.0 / C, rel=1e-12)


def test_threshold_interior_below_flat_band(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=2.2)
    C = math.exp(log_kappa_multiplier(pp, constants_crit5))
    thr = threshold_alpha(pp, constants_crit5)
    assert 0.0 < thr < 1.0 / C


def test_threshold_subcritical_closed_form_at_gamma_c(sub224, constants_sub224):
    gamma_c = gamma_threshold_exponent(2, 2.0, 4.0)
    pp = dataclasses.replace(sub224, gamma=gamma_c)
    thr = threshold_alpha(pp, constants_sub224)
    B = constants_sub224.interpolation.value
    assert thr == pytest.approx(2.0 / (gamma_c * B), rel=1e-12)


def test_interior_band_alpha_sweep(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=2.2)
    thr = threshold_alpha(pp, constants_crit5)
    below = classify(dataclasses.replace(pp, alpha=0.5 * thr), constants_crit5)
    assert (below.attained, below.reason) == (False, Reason.BELOW_THRESHOLD)
    assert below.closed_form_D == 1.0 and below.D == pytest.approx(1.0, abs=1e-9)
    # equality wins on the interior band
    at = classify(dataclasses.replace(pp, alpha=thr), constants_crit5)
    assert (at.attained, at.reason) == (True, Reason.UNIQUE_INTERIOR_MAX)
    above = classify(dataclasses.replace(pp, alpha=2.0 * thr), constants_crit5)
    assert above.attained and above.t_star is not None
    assert above.D > 1.0


def test_upper_boundary_equality_loses_critical(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=P_STAR_5)
    thr = threshold_alpha(pp, constants_crit5)
    at = classify(dataclasses.replace(pp, alpha=thr), constants_crit5)
    assert not at.attained
    assert at.reason == Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR
    assert at.closed_form_D == 1.0
    above = classify(dataclasses.replace(pp, alpha=thr * (1 + 1e-6)), constants_crit5)
    assert above.attained


def test_upper_boundary_equality_loses_subcritical(sub224, constants_sub224):
    gamma_c = gamma_threshold_exponent(2, 2.0, 4.0)
    pp = dataclasses.replace(sub224, gamma=gamma_c)
    thr = threshold_alpha(pp, constants_sub224)
    at = classify(dataclasses.replace(pp, alpha=thr), constants_sub224)
    assert not at.attained
    assert at.reason == Reason.AT_THRESHOLD_GAMMA_EQ_GAMMA_C


def test_gamma_snap_to_upper_boundary(crit5, constants_crit5):
    exact = dataclasses.replace(crit5, gamma=P_STAR_5)
    snapped = dataclasses.replace(crit5, gamma=P_STAR_5 * (1 + 1e-13))
    assert threshold_alpha(snapped, constants_crit5) == threshold_alpha(
        exact, constants_crit5)


def test_alpha_snap_to_threshold(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=P_STAR_5)
    thr = threshold_alpha(pp, constants_crit5)
    v = classify(dataclasses.replace(pp, alpha=thr * (1 + 1e-12)), constants_crit5)
    assert v.reason == Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR


# p near N: C = S^(p*) is about 1e50, so the threshold is about 1e-50
NEAR_N = dict(N=9, p=8.084487398446278, gamma=78.56235771963881)


def test_alpha_snap_is_relative_for_tiny_thresholds():
    pp = ProblemParams.local_critical(**NEAR_N, alpha=1.0)
    thr = threshold_alpha(pp)
    assert 0.0 < thr < 1e-49
    # a weight 67 times the threshold is above it, not a tie
    above = classify(dataclasses.replace(pp, alpha=6.2172084484482235e-49))
    assert above.threshold == thr
    assert above.reason == Reason.SOBOLEV_NOT_ATTAINED  # p*p >= N
    assert above.closed_form_D is None
    assert above.D > 1.0
    # below the threshold the table's closed form D = 1 holds
    below = classify(dataclasses.replace(pp, alpha=0.5 * thr))
    assert below.closed_form_D == 1.0
    assert below.D == pytest.approx(1.0, rel=1e-9)


def test_alpha_snap_tolerance_scales_with_the_threshold():
    pp = ProblemParams.local_critical(N=5, p=2.0, gamma=P_STAR_5, alpha=1.0)
    cs = ConstantSet(sobolev=ak.SharpConstant(
        value=1e3, method="user-input", err_bound=0.0, meta={}))
    thr = threshold_alpha(pp, cs)
    assert thr < 1e-9  # an absolute 1e-11 snap would swallow 1e-3 relative
    at = classify(dataclasses.replace(pp, alpha=thr * (1 + 1e-12)), cs)
    assert at.reason == Reason.AT_THRESHOLD_CRITICAL_GAMMA_EQ_PSTAR
    above = classify(dataclasses.replace(pp, alpha=thr * (1 + 1e-3)), cs)
    assert above.attained


def test_classify_validates_and_resolves_once(monkeypatch, crit5):
    # the package re-exports the function classify under the module's name
    classify_mod = importlib.import_module("attainkit.classify")
    params_mod = importlib.import_module("attainkit.params")
    calls = {"validate": 0, "sobolev": 0}
    validate, sobolev = params_mod.validate, classify_mod.sobolev_constant

    def counting_validate(params):
        calls["validate"] += 1
        return validate(params)

    def counting_sobolev(N, p):
        calls["sobolev"] += 1
        return sobolev(N, p)

    monkeypatch.setattr(params_mod, "validate", counting_validate)
    monkeypatch.setattr(classify_mod, "sobolev_constant", counting_sobolev)
    v = classify(dataclasses.replace(crit5, gamma=3.0, alpha=500.0))
    assert v.attained
    assert calls == {"validate": 1, "sobolev": 1}


def test_kappa_multiplier_names_the_missing_constant():
    params = ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)
    with pytest.raises(ParamError, match=r"ConstantSet\.sobolev") as err:
        log_kappa_multiplier(params, ConstantSet())
    assert err.value.code == "constants"


def test_classify_refuses_a_constant_resolved_for_another_problem(crit5, constants_sub224):
    with pytest.raises(ParamError) as err:
        classify(ProblemParams.local_critical(N=6, p=2.0, gamma=2.5, alpha=1.0),
                 resolve_constants(crit5))
    assert err.value.code == "constants"
    sub223 = ProblemParams.local(N=2, p=2.0, q=3.0, gamma=0.8, alpha=1.0)
    with pytest.raises(ParamError) as err:
        classify(sub223, constants_sub224)
    assert err.value.code == "constants"
    # a user-supplied B names no problem, so it is taken as given
    user_b = ConstantSet(interpolation=ak.SharpConstant(
        value=0.17, method="user-input", err_bound=0.0, meta={"source": "ODE shooting"}))
    assert classify(sub223, user_b).threshold == threshold_alpha(sub223, user_b) > 0.0


def _patched_maximum(monkeypatch, **fields):
    """Make classify read its objective maximum with ``fields`` replaced."""
    classify_mod = importlib.import_module("attainkit.classify")
    real = classify_mod.maximize_halfline
    monkeypatch.setattr(classify_mod, "maximize_halfline",
                        lambda cp: dataclasses.replace(real(cp), **fields))


def test_classify_refuses_a_d_off_its_closed_form(monkeypatch, crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=3.0)
    below = dataclasses.replace(pp, alpha=0.9 * threshold_alpha(pp, constants_crit5))
    _patched_maximum(monkeypatch, log_value=math.log(1.5))
    with pytest.raises(NumericalError, match="disagrees with closed form"):
        classify(below, constants_crit5)


def test_classify_refuses_an_attained_verdict_without_interior_maximum(
        monkeypatch, crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=3.0)
    above = dataclasses.replace(pp, alpha=1.1 * threshold_alpha(pp, constants_crit5))
    _patched_maximum(monkeypatch, log_argopt=None)
    with pytest.raises(NumericalError, match="no interior maximum"):
        classify(above, constants_crit5)


@pytest.mark.parametrize("gamma", [1.5, 2.0])
@pytest.mark.parametrize("alpha_x_c", [0.25, 4.0])
def test_convexity_band_never_attained(crit5, constants_crit5, gamma, alpha_x_c):
    C = math.exp(log_kappa_multiplier(crit5, constants_crit5))
    pp = dataclasses.replace(crit5, gamma=gamma, alpha=alpha_x_c / C)
    v = classify(pp, constants_crit5)
    assert not v.attained
    assert v.reason == Reason.CONVEXITY_EXCLUSION
    assert v.closed_form_D == pytest.approx(max(1.0, alpha_x_c), rel=1e-12)
    assert v.D == pytest.approx(max(1.0, alpha_x_c), abs=1e-9)


def test_above_upper_gamma_attained_for_every_weight(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=3.5, alpha=1e-6)
    v = classify(pp, constants_crit5)
    assert v.attained and v.reason == Reason.UNIQUE_INTERIOR_MAX
    assert v.threshold == 0.0
    # the optimum sits where f exceeds its limit by far less than one ulp;
    # the root of the derivative sign still locates it
    assert v.t_star is not None and 0.0 < v.t_star < 1e-100
    assert v.log_t_star == pytest.approx(math.log(v.t_star), rel=1e-15)
    # roots beyond the double range of t: no t_star, but log t* all the same
    frac = ConstantSet(fractional=fractional_constant(1.7))
    for pp, cs, log_t_star in [
        (ProblemParams.local_critical(N=5, p=2.0, gamma=1.001 * P_STAR_5, alpha=1.0),
         None, -3985.54),
        # gamma only 1.6e-5 above gamma_c
        (ProblemParams.fractional(N=5, s=0.6, q=2.2, gamma=0.8333469073689064,
                                  alpha=0.037747494237528545), frac, -222344.57),
    ]:
        v = classify(pp, cs)
        assert v.attained and v.reason == Reason.UNIQUE_INTERIOR_MAX
        assert v.threshold == 0.0 and v.D == 1.0
        assert v.log_t_star == pytest.approx(log_t_star, abs=0.01)
        assert v.t_star is None


def test_maximizer_beyond_the_double_range():
    # the left root of the derivative sign, a local minimum of f at
    # t = 2.5e-10, was once reported as the maximizer
    pp = ProblemParams.local_critical(N=6, p=1.05, gamma=1.0502312310584088,
                                      alpha=1295.8598210709758)
    v = classify(pp)
    assert v.attained and v.reason == Reason.UNIQUE_INTERIOR_MAX
    assert v.log_t_star == pytest.approx(21277.9414, abs=1e-4)
    assert v.t_star is None
    assert v.D == pytest.approx(89.3379053244701, rel=1e-13)


def test_sobolev_power_beyond_the_double_range_is_a_numerical_error():
    # p near N: C = S^(p*) has log10 C = 584.7, which no double holds; it is
    # carried as its log up to D >= kappa, log10 kappa = 582.06
    pp = ProblemParams.local_critical(N=7, p=6.894565257874503,
                                      gamma=828.9233299212391,
                                      alpha=0.0021439433224140457)
    cs = resolve_constants(pp)
    assert log_kappa_multiplier(pp, cs) / math.log(10.0) == pytest.approx(584.72, abs=0.01)
    with pytest.raises(NumericalError, match=r"^D leaves the double range: log10 D = 582\.05"):
        classify(pp, cs)
    assert threshold_alpha(pp, cs) == 0.0


def test_threshold_beyond_the_double_range_is_a_numerical_error(sub224, constants_sub224):
    # inf g is finite at gamma = 2^-8, but inf g / B(2,2,4) is no double; the
    # threshold once came out inf, and classify then called alpha = 1 a tie
    pp = dataclasses.replace(sub224, gamma=2.0 ** -8)
    with pytest.raises(NumericalError, match=r"log10 threshold = 309\.02"):
        threshold_alpha(pp, constants_sub224)
    with pytest.raises(NumericalError, match=r"log10 threshold = 309\.02"):
        classify(pp, constants_sub224)


def test_kappa_beyond_the_double_range_is_a_numerical_error():
    # alpha and C are each valid; D >= alpha * C = 1e310 is not a double, and
    # only filling the verdict's D finds that out
    cset = ConstantSet(fractional=fractional_constant(1e10))
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=2.3, alpha=1e300)
    with pytest.raises(NumericalError, match=r"^D leaves the double range: log10 D = 3(09\.9|10\.0)"):
        classify(pp, cset)
    # the threshold never reads the weight
    assert threshold_alpha(pp, cset) == threshold_alpha(
        dataclasses.replace(pp, alpha=1.0), cset)


def test_critical_local_probe_fails_only_where_the_verdict_is_filled():
    # N in 2..9, p up to N - 0.05, gamma = p* e^U(-1,1), alpha = 10^U(-6,3):
    # C = S^(p*) and kappa reach 1e2495 here, and every value before the
    # verdict is a log, so the one failure is a D or threshold no double holds
    classify_mod = importlib.import_module("attainkit.classify")
    rng = np.random.default_rng(1)
    for _ in range(1500):
        N = int(rng.integers(2, 10))
        p = float(rng.uniform(1.05, N - 0.05))
        gamma = ak.critical_exponent(N, p) * math.exp(rng.uniform(-1.0, 1.0))
        pp = ProblemParams.local_critical(N=N, p=p, gamma=gamma,
                                          alpha=10.0 ** rng.uniform(-6.0, 3.0))
        try:
            assert isinstance(classify(pp), ak.Verdict)
            continue
        except NumericalError as exc:
            assert re.match(r"(D|threshold) leaves the double range: log10 \1 = ", str(exc)), exc
        log_C = log_kappa_multiplier(pp, resolve_constants(pp))
        cp = CurveParams.from_problem(pp, log_C=log_C)
        band = classify_mod._gamma_band(pp)
        log_thr = classify_mod._log_threshold(cp, band, pp, log_C)
        assert math.isfinite(log_C) and math.isfinite(maximize_halfline(cp).log_value)
        assert math.isfinite(log_thr) or (band == "gt_upper" and log_thr == -math.inf)


def test_threshold_alpha_does_not_read_the_weight():
    # alpha * C = 1e310 overflows at alpha = 1e300; the threshold is the
    # same number at every admissible weight, and a negative one is refused
    cset = ConstantSet(fractional=fractional_constant(1e10))
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=2.3, alpha=0.0)
    thr = threshold_alpha(pp, cset)
    assert 0.0 < thr < math.inf
    for alpha in (1.0, 1e300):
        assert threshold_alpha(dataclasses.replace(pp, alpha=alpha), cset) == thr
    with pytest.raises(ParamError) as err:
        threshold_alpha(dataclasses.replace(pp, alpha=-1.0), cset)
    assert err.value.code == "alpha"


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_threshold_and_verdict_refuse_a_degenerate_constant(value):
    cset = ConstantSet(fractional=ak.SharpConstant(
        value=value, method="user-input", err_bound=0.0, meta={}))
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=2.3, alpha=1.0)
    for solve in (threshold_alpha, classify):
        with pytest.raises(ParamError):
            solve(pp, cset)


def test_energy_space_obstruction_beats_everything(constants_crit3):
    for alpha in (2.0, 0.0):
        pp = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=alpha)
        v = classify(pp, constants_crit3)
        assert not v.attained
        assert v.reason == Reason.SOBOLEV_NOT_ATTAINED
        assert v.t_star is None


def test_energy_space_obstruction_at_dimension_boundary():
    pp = ProblemParams.local_critical(N=4, p=2.0, gamma=3.0, alpha=1.0)
    v = classify(pp)
    assert v.reason == Reason.SOBOLEV_NOT_ATTAINED


def test_alpha_zero_refused(crit5, constants_crit5):
    v = classify(dataclasses.replace(crit5, alpha=0.0), constants_crit5)
    assert not v.attained
    assert v.reason == Reason.ALPHA_ZERO
    assert v.D == pytest.approx(1.0, abs=1e-12)


def test_fractional_low_gamma_convexity():
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=1.0, alpha=1.0)
    cset = ConstantSet(sobolev=None, interpolation=None,
                       fractional=fractional_constant(1.7))
    v = classify(pp, cset)
    assert not v.attained
    assert v.reason == Reason.CONVEXITY_EXCLUSION
    assert v.D == pytest.approx(1.7, abs=1e-9)
    assert threshold_alpha(pp, cset) == pytest.approx(1.0 / 1.7, rel=1e-12)


def test_d_value_matches_direct_optimization(crit5, constants_crit5):
    pp = dataclasses.replace(crit5, gamma=2.2, alpha=180.0)
    cp = CurveParams.from_problem(pp, log_C=log_kappa_multiplier(pp, constants_crit5))
    direct = maximize_halfline(cp).value
    assert classify(pp, constants_crit5).D == direct


def test_threshold_curve_monotone(crit5, constants_crit5):
    grid = np.linspace(0.5, 3.5, 60)
    thr = np.array([threshold_alpha(dataclasses.replace(crit5, gamma=float(g)), constants_crit5)
                    for g in grid])
    assert np.all(np.diff(thr) <= 0.0)
    assert thr[-1] == 0.0  # beyond the upper boundary
    # strictly decreasing between the base exponent and the upper boundary
    interior = (grid > crit5.p) & (grid < crit5.exponents.gamma_crit)
    assert np.all(np.diff(thr[interior]) < 0.0)


def test_resolve_constants_fills_only_whats_needed(crit5, constants_crit5):
    assert constants_crit5.sobolev is not None
    assert constants_crit5.interpolation is None
    assert constants_crit5.fractional is None
    # already-resolved sets pass through unchanged
    again = resolve_constants(crit5, constants_crit5)
    assert again.sobolev is constants_crit5.sobolev


def test_resolve_constants_fractional_requires_user_value():
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=1.0, alpha=1.0)
    with pytest.raises(ParamError):
        resolve_constants(pp)


def test_verdict_is_frozen(crit5, constants_crit5):
    v = classify(crit5, constants_crit5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.attained = not v.attained


def test_reason_values_are_stable_strings():
    assert {r.value for r in Reason} == {
        "UniqueInteriorMax", "SobolevNotAttained", "BelowThreshold",
        "AtThresholdCriticalGammaEqPstar", "AtThresholdGammaEqGammaC",
        "ConvexityExclusion", "AlphaZero",
    }


def test_maximizer_not_attained_is_the_verdict_alone(constants_crit5):
    pp = ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=1.0)
    v, m = maximizer(pp, constants_crit5)
    assert m is None
    assert v == classify(pp, constants_crit5)


def test_maximizer_record_is_the_dilated_bubble_and_its_table(constants_crit5):
    pp = ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=180.0)
    v, m = maximizer(pp, constants_crit5)
    assert v.attained and v == classify(pp, constants_crit5)
    # J_check (u*'s Beta quotient) and D (Talenti's S^q) are one number
    assert abs(m.J_check / v.D - 1.0) <= 1e-12
    assert np.array_equal(m.r, np.geomspace(1e-6, 1e4 * math.exp(-m.log_lambda / 5), 512))
    assert np.array_equal(m.u, m.profile.fn(m.r))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.J_check = v.D


@pytest.mark.parametrize("N, p, gamma, alpha", [
    # every table value underflows to 0
    (5, 1.1631349678042815, 1.5279296246780214, 0.7171446680322642),
    # the table's upper end 1e4 / lambda^(1/N) falls below 1e-6
    (6, 1.4816022339544004, 1.601090150748497, 2084.669766919404),
    # log t* fits a double, lambda = e^1630.8 does not
    (4, 1.1288511685911895, 1.1441906154006172, 6627.618803705305),
])
def test_maximizer_table_outside_the_double_range_is_a_numerical_error(N, p, gamma, alpha):
    pp = ProblemParams.local_critical(N=N, p=p, gamma=gamma, alpha=alpha)
    with pytest.raises(NumericalError, match="log lambda = "):
        maximizer(pp)


def test_maximizer_tolerance(constants_crit5):
    pp = ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=180.0)
    with pytest.raises(NumericalError, match="relative tolerance 1e-18"):
        maximizer(pp, constants_crit5, tol=1e-18)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ParamError) as exc:
            maximizer(pp, constants_crit5, tol=tol)
        assert exc.value.code == "tol"
