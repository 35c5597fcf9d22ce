"""Self-verification suite: every stock check passes, reports stay coherent."""

import pytest

import attainkit.profiles as profiles
import attainkit.verify as verify
from attainkit import (
    CheckReport,
    run_all,
    run_derivative_checks,
    run_envelope,
    run_monotonicity_scan,
    run_truth_table,
)


@pytest.fixture(scope="module")
def reports(suite_constants):
    return run_all(seed=2024, constants=suite_constants)


def test_run_all_produces_the_four_stock_checks(reports):
    assert [r.name for r in reports] == [
        "truth_table", "envelope", "derivative_signs", "threshold_monotonicity"]


def test_run_all_passes(reports):
    for rep in reports:
        assert rep.passed, f"{rep.name}: worst={rep.worst_violation} {rep.details}"


def test_report_invariant(reports):
    for rep in reports:
        assert rep.passed == (rep.worst_violation <= rep.tolerance)
        assert rep.n_cases > 0
        assert rep.details


def test_truth_table_with_prebuilt_constants(suite_constants):
    rep = run_truth_table(suite_constants)
    assert rep.passed
    assert rep.n_cases >= 20


def test_envelope_deterministic_under_seed(suite_constants):
    a = run_envelope(suite_constants, n_profiles=50, seed=11)
    b = run_envelope(suite_constants, n_profiles=50, seed=11)
    assert a.worst_violation == b.worst_violation
    assert a.passed and b.passed


def test_envelope_integrates_each_random_profile_once(monkeypatch, suite_constants):
    # J of a normalized dilation follows from the profile's own norms, so
    # the random family costs one batched quadrature and each cut bubble
    # one; the bubble's 50 explicitly dilated copies are one more family
    # (its own norms are closed forms)
    calls = []
    real = profiles.norms

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def no_classify(*args, **kwargs):
        raise AssertionError("the truncated family maximizes its curve once")

    monkeypatch.setattr(profiles, "norms", counting)
    monkeypatch.setattr(verify, "norms", counting)
    monkeypatch.setattr(verify, "classify", no_classify)
    for n in (10, 20):
        calls.clear()
        assert run_envelope(suite_constants, n_profiles=n).passed
        assert len(calls) == 1 + 1 + 3
        assert [len(c) for c in calls[:2]] == [n, 50]


def test_derivative_checks_scale_down(suite_constants):
    rep = run_derivative_checks(suite_constants, n_points=500)
    assert rep.passed
    # points x curve cases x two signs, and the five attained optima
    assert rep.n_cases == 500 * 5 * 2 + 5


def test_monotonicity_scan_with_constants(constants_crit5):
    rep = run_monotonicity_scan(constants_crit5)
    assert rep.passed


def test_monotonicity_scan_reports_an_increase(constants_crit5, monkeypatch):
    threshold_alpha = verify.threshold_alpha

    def bumped(params, constants):
        thr = threshold_alpha(params, constants)
        return 1.5 * thr if 2.6 < params.gamma < 2.7 else thr

    monkeypatch.setattr(verify, "threshold_alpha", bumped)
    rep = run_monotonicity_scan(constants_crit5)
    assert rep.passed is False
    assert rep.worst_violation > 0.0


def test_from_violations_empty_list_passes():
    rep = CheckReport.from_violations(
        name="empty", violations=[], n_cases=0, details=["nothing to check"])
    assert rep.passed
    assert rep.worst_violation <= 0.0


def test_from_violations_positive_excess_fails():
    rep = CheckReport.from_violations(
        name="bad", violations=[1e-9], n_cases=1, details=["one excess"])
    assert not rep.passed
