"""Self-verification suite: every stock check passes, reports stay coherent."""

import dataclasses
import importlib

import pytest

import attainkit.profiles as profiles
import attainkit.verify as verify
from attainkit import (
    CheckReport,
    NumericalError,
    run_all,
    run_derivative_checks,
    run_envelope,
    run_monotonicity_scan,
    run_truth_table,
)


@pytest.fixture(scope="module")
def reports():
    return run_all(seed=2024)


@pytest.fixture
def gns_calls(monkeypatch, gns_224):
    """The arguments of every interpolation-constant solve, each answered
    with the session's (2, 2, 4) estimate."""
    calls = []

    def counting(N, p, q):
        calls.append((N, p, q))
        return gns_224

    # the package re-exports the function classify under the module's name
    classify_mod = importlib.import_module("attainkit.classify")
    monkeypatch.setattr(classify_mod, "gns_constant_estimate", counting)
    return calls


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


def test_run_all_solves_the_ground_state_once(gns_calls):
    reports = run_all(seed=7)
    assert all(rep.passed for rep in reports)
    assert gns_calls == [(2, 2.0, 4.0)]


def test_truth_table_resolves_its_own_constants():
    rep = run_truth_table()
    assert rep.passed
    assert rep.n_cases >= 20


def test_truth_table_reports_mismatches_and_raises(monkeypatch, gns_calls):
    real = verify.classify

    def faulty(params, constants=None):
        if params.N == 5 and params.s is None and params.gamma == 3.8 and params.alpha == 0.05:
            return dataclasses.replace(real(params, constants), attained=False)
        if params.N == 2 and params.gamma == 2.5 and params.alpha == 0.01:
            raise NumericalError("injected")
        return real(params, constants)

    monkeypatch.setattr(verify, "classify", faulty)
    rep = run_truth_table()
    assert rep.passed is False
    assert rep.worst_violation == 2.0
    assert ("crit beyond top exponent, any alpha: attained=False, expected True"
            in rep.details)
    assert ("subcrit beyond top exponent, any alpha: raised NumericalError: injected"
            in rep.details)


def test_envelope_deterministic_under_seed():
    a = run_envelope(n_profiles=50, seed=11)
    b = run_envelope(n_profiles=50, seed=11)
    assert a.worst_violation == b.worst_violation
    assert a.passed and b.passed


def test_envelope_integrates_each_random_profile_once(monkeypatch):
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
        assert run_envelope(n_profiles=n).passed
        assert len(calls) == 1 + 1 + 3
        assert [len(c) for c in calls[:2]] == [n, 50]


def test_derivative_checks_scale_down():
    rep = run_derivative_checks(n_points=500)
    assert rep.passed
    # points x curve cases x two signs, and the five attained optima
    assert rep.n_cases == 500 * 5 * 2 + 5


def test_monotonicity_scan_resolves_its_own_constant():
    rep = run_monotonicity_scan()
    assert rep.passed


def test_monotonicity_scan_reports_an_increase(monkeypatch):
    threshold_alpha = verify.threshold_alpha

    def bumped(params, constants):
        thr = threshold_alpha(params, constants)
        return 1.5 * thr if 2.6 < params.gamma < 2.7 else thr

    monkeypatch.setattr(verify, "threshold_alpha", bumped)
    rep = run_monotonicity_scan()
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
