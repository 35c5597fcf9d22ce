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
def reports():
    return run_all(seed=2024)


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


def test_envelope_deterministic_under_seed():
    a = run_envelope(n_profiles=50, seed=11)
    b = run_envelope(n_profiles=50, seed=11)
    assert a.worst_violation == b.worst_violation
    assert a.passed and b.passed


def test_envelope_integrates_each_random_profile_once(monkeypatch):
    # the normalized copy's norms follow from the profile's by amplitude
    # scaling, so one more random profile costs one more quadrature
    calls = []
    real = profiles.norms

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(profiles, "norms", counting)
    monkeypatch.setattr(verify, "norms", counting)
    counts = []
    for n in (10, 20):
        calls.clear()
        assert run_envelope(n_profiles=n).passed
        counts.append(len(calls))
    assert counts[1] - counts[0] == 10


def test_derivative_checks_scale_down():
    rep = run_derivative_checks(n_points=500)
    assert rep.passed
    assert rep.n_cases == 500 * 5 * 2  # points x curve cases x two factors


def test_monotonicity_scan_with_constants(constants_crit5):
    rep = run_monotonicity_scan(constants_crit5)
    assert rep.passed


def test_from_violations_empty_list_passes():
    rep = CheckReport.from_violations(
        name="empty", violations=[], n_cases=0, details=["nothing to check"])
    assert rep.passed
    assert rep.worst_violation <= 0.0


def test_from_violations_positive_excess_fails():
    rep = CheckReport.from_violations(
        name="bad", violations=[1e-9], n_cases=1, details=["one excess"])
    assert not rep.passed
