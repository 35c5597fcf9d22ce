"""Sharp constants: Sobolev closed form, ascent estimate, user-supplied values."""

import math

import numpy as np
import pytest

from attainkit import (
    ParamError,
    fractional_constant,
    gns_constant_estimate,
    sobolev_constant,
    sphere_area,
)
from oracles import (
    FROZEN_INTERPOLATION_B_2_2_4,
    FROZEN_SOBOLEV_50_DIGITS,
    bubble_moment_oracle,
    sobolev_constant_oracle,
    sphere_area_oracle,
)

PAIRS = [(3, 2.0), (4, 2.0), (5, 2.0), (5, 2.5), (4, 1.5),
         (6, 3.0), (7, 2.2), (8, 2.0), (5, 1.25), (10, 4.0)]


@pytest.mark.parametrize("N,p", PAIRS)
def test_sobolev_matches_beta_oracle(N, p):
    got = sobolev_constant(N, p)
    want = sobolev_constant_oracle(N, p)
    assert got.value == pytest.approx(want, rel=1e-12)
    assert got.method == "closed-form"
    assert got.err_bound >= abs(got.value - want)


@pytest.mark.parametrize("N,p", sorted(FROZEN_SOBOLEV_50_DIGITS))
def test_sobolev_matches_50_digit_values_near_endpoints(N, p):
    # p -> N, where the bubble's norms nearly diverge
    want = FROZEN_SOBOLEV_50_DIGITS[N, p]
    got = sobolev_constant(N, p)
    assert abs(got.value - want) <= got.err_bound
    assert got.value == pytest.approx(want, rel=1e-14)


def test_sobolev_meta_fields():
    got = sobolev_constant(5, 2.0)
    assert got.meta == {"N": 5, "p": 2.0}


@pytest.mark.parametrize("N,p", [(5, 5.0), (5, 1.0), (1, 0.5), (5, 0.0)])
def test_sobolev_rejects_bad_parameters(N, p):
    with pytest.raises(ParamError):
        sobolev_constant(N, p)


@pytest.mark.parametrize("N,want", [
    (2, 2.0 * math.pi),
    (3, 4.0 * math.pi),
    (4, 2.0 * math.pi**2),
    (5, 8.0 * math.pi**2 / 3.0),
])
def test_sphere_area_closed_forms(N, want):
    assert sphere_area(N) == pytest.approx(want, rel=1e-14)
    assert sphere_area(N) == pytest.approx(sphere_area_oracle(N), rel=1e-14)


def test_bubble_moment_oracle_rejects_divergent():
    with pytest.raises(ValueError):
        bubble_moment_oracle(3, 2.0, 2.0)  # mass moment diverges in low dimension


def test_gns_estimate_is_a_lower_bound(gns_small):
    # coordinate ascent only ever evaluates admissible profiles
    assert gns_small.value <= FROZEN_INTERPOLATION_B_2_2_4 * (1.0 + 1e-9)


def test_gns_estimate_close_to_reference(gns_small):
    rel = abs(gns_small.value - FROZEN_INTERPOLATION_B_2_2_4) / FROZEN_INTERPOLATION_B_2_2_4
    assert rel < 1e-3


def test_gns_err_bound_honest(gns_small):
    true_err = FROZEN_INTERPOLATION_B_2_2_4 - gns_small.value
    assert gns_small.err_bound >= true_err > 0.0


def test_gns_ascent_log_monotone(gns_small):
    log = np.asarray(gns_small.meta["ascent_log"])
    assert np.all(np.diff(log) >= -1e-15)
    levels = np.asarray(gns_small.meta["level_values"])
    assert np.all(np.diff(levels) >= 0.0)


def test_gns_meta_coherent(gns_small):
    assert gns_small.method == "ascent-estimate"
    assert gns_small.meta["N"] == 2
    assert gns_small.meta["q"] == 4.0
    assert gns_small.meta["sweeps"] == len(gns_small.meta["ascent_log"])
    grid = np.asarray(gns_small.meta["grid"])
    prof = np.asarray(gns_small.meta["profile"])
    assert grid.shape == prof.shape
    assert prof[0] == pytest.approx(1.0)  # normalized height at the origin
    assert prof[-1] == 0.0  # clamped at the outer radius
    assert np.all(prof >= 0.0)


def test_gns_rejects_bad_parameters():
    with pytest.raises(ParamError):
        gns_constant_estimate(2, 2.0, 2.0)  # q must exceed p
    with pytest.raises(ParamError):
        gns_constant_estimate(2, 2.0, 4.0, budget=0)


def test_fractional_constant_passthrough():
    got = fractional_constant(1.7)
    assert got.value == 1.7
    assert got.method == "user-input"
    assert got.err_bound == 0.0
    assert got.meta["source"] == "user"


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_fractional_constant_rejects_nonpositive(bad):
    with pytest.raises(ParamError):
        fractional_constant(bad)
