"""Sharp constants: Sobolev closed form, ground-state bound, user-supplied values."""

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
from attainkit.constants import _ground_states, _hermite_profile, _shoot
from attainkit.profiles import norms
from oracles import (
    FROZEN_ASCENT_LOWER_BOUNDS,
    FROZEN_INTERPOLATION_B_2_2_4,
    FROZEN_SOBOLEV_50_DIGITS,
    bubble_moment_oracle,
    hermite_ratio_oracle,
    shooting_oracle_p2,
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


def test_gns_estimate_is_a_lower_bound(gns_224):
    # the value is the ratio of an explicit admissible profile
    assert gns_224.value <= FROZEN_INTERPOLATION_B_2_2_4 * (1.0 + 1e-9)


def test_gns_estimate_close_to_reference(gns_224):
    # converged, so pinned at the oracle's own accuracy
    rel = abs(gns_224.value - FROZEN_INTERPOLATION_B_2_2_4) / FROZEN_INTERPOLATION_B_2_2_4
    assert rel < 1e-9


@pytest.fixture(scope="module")
def ground_states_224():
    """The fine and step-doubled ground states that gns_224 is built from."""
    return _ground_states(2, 2.0, 4.0, (1.0, 2.0))


def test_gns_err_bound_honest(gns_224, ground_states_224):
    true_err = FROZEN_INTERPOLATION_B_2_2_4 - gns_224.value
    assert gns_224.err_bound >= true_err > 0.0
    # the quadrature bound is added to the step-halving distance, never
    # put in its place
    fine, coarse = ground_states_224
    assert gns_224.err_bound >= abs(fine["value"] - coarse["value"])


def test_gns_is_deterministic(gns_224):
    again = gns_constant_estimate(2, 2.0, 4.0)
    assert again.value == gns_224.value
    assert again.err_bound == gns_224.err_bound


def test_gns_meta_coherent(gns_224):
    assert gns_224.method == "ground-state"
    assert gns_224.meta["N"] == 2
    assert gns_224.meta["q"] == 4.0
    assert gns_224.meta["gamma_c"] == 2.0
    assert gns_224.meta["converged"] is True
    assert gns_224.meta["sweeps"] >= 1
    assert gns_224.meta["height"] == pytest.approx(2.2062008646442175, rel=1e-6)
    assert "grid" not in gns_224.meta and "profile" not in gns_224.meta


def test_ground_state_profile_shape(ground_states_224):
    prof = ground_states_224[0]["profile"]
    breaks = np.asarray(prof.breaks)
    assert np.all(np.diff(breaks) > 0.0)
    u = prof.fn(np.concatenate([[0.0], breaks]))
    assert np.all(u >= 0.0)
    assert np.all(np.diff(u) <= 0.0)
    assert prof.fn(prof.support) == 0.0  # cut to compact support
    outside = prof.support * np.array([1.5, 2.0])
    assert np.all(prof.fn(outside) == 0.0) and np.all(prof.dfn(outside) == 0.0)


@pytest.mark.parametrize("Npq,height", [((2, 2.0, 4.0), 2.2), ((6, 1.1, 1.3), 15000.0)])
def test_hermite_profile_norms_match_gauss_oracle(Npq, height):
    # one undershooting shot, interpolated by the library and integrated by
    # its Gauss-Kronrod panels, against 8-point Gauss on every cell
    N, p, q = Npq
    fate, at, rs, ws, psis = _shoot(np.array([height]), N, p, q, np.ones(1))
    assert fate[0] < 0
    r, w, psi = rs[:at[0], 0], ws[:at[0], 0], psis[:at[0], 0]
    v = w - w[-1]
    dv = np.copysign(np.abs(psi) ** (1.0 / (p - 1.0)), psi)
    nm = norms(_hermite_profile(N, r, v, dv), p, q)
    gc = N * (q - p) / p
    got = nm.lq.value ** q / (nm.grad_lp.value ** gc * nm.lp.value ** (q - gc))
    assert got == pytest.approx(hermite_ratio_oracle(r, v, dv, N, p, q), rel=1e-13)


@pytest.mark.parametrize("Npq", [(2, 2.0, 4.0), (6, 1.1, 1.3)])
def test_batched_brackets_match_each_resolution_alone(Npq):
    # each bracket reads only its own columns of the shared batch
    both = _ground_states(*Npq, (1.0, 2.0))
    for got, coarsen in zip(both, (1.0, 2.0)):
        [alone] = _ground_states(*Npq, (coarsen,))
        for key in ("value", "quadrature_err", "height", "rounds", "converged"):
            assert got[key] == alone[key], (coarsen, key)
        breaks, alone_breaks = got["profile"].breaks, alone["profile"].breaks
        assert np.array_equal(breaks, alone_breaks)
        assert np.array_equal(got["profile"].fn(breaks), alone["profile"].fn(alone_breaks))
    sweeps = gns_constant_estimate(*Npq).meta["sweeps"]
    assert sweeps == both[0]["rounds"] + both[1]["rounds"]


@pytest.mark.parametrize("Npq", sorted(FROZEN_ASCENT_LOWER_BOUNDS))
def test_gns_at_or_above_ascent_floor(Npq):
    got = gns_constant_estimate(*Npq)
    assert got.value >= FROZEN_ASCENT_LOWER_BOUNDS[Npq] * (1.0 - 1e-12)
    assert got.meta["converged"] is True


@pytest.mark.parametrize("N,q", [(3, 3.0), (3, 5.5), (5, 3.0)])
def test_gns_matches_p2_shooting_oracle(N, q):
    got = gns_constant_estimate(N, 2.0, q)
    assert got.value == pytest.approx(shooting_oracle_p2(N, q), rel=1e-7)


def test_p2_oracle_reproduces_frozen_2_2_4():
    assert shooting_oracle_p2(2, 4.0) == pytest.approx(FROZEN_INTERPOLATION_B_2_2_4, rel=1e-10)


def test_gns_rejects_bad_parameters():
    with pytest.raises(ParamError):
        gns_constant_estimate(2, 2.0, 2.0)  # q must exceed p
    with pytest.raises(ParamError):
        gns_constant_estimate(3, 2.0, 6.0)  # q must stay below p* = 6


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
