"""Sharp constants: Sobolev closed form, ground-state bound, user-supplied values."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from attainkit import (
    ConstantSet,
    ParamError,
    ProblemParams,
    classify,
    fractional_constant,
    gns_constant_estimate,
    sobolev_constant,
    sphere_area,
)
from attainkit import constants
from attainkit.constants import (
    _BATCH,
    _WINDOW_MIN,
    _Bracket,
    _crossing_radii,
    _fit_window,
    _ground_states,
    _hermite_profile,
    _series_start,
    _shoot,
)
from attainkit.profiles import norms
from oracles import (
    FROZEN_ASCENT_LOWER_BOUNDS,
    FROZEN_EVEN_SPACING_GROUND_STATES,
    FROZEN_GROUND_STATE_HEIGHT,
    FROZEN_INTERPOLATION_B_2_2_4,
    FROZEN_SOBOLEV_50_DIGITS,
    bubble_moment_oracle,
    hermite_ratio_oracle,
    log_sobolev_slope,
    regular_solution_oracle,
    rk4_shoot_oracle,
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


@pytest.mark.parametrize("N", [*range(2, 13), 344, 400])
def test_sphere_area_matches_mpmath(N):
    # from N = 344 Gamma(N/2) overflows, and the area takes the duplication formula
    with mpmath.workdps(40):
        want = 2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2)
    assert sphere_area(N) == pytest.approx(float(want), rel=1e-14)


def test_sphere_area_is_0_below_the_normal_doubles():
    assert sphere_area(438) >= np.finfo(float).tiny
    assert sphere_area(439) == sphere_area(10**6) == 0.0


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
    assert 1 <= gns_224.meta["sweeps"] <= 12  # six rounds per bracket
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


def assert_shoot_matches_oracle(heights, Npq, coarsen):
    """``_shoot`` against the per-node loop it replaced: the same fates and
    decided-at nodes, the same nodes bit for bit up to each decision (to the
    last node for an undecided shot) and the same crossing radii."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = _shoot(heights, *Npq, coarsen)
        want = rk4_shoot_oracle(heights, *Npq, coarsen)
        radii = [_crossing_radii(*shot, *Npq) for shot in (got, want)]
    fate, at = got[:2]
    assert np.array_equal(fate, want[0]) and np.array_equal(at, want[1])
    # the loop stops at the end of a block of four nodes, the oracle at the decision
    assert want[2].shape[0] <= got[2].shape[0] <= want[2].shape[0] + 3
    for i in range(heights.size):
        end = at[i] + 1 if fate[i] else want[2].shape[0]
        for mine, theirs in zip(got[2:], want[2:]):
            assert np.array_equal(mine[:end, i], theirs[:end, i]), (i, at[i])
    assert np.array_equal(*radii, equal_nan=True)
    return fate


@pytest.mark.parametrize("Npq,h_star", [
    ((2, 2.0, 4.0), 2.2062007004871105),
    ((6, 1.1, 1.3), 15547.582338232978),
    ((8, 5.0, 12.0), 11.342893452806813),
    ((3, 2.0, 2.01), 4.476121467778853),
])
def test_shoot_matches_per_node_oracle_bit_for_bit(Npq, h_star):
    # shots far from and close to the ground-state height, at both step sizes
    miss = np.array([-0.5, -1e-3, -1e-6, 1e-6, 1e-3, 0.5])
    heights = np.tile(h_star * (1.0 + miss), 2)
    fate = assert_shoot_matches_oracle(heights, Npq, np.repeat([1.0, 2.0], miss.size))
    assert np.all(fate != 0) and np.any(fate < 0) and np.any(fate > 0)


@pytest.mark.parametrize("max_steps", [150, 151, 152, 153])
def test_shoot_flushes_the_last_block_at_the_step_cap(monkeypatch, max_steps):
    # shots 1e-1 to 1e-8 from h* decide at nodes 72-158 (fine) and 68-113
    # (step-doubled): a cap in 150-153 leaves four or five undecided, ends on a
    # block of each length 1 to 4, which must decide as the per-node loop did
    # (at 153, one shot decides inside that last block, at node 152)
    monkeypatch.setattr(constants, "_MAX_STEPS", max_steps)
    miss = 10.0 ** -np.arange(1.0, 9.0)
    heights = np.tile(2.2062007004871105 * (1.0 + np.concatenate([-miss, miss])), 2)
    fate = assert_shoot_matches_oracle(heights, (2, 2.0, 4.0), np.repeat([1.0, 2.0], 16))
    assert np.any(fate == 0) and np.any(fate[:16] != 0)


@pytest.mark.parametrize("Npq,height", [
    ((6, 1.1, 1.3), 15547.582338232978),
    ((2, 2.0, 4.0), 2.2062007004871105),
    ((5, 3.0, 4.0), 3.2),
    ((8, 5.0, 12.0), 11.342893452806813),
])
def test_series_start_matches_lsoda(Npq, height):
    # p' = p/(p-1) from 11 down to 1.25: the fine start, the profile's nodes
    # inside it, and the step-doubled start 100 times further in
    depth = constants._INNER + 1
    fine = _series_start(np.array([height]), *Npq, np.ones(1), depth)
    coarse = _series_start(np.array([height]), *Npq, np.array([2.0]))
    r, w, psi = (np.concatenate([c[:, 0], f[:, 0]]) for c, f in zip(coarse, fine))
    order = np.argsort(r)
    want_w, want_psi = regular_solution_oracle(height, *Npq, r[order])
    np.testing.assert_allclose(w[order], want_w, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(psi[order], want_psi, rtol=1e-10, atol=0.0)


def test_series_start_of_a_shot_ignores_the_batch_around_it():
    # brackets share batches, so each shot's start must come out bit for bit
    # as it would alone (a BLAS product in the recurrence broke this for 3
    # of these 256 shots)
    coarsen = np.repeat([1.0, 2.0], 32)
    for heights in np.random.default_rng(1).uniform(3.0, 8.0, (4, 64)):
        batch = _series_start(heights, 8, 5.0, 12.0, coarsen)
        for j in range(heights.size):
            alone = _series_start(heights[j:j + 1], 8, 5.0, 12.0, coarsen[j:j + 1])
            assert all(np.array_equal(x[:, 0], y[:, j]) for x, y in zip(alone, batch)), j


@pytest.mark.parametrize("N,q", [(2, 4.0), (3, 5.5)])
def test_gns_is_continuous_across_the_p2_right_hand_side(N, q):
    # p = 2 reads w' = psi and w^(p-1) = w; the next double down (the one
    # up lies outside p <= N at N = 2) takes the general powers, and the two
    # answers agree within their error bounds
    at_two = gns_constant_estimate(N, 2.0, q)
    below = gns_constant_estimate(N, math.nextafter(2.0, 1.0), q)
    assert abs(at_two.value - below.value) <= at_two.err_bound + below.err_bound


@lru_cache(maxsize=None)
def estimate(Npq):
    return gns_constant_estimate(*Npq)


@pytest.mark.parametrize("Npq", sorted(FROZEN_ASCENT_LOWER_BOUNDS))
def test_gns_at_or_above_ascent_floor(Npq):
    got = estimate(Npq)
    assert got.value >= FROZEN_ASCENT_LOWER_BOUNDS[Npq] * (1.0 - 1e-12)
    assert got.meta["converged"] is True


@pytest.mark.parametrize("Npq", sorted(FROZEN_EVEN_SPACING_GROUND_STATES))
def test_gns_keeps_even_spacing_answer_in_no_more_sweeps(Npq):
    value, err_bound, sweeps = FROZEN_EVEN_SPACING_GROUND_STATES[Npq]
    got = estimate(Npq)
    assert abs(got.value - value) <= err_bound
    assert got.meta["sweeps"] <= sweeps
    assert got.meta["converged"] is True


def fine_value(Npq):
    """The value alone: the fine bracket's, which ends as it would beside
    the step-doubled one."""
    return _ground_states(*Npq, (1.0,))[0]["value"]


@pytest.mark.parametrize("Npq", sorted(FROZEN_EVEN_SPACING_GROUND_STATES))
def test_gns_err_bound_covers_a_start_ten_times_further_in(monkeypatch, Npq):
    # the step-doubled bracket starts 100 times further in than the fine
    # one, so their distance also measures the error of where shots start
    got = estimate(Npq)
    _, p, q = Npq
    height = got.meta["height"]
    r = _series_start(np.array([height]), *Npq, np.ones(1))[0][0, 0]
    assert r == pytest.approx(constants._START * height ** (-(q - p) / p), rel=1e-15)
    monkeypatch.setattr(constants, "_START", constants._START / 10)
    assert abs(fine_value(Npq) - got.value) < got.err_bound


def test_gns_224_takes_at_most_1100_rk4_nodes(monkeypatch):
    # the error control lets steps grow as the shots decay: 906 nodes
    nodes = []

    def counted(*args):
        shot = _shoot(*args)
        nodes.append(shot[2].shape[0])
        return shot

    monkeypatch.setattr(constants, "_shoot", counted)
    got = gns_constant_estimate(2, 2.0, 4.0)
    assert sum(nodes) <= 1100
    assert got.meta["sweeps"] <= 12 and got.meta["converged"] is True


@pytest.mark.parametrize("Npq", sorted(FROZEN_EVEN_SPACING_GROUND_STATES))
def test_gns_err_bound_covers_a_sixteenth_of_the_step_tolerance(monkeypatch, Npq):
    # a sixteenth of the tolerance halves every step the control sets
    got = estimate(Npq)
    monkeypatch.setattr(constants, "_STEP_TOL", constants._STEP_TOL / 16)
    assert abs(fine_value(Npq) - got.value) <= got.err_bound


@pytest.mark.parametrize("Npq", [(5, 1.725, 2.271), (7, 2.464, 2.838)])
def test_gns_tail_steps_keep_the_error_where_the_tail_carries_mass(monkeypatch, Npq):
    # near q = p in N >= 3 much of the norms' mass lies in the tail, which
    # the control's steps, scaled to the core, must still resolve: against
    # a reference with steps 8 times shorter
    got = estimate(Npq)
    monkeypatch.setattr(constants, "_STEP_TOL", constants._STEP_TOL / 4096)
    monkeypatch.setattr(constants, "_MAX_STEPS", 200_000)
    assert abs(got.value - fine_value(Npq)) <= got.err_bound


@pytest.mark.parametrize("Npq", [
    (3, 2.0, 2.0 + 1e-6), (6, 1.1, 1.1 + 1e-3), (6, 1.1, 1.1 + 1e-10),
    (2, 2.0, math.nextafter(2.0, 3.0)), (8, 5.0, 5.0 + 1e-12), (10, 9.5, 9.5 + 1e-14),
    (2, 1.2, 1.2 + 1e-12),
])
def test_gns_converges_and_classify_answers_as_q_nears_p(Npq):
    # the ground state widens like (q - p)^(-1/p); the steps grow with it
    got = gns_constant_estimate(*Npq)
    assert got.meta["converged"] is True
    constants_set = ConstantSet(interpolation=got)
    for gamma in (1.0, got.meta["gamma_c"] / 2.0):
        classify(ProblemParams.local(*Npq, gamma=gamma, alpha=1.0), constants_set)


@pytest.mark.parametrize("q_minus_p", [1e-3, 1e-5])
@pytest.mark.parametrize("N,p", [(2, 2.0), (3, 2.0), (5, 3.0), (3, 1.5), (2, 1.2), (6, 1.1)])
def test_gns_near_q_equals_p_follows_the_log_sobolev_slope(N, p, q_minus_p):
    # log B is convex in q, 0 at q = p with the closed-form slope s there,
    # so B >= exp(s (q - p)) and log B / (q - p) falls to s as q -> p
    got = estimate((N, p, p + q_minus_p))
    q, s = p + q_minus_p, log_sobolev_slope(N, p)
    assert got.value + got.err_bound >= math.exp(s * (q - p))
    assert 0.0 <= math.log(got.value) / (q - p) - s <= 2e-4 * abs(s)


@pytest.mark.parametrize("miss", [-1e-3, 1e-3])
def test_cubic_crossing_radius_matches_a_16_times_finer_shot(miss):
    # the shot's miss is followed between nodes by its cubic, not a chord;
    # a chord misses the undershoot's radius by 1.7e-3.  A height 1e-3 off
    # h* keeps the crossing clear of h*'s own move with the step.
    heights = np.array([FROZEN_GROUND_STATE_HEIGHT * (1.0 + miss)])
    radii = []
    for coarsen in (1.0, 1.0 / 16.0):
        shot = _shoot(heights, 2, 2.0, 4.0, np.array([coarsen]))
        assert shot[0][0] == np.sign(miss)
        radii.append(_crossing_radii(*shot, 2, 2.0, 4.0)[0])
    assert abs(radii[0] - radii[1]) <= 1e-3


@pytest.mark.parametrize("Npq", [(2, 2.0, 4.0), (5, 3.0, 4.0), (4, 4.0, 6.0), (3, 2.5, 4.0),
                                 (3, 3.0, 4.0)])
def test_gns_err_bound_covers_a_bracket_closed_to_an_ulp(monkeypatch, Npq):
    # the step-doubled bracket closes at a wider cut than the fine one, so
    # their distance also measures how far the last undershoot lies from h*
    # (at (3, 3, 4) by 4.9e-11, which a bracket closing at the fine cut,
    # with an err_bound of 3.7e-11, would miss)
    got = estimate(Npq)
    monkeypatch.setattr(constants, "_HEIGHT_RTOL", 3e-16)
    assert abs(fine_value(Npq) - got.value) <= got.err_bound


def model_shots(heights, h_star, slope=2.0, quantize=False):
    """Fates and crossing radii of shots that follow the miss-distance
    model log|h - h*| = a - slope r exactly; with ``quantize`` each radius
    is rounded up to the next node of a 0.04 step, and an undershoot's to
    every fourth node, where the energy is tested."""
    fate = np.where(heights < h_star, -1, 1)
    miss = np.maximum(np.abs(heights - h_star), np.spacing(h_star))
    radii = (np.where(fate < 0, 1.0, 3.3) - np.log(miss)) / slope
    if quantize:
        node = np.where(fate < 0, 0.16, 0.04)
        radii = np.ceil(radii / node) * node
    return fate, radii


def even_round(h_star, lo, hi, **model):
    heights = np.linspace(lo, hi, _BATCH + 2)[1:-1]
    fate, radii = model_shots(heights, h_star, **model)
    i = np.flatnonzero(fate < 0)[-1]
    return heights, fate, radii, heights[i], heights[i + 1]


@pytest.mark.parametrize("slope", [2.0, 6.0, 30.0])
@pytest.mark.parametrize("where", [0.2, 0.43, 0.5, 0.77])
def test_fit_window_recovers_model_height(slope, where):
    h_star = 2.2 + (where - 0.5) * 2e-6
    heights, fate, radii, lo, hi = even_round(h_star, 2.2 - 1e-6, 2.2 + 1e-6, slope=slope)
    a, b = _fit_window(heights, fate, radii, lo, hi)
    assert lo <= a < h_star < b <= hi
    # an exact fit earns the narrowest window
    assert b - a <= 2.0 * _WINDOW_MIN * (hi - lo) * (1.0 + 1e-6)


def test_fit_window_on_node_quantized_radii_never_excludes_the_height():
    # radii rounded to the integration nodes leave residuals that widen the
    # window or refuse it; a window that is placed still holds h*
    placed = 0
    for where in np.linspace(0.15, 0.85, 36):
        h_star = 2.2 + (where - 0.5) * 2e-6
        heights, fate, radii, lo, hi = even_round(h_star, 2.2 - 1e-6, 2.2 + 1e-6,
                                                  quantize=True)
        window = _fit_window(heights, fate, radii, lo, hi)
        if window is not None:
            placed += 1
            assert window[0] < h_star < window[1]
    assert placed > 0


def test_fit_window_refuses_one_sided_or_flat_rounds():
    heights = np.linspace(2.2, 2.2 + 1e-6, _BATCH + 2)[1:-1]
    fate, radii = model_shots(heights, heights[2] + 1e-9)  # three undershoots only
    assert _fit_window(heights, fate, radii, heights[2], heights[3]) is None
    fate, _ = model_shots(heights, heights[15] + 1e-9)
    flat = np.full(heights.size, 5.0)  # the radius tells nothing: slope 0
    assert _fit_window(heights, fate, flat, heights[15], heights[16]) is None


def test_missed_window_falls_back_to_even_spacing_and_fates_still_bracket():
    h_star = 2.2 + 0.73e-6
    b = _Bracket(1.0, 2.0)
    b.lo, b.hi = 2.2 - 1e-6, 2.2 + 1e-6
    b.window = (2.2 - 0.5e-6, 2.2 + 0.5e-6)  # misses h*: every shot undershoots
    heights = b.heights()
    assert heights[0] > b.window[0] and heights[-1] < b.window[1]
    fate, radii = model_shots(heights, h_star)
    assert np.all(fate < 0)
    hi = b.hi
    assert b.narrow(heights, fate, radii) == _BATCH - 1
    assert (b.lo, b.hi, b.window) == (heights[-1], hi, None)
    assert np.array_equal(b.heights(), np.linspace(b.lo, b.hi, _BATCH + 2)[1:-1])
    rounds = 0
    while not b.closed:
        heights = b.heights()
        fate, radii = model_shots(heights, h_star)
        i = b.narrow(heights, fate, radii)
        rounds += 1
        # the bracket is an undershoot and an overshoot, whatever the fit said
        assert b.lo < h_star <= b.hi
        if i is not None:
            assert fate[i] < 0 and heights[i] == b.lo
    # one even round, then fitted windows narrow the bracket about 660-fold
    assert rounds <= 4


def test_crossing_radii_make_a_real_round_fit(gns_224):
    # one evenly spaced round of real shots around the converged height:
    # interpolated crossing radii fit the model well enough for a narrow
    # window, and it holds the converged height
    h_star = gns_224.meta["height"]
    heights = np.linspace(h_star - 1e-7, h_star + 1e-7, _BATCH + 2)[1:-1] + 1.1e-9
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fate, at, rs, ws, psis = _shoot(heights, 2, 2.0, 4.0, np.ones(_BATCH))
        radii = _crossing_radii(fate, at, rs, ws, psis, 2, 2.0, 4.0)
    # each radius lies within the last four steps before its decided node
    cols = np.arange(_BATCH)
    assert np.all(radii <= rs[at, cols]) and np.all(radii >= rs[at - 4, cols])
    i = np.flatnonzero(fate < 0)[-1]
    lo, hi = heights[i], heights[i + 1]
    a, b = _fit_window(heights, fate, radii, lo, hi)
    assert a < h_star < b
    assert b - a <= 0.2 * (hi - lo)


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


def test_fractional_constant_takes_a_numpy_scalar():
    got = fractional_constant(np.float32(1.7))
    assert got.value == float(np.float32(1.7))
    assert type(got.value) is float


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, np.float32(-1.7)])
def test_fractional_constant_rejects_nonpositive(bad):
    with pytest.raises(ParamError, match="finite and positive"):
        fractional_constant(bad)


@pytest.mark.parametrize("bad", [True, np.True_, "1.7", None])
def test_fractional_constant_rejects_a_non_real(bad):
    with pytest.raises(ParamError, match="must be a real number"):
        fractional_constant(bad)
