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
    _Bracket,
    _glued_profile,
    _ground_states,
    _hermite_profile,
    _series_start,
    _shoot,
)
from attainkit.profiles import _log_quotient, norms
from oracles import (
    FROZEN_ASCENT_LOWER_BOUNDS,
    FROZEN_EVEN_SPACING_GROUND_STATES,
    FROZEN_GROUND_STATE_HEIGHT,
    FROZEN_INTERPOLATION_B_2_2_4,
    FROZEN_SOBOLEV_50_DIGITS,
    bubble_moment_oracle,
    exp_power_quotient_oracle,
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
    assert gns_224.meta["height"] == pytest.approx(FROZEN_GROUND_STATE_HEIGHT, rel=1e-6)
    assert "grid" not in gns_224.meta and "profile" not in gns_224.meta


def test_ground_state_profile_shape(ground_states_224):
    prof = ground_states_224[0]["profile"]
    breaks = np.asarray(prof.breaks)
    assert np.all(np.diff(breaks) > 0.0)
    u = prof.fn(np.concatenate([[0.0], breaks]))
    assert np.all(u >= 0.0)
    assert np.all(np.diff(u) <= 0.0)
    assert prof.fn(prof.support) == 0.0  # its glued tail cut to compact support
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
    decided-at nodes, and the same nodes bit for bit up to each decision (to
    the last node for an undecided shot)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = _shoot(heights, *Npq, coarsen)
        want = rk4_shoot_oracle(heights, *Npq, coarsen)
    fate, at = got[:2]
    assert np.array_equal(fate, want[0]) and np.array_equal(at, want[1])
    # the loop stops at the end of a block of four nodes, the oracle at the decision
    assert want[2].shape[0] <= got[2].shape[0] <= want[2].shape[0] + 3
    for i in range(heights.size):
        end = at[i] + 1 if fate[i] else want[2].shape[0]
        for mine, theirs in zip(got[2:], want[2:]):
            assert np.array_equal(mine[:end, i], theirs[:end, i]), (i, at[i])
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


@pytest.mark.parametrize("Npq", [(3, 3.0, 4.0), (5, 3.0, 4.0), (3, 2.96, 6.399), (8, 5.0, 12.0)])
def test_gns_err_bound_covers_fine_starts_across_the_first_tenth_of_the_core(monkeypatch, Npq):
    # the value jitters with where the fine shots start; err_bound must
    # cover every start from 0.01 to 0.09 core widths (with a cut last
    # undershoot, a start of 0.09 moved (3, 3, 4) by 1.45 err_bounds)
    got = estimate(Npq)
    for start in (0.01, 0.02, 0.03, 0.05, 0.07, 0.09):
        monkeypatch.setattr(constants, "_START", start)
        assert abs(fine_value(Npq) - got.value) < got.err_bound, start


def test_gns_224_takes_at_most_1100_rk4_nodes(monkeypatch):
    # the error control lets steps grow as the shots decay: 874 nodes
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


@pytest.mark.parametrize("N,p,q_minus_p", [
    *((N, p, q_minus_p) for N, p in [(2, 2.0), (3, 2.0), (5, 3.0), (3, 1.5), (2, 1.2), (6, 1.1)]
      for q_minus_p in (1e-3, 1e-5)),
    (4, 4.0, 1e-6), (8, 5.0, 1e-6),
])
def test_gns_near_q_equals_p_follows_the_log_sobolev_slope(N, p, q_minus_p):
    # log B is convex in q, 0 at q = p with the closed-form slope s there,
    # so B >= exp(s (q - p)) and log B / (q - p) falls to s as q -> p (at
    # p >= 4 and q - p = 1e-6 a cut last undershoot fell below s)
    got = estimate((N, p, p + q_minus_p))
    q, s = p + q_minus_p, log_sobolev_slope(N, p)
    assert got.value + got.err_bound >= math.exp(s * (q - p))
    assert 0.0 <= math.log(got.value) / (q - p) - s <= 2e-4 * abs(s)


@pytest.mark.parametrize("Npq", [(2, 2.0, 4.0), (5, 3.0, 4.0), (4, 4.0, 6.0), (3, 2.5, 4.0),
                                 (3, 3.0, 4.0), (3, 2.96, 6.399)])
def test_gns_err_bound_covers_a_bracket_closed_to_an_ulp(monkeypatch, Npq):
    # the glued value is second order in how far the last undershoot lies
    # from h*, so closing the bracket at 1e-8 rather than at an ulp moves
    # it by far less than err_bound (a last undershoot cut where it was
    # decided moved (3, 2.96, 6.399) by 2.7e-10 relative from a 1e-14 cut)
    got = estimate(Npq)
    monkeypatch.setattr(constants, "_HEIGHT_RTOL", 3e-16)
    assert abs(fine_value(Npq) - got.value) <= got.err_bound


def test_fates_alone_keep_the_height_bracketed_as_even_rounds_shrink_it_33_fold():
    # each round fills (lo, hi) evenly, and only the shots' fates move the
    # bracket, to one of its 33 gaps
    h_star = 2.2 + 0.73e-6
    b = _Bracket(1.0, 2.0)
    b.lo, b.hi = 2.2 - 1e-6, 2.2 + 1e-6
    rounds = 0
    while not b.closed:
        width, heights = b.hi - b.lo, b.heights()
        assert np.array_equal(heights, np.linspace(b.lo, b.hi, _BATCH + 2)[1:-1])
        fate = np.where(heights < h_star, -1, 1)
        i = b.narrow(heights, fate)
        rounds += 1
        assert b.lo < h_star <= b.hi
        assert fate[i] < 0 and heights[i] == b.lo
        assert b.hi - b.lo == pytest.approx(width / (_BATCH + 1), rel=1e-4)
    assert rounds == 2


@lru_cache(maxsize=None)
def fine_ground_state(Npq):
    return _ground_states(*Npq, (1.0,))[0]


GLUE_POINTS = [(2, 2.0, 4.0), (5, 3.0, 4.0), (4, 4.0, 6.0), (8, 5.0, 12.0), (6, 1.1, 1.3)]


@pytest.mark.parametrize("Npq", GLUE_POINTS)
def test_glue_node_is_the_argmax_of_a_brute_force_norms_scan(Npq):
    # the prefix panel sums and closed-form tails score each node as
    # integrating its whole glued profile would
    N, p, q = Npq
    got = fine_ground_state(Npq)
    r, w, dw = got["nodes"]
    gc = N * (q - p) / p
    scores = {int(k): _log_quotient(norms(_glued_profile(N, r[:k + 1], w[:k + 1], dw[:k + 1]),
                                          p, q), q, gc)
              for k in np.flatnonzero(dw < 0.0)}
    assert max(scores, key=scores.get) == got["glue"]


@pytest.mark.parametrize("Npq", GLUE_POINTS)
def test_norms_of_the_glued_profile_reproduce_the_value(Npq):
    N, p, q = Npq
    got = fine_ground_state(Npq)
    value = math.exp(_log_quotient(norms(got["profile"], p, q), q, N * (q - p) / p))
    assert abs(value - got["value"]) <= got["quadrature_err"]


@pytest.mark.parametrize("Npq", [*sorted({*FROZEN_EVEN_SPACING_GROUND_STATES,
                                         *FROZEN_ASCENT_LOWER_BOUNDS}),
                                 (4, 4.0, 4.0 + 1e-6), (3, 2.0, 2.0 + 1e-6), (30, 3.0, 3.2)])
def test_gns_lies_above_the_exp_power_floor(Npq):
    # exp(-r^p'), the log-Sobolev optimizer, is admissible, so its quotient
    # is a closed-form floor on B (a cut last undershoot fell 6e-14 below
    # it at (4, 4, 4 + 1e-6), and 76-fold below it at (30, 3, 3.2), where
    # the tail carries much of the mass)
    got = estimate(Npq)
    floor, floor_err = exp_power_quotient_oracle(*Npq)
    assert got.value + got.err_bound >= floor - floor_err


def test_exp_power_floor_is_one_over_two_pi_at_2_2_4():
    floor, floor_err = exp_power_quotient_oracle(2, 2.0, 4.0)
    assert abs(floor - 1.0 / (2.0 * math.pi)) <= floor_err


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
