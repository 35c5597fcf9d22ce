"""Radial profiles: quadrature norms, dilation algebra, cutoff families."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import attainkit as ak
from attainkit import (
    CurveParams,
    DivergentNormError,
    Norms,
    NormValue,
    NumericalError,
    ParamError,
    ProblemParams,
    RadialProfile,
    bubble_norms,
    build_truncated,
    build_u_star,
    dilate,
    log_lambda,
    norms,
    orbit_curve,
    random_profiles,
)
from attainkit.profiles import _smoothstep_cutoff, build_w_lambda, log_sphere_area
from oracles import (bubble_grad_moment_oracle, bubble_moment_oracle, central_difference_oracle,
                     combined_norm_oracle, curve_at_t, j_oracle, norm_oracle,
                     sphere_area_oracle)

N5 = 5
P2 = 2.0
Q_CRIT5 = 10.0 / 3.0


@pytest.fixture(scope="module")
def star5():
    return build_u_star(N5, P2)


@pytest.fixture(scope="module")
def star5_norms(star5):
    return norms(star5, p=P2, q=Q_CRIT5)


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


# p near 1, in the middle, and with p*p just below N (mass nearly divergent)
@pytest.mark.parametrize("N,p", [(N, p) for N in (3, 5, 6, 9, 10)
                                 for p in (1.05, 1.5, math.sqrt(N) * (1.0 - 1e-3))])
def test_closed_form_bubble_norms(N, p):
    q = N * p / (N - p)
    got = bubble_norms(N, p, q)
    area = sphere_area_oracle(N)
    beta = {"lp": (area * bubble_moment_oracle(N, p, p)) ** (1.0 / p),
            "grad_lp": (area * bubble_grad_moment_oracle(N, p)) ** (1.0 / p),
            "lq": (area * bubble_moment_oracle(N, p, q)) ** (1.0 / q)}
    quad = norms(build_u_star(N, p), p, q)
    for name, want in beta.items():
        nv = getattr(got, name)
        # the roundoff bound holds against scipy's Beta; it widens only with
        # the conditioning of B(a, k-a) as k-a -> 0
        assert abs(nv.value - want) <= nv.err_bound <= 1e-12 * want, name
        # quadrature of u* loses digits only as its mass tail slows
        assert nv.value == pytest.approx(getattr(quad, name).value, rel=1e-11), name


def test_bubble_height_closed_form(star5):
    # (1 + r^{p'})^{-(N-p)/p} at r=1 for N=5, p=2
    assert star5.values(1.0)[0] == pytest.approx(2.0 ** (-1.5), rel=1e-15)
    assert star5.values(0.0)[0] == 1.0


def test_bubble_mass_diverges_in_low_dimension():
    with pytest.raises(DivergentNormError) as exc:
        norms(build_u_star(3, 2.0), p=2.0, q=6.0)
    assert exc.value.norm == "lp"
    # in closed form, p*p >= N leaves B(a, N/p - p) no positive second argument
    with pytest.raises(DivergentNormError) as exc:
        bubble_norms(3, 2.0, 6.0)
    assert exc.value.norm == "lp"


def test_bubble_mass_diverges_at_dimension_boundary():
    with pytest.raises(DivergentNormError):
        norms(build_u_star(4, 2.0), p=2.0, q=4.0)
    with pytest.raises(DivergentNormError) as exc:
        bubble_norms(4, 2.0, 4.0)
    assert exc.value.norm == "lp"


def bump(N):
    """exp(-(r-10)^2), cut to the support [0, 20]."""
    def values(r):
        r = np.asarray(r, dtype=float)
        u = np.where(r < 20.0, np.exp(-(r - 10.0) ** 2), 0.0)
        return u, -2.0 * (r - 10.0) * u

    return RadialProfile(N=N, values=values, support=20.0, breaks=(10.0,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [300, 500])
def test_norms_hold_in_large_dimension_where_the_norm_is_a_double(N):
    # without the sphere's area, the lp integral at N = 300 is 9.4e329, past
    # the doubles, and from N = 439 the area itself lies below them
    with mpmath.workdps(30):
        log_area = mpmath.log(2) + N * mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(N / 2)
        assert log_sphere_area(N) == pytest.approx(float(log_area), rel=1e-14)

        def want(e, deriv):
            f = ((lambda r: abs(2 * (r - 10)) ** e * mpmath.exp(-e * (r - 10) ** 2) * r ** (N - 1))
                 if deriv else (lambda r: mpmath.exp(-e * (r - 10) ** 2) * r ** (N - 1)))
            moment = mpmath.quad(f, [0, 10, 14, 16, 20])
            return float(mpmath.exp((log_area + mpmath.log(moment)) / e))

        got = norms(bump(N), 2.0, 3.0)
        for name, e, deriv in (("lp", 2, False), ("grad_lp", 2, True), ("lq", 3, False)):
            nv = getattr(got, name)
            assert abs(nv.value - want(e, deriv)) <= nv.err_bound, name


@given(lam=st.floats(1e-4, 1e4))
def test_dilation_identities(star5, star5_norms, lam):
    moved = dilate(star5, lam, P2)
    got = norms(moved, p=P2, q=Q_CRIT5)
    assert got.lp.value == pytest.approx(star5_norms.lp.value, rel=1e-10)
    assert got.grad_lp.value == pytest.approx(
        star5_norms.grad_lp.value * lam ** (1.0 / N5), rel=1e-10)
    want_lq_q = star5_norms.lq.value ** Q_CRIT5 * lam ** (Q_CRIT5 / P2 - 1.0)
    assert got.lq.value ** Q_CRIT5 == pytest.approx(want_lq_q, rel=1e-10)


def test_dilate_of_an_array_is_the_family_of_its_dilations(star5):
    lams = np.array([1e-2, 1.0, 42.0])
    family = norms(dilate(star5, lams, P2), p=P2, q=Q_CRIT5)
    for lam, nm in zip(lams, family):
        alone = norms(dilate(star5, float(lam), P2), p=P2, q=Q_CRIT5)
        for name in ("lp", "grad_lp", "lq"):
            assert getattr(nm, name).value == pytest.approx(
                getattr(alone, name).value, rel=1e-14), (lam, name)
    with pytest.raises(ParamError):
        dilate(random_profiles(2, N=N5), lams, P2)
    with pytest.raises(ParamError):
        dilate(star5, np.array([1.0, -1.0]), P2)


def _log_t(lam, gamma, nm):
    """The curve point of the bubble's lam-dilation: log of
    lam^(gamma/N) (|grad u*|_p / |u*|_p)^gamma."""
    return gamma / N5 * math.log(lam) + gamma * math.log(nm.grad_lp.value / nm.lp.value)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 42.0, 1e6])
def test_w_lambda_has_unit_constraint_norm(star5_norms, lam):
    gamma = 2.5
    w = build_w_lambda(N5, P2, gamma, star5_norms, log_t=_log_t(lam, gamma, star5_norms))
    got = norms(w, p=P2, q=Q_CRIT5)
    assert combined_norm_oracle(got, gamma) == pytest.approx(1.0, rel=1e-12)


def test_w_lambda_takes_its_curve_point_by_keyword(star5, star5_norms):
    with pytest.raises(TypeError):  # the old (N, p, lam, gamma) order
        build_w_lambda(N5, P2, 42.0, 2.5, u_norms=star5_norms)
    # at t = 1 it is the bubble itself over |u*|_p 2^(1/gamma)
    log_t = 0.0
    w = build_w_lambda(N5, P2, 2.5, star5_norms, log_t=log_t)
    lam = math.exp(log_lambda(log_t, star5_norms, 2.5, N5))
    r = np.geomspace(1e-3, 1e3, 7)
    want = dilate(star5, lam, P2).values(r)[0] / (star5_norms.lp.value * 2.0 ** (1.0 / 2.5))
    np.testing.assert_allclose(w.values(r)[0], want, rtol=1e-13)
    # an amplitude below the double range rounds to 0, one above it is refused
    assert not np.any(build_w_lambda(N5, P2, 2.5, star5_norms, log_t=-3000.0).values(r))
    with pytest.raises(NumericalError, match="log lambda"):
        build_w_lambda(N5, P2, 2.5, star5_norms, log_t=3000.0)


@pytest.mark.parametrize("lam", [1e-3, 1.0, 42.0, 1e6])
def test_w_lambda_objective_equals_curve_value(crit5, constants_crit5, star5_norms, lam):
    gamma = crit5.gamma
    cp = CurveParams.from_problem(crit5, log_C=ak.log_kappa_multiplier(crit5, constants_crit5))
    w = build_w_lambda(N5, P2, gamma, star5_norms, log_t=_log_t(lam, gamma, star5_norms))
    t = lam ** (gamma / N5) * (star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
    J = j_oracle(w, crit5)
    # the constrained objective along the dilation path is exactly the
    # one-dimensional objective curve
    assert J == pytest.approx(float(curve_at_t(cp, "max", t)), rel=1e-12)


def test_w_lambda_quotient_equals_ratio_curve(crit5, constants_crit5, star5_norms):
    gamma = crit5.gamma
    log_C = ak.log_kappa_multiplier(crit5, constants_crit5)
    C = math.exp(log_C)
    cp = CurveParams.from_problem(crit5, log_C=log_C)
    lam = 7.5
    w = build_w_lambda(N5, P2, gamma, star5_norms, log_t=_log_t(lam, gamma, star5_norms))
    t = lam ** (gamma / N5) * (star5_norms.grad_lp.value / star5_norms.lp.value) ** gamma
    nm = norms(w, p=P2, q=crit5.q)
    # the threshold quotient (1 - mass^p) / qnorm^q of the normalized profile, times C
    got = (1.0 - nm.lp.value ** P2) / nm.lq.value ** crit5.q * C
    assert got == pytest.approx(float(curve_at_t(cp, "min", t)), rel=1e-10)


def test_attained_maximizer_reaches_supremum(constants_crit5):
    pp = ProblemParams.local_critical(N=N5, p=P2, gamma=2.2, alpha=180.0)
    v, m = ak.maximizer(pp, constants_crit5)
    assert v.attained
    assert j_oracle(m.profile, pp) == pytest.approx(v.D, rel=1e-9)


def test_lambda_tstar_roundtrip(star5_norms):
    gamma = 2.2
    for t_star in (1e-3, 1.0, 1e4):
        log_lam = log_lambda(math.log(t_star), star5_norms, gamma, N5)
        t_back = math.exp(log_lam) ** (gamma / N5) * (
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


def test_smoothstep_cutoff_shape():
    cut, dcut = _smoothstep_cutoff(np.array([0.0, 1.0, 1.5, 2.0, 3.0]))
    assert cut.tolist()[:2] == [1.0, 1.0] and cut.tolist()[3:] == [0.0, 0.0]
    rho = np.linspace(1.0, 2.0, 257)
    assert np.all(np.diff(_smoothstep_cutoff(rho)[0]) <= 0.0)
    # C^1 at both junctions
    assert dcut[1] == 0.0 and dcut[3] == 0.0
    assert dcut[2] < 0.0
    # derivative matches central differences in the transition zone
    h = 1e-6
    mid = np.linspace(1.05, 1.95, 19)
    fd = (_smoothstep_cutoff(mid + h)[0] - _smoothstep_cutoff(mid - h)[0]) / (2 * h)
    np.testing.assert_allclose(_smoothstep_cutoff(mid)[1], fd, rtol=1e-7, atol=1e-9)


def test_truncated_profile_support_is_exact():
    w = build_truncated(3, 2.0, R=10.0)
    assert w.support == 20.0 and w.decay is None
    assert w.values(20.0)[0] == 0.0
    assert w.values(20.0 + 1e-9)[0] == 0.0
    assert w.values(19.999)[0] > 0.0


def test_truncated_family_approaches_supremum(constants_crit3):
    pp = ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0)
    thr = ak.threshold_alpha(pp, constants_crit3)
    pp = dataclasses.replace(pp, alpha=2.0 * thr)
    cp = CurveParams.from_problem(pp, log_C=ak.log_kappa_multiplier(pp, constants_crit3))
    opt = ak.maximize_halfline(cp)
    assert opt.value == ak.classify(pp, constants_crit3).D
    # one quadrature per radius: J of the cut bubble's normalized dilation to t*
    vals = [ak.f_at_log_t(orbit_curve(norms(build_truncated(3, 2.0, R=R), 2.0, 6.0), pp)[0],
                          opt.log_argopt)
            for R in (10.0, 100.0, 1000.0)]
    assert vals == sorted(vals)
    assert all(v <= opt.value for v in vals)
    assert opt.value - vals[-1] < 1e-2 * opt.value


ORBIT_CASES = {
    "random N=5 critical": (lambda: random_profiles(1, N=5, seed=3)[0],
                            ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)),
    "random N=2 subcritical": (lambda: random_profiles(1, N=2, seed=5)[0],
                               ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=0.7)),
    "cut bubble N=3 critical": (lambda: build_truncated(3, 2.0, R=10.0),
                                ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=2.0)),
}


@pytest.mark.parametrize("case", list(ORBIT_CASES))
@pytest.mark.parametrize("lam, rel", [(1.0, 1e-12), (1e-2, 1e-6), (1e2, 1e-6)])
def test_orbit_curve_is_J_on_the_normalized_dilations(case, lam, rel):
    build, pp = ORBIT_CASES[case]
    prof = build()
    cp_u, log_t = orbit_curve(norms(prof, pp.p, pp.q), pp)
    want = ak.f_at_log_t(cp_u, log_t + pp.gamma / pp.N * math.log(lam))
    assert j_oracle(dilate(prof, lam, pp.p), pp) == pytest.approx(want, rel=rel)


def test_orbit_curve_quotient_is_invariant_and_sharp(crit5, constants_crit5, star5_norms):
    # the bubble is the Sobolev extremal: its quotient is C = S^(p*) itself
    cp_star, _ = orbit_curve(star5_norms, crit5)
    C = math.exp(ak.log_kappa_multiplier(crit5, constants_crit5))
    assert cp_star.kappa == pytest.approx(crit5.alpha * C, rel=1e-10)
    # any other profile sits strictly below, at every amplitude and dilation
    prof = random_profiles(1, N=N5, seed=3)[0]
    louder = dataclasses.replace(prof, values=lambda r: tuple(3.7 * v for v in prof.values(r)))
    kappas = [orbit_curve(norms(v, P2, Q_CRIT5), crit5)[0].kappa
              for v in (prof, louder, dilate(prof, 42.0, P2))]
    assert kappas == pytest.approx([kappas[0]] * 3, rel=1e-10)
    assert kappas[0] < crit5.alpha * C


def test_orbit_curve_rejects_fractional_params(star5_norms):
    pp = ProblemParams.fractional_critical(N=5, s=0.6, gamma=1.0, alpha=1.0)
    with pytest.raises(ParamError):
        orbit_curve(star5_norms, pp)


def test_orbit_curve_quotient_beyond_the_double_range_keeps_its_log(crit5):
    # (|u|_q / |grad u|_p)^(p*) = 1e(200 * 10/3) holds in no double, its log does
    nm = Norms(lp=NormValue(1.0, 0.0), grad_lp=NormValue(1e-200, 0.0),
               lq=NormValue(1.0, 0.0))
    cp, _ = orbit_curve(nm, crit5)
    assert cp.log_kappa == pytest.approx(2000.0 / 3.0 * math.log(10.0), rel=1e-15)
    assert cp.kappa == math.inf


def _assert_honest_and_tight(nv, want, label):
    actual = abs(nv.value - want)
    assert actual <= nv.err_bound, label
    # at most 100x the actual error, or 1e-14 relative where that is roundoff
    assert nv.err_bound <= max(100.0 * actual, 1e-14 * want), label


def test_norm_bounds_are_honest_and_tight_on_the_envelope_family():
    fam = random_profiles(1000, N=N5, seed=2024)
    want = norm_oracle(fam, P2, Q_CRIT5)
    for i, nm in enumerate(norms(fam, P2, Q_CRIT5)):
        for name in ("lp", "grad_lp", "lq"):
            _assert_honest_and_tight(getattr(nm, name), want[name][i], (i, name))


@pytest.mark.parametrize("R", [10.0, 100.0, 1000.0])
def test_norm_bounds_are_honest_and_tight_across_the_smoothstep_kinks(R):
    # the cutoff is only C^2 at R and 2R, and the bubble between its core
    # and R spans decades; the profile declares both as breaks
    prof = build_truncated(3, 2.0, R=R)
    want = norm_oracle(prof, 2.0, 6.0)
    got = norms(prof, 2.0, 6.0)
    for name in ("lp", "grad_lp", "lq"):
        _assert_honest_and_tight(getattr(got, name), want[name][0], name)


@pytest.mark.parametrize("N,p", [(10, math.sqrt(10.0) * (1.0 - 1e-3)), (9, 2.997)])
def test_norm_bounds_are_honest_and_tight_on_slow_bubble_tails(N, p):
    # p*p just below N: the mass tail decays like r^(-N - 0.01), and most
    # of the mass lies past the cut-off, in the closed-form tail
    q = N * p / (N - p)
    got, want = norms(build_u_star(N, p), p, q), bubble_norms(N, p, q)
    for name in ("lp", "grad_lp", "lq"):
        _assert_honest_and_tight(getattr(got, name), getattr(want, name).value, name)


def test_a_family_row_integrates_as_one_profile():
    fam = random_profiles(7, N=N5, seed=5)
    batched = norms(fam, P2, Q_CRIT5)
    assert isinstance(batched, tuple) and len(batched) == len(fam) == 7
    for row, nm in zip(fam, batched):
        alone = norms(row, P2, Q_CRIT5)
        for name in ("lp", "grad_lp", "lq"):
            assert getattr(alone, name).value == pytest.approx(
                getattr(nm, name).value, rel=1e-14), name


def test_random_profiles_deterministic_and_nonnegative():
    a = random_profiles(5, N=N5, seed=2024)
    b = random_profiles(5, N=N5, seed=2024)
    assert len(a) == 5
    for pa, pb in zip(a, b):
        r = np.geomspace(1e-4, 50.0, 200)
        np.testing.assert_array_equal(pa.values(r), pb.values(r))
        assert np.all(pa.values(r)[0] >= 0.0)
        assert pa.support > 0.0 and pa.decay is None


def test_random_profiles_vanish_below_roundoff_past_their_support():
    # a Gaussian does not vanish, so the support is where every moment's
    # integrand has fallen far below the doubles' resolution of the norm
    fam = random_profiles(1000, N=N5, seed=2024)
    support = np.asarray(fam.support)
    r = support[:, None] * np.array([1.0, 1.5, 3.0])
    nms = norms(fam, P2, Q_CRIT5)
    scale = np.array([[nm.lp.value, nm.grad_lp.value] for nm in nms])
    for k, v in enumerate(fam.values(r)):
        past = np.abs(v) ** P2 * r ** N5
        assert np.all(past <= 1e-40 * scale[:, k:k + 1] ** P2)


def test_random_profiles_envelope(crit5, constants_crit5):
    # every admissible profile sits under the one-dimensional objective curve
    cp = CurveParams.from_problem(crit5, log_C=ak.log_kappa_multiplier(crit5, constants_crit5))
    for prof in random_profiles(20, N=N5, seed=7):
        nm = norms(prof, p=P2, q=Q_CRIT5)
        t = (nm.grad_lp.value / nm.lp.value) ** crit5.gamma
        assert j_oracle(prof, crit5) <= float(curve_at_t(cp, "max", t)) + 1e-8


def _counting(profile):
    """The profile with its values wrapped to record the largest radius of
    every call."""
    calls = []

    def counted(r):
        calls.append(float(np.max(r)))
        return profile.values(r)

    return dataclasses.replace(profile, values=counted), calls


def test_norms_sample_a_compact_profile_once():
    prof, calls = _counting(random_profiles(1, N=N5, seed=11)[0])
    norms(prof, p=P2, q=Q_CRIT5)
    assert len(calls) == 1


def test_norms_sample_the_bubble_once_per_cut_off(star5, star5_norms):
    prof, calls = _counting(star5)
    got = norms(prof, p=P2, q=Q_CRIT5)
    assert got == star5_norms
    # the three moments decay at different rates, and all read one cut-off
    assert len(calls) == 1


def assert_du_is_the_derivative_of_u(profile):
    top = 1e3 if profile.support is None else profile.support
    du, fd, scale = central_difference_oracle(profile, np.geomspace(1e-3 * top, top, 400))
    assert du.size >= 300
    assert np.all(np.abs(du - fd) <= 1e-7 * scale)


DERIVATIVE_CASES = {
    "bubble": lambda: [build_u_star(5, 2.0), build_u_star(6, 1.5)],
    "scalar dilate": lambda: [dilate(build_u_star(5, 2.0), 42.0, 2.0)],
    "array dilate": lambda: list(dilate(build_u_star(5, 2.0), np.array([1e-2, 1.0, 42.0]), 2.0)),
    "w_lambda": lambda: [build_w_lambda(5, 2.0, 2.5, bubble_norms(5, 2.0, Q_CRIT5), log_t=1.0)],
    "truncated": lambda: [build_truncated(3, 2.0, R) for R in (10.0, 1000.0)],
    "random rows": lambda: list(random_profiles(20, N=5, seed=7)),
}


@pytest.mark.parametrize("case", list(DERIVATIVE_CASES))
def test_du_is_the_derivative_of_u(case):
    for prof in DERIVATIVE_CASES[case]():
        assert_du_is_the_derivative_of_u(prof)


@pytest.mark.parametrize("shape", [
    {"support": np.full(3, 5.0), "breaks": np.ones(4), "rows": 3},
    {"support": np.full(2, 5.0), "rows": 3},
    {"support": np.full(3, 5.0)},
])
def test_family_shape_validation(shape):
    # a support per row and the same number of breaks in each, or norms
    # would fail in numpy or read the first row only
    with pytest.raises(ParamError) as info:
        RadialProfile(N=3, values=np.cos, **shape)
    assert info.value.code == ("breaks" if "breaks" in shape else "tail")


def test_tail_validation():
    # exactly one of a positive support (one per row) and a positive decay
    for extent in ({}, {"support": 1.0, "decay": 2.0}, {"support": -2.0},
                   {"support": np.array([1.0, 0.0])}, {"decay": 0.0}, {"decay": math.nan}):
        with pytest.raises(ParamError) as info:
            RadialProfile(N=3, values=np.cos, **extent)
        assert info.value.code == "tail", extent
