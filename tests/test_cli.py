"""Command-line interface: JSON/CSV contracts, exit codes, determinism."""

import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import attainkit as ak
import attainkit.cli as cli
from attainkit import (CheckReport, ConstantSet, CurveParams, NearCriticalWarning,
                       ParamError, ProblemParams, fractional_constant)
from attainkit.cli import main
from oracles import (FROZEN_INTERPOLATION_B_2_2_4, bubble_grad_moment_oracle,
                     bubble_moment_oracle, curve_at_t, json_reference,
                     log_sobolev_slope, sphere_area_oracle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CLASSIFY_ARGS = ("classify", "--N", "5", "--p", "2", "--q", "critical",
                 "--gamma", "2.2", "--alpha", "180")


def fresh_cli(*argv):
    """``python -m attainkit`` in a fresh process, on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "attainkit", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_classify_json_contract(capsys):
    code, out, _ = run_cli(capsys, *CLASSIFY_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "attain-kit/1"
    assert doc["command"] == "classify"
    assert doc["problem"]["regime"] == "critical-local"
    assert doc["verdict"]["attained"] is True
    assert doc["verdict"]["reason"] == "UniqueInteriorMax"
    assert doc["verdict"]["D"] > 1.0
    assert doc["verdict"]["log_t_star"] == pytest.approx(
        math.log(doc["verdict"]["t_star"]), rel=1e-15)
    assert out.endswith("\n")


def test_classify_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, *CLASSIFY_ARGS)
    _, second, _ = run_cli(capsys, *CLASSIFY_ARGS)
    assert first == second


def test_classify_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "classify", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "2.2", "--alpha", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["attained"] is False
    assert doc["verdict"]["reason"] == "BelowThreshold"


def test_constants_sobolev_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--N", "5", "--p", "2",
                           "--q", "critical")
    assert code == 0
    doc = json.loads(out)
    assert doc["sobolev"]["method"] == "closed-form"
    assert doc["sobolev"]["value"] == pytest.approx(0.25983308068493427, rel=1e-12)
    assert doc["sobolev"]["err_bound"] < 1e-12


def test_constants_interpolation_matches_library(capsys, gns_224):
    # gns_224 is the same library call
    code, out, _ = run_cli(capsys, "constants", "--N", "2", "--p", "2", "--q", "4")
    assert code == 0
    doc = json.loads(out)
    interp = doc["interpolation"]
    assert interp["method"] == "ground-state"
    # the result comes back intact, and its floats round-trip through JSON
    assert interp["value"] == gns_224.value
    assert interp["err_bound"] == gns_224.err_bound
    assert interp["meta"]["height"] == gns_224.meta["height"]
    assert interp["meta"]["sweeps"] == gns_224.meta["sweeps"]
    # what the method promises: a lower bound whose err_bound reaches B
    B = FROZEN_INTERPOLATION_B_2_2_4
    assert interp["value"] <= B * (1.0 + 1e-9)
    assert interp["value"] + interp["err_bound"] >= B
    # bulky arrays are filtered out of the echoed metadata
    assert "grid" not in interp["meta"]
    assert "profile" not in interp["meta"]


def test_curve_grid_sets_samples_only(capsys):
    args = ("curve", "--N", "2", "--p", "2", "--q", "4", "--gamma", "1.5",
            "--alpha", "1")
    _, small, _ = run_cli(capsys, *args, "--grid", "64")
    _, large, _ = run_cli(capsys, *args, "--grid", "2048")
    small, large = json.loads(small), json.loads(large)
    assert len(small["rows"]) == 64 and len(large["rows"]) == 2048
    assert small["curve_params"]["kappa"] == large["curve_params"]["kappa"]


@pytest.mark.parametrize("problem", [
    ("--N", "5", "--p", "2", "--q", "critical", "--gamma", "2.2", "--alpha", "180"),
    ("--N", "2", "--p", "2", "--q", "4", "--gamma", "1.5", "--alpha", "0.7"),
])
def test_curve_rows_fields_and_values(capsys, problem):
    code, out, _ = run_cli(capsys, "curve", *problem, "--grid", "64")
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert [list(row) for row in rows] == [
        ["t", "s", "f", "g", "f_slope_sign", "g_slope_sign"]] * 64
    t = np.array([row["t"] for row in rows])
    np.testing.assert_array_equal(t, np.geomspace(1e-4, 1e4, 64))
    np.testing.assert_array_equal([row["s"] for row in rows], t / (1.0 + t))
    params = doc["curve_params"]
    cp = CurveParams(b=params["b"], c=params["c"], log_kappa=math.log(params["kappa"]),
                     pgamma=params["pgamma"])
    assert params["a"] == cp.a
    for column, mode in (("f", "max"), ("g", "min")):
        np.testing.assert_allclose([row[column] for row in rows], curve_at_t(cp, mode, t),
                                   rtol=1e-12)
        # each sign is the sign of the slope of the column between its neighbours
        values = np.array([row[column] for row in rows])
        signs = np.array([row[f"{column}_slope_sign"] for row in rows])
        assert set(signs.tolist()) <= {-1, 0, 1}
        steps = np.sign(values[2:] - values[:-2])
        same = signs[:-2] == signs[2:]  # no sign change across the pair
        np.testing.assert_array_equal(signs[1:-1][same], steps[same])


@pytest.mark.parametrize("sub", ["classify", "constants", "maximizer", "sweep"])
@pytest.mark.parametrize("flag", ["--grid", "--budget"])
def test_grid_and_budget_flags_are_gone(capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--N", "5", "--p", "2", "--q", "critical", flag, "64"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    *[(sub, "--json") for sub in ("classify", "constants", "curve", "maximizer", "sweep", "verify")],
    # no constant reads a weight
    ("constants", "--alpha", "1"), ("constants", "--beta", "1"),
])
def test_flags_no_command_reads_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--N", "5", "--p", "2", "--q", "critical"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_constants_fractional_passthrough(capsys):
    code, out, _ = run_cli(capsys, "constants", "--N", "5", "--s", "0.6",
                           "--q", "critical", "--frac-constant", "1.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["fractional"]["method"] == "user-input"
    assert doc["fractional"]["value"] == 1.7


def test_curve_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "curve", "--N", "5", "--p", "2", "--q", "critical",
                           "--gamma", "2.2", "--alpha", "180", "--csv",
                           "--grid", "64")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "t,s,f,g,f_slope_sign,g_slope_sign"
    assert len(lines) == 1 + 64 + 1  # header + rows + trailing newline
    assert "\r" not in out


@pytest.mark.filterwarnings("error")
def test_curve_beyond_the_double_range_prints_inf_without_warning(capsys):
    code, out, err = run_cli(capsys, "curve", "--N", "5", "--p", "2", "--q", "critical",
                             "--gamma", "0.01", "--alpha", "1", "--grid", "8", "--csv")
    assert code == 0, err
    rows = [line.split(",") for line in out.split("\n")[1:4]]
    assert [row[3] for row in rows] == ["inf"] * 3


@pytest.mark.filterwarnings("error")
def test_curve_with_a_kappa_beyond_the_double_range_prints_inf(capsys):
    # alpha * C = 1e310: the curve is still defined, and kappa prints as f does
    code, out, err = run_cli(capsys, "curve", "--N", "5", "--s", "0.6", "--q", "critical",
                             "--gamma", "2.3", "--alpha", "1e300", "--frac-constant", "1e10",
                             "--grid", "8")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["curve_params"]["kappa"] == "inf"
    assert doc["rows"][-1]["f"] == "inf"
    assert all(row["f_slope_sign"] == 1 for row in doc["rows"])


def test_sweep_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--N", "5", "--p", "2", "--q", "critical",
                           "--alpha", "100", "--gamma-range", "2.0:3.5:0.5", "--csv")
    assert code == 0
    lines = [ln for ln in out.split("\n") if ln]
    assert lines[0] == "gamma,threshold,D,attained"
    assert len(lines) == 1 + 4  # 2.0, 2.5, 3.0, 3.5
    first = lines[1].split(",")
    assert first[0] == "2.0"
    assert float(first[1]) == pytest.approx(89.33435887039487, rel=1e-12)
    assert first[3] in ("true", "false")
    assert "\r" not in out


def test_sweep_threshold_nonincreasing(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--N", "5", "--p", "2", "--q", "critical",
                        "--alpha", "100", "--gamma-range", "1.0:3.4:0.2", "--csv")
    thresholds = [float(ln.split(",")[1]) for ln in out.strip().split("\n")[1:]]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


def test_sweep_json_rows(capsys):
    code, out, err = run_cli(capsys, "sweep", "--N", "5", "--p", "2", "--q", "critical",
                             "--alpha", "100", "--gamma-range", "2.0:3.5:0.5")
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["schema"], doc["command"]) == ("attain-kit/1", "sweep")
    assert doc["problem"]["regime"] == "critical-local"
    rows = doc["rows"]
    assert [list(row) for row in rows] == [["gamma", "threshold", "D", "attained"]] * 4
    assert [row["gamma"] for row in rows] == [2.0, 2.5, 3.0, 3.5]
    # the same rows as the CSV table, value for value
    _, csv_out, _ = run_cli(capsys, "sweep", "--N", "5", "--p", "2", "--q", "critical",
                            "--alpha", "100", "--gamma-range", "2.0:3.5:0.5", "--csv")
    for row, line in zip(rows, csv_out.strip().split("\n")[1:]):
        gamma, threshold, D, attained = line.split(",")
        assert (row["gamma"], row["threshold"], row["D"]) == (
            float(gamma), float(threshold), float(D))
        assert row["attained"] is (attained == "true")


def test_maximizer_attained_json(capsys):
    code, out, _ = run_cli(capsys, "maximizer", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "2.2", "--alpha", "180")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] > 0
    assert doc["J_check"] == pytest.approx(doc["D"], rel=1e-6)
    assert len(doc["profile"]["r"]) == len(doc["profile"]["u"]) > 0


def test_maximizer_not_attained_yields_null(capsys):
    code, out, _ = run_cli(capsys, "maximizer", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "2.2", "--alpha", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["maximizer"] is None
    assert doc["verdict"]["reason"] == "BelowThreshold"


@pytest.mark.parametrize("argv", [
    # a dilation far below 1: a quadrature of the dilated profile once came
    # out at combined norm 3.5e-90 and failed its normalization check
    ("--N", "9", "--p", "1.379619718564789", "--gamma", "1.7603792340003923",
     "--alpha", "0.2982895736212518"),
    # a tail barely integrable: the cut-off exponent 14/excess exceeds the
    # float range until it is clamped
    ("--N", "8", "--p", "2.826782457266016", "--gamma", "5.405938169577109",
     "--alpha", "98.46355288332877"),
])
def test_maximizer_extreme_profiles_do_not_overflow(capsys, argv):
    code, out, err = run_cli(capsys, "maximizer", "--q", "critical", *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["J_check"] == pytest.approx(doc["D"], rel=1e-6)


@pytest.mark.parametrize("argv", [
    # log lambda = -1241.6: the amplitude lambda^(1/p) / z is about 1e-464,
    # so every table value underflows to 0
    ("--N", "5", "--p", "1.1631349678042815", "--gamma", "1.5279296246780214",
     "--alpha", "0.7171446680322642"),
    # lambda = 4.7e90: the table's upper end 1e4 / lambda^(1/N) falls below 1e-6
    ("--N", "6", "--p", "1.4816022339544004", "--gamma", "1.601090150748497",
     "--alpha", "2084.669766919404"),
    # log t* = 468 fits a double, but lambda = e^1630.8 does not, and the
    # table's upper end falls below 1e-6
    ("--N", "4", "--p", "1.1288511685911895", "--gamma", "1.1441906154006172",
     "--alpha", "6627.618803705305"),
])
def test_maximizer_dilation_outside_the_double_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "maximizer", "--q", "critical", *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("numerical failure:") and "log lambda = " in err


def test_maximizer_table_is_the_normalized_dilated_bubble(capsys):
    for N, p, gamma, alpha in [
        (5, 2.0, 2.2, 180.0),
        (3, 1.088463017360399, 1.3449710151447078, 509.36695504522123),
        (6, 2.1150090204739618, 2.4819385410967323, 5111.024663311927),
        (9, 1.379619718564789, 1.7603792340003923, 0.2982895736212518),
    ]:
        code, out, err = run_cli(capsys, "maximizer", "--N", str(N), "--p", repr(p),
                                 "--q", "critical", "--gamma", repr(gamma),
                                 "--alpha", repr(alpha))
        assert code == 0, err
        doc = json.loads(out)
        log_lam = doc["log_lambda"]
        r = np.array(doc["profile"]["r"])
        np.testing.assert_array_equal(
            r, np.geomspace(1e-6, 1e4 * math.exp(-log_lam / N), 512))
        # log of lam^(1/p) u*(lam^(1/N) r) over its combined norm, from the
        # Beta moments; 1e-12 in log u is 1e-12 relative in u
        area = sphere_area_oracle(N)
        log_mass = math.log(area * bubble_moment_oracle(N, p, p)) / p
        log_grad = math.log(area * bubble_grad_moment_oracle(N, p)) / p
        log_z = np.logaddexp(gamma * log_mass, gamma * (log_lam / N + log_grad)) / gamma
        log_rho = log_lam / N + np.log(r)
        want = (log_lam / p - log_z
                - (N - p) / p * np.logaddexp(0.0, p / (p - 1.0) * log_rho))
        np.testing.assert_allclose(np.log(doc["profile"]["u"]), want, rtol=0, atol=1e-12)


def test_maximizer_j_check_is_the_curve_at_its_own_quotient(capsys):
    # J_check (the Beta quotient of u*) and D (Talenti's S^q) are two closed
    # forms of one number; one quadrature of the dilated profile once put
    # J_check 6.0e-7 from D at the first point
    for N, p, gamma, alpha in [
        (4, 1.5575359913204303, 3.026940917894105, 3.6728138088488755),
        (5, 2.0, 2.2, 180.0),
        (3, 1.088463017360399, 1.3449710151447078, 509.36695504522123),
        (6, 2.1150090204739618, 2.4819385410967323, 5111.024663311927),
        (9, 1.379619718564789, 1.7603792340003923, 0.2982895736212518),
    ]:
        code, out, err = run_cli(capsys, "maximizer", "--N", str(N), "--p", repr(p),
                                 "--q", "critical", "--gamma", repr(gamma),
                                 "--alpha", repr(alpha))
        assert code == 0, err
        doc = json.loads(out)
        assert abs(doc["J_check"] / doc["D"] - 1.0) <= 1e-12, (N, p)


def test_classify_threshold_overflow_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "--N", "2", "--p", "2", "--q", "4",
                             "--gamma", "0.00390625", "--alpha", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: threshold leaves the double range: "
                          "log10 threshold = 309.02")


@pytest.mark.parametrize("argv", [("classify", "--gamma", "0.003"),
                                  ("sweep", "--gamma-range", "0.003:0.004:0.001")])
def test_overflowed_ratio_curve_exits_2_with_warnings_as_errors(capsys, argv):
    # inf g itself is no double here; numpy's overflow warning must not escape as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, argv[0], "--N", "2", "--p", "2", "--q", "4",
                                 "--alpha", "1", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: threshold leaves the double range: "
                          "log10 threshold = 402.1")
    assert err.count("\n") == 1


def test_classify_sobolev_power_overflow_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "--N", "7", "--p", "6.894565257874503",
                             "--q", "critical", "--gamma", "828.9233299212391",
                             "--alpha", "0.0021439433224140457")
    assert code == 2
    assert out == ""
    # gamma > p*: the threshold is the closed-form 0, and D >= kappa = 1e582
    assert err.startswith("numerical failure: D leaves the double range: log10 D = 582.05")
    assert "Traceback" not in err


def test_classify_kappa_overflow_exits_2(capsys):
    # alpha and the constant are each valid; D >= alpha * C = 1e310 is not a double
    code, out, err = run_cli(capsys, "classify", "--N", "5", "--s", "0.6", "--q", "critical",
                             "--gamma", "2.3", "--alpha", "1e300", "--frac-constant", "1e10")
    assert code == 2
    assert out == ""
    prefix = "numerical failure: D leaves the double range: log10 D = "
    assert err.startswith(prefix) and "Traceback" not in err
    assert float(err[len(prefix):]) == pytest.approx(310.0, rel=1e-12)


@pytest.mark.parametrize("argv,message", [
    # Gamma(N/2) overflows from N = 344; here the dilation leaves the doubles
    (("maximizer", "--N", "400", "--p", "2", "--q", "critical", "--gamma", "300",
      "--alpha", "1"), "log lambda = -2126.8"),
    # the ground state's mass moment underflows
    (("constants", "--N", "400", "--p", "100", "--q", "120"),
     "the lp norm in dimension 400 is 0.0, outside the normal doubles"),
    # the bubble's closed-form mass norm is 10^-1335
    (("maximizer", "--N", "2000", "--p", "2", "--q", "critical", "--gamma", "3000",
      "--alpha", "1"), "the lp norm in dimension 2000 is 10^-1334.93, outside the normal doubles"),
])
def test_large_dimension_exits_2_with_one_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("N,p,q", [("3", "2", "2.000001"), ("6", "1.1", "1.101")])
def test_constants_as_q_nears_p_converge(capsys, N, p, q):
    code, out, _ = run_cli(capsys, "constants", "--N", N, "--p", p, "--q", q)
    assert code == 0
    assert json.loads(out)["interpolation"]["meta"]["converged"] is True


@pytest.mark.parametrize("N,p,q", [
    (5, 1.2761714570272076, 1.2761714570272087), (4, 1.0356738560349097, 1.0356738560349104),
    (2, 1.0481264628177107, 1.0481264628177318), (3, 1.0768042365764503, 1.076804236576467)])
def test_constants_as_q_nears_p_at_small_p_reach_the_log_sobolev_floor(capsys, N, p, q):
    # the glued tail of a flat core is long: its moments pass the doubles,
    # some candidates' kappa underflows or their support overflows, and
    # log Q rounds by more than the quadrature's bound
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "constants", "--N", str(N), "--p", repr(p), "--q", repr(q))
    assert code == 0
    got = json.loads(out)["interpolation"]
    floor = math.exp(log_sobolev_slope(N, p) * (q - p))
    assert got["value"] - got["err_bound"] <= floor * (1.0 + 4.0 * sys.float_info.epsilon)
    assert got["value"] + got["err_bound"] >= floor


def test_constants_as_q_nears_p_names_the_undecided_shots(capsys, monkeypatch):
    # a step budget too small for the widening ground state leaves every shot undecided
    monkeypatch.setattr(ak.constants, "_MAX_STEPS", 40)
    code, out, err = run_cli(capsys, "constants", "--N", "3", "--p", "2", "--q", "2.000001")
    assert (code, out) == (2, "")
    assert err == ("numerical failure: shooting found no undershooting height: in round 1, "
                   "32 of 32 shots were still undecided after 38 RK4 steps, at r = 17.99 "
                   "(the step budget per round is 38)\n")


def test_maximizer_rejects_subcritical(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the regime check must come before any numerics")

    # the package re-exports the function classify under the module's name
    classify_mod = importlib.import_module("attainkit.classify")
    for name in ("classify", "resolve_constants", "sobolev_constant", "gns_constant_estimate"):
        monkeypatch.setattr(classify_mod, name, no_solve)
    frac = ConstantSet(fractional=fractional_constant(1.7))
    for argv, params, cset in [
        # subcritical local, above and below the threshold: the exit code
        # does not depend on the weight, and no constant is computed
        (("--N", "2", "--p", "2", "--q", "4", "--gamma", "1.5", "--alpha", "50"),
         ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=50.0), None),
        (("--N", "2", "--p", "2", "--q", "4", "--gamma", "1.5", "--alpha", "0.01"),
         ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=0.01), None),
        (("--N", "5", "--s", "0.6", "--q", "critical", "--gamma", "2.3",
          "--beta", "5", "--frac-constant", "1.7"),
         ProblemParams.fractional_critical(N=5, s=0.6, gamma=2.3, alpha=5.0), frac),
    ]:
        with pytest.raises(ParamError, match="critical local family only") as exc:
            ak.maximizer(params, cset)
        assert exc.value.code == "params"
        code, out, err = run_cli(capsys, "maximizer", *argv)
        assert code == 1, argv
        assert out == ""
        assert "critical local family only" in err


def test_curve_grid_is_checked_before_any_numerics(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the --grid check must come before the constant")

    monkeypatch.setattr(cli, "resolve_constants", no_solve)
    for grid in ("0", "1000001"):
        code, out, err = run_cli(capsys, "curve", "--N", "2", "--p", "2", "--q", "4",
                                 "--gamma", "1.5", "--alpha", "1", "--grid", grid)
        assert code == 1, grid
        assert out == ""
        assert err.startswith("validation error (grid)")


MAXIMIZER_ARGS = ("maximizer", "--N", "5", "--p", "2", "--q", "critical",
                  "--gamma", "2.2", "--alpha", "180")


def test_maximizer_csv_routes_the_header(capsys, tmp_path):
    _, json_out, _ = run_cli(capsys, *MAXIMIZER_ARGS)
    full = json.loads(json_out)
    profile = full.pop("profile")
    # table on stdout: the JSON header goes to stderr
    code, out, err = run_cli(capsys, *MAXIMIZER_ARGS, "--csv")
    assert code == 0
    assert json.loads(err) == full
    lines = out.split("\n")
    assert lines[0] == "r,u" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [float(r) for r, _ in rows] == profile["r"]
    assert [float(u) for _, u in rows] == profile["u"]
    # table in a file: the header goes to stdout, stderr stays empty
    target = tmp_path / "profile.csv"
    code, out, err = run_cli(capsys, *MAXIMIZER_ARGS, "--csv", "--out", str(target))
    assert code == 0
    assert json.loads(out) == full
    assert err == ""
    assert target.read_text(encoding="utf-8") == "\n".join(lines)


def test_maximizer_tiny_threshold_is_not_a_tie(capsys):
    # alpha is 67 times a threshold of 9.2e-51; an absolute snap called it a
    # tie and then refused the numeric D against the closed form D = 1
    code, out, err = run_cli(capsys, "maximizer", "--N", "9",
                             "--p", "8.084487398446278", "--q", "critical",
                             "--gamma", "78.56235771963881",
                             "--alpha", "6.2172084484482235e-49")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["maximizer"] is None
    assert doc["verdict"]["reason"] == "SobolevNotAttained"


def test_parser_reuse_carries_nothing_between_calls(capsys, tmp_path):
    # the parser is built once per process; every call must still behave
    # as it does in a fresh process
    calls = [
        CLASSIFY_ARGS,
        ("maximizer", "--N", "5", "--p", "2", "--q", "critical",
         "--gamma", "2.2", "--alpha", "180", "--tol", "1e-18"),
        ("classify", "--N", "5", "--p", "2", "--q", "critical",
         "--gamma", "2.2", "--alpha", "180", "--bogus"),
        ("maximizer", "--N", "5", "--p", "2", "--q", "critical",
         "--gamma", "2.2", "--alpha", "180"),
        ("classify", "--N", "5", "--s", "0.6", "--q", "critical",
         "--gamma", "1.0", "--beta", "1", "--frac-constant", "1.7"),
        CLASSIFY_ARGS,
    ]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = fresh_cli(*argv)
        assert (code, captured.out) == (fresh.returncode, fresh.stdout), argv
        assert captured.err == fresh.stderr, argv


def test_maximizer_beyond_the_double_range_exits_numerical(capsys):
    # the maximizer sits at log t* = 21277.94: no double holds t*, the
    # dilation or the table's radii
    code, out, err = run_cli(capsys, "maximizer", "--N", "6", "--p", "1.05",
                             "--q", "critical", "--gamma", "1.0502312310584088",
                             "--alpha", "1295.8598210709758")
    assert code == 2
    assert out == ""
    assert "log lambda = " in err and "Traceback" not in err


def test_maximizer_tight_tol_exits_numerical(capsys):
    code, _, err = run_cli(capsys, "maximizer", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "2.2", "--alpha", "180",
                           "--tol", "1e-18")
    assert code == 2
    assert err


def test_bad_gamma_exits_validation(capsys):
    code, _, err = run_cli(capsys, "classify", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "-1", "--alpha", "1")
    assert code == 1
    assert err


def test_alpha_beta_conflict_exits_validation(capsys):
    code, _, err = run_cli(capsys, "classify", "--N", "5", "--p", "2",
                           "--q", "critical", "--gamma", "2.2",
                           "--alpha", "1", "--beta", "2")
    assert code == 1
    assert err


def test_beta_synonym_accepted(capsys):
    code, out, _ = run_cli(capsys, "classify", "--N", "5", "--s", "0.6",
                           "--q", "critical", "--gamma", "1.0", "--beta", "1",
                           "--frac-constant", "1.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["regime"] == "critical-fractional"
    assert doc["verdict"]["reason"] == "ConvexityExclusion"


def test_fractional_without_constant_exits_validation(capsys):
    code, _, err = run_cli(capsys, "classify", "--N", "5", "--s", "0.6",
                           "--q", "critical", "--gamma", "1.0", "--alpha", "1")
    assert code == 1
    assert err


def test_unknown_flag_exits_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--N", "5", "--p", "2", "--q", "critical",
              "--gamma", "2.2", "--alpha", "1", "--bogus"])
    assert exc.value.code == 1


_CRIT = ("--N", "5", "--p", "2", "--q", "critical")


@pytest.mark.parametrize("code,argv", [
    ("q", ("classify", "--N", "2", "--p", "2", "--q", "abc", "--gamma", "1.5",
           "--alpha", "1")),
    ("q", ("constants", "--N", "2", "--p", "2", "--q", "four")),
    ("grid", ("curve", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--grid", "-3")),
    ("grid", ("curve", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--grid", "0")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "nan:1:0.1")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "1:inf:1")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "1:2:nan")),
    # finite ends, but (stop - start) / step overflows before any allocation
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "0:1e300:1e-300")),
    ("tol", ("maximizer", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--tol=-1")),
    ("tol", ("maximizer", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--tol", "0")),
    ("tol", ("maximizer", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--tol", "nan")),
    # sample counts beyond the cap are refused before numpy allocates them
    ("grid", ("curve", *_CRIT, "--gamma", "2.2", "--alpha", "180", "--grid", "1000001")),
    ("grid", ("curve", *_CRIT, "--gamma", "2.2", "--alpha", "180",
              "--grid", "1000000000000000")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "1:2:1e-15")),
    # the fractional family is posed for p = 2; another --p is refused, not dropped
    ("p", ("classify", "--N", "5", "--s", "0.6", "--p", "3", "--q", "critical",
           "--gamma", "2.3", "--alpha", "1", "--frac-constant", "1.7")),
    ("p", ("constants", "--N", "5", "--s", "0.6", "--p", "3", "--frac-constant", "1.7")),
    # constants validates s, N and q of the fractional family as classify does
    ("s", ("constants", "--N", "5", "--s", "99", "--frac-constant", "1.7")),
    ("s", ("constants", "--N", "5", "--s", "nan", "--frac-constant", "1.7")),
    ("s", ("constants", "--N", "-3", "--s", "0.6", "--frac-constant", "1.7")),
    ("q", ("constants", "--N", "5", "--s", "0.6", "--q", "1.0", "--frac-constant", "1.7")),
    # a fractional problem without its constant names the flag that supplies it
    ("frac-constant", ("classify", "--N", "5", "--s", "0.6", "--q", "critical",
                       "--gamma", "2.3", "--alpha", "1")),
    ("frac-constant", ("constants", "--N", "5", "--s", "0.6")),
    # a missing flag, and a gamma range that is not start:stop:step in numbers
    ("N", ("classify", "--p", "2", "--q", "critical", "--gamma", "2.2", "--alpha", "1")),
    ("gamma", ("classify", *_CRIT, "--alpha", "1")),
    ("p", ("classify", "--N", "5", "--q", "critical", "--gamma", "2.2", "--alpha", "1")),
    ("q", ("classify", "--N", "5", "--p", "2", "--gamma", "2.2", "--alpha", "1")),
    ("q", ("classify", "--N", "5", "--s", "0.6", "--gamma", "2.3", "--alpha", "1",
           "--frac-constant", "1.7")),
    ("alpha", ("classify", *_CRIT, "--gamma", "2.2")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "1:2")),
    ("gamma-range", ("sweep", *_CRIT, "--alpha", "100", "--gamma-range", "a:b:c")),
    # the local family computes its constant: a --frac-constant given with it is refused
    ("frac-constant", ("classify", *_CRIT, "--gamma", "2.2", "--alpha", "1",
                       "--frac-constant", "3")),
    ("frac-constant", ("constants", "--N", "2", "--p", "2", "--q", "4", "--frac-constant", "3")),
    ("frac-constant", ("maximizer", *_CRIT, "--gamma", "2.2", "--alpha", "180",
                       "--frac-constant", "3")),
    # curve exponents outside the doubles name the parameter that put them there
    ("gamma", ("classify", "--N", "2", "--p", "2", "--q", "4", "--gamma", "1e-308",
               "--alpha", "1")),
    ("gamma", ("sweep", *_CRIT, "--alpha", "1", "--gamma-range", "1e-320:1e-319:1e-320")),
    ("s", ("classify", "--N", "5", "--s", "1e-300", "--q", "critical", "--gamma", "3",
           "--alpha", "1", "--frac-constant", "1")),
])
def test_boundary_input_exits_validation(capsys, code, argv):
    got, out, err = run_cli(capsys, *argv)
    assert got == 1
    assert out == ""
    assert err.startswith(f"validation error ({code})")
    assert "Traceback" not in err


NEAR_CRITICAL_Q = repr(10.0 / 3.0)  # equals the critical exponent to float precision
SNAP_LINE = (f"warning: q={NEAR_CRITICAL_Q} is within 1e-12 of the critical exponent "
             f"{NEAR_CRITICAL_Q}; treating the problem as critical\n")


def test_near_critical_numeric_q_warns_and_upgrades(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "classify", "--N", "5", "--p", "2",
                                 "--q", NEAR_CRITICAL_Q, "--gamma", "2.2", "--alpha", "180")
        # the snap comes first, so that the validation error is the last line
        bad = run_cli(capsys, "maximizer", "--N", "5", "--p", "2", "--q", NEAR_CRITICAL_Q,
                      "--gamma", "2.2", "--alpha", "180", "--tol", "-1")
    assert code == 0
    # the snap is one stderr line, and no Python warning with a source location
    assert err == SNAP_LINE
    assert not [w for w in caught if issubclass(w.category, NearCriticalWarning)]
    doc = json.loads(out)
    # the echoed flag records what the user passed; the regime upgrades
    assert doc["problem"]["regime"] == "critical-local"
    assert doc["verdict"]["attained"] is True
    assert bad[0] == 1 and bad[1] == ""
    assert bad[2].startswith(SNAP_LINE + "validation error (tol)")
    assert bad[2].count("\n") == 2


def test_module_entry_point_reports_the_near_critical_snap():
    proc = fresh_cli("classify", "--N", "5", "--p", "2", "--q", NEAR_CRITICAL_Q,
                     "--gamma", "2.5", "--alpha", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["problem"]["regime"] == "critical-local"
    assert proc.stderr == SNAP_LINE  # no runpy frame, no file:line


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(capsys, *CLASSIFY_ARGS, "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "attain-kit/1"


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = CheckReport.from_violations(
        name="stub", violations=[1.0], n_cases=1, details=["forced failure"])
    monkeypatch.setattr(cli, "run_all", lambda: (failing,))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    doc = json.loads(out)
    assert doc["reports"][0]["passed"] is False


def test_verify_exit_code_on_success(capsys, monkeypatch):
    passing = CheckReport.from_violations(
        name="stub", violations=[-1.0], n_cases=1, details=["forced pass"])
    monkeypatch.setattr(cli, "run_all", lambda: (passing,))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["reports"][0]["passed"] is True


def test_nan_inf_serialization():
    text = cli.to_json({"a": float("nan"), "b": float("inf"), "c": -float("inf")})
    doc = json.loads(text)
    assert doc == {"a": "nan", "b": "inf", "c": "-inf"}


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_]),
                     hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
_DOCS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS, st.lists(st.floats(allow_nan=False, allow_infinity=False))),
    lambda kids: st.one_of(
        st.lists(kids), st.lists(kids).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(), st.booleans(), st.none()), kids)),
    max_leaves=24)


@settings(max_examples=100)
@given(_DOCS)
@example({"é ∞": [-0.0, float("nan"), float("-inf"), 1e-320], "": {}, "t": (),
          1: [[]], "1": "the key 1 again, after str()", "n": None,
          "np": [np.float64(0.1), np.float32(0.1), np.int64(-3), np.bool_(True)],
          "a": np.array([[1.5, np.nan], [np.inf, -0.0]])})
def test_to_json_is_json_dumps_byte_for_byte(doc):
    assert cli.to_json(doc) == json_reference(doc)


@pytest.mark.parametrize("cell,text", [
    ("plain", "plain"), ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'), ("two\nlines", '"two\nlines"'),
])
def test_csv_quotes_a_cell_with_a_comma_quote_or_newline(cell, text):
    assert cli._csv_text(["name", "x"], [[cell, 1.5]]) == f"name,x\n{text},1.5\n"
