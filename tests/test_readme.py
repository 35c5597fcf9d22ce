"""The README's library quick start and command-line studies run and print
what they promise."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import shlex
from pathlib import Path

import attainkit as ak
import attainkit.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_prints_its_comment():
    code = _quick_start()
    promised = re.search(r"^# (True UniqueInteriorMax .*)$", code, re.M).group(1).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().split()
    assert len(printed) == len(promised)
    assert printed[:2] == promised[:2]
    for got, want in zip(printed[2:], promised[2:]):
        assert math.isclose(float(got), float(want), rel_tol=1e-12), (got, want)


def _study_commands() -> dict[str, list[str]]:
    """The README's command-line studies, keyed by subcommand."""
    section = README.read_text(encoding="utf-8").split("## Studies from the command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]
    return {argv[0]: argv for argv in argvs}


def _run(capsys, argv) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _log_C() -> float:
    params = ak.ProblemParams.local_critical(N=5, p=2.0, gamma=2.2, alpha=1.0)
    return ak.log_kappa_multiplier(params, ak.resolve_constants(params))


def test_readme_sweep_reads_the_flat_band_and_each_threshold(capsys):
    rows = list(csv.DictReader(io.StringIO(_run(capsys, _study_commands()["sweep"]))))
    base = ak.ProblemParams.local_critical(N=5, p=2.0, gamma=0.5, alpha=1.0)
    flat = math.exp(-_log_C())
    assert math.isclose(flat, 89.33435887039496, rel_tol=1e-12)
    for row in rows:
        gamma, threshold = float(row["gamma"]), float(row["threshold"])
        assert threshold == ak.threshold_alpha(dataclasses.replace(base, gamma=gamma))
        if gamma <= 2.0:
            assert math.isclose(threshold, flat, rel_tol=1e-12), gamma
        elif gamma > 10.0 / 3.0:
            assert threshold == 0.0, gamma
    at = {float(row["gamma"]): float(row["threshold"]) for row in rows}
    assert math.isclose(at[2.38], 88.24511192979136, rel_tol=1e-12)


def test_readme_classify_reads_the_boundary_closed_form(capsys):
    verdict = json.loads(_run(capsys, _study_commands()["classify"]))["verdict"]
    boundary = 2.0 / (10.0 / 3.0) * math.exp(-_log_C())
    assert math.isclose(verdict["threshold"], boundary, rel_tol=1e-12)
    assert math.isclose(verdict["threshold"], 53.60061532223699, rel_tol=1e-12)


def test_readme_maximizer_is_the_attained_case(capsys):
    doc = json.loads(_run(capsys, _study_commands()["maximizer"]))
    assert math.isclose(doc["D"], 2.0149027406775994, rel_tol=1e-12)
    assert math.isclose(doc["J_check"], 2.014902740677603, rel_tol=1e-12)


def test_readme_verify_prints_the_study_lines(capsys):
    reports = {r["name"]: r for r in json.loads(_run(capsys, _study_commands()["verify"]))["reports"]}
    assert all(r["passed"] for r in reports.values())
    envelope = reports["envelope"]["details"]
    assert envelope[2] == ("truncated family: J = ['1.021778', '1.794013', '1.911720'] vs "
                           "D = 1.925440, final rel gap 7.13e-03 (allow 1e-2, strictly below, "
                           "increasing)")
    # the rounding-level numbers are read, not pinned to their last digits
    bubble = re.fullmatch(r"bubble family: worst rel \|J - f\| = (\S+) \(allow 1e-6\)", envelope[1])
    assert float(bubble.group(1)) <= 1e-14
    scan = reports["threshold_monotonicity"]["details"]
    assert scan[2].startswith("strict decrease on open band (beyond base + 0.05): "
                              "0 non-decreasing consecutive pairs")
    ends = re.fullmatch(r"endpoint closed forms: rel dev (\S+) at base, (\S+) at top "
                        r"\(allow 1e-6\)", scan[3])
    assert max(map(float, ends.groups())) <= 1e-14
