"""Tests of the benchmark itself:  python3 -m pytest perfbench

The short runs of every workload take about two minutes, most of it the
interpolation-constant ascent in interp_cold and verify_suite.
"""

import math
from time import perf_counter

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ["ATTAIN_KIT_THREADS"] = "1"

import hostspeed
import refs
import workloads
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
METRICS = json.loads((BENCH / "metrics.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return workloads.import_library()


def _run(workload: str, trace: int, seconds: float = 0.5, cwd: Path = BENCH.parent,
         seed: int = 3):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=str(cwd), timeout=600)
    return proc


# -- references ---------------------------------------------------------------

def test_talenti_constant_matches_library_quadrature(lib):
    S = lib["constants"].sobolev_constant(5, 2.0).value
    assert abs(refs.sobolev_talenti(5, 2.0) - S) <= 1e-12 * S


@pytest.mark.parametrize("fam", [
    refs.Family.local_critical(5, 2.0),
    refs.Family.local_critical(3, 1.05),
    refs.Family.local_subcritical_2_2_4(),
    refs.Family.fractional_critical(5, 0.6),
    refs.Family.fractional_subcritical(5, 0.6, 2.2),
])
def test_below_threshold_D_is_one_in_reference_and_library(lib, fam):
    gammas = [0.5 * (fam.base + fam.upper) if fam.critical else 0.7 * fam.upper,
              fam.upper]
    _, thr = refs.curve_references([fam] * 2, gammas, [1.0, 1.0])
    alphas = [0.5 * t for t in thr]
    D, _ = refs.curve_references([fam] * 2, gammas, alphas)
    assert list(D) == [1.0, 1.0]
    wl = workloads.PhaseGrid(lib, 0)
    k = [f.label for f, *_ in wl.families].index(fam.label)
    for gamma, alpha in zip(gammas, alphas):
        attained, D_lib, thr_lib = wl.run((k, gamma, alpha, "test"))
        assert not attained and D_lib == 1.0
        assert refs.rel_err(thr_lib, 2.0 * alpha) <= 1e-9


def test_reference_threshold_meets_closed_forms():
    fam = refs.Family.local_critical(5, 2.0)
    _, thr = refs.curve_references([fam] * 3, [fam.upper, fam.base, 1.2], [1.0] * 3)
    assert refs.rel_err(thr[0], fam.base / (fam.upper * fam.C)) <= 1e-12
    assert refs.rel_err(thr[1], 1.0 / fam.C) <= 1e-12
    assert refs.rel_err(thr[2], 1.0 / fam.C) <= 1e-12


def test_same_seed_same_inputs(lib):
    a, b = workloads.PhaseGrid(lib, 7), workloads.PhaseGrid(lib, 7)
    assert [a.input(i) for i in range(200)] == [b.input(i) for i in range(200)]
    assert a.input(0) != workloads.PhaseGrid(lib, 8).input(0)


def test_batches_fix_the_band_mix_and_their_size(lib):
    a, b = workloads.PointCold(lib, 1), workloads.PointCold(lib, 2)
    # (N, band of gamma, alpha zero) of every input
    mix = lambda wl: sorted((inp[3][2], inp[0].band(inp[1]), inp[2] == 0.0)
                            for inp in wl.batch(1.0))
    assert len(a.batch(1.0)) == workloads.PointCold.cycle == len(a.batch(40.0))
    assert mix(a) == mix(b)
    assert len(workloads.PhaseGrid(lib, 1).batch(40.0)) == 4000
    assert len(workloads.VerifySuite(lib, 1).batch(40.0)) == 1


def test_sampler_takes_its_own_time_out_and_scales_by_host_speed():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            math.sqrt(2.0)
        t1 = perf_counter()
    finally:
        sampler.stop()
    assert len(sampler.times) >= 5
    (wall,), (scaled,) = sampler.scaled([(t0, t1)])
    inside = sum(sampler.times)
    assert abs(wall - (t1 - t0 - inside)) <= 0.01 * (t1 - t0)
    assert scaled > 0.0


def test_failure_classes_name_type_or_exit_code_and_first_words():
    assert (workloads.failure_class(OverflowError(34, "Numerical result out of range"))
            == "OverflowError: Numerical result out of range")
    exc = workloads.OpFailed("exit 2|numerical failure: profile is not normalized: "
                             "combined norm 1.0000021 differs from 1")
    assert workloads.failure_class(exc) == "exit 2: profile is not normalized"


# -- tracer -------------------------------------------------------------------

def test_tracer_restores_attributes_and_self_times_partition_the_op(lib):
    before = {name: getattr(lib["classify"], name)
              for name in ("classify", "maximize_halfline", "validate")
              if hasattr(lib["classify"], name)}
    wl = workloads.PhaseGrid(lib, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(50):
            root = tracer.begin_op()
            try:
                wl.run(wl.input(i))
            finally:
                tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert {n: getattr(lib["classify"], n) for n in before} == before
    root_incl = tracer.totals["bench.op"][1]
    all_self = sum(t[2] for t in tracer.totals.values())
    assert abs(all_self - root_incl) <= 1e-9 * max(1.0, root_incl)
    assert tracer.calls("classify.classify") == 50
    assert tracer.counts["halfline.n_evals"] > 0
    assert set(map(lambda n: n.split(".")[0], tracer.totals)) <= set(LAYERS) | {"bench"}


# -- whole runs ---------------------------------------------------------------

@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    out = {}
    for trace in (0, 1):
        proc = _run(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    return request.param, out


def test_short_run_emits_every_metric(runs):
    _, out = runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = out[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert detail["timed_ops"] >= result["attempted"]
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        for key in ("failed_share", "max_rel_err", "latency_p99_ms", "failures"):
            assert key in detail
        assert set(detail["machine"]) == {"nproc", "cpu_model", "python", "numpy",
                                          "commit", "seed", "ATTAIN_KIT_THREADS"}
        assert detail["machine"]["ATTAIN_KIT_THREADS"] == "1"


def test_layer_self_times_add_up_to_the_untraced_op_within_overhead(runs):
    name, out = runs
    detail, result = out[1]
    tr = detail["traced"]
    overhead = result["metrics"]["trace.overhead_share"]["value"]
    assert tr["layer_self_sum_ms_per_op"] <= tr["traced_op_ms"] * (1 + 1e-9)
    # child processes spend their start-up outside every span
    start = 0.0 if workloads.WORKLOADS[name].in_process else \
        result["metrics"]["cli.process_start_ms"]["value"]
    gap = abs(tr["layer_self_sum_ms_per_op"] + tr["bench_self_ms_per_op"] + start
              - tr["untraced_op_ms"])
    # single-op runs of the slow workloads also carry run-to-run noise
    assert gap <= (abs(overhead) + 0.1) * tr["untraced_op_ms"]


def test_benchmark_spec_and_metric_map_agree():
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert layer_names == set(METRICS["per_layer"])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(METRICS["end_to_end"])
    workload_names = ({w["name"] for w in SPEC["workloads"]} | {"all"}
                      | set(METRICS["manual_workloads"]))
    e2e = set(METRICS["end_to_end"]) | set(METRICS["detail_only"])
    for entry in METRICS["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in workload_names


def test_same_seed_same_counts():
    counts = []
    for seconds in (0.5, 1.5):
        proc = _run("point_cold", 0, seconds=seconds, seed=5)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        counts.append((result["attempted"], result["failed"], detail["failures"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the maximizer defects show


def test_interp_cold_runs_by_hand():
    proc = _run("interp_cold", 0, seconds=0.5)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("phase_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
