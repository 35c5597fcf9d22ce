"""attain-kit benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload phase_grid --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the library from its
``src/``.  ``ATTAIN_KIT_THREADS=1`` is set before numpy loads, here and
in every child process.  The seed and the run length fix a batch of
inputs, which is timed in passes for ``--seconds``; ``attempted`` and
``failed`` count the batch's inputs, checked against independent
references after the timed loop, so the same seed gives the same counts.
With ``--trace 0`` the end-to-end metrics are reported, operation times
scaled to host speed (see ``hostspeed``); with ``--trace 1`` passes
alternate untraced and traced with every layer wrapped, and the
per-layer metrics are reported.  The last line of stdout is the result;
the line before it holds the details (failure classes, tail latency,
errors, unscaled figures, machine).  Exit code 2 when the library is
missing from the checkout.
"""

import os

os.environ["ATTAIN_KIT_THREADS"] = "1"  # before numpy loads

import argparse
import json
import platform
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import workloads
from tracer import CONSTRUCTION, LAYERS, Tracer

#: fresh processes timed per run for setup_s and cli.process_start_ms
PROBES = 5
CHANGED = "check: output differs between passes"


def probe_seconds(cmd: list[str]) -> tuple[float, float]:
    """Median wall time of fresh Python processes running ``cmd``, as
    measured and scaled to host speed."""
    walls, scaled = [], []
    for _ in range(PROBES):
        proc, wall, scaled_wall = hostspeed.around(
            lambda: workloads.run_child([sys.executable, *cmd], 120.0, capture=False))
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited {proc.returncode}")
        walls.append(wall)
        scaled.append(scaled_wall)
    return statistics.median(walls), statistics.median(scaled)


def measure(wl, inputs: list, seconds: float, tracer: Tracer | None = None):
    """Time the batch ``inputs`` in passes until ``seconds`` have gone by.

    The first pass always completes; with a tracer, passes alternate
    untraced and traced, and the first traced pass completes too.  After
    that an op starts only if it is expected to end within ``seconds``
    (the last op's latency is the estimate of the next one's).  Returns the
    (start, end) of every timed op, untraced and traced, with its input's
    index; per input, its failure class or None (from the first pass, its
    check against the references, or a later pass whose output differs);
    and the relative errors of the checks.
    """
    key = (lambda out: out) if wl.in_process else (lambda out: out and out[0])
    spans: dict[bool, list] = {False: [], True: []}
    first_out, first_fail, changed = [], [], [False] * len(inputs)
    must = 2 if tracer is not None else 1  # passes that complete
    start, last, p, done = perf_counter(), 0.0, 0, False
    while not done:
        traced = p % 2 == 1 and tracer is not None
        if traced:
            tracer.install()
        try:
            for j, inp in enumerate(inputs):
                if p >= must and perf_counter() - start + last > seconds:
                    done = True
                    break
                root = tracer.begin_op() if traced and wl.in_process else None
                out, fail = None, None
                t0 = perf_counter()
                try:
                    out = wl.run(inp, traced=traced)
                except Exception as exc:  # a failed op is recorded, never dropped
                    fail = workloads.failure_class(exc)
                t1 = perf_counter()
                last = t1 - t0
                if root is not None:
                    tracer.end_op(root, ok=fail is None)
                elif traced and out is not None and out[1] is not None:
                    tracer.merge(out[1])
                spans[traced].append((t0, t1, j))
                if p == 0:
                    first_out.append(out)
                    first_fail.append(fail)
                elif (fail, key(out)) != (first_fail[j], key(first_out[j])):
                    changed[j] = True
        finally:
            if traced:
                tracer.uninstall()
        p += 1
    checks = wl.check(inputs, first_out)
    failures = [fail or check or (CHANGED if moved else None)
                for fail, (check, _), moved in zip(first_fail, checks, changed)]
    return spans, failures, [errs for _, errs in checks]


def summarize(latencies, failures, errors) -> dict:
    """End-to-end figures of one run: ``latencies`` are the timed ops' (s),
    ``failures`` and ``errors`` one per input of the batch."""
    n = len(latencies)
    lat_ms = np.asarray(latencies) * 1e3
    worst: dict[str, float] = {}
    for errs in errors:
        for key, v in errs.items():
            worst[key] = max(worst.get(key, 0.0), v)
    failed = sum(f is not None for f in failures)
    return {
        "timed_ops": n,
        "latency_p50_ms": float(np.median(lat_ms)),
        # the highest percentile with at least ten samples beyond it
        "latency_p99_ms": float(np.percentile(lat_ms, 99)) if n >= 1000 else None,
        "ops_per_s": n / float(np.sum(latencies)),
        "attempted": len(failures),
        "failed": failed,
        "failed_share": failed / len(failures),
        "max_rel_err": max(worst.values()) if worst else None,
        "max_rel_err_by_output": worst,
        "failures": dict(Counter(f for f in failures if f is not None).most_common()),
        "correct": not any(f is not None and f.startswith("check") for f in failures),
    }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, untraced_op_s: float, traced_op_s: float,
                  process_start_s: float) -> dict:
    n = tr.ops
    c = tr.counts
    gns = "constants.gns_constant_estimate"
    sob = "constants.sobolev_constant"
    norms = "profiles.norms"
    verify_incl = lambda name: tr.totals.get(name, (0, 0.0))[1] / n
    m = {
        "params.validate.calls_per_op": tr.calls("params.validate") / n,
        "curves.stationary_points.calls_per_op": tr.calls("curves.stationary_points") / n,
        "curves.stationary_points.self_ms_per_op": tr.self_s("curves.stationary_points") * 1e3 / n,
        "halfline.calls_per_op": tr.layer_calls("halfline") / n,
        "halfline.n_evals_per_op": c.get("halfline.n_evals", 0.0) / n,
        "halfline.self_ms_per_op": tr.layer_self_s("halfline") * 1e3 / n,
        "halfline.marginal_share": _per(c.get("halfline.marginal", 0.0),
                                        c.get("halfline.results", 0.0)),
        "classify.self_ms_per_op": tr.layer_self_s("classify") * 1e3 / n,
        "classify.resolve_constants.calls_per_op": tr.calls("classify.resolve_constants") / n,
        "classify.error_share": _per(tr.errors("classify.classify"),
                                     tr.calls("classify.classify")),
        "constants.sobolev.calls_per_op": tr.calls(sob) / n,
        "constants.sobolev.self_ms_per_call": _per(tr.self_s(sob) * 1e3, tr.calls(sob)),
        "constants.gns.self_s_per_call": _per(tr.self_s(gns), tr.calls(gns)),
        "constants.gns.sweeps": _per(c.get("constants.gns.sweeps", 0.0),
                                     c.get("constants.gns.calls", 0.0)),
        "constants.gns.converged_share": _per(c.get("constants.gns.converged", 0.0),
                                              c.get("constants.gns.calls", 0.0)),
        "profiles.norms.calls_per_op": tr.calls(norms) / n,
        "profiles.norms.self_ms_per_call": _per(tr.self_s(norms) * 1e3, tr.calls(norms)),
        "profiles.build.self_ms_per_op": tr.self_s(*CONSTRUCTION) * 1e3 / n,
        "profiles.evaluate_J.calls_per_op": tr.calls("profiles.evaluate_J") / n,
        "profiles.construction_fail_share": _per(c.get("profiles.construction_failed", 0.0),
                                                 c.get("profiles.construction_ops", 0.0)),
        "verify.truth_table.self_s": verify_incl("verify.run_truth_table"),
        "verify.envelope.self_s": verify_incl("verify.run_envelope"),
        "verify.threshold_monotonicity.self_s": verify_incl("verify.run_monotonicity_scan"),
        "verify.derivative_signs.self_s": verify_incl("verify.run_derivative_checks"),
        "verify.resolve_constants.self_s":
            tr.parent_incl.get(("classify.resolve_constants", "verify"), 0.0) / n,
        "cli.main.self_ms_per_op": tr.self_s("cli.main") * 1e3 / n,
        "cli.process_start_ms": process_start_s * 1e3,
        "trace.overhead_share": traced_op_s / untraced_op_s - 1.0,
    }
    for layer in ("params", "curves", "constants", "profiles", "verify"):
        m[f"{layer}.self_ms_per_op"] = tr.layer_self_s(layer) * 1e3 / n
    return m


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": _git_commit(workloads.ROOT), "seed": seed,
            "ATTAIN_KIT_THREADS": os.environ.get("ATTAIN_KIT_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        lib = workloads.import_library()
    except workloads.LibraryMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(args.seed)}
    cls = workloads.WORKLOADS[args.workload]
    if not args.trace:
        setup_wall, setup_s = probe_seconds([str(workloads.BENCH_DIR / "child.py"), "setup",
                                             args.workload, str(args.seed)])
        wl = cls(lib, args.seed)
        inputs = wl.batch(args.seconds)
        # ops run in child processes are timed as they are: a sampler here
        # would measure another core
        sampler = hostspeed.Sampler() if wl.in_process else None
        if sampler is not None:
            sampler.start()
        try:
            spans, failures, errors = measure(wl, inputs, args.seconds)
        finally:
            if sampler is not None:
                sampler.stop()
        ops = [(t0, t1) for t0, t1, _ in spans[False]]
        wall, scaled = (sampler.scaled(ops) if sampler is not None
                        else ([t1 - t0 for t0, t1 in ops],) * 2)
        summary = summarize(scaled, failures, errors)
        as_measured = summarize(wall, failures, errors)
        detail["as_measured"] = {"setup_s": setup_wall,
                                 "ops_per_s": as_measured["ops_per_s"],
                                 "latency_p50_ms": as_measured["latency_p50_ms"],
                                 "host_speed_samples": len(sampler.times) if sampler else 0}
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (summary["ops_per_s"], "1/s"),
                   "latency_p50_ms": (summary["latency_p50_ms"], "ms")}
    else:
        process_start_s, _ = probe_seconds(["-c", "import attainkit.cli"])
        wl = cls(lib, args.seed)
        inputs = wl.batch(args.seconds)
        tracer = Tracer()
        spans, failures, errors = measure(wl, inputs, args.seconds, tracer=tracer)
        summary = summarize([t1 - t0 for t0, t1, _ in spans[False]], failures, errors)
        # mean op time over the batch, each input weighted once, so passes
        # cut short do not tilt the mix
        per_input = {}
        for traced in (False, True):
            sums, counts = np.zeros(len(inputs)), np.zeros(len(inputs))
            for t0, t1, j in spans[traced]:
                sums[j] += t1 - t0
                counts[j] += 1
            per_input[traced] = float(np.mean(sums / counts))
        untraced_op_s, traced_op_s = per_input[False], per_input[True]
        per_layer = layer_metrics(tracer, untraced_op_s, traced_op_s, process_start_s)
        layers = {layer: tracer.layer_self_s(layer) * 1e3 / tracer.ops
                  for layer in LAYERS}
        detail["traced"] = {
            "untraced_op_ms": untraced_op_s * 1e3, "traced_op_ms": traced_op_s * 1e3,
            "layer_self_ms_per_op": layers,
            "layer_self_sum_ms_per_op": sum(layers.values()),
            "bench_self_ms_per_op": tracer.self_s("bench.op") * 1e3 / tracer.ops}
        units = {"calls_per_op": "count", "n_evals_per_op": "count", "sweeps": "count",
                 "share": "ratio", "self_ms_per_op": "ms", "self_ms_per_call": "ms",
                 "self_s_per_call": "s", "self_s": "s", "process_start_ms": "ms"}
        metrics = {name: (v, next(u for suffix, u in units.items() if name.endswith(suffix)))
                   for name, v in per_layer.items()}
    detail.update({k: v for k, v in summary.items() if k not in ("attempted", "failed")})
    print(json.dumps({"detail": detail}))
    result = {"correct": summary["correct"], "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
