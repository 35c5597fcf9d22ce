"""The benchmark's workloads: the three BENCHMARK.json lists, and
interp_cold, which is run by hand.

Each workload makes its inputs from the seed alone, runs one operation per
input against the library built from this checkout's ``src/``, and checks
the outputs against ``refs`` after the timed loop.  Inputs are never
filtered: a point on which the library raises or exits nonzero is a
failed operation, classified by exception type or exit code and the first
words of the message.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import refs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: marker of the line a traced child process writes its trace on (stderr)
TRACE_MARK = "PERFBENCH-TRACE "


class LibraryMissing(RuntimeError):
    pass


def import_library() -> dict:
    """Import attainkit from this checkout's src/ and return its layer modules."""
    if not (SRC / "attainkit" / "__init__.py").is_file():
        raise LibraryMissing(f"no attainkit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import attainkit
    if Path(attainkit.__file__).resolve().parent != SRC / "attainkit":
        raise LibraryMissing(f"imported attainkit from {attainkit.__file__}, not {SRC}")
    from tracer import LAYERS
    return {layer: importlib.import_module(f"attainkit.{layer}") for layer in LAYERS}


def child_env() -> dict:
    env = dict(os.environ)
    env["ATTAIN_KIT_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], timeout: float, capture: bool) -> subprocess.CompletedProcess:
    """Run a child process to completion, killing it after ``timeout`` s.

    Unlike ``subprocess.run(timeout=...)``, which polls with sleeps of up to
    50 ms, this waits in one blocking call, so its wall time is exact.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(cmd, stdout=pipe, stderr=pipe if capture else None, text=True,
                          env=child_env(), cwd=str(ROOT)) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class OpFailed(Exception):
    """An operation that completed but reported failure (nonzero exit)."""


def failure_class(exc: BaseException) -> str:
    """'<type or exit code>: <first words of the message>'."""
    if isinstance(exc, OpFailed):
        head, _, msg = str(exc).partition("|")
    else:
        head, msg = type(exc).__name__, str(exc)
    # the CLI prefixes its messages with the failure family
    msg = re.sub(r"^(numerical failure|validation error \(\w+\)): ", "", msg.strip())
    msg = msg.split(":", 1)[0]
    words = re.findall(r"[A-Za-z][A-Za-z_*-]*", msg)[:6]
    return f"{head}: {' '.join(words)}"


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


#: the band schedules: slot k of 40 gives the band of gamma and how alpha is
#: drawn ("at-threshold": exactly the closed-form threshold base / (upper C)
#: at gamma = upper; "alpha zero": alpha = 0 at an interior gamma)
_CRITICAL_SLOTS = (["below"] * 8 + ["base"] * 4 + ["interior"] * 11 + ["alpha zero"]
                   + ["upper"] * 2 + ["at-threshold edge"] * 2 + ["above"] * 12)
_SUBCRITICAL_SLOTS = (["interior"] * 17 + ["alpha zero"] + ["upper"] * 3
                      + ["at-threshold edge"] * 3 + ["above"] * 16)
SLOTS = len(_CRITICAL_SLOTS)
assert len(_SUBCRITICAL_SLOTS) == SLOTS


def _gamma_and_alpha(rng, fam: refs.Family, slot: int,
                     alpha_decades: float = 2.0) -> tuple[float, float, str]:
    """A gamma from the band of schedule slot ``slot`` and a log-uniform
    weight.  The schedule fixes the share of every band, so seeds differ
    only in the values drawn, not in the mix; band edges are hit exactly.
    """
    base, upper, C = fam.base, fam.upper, fam.C
    cell = (_CRITICAL_SLOTS if fam.critical else _SUBCRITICAL_SLOTS)[slot % SLOTS]
    band = {"alpha zero": "interior", "at-threshold edge": "upper"}.get(cell, cell)
    gamma = {
        "below": lambda: float(rng.uniform(0.3 * base, base)),
        "base": lambda: base,
        "interior": lambda: float(rng.uniform(base, upper)) if fam.critical
        else float(rng.uniform(0.3 * upper, upper)),
        "upper": lambda: upper,
        "above": lambda: float(rng.uniform(upper, 1.6 * upper)),
    }[band]()
    if cell == "at-threshold edge":
        return gamma, base / (upper * C), cell
    if cell == "alpha zero":
        return gamma, 0.0, cell
    scale = 10.0 ** alpha_decades
    return gamma, _log_uniform(rng, 1.0 / scale, scale) / C, cell


class Workload:
    """One workload: seeded inputs, one operation per input, a check.

    ``input(i)`` is the i-th input; the same seed gives the same sequence.
    ``batch(seconds)`` is the inputs one run times: ``rate`` per second of
    the run, rounded to whole ``cycle``s of the input schedule, so a seed
    and a run length fix the batch.  ``run(inp)`` is the timed operation
    and returns its raw output (or raises).  ``check(inputs, outputs)``
    returns, per operation, a failure class (or None) and the relative
    errors measured against the references; outputs of None are
    operations that already failed.
    """

    name = ""
    in_process = True  # False: each op is its own process, traced there
    rate = 1.0         # inputs in a batch per second of the run
    cycle = 1          # length of the input schedule

    def __init__(self, lib: dict, seed: int):
        self.lib = lib
        self.rng = np.random.default_rng([seed % 2**32, sum(map(ord, self.name))])
        self._inputs: list = []

    def input(self, i: int):
        while len(self._inputs) <= i:
            self._inputs.append(self.make_input(len(self._inputs)))
        return self._inputs[i]

    def batch(self, seconds: float) -> list:
        n = self.cycle * max(1, round(self.rate * seconds / self.cycle))
        return [self.input(i) for i in range(n)]

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, traced: bool = False):
        raise NotImplementedError

    def check(self, inputs: list, outputs: list) -> list[tuple[str | None, dict]]:
        done = [(inp, out) for inp, out in zip(inputs, outputs) if out is not None]
        it = iter(self.check_done(done))
        return [next(it) if out is not None else (None, {}) for out in outputs]

    def check_done(self, done: list) -> list[tuple[str | None, dict]]:
        """Check the (input, output) pairs of the operations that completed."""
        raise NotImplementedError


# -- phase_grid -------------------------------------------------------------

class PhaseGrid(Workload):
    """Warm classify calls over random (gamma, alpha) in all four regimes."""

    name = "phase_grid"
    rate = 100.0
    tol = 1e-9       # D and threshold against the dense-curve reference
    tie_rtol = 1e-9  # alpha this close to the threshold is a tie

    def __init__(self, lib: dict, seed: int):
        super().__init__(lib, seed)
        P = lib["params"].ProblemParams
        resolve = lib["classify"].resolve_constants
        ConstantSet = lib["classify"].ConstantSet
        SharpConstant = lib["constants"].SharpConstant
        frac = ConstantSet(fractional=lib["constants"].fractional_constant(
            refs.FRACTIONAL_CONSTANT))
        # (reference family, constructor, fixed arguments, constants)
        self.families = []
        for N, p in ((5, 2.0), (3, 2.0), (3, 1.05), (4, 1.5), (8, 2.5), (6, 1.05)):
            cset = resolve(P.local_critical(N=N, p=p, gamma=p, alpha=1.0))
            self.families.append((refs.Family.local_critical(N, p),
                                  P.local_critical, {"N": N, "p": p}, cset))
        frozen = ConstantSet(interpolation=SharpConstant(
            value=refs.FROZEN_B_2_2_4, method="user-input", err_bound=0.0,
            meta={"source": "ODE shooting"}))
        self.families.append((refs.Family.local_subcritical_2_2_4(), P.local,
                              {"N": 2, "p": 2.0, "q": 4.0}, frozen))
        for N, s in ((5, 0.6), (3, 0.8)):
            self.families.append((refs.Family.fractional_critical(N, s),
                                  P.fractional_critical, {"N": N, "s": s}, frac))
        self.families.append((refs.Family.fractional_subcritical(5, 0.6, 2.2),
                              P.fractional, {"N": 5, "s": 0.6, "q": 2.2}, frac))
        # interior points at the reference threshold, as verify's truth
        # table has; thresholds come from the reference, not the library
        pool = [(k, float(self.rng.uniform(f.base, f.upper) if f.critical
                          else self.rng.uniform(0.3 * f.upper, f.upper)))
                for k in range(len(self.families))
                for f in [self.families[k][0]] for _ in range(24)]
        _, thr = refs.curve_references([self.families[k][0] for k, _ in pool],
                                       [g for _, g in pool], [1.0] * len(pool))
        self.at_threshold = [(k, g, float(t)) for (k, g), t in zip(pool, thr)]
        for i in range(len(self.families)):  # warm caches and lazy set-up
            fam, ctor, fixed, cset = self.families[i]
            lib["classify"].classify(ctor(**fixed, gamma=fam.upper * 1.1, alpha=1.0),
                                     constants=cset)

    def make_input(self, i):
        if i % 20 == 19:
            k, gamma, thr = self.at_threshold[int(self.rng.integers(len(self.at_threshold)))]
            return k, gamma, thr * (1.0 + float(self.rng.uniform(-1e-10, 1e-10))), "at-threshold"
        j = i - i // 20  # index among the other inputs
        k = j % len(self.families)
        gamma, alpha, cell = _gamma_and_alpha(self.rng, self.families[k][0],
                                              j // len(self.families))
        return k, gamma, alpha, cell

    def run(self, inp, traced=False):
        k, gamma, alpha, _ = inp
        _, ctor, fixed, cset = self.families[k]
        v = self.lib["classify"].classify(ctor(**fixed, gamma=gamma, alpha=alpha),
                                          constants=cset)
        return v.attained, v.D, v.threshold

    def check_done(self, done):
        fams = [self.families[inp[0]][0] for inp, _ in done]
        D, thr = refs.curve_references(fams, [inp[1] for inp, _ in done],
                                       [inp[2] for inp, _ in done])
        return [_check_verdict(f, inp[1], inp[2], out[0], out[1], out[2],
                               d, t, self.tol, self.tie_rtol)
                for f, (inp, out), d, t in zip(fams, done, D, thr)]


def _check_verdict(fam, gamma, alpha, attained, D, threshold, D_ref, thr_ref,
                   tol, tie_rtol):
    # float() also reads the CLI's "nan" / "inf" strings
    errs = {"D": refs.rel_err(float(D), D_ref)}
    if threshold is not None:
        errs["threshold"] = refs.rel_err(float(threshold), thr_ref)
    for key, err in errs.items():
        if not err <= tol:
            return f"check: {key}", errs
    want = refs.expected_attained(fam, gamma, alpha, thr_ref, tie_rtol)
    if want is not None and want != attained:
        return "check: attained", errs
    return None, errs


# -- point_cold -------------------------------------------------------------

class PointCold(Workload):
    """Independent `attain-kit maximizer` queries, each with its own (N, p)."""

    name = "point_cold"
    rate = 7.0
    cycle = 7 * SLOTS  # N = 3..9, each with every band slot
    tol = 1e-9
    j_tol = 1e-6  # the CLI's own J_check tolerance
    tie_rtol = 1e-9

    def make_input(self, i):
        N = 3 + i % 7
        p = 1.0 + (N - 1.0) * float(self.rng.uniform(0.02, 0.95))
        fam = refs.Family.local_critical(N, p)
        gamma, alpha, _ = _gamma_and_alpha(self.rng, fam, i // 7)
        argv = ["maximizer", "--N", str(N), "--p", repr(p), "--q", "critical",
                "--gamma", repr(gamma), "--alpha", repr(alpha)]
        return fam, gamma, alpha, argv

    def run(self, inp, traced=False):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.lib["cli"].main(inp[3])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        if rc != 0:  # the CLI's message is its last line, after any warnings
            raise OpFailed(f"exit {rc}|{err.getvalue().strip().rpartition(chr(10))[2]}")
        return out.getvalue()

    def check_done(self, done):
        done = [(inp, json.loads(out)) for inp, out in done]
        D, thr = refs.curve_references([inp[0] for inp, _ in done],
                                       [inp[1] for inp, _ in done],
                                       [inp[2] for inp, _ in done])
        results = []
        for (inp, doc), d, t in zip(done, D, thr):
            fam, gamma, alpha, _ = inp
            if doc.get("maximizer", "") is None:  # no maximizer exists
                v = doc["verdict"]
                res = _check_verdict(fam, gamma, alpha, v["attained"], v["D"],
                                     v["threshold"], d, t, self.tol, self.tie_rtol)
            else:
                res = _check_verdict(fam, gamma, alpha, True, doc["D"], None, d, t,
                                     self.tol, self.tie_rtol)
                jerr = refs.rel_err(float(doc["J_check"]), d)
                res[1]["J_check"] = jerr
                if res[0] is None and not jerr <= self.j_tol:
                    res = ("check: J_check", res[1])
            results.append(res)
        return results


# -- interp_cold ------------------------------------------------------------

class InterpCold(Workload):
    """Independent `attain-kit classify` processes on the (2, 2, 4) family."""

    name = "interp_cold"
    in_process = False
    rate = 0.05
    # the library's constant is an ascent estimate, good to about 1e-4
    tol = 1e-3
    tie_rtol = 1e-3
    timeout_s = 170.0

    def __init__(self, lib: dict, seed: int):
        super().__init__(lib, seed)
        self.family = refs.Family.local_subcritical_2_2_4()

    def make_input(self, i):
        gamma, alpha, _ = _gamma_and_alpha(self.rng, self.family, i, alpha_decades=1.5)
        argv = ["classify", "--N", "2", "--p", "2", "--q", "4",
                "--gamma", repr(gamma), "--alpha", repr(alpha)]
        return gamma, alpha, argv

    def run(self, inp, traced=False):
        head = ([sys.executable, str(BENCH_DIR / "child.py"), "cli"] if traced
                else [sys.executable, "-m", "attainkit"])
        proc = run_child(head + inp[2], self.timeout_s, capture=True)
        lines = proc.stderr.splitlines()
        trace = None
        if lines and lines[-1].startswith(TRACE_MARK):
            trace = json.loads(lines.pop()[len(TRACE_MARK):])
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}|{lines[-1] if lines else ''}")
        return proc.stdout, trace

    def check_done(self, done):
        done = [(inp, json.loads(out[0])["verdict"]) for inp, out in done]
        D, thr = refs.curve_references([self.family] * len(done),
                                       [inp[0] for inp, _ in done],
                                       [inp[1] for inp, _ in done])
        return [_check_verdict(self.family, inp[0], inp[1], v["attained"], v["D"],
                               v["threshold"], d, t, self.tol, self.tie_rtol)
                for (inp, v), d, t in zip(done, D, thr)]


# -- verify_suite -----------------------------------------------------------

class VerifySuite(Workload):
    """run_all(seed) in-process, as `attain-kit verify` does."""

    name = "verify_suite"
    rate = 0.0  # one input, repeated

    def make_input(self, i):
        return int(self.rng.integers(0, 2**31 - 1))

    def run(self, inp, traced=False):
        reports = self.lib["verify"].run_all(inp)
        return [(r.name, bool(r.passed)) for r in reports]

    def check_done(self, done):
        results = []
        for _, out in done:
            failed = [name for name, passed in out if not passed]
            results.append((f"check: {failed[0]}" if failed else None, {}))
        return results


WORKLOADS = {w.name: w for w in (PhaseGrid, PointCold, InterpCold, VerifySuite)}
