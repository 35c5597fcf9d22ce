"""Command-line surface: classify, constants, curve, maximizer, sweep, verify.

JSON goes to stdout by default; ``--csv`` switches the tabular commands to
RFC-4180-style CSV with LF line endings.  Identical invocations produce
byte-identical output: keys are emitted in fixed order and floats are
written at shortest round-trip precision.  Exit codes: 0 success, 1 invalid
parameters or usage, 2 numerical failure, 3 failed verification.

``maximizer`` prints the record of ``classify.maximizer``.

JSON is written in ``json.dumps(..., indent=2, ensure_ascii=False)``'s
layout by ``to_json``, which joins each all-float list in one pass.

``--q critical`` is the exact way to request the critical exponent; a
numeric ``--q`` that matches it to within 1e-12 relative is accepted with
a ``warning: ...`` line on stderr.  The environment variable
ATTAIN_KIT_THREADS caps the thread pools of the underlying numeric
libraries.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import warnings
from json.encoder import encode_basestring

import numpy as np

from .classify import (ConstantSet, classify, kappa_multiplier, maximizer,
                       resolve_constants)
from .constants import fractional_constant
from .curves import CurveParams, f_at_log_t, g_at_log_t, t_from_log
from .errors import DivergentNormError, NearCriticalWarning, NumericalError, ParamError
from .halfline import objective_sign, ratio_sign
from .params import ProblemParams
from .verify import run_all

SCHEMA = "attain-kit/1"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY_FAILED = 3

#: most samples ``curve --grid`` and ``sweep --gamma-range`` may ask for
MAX_SAMPLES = 10**6


# -- deterministic JSON ----------------------------------------------------

def _scalar(obj) -> str:
    """One JSON scalar as ``json`` writes it, numpy scalars as Python ones
    and nan/inf as the strings the README promises."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return float.__repr__(x)
        return '"nan"' if math.isnan(x) else '"inf"' if x > 0 else '"-inf"'
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump(obj, indent: str) -> str:
    """``obj`` in json's indent-2 layout, nested at depth ``indent``."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = {str(k): v for k, v in obj.items()}  # json sees str keys only
        body = (",\n" + inner).join(encode_basestring(k) + ": " + _dump(v, inner)
                                    for k, v in items.items())
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        # a table of finite floats is one join; a nan or inf makes the sum non-finite
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_dump(v, inner) for v in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return _scalar(obj)


def to_json(obj) -> str:
    """Render nested dict/list/scalar data with stable key order and
    shortest round-trip float formatting, byte for byte as
    ``json.dumps(..., indent=2, ensure_ascii=False)`` would."""
    return _dump(obj, "")


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        text = str(v)
        if any(ch in text for ch in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# -- parameter assembly ----------------------------------------------------

def _weight(ns) -> float:
    alpha, beta = getattr(ns, "alpha", None), getattr(ns, "beta", None)
    if alpha is not None and beta is not None and alpha != beta:
        raise ParamError("alpha", "--alpha and --beta are synonyms; "
                                  f"got conflicting values {alpha} and {beta}")
    value = alpha if alpha is not None else beta
    if value is None:
        raise ParamError("alpha", "a weight is required (--alpha, or --beta "
                                  "for the fractional family)")
    return value


def _numeric_q(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParamError("q", f"--q wants a number or 'critical', got {text!r}") from None


def _build_params(ns) -> ProblemParams:
    if ns.N is None:
        raise ParamError("N", "--N is required")
    if ns.gamma is None:
        raise ParamError("gamma", "--gamma is required")
    weight = _weight(ns)
    q_critical = ns.q == "critical"
    if ns.s is not None:
        if q_critical:
            params = ProblemParams.fractional_critical(N=ns.N, s=ns.s,
                                                       gamma=ns.gamma, alpha=weight)
        elif ns.q is None:
            raise ParamError("q", "--q (numeric or 'critical') is required")
        else:
            params = ProblemParams.fractional(N=ns.N, s=ns.s, q=_numeric_q(ns.q),
                                              gamma=ns.gamma, alpha=weight)
        # the family is posed for p = 2: a --p given with it is validated, not dropped
        return params if ns.p is None else dataclasses.replace(params, p=ns.p)
    if ns.p is None:
        raise ParamError("p", "--p is required for the local family")
    if q_critical:
        return ProblemParams.local_critical(N=ns.N, p=ns.p, gamma=ns.gamma,
                                            alpha=weight)
    if ns.q is None:
        raise ParamError("q", "--q (numeric or 'critical') is required")
    return ProblemParams.local(N=ns.N, p=ns.p, q=_numeric_q(ns.q),
                               gamma=ns.gamma, alpha=weight)


def _given_constants(ns) -> ConstantSet:
    """The constants the command line supplies: at most --frac-constant."""
    value = getattr(ns, "frac_constant", None)
    return ConstantSet() if value is None else ConstantSet(fractional=fractional_constant(value))


def _constants_for(ns, params: ProblemParams) -> ConstantSet:
    given = _given_constants(ns)
    if given.fractional is None and params.s is not None:
        raise ParamError("frac-constant", "the fractional family needs --frac-constant")
    return resolve_constants(params, given)


def _problem_dict(params: ProblemParams) -> dict:
    return {
        "N": params.N,
        "p": params.p,
        "q": params.q,
        "q_critical": params.q_critical,
        "gamma": params.gamma,
        "alpha": params.alpha,
        "s": params.s,
        "regime": params.regime().value,
    }


def _verdict_dict(v) -> dict:
    return {
        "attained": v.attained,
        "reason": v.reason.value,
        "D": v.D,
        "threshold": v.threshold,
        "t_star": v.t_star,
        "log_t_star": v.log_t_star,
        "closed_form_D": v.closed_form_D,
        "regime": v.regime.value,
    }


# -- subcommands -----------------------------------------------------------

def _cmd_classify(ns) -> int:
    params = _build_params(ns)
    cset = _constants_for(ns, params)
    with np.errstate(over="ignore"):  # an overflowed curve ends in NumericalError
        v = classify(params, constants=cset)
    doc = {"schema": SCHEMA, "command": "classify",
           "problem": _problem_dict(params), "verdict": _verdict_dict(v)}
    _emit(to_json(doc), ns.out)
    return EXIT_OK


def _cmd_constants(ns) -> int:
    # no constant reads gamma or the weight; the problem needs them only to validate
    ns.gamma, ns.alpha, ns.beta = 1.0, 1.0, None
    ns.q = "critical" if ns.q is None else ns.q
    params = _build_params(ns)
    doc: dict = {"schema": SCHEMA, "command": "constants", "N": params.N}
    if params.s is None:
        doc["p"] = params.p
        cset = resolve_constants(params)  # the local family reads no --frac-constant
    else:
        doc["s"] = params.s
        cset = _constants_for(ns, params)
    # the one field resolve_constants filled, or checked, for the regime
    [(name, constant)] = [(f.name, getattr(cset, f.name)) for f in dataclasses.fields(cset)
                          if getattr(cset, f.name) is not None]
    if name == "interpolation":
        doc["q"] = params.q
    doc[name] = dataclasses.asdict(constant)
    _emit(to_json(doc), ns.out)
    return EXIT_OK


def _cmd_curve(ns) -> int:
    if not 1 <= ns.grid <= MAX_SAMPLES:
        raise ParamError("grid", f"--grid must be between 1 and {MAX_SAMPLES}, "
                                 f"got {ns.grid}")
    params = _build_params(ns)
    cset = _constants_for(ns, params)
    cp = CurveParams.from_problem(params, kappa_multiplier(params, cset))
    t = np.geomspace(1e-4, 1e4, ns.grid)
    x = np.log(t)
    # a curve beyond the double range prints as inf, which is its honest value
    with np.errstate(over="ignore"):
        columns = {"t": t.tolist(), "s": (t / (1.0 + t)).tolist(),
                   "f": f_at_log_t(cp, x).tolist(), "g": g_at_log_t(cp, x).tolist()}
    # -1, 0 or 1: the signs of f' and g' as the optimizer reads them
    for name, sign in (("f_slope_sign", objective_sign(cp)), ("g_slope_sign", ratio_sign(cp))):
        columns[name] = [(v > 0.0) - (v < 0.0) for v, _ in map(sign, x.tolist())]
    if ns.csv:
        _emit(_csv_text(list(columns), list(zip(*columns.values()))), ns.out)
        return EXIT_OK
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    doc = {"schema": SCHEMA, "command": "curve",
           "problem": _problem_dict(params),
           "curve_params": {"a": cp.a, "b": cp.b, "c": cp.c,
                            "kappa": cp.kappa, "pgamma": cp.pgamma},
           "rows": rows}
    _emit(to_json(doc), ns.out)
    return EXIT_OK


def _cmd_maximizer(ns) -> int:
    params = _build_params(ns)
    v, m = maximizer(params, _given_constants(ns), tol=ns.tol)
    if m is None:
        doc = {"schema": SCHEMA, "command": "maximizer",
               "problem": _problem_dict(params), "verdict": _verdict_dict(v),
               "maximizer": None,
               "note": "no maximizer exists for these parameters"}
        _emit(to_json(doc), ns.out)
        return EXIT_OK
    header = {"schema": SCHEMA, "command": "maximizer",
              "problem": _problem_dict(params),
              "lambda": t_from_log(m.log_lambda), "log_lambda": m.log_lambda,
              "t_star": v.t_star, "D": v.D, "J_check": m.J_check}
    r, u = m.r.tolist(), m.u.tolist()
    if ns.csv:
        # the header goes to stdout when the table goes to a file, else to stderr
        (sys.stdout if ns.out else sys.stderr).write(to_json(header) + "\n")
        _emit(_csv_text(["r", "u"], list(zip(r, u))), ns.out)
        return EXIT_OK
    header["profile"] = {"r": r, "u": u}
    _emit(to_json(header), ns.out)
    return EXIT_OK


def _parse_gamma_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParamError("gamma-range",
                         f"--gamma-range wants start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError as exc:
        raise ParamError("gamma-range", f"non-numeric gamma range {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)
            and step > 0 and stop >= start and math.isfinite((stop - start) / step)):
        raise ParamError("gamma-range", "need finite start <= stop and step > 0 "
                                        f"with a finite step count, got {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count > MAX_SAMPLES:
        raise ParamError("gamma-range", f"{text!r} asks for {count} gammas, "
                                        f"more than {MAX_SAMPLES}")
    return start + step * np.arange(count)


def _cmd_sweep(ns) -> int:
    if ns.gamma_range is None:
        raise ParamError("gamma-range", "--gamma-range start:stop:step is required")
    gammas = _parse_gamma_range(ns.gamma_range)
    ns.gamma = float(gammas[0])
    params = _build_params(ns)
    cset = _constants_for(ns, params)
    rows = []
    with np.errstate(over="ignore"):  # an overflowed curve ends in NumericalError
        for g in gammas:
            v = classify(dataclasses.replace(params, gamma=float(g)), constants=cset)
            rows.append({"gamma": float(g), "threshold": v.threshold,
                         "D": v.D, "attained": v.attained})
    if ns.csv:
        header = ["gamma", "threshold", "D", "attained"]
        _emit(_csv_text(header, [[row[k] for k in header] for row in rows]), ns.out)
        return EXIT_OK
    doc = {"schema": SCHEMA, "command": "sweep",
           "problem": _problem_dict(params), "rows": rows}
    _emit(to_json(doc), ns.out)
    return EXIT_OK


def _cmd_verify(ns) -> int:
    reports = run_all()
    doc = {"schema": SCHEMA, "command": "verify",
           "reports": [{"name": r.name, "passed": r.passed,
                        "worst_violation": r.worst_violation,
                        "n_cases": r.n_cases, "tolerance": r.tolerance,
                        "details": list(r.details)} for r in reports]}
    _emit(to_json(doc), ns.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


# -- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_VALIDATION)


def _add_problem_flags(sub, with_gamma=True):
    sub.add_argument("--N", type=int, help="ambient dimension")
    sub.add_argument("--p", type=float, help="base integrability exponent (local family)")
    sub.add_argument("--q", help="secondary exponent: a number, or 'critical'")
    sub.add_argument("--s", type=float, help="fractional smoothing order (selects the fractional family)")
    if with_gamma:
        sub.add_argument("--gamma", type=float, help="constraint coupling exponent")
    sub.add_argument("--alpha", type=float, help="weight of the q-term")
    sub.add_argument("--beta", type=float, help="synonym for --alpha (fractional naming)")
    sub.add_argument("--frac-constant", type=float, dest="frac_constant",
                     help="user-supplied sharp constant for the fractional family")


def _add_output_flags(sub, csv=True):
    sub.add_argument("--json", action="store_true", help="JSON output (the default)")
    if csv:
        sub.add_argument("--csv", action="store_true", help="CSV output")
    sub.add_argument("--out", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attain-kit",
                     description="Attainability toolkit for a family of "
                                 "Sobolev-type maximization problems.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("classify", parents=[], help="full attainability verdict")
    _add_problem_flags(sub)
    _add_output_flags(sub, csv=False)
    sub.set_defaults(handler=_cmd_classify)

    sub = subs.add_parser("constants", help="sharp constants")
    _add_problem_flags(sub, with_gamma=False)
    _add_output_flags(sub, csv=False)
    sub.set_defaults(handler=_cmd_constants)

    sub = subs.add_parser("curve", help="sample the scalar curves")
    _add_problem_flags(sub)
    sub.add_argument("--grid", type=int, default=512,
                     help="number of curve samples (default 512)")
    _add_output_flags(sub)
    sub.set_defaults(handler=_cmd_curve)

    sub = subs.add_parser("maximizer", help="construct and check an explicit maximizer")
    _add_problem_flags(sub)
    sub.add_argument("--tol", type=float, default=1e-6,
                     help="relative tolerance of the J check (default 1e-6)")
    _add_output_flags(sub)
    sub.set_defaults(handler=_cmd_maximizer)

    sub = subs.add_parser("sweep", help="threshold and verdict along a gamma range")
    _add_problem_flags(sub, with_gamma=False)
    sub.add_argument("--gamma-range", dest="gamma_range",
                     help="start:stop:step, e.g. 0.5:4:0.01")
    _add_output_flags(sub)
    sub.set_defaults(handler=_cmd_sweep)

    sub = subs.add_parser("verify", help="run the verification suite")
    _add_output_flags(sub, csv=False)
    sub.set_defaults(handler=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call (not at import) and
    reused: parsing leaves it unchanged and fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    with warnings.catch_warnings():
        # a near-critical snap is one stderr line; the source location a
        # warning names would be Python's, not the command line's
        show = warnings.showwarning

        def show_snap(message, category, *args, **kwargs):
            if issubclass(category, NearCriticalWarning):
                sys.stderr.write(f"warning: {message}\n")
            else:
                show(message, category, *args, **kwargs)

        warnings.showwarning = show_snap
        try:
            return ns.handler(ns)
        except ParamError as exc:
            sys.stderr.write(f"validation error ({exc.code}): {exc}\n")
            return EXIT_VALIDATION
        except (NumericalError, DivergentNormError) as exc:
            sys.stderr.write(f"numerical failure: {exc}\n")
            return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
