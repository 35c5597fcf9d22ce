"""Span tracing of attain-kit's layers from outside the library.

``Tracer.install`` replaces every module attribute that refers to a
public function of a layer module (``attainkit.<layer>``) with a wrapper
that records a span, and ``Tracer.uninstall`` puts the originals back.
Because the attribute is replaced in the module that looks it up, calls
inside a module (``classify`` calling ``threshold_alpha``) and across
modules (``classify`` calling its own binding of ``maximize_halfline``)
are both seen.  The package namespace is patched too.

A span is (name, start, end, parent).  Spans of one operation stay in
memory until ``end_op``, which folds them into per-name totals: calls,
inclusive time, self time (duration minus the time its child spans
cover) and calls that raised.  Counts the library returns
(``OptResult.n_evals``, ``SharpConstant.meta["sweeps"]``) are read from
the returned values.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("params", "curves", "halfline", "constants", "classify",
          "profiles", "verify", "cli")
#: the root span each operation runs under; its self time is the benchmark's
ROOT = "bench.op"
#: the functions that construct a maximizer profile
CONSTRUCTION = frozenset({"profiles.build_u_star", "profiles.build_w_lambda",
                          "profiles.build_truncated", "profiles.dilate",
                          "profiles.normalize_scaled"})
# cli's other functions (parser, serializer) are steps of one command; they
# stay inside the self time of cli.main instead of getting spans of their own
_CLI_ENTRY = "main"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, ok]
        self._stack: list[int] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, incl, self, errors]
        self.counts: dict[str, float] = {}
        self.parent_incl: dict[tuple[str, str], float] = {}  # (name, parent layer) -> s
        self.ops = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, True])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = ok
        self._stack.pop()

    def wrap(self, name: str, fn):
        inspect = _INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if inspect is not None:
                inspect(self.counts, out)
            return out

        return traced

    def begin_op(self) -> int:
        return self._open(ROOT)

    def end_op(self, idx: int, ok: bool = True) -> None:
        """Close the operation's root span and fold its spans into totals."""
        self._close(idx, ok)
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, ok_) in enumerate(spans):
            dur = end - start
            tot = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - covered[i]
            tot[3] += not ok_
            if parent >= 0:
                key = (name, layer_of(spans[parent][0]))
                self.parent_incl[key] = self.parent_incl.get(key, 0.0) + dur
        if any(span[0] in CONSTRUCTION for span in spans):
            _count(self.counts, "profiles.construction_ops", 1)
            _count(self.counts, "profiles.construction_failed", not ok)
        self.spans = []
        self.ops += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever bound."""
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"attainkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and (layer != "cli" or attr == _CLI_ENTRY)):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self.wrap(name, obj) for key, (obj, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "attainkit" or modname.startswith("attainkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and obj is targets[id(obj)][0]:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    # -- aggregates --------------------------------------------------------

    def calls(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0, 0))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0, 0))[2] for n in names)

    def errors(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0, 0))[3] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if layer_of(n) == layer)

    def layer_calls(self, layer: str) -> float:
        return sum(t[0] for n, t in self.totals.items() if layer_of(n) == layer)

    def dump(self) -> dict:
        return {"ops": self.ops, "totals": self.totals, "counts": self.counts,
                "parent_incl": [[n, l, v] for (n, l), v in self.parent_incl.items()]}

    def merge(self, doc: dict) -> None:
        """Add the aggregates another process dumped."""
        self.ops += doc["ops"]
        for name, tot in doc["totals"].items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                mine[k] += tot[k]
        for key, v in doc["counts"].items():
            self.counts[key] = self.counts.get(key, 0.0) + v
        for n, l, v in doc["parent_incl"]:
            self.parent_incl[(n, l)] = self.parent_incl.get((n, l), 0.0) + v


def _count(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + value


def _opt_result(counts: dict, res) -> None:
    _count(counts, "halfline.results", 1)
    _count(counts, "halfline.n_evals", res.n_evals)
    _count(counts, "halfline.marginal", bool(res.marginal))


def _gns(counts: dict, const) -> None:
    _count(counts, "constants.gns.calls", 1)
    _count(counts, "constants.gns.sweeps", const.meta["sweeps"])
    _count(counts, "constants.gns.converged", bool(const.meta["converged"]))


_INSPECT = {
    "halfline.maximize_halfline": _opt_result,
    "halfline.minimize_halfline": _opt_result,
    "halfline.grid_oracle": _opt_result,
    "constants.gns_constant_estimate": _gns,
}
