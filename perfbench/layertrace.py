"""Outside-in tracer: wraps public functions of the program's modules.

Nothing inside `varinterp` is edited.  `Tracer` replaces each traced name
in every `varinterp.*` namespace that binds it (``from .x import f`` copies
the binding), plus the two class methods and the scipy entry points the
program calls, and puts the originals back on exit.

Calls down to the find_omega / infer_coefficients / feynman_* /
aho_exact_energy level become full spans (name, start, end, parent span,
job id).  The per-call leaves `LaurentPoly.eval`, `TrialFunction.deriv` and
`quad`, about 10^6 calls per aho run, are only counted and timed, and their
totals are folded into the enclosing full span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric name); the metric name is the layer
# module plus the function, or the program module that calls into scipy.
SPANS = (
    ("varinterp.cli", "main", "cli.main"),
    ("varinterp.cli", "cmd_interpolate", "cli.cmd_interpolate"),
    ("varinterp.cli", "cmd_infer", "cli.cmd_infer"),
    ("varinterp.solvers", "interpolant", "solvers.interpolant"),
    ("varinterp.solvers", "extend_model", "solvers.extend_model"),
    ("varinterp.solvers", "infer_coefficients", "solvers.infer_coefficients"),
    ("varinterp.solvers", "find_omega", "solvers.find_omega"),
    ("varinterp.strong_limit", "optimize_c", "strong_limit.optimize_c"),
    ("varinterp.strong_limit", "correct_bn", "strong_limit.correct_bn"),
    ("varinterp.reexpand", "build_trial", "reexpand.build_trial"),
    ("varinterp.models", "feynman_energy", "models.feynman_energy"),
    ("varinterp.models", "feynman_mass", "models.feynman_mass"),
    ("varinterp.oracle", "aho_exact_energy", "oracle.aho_exact_energy"),
    ("varinterp.models", "optimize.minimize", "models.optimize.minimize"),
    ("varinterp.oracle", "eig_banded", "oracle.eig_banded"),
)
LEAVES = (
    ("varinterp.series", "LaurentPoly.eval", "series.LaurentPoly.eval"),
    ("varinterp.reexpand", "TrialFunction.deriv", "reexpand.TrialFunction.deriv"),
    ("varinterp.models", "integrate.quad", "models.integrate.quad"),
)
# leaves that call other leaves and so need their own frame for self time
NESTING_LEAVES = {"reexpand.TrialFunction.deriv"}
SCIPY = {"models.optimize.minimize", "oracle.eig_banded", "models.integrate.quad"}
MODULES = ("cli", "solvers", "strong_limit", "reexpand", "series", "models",
           "oracle", "scipy")


def layer_of(name: str) -> str:
    return "scipy" if name in SCIPY else name.split(".", 1)[0]


def _result_info(name: str, result) -> dict | None:
    """Counts read from the returned value, where the layer reports them."""
    if name == "solvers.find_omega":
        return {"kind": result.kind, "candidates": result.candidates}
    if name == "solvers.infer_coefficients":
        return {"iterations": result.iterations}
    if name == "solvers.interpolant":
        return {"rows": len(result)}
    return None


class Span:
    __slots__ = ("id", "name", "job", "parent", "start", "end", "child",
                 "leaves", "error", "info")

    def __init__(self, sid, name, job, parent):
        self.id = sid
        self.name = name
        self.job = job
        self.parent = parent
        self.child = 0.0
        self.leaves = {}
        self.error = None
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "job": self.job,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_s, "error": self.error, "info": self.info,
                "leaves": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in self.leaves.items()}}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        # frame = [time covered by children, nearest enclosing full span]
        self._stack = [[0.0, None]]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, pc = self._stack, self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            span = Span(len(spans), name, tracer.job,
                        parent.id if parent is not None else None)
            spans.append(span)
            frame = [0.0, span]
            stack.append(frame)
            span.start = pc()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = pc()
                stack.pop()
                span.child = frame[0]
                stack[-1][0] += span.end - span.start
            span.info = _result_info(name, result)
            return result

        return traced

    def _leaf_wrapper(self, name, fn):
        stack, pc = self._stack, time.perf_counter
        nests = name in NESTING_LEAVES

        def traced(*args, **kwargs):
            parent = stack[-1]
            if nests:
                frame = [0.0, parent[1]]
                stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                if nests:
                    stack.pop()
                parent[0] += dur
                owner = parent[1]
                if owner is not None:
                    agg = owner.leaves.get(name)
                    if agg is None:
                        agg = owner.leaves[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0] if nests else dur

        return traced

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        targets = [(m, p, n, self._span_wrapper) for m, p, n in SPANS]
        targets += [(m, p, n, self._leaf_wrapper) for m, p, n in LEAVES]
        for module, path, name, make in targets:
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            wrapped = make(name, orig)
            self._patch(owner, attr, wrapped)
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] != "varinterp" or mod is owner:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def layer_metrics(spans: list[Span], rows: int, feynman_rows: int,
                  jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced pass.

    `rows` counts CSV rows of the traced interpolate jobs; `feynman_rows`
    those with a Feynman column; `jobs` the traced jobs.
    """
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
        calls[sp.name] += 1
        self_s[sp.name] += sp.self_s
        if sp.error:
            errors[sp.name] += 1
        for leaf, (n, s, ss) in sp.leaves.items():
            calls[leaf] += n
            incl[leaf] += s
            self_s[leaf] += ss
    # inclusive time: skip spans nested in a span of the same name
    ids = {sp.id: sp for sp in spans}
    for sp in spans:
        parent = ids.get(sp.parent)
        while parent is not None and parent.name != sp.name:
            parent = ids.get(parent.parent)
        if parent is None:
            incl[sp.name] += sp.dur

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("series.LaurentPoly.eval", "reexpand.TrialFunction.deriv"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (incl[name], "s")
        out[name + ".self_s"] = (self_s[name], "s")
    out["reexpand.deriv_per_row"] = (ratio(calls["reexpand.TrialFunction.deriv"], rows), "calls/row")

    fo = by_name["solvers.find_omega"]
    ok = [sp for sp in fo if sp.info is not None]
    out["solvers.find_omega.calls"] = (len(fo), "count")
    out["solvers.find_omega.self_s"] = (self_s["solvers.find_omega"], "s")
    out["solvers.find_omega.fail_ratio"] = (ratio(errors["solvers.find_omega"], len(fo)), "ratio")
    out["solvers.find_omega.turning_point_ratio"] = (
        ratio(sum(sp.info["kind"] == "turning_point" for sp in ok), len(ok)), "ratio")
    out["solvers.find_omega.candidates_mean"] = (
        ratio(sum(sp.info["candidates"] for sp in ok), len(ok)), "count")

    ip = [sp for sp in by_name["solvers.interpolant"] if sp.info is not None]
    out["solvers.interpolant.rows_per_call"] = (
        ratio(sum(sp.info["rows"] for sp in ip), len(ip)), "rows")

    out["strong_limit.optimize_c.calls"] = (calls["strong_limit.optimize_c"], "count")
    out["strong_limit.optimize_c.s"] = (incl["strong_limit.optimize_c"], "s")
    out["strong_limit.optimize_c.calls_per_job"] = (
        ratio(calls["strong_limit.optimize_c"], jobs), "calls/job")
    out["strong_limit.correct_bn.calls"] = (calls["strong_limit.correct_bn"], "count")
    out["strong_limit.correct_bn.s"] = (incl["strong_limit.correct_bn"], "s")

    ic = [sp for sp in by_name["solvers.infer_coefficients"] if sp.info is not None]
    out["solvers.infer_coefficients.calls"] = (calls["solvers.infer_coefficients"], "count")
    out["solvers.infer_coefficients.s"] = (incl["solvers.infer_coefficients"], "s")
    out["solvers.infer_coefficients.self_s"] = (self_s["solvers.infer_coefficients"], "s")
    out["solvers.infer_coefficients.iterations_mean"] = (
        ratio(sum(sp.info["iterations"] for sp in ic), len(ic)), "count")
    out["solvers.extend_model.s"] = (incl["solvers.extend_model"], "s")

    for name in ("reexpand.build_trial", "models.feynman_energy", "models.feynman_mass",
                 "models.integrate.quad", "oracle.aho_exact_energy"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (incl[name], "s")
    out["models.energy_solves_per_row"] = (
        ratio(calls["models.feynman_energy"], feynman_rows), "calls/row")
    out["models.optimize.minimize.calls"] = (calls["models.optimize.minimize"], "count")
    out["oracle.eig_banded.calls"] = (calls["oracle.eig_banded"], "count")
    out["cli.cmd_interpolate.self_s"] = (self_s["cli.cmd_interpolate"], "s")
    out["cli.cmd_infer.self_s"] = (self_s["cli.cmd_infer"], "s")

    total = incl["cli.main"]
    share: dict[str, float] = defaultdict(float)
    for name, s in self_s.items():
        share[layer_of(name)] += s
    for module in MODULES:
        out[f"layers.{module}.self_share"] = (ratio(share[module], total), "ratio")
    return out
