"""Span tracing of egf_lab's public functions, from outside the library.

``instrument`` wraps each function named in TARGETS and rebinds the name in
every loaded ``egf_lab`` module that holds it, because ``cli`` and the other
modules import by name.  Class-level targets (profile validation, problem
constructors) are replaced on the class.  Each call records a span
[name, start, end, parent, run, attr, error] in memory; ``layer_metrics``
turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN, ATTR, ERROR = range(7)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attr=None):
        """fn with a span around every call; attr(args, result) annotates it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.run_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if attr is not None:
                span[ATTR] = attr(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "run": s[RUN], "attr": s[ATTR],
                    "error": s[ERROR],
                }) + "\n")


def _grid_size(args, result):
    return int(args[0].s.size)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _modes_solved(args, result):
    return len(result.f_coeffs) - 1


def _rk4_steps(args, result):
    return int(result.param.size) - 1


# (module, attribute or Class.attribute, span name, annotation)
TARGETS = (
    ("sym_curvature", "psi_of_lambda", "sym_curvature.psi_of_lambda", None),
    ("sym_curvature", "psi_prime", "sym_curvature.psi_prime", None),
    ("sym_curvature", "umbilical_tau", "sym_curvature.umbilical_tau", None),
    ("sym_curvature", "power_sums_with_tau0",
     "sym_curvature.power_sums_with_tau0", None),
    ("flow_engine", "step_umbilical", "flow_engine.step_umbilical", _grid_size),
    ("flow_engine", "step_tau_system", "flow_engine.step_tau_system", _grid_size),
    ("flow_engine", "UmbilicalProfile.__post_init__",
     "flow_engine.UmbilicalProfile.init", None),
    ("flow_engine", "evolve_umbilical", "flow_engine.evolve_umbilical", None),
    ("flow_engine", "characteristics_oracle",
     "flow_engine.characteristics_oracle", None),
    ("cli", "run", "cli.run", None),
    ("cli", "sweep_configs", "cli.sweep_configs", None),
    ("cli", "write_csv", "cli.write_csv", _file_bytes),
    ("cohomology_solver", "TorusCohomologyProblem.from_modes",
     "cohomology_solver.TorusCohomologyProblem.build", None),
    ("cohomology_solver", "TorusCohomologyProblem.from_grid",
     "cohomology_solver.TorusCohomologyProblem.build", None),
    ("cohomology_solver", "solve_linear_flow",
     "cohomology_solver.solve_linear_flow", _modes_solved),
    ("cohomology_solver", "amplification_report",
     "cohomology_solver.amplification_report", None),
    ("cohomology_solver", "diophantine_margin",
     "cohomology_solver.diophantine_margin", None),
    ("soliton_lab", "check_normal_soliton", "soliton_lab.check_normal_soliton", None),
    ("soliton_lab", "check_biregular_surface",
     "soliton_lab.check_biregular_surface", None),
    ("soliton_lab", "classify_ricci_soliton",
     "soliton_lab.classify_ricci_soliton", None),
    ("revolution_geometry", "integrate_constant_lambda",
     "revolution_geometry.integrate_constant_lambda", _rk4_steps),
    ("revolution_geometry", "sectional_curvature_profile",
     "revolution_geometry.sectional_curvature_profile", None),
    ("revolution_geometry", "cone_flow_check",
     "revolution_geometry.cone_flow_check", None),
)


def instrument(tracer: Tracer):
    """Install tracer's wrappers on every target; returns a function undoing it."""
    undo = []
    for module_name, target, span, attr in TARGETS:
        module = importlib.import_module(f"egf_lab.{module_name}")
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span, raw.__func__, attr))
            else:
                wrapped = tracer.wrap(span, raw, attr)
            undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, target)
        wrapped = tracer.wrap(span, original, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "egf_lab" or name.startswith("egf_lab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for sid, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


# Per-layer metrics as (name, unit).  Every one is reported on every
# workload; a layer a workload never calls reads 0.
LAYER_METRICS = (
    ("sym_curvature.psi_of_lambda.calls", "count"),
    ("sym_curvature.psi_of_lambda.self_s", "s"),
    ("sym_curvature.psi_prime.calls", "count"),
    ("sym_curvature.psi_prime.self_s", "s"),
    ("sym_curvature.umbilical_tau.self_s", "s"),
    ("sym_curvature.power_sums_with_tau0.self_s", "s"),
    ("sym_curvature.psi_evals_per_step", "count"),
    ("flow_engine.step_umbilical.calls", "count"),
    ("flow_engine.step_umbilical.self_s", "s"),
    ("flow_engine.step_umbilical.us_per_node.G256", "us"),
    ("flow_engine.step_umbilical.us_per_node.G4096", "us"),
    ("flow_engine.step_tau_system.calls", "count"),
    ("flow_engine.step_tau_system.self_s", "s"),
    ("flow_engine.step_tau_system.us_per_node", "us"),
    ("flow_engine.UmbilicalProfile.init.self_s", "s"),
    ("flow_engine.validations_per_step", "count"),
    ("flow_engine.evolve_umbilical.self_s", "s"),
    ("flow_engine.characteristics_oracle.self_s", "s"),
    ("flow_engine.errors", "count"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "count"),
    ("cli.write_csv.mb_per_s", "MB/s"),
    ("cli.run.self_s", "s"),
    ("cli.sweep_configs.self_s", "s"),
    ("cohomology_solver.TorusCohomologyProblem.build.self_s", "s"),
    ("cohomology_solver.solve_linear_flow.self_s", "s"),
    ("cohomology_solver.solve_linear_flow.modes", "count"),
    ("cohomology_solver.amplification_report.self_s", "s"),
    ("cohomology_solver.diophantine_margin.self_s", "s"),
    ("cohomology_solver.errors", "count"),
    ("soliton_lab.check_normal_soliton.self_s", "s"),
    ("soliton_lab.check_biregular_surface.self_s", "s"),
    ("soliton_lab.classify_ricci_soliton.calls", "count"),
    ("revolution_geometry.integrate_constant_lambda.self_s", "s"),
    ("revolution_geometry.integrate_constant_lambda.steps", "count"),
    ("revolution_geometry.sectional_curvature_profile.self_s", "s"),
    ("revolution_geometry.cone_flow_check.self_s", "s"),
)

# Counts that must read the same on every traced pass of one seed.
REPEATED_COUNTS = (
    "sym_curvature.psi_evals_per_step",
    "flow_engine.validations_per_step",
    "flow_engine.step_umbilical.calls",
    "flow_engine.step_tau_system.calls",
    "cli.write_csv.bytes",
    "cohomology_solver.solve_linear_flow.modes",
)


def _per_node_us(spans, sids) -> float:
    costs = [(spans[i][END] - spans[i][START]) / spans[i][ATTR] for i in sids]
    return 1e6 * statistics.median(costs) if costs else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The LAYER_METRICS values of one traced pass."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attr_sum = defaultdict(int)
    errored_child = set()
    errors = defaultdict(int)
    # ancestry flags; a parent is always recorded before its children
    under_step = [False] * len(spans)
    per_step = defaultdict(int)
    by_grid = defaultdict(list)
    for sid, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        calls[name] += 1
        self_s[name] += selfs[sid]
        total_s[name] += s[END] - s[START]
        if isinstance(s[ATTR], int):
            attr_sum[name] += s[ATTR]
        if parent >= 0:
            pname = spans[parent][NAME]
            under_step[sid] = (under_step[parent]
                               or pname == "flow_engine.step_umbilical")
            if s[ERROR]:
                errored_child.add(parent)
        if under_step[sid]:
            per_step[name] += 1
        if name in ("flow_engine.step_umbilical", "flow_engine.step_tau_system"):
            by_grid[(name, s[ATTR])].append(sid)
    for sid, s in enumerate(spans):
        if s[ERROR] and sid not in errored_child:  # where the error started
            errors[s[NAME].split(".")[0]] += 1

    steps = calls["flow_engine.step_umbilical"]
    tau_sids = [i for (name, _), sids in by_grid.items()
                if name == "flow_engine.step_tau_system" for i in sids]
    write_time = total_s["cli.write_csv"]
    out = {}
    for metric, _unit in LAYER_METRICS:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[head]
        elif field == "self_s":
            out[metric] = self_s[head]
        elif field in ("bytes", "modes", "steps"):
            out[metric] = attr_sum[head]
        elif field == "errors":
            out[metric] = errors[head]
    out.update({
        "sym_curvature.psi_evals_per_step":
            per_step["sym_curvature.psi_of_lambda"] / steps if steps else 0.0,
        "flow_engine.validations_per_step":
            per_step["flow_engine.UmbilicalProfile.init"] / steps if steps else 0.0,
        "flow_engine.step_umbilical.us_per_node.G256":
            _per_node_us(spans, by_grid[("flow_engine.step_umbilical", 256)]),
        "flow_engine.step_umbilical.us_per_node.G4096":
            _per_node_us(spans, by_grid[("flow_engine.step_umbilical", 4096)]),
        "flow_engine.step_tau_system.us_per_node": _per_node_us(spans, tau_sids),
        "cli.write_csv.mb_per_s":
            attr_sum["cli.write_csv"] / 1e6 / write_time if write_time else 0.0,
    })
    return out
