"""Which library functions get a span, and the per-layer metrics derived from them.

Targets are looked up by name and skipped when absent, so a later change that
removes a function (for example ``constrain_stage``) leaves its metrics at 0
instead of breaking the traced run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import types
from typing import Dict, List

import numpy as np

import spans
from imexks import linalg

PACKAGE = "imexks"

# (metric, unit) in report order.  ``<span>_s`` is the time inside the span,
# ``<span>_calls`` its call count, ``<span>_self_s`` its time minus its direct
# children; the other names are counters filled by call hooks.
PER_LAYER = (
    ("linalg.lu_solve_s", "s"),
    ("linalg.lu_solve_calls", "count"),
    ("linalg.solve_bytes", "B"),
    ("linalg.lu_factor_s", "s"),
    ("linalg.lu_factor_calls", "count"),
    ("compact_fd.build_s", "s"),
    ("compact_fd.build_calls", "count"),
    ("system.assemble_s", "s"),
    ("problems.build_system_s", "s"),
    ("stepper.prepare_s", "s"),
    ("stepper.workspace_bytes", "B"),
    ("system.nonlinear_rhs_s", "s"),
    ("system.nonlinear_rhs_calls", "count"),
    ("system.constrain_stage_s", "s"),
    ("system.constrain_stage_calls", "count"),
    ("problems.exact_solution_calls", "count"),
    ("stepper.step_s", "s"),
    ("stepper.step_calls", "count"),
    ("stepper.step_self_s", "s"),
    ("analysis.stability_scan_s", "s"),
    ("analysis.amplification_calls", "count"),
    ("analysis.amplification_s", "s"),
    ("analysis.boundary_points", "count"),
    ("analysis.write_field_csv_s", "s"),
    ("analysis.write_boundary_csv_s", "s"),
    ("analysis.csv_bytes", "B"),
    ("cli.run_s", "s"),
    ("cli.run_self_s", "s"),
    ("trace_overhead_frac", "frac"),
)


def array_bytes(root) -> int:
    """nbytes of every distinct ndarray reachable from ``root``'s fields.

    Views count through their base array, once.  Modules, classes and
    functions are not followed.
    """
    seen, bases, todo = set(), {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (type, types.ModuleType, types.FunctionType, types.MethodType,
                              types.BuiltinFunctionType)):
            continue
        else:
            if hasattr(obj, "__dict__"):
                todo.extend(vars(obj).values())
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    todo.append(getattr(obj, slot))
    return sum(bases.values())


def _refine_default() -> int:
    param = inspect.signature(linalg.lu_solve).parameters.get("refine")
    return 0 if param is None or param.default is param.empty else param.default


_REFINE_DEFAULT = _refine_default()


def _solve_bytes_hook(tracer, args, kwargs, _result):
    """Computed bytes of one solve: (1+refine) factors + refine matrix, from the arguments."""
    fact = args[0] if args else next(iter(kwargs.values()))
    refine = kwargs.get("refine", args[2] if len(args) > 2 else _REFINE_DEFAULT)
    factors = getattr(fact, "factors", None)
    matrix = getattr(fact, "matrix", None)
    tracer.counters["linalg.solve_bytes"] += (
        (1 + refine) * getattr(factors, "nbytes", 0) + refine * getattr(matrix, "nbytes", 0))


def _workspace_hook(tracer, _args, _kwargs, workspace):
    size = array_bytes(workspace)
    tracer.counters["stepper.workspace_bytes"] = max(tracer.counters["stepper.workspace_bytes"], size)


def _boundary_points_hook(tracer, _args, _kwargs, field):
    tracer.counters["analysis.boundary_points"] += sum(len(line) for line in field.boundary)


def _csv_bytes_hook(tracer, args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["analysis.csv_bytes"] += os.path.getsize(path)


# span name, [(module, function or "Class.method")], call hook
_TARGETS = (
    ("linalg.lu_factor", [("linalg", "lu_factor")], None),
    ("linalg.lu_solve", [("linalg", "lu_solve")], _solve_bytes_hook),
    ("compact_fd.build", [("compact_fd", name) for name in (
        "build_first_derivative", "build_second_derivative",
        "build_interior_first_derivative", "build_interior_second_derivative")], None),
    ("system.assemble", [("system", "assemble")], None),
    ("system.nonlinear_rhs", [("system", "SemiDiscreteKse.nonlinear_rhs")], None),
    ("system.constrain_stage", [("system", "SemiDiscreteKse.constrain_stage")], None),
    ("problems.build_system", [("problems", "ProblemSpec.build_system")], None),
    ("problems.exact_solution", [("problems", "example1_exact")], None),
    ("stepper.prepare", [("stepper", "prepare")], _workspace_hook),
    ("stepper.step", [("stepper", "step")], None),
    ("analysis.stability_scan", [("analysis", "stability_scan")], _boundary_points_hook),
    ("analysis.amplification", [("analysis", "amplification_factor")], None),
    ("analysis.write_field_csv", [("analysis", "write_field_csv")], _csv_bytes_hook),
    ("analysis.write_boundary_csv", [("analysis", "write_boundary_csv")], _csv_bytes_hook),
    ("cli.run", [("cli", "run")], None),
)


def targets() -> List[spans.Target]:
    """The span targets present in the imported library."""
    out = []
    for name, places, hook in _TARGETS:
        for module_name, attr in places:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    continue
                target = (cls, method)
            else:
                target = getattr(module, attr, None)
                if target is None:
                    continue
            out.append((name, target, hook))
    return out


_SPAN_NAMES = frozenset(name for name, _, _ in _TARGETS)
_SPAN_SUFFIXES = (("_self_s", "self_seconds"), ("_s", "seconds"), ("_calls", "calls"))


def metrics(tracer: spans.Tracer) -> Dict[str, float]:
    """Every PER_LAYER metric except trace_overhead_frac, from one traced pass."""
    per_span = spans.totals(tracer.spans)
    out = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace_overhead_frac":
            continue
        for suffix, key in _SPAN_SUFFIXES:
            span = metric[: -len(suffix)]
            if metric.endswith(suffix) and span in _SPAN_NAMES:
                out[metric] = per_span[span][key] if span in per_span else 0
                break
        else:
            out[metric] = tracer.counters.get(metric, 0)
    return out


def solve_share_of_step(tracer: spans.Tracer) -> float:
    """Share of stepper.step time spent in linalg.lu_solve spans nested in it."""
    step_total = solve_in_step = 0.0
    live = tracer.spans
    for name, start, end, parent, _ in live:
        if name == "stepper.step":
            step_total += end - start
        elif name == "linalg.lu_solve":
            ancestor = parent
            while ancestor >= 0 and live[ancestor][0] != "stepper.step":
                ancestor = live[ancestor][3]
            if ancestor >= 0:
                solve_in_step += end - start
    return solve_in_step / step_total if step_total else 0.0
