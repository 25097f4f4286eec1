"""Experiment command line: ``imexks --config <path> [--set key=value ...] [--out <dir>]``.

The flat JSON config, with ``--set`` overrides, names its ``mode``, and the
mode alone picks what runs: ``solve`` (one run, field snapshots, errors when
an exact solution exists), ``converge-space-time`` and ``converge-time``
(refinement studies), ``gre-table`` (global relative errors against the
published comparisons) or ``stability`` (amplification-factor scans and
|r| = 1 boundaries).  Stability mode scans its y values in waves of worker
processes, as many y per wave as the CPUs this process may use, or in this
process when only one CPU or one y is there.  Exit codes: 0 success, 2 config
error, 3 numerical instability, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from . import analysis, stepper
from .problems import ProblemSpec, make_problem
from .stepper import InstabilityError

# Published GRE values for problem 1 (N = 200, k = 0.01) from the septic
# B-spline collocation, quintic B-spline collocation and lattice-Boltzmann
# comparison schemes.  Literature reference values only, never recomputed.
LITERATURE_GRE = {
    "sbsc": {6.0: 1.625e-07, 8.0: 1.940e-07, 10.0: 2.229e-07, 12.0: 5.314e-07},
    "qbsc": {6.0: 6.509e-06, 8.0: 7.132e-06, 10.0: 7.310e-06, 12.0: 8.776e-06},
    "lbm": {6.0: 7.881e-06, 8.0: 9.532e-06, 10.0: 1.089e-05, 12.0: 1.179e-05},
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_halving(seq) -> bool:
    return all(abs(b - a / 2.0) <= 1e-12 * abs(a) for a, b in zip(seq, seq[1:]))


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def parse_y_value(raw) -> complex:
    """Accept text like '-2', '5i', '-20i' or '5 j'."""
    text = str(raw).strip().replace(" ", "")
    if text.endswith(("i", "j")):
        body = text[:-1]
        if body in ("", "+", "-"):
            body += "1"
        return complex(0.0, _finite(body))
    return complex(_finite(text), 0.0)


def _integer(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value


def _floats(value) -> Tuple[float, ...]:
    return tuple(map(_finite, value if isinstance(value, (list, tuple)) else [value]))


def _shortest(x: float) -> str:
    """The shortest text that reads back as ``x``, without a trailing ``.0``; -0.0 gives '0'."""
    return repr(x + 0.0).removesuffix(".0")


def _y_labels(value) -> Tuple[str, ...]:
    """Each y as the shortest text of its value, such as '-2' or '5i'."""
    entries = value if isinstance(value, (list, tuple)) else [value]
    labels = tuple(f"{_shortest(y.imag)}i" if y.imag else _shortest(y.real)
                   for y in map(parse_y_value, entries))
    if len(set(labels)) < len(labels):
        raise ValueError(f"two entries name the same y in {list(entries)}")
    return labels


def _window(value) -> Tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == 4):
        raise ConfigError("window must be [re_min, re_max, im_min, im_max]")
    return _floats(value)


# config key -> coercer of its JSON value; a config lists its keys in this order.
# A mode's list keys (below) are coerced by _floats instead.
_KEYS = {"mode": str, "problem": _integer, "N": _integer, "h": _finite, "k": _finite,
         "T": _finite, "snapshots": _floats, "times": _floats, "beta": _finite,
         "y": _y_labels, "window": _window, "resolution": _integer}

# mode -> (required keys, other accepted keys, keys that take a halving list)
_MODES = {
    "solve": (("problem", "k", "T"), ("N", "h", "snapshots", "beta"), ()),
    "converge-space-time": (("problem", "h", "k", "T"), (), ("h", "k")),
    "converge-time": (("problem", "N", "k", "T"), ("beta",), ("k",)),
    "stability": (("y",), ("window", "resolution"), ()),
    "gre-table": (("problem", "N", "k", "times"), (), ()),
}


def _json_object(raw: bytes) -> dict:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config is not valid UTF-8 JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of flat keys")
    return data


def config_from_dict(data: dict) -> Mapping:
    """The validated config, read-only, in ``_KEYS`` order; lists become tuples, empty
    ones are dropped."""
    for key in data:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if "mode" not in data:
        raise ConfigError("config requires a mode")
    mode = str(data["mode"])
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(_MODES)}")
    required, accepted, lists = _MODES[mode]
    coerced = {}
    for key, value in data.items():
        if key not in ("mode",) + required + accepted:
            raise ConfigError(f"mode {mode!r} does not accept {key!r}")
        try:
            coerced[key] = (_floats if key in lists else _KEYS[key])(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for {key!r}: {err}") from err
    cfg = MappingProxyType({key: coerced[key] for key in _KEYS if coerced.get(key, ()) != ()})
    for key in required:
        if key not in cfg:
            raise ConfigError(f"mode {mode!r} requires {key!r}")
    try:
        validate_config(cfg)
    except ValueError as err:  # the library's own checks, such as grid sizes
        raise ConfigError(str(err)) from err
    return cfg


def serialize_config(cfg: Mapping) -> str:
    """JSON text that :func:`config_from_dict` reads back to an equal config."""
    return json.dumps(dict(cfg), indent=2) + "\n"


def _override_value(raw: str):
    """JSON if it parses, else a comma-separated list of such values, else the text."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return [_override_value(item.strip()) for item in raw.split(",")] if "," in raw else raw


def apply_overrides(data: dict, pairs) -> dict:
    """Fold --set key=value pairs into a raw config dictionary."""
    out = dict(data)
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        out[key.strip()] = _override_value(raw.strip())
    return out


def _runs(cfg: Mapping, spec: ProblemSpec) -> Tuple[Tuple[int, float], ...]:
    """(node count, step) of each run in order; converge-time first runs a reference at 2 k[0]."""
    steps = _floats(cfg["k"])
    if cfg["mode"] == "converge-time":
        steps = (2.0 * steps[0],) + steps
    if "N" in cfg:
        return tuple((cfg["N"], k) for k in steps)
    length = spec.domain[1] - spec.domain[0]
    cells = [stepper.whole_steps(length, h) for h in _floats(cfg["h"])]
    if None in cells:
        raise ConfigError(f"h = {cfg['h']} does not divide the domain length {length}")
    return tuple((n + spec.scheme.walls, k) for n, k in zip(cells, steps))


def validate_config(cfg: Mapping):
    """The rules between keys of a config whose keys suit its mode."""
    mode = cfg["mode"]
    lists = _MODES[mode][2]
    if mode == "stability":
        analysis.scan_axes(cfg.get("window", analysis.DEFAULT_WINDOW),
                           cfg.get("resolution", analysis.DEFAULT_RESOLUTION))
        return
    if mode == "solve" and ("N" in cfg) == ("h" in cfg):
        raise ConfigError("solve requires exactly one of N or h")
    if any(min(_floats(cfg[key])) <= 0 for key in ("h", "k", "T") if key in cfg):
        raise ConfigError("h, k and T must be positive")
    if lists:
        if "h" in cfg and len(cfg["h"]) != len(cfg["k"]):
            raise ConfigError("h and k lists must have equal length")
        if len(cfg["k"]) < 2:
            raise ConfigError("refinement lists need at least two levels")
        if not all(_is_halving(cfg[key]) for key in lists):
            raise ConfigError("refinement lists must halve at every level")

    spec = make_problem(cfg["problem"], beta=cfg.get("beta"))
    runs = _runs(cfg, spec)
    for _, k_val in runs:
        if "T" in cfg and stepper.whole_steps(cfg["T"], k_val) is None:
            raise ConfigError(f"T = {cfg['T']} is not an integer multiple of k = {k_val}")
    for t_snap in cfg.get("snapshots", ()):
        if t_snap < 0 or t_snap > cfg["T"] or stepper.whole_steps(t_snap, cfg["k"]) is None:
            raise ConfigError(f"snapshot time {t_snap} is not a step multiple within [0, T]")
    for t_val in cfg.get("times", ()):
        if t_val <= 0 or stepper.whole_steps(t_val, cfg["k"]) is None:
            raise ConfigError(f"time {t_val} is not a positive step multiple")
    snap_steps, time_steps = ([stepper.whole_steps(t, cfg["k"]) for t in cfg.get(key, ())]
                              for key in ("snapshots", "times"))
    if len(set(snap_steps)) < len(snap_steps):
        raise ConfigError("two snapshot times fall on the same step")
    if time_steps != sorted(set(time_steps)):
        raise ConfigError("times must fall on strictly increasing steps")
    for n_points in {n for n, _ in runs}:
        spec.build_system(n_points)
    if mode in ("converge-space-time", "gre-table") and spec.exact_solution is None:
        raise ConfigError(f"mode {mode!r} requires the problem with an exact solution")


def _timed_run(spec: ProblemSpec, n_points: int, k: float, t_final: float, capture=()):
    """(system, final state, {t: state copy} at the ``capture`` times, wall timings)."""
    wanted = {round(t_val / k): t_val for t_val in capture}
    captured = {}

    def observer(t_now, u_now):
        t_val = wanted.get(round(t_now / k))
        if t_val is not None:
            captured[t_val] = np.array(u_now, copy=True)

    t0 = time.perf_counter()
    sys_ = spec.build_system(n_points)
    u0 = spec.initial_state(sys_)
    ws = stepper.prepare(sys_, k)
    t1 = time.perf_counter()
    u_final = stepper.integrate(sys_, u0, k, t_final, observer=observer if wanted else None,
                                workspace=ws)
    t2 = time.perf_counter()
    return sys_, u_final, captured, {"wall_loop_seconds": t2 - t1, "wall_total_seconds": t2 - t0}


def _exact_errors(spec: ProblemSpec, sys_, u: np.ndarray, t: float) -> dict:
    """Max-norm error and GRE against the exact solution on every grid node, walls included."""
    exact = spec.exact_solution(sys_.grid.nodes(), t)
    full = sys_.full_state(u, t)
    return {"max_norm": analysis.max_norm_error(exact, full), "gre": analysis.gre(exact, full)}


# table.csv column -> (report-row key, format spec); a missing or None value is an empty cell
_COLUMNS = {"n_points": ("n_points", "d"), "h": ("h", "g"), "k": ("k", "g"), "T": ("T", "g"),
            "time": ("time", "g"), "max_norm": ("max_norm", ".3E"), "gre": ("gre", ".3E"),
            "e_k": ("e_k", ".3E"), "order": ("observed_order", ".4f"),
            "wall_loop_s": ("wall_loop_seconds", ".4f"),
            **{f"gre_{name}_literature": (name, ".3E") for name in LITERATURE_GRE}}


def _write_table(out: Path, report: dict, header):
    """table.csv: each report row, its literature GREs merged in, by ``_COLUMNS``."""
    lines = [",".join(header)]
    for row in report["rows"]:
        row = {**row, **row.get("literature", {})}
        cells = ((row.get(key), spec) for key, spec in map(_COLUMNS.get, header))
        lines.append(",".join("" if value is None else format(value, spec) for value, spec in cells))
    (out / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report["outputs"].append("table.csv")


def run(cfg: Mapping, out_dir) -> dict:
    """Execute the experiment and write report.json plus CSV outputs.

    When a run fails, the partial report is still written before the error
    propagates; a numerical instability is recorded in it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mode = cfg["mode"]
    report = {"config": json.loads(serialize_config(cfg)), "mode": mode, "rows": [], "outputs": []}
    try:
        spec = None if mode == "stability" else make_problem(cfg["problem"], beta=cfg.get("beta"))
        _RUNNERS[mode](cfg, spec, out, report)
    except InstabilityError as err:
        report["instability"] = {"message": str(err), "step_index": err.step_index,
                                 "time": err.time, "max_abs": err.max_abs}
        raise
    finally:
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _run_solve(cfg: Mapping, spec: ProblemSpec, out: Path, report: dict):
    ((n_points, k),) = _runs(cfg, spec)
    t_final = cfg["T"]
    sys_, u_final, captured, timings = _timed_run(spec, n_points, k, t_final,
                                                  cfg.get("snapshots", (t_final,)))
    x_full = sys_.grid.nodes()
    for t_snap in sorted(captured):
        name = f"field_t{_shortest(t_snap)}.csv"
        np.savetxt(out / name, np.column_stack([x_full, sys_.full_state(captured[t_snap], t_snap)]),
                   delimiter=",", fmt="%.17e", header="x,u", comments="")
        report["outputs"].append(name)
    row = {"n_points": n_points, "h": sys_.grid.h, "k": k, "T": t_final, **timings}
    if spec.exact_solution is not None:
        row.update(_exact_errors(spec, sys_, u_final, t_final))
    report["rows"].append(row)
    _write_table(out, report, ["n_points", "h", "k", "T", "max_norm", "gre", "wall_loop_s"])


def _run_converge(cfg: Mapping, spec: ProblemSpec, out: Path, report: dict):
    """Space-time mode: max-norm error against the exact solution per (h, k).
    Time mode: E_k against the run at twice the step, starting from 2 k[0]."""
    space_time = cfg["mode"] == "converge-space-time"
    t_final = cfg["T"]
    runs = _runs(cfg, spec)
    if not space_time:
        (n_ref, k_ref), runs = runs[0], runs[1:]
        _, u_prev, _, timings = _timed_run(spec, n_ref, k_ref, t_final)
        report["reference_run"] = {"k": k_ref, **timings}
    error_key = "max_norm" if space_time else "e_k"
    e_prev = None
    for n_points, k_val in runs:
        sys_, u_final, _, timings = _timed_run(spec, n_points, k_val, t_final)
        row = {"n_points": n_points, "h": sys_.grid.h, "k": k_val, "T": t_final}
        if space_time:
            row.update(_exact_errors(spec, sys_, u_final, t_final))
        else:
            row["e_k"] = analysis.max_norm_error(u_final, u_prev)
            u_prev = u_final
        error = row[error_key]
        order = None if e_prev is None else analysis.observed_order(e_prev, error)
        row.update(observed_order=order, **timings)
        report["rows"].append(row)
        e_prev = error
    _write_table(out, report, ["n_points", "h", "k", "T", error_key, "order", "wall_loop_s"])


def _run_gre_table(cfg: Mapping, spec: ProblemSpec, out: Path, report: dict):
    ((n_points, k),) = _runs(cfg, spec)
    times = cfg["times"]
    sys_, _, captured, timings = _timed_run(spec, n_points, k, times[-1], times)
    for t_val in times:
        report["rows"].append({
            "n_points": n_points, "h": sys_.grid.h, "k": k, "time": t_val,
            "gre": _exact_errors(spec, sys_, captured[t_val], t_val)["gre"],
            "literature": {name: table.get(t_val) for name, table in LITERATURE_GRE.items()},
        })
    report["timings"] = timings
    _write_table(out, report, ["n_points", "h", "k", "time", "gre",
                               *(f"gre_{name}_literature" for name in LITERATURE_GRE)])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stability_files(label: str) -> Tuple[str, str]:
    """The field and boundary CSV names of one y."""
    return f"stability_y{label}.csv", f"boundary_y{label}.csv"


def _scan_to_files(label: str, window: tuple, resolution: int, out: Path) -> dict:
    """Scan one y, write its two CSVs and return its report row, all plain values."""
    t0 = time.perf_counter()
    field_ = analysis.stability_scan(parse_y_value(label), window=window, resolution=resolution)
    t1 = time.perf_counter()
    field_name, boundary_name = _stability_files(label)
    analysis.write_field_csv(field_, out / field_name)
    analysis.write_boundary_csv(field_, out / boundary_name)
    return {"y": label, "window": list(window), "resolution": resolution,
            "area": field_.area(), "empty": field_.is_empty,
            "n_boundary_polylines": len(field_.boundary), "wall_seconds": t1 - t0,
            "wall_write_seconds": time.perf_counter() - t1}


def _run_stability(cfg: Mapping, _spec, out: Path, report: dict):
    """Scan the y in waves of one worker process per usable CPU, each wave after every row
    of the last is read, so no y starts after a failure; in this process if one runs at once."""
    from concurrent.futures import ProcessPoolExecutor

    labels = cfg["y"]
    task = functools.partial(_scan_to_files, window=cfg.get("window", analysis.DEFAULT_WINDOW),
                             resolution=cfg.get("resolution", analysis.DEFAULT_RESOLUTION),
                             out=out)
    workers = min(len(labels), _usable_cpus())
    # the platform's start method: fork on Linux up to Python 3.13, so a worker starts
    # with imexks already imported.  Four 512 x 512 scans on two CPUs (Python 3.11, eight
    # runs each) took 0.23-0.25 s under fork, 0.36-0.55 s under forkserver, 0.45-0.60 s
    # under spawn and 0.29-0.40 s in one process: without fork the pool is the slower way
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        for start in range(0, len(labels), workers):
            for row in (pool.map if pool else map)(task, labels[start:start + workers]):
                report["rows"].append(row)
                report["outputs"].extend(_stability_files(row["y"]))


_RUNNERS = {"solve": _run_solve, "converge-space-time": _run_converge,
            "converge-time": _run_converge, "stability": _run_stability,
            "gre-table": _run_gre_table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="imexks", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        raw = _json_object(Path(args.config).read_bytes())
        report = run(config_from_dict(apply_overrides(raw, args.set)), args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InstabilityError as err:
        print(f"numerical instability: {err} (step {err.step_index}, t = {err.time})",
              file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    print(f"wrote {len(report['outputs']) + 1} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
