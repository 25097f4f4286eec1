"""Experiment command line: ``imexks --config <path> [--set key=value ...] [--out <dir>]``.

The flat JSON config, with ``--set`` overrides, names its ``mode``, and the
mode alone picks what runs: ``solve`` (one run, field snapshots, errors when
an exact solution exists), ``converge-space-time`` and ``converge-time``
(refinement studies), ``gre-table`` (global relative errors against the
published comparisons) or ``stability`` (amplification-factor scans and
|r| = 1 boundaries).  Exit codes: 0 success, 2 config error, 3 numerical
instability, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from . import analysis, stepper
from .compact_fd import BoundaryScheme
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


def _near_multiple(value: float, unit: float) -> bool:
    ratio = value / unit
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))


def _is_halving(seq) -> bool:
    return all(abs(b - a / 2.0) <= 1e-12 * abs(a) for a, b in zip(seq, seq[1:]))


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def parse_y_value(raw) -> complex:
    """Accept plain numbers or strings like '-2', '5i', '-20i'."""
    if isinstance(raw, (int, float)):
        return complex(_finite(raw), 0.0)
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


def _float_or_list(value):
    return _floats(value) if isinstance(value, (list, tuple)) else _finite(value)


def _y_tag(label: str) -> str:
    """The label in the output file names: characters other than letters,
    digits and ``+-.`` become ``_``."""
    return "".join(ch if (ch.isalnum() or ch in "+-.") else "_" for ch in label)


def _y_labels(value) -> Tuple[str, ...]:
    labels = tuple(str(v) for v in (value if isinstance(value, (list, tuple)) else [value]))
    values = set(map(parse_y_value, labels))  # fail fast on malformed entries
    if len(values) < len(labels) or len(set(map(_y_tag, labels))) < len(labels):
        raise ValueError(f"two labels name the same y or file tag in {list(labels)}")
    return labels


def _window(value) -> Tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == 4):
        raise ConfigError("window must be [re_min, re_max, im_min, im_max]")
    return _floats(value)


# config key -> coercer of its JSON value; a config lists its keys in this order
_KEYS = {"mode": str, "problem": _integer, "N": _integer, "h": _float_or_list,
         "k": _float_or_list, "T": _finite, "snapshots": _floats, "times": _floats,
         "beta": _finite, "y": _y_labels, "window": _window, "resolution": _integer}

# mode -> (required keys, rejected keys, keys that take a list)
_STABILITY_KEYS = ("y", "window", "resolution")
_MODES = {
    "solve": (("problem", "k", "T"), ("times", *_STABILITY_KEYS), ()),
    "converge-space-time": (("problem", "h", "k", "T"),
                            ("N", "snapshots", "times", *_STABILITY_KEYS), ("h", "k")),
    "converge-time": (("problem", "N", "k", "T"),
                      ("h", "snapshots", "times", *_STABILITY_KEYS), ("k",)),
    "stability": (("y",), ("problem", "N", "h", "k", "T", "snapshots", "times", "beta"), ()),
    "gre-table": (("problem", "N", "k", "times"), ("h", "T", "snapshots", *_STABILITY_KEYS),
                  ()),
}


def _json_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of flat keys")
    return data


def config_from_dict(data: dict) -> Mapping:
    """The validated config, read-only, in ``_KEYS`` order; lists become tuples, empty
    ones are dropped."""
    coerced = {}
    for key, value in data.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            coerced[key] = _KEYS[key](value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for {key!r}: {err}") from err
    if "mode" not in coerced:
        raise ConfigError("config requires a mode")
    cfg = MappingProxyType({key: coerced[key] for key in _KEYS if coerced.get(key, ()) != ()})
    validate_config(cfg)
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


def _run_points(cfg: Mapping, spec: ProblemSpec) -> Tuple[int, ...]:
    """Node count of each run, aligned with the k list."""
    if "N" in cfg:
        return (cfg["N"],) * len(_floats(cfg["k"]))
    length = spec.domain[1] - spec.domain[0]
    if not all(_near_multiple(length, h) for h in _floats(cfg["h"])):
        raise ConfigError(f"h = {cfg['h']} does not divide the domain length {length}")
    walls = 0 if spec.scheme is BoundaryScheme.PERIODIC else 1
    return tuple(int(round(length / h)) + walls for h in _floats(cfg["h"]))


def validate_config(cfg: Mapping):
    mode = cfg["mode"]
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(_MODES)}")
    required, rejected, lists = _MODES[mode]
    for key in required + rejected:
        if (key in cfg) != (key in required):
            verb = "requires" if key in required else "does not accept"
            raise ConfigError(f"mode {mode!r} {verb} {key!r}")
    if mode == "stability":
        if cfg.get("resolution", 16) < 16:
            raise ConfigError("stability resolution must be at least 16")
        re_min, re_max, im_min, im_max = cfg.get("window", analysis.DEFAULT_WINDOW)
        if not (re_max > re_min and im_max > im_min):
            raise ConfigError("window must satisfy re_min < re_max and im_min < im_max")
        return
    if mode == "solve" and ("N" in cfg) == ("h" in cfg):
        raise ConfigError("solve requires exactly one of N or h")
    for key in ("h", "k"):
        if key in cfg and isinstance(cfg[key], tuple) != (key in lists):
            what = "a list" if key in lists else "a single value"
            raise ConfigError(f"mode {mode!r} takes {what} for {key!r}")
    if any(min(_floats(cfg[key])) <= 0 for key in ("h", "k", "T") if key in cfg):
        raise ConfigError("h, k and T must be positive")
    if lists:
        if "h" in cfg and len(cfg["h"]) != len(cfg["k"]):
            raise ConfigError("h and k lists must have equal length")
        if len(cfg["k"]) < 2:
            raise ConfigError("refinement lists need at least two levels")
        if not all(_is_halving(cfg[key]) for key in lists):
            raise ConfigError("refinement lists must halve at every level")

    # converge-time also runs a reference at twice the first step
    steps = _floats(cfg["k"]) + ((2.0 * cfg["k"][0],) if mode == "converge-time" else ())
    for k_val in steps:
        if "T" in cfg and not _near_multiple(cfg["T"], k_val):
            raise ConfigError(f"T = {cfg['T']} is not an integer multiple of k = {k_val}")
    for t_snap in cfg.get("snapshots", ()):
        if t_snap < 0 or t_snap > cfg["T"] or not _near_multiple(t_snap, cfg["k"]):
            raise ConfigError(f"snapshot time {t_snap} is not a step multiple within [0, T]")
    times = cfg.get("times", ())
    if list(times) != sorted(set(times)):
        raise ConfigError("times must be strictly increasing")
    for t_val in times:
        if t_val <= 0 or not _near_multiple(t_val, cfg["k"]):
            raise ConfigError(f"time {t_val} is not a positive step multiple")
    try:
        spec = make_problem(cfg["problem"], beta=cfg.get("beta"))
        for n_points in set(_run_points(cfg, spec)):
            spec.build_system(n_points)
    except ValueError as err:
        raise ConfigError(str(err)) from err
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


def _fmt(value) -> str:
    return "" if value is None else f"{value:.3E}"


def _exact_errors(spec: ProblemSpec, sys_, u: np.ndarray, t: float) -> dict:
    """Max-norm error and GRE against the exact solution on every grid node, walls included."""
    exact = spec.exact_solution(sys_.grid.nodes(), t)
    full = sys_.full_state(u, t)
    return {"max_norm": analysis.max_norm_error(exact, full), "gre": analysis.gre(exact, full)}


def _write_table(out: Path, report: dict, header, rows):
    lines = [",".join(header)] + [",".join(row) for row in rows]
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
    (n_points,) = _run_points(cfg, spec)
    k, t_final = cfg["k"], cfg["T"]
    sys_, u_final, captured, timings = _timed_run(spec, n_points, k, t_final,
                                                  cfg.get("snapshots", (t_final,)))
    x_full = sys_.grid.nodes()
    for t_snap in sorted(captured):
        name = f"field_t{t_snap:g}.csv"
        np.savetxt(out / name, np.column_stack([x_full, sys_.full_state(captured[t_snap], t_snap)]),
                   delimiter=",", fmt="%.17e", header="x,u", comments="")
        report["outputs"].append(name)
    row = {"n_points": n_points, "h": sys_.grid.h, "k": k, "T": t_final, **timings}
    if spec.exact_solution is not None:
        row.update(_exact_errors(spec, sys_, u_final, t_final), e_k=None,
                   observed_order=None, wall_seconds=timings["wall_loop_seconds"])
    report["rows"].append(row)
    _write_table(out, report, ["n_points", "h", "k", "T", "max_norm", "gre", "wall_loop_s"], [[
        str(n_points), f"{sys_.grid.h:g}", f"{k:g}", f"{t_final:g}",
        _fmt(row.get("max_norm")), _fmt(row.get("gre")), f"{timings['wall_loop_seconds']:.4f}",
    ]])


def _run_converge(cfg: Mapping, spec: ProblemSpec, out: Path, report: dict):
    """Space-time mode: max-norm error against the exact solution per (h, k).
    Time mode: E_k against the run at twice the step, starting from 2 k[0]."""
    space_time = cfg["mode"] == "converge-space-time"
    t_final = cfg["T"]
    if not space_time:
        k_ref = 2.0 * cfg["k"][0]
        _, u_prev, _, timings = _timed_run(spec, cfg["N"], k_ref, t_final)
        report["reference_run"] = {"k": k_ref, **timings}
    error_key = "max_norm" if space_time else "e_k"
    e_prev = None
    rows_csv = []
    for n_points, k_val in zip(_run_points(cfg, spec), cfg["k"]):
        sys_, u_final, _, timings = _timed_run(spec, n_points, k_val, t_final)
        row = {"n_points": n_points, "h": sys_.grid.h, "k": k_val, "T": t_final}
        if space_time:
            row.update(_exact_errors(spec, sys_, u_final, t_final))
        else:
            row["e_k"] = analysis.self_difference_error(u_final, u_prev)
            u_prev = u_final
        error = row[error_key]
        order = None if e_prev is None else analysis.observed_order(e_prev, error)
        row.update(observed_order=order, **timings)
        report["rows"].append(row)
        rows_csv.append([
            str(n_points), f"{sys_.grid.h:g}", f"{k_val:g}", f"{t_final:g}", _fmt(error),
            "" if order is None else f"{order:.4f}", f"{timings['wall_loop_seconds']:.4f}",
        ])
        e_prev = error
    _write_table(out, report, ["n_points", "h", "k", "T", error_key, "order", "wall_loop_s"],
                 rows_csv)


def _run_gre_table(cfg: Mapping, spec: ProblemSpec, out: Path, report: dict):
    n_points, k, times = cfg["N"], cfg["k"], cfg["times"]
    sys_, _, captured, timings = _timed_run(spec, n_points, k, times[-1], times)
    rows_csv = []
    for t_val in times:
        gre_val = _exact_errors(spec, sys_, captured[t_val], t_val)["gre"]
        report["rows"].append({
            "n_points": n_points, "h": sys_.grid.h, "k": k, "time": t_val, "gre": gre_val,
            "literature": {name: table.get(t_val) for name, table in LITERATURE_GRE.items()},
        })
        rows_csv.append([
            str(n_points), f"{sys_.grid.h:g}", f"{k:g}", f"{t_val:g}", _fmt(gre_val),
            *(_fmt(table.get(t_val)) for table in LITERATURE_GRE.values()),
        ])
    report["timings"] = timings
    _write_table(out, report, ["n_points", "h", "k", "time", "gre", "gre_sbsc_literature",
                               "gre_qbsc_literature", "gre_lbm_literature"], rows_csv)


def _run_stability(cfg: Mapping, _spec, out: Path, report: dict):
    window = cfg.get("window", analysis.DEFAULT_WINDOW)
    resolution = cfg.get("resolution", analysis.DEFAULT_RESOLUTION)
    for label in cfg["y"]:
        t0 = time.perf_counter()
        field_ = analysis.stability_scan(parse_y_value(label), window=window,
                                         resolution=resolution)
        elapsed = time.perf_counter() - t0
        tag = _y_tag(label)
        field_name = f"stability_y{tag}.csv"
        boundary_name = f"boundary_y{tag}.csv"
        analysis.write_field_csv(field_, out / field_name)
        analysis.write_boundary_csv(field_, out / boundary_name)
        report["rows"].append({
            "y": label, "window": list(window), "resolution": resolution,
            "area": field_.area(), "empty": field_.is_empty,
            "n_boundary_polylines": len(field_.boundary), "wall_seconds": elapsed,
        })
        report["outputs"].extend([field_name, boundary_name])


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
        raw = _json_object(Path(args.config).read_text(encoding="utf-8"))
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
