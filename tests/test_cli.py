import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexks import analysis, cli, problems, stepper
from imexks.cli import (
    ConfigError,
    apply_overrides,
    config_from_dict,
    parse_y_value,
    serialize_config,
)
from imexks.stepper import InstabilityError, integrate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_parse_minimal_solve_config():
    text = '{"problem": 1, "mode": "solve", "N": 201, "k": 0.01, "T": 2}'
    cfg = config_from_dict(json.loads(text))
    assert cfg["mode"] == "solve"
    assert cfg["problem"] == 1
    assert cfg["N"] == 201
    assert cfg["k"] == 0.01
    assert cfg["T"] == 2.0
    with pytest.raises(TypeError):
        cfg["N"] = 101  # the validated config is read-only


def test_imaginary_y_parses():
    cfg = config_from_dict({"mode": "stability", "y": ["-20i"]})
    assert tuple(map(parse_y_value, cfg["y"])) == (complex(0.0, -20.0),)
    assert parse_y_value("5i") == 5j
    assert parse_y_value("-2") == -2.0 + 0j
    assert parse_y_value(-6) == -6.0 + 0j
    assert parse_y_value("i") == 1j


# (config, expected message); main refuses each with exit code 2 and no traceback,
# also those that reach the library's own checks before they are rejected
INVALID_CONFIGS = [
    ({"mode": "solve", "problem": 1, "h": 3.0, "k": 0.1, "T": 1.0}, "does not divide"),
    # below the smallest grids the operators are built on
    ({"mode": "solve", "problem": 2, "N": 2, "k": 0.25, "T": 1.0}, "at least 3"),
    ({"mode": "solve", "problem": 4, "N": 5, "k": 0.01, "T": 0.1}, "at least 7"),
    ({"mode": "converge-space-time", "problem": 1, "h": [50.0, 25.0], "k": [0.1, 0.05],
      "T": 1.0}, "at least 7"),
    ({"mode": "converge-time", "problem": 2, "N": 64, "k": [-0.25, -0.125], "T": 1.0},
     "positive"),
    ({"mode": "converge-space-time", "problem": 1, "h": [-4.0, -2.0], "k": [0.1, 0.05],
      "T": 1.0}, "positive"),
    ({"mode": "converge-time", "problem": 2, "N": 64, "k": [0.25, 0.125], "T": 0.0},
     "positive"),
    # resolution only applies to stability scans and would not round-trip
    ({"mode": "solve", "problem": 1, "N": 201, "k": 0.01, "T": 2.0, "resolution": 64},
     "does not accept 'resolution'"),
    ({"mode": "solve", "problem": 4, "N": 41, "k": 0.01, "T": 0.1, "beta": 0.0}, "beta"),
    # the GRE run integrates to the last requested time
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5, "times": [1.0], "T": 1.0},
     "does not accept 'T'"),
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5, "times": [1.0, 1.25]},
     "not a positive step multiple"),
    # non-finite numbers, which JSON and --set both accept
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": float("inf")}, "finite"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": float("nan"), "T": 1.0}, "finite"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": float("nan")}, "finite"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1.0,
      "snapshots": [float("nan")]}, "finite"),
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5, "times": [1.0, float("nan")]},
     "finite"),
    ({"mode": "stability", "y": ["nan"]}, "finite"),
    ({"mode": "stability", "y": "inf"}, "finite"),
    # T / k overflows to infinity
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1e308}, "integer multiple"),
    # one scan and one pair of output files per y: a repeated y would overwrite
    ({"mode": "stability", "y": ["-2", "-2"]}, "same y"),
    ({"mode": "stability", "y": ["5i", "5 i"]}, "same y"),
    ({"mode": "solve", "problem": 1, "N": 26.0, "k": 0.1, "T": 1.0}, "expected an integer"),
    ({"mode": "nope"}, "unknown mode"),
    ({"mode": "stability", "y": ["-2"], "window": [1, 2, 3]}, "window must be"),
    ({"mode": "stability", "y": ["-2"], "resolution": 8}, "at least 16"),
    ({"mode": "stability", "y": ["-2"], "window": [4, -8, -8, 8]}, "re_min < re_max"),
    ({"mode": "converge-space-time", "problem": 1, "h": [4.0, 2.0], "k": [0.1], "T": 1.0},
     "equal length"),
    ({"mode": "converge-time", "problem": 2, "N": 64, "k": [0.25], "T": 1.0},
     "at least two levels"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.25, "T": 1.0, "snapshots": [2.0]},
     "snapshot time"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.25, "T": 1.0, "snapshots": [0.3]},
     "snapshot time"),
    ({"mode": "converge-time", "problem": 2, "N": 64, "k": [0.025, 0.01], "T": 1.0}, "halve"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1, "foo": 3}, "unknown config key"),
    ({"problem": 1}, "requires a mode"),
    ({"mode": "solve", "problem": 1, "k": 0.1, "T": 1.0}, "exactly one of N or h"),
    ({"mode": "solve", "problem": 1, "k": 0.1, "T": 1.0, "N": 26, "h": 4.0},
     "exactly one of N or h"),
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.3, "T": 1.0}, "integer multiple"),
    ({"mode": "solve", "problem": 2, "N": 64, "k": 0.25, "T": 1.0, "beta": 0.2},
     "only available for problem 4"),
    ({"mode": "converge-space-time", "problem": 3, "h": [2.0, 1.0], "k": [0.1, 0.05],
      "T": 1.0}, "requires the problem with an exact solution"),
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5, "times": [2.0, 1.0]}, "increasing"),
    ({"mode": "stability", "y": ["-2"], "problem": 1}, "does not accept 'problem'"),
    ({"mode": "stability", "y": ["0", "-0"]}, "same y"),
    # a run keeps one state per step, so two times on one step would lose one of them
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.01,
      "times": [0.01, 0.0100000000001]}, "increasing steps"),
    ({"mode": "solve", "problem": 1, "h": 0.5, "k": 0.01, "T": 0.04,
      "snapshots": [0.02, 0.0200000000001]}, "same step"),
    ({"mode": "solve", "problem": 2, "N": 16, "k": 0.25, "T": 1.0,
      "snapshots": [0.5, 0.0, 0.5]}, "same step"),
    # a window whose width, or the area that StabilityField.area() may return, overflows
    ({"mode": "stability", "y": ["-2"], "window": [-1.7e308, 1.7e308, -1, 1]}, "overflows"),
    ({"mode": "stability", "y": ["-2"], "window": [-1e200, 1e200, -1e200, 1e200]}, "overflows"),
]


@pytest.mark.parametrize("data,message", INVALID_CONFIGS)
def test_invalid_config_rejected(data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


@pytest.mark.parametrize("data,_message", INVALID_CONFIGS)
def test_main_reports_invalid_config_without_traceback(tmp_path, capsys, data, _message):
    path = _write_config(tmp_path, data)
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# every key but mode, with a value that is valid wherever the key is accepted
VALID_VALUES = {"problem": 1, "N": 26, "h": 4.0, "k": 0.1, "T": 1.0, "snapshots": [0.5],
                "times": [1.0], "beta": 1.1, "y": ["-2"], "window": [-8.0, 4.0, -8.0, 8.0],
                "resolution": 64}
# mode -> (a valid config with the required keys only, the other keys it accepts)
MODE_KEYS = {
    "solve": ({"problem": 1, "N": 26, "k": 0.1, "T": 1.0}, {"h", "snapshots", "beta"}),
    "converge-space-time": ({"problem": 1, "h": [4.0, 2.0], "k": [0.1, 0.05], "T": 1.0}, set()),
    "converge-time": ({"problem": 2, "N": 64, "k": [0.25, 0.125], "T": 1.0}, {"beta"}),
    "gre-table": ({"problem": 1, "N": 26, "k": 0.5, "times": [1.0]}, set()),
    "stability": ({"y": ["-2"]}, {"window", "resolution"}),
}
REFUSED_KEYS = [(mode, key) for mode, (base, other) in MODE_KEYS.items()
                for key in VALID_VALUES if key not in base and key not in other]


@pytest.mark.parametrize("mode,key", REFUSED_KEYS)
def test_each_mode_refuses_the_keys_it_does_not_take(mode, key):
    base = {"mode": mode, **MODE_KEYS[mode][0]}
    config_from_dict(base)
    with pytest.raises(ConfigError, match=f"does not accept '{key}'"):
        config_from_dict({**base, key: VALID_VALUES[key]})


@pytest.mark.parametrize("mode", MODE_KEYS)
def test_each_mode_requires_its_keys(mode):
    base = {"mode": mode, **MODE_KEYS[mode][0]}
    required = base.keys() - {"mode"} - ({"N"} if mode == "solve" else set())  # or h
    for key in required:
        with pytest.raises(ConfigError, match=f"requires '{key}'"):
            config_from_dict({name: value for name, value in base.items() if name != key})


def test_a_number_for_a_list_and_a_list_for_a_number_are_refused():
    with pytest.raises(ConfigError, match="at least two levels"):
        config_from_dict({"mode": "converge-time", "problem": 2, "N": 64, "k": 0.25, "T": 1.0})
    with pytest.raises(ConfigError, match="bad value for 'k'"):
        config_from_dict({"mode": "solve", "problem": 2, "N": 64, "k": [0.25, 0.125],
                          "T": 1.0})


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_parse_and_map_to_a_subcommand(path):
    cfg = config_from_dict(json.loads(path.read_text()))
    assert config_from_dict(json.loads(serialize_config(cfg))) == cfg


@pytest.mark.parametrize("data", [
    {"mode": "solve", "problem": 1, "N": 201, "k": 0.01, "T": 2.0},
    {"mode": "solve", "problem": 4, "h": 0.05, "k": 0.005, "T": 1.0,
     "beta": 1.1, "snapshots": [0.5, 1.0]},
    {"mode": "converge-space-time", "problem": 1, "h": [4.0, 2.0, 1.0],
     "k": [0.025, 0.0125, 0.00625], "T": 2.0},
    {"mode": "converge-time", "problem": 2, "N": 256,
     "k": [0.25, 0.125, 0.0625], "T": 10.0},
    {"mode": "gre-table", "problem": 1, "N": 200, "k": 0.01,
     "times": [6.0, 8.0, 10.0, 12.0]},
    {"mode": "stability", "y": ["-2", "-6", "5i"],
     "window": [-8.0, 4.0, -8.0, 8.0], "resolution": 64},
])
def test_config_roundtrip(data):
    cfg = config_from_dict(data)
    assert config_from_dict(json.loads(serialize_config(cfg))) == cfg


@settings(max_examples=60, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_y_label_roundtrip(value):
    """A label parses to its entry's value, uses only digits and .e+-i, and is its own label."""
    entries = [(repr(value), complex(value, 0.0)),
               (f"{value:g}i", complex(0.0, float(f"{value:g}"))),
               (f" {value} i", complex(0.0, value)),
               (f"+{abs(value)}j", complex(0.0, abs(value)))]
    for entry, y in entries:
        (label,) = cli._y_labels([entry])
        assert parse_y_value(label) == y
        assert re.fullmatch(r"-?[0-9.e+-]+i?", label)
        assert cli._y_labels([label]) == (label,)


def test_apply_overrides_parses_values():
    raw = {"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1.0}
    merged = apply_overrides(raw, ["k=0.05", "snapshots=0.5,1.0", "T=1"])
    cfg = config_from_dict(merged)
    assert cfg["k"] == 0.05
    assert cfg["snapshots"] == (0.5, 1.0)


def test_apply_overrides_requires_key_value():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["justakey"])


# ----------------------------------------------------------------- run modes


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {key: _strip_timings(val) for key, val in obj.items()
                if not key.startswith("wall_")}
    if isinstance(obj, list):
        return [_strip_timings(item) for item in obj]
    return obj


def test_solve_run_writes_expected_files(tmp_path):
    cfg = config_from_dict({"mode": "solve", "problem": 4, "N": 41, "k": 0.005,
                            "T": 0.05, "snapshots": [0.025, 0.05]})
    report = cli.run(cfg, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "field_t0.025.csv").exists()
    assert (tmp_path / "field_t0.05.csv").exists()
    data = np.loadtxt(tmp_path / "field_t0.05.csv", delimiter=",", skiprows=1)
    assert data.shape == (41, 2)
    assert data[0, 1] == 0.0 and data[-1, 1] == 0.0
    assert report["rows"][0]["n_points"] == 41


def test_solve_reports_go_through_json(tmp_path):
    cfg = config_from_dict({"mode": "solve", "problem": 1, "N": 26, "k": 0.025, "T": 0.1})
    cli.run(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    row = report["rows"][0]
    # h = 4 grid: coarse spatial error dominates but stays small over T = 0.1
    assert row["max_norm"] < 1e-2
    assert row["gre"] < 1e-3
    assert row.keys() == {"n_points", "h", "k", "T", "wall_loop_seconds", "wall_total_seconds",
                          "max_norm", "gre"}


def test_reports_are_deterministic_modulo_timings(tmp_path):
    cfg = config_from_dict({"mode": "solve", "problem": 2, "N": 64, "k": 0.25, "T": 1.0})
    cli.run(cfg, tmp_path / "a")
    cli.run(cfg, tmp_path / "b")
    rep_a = _strip_timings(json.loads((tmp_path / "a" / "report.json").read_text()))
    rep_b = _strip_timings(json.loads((tmp_path / "b" / "report.json").read_text()))
    assert rep_a == rep_b
    field_a = (tmp_path / "a" / "field_t1.csv").read_bytes()
    field_b = (tmp_path / "b" / "field_t1.csv").read_bytes()
    assert field_a == field_b


def test_converge_time_run(tmp_path):
    cfg = config_from_dict({"mode": "converge-time", "problem": 4, "N": 41,
                            "k": [0.02, 0.01], "T": 0.2})
    report = cli.run(cfg, tmp_path)
    assert report["reference_run"]["k"] == 0.04
    assert len(report["rows"]) == 2
    assert report["rows"][0]["observed_order"] is None
    assert report["rows"][1]["observed_order"] is not None
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "n_points,h,k,T,e_k,order,wall_loop_s"
    assert len(table) == 3


def test_converge_space_time_run(tmp_path):
    cfg = config_from_dict({"mode": "converge-space-time", "problem": 1,
                            "h": [4.0, 2.0], "k": [0.1, 0.05], "T": 0.5})
    report = cli.run(cfg, tmp_path)
    assert [row["n_points"] for row in report["rows"]] == [26, 51]
    assert report["rows"][1]["observed_order"] > 3.0


def test_gre_table_run_includes_literature(tmp_path):
    cfg = config_from_dict({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.05,
                            "times": [0.5, 1.0]})
    report = cli.run(cfg, tmp_path)
    assert len(report["rows"]) == 2
    assert set(report["rows"][0]["literature"]) == {"sbsc", "qbsc", "lbm"}
    header = (tmp_path / "table.csv").read_text().splitlines()[0]
    assert header == ("n_points,h,k,time,gre,gre_sbsc_literature,"
                      "gre_qbsc_literature,gre_lbm_literature")


def _readme_cell(row: dict, column: str) -> str:
    """A table.csv cell by the README's rule: n_points is an integer, h, k, T and time are
    %g, the errors and literature GREs %.3E, order and wall_loop_s four decimals, and a
    missing or null report value is an empty cell."""
    if column.endswith("_literature"):  # gre_<name>_literature
        value = row["literature"][column[len("gre_"):-len("_literature")]]
    else:
        value = row.get({"order": "observed_order", "wall_loop_s": "wall_loop_seconds"}.get(
            column, column))
    if value is None:
        return ""
    if column == "n_points":
        return "%d" % value
    if column in ("h", "k", "T", "time"):
        return "%g" % value
    if column in ("order", "wall_loop_s"):
        return "%.4f" % value
    return "%.3E" % value


@pytest.mark.parametrize("data, header", [
    ({"mode": "solve", "problem": 1, "N": 26, "k": 0.025, "T": 0.1},
     "n_points,h,k,T,max_norm,gre,wall_loop_s"),
    ({"mode": "converge-space-time", "problem": 1, "h": [4.0, 2.0], "k": [0.1, 0.05], "T": 0.5},
     "n_points,h,k,T,max_norm,order,wall_loop_s"),
    ({"mode": "converge-time", "problem": 4, "N": 41, "k": [0.02, 0.01], "T": 0.2},
     "n_points,h,k,T,e_k,order,wall_loop_s"),
    ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.05, "times": [1.0, 6.0]},
     "n_points,h,k,time,gre,gre_sbsc_literature,gre_qbsc_literature,gre_lbm_literature"),
], ids=["solve", "converge-space-time", "converge-time", "gre-table"])
def test_table_cells_are_the_report_rows_formatted(tmp_path, data, header):
    cli.run(config_from_dict(data), tmp_path)
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + len(rows)
    columns = header.split(",")
    for row, line in zip(rows, lines[1:]):
        assert line.split(",") == [_readme_cell(row, column) for column in columns]
        assert all(line.split(",")[:5])  # grid, step, time and error are never empty


def test_stability_run_writes_labeled_files(tmp_path):
    cfg = config_from_dict({"mode": "stability", "y": ["-2.0", "5 i"],
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    report = cli.run(cfg, tmp_path)
    for name in ("stability_y-2.csv", "boundary_y-2.csv",
                 "stability_y5i.csv", "boundary_y5i.csv"):
        assert (tmp_path / name).exists()
    assert [row["y"] for row in report["rows"]] == ["-2", "5i"]
    assert report["rows"][0]["area"] > 0


def test_stability_run_releases_each_field_before_the_next_scan(tmp_path, monkeypatch):
    cfg = config_from_dict({"mode": "stability", "y": ["-2", "5i", "0"],
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    scan = analysis.stability_scan
    fields = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in fields), "a previous field is still alive"
        field = scan(*args, **kwargs)
        fields.append(weakref.ref(field))
        return field

    monkeypatch.setattr(analysis, "stability_scan", tracked)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # every scan in this process
    cli.run(cfg, tmp_path)
    assert len(fields) == 3


def _plain(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(key, str) and _plain(val) for key, val in value.items())
    if isinstance(value, list):
        return all(map(_plain, value))
    return type(value) in (str, int, float, bool)


def test_stability_workers_hand_the_parent_plain_rows_only(tmp_path, monkeypatch):
    cfg = config_from_dict({"mode": "stability", "y": ["-2", "5i", "0"],
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    scan = analysis.stability_scan
    in_parent = os.getpid()
    fields = []

    def tracked(*args, **kwargs):
        if os.getpid() == in_parent:
            fields.append(None)
        return scan(*args, **kwargs)

    monkeypatch.setattr(analysis, "stability_scan", tracked)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    report = cli.run(cfg, tmp_path)
    assert fields == []  # no field is made, nor held, in this process
    assert [row["y"] for row in report["rows"]] == ["-2", "5i", "0"]
    assert all(_plain(row) for row in report["rows"])


def test_stability_workers_write_the_files_of_one_process(tmp_path, monkeypatch):
    labels = ["-20i", "-2", "5i"]
    window, resolution = (-15.0, 12.0, -16.0, 16.0), 64
    cfg = config_from_dict({"mode": "stability", "y": labels, "window": list(window),
                            "resolution": resolution})
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    pooled = cli.run(cfg, tmp_path / "pool")
    assert [row["y"] for row in pooled["rows"]] == labels
    assert pooled["outputs"] == [f"{kind}_y{label}.csv" for label in labels
                                 for kind in ("stability", "boundary")]
    for label in labels:
        field = analysis.stability_scan(parse_y_value(label), window=window,
                                        resolution=resolution)
        analysis.write_field_csv(field, tmp_path / "field.csv")
        analysis.write_boundary_csv(field, tmp_path / "boundary.csv")
        assert ((tmp_path / "pool" / f"stability_y{label}.csv").read_bytes()
                == (tmp_path / "field.csv").read_bytes())
        assert ((tmp_path / "pool" / f"boundary_y{label}.csv").read_bytes()
                == (tmp_path / "boundary.csv").read_bytes())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert _strip_timings(cli.run(cfg, tmp_path / "one")) == _strip_timings(pooled)


def test_stability_task_and_row_survive_pickle(tmp_path):
    # what a worker started by spawn or forkserver, not only by fork, receives and returns
    args = ("5i", (-6.0, 3.0, -6.0, 6.0), 32, tmp_path)
    assert pickle.loads(pickle.dumps(cli._scan_to_files)) is cli._scan_to_files
    assert pickle.loads(pickle.dumps(args)) == args
    row = cli._scan_to_files(*args)
    assert pickle.loads(pickle.dumps(row)) == row and _plain(row)
    assert row["wall_seconds"] >= 0 and row["wall_write_seconds"] >= 0


def test_stability_worker_count_follows_the_affinity_mask(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert cli._usable_cpus() == 1


def test_stability_failure_in_a_worker_stops_the_run(tmp_path, monkeypatch):
    path = _write_config(tmp_path, {"mode": "stability", "y": ["-2", "5i", "0"],
                                    "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    out = tmp_path / "out"
    (out / "stability_y5i.csv").mkdir(parents=True)  # the 5i field cannot be written
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli.main(["--config", path, "--out", str(out)]) == 4
    report = json.loads((out / "report.json").read_text())
    assert [row["y"] for row in report["rows"]] == ["-2"]
    assert report["outputs"] == ["stability_y-2.csv", "boundary_y-2.csv"]
    assert multiprocessing.active_children() == []


def test_stability_no_y_starts_once_a_worker_has_failed(tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched scan reaches the workers only when they are forked")
    scan = analysis.stability_scan

    def patched(y, **kwargs):
        if y == 5j:
            raise OSError("no room for this field")
        time.sleep(0.5)  # -2 is still running when 5i fails
        return scan(y, **kwargs)

    monkeypatch.setattr(analysis, "stability_scan", patched)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    cfg = config_from_dict({"mode": "stability", "y": ["-2", "5i", "0"],
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    with pytest.raises(OSError, match="no room"):
        cli.run(cfg, tmp_path)
    # -2, running when 5i failed, ends and writes its files; 0 never starts
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "boundary_y-2.csv", "report.json", "stability_y-2.csv"]


def test_stability_runs_at_most_one_y_per_usable_cpu_at_once(tmp_path, monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched scan reaches the workers only when they are forked")
    scan = analysis.stability_scan
    live = tmp_path / "live"
    live.mkdir()

    def patched(y, **kwargs):
        mark = live / f"{os.getpid()}-{y}"
        mark.touch()
        time.sleep(0.2)
        (tmp_path / f"seen-{os.getpid()}-{y}").write_text(str(len(list(live.iterdir()))))
        mark.unlink()
        return scan(y, **kwargs)

    monkeypatch.setattr(analysis, "stability_scan", patched)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    labels = ["-2", "5i", "0", "-5i", "1"]
    cfg = config_from_dict({"mode": "stability", "y": labels,
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    report = cli.run(cfg, tmp_path / "out")
    assert [row["y"] for row in report["rows"]] == labels
    seen = [int(path.read_text()) for path in tmp_path.glob("seen-*")]
    assert len(seen) == 5 and max(seen) <= 2
    assert multiprocessing.active_children() == []


# run in a fresh interpreter, whose start method is not yet fixed
_START_METHOD_RUN = """
import multiprocessing, sys
from imexks import cli
multiprocessing.set_start_method(sys.argv[1])
cli._usable_cpus = lambda: 2
sys.exit(cli.main(["--config", sys.argv[2], "--set", "resolution=64", "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_stability_workers_write_the_same_files_under_other_start_methods(
        tmp_path, monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    config = str(CONFIGS / "stability_imag_y.json")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", _START_METHOD_RUN, method, config,
                    str(tmp_path / method)], check=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=package_root))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli.main(["--config", config, "--set", "resolution=64",
                     "--out", str(tmp_path / "one")]) == 0
    one = json.loads((tmp_path / "one" / "report.json").read_text())
    pooled = json.loads((tmp_path / method / "report.json").read_text())
    assert _strip_timings(pooled["rows"]) == _strip_timings(one["rows"])
    assert pooled["outputs"] == one["outputs"] and len(one["outputs"]) == 8
    for name in one["outputs"]:
        assert (tmp_path / method / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_importing_the_cli_starts_no_process_machinery():
    code = "import sys, imexks.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=package_root))
    assert out.stdout.strip() == "[]"


def test_snapshot_times_that_share_six_digits_write_two_files(tmp_path, monkeypatch):
    cfg = config_from_dict({"mode": "solve", "problem": 2, "N": 16, "k": 0.25,
                            "T": 100000.5, "snapshots": [100000.25, 100000.5]})

    def last_two_steps(sys_, u0, k, t_final, observer=None, workspace=None):
        for n_step in (400001, 400002):
            observer(n_step * k, u0)
        return u0

    monkeypatch.setattr(stepper, "integrate", last_two_steps)
    report = cli.run(cfg, tmp_path)
    fields = ["field_t100000.25.csv", "field_t100000.5.csv"]
    assert report["outputs"] == fields + ["table.csv"]
    assert sorted(path.name for path in tmp_path.glob("field_t*.csv")) == fields


def _strict_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_run_writes_partial_report_on_instability(tmp_path):
    cfg = config_from_dict({"mode": "solve", "problem": 2, "N": 32, "k": 2.0, "T": 80.0})
    with pytest.raises(InstabilityError):
        cli.run(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_strict_constant)
    assert report["instability"]["step_index"] is not None
    # max_abs is max|u| of the last state that entered a step, the last one an observer sees
    spec = problems.make_problem(2)
    sys_ = spec.build_system(32)
    seen = []
    with pytest.raises(InstabilityError):
        integrate(sys_, spec.initial_state(sys_), 2.0, 80.0,
                  observer=lambda t, u: seen.append(float(np.abs(u).max())))
    assert report["instability"]["max_abs"] == seen[-1]


# ------------------------------------------------------------------- main()


def _write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_main_solve_smoke(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 4, "N": 41,
                                    "k": 0.005, "T": 0.05})
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_main_set_overrides(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 4, "N": 41,
                                    "k": 0.005, "T": 0.05})
    code = cli.main(["--config", path, "--set", "T=0.1", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["T"] == 0.1


def test_main_config_error_exit_code(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 9, "N": 41,
                                    "k": 0.005, "T": 0.05})
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 2


def _run_module(config_path, out):
    """``python -m imexks`` in a subprocess on the package this test imports."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "imexks", "--config", config_path,
                           "--out", str(out)], env=env, capture_output=True, text=True)


def test_python_dash_m_behaves_like_main(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 4, "N": 41,
                                    "k": 0.005, "T": 0.05})
    assert _run_module(path, tmp_path / "module").returncode == 0
    assert cli.main(["--config", path, "--out", str(tmp_path / "main")]) == 0
    module, main = (_strip_timings(json.loads((tmp_path / name / "report.json").read_text()))
                    for name in ("module", "main"))
    assert module == main
    bad = _write_config(tmp_path, {"mode": "solve", "problem": 9, "N": 41,
                                   "k": 0.005, "T": 0.05}, name="bad.json")
    assert _run_module(bad, tmp_path / "bad").returncode == 2


def test_main_rejects_a_subcommand(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 4, "N": 41,
                                    "k": 0.005, "T": 0.05})
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()


def test_main_non_finite_override_is_a_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 4, "N": 41,
                                    "k": 0.005, "T": 0.05})
    assert cli.main(["--config", path, "--set", "T=Infinity",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_missing_config_is_io_error(tmp_path):
    assert cli.main(["--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 4


def test_main_instability_exit_code(tmp_path):
    path = _write_config(tmp_path, {"mode": "solve", "problem": 2, "N": 32,
                                    "k": 2.0, "T": 80.0})
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 3


def test_main_rejects_a_config_that_is_not_an_object(tmp_path):
    path = _write_config(tmp_path, [{"mode": "solve"}])
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"], ids=["not_json", "not_utf8"])
def test_main_rejects_malformed_json(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
