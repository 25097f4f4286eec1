import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imexks import cli
from imexks.cli import (
    ConfigError,
    apply_overrides,
    config_from_dict,
    parse_y_value,
    serialize_config,
)

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


def test_non_halving_k_list_rejected():
    with pytest.raises(ConfigError, match="halve"):
        config_from_dict({"mode": "converge-time", "problem": 2, "N": 64,
                          "k": [0.025, 0.01], "T": 1.0})


def test_imaginary_y_parses():
    cfg = config_from_dict({"mode": "stability", "y": ["-20i"]})
    assert tuple(map(parse_y_value, cfg["y"])) == (complex(0.0, -20.0),)
    assert parse_y_value("5i") == 5j
    assert parse_y_value("-2") == -2.0 + 0j
    assert parse_y_value(-6) == -6.0 + 0j
    assert parse_y_value("i") == 1j


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1, "foo": 3})


def test_mode_required():
    with pytest.raises(ConfigError):
        config_from_dict({"problem": 1})


def test_solve_needs_exactly_one_grid_key():
    base = {"mode": "solve", "problem": 1, "k": 0.1, "T": 1.0}
    with pytest.raises(ConfigError):
        config_from_dict(base)
    with pytest.raises(ConfigError):
        config_from_dict({**base, "N": 26, "h": 4.0})


def test_T_must_be_step_multiple():
    with pytest.raises(ConfigError, match="integer multiple"):
        config_from_dict({"mode": "solve", "problem": 1, "N": 26, "k": 0.3, "T": 1.0})


def test_beta_restricted_to_problem_4():
    with pytest.raises(ConfigError, match="beta"):
        config_from_dict({"mode": "solve", "problem": 2, "N": 64, "k": 0.25,
                          "T": 1.0, "beta": 0.2})


def test_space_time_mode_needs_exact_solution_problem():
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "converge-space-time", "problem": 3,
                          "h": [2.0, 1.0], "k": [0.1, 0.05], "T": 1.0})


def test_gre_times_must_increase():
    with pytest.raises(ConfigError, match="increasing"):
        config_from_dict({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5,
                          "times": [2.0, 1.0]})


def test_stability_rejects_problem_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "stability", "y": ["-2"], "problem": 1})


# configs that reach the library before they are rejected would fail there
# with a traceback instead of a config error: (config, expected message)
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


@settings(max_examples=40, deadline=None)
@given(value=st.floats(-100.0, 100.0, allow_nan=False).filter(lambda v: abs(v) > 1e-6))
def test_y_label_roundtrip(value):
    label = f"{value:g}i"
    assert parse_y_value(label) == pytest.approx(complex(0.0, float(f"{value:g}")))


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
    assert "wall_loop_seconds" in row


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


def test_stability_run_writes_labeled_files(tmp_path):
    cfg = config_from_dict({"mode": "stability", "y": ["-2", "5i"],
                            "window": [-6.0, 3.0, -6.0, 6.0], "resolution": 32})
    report = cli.run(cfg, tmp_path)
    for name in ("stability_y-2.csv", "boundary_y-2.csv",
                 "stability_y5i.csv", "boundary_y5i.csv"):
        assert (tmp_path / name).exists()
    assert report["rows"][0]["area"] > 0


def test_run_writes_partial_report_on_instability(tmp_path):
    cfg = config_from_dict({"mode": "solve", "problem": 2, "N": 32, "k": 2.0, "T": 80.0})
    with pytest.raises(Exception):
        cli.run(cfg, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert "instability" in report
    assert report["instability"]["step_index"] is not None


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


def test_main_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
