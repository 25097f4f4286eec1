import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import imexks

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def test_every_exported_name_resolves():
    missing = [name for name in imexks.__all__ if not hasattr(imexks, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # the runtime path is numpy only; scipy serves the dense test oracle
    code = ("import sys, imexks, imexks.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# one small config per runner, with the files each must write besides report.json
_RUNS_WITHOUT_SCIPY = {
    "solve": ({"mode": "solve", "problem": 1, "N": 26, "k": 0.1, "T": 1.0, "snapshots": [0.5]},
              ["field_t0.5.csv", "table.csv"]),
    "converge-space-time": ({"mode": "converge-space-time", "problem": 1, "h": [4.0, 2.0],
                             "k": [0.1, 0.05], "T": 1.0}, ["table.csv"]),
    "converge-time": ({"mode": "converge-time", "problem": 4, "N": 41,
                       "k": [0.01, 0.005, 0.0025], "T": 0.1}, ["table.csv"]),
    "gre-table": ({"mode": "gre-table", "problem": 1, "N": 26, "k": 0.5, "times": [1.0, 2.0]},
                  ["table.csv"]),
    # two y, so forked workers run them where two CPUs are usable and processes start by fork
    "stability": ({"mode": "stability", "y": ["-5i", "5i"], "resolution": 32},
                  ["boundary_y-5i.csv", "boundary_y5i.csv", "stability_y-5i.csv",
                   "stability_y5i.csv"]),
}


_MAIN_WITHOUT_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from imexks import cli
root, results = sys.argv[1], {}
for name in sys.argv[2:]:
    out = os.path.join(root, name)
    code = cli.main(["--config", out + ".json", "--out", out])
    results[name] = [code, sorted(os.listdir(out))]
print(json.dumps(results))
"""


def test_runtime_dependencies_name_numpy_only():
    # scipy serves the tests, the dense oracle and the benchmark harness: the test extra
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_every_mode_runs_without_scipy(tmp_path):
    # test_import_loads_no_scipy sees import time only; a runner importing scipy
    # lazily fails here
    for name, (cfg, _) in _RUNS_WITHOUT_SCIPY.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = subprocess.run([sys.executable, "-c", _MAIN_WITHOUT_SCIPY, str(tmp_path),
                          *_RUNS_WITHOUT_SCIPY], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {
        name: [0, sorted(files + ["report.json"])]
        for name, (_, files) in _RUNS_WITHOUT_SCIPY.items()}


def test_readme_example_runs_as_written():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["err"] < 1e-5  # 3.24e-6: problem 1, h = 0.5, k = 0.01, T = 10
