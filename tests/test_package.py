import re
import subprocess
import sys
from pathlib import Path

import imexks

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in imexks.__all__ if not hasattr(imexks, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # the runtime path is numpy only; scipy serves the dense test oracle
    code = ("import sys, imexks, imexks.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_example_runs_as_written():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["err"] < 1e-5  # 3.24e-6: problem 1, h = 0.5, k = 0.01, T = 10
