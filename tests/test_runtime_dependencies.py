"""The package runs on the standard library alone.

``pyproject.toml`` lists no runtime dependency, so importing the
user-facing packages must not pull one in.  numpy in particular once
backed the precompute bundle; a fresh interpreter keeps modules other
tests imported out of the check.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.cli, repro.harness, repro.fuzz
print("numpy" in sys.modules)
"""


def test_package_imports_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_pyproject_lists_no_runtime_dependency():
    text = (SRC.parent / "pyproject.toml").read_text()
    assert "dependencies = []" in text
