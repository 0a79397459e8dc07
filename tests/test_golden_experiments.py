"""Golden renderings of the paper experiments.

``tests/golden/experiments.json`` pins the rendered text of all 18
experiments at scale 0.05 over gcc, mcf (INT), tonto and wrf (FP).
Each test re-renders the whole set on a fresh runner and must match it
byte for byte, in-process and across worker processes, so a change to
how an experiment names or resolves its points cannot move a number.

Regenerate (only for intentional output changes):
``PYTHONPATH=src python tools/gen_golden_experiments.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS

ROOT = Path(__file__).parent.parent
GOLDEN_PATH = Path(__file__).parent / "golden" / "experiments.json"


def _tool():
    path = ROOT / "tools" / "gen_golden_experiments.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_set_covers_every_experiment(golden):
    tool = _tool()
    assert set(golden["experiments"]) == set(ALL_EXPERIMENTS)
    assert golden["scale"] == tool.SCALE
    assert golden["workloads"] == list(tool.WORKLOADS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_experiments_render_the_pinned_text(golden, jobs):
    rendered = _tool().render_all(jobs=jobs)
    for exp_id, text in golden["experiments"].items():
        assert rendered[exp_id] == text, exp_id
