#!/usr/bin/env python
"""Pin the rendered text of every paper experiment.

Renders each of the 18 experiments in ``ALL_EXPERIMENTS`` at scale 0.05
over four workloads with a fresh, cache-less runner and writes the text
to ``tests/golden/experiments.json``.  The sample covers both suites
(gcc and mcf are INT, tonto and wrf FP) and rows on each side of the
"n/a" branches of Fig. 3 and Table V.  ``tests/test_golden_experiments.py``
re-renders the set and must match it byte for byte.

Regenerate only when a change is *meant* to alter an experiment's
output (and say so in the commit):

    PYTHONPATH=src python tools/gen_golden_experiments.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness import ExperimentRunner                  # noqa: E402
from repro.harness.experiments import ALL_EXPERIMENTS        # noqa: E402

SCALE = 0.05
WORKLOADS = ("gcc", "mcf", "tonto", "wrf")

OUTPUT = REPO / "tests" / "golden" / "experiments.json"


def render_all(jobs: int = 1) -> dict:
    """``{exp_id: rendered text}`` for every experiment, one runner."""
    runner = ExperimentRunner(scale=SCALE, jobs=jobs, use_cache=False)
    return {exp_id: func(runner, workloads=list(WORKLOADS)).render()
            for exp_id, func in ALL_EXPERIMENTS.items()}


def main() -> int:
    payload = {"schema": 1, "scale": SCALE, "workloads": list(WORKLOADS),
               "experiments": render_all()}
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d experiments)"
          % (OUTPUT, len(payload["experiments"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
