"""Pin the per-point SimStats digests the benchmark checks against.

    python3 perfbench/pin_reference.py

Simulates the 84 points of the Fig. 12 matrix at the benchmark's scale
twice: once as one ``run_batch`` over shared precompute bundles, once
point by point through ``ExperimentRunner.run`` with no stores.  Refuses
to write if the two paths disagree; otherwise writes
``perfbench/reference.json``.  Re-pin only in a change that means to
alter simulated behaviour, and say so in that change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suite  # noqa: E402
from repro.harness import ExperimentRunner  # noqa: E402


def main() -> int:
    points = suite.matrix_points()
    batched = ExperimentRunner(scale=suite.SCALE, use_cache=False)
    results = batched.run_batch(points)
    digests = {}
    for point in points:
        key = suite.point_key(point.workload, point.model)
        single = ExperimentRunner(scale=suite.SCALE, use_cache=False)
        one = suite.digest(single.run(point.workload, point.model).stats)
        digests[key] = suite.digest(results[point].stats)
        if one != digests[key]:
            print("%s: run_batch and run disagree; not pinning" % key,
                  file=sys.stderr)
            return 1
    with open(suite.REFERENCE, "w") as handle:
        json.dump({"scale": suite.SCALE, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %d digests at scale %g in %s"
          % (len(digests), suite.SCALE, suite.REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
