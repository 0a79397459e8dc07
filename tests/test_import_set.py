"""What a run imports.

Resolving a point and checking a fuzz program load the runner, the
simulator, the tracer and the generator, and nothing a run never calls:
no worker-process machinery, no experiment catalogue or bench harness,
no fuzz campaign, minimiser or artifact writer, no trace exporter,
report or progress renderer.  Each of these costs host memory and
start-up time in every process that imports the package, so a package
``__init__`` that re-exports one of them, or a module that imports one
at its top, fails here.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

UNUSED = (
    "multiprocessing", "difflib",
    "repro.harness.experiments", "repro.harness.hotloop",
    "repro.harness.sweepbench",
    "repro.fuzz.campaign", "repro.fuzz.minimize", "repro.fuzz.artifacts",
    "repro.obs.konata", "repro.obs.metrics", "repro.obs.report",
    "repro.obs.progress",
)

_RUN = """
import json
import sys
from repro.fuzz.generator import PROFILES, ProgramSpec, materialize
from repro.harness import ExperimentRunner
from repro.kernel import FunctionalCpu
from repro.uarch import ModelKind, Simulator, model_params

ExperimentRunner(scale=0.05, use_cache=False).run("bzip2", ModelKind.DMDP)
program = materialize(ProgramSpec(PROFILES["tag-alias"], 1).generate())
trace = FunctionalCpu(program).run_trace(max_instructions=200_000)
stats = Simulator(program, trace, model_params(ModelKind.DMDP)).run()
assert stats.instructions == len(trace)
print(json.dumps(sorted(name for name in %r if name in sys.modules)))
"""


def test_a_run_imports_only_what_it_calls():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _RUN % (UNUSED,)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
