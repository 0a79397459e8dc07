"""What a run imports.

Resolving a point and checking a fuzz program load the runner, the
simulator, the tracer and the generator, and nothing a run never calls:
no worker-process machinery, no experiment catalogue, no fuzz campaign,
minimiser or artifact writer, no trace exporter, report or progress
renderer.  Each of these costs host memory and start-up time in every
process that imports the package, so a package ``__init__`` that
re-exports one of them, or a module that imports one at its top, fails
here.  ``repro run`` loads the same set plus the experiment catalogue,
whose ids the ``experiment`` command's parser offers as choices.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

UNUSED = (
    "multiprocessing", "difflib",
    "repro.harness.experiments",
    "repro.fuzz.campaign", "repro.fuzz.minimize", "repro.fuzz.artifacts",
    "repro.obs.konata", "repro.obs.metrics", "repro.obs.report",
    "repro.obs.progress",
)

_RUN = """
from repro.fuzz.generator import PROFILES, ProgramSpec, materialize
from repro.harness import ExperimentRunner
from repro.kernel import FunctionalCpu
from repro.uarch import ModelKind, Simulator, model_params

ExperimentRunner(scale=0.05, use_cache=False).run("bzip2", ModelKind.DMDP)
program = materialize(ProgramSpec(PROFILES["tag-alias"], 1).generate())
trace = FunctionalCpu(program).run_trace(max_instructions=200_000)
stats = Simulator(program, trace, model_params(ModelKind.DMDP)).run()
assert stats.instructions == len(trace)
"""

_CLI_RUN = """
import io
from repro.cli import main

assert main(["--no-cache", "--scale", "0.05", "run", "bzip2"],
            out=io.StringIO()) == 0
"""

_REPORT = """
import json
import sys
print(json.dumps(sorted(name for name in %r if name in sys.modules)))
"""


def loaded_unused(code):
    """The modules of ``UNUSED`` that ``code`` loads in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code + _REPORT % (UNUSED,)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_run_imports_only_what_it_calls():
    assert loaded_unused(_RUN) == []


def test_the_run_command_imports_only_what_it_calls():
    assert loaded_unused(_CLI_RUN) == ["repro.harness.experiments"]
