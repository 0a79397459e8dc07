"""Known simulator defects, recorded as strict expected failures.

Each test runs a case that should finish and asserts that it does.
Today the baseline model deadlocks on both (the cycle cap fires):
``Simulator._squash_younger`` leaves the store-set LFST tags of squashed
stores behind, so after a memory-order squash a refetched load waits in
``_load_issue_blocked`` on a *younger* store that depends on that load.

Waiting only on stores older than the load (``wait_id < instr.rob_id``)
clears both hangs and keeps the golden statistics, but it changes the
pinned ``namd/baseline`` digest in ``perfbench/reference.json``, so the
fix belongs with a benchmark re-pin.  ``strict=True`` turns that fix
into a failure here: whoever lands it removes these markers.
"""

import pytest

from repro.fuzz import generator
from repro.fuzz.generator import ProgramSpec, get_profile
from repro.kernel import FunctionalCpu
from repro.uarch import ModelKind, model_params
from repro.uarch.pipeline import SimulationError, Simulator
from repro.workloads import get_workload

DEADLOCK = pytest.mark.xfail(
    strict=True, raises=SimulationError,
    reason="baseline store-set wait on a squashed, younger store "
           "(LFST tags survive _squash_younger)")

# A healthy run retires well under 10 cycles per instruction.
CYCLES_PER_INSTRUCTION = 64


def _run_baseline(program, min_cycles=0):
    trace = FunctionalCpu(program).run_trace(max_instructions=200_000)
    budget = max(min_cycles, CYCLES_PER_INSTRUCTION * len(trace))
    stats = Simulator(program, trace,
                      model_params(ModelKind.BASELINE)).run(max_cycles=budget)
    assert stats.instructions == len(trace)


@DEADLOCK
def test_colliding_fuzz_program_finishes_under_baseline():
    """Fuzz profile ``colliding``, 10 iterations of 15 body ops, generator
    seed 653189542: the cycle cap fires at trace index 55."""
    profile = get_profile("colliding", loop_iters=(10, 10),
                          body_ops=(15, 15))
    program = generator.materialize(ProgramSpec(profile, 653189542).generate())
    _run_baseline(program, min_cycles=100_000)


@DEADLOCK
def test_namd_at_scale_0_1_finishes_under_baseline():
    """``namd`` at scale 0.1: the cycle cap fires at trace index 1685."""
    spec = get_workload("namd")
    program = spec.build(spec.iterations(0.1))
    _run_baseline(program)
