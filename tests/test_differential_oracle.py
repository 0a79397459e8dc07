"""Differential testing: timing simulator vs. the functional oracle.

Random short programs run through the :class:`FunctionalCpu` interpreter
and through the cycle-level :class:`Simulator` (with ``track_arch_state``)
under every model.  The final architectural state -- registers and memory
-- must be identical.  The tracked register file consumes the load values
the *pipeline* obtained (forwarding, predication, re-execution), so bugs
in the store-load communication machinery surface as state divergence
rather than only as plausible-looking timing shifts.

The program generator lives in :mod:`repro.fuzz.generator` (this suite's
original in-file generator was promoted into the fuzzing subsystem's
``baseline`` bias profile); ``build_random_program`` stays byte-identical
for any RNG state, pinned by hash in ``tests/test_fuzz_generator.py``.
It mixes ALU ops, loads/stores of all three sizes over a small reused
offset pool (frequent dependences, silent stores, partial overlaps),
forward branches, and leaf calls, all with a fixed seed.
"""

import random

import pytest

from repro.fuzz.generator import (PROFILES, ProgramSpec, build_random_program,
                                  materialize)
from repro.isa import Instruction
from repro.kernel import FunctionalCpu
from repro.uarch import ALL_MODELS, ModelKind, Simulator, model_params

SEED = 20180604  # ISCA'18 (fixed: the suite must be reproducible)
NUM_PROGRAMS = 50


_ORACLE_CACHE = {}


def oracle_case(index):
    """(program, trace, reference regs, reference memory) for one seed."""
    if index not in _ORACLE_CACHE:
        rng = random.Random(SEED + index)
        prog = build_random_program(rng)
        cpu = FunctionalCpu(prog)
        trace = cpu.run_trace(max_instructions=200_000)
        _ORACLE_CACHE[index] = (prog, trace, list(cpu.regs),
                                cpu.memory.snapshot())
    return _ORACLE_CACHE[index]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
def test_random_programs_match_oracle(model):
    for index in range(NUM_PROGRAMS):
        prog, trace, ref_regs, ref_mem = oracle_case(index)
        sim = Simulator(prog, trace, model_params(model),
                        track_arch_state=True)
        sim.run()
        got = sim.architectural_registers()
        diverged = [(r, got[r], ref_regs[r]) for r in range(1, 32)
                    if got[r] != ref_regs[r]]
        assert not diverged, (
            "program %d under %s: register divergence %r"
            % (index, model.value, diverged[:8]))
        assert sim.timing_mem.snapshot() == ref_mem, (
            "program %d under %s: memory divergence" % (index, model.value))


def test_register_zero_is_never_written():
    prog, trace, _, _ = oracle_case(0)
    sim = Simulator(prog, trace, model_params(ModelKind.DMDP),
                    track_arch_state=True)
    sim.run()
    assert sim.architectural_registers()[0] == 0


def test_tracking_is_opt_in():
    prog, trace, _, _ = oracle_case(0)
    sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
    sim.run()
    assert sim.arch_regs is None
    assert sim.architectural_registers() is None


def test_tracked_run_timing_is_unchanged():
    """Tracking is observational: cycle counts match the untracked run."""
    prog, trace, _, _ = oracle_case(1)
    params = model_params(ModelKind.DMDP)
    plain = Simulator(prog, trace, params).run()
    tracked = Simulator(prog, trace, model_params(ModelKind.DMDP),
                        track_arch_state=True).run()
    assert tracked.cycles == plain.cycles
    assert tracked.dep_mispredictions == plain.dep_mispredictions


def test_run_reads_nothing_from_instruction(monkeypatch):
    """Each static instruction is decoded once, when the Simulator is
    built: its decode template carries what every stage reads, the
    committed-register recipe included.  So with every ``Instruction``
    property and ``dest_reg``/``source_regs`` raising, tracked runs of
    fuzz programs from every profile still reach the functional CPU's
    final state under every model."""
    cases = []
    for name in sorted(PROFILES):
        for seed in (1, 2):
            program = materialize(ProgramSpec(PROFILES[name],
                                              seed).generate())
            cpu = FunctionalCpu(program)
            trace = cpu.run_trace(max_instructions=200_000)
            for model in ALL_MODELS:
                sim = Simulator(program, trace, model_params(model),
                                track_arch_state=True)
                cases.append(("%s/%d/%s" % (name, seed, model.value), sim,
                              list(cpu.regs), cpu.memory.snapshot()))

    def forbidden(*args, **kwargs):
        raise AssertionError("Simulator.run read an Instruction")

    for attr, value in list(vars(Instruction).items()):
        if isinstance(value, property):
            monkeypatch.setattr(Instruction, attr, property(forbidden))
    monkeypatch.setattr(Instruction, "dest_reg", forbidden)
    monkeypatch.setattr(Instruction, "source_regs", forbidden)
    for label, sim, ref_regs, ref_mem in cases:
        sim.run()
        assert sim.architectural_registers()[1:] == ref_regs[1:], label
        assert sim.timing_mem.snapshot() == ref_mem, label
