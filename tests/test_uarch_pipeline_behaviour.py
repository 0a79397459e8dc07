"""Focused behavioural tests of pipeline mechanisms (front end, energy
event routing, structural limits, call/return timing)."""

import os
from collections import Counter
from dataclasses import replace

import pytest

from repro.fuzz.artifacts import load_artifact
from repro.fuzz.generator import materialize
from repro.isa import ProgramBuilder
from repro.kernel import FunctionalCpu
from repro.uarch import ModelKind, Simulator, model_params
from repro.uarch import pipeline
from repro.uarch.stats import SimStats, SquashCause, StatCounter

# The corpus entry's full (unminimized) program squashes on memory-order
# violations under every model but Perfect.
SQUASHING_PROGRAM = os.path.join(
    os.path.dirname(__file__), "corpus",
    "fuzz-partial-overlap-103-partial-overlap.json")

# Counted per MicroOp (or per instruction, for rob_entry) and written into
# energy_events once, at the end of Simulator.run().
PER_UOP_EVENTS = ("rename", "iq_dispatch", "iq_issue", "rf_read",
                  "rf_write", "rob_entry", "alu_op", "mul_op", "fp_op",
                  "branch_op", "agen_op")


def simulate(prog, model=ModelKind.DMDP, **overrides):
    trace = FunctionalCpu(prog).run_trace()
    sim = Simulator(prog, trace, replace(model_params(model), **overrides))
    return sim.run(), sim


def branchy_kernel(iterations=400):
    """Data-dependent branches over pseudo-random data: mispredicts."""
    b = ProgramBuilder()
    from repro.workloads import lcg_sequence
    b.data_label("data")
    b.word(*lcg_sequence(iterations, 2, seed=77))
    b.label("main")
    b.la("$s0", "data")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.sll("$t1", "$t0", 2)
    b.add("$t1", "$s0", "$t1")
    b.lw("$t2", 0, "$t1")
    b.beqz("$t2", "skip")
    b.addi("$s1", "$s1", 1)
    b.label("skip")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


def call_kernel(iterations=200):
    b = ProgramBuilder()
    b.label("main")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.jal("leaf")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    b.label("leaf")
    b.addi("$s1", "$s1", 1)
    b.jr("$ra")
    return b.build()


def straightline_kernel(iterations=300):
    b = ProgramBuilder()
    b.label("main")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.addi("$t1", "$t0", 1)
    b.addi("$t2", "$t1", 1)
    b.addi("$t3", "$t2", 1)
    b.addi("$t4", "$t3", 1)
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestFrontEnd:
    def test_branch_mispredictions_counted(self):
        stats, _ = simulate(branchy_kernel())
        assert stats.branch_mispredicts > 10

    def test_mispredictions_cost_cycles(self):
        """The same instruction mix with a predictable pattern runs faster."""
        random_stats, _ = simulate(branchy_kernel())
        # All-zero data: the branch is always taken the same way.
        b = branchy_kernel.__wrapped__ if hasattr(branchy_kernel, "__wrapped__") else None
        predictable = ProgramBuilder()
        predictable.data_label("data")
        predictable.word(*([1] * 400))
        predictable.label("main")
        predictable.la("$s0", "data")
        predictable.li("$t0", 0)
        predictable.li("$t9", 400)
        predictable.label("loop")
        predictable.sll("$t1", "$t0", 2)
        predictable.add("$t1", "$s0", "$t1")
        predictable.lw("$t2", 0, "$t1")
        predictable.beqz("$t2", "skip")
        predictable.addi("$s1", "$s1", 1)
        predictable.label("skip")
        predictable.addi("$t0", "$t0", 1)
        predictable.blt("$t0", "$t9", "loop")
        predictable.halt()
        steady_stats, _ = simulate(predictable.build())
        assert steady_stats.branch_mispredicts < random_stats.branch_mispredicts
        assert steady_stats.ipc > random_stats.ipc

    def test_call_return_pairs_predict_well(self):
        stats, _ = simulate(call_kernel())
        # The RAS covers returns; only cold BTB misses remain.
        assert stats.branch_mispredicts < 0.05 * stats.branches

    def test_jal_writes_link_register(self):
        stats, sim = simulate(call_kernel(50))
        assert stats.instructions == len(sim.trace)


class TestEnergyEventRouting:
    def test_model_specific_structures(self):
        prog = _mini_mem_kernel()
        base, _ = simulate(prog, ModelKind.BASELINE)
        dmdp, _ = simulate(prog, ModelKind.DMDP)
        assert base.energy_events["sq_cam_search"] > 0
        assert base.energy_events["tssbf_access"] == 0
        assert dmdp.energy_events["tssbf_access"] > 0
        assert dmdp.energy_events["sq_cam_search"] == 0

    def test_front_end_energy_counted(self):
        for model in ModelKind:
            stats, _ = simulate(straightline_kernel(), model)
            events = stats.energy_events
            assert events["fetch_decode"] >= stats.instructions
            assert events["rename"] == events["iq_dispatch"] == stats.uops
            assert events["rob_entry"] == stats.instructions

    @pytest.mark.parametrize("model", list(ModelKind),
                             ids=lambda model: model.value)
    def test_per_uop_events_written_once_per_run(self, model, monkeypatch):
        """The per-MicroOp events are summed outside energy_events and
        written into it once per run, squashes and refetches included."""
        monkeypatch.setattr(pipeline, "SimStats", lambda: SimStats(
            energy_events=_AssignmentCounter()))
        kernel_stats, _ = simulate(_mini_mem_kernel(), model)
        assert kernel_stats.loads and kernel_stats.stores
        assert kernel_stats.branches
        ir = load_artifact(SQUASHING_PROGRAM).ir
        squashing_stats, _ = simulate(materialize(ir), model)
        if model is not ModelKind.PERFECT:
            assert squashing_stats.squash_causes[
                SquashCause.MEM_DEP_VIOLATION]
        for stats in (kernel_stats, squashing_stats):
            assignments = stats.energy_events.assignments
            for event in PER_UOP_EVENTS:
                assert assignments[event] <= 1, (event, assignments[event])
            assert assignments["rename"] == assignments["rf_read"] == 1


class _AssignmentCounter(StatCounter):
    """A StatCounter that counts item assignments per key."""

    def __init__(self):
        self.assignments = Counter()
        super().__init__()

    def __setitem__(self, key, count):
        self.assignments[key] += 1
        super().__setitem__(key, count)


def _mini_mem_kernel(iterations=150):
    b = ProgramBuilder()
    b.data_label("buf")
    b.word(*([0] * 8))
    b.label("main")
    b.la("$s0", "buf")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.andi("$t1", "$t0", 0x1C)
    b.add("$t2", "$s0", "$t1")
    b.sw("$t0", 0, "$t2")
    b.lw("$t3", 0, "$t2")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestStructuralLimits:
    def test_tiny_iq_still_completes(self):
        stats, _ = simulate(_mini_mem_kernel(), iq_entries=8)
        assert stats.instructions > 0

    def test_tiny_rob_still_completes(self):
        stats, _ = simulate(_mini_mem_kernel(), rob_entries=16)
        assert stats.instructions > 0

    def test_bigger_rob_never_slower_on_independent_work(self):
        small, _ = simulate(straightline_kernel(), rob_entries=16)
        big, _ = simulate(straightline_kernel(), rob_entries=256)
        assert big.cycles <= small.cycles

    def test_single_load_port_throttles(self):
        many, _ = simulate(_mini_mem_kernel(), load_ports=4)
        one, _ = simulate(_mini_mem_kernel(), load_ports=1)
        assert one.cycles >= many.cycles

    def test_uop_accounting(self):
        stats, _ = simulate(_mini_mem_kernel(), ModelKind.BASELINE)
        # Each iteration: 4 plain ALU/branch-ish uops + AGI+SQ for the
        # store + AGI+LOAD for the load.
        assert stats.uops > stats.instructions


class TestTimingMemoryConsistency:
    def test_final_memory_matches_functional_execution(self):
        """After the run drains, the timing memory must equal the
        functional machine's memory for every touched store address."""
        prog = _mini_mem_kernel()
        cpu = FunctionalCpu(prog)
        trace = cpu.run_trace()
        for model in (ModelKind.BASELINE, ModelKind.NOSQ, ModelKind.DMDP,
                      ModelKind.PERFECT):
            sim = Simulator(prog, trace, model_params(model))
            sim.run()
            for entry in trace:
                if entry.is_store:
                    assert sim.timing_mem.read(entry.mem_addr,
                                               entry.mem_size) == \
                        cpu.memory.read(entry.mem_addr, entry.mem_size), model


class TestTickHook:
    def test_hook_called_every_cycle(self):
        prog = straightline_kernel(50)
        from repro.kernel import FunctionalCpu
        from repro.uarch import ModelKind, Simulator, model_params
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        calls = []
        sim.tick_hook = lambda s: calls.append(s.cycle)
        stats = sim.run()
        assert len(calls) == stats.cycles
        assert calls == sorted(calls)

    def test_invalidation_injection_mid_run_causes_reexecutions(self):
        """Section IV-F end to end: invalidations force silent
        re-executions of vulnerable *direct* loads (cloaked loads verify
        against their store's own younger T-SSBF entry and are immune)."""
        from repro.isa import ProgramBuilder
        b = ProgramBuilder()
        b.data_label("src")
        b.word(*range(64))
        b.label("main")
        b.la("$s0", "src")
        b.li("$t0", 0)
        b.li("$t9", 600)
        b.label("loop")
        b.andi("$t1", "$t0", 0x3F)
        b.sll("$t1", "$t1", 2)
        b.add("$t2", "$s0", "$t1")
        b.lw("$t3", 0, "$t2")        # NC direct load: vulnerable
        b.add("$s1", "$s1", "$t3")
        b.addi("$t0", "$t0", 1)
        b.blt("$t0", "$t9", "loop")
        b.halt()
        prog = b.build()
        from repro.kernel import FunctionalCpu
        from repro.uarch import ModelKind, Simulator, model_params
        trace = FunctionalCpu(prog).run_trace()

        quiet = Simulator(prog, trace, model_params(ModelKind.DMDP))
        quiet_stats = quiet.run()

        noisy = Simulator(prog, trace, model_params(ModelKind.DMDP))
        noisy.tick_hook = (lambda s: s.inject_invalidation(prog.data_base)
                           if s.cycle % 50 == 25 else None)
        noisy_stats = noisy.run()
        assert noisy_stats.reexecutions > quiet_stats.reexecutions
