"""Property-based invariants of the timing pipeline.

Hypothesis generates small occasionally-colliding kernels (random hot-set
sizes, iteration counts, access sizes) and every model must:

* complete every instruction,
* keep the physical-register books exact after the run,
* leave the timing memory equal to the functional machine's memory.

The rename, issue and retire stages count register references inline,
so corrupting a count mid-run must still raise :class:`RegfileError`.

The in-flight store record is checked every cycle, through ``tick_hook``,
on the regression corpus and two workloads under every model and both
consistency models.
"""

import functools
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import ProgramBuilder
from repro.kernel import FunctionalCpu
from repro.uarch import (ALL_MODELS, Consistency, ModelKind, RegfileError,
                         Simulator, model_params)
from repro.uarch.uops import UopState
from repro.workloads import get_workload

from .test_precompute import corpus_programs


def build_kernel(iterations, slots, use_half, seed):
    b = ProgramBuilder()
    b.data_label("idx")
    values = []
    state = seed or 1
    for _ in range(iterations):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        values.append((state >> 8) % slots)
    b.word(*[v * 4 for v in values])
    b.data_label("x")
    b.word(*([0] * slots))
    b.label("main")
    b.la("$s0", "idx")
    b.la("$s1", "x")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.sll("$t1", "$t0", 2)
    b.add("$t1", "$s0", "$t1")
    b.lw("$t2", 0, "$t1")
    b.add("$t3", "$s1", "$t2")
    if use_half:
        b.lhu("$t4", 0, "$t3")
        b.addi("$t4", "$t4", 1)
        b.sh("$t4", 0, "$t3")
    else:
        b.lw("$t4", 0, "$t3")
        b.addi("$t4", "$t4", 1)
        b.sw("$t4", 0, "$t3")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


def assert_exact_register_books(sim):
    """After a run nothing is in flight, so every physical register is
    either free with zero counts, or named by the committed rename map
    with one producer per mapping and no consumer."""
    prf = sim.prf
    total = prf.num_pregs + prf.aux_regs
    free = set(prf.free) | set(prf.free_aux)
    assert len(free) == len(prf.free) + len(prf.free_aux)  # no duplicates
    live = Counter(sim.committed_map)
    for preg in range(total):
        if preg in free:
            assert (prf.producer[preg], prf.consumer[preg]) == (0, 0), preg
        else:
            assert live[preg] > 0, "preg %d leaked" % preg
            assert prf.producer[preg] == live[preg], preg
            assert prf.consumer[preg] == 0, preg
    assert len(free) + len(live) == total


@st.composite
def kernels(draw):
    iterations = draw(st.integers(20, 120))
    slots = draw(st.sampled_from([2, 4, 16, 64]))
    use_half = draw(st.booleans())
    seed = draw(st.integers(1, 10_000))
    return build_kernel(iterations, slots, use_half, seed)


class TestPipelineInvariants:
    @given(kernels(), st.sampled_from(list(ALL_MODELS)))
    @settings(max_examples=25, deadline=None)
    def test_books_balance_under_random_oc_kernels(self, prog, model):
        cpu = FunctionalCpu(prog)
        trace = cpu.run_trace()
        sim = Simulator(prog, trace, model_params(model))
        stats = sim.run()

        # Everything retired, nothing left in flight.
        assert stats.instructions == len(trace)
        assert not sim.rob and sim.sb.is_empty

        assert_exact_register_books(sim)

        # The committed memory image matches the architectural result.
        for entry in trace:
            if entry.is_store:
                assert sim.timing_mem.read(entry.mem_addr, entry.mem_size) \
                    == cpu.memory.read(entry.mem_addr, entry.mem_size)

    @given(kernels())
    @settings(max_examples=10, deadline=None)
    def test_perfect_upper_bounds_nosq(self, prog):
        """The oracle never loses to prediction-based NoSQ by more than
        a small silent-store-value-locality margin (DESIGN.md §7)."""
        trace = FunctionalCpu(prog).run_trace()
        perfect_sim = Simulator(prog, trace, model_params(ModelKind.PERFECT))
        perfect = perfect_sim.run()
        nosq_sim = Simulator(prog, trace, model_params(ModelKind.NOSQ))
        nosq = nosq_sim.run()
        assert_exact_register_books(perfect_sim)
        assert_exact_register_books(nosq_sim)
        assert perfect.ipc >= 0.9 * nosq.ipc
        assert perfect.dep_mispredictions == 0


def alu_chain_program(iterations=40):
    """Dependent ALU chains only: no memory op, so no squash can rebuild
    the register books mid-run."""
    b = ProgramBuilder()
    b.label("main")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.addi("$t1", "$t0", 3)
    b.add("$t2", "$t1", "$t0")
    b.add("$t3", "$t2", "$t1")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestInlinedRefcountChecks:
    """A corrupted reference count makes ``Simulator.run`` raise, on every
    model, from the stage that would drive it below zero."""

    @staticmethod
    def _run_corrupted(model, corrupt, message):
        prog = alu_chain_program()
        sim = Simulator(prog, FunctionalCpu(prog).run_trace(),
                        model_params(model))
        corrupted = []

        def hook(s):
            if not corrupted and corrupt(s):
                corrupted.append(s.cycle)

        sim.tick_hook = hook
        with pytest.raises(RegfileError, match=message):
            sim.run()
        assert corrupted

    @pytest.mark.parametrize("model", list(ALL_MODELS))
    def test_consumer_underflow_at_issue(self, model):
        def corrupt(sim):
            for instr in sim.rob:
                for uop in instr.uops:
                    if (uop.srcs and uop.state in (UopState.WAITING,
                                                   UopState.READY)):
                        sim.prf.consumer[uop.srcs[0]] = 0
                        return True
            return False

        self._run_corrupted(model, corrupt, "consumer underflow")

    @pytest.mark.parametrize("model", list(ALL_MODELS))
    def test_producer_underflow_at_retire(self, model):
        def corrupt(sim):
            for instr in sim.rob:
                if instr.renames:
                    _logical, _new, prev_preg = instr.renames[0]
                    sim.prf.producer[prev_preg] = 0
                    return True
            return False

        self._run_corrupted(model, corrupt, "producer underflow")


@functools.lru_cache(maxsize=None)
def store_book_cases():
    """(name, program, trace) for the regression corpus (tests/corpus/)
    and bzip2 and hmmer at scale 0.05."""
    programs = corpus_programs()
    assert len(programs) == 6
    for name in ("bzip2", "hmmer"):
        spec = get_workload(name)
        programs.append((name, spec.build(spec.iterations(0.05))))
    return tuple((name, program, FunctionalCpu(program).run_trace())
                 for name, program in programs)


class TestStoreBooks:
    """``inflight_store_by_id`` is the one record of renamed, uncommitted,
    unsquashed stores, in program order, and NoSQ's and DMDP's Store
    Register Buffer names exactly those stores by SSN.  The hook sees
    every cycle, so each run is also the skip-off reference."""

    @pytest.mark.parametrize("consistency", list(Consistency),
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("model", list(ALL_MODELS),
                             ids=lambda m: m.value)
    def test_in_flight_stores_every_cycle(self, model, consistency):
        params = replace(model_params(model), consistency=consistency)
        keeps_srb = model is ModelKind.NOSQ or model is ModelKind.DMDP
        most_in_flight = violations = 0
        for name, program, trace in store_book_cases():
            sim = Simulator(program, trace, params)

            def check(sim):
                nonlocal most_in_flight
                inflight = sim.inflight_store_by_id
                where = (name, sim.cycle)
                indices = list(inflight)
                assert all(a < b for a, b in zip(indices, indices[1:])), \
                    where
                stores = list(inflight.values())
                assert [s.rob_id for s in stores] == indices, where
                assert not any(s.dead for s in stores), where
                if keeps_srb:
                    assert sim.srb == {s.store.ssn: s for s in stores}, where
                else:
                    assert not sim.srb, where
                most_in_flight = max(most_in_flight, len(stores))

            sim.tick_hook = check
            stats = sim.run()
            assert stats.instructions == len(trace)
            violations += stats.dep_mispredictions
            check(sim)
            assert not sim.inflight_store_by_id, name
        # Stores were in flight together, and squashes dropped some.
        assert most_in_flight > 1
        assert violations or model is ModelKind.PERFECT
