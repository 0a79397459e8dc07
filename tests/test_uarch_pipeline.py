"""Integration tests for the cycle-level pipeline across all four models."""

from dataclasses import replace

import pytest

from repro.isa import Opcode, ProgramBuilder
from repro.kernel import FunctionalCpu, TraceEntry
from repro.uarch import (
    ALL_MODELS,
    Consistency,
    LoadKind,
    ModelKind,
    Simulator,
    StoreDistancePredictor,
    TageDistancePredictor,
    model_params,
)
from repro.workloads import lcg_sequence, zipf_like


def run(prog, model, **overrides):
    trace = FunctionalCpu(prog).run_trace()
    params = replace(model_params(model), **overrides)
    sim = Simulator(prog, trace, params)
    stats = sim.run()
    return stats, sim


def ac_spill_kernel(iterations=300):
    """Always-colliding: spill a value and reload it immediately."""
    b = ProgramBuilder()
    b.data_label("slot")
    b.word(0, 0)
    b.label("main")
    b.la("$s0", "slot")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.addi("$t1", "$t0", 17)
    b.sw("$t1", 0, "$s0")
    b.lw("$t2", 0, "$s0")       # AC: always collides, distance 0
    b.add("$t3", "$t2", "$t2")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


def oc_kernel(iterations=400, slots=16):
    """Occasionally colliding pointer-update loop (paper Fig. 1)."""
    b = ProgramBuilder()
    b.data_label("ptrs")
    b.word(*[v * 4 for v in zipf_like(iterations, slots, seed=3)])
    b.data_label("x")
    b.word(*([0] * slots))
    b.label("main")
    b.la("$s0", "ptrs")
    b.la("$s1", "x")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.sll("$t1", "$t0", 2)
    b.add("$t1", "$s0", "$t1")
    b.lw("$t2", 0, "$t1")
    b.add("$t3", "$s1", "$t2")
    b.lw("$t4", 0, "$t3")
    b.addi("$t4", "$t4", 1)
    b.sw("$t4", 0, "$t3")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


def nc_kernel(iterations=300):
    """Never colliding: reads one array, writes another."""
    b = ProgramBuilder()
    b.data_label("src")
    b.word(*lcg_sequence(64, 1000, seed=5))
    b.data_label("dst")
    b.word(*([0] * 64))
    b.label("main")
    b.la("$s0", "src")
    b.la("$s1", "dst")
    b.li("$t0", 0)
    b.li("$t9", iterations)
    b.label("loop")
    b.andi("$t1", "$t0", 0x3F)
    b.sll("$t1", "$t1", 2)
    b.add("$t2", "$s0", "$t1")
    b.lw("$t3", 0, "$t2")
    b.add("$t4", "$s1", "$t1")
    b.sw("$t3", 0, "$t4")
    b.addi("$t0", "$t0", 1)
    b.blt("$t0", "$t9", "loop")
    b.halt()
    return b.build()


class TestBasicExecution:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_all_models_complete(self, model):
        stats, _ = run(ac_spill_kernel(100), model)
        assert stats.instructions > 0
        assert 0 < stats.ipc <= 8.0

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_deterministic(self, model):
        first, _ = run(oc_kernel(200), model)
        second, _ = run(oc_kernel(200), model)
        assert first.cycles == second.cycles
        assert first.dep_mispredictions == second.dep_mispredictions

    def test_every_instruction_retires(self):
        prog = oc_kernel(150)
        trace = FunctionalCpu(prog).run_trace()
        stats, sim = run(prog, ModelKind.DMDP)
        assert stats.instructions == len(trace)
        assert not sim.rob
        assert sim.sb.is_empty


class TestModelBehaviours:
    def test_ac_pattern_cloaks_in_nosq(self):
        stats, _ = run(ac_spill_kernel(), ModelKind.NOSQ)
        dist = stats.load_distribution()
        assert dist[LoadKind.BYPASS.value] > 0.8

    def test_ac_pattern_cloaks_in_dmdp(self):
        stats, _ = run(ac_spill_kernel(), ModelKind.DMDP)
        assert stats.load_distribution()[LoadKind.BYPASS.value] > 0.8
        assert stats.dep_mpki < 1.0

    def test_oc_pattern_delays_in_nosq(self):
        stats, _ = run(oc_kernel(), ModelKind.NOSQ)
        assert stats.delayed_loads > 0
        assert stats.load_distribution()[LoadKind.DELAYED.value] > 0.05

    def test_oc_pattern_predicates_in_dmdp(self):
        stats, _ = run(oc_kernel(), ModelKind.DMDP)
        assert stats.predicated_loads > 0
        assert stats.delayed_loads == 0
        assert stats.load_distribution()[LoadKind.PREDICATED.value] > 0.05

    def test_nc_pattern_reads_directly_everywhere(self):
        for model in ALL_MODELS:
            stats, _ = run(nc_kernel(), model)
            key = (LoadKind.DIRECT.value if model is not ModelKind.BASELINE
                   else LoadKind.DIRECT.value)
            assert stats.load_distribution()[key] > 0.95, model

    def test_baseline_forwards_through_store_queue(self):
        stats, _ = run(ac_spill_kernel(), ModelKind.BASELINE)
        assert stats.load_distribution()[LoadKind.FORWARDED.value] > 0.5

    def test_perfect_never_mispredicts(self):
        stats, _ = run(oc_kernel(), ModelKind.PERFECT)
        assert stats.dep_mispredictions == 0
        assert stats.reexecutions == 0

    def test_perfect_cloaks_ac(self):
        stats, _ = run(ac_spill_kernel(), ModelKind.PERFECT)
        assert stats.load_distribution()[LoadKind.BYPASS.value] > 0.8

    def test_dmdp_beats_nosq_on_oc(self):
        # The paper's clean OC story needs a *stable* colliding distance
        # (IndepStore + Correct dominated, Fig. 5); the wrf kernel is the
        # canonical case.  Dense random-distance collisions (the bzip2
        # corner, our zipf kernel) can instead favour NoSQ's delaying.
        from repro.workloads import get_workload
        prog = get_workload("wrf").build(300)
        nosq, _ = run(prog, ModelKind.NOSQ)
        dmdp, _ = run(prog, ModelKind.DMDP)
        assert dmdp.ipc > nosq.ipc

    def test_dmdp_inserts_extra_uops(self):
        nosq, _ = run(oc_kernel(), ModelKind.NOSQ)
        dmdp, _ = run(oc_kernel(), ModelKind.DMDP)
        assert dmdp.uops > nosq.uops   # CMP + 2 CMOVs per predication

    def test_lowconf_outcomes_populated(self):
        stats, _ = run(oc_kernel(600), ModelKind.NOSQ)
        assert sum(stats.lowconf_outcome.values()) > 0

    def test_only_nosq_and_dmdp_hold_a_distance_predictor(self):
        prog = ac_spill_kernel(20)
        trace = FunctionalCpu(prog).run_trace()

        def predictor(model, **overrides):
            params = replace(model_params(model), **overrides)
            return Simulator(prog, trace, params).sdp

        assert predictor(ModelKind.BASELINE) is None
        assert predictor(ModelKind.PERFECT) is None
        assert type(predictor(ModelKind.NOSQ)) is StoreDistancePredictor
        assert type(predictor(ModelKind.DMDP)) is StoreDistancePredictor
        assert type(predictor(ModelKind.DMDP, use_tage_predictor=True)) \
            is TageDistancePredictor


class TestRecovery:
    def test_violations_detected_and_recovered(self):
        """The OC kernel must produce genuine memory-order violations in
        NoSQ/DMDP, each with a full squash, and still complete."""
        stats, _ = run(oc_kernel(800, slots=8), ModelKind.DMDP)
        assert stats.dep_mispredictions > 0
        assert stats.energy_events["recovery_overhead"] == \
            stats.dep_mispredictions

    def test_baseline_violations_train_store_sets(self):
        stats, sim = run(oc_kernel(800, slots=8), ModelKind.BASELINE)
        # Store sets learn from violations, so late-run violations go down;
        # the net must still complete correctly.
        assert stats.instructions == len(sim.trace)

    def test_reexecution_counts(self):
        stats, _ = run(oc_kernel(800, slots=8), ModelKind.NOSQ)
        assert stats.reexecutions >= stats.dep_mispredictions


class TestStructuralPressure:
    def test_small_store_buffer_stalls_more(self):
        big, _ = run(nc_kernel(800), ModelKind.DMDP,
                     store_buffer_entries=64)
        small, _ = run(nc_kernel(800), ModelKind.DMDP,
                       store_buffer_entries=2)
        assert small.sb_full_stall_cycles > big.sb_full_stall_cycles
        assert small.cycles >= big.cycles

    def test_narrow_core_is_slower(self):
        wide, _ = run(oc_kernel(), ModelKind.DMDP)
        narrow, _ = run(oc_kernel(), ModelKind.DMDP, fetch_width=2,
                        rename_width=2, issue_width=2, retire_width=2)
        assert narrow.cycles > wide.cycles

    def test_fewer_pregs_still_correct(self):
        stats, _ = run(oc_kernel(), ModelKind.DMDP, num_pregs=64)
        assert stats.instructions > 0

    def test_rmo_runs(self):
        stats, _ = run(nc_kernel(), ModelKind.DMDP,
                       consistency=Consistency.RMO)
        assert stats.ipc > 0

    def test_ipc_bounded_by_retire_width(self):
        for model in ALL_MODELS:
            stats, _ = run(nc_kernel(), model)
            assert stats.ipc <= 8.0


class TestConsistencyHook:
    def test_invalidation_injection(self):
        prog = nc_kernel(50)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        sim.inject_invalidation(prog.data_base)
        # Every word of the invalidated line is marked with SSN_commit + 1.
        result = sim.tssbf.load_lookup(prog.data_base, 0xF)
        assert result.matched
        assert result.ssn == sim.ssn.commit + 1
        sim.run()


class TestPartialWord:
    def test_partial_word_forwarding(self):
        """Halfword store -> halfword load chains work in every model."""
        b = ProgramBuilder()
        b.data_label("buf")
        b.word(0, 0)
        b.label("main")
        b.la("$s0", "buf")
        b.li("$t0", 0)
        b.li("$t9", 200)
        b.label("loop")
        b.andi("$t1", "$t0", 0xFFF)
        b.sh("$t1", 2, "$s0")
        b.lhu("$t2", 2, "$s0")      # partial-word AC reload
        b.add("$t3", "$t2", "$t2")
        b.addi("$t0", "$t0", 1)
        b.blt("$t0", "$t9", "loop")
        b.halt()
        prog = b.build()
        for model in ALL_MODELS:
            stats, _ = run(prog, model)
            assert stats.instructions > 0, model

    def test_dmdp_never_cloaks_partial_word(self):
        """Paper Section IV-D: partial-word loads are forced to predication
        in DMDP."""
        b = ProgramBuilder()
        b.data_label("buf")
        b.word(0)
        b.label("main")
        b.la("$s0", "buf")
        b.li("$t0", 0)
        b.li("$t9", 300)
        b.label("loop")
        b.sh("$t0", 0, "$s0")
        b.lhu("$t2", 0, "$s0")
        b.addi("$t0", "$t0", 1)
        b.blt("$t0", "$t9", "loop")
        b.halt()
        stats, _ = run(b.build(), ModelKind.DMDP)
        assert stats.load_kind.get(LoadKind.BYPASS, 0) == 0
        assert stats.load_kind.get(LoadKind.PREDICATED, 0) > 0


def reference_forward(store, load):
    """The TraceEntry formula the index-based ``_extract_forward``
    replaced: the store's bytes the load reads, if it wrote them all."""
    s_lo, s_hi = store.mem_addr, store.mem_addr + store.mem_size
    l_lo, l_hi = load.mem_addr, load.mem_addr + load.mem_size
    if s_lo <= l_lo and l_hi <= s_hi:
        shift = 8 * (l_lo - s_lo)
        return (store.value >> shift) & ((1 << (8 * load.mem_size)) - 1)
    return None


def reference_covers(store, load):
    """The TraceEntry formula the index-based ``_covers`` replaced."""
    return (store.word_addr == load.word_addr
            and (store.bab & load.bab) == load.bab)


WORD = 0xAABBCCDD

# (store op, store offset, store value, load op, load offset,
#  forwarded value, covers), offsets from one word-aligned address.
FORWARDING_CASES = (
    # Byte and half loads at every offset of a word store.
    [(Opcode.SW, 0, WORD, Opcode.LBU, k, (WORD >> 8 * k) & 0xFF, True)
     for k in range(4)]
    + [(Opcode.SW, 0, WORD, Opcode.LHU, k, (WORD >> 8 * k) & 0xFFFF, True)
       for k in range(3)]
    + [
        # A word load after a byte store forwards nothing.
        (Opcode.SB, 1, 0x5A, Opcode.LW, 0, None, False),
        # Same-word stores whose BAB overlaps the load's in part.
        (Opcode.SB, 0, 0x5A, Opcode.LHU, 0, None, False),
        (Opcode.SH, 2, 0xBEEF, Opcode.LHU, 1, None, False),
        (Opcode.SH, 2, 0xBEEF, Opcode.LW, 0, None, False),
        (Opcode.SH, 2, 0xBEEF, Opcode.LBU, 3, 0xBE, True),
        # A store to a different word.
        (Opcode.SW, 4, WORD, Opcode.LW, 0, None, False),
        (Opcode.SB, 4, 0x5A, Opcode.LBU, 0, None, False),
    ])


class TestForwardingHelpers:
    """``Simulator._extract_forward`` and ``_covers`` take the trace
    indices of a store and a load and read the packed columns and the
    bundle's tables.  A hand-made trace pairs each store with a load;
    nothing is simulated, so the addresses need not match the program."""

    BASE = 0x1000
    SIZES = {Opcode.SW: 4, Opcode.SH: 2, Opcode.SB: 1,
             Opcode.LW: 4, Opcode.LHU: 2, Opcode.LBU: 1}

    def _sim_and_entries(self):
        b = ProgramBuilder()
        b.label("main")
        for op in self.SIZES:
            getattr(b, op.name.lower())("$t0", 0, "$s0")
        b.halt()
        program = b.build()
        static = {instr.op: i for i, instr in enumerate(program.instructions)}
        entries = []

        def add(op, offset, value):
            addr, size = self.BASE + offset, self.SIZES[op]
            pc = program.text_base + 4 * static[op]
            entries.append(TraceEntry(
                len(entries), pc, program.instructions[static[op]], pc + 4,
                False, addr, size, value, None, False, False, addr & ~0x3,
                ((1 << size) - 1) << (addr & 0x3)))

        for s_op, s_off, value, l_op, l_off, _fwd, _cov in FORWARDING_CASES:
            add(s_op, s_off, value)
            add(l_op, l_off, 0)
        sim = Simulator(program, entries, model_params(ModelKind.DMDP))
        return sim, entries

    def test_cases_match_the_entry_formulas(self):
        sim, entries = self._sim_and_entries()
        for i, case in enumerate(FORWARDING_CASES):
            store, load = 2 * i, 2 * i + 1
            forwarded, covers = case[5], case[6]
            assert sim._extract_forward(store, load) == forwarded, case
            assert sim._covers(store, load) is covers, case
            assert reference_forward(entries[store], entries[load]) \
                == forwarded, case
            assert reference_covers(entries[store], entries[load]) \
                is covers, case

    def test_every_store_load_pair_matches_the_entry_formulas(self):
        sim, entries = self._sim_and_entries()
        stores = [e for e in entries if e.instr.is_store]
        loads = [e for e in entries if e.instr.is_load]
        for store in stores:
            for load in loads:
                assert (sim._extract_forward(store.index, load.index)
                        == reference_forward(store, load)), (store, load)
                assert (sim._covers(store.index, load.index)
                        == reference_covers(store, load)), (store, load)


class TestSquashInternals:
    def test_squash_restores_rename_map_to_committed(self):
        """After a violation squash the speculative map equals the
        committed map and all dead MicroOps are marked."""
        prog = oc_kernel(600, slots=8)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        squashes = []
        original = sim._squash_younger

        def spy(load):
            original(load)
            squashes.append((list(sim.rename_map), list(sim.committed_map),
                             len(sim.rob), sim.fetch_index))
        sim._squash_younger = spy
        sim.run()
        assert squashes, "kernel must produce at least one violation"
        for rename_map, committed_map, rob_len, fetch_index in squashes:
            assert rename_map == committed_map
            assert rob_len == 0
            assert 0 < fetch_index <= len(trace)

    def test_ssn_rewinds_to_retired_on_squash(self):
        prog = oc_kernel(600, slots=8)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        original = sim._squash_younger
        checks = []

        def spy(load):
            original(load)
            checks.append(sim.ssn.rename == sim.ssn.retire)
        sim._squash_younger = spy
        sim.run()
        assert checks and all(checks)

    def test_store_register_buffer_drops_squashed_entries(self):
        prog = oc_kernel(600, slots=8)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.NOSQ))
        original = sim._squash_younger
        results = []

        def spy(load):
            original(load)
            results.append(all(ssn <= sim.ssn.retire for ssn in sim.srb))
        sim._squash_younger = spy
        sim.run()
        assert results and all(results)


class TestWritebackHeapOrder:
    """Micro-tests for the writeback event heap: MicroOps are pushed in
    issue order but with arbitrary completion deadlines, and must drain
    strictly in deadline (cycle) order."""

    @staticmethod
    def _sim_with_events(deadlines, dead=()):
        import heapq

        from repro.isa import FuClass
        from repro.uarch.uops import DynInstr, Uop, UopKind, UopState

        prog = ac_spill_kernel(5)
        trace = FunctionalCpu(prog).run_trace()
        sim = Simulator(prog, trace, model_params(ModelKind.DMDP))
        instr = DynInstr(rob_id=0, dec=sim._dec_by_index[0])
        uops = []
        for seq, deadline in enumerate(deadlines):
            uop = Uop(seq=seq, kind=UopKind.ALU, fu=FuClass.ALU, latency=1,
                      srcs=(), dest=None, instr=instr)
            uop.state = UopState.ISSUED
            if seq in dead:
                uop.dead = True
            else:
                instr.pending_uops += 1
            heapq.heappush(sim.event_heap, (deadline, seq, uop))
            uops.append(uop)
        return sim, instr, uops

    def test_out_of_order_deadlines_complete_in_cycle_order(self):
        from repro.uarch.uops import UopState

        deadlines = [9, 3, 7, 3, 5]   # pushed in seq order, not cycle order
        sim, instr, uops = self._sim_with_events(deadlines)
        for cycle in range(max(deadlines) + 2):
            sim.cycle = cycle
            sim._writeback()
            done = {seq for seq, uop in enumerate(uops)
                    if uop.state is UopState.DONE}
            expected = {seq for seq, deadline in enumerate(deadlines)
                        if deadline <= cycle}
            assert done == expected, "cycle %d" % cycle
        assert instr.pending_uops == 0
        assert not sim.event_heap

    def test_dead_uops_are_skipped_without_side_effects(self):
        from repro.uarch.uops import UopState

        deadlines = [4, 2, 6]
        sim, instr, uops = self._sim_with_events(deadlines, dead={1})
        sim.cycle = 10
        sim._writeback()
        assert uops[1].state is UopState.ISSUED   # never completed
        assert uops[0].state is UopState.DONE
        assert uops[2].state is UopState.DONE
        assert instr.pending_uops == 0
        assert not sim.event_heap
