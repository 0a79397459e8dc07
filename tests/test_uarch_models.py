"""Tests for the model facade and MicroOp state helpers."""

import pytest

from repro.isa import Instruction, Opcode, ProgramBuilder
from repro.kernel.trace import TraceEntry
from repro.uarch import (
    ALL_MODELS,
    ConfidencePolicy,
    ConfigError,
    CoreParams,
    ModelKind,
    run_all_models,
    run_model,
    trace_program,
)
from repro.uarch.uops import DynInstr, Uop, UopKind, UopState
from repro.isa import FuClass


def tiny_program():
    b = ProgramBuilder()
    b.data_label("buf")
    b.word(0)
    b.label("main")
    b.la("$t0", "buf")
    b.li("$t1", 3)
    b.sw("$t1", 0, "$t0")
    b.lw("$t2", 0, "$t0")
    b.add("$t3", "$t2", "$t1")
    b.halt()
    return b.build()


class TestModelFacade:
    def test_trace_program(self):
        trace = trace_program(tiny_program())
        # la expands to lui+ori; li to addi: 7 instructions + halt.
        assert len(trace) == 7
        assert trace[-1].instr.op is Opcode.HALT

    def test_run_model_defaults(self):
        prog = tiny_program()
        trace = trace_program(prog)
        stats = run_model(prog, trace, ModelKind.DMDP)
        assert stats.instructions == len(trace)

    def test_run_model_applies_canonical_policy(self):
        prog = tiny_program()
        trace = trace_program(prog)
        stats = run_model(prog, trace, ModelKind.NOSQ,
                          params=CoreParams())
        assert stats.instructions == len(trace)

    def test_run_model_override_on_params(self):
        prog = tiny_program()
        trace = trace_program(prog)
        stats = run_model(prog, trace, ModelKind.DMDP,
                          params=CoreParams(), rob_entries=32)
        assert stats.instructions == len(trace)

    @pytest.mark.parametrize("params", [None, CoreParams()],
                             ids=["defaults", "on_params"])
    def test_run_model_rejects_typoed_override(self, params):
        # A typo gets a did-you-mean ConfigError whether or not a base
        # configuration is given, before any simulation starts.
        prog = tiny_program()
        with pytest.raises(ConfigError, match="did you mean.*rob_entries"):
            run_model(prog, trace_program(prog), ModelKind.DMDP,
                      params=params, rob_entrees=512)

    def test_run_all_models(self):
        results = run_all_models(tiny_program())
        assert set(results) == set(ALL_MODELS)
        for stats in results.values():
            assert stats.cycles > 0


class TestUopState:
    def _entry(self):
        instr = Instruction(Opcode.ADD, rd=1, rs=2, rt=3)
        return TraceEntry(index=0, pc=0x400000, instr=instr,
                          next_pc=0x400004, taken=False, mem_addr=None,
                          mem_size=None, value=None, dep_store=None,
                          dep_covers=False, silent=False, word_addr=0, bab=0)

    def test_dyninstr_classification(self):
        di = DynInstr(rob_id=0, trace=self._entry())
        assert not di.is_load and not di.is_store

    def test_uop_defaults(self):
        di = DynInstr(rob_id=0, trace=self._entry())
        uop = Uop(seq=1, kind=UopKind.CMOV, fu=FuClass.ALU, latency=1,
                  srcs=(4, 5), dest=6, instr=di)
        assert uop.state is UopState.WAITING
        assert not uop.cmov_selected
        assert not uop.dead
