"""Tests for the model facade and MicroOp state helpers."""

from dataclasses import replace

from repro.isa import Instruction, Opcode, ProgramBuilder
from repro.uarch import (
    ALL_MODELS,
    ConfidencePolicy,
    CoreParams,
    ModelKind,
    run_all_models,
    run_model,
    trace_program,
)
from repro.uarch.pipeline import _Decoded
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
                          params=replace(CoreParams(), rob_entries=32))
        assert stats.instructions == len(trace)

    def test_run_all_models(self):
        results = run_all_models(tiny_program())
        assert set(results) == set(ALL_MODELS)
        for stats in results.values():
            assert stats.cycles > 0


class TestUopState:
    def _dec(self):
        instr = Instruction(Opcode.ADD, rd=1, rs=2, rt=3)
        return _Decoded(instr, CoreParams(), 0x400000)

    def test_dyninstr_classification(self):
        # An in-flight instruction holds its trace index and its static
        # decode template, which classifies it; it holds no trace entry.
        di = DynInstr(rob_id=0, dec=self._dec())
        assert not di.dec.is_load and not di.dec.is_store
        assert di.dec.pc == 0x400000 and di.dec.instr.op is Opcode.ADD
        assert not hasattr(di, "trace")

    def test_uop_defaults(self):
        di = DynInstr(rob_id=0, dec=self._dec())
        uop = Uop(seq=1, kind=UopKind.CMOV, fu=FuClass.ALU, latency=1,
                  srcs=(4, 5), dest=6, instr=di)
        assert uop.state is UopState.WAITING
        assert not uop.cmov_selected
        assert not uop.dead
