"""The pre-decoded functional CPU against the test-local reference
interpreter (tests/reference_cpu.py).

For every program below, ``FunctionalCpu.run_trace`` and
``run_trace_packed`` must record the bytes the reference run packs to,
and the CPU must end in the reference's state: registers, memory, pc,
halt flag and instruction count.  The programs are the differential
oracle's generator programs, one program per fuzz bias profile, the
fuzz regression corpus, and one program that runs every opcode on edge
operands.  The edge program also runs through the timing simulator with
architectural-state tracking, whose ALU results come from the same
``ALU_SEMANTICS`` table as the CPU's.
"""

import glob
import os
import random

import pytest

from repro.fuzz.artifacts import load_artifact
from repro.fuzz.generator import PROFILES, ProgramSpec, materialize
from repro.isa import Opcode, ProgramBuilder
from repro.isa.instructions import MICROOP_ONLY
from repro.kernel import FunctionalCpu, pack_trace, run_trace_packed
from repro.uarch import ALL_MODELS, Simulator, model_params

from .reference_cpu import reference_trace
from .test_differential_oracle import SEED, build_random_program

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus",
                                       "*.json")))

EDGES = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
EDGE_REGS = ("$t0", "$t1", "$t2", "$t3", "$t4")
SHIFT_REGS = ("$t5", "$t6", "$t7")          # hold 31, 32 and 33
IMMEDIATES = (-32768, -1, 0, 1, 32767)
THREE_REG = ("add", "sub", "and_", "or_", "xor", "nor", "slt", "sltu",
             "mul", "mulh", "div", "rem", "fadd", "fsub", "fmul", "fdiv")
VARIABLE_SHIFTS = ("sllv", "srlv", "srav")
IMMEDIATE_ALU = ("addi", "andi", "ori", "xori", "slti", "sltiu")
SHIFTS = ("sll", "srl", "sra")


def every_opcode_program():
    """Every architectural opcode on edge operands.  Each ALU result is
    stored, so it reaches the trace's value column and the memory
    image; branches count their fall-throughs in $s1."""
    b = ProgramBuilder()
    b.data_label("out")
    b.space(4 * 2048)
    b.data_label("bytes")
    b.word(0x80FF_7F01, 0x0000_8000)
    b.data_label("scratch")
    b.space(32)
    b.label("main")
    b.la("$s0", "out")
    b.la("$s2", "bytes")
    b.la("$s3", "scratch")
    for reg, value in zip(EDGE_REGS, EDGES):
        b.li(reg, value)
    for reg, value in zip(SHIFT_REGS, (31, 32, 33)):
        b.li(reg, value)
    slot = [0]

    def keep(reg):
        b.sw(reg, 4 * slot[0], "$s0")
        slot[0] += 1

    for name in THREE_REG:
        for rs in EDGE_REGS:
            for rt in EDGE_REGS:
                getattr(b, name)("$a0", rs, rt)
                keep("$a0")
    for name in VARIABLE_SHIFTS:
        for rs in EDGE_REGS:
            for rt in EDGE_REGS + SHIFT_REGS:
                getattr(b, name)("$a0", rs, rt)
                keep("$a0")
    for name in IMMEDIATE_ALU:
        for rs in EDGE_REGS:
            for imm in IMMEDIATES:
                getattr(b, name)("$a0", rs, imm)
                keep("$a0")
    for name in SHIFTS:
        for rs in EDGE_REGS:
            for shamt in (0, 1, 31):
                getattr(b, name)("$a0", rs, shamt)
                keep("$a0")
    for imm in (0, 1, 0x8000, 0xFFFF):
        b.lui("$a0", imm)
        keep("$a0")
    b.nop()

    # Writes to $zero are dropped, whatever writes them.
    b.add("$zero", "$t2", "$t1")
    b.lw("$zero", 0, "$s2")
    keep("$zero")

    # Signed and unsigned sub-word loads of 0x80FF7F01 and 0x00008000.
    for offset in range(4):
        for name in ("lb", "lbu"):
            getattr(b, name)("$a0", offset, "$s2")
            keep("$a0")
    for offset in (0, 2, 4, 6):
        for name in ("lh", "lhu"):
            getattr(b, name)("$a0", offset, "$s2")
            keep("$a0")
    b.lw("$a0", 4, "$s2")
    keep("$a0")

    # Silent stores of each size, and an untouched page read as zero.
    b.lw("$a0", 0, "$s2")
    b.sw("$a0", 0, "$s2")
    b.lbu("$a0", 1, "$s2")
    b.sb("$a0", 1, "$s2")
    b.lhu("$a0", 2, "$s2")
    b.sh("$a0", 2, "$s2")
    b.sw("$zero", 16, "$s3")
    b.sw("$zero", 16, "$s3")
    b.lui("$a1", 0x2000)
    b.lw("$a0", 0, "$a1")
    keep("$a0")

    # Partial overlaps: one store covering the load, several stores
    # each writing part of it, and loads of bytes no store wrote.
    b.sw("$t4", 0, "$s3")
    b.lb("$a0", 1, "$s3")
    b.sb("$t1", 2, "$s3")
    b.lw("$a0", 0, "$s3")
    b.sh("$t3", 0, "$s3")
    b.lh("$a0", 0, "$s3")
    b.lw("$a0", 0, "$s3")
    b.lbu("$a0", 3, "$s3")
    b.sb("$t4", 4, "$s3")
    b.lbu("$a0", 7, "$s3")
    b.lw("$a0", 4, "$s3")
    b.sh("$t4", 10, "$s3")
    b.lh("$a0", 8, "$s3")
    b.lw("$a0", 8, "$s3")
    b.sw("$t2", 8, "$s3")
    b.lhu("$a0", 10, "$s3")
    keep("$a0")

    # Every conditional branch, taken and not taken.
    skip = [0]

    def branch(name, *operands):
        label = "skip%d" % skip[0]
        skip[0] += 1
        getattr(b, name)(*operands, label)
        b.addi("$s1", "$s1", 1)
        b.label(label)

    for rs in EDGE_REGS:
        for rt in EDGE_REGS:
            branch("beq", rs, rt)
            branch("bne", rs, rt)
        for name in ("blez", "bgtz", "bltz", "bgez"):
            branch(name, rs)
    keep("$s1")

    # Jumps: j, jal/jr, jalr with rd != rs, rd == rs, and rd = $zero.
    b.j("over")
    b.addi("$s1", "$s1", 100)
    b.label("over")
    b.jal("leaf_ra")
    b.la("$t9", "leaf_s4")
    b.jalr("$t9", rd="$s4")
    b.la("$ra", "leaf_ra")
    b.jalr("$ra")
    b.la("$t9", "after")
    b.jalr("$t9", rd="$zero")
    b.addi("$s1", "$s1", 1000)
    b.label("after")
    keep("$s1")
    keep("$s4")
    keep("$ra")
    keep("$s5")
    b.halt()
    b.label("leaf_ra")
    b.addi("$s5", "$s5", 1)
    b.jr("$ra")
    b.label("leaf_s4")
    b.addi("$s5", "$s5", 10)
    b.jr("$s4")
    return b.build()


def _programs():
    programs = {"every-opcode": every_opcode_program}
    for index in range(6):
        programs["oracle-%d" % index] = (
            lambda index=index: build_random_program(
                random.Random(SEED + index)))
    for name, profile in sorted(PROFILES.items()):
        programs["profile-" + name] = (
            lambda profile=profile: materialize(
                ProgramSpec(profile, SEED).generate()))
    for path in CORPUS:
        programs["corpus-" + os.path.basename(path)] = (
            lambda path=path: materialize(load_artifact(path).replay_ir))
    return programs


PROGRAMS = _programs()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_pre_decoded_cpu_matches_reference(name):
    program = PROGRAMS[name]()
    reference, entries = reference_trace(program, max_instructions=200_000)
    blob = pack_trace(program, entries).to_bytes()
    cpu = FunctionalCpu(program)
    assert cpu.run_trace(max_instructions=200_000).to_bytes() == blob
    assert run_trace_packed(program, max_instructions=200_000).to_bytes() \
        == blob
    assert cpu.regs == reference.regs
    assert cpu.memory.snapshot() == reference.memory.snapshot()
    assert ((cpu.pc, cpu.halted, cpu.instruction_count)
            == (reference.pc, reference.halted,
                reference.instruction_count))


def test_every_opcode_program_covers_its_edges():
    program = every_opcode_program()
    _cpu, entries = reference_trace(program)
    assert {entry.instr.op for entry in entries} \
        == set(Opcode) - MICROOP_ONLY
    branches = [entry for entry in entries if entry.instr.is_cond_branch]
    for op in {entry.instr.op for entry in branches}:
        outcomes = {entry.taken for entry in branches if entry.instr.op is op}
        assert outcomes == {True, False}, op
    loads = [entry for entry in entries if entry.is_load]
    assert any(entry.dep_store is not None and entry.dep_covers
               for entry in loads)
    assert any(entry.dep_store is not None and not entry.dep_covers
               for entry in loads)
    assert any(entry.silent for entry in entries if entry.is_store)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
def test_tracked_arch_state_matches_reference_on_edges(model):
    program = every_opcode_program()
    reference, _entries = reference_trace(program)
    sim = Simulator(program, FunctionalCpu(program).run_trace(),
                    model_params(model), track_arch_state=True)
    sim.run()
    assert sim.architectural_registers()[1:] == reference.regs[1:]
    assert sim.timing_mem.snapshot() == reference.memory.snapshot()
