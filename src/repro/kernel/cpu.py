"""Functional (architectural) simulator for the MIPS-like ISA.

Executes :class:`~repro.isa.Program` objects instruction by instruction with
exact architectural semantics and optionally records a dynamic trace with
oracle memory-dependence annotations (see :mod:`repro.kernel.trace`).

The timing simulator never re-executes semantics; it consumes the trace this
CPU produces, which is the standard trace-driven simulation split (DESIGN.md
Section 3).
"""

from __future__ import annotations

from typing import List, Optional

from ..isa import Instruction, Opcode, Program, STACK_TOP
from ..isa.instructions import SIGNED_LOADS
from .memory import SparseMemory
from .trace import MAX_TRACE_INSTRUCTIONS, TraceEntry, TraceRecorder

WORD_MASK = 0xFFFFFFFF

# Opcodes bound to module names once, at import (DESIGN.md section 9):
# ``step`` and ``alu_result`` test an instruction's opcode against up to
# 35 of them, and a class-level ``Opcode.ADD`` costs several times a
# global name load.
(ADD, SUB, AND, OR, XOR, NOR, SLT, SLTU, SLLV, SRLV, SRAV, MUL, MULH, DIV,
 REM) = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
         Opcode.NOR, Opcode.SLT, Opcode.SLTU, Opcode.SLLV, Opcode.SRLV,
         Opcode.SRAV, Opcode.MUL, Opcode.MULH, Opcode.DIV, Opcode.REM)
SLL, SRL, SRA = Opcode.SLL, Opcode.SRL, Opcode.SRA
ADDI, ANDI, ORI, XORI, SLTI, SLTIU, LUI = (
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI,
    Opcode.SLTIU, Opcode.LUI)
FADD, FSUB, FMUL, FDIV = Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV
BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ = (Opcode.BEQ, Opcode.BNE, Opcode.BLEZ,
                                    Opcode.BGTZ, Opcode.BLTZ, Opcode.BGEZ)
J, JAL, JR, JALR, NOP, HALT = (Opcode.J, Opcode.JAL, Opcode.JR, Opcode.JALR,
                               Opcode.NOP, Opcode.HALT)


class ExecutionError(Exception):
    """Raised for runaway programs or invalid execution states."""


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as two's-complement signed."""
    value &= WORD_MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def to_unsigned(value: int) -> int:
    return value & WORD_MASK


def sign_extend(value: int, size: int) -> int:
    """Sign-extend the low ``size`` bytes of ``value`` to 32 bits."""
    bits = 8 * size
    sign = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return to_unsigned(value - (1 << bits)) if value & sign else value


_sign_extend = sign_extend


def alu_result(op: Opcode, rs: int, rt: int, imm: int) -> int:
    """Architectural result of an ALU opcode on 32-bit operand values.

    Pure function shared by :class:`FunctionalCpu` and the timing
    simulator's architectural-state tracker, so both compute results from
    the same semantics.  The result is NOT masked to 32 bits; register
    writes apply ``WORD_MASK``.
    """
    if op in (ADD, FADD):
        return rs + rt
    if op in (SUB, FSUB):
        return rs - rt
    if op is AND:
        return rs & rt
    if op is OR:
        return rs | rt
    if op is XOR:
        return rs ^ rt
    if op is NOR:
        return ~(rs | rt)
    if op is SLT:
        return int(to_signed(rs) < to_signed(rt))
    if op is SLTU:
        return int(rs < rt)
    if op is SLLV:
        return rs << (rt & 0x1F)
    if op is SRLV:
        return rs >> (rt & 0x1F)
    if op is SRAV:
        return to_signed(rs) >> (rt & 0x1F)
    if op in (MUL, FMUL):
        return to_signed(rs) * to_signed(rt)
    if op is MULH:
        return (to_signed(rs) * to_signed(rt)) >> 32
    if op in (DIV, FDIV):
        divisor = to_signed(rt)
        return 0 if divisor == 0 else int(to_signed(rs) / divisor)
    if op is REM:
        divisor = to_signed(rt)
        return 0 if divisor == 0 else to_signed(rs) - divisor * int(
            to_signed(rs) / divisor)
    if op is ADDI:
        return rs + imm
    if op is ANDI:
        return rs & (imm & 0xFFFF)
    if op is ORI:
        return rs | (imm & 0xFFFF)
    if op is XORI:
        return rs ^ (imm & 0xFFFF)
    if op is SLTI:
        return int(to_signed(rs) < imm)
    if op is SLTIU:
        return int(rs < (imm & WORD_MASK))
    if op is LUI:
        return (imm & 0xFFFF) << 16
    if op is SLL:
        return rs << imm
    if op is SRL:
        return rs >> imm
    if op is SRA:
        return to_signed(rs) >> imm
    raise ExecutionError("unimplemented opcode %s" % op.name)


class FunctionalCpu:
    """Architectural interpreter with optional trace recording."""

    def __init__(self, program: Program):
        self.program = program
        self.memory = SparseMemory()
        self.memory.load_segment(program.data_base, program.data)
        self.regs: List[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0

    # -- register helpers ----------------------------------------------------

    def write_reg(self, num: int, value: int) -> None:
        if num != 0:
            self.regs[num] = value & WORD_MASK

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions: int = MAX_TRACE_INSTRUCTIONS,
            recorder: Optional[TraceRecorder] = None) -> int:
        """Run until HALT or the instruction cap; returns instructions run."""
        while not self.halted:
            if self.instruction_count >= max_instructions:
                raise ExecutionError(
                    "instruction cap %d reached at pc=0x%x"
                    % (max_instructions, self.pc))
            self.step(recorder)
        return self.instruction_count

    def run_trace(self, max_instructions: int = MAX_TRACE_INSTRUCTIONS
                  ) -> List[TraceEntry]:
        """Run to completion and return the dynamic trace."""
        recorder = TraceRecorder()
        self.run(max_instructions=max_instructions, recorder=recorder)
        return recorder.entries

    def step(self, recorder: Optional[TraceRecorder] = None) -> None:
        """Execute one instruction."""
        instr = self.program.instruction_at(self.pc)
        pc = self.pc
        next_pc = pc + 4
        taken = False
        mem_addr = mem_size = value = None
        silent = False
        op = instr.op
        regs = self.regs

        if op is HALT:
            self.halted = True
        elif op is NOP:
            pass
        elif instr.is_load:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            raw = self.memory.read(mem_addr, mem_size)
            value = raw
            if op in SIGNED_LOADS:
                raw = _sign_extend(raw, mem_size)
            self.write_reg(instr.rd, raw)
        elif instr.is_store:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            value = regs[instr.rt] & ((1 << (8 * mem_size)) - 1)
            silent = self.memory.read(mem_addr, mem_size) == value
            self.memory.write(mem_addr, value, mem_size)
        elif instr.is_cond_branch:
            taken = self._branch_taken(instr)
            if taken:
                next_pc = instr.target
        elif op is J:
            taken = True
            next_pc = instr.target
        elif op is JAL:
            taken = True
            self.write_reg(instr.dest_reg(), pc + 4)
            next_pc = instr.target
        elif op is JR:
            taken = True
            next_pc = regs[instr.rs]
        elif op is JALR:
            taken = True
            self.write_reg(instr.dest_reg(), pc + 4)
            next_pc = regs[instr.rs]
        else:
            self._alu(instr)

        self.pc = next_pc
        self.instruction_count += 1
        if recorder is not None:
            recorder.record(pc, instr, next_pc, taken,
                            mem_addr=mem_addr, mem_size=mem_size,
                            value=value, silent=silent)

    # -- semantics ----------------------------------------------------------------

    def _branch_taken(self, instr: Instruction) -> bool:
        op = instr.op
        regs = self.regs
        a = to_signed(regs[instr.rs])
        if op is BEQ:
            return regs[instr.rs] == regs[instr.rt]
        if op is BNE:
            return regs[instr.rs] != regs[instr.rt]
        if op is BLEZ:
            return a <= 0
        if op is BGTZ:
            return a > 0
        if op is BLTZ:
            return a < 0
        if op is BGEZ:
            return a >= 0
        raise ExecutionError("not a branch: %s" % instr)

    def _alu(self, instr: Instruction) -> None:
        regs = self.regs
        rs = regs[instr.rs] if instr.rs is not None else 0
        rt = regs[instr.rt] if instr.rt is not None else 0
        imm = instr.imm if instr.imm is not None else 0
        self.write_reg(instr.dest_reg(), alu_result(instr.op, rs, rt, imm))
