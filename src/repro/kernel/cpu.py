"""Functional (architectural) simulator for the MIPS-like ISA.

:class:`FunctionalCpu` executes a :class:`~repro.isa.Program` with exact
architectural semantics and records its dynamic trace, with oracle
memory-dependence annotations, into packed columns (see
:mod:`repro.kernel.trace` and :mod:`repro.kernel.tracestore`).  The timing
simulator never re-executes semantics; it consumes that trace, which is
the standard trace-driven simulation split (DESIGN.md Section 3).

The interpreter is pre-decoded: each static instruction becomes one
handler, a closure over its operands that executes the instruction,
writes the trace columns it sets and returns the next pc.  One loop runs
the handlers, indexed by ``(pc - text_base) >> 2``.  ALU results come
from one per-opcode table, :data:`ALU_SEMANTICS`, which the timing
simulator's architectural-state tracker uses too.
"""

from __future__ import annotations

from operator import eq, ne
from typing import Callable, Dict, List

from ..isa import Instruction, Opcode, Program, STACK_TOP
from ..isa.instructions import SIGNED_LOADS
from .memory import SparseMemory
from .trace import MAX_TRACE_INSTRUCTIONS
from .tracestore import (F_DEP_COVERS, F_HAS_ADDR, F_HAS_SIZE, F_HAS_VALUE,
                         F_SILENT, F_TAKEN, ColumnarTraceRecorder,
                         PackedTrace)

WORD_MASK = 0xFFFFFFFF

# Opcodes bound to module names once, at import (DESIGN.md section 9):
# a class-level ``Opcode.ADD`` costs several times a global name load.
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
NOP, HALT = Opcode.NOP, Opcode.HALT

# Flags of every memory entry; a store adds F_SILENT, a load F_DEP_COVERS.
_MEM_FLAGS = F_HAS_ADDR | F_HAS_SIZE | F_HAS_VALUE


class ExecutionError(Exception):
    """Raised for runaway programs or invalid execution states."""


class _Halt(Exception):
    """Raised by HALT's handler to leave the run loop: one raise per run
    costs less than a halted test per instruction."""


def _halt(i: int) -> int:
    raise _Halt


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


def _div(rs: int, rt: int, imm: int) -> int:
    divisor = to_signed(rt)
    return 0 if divisor == 0 else int(to_signed(rs) / divisor)


def _rem(rs: int, rt: int, imm: int) -> int:
    divisor = to_signed(rt)
    return 0 if divisor == 0 else to_signed(rs) - divisor * int(
        to_signed(rs) / divisor)


# Architectural result of each ALU opcode on 32-bit operand values
# ``(rs, rt, imm)``; a missing operand reads as 0.  The result is NOT
# masked to 32 bits: register writes apply ``WORD_MASK``.
ALU_SEMANTICS: Dict[Opcode, Callable[[int, int, int], int]] = {
    ADD: lambda rs, rt, imm: rs + rt,
    FADD: lambda rs, rt, imm: rs + rt,
    SUB: lambda rs, rt, imm: rs - rt,
    FSUB: lambda rs, rt, imm: rs - rt,
    AND: lambda rs, rt, imm: rs & rt,
    OR: lambda rs, rt, imm: rs | rt,
    XOR: lambda rs, rt, imm: rs ^ rt,
    NOR: lambda rs, rt, imm: ~(rs | rt),
    SLT: lambda rs, rt, imm: int(to_signed(rs) < to_signed(rt)),
    SLTU: lambda rs, rt, imm: int(rs < rt),
    SLLV: lambda rs, rt, imm: rs << (rt & 0x1F),
    SRLV: lambda rs, rt, imm: rs >> (rt & 0x1F),
    SRAV: lambda rs, rt, imm: to_signed(rs) >> (rt & 0x1F),
    MUL: lambda rs, rt, imm: to_signed(rs) * to_signed(rt),
    FMUL: lambda rs, rt, imm: to_signed(rs) * to_signed(rt),
    MULH: lambda rs, rt, imm: (to_signed(rs) * to_signed(rt)) >> 32,
    DIV: _div,
    FDIV: _div,
    REM: _rem,
    ADDI: lambda rs, rt, imm: rs + imm,
    ANDI: lambda rs, rt, imm: rs & (imm & 0xFFFF),
    ORI: lambda rs, rt, imm: rs | (imm & 0xFFFF),
    XORI: lambda rs, rt, imm: rs ^ (imm & 0xFFFF),
    SLTI: lambda rs, rt, imm: int(to_signed(rs) < imm),
    SLTIU: lambda rs, rt, imm: int(rs < (imm & WORD_MASK)),
    LUI: lambda rs, rt, imm: (imm & 0xFFFF) << 16,
    SLL: lambda rs, rt, imm: rs << imm,
    SRL: lambda rs, rt, imm: rs >> imm,
    SRA: lambda rs, rt, imm: to_signed(rs) >> imm,
}

# Whether each conditional branch is taken, on its (rs, rt) values.
# Register values are unsigned, so "signed < 0" is "bit 31 set".
_BRANCH_TAKEN: Dict[Opcode, Callable[[int, int], bool]] = {
    BEQ: eq,
    BNE: ne,
    BLEZ: lambda rs, rt: rs == 0 or rs >= 0x8000_0000,
    BGTZ: lambda rs, rt: 0 < rs < 0x8000_0000,
    BLTZ: lambda rs, rt: rs >= 0x8000_0000,
    BGEZ: lambda rs, rt: rs < 0x8000_0000,
}


def _youngest_writer(writers):
    """``(dep, covers)`` over the per-byte writers of a load: the youngest
    store that wrote one of its bytes (None if none did) and whether
    that store wrote every byte."""
    known = [w for w in writers if w is not None]
    if not known:
        return None, False
    dep = max(known)
    return dep, writers.count(dep) == len(writers)


class FunctionalCpu:
    """Architectural interpreter that records its dynamic trace.

    After a run, ``regs``, ``memory``, ``pc``, ``halted`` and
    ``instruction_count`` hold the architectural state reached.
    """

    def __init__(self, program: Program):
        self.program = program
        self.memory = SparseMemory()
        self.memory.load_segment(program.data_base, program.data)
        self.regs: List[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0

    # -- execution -------------------------------------------------------------

    def run_trace(self, max_instructions: int = MAX_TRACE_INSTRUCTIONS
                  ) -> PackedTrace:
        """Run to HALT and return the dynamic trace, recorded straight
        into packed columns."""
        return self._record_trace(max_instructions)

    def _record_trace(self, max_instructions: int) -> PackedTrace:
        # The body of both run_trace and tracestore.run_trace_packed.
        # Neither calls the other: perfbench times each by name, and a
        # nested call would count one trace twice.
        recorder = ColumnarTraceRecorder(self.program)
        handlers = self._decode(recorder)
        static, next_pc = recorder.static, recorder.next_pc
        text_base = self.program.text_base
        n_static = len(handlers)
        limit = max_instructions - self.instruction_count
        pc = self.pc
        count = 0       # entries recorded by this run
        try:
            while not self.halted:
                if count >= limit:
                    raise ExecutionError(
                        "instruction cap %d reached at pc=0x%x"
                        % (max_instructions, pc))
                stop = min(limit, recorder.grow())
                # ``count`` is the dynamic index of the entry being run,
                # which every handler takes as its argument.
                for count in range(count, stop):
                    index = (pc - text_base) >> 2
                    if pc & 3 or not 0 <= index < n_static:
                        raise ExecutionError(self._bad_pc(pc, count))
                    static[count] = index
                    pc = handlers[index](count)
                    next_pc[count] = pc
                count = stop
        except _Halt:
            pc += 4
            next_pc[count] = pc
            count += 1
            self.halted = True
        finally:
            self.pc = pc
            self.instruction_count += count
        return recorder.finish(count)

    def _bad_pc(self, pc: int, count: int) -> str:
        program = self.program
        return ("dynamic instruction %d: pc 0x%x is %s the text segment "
                "0x%x-0x%x" % (
                    self.instruction_count + count, pc,
                    "misaligned in" if pc & 3 else "outside",
                    program.text_base,
                    program.text_base + program.text_size))

    # -- pre-decode ------------------------------------------------------------

    def _decode(self, recorder: ColumnarTraceRecorder) -> List[Callable]:
        """One handler per static instruction: ``handler(i)`` executes
        the instruction as dynamic entry ``i``, writes the columns it
        sets (the recorder's defaults cover the rest) and returns the
        next pc.  The handlers close over this run's columns, so each
        run decodes; a CPU runs to its HALT once, so that is once per
        CPU."""
        regs = self.regs
        sink = [0] * 32         # writes to $zero land here
        read, write = self.memory.read, self.memory.write
        # The dependence oracle: word number -> dynamic index of the
        # store that wrote all four bytes, or a list of per-byte writers
        # (None for a byte no store wrote) once a sub-word store split
        # the word.  A load's dep_store is its bytes' youngest writer,
        # with F_DEP_COVERS when that store wrote all of them.
        writer: Dict[int, object] = {}
        writer_get = writer.get
        flags, mem_addr, values, deps, mem_size = (
            recorder.flags, recorder.mem_addr, recorder.value, recorder.dep,
            recorder.mem_size)

        def alu(instr: Instruction, npc: int) -> Callable:
            semantics = ALU_SEMANTICS.get(instr.op)
            if semantics is None:
                raise ExecutionError("unimplemented opcode %s at pc 0x%x"
                                     % (instr.op.name, npc - 4))
            rd = instr.dest_reg()
            dst = regs if rd else sink
            rs, rt, imm = instr.rs or 0, instr.rt or 0, instr.imm or 0

            def handler(i):
                dst[rd] = semantics(regs[rs], regs[rt], imm) & WORD_MASK
                return npc
            return handler

        def load(instr: Instruction, npc: int) -> Callable:
            rd, rs, imm, size = instr.rd, instr.rs, instr.imm, instr.mem_size
            dst = regs if rd else sink
            signed = instr.op in SIGNED_LOADS

            def handler(i):
                addr = (regs[rs] + imm) & WORD_MASK
                raw = read(addr, size)
                dst[rd] = sign_extend(raw, size) if signed else raw
                writers = writer_get(addr >> 2)
                if writers is None:
                    flags[i] = _MEM_FLAGS
                elif type(writers) is int:
                    deps[i] = writers
                    flags[i] = _MEM_FLAGS | F_DEP_COVERS
                else:
                    offset = addr & 3
                    dep, covers = _youngest_writer(
                        writers[offset:offset + size])
                    if dep is not None:
                        deps[i] = dep
                    flags[i] = _MEM_FLAGS | F_DEP_COVERS if covers \
                        else _MEM_FLAGS
                mem_addr[i] = addr
                values[i] = raw
                mem_size[i] = size
                return npc
            return handler

        def store(instr: Instruction, npc: int) -> Callable:
            rt, rs, imm, size = instr.rt, instr.rs, instr.imm, instr.mem_size
            mask = (1 << (8 * size)) - 1

            def handler(i):
                addr = (regs[rs] + imm) & WORD_MASK
                value = regs[rt] & mask
                silent = read(addr, size) == value
                write(addr, value, size)
                if size == 4:
                    writer[addr >> 2] = i
                else:
                    key = addr >> 2
                    writers = writer_get(key)
                    if type(writers) is not list:
                        writers = writer[key] = [writers] * 4
                    offset = addr & 3
                    writers[offset:offset + size] = [i] * size
                mem_addr[i] = addr
                values[i] = value
                mem_size[i] = size
                flags[i] = _MEM_FLAGS | F_SILENT if silent else _MEM_FLAGS
                return npc
            return handler

        def branch(instr: Instruction, npc: int) -> Callable:
            taken = _BRANCH_TAKEN[instr.op]
            rs, rt, target = instr.rs or 0, instr.rt or 0, instr.target

            def handler(i):
                if taken(regs[rs], regs[rt]):
                    flags[i] = F_TAKEN
                    return target
                return npc
            return handler

        def jump(instr: Instruction, npc: int) -> Callable:
            rd = instr.dest_reg() or 0      # J and JR link nothing
            dst = regs if rd else sink
            rs, target = instr.rs or 0, instr.target
            indirect = instr.is_indirect

            def handler(i):
                # Read rs before the link write: JALR may have rd == rs.
                next_pc = regs[rs] if indirect else target
                dst[rd] = npc
                flags[i] = F_TAKEN
                return next_pc
            return handler

        handlers = []
        text_base = self.program.text_base
        for index, instr in enumerate(self.program.instructions):
            npc = text_base + 4 * index + 4
            if instr.op is HALT:
                handlers.append(_halt)
            elif instr.op is NOP:
                handlers.append(lambda i, npc=npc: npc)
            elif instr.is_load:
                handlers.append(load(instr, npc))
            elif instr.is_store:
                handlers.append(store(instr, npc))
            elif instr.is_cond_branch:
                handlers.append(branch(instr, npc))
            elif instr.is_jump:
                handlers.append(jump(instr, npc))
            else:
                handlers.append(alu(instr, npc))
        return handlers
