"""Test-local reference interpreter for the functional CPU.

``ReferenceCpu`` is the straightforward interpreter ``FunctionalCpu``
replaced: one ``step`` per dynamic instruction walking ``if`` chains on
the opcode, and ``alu_result``, an ``if`` chain written independently of
``repro.kernel.cpu.ALU_SEMANTICS``.  It hands each retired instruction to
``ReferenceRecorder``, which builds ``TraceEntry`` objects with the
oracle dependence annotation computed byte by byte.  The pre-decoded CPU
must record the same bytes and reach the same state
(tests/test_functional_reference.py).
"""

from repro.isa import Opcode, STACK_TOP
from repro.kernel import (ExecutionError, MAX_TRACE_INSTRUCTIONS,
                          SparseMemory, TraceEntry, sign_extend, to_signed)

WORD_MASK = 0xFFFFFFFF


def alu_result(op, rs, rt, imm):
    """Architectural result of an ALU opcode, not masked to 32 bits."""
    if op in (Opcode.ADD, Opcode.FADD):
        return rs + rt
    if op in (Opcode.SUB, Opcode.FSUB):
        return rs - rt
    if op is Opcode.AND:
        return rs & rt
    if op is Opcode.OR:
        return rs | rt
    if op is Opcode.XOR:
        return rs ^ rt
    if op is Opcode.NOR:
        return ~(rs | rt)
    if op is Opcode.SLT:
        return int(to_signed(rs) < to_signed(rt))
    if op is Opcode.SLTU:
        return int(rs < rt)
    if op is Opcode.SLLV:
        return rs << (rt & 0x1F)
    if op is Opcode.SRLV:
        return rs >> (rt & 0x1F)
    if op is Opcode.SRAV:
        return to_signed(rs) >> (rt & 0x1F)
    if op in (Opcode.MUL, Opcode.FMUL):
        return to_signed(rs) * to_signed(rt)
    if op is Opcode.MULH:
        return (to_signed(rs) * to_signed(rt)) >> 32
    if op in (Opcode.DIV, Opcode.FDIV):
        divisor = to_signed(rt)
        return 0 if divisor == 0 else int(to_signed(rs) / divisor)
    if op is Opcode.REM:
        divisor = to_signed(rt)
        return 0 if divisor == 0 else to_signed(rs) - divisor * int(
            to_signed(rs) / divisor)
    if op is Opcode.ADDI:
        return rs + imm
    if op is Opcode.ANDI:
        return rs & (imm & 0xFFFF)
    if op is Opcode.ORI:
        return rs | (imm & 0xFFFF)
    if op is Opcode.XORI:
        return rs ^ (imm & 0xFFFF)
    if op is Opcode.SLTI:
        return int(to_signed(rs) < imm)
    if op is Opcode.SLTIU:
        return int(rs < (imm & WORD_MASK))
    if op is Opcode.LUI:
        return (imm & 0xFFFF) << 16
    if op is Opcode.SLL:
        return rs << imm
    if op is Opcode.SRL:
        return rs >> imm
    if op is Opcode.SRA:
        return to_signed(rs) >> imm
    raise ExecutionError("unimplemented opcode %s" % op.name)


class ReferenceRecorder:
    """List recorder: one ``TraceEntry`` per retired instruction."""

    def __init__(self):
        self.entries = []
        self.writer = {}        # byte address -> index of its last store

    def record(self, pc, instr, next_pc, taken, mem_addr=None,
               mem_size=None, value=None, silent=False):
        index = len(self.entries)
        dep_store, dep_covers = None, False
        if mem_addr is not None:
            span = range(mem_addr, mem_addr + mem_size)
            if instr.is_load:
                writers = {self.writer.get(addr) for addr in span}
                known = writers - {None}
                if known:
                    dep_store = max(known)
                    dep_covers = writers == {dep_store}
            elif instr.is_store:
                for addr in span:
                    self.writer[addr] = index
        self.entries.append(TraceEntry(
            index=index, pc=pc, instr=instr, next_pc=next_pc, taken=taken,
            mem_addr=mem_addr, mem_size=mem_size, value=value,
            dep_store=dep_store, dep_covers=dep_covers, silent=silent,
            word_addr=(mem_addr or 0) & ~0x3,
            bab=((1 << (mem_size or 0)) - 1) << ((mem_addr or 0) & 0x3)))


class ReferenceCpu:
    """One ``step`` per instruction; same state attributes as
    ``FunctionalCpu``."""

    def __init__(self, program):
        self.program = program
        self.memory = SparseMemory()
        self.memory.load_segment(program.data_base, program.data)
        self.regs = [0] * 32
        self.regs[29] = STACK_TOP
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0

    def write_reg(self, num, value):
        if num != 0:
            self.regs[num] = value & WORD_MASK

    def run(self, max_instructions=MAX_TRACE_INSTRUCTIONS, recorder=None):
        while not self.halted:
            if self.instruction_count >= max_instructions:
                raise ExecutionError(
                    "instruction cap %d reached at pc=0x%x"
                    % (max_instructions, self.pc))
            self.step(recorder)
        return self.instruction_count

    def step(self, recorder=None):
        instr = self.program.instruction_at(self.pc)
        pc = self.pc
        next_pc = pc + 4
        taken = False
        mem_addr = mem_size = value = None
        silent = False
        op = instr.op
        regs = self.regs

        if op is Opcode.HALT:
            self.halted = True
        elif op is Opcode.NOP:
            pass
        elif instr.is_load:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            raw = self.memory.read(mem_addr, mem_size)
            value = raw
            if op in (Opcode.LH, Opcode.LB):
                raw = sign_extend(raw, mem_size)
            self.write_reg(instr.rd, raw)
        elif instr.is_store:
            mem_addr = (regs[instr.rs] + instr.imm) & WORD_MASK
            mem_size = instr.mem_size
            value = regs[instr.rt] & ((1 << (8 * mem_size)) - 1)
            silent = self.memory.read(mem_addr, mem_size) == value
            self.memory.write(mem_addr, value, mem_size)
        elif instr.is_cond_branch:
            taken = self.branch_taken(instr)
            if taken:
                next_pc = instr.target
        elif op is Opcode.J:
            taken = True
            next_pc = instr.target
        elif op is Opcode.JAL:
            taken = True
            self.write_reg(instr.dest_reg(), pc + 4)
            next_pc = instr.target
        elif op is Opcode.JR:
            taken = True
            next_pc = regs[instr.rs]
        elif op is Opcode.JALR:
            taken = True
            next_pc = regs[instr.rs]        # read rs before the link write
            self.write_reg(instr.dest_reg(), pc + 4)
        else:
            rs = regs[instr.rs] if instr.rs is not None else 0
            rt = regs[instr.rt] if instr.rt is not None else 0
            imm = instr.imm if instr.imm is not None else 0
            self.write_reg(instr.dest_reg(), alu_result(op, rs, rt, imm))

        self.pc = next_pc
        self.instruction_count += 1
        if recorder is not None:
            recorder.record(pc, instr, next_pc, taken,
                            mem_addr=mem_addr, mem_size=mem_size,
                            value=value, silent=silent)

    def branch_taken(self, instr):
        op = instr.op
        regs = self.regs
        a = to_signed(regs[instr.rs])
        if op is Opcode.BEQ:
            return regs[instr.rs] == regs[instr.rt]
        if op is Opcode.BNE:
            return regs[instr.rs] != regs[instr.rt]
        if op is Opcode.BLEZ:
            return a <= 0
        if op is Opcode.BGTZ:
            return a > 0
        if op is Opcode.BLTZ:
            return a < 0
        if op is Opcode.BGEZ:
            return a >= 0
        raise ExecutionError("not a branch: %s" % instr)


def reference_trace(program, max_instructions=MAX_TRACE_INSTRUCTIONS):
    """``(cpu, entries)`` after running ``program`` to HALT."""
    cpu = ReferenceCpu(program)
    recorder = ReferenceRecorder()
    cpu.run(max_instructions=max_instructions, recorder=recorder)
    return cpu, recorder.entries
