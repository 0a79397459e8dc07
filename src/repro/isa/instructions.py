"""Instruction set definition for the MIPS-like ISA used by the simulator.

The ISA deliberately mirrors MIPS-I (the paper simulates MIPS-I without
delayed branching).  "Floating point" operations are modelled as integer
operations marked with a long-latency functional-unit class -- the paper's
mechanisms act exclusively on memory dependences, never on FP values, so
only the latency class matters (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .registers import register_name


class FuClass(enum.Enum):
    """Functional-unit class an operation executes on."""

    # Enum equality is identity; the default value-based __hash__ is a
    # Python-level call that dominates hot dict/set lookups in the timing
    # simulator, so use identity hashing (a C slot) instead.
    __hash__ = object.__hash__

    ALU = "alu"          # 1-cycle integer ops
    MUL = "mul"          # integer multiply/divide
    FP = "fp"            # long-latency "floating point" marked ops
    BRANCH = "branch"    # branch/jump resolution
    AGEN = "agen"        # address generation (AGI MicroOps)
    MEM = "mem"          # cache port access
    NONE = "none"        # no execution resource (e.g. HALT)


class Opcode(enum.Enum):
    """Every opcode, architectural and MicroOp-only."""

    # Identity hashing: LOAD_OPS/STORE_OPS membership tests are hot in the
    # timing simulator (see FuClass).
    __hash__ = object.__hash__

    # R-type ALU.
    ADD = enum.auto()
    SUB = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    NOR = enum.auto()
    SLT = enum.auto()
    SLTU = enum.auto()
    SLLV = enum.auto()
    SRLV = enum.auto()
    SRAV = enum.auto()
    MUL = enum.auto()
    MULH = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    # Shift-immediate.
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    # I-type ALU.
    ADDI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLTI = enum.auto()
    SLTIU = enum.auto()
    LUI = enum.auto()
    # FP-marked (integer semantics, FP latency class).
    FADD = enum.auto()
    FSUB = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    # Loads.
    LW = enum.auto()
    LH = enum.auto()
    LHU = enum.auto()
    LB = enum.auto()
    LBU = enum.auto()
    # Stores.
    SW = enum.auto()
    SH = enum.auto()
    SB = enum.auto()
    # Control.
    BEQ = enum.auto()
    BNE = enum.auto()
    BLEZ = enum.auto()
    BGTZ = enum.auto()
    BLTZ = enum.auto()
    BGEZ = enum.auto()
    J = enum.auto()
    JAL = enum.auto()
    JR = enum.auto()
    JALR = enum.auto()
    # Misc.
    NOP = enum.auto()
    HALT = enum.auto()
    # MicroOp-only opcodes (created during decode-time cracking, never
    # present in assembled programs -- see repro.uarch.uops).
    AGI = enum.auto()      # address generation: rd <- rs + imm, translated
    CMP = enum.auto()      # predicate: rd <- (rs == rt), plus shift info
    CMOVP = enum.auto()    # conditional move if predicate set
    CMOVN = enum.auto()    # conditional move if predicate clear


# Members bound to module names once, at import (DESIGN.md section 9):
# the decode helpers below run per dynamic instruction in the functional
# CPU, and a class-level ``Opcode.JAL`` costs several times a global name
# load.
(J, JAL, JR, JALR, BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ) = (
    Opcode.J, Opcode.JAL, Opcode.JR, Opcode.JALR, Opcode.BEQ, Opcode.BNE,
    Opcode.BLEZ, Opcode.BGTZ, Opcode.BLTZ, Opcode.BGEZ)
NOP, HALT, LUI, SLL, SRL, SRA, AGI = (Opcode.NOP, Opcode.HALT, Opcode.LUI,
                                      Opcode.SLL, Opcode.SRL, Opcode.SRA,
                                      Opcode.AGI)
FU_ALU, FU_MUL, FU_FP, FU_BRANCH, FU_AGEN, FU_MEM, FU_NONE = (
    FuClass.ALU, FuClass.MUL, FuClass.FP, FuClass.BRANCH, FuClass.AGEN,
    FuClass.MEM, FuClass.NONE)

LOAD_OPS = frozenset({Opcode.LW, Opcode.LH, Opcode.LHU, Opcode.LB, Opcode.LBU})
STORE_OPS = frozenset({Opcode.SW, Opcode.SH, Opcode.SB})
MEM_OPS = LOAD_OPS | STORE_OPS
COND_BRANCH_OPS = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLEZ, Opcode.BGTZ, Opcode.BLTZ, Opcode.BGEZ,
})
JUMP_OPS = frozenset({Opcode.J, Opcode.JAL, Opcode.JR, Opcode.JALR})
CONTROL_OPS = COND_BRANCH_OPS | JUMP_OPS
FP_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
MUL_OPS = frozenset({Opcode.MUL, Opcode.MULH, Opcode.DIV, Opcode.REM})
SIGNED_LOADS = frozenset({Opcode.LH, Opcode.LB})
MICROOP_ONLY = frozenset({Opcode.AGI, Opcode.CMP, Opcode.CMOVP, Opcode.CMOVN})

# Access size in bytes for each memory opcode.
MEM_SIZES = {
    Opcode.LW: 4, Opcode.SW: 4,
    Opcode.LH: 2, Opcode.LHU: 2, Opcode.SH: 2,
    Opcode.LB: 1, Opcode.LBU: 1, Opcode.SB: 1,
}


def fu_class_for(op: Opcode) -> FuClass:
    """Functional-unit class used when an instruction executes."""
    if op in MEM_OPS:
        return FU_MEM
    if op in CONTROL_OPS:
        return FU_BRANCH
    if op in FP_OPS:
        return FU_FP
    if op in MUL_OPS:
        return FU_MUL
    if op is AGI:
        return FU_AGEN
    if op in (NOP, HALT):
        return FU_NONE
    return FU_ALU


@dataclass(frozen=True)
class Instruction:
    """One assembled instruction.

    Operand roles follow MIPS conventions: ``rd`` is the destination,
    ``rs``/``rt`` are sources.  For memory operations ``rs`` is the base
    register and ``imm`` the displacement; for stores ``rt`` carries the
    data.  ``target`` is an absolute byte address for jumps and taken
    branches (label references are resolved by the assembler).
    """

    op: Opcode
    rd: Optional[int] = None
    rs: Optional[int] = None
    rt: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None
    # Source-level label of the branch/jump target, kept for disassembly.
    target_label: Optional[str] = field(default=None, compare=False)

    # -- classification ---------------------------------------------------

    @property
    def is_load(self) -> bool:
        return self.op in LOAD_OPS

    @property
    def is_store(self) -> bool:
        return self.op in STORE_OPS

    @property
    def is_mem(self) -> bool:
        return self.op in MEM_OPS

    @property
    def is_cond_branch(self) -> bool:
        return self.op in COND_BRANCH_OPS

    @property
    def is_jump(self) -> bool:
        return self.op in JUMP_OPS

    @property
    def is_control(self) -> bool:
        return self.op in CONTROL_OPS

    @property
    def is_indirect(self) -> bool:
        return self.op in (JR, JALR)

    @property
    def is_fp(self) -> bool:
        return self.op in FP_OPS

    @property
    def mem_size(self) -> int:
        """Access size in bytes (memory operations only)."""
        return MEM_SIZES[self.op]

    @property
    def is_partial_word(self) -> bool:
        """True for sub-word (byte / half-word) memory accesses."""
        return self.is_mem and self.mem_size < 4

    @property
    def fu_class(self) -> FuClass:
        return fu_class_for(self.op)

    # -- register usage ---------------------------------------------------

    def dest_reg(self) -> Optional[int]:
        """The logical register written, or None."""
        if self.op in (JAL, JALR):
            return self.rd if self.rd is not None else 31
        if self.is_store or self.is_control or self.op in (NOP, HALT):
            return None
        return self.rd

    def source_regs(self) -> Tuple[int, ...]:
        """Logical registers read, in operand order."""
        op = self.op
        if op in (NOP, HALT, J, JAL):
            return ()
        if op in (JR, JALR):
            return (self.rs,)
        if op is LUI:
            return ()
        if self.is_load:
            return (self.rs,)
        if self.is_store:
            return (self.rs, self.rt)  # base, data
        if op in (BLEZ, BGTZ, BLTZ, BGEZ):
            return (self.rs,)
        if op in (BEQ, BNE):
            return (self.rs, self.rt)
        if op in (SLL, SRL, SRA):
            return (self.rs,)
        if self.rt is not None:
            return (self.rs, self.rt)
        return (self.rs,)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return disassemble(self)


def disassemble(instr: Instruction) -> str:
    """Render an instruction back to assembly-like text."""
    op = instr.op
    name = op.name.lower()
    if op in (NOP, HALT):
        return name
    if op in (J, JAL):
        tgt = instr.target_label or ("0x%x" % (instr.target or 0))
        return "%s %s" % (name, tgt)
    if op is JR:
        return "jr %s" % register_name(instr.rs)
    if op is JALR:
        return "jalr %s, %s" % (register_name(instr.dest_reg()), register_name(instr.rs))
    if instr.is_load:
        return "%s %s, %d(%s)" % (
            name, register_name(instr.rd), instr.imm, register_name(instr.rs))
    if instr.is_store:
        return "%s %s, %d(%s)" % (
            name, register_name(instr.rt), instr.imm, register_name(instr.rs))
    if op in (BEQ, BNE):
        tgt = instr.target_label or ("0x%x" % (instr.target or 0))
        return "%s %s, %s, %s" % (
            name, register_name(instr.rs), register_name(instr.rt), tgt)
    if op in (BLEZ, BGTZ, BLTZ, BGEZ):
        tgt = instr.target_label or ("0x%x" % (instr.target or 0))
        return "%s %s, %s" % (name, register_name(instr.rs), tgt)
    if op is LUI:
        return "lui %s, %d" % (register_name(instr.rd), instr.imm)
    if op in (SLL, SRL, SRA):
        return "%s %s, %s, %d" % (
            name, register_name(instr.rd), register_name(instr.rs), instr.imm)
    if instr.imm is not None:
        return "%s %s, %s, %d" % (
            name, register_name(instr.rd), register_name(instr.rs), instr.imm)
    return "%s %s, %s, %s" % (
        name, register_name(instr.rd), register_name(instr.rs),
        register_name(instr.rt))
