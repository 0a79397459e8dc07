"""Assembler for the MIPS-like ISA: a builder DSL and a text front end.

Two entry points:

* :class:`ProgramBuilder` -- programmatic DSL used by the workload kernels::

      b = ProgramBuilder()
      b.data_label("arr"); b.word(*range(100))
      b.label("main")
      b.la("$t0", "arr")
      b.lw("$t1", 0, "$t0")
      b.halt()
      prog = b.build()

* :func:`assemble` -- a classic two-pass text assembler accepting ``.text`` /
  ``.data`` segments, labels, comments, and the usual pseudo-instructions
  (``li``, ``la``, ``move``, ``b``, ``beqz``, ``bnez``, ``blt``, ``bgt``,
  ``ble``, ``bge``).
"""

from __future__ import annotations

import dataclasses
import re
import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .instructions import (
    COND_BRANCH_OPS,
    Instruction,
    Opcode,
    disassemble,
)
from .registers import parse_register

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_F000

Reg = Union[str, int]


class AssemblerError(ValueError):
    """Raised for malformed assembly input or unresolved labels."""


def _reg(value: Reg) -> int:
    if isinstance(value, int):
        if not 0 <= value < 32:
            raise AssemblerError("register number %d out of range" % value)
        return value
    return parse_register(value)


@dataclass(frozen=True)
class Program:
    """An assembled program: text + data segments and resolved labels."""

    instructions: Tuple[Instruction, ...]
    data: bytes
    labels: Dict[str, int]
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    entry: int = TEXT_BASE

    @property
    def text_size(self) -> int:
        return 4 * len(self.instructions)

    def pc_of_index(self, index: int) -> int:
        return self.text_base + 4 * index

    def index_of_pc(self, pc: int) -> int:
        offset = pc - self.text_base
        if offset % 4 or not 0 <= offset < self.text_size:
            raise AssemblerError("PC 0x%x outside text segment" % pc)
        return offset // 4

    def instruction_at(self, pc: int) -> Instruction:
        return self.instructions[self.index_of_pc(pc)]

    def disassemble(self) -> str:
        """Pretty text listing of the whole text segment."""
        addr_to_label = {addr: name for name, addr in self.labels.items()}
        lines = []
        for index, instr in enumerate(self.instructions):
            pc = self.pc_of_index(index)
            label = addr_to_label.get(pc)
            if label is not None:
                lines.append("%s:" % label)
            lines.append("  0x%08x  %s" % (pc, disassemble(instr)))
        return "\n".join(lines)


class ProgramBuilder:
    """Imperative builder for :class:`Program` objects."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self._text_base = text_base
        self._data_base = data_base
        self._instrs: List[Instruction] = []
        # label -> pending text index or resolved data address
        self._labels: Dict[str, int] = {}
        self._text_labels: Dict[str, int] = {}
        self._data = bytearray()

    # -- labels and data ---------------------------------------------------

    def label(self, name: str) -> None:
        """Attach ``name`` to the next text instruction."""
        if name in self._labels or name in self._text_labels:
            raise AssemblerError("duplicate label %r" % (name,))
        self._text_labels[name] = len(self._instrs)

    def data_label(self, name: str) -> int:
        """Attach ``name`` to the current data offset; returns its address."""
        if name in self._labels or name in self._text_labels:
            raise AssemblerError("duplicate label %r" % (name,))
        addr = self._data_base + len(self._data)
        self._labels[name] = addr
        return addr

    def align(self, nbytes: int = 4) -> None:
        while len(self._data) % nbytes:
            self._data.append(0)

    def word(self, *values: int) -> None:
        # One array append per call: each masked value is freed as soon
        # as it is stored, so a long call holds 4 bytes per value, not a
        # list of int objects.
        self.align(4)
        words = array("I", (value & 0xFFFFFFFF for value in values))
        if sys.byteorder != "little":  # pragma: no cover - exotic
            words.byteswap()
        self._data += words

    def half(self, *values: int) -> None:
        self.align(2)
        for value in values:
            self._data += (value & 0xFFFF).to_bytes(2, "little")

    def byte(self, *values: int) -> None:
        for value in values:
            self._data.append(value & 0xFF)

    def space(self, nbytes: int) -> None:
        self._data += bytes(nbytes)

    # -- instruction emission ----------------------------------------------

    def emit(self, instr: Instruction) -> None:
        self._instrs.append(instr)

    def _rrr(self, op: Opcode, rd: Reg, rs: Reg, rt: Reg) -> None:
        self.emit(Instruction(op, rd=_reg(rd), rs=_reg(rs), rt=_reg(rt)))

    def _rri(self, op: Opcode, rd: Reg, rs: Reg, imm: int) -> None:
        self.emit(Instruction(op, rd=_reg(rd), rs=_reg(rs), imm=int(imm)))

    # Three-register ALU.
    def add(self, rd, rs, rt): self._rrr(Opcode.ADD, rd, rs, rt)
    def sub(self, rd, rs, rt): self._rrr(Opcode.SUB, rd, rs, rt)
    def and_(self, rd, rs, rt): self._rrr(Opcode.AND, rd, rs, rt)
    def or_(self, rd, rs, rt): self._rrr(Opcode.OR, rd, rs, rt)
    def xor(self, rd, rs, rt): self._rrr(Opcode.XOR, rd, rs, rt)
    def nor(self, rd, rs, rt): self._rrr(Opcode.NOR, rd, rs, rt)
    def slt(self, rd, rs, rt): self._rrr(Opcode.SLT, rd, rs, rt)
    def sltu(self, rd, rs, rt): self._rrr(Opcode.SLTU, rd, rs, rt)
    def sllv(self, rd, rs, rt): self._rrr(Opcode.SLLV, rd, rs, rt)
    def srlv(self, rd, rs, rt): self._rrr(Opcode.SRLV, rd, rs, rt)
    def srav(self, rd, rs, rt): self._rrr(Opcode.SRAV, rd, rs, rt)
    def mul(self, rd, rs, rt): self._rrr(Opcode.MUL, rd, rs, rt)
    def mulh(self, rd, rs, rt): self._rrr(Opcode.MULH, rd, rs, rt)
    def div(self, rd, rs, rt): self._rrr(Opcode.DIV, rd, rs, rt)
    def rem(self, rd, rs, rt): self._rrr(Opcode.REM, rd, rs, rt)
    # FP-marked ops (integer semantics, FP latency class).
    def fadd(self, rd, rs, rt): self._rrr(Opcode.FADD, rd, rs, rt)
    def fsub(self, rd, rs, rt): self._rrr(Opcode.FSUB, rd, rs, rt)
    def fmul(self, rd, rs, rt): self._rrr(Opcode.FMUL, rd, rs, rt)
    def fdiv(self, rd, rs, rt): self._rrr(Opcode.FDIV, rd, rs, rt)
    # Immediate ALU.
    def addi(self, rd, rs, imm): self._rri(Opcode.ADDI, rd, rs, imm)
    def andi(self, rd, rs, imm): self._rri(Opcode.ANDI, rd, rs, imm)
    def ori(self, rd, rs, imm): self._rri(Opcode.ORI, rd, rs, imm)
    def xori(self, rd, rs, imm): self._rri(Opcode.XORI, rd, rs, imm)
    def slti(self, rd, rs, imm): self._rri(Opcode.SLTI, rd, rs, imm)
    def sltiu(self, rd, rs, imm): self._rri(Opcode.SLTIU, rd, rs, imm)
    def sll(self, rd, rs, shamt): self._rri(Opcode.SLL, rd, rs, shamt)
    def srl(self, rd, rs, shamt): self._rri(Opcode.SRL, rd, rs, shamt)
    def sra(self, rd, rs, shamt): self._rri(Opcode.SRA, rd, rs, shamt)

    def lui(self, rd: Reg, imm: int) -> None:
        self.emit(Instruction(Opcode.LUI, rd=_reg(rd), imm=int(imm) & 0xFFFF))

    # Memory.
    def _load(self, op: Opcode, rd: Reg, offset: int, base: Reg) -> None:
        self.emit(Instruction(op, rd=_reg(rd), rs=_reg(base), imm=int(offset)))

    def _store(self, op: Opcode, rt: Reg, offset: int, base: Reg) -> None:
        self.emit(Instruction(op, rt=_reg(rt), rs=_reg(base), imm=int(offset)))

    def lw(self, rd, offset, base): self._load(Opcode.LW, rd, offset, base)
    def lh(self, rd, offset, base): self._load(Opcode.LH, rd, offset, base)
    def lhu(self, rd, offset, base): self._load(Opcode.LHU, rd, offset, base)
    def lb(self, rd, offset, base): self._load(Opcode.LB, rd, offset, base)
    def lbu(self, rd, offset, base): self._load(Opcode.LBU, rd, offset, base)
    def sw(self, rt, offset, base): self._store(Opcode.SW, rt, offset, base)
    def sh(self, rt, offset, base): self._store(Opcode.SH, rt, offset, base)
    def sb(self, rt, offset, base): self._store(Opcode.SB, rt, offset, base)

    # Control flow (targets are labels, resolved at build()).
    def _branch(self, op: Opcode, rs: Optional[Reg], rt: Optional[Reg],
                label: str) -> None:
        self.emit(Instruction(
            op,
            rs=None if rs is None else _reg(rs),
            rt=None if rt is None else _reg(rt),
            target_label=label))

    def beq(self, rs, rt, label): self._branch(Opcode.BEQ, rs, rt, label)
    def bne(self, rs, rt, label): self._branch(Opcode.BNE, rs, rt, label)
    def blez(self, rs, label): self._branch(Opcode.BLEZ, rs, None, label)
    def bgtz(self, rs, label): self._branch(Opcode.BGTZ, rs, None, label)
    def bltz(self, rs, label): self._branch(Opcode.BLTZ, rs, None, label)
    def bgez(self, rs, label): self._branch(Opcode.BGEZ, rs, None, label)

    def j(self, label: str) -> None:
        self.emit(Instruction(Opcode.J, target_label=label))

    def jal(self, label: str) -> None:
        self.emit(Instruction(Opcode.JAL, rd=31, target_label=label))

    def jr(self, rs: Reg) -> None:
        self.emit(Instruction(Opcode.JR, rs=_reg(rs)))

    def jalr(self, rs: Reg, rd: Reg = "$ra") -> None:
        self.emit(Instruction(Opcode.JALR, rd=_reg(rd), rs=_reg(rs)))

    def nop(self) -> None:
        self.emit(Instruction(Opcode.NOP))

    def halt(self) -> None:
        self.emit(Instruction(Opcode.HALT))

    # Pseudo-instructions.
    def li(self, rd: Reg, value: int) -> None:
        """Load a 32-bit constant (1 or 2 instructions)."""
        value &= 0xFFFFFFFF
        signed = value - 0x1_0000_0000 if value & 0x8000_0000 else value
        if -(1 << 15) <= signed < (1 << 15):
            self.addi(rd, "$zero", signed)
            return
        self.lui(rd, value >> 16)
        if value & 0xFFFF:
            self.ori(rd, rd, value & 0xFFFF)

    def la(self, rd: Reg, label: str) -> None:
        """Load the address of a (data or text) label."""
        self.emit(Instruction(Opcode.LUI, rd=_reg(rd), target_label="hi:" + label))
        self.emit(Instruction(Opcode.ORI, rd=_reg(rd), rs=_reg(rd), target_label="lo:" + label))

    def move(self, rd: Reg, rs: Reg) -> None:
        self.add(rd, rs, "$zero")

    def b(self, label: str) -> None:
        self.beq("$zero", "$zero", label)

    def beqz(self, rs: Reg, label: str) -> None:
        self.beq(rs, "$zero", label)

    def bnez(self, rs: Reg, label: str) -> None:
        self.bne(rs, "$zero", label)

    def blt(self, rs: Reg, rt: Reg, label: str) -> None:
        self.slt("$at", rs, rt)
        self.bnez("$at", label)

    def bge(self, rs: Reg, rt: Reg, label: str) -> None:
        self.slt("$at", rs, rt)
        self.beqz("$at", label)

    def bgt(self, rs: Reg, rt: Reg, label: str) -> None:
        self.blt(rt, rs, label)

    def ble(self, rs: Reg, rt: Reg, label: str) -> None:
        self.bge(rt, rs, label)

    # -- build --------------------------------------------------------------

    def build(self, entry: str = "main") -> Program:
        """Resolve all labels and freeze the program."""
        labels = dict(self._labels)
        for name, index in self._text_labels.items():
            labels[name] = self._text_base + 4 * index

        resolved: List[Instruction] = []
        for index, instr in enumerate(self._instrs):
            if instr.target_label is None:
                resolved.append(instr)
                continue
            ref = instr.target_label
            if ref.startswith("hi:") or ref.startswith("lo:"):
                kind, name = ref.split(":", 1)
                addr = labels.get(name)
                if addr is None:
                    raise AssemblerError("unresolved label %r" % (name,))
                imm = (addr >> 16) & 0xFFFF if kind == "hi" else addr & 0xFFFF
                resolved.append(dataclasses.replace(
                    instr, imm=imm, target_label=name))
                continue
            addr = labels.get(ref)
            if addr is None:
                raise AssemblerError("unresolved label %r" % (ref,))
            resolved.append(dataclasses.replace(instr, target=addr))

        if entry in labels:
            entry_pc = labels[entry]
        elif not resolved:
            raise AssemblerError("empty program")
        else:
            entry_pc = self._text_base

        return Program(
            instructions=tuple(resolved),
            data=bytes(self._data),
            labels=labels,
            text_base=self._text_base,
            data_base=self._data_base,
            entry=entry_pc,
        )


# ---------------------------------------------------------------------------
# Text assembler front end.
# ---------------------------------------------------------------------------

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.$]*):\s*(.*)$")
_MEMOP_RE = re.compile(r"^(-?\w+)\(([^)]+)\)$")

_THREE_REG = {
    "add", "sub", "and", "or", "xor", "nor", "slt", "sltu", "sllv", "srlv",
    "srav", "mul", "mulh", "div", "rem", "fadd", "fsub", "fmul", "fdiv",
}
_TWO_REG_IMM = {"addi", "andi", "ori", "xori", "slti", "sltiu",
                "sll", "srl", "sra"}
_LOADS = {"lw", "lh", "lhu", "lb", "lbu"}
_STORES = {"sw", "sh", "sb"}
_BRANCH2 = {"beq", "bne", "blt", "bge", "bgt", "ble"}
_BRANCH1 = {"blez", "bgtz", "bltz", "bgez", "beqz", "bnez"}
# Operand count of every fixed-form mnemonic (jalr takes one or two).
_OPERAND_COUNTS = {
    **dict.fromkeys(_THREE_REG | _TWO_REG_IMM | _BRANCH2, 3),
    **dict.fromkeys(_LOADS | _STORES | _BRANCH1 | {"lui", "li", "la", "move"},
                    2),
    **dict.fromkeys(("b", "j", "jal", "jr"), 1),
    **dict.fromkeys(("nop", "halt"), 0),
}


def _parse_int(text: str) -> int:
    return int(text, 0)


def assemble(source: str, entry: str = "main") -> Program:
    """Assemble text ``source`` into a :class:`Program`."""
    builder = ProgramBuilder()
    in_data = False

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        match = _LABEL_RE.match(line)
        if match:
            name, line = match.group(1), match.group(2).strip()
            if in_data:
                builder.data_label(name)
            else:
                builder.label(name)
            if not line:
                continue

        try:
            if line.startswith("."):
                in_data = _directive(builder, line, in_data)
            else:
                _instruction(builder, line)
        except (AssemblerError, ValueError) as exc:
            raise AssemblerError("line %d: %s (%r)" % (lineno, exc, raw.strip()))

    return builder.build(entry=entry)


def _directive(builder: ProgramBuilder, line: str, in_data: bool) -> bool:
    parts = line.split(None, 1)
    name = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if name == ".data":
        return True
    if name == ".text":
        return False
    if name == ".word":
        builder.word(*[_parse_int(v) for v in rest.split(",")])
    elif name == ".half":
        builder.half(*[_parse_int(v) for v in rest.split(",")])
    elif name == ".byte":
        builder.byte(*[_parse_int(v) for v in rest.split(",")])
    elif name == ".space":
        builder.space(_parse_int(rest))
    elif name == ".align":
        builder.align(_parse_int(rest))
    else:
        raise AssemblerError("unknown directive %s" % name)
    return in_data


def _instruction(builder: ProgramBuilder, line: str) -> None:
    parts = line.split(None, 1)
    mnem = parts[0].lower()
    operands = [p.strip() for p in parts[1].split(",")] if len(parts) > 1 else []
    expected = _OPERAND_COUNTS.get(mnem)
    if expected is not None and len(operands) != expected:
        raise AssemblerError("%s takes %d operand%s, got %d" % (
            mnem, expected, "" if expected == 1 else "s", len(operands)))

    if mnem in _THREE_REG:
        method = {"and": "and_", "or": "or_"}.get(mnem, mnem)
        getattr(builder, method)(operands[0], operands[1], operands[2])
    elif mnem in _TWO_REG_IMM:
        getattr(builder, mnem)(operands[0], operands[1], _parse_int(operands[2]))
    elif mnem == "lui":
        builder.lui(operands[0], _parse_int(operands[1]))
    elif mnem in _LOADS or mnem in _STORES:
        match = _MEMOP_RE.match(operands[1])
        if not match:
            raise AssemblerError("malformed memory operand %r" % operands[1])
        getattr(builder, mnem)(operands[0], _parse_int(match.group(1)),
                               match.group(2))
    elif mnem in _BRANCH2:
        getattr(builder, mnem)(operands[0], operands[1], operands[2])
    elif mnem in _BRANCH1:
        getattr(builder, mnem)(operands[0], operands[1])
    elif mnem == "b":
        builder.b(operands[0])
    elif mnem == "j":
        builder.j(operands[0])
    elif mnem == "jal":
        builder.jal(operands[0])
    elif mnem == "jr":
        builder.jr(operands[0])
    elif mnem == "jalr":
        # MIPS forms: ``jalr rs`` links $ra, ``jalr rd, rs`` links rd.
        if len(operands) == 1:
            builder.jalr(operands[0])
        elif len(operands) == 2:
            builder.jalr(operands[1], rd=operands[0])
        else:
            raise AssemblerError("jalr takes 1 or 2 operands (rs or rd, rs), "
                                 "got %d" % len(operands))
    elif mnem == "li":
        builder.li(operands[0], _parse_int(operands[1]))
    elif mnem == "la":
        builder.la(operands[0], operands[1])
    elif mnem == "move":
        builder.move(operands[0], operands[1])
    elif mnem == "nop":
        builder.nop()
    elif mnem == "halt":
        builder.halt()
    else:
        raise AssemblerError("unknown mnemonic %r" % mnem)
