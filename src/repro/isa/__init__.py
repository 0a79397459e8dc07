"""MIPS-like instruction set: registers, instructions, assembler."""

from .registers import (
    NUM_ARCH_REGS,
    NUM_LOGICAL_REGS,
    REG_AGI,
    REG_LDTMP,
    REG_PRED,
    RegisterError,
    is_hardware_only,
    parse_register,
    register_name,
)
from .instructions import (
    FuClass,
    Instruction,
    Opcode,
    disassemble,
    fu_class_for,
)
from .assembler import (
    DATA_BASE,
    STACK_TOP,
    TEXT_BASE,
    AssemblerError,
    Program,
    ProgramBuilder,
    assemble,
)

__all__ = [
    "NUM_ARCH_REGS", "NUM_LOGICAL_REGS", "REG_AGI", "REG_LDTMP", "REG_PRED",
    "RegisterError", "is_hardware_only", "parse_register", "register_name",
    "FuClass", "Instruction", "Opcode", "disassemble", "fu_class_for",
    "DATA_BASE", "STACK_TOP", "TEXT_BASE", "AssemblerError", "Program",
    "ProgramBuilder", "assemble",
]
