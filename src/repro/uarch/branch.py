"""Front-end branch prediction: gshare direction predictor + BTB + RAS.

Trace-driven use: the pipeline asks for a prediction for each control
instruction on the committed path and compares it with the trace outcome; a
wrong prediction stalls fetch until the branch resolves (DESIGN.md §3).
"""

from __future__ import annotations

from typing import Optional

from ..isa import Instruction, Opcode

# Bound at import (DESIGN.md section 9): a class-level enum lookup runs
# the metaclass's attribute hook on every call.
J, JAL, JR, JALR = Opcode.J, Opcode.JAL, Opcode.JR, Opcode.JALR


class GShare:
    """Classic gshare: 2-bit counters indexed by PC xor global history."""

    def __init__(self, table_bits: int = 14):
        self.table_bits = table_bits
        self.mask = (1 << table_bits) - 1
        self.counters = bytearray([2] * (1 << table_bits))  # weakly taken
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) & self.mask


class Btb:
    """Direct-mapped branch target buffer with tags."""

    def __init__(self, entries: int = 2048):
        self.entries = entries
        self.mask = entries - 1
        self.tags = [None] * entries
        self.targets = [0] * entries

    def lookup(self, pc: int) -> Optional[int]:
        index = (pc >> 2) & self.mask
        if self.tags[index] == pc:
            return self.targets[index]
        return None

    def update(self, pc: int, target: int) -> None:
        index = (pc >> 2) & self.mask
        self.tags[index] = pc
        self.targets[index] = target


class ReturnAddressStack:
    """Small RAS for JAL/JR pairs."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self.stack = []

    def push(self, return_pc: int) -> None:
        if len(self.stack) >= self.depth:
            self.stack.pop(0)
        self.stack.append(return_pc)

    def pop(self) -> Optional[int]:
        return self.stack.pop() if self.stack else None


class BranchPredictor:
    """Combined front-end predictor; returns whether the trace outcome
    (direction *and* target) was predicted correctly."""

    def __init__(self, table_bits: int = 14, btb_entries: int = 2048,
                 ras_depth: int = 16):
        self.gshare = GShare(table_bits)
        self.btb = Btb(btb_entries)
        self.ras = ReturnAddressStack(ras_depth)

    def predict_and_update(self, pc: int, instr: Instruction,
                           taken: bool, target: int) -> bool:
        """Predict the control instruction at ``pc``; train; return hit."""
        op = instr.op
        if op in (J, JAL):
            # Direct jumps: target known at decode; JAL pushes the RAS.
            if op is JAL:
                self.ras.push(pc + 4)
            return True
        if op in (JR, JALR):
            if op is JALR:
                self.ras.push(pc + 4)
            predicted = self.ras.pop()
            if predicted is None:
                predicted = self.btb.lookup(pc)
            self.btb.update(pc, target)
            return predicted == target
        # Conditional branch: gshare direction + BTB target when taken.
        predicted_taken = self.gshare.predict(pc)
        predicted_target = self.btb.lookup(pc)
        self.gshare.update(pc, taken)
        if taken:
            self.btb.update(pc, target)
        if predicted_taken != taken:
            return False
        if taken and predicted_target != target:
            return False
        return True
