"""Dynamic instruction traces and oracle memory-dependence annotation.

The functional CPU emits one :class:`TraceEntry` per retired instruction.
Each dynamic load additionally carries its *oracle dependence*: the dynamic
index of the youngest store that wrote any byte the load reads, and whether
that single store covers the whole loaded region.  The timing simulator uses
this ground truth for the Perfect model and for exact violation detection
(including silent stores, which are detected by value comparison at
re-execution time, exactly as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..isa import Instruction

# Runaway guard shared by every tracing entry point (functional CPU,
# ExperimentRunner.trace, models.trace_program, tools).  One constant so a
# workload that traces fine in one harness cannot blow the cap in another.
MAX_TRACE_INSTRUCTIONS = 10_000_000


@dataclass
class TraceEntry:
    """One dynamically executed instruction."""

    __slots__ = (
        "index", "pc", "instr", "next_pc", "taken",
        "mem_addr", "mem_size", "value", "dep_store", "dep_covers",
        "silent", "word_addr", "bab",
    )

    index: int                 # dynamic instruction number, 0-based
    pc: int
    instr: Instruction
    next_pc: int
    taken: bool                # control-flow: was the branch/jump taken
    mem_addr: Optional[int]    # effective byte address (memory ops)
    mem_size: Optional[int]    # access size in bytes
    value: Optional[int]       # loaded value / stored value (unsigned, sized)
    dep_store: Optional[int]   # dynamic index of youngest producing store
    dep_covers: bool           # that store wrote every byte the load reads
    silent: bool               # store only: wrote the value already present
    word_addr: int             # word-aligned address (T-SSBF granularity)
    bab: int                   # Byte Access Bits (paper Section IV-D)

    @property
    def is_load(self) -> bool:
        return self.instr.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.is_store

    @property
    def is_mem(self) -> bool:
        return self.instr.is_mem


class TraceRecorder:
    """Accumulates TraceEntries and tracks per-byte last writers.

    ``_last_writer`` maps byte address -> dynamic index of the last store
    that wrote it, which yields the oracle dependence annotation.
    """

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []
        self._last_writer: Dict[int, int] = {}

    def record(self, pc: int, instr: Instruction, next_pc: int, taken: bool,
               mem_addr: Optional[int] = None, mem_size: Optional[int] = None,
               value: Optional[int] = None, silent: bool = False) -> None:
        index = len(self.entries)
        dep_store: Optional[int] = None
        dep_covers = False

        if instr.is_load and mem_addr is not None:
            writers = [self._last_writer.get(mem_addr + i)
                       for i in range(mem_size or 0)]
            known = [w for w in writers if w is not None]
            if known:
                dep_store = max(known)
                dep_covers = all(w == dep_store for w in writers)
        elif instr.is_store and mem_addr is not None:
            for i in range(mem_size or 0):
                self._last_writer[mem_addr + i] = index

        word_addr = (mem_addr or 0) & ~0x3
        bab = ((1 << (mem_size or 0)) - 1) << ((mem_addr or 0) & 0x3)
        # Positional, in field order (index, pc, instr, next_pc, taken,
        # mem_addr, mem_size, value, dep_store, dep_covers, silent,
        # word_addr, bab, pinned by tests/test_tracestore.py): a keyword
        # call costs about three times as much.
        self.entries.append(TraceEntry(
            index, pc, instr, next_pc, taken, mem_addr, mem_size, value,
            dep_store, dep_covers, silent, word_addr, bab))

    def __len__(self) -> int:
        return len(self.entries)


def trace_summary(entries: List[TraceEntry]) -> Dict[str, int]:
    """Basic mix statistics over a trace (used in tests and examples)."""
    loads = sum(1 for e in entries if e.is_load)
    stores = sum(1 for e in entries if e.is_store)
    branches = sum(1 for e in entries if e.instr.is_control)
    dependent_loads = sum(1 for e in entries
                          if e.is_load and e.dep_store is not None)
    silent_stores = sum(1 for e in entries if e.is_store and e.silent)
    return {
        "instructions": len(entries),
        "loads": loads,
        "stores": stores,
        "branches": branches,
        "dependent_loads": dependent_loads,
        "silent_stores": silent_stores,
    }
