"""Dynamic instruction traces and oracle memory-dependence annotation.

The functional CPU records one :class:`TraceEntry` per retired instruction
(into the columns of a :class:`~repro.kernel.tracestore.PackedTrace`, which
materialises entries on demand).
Each dynamic load additionally carries its *oracle dependence*: the dynamic
index of the youngest store that wrote any byte the load reads, and whether
that single store covers the whole loaded region.  The timing simulator uses
this ground truth for the Perfect model and for exact violation detection
(including silent stores, which are detected by value comparison at
re-execution time, exactly as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

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


def trace_summary(entries: Sequence[TraceEntry]) -> Dict[str, int]:
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
