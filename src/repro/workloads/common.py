"""Shared infrastructure for the synthetic SPEC 2006 stand-in kernels.

Each kernel is a small assembly program engineered to exhibit one paper
benchmark's store->load dependence *signature* -- the never/always/
occasionally-colliding (NC/AC/OC) mix, store-distance stability, silent
store rate, partial-word traffic, and cache footprint that drive every
experiment in the paper (see DESIGN.md, substitutions table).

A :class:`WorkloadSpec` couples the builder with its suite (INT/FP) and a
human-readable description of the signature it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..isa import Program, ProgramBuilder


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload kernel."""

    name: str
    suite: str                      # "int" or "fp"
    builder: Callable[[int], Program]
    description: str
    default_scale: int = 1000

    def build(self, scale: int = None) -> Program:
        """Assemble the kernel; ``scale`` roughly controls iteration count."""
        return self.builder(self.default_scale if scale is None else scale)

    def iterations(self, scale: Optional[float] = None) -> int:
        """The iteration count ``repro --scale`` builds: ``default_scale``
        times ``scale``, rounded, at least 1 (None keeps the default)."""
        if scale is None:
            return self.default_scale
        return max(1, int(round(self.default_scale * scale)))


def lcg_sequence(n: int, modulus: int, seed: int = 12345,
                 a: int = 1103515245, c: int = 12345) -> List[int]:
    """Deterministic pseudo-random sequence in ``[0, modulus)``.

    A plain LCG keeps the workloads reproducible without depending on
    Python's RNG implementation details.
    """
    values = []
    state = seed & 0x7FFFFFFF
    for _ in range(n):
        state = (a * state + c) & 0x7FFFFFFF
        values.append((state >> 8) % modulus)
    return values


def zipf_like(n: int, modulus: int, seed: int = 999,
              hot_fraction: float = 0.125,
              hot_probability: float = 0.7) -> List[int]:
    """Skewed index stream: a small hot set receives most accesses.

    Produces the occasionally-colliding behaviour of pointer-update loops
    (paper Fig. 1): repeated indices collide, the rest do not.
    """
    hot_count = max(1, int(modulus * hot_fraction))
    raw = lcg_sequence(2 * n, 1000, seed)
    hots = lcg_sequence(n, hot_count, seed ^ 0x5A5A)
    colds = lcg_sequence(n, modulus, seed ^ 0xC3C3)
    out = []
    for i in range(n):
        if raw[2 * i] < int(1000 * hot_probability):
            out.append(hots[i])
        else:
            out.append(colds[i])
    return out


def emit_word_table(b: ProgramBuilder, label: str,
                    values: List[int]) -> None:
    """Emit a word array into the data segment."""
    b.data_label(label)
    b.word(*values)


def emit_half_table(b: ProgramBuilder, label: str,
                    values: List[int]) -> None:
    b.align(4)
    b.data_label(label)
    b.half(*values)


def end_counted_loop(b: ProgramBuilder, label: str, count_reg: str,
                     limit_reg: str) -> None:
    b.addi(count_reg, count_reg, 1)
    b.blt(count_reg, limit_reg, label)


def finish(b: ProgramBuilder) -> Program:
    b.halt()
    return b.build()
