"""Statistics collected by the timing simulator.

The pipeline records *event counts*; energies are derived later by
:mod:`repro.energy` from the event counts and :class:`EnergyParams`, so the
timing model stays decoupled from the power model (as McPAT is from the
performance simulator in the paper's methodology).
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional


class StatCounter(Counter):
    """A :class:`Counter` whose item assignment runs at dict speed.

    ``Counter`` defines ``__delitem__`` in Python, and CPython keeps
    ``__setitem__`` and ``__delitem__`` in one type slot, so every
    ``c[k] += n`` on a ``Counter`` goes through a Python-level slot
    wrapper, about twice a plain dict's cost on CPython 3.11 (DESIGN.md
    section 9).  Taking dict's ``__delitem__`` back restores the C slot.
    Everything else -- the ``Counter`` API, pickling, first-insertion
    order -- is unchanged; only ``del c[missing]`` now raises
    ``KeyError``.
    """

    __delitem__ = dict.__delitem__


class LoadKind(enum.Enum):
    """How a load obtained its value (paper Fig. 2 terminology)."""

    # Identity hashing: per-retired-load Counter updates are hot in the
    # timing simulator (enum equality is identity anyway).
    __hash__ = object.__hash__

    DIRECT = "direct"        # read straight from the cache
    BYPASS = "bypass"        # memory cloaking (reused store data register)
    DELAYED = "delayed"      # NoSQ: waited for the colliding store to commit
    PREDICATED = "predicated"  # DMDP: CMP/CMOV selected store or cache data
    FORWARDED = "forwarded"  # baseline: store-queue forwarding


class LowConfOutcome(enum.Enum):
    """Outcome classes for low-confidence predicted loads (paper Fig. 5)."""

    INDEP_STORE = "IndepStore"  # predicted dependent, actually independent
    DIFF_STORE = "DiffStore"    # dependent on a *different* in-flight store
    CORRECT = "Correct"         # prediction was right


class SquashCause(enum.Enum):
    """Why the front end restarted / in-flight work was thrown away.

    ``MEM_DEP_VIOLATION`` counts full-pipeline flushes (everything younger
    than the violating load dies and is refetched).  ``BRANCH_MISPREDICT``
    counts resolved branch redirects: the trace-driven front end never
    fetches the wrong path, so the discarded work is the fetch bubble
    rather than ROB entries, but each event still pays the refill penalty
    and is accounted separately so the two recovery mechanisms can be told
    apart in any model's statistics.
    """

    __hash__ = object.__hash__

    BRANCH_MISPREDICT = "branch_mispredict"
    MEM_DEP_VIOLATION = "mem_dep_violation"


@dataclass
class SimStats:
    """Mutable accumulator for one simulation run."""

    cycles: int = 0
    instructions: int = 0
    uops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0

    # Load classification and latency (cycles from rename to value ready,
    # clamped at zero as in the paper's Section II definition).
    load_kind: Counter = field(default_factory=StatCounter)
    # kind -> cycles
    load_exec_time: Counter = field(default_factory=StatCounter)
    load_exec_time_total: int = 0
    insn_exec_time_total: int = 0

    # Low-confidence load tracking (Fig. 5, Table V).
    lowconf_loads: int = 0
    lowconf_outcome: Counter = field(default_factory=StatCounter)
    lowconf_exec_time_total: int = 0

    # Memory dependence machinery.
    dep_predictions: int = 0            # loads predicted dependent
    dep_mispredictions: int = 0         # full-recovery violations
    # Squash/redirect accounting by cause (SquashCause -> count).
    squash_causes: Counter = field(default_factory=StatCounter)
    reexecutions: int = 0
    reexec_stall_cycles: int = 0
    sb_full_stall_cycles: int = 0
    cloaked_loads: int = 0
    predicated_loads: int = 0
    delayed_loads: int = 0
    silent_reexecutions: int = 0

    # Cache behaviour.
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    # Raw energy events: name -> count (names match EnergyParams fields).
    energy_events: Counter = field(default_factory=StatCounter)

    # -- event helpers ------------------------------------------------------

    def energy_event(self, name: str, count: int = 1) -> None:
        self.energy_events[name] += count

    def record_load(self, kind: LoadKind, exec_time: int,
                    low_confidence: bool = False) -> None:
        exec_time = max(0, exec_time)
        self.loads += 1
        self.load_kind[kind] += 1
        self.load_exec_time[kind] += exec_time
        self.load_exec_time_total += exec_time
        if low_confidence:
            self.lowconf_loads += 1
            self.lowconf_exec_time_total += exec_time

    # -- derived metrics -----------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def dep_mpki(self) -> float:
        """Memory dependence Mispredictions Per 1k Instructions (Table VI)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.dep_mispredictions / self.instructions

    @property
    def reexec_stalls_per_kilo(self) -> float:
        """Retire-stall cycles per 1k committed instructions (Table VII)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.reexec_stall_cycles / self.instructions

    @property
    def avg_load_exec_time(self) -> float:
        return self.load_exec_time_total / self.loads if self.loads else 0.0

    @property
    def avg_lowconf_exec_time(self) -> float:
        if not self.lowconf_loads:
            return 0.0
        return self.lowconf_exec_time_total / self.lowconf_loads

    def load_distribution(self) -> Dict[str, float]:
        """Fractions of loads by kind (paper Fig. 2)."""
        total = max(1, self.loads)
        return {kind.value: self.load_kind.get(kind, 0) / total
                for kind in LoadKind}

    def avg_load_exec_time_by_kind(self, kind: LoadKind) -> Optional[float]:
        count = self.load_kind.get(kind, 0)
        if not count:
            return None
        return self.load_exec_time.get(kind, 0) / count

    def to_dict(self) -> Dict[str, object]:
        """Complete, JSON-stable image of every counter.

        Counter-valued fields become sorted ``{str: int}`` maps with zero
        entries dropped, so two semantically equal stats objects always
        serialise identically.  The golden-stats equivalence suite pins
        these dicts and asserts byte-identical simulator behaviour across
        performance work on the hot loop.
        """
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counter):
                items = {}
                for key, count in value.items():
                    if not count:
                        continue
                    name = key.value if isinstance(key, enum.Enum) else str(key)
                    items[name] = count
                out[f.name] = dict(sorted(items.items()))
            else:
                out[f.name] = value
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict` (enum keys as ``.value`` strings)."""
        import json
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "dep_mpki": self.dep_mpki,
            "avg_load_exec_time": self.avg_load_exec_time,
            "reexec_stalls_per_kilo": self.reexec_stalls_per_kilo,
            "branch_mispredicts": self.branch_mispredicts,
        }
