"""The fuzz oracle stack: three independent correctness checks per program.

Every generated program runs once through the :class:`FunctionalCpu`
reference interpreter and then through the cycle-level timing simulator,
and must satisfy:

1. **functional-arch** -- under every model, the tracked architectural
   state (``track_arch_state=True``: registers consume the load values the
   *pipeline* obtained through forwarding/predication/re-execution, memory
   evolves through commit) is identical to the functional CPU's final
   registers and memory image;
2. **cross-model** -- all models agree with each other on final
   architectural state (a defense-in-depth net under oracle 1);
3. **reference-stats** -- re-simulating with cycle skipping off yields
   byte-identical :class:`~repro.uarch.SimStats` to the cycle-skipping
   run, over one :class:`~repro.kernel.tracestore.PackedTrace`.  The
   first model's cycle-skipping run builds the trace's precompute bundle
   and every later run shares it; all of them read the same packed
   columns and bundle tables, so the comparison checks cycle-skipping
   exactness.

A divergence is reported as a :class:`Divergence` record; the set of
records hashes to a stable :attr:`CheckReport.signature` so a minimized
reproducer can be replayed and matched ("same divergence").

``MUTATIONS`` holds *test-only* trace corruptions (selected via the
campaign's ``mutation`` option) that emulate real bug classes -- e.g. a
silent-store annotation writing a wrong value -- so the catch -> minimize
-> replay path itself stays tested end-to-end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..kernel import FunctionalCpu
from ..kernel.trace import TraceEntry
from ..kernel.tracestore import PackedTrace
from ..uarch import ALL_MODELS, Tssbf, model_params
from ..uarch.pipeline import SimulationError, Simulator

MAX_FUZZ_INSTRUCTIONS = 200_000

# A poisoned trace can livelock the pipeline (endless squash/re-execute),
# so every oracle run gets a cycle budget proportional to the trace; a
# healthy run retires well under ~10 cycles/instruction, so 64x is pure
# headroom and exhaustion is itself reported as a divergence.
_CYCLES_PER_INSTRUCTION = 64
_MIN_CYCLE_BUDGET = 100_000


@dataclass(frozen=True)
class Divergence:
    """One oracle violation for one model."""

    oracle: str          # functional-arch | cross-model | reference-stats
    model: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "model": self.model,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Divergence":
        return cls(oracle=data["oracle"], model=data["model"],
                   detail=data["detail"])


@dataclass
class CheckReport:
    """Outcome of running the full oracle stack on one program."""

    divergences: List[Divergence] = field(default_factory=list)
    static_instructions: int = 0
    dynamic_instructions: int = 0
    pathology: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def signature(self) -> Optional[str]:
        """Stable identity of this divergence set (None when clean)."""
        if not self.divergences:
            return None
        text = "\n".join(sorted("%s|%s|%s" % (d.oracle, d.model, d.detail)
                                for d in self.divergences))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def coarse_signature(self) -> Optional[str]:
        """Identity of *which* oracles broke under *which* models, ignoring
        the value-level detail.  Details (register contents, cycle budgets)
        legitimately change as the minimizer shrinks a program; this is the
        invariant the shrink must preserve."""
        if not self.divergences:
            return None
        pairs = sorted({"%s|%s" % (d.oracle, d.model)
                        for d in self.divergences})
        return hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {"divergences": [d.to_dict() for d in self.divergences],
                "static_instructions": self.static_instructions,
                "dynamic_instructions": self.dynamic_instructions,
                "pathology": dict(self.pathology)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CheckReport":
        return cls(
            divergences=[Divergence.from_dict(d)
                         for d in data.get("divergences", [])],
            static_instructions=int(data.get("static_instructions", 0)),
            dynamic_instructions=int(data.get("dynamic_instructions", 0)),
            pathology=dict(data.get("pathology", {})))


# -- test-only trace mutations ----------------------------------------------

def _mutate_silent_store_value(entries: List[TraceEntry]) -> None:
    """Corrupt every silent store's value (emulates a broken silent-store
    annotation: the entry still claims silence but writes a new value)."""
    for entry in entries:
        if entry.is_store and entry.silent:
            mask = (1 << (8 * entry.mem_size)) - 1
            entry.value = (entry.value + 1) & mask


def _mutate_store_addr(entries: List[TraceEntry]) -> None:
    """Shift the first store one word over (emulates an AGU/encoding bug);
    the dependence annotations are left stale on purpose."""
    for entry in entries:
        if entry.is_store:
            entry.mem_addr = entry.mem_addr ^ 4
            entry.word_addr = entry.mem_addr & ~0x3
            break


MUTATIONS: Dict[str, Callable[[List[TraceEntry]], None]] = {
    "silent-store-value": _mutate_silent_store_value,
    "store-addr": _mutate_store_addr,
}


# -- the oracle stack --------------------------------------------------------

def _regs_detail(got: List[int], ref: List[int]) -> Optional[str]:
    diff = [(r, got[r], ref[r]) for r in range(1, 32) if got[r] != ref[r]]
    if not diff:
        return None
    parts = ["r%d=0x%x!=0x%x" % entry for entry in diff[:4]]
    if len(diff) > 4:
        parts.append("(+%d more)" % (len(diff) - 4))
    return "registers: " + " ".join(parts)


def _mem_detail(got: Dict[int, bytes], ref: Dict[int, bytes]
                ) -> Optional[str]:
    pages = sorted(set(got) ^ set(ref)
                   | {p for p in set(got) & set(ref) if got[p] != ref[p]})
    if not pages:
        return None
    page = pages[0]
    a, b = got.get(page, b""), ref.get(page, b"")
    byte = next((i for i in range(min(len(a), len(b))) if a[i] != b[i]),
                min(len(a), len(b)))
    return ("memory: %d differing page(s); first at 0x%x"
            % (len(pages), (page << 12) + byte))


def _observe_every_cycle(sim) -> None:
    """A no-op tick hook: ``Simulator.run`` skips no cycle while one is
    set, which makes the run the skip-off reference."""


def check_program(program, models=ALL_MODELS, mutation: Optional[str] = None,
                  max_instructions: int = MAX_FUZZ_INSTRUCTIONS
                  ) -> CheckReport:
    """Run one program through the full oracle stack.

    ``mutation`` names a test-only trace corruption from ``MUTATIONS``
    applied between the functional run and the timing runs, so the
    reference state stays honest while the simulators consume a poisoned
    trace -- a deterministic stand-in for a real simulator bug.
    """
    cpu = FunctionalCpu(program)
    trace = cpu.run_trace(max_instructions=max_instructions)
    ref_regs = list(cpu.regs)
    ref_mem = cpu.memory.snapshot()
    if mutation is not None:
        try:
            mutate = MUTATIONS[mutation]
        except KeyError:
            raise ValueError("unknown mutation %r (choose from %s)"
                             % (mutation, ", ".join(sorted(MUTATIONS)))
                             ) from None
        # Packed views are copies: mutate a list, then pack it again.
        entries = list(trace)
        mutate(entries)
        trace = PackedTrace.from_entries(program, entries)

    report = CheckReport(static_instructions=len(program.instructions),
                         dynamic_instructions=len(trace),
                         pathology=trace_pathology_stats(trace))
    budget = max(_MIN_CYCLE_BUDGET, _CYCLES_PER_INSTRUCTION * len(trace))
    snapshots = {}
    stats_by_model = {}
    for model in models:
        sim = Simulator(program, trace, model_params(model),
                        track_arch_state=True)
        try:
            stats_by_model[model] = sim.run(max_cycles=budget)
        except SimulationError as exc:
            report.divergences.append(Divergence(
                "functional-arch", model.value,
                "hang: %d-cycle budget exhausted (%s)" % (budget, exc)))
            continue
        got_regs = sim.architectural_registers()
        got_mem = sim.timing_mem.snapshot()
        snapshots[model] = (got_regs, got_mem)
        for detail in (_regs_detail(got_regs, ref_regs),
                       _mem_detail(got_mem, ref_mem)):
            if detail is not None:
                report.divergences.append(
                    Divergence("functional-arch", model.value, detail))

    reference = models[0]
    for model in models[1:]:
        if (model in snapshots and reference in snapshots
                and snapshots[model] != snapshots[reference]):
            report.divergences.append(Divergence(
                "cross-model", model.value,
                "final architectural state differs from %s"
                % reference.value))

    for model in models:
        if model not in stats_by_model:
            continue  # already reported as a hang above
        sim = Simulator(program, trace, model_params(model))
        sim.tick_hook = _observe_every_cycle
        try:
            reference_stats = sim.run(max_cycles=budget)
        except SimulationError as exc:
            report.divergences.append(Divergence(
                "reference-stats", model.value,
                "hang: %d-cycle budget exhausted (%s)" % (budget, exc)))
            continue
        skip_on = stats_by_model[model].to_dict()
        skip_off = reference_stats.to_dict()
        if skip_off != skip_on:
            keys = sorted(k for k in set(skip_on) | set(skip_off)
                          if skip_on.get(k) != skip_off.get(k))
            report.divergences.append(Divergence(
                "reference-stats", model.value,
                "SimStats differ for: " + ", ".join(keys[:6])))
    return report


def check_ir(ir: Dict[str, object], models=ALL_MODELS,
             mutation: Optional[str] = None,
             max_instructions: int = MAX_FUZZ_INSTRUCTIONS) -> CheckReport:
    """Materialize an IR dict and run the oracle stack on it.

    A crash anywhere in the stack (assembler, functional CPU, simulator)
    is itself a reportable outcome -- the minimizer must be able to chase
    a crash signature the same way it chases a state divergence -- so it
    becomes a ``crash`` divergence instead of propagating.
    """
    from .generator import materialize
    try:
        program = materialize(ir)
        return check_program(program, models=models, mutation=mutation,
                             max_instructions=max_instructions)
    except Exception as exc:  # noqa: BLE001 -- any crash is the finding
        report = CheckReport()
        report.divergences.append(Divergence(
            "crash", "-", "%s: %s" % (type(exc).__name__, exc)))
        return report


# -- pathology distribution analysis ----------------------------------------

def trace_pathology_stats(entries: Sequence[TraceEntry]
                          ) -> Dict[str, float]:
    """Distribution facts about one dynamic trace, used by the profile
    rot tests and surfaced in campaign reports: how much of the intended
    pathology did a program actually exercise?"""
    loads = stores = silent = colliding = partial = 0
    chased = 0
    load_addrs = set()
    for entry in entries:
        if entry.is_load:
            loads += 1
            if entry.dep_store is not None:
                colliding += 1
                if not entry.dep_covers:
                    partial += 1
            load_addrs.add(entry.mem_addr)
        elif entry.is_store:
            stores += 1
            if entry.silent:
                silent += 1
            if entry.mem_size == 4:
                # A stored value that is itself a loaded address marks a
                # pointer-chase hop (load feeds a later load's address).
                if entry.value in load_addrs:
                    chased += 1
    return {
        "loads": float(loads),
        "stores": float(stores),
        "colliding_load_fraction": colliding / loads if loads else 0.0,
        "partial_overlap_fraction": partial / loads if loads else 0.0,
        "silent_store_fraction": silent / stores if stores else 0.0,
        "chased_pointer_stores": float(chased),
    }


def tssbf_alias_stats(entries: Sequence[TraceEntry],
                      filter_entries: int = 128, assoc: int = 4,
                      tag_bits: int = 25) -> Dict[str, float]:
    """How hard a trace's addresses stress the T-SSBF: distinct tags per
    set index, computed with the filter's own hash so the tag-alias
    profile cannot silently drift away from the real structure."""
    probe = Tssbf(entries=filter_entries, assoc=assoc, tag_bits=tag_bits)
    tags_by_set: Dict[int, set] = {}
    for entry in entries:
        if entry.mem_addr is None:
            continue
        index, tag = probe._index_and_tag(entry.word_addr)
        tags_by_set.setdefault(index, set()).add(tag)
    if not tags_by_set:
        return {"sets_touched": 0.0, "aliased_sets": 0.0,
                "max_tags_per_set": 0.0, "aliased_set_fraction": 0.0}
    aliased = sum(1 for tags in tags_by_set.values() if len(tags) > 1)
    return {
        "sets_touched": float(len(tags_by_set)),
        "aliased_sets": float(aliased),
        "max_tags_per_set": float(max(len(t) for t in
                                      tags_by_set.values())),
        "aliased_set_fraction": aliased / len(tags_by_set),
    }


__all__ = [
    "CheckReport", "Divergence", "MAX_FUZZ_INSTRUCTIONS", "MUTATIONS",
    "check_ir", "check_program", "trace_pathology_stats",
    "tssbf_alias_stats",
]
