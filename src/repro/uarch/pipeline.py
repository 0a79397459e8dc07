"""Cycle-level out-of-order timing simulator.

Consumes a committed-path dynamic trace (from :mod:`repro.kernel`) and
models an 8-wide superscalar pipeline -- fetch, decode/crack, rename,
dispatch, issue, execute, writeback, retire, and store commit -- with the
store-load communication machinery of the four evaluated models
(paper Section V):

* **BASELINE** -- unlimited store queue / load queue, Store Sets dependence
  prediction, 4-cycle constant SQ/SB search, store buffer.
* **NOSQ** -- store-queue-free: memory cloaking for confident dependences,
  *delayed* execution for low-confidence ones, SVW + T-SSBF verification.
* **DMDP** -- as NoSQ, but low-confidence loads are *predicated* with
  CMP/CMOV MicroOps and the biased confidence update (the contribution).
* **PERFECT** -- oracle memory dependence, no verification.

Correctness events are exact: a load's obtained value is compared against
the architectural value (so silent stores behave exactly as in the paper),
and violations trigger a full squash with refetch.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..isa import FuClass, Instruction, Opcode, Program, STACK_TOP
from ..isa.instructions import SIGNED_LOADS
from ..isa.registers import (NUM_ARCH_REGS, NUM_LOGICAL_REGS, REG_AGI,
                             REG_LDTMP, REG_PRED)
from ..kernel.cpu import ALU_SEMANTICS, WORD_MASK, sign_extend
from ..kernel.memory import SparseMemory
from ..kernel.precompute import TracePrecompute, bpred_signature
from ..kernel.tracestore import NO_DEP, pack_trace
from ..obs.tracer import PipelineTracer
from .cachesim import MemoryHierarchy
from .distance_predictor import StoreDistancePredictor
from .params import CoreParams, ModelKind
from .regfile import PhysRegFile, RegfileError
from .ssn import SsnState
from .stats import LoadKind, LowConfOutcome, SimStats, SquashCause
from .storebuffer import StoreBuffer
from .storesets import StoreSets
from .tage_predictor import TageDistancePredictor
from .tlb import Tlb
from .tssbf import Tssbf, UntaggedSsbf
from .uops import DynInstr, LoadInfo, StoreInfo, Uop, UopKind, UopState

# Enum members bound to module names once, at import (DESIGN.md section
# 9).  On CPython 3.11 a class-level lookup such as ``UopKind.LOAD`` runs
# EnumType.__getattr__ through a slot wrapper, several times the cost of
# a global name load, and cProfile books that time to the caller.
BASELINE, NOSQ, DMDP, PERFECT = (ModelKind.BASELINE, ModelKind.NOSQ,
                                 ModelKind.DMDP, ModelKind.PERFECT)
(UOP_ALU, UOP_BRANCH, UOP_AGI, UOP_LOAD, UOP_STORE, UOP_CMP, UOP_CMOV,
 UOP_SHIFTMASK) = (UopKind.ALU, UopKind.BRANCH, UopKind.AGI, UopKind.LOAD,
                   UopKind.STORE, UopKind.CMP, UopKind.CMOV,
                   UopKind.SHIFTMASK)
WAITING, READY, ISSUED, DONE = (UopState.WAITING, UopState.READY,
                                UopState.ISSUED, UopState.DONE)
DIRECT, BYPASS, DELAYED, PREDICATED, FORWARDED = (
    LoadKind.DIRECT, LoadKind.BYPASS, LoadKind.DELAYED, LoadKind.PREDICATED,
    LoadKind.FORWARDED)
INDEP_STORE, DIFF_STORE, CORRECT = (LowConfOutcome.INDEP_STORE,
                                    LowConfOutcome.DIFF_STORE,
                                    LowConfOutcome.CORRECT)
BRANCH_MISPREDICT, MEM_DEP_VIOLATION = (SquashCause.BRANCH_MISPREDICT,
                                        SquashCause.MEM_DEP_VIOLATION)
FU_ALU, FU_MUL, FU_FP, FU_BRANCH, FU_AGEN, FU_MEM, FU_NONE = (
    FuClass.ALU, FuClass.MUL, FuClass.FP, FuClass.BRANCH, FuClass.AGEN,
    FuClass.MEM, FuClass.NONE)
JAL, JALR = Opcode.JAL, Opcode.JALR

# How a committed instruction forms the value of its architectural
# destination (``_Decoded.arch_kind``).
ARCH_LOAD, ARCH_LINK, ARCH_ALU = 1, 2, 3

_FU_ENERGY = {
    FU_ALU: "alu_op",
    FU_MUL: "mul_op",
    FU_FP: "fp_op",
    FU_BRANCH: "branch_op",
    FU_AGEN: "agen_op",
    FU_MEM: None,  # charged through the cache hierarchy
    FU_NONE: None,
}


class SimulationError(Exception):
    """Raised when the timing model reaches an inconsistent state."""


class _Decoded:
    """Per-static-instruction decode template: everything a run reads of
    its static instruction, built once per trace and latency signature
    (``TracePrecompute.decode_index``)."""

    __slots__ = ("pc", "instr", "is_load", "is_store", "is_mem",
                 "is_control", "is_cond_branch", "src_regs", "dest_reg",
                 "fu", "latency", "is_partial", "rs", "rt", "rd",
                 "uop_estimate", "uop_kind", "uop_fu", "arch_dest",
                 "arch_kind", "arch_alu", "imm", "signed_load")

    def __init__(self, instr: Instruction, params: CoreParams, pc: int):
        self.pc = pc
        self.instr = instr
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_mem = instr.is_mem
        self.is_control = instr.is_control
        self.is_cond_branch = instr.is_cond_branch
        self.src_regs = instr.source_regs()
        self.dest_reg = instr.dest_reg()
        self.fu = instr.fu_class
        self.is_partial = instr.is_mem and instr.is_partial_word
        # A missing operand register reads $zero, which is always 0.
        self.rs = instr.rs or 0
        self.rt = instr.rt or 0
        self.rd = instr.rd
        if self.fu is FU_MUL:
            self.latency = params.mul_latency
        elif self.fu is FU_FP:
            self.latency = params.fp_latency
        elif self.fu is FU_BRANCH:
            self.latency = params.branch_latency
        else:
            self.latency = params.alu_latency
        # Kind and functional-unit class of the first MicroOp: a memory
        # op's address generation, or a non-memory instruction's only one.
        if self.is_mem:
            self.uop_kind, self.uop_fu = UOP_AGI, FU_AGEN
        elif self.is_control:
            self.uop_kind, self.uop_fu = UOP_BRANCH, FU_BRANCH
        else:
            self.uop_kind, self.uop_fu = UOP_ALU, self.fu
        if not self.is_mem:
            self.uop_estimate = 1
        elif self.is_store:
            self.uop_estimate = 2
        else:
            self.uop_estimate = 5  # worst case: AGI+LOAD+CMP+CMOV+CMOV
        # Committed-register recipe, read at retire when a run tracks
        # architectural state: the register written (None when none is,
        # or only $zero), how its value forms (a load's obtained value, a
        # link address or an ALU result), and the ALU's semantics and
        # immediate, which it applies to ``rs`` and ``rt``.
        dest = self.dest_reg
        self.arch_dest = (dest if dest is not None
                          and 0 < dest < NUM_ARCH_REGS else None)
        op = instr.op
        if self.is_load:
            self.arch_kind = ARCH_LOAD
        elif op is JAL or op is JALR:
            self.arch_kind = ARCH_LINK
        else:
            self.arch_kind = ARCH_ALU
        self.arch_alu = ALU_SEMANTICS.get(op)
        self.imm = instr.imm or 0
        self.signed_load = op in SIGNED_LOADS


class Simulator:
    """One simulation run: a trace executed under one configuration."""

    def __init__(self, program: Program, trace: Sequence,
                 params: CoreParams, track_arch_state: bool = False,
                 tracer: Optional[PipelineTracer] = None):
        self.program = program
        self.params = params
        self.model = params.model
        self.stats = SimStats()

        # Observability (DESIGN.md section 10).  ``self._tr`` is None
        # unless an *enabled* tracer was supplied, so every hook site in
        # the hot loop costs exactly one attribute check when tracing is
        # off.  Tracer hooks are read-only observers: enabling one must
        # never change timing or statistics.
        self._tr = tracer if (tracer is not None and tracer.enabled) \
            else None

        # Optional committed architectural register file, maintained at
        # retire from the values the pipeline actually obtained (so the
        # differential oracle tests catch forwarding/verification bugs).
        self.arch_regs: Optional[List[int]] = None
        if track_arch_state:
            self.arch_regs = [0] * NUM_ARCH_REGS
            self.arch_regs[29] = STACK_TOP  # $sp, as in FunctionalCpu

        # Substrates.
        self.hier = MemoryHierarchy(
            params.l1d, params.l2, params.dram_latency, params.dram_banks,
            self.stats, mshrs=params.l1_mshrs,
            prefetch_next_line=params.prefetch_next_line,
            dram_row_hit_latency=params.dram_row_hit_latency)
        self.tlb = Tlb()
        # The baseline keeps memory addresses in LSQ entries rather than
        # physical registers (paper Section IV-A.e): its AGI MicroOps draw
        # from an auxiliary register space sized like the ROB.
        aux = params.rob_entries if params.model is BASELINE else 0
        self.prf = PhysRegFile(params.num_pregs, aux_regs=aux)
        self.ssn = SsnState()
        if params.predictor.tssbf_tagged:
            self.tssbf = Tssbf(params.predictor.tssbf_entries,
                               params.predictor.tssbf_assoc)
        else:
            self.tssbf = UntaggedSsbf(params.predictor.tssbf_entries)
        # Only NoSQ and DMDP predict store distances and train on them.
        if params.model is BASELINE or params.model is PERFECT:
            self.sdp = None
        elif params.use_tage_predictor:
            self.sdp = TageDistancePredictor(params.predictor)
        else:
            self.sdp = StoreDistancePredictor(params.predictor)
        self.storesets = StoreSets()
        self.sb = StoreBuffer(params.store_buffer_entries, params.consistency,
                              params.store_coalescing,
                              rmo_parallelism=params.dram_banks)
        # Occupancy-at-drain sampling happens inside the buffer itself.
        self.sb.tracer = self._tr

        # Trace tables (kernel/precompute.py): the mispredict flags,
        # rename-time history, fetch-group ends and decode templates
        # depend only on the trace and the predictor geometry (the front
        # end is deterministic on the committed path, so squash/refetch
        # replays identical predictions), and they always come from one
        # TracePrecompute bundle, which lives on the packed trace under
        # its predictor signature: the first run of a trace builds it and
        # every later run shares it.  The pipeline reads a per-entry field
        # by trace index (DynInstr.rob_id) from the packed columns -- the
        # producing store from ``dep`` (NO_DEP for none), and the word
        # address and Byte Access Bits from ``mem_addr``/``mem_size`` with
        # the TraceEntry view formulas at each use -- and a per-static one
        # from the decode template, which holds everything a run reads of
        # the static instruction.
        packed = self.trace = pack_trace(program, trace)
        self._total = len(packed)
        signature = bpred_signature(params)
        pre = packed.bundles.get(signature)
        if pre is None:
            pre = TracePrecompute.build(packed, signature)
        self._mispredicted = pre.mispredicted_list()
        self._history = pre.history_list()
        self._group_ends = pre.fetch_group_ends()
        self._dec_by_index = pre.decode_index(params)
        self._dep = packed.dep_column()
        self._mem_addr = packed.mem_addr_column()
        self._mem_size = packed.mem_size_column()
        self._value = packed.value_column()

        # Architectural memory image evolved by *committed* stores only;
        # each run loads its own.
        self.timing_mem = SparseMemory()
        self.timing_mem.load_segment(program.data_base, program.data)

        # Rename state.
        self.rename_map: List[int] = []
        self.committed_map: List[int] = []
        self._init_rename_map()

        # In-flight state.
        self.rob: Deque[DynInstr] = deque()
        self.iq_occupancy = 0
        self.waiters: Dict[int, List[Uop]] = {}
        self.ready_heap: List[Tuple[int, Uop]] = []
        self.event_heap: List[Tuple[int, int, Uop]] = []
        self.blocked_loads: List[Uop] = []
        self.uop_seq = 0

        # Front-end state.  Fetched entries wait for rename as groups of
        # consecutive trace indices, each (rename-available cycle, end):
        # the entries from ``rename_index`` up to ``fetch_index``.  The
        # cursor indexes the first group end at or after ``fetch_index``.
        self.fetch_index = 0
        self.rename_index = 0
        self.fetch_groups: Deque[Tuple[int, int]] = deque()
        self._group_cursor = 0
        self.fetch_blocked_until = 0
        self.pending_branch: Optional[DynInstr] = None
        self._pending_branch_index: Optional[int] = None

        # The one record of in-flight stores: every renamed store that has
        # neither committed nor been squashed, by trace index, in program
        # order (a refetched store is younger than every survivor); the
        # baseline's store-queue search walks it youngest-first.  Under
        # NoSQ and DMDP the Store Register Buffer (paper Section IV) names
        # the same stores by SSN, for cloaking and predication at rename.
        self.inflight_store_by_id: Dict[int, DynInstr] = {}
        self.srb: Dict[int, DynInstr] = {}

        self._ee = self.stats.energy_events
        # Per-MicroOp energy events, counted per stage call in plain ints
        # and an exact dict (issued MicroOps per FU class) and written into
        # energy_events once, at the end of run() (DESIGN.md section 9).
        self._fu_issued: Dict[FuClass, int] = dict.fromkeys(_FU_ENERGY, 0)
        self._rf_reads = 0
        self._rf_writes = 0

        # Per-cycle issue budget template; building this dict from enum
        # keys every cycle dominated the issue stage, a copy is cheap.
        self._fu_budget_template: Dict[FuClass, int] = {
            FU_ALU: params.alu_units,
            FU_MUL: params.mul_units,
            FU_FP: params.fp_units,
            FU_BRANCH: params.branch_units,
            FU_AGEN: params.agen_units,
            FU_MEM: params.load_ports,
            FU_NONE: params.alu_units,
        }

        # Event-driven cycle-skipping state (see run()): what the retire
        # stage stalled on this cycle and when it can next make progress.
        self._retire_stall: Optional[str] = None
        self._retire_wake: Optional[int] = None

        self.cycle = 0
        # Optional per-cycle callback (e.g. external invalidation traffic
        # for the Section IV-F consistency experiments).
        self.tick_hook = None

    # ------------------------------------------------------------------
    # Setup helpers.
    # ------------------------------------------------------------------

    def _init_rename_map(self) -> None:
        self.rename_map = []
        for logical in range(NUM_LOGICAL_REGS):
            preg = self.prf.allocate()
            self.prf.set_ready(preg, 0)
            self.rename_map.append(preg)
        self.committed_map = list(self.rename_map)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 200_000_000) -> SimStats:
        """Simulate the whole trace and return its statistics.

        Idle spans are skipped (event-driven cycle skipping) unless
        ``tick_hook`` is set: a hook observes every cycle, so any hook,
        a no-op one included, makes this the skip-off reference run,
        whose statistics are byte-identical.
        """
        total = self._total
        stats = self.stats
        sb = self.sb
        commit_stores = self._commit_stores
        writeback = self._writeback
        retire = self._retire
        issue = self._issue
        rename = self._rename
        fetch = self._fetch
        while self.rename_index < total or self.rob or sb.entries:
            if self.cycle > max_cycles:
                raise SimulationError("cycle cap reached; likely deadlock at "
                                      "trace index %d" % (self.rob[0].rob_id
                                                          if self.rob else -1))
            if self.tick_hook is not None:
                self.tick_hook(self)
            # Each stage is a statistics-free no-op when its input structure
            # is empty; the guards keep idle stages off the per-cycle path.
            if sb.entries:
                commit_stores()
            if self.event_heap:
                writeback()
            if self.rob:
                retire()
            else:
                self._retire_stall = None
                self._retire_wake = None
            if self.ready_heap or self.blocked_loads:
                issue()
            if self.fetch_groups:
                rename()
            fetch()
            # Event-driven cycle skipping: when no stage can do anything
            # before the next deadline (writeback event, store-buffer
            # event, retire wake, rename/fetch availability), jump there
            # directly.  A non-empty ready heap means issue has work next
            # cycle, and an external tick hook must observe every cycle.
            if self.tick_hook is None and not self.ready_heap:
                wake = self._next_wake_cycle()
                if wake > max_cycles + 1:
                    wake = max_cycles + 1  # keep the cycle-cap path exact
                skipped = wake - self.cycle - 1
                if skipped > 0:
                    # Each elided cycle would have re-evaluated the same
                    # retire stall and bumped its counter exactly once.
                    if self._retire_stall == "reexec":
                        stats.reexec_stall_cycles += skipped
                    elif self._retire_stall == "sb_full":
                        stats.sb_full_stall_cycles += skipped
                self.cycle = wake
            else:
                self.cycle += 1
        stats.cycles = self.cycle
        stats.instructions = total
        self._write_uop_energy()
        return stats

    def _write_uop_energy(self) -> None:
        """Write the per-MicroOp energy events into ``energy_events``.

        Every MicroOp is renamed and dispatched once (``stats.uops``),
        every instruction takes one ROB entry (``stats.instructions``),
        and every issue is counted once under its FU class.  A zero count
        adds no key.
        """
        stats = self.stats
        fu_issued = self._fu_issued
        counts = {"rename": stats.uops, "iq_dispatch": stats.uops,
                  "rob_entry": stats.instructions,
                  "iq_issue": sum(fu_issued.values()),
                  "rf_read": self._rf_reads, "rf_write": self._rf_writes}
        for fu, issued in fu_issued.items():
            event = _FU_ENERGY[fu]
            if event is not None:
                counts[event] = issued
        ee = self._ee
        for event, count in counts.items():
            if count:
                ee[event] = count

    # -- event-driven cycle skipping ---------------------------------------

    def _next_wake_cycle(self) -> int:
        """Earliest future cycle at which any stage can make progress.

        Safe because every state change in an idle span is event-driven:
        execution completions come off ``event_heap``, store-buffer
        activity off :meth:`StoreBuffer.next_event_cycle`, retire stalls
        record their own wake cycle, blocked loads unblock only on those
        same events, and the front end advances only at availability
        cycles computed here.  A span with no deadline therefore touches
        no state and no statistics except the retire-stall counters the
        caller accounts for.  No deadline is earlier than the next cycle,
        so one that falls there ends the search.
        """
        cycle = self.cycle
        next_cycle = cycle + 1
        wake = self._retire_wake
        if wake == next_cycle:
            return next_cycle
        heap = self.event_heap
        while heap and heap[0][2].dead:
            # Squashed completions are behaviour-free; drop them so a dead
            # tail cannot hold the wake horizon (or the final cycle) back.
            heapq.heappop(heap)
        if heap and (wake is None or heap[0][0] < wake):
            wake = heap[0][0]
        # Rename: the oldest fetch group's availability, unless ROB, IQ
        # or register space is short, which frees only through the
        # event-driven retire, commit and issue paths.
        groups = self.fetch_groups
        if groups:
            avail = groups[0][0]
            if avail > next_cycle:
                if wake is None or avail < wake:
                    wake = avail
            else:
                params = self.params
                dec = self._dec_by_index[self.rename_index]
                prf = self.prf
                if (len(self.rob) < params.rob_entries
                        and self.iq_occupancy + dec.uop_estimate
                        <= params.iq_entries
                        and len(prf.free) >= dec.uop_estimate + 1
                        and not (self.model is BASELINE
                                 and dec.is_mem and len(prf.free_aux) < 2)):
                    return next_cycle
        # Fetch: blocked on an event (branch resolution, buffer drain) or
        # out of trace, or else free at its next unblocked cycle.
        if (self.pending_branch is None
                and self._pending_branch_index is None
                and self.fetch_index < self._total
                and self.fetch_index - self.rename_index
                < 2 * self.params.fetch_width):
            blocked = self.fetch_blocked_until
            if blocked <= next_cycle:
                return next_cycle
            if wake is None or blocked < wake:
                wake = blocked
        if self.sb.entries:
            sb_wake = self.sb.next_event_cycle(cycle)
            if sb_wake is not None and (wake is None or sb_wake < wake):
                wake = sb_wake
        if wake is None or wake <= cycle:
            # No deadline at all: advance one cycle at a time so genuine
            # deadlocks still spin into the max_cycles diagnostic.
            return next_cycle
        return wake

    # ------------------------------------------------------------------
    # Stage: store commit (store buffer drain).
    # ------------------------------------------------------------------

    def _commit_stores(self) -> None:
        completed = self.sb.tick(self.cycle, self.hier)
        mem_addr = self._mem_addr
        mem_size = self._mem_size
        value = self._value
        for entry in completed:
            self.stats.energy_event("store_buffer_op")
            for trace_index in entry.trace_indices:
                self.timing_mem.write(mem_addr[trace_index],
                                      value[trace_index],
                                      mem_size[trace_index])
                store = self.inflight_store_by_id.pop(trace_index)
                for preg in store.store.holds:
                    self.prf.dec_consumer(preg)
            for ssn in entry.ssns:
                # Forwarding from a committed store is prohibited.
                self.srb.pop(ssn, None)
                self.ssn.on_commit(ssn)

    # ------------------------------------------------------------------
    # Stage: writeback (execution completions).
    # ------------------------------------------------------------------

    def _writeback(self) -> None:
        heap = self.event_heap
        cycle = self.cycle
        pop = heapq.heappop
        push = heapq.heappush
        ready_cycle = self.prf.ready_cycle
        waiters = self.waiters
        ready_heap = self.ready_heap
        tr = self._tr
        writes = 0
        while heap and heap[0][0] <= cycle:
            uop = pop(heap)[2]
            if uop.dead:
                continue
            uop.state = DONE
            instr = uop.instr
            instr.pending_uops -= 1
            if tr is not None:
                tr.on_writeback(uop, cycle)
            kind = uop.kind
            if kind is UOP_ALU or kind is UOP_AGI:
                pass
            elif kind is UOP_BRANCH:
                # Only a mispredicted branch is ever the pending redirect.
                if self.pending_branch is instr:
                    self._resolve_redirect(instr)
            elif not self._complete_special(uop):
                continue  # an unselected CMOV acts as a NOP
            dest = uop.dest
            if dest is None:
                continue
            # The destination becomes ready; wake its waiting consumers.
            writes += 1
            # Cycles only move forward and nothing marks a register ready
            # ahead of time, so this is the register's latest ready cycle.
            ready_cycle[dest] = cycle
            waiting = waiters.pop(dest, None)
            if waiting is None:
                continue
            for waiter in waiting:
                if waiter.dead:
                    continue
                remaining = waiter.remaining_srcs - 1
                waiter.remaining_srcs = remaining
                if remaining == 0 and waiter.state is WAITING:
                    waiter.state = READY
                    push(ready_heap, (waiter.seq, waiter))
        self._rf_writes += writes

    def _resolve_redirect(self, instr: DynInstr) -> None:
        """A mispredicted branch resolved: refill the front end after the
        usual pipeline-depth bubble.  Counted as a (front-end) squash cause
        so branch and memory recoveries stay separable."""
        self.pending_branch = None
        self.fetch_blocked_until = self.cycle + self.params.frontend_depth
        self.stats.squash_causes[BRANCH_MISPREDICT] += 1
        if self._tr is not None:
            self._tr.on_redirect(instr.rob_id, self.cycle)

    def _complete_special(self, uop: Uop) -> bool:
        """Completion side effects of the memory and predication MicroOps;
        returns whether the MicroOp writes its destination register."""
        instr = uop.instr
        kind = uop.kind
        if kind is UOP_LOAD:
            # A cache access returned data: sample value and SSN_commit.
            li = instr.load
            index = instr.rob_id
            li.ssn_nvul = self.ssn.commit
            value = self.timing_mem.read(self._mem_addr[index],
                                         self._mem_size[index])
            if li.mode is PREDICATED:
                # Goes to the $ldtmp register; the CMOV pair selects later.
                li.cache_value = value
            elif not li.value_from_store:
                li.obtained_value = value
        elif kind is UOP_CMP:
            li = instr.load
            li.predicate = self._covers(li.dep_trace_index, instr.rob_id)
        elif kind is UOP_CMOV:
            if not uop.cmov_selected:
                return False
            li = instr.load
            if li.predicate:
                li.obtained_value = self._extract_forward(
                    li.dep_trace_index, instr.rob_id)
                li.value_from_store = True
            else:
                li.obtained_value = li.cache_value
                li.value_from_store = False
        elif kind is UOP_STORE:
            # Baseline: address + data now visible in the store queue.
            instr.store.sq_entry_done = True
            self._ee["lq_cam_search"] += 1
        return True

    def _extract_forward(self, store: int, load: int) -> Optional[int]:
        """Value the load at trace index ``load`` receives when forwarded
        from the store at trace index ``store``.

        Returns None when the store does not cover every byte of the load (the
        forwarded register would contain garbage for the uncovered bytes; the
        retire-time check of paper Fig. 11 catches this via re-execution).
        """
        mem_addr = self._mem_addr
        mem_size = self._mem_size
        s_lo = mem_addr[store]
        l_lo = mem_addr[load]
        l_size = mem_size[load]
        if s_lo <= l_lo and l_lo + l_size <= s_lo + mem_size[store]:
            shift = 8 * (l_lo - s_lo)
            mask = (1 << (8 * l_size)) - 1
            return (self._value[store] >> shift) & mask
        return None

    def _covers(self, store: int, load: int) -> bool:
        """Whether the store at trace index ``store`` wrote every byte the
        load at trace index ``load`` reads: same word, and the load's Byte
        Access Bits inside the store's (paper Section IV-D)."""
        mem_addr = self._mem_addr
        mem_size = self._mem_size
        s_addr = mem_addr[store]
        l_addr = mem_addr[load]
        store_bab = ((1 << mem_size[store]) - 1) << (s_addr & 0x3)
        load_bab = ((1 << mem_size[load]) - 1) << (l_addr & 0x3)
        return ((s_addr & ~0x3) == (l_addr & ~0x3)
                and (store_bab & load_bab) == load_bab)

    # ------------------------------------------------------------------
    # Stage: retire.
    # ------------------------------------------------------------------

    def _retire(self) -> None:
        self._retire_stall = None
        self._retire_wake = None
        width = self.params.retire_width
        rob = self.rob
        prf = self.prf
        ready_cycle = prf.ready_cycle
        producer = prf.producer
        consumer = prf.consumer
        committed_map = self.committed_map
        stats = self.stats
        cycle = self.cycle
        tr = self._tr
        arch_regs = self.arch_regs
        mispredicted = self._mispredicted
        retired = 0
        while retired < width and rob:
            head = rob[0]
            if head.pending_uops:
                break
            result_preg = head.result_preg
            if result_preg is None:
                # Nothing to wait for: an instruction without a result
                # register retires with execution time 0.
                exec_time = 0
            else:
                ready = ready_cycle[result_preg]
                if ready is None or ready > cycle:
                    break
                exec_time = ready - head.rename_cycle
                if exec_time < 0:
                    exec_time = 0

            dec = head.dec
            violation = False
            if dec.is_load:
                status = self._verify_load(head)
                if status == "wait":
                    stats.reexec_stall_cycles += 1
                    self._retire_stall = "reexec"
                    li = head.load
                    if li.reexec_scheduled and li.reexec_done_cycle > cycle:
                        self._retire_wake = li.reexec_done_cycle
                    # else: waiting on the store buffer to drain, whose
                    # deadline already feeds _next_wake_cycle.
                    break
                violation = status == "violation"
            elif dec.is_store and not self._retire_store(head):
                stats.sb_full_stall_cycles += 1
                self._retire_stall = "sb_full"
                break

            rob.popleft()
            # Every MicroOp has written back: dropping them breaks the
            # instruction <-> MicroOp reference cycle, so both are freed
            # by reference counting rather than the cyclic collector.
            head.uops = ()
            retired += 1
            if arch_regs is not None and dec.arch_dest is not None:
                self._arch_update(head)
            if dec.is_control:
                stats.branches += 1
                if mispredicted[head.rob_id]:
                    stats.branch_mispredicts += 1
            # Rename-map commit + virtual release (paper Fig. 9).
            for logical, new_preg, prev_preg in head.renames:
                committed_map[logical] = new_preg
                count = producer[prev_preg]
                if count <= 0:
                    raise RegfileError("producer underflow on preg %d"
                                       % prev_preg)
                producer[prev_preg] = count - 1
                if count == 1 and not consumer[prev_preg]:
                    prf.release(prev_preg)
            li = head.load
            if li is not None:
                # Release verification holds.
                for preg in li.holds:
                    prf.dec_consumer(preg)
                li.holds = []
            if tr is not None:
                tr.on_retire(head, cycle, exec_time)
            stats.insn_exec_time_total += exec_time
            if li is not None:
                stats.record_load(li.mode, exec_time, li.low_confidence)
                if li.low_confidence:
                    self._classify_lowconf(head)
                if violation:
                    stats.dep_mispredictions += 1
                    self._squash_younger(head)
                    break
            elif dec.is_store:
                stats.stores += 1
        if retired:
            # Progress frees ROB entries and registers and may unblock any
            # stage: never skip past the very next cycle.
            self._retire_wake = cycle + 1

    def _classify_lowconf(self, instr: DynInstr) -> None:
        """Paper Fig. 5: outcome of a low-confidence dependence prediction,
        by whether the load's true producer was in flight at its rename."""
        li = instr.load
        if not li.producer_in_flight:
            outcome = INDEP_STORE
        elif self._dep[instr.rob_id] == li.dep_trace_index:
            outcome = CORRECT
        else:
            outcome = DIFF_STORE
        self.stats.lowconf_outcome[outcome] += 1

    # -- committed architectural state (differential oracle support) -------

    def _arch_update(self, instr: DynInstr) -> None:
        """Write one committed instruction's architectural destination
        into the tracked register file, by its decode template's
        committed-register recipe."""
        dec = instr.dec
        kind = dec.arch_kind
        regs = self.arch_regs
        if kind == ARCH_ALU:
            value = dec.arch_alu(regs[dec.rs], regs[dec.rt], dec.imm)
        elif kind == ARCH_LOAD:
            value = self._arch_load_value(instr)
        else:
            value = dec.pc + 4
        regs[dec.arch_dest] = value & WORD_MASK

    def _arch_load_value(self, instr: DynInstr) -> int:
        li = instr.load
        index = instr.rob_id
        address = self._mem_addr[index]
        size = self._mem_size[index]
        if li.violation:
            # The load retires, younger work squashes, and the refetched
            # consumers see what a post-recovery re-execution would read.
            # NoSQ/DMDP drain the store buffer before declaring the
            # violation, so the committed image is exact; the baseline
            # declares violations with stores still buffered, so the trace
            # value stands in for the post-recovery read.
            if self.model is BASELINE:
                raw = self._value[index]
            else:
                raw = self.timing_mem.read(address, size)
        else:
            raw = li.obtained_value
            if raw is None:
                raw = self.timing_mem.read(address, size)
        if instr.dec.signed_load:
            raw = sign_extend(raw, size)
        return raw

    def architectural_registers(self) -> Optional[List[int]]:
        """Copy of the tracked committed register file (or None)."""
        return None if self.arch_regs is None else list(self.arch_regs)

    def _retire_store(self, instr: DynInstr) -> bool:
        """Move a retiring store to the store buffer; False if it is full."""
        index = instr.rob_id
        addr = self._mem_addr[index]
        word_addr = addr & ~0x3
        if not self.sb.can_accept(word_addr):
            return False
        si = instr.store
        self.sb.push(si.ssn, word_addr, index)
        self._ee["store_buffer_op"] += 1
        si.retired = True
        self.ssn.on_retire(si.ssn)
        if self.model is not BASELINE:
            self.tssbf.store_retire(
                word_addr, si.ssn,
                ((1 << self._mem_size[index]) - 1) << (addr & 0x3))
            self._ee["tssbf_access"] += 1
        else:
            self.storesets.store_complete(instr.dec.pc, index)
        return True

    # -- load verification -------------------------------------------------

    def _verify_load(self, head: DynInstr) -> str:
        """Returns "ok", "wait" (stall retire) or "violation"."""
        li = head.load
        index = head.rob_id

        if self.model is PERFECT:
            if self._tr is not None:
                self._tr.on_verify(index, self.cycle, "ok", "oracle", True)
            return "ok"

        if self.model is BASELINE:
            if li.obtained_value != self._value[index]:
                dep = self._dep[index]
                if dep != NO_DEP:
                    self.storesets.on_violation(
                        head.dec.pc, self._dec_by_index[dep].pc)
                    self._ee["store_sets_access"] += 1
                li.violation = True
                if self._tr is not None:
                    self._tr.on_verify(index, self.cycle, "violation",
                                       "value_mismatch", False)
                return "violation"
            if self._tr is not None:
                self._tr.on_verify(index, self.cycle, "ok", "value_match",
                                   True)
            return "ok"

        # NoSQ / DMDP: SVW + T-SSBF verification (paper Table II).
        if li.reexec_scheduled:
            if self.cycle < li.reexec_done_cycle:
                return "wait"
            return self._finish_reexecution(head)

        addr = self._mem_addr[index]
        bab = ((1 << self._mem_size[index]) - 1) << (addr & 0x3)
        if li.tssbf_result is None:
            self._ee["tssbf_access"] += 1
            li.tssbf_result = self.tssbf.load_lookup(addr & ~0x3, bab)
        result = li.tssbf_result

        need_reexec = False
        reason = ""
        if li.value_from_store:
            if not result.matched or result.ssn != li.ssn_byp:
                need_reexec = True
                reason = "ssn_mismatch"
            elif (result.store_bab & bab) != bab:
                need_reexec = True  # partial coverage, paper Fig. 11
                reason = "partial_coverage"
            elif li.obtained_value is None:
                need_reexec = True  # forward could not supply all bytes
                reason = "uncovered_forward"
        else:
            if result.ssn > (li.ssn_nvul or 0):
                need_reexec = True
                reason = "svw_vulnerable"

        if not need_reexec:
            if self._tr is not None:
                self._tr.on_verify(index, self.cycle, "filtered",
                                   "forward_match" if li.value_from_store
                                   else "svw_filtered", result.matched)
            self._train_predictor(head, correct=li.predicted
                                  and result.matched
                                  and result.ssn == li.ssn_byp,
                                  reexecuted=False)
            return "ok"

        # Re-execution requires the store buffer to drain first.
        if not self.sb.is_empty:
            return "wait"
        self.stats.reexecutions += 1
        li.reexec_scheduled = True
        li.reexec_done_cycle = self.hier.access(self._mem_addr[index],
                                                self.cycle)
        if self._tr is not None:
            self._tr.on_verify(index, self.cycle, "reexec", reason,
                               result.matched)
        return "wait" if li.reexec_done_cycle > self.cycle else \
            self._finish_reexecution(head)

    def _finish_reexecution(self, head: DynInstr) -> str:
        li = head.load
        index = head.rob_id
        reloaded = self.timing_mem.read(self._mem_addr[index],
                                        self._mem_size[index])
        changed = reloaded != li.obtained_value
        if not changed:
            self.stats.silent_reexecutions += 1
        if self._tr is not None:
            self._tr.on_verify(index, self.cycle,
                               "violation" if changed else "reexec_ok",
                               "value_changed" if changed else "silent",
                               False)
        self._train_predictor(head, correct=False, reexecuted=True)
        if changed:
            li.violation = True
            return "violation"
        return "ok"

    def _train_predictor(self, head: DynInstr, correct: bool,
                         reexecuted: bool) -> None:
        li = head.load
        pc = head.dec.pc
        result = li.tssbf_result
        actual_distance = None
        if result is not None and result.matched:
            actual_distance = self.ssn.retire - result.ssn
        self._ee["distance_pred_access"] += 1
        if li.predicted:
            if correct:
                self.sdp.train_correct(pc, li.history)
            else:
                self.sdp.train_mispredict(pc, li.history, actual_distance,
                                          self.params.confidence_policy)
        elif reexecuted:
            # Learn a new dependence.  With the silent-store-aware policy
            # (paper Section IV-C.a) every re-execution trains the
            # predictor; otherwise only value-changing exceptions do.
            index = head.rob_id
            changed = self.timing_mem.read(self._mem_addr[index],
                                           self._mem_size[index]) \
                != li.obtained_value
            if self.params.silent_store_aware or changed:
                self.sdp.train_mispredict(pc, li.history, actual_distance,
                                          self.params.confidence_policy)

    # -- squash ------------------------------------------------------------

    def _squash_younger(self, retired_load: DynInstr) -> None:
        """Full recovery: flush everything younger than the violating load."""
        self.stats.energy_event("recovery_overhead")
        self.stats.squash_causes[MEM_DEP_VIOLATION] += 1
        if self._tr is not None:
            self._tr.on_squash(MEM_DEP_VIOLATION, self.cycle,
                               retired_load.rob_id,
                               [instr.rob_id for instr in self.rob])
        # Every surviving store has retired (the violating load was at the
        # ROB head), so the squashed stores are the ROB's.
        inflight_stores = self.inflight_store_by_id
        for instr in self.rob:
            instr.dead = True
            for uop in instr.uops:
                uop.dead = True
            instr.uops = ()  # as at retire: no reference cycle left behind
            si = instr.store
            if si is not None:
                del inflight_stores[instr.rob_id]
                self.srb.pop(si.ssn, None)
        self.rob.clear()
        self.iq_occupancy = 0
        # Every blocked load belongs to a (now dead) ROB entry: the
        # violating head's own access already completed.
        self.blocked_loads.clear()
        self.fetch_groups.clear()
        self.pending_branch = None
        self._pending_branch_index = None
        self.ssn.rewind_rename(self.ssn.retire)

        # Rebuild physical register state from the committed map plus the
        # registers held by retired-but-uncommitted stores.
        live_producers = Counter(self.committed_map)
        live_consumers = Counter()
        for instr in inflight_stores.values():
            for preg in instr.store.holds:
                live_consumers[preg] += 1
        self.prf.rebuild(dict(live_producers), dict(live_consumers))
        self.rename_map = list(self.committed_map)
        self.waiters.clear()

        # Refetch from the instruction after the load: fetch moves back,
        # so its group-end cursor seeks again.
        self.fetch_index = self.rename_index = retired_load.rob_id + 1
        self._group_cursor = bisect_left(self._group_ends, self.fetch_index)
        self.fetch_blocked_until = self.cycle + self.params.recovery_penalty
        # Charge wasted front-end energy for the refill window.
        self.stats.energy_event(
            "fetch_decode", self.params.frontend_depth)

    # ------------------------------------------------------------------
    # Stage: issue.
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        budget = self.params.issue_width
        fu_budget = dict(self._fu_budget_template)
        store_ports = self.params.store_ports
        ready_heap = self.ready_heap
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Re-check previously blocked loads.
        if self.blocked_loads:
            still_blocked = []
            for uop in self.blocked_loads:
                if uop.dead:
                    continue
                if self._load_issue_blocked(uop):
                    still_blocked.append(uop)
                else:
                    heappush(ready_heap, (uop.seq, uop))
            self.blocked_loads = still_blocked

        # Only the baseline (store-set ordering, forwarding stalls) and
        # NoSQ (delayed loads) hold a ready load back.
        gated = self.model is BASELINE or self.model is NOSQ
        # The baseline's loads search the store queue first.
        access = None if self.model is BASELINE else self.hier.access
        cycle = self.cycle
        event_heap = self.event_heap
        prf = self.prf
        producer = prf.producer
        consumer = prf.consumer
        fu_issued = self._fu_issued
        mem_addr = self._mem_addr
        tr = self._tr
        issued = 0
        reads = 0
        deferred: List[Tuple[int, Uop]] = []
        while budget > 0 and ready_heap:
            item = heappop(ready_heap)
            uop = item[1]
            if uop.dead or uop.state is not READY:
                continue
            fu = uop.fu
            kind = uop.kind
            if kind is UOP_STORE:
                if store_ports <= 0:
                    deferred.append(item)
                    continue
                store_ports -= 1
            else:
                if fu_budget[fu] <= 0:
                    deferred.append(item)
                    continue
                if (kind is UOP_LOAD and gated
                        and self._load_issue_blocked(uop)):
                    self.blocked_loads.append(uop)
                    continue
                fu_budget[fu] -= 1
            budget -= 1

            # Start execution.
            uop.state = ISSUED
            if tr is not None:
                tr.on_issue(uop, cycle)
            issued += 1
            fu_issued[fu] += 1
            srcs = uop.srcs
            reads += len(srcs)
            if kind is UOP_LOAD:
                if access is not None:
                    done = access(mem_addr[uop.instr.rob_id], cycle)
                else:
                    done = self._start_baseline_load(uop)
                    if done is None:
                        continue  # re-blocked (forwarding stall)
            elif kind is UOP_AGI:
                done = cycle + uop.latency + self.tlb.access_penalty(
                    mem_addr[uop.instr.rob_id])
            else:
                done = cycle + uop.latency
            heappush(event_heap, (done, uop.seq, uop))
            # Source values are read out at execution: consumer counters
            # drop (the paper's early-release counting, here used to
            # *delay* release).
            for src in srcs:
                count = consumer[src]
                if count <= 0:
                    raise RegfileError("consumer underflow on preg %d" % src)
                consumer[src] = count - 1
                if count == 1 and not producer[src]:
                    prf.release(src)
        self.iq_occupancy -= issued
        self._rf_reads += reads

        for item in deferred:
            heappush(ready_heap, item)

    def _load_issue_blocked(self, uop: Uop) -> bool:
        """Model-specific conditions beyond register readiness."""
        li = uop.instr.load
        if self.model is NOSQ and li.mode is DELAYED:
            # Delayed until the predicted colliding store commits.
            return self.ssn.commit < li.ssn_byp
        if self.model is BASELINE:
            # Store-set ordering: wait for the flagged store to execute.
            wait_id = li.storeset_wait
            if wait_id is not None:
                store = self.inflight_store_by_id.get(wait_id)
                if (store is not None and not store.store.sq_entry_done
                        and not store.store.retired):
                    return True
            # Forward-stall: waiting for a partially-overlapping store.
            block = li.forward_block
            if block is not None:
                if block in self.inflight_store_by_id:
                    return True
                li.forward_block = None  # type: ignore[attr-defined]
        return False

    def _start_baseline_load(self, uop: Uop) -> Optional[int]:
        """Begin a baseline load's SQ search and cache access; returns the
        completion cycle, or None when the load must re-block (forwarding
        stall)."""
        instr = uop.instr
        li = instr.load
        self._ee["sq_cam_search"] += 1
        forward = self._search_store_queue(instr)
        if forward is not None:
            store_instr, value = forward
            if value is None:
                # Partial coverage: stall until that store commits, then
                # retry through the cache.
                li.forward_block = store_instr.rob_id
                uop.state = READY
                self.iq_occupancy += 1
                self.blocked_loads.append(uop)
                return None
            li.obtained_value = value
            li.value_from_store = True
            li.mode = FORWARDED
            return self.cycle + self.params.sq_search_latency
        return self.hier.access(self._mem_addr[instr.rob_id], self.cycle)

    def _search_store_queue(self, load: DynInstr):
        """Baseline SQ+SB search: youngest older store with a known,
        overlapping address.  Returns (store, value|None) or None."""
        mem_addr = self._mem_addr
        mem_size = self._mem_size
        index = load.rob_id
        l_lo = mem_addr[index]
        l_hi = l_lo + mem_size[index]
        best = None
        for store in reversed(self.inflight_store_by_id.values()):
            if store.rob_id > index:
                continue
            si = store.store
            if not (si.sq_entry_done or si.retired):
                continue  # address unknown: speculate past it
            s_lo = mem_addr[store.rob_id]
            if s_lo < l_hi and l_lo < s_lo + mem_size[store.rob_id]:
                best = store
                break
        if best is None:
            return None
        return best, self._extract_forward(best.rob_id, index)

    # ------------------------------------------------------------------
    # Stage: rename / dispatch.
    # ------------------------------------------------------------------

    def _rename(self) -> None:
        groups = self.fetch_groups
        avail, group_end = groups[0]
        cycle = self.cycle
        if avail > cycle:
            return
        params = self.params
        width = params.rename_width
        budget = width
        rob = self.rob
        rob_room = params.rob_entries - len(rob)
        iq_entries = params.iq_entries
        dec_by_index = self._dec_by_index
        rename_map = self.rename_map
        prf = self.prf
        free = prf.free
        free_aux = prf.free_aux
        producer = prf.producer
        consumer = prf.consumer
        ready_cycle = prf.ready_cycle
        waiters = self.waiters
        ready_heap = self.ready_heap
        heappush = heapq.heappush
        ee = self._ee
        tr = self._tr
        baseline = self.model is BASELINE
        agen_latency = params.agen_latency
        iq_occupancy = self.iq_occupancy
        renamed_uops = 0
        index = self.rename_index
        while budget > 0 and rob_room > 0:
            dec = dec_by_index[index]
            uop_count = dec.uop_estimate
            if uop_count > budget and budget < width:
                break  # does not fit in what is left of this cycle
            if iq_occupancy + uop_count > iq_entries:
                break
            if len(free) < uop_count + 1:
                break  # conservative free-register check
            if baseline and dec.is_mem and len(free_aux) < 2:
                break
            instr = DynInstr(index, cycle, dec)

            # The first MicroOp straight from the decode template: a memory
            # op's AGI (writing $32, from the baseline's auxiliary register
            # space) or a non-memory instruction's only MicroOp.  Rename
            # the sources, allocate the destination, dispatch.
            if dec.is_mem:
                srcs = (rename_map[dec.rs],)
                dest_reg = REG_AGI
                pool = free_aux if baseline else free
                latency = agen_latency
            else:
                src_regs = dec.src_regs
                n_srcs = len(src_regs)
                if n_srcs == 1:
                    srcs = (rename_map[src_regs[0]],)
                elif n_srcs == 2:
                    srcs = (rename_map[src_regs[0]], rename_map[src_regs[1]])
                elif n_srcs == 0:
                    srcs = ()
                else:
                    srcs = tuple(rename_map[r] for r in src_regs)
                dest_reg = dec.dest_reg
                pool = free
                latency = dec.latency
            if dest_reg is None:
                dest = None
            else:
                if not pool:
                    raise SimulationError("physical register underflow")
                dest = pool.pop()
                producer[dest] = 1
                consumer[dest] = 0
                ready_cycle[dest] = None
                instr.renames.append((dest_reg, dest, rename_map[dest_reg]))
                rename_map[dest_reg] = dest
            seq = self.uop_seq
            self.uop_seq = seq + 1
            uop = Uop(seq, dec.uop_kind, dec.uop_fu, latency, srcs, dest,
                      instr)
            instr.uops.append(uop)
            instr.pending_uops = 1
            # Consumer counting and wakeup registration.
            remaining = 0
            for src in srcs:
                consumer[src] += 1
                ready = ready_cycle[src]
                if ready is None or ready > cycle:
                    queue = waiters.get(src)
                    if queue is None:
                        waiters[src] = [uop]
                    else:
                        queue.append(uop)
                    remaining += 1
            if remaining:
                uop.remaining_srcs = remaining
            else:
                uop.state = READY
                heappush(ready_heap, (seq, uop))

            if not dec.is_mem:
                instr.result_preg = dest
                if dec.is_control:
                    if self._pending_branch_index == index:
                        self.pending_branch = instr
                        self._pending_branch_index = None
                    ee["bpred_access"] += 1
                uop_count = 1
            elif dec.is_store:
                self._crack_store(instr, dec, dest)
                uop_count = len(instr.uops)
            elif self._crack_load(instr, dec, dest):
                uop_count = len(instr.uops)
            else:
                # A direct or delayed load: its cache access straight from
                # the template too.  It reads the AGI's destination,
                # allocated just above and not ready yet.
                if not free:
                    raise SimulationError("physical register underflow")
                load_dest = free.pop()
                producer[load_dest] = 1
                consumer[load_dest] = 0
                ready_cycle[load_dest] = None
                rd = dec.rd
                instr.renames.append((rd, load_dest, rename_map[rd]))
                rename_map[rd] = load_dest
                instr.result_preg = load_dest
                seq = self.uop_seq
                self.uop_seq = seq + 1
                load = Uop(seq, UOP_LOAD, FU_MEM, 0, (dest,), load_dest,
                           instr)
                instr.uops.append(load)
                instr.pending_uops = 2
                consumer[dest] += 1
                queue = waiters.get(dest)
                if queue is None:
                    waiters[dest] = [load]
                else:
                    queue.append(load)
                load.remaining_srcs = 1
                uop_count = 2

            rob.append(instr)
            rob_room -= 1
            iq_occupancy += uop_count
            renamed_uops += uop_count
            budget -= uop_count
            if tr is not None:
                tr.on_rename(instr, cycle)
            index += 1
            if index == group_end:
                groups.popleft()
                if not groups:
                    break
                avail, group_end = groups[0]
                if avail > cycle:
                    break
        self.rename_index = index
        self.iq_occupancy = iq_occupancy
        self.stats.uops += renamed_uops

    # -- rename plumbing -----------------------------------------------------

    def _new_uop(self, instr: DynInstr, kind: UopKind, fu: FuClass,
                 latency: int, srcs: Tuple[int, ...],
                 dest: Optional[int]) -> Uop:
        """Dispatch one MicroOp of a memory instruction: count its source
        consumers and register its wakeups.  The rename stage bumps the
        per-instruction IQ occupancy and MicroOp count."""
        seq = self.uop_seq
        self.uop_seq = seq + 1
        uop = Uop(seq, kind, fu, latency, srcs, dest, instr)
        instr.uops.append(uop)
        instr.pending_uops += 1
        prf = self.prf
        ready_cycle = prf.ready_cycle
        consumer = prf.consumer
        cycle = self.cycle
        waiters = self.waiters
        remaining = 0
        for src in srcs:
            consumer[src] += 1
            ready = ready_cycle[src]
            if ready is None or ready > cycle:
                queue = waiters.get(src)
                if queue is None:
                    waiters[src] = [uop]
                else:
                    queue.append(uop)
                remaining += 1
        if remaining:
            uop.remaining_srcs = remaining
        else:
            uop.state = READY
            heapq.heappush(self.ready_heap, (seq, uop))
        return uop

    def _rename_dest(self, instr: DynInstr, logical: int) -> int:
        """Allocate a new physical register for a destination."""
        preg = self.prf.allocate()
        if preg is None:
            raise SimulationError("physical register underflow")
        prev = self.rename_map[logical]
        self.rename_map[logical] = preg
        instr.renames.append((logical, preg, prev))  # type: ignore
        return preg

    def _rename_dest_shared(self, instr: DynInstr, logical: int,
                            preg: int) -> None:
        """Map a destination onto an *existing* register (cloaking, the
        second CMOV): increments the producer counter instead."""
        prev = self.rename_map[logical]
        self.rename_map[logical] = preg
        self.prf.add_producer(preg)
        instr.renames.append((logical, preg, prev))  # type: ignore

    # -- cracking -----------------------------------------------------------------

    def _crack_store(self, instr: DynInstr, dec: _Decoded,
                     addr_preg: int) -> None:
        data_preg = self.rename_map[dec.rt]
        ssn = self.ssn.next_rename()
        si = StoreInfo(ssn=ssn, data_preg=data_preg, addr_preg=addr_preg)
        instr.store = si
        self.inflight_store_by_id[instr.rob_id] = instr

        model = self.model
        if model is BASELINE:
            # The SQ-entry MicroOp makes address+data searchable.
            self._new_uop(instr, UOP_STORE, FU_MEM, 1,
                          (addr_preg, data_preg), None)
            self._ee["sq_write"] += 1
            self.storesets.store_rename(dec.pc, instr.rob_id)
            self._ee["store_sets_access"] += 1
        else:
            if model is not PERFECT:
                # Predicted loads name it by SSN; Perfect's oracle finds
                # its producer by trace index.
                self.srb[ssn] = instr
            # Store-queue-free: no access MicroOp.  The data and address
            # registers are read at commit, so their lifetimes extend
            # (consumer counter holds, paper Section IV-B.a).
            consumer = self.prf.consumer
            consumer[data_preg] += 1
            consumer[addr_preg] += 1
            si.holds = [data_preg, addr_preg]

    def _crack_load(self, instr: DynInstr, dec: _Decoded,
                    addr_preg: int) -> bool:
        """Give a load its LoadInfo and, when it is cloaked or predicated,
        crack the MicroOps after its AGI.  Returns False for a load whose
        one other MicroOp is the cache access, which the rename stage
        emits from the template: a direct load, or NoSQ's delayed one."""
        model = self.model
        index = instr.rob_id
        if model is BASELINE:
            li = instr.load = LoadInfo(DIRECT)
            li.storeset_wait = self.storesets.load_rename(dec.pc)
            self._ee["store_sets_access"] += 1
            return False

        if model is PERFECT:
            li = instr.load = LoadInfo(DIRECT)
            # NO_DEP is never a trace index, so it finds no in-flight store.
            dep_instr = self.inflight_store_by_id.get(self._dep[index])
            if dep_instr is None:
                return False
            # Oracle cloaking from the in-flight producing store.
            li.mode = BYPASS
            li.value_from_store = True
            li.obtained_value = self._value[index]
            data_preg = dep_instr.store.data_preg
            self._rename_dest_shared(instr, dec.rd, data_preg)
            instr.result_preg = data_preg
            li.holds.append(data_preg)
            self.prf.add_consumer(data_preg)
            return True

        # NoSQ / DMDP: consult the store distance predictor at rename.
        history = self._history[index]
        self._ee["distance_pred_access"] += 1
        prediction = self.sdp.predict(dec.pc, history)
        li = instr.load = LoadInfo(DIRECT, history)
        if prediction is None:
            return False
        store = None
        ssn_byp = self.ssn.rename - prediction.distance
        if ssn_byp > self.ssn.commit:
            store = self.srb.get(ssn_byp)
        if store is not None:
            li.predicted = True
            li.ssn_byp = ssn_byp
            li.dep_trace_index = store.rob_id
            self.stats.dep_predictions += 1
        if self._tr is not None:
            self._tr.on_dep_predict(
                index, self.cycle, dec.pc, prediction.confidence,
                prediction.distance, ssn_byp,
                store.rob_id if store is not None else None,
                store is not None)
        if store is None:
            # Independent (or the predicted store already committed):
            # direct cache access, verified by SVW at retire.
            return False

        threshold = self.params.predictor.confidence_threshold
        high_confidence = prediction.confidence > threshold
        if not high_confidence:
            li.low_confidence = True
            # Paper Fig. 5 classifies the prediction at retire by this.
            li.producer_in_flight = (self._dep[index]
                                     in self.inflight_store_by_id)
        # Paper Section IV-D: partial-word loads are prohibited from memory
        # cloaking in DMDP (alignment / sign extension) and are forced to
        # predication regardless of confidence; NoSQ instead inserts a
        # shift&mask fix-up and may still bypass them.
        if model is DMDP and dec.is_partial:
            self._crack_load_predicated(instr, store, addr_preg, dec)
        elif high_confidence:
            self._crack_load_bypass(instr, store, dec)
        elif model is NOSQ:
            # Low confidence: delayed until the predicted store commits.
            li.mode = DELAYED
            self.stats.delayed_loads += 1
            return False
        else:
            self._crack_load_predicated(instr, store, addr_preg, dec)
        return True

    def _crack_load_bypass(self, instr: DynInstr, store: DynInstr,
                           dec: _Decoded) -> None:
        """Memory cloaking (paper Fig. 7(c)) from the in-flight ``store``."""
        li = instr.load
        li.mode = BYPASS
        li.value_from_store = True
        self.stats.cloaked_loads += 1
        li.obtained_value = self._extract_forward(store.rob_id, instr.rob_id)
        data_preg = store.store.data_preg
        # Hold the store's data register for retire-time verification.
        self.prf.add_consumer(data_preg)
        li.holds.append(data_preg)
        if dec.is_partial:
            # NoSQ partial-word bypass needs a shift&mask fix-up MicroOp
            # (paper Section IV-D); DMDP never cloaks partial words.
            dest = self._rename_dest(instr, dec.rd)
            instr.result_preg = dest
            self._new_uop(instr, UOP_SHIFTMASK, FU_ALU,
                          self.params.alu_latency, (data_preg,), dest)
        else:
            self._rename_dest_shared(instr, dec.rd, data_preg)
            instr.result_preg = data_preg

    def _crack_load_predicated(self, instr: DynInstr, store: DynInstr,
                               addr_preg: int, dec: _Decoded) -> None:
        """DMDP predication insertion (paper Fig. 8) on the in-flight
        ``store``."""
        li = instr.load
        li.mode = PREDICATED
        self.stats.predicated_loads += 1

        store_addr_preg = store.store.addr_preg
        store_data_preg = store.store.data_preg

        # LW $33 <- cache.
        ldtmp_preg = self._rename_dest(instr, REG_LDTMP)
        self._new_uop(instr, UOP_LOAD, FU_MEM, 0,
                      (addr_preg,), ldtmp_preg)
        # CMP $34 <- (load addr == store addr), with shift/type info.
        pred_preg = self._rename_dest(instr, REG_PRED)
        self._new_uop(instr, UOP_CMP, FU_ALU,
                      self.params.alu_latency,
                      (addr_preg, store_addr_preg), pred_preg)
        # CMOV pair sharing one destination register.
        dest = self._rename_dest(instr, dec.rd)
        cmov_store = self._new_uop(instr, UOP_CMOV, FU_ALU,
                                   self.params.alu_latency,
                                   (pred_preg, store_data_preg), dest)
        self._rename_dest_shared(instr, dec.rd, dest)
        cmov_cache = self._new_uop(instr, UOP_CMOV, FU_ALU,
                                   self.params.alu_latency,
                                   (pred_preg, ldtmp_preg), dest)
        instr.result_preg = dest
        # The simulator knows the predicate outcome ahead of time; mark
        # which CMOV will actually write the register.
        selected_store = self._covers(store.rob_id, instr.rob_id)
        cmov_store.cmov_selected = selected_store
        cmov_cache.cmov_selected = not selected_store
        if self._tr is not None:
            self._tr.on_predication(instr.rob_id, self.cycle,
                                    li.low_confidence, selected_store)

    # ------------------------------------------------------------------
    # Stage: fetch.
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        cycle = self.cycle
        if cycle < self.fetch_blocked_until or self.pending_branch:
            return
        first = self.fetch_index
        width = self.params.fetch_width
        if first - self.rename_index >= 2 * width:
            return
        end = min(first + width, self._total)
        if first >= end:
            return
        # A control entry that is mispredicted or taken ends the group.
        cursor = self._group_cursor
        group_end = self._group_ends[cursor]
        if group_end < end:
            end = group_end + 1
            self._group_cursor = cursor + 1
            if self._mispredicted[group_end]:
                # Stall fetch until this branch resolves (the resumption
                # cycle is set at branch completion).  The branch is not
                # renamed yet: remember its index so the renamed
                # DynInstr can be linked as the pending redirect.
                self.fetch_blocked_until = 1 << 62
                self._pending_branch_index = group_end
        avail = cycle + 2  # fetch + decode depth
        self.fetch_groups.append((avail, end))
        tr = self._tr
        if tr is not None:
            dec_by_index = self._dec_by_index
            for index in range(first, end):
                tr.on_fetch(index, dec_by_index[index].pc, cycle, avail)
        self.fetch_index = end
        self._ee["fetch_decode"] += end - first

    # ------------------------------------------------------------------
    # External hooks.
    # ------------------------------------------------------------------

    def inject_invalidation(self, line_addr: int) -> None:
        """Multi-core consistency hook (paper Section IV-F): another core
        invalidated a line; all words update the T-SSBF with SSN_commit+1."""
        self.hier.invalidate_line(line_addr)
        self.tssbf.invalidate_line(line_addr, self.params.l1d.line_bytes,
                                   self.ssn.commit)

