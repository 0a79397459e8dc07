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
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..isa import FuClass, Instruction, Opcode, Program, STACK_TOP
from ..isa.instructions import SIGNED_LOADS
from ..isa.registers import (NUM_ARCH_REGS, NUM_LOGICAL_REGS, REG_AGI,
                             REG_LDTMP, REG_PRED)
from ..kernel.cpu import ALU_SEMANTICS, WORD_MASK, sign_extend
from ..kernel.trace import TraceEntry
from ..kernel.precompute import TracePrecompute, bpred_signature
from ..kernel.tracestore import F_TAKEN, pack_trace
from ..obs.tracer import NULL_TRACER, PipelineTracer
from .cachesim import MemoryHierarchy
from .distance_predictor import StoreDistancePredictor
from .params import CoreParams, ModelKind
from .regfile import PhysRegFile, RegfileError
from .ssn import SsnState, StoreRegisterBuffer
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
J, JR, JAL, JALR, NOP, HALT = (Opcode.J, Opcode.JR, Opcode.JAL, Opcode.JALR,
                               Opcode.NOP, Opcode.HALT)

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
    """Per-static-instruction decode cache (built once per simulation)."""

    __slots__ = ("is_load", "is_store", "is_mem", "is_control",
                 "is_cond_branch", "src_regs", "dest_reg", "fu",
                 "latency", "is_partial", "rs", "rt", "rd", "uop_estimate",
                 "uop_kind", "uop_fu")

    def __init__(self, instr: Instruction, params: CoreParams):
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_mem = instr.is_mem
        self.is_control = instr.is_control
        self.is_cond_branch = instr.is_cond_branch
        self.src_regs = instr.source_regs()
        self.dest_reg = instr.dest_reg()
        self.fu = instr.fu_class
        self.is_partial = instr.is_mem and instr.is_partial_word
        self.rs = instr.rs
        self.rt = instr.rt
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


def _extract_forward(store: TraceEntry, load: TraceEntry) -> Optional[int]:
    """Value a load receives when forwarded from ``store``.

    Returns None when the store does not cover every byte of the load (the
    forwarded register would contain garbage for the uncovered bytes; the
    retire-time check of paper Fig. 11 catches this via re-execution).
    """
    s_lo, s_hi = store.mem_addr, store.mem_addr + store.mem_size
    l_lo, l_hi = load.mem_addr, load.mem_addr + load.mem_size
    if s_lo <= l_lo and l_hi <= s_hi:
        shift = 8 * (l_lo - s_lo)
        mask = (1 << (8 * load.mem_size)) - 1
        return (store.value >> shift) & mask
    return None


def _covers(store: TraceEntry, load: TraceEntry) -> bool:
    return (store.word_addr == load.word_addr
            and (store.bab & load.bab) == load.bab)


class Simulator:
    """One simulation run: a trace executed under one configuration."""

    def __init__(self, program: Program, trace: Sequence[TraceEntry],
                 params: CoreParams, track_arch_state: bool = False,
                 tracer: Optional[PipelineTracer] = None):
        self.program = program
        self.trace = trace
        self.params = params
        self.model = params.model
        self.stats = SimStats()

        # Observability (DESIGN.md section 10).  ``self._tr`` is None
        # unless an *enabled* tracer was supplied, so every hook site in
        # the hot loop costs exactly one attribute check when tracing is
        # off.  Tracer hooks are read-only observers: enabling one must
        # never change timing or statistics.
        self.tracer = tracer if tracer is not None else NULL_TRACER
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
        self.srb = StoreRegisterBuffer()
        if params.predictor.tssbf_tagged:
            self.tssbf = Tssbf(params.predictor.tssbf_entries,
                               params.predictor.tssbf_assoc)
        else:
            self.tssbf = UntaggedSsbf(params.predictor.tssbf_entries)
        if params.use_tage_predictor:
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
        # rename-time history, decode templates and base memory image
        # depend only on the trace and the predictor geometry (the front
        # end is deterministic on the committed path, so squash/refetch
        # replays identical predictions), and they always come from one
        # TracePrecompute bundle, which lives on the packed trace under
        # its predictor signature.
        packed = pack_trace(program, trace)
        signature = bpred_signature(params)
        pre = packed.bundles.get(signature)
        if pre is not None:
            # Another run built or loaded this bundle, so the trace is
            # shared: fetch walks every entry, and plain-list indexing of
            # the bundle's dense entries keeps a Python call out of the
            # hot loop.
            self.trace = pre.entry_list()
        else:
            # The first run builds the bundle, leaves it on the trace for
            # the next, and indexes the trace as given: a list is already
            # dense, and lazy packed views keep memory at the in-flight
            # window.
            pre = TracePrecompute.build(packed, signature)
        self._mispredicted = pre.mispredicted_list()
        self._history = pre.history_list()
        self._dec_by_index = pre.decode_index(params)
        self._taken_bits = packed.flags_column()

        # Architectural memory image evolved by *committed* stores only.
        self.timing_mem = pre.base_memory().copy()

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

        # Fetch state.
        self.fetch_index = 0
        self.fetch_buffer: Deque[Tuple[int, int]] = deque()  # (avail, index)
        self.fetch_blocked_until = 0
        self.pending_branch: Optional[DynInstr] = None
        self._pending_branch_index: Optional[int] = None

        # Baseline bookkeeping.
        self.baseline_stores: List[DynInstr] = []
        self.inflight_store_by_id: Dict[int, DynInstr] = {}

        # Oracle bookkeeping.
        self.commit_cycle: Dict[int, int] = {}    # trace index -> cycle

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
        # Committed/dead entries lazily pruned from baseline_stores.
        self._baseline_stale = 0

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
        total = len(self.trace)
        stats = self.stats
        sb = self.sb
        commit_stores = self._commit_stores
        writeback = self._writeback
        retire = self._retire
        issue = self._issue
        rename = self._rename
        fetch = self._fetch
        while (self.fetch_index < total or self.rob or self.fetch_buffer
               or sb.entries):
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
            if self.fetch_buffer:
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
        # Rename: the fetch-buffer head's availability, unless ROB, IQ or
        # register space is short, which frees only through the
        # event-driven retire, commit and issue paths.
        buffer = self.fetch_buffer
        if buffer:
            avail, index = buffer[0]
            if avail > next_cycle:
                if wake is None or avail < wake:
                    wake = avail
            else:
                params = self.params
                dec = self._dec_by_index[index]
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
                and self.fetch_index < len(self.trace)
                and len(buffer) < 2 * self.params.fetch_width):
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
        for entry in completed:
            self.stats.energy_event("store_buffer_op")
            for trace_index in entry.trace_indices:
                te = self.trace[trace_index]
                self.timing_mem.write(te.mem_addr, te.value, te.mem_size)
                self.commit_cycle[trace_index] = self.cycle
                instr = self.inflight_store_by_id.pop(trace_index, None)
                if instr is not None and instr.store is not None:
                    instr.store.committed = True
                    for preg in instr.store.holds:
                        self.prf.dec_consumer(preg)
                    instr.store.holds = []
                    if self.baseline_stores:
                        # Lazily pruned: the SQ search skips committed
                        # entries, compact once half the list is stale.
                        self._baseline_stale += 1
                        if (self._baseline_stale * 2
                                > len(self.baseline_stores)):
                            self.baseline_stores = [
                                s for s in self.baseline_stores
                                if not s.dead and not s.store.committed]
                            self._baseline_stale = 0
            for ssn in entry.ssns:
                self.srb.invalidate(ssn)
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
            te = instr.trace
            li.ssn_nvul = self.ssn.commit
            value = self.timing_mem.read(te.mem_addr, te.mem_size)
            if li.mode is PREDICATED:
                # Goes to the $ldtmp register; the CMOV pair selects later.
                li.cache_value = value
            elif not li.value_from_store:
                li.obtained_value = value
        elif kind is UOP_CMP:
            li = instr.load
            li.predicate = _covers(self.trace[li.dep_trace_index],
                                   instr.trace)
        elif kind is UOP_CMOV:
            if not uop.cmov_selected:
                return False
            li = instr.load
            if li.predicate:
                dep = self.trace[li.dep_trace_index]
                li.obtained_value = _extract_forward(dep, instr.trace)
                li.value_from_store = True
            else:
                li.obtained_value = li.cache_value
                li.value_from_store = False
        elif kind is UOP_STORE:
            # Baseline: address + data now visible in the store queue.
            instr.store.sq_entry_done = True
            self._ee["lq_cam_search"] += 1
        return True

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
            if arch_regs is not None:
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
        """Paper Fig. 5: outcome of a low-confidence dependence prediction."""
        li = instr.load
        dep = instr.trace.dep_store
        in_flight = (dep is not None and dep not in self.commit_cycle)
        # A store that committed before the load renamed was not in flight.
        if dep is not None and dep in self.commit_cycle:
            in_flight = self.commit_cycle[dep] > instr.rename_cycle
        if not in_flight:
            outcome = INDEP_STORE
        elif dep == li.dep_trace_index:
            outcome = CORRECT
        else:
            outcome = DIFF_STORE
        self.stats.lowconf_outcome[outcome] += 1

    # -- committed architectural state (differential oracle support) -------

    def _arch_update(self, instr: DynInstr) -> None:
        """Apply one committed instruction to the tracked register file."""
        te = instr.trace
        isa_instr = te.instr
        op = isa_instr.op
        if isa_instr.is_load:
            self._arch_write(isa_instr.dest_reg(),
                             self._arch_load_value(instr))
        elif (isa_instr.is_store or isa_instr.is_cond_branch
              or op in (J, JR, NOP, HALT)):
            pass  # memory evolves through timing_mem; no register writes
        elif op in (JAL, JALR):
            self._arch_write(isa_instr.dest_reg(), te.pc + 4)
        else:
            regs = self.arch_regs
            rs = regs[isa_instr.rs] if isa_instr.rs is not None else 0
            rt = regs[isa_instr.rt] if isa_instr.rt is not None else 0
            imm = isa_instr.imm if isa_instr.imm is not None else 0
            self._arch_write(isa_instr.dest_reg(),
                             ALU_SEMANTICS[op](rs, rt, imm))

    def _arch_load_value(self, instr: DynInstr) -> int:
        li = instr.load
        te = instr.trace
        if li.violation:
            # The load retires, younger work squashes, and the refetched
            # consumers see what a post-recovery re-execution would read.
            # NoSQ/DMDP drain the store buffer before declaring the
            # violation, so the committed image is exact; the baseline
            # declares violations with stores still buffered, so the trace
            # value stands in for the post-recovery read.
            if self.model is BASELINE:
                raw = te.value
            else:
                raw = self.timing_mem.read(te.mem_addr, te.mem_size)
        else:
            raw = li.obtained_value
            if raw is None:
                raw = self.timing_mem.read(te.mem_addr, te.mem_size)
        if te.instr.op in SIGNED_LOADS:
            raw = sign_extend(raw, te.mem_size)
        return raw

    def _arch_write(self, reg: Optional[int], value: int) -> None:
        if reg is not None and 0 < reg < NUM_ARCH_REGS:
            self.arch_regs[reg] = value & WORD_MASK

    def architectural_registers(self) -> Optional[List[int]]:
        """Copy of the tracked committed register file (or None)."""
        return None if self.arch_regs is None else list(self.arch_regs)

    def _retire_store(self, instr: DynInstr) -> bool:
        """Move a retiring store to the store buffer; False if it is full."""
        te = instr.trace
        if not self.sb.can_accept(te.word_addr):
            return False
        si = instr.store
        self.sb.push(si.ssn, te.word_addr, te.index)
        self._ee["store_buffer_op"] += 1
        si.retired = True
        self.ssn.on_retire(si.ssn)
        if self.model is not BASELINE:
            self.tssbf.store_retire(te.word_addr, si.ssn, te.bab)
            self._ee["tssbf_access"] += 1
        else:
            self.storesets.store_complete(te.pc, instr.rob_id)
        return True

    # -- load verification -------------------------------------------------

    def _verify_load(self, head: DynInstr) -> str:
        """Returns "ok", "wait" (stall retire) or "violation"."""
        li = head.load
        te = head.trace

        if self.model is PERFECT:
            if self._tr is not None:
                self._tr.on_verify(te.index, self.cycle, "ok", "oracle",
                                   True)
            return "ok"

        if self.model is BASELINE:
            if li.obtained_value != te.value:
                dep = te.dep_store
                if dep is not None:
                    self.storesets.on_violation(te.pc, self.trace[dep].pc)
                    self._ee["store_sets_access"] += 1
                li.violation = True
                if self._tr is not None:
                    self._tr.on_verify(te.index, self.cycle, "violation",
                                       "value_mismatch", False)
                return "violation"
            if self._tr is not None:
                self._tr.on_verify(te.index, self.cycle, "ok",
                                   "value_match", True)
            return "ok"

        # NoSQ / DMDP: SVW + T-SSBF verification (paper Table II).
        if li.reexec_scheduled:
            if self.cycle < li.reexec_done_cycle:
                return "wait"
            return self._finish_reexecution(head)

        if li.tssbf_result is None:
            self._ee["tssbf_access"] += 1
            li.tssbf_result = self.tssbf.load_lookup(te.word_addr, te.bab)
        result = li.tssbf_result

        need_reexec = False
        reason = ""
        if li.value_from_store:
            if not result.matched or result.ssn != li.ssn_byp:
                need_reexec = True
                reason = "ssn_mismatch"
            elif (result.store_bab & te.bab) != te.bab:
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
                self._tr.on_verify(te.index, self.cycle, "filtered",
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
        li.reexec_done_cycle = self.hier.access(te.mem_addr, self.cycle)
        if self._tr is not None:
            self._tr.on_verify(te.index, self.cycle, "reexec", reason,
                               result.matched)
        return "wait" if li.reexec_done_cycle > self.cycle else \
            self._finish_reexecution(head)

    def _finish_reexecution(self, head: DynInstr) -> str:
        li = head.load
        te = head.trace
        reloaded = self.timing_mem.read(te.mem_addr, te.mem_size)
        changed = reloaded != li.obtained_value
        if not changed:
            self.stats.silent_reexecutions += 1
        if self._tr is not None:
            self._tr.on_verify(te.index, self.cycle,
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
        te = head.trace
        result = li.tssbf_result
        actual_distance = None
        if result is not None and result.matched:
            actual_distance = self.ssn.retire - result.ssn
        self._ee["distance_pred_access"] += 1
        if li.predicted:
            if correct:
                self.sdp.train_correct(te.pc, li.history)
            else:
                self.sdp.train_mispredict(te.pc, li.history, actual_distance,
                                          self.params.confidence_policy)
        elif reexecuted:
            # Learn a new dependence.  With the silent-store-aware policy
            # (paper Section IV-C.a) every re-execution trains the
            # predictor; otherwise only value-changing exceptions do.
            changed = self.timing_mem.read(te.mem_addr, te.mem_size) \
                != li.obtained_value
            if self.params.silent_store_aware or changed:
                self.sdp.train_mispredict(te.pc, li.history, actual_distance,
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
        for instr in self.rob:
            instr.dead = True
            for uop in instr.uops:
                uop.dead = True
            instr.uops = ()  # as at retire: no reference cycle left behind
            if instr.store is not None:
                self.inflight_store_by_id.pop(instr.rob_id, None)
        self.rob.clear()
        self.iq_occupancy = 0
        # Every blocked load belongs to a (now dead) ROB entry: the
        # violating head's own access already completed.
        self.blocked_loads.clear()
        if self.baseline_stores:
            # One pass drops the squashed entries and compacts any
            # lazily-pruned committed ones.
            self.baseline_stores = [
                s for s in self.baseline_stores
                if not s.dead and not s.store.committed]
            self._baseline_stale = 0
        self.fetch_buffer.clear()
        self.pending_branch = None
        self._pending_branch_index = None

        # SSN / store register buffer rollback: every surviving store has
        # retired (the violating load was at the ROB head).
        self.srb.remove_squashed(self.ssn.retire)
        self.ssn.rewind_rename(self.ssn.retire)

        # Rebuild physical register state from the committed map plus the
        # registers held by retired-but-uncommitted stores.
        live_producers = Counter(self.committed_map)
        live_consumers = Counter()
        for instr in self.inflight_store_by_id.values():
            if instr.store is not None:
                for preg in instr.store.holds:
                    live_consumers[preg] += 1
        self.prf.rebuild(dict(live_producers), dict(live_consumers))
        self.rename_map = list(self.committed_map)
        self.waiters.clear()

        # Refetch from the instruction after the load.
        self.fetch_index = retired_load.rob_id + 1
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
                    done = access(uop.instr.trace.mem_addr, cycle)
                else:
                    done = self._start_baseline_load(uop)
                    if done is None:
                        continue  # re-blocked (forwarding stall)
            elif kind is UOP_AGI:
                address = uop.instr.trace.mem_addr
                done = cycle + uop.latency + self.tlb.access_penalty(
                    address if address is not None else 0)
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
                if (store is not None and not store.dead
                        and store.store is not None
                        and not store.store.sq_entry_done
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
        return self.hier.access(instr.trace.mem_addr, self.cycle)

    def _search_store_queue(self, load: DynInstr):
        """Baseline SQ+SB search: youngest older store with a known,
        overlapping address.  Returns (store, value|None) or None."""
        te = load.trace
        l_lo, l_hi = te.mem_addr, te.mem_addr + te.mem_size
        best = None
        for store in reversed(self.baseline_stores):
            if store.dead or store.rob_id > load.rob_id:
                continue
            si = store.store
            if si.committed:
                continue
            if not (si.sq_entry_done or si.retired):
                continue  # address unknown: speculate past it
            ste = store.trace
            s_lo, s_hi = ste.mem_addr, ste.mem_addr + ste.mem_size
            if s_lo < l_hi and l_lo < s_hi:
                best = store
                break
        if best is None:
            return None
        return best, _extract_forward(best.trace, te)

    # ------------------------------------------------------------------
    # Stage: rename / dispatch.
    # ------------------------------------------------------------------

    def _rename(self) -> None:
        params = self.params
        width = params.rename_width
        budget = width
        rob_entries = params.rob_entries
        iq_entries = params.iq_entries
        fetch_buffer = self.fetch_buffer
        rob = self.rob
        trace = self.trace
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
        cycle = self.cycle
        baseline = self.model is BASELINE
        agen_latency = params.agen_latency
        iq_occupancy = self.iq_occupancy
        renamed_uops = 0
        while budget > 0 and fetch_buffer:
            avail, index = fetch_buffer[0]
            if avail > cycle:
                break
            if len(rob) >= rob_entries:
                break
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
            fetch_buffer.popleft()
            instr = DynInstr(index, trace[index], cycle, dec)

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

            if dec.is_mem:
                if dec.is_load:
                    self._crack_load(instr, dec, dest)
                else:
                    self._crack_store(instr, dec, dest)
                uop_count = len(instr.uops)
            else:
                instr.result_preg = dest
                if dec.is_control:
                    if self._pending_branch_index == index:
                        self.pending_branch = instr
                        self._pending_branch_index = None
                    ee["bpred_access"] += 1
                uop_count = 1

            rob.append(instr)
            iq_occupancy += uop_count
            renamed_uops += uop_count
            budget -= uop_count
            if tr is not None:
                tr.on_rename(instr, cycle)
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
        te = instr.trace
        data_preg = self.rename_map[dec.rt]
        ssn = self.ssn.next_rename()
        si = StoreInfo(ssn=ssn, data_preg=data_preg, addr_preg=addr_preg)
        instr.store = si
        self.inflight_store_by_id[instr.rob_id] = instr

        if self.model is BASELINE:
            # The SQ-entry MicroOp makes address+data searchable.
            self._new_uop(instr, UOP_STORE, FU_MEM, 1,
                          (addr_preg, data_preg), None)
            self._ee["sq_write"] += 1
            self.baseline_stores.append(instr)
            self.storesets.store_rename(te.pc, instr.rob_id)
            self._ee["store_sets_access"] += 1
        else:
            # Store-queue-free: no access MicroOp.  The data and address
            # registers are read at commit, so their lifetimes extend
            # (consumer counter holds, paper Section IV-B.a).
            self.srb.add(ssn, data_preg, addr_preg, te.index)
            consumer = self.prf.consumer
            consumer[data_preg] += 1
            consumer[addr_preg] += 1
            si.holds = [data_preg, addr_preg]

    def _crack_load(self, instr: DynInstr, dec: _Decoded,
                    addr_preg: int) -> None:
        te = instr.trace
        model = self.model

        if model is BASELINE:
            li = LoadInfo(mode=DIRECT)
            instr.load = li
            li.storeset_wait = self.storesets.load_rename(te.pc)
            self._ee["store_sets_access"] += 1
            dest = self._rename_dest(instr, dec.rd)
            instr.result_preg = dest
            self._new_uop(instr, UOP_LOAD, FU_MEM, 0,
                          (addr_preg,), dest)
            return

        if model is PERFECT:
            self._crack_load_perfect(instr, addr_preg, dec)
            return

        # NoSQ / DMDP: consult the store distance predictor at rename.
        history = self._history[te.index]
        self._ee["distance_pred_access"] += 1
        prediction = self.sdp.predict(te.pc, history)
        li = LoadInfo(mode=DIRECT, history=history)
        instr.load = li

        entry = None
        if prediction is not None:
            ssn_byp = self.ssn.rename - prediction.distance
            if ssn_byp > self.ssn.commit:
                entry = self.srb.lookup(ssn_byp)
            if entry is not None:
                li.predicted = True
                li.ssn_byp = ssn_byp
                li.dep_trace_index = entry.trace_index
                self.stats.dep_predictions += 1
            if self._tr is not None:
                self._tr.on_dep_predict(
                    te.index, self.cycle, te.pc, prediction.confidence,
                    prediction.distance, ssn_byp,
                    entry.trace_index if entry is not None else None,
                    entry is not None)

        if entry is None:
            # Independent (or the predicted store already committed):
            # direct cache access, verified by SVW at retire.
            dest = self._rename_dest(instr, dec.rd)
            instr.result_preg = dest
            self._new_uop(instr, UOP_LOAD, FU_MEM, 0,
                          (addr_preg,), dest)
            return

        threshold = self.params.predictor.confidence_threshold
        high_confidence = prediction.confidence > threshold
        # Paper Section IV-D: partial-word loads are prohibited from memory
        # cloaking in DMDP (alignment / sign extension) and are forced to
        # predication regardless of confidence; NoSQ instead inserts a
        # shift&mask fix-up and may still bypass them.
        if model is DMDP and dec.is_partial:
            self._crack_load_predicated(instr, entry, addr_preg, dec,
                                        low_confidence=not high_confidence)
        elif high_confidence:
            self._crack_load_bypass(instr, entry, addr_preg, dec)
        elif model is NOSQ:
            self._crack_load_delayed(instr, entry, addr_preg, dec)
        else:
            self._crack_load_predicated(instr, entry, addr_preg, dec)

    def _crack_load_perfect(self, instr: DynInstr, addr_preg: int,
                            dec: _Decoded) -> None:
        te = instr.trace
        li = LoadInfo(mode=DIRECT)
        instr.load = li
        dep = te.dep_store
        dep_instr = self.inflight_store_by_id.get(dep) if dep is not None \
            else None
        if dep_instr is not None and not dep_instr.store.committed:
            # Oracle cloaking from the in-flight producing store.
            li.mode = BYPASS
            li.value_from_store = True
            li.obtained_value = te.value
            data_preg = dep_instr.store.data_preg
            self._rename_dest_shared(instr, dec.rd, data_preg)
            instr.result_preg = data_preg
            li.holds.append(data_preg)
            self.prf.add_consumer(data_preg)
        else:
            dest = self._rename_dest(instr, dec.rd)
            instr.result_preg = dest
            self._new_uop(instr, UOP_LOAD, FU_MEM, 0,
                          (addr_preg,), dest)

    def _crack_load_bypass(self, instr: DynInstr, entry, addr_preg: int,
                           dec: _Decoded) -> None:
        """Memory cloaking (paper Fig. 7(c))."""
        te = instr.trace
        li = instr.load
        li.mode = BYPASS
        li.value_from_store = True
        self.stats.cloaked_loads += 1
        dep = self.trace[entry.trace_index]
        li.obtained_value = _extract_forward(dep, te)
        data_preg = entry.data_preg
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

    def _crack_load_delayed(self, instr: DynInstr, entry, addr_preg: int,
                            dec: _Decoded) -> None:
        """NoSQ low-confidence: wait for the predicted store to commit."""
        li = instr.load
        li.mode = DELAYED
        li.low_confidence = True
        self.stats.delayed_loads += 1
        dest = self._rename_dest(instr, dec.rd)
        instr.result_preg = dest
        self._new_uop(instr, UOP_LOAD, FU_MEM, 0,
                      (addr_preg,), dest)

    def _crack_load_predicated(self, instr: DynInstr, entry,
                               addr_preg: int, dec: _Decoded,
                               low_confidence: bool = True) -> None:
        """DMDP predication insertion (paper Fig. 8)."""
        te = instr.trace
        li = instr.load
        li.mode = PREDICATED
        li.low_confidence = low_confidence
        self.stats.predicated_loads += 1

        store_addr_preg = entry.addr_preg
        store_data_preg = entry.data_preg

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
        dep = self.trace[entry.trace_index]
        selected_store = _covers(dep, te)
        cmov_store.cmov_selected = selected_store
        cmov_cache.cmov_selected = not selected_store
        if self._tr is not None:
            self._tr.on_predication(te.index, self.cycle, low_confidence,
                                    selected_store)

    # ------------------------------------------------------------------
    # Stage: fetch.
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        cycle = self.cycle
        if cycle < self.fetch_blocked_until or self.pending_branch:
            return
        fetch_buffer = self.fetch_buffer
        width = self.params.fetch_width
        if len(fetch_buffer) >= 2 * width:
            return
        first = index = self.fetch_index
        end = min(index + width, len(self.trace))
        if index >= end:
            return
        avail = cycle + 2  # fetch + decode depth
        trace = self.trace
        dec_by_index = self._dec_by_index
        mispredicted = self._mispredicted
        taken_bits = self._taken_bits
        tr = self._tr
        while index < end:
            fetch_buffer.append((avail, index))
            if tr is not None:
                tr.on_fetch(index, trace[index].pc, cycle, avail)
            fetched = index
            index += 1
            if dec_by_index[fetched].is_control:
                if mispredicted[fetched]:
                    # Stall fetch until this branch resolves (the
                    # resumption cycle is set at branch completion).  The
                    # branch is not renamed yet: remember its index so the
                    # renamed DynInstr can be linked as the pending redirect.
                    self.fetch_blocked_until = 1 << 62
                    self._pending_branch_index = fetched
                    break
                if taken_bits[fetched] & F_TAKEN:
                    break  # a taken branch ends the fetch group
        self.fetch_index = index
        self._ee["fetch_decode"] += index - first

    # ------------------------------------------------------------------
    # External hooks.
    # ------------------------------------------------------------------

    def inject_invalidation(self, line_addr: int) -> None:
        """Multi-core consistency hook (paper Section IV-F): another core
        invalidated a line; all words update the T-SSBF with SSN_commit+1."""
        self.hier.invalidate_line(line_addr)
        self.tssbf.invalidate_line(line_addr, self.params.l1d.line_bytes,
                                   self.ssn.commit)

