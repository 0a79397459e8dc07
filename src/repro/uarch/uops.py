"""MicroOp and in-flight instruction state for the timing pipeline.

Every architectural instruction cracks into one or more MicroOps at
rename/decode time (paper Section IV-A.e, Fig. 7-8):

* memory operations split into an **AGI** (address generation, writing the
  hardware-only logical register ``$32``) plus, depending on the model and
  the dependence prediction, a cache-access MicroOp;
* DMDP predication inserts **CMP** (predicate compute, ``$34``) and two
  **CMOV**s sharing one destination register (Fig. 8);
* stores in store-queue-free models dispatch *no* access MicroOp at all --
  their data/address registers are read at commit.

These classes are the simulator's highest-volume allocations (one
:class:`DynInstr` per dynamic instruction, one :class:`Uop` per MicroOp),
so they are plain ``__slots__`` classes rather than dataclasses: no
per-instance ``__dict__``, cheaper attribute access, and identity-based
equality (which the pipeline's membership tests rely on anyway).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from ..isa import FuClass
from .stats import LoadKind


class UopKind(enum.Enum):
    # Identity hashing (see FuClass): cheap dict/set use in the hot loop.
    __hash__ = object.__hash__

    ALU = "alu"            # any single-MicroOp computation or NOP/HALT
    BRANCH = "branch"
    AGI = "agi"            # address generation + TLB translate
    LOAD = "load"          # cache-port access MicroOp
    STORE = "store"        # baseline only: store-queue entry write
    CMP = "cmp"            # DMDP predicate computation
    CMOV = "cmov"          # DMDP conditional move (one of a pair)
    SHIFTMASK = "shiftmask"  # NoSQ partial-word bypass fix-up instruction


class UopState(enum.Enum):
    __hash__ = object.__hash__

    WAITING = 0
    READY = 1
    ISSUED = 2
    DONE = 3


# Bound at import (DESIGN.md section 9): a class-level enum lookup runs
# the metaclass's attribute hook on every call.
WAITING = UopState.WAITING


class Uop:
    """One MicroOp in flight."""

    __slots__ = ("seq", "kind", "fu", "latency", "srcs", "dest", "instr",
                 "state", "remaining_srcs", "dead", "cmov_selected")

    def __init__(self, seq: int, kind: UopKind, fu: FuClass, latency: int,
                 srcs: Tuple[int, ...], dest: Optional[int],
                 instr: "DynInstr"):
        self.seq = seq                 # global MicroOp age (issue priority)
        self.kind = kind
        self.fu = fu
        self.latency = latency
        self.srcs = srcs               # source physical registers
        self.dest = dest               # destination physical register
        self.instr = instr
        self.state = WAITING
        self.remaining_srcs = 0
        self.dead = False              # squashed; ignore all pending events
        # CMOV pair bookkeeping: does this CMOV actually write the register?
        self.cmov_selected = False

    def __repr__(self) -> str:  # pragma: no cover
        return "<Uop %d %s %s>" % (self.seq, self.kind.value, self.state.name)


class LoadInfo:
    """Timing-model bookkeeping for one dynamic load.

    Rename records the dependence prediction (the predicted store's SSN
    and trace index) and, for a low-confidence one, whether the true
    producer was in flight then; retire verifies the load and classifies
    the prediction (paper Fig. 5) from them."""

    __slots__ = ("mode", "low_confidence", "producer_in_flight",
                 "predicted", "ssn_byp", "dep_trace_index", "ssn_nvul",
                 "obtained_value", "value_from_store", "predicate",
                 "reexec_scheduled", "reexec_done_cycle", "violation",
                 "holds", "history", "cache_value", "tssbf_result",
                 "storeset_wait", "forward_block")

    def __init__(self, mode: LoadKind, history: int = 0):
        self.mode = mode
        self.low_confidence = False
        self.producer_in_flight = False
        self.predicted = False               # a dependence prediction was made
        self.ssn_byp: Optional[int] = None   # predicted colliding store SSN
        self.dep_trace_index: Optional[int] = None  # trace idx of pred. store
        self.ssn_nvul: Optional[int] = None  # SSN_commit sampled at cache read
        self.obtained_value: Optional[int] = None  # value the load got
        self.value_from_store = False        # forwarded (cloak / predicate==1)
        self.predicate: Optional[bool] = None  # DMDP CMP outcome
        self.reexec_scheduled = False
        self.reexec_done_cycle: Optional[int] = None
        self.violation = False
        # Consumer holds taken at rename, released at retire.
        self.holds: List[int] = []
        # Predictor-training context.
        self.history = history
        # Predicated loads: cache data parked in the $ldtmp register.
        self.cache_value: Optional[int] = None
        # Retire-time verification cache (one T-SSBF read per load).
        self.tssbf_result: Optional[object] = None
        # Baseline: store-set ordering and forwarding-stall bookkeeping.
        self.storeset_wait: Optional[int] = None
        self.forward_block: Optional[int] = None


class StoreInfo:
    """Timing-model bookkeeping for one dynamic store.

    A store is in flight from rename until it commits or is squashed;
    the pipeline's ``inflight_store_by_id`` is the one record of which
    stores are, and its Store Register Buffer (``srb``) names the same
    stores by SSN.  ``data_preg`` and ``addr_preg`` are what cloaking
    and predication read from it."""

    __slots__ = ("ssn", "data_preg", "addr_preg", "holds", "sq_entry_done",
                 "retired")

    def __init__(self, ssn: int, data_preg: int, addr_preg: int):
        self.ssn = ssn
        self.data_preg = data_preg
        self.addr_preg = addr_preg
        # Consumer holds released when the store commits (NoSQ/DMDP) or
        # executes (baseline handles them through the SQ MicroOp sources).
        self.holds: List[int] = []
        self.sq_entry_done = False  # baseline: address+data visible in SQ
        self.retired = False


class DynInstr:
    """One architectural instruction in flight.

    The pipeline reads its per-entry fields by trace index (``rob_id``)
    from the packed trace's columns and bundle tables, and its per-static
    fields (pc, :class:`~repro.isa.Instruction`) from ``dec``."""

    __slots__ = ("rob_id", "uops", "rename_cycle", "load", "store",
                 "renames", "result_preg", "dead", "pending_uops", "dec")

    def __init__(self, rob_id: int, rename_cycle: int = 0, dec=None):
        self.rob_id = rob_id           # program-order id (== trace index)
        # Decode template (pipeline._Decoded) shared across all dynamic
        # instances of this static instruction; None outside the pipeline.
        self.dec = dec
        # Emptied at retire and squash, which breaks the instruction <->
        # MicroOp reference cycle (both are then freed by refcounting).
        self.uops: List[Uop] = []
        self.rename_cycle = rename_cycle
        self.load: Optional[LoadInfo] = None
        self.store: Optional[StoreInfo] = None
        # Rename-map updates: (logical, new preg, overwritten preg), applied
        # to the committed map -- with virtual release -- at retire.
        self.renames: List[Tuple[int, int, int]] = []
        # Physical register whose readiness is the architectural result.
        self.result_preg: Optional[int] = None
        self.dead = False
        # MicroOps not yet written back; the pipeline's retire stage checks
        # this counter instead of scanning ``uops`` every cycle.
        self.pending_uops = 0
