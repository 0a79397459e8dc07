"""Pipeline tracer protocol and its implementations.

The timing simulator accepts a *tracer* (``Simulator(tracer=...)``) and
invokes a small set of hooks at its stage boundaries.  With no tracer, or
one whose ``enabled`` is False (the :class:`PipelineTracer` base), the
pipeline never calls a hook: the only hot-loop cost is one attribute
check per guard site (the zero-overhead-when-off contract, DESIGN.md
section 10).  Two implementations record:

* :class:`RecordingTracer` -- appends one :class:`TraceEvent` per hook to
  an in-memory list, optionally restricted to a ``TraceWindow`` of dynamic
  instruction indices.  Feeds the Konata/JSONL exporters and the metrics
  builder.
* :class:`MetricsTracer` -- same hooks, but folds every event into a
  :class:`repro.obs.metrics.MetricsAccumulator` without storing it, so
  whole-experiment metrics collection stays O(1) in memory.

All hooks are strictly read-only observers: they must never mutate
simulator state, so enabling a tracer cannot perturb timing (the golden
stats suite pins this).
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple


class EventKind(enum.Enum):
    """What a :class:`TraceEvent` describes (``.value`` is the JSONL tag)."""

    FETCH = "fetch"              # instruction entered the fetch buffer
    RENAME = "rename"            # instruction renamed/cracked (uop list)
    DISPATCH = "dispatch"        # one uop entered the issue queue
    ISSUE = "issue"              # uop left the issue queue for an FU
    WRITEBACK = "writeback"      # uop completed execution
    RETIRE = "retire"            # instruction retired from the ROB head
    SQUASH = "squash"            # full pipeline flush (cause + victims)
    REDIRECT = "redirect"        # mispredicted branch resolved (refetch)
    DEP_PREDICT = "dep_predict"  # store distance predictor consulted
    PREDICATION = "predication"  # DMDP CMP/CMOV sequence inserted
    VERIFY = "verify"            # retire-time verification outcome
    SB_DRAIN = "sb_drain"        # store buffer completed >=1 cache write


class TraceEvent(NamedTuple):
    """One observed pipeline event.

    ``index`` is the dynamic instruction index (trace position / rob_id);
    ``uop`` the global MicroOp sequence number for per-uop events.  ``data``
    is a small kind-specific dict (see the hook that emits it).
    """

    cycle: int
    kind: EventKind
    index: Optional[int]
    uop: Optional[int]
    data: dict


class TraceWindow(NamedTuple):
    """Half-open dynamic-instruction-index range ``[start, stop)``."""

    start: int
    stop: int

    def __contains__(self, index) -> bool:  # type: ignore[override]
        return index is not None and self.start <= index < self.stop

    @classmethod
    def parse(cls, text: str) -> "TraceWindow":
        """Parse the CLI's ``N:M`` syntax (either side may be empty)."""
        if ":" not in text:
            raise ValueError("trace window must look like N:M, got %r" % text)
        lo, hi = text.split(":", 1)
        try:
            start = int(lo) if lo else 0
            stop = int(hi) if hi else 1 << 62
        except ValueError:
            raise ValueError("trace window bounds must be integers, got %r"
                             % text) from None
        if start < 0 or stop < start:
            raise ValueError("trace window %r is empty or negative" % text)
        return cls(start, stop)


class PipelineTracer:
    """Hook protocol (and explicit no-op base) for pipeline observers.

    Subclasses override ``emit``; the hook methods translate pipeline
    state into :class:`TraceEvent` records.  The simulator only calls any
    of these when ``enabled`` is True.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - base
        pass

    def close(self) -> None:
        """Flush/finalise (no-op by default)."""

    # -- stage hooks (called by repro.uarch.pipeline.Simulator) ----------

    def on_fetch(self, index: int, pc: int, cycle: int, avail: int) -> None:
        self.emit(TraceEvent(cycle, EventKind.FETCH, index, None,
                             {"pc": pc, "avail": avail}))

    def on_rename(self, instr, cycle: int) -> None:
        dec = instr.dec
        # Lists, not tuples: the JSONL round trip must reproduce the
        # in-memory events exactly (tools/trace_diff.py compares them).
        uops = [[u.seq, u.kind.value] for u in instr.uops]
        data = {"pc": dec.pc, "asm": str(dec.instr), "uops": uops}
        li = instr.load
        if li is not None:
            data["load_kind"] = li.mode.value
        self.emit(TraceEvent(cycle, EventKind.RENAME, instr.rob_id, None,
                             data))
        for seq, kind in uops:
            self.emit(TraceEvent(cycle, EventKind.DISPATCH, instr.rob_id,
                                 seq, {"uop": kind}))

    def on_issue(self, uop, cycle: int) -> None:
        self.emit(TraceEvent(cycle, EventKind.ISSUE, uop.instr.rob_id,
                             uop.seq, {"uop": uop.kind.value}))

    def on_writeback(self, uop, cycle: int) -> None:
        self.emit(TraceEvent(cycle, EventKind.WRITEBACK, uop.instr.rob_id,
                             uop.seq, {"uop": uop.kind.value}))

    def on_retire(self, instr, cycle: int, exec_time: int) -> None:
        data: dict = {"exec_time": exec_time}
        li = instr.load
        if li is not None:
            data["load_kind"] = li.mode.value
            data["lowconf"] = li.low_confidence
        if instr.dec.is_store:
            data["store"] = True
        self.emit(TraceEvent(cycle, EventKind.RETIRE, instr.rob_id, None,
                             data))

    def on_squash(self, cause, cycle: int, trigger_index: int,
                  flushed: List[int]) -> None:
        self.emit(TraceEvent(cycle, EventKind.SQUASH, trigger_index, None,
                             {"cause": cause.value, "flushed": flushed}))

    def on_redirect(self, index: int, cycle: int) -> None:
        self.emit(TraceEvent(cycle, EventKind.REDIRECT, index, None, {}))

    def on_dep_predict(self, index: int, cycle: int, pc: int,
                       confidence: int, distance: int,
                       ssn_byp: Optional[int], dep_index: Optional[int],
                       applied: bool) -> None:
        self.emit(TraceEvent(cycle, EventKind.DEP_PREDICT, index, None,
                             {"pc": pc, "conf": confidence,
                              "dist": distance, "ssn_byp": ssn_byp,
                              "dep": dep_index, "applied": applied}))

    def on_predication(self, index: int, cycle: int, low_confidence: bool,
                       selected_store: bool) -> None:
        self.emit(TraceEvent(cycle, EventKind.PREDICATION, index, None,
                             {"lowconf": low_confidence,
                              "sel_store": selected_store}))

    def on_verify(self, index: int, cycle: int, outcome: str, reason: str,
                  matched: bool) -> None:
        self.emit(TraceEvent(cycle, EventKind.VERIFY, index, None,
                             {"outcome": outcome, "reason": reason,
                              "matched": matched}))

    def on_sb_drain(self, cycle: int, occupancy: int,
                    completed: int) -> None:
        self.emit(TraceEvent(cycle, EventKind.SB_DRAIN, None, None,
                             {"occ": occupancy, "n": completed}))


class RecordingTracer(PipelineTracer):
    """Captures every event in order, optionally windowed by instruction
    index.  Events without an index (store-buffer drains) are always kept
    so occupancy metrics stay complete under a window."""

    enabled = True

    def __init__(self, window: Optional[TraceWindow] = None):
        self.window = window
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        window = self.window
        if (window is not None and event.index is not None
                and event.index not in window):
            return
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class MetricsTracer(PipelineTracer):
    """Aggregates events straight into a metrics accumulator (no event
    storage), for whole-experiment metrics opt-in."""

    enabled = True

    def __init__(self):
        from .metrics import MetricsAccumulator
        self.acc = MetricsAccumulator()

    def emit(self, event: TraceEvent) -> None:
        self.acc.feed(event)

    def report(self) -> Dict[str, object]:
        return self.acc.report()
