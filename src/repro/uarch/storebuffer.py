"""Store buffer: retired stores waiting to update the cache.

Store-queue-free architectures eliminate the *store queue* (speculative
stores) but still need this post-retirement buffer to overlap store-miss
latency and implement the consistency model (paper Sections I, IV-F, VI-e).
Loads never search it.

* **TSO**: stores leave the buffer strictly in program order, one at a time;
  consecutive stores to the same word are coalesced into one entry
  (paper Section V: "only consecutive stores are coalesced").
* **RMO**: stores may commit out of order; several cache writes can be in
  flight at once, which drains the buffer faster under store misses.

When the buffer is full, stores cannot retire from the ROB and retire
stalls (tracked by the pipeline).
"""

from __future__ import annotations

from typing import List, Optional

from .cachesim import MemoryHierarchy
from .params import Consistency

# Bound at import (DESIGN.md section 9): a class-level enum lookup runs
# the metaclass's attribute hook on every call.
TSO = Consistency.TSO


class StoreBufferEntry:
    """One (possibly coalesced) pending cache update.

    A plain ``__slots__`` class, so equality is identity: RMO's
    ``entries.remove`` finds the entry itself (SSNs are unique, so field
    equality found the same one)."""

    __slots__ = ("ssn", "word_addr", "trace_indices", "ssns", "start_cycle",
                 "done_cycle")

    def __init__(self, ssn: int, word_addr: int, trace_indices: List[int],
                 ssns: List[int]):
        self.ssn = ssn                # youngest SSN merged into this entry
        self.word_addr = word_addr
        self.trace_indices = trace_indices
        self.ssns = ssns
        # Set when the cache write starts; None while it is pending.
        self.start_cycle: Optional[int] = None
        self.done_cycle: Optional[int] = None


class StoreBuffer:
    """Bounded FIFO of retired stores draining into the cache hierarchy."""

    def __init__(self, capacity: int, consistency: Consistency,
                 coalescing: bool = True, rmo_parallelism: int = 4):
        self.capacity = capacity
        self.consistency = consistency
        self.coalescing = coalescing
        self.rmo_parallelism = rmo_parallelism
        self.entries: List[StoreBufferEntry] = []
        self.coalesced_stores = 0
        self.peak_occupancy = 0
        # Optional pipeline tracer (None = off): samples occupancy at
        # drain events, one attribute check per tick when disabled.
        self.tracer = None

    # -- occupancy ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def can_accept(self, word_addr: int) -> bool:
        """Is there room for a store to this word (coalescing-aware)?"""
        if self.coalescing and self._coalesce_target(word_addr) is not None:
            return True
        return len(self.entries) < self.capacity

    def _coalesce_target(self, word_addr: int) -> Optional[StoreBufferEntry]:
        """TSO coalescing: only the *youngest* (tail) entry may merge, and
        only if its cache write has not started."""
        if self.entries:
            tail = self.entries[-1]
            if tail.word_addr == word_addr and tail.start_cycle is None:
                return tail
        return None

    # -- push at store retire ------------------------------------------------------

    def push(self, ssn: int, word_addr: int, trace_index: int) -> bool:
        """Add a retiring store; returns False when the buffer is full."""
        if self.coalescing:
            target = self._coalesce_target(word_addr)
            if target is not None:
                target.ssn = max(target.ssn, ssn)
                target.ssns.append(ssn)
                target.trace_indices.append(trace_index)
                self.coalesced_stores += 1
                return True
        if len(self.entries) >= self.capacity:
            return False
        self.entries.append(StoreBufferEntry(ssn, word_addr, [trace_index],
                                             [ssn]))
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))
        return True

    # -- draining -----------------------------------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which :meth:`tick` can change observable
        state (complete an entry, pop the head, or start a pending write).

        Used by the pipeline's event-driven cycle skipping: between now and
        the returned cycle, ticking the buffer every cycle is a no-op, so
        those ticks may be elided without changing any timing.  Starting an
        entry counts as observable because TSO coalescing keys off whether
        the tail has started.  Returns ``None`` when the buffer is empty.
        """
        if not self.entries:
            return None
        tso = self.consistency is TSO
        in_flight = 0
        earliest_done: Optional[int] = None
        unstarted = False
        for entry in self.entries:
            if entry.start_cycle is not None:
                if entry.done_cycle > cycle:
                    in_flight += 1
                    if (earliest_done is None
                            or entry.done_cycle < earliest_done):
                        earliest_done = entry.done_cycle
                elif not tso:
                    return cycle + 1  # RMO: completed entry pops next tick
            else:
                unstarted = True
        if unstarted and in_flight < self.rmo_parallelism:
            # A pending entry starts on the very next tick.
            return cycle + 1
        candidates = []
        if tso:
            # Only the head's completion pops entries under TSO commit
            # order; younger completed entries are inert behind it.
            head = self.entries[0]
            if head.start_cycle is not None:
                if head.done_cycle <= cycle:
                    return cycle + 1
                candidates.append(head.done_cycle)
        elif earliest_done is not None:
            candidates.append(earliest_done)
        if unstarted and earliest_done is not None:
            # Saturated: the next start is gated on an in-flight completion
            # freeing a slot (in-flight is counted against wall-clock, so
            # this holds even for completions buffered behind a TSO head).
            candidates.append(earliest_done)
        return min(candidates) if candidates else cycle + 1

    def tick(self, cycle: int,
             hierarchy: MemoryHierarchy) -> List[StoreBufferEntry]:
        """Advance the drain engine one cycle; returns entries whose cache
        write completed this cycle (in completion order).

        Under both models the buffer initiates the cache accesses of up to
        ``rmo_parallelism`` pending entries at once -- this is the store
        miss-level parallelism that makes a larger buffer worthwhile (paper
        Section VI-e, citing store-MLP work [33]).  The difference is
        commit order: **TSO** pops strictly from the head (a missing head
        blocks younger, already-fetched stores from becoming visible),
        while **RMO** lets any completed entry commit.

        Started entries always form a prefix of the buffer: entries start
        oldest first, new ones join unstarted at the tail, coalescing
        merges only into an unstarted tail, and removing completed ones
        keeps a prefix a prefix.  So one pass counts the in-flight prefix
        and then starts pending entries while a slot is free.
        """
        entries = self.entries
        limit = self.rmo_parallelism
        in_flight = 0
        for entry in entries:
            if entry.start_cycle is not None:
                if entry.done_cycle > cycle:
                    in_flight += 1
            elif in_flight < limit:
                entry.start_cycle = cycle
                entry.done_cycle = hierarchy.access(
                    entry.word_addr, cycle, is_write=True)
                in_flight += 1
            else:
                break

        if self.consistency is TSO:
            completed = []
            while (entries and entries[0].start_cycle is not None
                   and entries[0].done_cycle <= cycle):
                completed.append(entries.pop(0))
        else:
            completed = [e for e in entries
                         if e.start_cycle is not None
                         and e.done_cycle <= cycle]
            for entry in completed:
                entries.remove(entry)
        if completed and self.tracer is not None:
            self.tracer.on_sb_drain(cycle, len(self.entries), len(completed))
        return completed
