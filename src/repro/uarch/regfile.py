"""Physical register file with producer/consumer reference counting.

DMDP breaks the two classic invariants of physical registers (paper
Section IV-B.a):

* a register may be *defined more than once* (memory cloaking reuses the
  store's data register as the load's destination; the two CMOVs of a
  predication share one destination), tracked by a **producer counter**
  incremented at each definition and decremented when the overwriting
  instruction retires (virtual release, paper Fig. 9);
* a register may be *read after release time* (a predication reads the
  store's data/address registers; the store buffer reads them at commit),
  tracked by a **consumer counter** incremented when a consumer renames and
  decremented when it executes (a store "executes" when it commits).

A register returns to the free list only when both counters are zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class RegfileError(Exception):
    """Raised on reference-counting protocol violations."""


class PhysRegFile:
    """Physical registers, free list, reference counters and ready bits.

    ``aux_regs`` models the *baseline's* address storage: a conventional
    superscalar keeps memory addresses in store-queue/load-queue entries
    rather than dedicated physical registers (paper Section IV-A.e), so
    the baseline's address-generation MicroOps draw from this auxiliary
    space (ids ``num_pregs ..``) instead of competing with data registers.
    Store-queue-free models leave it at zero -- their extra address
    registers are exactly the cost the paper's register-pressure study
    measures.
    """

    def __init__(self, num_pregs: int, aux_regs: int = 0):
        if num_pregs < 40:
            raise RegfileError("need at least 40 physical registers")
        self.num_pregs = num_pregs
        self.aux_regs = aux_regs
        total = num_pregs + aux_regs
        self.producer = [0] * total
        self.consumer = [0] * total
        # ready_cycle[p] is None while the value is still being produced.
        self.ready_cycle: List[Optional[int]] = [None] * total
        # Free lists, popped from the end.  Public so the pipeline's rename
        # stage can check space and allocate without a method call.
        self.free: List[int] = list(range(num_pregs - 1, -1, -1))
        self.free_aux: List[int] = list(range(total - 1, num_pregs - 1, -1))
        self.alloc_stalls = 0

    # -- allocation -----------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self.free)

    def allocate(self) -> Optional[int]:
        """Pop a free data register (producer count set to 1, not ready).
        The rename stage pops auxiliary registers from ``free_aux``
        itself."""
        if not self.free:
            self.alloc_stalls += 1
            return None
        preg = self.free.pop()
        self.producer[preg] = 1
        self.consumer[preg] = 0
        self.ready_cycle[preg] = None
        return preg

    def release(self, preg: int) -> None:
        """Return a register whose producer and consumer counts both
        reached zero to its free list (the caller checked the counts)."""
        self.ready_cycle[preg] = None
        if preg >= self.num_pregs:
            self.free_aux.append(preg)
        else:
            self.free.append(preg)

    def _maybe_release(self, preg: int) -> None:
        if self.producer[preg] == 0 and self.consumer[preg] == 0:
            self.release(preg)

    # -- producer counting ------------------------------------------------------

    def add_producer(self, preg: int) -> None:
        """Additional definition of an already-allocated register
        (cloaking reuse, second CMOV of a predication).

        The register may have producer count zero but still be alive
        through consumer holds -- e.g. a store's data register whose
        logical mapping was already overwritten and virtually released,
        while the store (and a cloaking load) still reference it.
        """
        if self.producer[preg] <= 0 and self.consumer[preg] <= 0:
            raise RegfileError("add_producer on dead preg %d" % preg)
        self.producer[preg] += 1

    def dec_producer(self, preg: int) -> None:
        """Virtual release: the instruction overwriting this mapping retired."""
        if self.producer[preg] <= 0:
            raise RegfileError("producer underflow on preg %d" % preg)
        self.producer[preg] -= 1
        self._maybe_release(preg)

    # -- consumer counting -------------------------------------------------------

    def add_consumer(self, preg: int) -> None:
        self.consumer[preg] += 1

    def dec_consumer(self, preg: int) -> None:
        if self.consumer[preg] <= 0:
            raise RegfileError("consumer underflow on preg %d" % preg)
        self.consumer[preg] -= 1
        self._maybe_release(preg)

    # -- ready bits ---------------------------------------------------------------

    def set_ready(self, preg: int, cycle: int) -> None:
        current = self.ready_cycle[preg]
        if current is None or cycle > current:
            self.ready_cycle[preg] = cycle

    def is_ready(self, preg: int, cycle: int) -> bool:
        ready = self.ready_cycle[preg]
        return ready is not None and ready <= cycle

    # -- recovery ------------------------------------------------------------------

    def rebuild(self, live_producers: Dict[int, int],
                live_consumers: Dict[int, int]) -> None:
        """Reset all counters after a full-pipeline squash.

        ``live_producers`` / ``live_consumers`` give the reference counts of
        registers that survive the flush (the committed rename map, plus
        registers held by the store buffer / store register buffer).  Ready
        state of surviving registers is preserved; everything else returns
        to the free list.
        """
        survivors = set(live_producers) | set(live_consumers)
        new_free = []
        new_free_aux = []
        for preg in range(self.num_pregs + self.aux_regs):
            if preg in survivors:
                self.producer[preg] = live_producers.get(preg, 0)
                self.consumer[preg] = live_consumers.get(preg, 0)
            else:
                self.producer[preg] = 0
                self.consumer[preg] = 0
                self.ready_cycle[preg] = None
                if preg >= self.num_pregs:
                    new_free_aux.append(preg)
                else:
                    new_free.append(preg)
        new_free.reverse()
        new_free_aux.reverse()
        self.free = new_free
        self.free_aux = new_free_aux
