"""Store sequence number (SSN) tracking.

The paper (Section IV) tracks every store with a unique SSN and three
globally observable registers:

* ``SSN_rename`` -- incremented when a store renames; the store's own SSN.
* ``SSN_retire`` -- SSN of the youngest retired store.
* ``SSN_commit`` -- SSN of the youngest store that has updated the cache.

SSNs start at 0 (= "no store"); the first renamed store gets SSN 1, so a
younger store always has a larger SSN.

The paper's **Store Register Buffer** maps the SSN of every in-flight store
to the physical registers holding its data and address, so that memory
cloaking and predication insertion can name them at rename/decode time.  It
is the pipeline's ``Simulator.srb`` dict, SSN -> the store's ``DynInstr``,
whose ``StoreInfo`` holds both registers.  An entry leaves it when the store
commits (after which forwarding is prohibited and the load must read the
cache) or is squashed.
"""

from __future__ import annotations


class SsnState:
    """The three global SSN registers."""

    def __init__(self) -> None:
        self.rename = 0
        self.retire = 0
        self.commit = 0

    def next_rename(self) -> int:
        """Allocate the SSN for a newly renamed store."""
        self.rename += 1
        return self.rename

    def on_retire(self, ssn: int) -> None:
        if ssn > self.retire:
            self.retire = ssn

    def on_commit(self, ssn: int) -> None:
        if ssn > self.commit:
            self.commit = ssn

    def rewind_rename(self, ssn: int) -> None:
        """Squash recovery: SSN_rename falls back to the youngest surviving
        store (retired stores always survive, so never below SSN_retire)."""
        self.rename = max(ssn, self.retire)
