"""Path-sensitive store distance predictor with confidence (paper IV-A.d, V).

Two 4-way set-associative tagged tables of 1K entries each:

* the **path-insensitive** table is indexed by the load PC;
* the **path-sensitive** table is indexed by the load PC xor the low bits of
  the global branch history (8 bits by default).

Both are read in parallel; the path-sensitive prediction wins when present.
Each entry holds a store *distance* (how many stores separate the load from
its colliding store; 0 = the youngest store at rename) and a 7-bit
confidence counter initialised to 64.  Confidence above the threshold (63)
selects memory cloaking; at or below it the load is low-confidence and is
*delayed* (NoSQ) or *predicated* (DMDP).

The confidence update embodies the paper's key asymmetry (Section IV-E):

* correct prediction -> counter += 1 (saturating);
* misprediction -> NoSQ (BALANCED) decrements by 1, DMDP (BIASED) halves
  the counter, pushing hard-to-predict loads toward predication quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .params import ConfidencePolicy, PredictorParams

# Bound at import (DESIGN.md section 9): a class-level enum lookup runs
# the metaclass's attribute hook on every call.
BIASED = ConfidencePolicy.BIASED


@dataclass
class DistancePrediction:
    """A hit in the distance predictor."""

    distance: int
    confidence: int
    path_sensitive: bool

    def is_high_confidence(self, threshold: int) -> bool:
        return self.confidence > threshold


class _Entry:
    __slots__ = ("tag", "distance", "confidence")

    def __init__(self, tag: int, distance: int, confidence: int):
        self.tag = tag
        self.distance = distance
        self.confidence = confidence


class _TaggedTable:
    """4-way set-associative tagged table with LRU replacement."""

    def __init__(self, entries: int, assoc: int, tag_bits: int = 22):
        self.assoc = assoc
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.index_bits = self.num_sets.bit_length() - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.sets: List[List[_Entry]] = [[] for _ in range(self.num_sets)]

    def _index_and_tag(self, key: int):
        return key & (self.num_sets - 1), (key >> self.index_bits) & self.tag_mask

    def lookup(self, key: int) -> Optional[_Entry]:
        index, tag = self._index_and_tag(key)
        for entry in self.sets[index]:
            if entry.tag == tag:
                # LRU promote.
                self.sets[index].remove(entry)
                self.sets[index].append(entry)
                return entry
        return None

    def insert(self, key: int, distance: int, confidence: int) -> _Entry:
        index, tag = self._index_and_tag(key)
        entry = _Entry(tag, distance, confidence)
        bucket = self.sets[index]
        if len(bucket) >= self.assoc:
            bucket.pop(0)
        bucket.append(entry)
        return entry


class StoreDistancePredictor:
    """The combined path-sensitive + path-insensitive predictor."""

    def __init__(self, params: PredictorParams):
        self.params = params
        self.insensitive = _TaggedTable(params.distance_entries,
                                        params.distance_assoc)
        self.sensitive = _TaggedTable(params.distance_entries,
                                      params.distance_assoc)
        self.history_mask = (1 << params.history_bits) - 1
        self.max_confidence = (1 << params.confidence_bits) - 1

    # -- keys --------------------------------------------------------------

    def _keys(self, pc: int, history: int):
        base = pc >> 2
        return base, base ^ (history & self.history_mask)

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int, history: int) -> Optional[DistancePrediction]:
        """Predict at rename; None means the load is predicted independent."""
        ikey, skey = self._keys(pc, history)
        sens = self.sensitive.lookup(skey)
        if sens is not None:
            return DistancePrediction(sens.distance, sens.confidence,
                                      path_sensitive=True)
        insens = self.insensitive.lookup(ikey)
        if insens is not None:
            return DistancePrediction(insens.distance, insens.confidence,
                                      path_sensitive=False)
        return None

    # -- training ----------------------------------------------------------------

    def _bump(self, entry: _Entry) -> None:
        entry.confidence = min(self.max_confidence, entry.confidence + 1)

    def _punish(self, entry: _Entry, policy: ConfidencePolicy) -> None:
        if policy is BIASED:
            entry.confidence >>= 1
        else:
            entry.confidence = max(0, entry.confidence - 1)

    def train_correct(self, pc: int, history: int) -> None:
        """The predicted dependence was verified correct at retire."""
        ikey, skey = self._keys(pc, history)
        for table, key in ((self.sensitive, skey), (self.insensitive, ikey)):
            entry = table.lookup(key)
            if entry is not None:
                self._bump(entry)

    def train_mispredict(self, pc: int, history: int,
                         actual_distance: Optional[int],
                         policy: ConfidencePolicy) -> None:
        """A misprediction (or silent-store-aware re-execution update).

        ``actual_distance`` is the observed store distance, or None when the
        load turned out to be independent of any trackable store.  Existing
        entries are corrected and their confidence punished; a genuine
        dependence allocates entries on a miss (that is how dependences are
        first learned, paper Section IV-C).
        """
        ikey, skey = self._keys(pc, history)
        learnable = (actual_distance is not None
                     and 0 <= actual_distance <= self.params.max_distance)
        for table, key in ((self.sensitive, skey), (self.insensitive, ikey)):
            entry = table.lookup(key)
            if entry is not None:
                self._punish(entry, policy)
                if learnable:
                    entry.distance = actual_distance
            elif learnable:
                table.insert(key, actual_distance,
                             self.params.confidence_init)
