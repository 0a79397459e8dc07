"""TAGE-style store distance predictor (extension, paper Section VII).

The paper's related work notes that Perais & Seznec's TAGE-like instruction
distance predictor "could also be tuned as a Store Distance Predictor and
adopted to DMDP".  This module implements that extension: a base
(path-insensitive) table backed by several partially-tagged components
indexed with geometrically growing branch-history lengths
(Seznec & Michaud's TAGE principle).

Prediction comes from the hit with the *longest* history; allocation on a
misprediction picks a component with longer history than the provider
(preferring entries with low "useful" counters), exactly as in TAGE.

The class implements the same interface as
:class:`~repro.uarch.distance_predictor.StoreDistancePredictor`, so the
pipeline accepts either through ``CoreParams.use_tage_predictor``.
"""

from __future__ import annotations

from typing import List, Optional

from .distance_predictor import DistancePrediction
from .params import ConfidencePolicy, PredictorParams

# Bound at import (DESIGN.md section 9): a class-level enum lookup runs
# the metaclass's attribute hook on every call.
BIASED = ConfidencePolicy.BIASED


class _TageEntry:
    __slots__ = ("tag", "distance", "confidence", "useful")

    def __init__(self, tag: int, distance: int, confidence: int):
        self.tag = tag
        self.distance = distance
        self.confidence = confidence
        self.useful = 0


class _TageComponent:
    """One partially-tagged component with a fixed history length."""

    def __init__(self, entries: int, history_length: int, tag_bits: int):
        self.entries = entries
        self.history_length = history_length
        self.history_mask = (1 << history_length) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.table: List[Optional[_TageEntry]] = [None] * entries

    def _fold(self, history: int) -> int:
        """Fold the (masked) history into a compact hash."""
        h = history & self.history_mask
        folded = 0
        while h:
            folded ^= h & 0xFFFF
            h >>= 16
        return folded

    def index(self, pc: int, history: int) -> int:
        folded = self._fold(history)
        return ((pc >> 2) ^ folded ^ (folded << 3)) % self.entries

    def tag(self, pc: int, history: int) -> int:
        folded = self._fold(history)
        return ((pc >> 5) ^ (folded * 3)) & self.tag_mask

    def lookup(self, pc: int, history: int) -> Optional[_TageEntry]:
        entry = self.table[self.index(pc, history)]
        if entry is not None and entry.tag == self.tag(pc, history):
            return entry
        return None

    def allocate(self, pc: int, history: int, distance: int,
                 confidence: int) -> bool:
        """Install an entry; refuses (and decays) when the victim is
        still marked useful, as in TAGE."""
        idx = self.index(pc, history)
        victim = self.table[idx]
        if victim is not None and victim.useful > 0:
            victim.useful -= 1
            return False
        self.table[idx] = _TageEntry(self.tag(pc, history), distance,
                                     confidence)
        return True


class TageDistancePredictor:
    """TAGE-structured drop-in replacement for the two-table predictor."""

    HISTORY_LENGTHS = (4, 8, 16, 32)

    def __init__(self, params: PredictorParams):
        self.params = params
        self.max_confidence = (1 << params.confidence_bits) - 1
        base_entries = params.distance_entries
        component_entries = max(64, params.distance_entries // 2)
        self.base: dict = {}
        self.base_entries = base_entries
        self.components = [
            _TageComponent(component_entries, length, tag_bits=12)
            for length in self.HISTORY_LENGTHS
        ]

    # -- base table (direct-mapped, tagged like the original) -------------

    def _base_lookup(self, pc: int) -> Optional[_TageEntry]:
        return self.base.get((pc >> 2) % self.base_entries)

    def _base_install(self, pc: int, distance: int, confidence: int) -> None:
        self.base[(pc >> 2) % self.base_entries] = _TageEntry(
            0, distance, confidence)

    # -- prediction ---------------------------------------------------------

    def _provider(self, pc: int, history: int):
        """(entry, component_index) of the longest-history hit; component
        index -1 denotes the base table."""
        for i in range(len(self.components) - 1, -1, -1):
            entry = self.components[i].lookup(pc, history)
            if entry is not None:
                return entry, i
        entry = self._base_lookup(pc)
        if entry is not None:
            return entry, -1
        return None, None

    def predict(self, pc: int, history: int) -> Optional[DistancePrediction]:
        entry, component = self._provider(pc, history)
        if entry is None:
            return None
        return DistancePrediction(entry.distance, entry.confidence,
                                  path_sensitive=component is not None
                                  and component >= 0)

    # -- training ------------------------------------------------------------

    def train_correct(self, pc: int, history: int) -> None:
        entry, _ = self._provider(pc, history)
        if entry is not None:
            entry.confidence = min(self.max_confidence,
                                   entry.confidence + 1)
            entry.useful = min(3, entry.useful + 1)

    def train_mispredict(self, pc: int, history: int,
                         actual_distance: Optional[int],
                         policy: ConfidencePolicy) -> None:
        entry, component = self._provider(pc, history)
        learnable = (actual_distance is not None
                     and 0 <= actual_distance <= self.params.max_distance)
        if entry is not None:
            if policy is BIASED:
                entry.confidence >>= 1
            else:
                entry.confidence = max(0, entry.confidence - 1)
            entry.useful = max(0, entry.useful - 1)
            if learnable:
                entry.distance = actual_distance
        if not learnable:
            return
        # TAGE allocation: install into a longer-history component than the
        # provider (or the base table on a complete miss).
        start = 0 if component is None or component < 0 else component + 1
        for i in range(start, len(self.components)):
            if self.components[i].allocate(pc, history, actual_distance,
                                           self.params.confidence_init):
                break
        if entry is None:
            self._base_install(pc, actual_distance,
                               self.params.confidence_init)
