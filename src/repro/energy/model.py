"""Event-based dynamic energy model (the McPAT 1.4 stand-in).

The timing simulator counts events (``SimStats.energy_events``); this module
converts them to energy using the per-event costs in
:class:`~repro.uarch.params.EnergyParams` and derives the paper's
energy-delay product (EDP) metric (Fig. 15).

Like the paper's methodology, the structures that differ between models are
modelled explicitly: the baseline pays CAM searches on the store queue and
load queue, while NoSQ/DMDP pay T-SSBF and distance-predictor accesses plus
(DMDP) the extra predication MicroOps -- the EDP *comparison* then follows
from exact event-count differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict

from ..uarch.params import EnergyParams
from ..uarch.stats import SimStats


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting for one simulation run."""

    total: float                    # arbitrary energy units
    cycles: int
    by_event: Dict[str, float]

    @property
    def edp(self) -> float:
        """Energy-delay product (paper Fig. 15 metric)."""
        return self.total * self.cycles

    def normalized_to(self, other: "EnergyReport") -> Dict[str, float]:
        """Energy/delay/EDP ratios against a reference run."""
        return {
            "energy": self.total / other.total if other.total else 0.0,
            "delay": self.cycles / other.cycles if other.cycles else 0.0,
            "edp": self.edp / other.edp if other.edp else 0.0,
        }


# Per-class cache of valid event names.  Keyed by type: an extended
# EnergyParams subclass (extra structures, custom cost fields) must
# validate against its *own* field set, not whichever class happened to
# be seen first in the process.
_VALID_EVENTS: Dict[type, frozenset] = {}


def _valid_events(params: EnergyParams):
    cls = type(params)
    valid = _VALID_EVENTS.get(cls)
    if valid is None:
        valid = _VALID_EVENTS[cls] = frozenset(
            f.name for f in fields(params))
    return valid


def energy_report(stats: SimStats,
                  params: EnergyParams = None) -> EnergyReport:
    """Convert a run's event counts into an :class:`EnergyReport`."""
    if params is None:
        params = EnergyParams()
    valid = _valid_events(params)
    by_event: Dict[str, float] = {}
    for event, count in stats.energy_events.items():
        if event not in valid:
            raise KeyError("unknown energy event %r" % event)
        by_event[event] = getattr(params, event) * count
    # fsum rounds the exact sum once, so the total does not depend on the
    # order in which the simulator first counted each event.
    return EnergyReport(total=math.fsum(by_event.values()),
                        cycles=stats.cycles, by_event=by_event)


def edp(stats: SimStats, params: EnergyParams = None) -> float:
    """Shorthand: the energy-delay product of one run."""
    return energy_report(stats, params).edp


def energy_summary(report: EnergyReport) -> Dict[str, object]:
    """The one JSON-serialisable energy shape every consumer shares.

    CLI result rows, ``--metrics`` JSON, and ledger ``point.completed``
    spans all embed this dict verbatim, so a value read back from any
    of them round-trips to the exact float :func:`energy_report`
    produced (JSON preserves doubles to the last ulp).
    """
    return {
        "total": report.total,
        "edp": report.edp,
        "cycles": report.cycles,
        "by_event": dict(sorted(report.by_event.items())),
    }
