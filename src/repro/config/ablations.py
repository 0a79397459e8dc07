"""The non-default configurations the paper experiments run.

Each entry maps a name to the dotted settings it applies on top of a
model's canonical defaults.  This is the one place an experiment's
configuration is spelled: :mod:`repro.harness.experiments` names its
points by ``(model, entry)``, ``repro config list`` prints the table as
ready-made ``--set`` combinations, and the round-trip tests pin that
every entry survives ConfigSpec -> JSON -> ConfigSpec -> params
unchanged under every model.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..uarch.params import ModelKind
from .spec import ConfigSpec

__all__ = ["ABLATIONS", "ablation_spec"]

ABLATIONS: Dict[str, Mapping[str, object]] = {
    # Fig. 14: larger store buffers than the 16-entry default.
    "store_buffer_32": {"core.store_buffer_entries": 32},
    "store_buffer_64": {"core.store_buffer_entries": 64},
    # Section VI-g: a 4-wide front/back end.
    "narrow_width_4": {"core.fetch_width": 4, "core.rename_width": 4,
                       "core.issue_width": 4, "core.retire_width": 4},
    # Section VI-g: a 512-entry ROB.
    "rob_512": {"core.rob_entries": 512},
    # Section VI-g: relaxed consistency (RMO store buffer).
    "rmo": {"core.consistency": "rmo"},
    # Section VI-f: half the 320-entry register file.
    "pregs_160": {"core.num_pregs": 160},
    # Section IV-E: DMDP with NoSQ's balanced confidence decrement.
    "balanced_confidence": {"core.confidence_policy": "balanced"},
    # Section IV-C.a: no predictor update on silent-store re-executions.
    "silent_store_unaware": {"core.silent_store_aware": False},
    # Extension: TAGE-structured distance predictor.
    "tage_distance": {"core.use_tage_predictor": True},
    # Untagged SSBF -- Roth's original SVW filter instead of the T-SSBF.
    "untagged_ssbf": {"predictor.tssbf_tagged": False},
}


def ablation_spec(name: Optional[str], model: ModelKind) -> ConfigSpec:
    """The ConfigSpec for entry ``name`` under ``model`` (None: the
    model's defaults)."""
    if name is None:
        return ConfigSpec.create(model)
    try:
        settings = ABLATIONS[name]
    except KeyError:
        raise KeyError("unknown ablation %r (known: %s)"
                       % (name, ", ".join(sorted(ABLATIONS))))
    return ConfigSpec.create(model, settings)
