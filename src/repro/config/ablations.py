"""Named configuration presets, as registry settings.

Each entry maps a preset name to the dotted settings it applies on top
of a model's canonical defaults.  The table has two users: ``repro
config list`` prints it as ready-made ``--set`` combinations, and the
round-trip tests pin that every entry survives ConfigSpec -> JSON ->
ConfigSpec -> params unchanged under every model.

The experiment sweeps in :mod:`repro.harness.experiments` do not read
this table; they pass their own overrides (Fig. 14's 32/64-entry store
buffers, the 160-register file, ``silent_store_aware=False``, ...).
Some presets here match an experiment's config and others run in no
experiment.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..uarch.params import ModelKind
from .spec import ConfigSpec

__all__ = ["ABLATIONS", "ablation_spec"]

ABLATIONS: Dict[str, Mapping[str, object]] = {
    # Store-buffer pressure below the 16-entry default (no experiment).
    "store_buffer_8": {"core.store_buffer_entries": 8},
    "store_buffer_4": {"core.store_buffer_entries": 4},
    # Narrow 4-wide front/back end (ablation_issue_width's config).
    "narrow_width_4": {"core.fetch_width": 4, "core.rename_width": 4,
                       "core.issue_width": 4, "core.retire_width": 4},
    # Bigger window: 512-entry ROB (ablation_rob's config).
    "rob_512": {"core.rob_entries": 512},
    # Relaxed consistency: RMO store buffer (ablation_rmo's config).
    "rmo": {"core.consistency": "rmo"},
    # Register-file pressure: 256 physical registers (no experiment;
    # ablation_regfile compares 320 with 160).
    "pregs_256": {"core.num_pregs": 256},
    # Confidence-policy cross: DMDP with NoSQ's balanced decrement
    # (ablation_confidence's config).
    "balanced_confidence": {"core.confidence_policy": "balanced"},
    # TAGE-structured distance predictor (ext_tage's config).
    "tage_distance": {"core.use_tage_predictor": True},
    # Untagged SSBF -- Roth's original SVW filter instead of the T-SSBF
    # (ext_untagged_ssbf's config).
    "untagged_ssbf": {"predictor.tssbf_tagged": False},
    # Half-size verification filter (no experiment).
    "tssbf_64": {"predictor.tssbf_entries": 64},
    # Low-confidence predictor: 4-bit counters, threshold 7 (no
    # experiment).
    "confidence_4bit": {"predictor.confidence_bits": 4,
                        "predictor.confidence_threshold": 7,
                        "predictor.confidence_init": 8},
}


def ablation_spec(name: str, model: ModelKind) -> ConfigSpec:
    """The ConfigSpec for a named preset under ``model``."""
    try:
        settings = ABLATIONS[name]
    except KeyError:
        raise KeyError("unknown ablation %r (known: %s)"
                       % (name, ", ".join(sorted(ABLATIONS))))
    return ConfigSpec.create(model, settings)
