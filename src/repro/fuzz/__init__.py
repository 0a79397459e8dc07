"""Differential fuzzing farm for the DMDP reproduction.

The correctness-at-scale layer: pathology-biased program generation
(:mod:`.generator`), a three-oracle differential check stack
(:mod:`.oracles`), deterministic delta-debugging minimization
(:mod:`.minimize`), self-contained replayable failure artifacts
(:mod:`.artifacts`), and the campaign driver riding the parallel
harness (:mod:`.campaign`).  ``repro fuzz`` is the CLI face.
"""

from .artifacts import (ARTIFACT_FORMAT, Artifact, StaleArtifactError,
                        from_finding, load_artifact, write_artifact)
from .campaign import CampaignFinding, CampaignReport, run_campaign
from .generator import (BiasProfile, PROFILES, ProgramSpec,
                        build_random_program, generate_ir,
                        generator_version, get_profile, ir_from_json,
                        ir_to_json, materialize, validate_ir)
from .minimize import DEFAULT_MAX_CHECKS, MinimizeResult, minimize
from .oracles import (CheckReport, Divergence, MUTATIONS, check_ir,
                      check_program, trace_pathology_stats,
                      tssbf_alias_stats)

__all__ = [
    "ARTIFACT_FORMAT", "Artifact", "BiasProfile", "CampaignFinding",
    "CampaignReport", "CheckReport", "DEFAULT_MAX_CHECKS", "Divergence",
    "MUTATIONS", "MinimizeResult", "PROFILES", "ProgramSpec",
    "StaleArtifactError", "build_random_program", "check_ir",
    "check_program", "from_finding", "generate_ir", "generator_version",
    "get_profile", "ir_from_json", "ir_to_json", "load_artifact",
    "materialize", "minimize", "run_campaign", "trace_pathology_stats",
    "tssbf_alias_stats", "validate_ir", "write_artifact",
]
