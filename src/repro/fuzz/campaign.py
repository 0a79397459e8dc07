"""The fuzz campaign driver: generate, check, minimize, archive.

A campaign is ``iterations`` seeded programs per bias profile, each run
through the full oracle stack (:func:`~repro.fuzz.oracles.check_ir`) on
every model.  With ``jobs`` > 1 each program is one
:class:`~repro.harness.parallel.ParallelEngine` task: its name is the
program id and its payload the serialized
:class:`~repro.fuzz.generator.ProgramSpec` (with the model list and the
mutation), so crash isolation, wall-clock timeouts, retries with
backoff, and one :class:`~repro.harness.resilience.FailedPoint` per
exhausted program all come from the engine.  Workers regenerate the
program from its spec (IRs are cheap to produce and expensive to ship)
and return the :class:`~repro.fuzz.oracles.CheckReport` as a plain
dict.  Programs the engine hands back (workers could not spawn) are
checked in-process, as every program is with ``jobs`` <= 1.

Divergences are minimized *in the parent* (they are rare; the campaign
fan-out stays busy with generation + checking) and archived as
self-contained JSON artifacts under the campaign's artifacts directory.

``mutation`` injects a known-bad trace corruption into every check --
test-only, used to validate that the catch -> minimize -> replay
pipeline actually works end to end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..harness.parallel import ParallelEngine
from ..harness.reporting import format_table
from ..harness.resilience import FailedPoint, RetryPolicy
from ..uarch import ALL_MODELS, ModelKind
from . import artifacts as artifacts_mod
from .generator import BiasProfile, ProgramSpec, get_profile
from .minimize import DEFAULT_MAX_CHECKS, MinimizeResult, minimize
from .oracles import CheckReport, check_ir


def _check_program(program_id: str, payload_json: str):
    """Engine task body (module-level: must pickle into workers).

    ``payload_json`` holds the program's spec, the models and the
    mutation.  Returns the engine's ``(outcomes, counts)`` pair: the
    outcome is ``(check report dict, seconds)``, and there are no counts.
    """
    payload = json.loads(payload_json)
    spec = ProgramSpec.from_dict(payload["spec"])
    models = [ModelKind(name) for name in payload["models"]]
    start = time.perf_counter()
    report = check_ir(spec.generate(), models=models,
                      mutation=payload.get("mutation"))
    return (report.to_dict(), time.perf_counter() - start), {}


@dataclass
class CampaignFinding:
    """One diverging program, with its minimization and artifact."""

    spec: ProgramSpec
    report: CheckReport
    minimize_result: Optional[MinimizeResult] = None
    artifact_path: Optional[str] = None

    @property
    def program_id(self) -> str:
        return self.spec.program_id


@dataclass
class CampaignReport:
    """Everything one campaign did, renderable as a text report."""

    profiles: List[str]
    iterations: int
    models: List[ModelKind]
    seed: int
    mutation: Optional[str] = None
    programs: int = 0
    findings: List[CampaignFinding] = field(default_factory=list)
    # One per program that exhausted its retries, named by program id.
    failed: List[FailedPoint] = field(default_factory=list)
    wall_seconds: float = 0.0
    check_seconds: float = 0.0
    pathology_by_profile: Dict[str, Dict[str, float]] = \
        field(default_factory=dict)
    programs_by_profile: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.failed

    def format(self) -> str:
        lines = ["fuzz campaign: %d program(s) x %d model(s), "
                 "profiles [%s], seed %d%s"
                 % (self.programs, len(self.models),
                    ", ".join(self.profiles), self.seed,
                    ", mutation=%s" % self.mutation if self.mutation
                    else "")]
        rows = []
        for name in self.profiles:
            stats = self.pathology_by_profile.get(name, {})
            count = self.programs_by_profile.get(name, 0)
            diverged = sum(1 for f in self.findings
                           if f.spec.profile.name == name)
            rows.append([name, count,
                         stats.get("colliding_load_fraction"),
                         stats.get("partial_overlap_fraction"),
                         stats.get("silent_store_fraction"),
                         diverged])
        lines.append(format_table(
            ["profile", "programs", "collide", "partial", "silent",
             "diverged"], rows))
        if self.findings:
            rows = []
            for finding in self.findings:
                mr = finding.minimize_result
                rows.append([finding.program_id,
                             finding.report.coarse_signature,
                             mr.final_instructions if mr else None,
                             finding.artifact_path or "-"])
            lines.append(format_table(
                ["diverging program", "signature", "min instrs",
                 "artifact"], rows))
        if self.failed:
            lines.append(format_table(
                ["program", "kind", "attempts", "error"],
                [[f.point, f.kind, f.attempts, f.reason[:60]]
                 for f in self.failed], title="Failed fuzz programs"))
        verdict = ("CLEAN" if self.ok else
                   "%d divergence(s), %d failed task(s)"
                   % (len(self.findings), len(self.failed)))
        lines.append("verdict: %s  (%.1fs wall, %.1fs checking)"
                     % (verdict, self.wall_seconds, self.check_seconds))
        return "\n".join(lines)


def _resolve_profiles(profiles: Sequence[Union[str, BiasProfile]],
                      collide: Optional[float]) -> List[BiasProfile]:
    out = []
    for item in profiles:
        profile = item if isinstance(item, BiasProfile) else \
            get_profile(item)
        if collide is not None:
            profile = get_profile(profile.name, p_collide=collide)
        out.append(profile)
    return out


def run_campaign(profiles: Sequence[Union[str, BiasProfile]],
                 iterations: int = 100, seed: int = 20180604,
                 models: Sequence[ModelKind] = ALL_MODELS,
                 jobs: int = 1, mutation: Optional[str] = None,
                 minimize_findings: bool = True,
                 artifacts_dir: Optional[str] = "fuzz-artifacts",
                 collide: Optional[float] = None,
                 policy: Optional[RetryPolicy] = None,
                 progress=None,
                 max_checks: int = DEFAULT_MAX_CHECKS,
                 ledger=None) -> CampaignReport:
    """Run one fuzz campaign; returns the full report (never raises on
    divergence -- the CLI turns a non-ok report into a nonzero exit).

    ``ledger`` is an optional :class:`~repro.obs.ledger.LedgerSink`;
    parallel campaigns record the engine's task lifecycle (one task per
    fuzzed program) to it, same spans as a sweep."""
    resolved = _resolve_profiles(profiles, collide)
    model_list = list(models)
    report = CampaignReport(profiles=[p.name for p in resolved],
                            iterations=iterations, models=model_list,
                            seed=seed, mutation=mutation)
    specs = [ProgramSpec(profile=profile, seed=seed + index)
             for profile in resolved for index in range(iterations)]
    report.programs = len(specs)
    started = time.perf_counter()

    payloads = {
        spec.program_id: json.dumps(
            {"spec": spec.to_dict(), "models": [m.value for m in
                                                model_list],
             "mutation": mutation})
        for spec in specs}
    reports: Dict[str, CheckReport] = {}

    def record(program_id, outcome):
        result, seconds = outcome
        reports[program_id] = CheckReport.from_dict(result)
        report.check_seconds += seconds

    serial = list(payloads)
    if jobs > 1:
        engine = ParallelEngine(_check_program, record, jobs=jobs,
                                progress=progress, policy=policy,
                                ledger=ledger)
        serial = engine.run((program_id, payload, 1)
                            for program_id, payload in payloads.items())
        report.failed = engine.failures
    for program_id in serial:
        record(program_id, _check_program(program_id,
                                          payloads[program_id])[0])

    # Aggregate pathology distributions per profile (means over
    # programs), summed in program order whatever order checks finished.
    sums: Dict[str, Dict[str, float]] = {}
    for spec in specs:
        check = reports.get(spec.program_id)
        if check is None:
            continue
        name = spec.profile.name
        report.programs_by_profile[name] = \
            report.programs_by_profile.get(name, 0) + 1
        bucket = sums.setdefault(name, {})
        for key, value in check.pathology.items():
            bucket[key] = bucket.get(key, 0.0) + value
    for name, bucket in sums.items():
        count = report.programs_by_profile[name]
        report.pathology_by_profile[name] = {
            key: value / count for key, value in bucket.items()}

    # Minimize and archive each divergence in the parent.
    for spec in specs:
        check = reports.get(spec.program_id)
        if check is None or check.ok:
            continue
        finding = CampaignFinding(spec=spec, report=check)
        ir = spec.generate()
        minimized_ir = None
        minimize_info: Dict[str, object] = {}
        if minimize_findings:
            result = minimize(
                ir, lambda candidate: check_ir(
                    candidate, models=model_list,
                    mutation=mutation).coarse_signature,
                max_checks=max_checks)
            finding.minimize_result = result
            if result.reproduced:
                minimized_ir = result.ir
                minimize_info = result.to_dict()
        if artifacts_dir is not None:
            artifact = artifacts_mod.from_finding(
                spec, ir, check, mutation=mutation,
                minimized_ir=minimized_ir, minimize_info=minimize_info)
            finding.artifact_path = artifacts_mod.write_artifact(
                artifact, artifacts_dir)
        report.findings.append(finding)

    report.wall_seconds = time.perf_counter() - started
    return report


__all__ = ["CampaignFinding", "CampaignReport", "run_campaign"]
