"""Campaign driver tests: serial/parallel equivalence, the injected
known-bad mutation caught end to end (campaign -> artifact -> CLI
replay), stale-artifact refusal, and engine-level fault tolerance
(crashed fuzz workers retry without losing the campaign).
"""

import io
import json

import pytest

from repro.cli import main
from repro.fuzz import load_artifact, run_campaign
from repro.harness.resilience import RetryPolicy

FAST = RetryPolicy(retries=2, backoff=0.0)


def fault_env(monkeypatch, tmp_path, spec):
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_FAULT_STATE_DIR", str(tmp_path / "faults"))


def test_clean_campaign_serial():
    report = run_campaign(["mixed", "colliding"], iterations=2,
                          jobs=1, artifacts_dir=None)
    assert report.ok
    assert report.programs == 4
    assert report.programs_by_profile == {"mixed": 2, "colliding": 2}
    assert report.pathology_by_profile["colliding"][
        "colliding_load_fraction"] > 0.5
    text = report.format()
    assert "CLEAN" in text and "colliding" in text


def test_parallel_campaign_matches_serial():
    serial = run_campaign(["colliding"], iterations=3, jobs=1,
                          artifacts_dir=None)
    parallel = run_campaign(["colliding"], iterations=3, jobs=2,
                            artifacts_dir=None, policy=FAST)
    assert parallel.ok and not parallel.failed
    assert parallel.pathology_by_profile == serial.pathology_by_profile
    assert parallel.programs_by_profile == serial.programs_by_profile


def test_mutated_campaign_catches_minimizes_and_replays(tmp_path):
    """The acceptance pipeline: an injected known-bad mutation is caught,
    auto-minimized to <= 20 instructions, archived, and `repro fuzz
    repro` replays the artifact to the same divergence class."""
    artifacts = str(tmp_path / "artifacts")
    report = run_campaign(["silent-store"], iterations=1, seed=7, jobs=1,
                          mutation="silent-store-value",
                          artifacts_dir=artifacts, max_checks=300)
    assert not report.ok
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.minimize_result is not None
    assert finding.minimize_result.reproduced
    assert finding.minimize_result.final_instructions <= 20
    assert finding.artifact_path is not None

    artifact = load_artifact(finding.artifact_path)
    assert artifact.mutation == "silent-store-value"
    assert artifact.coarse_signature == finding.report.coarse_signature
    assert artifact.minimized_ir is not None

    out = io.StringIO()
    rc = main(["fuzz", "repro", finding.artifact_path], out=out)
    assert rc == 0, out.getvalue()
    assert "reproduced %s" % artifact.coarse_signature in out.getvalue()


def test_repro_from_seed_requires_matching_generator(tmp_path):
    report = run_campaign(["silent-store"], iterations=1, seed=7, jobs=1,
                          mutation="silent-store-value",
                          artifacts_dir=str(tmp_path),
                          minimize_findings=False)
    path = report.findings[0].artifact_path

    out = io.StringIO()
    assert main(["fuzz", "repro", path, "--from-seed"], out=out) in (0, 1)

    data = json.load(open(path))
    data["generator_version"] = "0" * 16
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    out = io.StringIO()
    rc = main(["fuzz", "repro", str(stale), "--from-seed"], out=out)
    assert rc == 2
    assert "stale artifact" in out.getvalue()
    # Without --from-seed the embedded IR still replays fine.
    out = io.StringIO()
    assert main(["fuzz", "repro", str(stale)], out=out) == 0


def test_cli_run_smoke(tmp_path):
    out = io.StringIO()
    rc = main(["fuzz", "run", "--profile", "colliding", "--profile",
               "pointer-chase", "--iterations", "2", "--artifacts",
               str(tmp_path / "a")], out=out)
    assert rc == 0
    assert "CLEAN" in out.getvalue()


def test_cli_profiles_lists_all(tmp_path):
    from repro.fuzz import PROFILES
    out = io.StringIO()
    assert main(["fuzz", "profiles"], out=out) == 0
    for name in PROFILES:
        assert name in out.getvalue()


def test_campaign_survives_killed_worker(monkeypatch, tmp_path):
    """A fuzz worker that dies is retried on a fresh process; the
    campaign still completes clean (RetryPolicy/FailedPoint reuse)."""
    fault_env(monkeypatch, tmp_path, "kill:once")
    report = run_campaign(["colliding"], iterations=2, jobs=2,
                          artifacts_dir=None, policy=FAST)
    assert report.ok
    assert not report.failed
    assert report.programs_by_profile == {"colliding": 2}


def test_campaign_records_exhausted_tasks(monkeypatch, tmp_path):
    """A persistently-raising task lands in report.failed, named by its
    program id, instead of aborting the campaign."""
    fault_env(monkeypatch, tmp_path,
              "raise:workload=fuzz-colliding-20180604")
    report = run_campaign(["colliding"], iterations=2, jobs=2,
                          artifacts_dir=None,
                          policy=RetryPolicy(retries=0, backoff=0.0))
    assert not report.ok
    assert len(report.failed) == 1
    assert report.failed[0].point == "fuzz-colliding-20180604"
    # The untouched program still completed.
    assert report.programs_by_profile == {"colliding": 1}
    text = report.format()
    assert "failed task" in text
    assert "fuzz-colliding-20180604" in text and "oracle" not in text


def test_campaign_checks_handed_back_programs_in_process(monkeypatch,
                                                         tmp_path):
    """When workers cannot spawn, the engine hands every program back and
    the campaign checks them in-process, as a serial campaign does: the
    worker-only ``raise`` fault never fires, and the reports match."""
    serial = run_campaign(["colliding"], iterations=3, jobs=1,
                          artifacts_dir=None)
    fault_env(monkeypatch, tmp_path,
              "nospawn;raise:workload=fuzz-colliding-20180604")
    degraded = run_campaign(["colliding"], iterations=3, jobs=2,
                            artifacts_dir=None, policy=FAST)
    assert degraded.ok and not degraded.failed
    assert degraded.programs_by_profile == serial.programs_by_profile
    assert degraded.pathology_by_profile == serial.pathology_by_profile
    # Everything but the timing line renders identically.
    assert (degraded.format().splitlines()[:-1]
            == serial.format().splitlines()[:-1])
