"""Replay the distilled fuzz regression corpus (tests/corpus/).

Every corpus entry is a minimized program distilled from a known-tricky
memory-dependence pattern (see tools/gen_fuzz_corpus.py).  Two
invariants per entry, on every model:

* the program still *exhibits* its pathology (the corpus has not rotted
  into trivial programs that exercise nothing), and
* the full three-oracle stack stays clean (a divergence here is a real
  simulator regression caught by the smallest known reproducer).
"""

import glob
import io
import os

import pytest

from repro.cli import main
from repro.fuzz.artifacts import load_artifact
from repro.fuzz.generator import materialize
from repro.fuzz.oracles import (check_ir, trace_pathology_stats,
                                tssbf_alias_stats)
from repro.kernel import FunctionalCpu

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

PREDICATES = {
    "silent-store": lambda s: s["silent_store_fraction"] > 0.0,
    "partial-overlap": lambda s: s["partial_overlap_fraction"] > 0.0,
    "tag-alias": lambda s: s["aliased_sets"] >= 1.0,
    "colliding": lambda s: s["colliding_load_fraction"] > 0.0,
    "pointer-chase": lambda s: s["chased_pointer_stores"] >= 1.0,
    "stack-frames": lambda s: s["stack_stores"] >= 1.0,
}


def _pathology_counts(ir):
    cpu = FunctionalCpu(materialize(ir))
    entries = cpu.run_trace(max_instructions=200_000)
    stats = trace_pathology_stats(entries)
    stats["aliased_sets"] = tssbf_alias_stats(entries)["aliased_sets"]
    stats["stack_stores"] = float(sum(
        1 for e in entries if e.is_store and e.mem_addr is not None
        and e.mem_addr >= 0x2000_0000))
    return stats


def test_corpus_exists_with_required_patterns():
    assert len(CORPUS) >= 5, (
        "regression corpus too small; regenerate with "
        "tools/gen_fuzz_corpus.py")
    tags = {load_artifact(path).coarse_signature for path in CORPUS}
    for required in ("silent-store", "partial-overlap", "tag-alias"):
        assert required in tags, "corpus lost its %s entry" % required


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_entry_replays_clean_on_all_models(path):
    artifact = load_artifact(path)
    assert artifact.kind == "regression"
    report = check_ir(artifact.replay_ir)  # all four models by default
    assert report.ok, (
        "corpus regression %s diverged: %r"
        % (os.path.basename(path), report.divergences))


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_corpus_entry_still_exhibits_its_pathology(path):
    artifact = load_artifact(path)
    predicate = PREDICATES[artifact.coarse_signature]
    assert predicate(_pathology_counts(artifact.replay_ir)), (
        "corpus entry %s no longer exhibits %s"
        % (os.path.basename(path), artifact.coarse_signature))


def test_cli_corpus_replay():
    out = io.StringIO()
    rc = main(["fuzz", "corpus", "--dir", CORPUS_DIR], out=out)
    assert rc == 0, out.getvalue()
    assert "Corpus replay" in out.getvalue()
