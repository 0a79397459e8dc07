"""Tests for the sweep telemetry ledger (DESIGN.md Section 15).

The contract: every ``run_batch`` -- serial or parallel, clean or
fault-injected -- emits a schema-valid span stream whose counters agree
with the harness's own :class:`BatchTiming` accounting, whose energy
numbers round-trip bit-exact against :func:`repro.energy.energy_report`,
and which ``repro ledger report`` can render.  The ``NullLedger``
default keeps all of this strictly opt-in.
"""

import inspect
import io
import json
import os
import re
import typing

import pytest

from repro.config import ConfigSpec
from repro.energy import energy_summary
from repro.harness import parallel
from repro.harness import runner as runner_mod
from repro.harness.cache import LedgerDir, ResultCache
from repro.harness.parallel import BatchTiming, SimPoint, make_point
from repro.harness.reporting import format_run_report
from repro.harness.resilience import RetryPolicy
from repro.harness.runner import ExperimentRunner
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (LEDGER_SCHEMA_VERSION, SPAN_SCHEMA,
                              JsonlLedger, LedgerSink, NullLedger,
                              TeeLedger, diff_ledgers, format_ledger_diff,
                              format_ledger_report, read_ledger,
                              summarize_ledger, validate_span)
from repro.obs.progress import ProgressRenderer
from repro.uarch import ModelKind

SCALE = 0.05
POINTS = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
FAST = RetryPolicy(retries=2, backoff=0.0)


def fault_env(monkeypatch, tmp_path, spec):
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_FAULT_STATE_DIR", str(tmp_path / "faults"))


def runner_with(tmp_path, ledger, jobs=2, policy=FAST, **kw):
    return ExperimentRunner(scale=SCALE, jobs=jobs, policy=policy,
                            cache=ResultCache(root=tmp_path / "cache"),
                            ledger=ledger, **kw)


class ListLedger(LedgerSink):
    """In-memory sink: collects full span dicts like a reader would see."""

    enabled = True

    def __init__(self):
        self.spans = []

    def emit(self, kind, **fields):
        span = {"v": LEDGER_SCHEMA_VERSION, "t": 0.0, "kind": kind}
        span.update((k, v) for k, v in fields.items() if v is not None)
        validate_span(span)     # every emit must be schema-valid
        self.spans.append(span)

    def kinds(self):
        return [span["kind"] for span in self.spans]

    def of(self, kind):
        return [span for span in self.spans if span["kind"] == kind]


# -- span schema -------------------------------------------------------------

class TestSchema:
    def good(self):
        return {"v": LEDGER_SCHEMA_VERSION, "t": 1.25, "kind": "phase",
                "sweep": 1, "name": "precompute", "seconds": 0.5}

    def test_good_span_passes(self):
        validate_span(self.good())

    def test_bad_version(self):
        span = dict(self.good(), v=99)
        with pytest.raises(ValueError, match="schema version"):
            validate_span(span)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown span kind"):
            validate_span(dict(self.good(), kind="task.exploded"))

    def test_missing_required_field(self):
        span = self.good()
        del span["name"]
        with pytest.raises(ValueError, match="missing"):
            validate_span(span)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            validate_span(dict(self.good(), color="red"))

    def test_non_numeric_timestamp(self):
        with pytest.raises(ValueError, match="timestamp"):
            validate_span(dict(self.good(), t="soon"))

    def test_store_event_vocabulary(self):
        span = {"v": LEDGER_SCHEMA_VERSION, "t": 0.0, "kind": "store.trace",
                "workload": "bzip2", "event": "hit"}
        validate_span(span)
        with pytest.raises(ValueError, match="store event"):
            validate_span(dict(span, event="teleport"))

    def test_failure_cause_field_is_not_kind(self):
        """The failure kind rides in ``cause`` so it can never collide
        with the span-envelope ``kind`` key."""
        span = {"v": LEDGER_SCHEMA_VERSION, "t": 0.0, "kind": "task.failed",
                "task": "bzip2", "attempts": 3, "cause": "timeout"}
        validate_span(span)

    def test_batch_timing_fields_are_in_the_schema(self):
        """``sweep.end`` carries every BatchTiming field but ``jobs`` and
        ``task.completed`` every worker count, so a new counter needs a
        schema entry before any ledger can carry it."""
        hints = typing.get_type_hints(BatchTiming)
        sweep_end = SPAN_SCHEMA["sweep.end"]
        assert set(hints) - {"jobs"} <= sweep_end["req"] | sweep_end["opt"]
        assert ({name for name, hint in hints.items() if hint is int}
                <= ledger_mod._NUMERIC_FIELDS)
        assert (set(parallel._WORKER_FIELDS.values())
                <= SPAN_SCHEMA["task.completed"]["opt"])

    def test_every_count_name_is_a_batch_timing_field(self):
        """``BatchTiming.add`` files each count under its field name and
        drops any other name, so a misspelt ``counts[...]`` key in the
        runner or the engine would vanish from the record silently."""
        hints = typing.get_type_hints(BatchTiming)
        assert parallel._COUNT_FIELDS == (
            {name for name, hint in hints.items() if hint is int} - {"jobs"})
        names = set(parallel._WORKER_FIELDS.values())
        for module in (runner_mod, parallel):
            source = inspect.getsource(module)
            names.update(re.findall(r'counts\["(\w+)"\]', source))
            names.update(re.findall(r'_count\("(\w+)"', source))
        assert {"retried", "timed_out", "traces_generated",
                "precomputes_loaded"} <= names
        # The runner's store-load count is its own; no batch field.
        assert names - {"traces_loaded"} <= parallel._COUNT_FIELDS


# -- sinks -------------------------------------------------------------------

class TestSinks:
    def test_null_ledger_is_disabled(self):
        sink = NullLedger()
        assert sink.enabled is False
        sink.emit("sweep.begin", sweep=1)    # no-op, no error
        sink.close()

    def test_jsonl_ledger_atomic_publish(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlLedger(path, command="test", jobs=2, scale=SCALE)
        tmp = path.with_name(path.name + ".tmp")
        assert tmp.exists() and not path.exists()
        sink.emit("sweep.begin", sweep=1, jobs=2, submitted=4)
        sink.close()
        assert path.exists() and not tmp.exists()
        spans = read_ledger(path)
        assert [s["kind"] for s in spans] == \
            ["ledger.open", "sweep.begin", "ledger.close"]
        head, _, tail = spans
        assert head["schema"] == LEDGER_SCHEMA_VERSION
        assert head["command"] == "test"
        assert head["pid"] == os.getpid()
        assert tail["spans"] == 3
        # Timestamps are seconds since open, monotonically non-decreasing.
        times = [s["t"] for s in spans]
        assert times == sorted(times) and times[0] < 0.1

    def test_jsonl_omits_none_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlLedger(path)
        sink.emit("store.trace", workload="bzip2", event="build",
                  bytes=None)
        sink.close()
        span = read_ledger(path)[1]
        assert "bytes" not in span

    def test_tee_fans_out_and_closes(self, tmp_path):
        a, b = ListLedger(), ListLedger()
        tee = TeeLedger([a, b])
        assert tee.enabled
        tee.emit("sweep.begin", sweep=1, jobs=1, submitted=0)
        tee.close()
        assert a.kinds() == b.kinds() == ["sweep.begin"]


# -- runner integration ------------------------------------------------------

class TestRunnerSpans:
    def test_serial_sweep_span_story(self, tmp_path):
        sink = ListLedger()
        runner = runner_with(tmp_path, sink, jobs=1)
        results = runner.run_batch(POINTS)
        kinds = sink.kinds()
        assert kinds.count("sweep.begin") == 1
        assert kinds.count("sweep.end") == 1
        assert kinds.count("point.completed") == len(POINTS)
        end = sink.of("sweep.end")[0]
        begin = sink.of("sweep.begin")[0]
        assert begin["submitted"] == len(POINTS)
        assert end["points"] == len(POINTS)
        assert end["simulated"] == len(POINTS)
        assert end["failed"] == 0
        # Store spans: one build per distinct workload, this store is cold.
        trace_events = [s["event"] for s in sink.of("store.trace")]
        assert trace_events.count("build") == 2
        # Phase spans cover the attribution vocabulary, one per phase max.
        phase_names = [s["name"] for s in sink.of("phase")]
        assert len(phase_names) == len(set(phase_names))
        assert "timing simulation" in phase_names
        # The whole story, so an emit per MicroOp or per cycle fails
        # here: sweep.begin, a store.trace and a store.precompute per
        # workload (each has two points), a point.completed per point,
        # one phase per phase that did work (all four, the stores were
        # cold) and sweep.end -- 14 spans.
        assert len(phase_names) == 4
        assert len(sink.spans) == 1 + 2 + 2 + len(POINTS) + 4 + 1 == 14
        # Energy on every completed point is bit-exact vs energy_report.
        for span in sink.of("point.completed"):
            point = next(p for p in POINTS
                         if p.workload == span["workload"]
                         and p.model.value == span["model"])
            summary = energy_summary(results[point].energy)
            assert span["energy"] == summary["total"]
            assert span["edp"] == summary["edp"]
            assert span["cycles"] == summary["cycles"]
            assert span["energy_by_event"] == summary["by_event"]
            assert span["ipc"] == results[point].ipc

    def test_one_point_phases_fit_in_the_sweep_wall(self, tmp_path):
        """A point's inputs are resolved before it is timed, so "timing
        simulation" holds no second copy of its "functional tracing"."""
        path = tmp_path / "one-point.jsonl"
        sink = JsonlLedger(path)
        runner_with(tmp_path, sink, jobs=1).run_batch(
            [make_point("mcf", ModelKind.DMDP)])
        sink.close()
        spans = read_ledger(path, validate=True)
        phases = {s["name"]: s["seconds"] for s in spans
                  if s["kind"] == "phase"}
        [end] = [s for s in spans if s["kind"] == "sweep.end"]
        assert phases["functional tracing"] > 0.0      # the stores were empty
        assert sum(phases.values()) <= end["wall_seconds"]

    def test_parallel_sweep_task_lifecycle(self, tmp_path):
        sink = ListLedger()
        runner = runner_with(tmp_path, sink, jobs=2)
        runner.run_batch(POINTS)
        kinds = sink.kinds()
        # One engine task per workload (configs grouped per trace).
        assert kinds.count("task.queued") == 2
        assert kinds.count("task.spawned") == 2
        assert kinds.count("task.completed") == 2
        assert kinds.count("point.completed") == len(POINTS)
        for span in sink.of("task.spawned"):
            assert span["mode"] == "worker"
        for span in sink.of("task.completed"):
            assert span["attempt"] == 1
            assert span["points"] == 2
            assert span["wall_seconds"] >= 0.0
            assert span["pid"] > 0

    def test_degraded_batch_reaches_timing_and_span(self, monkeypatch,
                                                     tmp_path):
        fault_env(monkeypatch, tmp_path, "nospawn")
        sink = ListLedger()
        runner = runner_with(tmp_path, sink, jobs=2)
        runner.run_batch(POINTS)
        timing = runner.batch_log[-1]
        assert timing.degraded
        assert timing.simulated == len(POINTS) and timing.failed == 0
        assert sink.of("sweep.end")[0]["degraded"] is True
        # Handed-back tasks resolve on the serial path: no task runs
        # in-process, and every point completes as a serial point does.
        assert not sink.of("task.spawned")
        assert not sink.of("task.completed")
        assert len(sink.of("point.completed")) == len(POINTS)
        assert {s["source"] for s in sink.of("point.completed")} == {"sim"}
        assert "degraded batches      1" in format_run_report(
            runner.point_log, runner.batch_log)

    def test_failed_and_completed_points_name_settings_alike(
            self, monkeypatch, tmp_path):
        """A point's settings are logged under their dotted canonical
        names whether it fails or completes."""
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        sink = ListLedger()
        runner = runner_with(tmp_path, sink, jobs=2, keep_going=True,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        spec = ConfigSpec.create(ModelKind.DMDP,
                                 {"core.store_buffer_entries": 8.0})
        runner.run_batch([SimPoint("bzip2", spec),
                          SimPoint("tonto", spec)])
        dotted = {"core.store_buffer_entries": 8}
        [failed] = sink.of("point.failed")
        [completed] = sink.of("point.completed")
        assert failed["workload"] == "bzip2"
        assert completed["workload"] == "tonto"
        assert failed["overrides"] == completed["overrides"] == dotted

    def test_warm_rerun_reports_cache_hits(self, tmp_path):
        sink = ListLedger()
        runner_with(tmp_path, NullLedger()).run_batch(POINTS)
        runner = runner_with(tmp_path, sink)
        runner.run_batch(POINTS)
        end = sink.of("sweep.end")[0]
        assert end["cache_hits"] == len(POINTS)
        assert end["simulated"] == 0
        sources = {s["source"] for s in sink.of("point.completed")}
        assert sources == {"cache"}

    def test_fault_injected_retry_story(self, monkeypatch, tmp_path):
        """Span counts reconstruct the retry/failure story and agree
        with BatchTiming and the failure log."""
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        sink = ListLedger()
        runner = runner_with(tmp_path, sink, jobs=2, keep_going=True)
        results = runner.run_batch(POINTS)
        timing = runner.batch_log[-1]
        retries = sink.of("task.retry")
        failed_tasks = sink.of("task.failed")
        failed_points = sink.of("point.failed")
        assert len(retries) == timing.retried == FAST.retries
        assert len(failed_tasks) == 1
        assert failed_tasks[0]["task"] == "bzip2"
        assert failed_tasks[0]["cause"] == "error"
        assert failed_tasks[0]["attempts"] == FAST.retries + 1
        assert len(failed_points) == timing.failed == len(runner.failure_log)
        assert {s["workload"] for s in failed_points} == {"bzip2"}
        for span in failed_points:
            assert span["cause"] == "error"
            assert span["attempts"] == FAST.retries + 1
        # Survivors completed normally.
        assert len(results) == 2
        assert sum(1 for s in sink.of("point.completed")) == 2
        # Every retry span names its cause and a one-line detail.
        for span in retries:
            assert span["cause"] == "error"
            assert span["task"] == "bzip2"
            assert "detail" in span

    def test_timeout_cause_matches_timing(self, monkeypatch, tmp_path):
        fault_env(monkeypatch, tmp_path,
                  "sleep:workload=bzip2,seconds=30,once")
        sink = ListLedger()
        policy = RetryPolicy(retries=2, timeout=2.0, backoff=0.0)
        runner = runner_with(tmp_path, sink, jobs=2, policy=policy,
                             keep_going=True)
        runner.run_batch(POINTS)
        timing = runner.batch_log[-1]
        timeout_spans = [s for s in sink.of("task.retry")
                         + sink.of("task.failed")
                         if s["cause"] == "timeout"]
        assert timing.timed_out >= 1
        assert len(timeout_spans) == timing.timed_out
        assert sink.of("sweep.end")[0]["timed_out"] == timing.timed_out


# -- summaries, report, diff -------------------------------------------------

class TestSummarize:
    def test_summary_counts(self, tmp_path):
        path = tmp_path / "a.jsonl"
        sink = JsonlLedger(path, command="test", jobs=2, scale=SCALE)
        runner = runner_with(tmp_path, sink)
        runner.run_batch(POINTS)
        sink.close()
        summary = summarize_ledger(path)
        assert summary["finalized"] is True
        assert summary["command"] == "test"
        assert summary["points"]["completed"] == len(POINTS)
        assert summary["points"]["simulated"] == len(POINTS)
        assert summary["points"]["failed"] == 0
        assert summary["points"]["points_with_energy"] == len(POINTS)
        assert summary["tasks"]
        assert summary["cache"]["trace_builds"] == 2
        assert summary["cache"]["bytes_moved"] > 0
        timing = runner.batch_log[-1]
        sweep = summary["sweeps"][0]
        assert sweep["points"] == timing.points
        assert sweep["simulated"] == timing.simulated
        assert sweep["retried"] == timing.retried
        assert sweep["failed"] == timing.failed

    def test_report_renders(self, tmp_path):
        path = tmp_path / "a.jsonl"
        sink = JsonlLedger(path, command="test", jobs=2, scale=SCALE)
        runner_with(tmp_path, sink).run_batch(POINTS)
        sink.close()
        text = format_ledger_report(summarize_ledger(path))
        assert "sweep ledger" in text
        assert "Task timeline" in text
        assert "Phase breakdown" in text

    def test_diff(self, tmp_path):
        cold = tmp_path / "cold.jsonl"
        sink = JsonlLedger(cold)
        runner_with(tmp_path, sink).run_batch(POINTS)
        sink.close()
        warm = tmp_path / "warm.jsonl"
        sink = JsonlLedger(warm)
        runner_with(tmp_path, sink).run_batch(POINTS)
        sink.close()
        diff = diff_ledgers(summarize_ledger(cold), summarize_ledger(warm))
        assert diff["delta"]["points_simulated"] == -len(POINTS)
        assert diff["delta"]["points_cached"] == len(POINTS)
        text = format_ledger_diff(diff)
        assert "points_cached" in text


# -- ledger directory hygiene ------------------------------------------------

class TestLedgerDir:
    def test_counts_and_gc(self, tmp_path):
        root = tmp_path / "ledgers"
        root.mkdir()
        (root / "a.jsonl").write_text("{}\n")
        (root / "b.jsonl.tmp").write_text("")
        ledgers = LedgerDir(root=root)
        assert ledgers.entry_count() == 1
        assert ledgers.size_bytes() > 0
        assert [p.name for p in ledgers.tmp_files()] == ["b.jsonl.tmp"]
        assert ledgers.gc() == 1
        assert ledgers.tmp_files() == []
        assert ledgers.entry_count() == 1   # real ledgers untouched
        assert ledgers.clear() == 1
        assert ledgers.entry_count() == 0

    def test_missing_root_is_empty(self, tmp_path):
        ledgers = LedgerDir(root=tmp_path / "nope")
        assert ledgers.entry_count() == 0
        assert ledgers.gc() == 0
        assert ledgers.clear() == 0


# -- progress renderer -------------------------------------------------------

class TestProgress:
    def test_non_tty_prints_terminal_events(self):
        stream = io.StringIO()
        sink = ProgressRenderer(stream=stream, force_tty=False)
        sink.emit("sweep.begin", sweep=1, jobs=2, submitted=4)
        sink.emit("task.retry", task="bzip2", attempt=1, cause="error",
                  delay_seconds=0.0)
        sink.emit("point.failed", workload="bzip2", model="nosq",
                  cause="error", attempts=3)
        sink.emit("sweep.end", sweep=1, points=4, simulated=4,
                  memo_hits=0, cache_hits=0, failed=2, retried=1,
                  timed_out=0, wall_seconds=1.0, sim_seconds=0.9)
        sink.close()
        text = stream.getvalue()
        assert "retry" in text
        assert "FAILED" in text
        assert text.count("\n") >= 3
        assert "\r" not in text

    def test_tty_repaints_one_line(self):
        stream = io.StringIO()
        sink = ProgressRenderer(stream=stream, force_tty=True)
        sink.emit("sweep.begin", sweep=1, jobs=1, submitted=2)
        sink.emit("point.completed", workload="bzip2", model="nosq",
                  source="sim", seconds=0.1)
        sink.emit("sweep.end", sweep=1, points=2, simulated=2,
                  memo_hits=0, cache_hits=0, failed=0, retried=0,
                  timed_out=0, wall_seconds=0.2, sim_seconds=0.1)
        sink.close()
        text = stream.getvalue()
        assert "\r" in text
        assert text.endswith("\n")


# -- CLI surface -------------------------------------------------------------

class TestLedgerCli:
    def run_cli(self, *argv):
        from repro.cli import main
        out = io.StringIO()
        rc = main(list(argv), out=out)
        return rc, out.getvalue()

    def make_ledger(self, tmp_path, name="a.jsonl"):
        path = tmp_path / name
        sink = JsonlLedger(path, command="test", jobs=1, scale=SCALE)
        runner_with(tmp_path, sink, jobs=1).run_batch(POINTS)
        sink.close()
        return path

    def test_validate_ok_and_bad(self, tmp_path):
        path = self.make_ledger(tmp_path)
        rc, out = self.run_cli("ledger", "validate", str(path))
        assert rc == 0 and "ok" in out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "t": 0.0, "kind": "nope"}\n')
        rc, out = self.run_cli("ledger", "validate", str(bad))
        assert rc == 1 and "INVALID" in out

    def test_report_text_and_json(self, tmp_path):
        path = self.make_ledger(tmp_path)
        rc, out = self.run_cli("ledger", "report", str(path))
        assert rc == 0 and "sweep ledger" in out
        rc, out = self.run_cli("ledger", "report", str(path), "--json")
        assert rc == 0
        summary = json.loads(out)
        assert summary["points"]["completed"] == len(POINTS)

    def test_diff_cli(self, tmp_path):
        a = self.make_ledger(tmp_path, "a.jsonl")
        b = self.make_ledger(tmp_path, "b.jsonl")
        rc, out = self.run_cli("ledger", "diff", str(a), str(b))
        assert rc == 0 and "Ledger diff" in out

    def test_missing_path_is_error_not_traceback(self, tmp_path):
        rc, out = self.run_cli("ledger", "report",
                               str(tmp_path / "nope.jsonl"))
        assert rc == 1 and "error" in out
