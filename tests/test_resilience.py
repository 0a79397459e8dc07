"""Fault-tolerance tests for the experiment harness.

The contract (DESIGN.md Section 11): a worker crash, a wedged task, or
an in-task exception fails only the points it owns -- after the retry
budget -- while every other point completes with byte-identical stats to
a clean serial run; completed points are checkpointed to the disk cache
as they resolve, so an interrupted sweep resumes instead of restarting.

Faults are injected deterministically through ``REPRO_FAULT_SPEC`` (see
:mod:`repro.harness.resilience`); cross-process ``once`` state lives in
``REPRO_FAULT_STATE_DIR`` so a retried task (which lands in a *fresh*
worker process) can observe that the fault already fired.
"""

import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.config import ConfigSpec
from repro.harness.cache import FORMAT_VERSION, ResultCache
from repro.harness.parallel import BatchTiming, ParallelEngine, make_point
from repro.harness.reporting import format_failure_table, format_run_report
from repro.harness.resilience import (BatchFailure, FailedPoint,
                                      FaultInjector, RetryPolicy,
                                      parse_fault_spec)
from repro.harness import runner as runner_module
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind
from repro.workloads import get_workload

SCALE = 0.05
POINTS = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
FAST = RetryPolicy(retries=2, backoff=0.0)
DMDP_SPEC = ConfigSpec.create(ModelKind.DMDP)
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _double(name, payload):
    """An engine task body with no simulation in it (module-level, so
    it pickles into workers); a None payload raises."""
    if payload is None:
        raise ValueError("no payload for %s" % name)
    return payload * 2, {}


def fault_env(monkeypatch, tmp_path, spec):
    monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_FAULT_STATE_DIR", str(tmp_path / "faults"))


def runner_with(tmp_path, jobs=2, policy=FAST, **kw):
    return ExperimentRunner(scale=SCALE, jobs=jobs, policy=policy,
                            cache=ResultCache(root=tmp_path / "cache"), **kw)


@pytest.fixture(scope="module")
def serial_reference():
    """Clean serial stats for POINTS, the byte-identity oracle."""
    runner = ExperimentRunner(scale=SCALE, jobs=1, use_cache=False)
    return {p: runner.run_batch([p])[p].stats.to_dict() for p in POINTS}


def assert_identical_to_serial(results, serial_reference, points=POINTS):
    for point in points:
        assert results[point].stats.to_dict() == serial_reference[point]


# -- fault spec parsing ------------------------------------------------------

class TestFaultSpec:
    def test_parse_directives(self):
        rules = parse_fault_spec(
            "kill:workload=bzip2,once; raise:workload=tonto;"
            "sleep:workload=mcf,seconds=2.5; nospawn")
        assert [r.kind for r in rules] == ["kill", "raise", "sleep",
                                          "nospawn"]
        assert rules[0].workload == "bzip2" and rules[0].once
        assert not rules[1].once
        assert rules[2].seconds == 2.5
        assert rules[3].workload == "*"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("explode:workload=bzip2")

    def test_bad_option_rejected(self):
        with pytest.raises(ValueError, match="bad fault option"):
            parse_fault_spec("kill:color=red")

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        assert FaultInjector.from_env() is None

    def test_once_state_persists_across_injectors(self, monkeypatch,
                                                  tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2,once")
        first = FaultInjector.from_env()
        with pytest.raises(RuntimeError, match="injected fault"):
            first.on_task("bzip2")
        # A new injector (fresh worker process) sees the marker file.
        second = FaultInjector.from_env()
        second.on_task("bzip2")      # disarmed: no raise

    def test_workload_filter(self, monkeypatch, tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        injector = FaultInjector.from_env()
        injector.on_task("tonto")    # no match, no fault
        with pytest.raises(RuntimeError):
            injector.on_task("bzip2")


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff=0.5, backoff_factor=2.0,
                             backoff_max=3.0)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4, 5)] == \
            [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_zero_backoff(self):
        assert RetryPolicy(backoff=0.0).delay_for(3) == 0.0


# -- crash isolation ---------------------------------------------------------

class TestCrashIsolation:
    def test_killed_worker_batch_completes(self, monkeypatch, tmp_path,
                                           serial_reference):
        """A worker hard-killed mid-batch (the OOM-kill shape) fails only
        its task; the retry lands on a fresh process and the full result
        set comes back byte-identical to a clean serial run.  The retried
        worker reads the trace and bundle the parent stored: no worker
        re-traces or rebuilds a bundle."""
        fault_env(monkeypatch, tmp_path, "kill:workload=bzip2,once")
        runner = runner_with(tmp_path)
        results = runner.run_batch(POINTS)
        assert set(results) == set(POINTS)
        timing = runner.batch_log[-1]
        assert timing.retried >= 1
        assert timing.failed == 0
        assert timing.worker_retraces == 0
        assert timing.worker_precomputes_built == 0
        assert not runner.failure_log
        assert_identical_to_serial(results, serial_reference)

    def test_timed_out_task_is_killed_and_retried(self, monkeypatch,
                                                  tmp_path,
                                                  serial_reference):
        fault_env(monkeypatch, tmp_path,
                  "sleep:workload=tonto,seconds=60,once")
        runner = runner_with(
            tmp_path, policy=RetryPolicy(retries=2, backoff=0.0,
                                         timeout=3.0))
        start = time.monotonic()
        results = runner.run_batch(POINTS)
        assert time.monotonic() - start < 30.0
        assert set(results) == set(POINTS)
        timing = runner.batch_log[-1]
        assert timing.timed_out >= 1
        assert timing.retried >= 1
        assert timing.failed == 0
        assert_identical_to_serial(results, serial_reference)

    def test_persistent_crash_becomes_failed_points(self, monkeypatch,
                                                    tmp_path,
                                                    serial_reference):
        fault_env(monkeypatch, tmp_path, "kill:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))
        results = runner.run_batch(POINTS)
        survivors = [p for p in POINTS if p.workload == "tonto"]
        assert set(results) == set(survivors)
        assert len(runner.failure_log) == 2        # both bzip2 points
        for failure in runner.failure_log:
            assert failure.kind == "crash"
            assert failure.attempts == 2           # initial + 1 retry
            assert "17" in failure.detail          # KILL_EXIT_CODE
        assert runner.batch_log[-1].failed == 2
        assert_identical_to_serial(results, serial_reference, survivors)

    def test_raising_task_captures_traceback(self, monkeypatch, tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))
        runner.run_batch(POINTS)
        assert runner.failure_log
        failure = runner.failure_log[0]
        assert failure.kind == "error"
        assert "injected fault" in failure.detail
        assert "RuntimeError" in failure.detail

    def test_batch_failure_raised_without_keep_going(self, monkeypatch,
                                                     tmp_path):
        """Without --keep-going the batch still raises -- but only after
        publishing every completed point, so a re-run resumes."""
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        with pytest.raises(BatchFailure) as info:
            runner.run_batch(POINTS)
        assert len(info.value.failures) == 2
        # The survivors were checkpointed: a fresh runner (same cache,
        # no faults) serves them from disk without simulating.
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        fresh = runner_with(tmp_path)
        results = fresh.run_batch(POINTS)
        assert set(results) == set(POINTS)
        assert fresh.batch_log[-1].cache_hits == 2
        assert fresh.batch_log[-1].simulated == 2

    def test_known_failed_point_not_resimulated_by_run(self, monkeypatch,
                                                       tmp_path):
        fault_env(monkeypatch, tmp_path, "raise:workload=bzip2")
        runner = runner_with(tmp_path, keep_going=True,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        runner.run_batch(POINTS)
        simulated = runner.points_simulated()
        with pytest.raises(BatchFailure):
            runner.run("bzip2", ModelKind.NOSQ)
        assert runner.points_simulated() == simulated   # no re-attempt

    def test_degrades_to_serial_when_workers_cannot_spawn(
            self, monkeypatch, tmp_path, serial_reference):
        """Workers cannot spawn: the engine hands every task back and the
        batch resolves the points on the serial path, in this runner."""
        fault_env(monkeypatch, tmp_path, "nospawn")
        runner = runner_with(tmp_path)
        results = runner.run_batch(POINTS)
        timing = runner.batch_log[-1]
        assert timing.degraded
        assert timing.failed == 0 and not runner.failure_log
        assert timing.simulated == len(POINTS)
        assert timing.traces_generated == 2      # once per workload, here
        assert timing.worker_retraces == 0
        assert_identical_to_serial(results, serial_reference)

    @pytest.mark.parametrize("keep_going", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tracing_failure_fails_only_its_workloads_points(
            self, monkeypatch, tmp_path, serial_reference, jobs,
            keep_going):
        """A workload whose tracing raises fails its own points, with the
        traceback, at any ``jobs``.  With a trace store the parent traces
        every workload before a fan-out; a failure there is left to the
        point's own simulation instead of escaping the batch."""
        spec = get_workload("tonto")
        poisoned = spec.build(spec.iterations(SCALE))
        real = runner_module.run_trace_packed

        def run_trace_packed(program, *args, **kwargs):
            if program == poisoned:
                raise RuntimeError("injected tracing failure")
            return real(program, *args, **kwargs)

        # Forked workers inherit the patched module global.
        monkeypatch.setattr(runner_module, "run_trace_packed",
                            run_trace_packed)
        runner = runner_with(tmp_path, jobs=jobs, keep_going=keep_going,
                             policy=RetryPolicy(retries=0, backoff=0.0))
        assert runner.trace_store.root is not None
        if keep_going:
            runner.run_batch(POINTS)
            failures = runner.failure_log
            assert len(failures) == 2
        else:
            with pytest.raises(BatchFailure) as info:
                runner.run_batch(POINTS)
            failures = info.value.failures
        assert failures
        for failure in failures:
            assert failure.point.workload == "tonto"
            assert failure.kind == "error"
            assert "injected tracing failure" in failure.detail
        survivors = [p for p in POINTS if p.workload == "bzip2"]
        results = runner.run_batch(survivors)
        assert runner.batch_log[-1].memo_hits == len(survivors)
        assert_identical_to_serial(results, serial_reference, survivors)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_workload_is_traced_once(self, monkeypatch, tmp_path,
                                             serial_reference, jobs):
        """A workload whose tracing raises runs the functional CPU once,
        not once per attempt: later attempts raise the kept failure.  At
        ``jobs=2`` the parent traces before the fan-out and keeps its
        points instead of shipping them, while the other workload still
        runs in a worker.  Every attempt is still recorded."""
        spec = get_workload("tonto")
        poisoned = spec.build(spec.iterations(SCALE))
        real = runner_module.run_trace_packed
        calls = tmp_path / "tonto-traces"

        def run_trace_packed(program, *args, **kwargs):
            if program == poisoned:
                with open(calls, "a") as handle:    # workers append too
                    handle.write("%d\n" % os.getpid())
                raise RuntimeError("injected tracing failure")
            return real(program, *args, **kwargs)

        # Forked workers inherit the patched module global.
        monkeypatch.setattr(runner_module, "run_trace_packed",
                            run_trace_packed)
        runner = runner_with(tmp_path, jobs=jobs, keep_going=True)
        assert runner.trace_store.root is not None
        assert runner.policy.retries == 2
        results = runner.run_batch(POINTS)
        assert calls.read_text().splitlines() == [str(os.getpid())]
        assert [(f.point, f.kind, f.attempts, f.reason)
                for f in runner.failure_log] == [
            (point, "error", 3, "RuntimeError: injected tracing failure")
            for point in POINTS if point.workload == "tonto"]
        # bzip2's task loaded the bundle the parent stored before the
        # fan-out; the serial path shares it in this process.
        assert runner.batch_log[-1].worker_precomputes_loaded == jobs - 1
        survivors = [p for p in POINTS if p.workload == "bzip2"]
        assert sorted(results, key=repr) == sorted(survivors, key=repr)
        assert_identical_to_serial(results, serial_reference, survivors)


_DEGRADED_BATCH = """
import json
import sys
sys.path.insert(0, %(src)r)
from repro.harness.parallel import make_point
from repro.harness.resilience import RetryPolicy
from repro.harness.runner import ExperimentRunner
from repro.uarch import ModelKind

runner = ExperimentRunner(scale=%(scale)r, jobs=2, use_cache=False,
                          policy=RetryPolicy(retries=2, backoff=0.0))
points = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
results = runner.run_batch(points)
timing = runner.batch_log[-1]
print(json.dumps({
    "stats": {"%%s/%%s" %% (p.workload, p.model.value):
              json.dumps(results[p].stats.to_dict(), sort_keys=True)
              for p in points},
    "degraded": timing.degraded,
    "traces_generated": timing.traces_generated,
    "worker_retraces": timing.worker_retraces}))
"""


class TestDegradedBatch:
    def test_worker_faults_never_fire_in_the_parent(self, tmp_path,
                                                    serial_reference):
        """Under ``nospawn`` a worker-only ``kill`` must not reach the
        parent: the handed-back points resolve on the serial path, which
        runs no fault hook.  The batch runs in a subprocess, so a parent
        that does exit (code 17) fails this test, not the test run."""
        env = dict(os.environ,
                   REPRO_FAULT_SPEC="nospawn;kill:workload=bzip2,once",
                   REPRO_FAULT_STATE_DIR=str(tmp_path / "faults"))
        script = _DEGRADED_BATCH % {"src": SRC, "scale": SCALE}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["degraded"] is True
        assert report["traces_generated"] == 2
        assert report["worker_retraces"] == 0
        for point in POINTS:
            name = "%s/%s" % (point.workload, point.model.value)
            assert report["stats"][name] == json.dumps(
                serial_reference[point], sort_keys=True)


# -- engine robustness -------------------------------------------------------

class TestEngineRobustness:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_clamped(self, jobs):
        got = {}
        engine = ParallelEngine(_double, got.__setitem__, jobs=jobs,
                                policy=FAST)
        assert engine.run([("a", 1, 1), ("b", 2, 1)]) == []
        assert got == {"a": 2, "b": 4}
        assert not engine.failures and not engine.degraded

    def test_spawn_failure_hands_unstarted_tasks_back(self, monkeypatch):
        """A spawn that fails mid-batch stops launching: the running tasks
        still finish, and every task not run -- pending, or backing off
        before a retry -- comes back by name, in submission order."""
        real_start = multiprocessing.Process.start
        started = []

        def start_twice(self):
            if len(started) == 2:
                raise OSError("no more processes")
            started.append(self)
            real_start(self)

        monkeypatch.setattr(multiprocessing.Process, "start", start_twice)
        got = {}
        engine = ParallelEngine(_double, got.__setitem__, jobs=3,
                                policy=FAST)
        tasks = [("a", 1, 1), ("b", None, 1), ("c", 3, 1), ("d", 4, 1)]
        assert engine.run(tasks) == ["b", "c", "d"]
        assert engine.degraded
        assert got == {"a": 2}
        assert engine.counts["retried"] == 1     # b failed once, then waited
        assert not engine.failures

    def test_partial_engine_result_reported_not_keyerror(self, monkeypatch,
                                                         tmp_path):
        """A (hypothetical) engine that loses a task without recording a
        failure or handing it back must yield 'lost' FailedPoints, not a
        KeyError."""
        def partial_run(self, tasks):
            name, payload, _ = list(tasks)[0]
            self.on_result(name, self.task_fn(name, payload)[0])
            return []

        monkeypatch.setattr(ParallelEngine, "run", partial_run)
        runner = runner_with(tmp_path, keep_going=True)
        results = runner.run_batch(POINTS)
        assert set(results) == {p for p in POINTS if p.workload == "bzip2"}
        lost = [f for f in runner.failure_log if f.kind == "lost"]
        assert {f.point for f in lost} == {p for p in POINTS
                                           if p.workload == "tonto"}

    def test_serial_path_retries_transient_errors(self, tmp_path,
                                                  monkeypatch):
        runner = runner_with(tmp_path, jobs=1,
                             policy=RetryPolicy(retries=2, backoff=0.0))
        real = ExperimentRunner._simulate
        calls = {"n": 0}

        def flaky(self, point, tracer=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(self, point, tracer)

        monkeypatch.setattr(ExperimentRunner, "_simulate", flaky)
        results = runner.run_batch(POINTS[:1])
        assert set(results) == set(POINTS[:1])
        assert calls["n"] == 2
        assert runner.batch_log[-1].retried == 1

    def test_serial_path_exhausts_retries(self, tmp_path, monkeypatch):
        runner = runner_with(tmp_path, jobs=1, keep_going=True,
                             policy=RetryPolicy(retries=1, backoff=0.0))

        def broken(self, point, tracer=None):
            raise RuntimeError("permanent")

        monkeypatch.setattr(ExperimentRunner, "_simulate", broken)
        results = runner.run_batch(POINTS[:1])
        assert results == {}
        assert runner.failure_log[0].attempts == 2
        assert "permanent" in runner.failure_log[0].detail

    def test_run_failure_takes_the_batch_path(self, tmp_path, monkeypatch):
        """run() is a one-point batch: a failing point is retried under
        the policy, lands in failure_log and raises BatchFailure, and a
        later run() serves the recorded failure without simulating."""
        from repro.uarch.pipeline import Simulator
        policy = RetryPolicy(retries=2, backoff=0.0)
        runner = runner_with(tmp_path, jobs=1, policy=policy)
        doomed = runner.program("bzip2")
        real = Simulator.run
        calls = {"n": 0}

        def run(self, *args, **kwargs):
            if self.program is doomed:
                calls["n"] += 1
                raise RuntimeError("injected failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        with pytest.raises(BatchFailure) as info:
            runner.run("bzip2", ModelKind.NOSQ)
        assert calls["n"] == policy.retries + 1
        assert runner.batch_log[-1].retried == policy.retries
        assert runner.batch_log[-1].failed == 1
        [failure] = runner.failure_log
        assert failure.point == make_point("bzip2", ModelKind.NOSQ)
        assert failure.attempts == policy.retries + 1
        assert "injected failure" in failure.detail
        assert info.value.failures == [failure]
        with pytest.raises(BatchFailure):
            runner.run("bzip2", ModelKind.NOSQ)
        assert calls["n"] == policy.retries + 1    # not simulated again
        assert runner.run("tonto", ModelKind.NOSQ).stats.instructions > 0

    def test_keep_going_experiment_ends_in_the_failure_table(
            self, monkeypatch):
        """An experiment cannot render a table with a missing cell, so
        under --keep-going a failed point still ends in the failure
        table and exit 1 -- never in a KeyError."""
        import io

        from repro.cli import main
        from repro.uarch.pipeline import Simulator
        real = Simulator.run

        def run(self, *args, **kwargs):
            if self.model is ModelKind.PERFECT:
                raise RuntimeError("injected failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", run)
        out = io.StringIO()
        code = main(["--scale", "0.05", "--no-cache", "--keep-going",
                     "--retries", "0", "experiment", "fig12",
                     "--workloads", "bzip2,tonto"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "failed after retries: bzip2/perfect, tonto/perfect" in text
        assert "Failed simulation points" in text
        assert "KeyError" not in text
        # The run already had --keep-going: the hint says only re-run.
        assert "re-run to resume)" in text
        assert "add --keep-going" not in text

    def test_failed_run_without_keep_going_suggests_it(self, monkeypatch):
        import io

        from repro.cli import main
        from repro.uarch.pipeline import Simulator

        def run(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(Simulator, "run", run)
        out = io.StringIO()
        code = main(["--scale", "0.05", "--no-cache", "--retries", "0",
                     "run", "bzip2", "--model", "perfect"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "failed after retries: bzip2/perfect" in text
        assert "re-run to resume, or add --keep-going)" in text


# -- checkpoint / resume -----------------------------------------------------

_SWEEP_SCRIPT = """
import sys
sys.path.insert(0, %(src)r)
from repro.harness.cache import ResultCache
from repro.harness.parallel import make_point
from repro.harness.runner import ExperimentRunner
from repro.obs.ledger import JsonlLedger
from repro.uarch import ModelKind

runner = ExperimentRunner(scale=%(scale)r, jobs=2,
                          cache=ResultCache(root=%(cache)r),
                          ledger=JsonlLedger(%(ledger)r))
points = [make_point(w, m) for w in ("bzip2", "tonto")
          for m in (ModelKind.NOSQ, ModelKind.DMDP)]
runner.run_batch(points)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class TestCheckpointResume:
    def test_sigterm_mid_sweep_resumes_from_cache(self, tmp_path):
        """Kill a sweep once its first workload is checkpointed: its
        workers exit with it, and the re-run simulates only the
        unfinished points."""
        cache_root = tmp_path / "cache"
        ledger = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env.update({
            # tonto wedges forever, so only bzip2 can complete.
            "REPRO_FAULT_SPEC": "sleep:workload=tonto,seconds=120",
            "REPRO_FAULT_STATE_DIR": str(tmp_path / "faults"),
        })
        script = _SWEEP_SCRIPT % {"src": SRC, "scale": SCALE,
                                  "cache": str(cache_root),
                                  "ledger": str(ledger)}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            cache = ResultCache(root=cache_root)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and cache.entry_count() < 2:
                time.sleep(0.1)
            # bzip2's two points were published as they resolved, while
            # tonto is still wedged: the checkpoint is on disk.
            assert cache.entry_count() >= 2
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0   # died mid-flight, as intended
        # The unfinished ledger names every worker the sweep spawned;
        # none may outlive it (the wedged tonto worker would sleep on).
        with open(str(ledger) + ".tmp") as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        pids = {s["pid"] for s in spans if s["kind"] == "task.spawned"}
        assert pids
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)]

        resumed = ExperimentRunner(scale=SCALE, jobs=2,
                                   cache=ResultCache(root=cache_root))
        results = resumed.run_batch(POINTS)
        assert set(results) == set(POINTS)
        timing = resumed.batch_log[-1]
        assert timing.cache_hits == 2             # bzip2: resumed
        assert timing.simulated == 2              # tonto: only the rest


# -- reporting ---------------------------------------------------------------

class TestFailureReporting:
    def test_format_failure_table(self):
        failures = [FailedPoint(point=POINTS[0], kind="crash",
                                detail="worker exited with code 17",
                                attempts=3)]
        text = format_failure_table(failures)
        assert "Failed simulation points" in text
        assert "bzip2" in text and "crash" in text and "3" in text

    def test_run_report_includes_resilience_counters(self):
        from repro.harness.parallel import PointTiming
        points = [PointTiming("bzip2", ModelKind.NOSQ, 0.1, "sim")]
        batches = [BatchTiming(points=4, simulated=4, retried=2,
                               timed_out=1, failed=1, jobs=2)]
        text = format_run_report(points, batches)
        assert "task retries          2 (1 after timeout)" in text
        assert "points failed         1" in text

    def test_failed_point_reason_is_last_line(self):
        failure = FailedPoint(
            point=POINTS[0], kind="error",
            detail="Traceback (most recent call last):\n  ...\n"
                   "RuntimeError: injected fault", attempts=1)
        assert failure.reason == "RuntimeError: injected fault"


# -- cache robustness --------------------------------------------------------

class TestCacheRobustness:
    def entry(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", version="v1")
        key = cache.key_for_spec("bzip2", 50, DMDP_SPEC)
        return cache, key

    def test_size_bytes_skips_vanished_entries(self, tmp_path,
                                               monkeypatch):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        vanished = cache.root / "ab" / ("f" * 64 + ".pkl")
        real = cache.entries()
        monkeypatch.setattr(ResultCache, "entries",
                            lambda self: real + [vanished])
        assert cache.size_bytes() > 0     # no OSError from the ghost

    def test_truncated_pickle_is_clean_miss_and_repaired(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:7])      # truncate
        assert cache.get(key) is None
        cache.put(key, {"stats": 2})                 # repair
        assert cache.get(key) == {"stats": 2}

    def test_garbage_bytes_are_clean_miss(self, tmp_path):
        cache, key = self.entry(tmp_path)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00not a pickle at all")
        assert cache.get(key) is None

    def test_unpicklable_payload_is_clean_miss(self, tmp_path):
        # GLOBAL opcode referencing a module that does not exist:
        # unpickling raises ModuleNotFoundError, which must read as a
        # miss rather than crash the sweep.
        cache, key = self.entry(tmp_path)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"cno_such_module_xyz\nMissing\n.")
        assert cache.get(key) is None
        cache.put(key, {"stats": 3})
        assert cache.get(key) == {"stats": 3}

    def test_format_version_bump_is_clean_miss(self, tmp_path,
                                               monkeypatch):
        from repro.harness import cache as cache_module
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        monkeypatch.setattr(cache_module, "FORMAT_VERSION",
                            FORMAT_VERSION + 1)
        bumped = ResultCache(root=tmp_path / "cache", version="v1")
        new_key = bumped.key_for_spec("bzip2", 50, DMDP_SPEC)
        assert new_key != key
        assert bumped.get(new_key) is None           # miss, no crash
        bumped.put(new_key, {"stats": 2})            # repaired going forward
        assert bumped.get(new_key) == {"stats": 2}

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        orphan_dir = cache.root / "ab"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        orphan = orphan_dir / "deadsession.tmp"
        orphan.write_bytes(b"partial write")
        assert len(cache.tmp_files()) == 1
        assert cache.gc() == 1
        assert cache.tmp_files() == []
        assert cache.get(key) == {"stats": 1}        # entries untouched

    def test_gc_respects_min_age(self, tmp_path):
        cache, _ = self.entry(tmp_path)
        orphan_dir = cache.root / "cd"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / "fresh.tmp").write_bytes(b"x")
        assert cache.gc(min_age_seconds=3600.0) == 0
        assert cache.gc() == 1

    def test_clear_sweeps_tmp_files_too(self, tmp_path):
        cache, key = self.entry(tmp_path)
        cache.put(key, {"stats": 1})
        orphan_dir = cache.root / "ef"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / "dead.tmp").write_bytes(b"x")
        assert cache.clear() == 1                    # one .pkl entry
        assert cache.entries() == []
        assert cache.tmp_files() == []


# -- CLI surface -------------------------------------------------------------

class TestResilienceCli:
    def run_cli(self, *argv):
        import io
        from repro.cli import main
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_cache_gc_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        orphan_dir = tmp_path / "c" / "ab"
        orphan_dir.mkdir(parents=True)
        (orphan_dir / "dead.tmp").write_bytes(b"x")
        code, text = self.run_cli("cache", "gc")
        assert code == 0
        assert "swept 1 orphaned temp file(s)" in text
        code, text = self.run_cli("cache", "info")
        assert code == 0
        assert re.search(r"orphaned tmp\s+0\b", text)

    def test_compare_recovers_from_injected_kill(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "kill:workload=tonto,once")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--backoff", "0", "compare", "tonto")
        assert code == 0
        for model in ("baseline", "nosq", "dmdp", "perfect"):
            assert model in text
        assert "Failed simulation points" not in text

    def test_failure_table_instead_of_stack_trace(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "raise:workload=tonto")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--retries", "1", "--backoff", "0",
                                  "compare", "tonto")
        assert code == 1
        assert "Failed simulation points" in text
        assert "re-run to resume" in text
        assert "Traceback" not in text.split("Failed simulation")[0]

    def test_keep_going_renders_partial_table(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "raise:workload=tonto")
        code, text = self.run_cli("--scale", str(SCALE), "--jobs", "2",
                                  "--retries", "0", "--backoff", "0",
                                  "--keep-going", "compare", "tonto")
        assert code == 1
        assert "under the four models" in text     # partial table rendered
        assert "Failed simulation points" in text

    def test_run_applies_retry_policy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        fault_env(monkeypatch, tmp_path, "nospawn")   # irrelevant to run
        code, text = self.run_cli("--scale", str(SCALE), "run", "bzip2",
                                  "--model", "dmdp")
        assert code == 0 and "ipc" in text
