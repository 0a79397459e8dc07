"""Parallel fan-out of simulation points over supervised worker processes.

Simulation points are embarrassingly parallel (each is one deterministic
``Simulator`` run), so a batch of (workload, model, overrides) points is
grouped by workload -- one task per workload -- and mapped over worker
processes.  Each task carries the path of the workload's packed trace
blob (persisted by the parent before fan-out), which the worker ``mmap``s
read-only and reuses for every configuration: workers never re-run the
functional CPU unless the blob fails to decode under them.  Results come back with per-point
wall-clock timings; ordering is restored by point key, so a parallel
batch is byte-identical to a serial one.

Unlike a ``multiprocessing.Pool`` (whose ``imap_unordered`` re-raises
the first worker exception -- or hangs forever on a hard worker death --
and discards every completed task), the engine supervises one process
per task with its own result pipe:

* a worker that dies (OOM kill, segfault, ``os._exit``) fails only its
  task; the task is retried on a fresh process per the
  :class:`~repro.harness.resilience.RetryPolicy`, with deterministic
  exponential backoff;
* a task that exceeds the policy's wall-clock ``timeout`` is terminated
  and retried the same way;
* a task that exhausts its retries is recorded as
  :class:`~repro.harness.resilience.FailedPoint` entries (captured
  traceback included) instead of aborting the batch;
* if worker processes cannot be started at all, the engine degrades to
  in-process serial execution (``degraded`` flag) rather than failing;
* every completed task is streamed to the optional ``on_result``
  callback *as it resolves*, which is how the runner checkpoints
  partial sweeps to the disk cache.

Workers run their own in-process :class:`ExperimentRunner` with the disk
cache disabled: the parent filters cache hits *before* fanning out and is
the only writer, which keeps cache publication single-sourced.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Tuple

from ..config import ConfigSpec
from ..obs.ledger import NULL_LEDGER
from ..uarch import ModelKind
from .resilience import FailedPoint, FaultInjector, RetryPolicy


@dataclass(frozen=True)
class SimPoint:
    """One simulation configuration: a (workload, config spec) pair.

    ``overrides`` holds the spec's canonical settings -- sorted
    ``(dotted-key, scalar)`` pairs, departures from the model's defaults
    only -- so points are hashable and two constructions of the same
    configuration compare equal.  Build points with :func:`make_point`
    (legacy keyword overrides) or :func:`spec_point` (a ready
    :class:`~repro.config.ConfigSpec`); both validate and canonicalise.
    """

    workload: str
    model: ModelKind
    overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def spec(self) -> ConfigSpec:
        """The point's configuration as a ConfigSpec (re-canonicalised,
        so even a hand-built point with legacy bare names resolves)."""
        return ConfigSpec.from_overrides(self.model, **dict(self.overrides))

    @property
    def override_dict(self) -> dict:
        return dict(self.overrides)


def make_point(workload: str, model: ModelKind, **overrides) -> SimPoint:
    """Build a validated point from legacy keyword overrides.

    A typoed override name raises :class:`~repro.uarch.params.ConfigError`
    here -- in the parent, before any worker spawns -- with a did-you-mean
    hint; the stored settings are the spec's canonical form.
    """
    return spec_point(workload, ConfigSpec.from_overrides(model, **overrides))


def spec_point(workload: str, spec: ConfigSpec) -> SimPoint:
    """Build a point from a ready ConfigSpec."""
    return SimPoint(workload, spec.model, spec.settings)


@dataclass
class PointTiming:
    """Provenance and cost of one resolved simulation point."""

    workload: str
    model: ModelKind
    seconds: float
    source: str                      # "sim" | "cache"


@dataclass
class BatchTiming:
    """Wall-clock accounting for one fan-out batch."""

    points: int = 0
    simulated: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0         # sum of per-point simulation time
    failed: int = 0                  # points that exhausted their retries
    retried: int = 0                 # task retry attempts performed
    timed_out: int = 0               # task timeouts (terminated workers)
    traces_generated: int = 0        # functional traces run in the parent
    worker_retraces: int = 0         # functional traces re-run in workers
    precomputes_built: int = 0       # trace bundles analysed in the parent
    precomputes_loaded: int = 0      # trace bundles loaded from the store
    worker_precomputes_built: int = 0    # bundles workers rebuilt locally
    worker_precomputes_loaded: int = 0   # bundles workers loaded

    @property
    def functional_traces(self) -> int:
        """Total functional CPU executions this batch caused."""
        return self.traces_generated + self.worker_retraces

    @property
    def precomputes(self) -> int:
        """Total whole-trace precomputes this batch resolved, anywhere.

        A warm-store sweep over N distinct traces should show exactly N
        (all loads, zero builds) -- asserted in tests."""
        return (self.precomputes_built + self.precomputes_loaded
                + self.worker_precomputes_built
                + self.worker_precomputes_loaded)

    @property
    def speedup(self) -> float:
        """Aggregate parallel speedup: serial sim time over batch wall."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.sim_seconds / self.wall_seconds


# -- worker side -----------------------------------------------------------

_WORKER_RUNNER = None


def _init_worker(scale: Optional[float]) -> None:
    """Build the per-process runner (traces persist across same-workload
    points handed to this worker)."""
    global _WORKER_RUNNER
    from .runner import ExperimentRunner
    _WORKER_RUNNER = ExperimentRunner(scale=scale, jobs=1, use_cache=False)


def _run_task(task):
    """Simulate every configuration of one workload; returns timings.

    When the parent supplied a packed-trace path, adopt that blob (an
    ``mmap`` of the store's copy) before simulating; if it fails to
    decode -- deleted, truncated, format-bumped under us -- fall back to
    re-tracing rather than failing the task.  The blob slot may also be
    a ``(trace_path, precompute_path)`` pair: the precompute bundle is
    then loaded the same way, so all of this task's configurations share
    one whole-trace analysis; a bundle that fails to decode (or was
    never shipped, with more than one config to amortise it over) is
    rebuilt locally.  The third element of the return value counts
    functional traces this task had to run itself, so the parent can
    account for (and the sweep benchmark can assert the absence of)
    worker re-traces; the fourth counts precompute bundles the worker
    (built, loaded) itself.
    """
    workload, blob, configs = task
    trace_path = pre_path = None
    if isinstance(blob, tuple):
        trace_path, pre_path = blob
    else:
        trace_path = blob
    retraces_before = _WORKER_RUNNER.traces_generated
    built_before = _WORKER_RUNNER.precomputes_built
    loaded_before = _WORKER_RUNNER.precomputes_loaded
    if trace_path is not None:
        _WORKER_RUNNER.attach_trace(workload, trace_path)
        attached = False
        if pre_path is not None:
            attached = _WORKER_RUNNER.attach_precompute(workload, pre_path)
        if not attached and len(configs) > 1:
            try:
                _WORKER_RUNNER.precompute_for(workload)
            except Exception:
                pass    # each Simulator builds its own bundle
    out = []
    for model, settings in configs:
        start = time.perf_counter()
        # Settings are already canonical (the parent built the task from
        # point specs), so the trusting constructor suffices.
        result = _WORKER_RUNNER.run_spec(workload,
                                         ConfigSpec(model, settings))
        out.append((model, settings, result,
                    time.perf_counter() - start))
    return (workload, out,
            _WORKER_RUNNER.traces_generated - retraces_before,
            (_WORKER_RUNNER.precomputes_built - built_before,
             _WORKER_RUNNER.precomputes_loaded - loaded_before))


def _worker_entry(conn, task, scale, task_fn=None) -> None:
    """Process target: run one task, ship ('ok', payload) or ('error', tb).

    The fault-injection hook fires before the simulation so an injected
    ``kill`` exits without sending anything (the parent observes a dead
    sentinel), an injected ``raise`` travels back as a captured
    traceback, and an injected ``sleep`` wedges the task so the parent's
    timeout enforcement can be exercised.

    ``task_fn`` overrides the default simulate-one-workload body with a
    caller-supplied (picklable, module-level) function -- the fuzz
    campaign rides the engine this way -- and must return the same
    ``(workload, outcomes, retraces)`` payload shape (the default body
    appends a fourth ``(precomputes_built, precomputes_loaded)`` element,
    which custom bodies may omit).
    """
    try:
        injector = FaultInjector.from_env()
        if injector is not None:
            injector.on_task(task[0])
        if task_fn is not None:
            payload = task_fn(task)
        else:
            _init_worker(scale)
            payload = _run_task(task)
        conn.send(("ok", payload))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass                     # parent already gone
    finally:
        conn.close()


# -- parent side ------------------------------------------------------------

@dataclass
class _TaskState:
    """Supervision record for one in-flight or pending task."""

    task: tuple    # (workload, blob path(s), [(model, spec settings), ...])
    failures: int = 0                # attempts that have failed so far
    proc: object = None
    conn: object = None
    started: float = 0.0
    deadline: Optional[float] = None
    not_before: float = 0.0          # backoff gate for the next attempt
    last_error: str = ""
    pid: Optional[int] = None        # survives proc teardown, for the ledger

    @property
    def workload(self) -> str:
        return self.task[0]


@dataclass
class ParallelEngine:
    """Maps batches of :class:`SimPoint` over supervised worker processes.

    After :meth:`run_points` returns, ``failures`` holds one
    :class:`FailedPoint` per unresolved point, ``retried``/``timed_out``
    count recovery actions, and ``degraded`` reports whether the engine
    fell back to in-process serial execution because workers could not
    be spawned.
    """

    jobs: int = 1
    scale: Optional[float] = None
    progress: object = None          # optional callable(str)
    policy: Optional[RetryPolicy] = None
    on_result: Optional[Callable] = None   # callable(point, result, secs)
    # workload -> packed blob path, or (trace path, precompute path) pair
    trace_paths: Optional[Dict[str, object]] = None
    task_fn: Optional[Callable] = None     # custom task body (picklable)
    ledger: object = None            # LedgerSink (None -> NULL_LEDGER)
    failures: List[FailedPoint] = field(default_factory=list)
    retried: int = 0
    timed_out: int = 0
    worker_retraces: int = 0         # functional traces workers re-ran
    worker_precomputes_built: int = 0    # bundles workers rebuilt locally
    worker_precomputes_loaded: int = 0   # bundles workers loaded
    degraded: bool = False

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run_points(self, points: List[SimPoint]
                   ) -> Dict[SimPoint, Tuple[object, float]]:
        """Simulate every point; returns {point: (SimResult, seconds)}.

        Points whose task exhausted its retries are absent from the
        returned dict and recorded in ``self.failures`` instead.
        """
        self.failures = []
        self.retried = 0
        self.timed_out = 0
        self.worker_retraces = 0
        self.worker_precomputes_built = 0
        self.worker_precomputes_loaded = 0
        self.degraded = False
        if not points:
            return {}
        # Task tuples carry canonical spec settings, never raw overrides
        # dicts; ``origin`` maps each canonical config back to the exact
        # point object the caller supplied (which may predate
        # canonicalisation, e.g. a hand-built SimPoint with bare names).
        by_workload: Dict[str, List[Tuple[ModelKind, tuple]]] = {}
        origin: Dict[Tuple[str, ModelKind, tuple], SimPoint] = {}
        for point in points:
            if isinstance(point.model, ModelKind):
                spec = point.spec
                config = (spec.model, spec.settings)
            else:
                # Custom task_fn batches (e.g. the fuzz campaign) ride
                # the engine with stand-in models; their configs pass
                # through untouched.
                config = (point.model, point.overrides)
            by_workload.setdefault(point.workload, []).append(config)
            origin[(point.workload,) + config] = point
        paths = self.trace_paths or {}
        tasks = [(workload, paths.get(workload), configs)
                 for workload, configs in sorted(by_workload.items())]
        results: Dict[SimPoint, Tuple[object, float]] = {}
        policy = self.policy if self.policy is not None else RetryPolicy()
        injector = FaultInjector.from_env()
        ledger = self.ledger if self.ledger is not None else NULL_LEDGER
        if ledger.enabled:
            for workload, _, configs in tasks:
                ledger.emit("task.queued", task=workload,
                            points=len(configs))

        jobs = max(1, int(self.jobs))          # clamp: jobs<1 means serial
        workers = min(jobs, len(tasks))
        pending = deque(_TaskState(task=task) for task in tasks)
        waiting: List[_TaskState] = []         # backing off before retry
        running: List[_TaskState] = []

        def absorb(payload) -> None:
            """Fold a task payload's counters into the engine totals.

            Payloads are ``(workload, outcomes, retraces)`` -- custom
            ``task_fn`` bodies -- or the default body's 4-tuple with a
            trailing ``(precomputes_built, precomputes_loaded)`` pair.
            """
            self.worker_retraces += payload[2]
            if len(payload) > 3:
                built, loaded = payload[3]
                self.worker_precomputes_built += built
                self.worker_precomputes_loaded += loaded

        def publish(state: _TaskState, payload) -> None:
            workload = state.workload
            outcomes = payload[1]
            if ledger.enabled:
                fields = {}
                if len(payload) > 2:
                    fields["worker_retraces"] = payload[2] or None
                if len(payload) > 3:
                    built, loaded = payload[3]
                    fields["worker_precomputes_built"] = built or None
                    fields["worker_precomputes_loaded"] = loaded or None
                ledger.emit("task.completed", task=workload,
                            attempt=state.failures + 1,
                            points=len(outcomes),
                            wall_seconds=round(
                                time.monotonic() - state.started, 6),
                            pid=state.pid, **fields)
            for model, settings, result, seconds in outcomes:
                point = origin.get((workload, model, settings),
                                   SimPoint(workload, model, settings))
                results[point] = (result, seconds)
                if self.on_result is not None:
                    self.on_result(point, result, seconds)
            self._say("  simulated %-10s (%d point%s)%s"
                      % (workload, len(outcomes),
                         "s" if len(outcomes) != 1 else "",
                         "  [attempt %d]" % (state.failures + 1)
                         if state.failures else ""))

        def fail(state: _TaskState, kind: str, detail: str) -> None:
            state.failures += 1
            state.last_error = detail
            if kind == "timeout":
                self.timed_out += 1
            if state.failures <= policy.retries:
                self.retried += 1
                delay = policy.delay_for(state.failures)
                state.not_before = time.monotonic() + delay
                waiting.append(state)
                if ledger.enabled:
                    stripped = detail.strip()
                    ledger.emit("task.retry", task=state.workload,
                                attempt=state.failures, cause=kind,
                                delay_seconds=round(delay, 6),
                                detail=(stripped.splitlines()[-1]
                                        if stripped else None))
                self._say("  %s %-10s -- retry %d/%d"
                          % (kind, state.workload, state.failures,
                             policy.retries))
                return
            if ledger.enabled:
                ledger.emit("task.failed", task=state.workload,
                            attempts=state.failures, cause=kind,
                            detail=detail or None)
            for model, settings in state.task[2]:
                point = origin.get((state.workload, model, settings),
                                   SimPoint(state.workload, model, settings))
                self.failures.append(FailedPoint(
                    point=point, kind=kind, detail=detail,
                    attempts=state.failures))
            self._say("  %s %-10s -- giving up after %d attempt%s"
                      % (kind, state.workload, state.failures,
                         "s" if state.failures != 1 else ""))

        def run_inline(state: _TaskState) -> None:
            """Serial fallback: same retry semantics, no preemption, so
            the policy timeout is not enforced here."""
            state.started = time.monotonic()
            state.pid = os.getpid()
            if ledger.enabled:
                ledger.emit("task.spawned", task=state.workload,
                            attempt=state.failures + 1, pid=state.pid,
                            mode="inline")
            try:
                if injector is not None:
                    injector.on_task(state.workload)
                if self.task_fn is not None:
                    payload = self.task_fn(state.task)
                else:
                    if (_WORKER_RUNNER is None
                            or _WORKER_RUNNER.scale != self.scale):
                        _init_worker(self.scale)
                    payload = _run_task(state.task)
                absorb(payload)
                publish(state, payload)
            except Exception:
                fail(state, "error", traceback.format_exc())

        def reap(state: _TaskState, kind: str, detail: str) -> None:
            running.remove(state)
            if state.proc.is_alive():
                state.proc.terminate()
                state.proc.join(2.0)
                if state.proc.is_alive():   # pragma: no cover - stubborn
                    state.proc.kill()
                    state.proc.join()
            state.conn.close()
            state.proc = state.conn = None
            fail(state, kind, detail)

        def launch(state: _TaskState) -> None:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_worker_entry,
                args=(send, state.task, self.scale, self.task_fn),
                daemon=True)
            try:
                if injector is not None and injector.fail_spawn():
                    raise OSError("injected fault: worker spawn refused")
                proc.start()
            except (OSError, ValueError):
                recv.close()
                send.close()
                if not self.degraded:
                    self.degraded = True
                    self._say("  worker spawn failed -- degrading to "
                              "in-process serial execution")
                run_inline(state)
                return
            send.close()             # child owns the write end now
            state.proc = proc
            state.conn = recv
            state.pid = proc.pid
            state.started = time.monotonic()
            state.deadline = (state.started + policy.timeout
                              if policy.timeout else None)
            running.append(state)
            if ledger.enabled:
                ledger.emit("task.spawned", task=state.workload,
                            attempt=state.failures + 1, pid=state.pid,
                            mode="worker")

        while pending or waiting or running:
            now = time.monotonic()
            # Backed-off tasks whose delay elapsed go back in line.
            for state in [s for s in waiting if s.not_before <= now]:
                waiting.remove(state)
                pending.append(state)
            while pending and (self.degraded or len(running) < workers):
                state = pending.popleft()
                if self.degraded:
                    delay = state.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    run_inline(state)
                else:
                    launch(state)
            if not running:
                if waiting and not pending:
                    now = time.monotonic()
                    time.sleep(max(0.0,
                                   min(s.not_before for s in waiting) - now))
                continue

            # Sleep until a result arrives, a worker dies, a timeout
            # hits, or a backed-off task becomes runnable again.
            now = time.monotonic()
            wakeups = [s.deadline for s in running if s.deadline is not None]
            wakeups.extend(s.not_before for s in waiting)
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            handles = ([s.conn for s in running]
                       + [s.proc.sentinel for s in running])
            _conn_wait(handles, timeout)

            now = time.monotonic()
            for state in list(running):
                message = None
                try:
                    if state.conn.poll():
                        message = state.conn.recv()
                except (EOFError, OSError):
                    reap(state, "crash",
                         "worker died mid-result (exit code %s)"
                         % state.proc.exitcode)
                    continue
                if message is not None:
                    status, payload = message
                    running.remove(state)
                    state.conn.close()
                    state.proc.join()
                    state.proc = state.conn = None
                    if status == "ok":
                        absorb(payload)
                        publish(state, payload)
                    else:
                        fail(state, "error", payload)
                elif not state.proc.is_alive():
                    reap(state, "crash",
                         "worker exited with code %s before returning "
                         "a result" % state.proc.exitcode)
                elif state.deadline is not None and now >= state.deadline:
                    reap(state, "timeout",
                         "task exceeded the %.1fs wall-clock budget"
                         % policy.timeout)
        return results
