"""Supervised worker processes: named tasks in, outcomes out.

The engine knows nothing about simulation.  A task is ``(name, payload,
size)``: ``name`` labels ledger spans, progress lines and failures,
``payload`` is pickled to the worker, and ``size`` is the number of
points the task stands for (the ``points`` of its ``task.queued`` and
``task.completed`` spans).  The caller's ``task_fn(name, payload)`` is a
module-level function that runs in the worker and returns ``(outcomes,
counts)``; ``outcomes`` goes back to the caller untouched, and
``counts`` maps :class:`BatchTiming` field names to what the task did
itself.  The runner's simulation tasks (one per workload) and the fuzz
campaign's checks (one per program) both run this way.

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
* a task that exhausts its retries is recorded as one
  :class:`~repro.harness.resilience.FailedPoint` named by the task
  (captured traceback included) instead of aborting the batch;
* if a worker process cannot be started, the engine stops launching,
  lets the running tasks finish, sets ``degraded`` and hands every task
  it did not run back to the caller, which resolves them in-process;
* every completed task's outcomes are streamed to ``on_result`` *as it
  resolves*, which is how the runner checkpoints partial sweeps to the
  disk cache;
* a worker exits on its own once its parent is gone, so a sweep killed
  by SIGTERM, SIGKILL or the OOM killer leaves no orphans behind.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..config import ConfigError, ConfigSpec
from ..obs.ledger import NULL_LEDGER, SPAN_SCHEMA
from ..uarch import ModelKind
from ..workloads import ALL_NAMES, WORKLOADS
from .resilience import FailedPoint, FaultInjector, RetryPolicy


@dataclass(frozen=True)
class SimPoint:
    """One simulation point: a workload under a configuration spec.

    Points are hashable and compare by value, so the runner keys its
    memo, its failure records and a batch's results by the point itself.
    The spec is canonical already (:meth:`ConfigSpec.create` validated
    it); the workload name is checked here, in the parent, so a typo
    raises :class:`~repro.uarch.params.ConfigError` before any sweep
    starts.
    """

    workload: str
    spec: ConfigSpec

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ConfigError("unknown workload %r (choose from %s)"
                              % (self.workload, ", ".join(ALL_NAMES)),
                              key=self.workload)

    @property
    def model(self) -> ModelKind:
        return self.spec.model


def make_point(workload: str, model: ModelKind) -> SimPoint:
    """The point for ``workload`` under ``model``'s default configuration."""
    return SimPoint(workload, ConfigSpec.create(model))


@dataclass
class PointTiming:
    """Provenance and cost of one resolved simulation point."""

    workload: str
    model: ModelKind
    seconds: float
    source: str                      # "sim" | "cache"


@dataclass
class BatchTiming:
    """Wall-clock and count accounting for one batch: the one record of
    what it did.  ``--timing`` reports it, and its ``sweep.end`` span is
    built from it (:meth:`span_fields`)."""

    points: int = 0
    simulated: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0         # sum of per-point simulation time
    failed: int = 0                  # points that exhausted their retries
    retried: int = 0                 # retry attempts, serial or per task
    timed_out: int = 0               # task timeouts (terminated workers)
    traces_generated: int = 0        # functional traces run in the parent
    worker_retraces: int = 0         # functional traces re-run in workers
    precomputes_built: int = 0       # trace bundles analysed in the parent
    precomputes_loaded: int = 0      # trace bundles loaded from the store
    worker_precomputes_built: int = 0    # bundles workers rebuilt locally
    worker_precomputes_loaded: int = 0   # bundles workers loaded
    degraded: bool = False           # workers could not spawn

    def add(self, counts) -> None:
        """Add a ``{field: count}`` mapping to this record's fields;
        names that are not fields (the runner's ``traces_loaded``) are
        not part of the record."""
        for name in _COUNT_FIELDS.intersection(counts):
            setattr(self, name, getattr(self, name) + counts[name])

    def span_fields(self) -> Dict[str, object]:
        """This record as ``sweep.end`` span fields: every field but
        ``jobs`` (a ``sweep.begin`` field), seconds rounded to the
        microsecond, and optional fields left out while zero/False."""
        required = SPAN_SCHEMA["sweep.end"]["req"]
        out: Dict[str, object] = {}
        for name in _SPAN_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                out[name] = round(value, 6)
            elif value or name in required:
                out[name] = value
        return out


_SPAN_FIELDS = tuple(f.name for f in fields(BatchTiming) if f.name != "jobs")
_COUNT_FIELDS = frozenset(f.name for f in fields(BatchTiming)
                          if type(f.default) is int and f.name != "jobs")

# A worker's own counts, and the BatchTiming fields the parent files
# them under.
_WORKER_FIELDS = {"traces_generated": "worker_retraces",
                  "precomputes_built": "worker_precomputes_built",
                  "precomputes_loaded": "worker_precomputes_loaded"}


# -- worker side -----------------------------------------------------------

def _exit_with_parent() -> None:
    """End this worker once its parent is gone.

    A worker whose parent dies (SIGTERM, SIGKILL, an OOM kill) is
    re-parented, so ``os.getppid()`` stops matching the pid seen at
    start; a daemon thread polls for that and exits the process, which
    needs no signal handler in the parent."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _worker_entry(conn, task_fn, name, payload) -> None:
    """Process target: run one task, ship ('ok', result) or ('error', tb).

    The fault-injection hook fires before the task body so an injected
    ``kill`` exits without sending anything (the parent observes a dead
    sentinel), an injected ``raise`` travels back as a captured
    traceback, and an injected ``sleep`` wedges the task so the parent's
    timeout enforcement can be exercised.
    """
    _exit_with_parent()
    try:
        injector = FaultInjector.from_env()
        if injector is not None:
            injector.on_task(name)
        conn.send(("ok", task_fn(name, payload)))
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

    name: str
    payload: object
    size: int
    failures: int = 0                # attempts that have failed so far
    proc: object = None
    conn: object = None
    started: float = 0.0
    deadline: Optional[float] = None
    not_before: float = 0.0          # backoff gate for the next attempt
    pid: Optional[int] = None        # survives proc teardown, for the ledger


@dataclass
class ParallelEngine:
    """Runs named tasks in supervised worker processes.

    ``task_fn(name, payload)`` runs in the worker and returns
    ``(outcomes, counts)``; it must be picklable (module-level).
    ``on_result(name, outcomes)`` receives each task's outcomes in the
    parent as the task completes.  After :meth:`run` returns,
    ``failures`` holds one :class:`FailedPoint` per task that exhausted
    its retries (its ``point`` is the task name), ``counts`` holds the
    batch's :class:`BatchTiming` counts (``retried`` and ``timed_out``
    recovery actions, and the tasks' own counts), and ``degraded``
    reports that a worker could not be spawned.
    """

    task_fn: Callable
    on_result: Callable
    jobs: int = 1
    progress: object = None          # optional callable(str)
    policy: Optional[RetryPolicy] = None
    ledger: object = None            # LedgerSink (None -> NULL_LEDGER)
    failures: List[FailedPoint] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    degraded: bool = False

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self, tasks: Iterable[Tuple[str, object, int]]) -> List[str]:
        """Run every ``(name, payload, size)`` task in a worker.

        Returns the names of the tasks it did not run, in submission
        order: empty unless a worker could not be spawned, in which case
        every pending task and every task backing off before a retry is
        handed back for the caller to resolve in-process.
        """
        # Deferred: a run that starts no worker never loads it.
        import multiprocessing
        from multiprocessing.connection import wait as conn_wait

        self.failures = []
        self.counts = Counter()
        self.degraded = False
        states = [_TaskState(name, payload, size)
                  for name, payload, size in tasks]
        policy = self.policy if self.policy is not None else RetryPolicy()
        injector = FaultInjector.from_env()
        ledger = self.ledger if self.ledger is not None else NULL_LEDGER
        if ledger.enabled:
            for state in states:
                ledger.emit("task.queued", task=state.name,
                            points=state.size)

        workers = max(1, int(self.jobs))       # clamp: jobs<1 means one
        pending = deque(states)
        waiting: List[_TaskState] = []         # backing off before retry
        running: List[_TaskState] = []

        def publish(state: _TaskState, result) -> None:
            outcomes, counts = result
            self.counts.update(counts)
            if ledger.enabled:
                ledger.emit("task.completed", task=state.name,
                            attempt=state.failures + 1,
                            points=state.size,
                            wall_seconds=round(
                                time.monotonic() - state.started, 6),
                            pid=state.pid, **counts)
            self.on_result(state.name, outcomes)
            self._say("  finished %-10s (%d point%s)%s"
                      % (state.name, state.size,
                         "s" if state.size != 1 else "",
                         "  [attempt %d]" % (state.failures + 1)
                         if state.failures else ""))

        def fail(state: _TaskState, kind: str, detail: str) -> None:
            state.failures += 1
            if kind == "timeout":
                self.counts["timed_out"] += 1
            if state.failures <= policy.retries:
                self.counts["retried"] += 1
                delay = policy.delay_for(state.failures)
                state.not_before = time.monotonic() + delay
                waiting.append(state)
                if ledger.enabled:
                    stripped = detail.strip()
                    ledger.emit("task.retry", task=state.name,
                                attempt=state.failures, cause=kind,
                                delay_seconds=round(delay, 6),
                                detail=(stripped.splitlines()[-1]
                                        if stripped else None))
                self._say("  %s %-10s -- retry %d/%d"
                          % (kind, state.name, state.failures,
                             policy.retries))
                return
            if ledger.enabled:
                ledger.emit("task.failed", task=state.name,
                            attempts=state.failures, cause=kind,
                            detail=detail or None)
            self.failures.append(FailedPoint(
                point=state.name, kind=kind, detail=detail,
                attempts=state.failures))
            self._say("  %s %-10s -- giving up after %d attempt%s"
                      % (kind, state.name, state.failures,
                         "s" if state.failures != 1 else ""))

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
                args=(send, self.task_fn, state.name, state.payload),
                daemon=True)
            try:
                if injector is not None and injector.fail_spawn():
                    raise OSError("injected fault: worker spawn refused")
                proc.start()
            except (OSError, ValueError):
                recv.close()
                send.close()
                pending.appendleft(state)       # it never ran
                self.degraded = True
                self._say("  worker spawn failed -- handing the unstarted "
                          "tasks back")
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
                ledger.emit("task.spawned", task=state.name,
                            attempt=state.failures + 1, pid=state.pid,
                            mode="worker")

        while running or (not self.degraded and (pending or waiting)):
            now = time.monotonic()
            # Backed-off tasks whose delay elapsed go back in line.
            for state in [s for s in waiting if s.not_before <= now]:
                waiting.remove(state)
                pending.append(state)
            while pending and not self.degraded and len(running) < workers:
                launch(pending.popleft())
            if not running:
                if waiting and not self.degraded:
                    time.sleep(max(0.0, min(s.not_before for s in waiting)
                                   - time.monotonic()))
                continue

            # Sleep until a result arrives, a worker dies, a timeout
            # hits, or a backed-off task becomes runnable again.
            now = time.monotonic()
            wakeups = [s.deadline for s in running if s.deadline is not None]
            wakeups.extend(s.not_before for s in waiting)
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            handles = ([s.conn for s in running]
                       + [s.proc.sentinel for s in running])
            conn_wait(handles, timeout)

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
                    status, result = message
                    running.remove(state)
                    state.conn.close()
                    state.proc.join()
                    state.proc = state.conn = None
                    if status == "ok":
                        publish(state, result)
                    else:
                        fail(state, "error", result)
                elif not state.proc.is_alive():
                    reap(state, "crash",
                         "worker exited with code %s before returning "
                         "a result" % state.proc.exitcode)
                elif state.deadline is not None and now >= state.deadline:
                    reap(state, "timeout",
                         "task exceeded the %.1fs wall-clock budget"
                         % policy.timeout)
        unrun = {state.name for state in pending}
        unrun.update(state.name for state in waiting)
        return [state.name for state in states if state.name in unrun]
