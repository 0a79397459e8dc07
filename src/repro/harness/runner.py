"""Experiment runner: builds workloads, traces them once, and simulates
them under arbitrary model/parameter combinations with three cache layers:

1. an in-process memo (same runner, same point -> same object),
2. a persistent on-disk result cache (:mod:`repro.harness.cache`), keyed
   by a content hash of (workload, iterations, config spec, code
   version), so warm pytest/benchmark sessions skip simulation entirely,
3. a parallel fan-out that groups a batch's misses by workload into
   tasks for the supervised worker processes of
   :mod:`repro.harness.parallel` (:func:`_simulate_task` is their body).

Functional traces get the same treatment: :meth:`ExperimentRunner.trace`
returns a packed :class:`~repro.kernel.tracestore.PackedTrace`, resolved
memo -> persistent trace store -> functional CPU.  Traces and shared
precompute bundles have one input path (:meth:`_resolve_inputs`), taken
by the serial runner and by every worker: a worker opens the parent's
stores and maps the blobs the parent stored instead of re-tracing
(DESIGN.md sections 12 and 14).

:meth:`ExperimentRunner.run_batch` is the one way a point is resolved.
Figure/table functions submit their whole point set through it (collect
points -> parallel map -> assemble) and read the returned dict; a
:meth:`run` that misses the memo is a one-point batch.  Every resolved
point is logged with its wall-clock cost and provenance ("sim" vs
"cache") for the reporting layer.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ConfigSpec, describe_points
from ..energy import EnergyReport, energy_report, energy_summary
from ..isa import Program
from ..kernel.precompute import TracePrecompute, bpred_signature
from ..kernel.tracestore import PackedTrace, run_trace_packed
from ..obs.ledger import NULL_LEDGER, PHASE_NAMES
from ..uarch import ModelKind, SimStats, model_params
from ..uarch.pipeline import Simulator
from ..workloads import ALL_NAMES, get_workload
from .cache import (PrecomputeStore, ResultCache, TraceStore,
                    default_cache_dir)
from .parallel import (_WORKER_FIELDS, BatchTiming, ParallelEngine,
                       PointTiming, SimPoint, make_point)
from .resilience import BatchFailure, FailedPoint, RetryPolicy

# The predictor geometry shared bundles are keyed by: the default one.  A
# point that overrides any of it finds no bundle for its own geometry on
# the trace, and its Simulator builds one.
_BPRED_SIGNATURE = bpred_signature(model_params(ModelKind.BASELINE))

# Per stored input kind: the phases its load and its build are timed
# under, and the counts a hit and a build bump.
_INPUTS = {
    "trace": ("trace store I/O", "functional tracing",
              "traces_loaded", "traces_generated"),
    "precompute": ("precompute", "precompute",
                   "precomputes_loaded", "precomputes_built"),
}


def _count(name: str, doc: str) -> property:
    """A read-only runner attribute backed by ``ExperimentRunner.counts``."""
    return property(lambda self: self.counts[name], doc=doc)


@dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one workload under one configuration."""

    workload: str
    model: ModelKind
    stats: SimStats
    energy: EnergyReport

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class ExperimentRunner:
    """Caches traces and simulation results across experiments."""

    def __init__(self, scale: Optional[float] = None, jobs: int = 1,
                 cache: Optional[ResultCache] = None, use_cache: bool = True,
                 progress=None, policy: Optional[RetryPolicy] = None,
                 keep_going: bool = False,
                 trace_store=None, precompute_store=None,
                 ledger=None):
        """``scale`` multiplies every workload's default iteration count
        (e.g. 0.1 for quick tests); None keeps per-workload defaults.
        ``jobs`` is the worker-process count for batch submissions (1 =
        in-process serial).  ``cache`` overrides the default on-disk result
        cache; ``use_cache=False`` disables persistence entirely (the
        default trace and precompute stores follow the result cache).
        ``progress`` is an optional callable(str) for live reporting.
        ``policy`` sets per-task timeout/retry/backoff for every point
        resolved (default: :class:`RetryPolicy`); with
        ``keep_going=True`` a batch whose points exhaust their retries
        returns the partial result set and records the rest in
        ``failure_log`` instead of raising :class:`BatchFailure`.
        ``ledger`` is an optional :class:`~repro.obs.ledger.LedgerSink`;
        the default :data:`~repro.obs.ledger.NULL_LEDGER` costs one
        attribute check per emit site (DESIGN.md section 15)."""
        self.scale = scale
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.sweep_seq = 0           # monotonic sweep id for ledger spans
        # Host seconds per phase over the runner's lifetime, the one
        # record of where host time went: ledger phase spans report its
        # per-sweep deltas and ``repro --profile`` prints it.  Worker
        # tasks add theirs (:meth:`_fan_out`), so a phase is summed over
        # processes.
        self.phase_seconds = {name: 0.0 for name in PHASE_NAMES}
        self.jobs = max(1, int(jobs))
        self.policy = policy if policy is not None else RetryPolicy()
        self.keep_going = keep_going
        self.failure_log: List[FailedPoint] = []
        self._failed: Dict[SimPoint, FailedPoint] = {}
        if cache is None:
            cache = ResultCache(default_cache_dir() if use_cache else None)
        self.cache = cache
        if trace_store is None:
            # Trace blobs live beside the result entries they feed.
            trace_store = TraceStore(
                None if cache.root is None else cache.root / "traces")
        self.trace_store = trace_store
        # Precompute bundles live beside the trace blobs they annotate.
        self.precompute_store = (
            precompute_store if precompute_store is not None
            else PrecomputeStore(trace_store.root))
        self.progress = progress
        self._programs: Dict[str, Program] = {}
        self._traces: Dict[str, PackedTrace] = {}
        # Per workload whose functional run raised: the exception and the
        # traceback it was caught with, raised again by later trace()s.
        self._trace_failures: Dict[str, tuple] = {}
        self._results: Dict[SimPoint, SimResult] = {}
        self.point_log: List[PointTiming] = []
        self.batch_log: List[BatchTiming] = []
        # Lifetime counts under BatchTiming field names (plus
        # traces_loaded); each batch records its own delta.  Tier-1 tests
        # pin zero re-traces on a warm store and one precompute per
        # distinct trace through them (test_tracestore.py,
        # test_precompute.py; DESIGN.md sections 12 and 14).
        self.counts: Counter = Counter()

    traces_generated = _count("traces_generated",
                              "Functional CPU runs in this process.")
    traces_loaded = _count("traces_loaded",
                           "Packed traces mapped from a stored blob.")
    worker_retraces = _count("worker_retraces",
                             "Functional CPU runs inside workers.")
    precomputes_built = _count("precomputes_built",
                               "Precompute bundles built in this process.")
    precomputes_loaded = _count("precomputes_loaded",
                                "Precompute bundles loaded from a blob.")

    # -- workload plumbing ---------------------------------------------------

    def iterations(self, workload: str) -> int:
        """Resolved iteration count (part of the persistent cache key)."""
        return get_workload(workload).iterations(self.scale)

    def program(self, workload: str) -> Program:
        if workload not in self._programs:
            self._programs[workload] = get_workload(workload).build(
                self.iterations(workload))
        return self._programs[workload]

    # -- inputs: traces and shared precompute bundles ------------------------

    def trace(self, workload: str) -> PackedTrace:
        """The packed dynamic trace for a workload: memo -> store -> trace.

        A store hit maps the persisted packed blob read-only (zero
        functional re-execution); a miss runs the functional CPU once and
        persists the packed result for every later session and worker.
        A functional run that raises is not repeated: the functional CPU
        is deterministic for a fixed program and instruction cap, so every
        later call raises the same exception again.
        """
        packed = self._traces.get(workload)
        if packed is None:
            failure = self._trace_failures.get(workload)
            if failure is not None:
                error, tb = failure
                raise error.with_traceback(tb)
            program = self.program(workload)
            iterations = self.iterations(workload)
            packed = self._traces[workload] = self._load_or_build(
                "trace", workload,
                self.trace_store.path_for(workload, iterations),
                lambda: self.trace_store.load(workload, iterations, program),
                lambda: self._run_trace(workload, program))
        return packed

    def _run_trace(self, workload: str, program: Program) -> PackedTrace:
        """Run the functional CPU, keeping a failure for :meth:`trace`."""
        try:
            return run_trace_packed(program)
        except Exception as exc:
            # Drop the failed run's locals (a partial trace among them);
            # the frames still format.
            traceback.clear_frames(exc.__traceback__)
            self._trace_failures[workload] = (exc, exc.__traceback__)
            raise

    def precompute_for(self, workload: str) -> TracePrecompute:
        """The shared whole-trace bundle: trace -> store -> build (+ put).

        Batch inputs resolve this once per distinct trace; the bundle
        lives on the trace, so every config simulated against that trace
        shares it.  A bundle a Simulator left on the trace is stored if
        its blob is missing.  The built/loaded counters show exactly one
        precompute per distinct trace (``TestRunnerBatching`` in
        ``tests/test_precompute.py``).
        """
        trace = self.trace(workload)
        iterations = self.iterations(workload)
        path = self.precompute_store.path_for(workload, iterations,
                                              _BPRED_SIGNATURE)
        bundle = trace.bundles.get(_BPRED_SIGNATURE)
        if bundle is None:
            return self._load_or_build(
                "precompute", workload, path,
                lambda: self.precompute_store.load(
                    workload, iterations, trace, _BPRED_SIGNATURE),
                lambda: TracePrecompute.build(trace, _BPRED_SIGNATURE))
        if path is not None and not path.exists():
            self._put("precompute", workload, bundle)
        return bundle

    # Names for callers that only want the stores filled, such as
    # perfbench's prepare() (perfbench/suite.py).
    ensure_trace = trace
    ensure_precompute = precompute_for

    def _load_or_build(self, kind: str, workload: str, path, load, build):
        """Load one stored input -- a trace or a precompute bundle, by
        ``kind`` -- or build it and store it, in the parent or in a
        worker alike.

        ``load()`` reads the blob at ``path`` (None on a miss; it never
        raises) and ``build()`` makes the input afresh.  A blob that
        exists but fails to decode (truncated, format-bumped, stale) is
        a corrupt-miss: rebuilt, and stored again atomically.  The load
        or build is timed under its phase, counted, and emitted as one
        ``store.<kind>`` span.
        """
        load_phase, build_phase, hit_count, build_count = _INPUTS[kind]
        start = time.perf_counter()
        value = load()
        self.phase_seconds[load_phase] += time.perf_counter() - start
        if value is not None:
            event, count = "hit", hit_count
        else:
            event = ("corrupt-miss" if path is not None and path.exists()
                     else "build")
            count = build_count
            start = time.perf_counter()
            value = build()
            self.phase_seconds[build_phase] += time.perf_counter() - start
            self._put(kind, workload, value)
        self.counts[count] += 1
        if self.ledger.enabled:
            self.ledger.emit("store." + kind, workload=workload, event=event,
                             bytes=self._blob_size(path))
        return value

    def _put(self, kind: str, workload: str, value) -> None:
        store = self.trace_store if kind == "trace" else self.precompute_store
        start = time.perf_counter()
        store.put(workload, self.iterations(workload), value)
        self.phase_seconds["trace store I/O"] += time.perf_counter() - start

    @staticmethod
    def _blob_size(path) -> Optional[int]:
        if path is None:
            return None
        try:
            return path.stat().st_size
        except OSError:
            return None

    def _resolve_inputs(self, points: List[SimPoint]) -> None:
        """Trace each workload of ``points`` and resolve one shared
        bundle per trace with two or more points, before any point is
        timed.

        A shared bundle pays off only across configs; a single point's
        Simulator uses a bundle an earlier run left on the trace, or
        builds one and leaves it there.  A failure here is left to the
        point's own simulation, which retries it and records it as that
        point's failure; a failed trace is kept (:meth:`trace`), so those
        attempts raise it again without tracing again.
        """
        per_trace = Counter(point.workload for point in points)
        for workload, count in sorted(per_trace.items()):
            try:
                self.trace(workload)
                if count > 1:
                    self.precompute_for(workload)
            except Exception:
                pass    # the point's own simulation retries and records it

    # -- cache plumbing ------------------------------------------------------

    def _disk_key(self, point: SimPoint) -> str:
        return self.cache.key_for_spec(
            point.workload, self.iterations(point.workload), point.spec)

    def _log_point(self, point: SimPoint, seconds: float, source: str,
                   result=None) -> None:
        workload, model = point.workload, point.model
        self.point_log.append(PointTiming(workload, model, seconds, source))
        if self.ledger.enabled:
            fields = {"workload": workload, "model": model.value,
                      "source": source, "seconds": round(seconds, 6)}
            if point.spec.settings:
                fields["overrides"] = point.spec.setting_dict()
            if result is not None:
                # energy/edp are the exact floats energy_report produced
                # (JSON round-trips doubles losslessly), so ledger spans
                # agree with repro.energy to the last ulp.
                summary = energy_summary(result.energy)
                fields.update(ipc=result.ipc, cycles=summary["cycles"],
                              energy=summary["total"], edp=summary["edp"],
                              energy_by_event=summary["by_event"])
            self.ledger.emit("point.completed", **fields)
        if self.progress is not None:
            self.progress("  %-10s %-8s %-5s %.3fs"
                          % (workload, model.value, source, seconds))

    # -- simulation ------------------------------------------------------------

    def _simulate(self, point: SimPoint, tracer=None) -> SimResult:
        """Simulate one point: the only place a runner builds a Simulator.

        Serial batches, :meth:`run_traced` and worker tasks all come
        here.  A bundle already on the trace (resolved by
        :meth:`run_batch`, or left by an earlier run) is shared; without
        one the Simulator builds it and leaves it on the trace."""
        params = point.spec.to_params()
        stats = Simulator(self.program(point.workload),
                          self.trace(point.workload), params,
                          tracer=tracer).run()
        return SimResult(workload=point.workload, model=point.model,
                         stats=stats,
                         energy=energy_report(stats, params.energy))

    def _publish(self, point: SimPoint, result: SimResult,
                 seconds: float) -> None:
        """Checkpoint one simulated point: disk cache + memo, immediately.

        Batches call this *as each point resolves* (streamed from the
        parallel engine), not after the whole batch, so an interrupted
        sweep keeps everything that completed before it died.  The
        point's ``seconds`` are its share of "timing simulation".
        """
        self.phase_seconds["timing simulation"] += seconds
        self.cache.put(self._disk_key(point), result)
        self._results[point] = result
        self._failed.pop(point, None)
        self._log_point(point, seconds, "sim", result=result)

    def run_traced(self, point: SimPoint, tracer) -> SimResult:
        """Simulate one point with an explicit tracer attached.

        Always simulates (a cached result has no event stream); the stats
        are still pushed to the disk cache since tracing does not perturb
        them.  The ledger records it as a one-point sweep."""
        sweep = self._begin_sweep([point])
        self.trace(point.workload)     # resolved before the point is timed
        start = time.perf_counter()
        result = self._simulate(point, tracer)
        seconds = time.perf_counter() - start
        self._publish(point, result, seconds)
        self._end_sweep(sweep, BatchTiming(jobs=self.jobs, points=1,
                                           simulated=1, sim_seconds=seconds))
        return result

    def run(self, workload: str, model: ModelKind) -> SimResult:
        """Resolve ``workload`` under ``model``'s default configuration:
        a memo hit, or a one-point :meth:`run_batch` (so the retry
        policy, ``failure_log`` and ledger spans apply).  A point the
        batch leaves unresolved raises :class:`BatchFailure`, with
        ``keep_going`` too.  Other configurations go through
        :meth:`run_batch`."""
        point = make_point(workload, model)
        result = self._results.get(point)
        if result is None:
            result = self.run_batch([point]).get(point)
            if result is None:
                raise BatchFailure([self._failed[point]])
        return result

    # -- batch fan-out -------------------------------------------------------

    def _simulate_with_retry(self, point: SimPoint,
                             publish) -> Optional[FailedPoint]:
        """Serial path: simulate one point under the retry policy.

        Publishes on success and returns None; returns a
        :class:`FailedPoint` with the captured traceback once the retry
        budget is spent.  (No preemption in-process, so the policy's
        wall-clock timeout is not enforced here.)
        """
        attempts = 0
        while True:
            attempts += 1
            start = time.perf_counter()
            try:
                result = self._simulate(point)
            except Exception:
                detail = traceback.format_exc()
                if attempts > self.policy.retries:
                    return FailedPoint(point=point, kind="error",
                                       detail=detail, attempts=attempts)
                self.counts["retried"] += 1
                time.sleep(self.policy.delay_for(attempts))
                continue
            publish(point, result, time.perf_counter() - start)
            return None

    def _resolve_serially(self, points: List[SimPoint], publish,
                          failures: List[FailedPoint]) -> None:
        """Simulate points in this process, grouped by trace.

        Their inputs are resolved first (:meth:`_resolve_inputs`), so a
        batch traces all its workloads before its first point runs.
        Each trace's configs run back to back (the stable sort keeps
        submission order within a trace), every point retries on its
        own, and without ``keep_going`` the first exhausted point stops
        the rest.
        """
        self._resolve_inputs(points)
        for point in sorted(points, key=lambda p: p.workload):
            failure = self._simulate_with_retry(point, publish)
            if failure is not None:
                failures.append(failure)
                if not self.keep_going:
                    break   # fail fast; survivors are cached

    def _fan_out(self, points: List[SimPoint], publish, timing: BatchTiming,
                 failures: List[FailedPoint]) -> List[SimPoint]:
        """Simulate points in worker processes, one task per workload.

        Each task carries the parent's stores.  With a persistent trace
        store, the parent first resolves the inputs
        (:meth:`_resolve_inputs`) and stores them, so workers load them
        instead of re-running the functional CPU or re-analysing the
        trace; without one, workers trace for themselves.  The points of
        a workload whose trace already failed in this runner are not
        shipped: each retries here, on the serial path, which raises the
        kept failure again instead of tracing again.  Each completed
        task's own phase seconds are added to this runner's.  A task that
        exhausts its retries becomes one :class:`FailedPoint` per point.
        Returns the points of the tasks the engine handed back unrun
        (workers could not spawn), for the serial path.
        """
        groups: Dict[str, List[SimPoint]] = {}
        for point in points:
            groups.setdefault(point.workload, []).append(point)
        if self.trace_store.root is not None:
            self._resolve_inputs(points)
        for workload in sorted(groups.keys() & self._trace_failures.keys()):
            failures.extend(self._simulate_with_retry(point, publish)
                            for point in groups.pop(workload))
        tasks = [(workload, (self.scale, self.trace_store,
                             self.precompute_store, group), len(group))
                 for workload, group in sorted(groups.items())]

        resolved = set()

        def on_result(workload, outcome):
            outcomes, phases = outcome
            for name, seconds in phases.items():
                self.phase_seconds[name] += seconds
            for point, result, seconds in outcomes:
                resolved.add(point)
                publish(point, result, seconds)

        engine = ParallelEngine(_simulate_task, on_result, jobs=self.jobs,
                                progress=self.progress, policy=self.policy,
                                ledger=self.ledger)
        handed_back = [p for name in engine.run(tasks) for p in groups[name]]
        self.counts.update(engine.counts)
        timing.degraded = engine.degraded
        for failure in engine.failures:
            failures.extend(replace(failure, point=point)
                            for point in groups[failure.point])
        # Defensive: a point the engine neither resolved, recorded as
        # failed nor handed back is reported, never KeyError'd.
        accounted = resolved.union(handed_back, (f.point for f in failures))
        failures.extend(FailedPoint(
            point=point, kind="lost",
            detail="engine returned neither a result nor a failure record",
            attempts=0) for point in points if point not in accounted)
        return handed_back

    def _begin_sweep(self, points: List[SimPoint]):
        """Open a sweep over ``points``: number it, emit its
        ``sweep.begin`` span, and note the clock, counts and phase
        seconds it starts from, for :meth:`_end_sweep`."""
        self.sweep_seq += 1
        if self.ledger.enabled:
            # The grid payload records what this sweep *is* -- workloads,
            # models, and every non-default setting axis -- so a ledger
            # alone reconstructs the declared cross-product.
            self.ledger.emit("sweep.begin", sweep=self.sweep_seq,
                             jobs=self.jobs, submitted=len(points),
                             grid=describe_points(
                                 (p.workload, p.spec) for p in points))
        return (self.sweep_seq, time.perf_counter(), Counter(self.counts),
                dict(self.phase_seconds))

    def _end_sweep(self, sweep, timing: BatchTiming) -> None:
        """Close a sweep: add the counts it bumped to ``timing``, set its
        wall time, and emit its ``phase`` spans (the phase seconds it
        added) and its ``sweep.end`` span, built from ``timing``."""
        sweep_id, start, counts_before, phases_before = sweep
        timing.add(self.counts - counts_before)
        timing.wall_seconds = time.perf_counter() - start
        if self.ledger.enabled:
            for name in PHASE_NAMES:
                delta = self.phase_seconds[name] - phases_before[name]
                if delta > 0.0:
                    self.ledger.emit("phase", sweep=sweep_id, name=name,
                                     seconds=round(delta, 6))
            self.ledger.emit("sweep.end", sweep=sweep_id,
                             **timing.span_fields())

    def run_batch(self, points: Iterable[SimPoint]) -> Dict[SimPoint,
                                                            SimResult]:
        """Resolve a point set: memo -> disk cache -> simulation (a
        parallel map when ``jobs`` > 1).  This is the one way a point is
        resolved; :meth:`run` is a memo hit or a one-point batch.

        Returns {point: SimResult}; every result is also memoised, so
        later batches and :meth:`run` calls for the same points are free.
        Completed points are published to the disk cache as they
        resolve (checkpointing), so an interrupted sweep resumes from
        the cache on the next run.  Points that exhaust their retry
        budget are recorded in :attr:`failure_log` and omitted from the
        returned dict; unless ``keep_going`` is set the batch then
        raises :class:`BatchFailure` -- after the survivors were
        published, so completed work is never lost.
        """
        points = list(points)
        sweep = self._begin_sweep(points)
        timing = BatchTiming(jobs=self.jobs)
        out: Dict[SimPoint, SimResult] = {}
        misses: List[SimPoint] = []
        failures: List[FailedPoint] = []
        seen = set()
        for point in points:
            if point in seen:
                continue
            seen.add(point)
            timing.points += 1
            cached = self._results.get(point)
            if cached is not None:
                timing.memo_hits += 1
                out[point] = cached
                continue
            if point in self._failed:
                # Exhausted its retries earlier this session; don't burn
                # another full retry budget on it in every later batch.
                failures.append(self._failed[point])
                continue
            start = time.perf_counter()
            result = self.cache.get(self._disk_key(point))
            if result is not None:
                timing.cache_hits += 1
                self._results[point] = result
                out[point] = result
                self._log_point(point, time.perf_counter() - start,
                                "cache", result=result)
            else:
                misses.append(point)

        fresh_failures: List[FailedPoint] = []
        if misses:
            timing.simulated = len(misses)

            def publish(point, result, seconds):
                timing.sim_seconds += seconds
                out[point] = result
                self._publish(point, result, seconds)

            serial = misses
            if self.jobs > 1 and len(misses) > 1:
                serial = self._fan_out(misses, publish, timing,
                                       fresh_failures)
            self._resolve_serially(serial, publish, fresh_failures)

        if fresh_failures:
            self.failure_log.extend(fresh_failures)
            for failure in fresh_failures:
                self._failed[failure.point] = failure
            failures.extend(fresh_failures)
        timing.failed = len(failures)
        if self.ledger.enabled:
            for failure in failures:
                self.ledger.emit(
                    "point.failed", workload=failure.point.workload,
                    model=failure.point.model.value, cause=failure.kind,
                    attempts=failure.attempts,
                    overrides=failure.point.spec.setting_dict() or None,
                    detail=failure.detail or None)
        self._end_sweep(sweep, timing)
        if timing.points:
            self.batch_log.append(timing)
        if failures and not self.keep_going:
            raise BatchFailure(failures)
        return out

    def run_suite(self, spec: ConfigSpec,
                  workloads: Optional[Iterable[str]] = None
                  ) -> Dict[str, SimResult]:
        """Simulate one configuration across a workload list (default:
        all 21).  With ``keep_going`` the dict is partial: failed
        workloads are absent (see :attr:`failure_log`) instead of
        raising.
        """
        names = list(workloads) if workloads is not None else list(ALL_NAMES)
        points = {name: SimPoint(name, spec) for name in names}
        resolved = self.run_batch(points.values())
        return {name: resolved[point] for name, point in points.items()
                if point in resolved}

    # -- accounting ----------------------------------------------------------

    def points_simulated(self) -> int:
        return sum(1 for p in self.point_log if p.source == "sim")


def _simulate_task(workload: str, payload
                   ) -> Tuple[Tuple[list, Dict[str, float]], Dict[str, int]]:
    """Worker task body: simulate every configuration of one workload.

    ``payload`` is ``(scale, trace_store, precompute_store, points)``:
    the parent's stores (their roots and versions) and the workload's
    :class:`SimPoint` list.  The worker's runner resolves its inputs
    through those stores as the serial path does
    (:meth:`ExperimentRunner._resolve_inputs`): it loads what the parent
    stored, rebuilds a blob that fails to decode -- deleted, truncated,
    format-bumped under us -- and stores it again atomically, and with
    the stores disabled traces for itself.  Results stay with the
    parent, which filters cache hits before fanning out and is their
    only writer.  Returns ``((outcomes, phases), counts)``: one
    ``(point, result, seconds)`` per point; the worker runner's
    ``phase_seconds``, which hold its input phases (the points' seconds
    reach "timing simulation" when the parent publishes them); and what
    this task did itself under :class:`BatchTiming` field names --
    functional traces it had to run (``worker_retraces``, which
    ``test_parallel_batch_zero_worker_retraces_with_store`` pins at zero
    over a warm store) and precompute bundles it built or loaded --
    leaving out zeros.
    """
    scale, trace_store, precompute_store, points = payload
    runner = ExperimentRunner(scale=scale, use_cache=False,
                              trace_store=trace_store,
                              precompute_store=precompute_store)
    runner._resolve_inputs(points)
    outcomes = []
    for point in points:
        start = time.perf_counter()
        result = runner._simulate(point)
        outcomes.append((point, result, time.perf_counter() - start))
    return (outcomes, runner.phase_seconds), {
        field: runner.counts[name]
        for name, field in _WORKER_FIELDS.items() if runner.counts[name]}
