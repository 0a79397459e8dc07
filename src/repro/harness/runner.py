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
memo -> persistent trace store -> functional CPU, and batch fan-out hands
workers the persisted blob's path so they ``mmap`` it instead of
re-tracing (DESIGN.md section 12).

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

from ..config import ConfigSpec, SpecGrid, describe_points
from ..energy import EnergyReport, energy_report, energy_summary
from ..isa import Program
from ..kernel.precompute import (TracePrecompute, bpred_signature,
                                 load_precompute)
from ..kernel.tracestore import (PackedTrace, load_trace, run_trace_packed)
from ..obs.ledger import NULL_LEDGER, PHASE_NAMES
from ..uarch import ModelKind, SimStats, model_params
from ..uarch.pipeline import Simulator
from ..workloads import ALL_NAMES, get_workload
from .cache import (PrecomputeStore, ResultCache, TraceStore,
                    default_cache_dir)
from .parallel import (_WORKER_FIELDS, BatchTiming, ParallelEngine,
                       PointTiming, SimPoint, make_point)
from .resilience import BatchFailure, FailedPoint, RetryPolicy


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
        # Cumulative per-phase wall clock (ledger phase spans report the
        # per-sweep delta); names match tools/profile_sim.py.
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
        self._bpred_sig: Optional[Tuple[int, int, int]] = None
        self._results: Dict[SimPoint, SimResult] = {}
        self.point_log: List[PointTiming] = []
        self.batch_log: List[BatchTiming] = []
        # Lifetime counts under BatchTiming field names (plus
        # traces_loaded); each batch records its own delta.  The sweep
        # benchmark's zero-retrace and one-precompute-per-trace gates
        # read them (DESIGN.md sections 12 and 14).
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

    def trace(self, workload: str) -> PackedTrace:
        """The packed dynamic trace for a workload: memo -> store -> trace.

        A store hit maps the persisted packed blob read-only (zero
        functional re-execution); a miss runs the functional CPU once and
        persists the packed result for every later session and worker.
        """
        if workload not in self._traces:
            program = self.program(workload)
            iterations = self.iterations(workload)
            start = time.perf_counter()
            packed = self.trace_store.load(workload, iterations, program)
            self.phase_seconds["trace store I/O"] += (time.perf_counter()
                                                      - start)
            if packed is not None:
                self.counts["traces_loaded"] += 1
                if self.ledger.enabled:
                    self.ledger.emit(
                        "store.trace", workload=workload, event="hit",
                        bytes=self._blob_size(
                            self.trace_store.path_for(workload, iterations)))
            else:
                # A blob that exists but failed to decode (truncated,
                # format-bumped, stale) is a corrupt-miss, not a cold one.
                stale = None
                if self.ledger.enabled:
                    stale = self.trace_store.path_for(workload, iterations)
                    stale = stale is not None and stale.exists()
                start = time.perf_counter()
                packed = run_trace_packed(program)
                self.phase_seconds["functional tracing"] += (
                    time.perf_counter() - start)
                self.counts["traces_generated"] += 1
                start = time.perf_counter()
                self.trace_store.put(workload, iterations, packed)
                self.phase_seconds["trace store I/O"] += (time.perf_counter()
                                                          - start)
                if self.ledger.enabled:
                    self.ledger.emit(
                        "store.trace", workload=workload,
                        event="corrupt-miss" if stale else "build",
                        bytes=self._blob_size(
                            self.trace_store.path_for(workload, iterations)))
            self._traces[workload] = packed
        return self._traces[workload]

    @staticmethod
    def _blob_size(path) -> Optional[int]:
        if path is None:
            return None
        try:
            return path.stat().st_size
        except OSError:
            return None

    def ensure_trace(self, workload: str) -> Optional[str]:
        """Make sure the store holds this workload's trace; returns its
        path (None when the store is disabled), so batch fan-out can
        hand workers a blob to map instead of re-tracing."""
        self.trace(workload)
        path = self.trace_store.path_for(workload,
                                         self.iterations(workload))
        if path is None:
            return None
        return str(path)

    def attach_trace(self, workload: str, path: str) -> bool:
        """Adopt a packed trace blob produced by another process.

        Returns True when the blob decoded against this runner's program;
        on any failure the memo is left empty so :meth:`trace` falls back
        to re-tracing (a stale/corrupt blob must never kill a worker)."""
        try:
            packed = load_trace(path, self.program(workload))
        except Exception:
            return False
        self._traces[workload] = packed
        self.counts["traces_loaded"] += 1
        return True

    @property
    def functional_traces(self) -> int:
        """Functional CPU executions this runner caused, anywhere."""
        return (self.counts["traces_generated"]
                + self.counts["worker_retraces"])

    # -- precompute plumbing -------------------------------------------------

    def _bpred_signature(self):
        """The default predictor geometry bundles are keyed by.  A point
        that overrides any of it finds no bundle for its own geometry on
        the trace, and its Simulator builds one."""
        if self._bpred_sig is None:
            self._bpred_sig = bpred_signature(
                model_params(ModelKind.BASELINE))
        return self._bpred_sig

    def precompute_for(self, workload: str) -> TracePrecompute:
        """The shared whole-trace bundle: trace -> store -> build (+ put).

        Batch submissions resolve this once per distinct trace; the
        bundle lives on the trace, so every config simulated against
        that trace shares it.  The built/loaded counters back the sweep
        benchmark's "exactly one precompute per trace" gate.
        """
        trace = self.trace(workload)
        signature = self._bpred_signature()
        bundle = trace.bundles.get(signature)
        if bundle is None:
            iterations = self.iterations(workload)
            start = time.perf_counter()
            bundle = self.precompute_store.load(
                workload, iterations, trace, signature)
            self.phase_seconds["precompute"] += time.perf_counter() - start
            if bundle is not None:
                self.counts["precomputes_loaded"] += 1
                if self.ledger.enabled:
                    self.ledger.emit(
                        "store.precompute", workload=workload, event="hit",
                        bytes=self._blob_size(self.precompute_store.path_for(
                            workload, iterations, signature)))
            else:
                stale = None
                if self.ledger.enabled:
                    stale = self.precompute_store.path_for(
                        workload, iterations, signature)
                    stale = stale is not None and stale.exists()
                start = time.perf_counter()
                bundle = TracePrecompute.build(trace, signature)
                self.counts["precomputes_built"] += 1
                self.phase_seconds["precompute"] += (time.perf_counter()
                                                     - start)
                start = time.perf_counter()
                self.precompute_store.put(workload, iterations, bundle)
                self.phase_seconds["trace store I/O"] += (time.perf_counter()
                                                          - start)
                if self.ledger.enabled:
                    self.ledger.emit(
                        "store.precompute", workload=workload,
                        event="corrupt-miss" if stale else "build",
                        bytes=self._blob_size(self.precompute_store.path_for(
                            workload, iterations, signature)))
        return bundle

    def ensure_precompute(self, workload: str) -> Optional[str]:
        """Make sure the store holds this workload's bundle; returns its
        path (None without a persistent store), for worker fan-out."""
        bundle = self.precompute_for(workload)
        iterations = self.iterations(workload)
        path = self.precompute_store.path_for(workload, iterations,
                                              bundle.signature)
        if path is None:
            return None
        if not path.exists():
            # A Simulator built this bundle and left it on the trace.
            start = time.perf_counter()
            self.precompute_store.put(workload, iterations, bundle)
            self.phase_seconds["trace store I/O"] += (time.perf_counter()
                                                      - start)
        return str(path)

    def attach_precompute(self, workload: str, path: str) -> bool:
        """Adopt a precompute blob produced by another process.

        Returns True when the blob decoded against this runner's trace
        (the bundle then lives on it); any failure leaves the trace
        without one so :meth:`precompute_for` falls back to rebuilding
        (a stale blob never kills a worker)."""
        try:
            load_precompute(path, self.trace(workload),
                            self._bpred_signature())
        except Exception:
            return False
        self.counts["precomputes_loaded"] += 1
        return True

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
        sweep keeps everything that completed before it died.
        """
        self.cache.put(self._disk_key(point), result)
        self._results[point] = result
        self._failed.pop(point, None)
        self._log_point(point, seconds, "sim", result=result)

    def run_traced(self, point: SimPoint, tracer) -> SimResult:
        """Simulate one point with an explicit tracer attached.

        Always simulates (a cached result has no event stream); the stats
        are still pushed to the disk cache since tracing does not perturb
        them."""
        start = time.perf_counter()
        result = self._simulate(point, tracer)
        self._publish(point, result, time.perf_counter() - start)
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

        A shared precompute bundle pays off only across configs: resolve
        one per trace with two or more points.  A single point's
        Simulator uses a bundle an earlier run left on the trace, or
        builds one and indexes the packed trace lazily.  Each trace's
        configs run back to back (the stable sort keeps submission order
        within a trace), every point retries on its own, and without
        ``keep_going`` the first exhausted point stops the rest.
        """
        per_trace = Counter(p.workload for p in points)
        for workload, count in sorted(per_trace.items()):
            if count > 1:
                try:
                    self.precompute_for(workload)
                except Exception:
                    pass    # the first Simulator builds it
        for point in sorted(points, key=lambda p: p.workload):
            failure = self._simulate_with_retry(point, publish)
            if failure is not None:
                failures.append(failure)
                if not self.keep_going:
                    break   # fail fast; survivors are cached

    def _fan_out(self, points: List[SimPoint], publish, timing: BatchTiming,
                 failures: List[FailedPoint]) -> List[SimPoint]:
        """Simulate points in worker processes, one task per workload.

        With a persistent trace store, the parent traces each workload
        once (and precomputes the ones with two or more configs) and
        ships the blob paths, so workers map them instead of re-running
        the functional CPU or re-analysing the trace; without one,
        workers trace for themselves.  A task that exhausts its retries
        becomes one :class:`FailedPoint` per point.  Returns the points
        of the tasks the engine handed back unrun (workers could not
        spawn), for the serial path.
        """
        groups: Dict[str, List[SimPoint]] = {}
        for point in points:
            groups.setdefault(point.workload, []).append(point)
        tasks = []
        for workload, group in sorted(groups.items()):
            trace_path = precompute_path = None
            if self.trace_store.root is not None:
                trace_path = self.ensure_trace(workload)
                if len(group) > 1:
                    precompute_path = self.ensure_precompute(workload)
            tasks.append((workload, (self.scale, trace_path,
                                     precompute_path, group), len(group)))

        resolved = set()

        def on_result(workload, outcomes):
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
        batch_start = time.perf_counter()
        counts_before = Counter(self.counts)
        phases_before = dict(self.phase_seconds)
        points = list(points)
        self.sweep_seq += 1
        sweep_id = self.sweep_seq
        if self.ledger.enabled:
            # The grid payload records what this sweep *is* -- workloads,
            # models, and every non-default setting axis -- so a ledger
            # alone reconstructs the declared cross-product.
            self.ledger.emit("sweep.begin", sweep=sweep_id, jobs=self.jobs,
                             submitted=len(points),
                             grid=describe_points(
                                 (p.workload, p.spec) for p in points))
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
        timing.add(self.counts - counts_before)
        timing.wall_seconds = time.perf_counter() - batch_start
        if timing.points:
            self.batch_log.append(timing)
        if self.ledger.enabled:
            for failure in failures:
                self.ledger.emit(
                    "point.failed", workload=failure.point.workload,
                    model=failure.point.model.value, cause=failure.kind,
                    attempts=failure.attempts,
                    overrides=failure.point.spec.setting_dict() or None,
                    detail=failure.detail or None)
            # "timing simulation" is the summed per-point simulation
            # time; the other phases are this batch's deltas of the
            # runner-lifetime accumulators fed by trace()/precompute_for().
            for name in PHASE_NAMES:
                delta = (timing.sim_seconds if name == "timing simulation"
                         else self.phase_seconds[name] - phases_before[name])
                if delta > 0.0:
                    self.ledger.emit("phase", sweep=sweep_id, name=name,
                                     seconds=round(delta, 6))
            self.ledger.emit("sweep.end", sweep=sweep_id,
                             **timing.span_fields())
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

    def run_grid(self, grid: SpecGrid,
                 workloads: Optional[Iterable[str]] = None
                 ) -> Dict[SimPoint, SimResult]:
        """Expand a declared spec grid across workloads and resolve it.

        The cross-product is workload-major then grid order (the grid's
        own expansion is deterministic), submitted as one batch so the
        ledger's ``sweep.begin`` records the whole grid.
        """
        names = list(workloads) if workloads is not None else list(ALL_NAMES)
        return self.run_batch(SimPoint(name, spec)
                              for name in names for spec in grid.expand())

    # -- accounting ----------------------------------------------------------

    def points_simulated(self) -> int:
        return sum(1 for p in self.point_log if p.source == "sim")


def _simulate_task(workload: str, payload) -> Tuple[list, Dict[str, int]]:
    """Worker task body: simulate every configuration of one workload.

    ``payload`` is ``(scale, trace_path, precompute_path, points)``,
    the workload's :class:`SimPoint` list.  The
    worker builds its own runner for the payload's scale, with the stores
    disabled: the parent filters cache hits before fanning out and is the
    only writer.  A shipped trace blob is adopted (an ``mmap`` of the
    store's copy); one that fails to decode -- deleted, truncated,
    format-bumped under us -- is re-traced rather than failing the task.
    Two or more configurations share one precompute bundle, the rule the
    serial path applies: a shipped bundle that fails to decode (or none
    shipped) is rebuilt here.  Returns ``(outcomes, counts)``: one
    ``(point, result, seconds)`` per point, and what
    this task did itself under :class:`BatchTiming` field names --
    functional traces it had to run (``worker_retraces``, whose absence
    the sweep benchmark asserts) and precompute bundles it built or
    loaded -- leaving out zeros.
    """
    scale, trace_path, precompute_path, points = payload
    runner = ExperimentRunner(scale=scale, jobs=1, use_cache=False)
    if trace_path is not None:
        runner.attach_trace(workload, trace_path)
    if len(points) > 1 and (
            precompute_path is None
            or not runner.attach_precompute(workload, precompute_path)):
        try:
            runner.precompute_for(workload)
        except Exception:
            pass    # the first Simulator builds the bundle
    outcomes = []
    for point in points:
        start = time.perf_counter()
        result = runner._simulate(point)
        outcomes.append((point, result, time.perf_counter() - start))
    return outcomes, {field: runner.counts[name]
                      for name, field in _WORKER_FIELDS.items()
                      if runner.counts[name]}


# A process-wide runner shared by the benchmark files.
_SHARED: Optional[ExperimentRunner] = None

_UNSET = object()


def shared_runner(scale=_UNSET) -> ExperimentRunner:
    """The process-wide runner; the first caller fixes the scale.

    A later caller asking for a *different* scale gets a ``ValueError``
    -- silently handing back a runner with the wrong scale would poison
    every downstream result (and its cache keys).  Omit the argument to
    accept whatever scale the runner was first built with.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = ExperimentRunner(scale=None if scale is _UNSET else scale)
    elif scale is not _UNSET and scale != _SHARED.scale:
        raise ValueError(
            "shared_runner() was built with scale=%r; a conflicting "
            "scale=%r was requested (omit the argument to reuse it)"
            % (_SHARED.scale, scale))
    return _SHARED
