"""Experiment runner: builds workloads, traces them once, and simulates
them under arbitrary model/parameter combinations with three cache layers:

1. an in-process memo (same runner, same point -> same object),
2. a persistent on-disk result cache (:mod:`repro.harness.cache`), keyed
   by a content hash of (workload, iterations, model, overrides, code
   version), so warm pytest/benchmark sessions skip simulation entirely,
3. a parallel fan-out engine (:mod:`repro.harness.parallel`) that maps
   batches of points over multiprocessing workers.

Functional traces get the same treatment: :meth:`ExperimentRunner.trace`
returns a packed :class:`~repro.kernel.tracestore.PackedTrace`, resolved
memo -> persistent trace store -> functional CPU, and batch fan-out hands
workers the persisted blob's path so they ``mmap`` it instead of
re-tracing (DESIGN.md section 12).

Figure/table functions submit their whole point set through
:meth:`ExperimentRunner.run_batch` (collect points -> parallel map ->
assemble); individual :meth:`run` calls then resolve from the memo.
Every resolved point is logged with its wall-clock cost and provenance
("sim" vs "cache") for the reporting layer.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ConfigSpec, SpecGrid, describe_points
from ..energy import EnergyReport, energy_report, energy_summary
from ..isa import Program
from ..kernel.precompute import (TracePrecompute, bpred_signature,
                                 load_precompute)
from ..kernel.tracestore import (PackedTrace, load_trace, run_trace_packed)
from ..obs.ledger import NULL_LEDGER, PHASE_NAMES
from ..uarch import CoreParams, ModelKind, SimStats, model_params
from ..uarch.pipeline import Simulator
from ..workloads import ALL_NAMES, get_workload
from .cache import (NullCache, NullPrecomputeStore, NullTraceStore,
                    PrecomputeStore, ResultCache, TraceStore, canonical)
from .parallel import (BatchTiming, ParallelEngine, PointTiming, SimPoint,
                       make_point, spec_point)
from .resilience import BatchFailure, FailedPoint, RetryPolicy


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
                 progress=None, collect_metrics: bool = False,
                 policy: Optional[RetryPolicy] = None,
                 keep_going: bool = False,
                 trace_store=None, precompute_store=None,
                 ledger=None):
        """``scale`` multiplies every workload's default iteration count
        (e.g. 0.1 for quick tests); None keeps per-workload defaults.
        ``jobs`` is the worker-process count for batch submissions (1 =
        in-process serial).  ``cache`` overrides the default on-disk result
        cache; ``use_cache=False`` disables persistence entirely.
        ``progress`` is an optional callable(str) for live reporting.
        ``collect_metrics=True`` attaches a streaming metrics tracer to
        every simulation and keeps the structured report per point (forces
        in-process simulation: no disk-cache reads, no worker fan-out, so
        the metrics are always complete).  ``policy`` sets per-task
        timeout/retry/backoff for batch submissions (default:
        :class:`RetryPolicy`); with ``keep_going=True`` a batch whose
        points exhaust their retries returns the partial result set and
        records the rest in ``failure_log`` instead of raising
        :class:`BatchFailure`.  ``ledger`` is an optional
        :class:`~repro.obs.ledger.LedgerSink`; the default
        :data:`~repro.obs.ledger.NULL_LEDGER` costs one attribute
        check per emit site (DESIGN.md section 15)."""
        self.scale = scale
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.sweep_seq = 0           # monotonic sweep id for ledger spans
        # Cumulative per-phase wall clock (ledger phase spans report the
        # per-sweep delta); names match tools/profile_sim.py.
        self.phase_seconds = {name: 0.0 for name in PHASE_NAMES}
        self.jobs = max(1, int(jobs))
        self.collect_metrics = collect_metrics
        self.policy = policy if policy is not None else RetryPolicy()
        self.keep_going = keep_going
        self.failure_log: List[FailedPoint] = []
        self._failed_keys: Dict[Tuple, FailedPoint] = {}
        self.metrics_log: Dict[Tuple, Dict[str, object]] = {}
        if cache is not None:
            self.cache = cache
        elif use_cache:
            self.cache = ResultCache()
        else:
            self.cache = NullCache()
        if trace_store is not None:
            self.trace_store = trace_store
        elif getattr(self.cache, "root", None) is not None:
            # Keep trace blobs beside the result entries they feed.
            self.trace_store = TraceStore(root=self.cache.root / "traces")
        else:
            self.trace_store = NullTraceStore()
        if precompute_store is not None:
            self.precompute_store = precompute_store
        elif getattr(self.trace_store, "root", None) is not None:
            # Precompute bundles live beside the trace blobs they annotate.
            self.precompute_store = PrecomputeStore(
                root=self.trace_store.root)
        else:
            self.precompute_store = NullPrecomputeStore()
        self.progress = progress
        self._programs: Dict[str, Program] = {}
        self._traces: Dict[str, PackedTrace] = {}
        self._precomputes: Dict[str, TracePrecompute] = {}
        self._bpred_sig: Optional[Tuple[int, int, int]] = None
        self._results: Dict[Tuple, SimResult] = {}
        self.point_log: List[PointTiming] = []
        self.batch_log: List[BatchTiming] = []
        # Functional-trace accounting (the sweep benchmark's zero-retrace
        # assertion reads these; see DESIGN.md section 12).
        self.traces_generated = 0    # functional CPU runs in this process
        self.traces_loaded = 0       # packed traces mapped from the store
        self.worker_retraces = 0     # functional CPU runs inside workers
        # Precompute-bundle accounting (DESIGN.md section 14): "exactly
        # one precompute per distinct trace" is built + loaded == number
        # of distinct traces swept, asserted in tests via BatchTiming.
        self.precomputes_built = 0   # bundles analysed in this process
        self.precomputes_loaded = 0  # bundles loaded from the store
        self.worker_precomputes_built = 0
        self.worker_precomputes_loaded = 0

    # -- workload plumbing ---------------------------------------------------

    def iterations(self, workload: str) -> int:
        """Resolved iteration count (part of the persistent cache key)."""
        spec = get_workload(workload)
        if self.scale is None:
            return spec.default_scale
        return max(1, int(round(spec.default_scale * self.scale)))

    def program(self, workload: str) -> Program:
        if workload not in self._programs:
            spec = get_workload(workload)
            iterations = None
            if self.scale is not None:
                iterations = self.iterations(workload)
            self._programs[workload] = spec.build(iterations)
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
                self.traces_loaded += 1
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
                self.traces_generated += 1
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
        path (None when the store is a :class:`NullTraceStore`), so batch
        fan-out can hand workers a blob to map instead of re-tracing."""
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
        # A bundle is tied to the trace object it was built for.
        self._precomputes.pop(workload, None)
        self.traces_loaded += 1
        return True

    @property
    def functional_traces(self) -> int:
        """Functional CPU executions this runner caused, anywhere."""
        return self.traces_generated + self.worker_retraces

    # -- precompute plumbing -------------------------------------------------

    def _bpred_signature(self):
        """The default predictor geometry bundles are keyed by.  A point
        that overrides any of it fails ``TracePrecompute.matches`` inside
        the Simulator, which then builds a bundle for its own geometry."""
        if self._bpred_sig is None:
            self._bpred_sig = bpred_signature(
                model_params(ModelKind.BASELINE))
        return self._bpred_sig

    def precompute_for(self, workload: str) -> TracePrecompute:
        """The shared whole-trace bundle: memo -> store -> build (+ put).

        Batch submissions resolve this once per distinct trace and every
        config simulated against that trace shares the result; the
        built/loaded counters back the sweep benchmark's
        "exactly one precompute per trace" gate.
        """
        bundle = self._precomputes.get(workload)
        if bundle is None:
            trace = self.trace(workload)
            signature = self._bpred_signature()
            iterations = self.iterations(workload)
            start = time.perf_counter()
            bundle = self.precompute_store.load(
                workload, iterations, trace, signature)
            self.phase_seconds["precompute"] += time.perf_counter() - start
            if bundle is not None:
                self.precomputes_loaded += 1
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
                self.precomputes_built += 1
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
            self._precomputes[workload] = bundle
        return bundle

    def ensure_precompute(self, workload: str) -> Optional[str]:
        """Make sure the store holds this workload's bundle; returns its
        path (None without a persistent store), for worker fan-out."""
        self.precompute_for(workload)
        path = self.precompute_store.path_for(
            workload, self.iterations(workload), self._bpred_signature())
        if path is None:
            return None
        return str(path)

    def attach_precompute(self, workload: str, path: str) -> bool:
        """Adopt a precompute blob produced by another process.

        Returns True when the blob decoded against this runner's trace;
        any failure leaves the memo empty so :meth:`precompute_for`
        falls back to rebuilding (a stale blob never kills a worker)."""
        try:
            bundle = load_precompute(path, self.trace(workload),
                                     self._bpred_signature())
        except Exception:
            return False
        self._precomputes[workload] = bundle
        self.precomputes_loaded += 1
        return True

    # -- cache plumbing ------------------------------------------------------

    def _memo_key(self, workload: str, spec: ConfigSpec) -> Tuple:
        # The spec *is* the canonical configuration (validated, sorted,
        # default-dropped), so memo and disk keys share one form: two
        # constructions of the same parameters -- bare overrides, dotted
        # --set flags, a grid expansion -- agree on both keys.
        return (workload, spec)

    def _disk_key(self, workload: str, spec: ConfigSpec) -> str:
        return self.cache.key_for_spec(workload, self.iterations(workload),
                                       spec)

    def _log_point(self, workload: str, model: ModelKind, seconds: float,
                   source: str, result=None, overrides=None) -> None:
        self.point_log.append(PointTiming(workload, model, seconds, source))
        if self.ledger.enabled:
            fields = {"workload": workload, "model": model.value,
                      "source": source, "seconds": round(seconds, 6)}
            if overrides:
                fields["overrides"] = canonical(overrides)
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

    def _simulate(self, workload: str, spec: ConfigSpec) -> SimResult:
        params = spec.to_params()
        tracer = None
        if self.collect_metrics:
            from ..obs import MetricsTracer  # deferred: keeps import light
            tracer = MetricsTracer()
        # Batch submissions resolve a shared precompute bundle per trace
        # (see run_batch); a single-point run() has none here, and the
        # Simulator builds its own.
        stats = Simulator(self.program(workload), self.trace(workload),
                          params, tracer=tracer,
                          precompute=self._precomputes.get(workload)).run()
        if tracer is not None:
            self.metrics_log[self._memo_key(workload,
                                            spec)] = tracer.report()
        return SimResult(workload=workload, model=spec.model, stats=stats,
                         energy=energy_report(stats, params.energy))

    def metrics_for(self, workload: str, model: ModelKind,
                    **overrides) -> Optional[Dict[str, object]]:
        """Structured metrics for a point simulated under
        ``collect_metrics=True`` (None when it was never simulated here)."""
        spec = ConfigSpec.from_overrides(model, **overrides)
        return self.metrics_log.get(self._memo_key(workload, spec))

    def run_traced(self, workload: str, model: ModelKind, tracer,
                   spec: Optional[ConfigSpec] = None,
                   **overrides) -> SimResult:
        """Simulate one point with an explicit tracer attached.

        Always simulates (a cached result has no event stream); the stats
        are still pushed to the disk cache since tracing does not perturb
        them.  Pass either a ready ``spec`` or legacy overrides."""
        start = time.perf_counter()
        if spec is None:
            spec = ConfigSpec.from_overrides(model, **overrides)
        params = spec.to_params()
        stats = Simulator(self.program(workload), self.trace(workload),
                          params, tracer=tracer).run()
        result = SimResult(workload=workload, model=spec.model, stats=stats,
                           energy=energy_report(stats, params.energy))
        self.cache.put(self._disk_key(workload, spec), result)
        self._results[self._memo_key(workload, spec)] = result
        self._log_point(workload, spec.model, time.perf_counter() - start,
                        "sim", result=result,
                        overrides=spec.setting_dict())
        return result

    def run(self, workload: str, model: ModelKind,
            **overrides) -> SimResult:
        """Simulate one point; memoised in-process and on disk.

        Thin wrapper: the overrides are validated and canonicalised into
        a :class:`~repro.config.ConfigSpec` (a typo fails here with a
        did-you-mean hint) and :meth:`run_spec` does the work.
        """
        return self.run_spec(workload,
                             ConfigSpec.from_overrides(model, **overrides))

    def run_spec(self, workload: str, spec: ConfigSpec) -> SimResult:
        """Simulate one spec-described point; memoised in-process and on
        disk (both keys derive from the spec's canonical form)."""
        key = self._memo_key(workload, spec)
        cached = self._results.get(key)
        if cached is not None:
            return cached
        if key in self._failed_keys:
            # The point already exhausted its retry budget this session;
            # surface the recorded failure instead of re-simulating.
            raise BatchFailure([self._failed_keys[key]])
        start = time.perf_counter()
        disk_key = self._disk_key(workload, spec)
        # Metrics collection needs a live simulation: skip the disk cache.
        result = None if self.collect_metrics else self.cache.get(disk_key)
        if result is not None:
            self._log_point(workload, spec.model,
                            time.perf_counter() - start, "cache",
                            result=result, overrides=spec.setting_dict())
        else:
            result = self._simulate(workload, spec)
            self.cache.put(disk_key, result)
            self._log_point(workload, spec.model,
                            time.perf_counter() - start, "sim",
                            result=result, overrides=spec.setting_dict())
        self._results[key] = result
        return result

    def run_with_params(self, workload: str, params: CoreParams) -> SimResult:
        """Simulate with a fully custom (non-memoised) configuration."""
        stats = Simulator(self.program(workload), self.trace(workload),
                          params).run()
        return SimResult(workload=workload, model=params.model, stats=stats,
                         energy=energy_report(stats, params.energy))

    # -- batch fan-out -------------------------------------------------------

    def _publish(self, timing: BatchTiming, out: Dict[SimPoint, SimResult],
                 point: SimPoint, result: SimResult, seconds: float) -> None:
        """Checkpoint one resolved point: disk cache + memo, immediately.

        Called *as each point resolves* (streamed from the parallel
        engine), not after the whole batch, so an interrupted sweep
        keeps everything that completed before it died.
        """
        timing.sim_seconds += seconds
        spec = point.spec
        self.cache.put(self._disk_key(point.workload, spec), result)
        key = self._memo_key(point.workload, spec)
        self._results[key] = result
        self._failed_keys.pop(key, None)
        out[point] = result
        self._log_point(point.workload, spec.model, seconds, "sim",
                        result=result, overrides=spec.setting_dict())

    def _simulate_with_retry(self, point: SimPoint,
                             publish) -> Optional[FailedPoint]:
        """Serial path: simulate one point under the retry policy.

        Publishes on success and returns None; returns a
        :class:`FailedPoint` with the captured traceback once the retry
        budget is spent.  (No preemption in-process, so the policy's
        wall-clock timeout is not enforced here.)
        """
        spec = point.spec
        attempts = 0
        while True:
            attempts += 1
            start = time.perf_counter()
            try:
                result = self._simulate(point.workload, spec)
            except Exception:
                detail = traceback.format_exc()
                if attempts > self.policy.retries:
                    return FailedPoint(point=point, kind="error",
                                       detail=detail, attempts=attempts)
                time.sleep(self.policy.delay_for(attempts))
                continue
            publish(point, result, time.perf_counter() - start)
            return None

    def run_batch(self, points: Iterable[SimPoint]) -> Dict[SimPoint,
                                                            SimResult]:
        """Resolve a whole point set: memo -> disk cache -> parallel map.

        Returns {point: SimResult}; every result is also memoised, so
        subsequent :meth:`run` calls for the same points are free.
        Completed points are published to the disk cache as they
        resolve (checkpointing), so an interrupted sweep resumes from
        the cache on the next run.  Points that exhaust their retry
        budget are recorded in :attr:`failure_log` and omitted from the
        returned dict; unless ``keep_going`` is set the batch then
        raises :class:`BatchFailure` -- after the survivors were
        published, so completed work is never lost.
        """
        batch_start = time.perf_counter()
        traces_before = self.traces_generated
        pre_built_before = self.precomputes_built
        pre_loaded_before = self.precomputes_loaded
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
            spec = point.spec
            key = self._memo_key(point.workload, spec)
            cached = self._results.get(key)
            if cached is not None:
                timing.memo_hits += 1
                out[point] = cached
                continue
            if key in self._failed_keys:
                # Exhausted its retries earlier this session; don't burn
                # another full retry budget on it in every later batch.
                failures.append(self._failed_keys[key])
                continue
            start = time.perf_counter()
            result = self.cache.get(self._disk_key(point.workload, spec))
            if result is not None:
                timing.cache_hits += 1
                self._results[key] = result
                out[point] = result
                self._log_point(point.workload, spec.model,
                                time.perf_counter() - start, "cache",
                                result=result,
                                overrides=spec.setting_dict())
            else:
                misses.append(point)

        fresh_failures: List[FailedPoint] = []
        if misses:
            timing.simulated = len(misses)

            def publish(point, result, seconds):
                self._publish(timing, out, point, result, seconds)

            # Metrics collection happens in _simulate, so fall back to
            # in-process simulation instead of the worker fan-out.
            if self.jobs > 1 and len(misses) > 1 and not self.collect_metrics:
                # Trace + precompute every miss workload once *here*, so
                # workers map the persisted blobs instead of re-running
                # the functional CPU or re-analysing the trace.
                trace_paths: Dict[str, object] = {}
                for workload in sorted({p.workload for p in misses}):
                    path = self.ensure_trace(workload)
                    if path is not None:
                        pre_path = self.ensure_precompute(workload)
                        trace_paths[workload] = ((path, pre_path)
                                                 if pre_path else path)
                engine = ParallelEngine(jobs=self.jobs, scale=self.scale,
                                        progress=self.progress,
                                        policy=self.policy,
                                        on_result=publish,
                                        trace_paths=trace_paths or None,
                                        ledger=self.ledger)
                resolved = engine.run_points(misses)
                fresh_failures.extend(engine.failures)
                timing.retried += engine.retried
                timing.timed_out += engine.timed_out
                timing.worker_retraces += engine.worker_retraces
                self.worker_retraces += engine.worker_retraces
                timing.worker_precomputes_built += \
                    engine.worker_precomputes_built
                timing.worker_precomputes_loaded += \
                    engine.worker_precomputes_loaded
                self.worker_precomputes_built += \
                    engine.worker_precomputes_built
                self.worker_precomputes_loaded += \
                    engine.worker_precomputes_loaded
                # Defensive: a point the engine neither resolved nor
                # recorded as failed is reported, never KeyError'd.
                accounted = set(resolved)
                accounted.update(f.point for f in fresh_failures)
                for point in misses:
                    if point not in accounted:
                        fresh_failures.append(FailedPoint(
                            point=point, kind="lost",
                            detail="engine returned neither a result nor "
                                   "a failure record", attempts=0))
            else:
                # Group the config cross-product by trace: resolve one
                # shared precompute bundle per distinct workload, then run
                # all of a trace's configs back-to-back against it (the
                # stable sort preserves submission order within a trace).
                if not self.collect_metrics:
                    for workload in sorted({p.workload for p in misses}):
                        try:
                            self.precompute_for(workload)
                        except Exception:
                            pass    # each Simulator builds its own
                    misses.sort(key=lambda p: p.workload)
                for point in misses:
                    failure = self._simulate_with_retry(point, publish)
                    if failure is not None:
                        fresh_failures.append(failure)
                        if not self.keep_going:
                            break   # fail fast; survivors are cached

        if fresh_failures:
            self.failure_log.extend(fresh_failures)
            for failure in fresh_failures:
                self._failed_keys[self._memo_key(
                    failure.point.workload,
                    failure.point.spec)] = failure
            failures.extend(fresh_failures)
        timing.failed = len(failures)
        timing.traces_generated = self.traces_generated - traces_before
        timing.precomputes_built = self.precomputes_built - pre_built_before
        timing.precomputes_loaded = (self.precomputes_loaded
                                     - pre_loaded_before)
        timing.wall_seconds = time.perf_counter() - batch_start
        if timing.points:
            self.batch_log.append(timing)
        if self.ledger.enabled:
            for failure in failures:
                self.ledger.emit(
                    "point.failed", workload=failure.point.workload,
                    model=failure.point.model.value, cause=failure.kind,
                    attempts=failure.attempts,
                    overrides=(canonical(failure.point.override_dict)
                               if failure.point.overrides else None),
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
            self.ledger.emit(
                "sweep.end", sweep=sweep_id, points=timing.points,
                simulated=timing.simulated, memo_hits=timing.memo_hits,
                cache_hits=timing.cache_hits, failed=timing.failed,
                retried=timing.retried, timed_out=timing.timed_out,
                wall_seconds=round(timing.wall_seconds, 6),
                sim_seconds=round(timing.sim_seconds, 6),
                traces_generated=timing.traces_generated or None,
                worker_retraces=timing.worker_retraces or None,
                precomputes_built=timing.precomputes_built or None,
                precomputes_loaded=timing.precomputes_loaded or None,
                worker_precomputes_built=(timing.worker_precomputes_built
                                          or None),
                worker_precomputes_loaded=(timing.worker_precomputes_loaded
                                           or None))
        if failures and not self.keep_going:
            raise BatchFailure(failures)
        return out

    def prefetch(self, points: Iterable[SimPoint]) -> None:
        """Warm the memo for a point set (parallel when ``jobs`` > 1)."""
        self.run_batch(points)

    def run_suite(self, model: ModelKind,
                  workloads: Optional[Iterable[str]] = None,
                  spec: Optional[ConfigSpec] = None,
                  **overrides) -> Dict[str, SimResult]:
        """Simulate one model across a workload list (default: all 21).

        Pass either a ready ``spec`` (whose model must match) or legacy
        keyword overrides.  With ``keep_going`` the dict is partial:
        failed workloads are absent (see :attr:`failure_log`) instead of
        raising.
        """
        if spec is None:
            spec = ConfigSpec.from_overrides(model, **overrides)
        elif overrides:
            raise TypeError("run_suite: pass a spec or overrides, not both")
        names = list(workloads) if workloads is not None else list(ALL_NAMES)
        points = {name: spec_point(name, spec) for name in names}
        resolved = self.run_batch(points.values())
        return {name: resolved[point] for name, point in points.items()
                if point in resolved}

    def run_matrix(self, models: Iterable[ModelKind],
                   workloads: Optional[Iterable[str]] = None,
                   **overrides) -> Dict[ModelKind, Dict[str, SimResult]]:
        """Simulate several models across a workload list."""
        names = list(workloads) if workloads is not None else list(ALL_NAMES)
        models = list(models)
        specs = {model: ConfigSpec.from_overrides(model, **overrides)
                 for model in models}
        self.prefetch(spec_point(name, spec)
                      for spec in specs.values() for name in names)
        return {model: self.run_suite(model, names, spec=spec)
                for model, spec in specs.items()}

    def run_grid(self, grid: SpecGrid,
                 workloads: Optional[Iterable[str]] = None
                 ) -> Dict[SimPoint, SimResult]:
        """Expand a declared spec grid across workloads and resolve it.

        The cross-product is workload-major then grid order (the grid's
        own expansion is deterministic), submitted as one batch so the
        ledger's ``sweep.begin`` records the whole grid.
        """
        names = list(workloads) if workloads is not None else list(ALL_NAMES)
        return self.run_batch(spec_point(name, spec)
                              for name in names for spec in grid.expand())

    # -- accounting ----------------------------------------------------------

    def cache_size(self) -> int:
        return len(self._results)

    def points_simulated(self) -> int:
        return sum(1 for p in self.point_log if p.source == "sim")

    def points_from_cache(self) -> int:
        return sum(1 for p in self.point_log if p.source == "cache")


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
