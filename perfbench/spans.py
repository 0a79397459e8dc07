"""Timing for the benchmark: the timer with its host-speed calibration,
and spans around each layer's public entry points for the traced run.

The traced run wraps the simulator's public calls from this file, so
nothing under ``src/`` changes.  Class methods are replaced in place on
their class.  A module function is replaced in every ``repro`` module
that holds it by name: the defining module and each caller that
imported it (``repro.harness.runner`` imports ``run_trace_packed``,
``load_precompute`` and ``energy_report`` that way).  An entry point
that no longer exists is skipped and reported, so its time shows up as
unattributed residue instead of breaking the run.

Every call records one span in memory: name, layer, start, end, parent
span, point id, phase and a few counts.  The spans are written once, at
exit.  A layer's self time is its spans' duration minus their child
spans.  Each timed operation is a root ``bench.op`` span, so the layer
self times plus the ops' own self time (the residue no layer claims)
add up to the timed wall.
"""

from __future__ import annotations

import functools
import gc
import heapq
import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict, deque

MODELS = ("baseline", "nosq", "dmdp", "perfect")

# The traced run must attribute all but this share of the timed wall to
# layer self times; more residue means an entry point moved or new work
# appeared between layers.
COVERAGE_TOLERANCE = 0.05

# Fields of one span record (a plain list keeps recording cheap).
NAME, LAYER, START, END, PARENT, POINT, PHASE, COUNTS = range(8)


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _run_counts(args, stats):
    return {"model": args[0].model.value, "instr": stats.instructions}


def _trace_counts(args, trace):
    return {"instr": len(trace)}


def _trace_load_counts(args, packed):
    store, workload, iterations = args[:3]
    if packed is None:
        return {"hit": False}
    return {"hit": True, "bytes": _size(store.path_for(workload, iterations))}


def _precompute_load_counts(args, bundle):
    store, workload, iterations, _trace, signature = args[:5]
    if bundle is None:
        return {"hit": False}
    return {"hit": True,
            "bytes": _size(store.path_for(workload, iterations, signature))}


def _result_path(cache, key):
    # ResultCache has no public path accessor; the path is only stat-ed.
    locate = getattr(cache, "_path", None)
    return None if locate is None else locate(key)


def _result_get_counts(args, result):
    cache, key = args[:2]
    if result is None:
        return {"hit": False}
    return {"hit": True, "bytes": _size(_result_path(cache, key))}


def _blob_put_counts(args, path):
    return {"bytes": _size(path)}


def _result_put_counts(args, _none):
    cache, key = args[:2]
    return {"bytes": _size(_result_path(cache, key))}


# (layer, module, entry point, counts taken from (args, return value)).
ENTRY_POINTS = (
    ("uarch.run", "repro.uarch.pipeline", "Simulator.run", _run_counts),
    ("uarch.init", "repro.uarch.pipeline", "Simulator.__init__", None),
    ("kernel.functional", "repro.kernel.tracestore", "run_trace_packed",
     _trace_counts),
    ("kernel.functional", "repro.kernel.cpu", "FunctionalCpu.run_trace",
     _trace_counts),
    ("kernel.precompute", "repro.kernel.precompute",
     "TracePrecompute.build", None),
    ("kernel.precompute", "repro.kernel.precompute", "load_precompute", None),
    ("harness.store", "repro.harness.cache", "TraceStore.load",
     _trace_load_counts),
    ("harness.store", "repro.harness.cache", "TraceStore.put",
     _blob_put_counts),
    ("harness.store", "repro.harness.cache", "PrecomputeStore.load",
     _precompute_load_counts),
    ("harness.store", "repro.harness.cache", "PrecomputeStore.put",
     _blob_put_counts),
    ("harness.store", "repro.harness.cache", "ResultCache.get",
     _result_get_counts),
    ("harness.store", "repro.harness.cache", "ResultCache.put",
     _result_put_counts),
    ("harness.runner", "repro.harness.runner", "ExperimentRunner.__init__",
     None),
    ("harness.runner", "repro.harness.runner", "ExperimentRunner.run", None),
    ("harness.runner", "repro.harness.runner", "ExperimentRunner.run_batch",
     None),
    ("workloads.build", "repro.workloads.common", "WorkloadSpec.build", None),
    ("isa.assemble", "repro.isa.assembler", "ProgramBuilder.build", None),
    ("isa.assemble", "repro.fuzz.generator", "materialize", None),
    ("energy.report", "repro.energy.model", "energy_report", None),
)

LAYERS = ("uarch.run", "uarch.init", "kernel.functional",
          "kernel.precompute", "harness.store", "harness.runner",
          "workloads.build", "isa.assemble", "energy.report")


class SpanRecorder:
    """The spans of one single-threaded benchmark process, in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._point = 0
        self.phase = "setup"

    def wrap(self, name, layer, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0, 0, stack[-1] if stack else -1,
                    self._point, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                try:
                    span[COUNTS] = counts(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass    # a changed signature loses its counts, not the run
            return result
        return traced

    def begin_op(self, counted: bool) -> None:
        self._point += 1
        self.phase = "timed" if counted else "warmup"
        self._stack.append(len(self.spans))
        self.spans.append(["bench.op", "bench", time.perf_counter_ns(), 0, -1,
                           self._point, self.phase, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()
        self.phase = "untimed"


def install(recorder: SpanRecorder):
    """Wrap every entry point; returns those that could not be found."""
    missing = []
    for layer, module_name, entry, counts in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(entry)
            continue
        owner_name, _, attr = entry.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                missing.append(entry)
            elif isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    recorder.wrap(entry, layer, raw.__func__, counts)))
            else:
                setattr(owner, attr, recorder.wrap(entry, layer, raw, counts))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(entry)
            continue
        traced = recorder.wrap(entry, layer, original, counts)
        for name, holder in list(sys.modules.items()):
            if ((name == "repro" or name.startswith("repro."))
                    and getattr(holder, attr, None) is original):
                setattr(holder, attr, traced)
    return missing


class _Slot:
    __slots__ = ("seq", "group", "done")

    def __init__(self, seq: int, group: int):
        self.seq = seq
        self.group = group
        self.done = False


def _calibration_slice(steps: int = 1500) -> int:
    """A fixed slice of interpreter work shaped like the simulator's
    cycle loop: small slotted objects, an event heap, waiter lists and a
    FIFO.  It lives here, not in the simulator, so no change to the
    simulator can speed it up."""
    heap, waiters, fifo, total = [], {}, deque(), 0
    for step in range(steps):
        slot = _Slot(step, step & 63)
        heapq.heappush(heap, (step + (step * 7 & 15), step, slot))
        waiters.setdefault(slot.group, []).append(slot)
        fifo.append(slot)
        if len(fifo) > 32:
            old = fifo.popleft()
            old.done = True
            total += old.seq
        while heap and heap[0][0] <= step:
            woken = heapq.heappop(heap)[2]
            pending = waiters.get(woken.group)
            if pending:
                pending.pop()
            total ^= woken.seq
    return total


# Seconds one calibration slice takes on the reference host (an idle
# x86-64 core under CPython 3.11).  Host times are reported in
# reference-host seconds: raw seconds divided by the run's speed factor.
# Slices run between the units of work, so the factor follows the
# host's speed as the run goes: a shared host drifts by tens of percent
# within minutes.
CALIBRATION_REF_S = 0.0015

# The simulator slows less than the calibration slice when the host is
# contended: on a shared 2-core x86-64 host, regressing 8 s windows of
# simulator time on slice time gave an exponent of about 0.75, and
# dividing by slice-time ratio ** 0.75 cut the windows' spread from 32%
# to 3% (interquartile range over the median).
CALIBRATION_EXPONENT = 0.75


class Timer:
    """Sums the timed wall of a run, one operation at a time, and
    samples the host's speed between operations.

    With a recorder, each operation is also a root ``bench.op`` span and
    each calibration slice a ``calibration`` span."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.seconds = 0.0
        self.calibration_seconds = 0.0
        self.slices = []
        self._slice = _calibration_slice
        if recorder is not None:
            self._slice = recorder.wrap("calibration", "calibration",
                                        _calibration_slice)

    def op(self, counted: bool = True) -> "_Op":
        return _Op(self, counted)

    def calibrate(self, _message=None) -> None:
        """Time one calibration slice.  Takes (and ignores) a message so
        that it can serve as a runner's ``progress`` callback, which
        ``run_batch`` calls between points.

        The collector is off during the slice: a collection there would
        cost time in proportion to the simulator's live heap, and so
        tie the factor to how much the simulator keeps alive."""
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._slice()
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.calibration_seconds += seconds
        self.slices.append(seconds)

    def reset_calibration(self) -> None:
        self.calibration_seconds = 0.0
        self.slices = []

    @property
    def speed_factor(self) -> float:
        """How much slower than the reference host this run's host ran
        the simulator, from the mean calibration slice time.

        A shared host switches between a fast and a slow state, and the
        slice times fall into two clusters.  The mean weighs them by the
        time the run spent in each, as the simulator felt them; a median
        would jump from one cluster to the other."""
        if not self.slices:
            return 1.0
        ratio = statistics.fmean(self.slices) / CALIBRATION_REF_S
        return ratio ** CALIBRATION_EXPONENT


class _Op:
    __slots__ = ("timer", "counted", "start", "calibrated", "seconds")

    def __init__(self, timer: Timer, counted: bool):
        self.timer = timer
        self.counted = counted
        self.seconds = 0.0

    def __enter__(self) -> "_Op":
        if self.timer.recorder is not None:
            self.timer.recorder.begin_op(self.counted)
        self.calibrated = self.timer.calibration_seconds
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        # Calibration slices run inside an op only as progress callbacks;
        # they are not the op's work.
        self.seconds = (time.perf_counter() - self.start
                        - (self.timer.calibration_seconds - self.calibrated))
        if self.counted:
            self.timer.seconds += self.seconds
        if self.timer.recorder is not None:
            self.timer.recorder.end_op()
        return False


def summarize(spans, speed_factor: float = 1.0):
    """Per-layer metrics, ``{name: (value, unit)}``, from self times.

    Layer times cover the timed operations; ``setup.*`` covers set-up
    and the warm-up operation, which ``setup_s`` also includes.  Times
    are in reference-host seconds (raw seconds / ``speed_factor``);
    calibration slices count towards neither a layer nor the wall."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    own = defaultdict(int)
    setup = defaultdict(int)
    calls = Counter()
    run_ns, run_instr = Counter(), Counter()
    functional_instr = hits = misses = load_ns = put_ns = moved = 0
    wall = residue = 0
    for index, span in enumerate(spans):
        name, layer, start, end, _, _, phase, counts = span
        self_ns = end - start - child[index]
        if phase in ("setup", "warmup"):
            setup[layer] += self_ns
            continue
        if phase != "timed":
            continue
        if layer == "bench":
            wall += end - start
            residue += self_ns
            continue
        if layer == "calibration":
            wall -= end - start
            continue
        own[layer] += self_ns
        calls[name] += 1
        counts = counts or {}
        if layer == "uarch.run" and "model" in counts:
            run_ns[counts["model"]] += self_ns
            run_instr[counts["model"]] += counts["instr"]
        elif layer == "kernel.functional":
            functional_instr += counts.get("instr", 0)
        elif layer == "harness.store":
            moved += counts.get("bytes", 0)
            if name.endswith(".put"):
                put_ns += self_ns
                continue
            load_ns += self_ns
            if "hit" in counts:
                hits += counts["hit"]
                misses += not counts["hit"]

    def sec(ns):
        return ns / 1e9 / speed_factor

    def kips(instr, ns):
        return instr / sec(ns) / 1e3 if ns else 0.0

    def share(ns):
        return ns / wall if wall else 0.0

    metrics = {
        "uarch.run.s": (sec(own["uarch.run"]), "s"),
        "uarch.run.kips": (kips(sum(run_instr.values()), own["uarch.run"]),
                           "kinstr/s"),
    }
    for model in MODELS:
        metrics["uarch.run.ns_per_instr." + model] = (
            sec(run_ns[model]) * 1e9 / run_instr[model]
            if run_instr[model] else 0.0, "ns")
    lookups = hits + misses
    metrics.update({
        "uarch.init.calls": (calls["Simulator.__init__"], "count"),
        "uarch.init.s": (sec(own["uarch.init"]), "s"),
        "kernel.functional.calls": (calls["run_trace_packed"]
                                    + calls["FunctionalCpu.run_trace"],
                                    "count"),
        "kernel.functional.s": (sec(own["kernel.functional"]), "s"),
        "kernel.functional.kips": (kips(functional_instr,
                                        own["kernel.functional"]),
                                   "kinstr/s"),
        "kernel.precompute.builds": (calls["TracePrecompute.build"],
                                     "count"),
        "kernel.precompute.s": (sec(own["kernel.precompute"]), "s"),
        "harness.store.hits": (hits, "count"),
        "harness.store.misses": (misses, "count"),
        "harness.store.hit_ratio": (hits / lookups if lookups else 0.0,
                                    "ratio"),
        "harness.store.load_s": (sec(load_ns), "s"),
        "harness.store.put_s": (sec(put_ns), "s"),
        "harness.store.bytes": (moved, "bytes"),
        "harness.runner.self_s": (sec(own["harness.runner"]), "s"),
        "workloads.build.s": (sec(own["workloads.build"]), "s"),
        "isa.assemble.s": (sec(own["isa.assemble"]), "s"),
        "energy.report.s": (sec(own["energy.report"]), "s"),
        "trace.timed_s": (sec(wall), "s"),
    })
    for layer in LAYERS:
        metrics["share." + layer] = (share(own[layer]), "ratio")
    metrics["share.residue"] = (share(residue), "ratio")
    for layer in LAYERS:
        metrics["setup.%s.s" % layer] = (sec(setup[layer]), "s")
    return metrics


def write_spans(path, spans) -> None:
    """Write the spans once, as JSON lines."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            record = {"name": span[NAME], "layer": span[LAYER],
                      "start_ns": span[START], "end_ns": span[END],
                      "parent": span[PARENT], "point": span[POINT],
                      "phase": span[PHASE]}
            if span[COUNTS]:
                record.update(span[COUNTS])
            handle.write(json.dumps(record) + "\n")
