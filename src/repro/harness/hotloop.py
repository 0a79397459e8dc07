"""Hot-loop throughput benchmark: simulated cycles per wall-clock second.

Every figure/table sweep ultimately bottlenecks on ``Simulator.run()`` --
one Python-interpreted cycle loop per (workload, model) point.  This module
measures that loop's throughput directly (trace construction excluded) so
performance work on the pipeline is a tracked artifact, not a claim:

* :func:`run_benchmark` times a fixed workload set under every model and
  returns a JSON-ready payload (``BENCH_hotloop.json``);
* :func:`measure_batched` times the multi-config ``batched`` leg: every
  model/config pair simulated against one shared
  :class:`~repro.kernel.precompute.TracePrecompute` bundle (bundle build
  included) vs. fresh per-config Simulator construction over a trace
  object of its own, with SimStats asserted byte-identical between the
  two;
* :func:`calibrate` times a deterministic pure-Python kernel whose speed
  scales with the host interpreter, so throughput numbers recorded on one
  machine can be compared on another (CI runners vs. the machine that
  committed the baseline);
* :func:`attach_baseline` folds the committed baseline
  (``benchmarks/results/BENCH_hotloop_baseline.json``) into a payload:
  speedups vs. the pre-optimisation "before" numbers and an optional
  regression check against the "after" reference.

The regression check compares calibration-normalised throughput: the
expected cycles/sec on *this* machine is the baseline cycles/sec scaled by
(baseline calibration time / this machine's calibration time).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..config import SpecGrid
from ..kernel import FunctionalCpu
from ..kernel.trace import MAX_TRACE_INSTRUCTIONS
from ..uarch import ModelKind, model_params
from ..uarch.pipeline import Simulator
from ..workloads import get_workload

SCHEMA = 1

# Long memory-bound runs are the wall-clock floor of the paper sweeps
# (Fig. 12, Tables 4-7); they are what the hot loop is optimised for.
BENCH_WORKLOADS = ("mcf", "lbm")

# Scale used by ``--smoke`` (CI): same workloads, quarter iteration count.
SMOKE_SCALE = 0.25

# A smoke run fails CI when it is slower than this fraction of the
# calibration-normalised committed reference.
REGRESSION_THRESHOLD = 0.7

# The batched leg must beat fresh per-config construction by at least
# this much on whole-run wall time.  The bench excludes harness/store
# amortisation (program build, trace load) on purpose -- it isolates the
# Simulator-level win, so the floor is modest; the sweep benchmark's
# MIN_BATCHED_SPEEDUP gates the full per-trace-grouped scheduling win.
MIN_BATCHED_SPEEDUP = 1.05

# Model/config cross-product simulated back-to-back by the batched leg,
# declared as a spec grid (the default 16-entry store buffer drops to an
# empty spec; 8 entries is the second combination per model).
BATCH_GRID = SpecGrid.create(tuple(ModelKind),
                             {"core.store_buffer_entries": [16, 8]})

DEFAULT_BASELINE_PATH = (Path(__file__).resolve().parents[3] / "benchmarks"
                         / "results" / "BENCH_hotloop_baseline.json")


def calibrate(repeats: int = 3, loops: int = 120_000) -> float:
    """Best-of-``repeats`` seconds for a fixed pure-Python kernel.

    The kernel mixes dict, attribute, integer, and list traffic in rough
    proportion to the simulator's own hot loop, so its runtime tracks
    interpreter speed on the operations that matter.
    """

    class _Probe:
        __slots__ = ("a", "b")

        def __init__(self) -> None:
            self.a = 0
            self.b = 1

    best = float("inf")
    for _ in range(repeats):
        probe = _Probe()
        table: Dict[int, int] = {}
        heap: List[int] = []
        start = time.perf_counter()
        for i in range(loops):
            key = i & 1023
            table[key] = i
            probe.a = probe.a + table[key]
            probe.b = (probe.b * 3 + 1) & 0xFFFF
            if key & 63 == 0:
                heap.append(i)
                if len(heap) > 64:
                    heap.pop(0)
        best = min(best, time.perf_counter() - start)
    return best


def measure(workloads: Iterable[str] = BENCH_WORKLOADS,
            models: Optional[Iterable[ModelKind]] = None,
            scale: Optional[float] = None, repeats: int = 1,
            progress=None) -> Dict[str, Dict[str, float]]:
    """Per-model throughput over ``workloads`` (traces built once, shared).

    Returns ``{model: {"cycles": int, "seconds": float,
    "cycles_per_sec": float}}`` where ``seconds`` is the best-of-``repeats``
    wall time summed over the workload set.
    """
    models = list(models) if models is not None else list(ModelKind)
    prepared = []
    for name in workloads:
        workload = get_workload(name)
        program = workload.build(workload.iterations(scale))
        # A list trace, as the committed reference was recorded on: every
        # Simulator packs it and builds its own tables.
        trace = list(FunctionalCpu(program).run_trace(
            max_instructions=MAX_TRACE_INSTRUCTIONS))
        prepared.append((name, program, trace))

    out: Dict[str, Dict[str, float]] = {}
    for model in models:
        params = model_params(model)
        total_cycles = 0
        total_seconds = 0.0
        for name, program, trace in prepared:
            best = float("inf")
            cycles = 0
            for _ in range(max(1, repeats)):
                sim = Simulator(program, trace, params)
                start = time.perf_counter()
                stats = sim.run()
                best = min(best, time.perf_counter() - start)
                cycles = stats.cycles
            total_cycles += cycles
            total_seconds += best
            if progress is not None:
                progress("  %-8s %-8s %8d cycles  %.3fs"
                         % (name, model.value, cycles, best))
        out[model.value] = {
            "cycles": total_cycles,
            "seconds": round(total_seconds, 6),
            "cycles_per_sec": round(total_cycles / total_seconds, 1),
        }
    return out


def measure_batched(workloads: Iterable[str] = BENCH_WORKLOADS,
                    scale: Optional[float] = None, repeats: int = 1,
                    progress=None) -> Dict[str, object]:
    """Time the model/config cross-product per trace, batched vs. not.

    The *unbatched* leg constructs a fresh ``Simulator`` for every
    (model, config) pair -- each one re-deriving branch outcomes,
    history, decode templates, and the memory image from the packed
    trace.  A bundle lives on its trace, so each pair gets a trace object
    of its own, decoded from one blob outside the timed region.  The
    *batched* leg analyses one trace once into a
    :class:`~repro.kernel.precompute.TracePrecompute` bundle (build time
    charged to the leg) and shares it across all pairs, the way
    ``run_batch`` schedules a sweep.  SimStats must be byte-identical
    between legs; ``stats_identical`` records the comparison.
    """
    from ..kernel.tracestore import PackedTrace, run_trace_packed
    from ..kernel.precompute import TracePrecompute, bpred_signature

    out: Dict[str, object] = {"workloads": {}, "configs_per_trace":
                              len(BATCH_GRID)}
    total_unbatched = 0.0
    total_batched = 0.0
    identical = True
    for name in workloads:
        workload = get_workload(name)
        program = workload.build(workload.iterations(scale))
        blob = run_trace_packed(program).to_bytes()
        matrix = BATCH_GRID.expand()

        best_unbatched = float("inf")
        unbatched_stats = None
        for _ in range(max(1, repeats)):
            traces = [PackedTrace.from_buffer(program, blob)
                      for _ in matrix]
            start = time.perf_counter()
            # pop(): each trace and its bundle die with their Simulator.
            stats = [Simulator(program, traces.pop(),
                               spec.to_params()).run()
                     for spec in matrix]
            elapsed = time.perf_counter() - start
            if elapsed < best_unbatched:
                best_unbatched = elapsed
                unbatched_stats = stats

        best_batched = float("inf")
        batched_stats = None
        for _ in range(max(1, repeats)):
            packed = PackedTrace.from_buffer(program, blob)
            start = time.perf_counter()
            TracePrecompute.build(
                packed, bpred_signature(model_params(ModelKind.BASELINE)))
            stats = [Simulator(program, packed, spec.to_params()).run()
                     for spec in matrix]
            elapsed = time.perf_counter() - start
            if elapsed < best_batched:
                best_batched = elapsed
                batched_stats = stats

        same = all(a.to_dict() == b.to_dict()
                   for a, b in zip(unbatched_stats, batched_stats))
        identical = identical and same
        speedup = best_unbatched / best_batched if best_batched else 0.0
        out["workloads"][name] = {
            "unbatched_seconds": round(best_unbatched, 6),
            "batched_seconds": round(best_batched, 6),
            "speedup": round(speedup, 3),
            "stats_identical": same,
        }
        total_unbatched += best_unbatched
        total_batched += best_batched
        if progress is not None:
            progress("  %-8s batched  %.3fs vs %.3fs  (%.2fx)%s"
                     % (name, best_batched, best_unbatched, speedup,
                        "" if same else "  STATS MISMATCH"))
    out["unbatched_seconds"] = round(total_unbatched, 6)
    out["batched_seconds"] = round(total_batched, 6)
    out["speedup"] = round(total_unbatched / total_batched, 3) \
        if total_batched else 0.0
    out["stats_identical"] = identical
    return out


def run_benchmark(smoke: bool = False, repeats: int = 1,
                  progress=None) -> Dict[str, object]:
    """Measure the standard configuration and return the report payload."""
    scale = SMOKE_SCALE if smoke else None
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "workloads": list(BENCH_WORKLOADS),
        "scale": scale,
        "calibration_seconds": round(calibrate(), 6),
        "models": measure(scale=scale, repeats=repeats, progress=progress),
        "batched": measure_batched(scale=scale, repeats=repeats,
                                   progress=progress),
    }


# -- baseline bookkeeping ----------------------------------------------------


def load_baseline(path: Optional[Path] = None) -> Optional[dict]:
    path = Path(path) if path is not None else DEFAULT_BASELINE_PATH
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def save_baseline(baseline: dict, path: Optional[Path] = None) -> Path:
    path = Path(path) if path is not None else DEFAULT_BASELINE_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def update_baseline(payload: dict, stage: str,
                    path: Optional[Path] = None) -> Path:
    """Record ``payload`` as the ``stage`` ("before"/"after") reference for
    its mode ("full"/"smoke") in the committed baseline file."""
    baseline = load_baseline(path) or {"schema": SCHEMA,
                                       "workloads": payload["workloads"],
                                       "modes": {}}
    mode = baseline["modes"].setdefault(
        payload["mode"], {"scale": payload["scale"]})
    mode[stage] = {
        "calibration_seconds": payload["calibration_seconds"],
        "cycles_per_sec": {name: entry["cycles_per_sec"]
                           for name, entry in payload["models"].items()},
    }
    return save_baseline(baseline, path)


def attach_baseline(payload: dict, baseline: Optional[dict],
                    check: bool = False,
                    threshold: float = REGRESSION_THRESHOLD) -> dict:
    """Fold the committed baseline into ``payload`` (mutates and returns it).

    Adds ``speedup_vs_before`` (calibration-normalised, per model) when the
    baseline has pre-optimisation numbers for this mode, and -- when
    ``check`` is set -- a pass/fail regression verdict against the "after"
    reference (falling back to "before" when no "after" exists yet).
    """
    mode = (baseline or {}).get("modes", {}).get(payload["mode"], {})
    payload["baseline"] = mode or None

    before = mode.get("before")
    if before:
        norm = before["calibration_seconds"] / payload["calibration_seconds"]
        payload["speedup_vs_before"] = {
            name: round(entry["cycles_per_sec"]
                        / (before["cycles_per_sec"][name] * norm), 2)
            for name, entry in payload["models"].items()
            if name in before["cycles_per_sec"]
        }
    else:
        payload["speedup_vs_before"] = None

    if not check:
        payload["check"] = {"enabled": False}
        return payload

    details = {}
    passed = True

    # Batched-leg gates are self-relative (both legs ran on this host),
    # so they apply even without a committed baseline: the shared-bundle
    # path must beat fresh per-config construction and must not change a
    # single statistic.
    batched = payload.get("batched")
    if batched is not None:
        batched_ok = batched["speedup"] >= MIN_BATCHED_SPEEDUP
        identical = bool(batched["stats_identical"])
        passed = passed and batched_ok and identical
        details["batched"] = {
            "speedup": batched["speedup"],
            "min_speedup": MIN_BATCHED_SPEEDUP,
            "stats_identical": identical,
            "ok": batched_ok and identical,
        }

    reference = mode.get("after") or before
    if not reference:
        payload["check"] = {"enabled": True, "passed": passed,
                            "details": details,
                            "reason": "no committed baseline for mode %r"
                                      % payload["mode"]}
        return payload
    norm = reference["calibration_seconds"] / payload["calibration_seconds"]
    for name, entry in payload["models"].items():
        expected = reference["cycles_per_sec"].get(name)
        if expected is None:
            continue
        expected_here = expected * norm
        ratio = entry["cycles_per_sec"] / expected_here
        ok = ratio >= threshold
        passed = passed and ok
        details[name] = {"expected_cycles_per_sec": round(expected_here, 1),
                         "ratio": round(ratio, 3), "ok": ok}
    payload["check"] = {"enabled": True, "passed": passed,
                        "threshold": threshold, "details": details}
    return payload


def write_report(payload: dict, path: Path) -> Path:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
