"""The benchmark's three workloads, driven only through public calls.

Each workload runs serially as a closed loop with one client: the next
operation starts when the previous one returns.  The ledger, the
pipeline tracer and ``jobs`` keep their defaults, every store is private
to the run, and the simulated caches start empty at every point, as in
the paper's figures.  Only the operations themselves are timed: input
generation, output checks and removing private stores are not.

* ``paper-sweep``: the Fig. 12 matrix (21 workloads x 4 models) as one
  ``ExperimentRunner.run_batch`` per operation, result cache off, over
  trace and precompute stores filled during set-up.
* ``cold-point``: the same points, each resolved by
  ``ExperimentRunner.run`` in a fresh runner over empty private trace
  and result stores (``repro run`` on a workload not traced yet), in an
  order shuffled with the seed.
* ``short-programs``: fuzz-generator programs of a few hundred
  instructions from six bias profiles, each assembled, traced with
  ``FunctionalCpu.run_trace`` and run under all four models with
  ``track_arch_state=True``.  Each program's size follows an even spread
  over the profile's ranges; the seed picks its generator seed from the
  pool pinned for that size in ``programs.json``.

Output checks: every ``paper-sweep`` and ``cold-point`` point's
``SimStats.to_dict()`` digest must match ``reference.json``, and every
``short-programs`` run must end with ``FunctionalCpu``'s registers and
memory.  An exception counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from repro.fuzz import generator
from repro.fuzz.generator import ProgramSpec, get_profile
from repro.fuzz.oracles import MAX_FUZZ_INSTRUCTIONS
from repro.harness import (ExperimentRunner, ResultCache, TraceStore, geomean,
                           make_point, paper_data, percent)
from repro.kernel import FunctionalCpu
from repro.uarch import ALL_MODELS, ModelKind, model_params
from repro.uarch.pipeline import Simulator
from repro.workloads import ALL_NAMES, get_workload

# Workload size for the 84 matrix points.  The digests in reference.json
# are pinned at this scale.  (At 0.1, namd under the baseline model never
# finishes, so smaller scales are out.)  Larger scales weigh the layers of
# paper-sweep the same: one traced batch at 0.15, 0.25 and 0.6 put
# Simulator.run at 96.5%, 96.6% and 96.2% of the timed wall and
# Simulator.__init__ at 3.0%, 3.0% and 3.6%.  At 0.15 a run fits two
# whole batches, and cold-point two whole passes, in its time budget.
SCALE = 0.15

REFERENCE = Path(__file__).with_name("reference.json")

# Generator seeds of the short-programs pool, each checked at pinning to
# run to completion with the right final state under every model.  Some
# generated programs hang the simulator (pin_programs.py lists those it
# turned away), and a benchmark input must run cleanly on the code it
# was pinned against.
PROGRAMS = Path(__file__).with_name("programs.json")

# The fuzz generator's pathology profiles (its plain ``baseline`` and
# ``mixed`` presets add no pathology of their own).
FUZZ_PROFILES = ("colliding", "silent-store", "partial-overlap",
                 "pointer-chase", "tag-alias", "stack-heavy")

# short-programs reports simulated-clock statistics over this many first
# programs of the seed's sequence, so they do not depend on host speed.
STATS_PROGRAMS = 60

# Steps of the R2 sequence, an evenly spread walk over the unit square:
# the reciprocals of the plastic number and of its square.
_R2_STEPS = (0.7548776662466927, 0.5698402909980532)


def sized_profile(name: str, index: int):
    """Profile ``name`` with its loop count and body length fixed to the
    ``index``-th point of an even spread over its own ranges.  Every
    prefix of the sequence covers the ranges about evenly, so runs on
    any seed time nearly the same mix of program sizes.  Drawn at
    random, the sizes spread short-programs' p50 by 9% and p90 by 14%
    across ten seeds; spread evenly, by 4-5% and 9-11%."""
    profile = get_profile(name)
    (iters_lo, iters_hi), (ops_lo, ops_hi) = (profile.loop_iters,
                                              profile.body_ops)
    u, v = ((0.5 + (index + 1) * step) % 1.0 for step in _R2_STEPS)
    iters = iters_lo + int(u * (iters_hi - iters_lo + 1))
    ops = ops_lo + int(v * (ops_hi - ops_lo + 1))
    return get_profile(name, loop_iters=(iters, iters), body_ops=(ops, ops))


# A healthy run retires well under 10 cycles per instruction; a run past
# this budget is a livelock and counts as a failure.
CYCLES_PER_INSTRUCTION = 64
MIN_CYCLE_BUDGET = 100_000

# SimStats fields summed per model for the simulated-clock metrics.
_SUMMED = ("instructions", "cycles", "uops", "dep_mispredictions",
           "reexec_stall_cycles", "sb_full_stall_cycles", "l1_misses")


def matrix_points():
    """The Fig. 12 matrix: every workload under every model, default
    configuration."""
    return [make_point(name, model) for name in ALL_NAMES
            for model in ALL_MODELS]


def point_key(workload: str, model: ModelKind) -> str:
    return "%s/%s" % (workload, model.value)


def digest(stats) -> str:
    """Content digest of one point's complete statistics."""
    text = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(path: Path = REFERENCE):
    """The pinned ``{point key: digest}`` table."""
    with open(path) as handle:
        data = json.load(handle)
    if data["scale"] != SCALE:
        raise ValueError("%s was pinned at scale %r, the benchmark runs at "
                         "%r; re-pin it with perfbench/pin_reference.py"
                         % (path, data["scale"], SCALE))
    return data["digests"]


def load_programs(path: Path = PROGRAMS):
    """The pinned pool: ``{profile: [[generator seed, ...] per size
    index of sized_profile]}``."""
    with open(path) as handle:
        return json.load(handle)["seeds"]


class Outcome:
    """What the timed part did, and whether its outputs were right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.instructions = 0
        self.point_seconds = []
        self.errors = []
        # (point, model) -> (suite, SimStats): the simulated-clock set.
        self.kept = {}

    def record(self, ok: bool, instructions: int = 0,
               error: str = "") -> None:
        self.attempted += 1
        self.instructions += instructions
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def keep(self, point, model, suite, stats) -> None:
        self.kept.setdefault((point, model), (suite, stats))

    def summary(self, timed_s: float, speed_factor: float):
        """Results of the run; host times in reference-host seconds (raw
        seconds / ``speed_factor``, see ``spans.CALIBRATION_REF_S``)."""
        seconds = self.point_seconds
        p50 = statistics.median(seconds) if seconds else 0.0
        p90 = (statistics.quantiles(seconds, n=10)[-1]
               if len(seconds) > 1 else p50)
        kips = self.instructions / timed_s / 1e3 if timed_s else 0.0
        return {
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "instructions": self.instructions,
            "timed_s": timed_s, "speed_factor": speed_factor,
            "raw_kips": kips, "kips": kips * speed_factor,
            "points": len(seconds), "point_s_p50": p50 / speed_factor,
            "point_s_p90": p90 / speed_factor,
            "raw_point_s_p50": p50, "raw_point_s_p90": p90,
            "simulated": simulated_clock(self.kept),
        }


def simulated_clock(kept):
    """Per-model simulated-clock metrics and the gap to the paper's
    DMDP-over-NoSQ speedups; deterministic for a given point set."""
    sums = {model: Counter() for model in ALL_MODELS}
    ipcs = defaultdict(dict)
    for (point, model), (suite, stats) in kept.items():
        for field in _SUMMED:
            sums[model][field] += getattr(stats, field)
        ipcs[(suite, point)][model] = stats.ipc
    metrics = {}
    for model, total in sums.items():
        instr = total["instructions"]
        prefix = "uarch.%s." % model.value

        def per_kilo(count):
            return 1000.0 * count / instr if instr else 0.0

        metrics[prefix + "ipc"] = (
            instr / total["cycles"] if total["cycles"] else 0.0,
            "instr/cycle")
        metrics[prefix + "uops_per_instr"] = (
            total["uops"] / instr if instr else 0.0, "uops/instr")
        metrics[prefix + "dep_mpki"] = (
            per_kilo(total["dep_mispredictions"]), "1/kinstr")
        metrics[prefix + "reexec_stall_pki"] = (
            per_kilo(total["reexec_stall_cycles"]), "cycles/kinstr")
        metrics[prefix + "sb_full_stall_pki"] = (
            per_kilo(total["sb_full_stall_cycles"]), "cycles/kinstr")
        metrics[prefix + "l1_mpki"] = (per_kilo(total["l1_misses"]),
                                       "1/kinstr")
    ratios = defaultdict(list)
    for (suite, _), by_model in ipcs.items():
        dmdp, nosq = by_model.get(ModelKind.DMDP), by_model.get(ModelKind.NOSQ)
        if dmdp and nosq:
            ratios[suite].append(dmdp / nosq)
    metrics["paper_gap_pp"] = (paper_gap(ratios), "pp")
    return metrics


def paper_gap(ratios) -> float:
    """Mean absolute gap, in percentage points, between the simulated
    DMDP-over-NoSQ geomean speedup and the paper's, over INT and FP.
    Points without a suite (fuzz programs) compare one geomean with
    both."""
    claims = paper_data.AGGREGATE_CLAIMS
    gaps = []
    for suite, paper in (("int", claims["dmdp_over_nosq_int"]),
                         ("fp", claims["dmdp_over_nosq_fp"])):
        values = ratios.get(suite) or ratios.get("all")
        if values:
            gaps.append(abs(percent(geomean(values)) - paper))
    return sum(gaps) / len(gaps) if gaps else 0.0


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def _another_round(start: float, rounds: int, seconds: float,
                   minimum: int) -> bool:
    """Whether to start another round of work: at least ``minimum``
    rounds, then only while the next one should end nearer ``seconds``
    than stopping now would."""
    if rounds < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds


class PaperSweep:
    """Fig. 12 as users wait for it: one run_batch over stored traces."""

    name = "paper-sweep"

    def __init__(self, seed, workdir, timer, reference, points=None):
        self.timer = timer
        self.reference = reference
        self.points = points if points is not None else matrix_points()
        self.store = Path(workdir) / "paper-sweep-traces"
        self.outcome = Outcome()

    def _runner(self):
        # run_batch reports each resolved point to ``progress``: the
        # timer samples the host's speed there, between points.
        return ExperimentRunner(scale=SCALE, use_cache=False,
                                trace_store=TraceStore(root=self.store),
                                progress=self.timer.calibrate)

    def prepare(self) -> None:
        """Build, trace, pack, precompute and store every trace."""
        runner = self._runner()
        for name in dict.fromkeys(p.workload for p in self.points):
            runner.ensure_trace(name)
            runner.ensure_precompute(name)

    def warmup(self) -> None:
        first = [p for p in self.points
                 if p.workload == self.points[0].workload]
        with self.timer.op(counted=False):
            self._runner().run_batch(first)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        batches = 0
        while _another_round(start, batches, seconds, minimum=2):
            self._batch()
            batches += 1

    def _batch(self) -> None:
        runner, results, error = None, {}, "batch did not return"
        try:
            with self.timer.op():
                runner = self._runner()
                results = runner.run_batch(self.points)
        except Exception:   # every point the batch lost is a failure
            error = _error()
        if runner is not None:
            self.outcome.point_seconds.extend(
                p.seconds for p in runner.point_log if p.source == "sim")
        for point in self.points:
            result = results.get(point)
            if result is None:
                self.outcome.record(False, error=error)
                continue
            check(self.outcome, self.reference, point, result.stats)


def check(outcome, reference, point, stats) -> None:
    key = point_key(point.workload, point.model)
    ok = digest(stats) == reference.get(key)
    outcome.record(ok, stats.instructions,
                   "" if ok else "%s: stats digest differs from reference"
                   % key)
    outcome.keep(point.workload, point.model,
                 get_workload(point.workload).suite, stats)


class ColdPoint:
    """Each point as ``repro run`` on a workload not traced yet."""

    name = "cold-point"

    def __init__(self, seed, workdir, timer, reference, points=None):
        self.timer = timer
        self.reference = reference
        self.points = points if points is not None else matrix_points()
        self.workdir = Path(workdir)
        self.rng = random.Random(seed)
        self.outcome = Outcome()

    def prepare(self) -> None:
        """Nothing to prepare: every point starts from empty stores."""

    def warmup(self) -> None:
        self._resolve(self.points[0], counted=False)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        passes = 0
        # Whole passes, so every run times the same multiset of points;
        # two at least, so that ten points lie beyond p90.
        while _another_round(start, passes, seconds, minimum=2):
            order = list(self.points)
            self.rng.shuffle(order)
            for point in order:
                self._point(point)
            passes += 1

    def _resolve(self, point, counted=True):
        store = Path(tempfile.mkdtemp(prefix="point-", dir=self.workdir))
        try:
            with self.timer.op(counted) as op:
                runner = ExperimentRunner(scale=SCALE,
                                          cache=ResultCache(root=store))
                result = runner.run(point.workload, point.model)
            return result, op.seconds
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def _point(self, point) -> None:
        try:
            result, seconds = self._resolve(point)
        except Exception:
            self.outcome.record(False, error=_error())
            return
        finally:
            self.timer.calibrate()
        self.outcome.point_seconds.append(seconds)
        check(self.outcome, self.reference, point, result.stats)


class ShortPrograms:
    """Fuzz programs through the list-trace path, checked against the
    functional CPU."""

    name = "short-programs"

    def __init__(self, seed, workdir, timer, reference=None, pool=None):
        self.timer = timer
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool = pool if pool is not None else load_programs()
        self.outcome = Outcome()

    def prepare(self) -> None:
        """Nothing to prepare: programs are generated as the run goes."""

    def warmup(self) -> None:
        # Drawn with its own generator, so the timed sequence is the
        # same with and without a warm-up.
        spare = random.Random("warmup-%d" % self.seed)
        name = FUZZ_PROFILES[0]
        self.program(-1, sized_profile(name, 0),
                     spare.choice(self.pool[name][0]), counted=False)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        index = rounds = 0
        # Whole rounds of one program per profile keep the mix fixed.
        while _another_round(start, rounds, seconds, minimum=1):
            for name in FUZZ_PROFILES:
                size = rounds % len(self.pool[name])
                self.program(index, sized_profile(name, size),
                             self.rng.choice(self.pool[name][size]))
                self.timer.calibrate()
                index += 1
            rounds += 1

    def program(self, index, profile, gen_seed, counted=True):
        """Generate, assemble and trace one program, then run it under
        every model and check each final state.  Counted runs go into
        the outcome, the first ``STATS_PROGRAMS`` indices into the
        simulated-clock set.  Returns the failures' messages."""
        outcome = self.outcome
        label = "%s %r seed %d" % (profile.name, (profile.loop_iters,
                                                  profile.body_ops), gen_seed)
        failures = []
        ir = ProgramSpec(profile, gen_seed).generate()
        try:
            with self.timer.op(counted):
                program = generator.materialize(ir)
                cpu = FunctionalCpu(program)
                entries = cpu.run_trace(max_instructions=MAX_FUZZ_INSTRUCTIONS)
        except Exception:
            failures = ["%s: %s" % (label, _error())] * len(ALL_MODELS)
            if counted:
                for error in failures:
                    outcome.record(False, error=error)
            return failures
        ref_regs = cpu.regs[1:]
        ref_mem = cpu.memory.snapshot()
        budget = max(MIN_CYCLE_BUDGET, CYCLES_PER_INSTRUCTION * len(entries))
        for model in ALL_MODELS:
            try:
                with self.timer.op(counted) as op:
                    sim = Simulator(program, entries, model_params(model),
                                    track_arch_state=True)
                    stats = sim.run(max_cycles=budget)
                ok = (sim.architectural_registers()[1:] == ref_regs
                      and sim.timing_mem.snapshot() == ref_mem)
                error = ("" if ok else "%s under %s: final state differs "
                         "from FunctionalCpu" % (label, model.value))
            except Exception:
                ok, stats = False, None
                error = "%s under %s: %s" % (label, model.value, _error())
            if not ok:
                failures.append(error)
            if not counted:
                continue
            if stats is None:
                outcome.record(False, error=error)
                continue
            outcome.point_seconds.append(op.seconds)
            outcome.record(ok, stats.instructions, error)
            if 0 <= index < STATS_PROGRAMS:
                outcome.keep(index, model, "all", stats)
        return failures


WORKLOADS = {cls.name: cls for cls in (PaperSweep, ColdPoint, ShortPrograms)}
