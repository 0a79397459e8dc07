#!/usr/bin/env python
"""Profile one simulation point end-to-end with cProfile.

Runs the whole point -- functional tracing *and* timing simulation --
under one profile, prints the top functions by cumulative time, and
closes with a phase split (trace seconds vs. precompute seconds vs. sim
seconds) so "the simulator is slow" can be attributed to the right loop.
The point runs the way ``repro run`` runs it: it traces into a
:class:`PackedTrace`, and ``Simulator(program, trace, params)`` builds
the point's own :class:`TracePrecompute` tables (branch outcomes,
history, decode templates) and indexes the packed trace lazily.  The
"precompute" phase is that Simulator construction.  (The bundle stays
on the trace, so later runs of the same trace object share it; DESIGN.md
section 14.)

    PYTHONPATH=src python tools/profile_sim.py mcf --model dmdp --top 25
    PYTHONPATH=src python tools/profile_sim.py lbm --output lbm.prof

``--sim-only`` restores the old behaviour of profiling
``Simulator.run()`` alone.

Time spent in slot wrappers -- a class-level enum member lookup, item
assignment on a ``Counter`` -- starts no frame and calls no built-in by
name, so it shows up as the calling function's own time (``tottime``),
not as a row of its own (DESIGN.md section 9).

The same profile (plus phase split) can be captured for any CLI command
with the global ``repro --profile`` flag.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.kernel import run_trace_packed                    # noqa: E402
from repro.uarch import ModelKind, model_params             # noqa: E402
from repro.uarch.pipeline import Simulator                  # noqa: E402
from repro.workloads import ALL_NAMES, get_workload         # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile harness for one trace+simulate point")
    parser.add_argument("workload", choices=ALL_NAMES, nargs="?",
                        default="mcf")
    parser.add_argument("--model", default="dmdp",
                        choices=[m.value for m in ModelKind])
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default: full)")
    parser.add_argument("--sim-only", action="store_true",
                        help="profile Simulator.run() alone, trace "
                             "construction excluded")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the cumulative-time report")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"))
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="dump the raw cProfile stats to PATH")
    args = parser.parse_args(argv)

    spec = get_workload(args.workload)
    program = spec.build(spec.iterations(args.scale))
    params = model_params(ModelKind(args.model))

    profile = cProfile.Profile()
    if not args.sim_only:
        profile.enable()
    start = time.perf_counter()
    trace = run_trace_packed(program)
    trace_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sim = Simulator(program, trace, params)
    pre_seconds = time.perf_counter() - start
    if args.sim_only:
        profile.enable()
    start = time.perf_counter()
    stats = sim.run()
    sim_seconds = time.perf_counter() - start
    profile.disable()
    elapsed = trace_seconds + pre_seconds + sim_seconds

    print("%s/%s: %d instructions, %d cycles in %.3fs "
          "(%.0f cycles/sec)"
          % (args.workload, args.model,
             stats.instructions, stats.cycles, elapsed,
             stats.cycles / sim_seconds))
    print("phase attribution:")
    print("  functional tracing   %9.3fs  %5.1f%%"
          % (trace_seconds, 100.0 * trace_seconds / elapsed))
    print("  precompute           %9.3fs  %5.1f%%"
          % (pre_seconds, 100.0 * pre_seconds / elapsed))
    print("  timing simulation    %9.3fs  %5.1f%%"
          % (sim_seconds, 100.0 * sim_seconds / elapsed))
    report = pstats.Stats(profile)
    report.sort_stats(args.sort).print_stats(args.top)
    if args.output:
        report.dump_stats(args.output)
        print("raw profile written to %s" % args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
