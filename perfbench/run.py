"""The repository benchmark: three workloads over the DMDP simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs in fresh interpreters (``perfbench/child.py``), so its
set-up time and peak memory belong to it.  ``--trace 0`` measures
untraced and prints the end-to-end metrics; set-up is measured
``SETUP_SAMPLES`` times and reported as the median.  ``--trace 1`` runs
the workload once untraced and once traced and prints the per-layer
metrics, with the tracing overhead as the gap between the two.  Both
check every output.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--self-test`` corrupts one pinned reference digest and checks that the
output checks count it.  ``perfbench/METRICS.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans    # standard library only: no simulator import here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "cold-point", "short-programs")
SETUP_SAMPLES = 5
# Every run must end within 180 s; children are stopped past this.
DEADLINE_S = 170.0
SCRATCH = ROOT / ".perfbench-tmp"   # private stores, removed at exit
SPANS_DIR = ROOT / ".perfbench-out"  # traced runs leave their spans here
E2E_UNITS = {"kips": "kinstr/s", "point_s_p50": "s", "point_s_p90": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def spawn(args, workdir: Path, deadline: float):
    """Run ``child.py`` in a fresh interpreter over its own empty store
    directory, and return its JSON result.  No child sees another's
    stores, so every child's set-up fills them from nothing."""
    private = Path(tempfile.mkdtemp(prefix="child-", dir=str(workdir)))
    env = dict(os.environ)
    for name in ("REPRO_FAULT_SPEC", "REPRO_FAULT_STATE_DIR"):
        env.pop(name, None)
    # Nothing should fall back to the default cache, but if anything
    # did, it must not be the repository's .repro-cache/.
    env["REPRO_CACHE_DIR"] = str(private / "default-cache")
    spawned_at = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"),
               "--workdir", str(private), "--spawned-at", repr(spawned_at),
               *args]
    try:
        proc = subprocess.run(command, cwd=str(ROOT), env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise ChildError("%s did not finish before the run's deadline"
                         % " ".join(args)) from None
    finally:
        shutil.rmtree(private, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildError("%s exited with %d:\n%s" % (
            " ".join(args), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(options, workdir: Path, deadline: float):
    """One benchmark run: (metrics, attempted, failed, report lines)."""
    common = ["--workload", options.workload, "--seed", str(options.seed),
              "--seconds", str(options.seconds)]
    lines = []
    if not options.trace:
        setups = [spawn(common + ["--mode", "setup"], workdir,
                        deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(common + ["--mode", "run"], workdir, deadline)
        setups.append(main["setup_s"])
        values = {name: main[name] for name in E2E_UNITS}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        runs = [main]
    else:
        plain = spawn(common + ["--mode", "run"], workdir, deadline)
        spans_file = SPANS_DIR / ("%s-seed%d.spans.jsonl"
                                  % (options.workload, options.seed))
        traced = spawn(common + ["--mode", "traced", "--spans",
                                 str(spans_file)], workdir, deadline)
        layer = dict(traced["layers"])
        layer.update(traced["simulated"])
        overhead = (100.0 * (plain["kips"] - traced["kips"]) / plain["kips"]
                    if plain["kips"] else 0.0)
        layer["trace.kips_untraced"] = (plain["kips"], "kinstr/s")
        layer["trace.kips_traced"] = (traced["kips"], "kinstr/s")
        layer["trace.overhead_pct"] = (overhead, "%")
        # The untraced run's figures as measured, before the host-speed
        # factor, so the adjusted end-to-end figures can be checked.
        layer["raw.kips"] = (plain["raw_kips"], "kinstr/s")
        layer["raw.point_s_p50"] = (plain["raw_point_s_p50"], "s")
        layer["raw.point_s_p90"] = (plain["raw_point_s_p90"], "s")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
        lines += layer_report(layer, traced.get("unwrapped") or [])
        lines.append("spans: %s" % spans_file.relative_to(ROOT))
        runs = [plain, traced]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for run in runs:
        lines.append("timed: %.2f s, %d points, %d instructions, %.3f raw "
                     "kinstr/s, host speed factor %.3f"
                     % (run["timed_s"], run["points"], run["instructions"],
                        run["raw_kips"], run["speed_factor"]))
        lines += ["  failure: %s" % error for error in run["errors"]]
    return metrics, attempted, failed, lines


def layer_report(layer, unwrapped):
    wall = layer["trace.timed_s"][0]
    lines = ["layer self time in the traced run's %.3f s timed wall:" % wall]
    for name in sorted(n for n in layer if n.startswith("share.")):
        share = layer[name][0]
        lines.append("  %-20s %8.3f s %6.1f%%"
                     % (name[len("share."):], share * wall, 100 * share))
    residue = layer["share.residue"][0]
    lines.append("coverage: layers cover %.1f%% of the timed wall; residue "
                 "%.1f%% is %s the %.0f%% tolerance"
                 % (100 * (1 - residue), 100 * residue,
                    "within" if residue <= spans.COVERAGE_TOLERANCE
                    else "OVER", 100 * spans.COVERAGE_TOLERANCE))
    lines.append("tracing overhead: %.2f%% (untraced %.3f vs traced %.3f "
                 "kinstr/s)" % (layer["trace.overhead_pct"][0],
                                layer["trace.kips_untraced"][0],
                                layer["trace.kips_traced"][0]))
    if unwrapped:
        lines.append("entry points not found (time counts as residue): "
                     + ", ".join(unwrapped))
    return lines


def self_test(workdir: Path) -> bool:
    """A corrupted reference digest must raise failed_frac above 0 on
    both the shared-bundle path (paper-sweep) and the per-run path
    (cold-point); the pinned table must leave it at 0."""
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    reference = suite.load_reference()
    points = suite.matrix_points()
    points = [p for p in points if p.workload == points[0].workload]
    corrupted = dict(reference)
    corrupted[suite.point_key(points[0].workload, points[0].model)] = "0" * 16
    passed = True
    for label, table, expect_failures in (
            ("pinned table", reference, False),
            ("one entry corrupted", corrupted, True)):
        for cls in (suite.PaperSweep, suite.ColdPoint):
            workload = cls(1, workdir, spans.Timer(), table, points=points)
            workload.prepare()
            workload.run(0)
            outcome = workload.outcome
            frac = outcome.failed / outcome.attempted
            ok = (frac > 0) == expect_failures
            passed &= ok
            print("%-4s %-14s %-20s failed_frac %.3f (%d/%d)"
                  % ("ok" if ok else "FAIL", cls.name, label, frac,
                     outcome.failed, outcome.attempted))
    return passed


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Repository benchmark for the DMDP simulator.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    options = parser.parse_args(argv)
    if not options.self_test and options.workload is None:
        parser.error("--workload is required")
    return options


def main(argv=None) -> int:
    start = time.monotonic()
    options = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no simulator sources under %s; run from a "
              "repository checkout" % (ROOT / "src"), file=sys.stderr)
        return 2
    # The build: byte-compile once, so set-up times exclude compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=str(SCRATCH)))
    try:
        if options.self_test:
            ok = self_test(workdir)
            print("self-test %s" % ("passed" if ok else "FAILED"))
            return 0 if ok else 1
        metrics, attempted, failed, lines = measure(
            options, workdir, start + DEADLINE_S)
    except ChildError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass    # another run is still using it
    print("perfbench %s seed=%d seconds=%g %s" % (
        options.workload, options.seed, options.seconds,
        "traced" if options.trace else "untraced"))
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print("  %-32s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("checks: %d attempted, %d failed, failed_frac %.6g"
          % (attempted, failed, failed / attempted if attempted else 0.0))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
