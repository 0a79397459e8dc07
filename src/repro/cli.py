"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the available workloads and experiments.
``compare WORKLOAD``
    Run one workload under all four models and print the comparison.
``run WORKLOAD``
    Run one workload under one model and print detailed statistics.
    ``--trace PATH`` records a pipeline trace (Konata/O3PipeView format,
    or JSONL events when PATH ends in ``.jsonl``); ``--trace-window N:M``
    restricts it to a trace-index range.  ``--stats-json [PATH]`` emits
    the full statistics image as JSON; ``--metrics PATH`` writes the
    structured metrics report (latency histograms, squash causes,
    store-buffer occupancy).
``suite``
    Run a model across the whole workload suite.
``trace-report TRACE.jsonl``
    Summarise a recorded JSONL pipeline trace (``--json`` for the raw
    report).
``experiment EXP_ID``
    Reproduce one paper figure/table (see ``list`` for ids).
``cache``
    Inspect or clear the persistent result cache, its trace store, the
    precompute-bundle store, and recorded sweep ledgers; ``gc`` sweeps
    ``*.tmp`` files (and ``*.jsonl.tmp`` ledgers) orphaned by killed
    sessions.
``ledger report / diff / validate``
    Consume sweep telemetry ledgers recorded with ``--ledger``
    (DESIGN.md section 15): ``report`` renders the sweep health view
    (task timeline, retry/failure/straggler summary, cache efficiency,
    phase breakdown), ``diff`` compares two ledgers, ``validate``
    checks every span against the schema.
``fuzz run / repro / corpus / profiles``
    Differential fuzzing farm (see DESIGN.md Section 13): ``run``
    executes a seeded campaign of pathology-biased programs through the
    three-oracle stack on every model (functional-arch, cross-model and
    reference-stats: a packed-trace re-run with cycle skipping off must
    match the cycle-skipping run's SimStats), auto-minimizing any
    divergence into a replayable JSON artifact; ``repro ARTIFACT``
    replays one artifact and checks that the same divergence class
    reappears; ``corpus`` replays the distilled regression corpus
    (``tests/corpus``); ``profiles`` lists the bias profiles.

The repository's one benchmark is not a command: it is
``perfbench/run.py`` (``perfbench/METRICS.md``).

Global flags: ``--jobs N`` fans simulation points out over N worker
processes; ``--no-cache`` disables the persistent result cache (location:
``$REPRO_CACHE_DIR``, default ``.repro-cache``); ``--profile`` runs the
command under cProfile and prints the top-25 cumulative report plus a
phase split (functional tracing vs. whole-trace precompute vs. timing
simulation vs. trace-store I/O); ``--ledger [PATH]`` records every
sweep's telemetry spans to an append-only JSONL ledger (default
location: ``<cache>/ledgers/``); ``--progress`` renders live sweep
health from the same span stream (single repainted line on a TTY,
periodic summaries otherwise).

Fault tolerance (see DESIGN.md Section 11): ``--timeout S`` bounds each
worker task's wall clock, ``--retries N`` / ``--backoff S`` control the
retry policy for crashed/timed-out/raising tasks, and ``--keep-going``
renders partial results plus an explicit failure table instead of
aborting the sweep.  Completed points are checkpointed to the result
cache as they resolve, so re-running an interrupted sweep resumes
where it died.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from .config import ConfigSpec, ConfigError
from .harness import (BatchFailure, ExperimentRunner, LedgerDir,
                      PrecomputeStore, ResultCache, RetryPolicy, SimPoint,
                      TraceStore, default_cache_dir, default_ledger_dir)
from .harness.experiments import ALL_EXPERIMENTS
from .harness.reporting import (format_failure_table, format_run_report,
                                format_table)
from .uarch import ALL_MODELS, ModelKind
from .workloads import ALL_NAMES, WORKLOADS


def _model(name: str) -> ModelKind:
    try:
        return ModelKind(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "unknown model %r (choose from %s)"
            % (name, ", ".join(m.value for m in ModelKind)))


def _spec(args, model: ModelKind) -> ConfigSpec:
    """The validated ConfigSpec for ``model`` under this invocation's
    ``--set slot.field=value`` assignments.

    Values stay strings until the registry parses them
    (``parse_strings=True``), so a typoed key or ill-typed value fails
    with a did-you-mean error before any work starts.
    """
    settings = {}
    for assignment in args.assignments or ():
        key, sep, value = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise argparse.ArgumentTypeError(
                "bad --set %r (expected SLOT.FIELD=VALUE, e.g. "
                "--set core.rob_entries=512)" % assignment)
        settings[key] = value
    return ConfigSpec.create(model, settings, parse_strings=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic Memory Dependence Predication (ISCA'18) "
                    "reproduction")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default: per-workload)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="simulate points on N worker processes "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache "
                             "($REPRO_CACHE_DIR, default .repro-cache)")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print the "
                             "top-25 cumulative report")
    parser.add_argument("--profile-output", default=None, metavar="PATH",
                        help="with --profile: dump raw cProfile stats to "
                             "PATH (default: repro.prof)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-task wall-clock budget in seconds for "
                             "worker tasks (default: unlimited)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry crashed/timed-out/raising tasks up to "
                             "N times (default: 2)")
    parser.add_argument("--backoff", type=float, default=0.25, metavar="S",
                        help="base retry delay in seconds, doubled per "
                             "attempt (default: 0.25)")
    parser.add_argument("--keep-going", action="store_true",
                        help="on unrecoverable point failures, render "
                             "partial results plus a failure table "
                             "instead of aborting the sweep")
    parser.add_argument("--ledger", nargs="?", const="auto", default=None,
                        metavar="PATH",
                        help="record sweep telemetry spans to a JSONL "
                             "ledger at PATH (default: a timestamped file "
                             "under <cache>/ledgers/); inspect with "
                             "'repro ledger report'")
    parser.add_argument("--progress", action="store_true",
                        help="render live sweep health from the telemetry "
                             "span stream (line summaries when not a TTY)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments")

    compare = sub.add_parser("compare",
                             help="one workload under all four models")
    compare.add_argument("workload", choices=ALL_NAMES)
    _add_set_flag(compare)
    _add_energy_flag(compare)

    run = sub.add_parser("run", help="one workload under one model")
    run.add_argument("workload", choices=ALL_NAMES)
    run.add_argument("--model", type=_model, default=ModelKind.DMDP)
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a pipeline trace: Konata format, or "
                          "JSONL events when PATH ends in .jsonl")
    run.add_argument("--trace-window", default=None, metavar="N:M",
                     help="restrict the trace to instruction (trace-index) "
                          "range [N, M); either side may be empty")
    run.add_argument("--stats-json", nargs="?", const="-", default=None,
                     metavar="PATH",
                     help="emit the full statistics image as JSON to PATH "
                          "(default: stdout)")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write the structured metrics report (JSON)")
    _add_set_flag(run)
    _add_energy_flag(run)

    suite = sub.add_parser("suite", help="a model across the whole suite")
    suite.add_argument("--model", type=_model, default=ModelKind.DMDP)
    _add_set_flag(suite)
    _add_energy_flag(suite)

    config_cmd = sub.add_parser("config",
                                help="inspect the config-space registry "
                                     "(slots, fields, defaults) and "
                                     "validate --set assignments")
    config_sub = config_cmd.add_subparsers(dest="config_command",
                                           required=True)
    config_list = config_sub.add_parser(
        "list", help="list the registered slots (and named ablations)")
    config_list.add_argument("--json", action="store_true",
                             help="print the raw registry as JSON")
    config_show = config_sub.add_parser(
        "show", help="show the resolved configuration for a model "
                     "(+ optional --set assignments)")
    config_show.add_argument("--model", type=_model, default=ModelKind.DMDP)
    config_show.add_argument("--json", action="store_true",
                             help="print the spec's canonical JSON")
    _add_set_flag(config_show)
    config_validate = config_sub.add_parser(
        "validate", help="validate --set assignments without running "
                         "anything (exit 2 on the first bad key/value)")
    config_validate.add_argument("--model", type=_model,
                                 default=ModelKind.DMDP)
    _add_set_flag(config_validate)

    experiment = sub.add_parser("experiment",
                                help="reproduce one paper figure/table")
    experiment.add_argument("exp_id", choices=sorted(ALL_EXPERIMENTS))
    experiment.add_argument("--workloads", default=None,
                            help="comma-separated subset")
    experiment.add_argument("--timing", action="store_true",
                            help="append the per-session timing summary")

    trace_report = sub.add_parser("trace-report",
                                  help="summarise a recorded JSONL "
                                       "pipeline trace")
    trace_report.add_argument("trace", metavar="TRACE.jsonl",
                              help="JSONL event stream from run --trace")
    trace_report.add_argument("--json", action="store_true",
                              help="print the raw report as JSON")

    cache = sub.add_parser("cache",
                           help="inspect, clear, or garbage-collect the "
                                "persistent result cache")
    cache.add_argument("action", choices=("info", "clear", "gc"))

    ledger_cmd = sub.add_parser("ledger",
                                help="inspect sweep telemetry ledgers "
                                     "recorded with --ledger")
    ledger_sub = ledger_cmd.add_subparsers(dest="ledger_command",
                                           required=True)
    ledger_report = ledger_sub.add_parser(
        "report", help="render one ledger's sweep health report")
    ledger_report.add_argument("path", metavar="LEDGER.jsonl")
    ledger_report.add_argument("--json", action="store_true",
                               help="print the raw summary as JSON")
    ledger_diff = ledger_sub.add_parser(
        "diff", help="compare two ledgers (b - a deltas)")
    ledger_diff.add_argument("path_a", metavar="A.jsonl")
    ledger_diff.add_argument("path_b", metavar="B.jsonl")
    ledger_diff.add_argument("--json", action="store_true",
                             help="print the raw diff as JSON")
    ledger_validate = ledger_sub.add_parser(
        "validate", help="check every span against the schema")
    ledger_validate.add_argument("paths", nargs="+", metavar="LEDGER.jsonl")

    fuzz = sub.add_parser("fuzz", help="differential fuzzing farm")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded fuzz campaign through the "
                    "functional-arch, cross-model and reference-stats "
                    "oracles")
    fuzz_run.add_argument("--profile", dest="fuzz_profiles",
                          action="append", default=None, metavar="NAME",
                          help="bias profile (repeatable; default: mixed; "
                               "see 'fuzz profiles')")
    fuzz_run.add_argument("--iterations", type=int, default=100,
                          metavar="N",
                          help="programs per profile (default: 100)")
    fuzz_run.add_argument("--seed", type=int, default=20180604,
                          help="base seed (default: 20180604)")
    fuzz_run.add_argument("--models", default=None, metavar="M1,M2",
                          help="comma-separated model subset "
                               "(default: all four)")
    fuzz_run.add_argument("--collide", type=float, default=None,
                          metavar="RATE",
                          help="override every profile's store->load "
                               "collision bias (0..1)")
    fuzz_run.add_argument("--mutate", default=None, metavar="NAME",
                          help="inject a known-bad trace mutation into "
                               "every check (test-only; validates the "
                               "catch->minimize->replay pipeline)")
    fuzz_run.add_argument("--no-minimize", action="store_true",
                          help="archive divergences without delta-"
                               "debugging them first")
    fuzz_run.add_argument("--artifacts", default="fuzz-artifacts",
                          metavar="DIR",
                          help="directory for failure artifacts "
                               "(default: fuzz-artifacts)")
    fuzz_repro = fuzz_sub.add_parser(
        "repro", help="replay one failure artifact")
    fuzz_repro.add_argument("artifact", metavar="ARTIFACT.json")
    fuzz_repro.add_argument("--from-seed", action="store_true",
                            help="regenerate the program from (profile, "
                                 "seed) instead of the embedded IR; "
                                 "errors out when the generator changed "
                                 "since the artifact was recorded")
    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="replay the distilled regression corpus")
    fuzz_corpus.add_argument("--dir", default="tests/corpus",
                             help="corpus directory "
                                  "(default: tests/corpus)")
    fuzz_sub.add_parser("profiles", help="list the bias profiles")
    return parser


def _add_energy_flag(parser) -> None:
    parser.add_argument("--energy", action="store_true",
                        help="report energy/EDP per point (the Fig. 15 "
                             "event-cost model) alongside IPC; set "
                             "per-event costs with --set energy.NAME=VALUE")


def _add_set_flag(parser) -> None:
    parser.add_argument("--set", dest="assignments", action="append",
                        default=None, metavar="SLOT.FIELD=VALUE",
                        help="set any registered parameter (repeatable), "
                             "e.g. --set predictor.tssbf_entries=64; see "
                             "'repro config list' for the vocabulary")


def _runner(args) -> ExperimentRunner:
    policy = RetryPolicy(retries=max(0, args.retries),
                         timeout=args.timeout,
                         backoff=max(0.0, args.backoff))
    return ExperimentRunner(scale=args.scale, jobs=args.jobs,
                            use_cache=not args.no_cache,
                            policy=policy, keep_going=args.keep_going,
                            ledger=getattr(args, "ledger_sink", None))


def _build_sinks(args):
    """Resolve --ledger/--progress into one LedgerSink (or None).

    Returns ``(sink, ledger_path)``: the sink goes to every runner/engine
    this invocation builds; the path (when a file ledger was requested)
    is printed after the command finishes so the user can feed it to
    ``repro ledger report``.  Each sink is imported where its flag is
    handled, so a command without ``--progress`` never loads the
    renderer.
    """
    sinks = []
    ledger_path = None
    if getattr(args, "ledger", None) is not None:
        from .obs.ledger import JsonlLedger
        if args.ledger == "auto":
            ledger_path = default_ledger_dir() / (
                "%s-%s-pid%d.jsonl"
                % (args.command, time.strftime("%Y%m%d-%H%M%S"),
                   os.getpid()))
        else:
            ledger_path = Path(args.ledger)
        sinks.append(JsonlLedger(ledger_path, command=args.command,
                                 jobs=args.jobs, scale=args.scale))
    if getattr(args, "progress", False):
        from .obs.progress import ProgressRenderer
        sinks.append(ProgressRenderer())
    if len(sinks) < 2:
        return (sinks[0] if sinks else None), ledger_path
    from .obs.ledger import TeeLedger
    return TeeLedger(sinks), ledger_path


def _report_failures(runner: ExperimentRunner, out) -> int:
    """Render the failure table for a partial sweep; 1 when any failed."""
    if not runner.failure_log:
        return 0
    print(file=out)
    print(format_failure_table(runner.failure_log), file=out)
    return 1


def cmd_list(args, out) -> int:
    rows = [[spec.name, spec.suite, spec.description]
            for spec in WORKLOADS.values()]
    print(format_table(["workload", "suite", "signature"], rows,
                       title="Workloads (SPEC 2006 stand-ins)"), file=out)
    print(file=out)
    rows = [[exp_id, func.__doc__.strip().splitlines()[0]]
            for exp_id, func in sorted(ALL_EXPERIMENTS.items())]
    print(format_table(["experiment", "reproduces"], rows,
                       title="Experiments"), file=out)
    return 0


def cmd_compare(args, out) -> int:
    runner = _runner(args)
    points = {model: SimPoint(args.workload, _spec(args, model))
              for model in ALL_MODELS}
    resolved = runner.run_batch(points.values())
    with_energy = getattr(args, "energy", False)
    rows = []
    base_ipc = None
    base_energy = None
    for model in ALL_MODELS:
        result = resolved.get(points[model])
        if result is None:           # failed point under --keep-going
            rows.append([model.value] + [None] * (7 if with_energy else 5))
            continue
        if base_ipc is None:
            base_ipc = result.ipc
            base_energy = result.energy
        stats = result.stats
        row = [model.value, stats.ipc, stats.ipc / base_ipc,
               stats.dep_mpki, stats.avg_load_exec_time,
               result.energy.edp / 1e6]
        if with_energy:
            ratios = result.energy.normalized_to(base_energy)
            row[5:5] = [result.energy.total / 1e6]
            row.append(ratios["edp"])
        rows.append(row)
    headers = ["model", "IPC", "vs baseline", "MPKI", "avg load cyc",
               "EDP(M)"]
    if with_energy:
        headers[5:5] = ["energy(M)"]
        headers.append("EDP vs base")
    print(format_table(headers, rows,
                       title="%s under the four models" % args.workload),
          file=out)
    return _report_failures(runner, out)


def cmd_run(args, out) -> int:
    runner = _runner(args)
    point = SimPoint(args.workload, _spec(args, args.model))
    tracing = args.trace is not None or args.metrics is not None
    if tracing:
        from .obs.jsonl import write_jsonl
        from .obs.konata import write_konata
        from .obs.metrics import build_metrics
        from .obs.tracer import MetricsTracer, RecordingTracer, TraceWindow
        try:
            window = (TraceWindow.parse(args.trace_window)
                      if args.trace_window else None)
        except ValueError as exc:
            print("error: %s" % exc, file=out)
            return 2
        tracer = (RecordingTracer(window=window) if args.trace is not None
                  else MetricsTracer())
        result = runner.run_traced(point, tracer)
    else:
        # Route through run_batch so the retry policy applies and a
        # failure renders as a table instead of a stack trace.
        result = runner.run_batch([point]).get(point)
        if result is None:
            return _report_failures(runner, out)
    stats = result.stats
    print("workload     %s" % args.workload, file=out)
    print("model        %s" % args.model.value, file=out)
    for key, value in stats.summary().items():
        print("%-12s %s" % (key, "%.4f" % value
                            if isinstance(value, float) else value), file=out)
    print("load mix     %s" % {k: "%.1f%%" % (100 * v) for k, v in
                               stats.load_distribution().items() if v},
          file=out)
    print("energy       %.0f (EDP %.3g)" % (result.energy.total,
                                            result.energy.edp), file=out)
    if getattr(args, "energy", False):
        from .energy import energy_summary
        summary = energy_summary(result.energy)
        total = summary["total"] or 1.0
        rows = [[event, cost, 100.0 * cost / total]
                for event, cost in sorted(summary["by_event"].items(),
                                          key=lambda kv: -kv[1])]
        print(file=out)
        print(format_table(["event", "energy", "%"], rows,
                           title="Energy by event (total %.0f, EDP %.6g)"
                                 % (summary["total"], summary["edp"])),
              file=out)
    if args.stats_json is not None:
        text = stats.to_json()
        if args.stats_json == "-":
            print(text, file=out)
        else:
            with open(args.stats_json, "w") as handle:
                handle.write(text + "\n")
            print("stats json   %s" % args.stats_json, file=out)
    if tracing:
        if args.trace is not None:
            events = tracer.events
            if args.trace.endswith(".jsonl"):
                count = write_jsonl(events, args.trace)
                print("trace        %s (%d events, jsonl)"
                      % (args.trace, count), file=out)
            else:
                count = write_konata(events, args.trace)
                print("trace        %s (%d rows, konata)"
                      % (args.trace, count), file=out)
        if args.metrics is not None:
            import json

            from .energy import energy_summary
            report = (build_metrics(tracer.events)
                      if args.trace is not None else tracer.report())
            # The unified energy-metrics path: the same energy_summary
            # dict that feeds result rows and ledger spans.
            report["energy"] = energy_summary(result.energy)
            with open(args.metrics, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("metrics      %s" % args.metrics, file=out)
    return 0


def cmd_suite(args, out) -> int:
    runner = _runner(args)
    results = runner.run_suite(_spec(args, args.model))
    with_energy = getattr(args, "energy", False)
    rows = []
    for name in ALL_NAMES:
        if name not in results:      # failed point under --keep-going
            rows.append([name] + [None] * (6 if with_energy else 4))
            continue
        result = results[name]
        stats = result.stats
        row = [name, stats.ipc, stats.dep_mpki,
               stats.avg_load_exec_time,
               stats.reexec_stalls_per_kilo]
        if with_energy:
            row.extend([result.energy.total / 1e6,
                        result.energy.edp / 1e6])
        rows.append(row)
    headers = ["workload", "IPC", "MPKI", "avg load cyc",
               "reexec stalls/k"]
    if with_energy:
        headers.extend(["energy(M)", "EDP(M)"])
    print(format_table(headers, rows,
                       title="%s across the suite" % args.model.value),
          file=out)
    return _report_failures(runner, out)


def cmd_config(args, out) -> int:
    import json as json_mod

    from .config import ABLATIONS, registry

    if args.config_command == "list":
        if args.json:
            payload = {
                "slots": {
                    slot.name: {
                        "dataclass": slot.dataclass_type.__name__,
                        "description": slot.description,
                        "fields": {
                            field: getattr(ftype, "__name__", str(ftype))
                            for field, ftype in slot.types.items()},
                    } for slot in registry.SLOTS.values()},
                "ablations": {name: dict(settings)
                              for name, settings in ABLATIONS.items()},
            }
            print(json_mod.dumps(payload, indent=2, sort_keys=True),
                  file=out)
            return 0
        rows = [[slot.name, len(slot.types), slot.description]
                for slot in registry.SLOTS.values()]
        print(format_table(["slot", "fields", "holds"], rows,
                           title="Config slots (set fields with --set "
                                 "SLOT.FIELD=VALUE)"), file=out)
        print(file=out)
        rows = [[name, " ".join("%s=%s" % kv for kv in sorted(
                    settings.items()))]
                for name, settings in sorted(ABLATIONS.items())]
        print(format_table(["ablation", "settings"], rows,
                           title="Named ablations"), file=out)
        return 0

    spec = _spec(args, args.model)
    if args.config_command == "validate":
        print("ok: %s (hash %s)" % (spec.describe(), spec.spec_hash),
              file=out)
        return 0

    # show: the resolved configuration (defaults + assignments).
    if args.json:
        print(spec.canonical_json(), file=out)
        return 0
    import enum as enum_mod
    params = spec.to_params()
    print("model        %s" % spec.model.value, file=out)
    print("spec hash    %s" % spec.spec_hash, file=out)
    overridden = dict(spec.settings)
    rows = []
    for slot in registry.SLOTS.values():
        for field in slot.types:
            key = "%s.%s" % (slot.name, field)
            value = registry.default_value(params, key)
            if isinstance(value, enum_mod.Enum):
                value = value.value
            rows.append([key, value, "*" if key in overridden else ""])
    print(format_table(["setting", "value", "set"], rows,
                       title="Resolved configuration"), file=out)
    return 0


def cmd_experiment(args, out) -> int:
    runner = _runner(args)
    workloads = args.workloads.split(",") if args.workloads else None
    result = ALL_EXPERIMENTS[args.exp_id](runner, workloads=workloads)
    print(result.render(), file=out)
    if args.timing:
        print(file=out)
        print(format_run_report(runner.point_log, runner.batch_log),
              file=out)
    return _report_failures(runner, out)


def cmd_trace_report(args, out) -> int:
    from .obs.report import format_trace_report, summarize_jsonl
    try:
        report = summarize_jsonl(args.trace)
    except OSError as exc:
        print("error: cannot read trace: %s" % exc, file=out)
        return 1
    except ValueError as exc:
        print("error: malformed trace: %s" % exc, file=out)
        return 1
    if args.json:
        import json
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        print(format_trace_report(report), file=out)
    return 0


def cmd_cache(args, out) -> int:
    cache = ResultCache(default_cache_dir())
    store = TraceStore(root=cache.root / "traces")
    precomputes = PrecomputeStore(root=cache.root / "traces")
    ledgers = LedgerDir(root=cache.root / "ledgers")
    if args.action == "clear":
        removed = cache.clear()
        traces = store.clear()
        bundles = precomputes.clear()
        swept_ledgers = ledgers.clear()
        print("removed %d cached result(s), %d trace blob(s), %d "
              "precompute blob(s), and %d ledger(s) from %s"
              % (removed, traces, bundles, swept_ledgers, cache.root),
              file=out)
        return 0
    if args.action == "gc":
        # TraceStore.gc sweeps the whole shared traces/ tree, so orphaned
        # precompute temp files are collected by the same pass; the
        # ledger sweep collects *.jsonl.tmp files left by killed runs.
        removed = cache.gc() + store.gc() + ledgers.gc()
        print("swept %d orphaned temp file(s) from %s"
              % (removed, cache.root), file=out)
        return 0
    print("cache dir        %s" % cache.root, file=out)
    print("entries          %d" % cache.entry_count(), file=out)
    print("size             %.1f KiB" % (cache.size_bytes() / 1024.0),
          file=out)
    print("trace blobs      %d" % store.entry_count(), file=out)
    print("trace size       %.1f KiB" % (store.size_bytes() / 1024.0),
          file=out)
    print("precompute blobs %d" % precomputes.entry_count(), file=out)
    print("precompute size  %.1f KiB" % (precomputes.size_bytes() / 1024.0),
          file=out)
    print("ledgers          %d" % ledgers.entry_count(), file=out)
    print("ledger size      %.1f KiB" % (ledgers.size_bytes() / 1024.0),
          file=out)
    print("orphaned tmp     %d" % (len(cache.tmp_files())
                                   + len(store.tmp_files())
                                   + len(ledgers.tmp_files())), file=out)
    print("code version     %s" % cache.version, file=out)
    print("func version     %s" % store.version, file=out)
    print("precompute ver   %s" % precomputes.version, file=out)
    return 0


def cmd_ledger(args, out) -> int:
    import json

    from .obs.ledger import (diff_ledgers, format_ledger_diff,
                             format_ledger_report, iter_ledger,
                             summarize_ledger)
    try:
        if args.ledger_command == "report":
            summary = summarize_ledger(args.path)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True),
                      file=out)
            else:
                print(format_ledger_report(summary), file=out)
            return 0
        if args.ledger_command == "diff":
            diff = diff_ledgers(summarize_ledger(args.path_a),
                                summarize_ledger(args.path_b))
            if args.json:
                print(json.dumps(diff, indent=2, sort_keys=True), file=out)
            else:
                print(format_ledger_diff(diff), file=out)
            return 0
        # validate: every span of every file against the schema.
        bad = 0
        for path in args.paths:
            try:
                spans = sum(1 for _ in iter_ledger(path, validate=True))
            except (OSError, ValueError) as exc:
                print("%s: INVALID (%s)" % (path, exc), file=out)
                bad += 1
                continue
            print("%s: %d span(s) ok" % (path, spans), file=out)
        return 1 if bad else 0
    except BrokenPipeError:     # |head closed the pipe; not a ledger error
        raise
    except OSError as exc:
        print("error: cannot read ledger: %s" % exc, file=out)
        return 1
    except ValueError as exc:
        print("error: malformed ledger: %s" % exc, file=out)
        return 1


def _print_divergences(report, out) -> None:
    rows = [[d.oracle, d.model, d.detail] for d in report.divergences]
    print(format_table(["oracle", "model", "detail"], rows), file=out)


def _replay_artifact(artifact, ir, out):
    """Replay one artifact; returns (report, verdict_string, passed)."""
    from .fuzz.oracles import check_ir
    report = check_ir(ir, mutation=artifact.mutation)
    if artifact.kind == "regression":
        # Corpus entries are distilled pathology programs that must stay
        # clean: any divergence is a real regression.
        return report, "clean" if report.ok else "DIVERGED", report.ok
    reproduced = report.coarse_signature == artifact.coarse_signature
    if reproduced:
        return report, "reproduced %s" % report.coarse_signature, True
    return (report,
            "NOT reproduced (got %s, artifact recorded %s)"
            % (report.coarse_signature or "clean",
               artifact.coarse_signature), False)


def cmd_fuzz(args, out) -> int:
    from .fuzz.artifacts import StaleArtifactError, load_artifact
    from .fuzz.campaign import run_campaign
    from .fuzz.generator import PROFILES
    if args.fuzz_command == "profiles":
        rows = [[p.name, p.description] for p in PROFILES.values()]
        print(format_table(["profile", "bias"], rows,
                           title="Bias profiles"), file=out)
        return 0

    if args.fuzz_command == "run":
        policy = RetryPolicy(retries=max(0, args.retries),
                             timeout=args.timeout,
                             backoff=max(0.0, args.backoff))
        models = (ALL_MODELS if args.models is None else
                  [_model(name) for name in args.models.split(",")])
        report = run_campaign(
            args.fuzz_profiles or ["mixed"],
            iterations=args.iterations, seed=args.seed, models=models,
            jobs=args.jobs, mutation=args.mutate,
            minimize_findings=not args.no_minimize,
            artifacts_dir=args.artifacts, collide=args.collide,
            policy=policy, progress=lambda line: print(line, file=out),
            ledger=getattr(args, "ledger_sink", None))
        print(report.format(), file=out)
        return 0 if report.ok else 1

    if args.fuzz_command == "repro":
        try:
            artifact = load_artifact(args.artifact)
        except (OSError, ValueError, KeyError) as exc:
            print("error: cannot load artifact: %s" % exc, file=out)
            return 2
        try:
            ir = (artifact.regenerate_ir() if args.from_seed
                  else artifact.replay_ir)
        except StaleArtifactError as exc:
            print("error: stale artifact: %s" % exc, file=out)
            return 2
        report, verdict, passed = _replay_artifact(artifact, ir, out)
        print("artifact   %s (%s)" % (args.artifact, artifact.kind),
              file=out)
        print("program    %s%s" % (artifact.program_id,
                                   "  [mutation=%s]" % artifact.mutation
                                   if artifact.mutation else ""), file=out)
        if report.divergences:
            _print_divergences(report, out)
        print("verdict    %s" % verdict, file=out)
        return 0 if passed else 1

    # corpus: replay every artifact in the directory.
    import glob
    import os
    paths = sorted(glob.glob(os.path.join(args.dir, "*.json")))
    if not paths:
        print("error: no artifacts under %s" % args.dir, file=out)
        return 2
    rows = []
    failures = 0
    for path in paths:
        artifact = load_artifact(path)
        report, verdict, passed = _replay_artifact(
            artifact, artifact.replay_ir, out)
        failures += 0 if passed else 1
        rows.append([os.path.basename(path), artifact.kind,
                     artifact.profile.name, verdict])
    print(format_table(["artifact", "kind", "profile", "verdict"], rows,
                       title="Corpus replay (%d artifacts)" % len(paths)),
          file=out)
    return 1 if failures else 0


COMMANDS = {
    "list": cmd_list,
    "compare": cmd_compare,
    "run": cmd_run,
    "suite": cmd_suite,
    "config": cmd_config,
    "experiment": cmd_experiment,
    "trace-report": cmd_trace_report,
    "cache": cmd_cache,
    "fuzz": cmd_fuzz,
    "ledger": cmd_ledger,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    out = out if out is not None else sys.stdout
    try:
        args.ledger_sink, ledger_path = _build_sinks(args)
    except argparse.ArgumentTypeError as exc:
        print("error: %s" % exc, file=out)
        return 2
    try:
        return _dispatch(command, args, out)
    except argparse.ArgumentTypeError as exc:
        # Value errors raised during command execution (e.g. a bad
        # --set assignment) render as usage errors, not tracebacks.
        print("error: %s" % exc, file=out)
        return 2
    except ConfigError as exc:
        # A typoed --set key / ill-typed value or an unknown workload:
        # the message is the whole story -- usage error, before any
        # sweep started.
        print("error: %s" % exc, file=out)
        return 2
    except BatchFailure as exc:
        # Sweep aborted after retries: explicit failure table, not a
        # stack trace.  Everything that completed is already in the
        # result cache, so re-running resumes instead of restarting.
        print("error: %s" % exc, file=out)
        hint = "" if args.keep_going else ", or add --keep-going"
        print("(completed points are checkpointed in the result cache; "
              "re-run to resume%s)" % hint, file=out)
        print(file=out)
        print(format_failure_table(exc.failures), file=out)
        return 1
    finally:
        sink = args.ledger_sink
        if sink is not None:
            sink.close()
            if ledger_path is not None:
                print("ledger written to %s" % ledger_path, file=out)


def _phase_attribution(stats) -> List:
    """Split a profile's wall time into the pipeline's coarse phases.

    Attributes the cumulative time of each phase's entry point --
    functional tracing (``FunctionalCpu._record_trace``, the body of both
    tracing entry points), whole-trace precompute
    (the bundle build/load in ``kernel/precompute.py``, shared or built
    inside ``Simulator.__init__``), timing simulation
    (``Simulator.run``), and trace-store I/O (``load_trace`` /
    ``PackedTrace.to_bytes``).  The phases never nest (a trace is fully
    built or loaded before its simulation starts, and every precompute
    entry point runs outside ``Simulator.run``), so the split is exact
    up to harness overhead, reported as "other".
    """
    phases = {"functional tracing": 0.0, "precompute": 0.0,
              "timing simulation": 0.0, "trace store I/O": 0.0}
    for (filename, _line, funcname), entry in stats.stats.items():
        cumulative = entry[3]
        path = filename.replace("\\", "/")
        if path.endswith("kernel/cpu.py") and funcname == "_record_trace":
            phases["functional tracing"] += cumulative
        elif (path.endswith("kernel/precompute.py")
                and funcname in ("build", "load_precompute")):
            phases["precompute"] += cumulative
        elif path.endswith("uarch/pipeline.py") and funcname == "run":
            phases["timing simulation"] += cumulative
        elif (path.endswith("kernel/tracestore.py")
                and funcname in ("load_trace", "to_bytes")):
            phases["trace store I/O"] += cumulative
    total = stats.total_tt
    phases["other (harness)"] = max(0.0, total - sum(phases.values()))
    return [(label, seconds, 100.0 * seconds / total if total else 0.0)
            for label, seconds in phases.items()]


def _dispatch(command, args, out) -> int:
    if getattr(args, "profile", False):
        import cProfile
        import pstats
        profile = cProfile.Profile()
        profile.enable()
        try:
            rc = command(args, out)
        finally:
            profile.disable()
            report = pstats.Stats(profile, stream=out)
            report.sort_stats("cumulative").print_stats(25)
            print("phase attribution:", file=out)
            for label, seconds, percent in _phase_attribution(report):
                print("  %-20s %9.3fs  %5.1f%%" % (label, seconds, percent),
                      file=out)
            dump = args.profile_output or "repro.prof"
            report.dump_stats(dump)
            print("raw profile written to %s" % dump, file=out)
        return rc
    return command(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
