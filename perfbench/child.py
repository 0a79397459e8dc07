"""Run one benchmark workload in this fresh interpreter.

Spawned by ``perfbench/run.py``, which passes the time it spawned this
process, so set-up time starts at interpreter start.  Prints one JSON
object as its last line.  Modes:

* ``setup`` stops at the first timed call and reports set-up time only;
* ``run`` measures the workload untraced;
* ``traced`` also wraps every layer's public entry points in spans and
  adds the per-layer numbers.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SETUP_CALIBRATIONS = 20


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--workdir", required=True,
                        help="private directory for this run's stores")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    parser.add_argument("--spans", help="file the traced run writes its "
                                        "spans to")
    args = parser.parse_args(argv)

    import spans
    import suite

    recorder = missing = None
    if args.mode == "traced":
        recorder = spans.SpanRecorder()
        missing = spans.install(recorder)
    timer = spans.Timer(recorder)
    workload = suite.WORKLOADS[args.workload](
        args.seed, args.workdir, timer, suite.load_reference())
    workload.prepare()
    workload.warmup()
    setup_s = time.monotonic() - args.spawned_at
    # Set-up time is reported in reference-host seconds too, from a
    # host-speed sample taken right after it.
    timer.reset_calibration()
    for _ in range(SETUP_CALIBRATIONS):
        timer.calibrate()
    setup_s /= timer.speed_factor
    timer.reset_calibration()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    workload.run(args.seconds)
    result = workload.outcome.summary(timer.seconds, timer.speed_factor)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if recorder is not None:
        result["layers"] = spans.summarize(recorder.spans,
                                           timer.speed_factor)
        result["unwrapped"] = missing
        if args.spans:
            spans.write_spans(args.spans, recorder.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
