#!/usr/bin/env python
"""Compare two JSONL pipeline traces and report the first divergence.

The simulator is deterministic, so two traces of the same (workload,
model, parameters) point must be event-for-event identical; any
divergence localises a behaviour change to the first cycle/uop where the
two runs disagree.  Typical use while bisecting a timing regression:

    PYTHONPATH=src python -m repro run mcf --trace a.jsonl
    ... apply candidate change ...
    PYTHONPATH=src python -m repro run mcf --trace b.jsonl
    PYTHONPATH=src python tools/trace_diff.py a.jsonl b.jsonl

Exit status: 0 when the traces match, 1 on divergence (or when one trace
is a strict prefix of the other), 2 on unreadable/malformed input.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.jsonl import iter_jsonl                 # noqa: E402
from repro.obs.tracer import TraceEvent                # noqa: E402


def first_divergence(events_a: Iterable[TraceEvent],
                     events_b: Iterable[TraceEvent]
                     ) -> Optional[Tuple[int, Optional[TraceEvent],
                                         Optional[TraceEvent]]]:
    """First position where two event streams disagree.

    Returns ``(position, event_a, event_b)`` -- an event is ``None`` when
    that stream ended early -- or ``None`` when the streams are identical.
    """
    it_a, it_b = iter(events_a), iter(events_b)
    pos = 0
    while True:
        a = next(it_a, None)
        b = next(it_b, None)
        if a is None and b is None:
            return None
        if a != b:
            return pos, a, b
        pos += 1


def describe_event(event: Optional[TraceEvent]) -> str:
    if event is None:
        return "<end of trace>"
    where = "" if event.index is None else " index=%d" % event.index
    if event.uop is not None:
        where += " uop=%d" % event.uop
    return "cycle=%d %s%s %r" % (event.cycle, event.kind.value, where,
                                 event.data)


def diff_traces(path_a: str, path_b: str, out=sys.stdout) -> int:
    """Diff two trace files; prints a report and returns the exit status."""
    try:
        divergence = first_divergence(iter_jsonl(path_a), iter_jsonl(path_b))
    except OSError as exc:
        print("error: cannot read trace: %s" % exc, file=out)
        return 2
    except ValueError as exc:
        print("error: malformed trace: %s" % exc, file=out)
        return 2
    if divergence is None:
        print("traces identical", file=out)
        return 0
    pos, a, b = divergence
    print("traces diverge at event %d:" % pos, file=out)
    print("  a: %s" % describe_event(a), file=out)
    print("  b: %s" % describe_event(b), file=out)
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: trace_diff.py TRACE_A.jsonl TRACE_B.jsonl",
              file=sys.stderr)
        return 2
    return diff_traces(argv[0], argv[1])


if __name__ == "__main__":
    raise SystemExit(main())
