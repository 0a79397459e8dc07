"""Formatting and aggregation helpers for experiment reports.

The benchmark harness prints every reproduced figure/table as an ASCII
table with a ``paper`` column next to the ``measured`` one wherever the
paper gives a number (EXPERIMENTS.md is generated from the same data).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .parallel import BatchTiming, PointTiming
from .resilience import FailedPoint


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percent(ratio: float) -> float:
    """1.0717 -> 7.17 (percentage points of improvement)."""
    return 100.0 * (ratio - 1.0)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None,
                 float_fmt: str = "%.3f") -> str:
    """Render an ASCII table.

    Tolerant of messy experiment data: ragged rows are padded (or the
    header row widened) to the widest row, ``None`` renders as ``-``, and
    non-numeric cells fall back to ``str``.
    """
    def render(cell):
        if cell is None:
            return "-"
        if isinstance(cell, bool):  # bool is an int; keep True/False
            return str(cell)
        if isinstance(cell, float):
            try:
                return float_fmt % cell
            except (TypeError, ValueError):
                return str(cell)
        return str(cell)

    headers = [render(h) for h in headers]
    text_rows = [[render(c) for c in row] for row in rows]
    ncols = max([len(headers)] + [len(r) for r in text_rows])
    headers = headers + [""] * (ncols - len(headers))
    text_rows = [row + ["-"] * (ncols - len(row)) for row in text_rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def suite_geomeans(per_workload: Dict[str, float],
                   int_names: Sequence[str],
                   fp_names: Sequence[str]) -> Dict[str, float]:
    """Geometric means over the INT and FP suites."""
    return {
        "int": geomean([per_workload[n] for n in int_names
                        if n in per_workload]),
        "fp": geomean([per_workload[n] for n in fp_names
                       if n in per_workload]),
    }


def format_run_report(points: Sequence[PointTiming],
                      batches: Sequence[BatchTiming] = ()) -> str:
    """Aggregate progress/speedup summary for one runner's session.

    Reports points simulated vs served from the persistent cache, the
    wall-clock spent in each bucket, and -- when batches ran with worker
    fan-out -- the aggregate parallel speedup (serial simulation seconds
    over batch wall-clock).
    """
    points = list(points or ())
    batches = list(batches or ())
    simulated = [p for p in points if p.source == "sim"]
    cached = [p for p in points if p.source == "cache"]
    if not points:
        return "no points resolved"
    lines = [
        "points simulated      %d (%.2fs)"
        % (len(simulated), sum(p.seconds for p in simulated)),
        "points from cache     %d (%.2fs)"
        % (len(cached), sum(p.seconds for p in cached)),
    ]
    fanout = [b for b in batches if b.simulated and b.jobs > 1]
    if fanout:
        sim_seconds = sum(b.sim_seconds for b in fanout)
        wall = sum(b.wall_seconds for b in fanout)
        lines.append("parallel batches      %d (jobs=%d)"
                     % (len(fanout), fanout[0].jobs))
        lines.append("aggregate speedup     %.2fx (%.2fs simulated in "
                     "%.2fs wall)" % (sim_seconds / wall if wall else 1.0,
                                      sim_seconds, wall))
    traced = sum(b.traces_generated for b in batches)
    retraced = sum(b.worker_retraces for b in batches)
    if traced or retraced:
        lines.append("functional traces     %d%s"
                     % (traced,
                        " (+%d worker re-traces)" % retraced
                        if retraced else ""))
    retried = sum(b.retried for b in batches)
    timed_out = sum(b.timed_out for b in batches)
    failed = sum(b.failed for b in batches)
    if retried or timed_out or failed:
        lines.append("task retries          %d (%d after timeout)"
                     % (retried, timed_out))
        lines.append("points failed         %d" % failed)
    degraded = sum(1 for b in batches if b.degraded)
    if degraded:
        lines.append("degraded batches      %d (workers could not spawn; "
                     "ran in-process)" % degraded)
    return "\n".join(lines)


def format_failure_table(failures: Sequence[FailedPoint]) -> str:
    """Explicit per-point failure report (shown instead of a stack
    trace): which points were lost, how, and after how many attempts."""
    rows = [[f.point.workload, f.point.model.value, f.kind, f.attempts,
             f.reason[:60]] for f in failures]
    return format_table(["workload", "model", "kind", "attempts", "error"],
                        rows, title="Failed simulation points")

