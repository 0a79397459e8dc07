"""Experiment harness: runner, cache, parallel engine, reporting.

The package names what a run calls.  The experiment catalogue
(:mod:`.experiments`) and the paper's reference numbers
(:mod:`.paper_data`) are imported from their own modules, so resolving a
point never loads them.
"""

from .cache import (LedgerDir, PrecomputeStore, ResultCache, TraceStore,
                    code_version, default_cache_dir, default_ledger_dir,
                    functional_version, precompute_version)
from .resilience import (BatchFailure, FailedPoint, FaultInjector,
                         RetryPolicy, parse_fault_spec)
from .parallel import (BatchTiming, ParallelEngine, PointTiming, SimPoint,
                       make_point)
from .runner import ExperimentRunner, SimResult
from .reporting import (format_failure_table, format_run_report,
                        format_table, geomean, percent)

__all__ = [
    "ExperimentRunner", "SimResult",
    "LedgerDir", "PrecomputeStore", "ResultCache", "TraceStore",
    "code_version", "default_cache_dir", "default_ledger_dir",
    "functional_version", "precompute_version",
    "BatchFailure", "FailedPoint", "FaultInjector", "RetryPolicy",
    "parse_fault_spec",
    "BatchTiming", "ParallelEngine", "PointTiming", "SimPoint", "make_point",
    "format_failure_table", "format_run_report", "format_table", "geomean",
    "percent",
]
