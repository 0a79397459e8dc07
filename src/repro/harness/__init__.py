"""Experiment harness: runner, cache, parallel engine, reproductions."""

from .cache import (LedgerDir, PrecomputeStore, ResultCache, TraceStore,
                    code_version, default_cache_dir, default_ledger_dir,
                    functional_version, precompute_version)
from .resilience import (BatchFailure, FailedPoint, FaultInjector,
                         RetryPolicy, parse_fault_spec)
from .parallel import (BatchTiming, ParallelEngine, PointTiming, SimPoint,
                       make_point)
from .runner import ExperimentRunner, SimResult, shared_runner
from .reporting import (format_failure_table, format_run_report,
                        format_table, geomean, percent)
from .experiments import ALL_EXPERIMENTS, ExperimentResult
from . import hotloop, paper_data, sweepbench

__all__ = [
    "ExperimentRunner", "SimResult", "shared_runner",
    "LedgerDir", "PrecomputeStore", "ResultCache", "TraceStore",
    "code_version", "default_cache_dir", "default_ledger_dir",
    "functional_version", "precompute_version",
    "BatchFailure", "FailedPoint", "FaultInjector", "RetryPolicy",
    "parse_fault_spec",
    "BatchTiming", "ParallelEngine", "PointTiming", "SimPoint", "make_point",
    "format_failure_table", "format_run_report", "format_table", "geomean",
    "percent",
    "ALL_EXPERIMENTS", "ExperimentResult", "hotloop", "paper_data",
    "sweepbench",
]
