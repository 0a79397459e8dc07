"""repro: reproduction of "Dynamic Memory Dependence Predication" (ISCA'18).

A store-queue-free out-of-order processor simulator built from scratch:

* :mod:`repro.isa` -- MIPS-like ISA, assembler, binary encoding;
* :mod:`repro.kernel` -- functional simulator and dynamic traces;
* :mod:`repro.uarch` -- the cycle-level pipeline with four store-load
  communication models (baseline SQ, NoSQ, DMDP, Perfect);
* :mod:`repro.energy` -- event-based energy / EDP accounting;
* :mod:`repro.workloads` -- 21 SPEC 2006 stand-in kernels;
* :mod:`repro.harness` -- per-figure/table experiment reproductions.

Quick start::

    from repro import quick_compare
    print(quick_compare("bzip2"))
"""

from .isa import Program, ProgramBuilder, assemble
from .kernel import FunctionalCpu
from .uarch import (
    ALL_MODELS,
    CoreParams,
    ModelKind,
    SimStats,
    Simulator,
    model_params,
    run_all_models,
    run_model,
)
from .energy import EnergyReport, edp, energy_report
from .workloads import ALL_NAMES, FP_NAMES, INT_NAMES, WORKLOADS, get_workload
from .harness import (BatchFailure, ExperimentRunner, RetryPolicy,
                      shared_runner)

__version__ = "1.0.0"


def quick_compare(workload: str = "bzip2", scale: float = None) -> str:
    """Run all four models on one workload and render a small report."""
    from .harness.reporting import format_table

    runner = ExperimentRunner(scale=scale)
    rows = []
    base_ipc = None
    for model in ALL_MODELS:
        result = runner.run(workload, model)
        if base_ipc is None:
            base_ipc = result.ipc
        rows.append([model.value, result.ipc, result.ipc / base_ipc,
                     result.stats.dep_mpki,
                     result.stats.avg_load_exec_time])
    return format_table(
        ["model", "IPC", "vs baseline", "dep MPKI", "avg load cycles"],
        rows, title="%s under the four models" % workload)


__all__ = [
    "Program", "ProgramBuilder", "assemble",
    "FunctionalCpu",
    "ALL_MODELS", "CoreParams", "ModelKind", "SimStats", "Simulator",
    "model_params", "run_all_models", "run_model",
    "EnergyReport", "edp", "energy_report",
    "ALL_NAMES", "FP_NAMES", "INT_NAMES", "WORKLOADS", "get_workload",
    "BatchFailure", "ExperimentRunner", "RetryPolicy",
    "shared_runner", "quick_compare",
    "__version__",
]
