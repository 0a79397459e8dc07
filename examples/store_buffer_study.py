"""Store buffer sizing and consistency study (paper Fig. 14 / Section VI-g).

Run with::

    python examples/store_buffer_study.py

Store-queue-free designs let loads skip the associative store-buffer
search, so the buffer can grow cheaply; this study sweeps its size on the
store-heavy ``lbm`` kernel under DMDP, and compares TSO with RMO draining.
"""

from repro import ModelKind
from repro.config import ConfigSpec
from repro.harness import ExperimentRunner, SimPoint
from repro.harness.reporting import format_table

WORKLOAD = "lbm"
SIZES = (8, 16, 32, 64)
MODELS = (ModelKind.NOSQ, ModelKind.DMDP)


def point(model, settings):
    """``WORKLOAD`` under ``model`` with dotted registry settings."""
    return SimPoint(WORKLOAD, ConfigSpec.create(model, settings))


def main():
    runner = ExperimentRunner()
    by_size = {size: point(ModelKind.DMDP,
                           {"core.store_buffer_entries": size})
               for size in SIZES}
    by_consistency = {(consistency, model):
                      point(model, {"core.consistency": consistency})
                      for consistency in ("tso", "rmo") for model in MODELS}
    # One batch resolves both studies' points.
    results = runner.run_batch(list(by_size.values())
                               + list(by_consistency.values()))

    # --- Fig. 14: size sweep under TSO --------------------------------
    rows = []
    base_ipc = results[by_size[16]].ipc
    for size in SIZES:
        result = results[by_size[size]]
        rows.append([size, result.ipc, result.ipc / base_ipc,
                     result.stats.sb_full_stall_cycles,
                     result.stats.reexec_stall_cycles])
    print(format_table(
        ["SB entries", "IPC", "vs 16-entry", "SB-full stalls",
         "re-exec stalls"],
        rows, title="%s: DMDP store-buffer size sweep (TSO)" % WORKLOAD))
    print()
    print("Bigger buffers absorb store-miss bursts (fewer SB-full retire")
    print("stalls); the paper reports lbm gaining the most (Fig. 14).")
    print()

    # --- Section VI-g: TSO vs RMO -------------------------------------
    rows = []
    for (consistency, model), sim_point in by_consistency.items():
        result = results[sim_point]
        rows.append([consistency, model.value, result.ipc,
                     result.stats.sb_full_stall_cycles])
    print(format_table(
        ["consistency", "model", "IPC", "SB-full stalls"],
        rows, title="%s: consistency model comparison" % WORKLOAD))
    print()
    print("RMO drains the buffer out of order, overlapping store misses;")
    print("DMDP's advantage over NoSQ persists under both models")
    print("(paper: +7.67% INT / +4.08% FP under RMO).")


if __name__ == "__main__":
    main()
