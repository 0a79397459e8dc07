"""One function per paper figure/table: runs the sweep, returns the data
and a rendered ASCII report with paper-vs-measured columns.

Each experiment names its configurations as ``(model, ablation)`` pairs,
``ablation`` being an entry of :data:`repro.config.ABLATIONS` (None for
the model's defaults), and resolves its whole point set with one
``run_batch``.

Index (see DESIGN.md Section 5):

==========  ==========================================================
fig02       NoSQ load distribution (direct/bypassing/delayed)
fig03       delayed vs bypassing load execution time (NoSQ)
fig05       low-confidence prediction outcome breakdown
fig12       IPC of NoSQ/DMDP/Perfect normalised to baseline
table4      average load execution time, baseline vs DMDP
table5      average low-confidence load execution time, NoSQ vs DMDP
table6      memory dependence MPKI, NoSQ vs DMDP
table7      re-execution retire-stall cycles per 1k instructions
fig14       DMDP speedup with 32/64-entry store buffer over 16-entry
fig15       EDP of DMDP normalised to NoSQ
ablation_*  confidence policy, silent stores, register file, issue
            width, ROB size, RMO consistency
==========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ablation_spec
from ..uarch import LoadKind, LowConfOutcome, ModelKind
from ..workloads import ALL_NAMES, FP_NAMES, INT_NAMES
from . import paper_data
from .parallel import SimPoint
from .reporting import format_table, geomean, percent, suite_geomeans
from .resilience import BatchFailure
from .runner import ExperimentRunner, SimResult

BASELINE, NOSQ, DMDP, PERFECT = (ModelKind.BASELINE, ModelKind.NOSQ,
                                 ModelKind.DMDP, ModelKind.PERFECT)

# A configuration an experiment runs: a model and the name of the
# ABLATIONS entry applied on top of its defaults (None: none).
Config = Tuple[ModelKind, Optional[str]]
Cell = Callable[..., SimResult]


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced figure/table."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List]
    aggregates: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=self.title)]
        if self.aggregates:
            parts.append("")
            for key, value in self.aggregates.items():
                parts.append("  %-36s %s" % (
                    key, "%.3f" % value if isinstance(value, float)
                    else value))
        for note in self.notes:
            parts.append("  note: %s" % note)
        return "\n".join(parts)


def _names(workloads: Optional[Sequence[str]]) -> List[str]:
    return list(workloads) if workloads is not None else list(ALL_NAMES)


def _suite_split(names: Sequence[str]):
    return ([n for n in names if n in INT_NAMES],
            [n for n in names if n in FP_NAMES])


def _resolve(runner: ExperimentRunner, names: Sequence[str],
             configs: Sequence[Config]) -> Cell:
    """Resolve one experiment's whole point set in one batch.

    The point set is ``names`` x ``configs``.  Returns ``cell(workload,
    model, ablation=None)``, the result of one point.  A point the batch
    left unresolved (under ``keep_going``) raises :class:`BatchFailure`
    here: a table with a missing cell cannot render.
    """
    points = {(name, model, ablation):
              SimPoint(name, ablation_spec(ablation, model))
              for name in names for model, ablation in configs}
    resolved = runner.run_batch(points.values())
    missing = set(points.values()).difference(resolved)
    if missing:
        raise BatchFailure([failure for failure in runner.failure_log
                            if failure.point in missing])

    def cell(name: str, model: ModelKind,
             ablation: Optional[str] = None) -> SimResult:
        return resolved[points[name, model, ablation]]
    return cell


def _suite_gain(aggregates: Dict[str, float], prefix: str,
                ratios: Dict[str, float], names: Sequence[str],
                sign: float = 1.0) -> None:
    """Record the INT and FP geomeans of ``ratios`` as percent gains,
    under ``"<prefix> INT (%)"`` and ``"<prefix> FP (%)"``."""
    for suite, members in zip(("INT", "FP"), _suite_split(names)):
        if members:
            aggregates["%s %s (%%)" % (prefix, suite)] = sign * percent(
                geomean([ratios[n] for n in members]))


def _dmdp_over_nosq(cell: Cell, names: Sequence[str],
                    ablation: Optional[str] = None) -> Dict[str, float]:
    """Per-workload DMDP/NoSQ IPC ratio under one configuration."""
    return {name: cell(name, DMDP, ablation).ipc
            / cell(name, NOSQ, ablation).ipc for name in names}


def _gain_pair(runner: ExperimentRunner, names: Sequence[str],
               ablation: str, labels: Sequence[str]):
    """DMDP over NoSQ at the defaults and under ``ablation``: the shared
    body of the Section VI-g ablations.  Returns the cell lookup, the
    per-workload rows and the suite-gain aggregates."""
    cell = _resolve(runner, names, [(model, config)
                                    for config in (None, ablation)
                                    for model in (NOSQ, DMDP)])
    ratios = [_dmdp_over_nosq(cell, names, config)
              for config in (None, ablation)]
    aggregates: Dict[str, float] = {}
    for label, by_name in zip(labels, ratios):
        _suite_gain(aggregates, "%s dmdp/nosq" % label, by_name, names)
    rows = [[name, ratios[0][name], ratios[1][name]] for name in names]
    return cell, rows, aggregates


# ---------------------------------------------------------------------------
# Motivation figures.
# ---------------------------------------------------------------------------

def fig02_load_distribution(runner: ExperimentRunner,
                            workloads: Optional[Sequence[str]] = None
                            ) -> ExperimentResult:
    """Paper Fig. 2: how NoSQ loads obtain their values."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None)])
    rows = []
    high_delay = []
    for name in names:
        stats = cell(name, NOSQ).stats
        dist = stats.load_distribution()
        delayed = dist[LoadKind.DELAYED.value]
        rows.append([name, dist[LoadKind.DIRECT.value],
                     dist[LoadKind.BYPASS.value], delayed])
        if delayed > 0.10:
            high_delay.append(name)
    return ExperimentResult(
        exp_id="fig02",
        title="Fig. 2 -- NoSQ load distribution (fraction of all loads)",
        headers=["workload", "direct", "bypassing", "delayed"],
        rows=rows,
        aggregates={">10% delayed": ", ".join(high_delay) or "(none)"},
        notes=["paper: bzip2, gcc, mcf, hmmer, h264ref and astar exceed "
               "10% delayed loads"])


def fig03_delayed_vs_bypassing(runner: ExperimentRunner,
                               workloads: Optional[Sequence[str]] = None
                               ) -> ExperimentResult:
    """Paper Fig. 3: delayed loads take far longer than bypassing loads."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None)])
    rows = []
    ratios = []
    for name in names:
        stats = cell(name, NOSQ).stats
        delayed = stats.avg_load_exec_time_by_kind(LoadKind.DELAYED)
        bypass = stats.avg_load_exec_time_by_kind(LoadKind.BYPASS)
        if delayed is None or bypass is None or bypass == 0:
            rows.append([name, delayed or 0.0, bypass or 0.0, "n/a"])
            continue
        ratio = delayed / bypass
        ratios.append(ratio)
        rows.append([name, delayed, bypass, "%.2f" % ratio])
    aggregates = {}
    if ratios:
        aggregates["mean delayed/bypassing ratio"] = \
            sum(ratios) / len(ratios)
    return ExperimentResult(
        exp_id="fig03",
        title="Fig. 3 -- delayed vs bypassing load execution time (NoSQ)",
        headers=["workload", "delayed(cyc)", "bypassing(cyc)", "ratio"],
        rows=rows, aggregates=aggregates,
        notes=["paper: delayed loads run ~%.0fx longer overall"
               % paper_data.AGGREGATE_CLAIMS["delayed_vs_bypass_ratio"]])


def fig05_lowconf_breakdown(runner: ExperimentRunner,
                            workloads: Optional[Sequence[str]] = None
                            ) -> ExperimentResult:
    """Paper Fig. 5: outcomes of low-confidence dependence predictions."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None)])
    rows = []
    total = {k: 0 for k in LowConfOutcome}
    for name in names:
        stats = cell(name, NOSQ).stats
        counts = {k: stats.lowconf_outcome.get(k, 0) for k in LowConfOutcome}
        n = max(1, sum(counts.values()))
        for k in LowConfOutcome:
            total[k] += counts[k]
        rows.append([name,
                     counts[LowConfOutcome.INDEP_STORE] / n,
                     counts[LowConfOutcome.DIFF_STORE] / n,
                     counts[LowConfOutcome.CORRECT] / n,
                     sum(counts.values())])
    grand = max(1, sum(total.values()))
    # A naive design (treat low-confidence as independent) mispredicts
    # DiffStore + Correct; DMDP's predication only mispredicts DiffStore.
    naive_rate = 100.0 * (total[LowConfOutcome.DIFF_STORE]
                          + total[LowConfOutcome.CORRECT]) / grand
    dmdp_rate = 100.0 * total[LowConfOutcome.DIFF_STORE] / grand
    return ExperimentResult(
        exp_id="fig05",
        title="Fig. 5 -- low-confidence prediction outcomes (NoSQ, fractions)",
        headers=["workload", "IndepStore", "DiffStore", "Correct", "count"],
        rows=rows,
        aggregates={
            "naive misprediction rate (%)": naive_rate,
            "DMDP-covered misprediction rate (%)": dmdp_rate,
        },
        notes=["paper: naive 11.4%, DMDP 3.7%; IndepStore dominates "
               "every benchmark"])


# ---------------------------------------------------------------------------
# Headline results.
# ---------------------------------------------------------------------------

def fig12_speedup(runner: ExperimentRunner,
                  workloads: Optional[Sequence[str]] = None
                  ) -> ExperimentResult:
    """Paper Fig. 12: IPC normalised to the baseline."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(model, None) for model in
                                    (BASELINE, NOSQ, DMDP, PERFECT)])
    int_names, fp_names = _suite_split(names)
    per_model: Dict[ModelKind, Dict[str, float]] = {}
    rows = []
    for name in names:
        base = cell(name, BASELINE).ipc
        row = [name]
        for model in (NOSQ, DMDP, PERFECT):
            ratio = cell(name, model).ipc / base
            per_model.setdefault(model, {})[name] = ratio
            row.append(ratio)
        rows.append(row)

    aggregates = {}
    for model in (NOSQ, DMDP, PERFECT):
        means = suite_geomeans(per_model[model], int_names, fp_names)
        if int_names:
            aggregates["%s geomean INT" % model.value] = means["int"]
        if fp_names:
            aggregates["%s geomean FP" % model.value] = means["fp"]
    _suite_gain(aggregates, "dmdp over nosq",
                {n: per_model[DMDP][n] / per_model[NOSQ][n] for n in names},
                names)
    paper = paper_data.FIG12_GEOMEAN_IPC
    return ExperimentResult(
        exp_id="fig12",
        title="Fig. 12 -- IPC normalised to baseline",
        headers=["workload", "nosq", "dmdp", "perfect"],
        rows=rows, aggregates=aggregates,
        notes=["paper geomeans INT: nosq %.3f dmdp %.3f perfect %.3f"
               % paper["int"],
               "paper geomeans FP:  nosq %.3f dmdp %.3f perfect %.3f"
               % paper["fp"],
               "paper: DMDP over NoSQ +%.2f%% INT, +%.2f%% FP"
               % (paper_data.AGGREGATE_CLAIMS["dmdp_over_nosq_int"],
                  paper_data.AGGREGATE_CLAIMS["dmdp_over_nosq_fp"])])


def table4_load_exec_time(runner: ExperimentRunner,
                          workloads: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Paper Table IV: average execution time of all loads."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(BASELINE, None), (DMDP, None)])
    rows = []
    base_sum = dmdp_sum = 0.0
    for name in names:
        base = cell(name, BASELINE).stats.avg_load_exec_time
        dmdp = cell(name, DMDP).stats.avg_load_exec_time
        base_sum += base
        dmdp_sum += dmdp
        paper = paper_data.TABLE4_LOAD_EXEC_TIME.get(name, (None, None))
        rows.append([name, base, dmdp,
                     "%.2f" % paper[0] if paper[0] else "-",
                     "%.2f" % paper[1] if paper[1] else "-"])
    n = max(1, len(names))
    return ExperimentResult(
        exp_id="table4",
        title="Table IV -- average load execution time (cycles)",
        headers=["workload", "baseline", "dmdp",
                 "paper-baseline", "paper-dmdp"],
        rows=rows,
        aggregates={
            "measured average baseline": base_sum / n,
            "measured average dmdp": dmdp_sum / n,
            "measured saving (%)": 100.0 * (1 - dmdp_sum / base_sum)
            if base_sum else 0.0,
        },
        notes=["paper averages: baseline %.2f, DMDP %.2f (>20%% saving)"
               % paper_data.TABLE4_AVERAGE])


def table5_lowconf_exec_time(runner: ExperimentRunner,
                             workloads: Optional[Sequence[str]] = None
                             ) -> ExperimentResult:
    """Paper Table V: low-confidence load execution time, NoSQ vs DMDP."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None), (DMDP, None)])
    rows = []
    savings = []
    for name in names:
        nosq = cell(name, NOSQ).stats
        dmdp = cell(name, DMDP).stats
        n_t = nosq.avg_lowconf_exec_time
        d_t = dmdp.avg_lowconf_exec_time
        if nosq.lowconf_loads < 5 or dmdp.lowconf_loads < 5:
            rows.append([name, n_t, d_t, "n/a (few low-conf loads)"])
            continue
        saving = 100.0 * (1 - d_t / n_t) if n_t else 0.0
        savings.append(saving)
        rows.append([name, n_t, d_t, "%.1f%%" % saving])
    aggregates = {}
    if savings:
        aggregates["average saving (%)"] = sum(savings) / len(savings)
        aggregates["max saving (%)"] = max(savings)
    return ExperimentResult(
        exp_id="table5",
        title="Table V -- low-confidence load execution time (cycles)",
        headers=["workload", "nosq", "dmdp", "saving"],
        rows=rows, aggregates=aggregates,
        notes=["paper: average saving 54.48%, max 79.25%; lib is "
               "unrepresentative (too few low-confidence loads)"])


def table6_mpki(runner: ExperimentRunner,
                workloads: Optional[Sequence[str]] = None
                ) -> ExperimentResult:
    """Paper Table VI: memory dependence mispredictions per 1k insns."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None), (DMDP, None)])
    rows = []
    for name in names:
        nosq = cell(name, NOSQ).stats.dep_mpki
        dmdp = cell(name, DMDP).stats.dep_mpki
        rows.append([name, nosq, dmdp])
    return ExperimentResult(
        exp_id="table6",
        title="Table VI -- memory dependence MPKI",
        headers=["workload", "nosq", "dmdp"],
        rows=rows,
        aggregates={
            "mean nosq": sum(r[1] for r in rows) / max(1, len(rows)),
            "mean dmdp": sum(r[2] for r in rows) / max(1, len(rows)),
        },
        notes=["paper: DMDP usually lower (hmmer 3.06 -> 1.03) except "
               "bzip2, where varying store distance doubles DMDP's rate"])


def table7_reexec_stalls(runner: ExperimentRunner,
                         workloads: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Paper Table VII: retire-stall cycles per 1k committed instructions."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None), (DMDP, None)])
    rows = []
    for name in names:
        nosq = cell(name, NOSQ).stats
        dmdp = cell(name, DMDP).stats
        rows.append([name, nosq.reexec_stalls_per_kilo,
                     dmdp.reexec_stalls_per_kilo,
                     nosq.reexecutions, dmdp.reexecutions])
    return ExperimentResult(
        exp_id="table7",
        title="Table VII -- load re-execution retire stalls per 1k insns",
        headers=["workload", "nosq stalls/k", "dmdp stalls/k",
                 "nosq reexec", "dmdp reexec"],
        rows=rows,
        notes=["paper: DMDP stalls more in every benchmark (its early "
               "loads have a wider vulnerability window); lbm worst"])


# ---------------------------------------------------------------------------
# Sensitivity studies.
# ---------------------------------------------------------------------------

def fig14_store_buffer(runner: ExperimentRunner,
                       workloads: Optional[Sequence[str]] = None
                       ) -> ExperimentResult:
    """Paper Fig. 14: DMDP IPC with 32/64-entry SB over a 16-entry SB."""
    names = _names(workloads)
    sizes = {16: None, 32: "store_buffer_32", 64: "store_buffer_64"}
    cell = _resolve(runner, names,
                    [(DMDP, ablation) for ablation in sizes.values()])
    rows = []
    ratio32: Dict[str, float] = {}
    ratio64: Dict[str, float] = {}
    stalls = {16: 0.0, 32: 0.0, 64: 0.0}
    for name in names:
        runs = {size: cell(name, DMDP, ablation)
                for size, ablation in sizes.items()}
        base = runs[16].ipc
        ratio32[name] = runs[32].ipc / base
        ratio64[name] = runs[64].ipc / base
        for size in (16, 32, 64):
            stalls[size] += runs[size].stats.sb_full_stall_cycles * 1000.0 \
                / max(1, runs[size].stats.instructions)
        rows.append([name, ratio32[name], ratio64[name]])
    aggregates = {}
    for label, ratios in (("32-entry", ratio32), ("64-entry", ratio64)):
        _suite_gain(aggregates, "%s speedup" % label, ratios, names)
    n = max(1, len(names))
    for size in (16, 32, 64):
        aggregates["SB-full stalls/k (%d)" % size] = stalls[size] / n
    return ExperimentResult(
        exp_id="fig14",
        title="Fig. 14 -- DMDP speedup of 32/64-entry SB over 16-entry",
        headers=["workload", "32/16", "64/16"],
        rows=rows, aggregates=aggregates,
        notes=["paper: 32-entry +2.07% INT / +3.81% FP; 64-entry "
               "+2.77% INT / +5.01% FP; lbm benefits most",
               "paper SB-full stalls/k: 503.1 (16), 220.5 (32), 75.0 (64)"])


def fig15_edp(runner: ExperimentRunner,
              workloads: Optional[Sequence[str]] = None
              ) -> ExperimentResult:
    """Paper Fig. 15: DMDP energy-delay product normalised to NoSQ."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(NOSQ, None), (DMDP, None)])
    rows = []
    edp_ratio: Dict[str, float] = {}
    for name in names:
        nosq = cell(name, NOSQ)
        dmdp = cell(name, DMDP)
        ratios = dmdp.energy.normalized_to(nosq.energy)
        edp_ratio[name] = ratios["edp"]
        rows.append([name, ratios["energy"], ratios["delay"], ratios["edp"]])
    aggregates = {}
    _suite_gain(aggregates, "EDP saving", edp_ratio, names, sign=-1.0)
    return ExperimentResult(
        exp_id="fig15",
        title="Fig. 15 -- DMDP energy / delay / EDP normalised to NoSQ",
        headers=["workload", "energy", "delay", "EDP"],
        rows=rows, aggregates=aggregates,
        notes=["paper: DMDP saves 8.5% (INT) and 5.1% (FP) EDP; energy "
               "slightly up from predication, delay down everywhere"])


def ablation_issue_width(runner: ExperimentRunner,
                         workloads: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Paper Section VI-g: 4-wide core shrinks the DMDP-over-NoSQ gain."""
    names = _names(workloads)
    cell, rows, aggregates = _gain_pair(runner, names, "narrow_width_4",
                                        ("8-issue", "4-issue"))
    lowconf8 = sum(cell(n, DMDP).stats.lowconf_loads for n in names)
    lowconf4 = sum(cell(n, DMDP, "narrow_width_4").stats.lowconf_loads
                   for n in names)
    if lowconf8:
        aggregates["low-conf load drop at 4-issue (%)"] = \
            100.0 * (1 - lowconf4 / lowconf8)
    return ExperimentResult(
        exp_id="ablation_issue_width",
        title="Section VI-g -- DMDP over NoSQ at 8-issue vs 4-issue",
        headers=["workload", "8-issue dmdp/nosq", "4-issue dmdp/nosq"],
        rows=rows, aggregates=aggregates,
        notes=["paper: gain shrinks to +4.56% INT / +2.41% FP at 4-issue; "
               "23.4% of low-confidence loads disappear"])


def ablation_rob(runner: ExperimentRunner,
                 workloads: Optional[Sequence[str]] = None
                 ) -> ExperimentResult:
    """Paper Section VI-g: a 512-entry ROB increases the DMDP gain."""
    _, rows, aggregates = _gain_pair(runner, _names(workloads), "rob_512",
                                     ("256 ROB", "512 ROB"))
    return ExperimentResult(
        exp_id="ablation_rob",
        title="Section VI-g -- DMDP over NoSQ, 256 vs 512-entry ROB",
        headers=["workload", "256-ROB dmdp/nosq", "512-ROB dmdp/nosq"],
        rows=rows, aggregates=aggregates,
        notes=["paper: 512-entry ROB raises the gain to +7.56% INT / "
               "+6.35% FP (longer-distance communication)"])


def ablation_rmo(runner: ExperimentRunner,
                 workloads: Optional[Sequence[str]] = None
                 ) -> ExperimentResult:
    """Paper Section VI-g: the gain persists under RMO consistency."""
    _, rows, aggregates = _gain_pair(runner, _names(workloads), "rmo",
                                     ("TSO", "RMO"))
    return ExperimentResult(
        exp_id="ablation_rmo",
        title="Section VI-g -- DMDP over NoSQ under TSO vs RMO",
        headers=["workload", "TSO dmdp/nosq", "RMO dmdp/nosq"],
        rows=rows, aggregates=aggregates,
        notes=["paper: +7.67% INT / +4.08% FP under RMO"])


def ablation_regfile(runner: ExperimentRunner,
                     workloads: Optional[Sequence[str]] = None
                     ) -> ExperimentResult:
    """Paper Section VI-f: halving the register file trims the DMDP gain."""
    names = _names(workloads)
    regfiles = {320: None, 160: "pregs_160"}
    cell = _resolve(runner, names, [(model, ablation)
                                    for model in (BASELINE, DMDP)
                                    for ablation in regfiles.values()])
    rows = []
    gains = {320: [], 160: []}
    for name in names:
        row = [name]
        for pregs, ablation in regfiles.items():
            base = cell(name, BASELINE, ablation).ipc
            dmdp = cell(name, DMDP, ablation).ipc
            ratio = dmdp / base
            gains[pregs].append(ratio)
            row.append(ratio)
        rows.append(row)
    aggregates = {
        "dmdp over baseline, 320 pregs (%)": percent(geomean(gains[320])),
        "dmdp over baseline, 160 pregs (%)": percent(geomean(gains[160])),
    }
    return ExperimentResult(
        exp_id="ablation_regfile",
        title="Section VI-f -- register file pressure (DMDP vs baseline)",
        headers=["workload", "320 pregs", "160 pregs"],
        rows=rows, aggregates=aggregates,
        notes=["paper: overall gain drops from +4.94% to +4.24% when the "
               "register file is halved (320 -> 160)"])


def ablation_confidence(runner: ExperimentRunner,
                        workloads: Optional[Sequence[str]] = None
                        ) -> ExperimentResult:
    """Paper Section IV-E: biased (divide-by-2) vs balanced (-1) update."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(DMDP, None),
                                    (DMDP, "balanced_confidence")])
    rows = []
    for name in names:
        biased = cell(name, DMDP).stats
        balanced = cell(name, DMDP, "balanced_confidence").stats
        rows.append([name, biased.dep_mpki, balanced.dep_mpki,
                     biased.predicated_loads, balanced.predicated_loads])
    n = max(1, len(rows))
    return ExperimentResult(
        exp_id="ablation_confidence",
        title="Section IV-E -- biased vs balanced confidence update (DMDP)",
        headers=["workload", "biased MPKI", "balanced MPKI",
                 "biased #pred", "balanced #pred"],
        rows=rows,
        aggregates={
            "mean MPKI biased": sum(r[1] for r in rows) / n,
            "mean MPKI balanced": sum(r[2] for r in rows) / n,
        },
        notes=["paper: the biased policy trades more predications for "
               "fewer full-recovery mispredictions"])


def ablation_silent_store(runner: ExperimentRunner,
                          workloads: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Paper Section IV-C.a / VI-a: silent-store-aware predictor updates."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(DMDP, None),
                                    (DMDP, "silent_store_unaware")])
    rows = []
    for name in names:
        aware = cell(name, DMDP).stats
        naive = cell(name, DMDP, "silent_store_unaware").stats
        rows.append([name, aware.reexecutions, naive.reexecutions,
                     aware.dep_mpki, naive.dep_mpki,
                     aware.ipc / naive.ipc if naive.ipc else 0.0])
    return ExperimentResult(
        exp_id="ablation_silent_store",
        title="Section IV-C.a -- silent-store-aware predictor update (DMDP)",
        headers=["workload", "aware reexec", "naive reexec",
                 "aware MPKI", "naive MPKI", "aware/naive IPC"],
        rows=rows,
        notes=["paper: the aware policy slashes re-executions but can add "
               "mispredictions (the hmmer double-edged sword)"])


def ext_tage_predictor(runner: ExperimentRunner,
                       workloads: Optional[Sequence[str]] = None
                       ) -> ExperimentResult:
    """Extension (paper Section VII): a TAGE-structured store distance
    predictor, as suggested for Perais & Seznec's distance predictor."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(DMDP, None), (DMDP, "tage_distance")])
    rows = []
    ratios = {}
    for name in names:
        base = cell(name, DMDP).stats
        tage = cell(name, DMDP, "tage_distance").stats
        ratios[name] = tage.ipc / base.ipc if base.ipc else 0.0
        rows.append([name, base.ipc, tage.ipc, ratios[name],
                     base.dep_mpki, tage.dep_mpki])
    aggregates = {}
    _suite_gain(aggregates, "tage/base IPC", ratios, names)
    return ExperimentResult(
        exp_id="ext_tage",
        title="Extension -- TAGE-structured store distance predictor (DMDP)",
        headers=["workload", "base IPC", "TAGE IPC", "ratio",
                 "base MPKI", "TAGE MPKI"],
        rows=rows, aggregates=aggregates,
        notes=["paper Section VII: a TAGE-like predictor 'could also be "
               "tuned as a Store Distance Predictor and adopted to DMDP'"])


def ext_untagged_ssbf(runner: ExperimentRunner,
                      workloads: Optional[Sequence[str]] = None
                      ) -> ExperimentResult:
    """Ablation: the tagged SSBF vs Roth's original untagged filter."""
    names = _names(workloads)
    cell = _resolve(runner, names, [(DMDP, None), (DMDP, "untagged_ssbf")])
    rows = []
    tagged_rx = untagged_rx = 0
    for name in names:
        tagged = cell(name, DMDP).stats
        untagged = cell(name, DMDP, "untagged_ssbf").stats
        tagged_rx += tagged.reexecutions
        untagged_rx += untagged.reexecutions
        rows.append([name, tagged.reexecutions, untagged.reexecutions,
                     tagged.ipc, untagged.ipc])
    return ExperimentResult(
        exp_id="ext_untagged_ssbf",
        title="Ablation -- tagged vs untagged store sequence bloom filter",
        headers=["workload", "tagged reexec", "untagged reexec",
                 "tagged IPC", "untagged IPC"],
        rows=rows,
        aggregates={"total reexec tagged": float(tagged_rx),
                    "total reexec untagged": float(untagged_rx)},
        notes=["the tag bits exist to filter the false re-executions an "
               "untagged (aliasing) filter produces (NoSQ paper, Sec. IV)"])


ALL_EXPERIMENTS = {
    "fig02": fig02_load_distribution,
    "fig03": fig03_delayed_vs_bypassing,
    "fig05": fig05_lowconf_breakdown,
    "fig12": fig12_speedup,
    "table4": table4_load_exec_time,
    "table5": table5_lowconf_exec_time,
    "table6": table6_mpki,
    "table7": table7_reexec_stalls,
    "fig14": fig14_store_buffer,
    "fig15": fig15_edp,
    "ablation_issue_width": ablation_issue_width,
    "ablation_rob": ablation_rob,
    "ablation_rmo": ablation_rmo,
    "ablation_regfile": ablation_regfile,
    "ablation_confidence": ablation_confidence,
    "ablation_silent_store": ablation_silent_store,
    "ext_tage": ext_tage_predictor,
    "ext_untagged_ssbf": ext_untagged_ssbf,
}
