"""Integration tests: tracing must observe, never perturb.

Covers the two headline guarantees of the observability subsystem:

* attaching any tracer leaves simulated statistics byte-identical
  (read-only observer contract), and
* the recorded trace faithfully renders microarchitectural behaviour --
  including the DMDP four-uop predication sequence (LW/CMP/CMOV/CMOV)
  with per-uop stage timestamps in the Konata export.
"""

import io

import pytest

from repro.kernel import FunctionalCpu
from repro.obs.konata import parse_konata, write_konata
from repro.obs.tracer import EventKind, MetricsTracer, RecordingTracer
from repro.uarch import ModelKind, SquashCause, model_params
from repro.uarch.pipeline import Simulator
from repro.workloads import get_workload

ALL = list(ModelKind)


def build(workload, scale):
    spec = get_workload(workload)
    program = spec.build(spec.iterations(scale))
    trace = FunctionalCpu(program).run_trace(max_instructions=5_000_000)
    return program, trace


@pytest.fixture(scope="module")
def perl():
    return build("perl", 0.15)


@pytest.fixture(scope="module")
def perl_stats(perl):
    program, trace = perl
    return {model: Simulator(program, trace, model_params(model)).run()
            for model in ALL}


class TestTracingIsPure:
    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.value)
    def test_recording_tracer_does_not_perturb_stats(self, perl,
                                                     perl_stats, model):
        program, trace = perl
        traced = Simulator(program, trace, model_params(model),
                           tracer=RecordingTracer()).run()
        assert traced.to_dict() == perl_stats[model].to_dict()

    def test_metrics_tracer_does_not_perturb_stats(self, perl, perl_stats):
        program, trace = perl
        traced = Simulator(program, trace, model_params(ModelKind.DMDP),
                           tracer=MetricsTracer()).run()
        assert traced.to_dict() == perl_stats[ModelKind.DMDP].to_dict()


class TestSquashCauseAccounting:
    """Branch and memory-dependence recovery must be separable per model."""

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.value)
    def test_mem_dep_squashes_equal_dep_mispredictions(self, perl_stats,
                                                       model):
        stats = perl_stats[model]
        assert (stats.squash_causes[SquashCause.MEM_DEP_VIOLATION]
                == stats.dep_mispredictions)

    @pytest.mark.parametrize("model", ALL, ids=lambda m: m.value)
    def test_branch_redirects_cover_retired_mispredicts(self, perl_stats,
                                                        model):
        # Post-squash replay can redirect the same branch more than once,
        # so the cause counter is a superset of retired mispredicts.
        stats = perl_stats[model]
        assert (stats.squash_causes[SquashCause.BRANCH_MISPREDICT]
                >= stats.branch_mispredicts > 0)

    def test_perfect_model_never_violates(self, perl_stats):
        stats = perl_stats[ModelKind.PERFECT]
        assert stats.squash_causes[SquashCause.MEM_DEP_VIOLATION] == 0

    def test_causes_serialise_with_enum_values(self, perl_stats):
        image = perl_stats[ModelKind.DMDP].to_dict()["squash_causes"]
        assert set(image) <= {"branch_mispredict", "mem_dep_violation"}
        assert image["branch_mispredict"] > 0

    def test_trace_events_match_stats(self, perl):
        program, trace = perl
        tracer = RecordingTracer()
        stats = Simulator(program, trace, model_params(ModelKind.DMDP),
                          tracer=tracer).run()
        squashes = [e for e in tracer.events
                    if e.kind is EventKind.SQUASH]
        redirects = [e for e in tracer.events
                     if e.kind is EventKind.REDIRECT]
        assert len(squashes) == stats.dep_mispredictions
        assert all(e.data["cause"] == "mem_dep_violation"
                   for e in squashes)
        assert (len(redirects)
                == stats.squash_causes[SquashCause.BRANCH_MISPREDICT])


class TestKonataPredicationSequence:
    """Acceptance: the demo trace renders the DMDP predication uops."""

    @pytest.fixture(scope="class")
    def konata(self, perl):
        program, trace = perl
        tracer = RecordingTracer()
        stats = Simulator(program, trace, model_params(ModelKind.DMDP),
                          tracer=tracer).run()
        assert stats.predicated_loads > 0, "demo workload lost predication"
        buffer = io.StringIO()
        write_konata(tracer.events, buffer)
        buffer.seek(0)
        return tracer.events, parse_konata(buffer), stats

    @staticmethod
    def _incarnations(records):
        """Group rows into per-incarnation runs (a refetched instruction
        gets fresh, consecutive row ids at its new rename)."""
        groups = []
        for record in sorted(records.values(), key=lambda r: r.rid):
            if (groups and groups[-1][-1].rid == record.rid - 1
                    and groups[-1][-1].instr_id == record.instr_id):
                groups[-1].append(record)
            else:
                groups.append([record])
        return groups

    def test_predicated_load_renders_four_uop_sequence(self, konata):
        events, records, _ = konata
        predicated = {e.index for e in events
                      if e.kind is EventKind.PREDICATION}
        assert predicated
        checked = 0
        for rows in self._incarnations(records):
            if rows[0].instr_id not in predicated:
                continue
            if "load=predicated" not in rows[0].detail:
                continue  # a refetched incarnation may crack differently
            kinds = [r.detail.split("(")[1].split(")")[0]
                     for r in rows if "uop=" in r.detail]
            # AGI computes the address, then the paper's LW/CMP/CMOV/CMOV.
            assert kinds[-4:] == ["load", "cmp", "cmov", "cmov"], kinds
            assert any("predicated(" in r.detail for r in rows)
            checked += 1
        assert checked > 0

    def test_predication_rows_have_correct_stage_timestamps(self, konata):
        events, records, _ = konata
        issue = {e.uop: e.cycle for e in events
                 if e.kind is EventKind.ISSUE}
        wb = {e.uop: e.cycle for e in events
              if e.kind is EventKind.WRITEBACK}
        rename = {}
        for e in events:
            if e.kind is EventKind.RENAME:
                for seq, _kind in e.data["uops"]:
                    rename[seq] = e.cycle
        predicated = {e.index for e in events
                      if e.kind is EventKind.PREDICATION}
        checked = 0
        for record in records.values():
            if record.instr_id not in predicated:
                continue
            if "uop=" not in record.detail or "Ex" not in record.stages:
                continue
            seq = int(record.detail.split("uop=")[1].split("(")[0])
            if seq not in wb:
                continue  # flushed before writeback
            start, end = record.stages["Ex"]
            assert start == issue[seq]
            assert end == max(wb[seq], issue[seq] + 1)
            assert record.stages["Rn"] == (rename[seq], rename[seq] + 1)
            checked += 1
        assert checked >= 4

    def test_retired_predicated_loads_commit_in_order(self, konata):
        _, records, stats = konata
        retired = [r for r in records.values()
                   if r.retire_cycle is not None]
        assert len(retired) >= stats.instructions
        cycles = [r.retire_cycle for r in
                  sorted(retired, key=lambda r: r.rid)]
        assert cycles == sorted(cycles)
