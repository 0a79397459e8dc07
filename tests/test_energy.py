"""Unit tests for the event-based energy model."""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.energy import EnergyReport, edp, energy_report
from repro.isa import ProgramBuilder
from repro.kernel import FunctionalCpu
from repro.uarch import EnergyParams, ModelKind, Simulator, model_params
from repro.uarch.stats import SimStats

GOLDEN_STATS = Path(__file__).parent / "golden" / "golden_stats.json"


def stats_with(events, cycles=100):
    stats = SimStats()
    stats.cycles = cycles
    for name, count in events.items():
        stats.energy_event(name, count)
    return stats


class TestEnergyReport:
    def test_total_is_weighted_sum(self):
        params = EnergyParams()
        stats = stats_with({"alu_op": 10, "l1_access": 2})
        report = energy_report(stats, params)
        expected = 10 * params.alu_op + 2 * params.l1_access
        assert report.total == pytest.approx(expected)
        assert report.by_event["alu_op"] == pytest.approx(10 * params.alu_op)

    def test_total_does_not_depend_on_event_order(self):
        """Summed left to right, these costs give 0.6000000000000001 in
        one order and 0.6 in the other."""
        params = EnergyParams(rename=0.1, iq_dispatch=0.2, iq_issue=0.3)
        events = ["rename", "iq_dispatch", "iq_issue"]
        forward = stats_with(dict.fromkeys(events, 1))
        backward = stats_with(dict.fromkeys(reversed(events), 1))
        assert list(forward.energy_events) != list(backward.energy_events)
        assert (energy_report(forward, params).total
                == energy_report(backward, params).total == 0.6)

    def test_default_params(self):
        stats = stats_with({"alu_op": 1})
        assert energy_report(stats).total == EnergyParams().alu_op

    def test_edp_is_energy_times_delay(self):
        stats = stats_with({"alu_op": 5}, cycles=200)
        report = energy_report(stats)
        assert report.edp == pytest.approx(report.total * 200)
        assert edp(stats) == pytest.approx(report.edp)

    def test_unknown_event_rejected(self):
        stats = stats_with({"flux_capacitor": 1})
        with pytest.raises(KeyError):
            energy_report(stats)

    def test_empty_run(self):
        report = energy_report(stats_with({}))
        assert report.total == 0.0
        assert report.edp == 0.0

    def test_normalized_to(self):
        ref = EnergyReport(total=100.0, cycles=50, by_event={})
        new = EnergyReport(total=110.0, cycles=40, by_event={})
        ratios = new.normalized_to(ref)
        assert ratios["energy"] == pytest.approx(1.1)
        assert ratios["delay"] == pytest.approx(0.8)
        assert ratios["edp"] == pytest.approx(1.1 * 0.8)

    def test_normalized_to_zero_reference_is_exact_zero(self):
        """A zero-denominator reference yields exactly 0.0, not NaN/inf.

        Pins each denominator independently: a zero-energy reference can
        still have cycles (and vice versa), and the ratios must stay
        finite so downstream tables and JSON never see NaN."""
        new = EnergyReport(total=110.0, cycles=40, by_event={})
        no_energy = EnergyReport(total=0.0, cycles=50, by_event={})
        ratios = new.normalized_to(no_energy)
        assert ratios["energy"] == 0.0
        assert ratios["delay"] == pytest.approx(0.8)
        assert ratios["edp"] == 0.0  # edp = 0.0 * 50 == 0
        no_cycles = EnergyReport(total=100.0, cycles=0, by_event={})
        ratios = new.normalized_to(no_cycles)
        assert ratios["energy"] == pytest.approx(1.1)
        assert ratios["delay"] == 0.0
        assert ratios["edp"] == 0.0
        empty = EnergyReport(total=0.0, cycles=0, by_event={})
        assert new.normalized_to(empty) == \
            {"energy": 0.0, "delay": 0.0, "edp": 0.0}

    def test_empty_events_exact_zero_semantics(self):
        """No energy events => total/edp exactly 0.0 and by_event empty;
        normalizing the empty report against a real one is exact zero."""
        report = energy_report(stats_with({}, cycles=123))
        assert report.total == 0.0
        assert report.by_event == {}
        assert report.cycles == 123
        assert report.edp == 0.0
        ref = EnergyReport(total=100.0, cycles=50, by_event={})
        ratios = report.normalized_to(ref)
        assert ratios["energy"] == 0.0
        assert ratios["edp"] == 0.0
        assert ratios["delay"] == pytest.approx(123 / 50)

    def test_valid_events_keyed_by_params_type(self):
        """The valid-event cache is per params *class*, so a params-like
        object with extra fields doesn't poison validation for real
        EnergyParams (regression for the module-global frozenset)."""
        from dataclasses import make_dataclass

        Extended = make_dataclass(
            "Extended", [("alu_op", float, 1.0),
                         ("flux_capacitor", float, 2.5)])
        stats = stats_with({"alu_op": 2, "flux_capacitor": 4})
        report = energy_report(stats, Extended())
        assert report.total == pytest.approx(2 * 1.0 + 4 * 2.5)
        # The stock params must still reject the exotic event even
        # though the Extended lookup ran first.
        with pytest.raises(KeyError):
            energy_report(stats, EnergyParams())
        assert energy_report(stats_with({"alu_op": 1})).total == \
            EnergyParams().alu_op

    def test_energy_summary_shape(self):
        from repro.energy import energy_summary

        stats = stats_with({"l1_access": 3, "alu_op": 7}, cycles=40)
        report = energy_report(stats)
        summary = energy_summary(report)
        assert summary["total"] == report.total
        assert summary["edp"] == report.edp
        assert summary["cycles"] == 40
        assert list(summary["by_event"]) == sorted(report.by_event)
        assert summary["by_event"] == report.by_event
        import json
        assert json.loads(json.dumps(summary)) == summary


class TestModelEnergyShape:
    def test_cam_search_dominates_ram_read(self):
        """The EDP comparison rests on CAM searches being far costlier than
        RAM reads (paper's store queue vs T-SSBF argument)."""
        params = EnergyParams()
        assert params.sq_cam_search > 3 * params.tssbf_access
        assert params.lq_cam_search > 3 * params.tssbf_access
        assert params.dram_access > params.l2_access > params.l1_access

    def test_every_energy_cost_is_charged_by_some_event(self):
        """Each EnergyParams cost is a knob ``--set energy.NAME`` accepts;
        one that no event charges changes no result.  The pinned golden
        points charge every event but the multiplier's and the FP
        unit's, so one short program adds those two."""
        with open(GOLDEN_STATS, encoding="utf-8") as handle:
            points = json.load(handle)["points"]
        charged = set()
        for stats in points.values():
            charged.update(stats["energy_events"])
        b = ProgramBuilder()
        b.label("main")
        b.li("$t0", 3)
        b.li("$t1", 5)
        b.mul("$t2", "$t0", "$t1")
        b.fadd("$t3", "$t0", "$t1")
        b.halt()
        program = b.build()
        stats = Simulator(program, FunctionalCpu(program).run_trace(),
                          model_params(ModelKind.DMDP)).run()
        charged.update(stats.energy_events)
        assert charged == {f.name for f in fields(EnergyParams)}
