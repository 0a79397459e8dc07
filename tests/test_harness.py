"""Tests for the experiment runner, reporting, and experiment functions."""

import pytest

from repro.config import ABLATIONS, ConfigSpec, ablation_spec
from repro.harness import (
    ExperimentRunner,
    SimPoint,
    format_table,
    geomean,
    make_point,
    paper_data,
    percent,
)
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    fig02_load_distribution,
    fig12_speedup,
    table6_mpki,
)
from repro.uarch import ModelKind

SMALL = ["bzip2", "tonto"]   # one INT + one FP keeps experiments fast


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=0.15)


class TestRunner:
    def test_results_are_memoised(self, runner):
        first = runner.run("bzip2", ModelKind.NOSQ)
        second = runner.run("bzip2", ModelKind.NOSQ)
        assert first is second

    def test_overrides_create_new_cache_entries(self, runner):
        base = runner.run("bzip2", ModelKind.DMDP)
        point = SimPoint("bzip2",
                         ablation_spec("store_buffer_64", ModelKind.DMDP))
        other = runner.run_batch([point])[point]
        assert base is not other
        assert other.stats.cycles != 0

    def test_trace_cached_per_workload(self, runner):
        assert runner.trace("bzip2") is runner.trace("bzip2")

    def test_scale_factor_shrinks_traces(self):
        small = ExperimentRunner(scale=0.05)
        big = ExperimentRunner(scale=0.2)
        assert len(small.trace("perl")) < len(big.trace("perl"))

    def test_result_contains_energy(self, runner):
        result = runner.run("bzip2", ModelKind.BASELINE)
        assert result.energy.total > 0
        assert result.energy.edp > 0

    def test_run_suite(self, runner):
        results = runner.run_suite(ConfigSpec.create(ModelKind.NOSQ),
                                   workloads=SMALL)
        assert set(results) == set(SMALL)


class TestRunnerObservability:
    def test_run_traced_matches_untraced_stats(self, runner):
        from repro.obs import MetricsTracer, RecordingTracer
        plain = runner.run("bzip2", ModelKind.DMDP)
        point = make_point("bzip2", ModelKind.DMDP)
        tracer = RecordingTracer()
        traced = runner.run_traced(point, tracer)
        assert tracer.events
        assert traced.stats.to_dict() == plain.stats.to_dict()
        metrics = MetricsTracer()
        measured = runner.run_traced(point, metrics)
        assert measured.stats.to_dict() == plain.stats.to_dict()
        assert (metrics.report()["retired_instructions"]
                == measured.stats.instructions)
        assert any(p.source == "sim" for p in runner.point_log)


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.0]) == 1.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_percent(self):
        assert percent(1.0717) == pytest.approx(7.17)
        assert percent(0.95) == pytest.approx(-5.0)

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1.5, "x"], [2.25, "yy"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text and "yy" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert text.splitlines()[0].split() == ["a", "b"]

    def test_format_table_ragged_rows_padded(self):
        text = format_table(["a", "b"], [[1], [1, 2, 3]])
        lines = text.splitlines()
        widths = {len(line.split()) for line in lines[2:]}
        assert widths == {3}   # short row padded, header row widened

    def test_format_table_none_and_nonnumeric_cells(self):
        text = format_table(["x", "y"], [[None, object()], [True, 1.25]])
        assert "-" in text and "True" in text and "1.250" in text

    def test_format_run_report_empty(self):
        from repro.harness.reporting import format_run_report
        assert format_run_report([]) == "no points resolved"
        assert format_run_report(None, None) == "no points resolved"


class TestExperiments:
    def test_fig02_structure(self, runner):
        result = fig02_load_distribution(runner, workloads=SMALL)
        assert result.exp_id == "fig02"
        assert len(result.rows) == len(SMALL)
        for row in result.rows:
            fractions = row[1:4]
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert sum(fractions) <= 1.0 + 1e-9

    def test_fig12_structure(self, runner):
        result = fig12_speedup(runner, workloads=SMALL)
        assert len(result.rows) == len(SMALL)
        assert "dmdp geomean INT" in result.aggregates
        rendered = result.render()
        assert "Fig. 12" in rendered
        assert "bzip2" in rendered

    def test_table6_structure(self, runner):
        result = table6_mpki(runner, workloads=SMALL)
        for row in result.rows:
            assert row[1] >= 0 and row[2] >= 0

    def test_each_experiment_is_one_batch_over_the_ablations(
            self, monkeypatch):
        """Every experiment resolves its whole point set in one
        run_batch, and every ABLATIONS entry is some experiment's
        configuration."""
        batches = []
        real = ExperimentRunner.run_batch

        def record(self, points):
            batches.append(list(points))
            return real(self, batches[-1])

        monkeypatch.setattr(ExperimentRunner, "run_batch", record)
        fresh = ExperimentRunner(scale=0.05, use_cache=False)
        for exp_id, experiment in ALL_EXPERIMENTS.items():
            before = len(batches)
            experiment(fresh, workloads=["tonto"])
            assert len(batches) == before + 1, exp_id
        specs = {point.spec for batch in batches for point in batch}
        for name in ABLATIONS:
            assert any(ablation_spec(name, model) in specs
                       for model in ModelKind), name

    def test_registry_covers_every_paper_artifact(self):
        expected = {"fig02", "fig03", "fig05", "fig12", "table4", "table5",
                    "table6", "table7", "fig14", "fig15",
                    "ablation_issue_width", "ablation_rob", "ablation_rmo",
                    "ablation_regfile", "ablation_confidence",
                    "ablation_silent_store", "ext_tage",
                    "ext_untagged_ssbf"}
        assert set(ALL_EXPERIMENTS) == expected


class TestPaperData:
    def test_table4_covers_all_benchmarks(self):
        assert len(paper_data.TABLE4_LOAD_EXEC_TIME) == 21

    def test_table4_shows_dmdp_saving_everywhere(self):
        for name, (base, dmdp) in paper_data.TABLE4_LOAD_EXEC_TIME.items():
            assert dmdp <= base, name

    def test_headline_numbers(self):
        claims = paper_data.AGGREGATE_CLAIMS
        assert claims["dmdp_over_nosq_int"] == 7.17
        assert claims["dmdp_over_nosq_fp"] == 4.48
        assert claims["edp_saving_overall"] == 6.7
        assert paper_data.FIG12_GEOMEAN_IPC["int"] == (0.975, 1.045, 1.068)
