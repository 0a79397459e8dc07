"""Tests for the repo tools (make_experiments_md, trace_diff)."""

import importlib.util
import io
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"
TOOL = TOOLS / "make_experiments_md.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tool():
    return _load(TOOL)


@pytest.fixture(scope="module")
def trace_diff():
    return _load(TOOLS / "trace_diff.py")


class TestGenerator:
    def test_sections_cover_all_experiments(self, tool):
        from repro.harness.experiments import ALL_EXPERIMENTS
        ids = {exp_id for exp_id, *_ in tool.SECTIONS}
        assert ids == set(ALL_EXPERIMENTS)

    def test_generate_with_reports(self, tool, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig12.txt").write_text("Fig. 12 measured table\n")
        output = tmp_path / "EXPERIMENTS.md"
        missing = tool.generate(results, output)
        text = output.read_text()
        assert "Fig. 12 measured table" in text
        assert missing == len(tool.SECTIONS) - 1
        assert "report missing" in text

    def test_generate_all_present(self, tool, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        for exp_id, *_ in tool.SECTIONS:
            (results / ("%s.txt" % exp_id)).write_text("data %s\n" % exp_id)
        output = tmp_path / "out.md"
        assert tool.generate(results, output) == 0
        text = output.read_text()
        assert "report missing" not in text
        assert text.count("**Paper:**") == len(tool.SECTIONS)


class TestTraceDiff:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        """Two identical recorded traces plus one divergent variant."""
        from repro.kernel import FunctionalCpu
        from repro.obs.jsonl import write_jsonl
        from repro.obs.tracer import RecordingTracer
        from repro.uarch import ModelKind, model_params
        from repro.uarch.pipeline import Simulator
        from repro.workloads import get_workload

        spec = get_workload("bzip2")
        program = spec.build(spec.iterations(0.05))
        trace = FunctionalCpu(program).run_trace()
        root = tmp_path_factory.mktemp("traces")
        paths = {}
        for name, model in (("a", ModelKind.DMDP), ("b", ModelKind.DMDP),
                            ("c", ModelKind.NOSQ)):
            tracer = RecordingTracer()
            Simulator(program, trace, model_params(model),
                      tracer=tracer).run()
            paths[name] = str(root / ("%s.jsonl" % name))
            write_jsonl(tracer.events, paths[name])
        return paths

    def test_identical_traces_exit_zero(self, trace_diff, traces):
        out = io.StringIO()
        assert trace_diff.diff_traces(traces["a"], traces["b"], out) == 0
        assert "identical" in out.getvalue()

    def test_divergent_traces_report_first_event(self, trace_diff, traces):
        out = io.StringIO()
        assert trace_diff.diff_traces(traces["a"], traces["c"], out) == 1
        text = out.getvalue()
        assert "diverge at event" in text
        assert "cycle=" in text

    def test_prefix_trace_reports_end(self, trace_diff, traces, tmp_path):
        short = tmp_path / "short.jsonl"
        with open(traces["a"]) as handle:
            lines = handle.readlines()
        short.write_text("".join(lines[:5]))
        out = io.StringIO()
        assert trace_diff.diff_traces(traces["a"], str(short), out) == 1
        assert "<end of trace>" in out.getvalue()

    def test_first_divergence_positions(self, trace_diff):
        from repro.obs.tracer import EventKind, TraceEvent
        ev = [TraceEvent(0, EventKind.FETCH, 0, None, {}),
              TraceEvent(1, EventKind.RETIRE, 0, None, {})]
        assert trace_diff.first_divergence(ev, list(ev)) is None
        other = [ev[0], TraceEvent(2, EventKind.RETIRE, 0, None, {})]
        pos, a, b = trace_diff.first_divergence(ev, other)
        assert pos == 1 and a.cycle == 1 and b.cycle == 2

    def test_missing_file_exits_two(self, trace_diff):
        out = io.StringIO()
        assert trace_diff.diff_traces("/nonexistent/a.jsonl",
                                      "/nonexistent/b.jsonl", out) == 2

    def test_malformed_file_exits_two(self, trace_diff, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        out = io.StringIO()
        assert trace_diff.diff_traces(str(bad), str(bad), out) == 2

    def test_usage_error(self, trace_diff):
        assert trace_diff.main([]) == 2
