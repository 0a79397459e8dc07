"""Unit tests for the observability subsystem (repro.obs)."""

import io
import json

import pytest

from repro.kernel import FunctionalCpu
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.obs.konata import parse_konata, write_konata
from repro.obs.metrics import build_metrics
from repro.obs.tracer import (EventKind, MetricsTracer, PipelineTracer,
                              RecordingTracer, TraceEvent, TraceWindow)
from repro.uarch import ModelKind, model_params
from repro.uarch.pipeline import Simulator
from repro.workloads import get_workload


def run_point(workload, model, tracer=None, scale=0.1):
    spec = get_workload(workload)
    program = spec.build(spec.iterations(scale))
    trace = FunctionalCpu(program).run_trace(max_instructions=5_000_000)
    return Simulator(program, trace, model_params(model),
                     tracer=tracer).run()


@pytest.fixture(scope="module")
def recorded():
    """One small DMDP run with a recording tracer (shared by the module)."""
    tracer = RecordingTracer()
    stats = run_point("mcf", ModelKind.DMDP, tracer)
    return stats, tracer.events


class TestTraceWindow:
    def test_parse_full(self):
        window = TraceWindow.parse("100:200")
        assert window == TraceWindow(100, 200)

    def test_parse_open_ends(self):
        assert TraceWindow.parse(":50") == TraceWindow(0, 50)
        assert TraceWindow.parse("10:").start == 10
        assert 10**12 in TraceWindow.parse("10:")

    def test_contains_half_open(self):
        window = TraceWindow(5, 8)
        assert 5 in window and 7 in window
        assert 4 not in window and 8 not in window
        assert None not in window

    @pytest.mark.parametrize("text", ["bogus", "1:x", "5:2", "-1:4"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            TraceWindow.parse(text)


class TestTracerBasics:
    def test_null_tracer_disabled(self):
        # The protocol base is the no-op tracer; recorders opt in.
        assert PipelineTracer.enabled is False
        assert RecordingTracer.enabled and MetricsTracer.enabled

    def test_simulator_hot_path_skips_disabled_tracer(self):
        # The pipeline guards every hook site on one attribute (_tr);
        # a disabled tracer must leave it None.
        spec = get_workload("bzip2")
        program = spec.build(1)
        trace = FunctionalCpu(program).run_trace()
        params = model_params(ModelKind.BASELINE)
        sim_default = Simulator(program, trace, params)
        assert sim_default._tr is None
        sim_off = Simulator(program, trace, params, tracer=PipelineTracer())
        assert sim_off._tr is None
        recording = RecordingTracer()
        sim_rec = Simulator(program, trace, params, tracer=recording)
        assert sim_rec._tr is recording

    def test_recording_tracer_captures_all_stages(self, recorded):
        stats, events = recorded
        kinds = {event.kind for event in events}
        for kind in (EventKind.FETCH, EventKind.RENAME, EventKind.DISPATCH,
                     EventKind.ISSUE, EventKind.WRITEBACK, EventKind.RETIRE):
            assert kind in kinds, kind
        retires = [e for e in events if e.kind is EventKind.RETIRE]
        assert len(retires) == stats.instructions

    def test_cycles_non_decreasing(self, recorded):
        _, events = recorded
        cycles = [event.cycle for event in events]
        assert cycles == sorted(cycles)

    def test_window_filters_indexed_events(self):
        tracer = RecordingTracer(window=TraceWindow(50, 120))
        run_point("mcf", ModelKind.DMDP, tracer)
        indexed = [e for e in tracer.events if e.index is not None]
        assert indexed, "window produced no events"
        assert all(50 <= e.index < 120 for e in indexed)
        # Un-indexed events (store-buffer drains) are always kept.
        full = RecordingTracer()
        run_point("mcf", ModelKind.DMDP, full)
        drains = sum(1 for e in full.events
                     if e.kind is EventKind.SB_DRAIN)
        kept = sum(1 for e in tracer.events
                   if e.kind is EventKind.SB_DRAIN)
        assert kept == drains


class TestJsonl:
    def test_round_trip(self, recorded):
        _, events = recorded
        buffer = io.StringIO()
        count = write_jsonl(events, buffer)
        assert count == len(events)
        buffer.seek(0)
        assert read_jsonl(buffer) == list(events)

    def test_round_trip_via_file(self, recorded, tmp_path):
        _, events = recorded
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(events, path)
        assert read_jsonl(path) == list(events)

    def test_malformed_line_reports_lineno(self):
        buffer = io.StringIO('{"c":0,"k":"fetch","d":{}}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(buffer)

    def test_blank_lines_skipped(self):
        buffer = io.StringIO('\n{"c":3,"k":"retire","i":7,"d":{}}\n\n')
        events = read_jsonl(buffer)
        assert events == [TraceEvent(3, EventKind.RETIRE, 7, None, {})]


class TestKonata:
    def test_export_parses_strictly(self, recorded, tmp_path):
        _, events = recorded
        path = str(tmp_path / "trace.konata")
        rows = write_konata(events, path)
        records = parse_konata(path)
        assert rows == len(records) > 0
        with open(path) as handle:
            assert handle.readline().startswith("Kanata\t0004")

    def test_renamed_rows_have_stages(self, recorded):
        _, events = recorded
        buffer = io.StringIO()
        write_konata(events, buffer)
        buffer.seek(0)
        records = parse_konata(buffer)
        renamed = [r for r in records.values() if "Rn" in r.stages]
        assert renamed
        for record in renamed:
            start, end = record.stages["Rn"]
            assert end == start + 1
        retired = [r for r in records.values()
                   if r.retire_cycle is not None]
        assert retired
        for record in retired:
            assert "Cm" in record.stages

    def test_stage_timestamps_match_events(self, recorded):
        _, events = recorded
        buffer = io.StringIO()
        write_konata(events, buffer)
        buffer.seek(0)
        records = parse_konata(buffer)
        issue = {e.uop: e.cycle for e in events
                 if e.kind is EventKind.ISSUE}
        wb = {e.uop: e.cycle for e in events
              if e.kind is EventKind.WRITEBACK}
        checked = 0
        for record in records.values():
            if "Ex" not in record.stages or "uop=" not in record.detail:
                continue
            seq = int(record.detail.split("uop=")[1].split("(")[0])
            if seq in issue and seq in wb and wb[seq] > issue[seq]:
                assert record.stages["Ex"] == (issue[seq], wb[seq])
                checked += 1
        assert checked > 10

    @pytest.mark.parametrize("text, message", [
        ("bogus\n", "header"),
        ("Kanata\t0004\nX\t1\n", "unknown command"),
        ("Kanata\t0004\nI\t0\t0\t0\nI\t0\t1\t0\n", "duplicate"),
        ("Kanata\t0004\nI\t0\t0\t0\nE\t0\t0\tF\n", "before start"),
        ("Kanata\t0004\nI\t0\t0\t0\nS\t0\t0\tF\nS\t0\t0\tF\n", "reopened"),
        ("Kanata\t0004\nS\t9\t0\tF\n", "unknown id"),
        ("Kanata\t0004\nI\t0\t0\t0\nS\t0\t0\tF\n", "unterminated"),
        ("Kanata\t0004\nC\t-3\n", "negative"),
    ])
    def test_parser_rejects_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_konata(io.StringIO(text))


class TestMetrics:
    def test_online_matches_offline(self):
        online = MetricsTracer()

        class Both(RecordingTracer):
            def emit(self, event):
                super().emit(event)
                online.emit(event)

        both = Both()
        run_point("mcf", ModelKind.DMDP, both)
        assert online.report() == build_metrics(both.events)

    def test_report_is_json_serialisable(self, recorded):
        _, events = recorded
        report = build_metrics(events)
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == report

    def test_report_consistent_with_stats(self, recorded):
        stats, events = recorded
        report = build_metrics(events)
        assert report["retired_instructions"] == stats.instructions
        load_total = sum(sum(hist.values()) for hist in
                         report["load_latency_by_kind"].values())
        assert load_total == stats.loads
        for kind, count in stats.load_kind.items():
            hist = report["load_latency_by_kind"][kind.value]
            assert sum(hist.values()) == count
            total = sum(int(lat) * n for lat, n in hist.items())
            assert total == stats.load_exec_time[kind]

    def test_histogram_keys_sorted_numerically(self):
        from collections import Counter
        from repro.obs.metrics import _sorted_hist
        hist = _sorted_hist(Counter({10: 1, 2: 3, 0: 2, 7: 0}))
        assert list(hist) == ["0", "2", "10"]
        assert "7" not in hist
