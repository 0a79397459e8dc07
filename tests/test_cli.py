"""Tests for the command-line interface."""

import argparse
import io
import re

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def subcommand_paths(parser, prefix=()):
    """Every subcommand path under ``parser``, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from subcommand_paths(sub, prefix + (name,))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "quake"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bzip2", "--model", "magic"])

    def test_config_flags(self):
        # --set is the one configuration flag of run, suite and compare.
        for argv in (["run", "bzip2"], ["suite"], ["compare", "bzip2"]):
            args = build_parser().parse_args(
                argv + ["--set", "core.rob_entries=512",
                        "--set", "energy.sq_cam_search=3.5"])
            assert args.assignments == ["core.rob_entries=512",
                                        "energy.sq_cam_search=3.5"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bzip2", "--rob", "512"])


    def test_every_subcommand_help_exits_zero(self, capsys):
        paths = list(subcommand_paths(build_parser()))
        for nested in (("config", "show"), ("ledger", "diff"),
                       ("fuzz", "run")):
            assert nested in paths
        for path in [()] + paths:
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(list(path) + ["--help"])
            assert info.value.code == 0, path
            assert "usage:" in capsys.readouterr().out


class TestCommands:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        assert "bzip2" in text and "fig12" in text

    def test_compare(self):
        code, text = run_cli("--scale", "0.05", "compare", "tonto")
        assert code == 0
        for model in ("baseline", "nosq", "dmdp", "perfect"):
            assert model in text

    def test_run_with_overrides(self):
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--model", "dmdp",
                             "--set", "core.rob_entries=128")
        assert code == 0
        assert "ipc" in text
        assert "load mix" in text

    def test_experiment_subset(self):
        code, text = run_cli("--scale", "0.05", "experiment", "table6",
                             "--workloads", "bzip2")
        assert code == 0
        assert "Table VI" in text and "bzip2" in text

    def test_experiment_unknown_workload_is_a_usage_error(self, tmp_path):
        from repro.obs.ledger import read_ledger
        ledger = tmp_path / "run.jsonl"
        code, text = run_cli("--scale", "0.05", "--no-cache",
                             "--ledger", str(ledger), "experiment", "fig02",
                             "--workloads", "bzip,tonto")
        assert code == 2
        error, written = text.splitlines()
        assert error.startswith("error: unknown workload 'bzip' ")
        assert "bzip2" in error and "tonto" in error
        assert written.startswith("ledger written to")
        kinds = [span["kind"] for span in read_ledger(ledger, validate=True)]
        assert not [kind for kind in kinds if kind.startswith("sweep.")]


class TestObservabilityCommands:
    def test_run_stats_json_stdout(self):
        import json
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--stats-json")
        assert code == 0
        payload = json.loads(text[text.index("\n{") + 1:])
        assert payload["instructions"] > 0
        assert "squash_causes" in payload

    def test_run_stats_json_file(self, tmp_path):
        import json
        path = str(tmp_path / "stats.json")
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--stats-json", path)
        assert code == 0 and path in text
        with open(path) as handle:
            assert json.load(handle)["instructions"] > 0

    def test_run_trace_konata(self, tmp_path):
        from repro.obs.konata import parse_konata
        path = str(tmp_path / "out.konata")
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--model", "dmdp", "--trace", path)
        assert code == 0 and "konata" in text
        assert len(parse_konata(path)) > 0

    def test_run_trace_jsonl_window_and_report(self, tmp_path):
        from repro.obs.jsonl import read_jsonl
        path = str(tmp_path / "out.jsonl")
        code, _ = run_cli("--scale", "0.05", "run", "bzip2",
                          "--model", "dmdp", "--trace", path,
                          "--trace-window", "10:60")
        assert code == 0
        indexed = [e for e in read_jsonl(path) if e.index is not None]
        assert indexed and all(10 <= e.index < 60 for e in indexed)
        code, text = run_cli("trace-report", path)
        assert code == 0
        assert "Trace summary" in text
        code, text = run_cli("trace-report", path, "--json")
        assert code == 0 and '"retired_instructions"' in text

    def test_run_metrics_file(self, tmp_path):
        import json
        path = str(tmp_path / "metrics.json")
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--model", "dmdp", "--metrics", path)
        assert code == 0 and path in text
        with open(path) as handle:
            report = json.load(handle)
        assert report["retired_instructions"] > 0

    def test_bad_trace_window_errors(self, tmp_path):
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--trace", str(tmp_path / "x.konata"),
                             "--trace-window", "nope")
        assert code == 2 and "trace window" in text

    def test_trace_report_missing_file(self):
        code, text = run_cli("trace-report", "/nonexistent/trace.jsonl")
        assert code == 1 and "cannot read" in text

    def test_trace_report_malformed_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        code, text = run_cli("trace-report", str(path))
        assert code == 1 and "malformed" in text


class TestCacheCommand:
    def fill(self, root):
        """One blob of every kind under ``root``, plus one orphaned
        temp file in each of the result, trace and ledger trees."""
        from repro.harness.cache import ResultCache
        from repro.harness.runner import ExperimentRunner
        from repro.obs.ledger import JsonlLedger

        runner = ExperimentRunner(scale=0.05, cache=ResultCache(root=root))
        runner.ensure_precompute("bzip2")        # a trace and a bundle
        runner.cache.put("ab" + "0" * 62, {"stats": 1})
        JsonlLedger(root / "ledgers" / "run.jsonl").close()
        for orphan in (root / "ab" / "dead.tmp",
                       root / "traces" / "cd" / "dead.tmp",
                       root / "ledgers" / "dead.jsonl.tmp"):
            orphan.parent.mkdir(parents=True, exist_ok=True)
            orphan.write_bytes(b"partial")

    def info(self):
        code, text = run_cli("cache", "info")
        assert code == 0
        rows = dict(line.rsplit(None, 1) for line in text.splitlines()
                    if not line.endswith("KiB"))
        return {name.strip(): value for name, value in rows.items()}

    def test_info_gc_clear(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        self.fill(root)
        info = self.info()
        assert info["cache dir"] == str(root)
        assert (info["entries"], info["trace blobs"],
                info["precompute blobs"], info["ledgers"],
                info["orphaned tmp"]) == ("1", "1", "1", "1", "3")

        code, text = run_cli("cache", "gc")
        assert code == 0 and "swept 3 orphaned temp file(s)" in text
        assert self.info()["orphaned tmp"] == "0"

        code, text = run_cli("cache", "clear")
        assert code == 0
        assert ("removed 1 cached result(s), 1 trace blob(s), 1 "
                "precompute blob(s), and 1 ledger(s)") in text
        info = self.info()
        assert (info["entries"], info["trace blobs"],
                info["precompute blobs"], info["ledgers"]) == \
            ("0", "0", "0", "0")


class TestProfile:
    def test_profile_prints_the_phases_of_the_ledger(self, tmp_path):
        """--profile prints the runner's phase seconds, the numbers of
        the ledger's phase spans, and a remainder that closes them to
        the command's wall."""
        from repro.obs.ledger import PHASE_NAMES, summarize_ledger
        ledger, dump = tmp_path / "L.jsonl", tmp_path / "p.prof"
        code, text = run_cli("--profile", "--profile-output", str(dump),
                             "--ledger", str(ledger), "--scale", "0.05",
                             "--no-cache", "compare", "bzip2")
        assert code == 0
        table = text.split("host seconds by phase:\n", 1)[1]
        printed = {}
        for line in table.splitlines():
            row = re.fullmatch(r"  (\S.*?) +(-?\d+\.\d+)s +-?\d+\.\d+%",
                               line)
            if row is None:
                break
            printed[row.group(1)] = float(row.group(2))
        assert list(printed) == list(PHASE_NAMES) + ["remainder", "wall"]
        phases = summarize_ledger(ledger)["phases"]
        for name in PHASE_NAMES:                  # printed to 0.1 ms
            assert printed[name] == pytest.approx(phases[name], abs=6e-5)
        assert sum(printed[name] for name in PHASE_NAMES) \
            + printed["remainder"] == pytest.approx(printed["wall"],
                                                    abs=3e-4)
        assert printed["functional tracing"] > 0.0
        assert printed["timing simulation"] > 0.0
        assert dump.exists()
