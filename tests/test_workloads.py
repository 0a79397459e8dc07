"""Tests for the 21 SPEC 2006 stand-in kernels."""

import pytest

from repro.kernel import FunctionalCpu, trace_summary
from repro.workloads import (
    ALL_NAMES,
    ALL_WORKLOADS,
    FP_NAMES,
    INT_NAMES,
    WORKLOADS,
    get_workload,
    lcg_sequence,
    zipf_like,
)

# Small scales keep the functional runs fast; signatures already show.
TINY = 0.08


def tiny_trace(name):
    spec = get_workload(name)
    prog = spec.build(spec.iterations(TINY))
    return FunctionalCpu(prog).run_trace(max_instructions=2_000_000)


class TestRegistry:
    def test_all_21_paper_benchmarks_present(self):
        expected_int = {"perl", "bzip2", "gcc", "mcf", "gobmk", "hmmer",
                        "sjeng", "lib", "h264ref", "astar"}
        expected_fp = {"bwaves", "milc", "zeusmp", "gromacs", "leslie3d",
                       "namd", "Gems", "tonto", "lbm", "wrf", "sphinx3"}
        assert set(INT_NAMES) == expected_int
        assert set(FP_NAMES) == expected_fp
        assert len(ALL_NAMES) == 21

    def test_lookup(self):
        assert get_workload("bzip2").suite == "int"
        assert get_workload("lbm").suite == "fp"
        with pytest.raises(KeyError):
            get_workload("nonexistent")

    def test_every_spec_has_description(self):
        for spec in ALL_WORKLOADS:
            assert spec.description
            assert spec.default_scale >= 1


class TestHelpers:
    def test_lcg_deterministic_and_in_range(self):
        a = lcg_sequence(100, 17, seed=5)
        b = lcg_sequence(100, 17, seed=5)
        assert a == b
        assert all(0 <= v < 17 for v in a)

    def test_lcg_seeds_differ(self):
        assert lcg_sequence(50, 1000, seed=1) != lcg_sequence(50, 1000, seed=2)

    def test_zipf_like_is_skewed(self):
        values = zipf_like(2000, 64, seed=9, hot_fraction=0.1,
                           hot_probability=0.7)
        hot_count = sum(1 for v in values if v < int(64 * 0.1) + 1)
        assert hot_count > 1000  # hot subset dominates
        assert all(0 <= v < 64 for v in values)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryWorkload:
    def test_builds_and_runs(self, name):
        trace = tiny_trace(name)
        assert len(trace) > 50

    def test_has_memory_traffic(self, name):
        summary = trace_summary(tiny_trace(name))
        assert summary["loads"] > 0
        assert summary["stores"] > 0


class TestSignatures:
    """Each kernel must exhibit the dependence signature it claims."""

    def test_bzip2_is_occasionally_colliding(self):
        summary = trace_summary(tiny_trace("bzip2"))
        ratio = summary["dependent_loads"] / summary["loads"]
        assert 0.2 < ratio < 0.9

    def test_hmmer_is_silent_store_rich(self):
        summary = trace_summary(tiny_trace("hmmer"))
        assert summary["silent_stores"] > 0.3 * summary["stores"]

    def test_streaming_kernels_have_no_dependent_loads(self):
        for name in ("bwaves", "leslie3d"):
            summary = trace_summary(tiny_trace(name))
            assert summary["dependent_loads"] == 0, name

    def test_lbm_is_store_heavy(self):
        summary = trace_summary(tiny_trace("lbm"))
        # 3 stores per 3 loads per iteration: far denser store traffic
        # than the rest of the suite.
        assert summary["stores"] >= 0.9 * summary["loads"]

    def test_tonto_spills_always_collide(self):
        trace = tiny_trace("tonto")
        loads = [e for e in trace if e.is_load]
        dependent = [e for e in loads if e.dep_store is not None]
        # The two spill reloads per iteration always collide.
        assert len(dependent) >= len(loads) * 0.3

    def test_bzip2_uses_partial_word_loads(self):
        trace = tiny_trace("bzip2")
        assert any(e.is_load and e.instr.is_partial_word for e in trace)

    def test_h264ref_exercises_partial_word_stores(self):
        trace = tiny_trace("h264ref")
        assert any(e.is_store and e.instr.is_partial_word for e in trace)

    def test_mcf_touches_large_footprint(self):
        trace = tiny_trace("mcf")
        lines = {e.mem_addr >> 6 for e in trace if e.is_load}
        # Nearly every chase iteration touches a distinct line.
        chase_loads = sum(1 for e in trace if e.is_load) // 2
        assert len(lines) > 0.6 * chase_loads

    def test_scale_controls_length(self):
        spec = get_workload("perl")
        short = FunctionalCpu(spec.build(50)).run_trace()
        long = FunctionalCpu(spec.build(100)).run_trace()
        assert len(long) > 1.5 * len(short)

    def test_branchy_kernels_have_branches(self):
        for name in ("perl", "gobmk", "astar"):
            summary = trace_summary(tiny_trace(name))
            assert summary["branches"] > 0.1 * summary["instructions"], name
