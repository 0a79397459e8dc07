"""Unit tests for configuration and statistics plumbing."""

import dataclasses

import pytest

from repro.uarch import (
    ConfidencePolicy,
    Consistency,
    CoreParams,
    LoadKind,
    ModelKind,
    SimStats,
    model_params,
)


class TestParams:
    def test_baseline_defaults_match_paper(self):
        params = CoreParams()
        assert params.issue_width == 8
        assert params.rob_entries == 256
        assert params.num_pregs == 320
        assert params.l1d.hit_latency == 4        # constant 4-cycle access
        assert params.store_buffer_entries == 16
        assert params.consistency is Consistency.TSO
        assert params.predictor.tssbf_entries == 128
        assert params.predictor.distance_entries == 1024
        assert params.predictor.confidence_threshold == 63
        assert params.predictor.confidence_init == 64

    def test_with_model_sets_confidence_policy(self):
        """NoSQ decrements; DMDP halves (paper Section V)."""
        nosq = CoreParams().with_model(ModelKind.NOSQ)
        dmdp = CoreParams().with_model(ModelKind.DMDP)
        assert nosq.confidence_policy is ConfidencePolicy.BALANCED
        assert dmdp.confidence_policy is ConfidencePolicy.BIASED

    def test_model_params_overrides(self):
        params = model_params(ModelKind.DMDP, rob_entries=512,
                              store_buffer_entries=64)
        assert params.model is ModelKind.DMDP
        assert params.rob_entries == 512
        assert params.store_buffer_entries == 64

    def test_params_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CoreParams().rob_entries = 1

    def test_cache_geometry(self):
        params = CoreParams()
        assert params.l1d.num_sets * params.l1d.assoc * \
            params.l1d.line_bytes == params.l1d.size_bytes


class TestStats:
    def test_ipc(self):
        stats = SimStats()
        stats.cycles = 100
        stats.instructions = 250
        assert stats.ipc == 2.5

    def test_mpki(self):
        stats = SimStats()
        stats.instructions = 10_000
        stats.dep_mispredictions = 25
        assert stats.dep_mpki == 2.5

    def test_record_load_clamps_negative(self):
        """Bypassed loads can have negative raw execution time (the data
        was ready before rename); the paper clamps to zero."""
        stats = SimStats()
        stats.record_load(LoadKind.BYPASS, -5)
        assert stats.load_exec_time_total == 0
        assert stats.loads == 1

    def test_load_distribution_sums_to_one(self):
        stats = SimStats()
        stats.record_load(LoadKind.DIRECT, 4)
        stats.record_load(LoadKind.BYPASS, 0)
        stats.record_load(LoadKind.DELAYED, 40)
        stats.record_load(LoadKind.DIRECT, 4)
        dist = stats.load_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["direct"] == pytest.approx(0.5)

    def test_lowconf_tracking(self):
        stats = SimStats()
        stats.record_load(LoadKind.PREDICATED, 10, low_confidence=True)
        stats.record_load(LoadKind.DIRECT, 4)
        assert stats.lowconf_loads == 1
        assert stats.avg_lowconf_exec_time == 10

    def test_avg_by_kind_none_when_absent(self):
        stats = SimStats()
        assert stats.avg_load_exec_time_by_kind(LoadKind.DELAYED) is None

    def test_zero_division_guards(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.dep_mpki == 0.0
        assert stats.avg_load_exec_time == 0.0
        assert stats.avg_lowconf_exec_time == 0.0
        assert stats.reexec_stalls_per_kilo == 0.0

    def test_summary_keys(self):
        stats = SimStats()
        summary = stats.summary()
        for key in ("cycles", "instructions", "ipc", "dep_mpki",
                    "avg_load_exec_time"):
            assert key in summary
