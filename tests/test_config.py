"""Tests for the config-space registry (DESIGN.md Section 16).

The contract: every config-construction path -- CLI ``--set`` flags,
``ABLATIONS`` entries, batch points -- goes through one validated,
canonical :class:`~repro.config.ConfigSpec`, so a typo fails fast with a
did-you-mean hint, equal parameters always produce equal points, disk
keys, and spec hashes, and a spec survives a JSON round trip.
"""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.config import (
    ABLATIONS,
    ConfigError,
    ConfigSpec,
    ablation_spec,
    all_keys,
    coerce_value,
    describe_points,
    get_slot,
    slot_names,
    split_key,
    suggest_keys,
)
from repro.harness import ExperimentRunner, ResultCache
from repro.harness.parallel import SimPoint, make_point
from repro.kernel import FunctionalCpu
from repro.obs.ledger import JsonlLedger, read_ledger, validate_span
from repro.uarch import (
    CacheParams,
    ConfidencePolicy,
    Consistency,
    ModelKind,
    PredictorParams,
    model_params,
)
from repro.uarch.pipeline import Simulator
from repro.workloads import get_workload

ALL_MODELS = list(ModelKind)


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


# -- registry ---------------------------------------------------------------

class TestRegistry:
    def test_all_keys_are_dotted_and_cover_every_slot(self):
        keys = all_keys()
        assert all(key.count(".") == 1 for key in keys)
        assert {key.split(".")[0] for key in keys} == set(slot_names())
        assert "core.rob_entries" in keys
        assert "predictor.tssbf_entries" in keys
        assert "l1d.size_bytes" in keys and "l2.size_bytes" in keys

    def test_split_key_resolves(self):
        slot, field = split_key("predictor.confidence_bits")
        assert slot.name == "predictor" and field == "confidence_bits"

    def test_split_key_typo_has_did_you_mean(self):
        # A misspelt field, and an exact field name in the wrong slot.
        for key, want in [("core.rob_entrees", "core.rob_entries"),
                          ("core.tssbf_entries", "predictor.tssbf_entries")]:
            with pytest.raises(ConfigError) as err:
                split_key(key)
            assert want in str(err.value)
            assert want in err.value.suggestions
        # The wrong-slot field names the slot that has it, and only that.
        assert err.value.suggestions == ("predictor.tssbf_entries",)

    def test_split_key_unknown_slot(self):
        with pytest.raises(ConfigError) as err:
            split_key("cpre.rob_entries")
        assert "core" in str(err.value)

    def test_suggest_keys_prefers_exact_field_in_other_slot(self):
        hint, suggestions = suggest_keys("tssbf_entries")
        assert "predictor.tssbf_entries" in suggestions
        assert "predictor.tssbf_entries" in hint

    def test_coerce_enum_accepts_instance_and_string(self):
        slot = get_slot("core")
        assert coerce_value(slot, "consistency", Consistency.RMO) == "rmo"
        assert coerce_value(slot, "consistency", "rmo") == "rmo"
        with pytest.raises(ConfigError):
            coerce_value(slot, "consistency", "weak")

    def test_coerce_bool_is_strict(self):
        slot = get_slot("predictor")
        assert coerce_value(slot, "tssbf_tagged", False) is False
        with pytest.raises(ConfigError):
            coerce_value(slot, "tssbf_tagged", 1)
        assert coerce_value(slot, "tssbf_tagged", "yes",
                            parse_strings=True) is True
        assert coerce_value(slot, "tssbf_tagged", "off",
                            parse_strings=True) is False

    def test_coerce_int_rejects_bools_and_fractions(self):
        slot = get_slot("core")
        assert coerce_value(slot, "rob_entries", 512.0) == 512
        with pytest.raises(ConfigError):
            coerce_value(slot, "rob_entries", 512.5)
        with pytest.raises(ConfigError):
            coerce_value(slot, "rob_entries", True)

    def test_coerce_float_accepts_ints(self):
        slot = get_slot("energy")
        assert coerce_value(slot, "alu_op", 2) == 2.0
        assert isinstance(coerce_value(slot, "alu_op", 2), float)


# -- satellite: parameter boundary validation -------------------------------

class TestParamsBoundaries:
    def test_cache_geometry_divisible_passes(self):
        params = CacheParams(size_bytes=32768, assoc=8, line_bytes=64)
        assert params.num_sets == 64

    def test_cache_geometry_fractional_sets_rejected(self):
        with pytest.raises(ConfigError) as err:
            CacheParams(size_bytes=32768 + 64, assoc=8, line_bytes=64)
        assert "fractional set count" in str(err.value)

    def test_cache_single_set_boundary(self):
        params = CacheParams(size_bytes=512, assoc=8, line_bytes=64)
        assert params.num_sets == 1

    def test_cache_nonpositive_rejected(self):
        for bad in ({"size_bytes": 0}, {"assoc": -1}, {"line_bytes": 0},
                    {"hit_latency": 0}, {"assoc": True}):
            kwargs = dict(size_bytes=32768, assoc=8, line_bytes=64)
            kwargs.update(bad)
            with pytest.raises(ConfigError):
                CacheParams(**kwargs)

    def test_confidence_range_boundaries(self):
        ceiling = (1 << 7) - 1
        ok = PredictorParams(confidence_threshold=ceiling,
                             confidence_init=0)
        assert ok.confidence_threshold == ceiling
        with pytest.raises(ConfigError):
            PredictorParams(confidence_threshold=ceiling + 1)
        with pytest.raises(ConfigError):
            PredictorParams(confidence_init=-1)

    def test_confidence_range_follows_bits(self):
        ok = PredictorParams(confidence_bits=4, confidence_threshold=15,
                             confidence_init=8)
        assert ok.confidence_threshold == 15
        with pytest.raises(ConfigError):
            PredictorParams(confidence_bits=4, confidence_threshold=16,
                            confidence_init=8)

    def test_spec_surfaces_post_init_errors(self):
        # Narrowing the counter under the default threshold (63) only
        # blows up when the params are materialised -- as a ConfigError,
        # not a TypeError from deep inside dataclasses.replace.
        spec = ConfigSpec.create(ModelKind.DMDP,
                                 {"predictor.confidence_bits": 4})
        with pytest.raises(ConfigError):
            spec.to_params()
        # Widening it leaves the default threshold valid.
        wide = ConfigSpec.create(ModelKind.DMDP,
                                 {"predictor.confidence_bits": 8})
        assert wide.to_params().predictor.confidence_bits == 8


# -- spec canonicalisation and round-tripping -------------------------------

class TestConfigSpec:
    def test_defaults_are_dropped(self):
        spec = ConfigSpec.create(ModelKind.DMDP,
                                 {"core.store_buffer_entries": 16})
        assert spec.settings == ()
        assert spec == ConfigSpec.create(ModelKind.DMDP)

    def test_per_model_defaults_differ(self):
        # BIASED is DMDP's default but a departure for the baseline.
        biased = {"core.confidence_policy": ConfidencePolicy.BIASED}
        assert ConfigSpec.create(ModelKind.DMDP, biased).settings == ()
        assert ConfigSpec.create(ModelKind.BASELINE, biased).settings == (
            ("core.confidence_policy", "biased"),)

    def test_unknown_override_fails_with_hint(self):
        with pytest.raises(ConfigError) as err:
            ConfigSpec.create(ModelKind.DMDP, {"core.rob_entrees": 512})
        assert "core.rob_entries" in str(err.value)

    def test_round_trip_all_models_and_ablations(self):
        specs = [ConfigSpec.create(model) for model in ALL_MODELS]
        specs += [ablation_spec(name, model)
                  for name in ABLATIONS for model in ALL_MODELS]
        by_hash = {}
        for spec in specs:
            revived = ConfigSpec.from_json(spec.canonical_json())
            assert revived == spec
            assert revived.spec_hash == spec.spec_hash
            params = spec.to_params()
            assert revived.to_params() == params
            # Hash equality <=> params equality (per model): no collisions
            # across the registered ablation suite.
            seen = by_hash.setdefault(spec.spec_hash, (spec, params))
            assert seen[1] == params and seen[0] == spec

    def test_equal_params_equal_hash_across_construction_paths(self):
        a = ConfigSpec.create(ModelKind.NOSQ,
                              {"core.rob_entries": 512,
                               "core.consistency": Consistency.RMO})
        b = ConfigSpec.create(ModelKind.NOSQ,
                              {"core.consistency": "rmo",
                               "core.rob_entries": 512.0})
        assert a == b and a.spec_hash == b.spec_hash
        assert a.to_params() == b.to_params()

    def test_distinct_params_distinct_hash(self):
        a = ConfigSpec.create(ModelKind.NOSQ, {"core.rob_entries": 512})
        b = ConfigSpec.create(ModelKind.NOSQ, {"core.rob_entries": 384})
        assert a != b and a.spec_hash != b.spec_hash

    def test_canonical_json_is_deterministic(self):
        spec = ablation_spec("narrow_width_4", ModelKind.DMDP)
        text = spec.canonical_json()
        assert text == ConfigSpec.from_json(text).canonical_json()
        assert json.loads(text)["model"] == "dmdp"

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ConfigSpec.from_json("not json")
        with pytest.raises(ConfigError):
            ConfigSpec.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ConfigSpec.from_json('{"settings": {}}')

    def test_describe_mentions_model_and_settings(self):
        spec = ConfigSpec.create(ModelKind.DMDP, {"core.rob_entries": 512})
        assert spec.describe() == "dmdp core.rob_entries=512"


# -- satellite: memo-key / disk-key canonicalization ------------------------

_KEY_POOL = {
    "core.rob_entries": [256, 512, 512.0],
    "core.store_buffer_entries": [16, 8],
    "core.consistency": ["tso", "rmo", Consistency.TSO, Consistency.RMO],
    "energy.alu_op": [1, 1.0, 2.5],
    "predictor.tssbf_entries": [128, 64],
}

_overrides_st = st.fixed_dictionaries(
    {}, optional={key: st.sampled_from(values)
                  for key, values in _KEY_POOL.items()})


class TestKeyCanonicalization:
    cache = ResultCache(root=None, version="pinned-for-test")

    @hyp_settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(ALL_MODELS), a=_overrides_st,
           b=_overrides_st)
    def test_memo_disk_and_hash_keys_agree(self, model, a, b):
        spec_a = ConfigSpec.create(model, a)
        spec_b = ConfigSpec.create(model, b)
        same_params = spec_a.to_params() == spec_b.to_params()
        assert (spec_a == spec_b) == same_params
        assert (spec_a.spec_hash == spec_b.spec_hash) == same_params
        # The runner's memo is keyed by the point itself.
        memo_equal = (SimPoint("bzip2", spec_a) == SimPoint("bzip2", spec_b))
        disk_equal = (self.cache.key_for_spec("w", 3, spec_a)
                      == self.cache.key_for_spec("w", 3, spec_b))
        assert memo_equal == disk_equal == same_params

    def test_key_for_is_order_insensitive(self):
        fwd = {"core.rob_entries": 512, "core.consistency": "rmo"}
        rev = {"core.consistency": Consistency.RMO,
               "core.rob_entries": 512.0}
        assert (self.cache.key_for_spec(
                    "w", 3, ConfigSpec.create(ModelKind.DMDP, fwd))
                == self.cache.key_for_spec(
                    "w", 3, ConfigSpec.create(ModelKind.DMDP, rev)))

    def test_iterations_and_workload_still_distinguish(self):
        spec = ConfigSpec.create(ModelKind.DMDP)
        assert (self.cache.key_for_spec("w", 3, spec)
                != self.cache.key_for_spec("w", 4, spec))
        assert (self.cache.key_for_spec("w", 3, spec)
                != self.cache.key_for_spec("x", 3, spec))


# -- grid sweeps through the runner and the ledger --------------------------

def grid_points():
    """A small sweep grid: bzip2/tonto x NoSQ/DMDP x 16/8 store-buffer
    entries, keyed by ``(workload, model, entries)``."""
    return {(workload, model, entries): SimPoint(workload, ConfigSpec.create(
                model, {"core.store_buffer_entries": entries}))
            for workload in ("bzip2", "tonto")
            for model in (ModelKind.NOSQ, ModelKind.DMDP)
            for entries in (16, 8)}


class TestGridRuns:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_records_grid_in_sweep_begin(self, tmp_path, jobs):
        path = tmp_path / "run.jsonl"
        sink = JsonlLedger(path)
        runner = ExperimentRunner(
            scale=0.05, jobs=jobs,
            cache=ResultCache(root=tmp_path / "cache"), ledger=sink)
        points = list(grid_points().values())
        results = runner.run_batch(points)
        assert set(results) == set(points)
        sink.close()
        spans = read_ledger(path)
        for span in spans:
            validate_span(span)
        begin = next(s for s in spans if s["kind"] == "sweep.begin")
        assert begin["jobs"] == jobs
        assert begin["grid"] == {
            "workloads": ["bzip2", "tonto"], "models": ["nosq", "dmdp"],
            "axes": {"core.store_buffer_entries": [8]}, "points": 8}

    def test_describe_points_summarises_batch(self):
        specs = [ConfigSpec.create(model,
                                   {"core.store_buffer_entries": entries})
                 for model in (ModelKind.NOSQ, ModelKind.DMDP)
                 for entries in (16, 8)]
        payload = describe_points(
            (w, spec) for w in ("bzip2", "mcf") for spec in specs)
        assert payload["workloads"] == ["bzip2", "mcf"]
        assert payload["models"] == ["nosq", "dmdp"]
        # 16 is the default, so only the departure shows as an axis value.
        assert payload["axes"] == {"core.store_buffer_entries": [8]}
        assert payload["points"] == 8

    def test_grid_point_matches_override_path_byte_identical(self, tmp_path):
        grid = grid_points()
        runner = ExperimentRunner(
            scale=0.05, jobs=2, cache=ResultCache(root=tmp_path / "cache"))
        results = runner.run_batch(grid.values())
        # Each point of the jobs=2 batch against the same configuration
        # built on the CoreParams dataclass itself.
        inputs = {}
        for (workload, model, entries), point in grid.items():
            if workload not in inputs:
                spec = get_workload(workload)
                program = spec.build(spec.iterations(0.05))
                inputs[workload] = (program,
                                    FunctionalCpu(program).run_trace())
            program, trace = inputs[workload]
            params = replace(model_params(model),
                             store_buffer_entries=entries)
            direct = Simulator(program, trace, params).run()
            assert direct.to_dict() == results[point].stats.to_dict(), point

    def test_make_point_and_spec_point_agree(self):
        point = make_point("mcf", "dmdp")
        assert point == SimPoint("mcf", ConfigSpec.create(ModelKind.DMDP))
        assert point.model is ModelKind.DMDP and point.spec.settings == ()

    def test_hand_built_point_equals_its_make_point_twin(self):
        """Points compare and hash by value: a point over a spec rebuilt
        with the trusting constructor is the same memo key."""
        spec = ConfigSpec.create(ModelKind.DMDP,
                                 {"core.store_buffer_entries": 8})
        point = SimPoint("bzip2", ConfigSpec(
            ModelKind.DMDP, (("core.store_buffer_entries", 8),)))
        assert point == SimPoint("bzip2", spec)
        assert hash(point) == hash(SimPoint("bzip2", spec))
        assert {point: 1}[SimPoint("bzip2", spec)] == 1
        assert point != make_point("bzip2", ModelKind.DMDP)

    def test_make_point_typo_fails_before_any_worker(self):
        with pytest.raises(ConfigError) as err:
            make_point("bzip", ModelKind.DMDP)
        assert "'bzip'" in str(err.value) and "bzip2" in str(err.value)


# -- CLI surface ------------------------------------------------------------

class TestConfigCli:
    def test_config_list_names_slots_and_ablations(self):
        code, text = run_cli("config", "list")
        assert code == 0
        for name in ("core", "predictor", "l1d", "l2", "energy"):
            assert name in text
        assert "rob_512" in text

    def test_config_list_json(self):
        code, text = run_cli("config", "list", "--json")
        assert code == 0
        payload = json.loads(text)
        assert "rob_entries" in payload["slots"]["core"]["fields"]

    def test_config_show_marks_overrides(self):
        code, text = run_cli("config", "show", "--model", "dmdp",
                             "--set", "core.rob_entries=512")
        assert code == 0
        assert "512" in text

    def test_config_show_json_is_canonical_spec(self):
        code, text = run_cli("config", "show", "--model", "dmdp", "--json",
                             "--set", "core.rob_entries=512")
        assert code == 0
        spec = ConfigSpec.from_json(text)
        assert spec.settings == (("core.rob_entries", 512),)

    def test_config_validate_ok(self):
        code, text = run_cli("config", "validate", "--model", "dmdp",
                             "--set", "predictor.tssbf_entries=64")
        assert code == 0
        assert "ok:" in text and "predictor.tssbf_entries=64" in text

    def test_config_validate_typo_exits_2_with_hint(self):
        for setting, want in [("core.rob_entrees=512", "rob_entries"),
                              ("core.tssbf_entries=64",
                               "'predictor.tssbf_entries'")]:
            code, text = run_cli("config", "validate", "--model", "dmdp",
                                 "--set", setting)
            assert code == 2
            assert want in text

    def test_run_with_typoed_set_fails_fast(self):
        code, text = run_cli("--scale", "0.05", "run", "bzip2",
                             "--set", "core.rob_entrees=512")
        assert code == 2
        assert "rob_entries" in text

    def test_bad_set_syntax_is_a_usage_error(self):
        code, text = run_cli("config", "validate",
                             "--set", "core.rob_entries")
        assert code == 2
        assert "SLOT.FIELD=VALUE" in text
