"""Whole-trace precompute bundles: tables, serialisation, batching.

Four layers under test (DESIGN.md Section 14):

* the tables -- :class:`TracePrecompute` must reproduce exactly the
  mispredict flags and rename-time global history of an independent
  reference computed here from ``TraceEntry`` objects, before and after
  a serialisation round trip, plus the decode index and base memory;
* the golden bar -- SimStats must be byte-identical whether a point is
  simulated from the list trace, the packed trace, or the packed trace
  plus a shared bundle, on every model; a bundle is adopted only for
  the trace and predictor geometry it was built for;
* the blob -- serialisation round-trips through bytes and through a
  file, and every corruption (truncated, flipped byte, bad magic,
  format bump, wrong trace, wrong signature) raises
  :class:`PrecomputeDecodeError`, which the store reads as a clean miss;
* the batching -- batch submissions resolve exactly one bundle per
  distinct trace (cold: built, warm store: loaded -- never rebuilt),
  asserted through the runner counters and :class:`BatchTiming`.
"""

import copy
import random

import pytest

import repro.kernel.precompute as precompute_mod
from repro.harness.cache import PrecomputeStore, ResultCache, TraceStore
from repro.harness.parallel import make_point
from repro.harness.runner import ExperimentRunner
from repro.kernel import (FunctionalCpu, MAX_TRACE_INSTRUCTIONS,
                          PackedTrace, pack_trace)
from repro.kernel.precompute import (PRECOMPUTE_FORMAT_VERSION,
                                     PrecomputeDecodeError, TracePrecompute,
                                     bpred_signature, load_precompute,
                                     write_precompute)
from repro.uarch import ALL_MODELS, ModelKind, Simulator, model_params
from repro.uarch.branch import BranchPredictor
from repro.uarch.pipeline import _Decoded
from repro.workloads import get_workload

from .test_differential_oracle import SEED, build_random_program

DEFAULT_SIG = bpred_signature(model_params(ModelKind.BASELINE))


def small_workload(name="mcf", fraction=0.1):
    spec = get_workload(name)
    iterations = max(1, int(round(spec.default_scale * fraction)))
    return spec.build(iterations)


def packed_case(name="mcf", fraction=0.1):
    program = small_workload(name, fraction)
    trace = FunctionalCpu(program).run_trace(
        max_instructions=MAX_TRACE_INSTRUCTIONS)
    return program, trace, pack_trace(program, trace)


def random_case(index):
    rng = random.Random(SEED + index)
    program = build_random_program(rng)
    trace = FunctionalCpu(program).run_trace(max_instructions=200_000)
    return program, trace, pack_trace(program, trace)


def random_packed(index):
    program, _trace, packed = random_case(index)
    return program, packed


def reference_tables(entries, signature):
    """Mispredict flags and rename-time global history computed straight
    from ``TraceEntry`` objects, one predictor replay and one history
    pass, independent of the bundle's fused scan over packed columns."""
    table_bits, btb_entries, history_bits = signature
    bpred = BranchPredictor(table_bits, btb_entries)
    mispredicted = []
    for entry in entries:
        if entry.instr.is_control:
            mispredicted.append(not bpred.predict_and_update(
                entry.pc, entry.instr, entry.taken, entry.next_pc))
        else:
            mispredicted.append(False)
    mask = (1 << history_bits) - 1
    state = 0
    history = []
    for entry in entries:
        history.append(state)
        if entry.instr.is_cond_branch:
            state = ((state << 1) | int(entry.taken)) & mask
    return mispredicted, history


def assert_tables(bundle, want):
    __tracebackhide__ = True
    mispredicted, history = want
    assert bundle.mispredicted_list() == mispredicted
    assert bundle.history_list() == history
    again = TracePrecompute.from_buffer(bundle.trace, bundle.to_bytes())
    assert again.mispredicted_list() == mispredicted
    assert again.history_list() == history


DECODE_FIELDS = ("is_load", "is_store", "is_mem", "is_control",
                 "is_cond_branch", "src_regs", "dest_reg", "fu", "latency",
                 "is_partial", "rs", "rt", "rd", "uop_estimate", "uop_kind",
                 "uop_fu")


class TestBundleTables:
    def test_tables_match_simulator_own_precompute(self):
        params = model_params(ModelKind.DMDP)
        signature = bpred_signature(params)
        for name in ("mcf", "lbm", "perl"):
            program, trace, packed = packed_case(name)
            want = reference_tables(trace, signature)
            assert any(want[0]) and any(want[1]), name
            assert_tables(TracePrecompute.build(packed, signature), want)
            # A Simulator without a shared bundle builds its own tables.
            sim = Simulator(program, trace, params)
            assert (sim._mispredicted, sim._history) == want
            assert len(sim._dec_by_index) == len(trace)
            for entry, ours in zip(trace, sim._dec_by_index):
                theirs = _Decoded(entry.instr, params)
                for field in DECODE_FIELDS:
                    assert getattr(ours, field) == getattr(theirs, field)

    def test_random_programs_tables_match(self):
        signatures = (DEFAULT_SIG,
                      (DEFAULT_SIG[0] - 2, DEFAULT_SIG[1], DEFAULT_SIG[2]),
                      (DEFAULT_SIG[0], 16, 3))
        for index in range(4):
            _program, trace, packed = random_case(index)
            for signature in signatures:
                assert_tables(TracePrecompute.build(packed, signature),
                              reference_tables(trace, signature))

    def test_matches_rejects_overridden_predictor_geometry(self):
        _program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = model_params(ModelKind.BASELINE)
        assert bundle.matches(packed, params)
        overridden = model_params(ModelKind.BASELINE,
                                  bpred_table_bits=DEFAULT_SIG[0] + 1)
        assert not bundle.matches(packed, overridden)

    def test_matches_requires_the_bundles_own_trace(self):
        program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = model_params(ModelKind.BASELINE)
        twin = PackedTrace.from_buffer(program, packed.to_bytes())
        assert len(twin) == len(packed)
        assert not bundle.matches(twin, params)

    def test_decode_index_memoised_per_latency_signature(self):
        _program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        base = model_params(ModelKind.BASELINE)
        dmdp = model_params(ModelKind.DMDP)
        assert bundle.decode_index(base) is bundle.decode_index(dmdp)
        slow = model_params(ModelKind.BASELINE,
                            mul_latency=base.mul_latency + 1)
        assert bundle.decode_index(slow) is not bundle.decode_index(base)

    def test_base_memory_matches_direct_segment_load(self):
        from repro.kernel.memory import SparseMemory
        program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        direct = SparseMemory()
        direct.load_segment(program.data_base, program.data)
        copy = bundle.base_memory().copy()
        assert copy.snapshot() == direct.snapshot()
        # Writing through the copy must not leak into the shared image.
        copy.write_word(program.data_base, 0xDEADBEEF)
        assert bundle.base_memory().snapshot() == direct.snapshot()


class TestGoldenBatchedIdentity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_stats_identical_list_packed_batched(self, model):
        program, trace, packed = packed_case()
        params = model_params(model)
        bundle = TracePrecompute.build(packed, bpred_signature(params))
        from_list = Simulator(program, trace, params).run().to_dict()
        from_packed = Simulator(program, packed, params).run().to_dict()
        sim = Simulator(program, bundle.trace, params, precompute=bundle)
        assert sim._pre is bundle
        assert from_packed == from_list
        assert sim.run().to_dict() == from_list

    def test_bundle_reuse_across_configs_is_identical(self):
        # The whole point of batching: one bundle, many configs.
        program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        for model in (ModelKind.BASELINE, ModelKind.DMDP):
            for overrides in ({}, {"store_buffer_entries": 8}):
                params = model_params(model, **overrides)
                plain = Simulator(program, packed, params).run().to_dict()
                shared = Simulator(program, bundle.trace, params,
                                   precompute=bundle).run().to_dict()
                assert shared == plain

    def test_overridden_geometry_falls_back_and_stays_identical(self):
        program, trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = model_params(ModelKind.DMDP,
                              bpred_table_bits=DEFAULT_SIG[0] - 2)
        sim = Simulator(program, bundle.trace, params, precompute=bundle)
        # The Simulator built a bundle for its own predictor geometry.
        assert sim._pre is not bundle
        assert sim._pre.signature == bpred_signature(params)
        assert (sim._mispredicted, sim._history) == reference_tables(
            trace, bpred_signature(params))
        assert (sim.run().to_dict()
                == Simulator(program, trace, params).run().to_dict())

    def test_bundle_for_another_trace_of_equal_length_is_ignored(self):
        # Trace B differs from trace A in one loaded value only, so a
        # length check alone would adopt A's bundle and simulate A.
        program, trace_a, packed_a = packed_case()
        trace_b = [copy.copy(entry) for entry in trace_a]
        flipped = next(i for i, entry in enumerate(trace_b)
                       if entry.is_load and entry.value is not None)
        trace_b[flipped].value ^= 1
        packed_b = pack_trace(program, trace_b)
        bundle_a = TracePrecompute.build(packed_a, DEFAULT_SIG)
        params = model_params(ModelKind.DMDP)
        sim = Simulator(program, packed_b, params, precompute=bundle_a)
        assert sim._pre is not bundle_a
        assert sim._pre.trace is packed_b
        assert sim.trace[flipped].value == trace_b[flipped].value
        assert sim.trace[flipped].value != trace_a[flipped].value
        assert (sim.run().to_dict()
                == Simulator(program, trace_b, params).run().to_dict())

    def test_loaded_bundle_is_identical_to_built(self, tmp_path):
        program, _trace, packed = packed_case()
        params = model_params(ModelKind.DMDP)
        built = TracePrecompute.build(packed, DEFAULT_SIG)
        path = tmp_path / "mcf.pre"
        write_precompute(path, built)
        loaded = load_precompute(path, packed, DEFAULT_SIG)
        sim = Simulator(program, loaded.trace, params, precompute=loaded)
        assert sim._pre is loaded
        assert (sim.run().to_dict()
                == Simulator(program, packed, params).run().to_dict())


class TestSerialization:
    def test_bytes_roundtrip(self):
        _program, packed = random_packed(1)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        again = TracePrecompute.from_buffer(packed, bundle.to_bytes())
        assert again.signature == bundle.signature
        assert again.mispredicted_list() == bundle.mispredicted_list()
        assert again.history_list() == bundle.history_list()

    def test_file_roundtrip_via_mmap(self, tmp_path):
        # load_precompute reads the file (the tables decode into lists).
        _program, packed = random_packed(2)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = tmp_path / "rand2.pre"
        write_precompute(path, bundle)
        loaded = load_precompute(path, packed, DEFAULT_SIG)
        assert loaded.mispredicted_list() == bundle.mispredicted_list()
        assert loaded.history_list() == bundle.history_list()

    def test_empty_trace_roundtrip(self):
        program, _trace, _packed = packed_case()
        empty = PackedTrace.from_entries(program, [])
        bundle = TracePrecompute.build(empty, DEFAULT_SIG)
        assert bundle.n == 0
        assert bundle.mispredicted_list() == []
        assert bundle.history_list() == []
        again = TracePrecompute.from_buffer(empty, bundle.to_bytes())
        assert again.n == 0

    def corrupt_cases(self, blob):
        yield blob[:len(blob) // 2]                      # truncated
        yield blob[:16]                                  # inside the header
        flipped = bytearray(blob)
        flipped[-1] ^= 0xFF                              # payload bit flip
        yield bytes(flipped)
        yield b"XXXX" + blob[4:]                         # bad magic
        bumped = bytearray(blob)
        bumped[4] ^= 0x7F                                # format version
        yield bytes(bumped)

    def test_every_corruption_raises_decode_error(self):
        _program, packed = random_packed(3)
        blob = TracePrecompute.build(packed, DEFAULT_SIG).to_bytes()
        for corrupt in self.corrupt_cases(blob):
            with pytest.raises(PrecomputeDecodeError):
                TracePrecompute.from_buffer(packed, corrupt)

    def test_wrong_trace_length_raises(self):
        _program, packed3 = random_packed(3)
        _program, packed4 = random_packed(4)
        blob = TracePrecompute.build(packed3, DEFAULT_SIG).to_bytes()
        if len(packed3) != len(packed4):
            with pytest.raises(PrecomputeDecodeError):
                TracePrecompute.from_buffer(packed4, blob)

    def test_wrong_signature_raises(self):
        _program, packed = random_packed(1)
        blob = TracePrecompute.build(packed, DEFAULT_SIG).to_bytes()
        other = (DEFAULT_SIG[0] + 1, DEFAULT_SIG[1], DEFAULT_SIG[2])
        with pytest.raises(PrecomputeDecodeError):
            TracePrecompute.from_buffer(packed, blob, other)
        # ...and without an expected signature the header's own wins.
        assert (TracePrecompute.from_buffer(packed, blob).signature
                == DEFAULT_SIG)


class TestPrecomputeStore:
    def store(self, tmp_path):
        return PrecomputeStore(root=tmp_path / "traces")

    def test_put_load_roundtrip_and_counters(self, tmp_path):
        store = self.store(tmp_path)
        _program, packed = random_packed(0)
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is None
        assert store.misses == 1
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = store.put("rand0", 10, bundle)
        assert path.suffix == ".pre"
        loaded = store.load("rand0", 10, packed, DEFAULT_SIG)
        assert loaded is not None
        assert store.hits == 1
        assert loaded.mispredicted_list() == bundle.mispredicted_list()
        assert loaded.history_list() == bundle.history_list()

    def test_corrupt_blob_is_clean_miss(self, tmp_path):
        store = self.store(tmp_path)
        _program, packed = random_packed(0)
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        path = store.put("rand0", 10, bundle)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is None
        # ...and the next put repairs it.
        store.put("rand0", 10, bundle)
        assert store.load("rand0", 10, packed, DEFAULT_SIG) is not None

    def test_key_folds_signature_and_format_version(self, tmp_path,
                                                    monkeypatch):
        store = self.store(tmp_path)
        base = store.key_for("mcf", 100, DEFAULT_SIG)
        other_sig = (DEFAULT_SIG[0] + 1,) + DEFAULT_SIG[1:]
        assert store.key_for("mcf", 100, other_sig) != base
        assert store.key_for("mcf", 101, DEFAULT_SIG) != base
        assert store.key_for("lbm", 100, DEFAULT_SIG) != base
        monkeypatch.setattr(precompute_mod, "PRECOMPUTE_FORMAT_VERSION",
                            PRECOMPUTE_FORMAT_VERSION + 1)
        assert store.key_for("mcf", 100, DEFAULT_SIG) != base

    def test_blobs_live_beside_trace_blobs(self, tmp_path):
        # Same tree => cache info/clear/gc manage both blob kinds.
        runner = ExperimentRunner(
            scale=0.05, cache=ResultCache(root=tmp_path / "cache"),
            trace_store=TraceStore(root=tmp_path / "traces"))
        assert runner.precompute_store.root == tmp_path / "traces"
        runner.precompute_for("mcf")
        assert runner.precompute_store.entry_count() == 1
        assert runner.precompute_store.clear() == 1


class TestRunnerBatching:
    def runner(self, tmp_path, **kwargs):
        kwargs.setdefault("scale", 0.05)
        kwargs.setdefault("cache", ResultCache(root=tmp_path / "cache"))
        kwargs.setdefault("trace_store",
                          TraceStore(root=tmp_path / "traces"))
        return ExperimentRunner(**kwargs)

    def points(self):
        return [make_point(w, m, **o)
                for w in ("mcf", "lbm")
                for m in (ModelKind.BASELINE, ModelKind.DMDP)
                for o in ({}, {"store_buffer_entries": 8})]

    def test_cold_batch_builds_exactly_one_bundle_per_trace(self, tmp_path):
        runner = self.runner(tmp_path)
        out = runner.run_batch(self.points())
        assert len(out) == 8
        timing = runner.batch_log[-1]
        assert timing.precomputes_built == 2         # one per distinct trace
        assert timing.precomputes_loaded == 0
        assert timing.worker_precomputes_built == 0
        assert timing.precomputes == 2

    def test_warm_store_batch_loads_and_never_rebuilds(self, tmp_path):
        self.runner(tmp_path).run_batch(self.points())       # populate store
        warm = self.runner(tmp_path, cache=ResultCache(
            root=tmp_path / "cache2"))                # results cold, store warm
        out = warm.run_batch(self.points())
        assert len(out) == 8
        timing = warm.batch_log[-1]
        assert timing.precomputes_built == 0          # zero redundant builds
        assert timing.precomputes_loaded == 2
        assert warm.traces_generated == 0             # trace store warm too

    def test_batched_results_identical_to_unbatched(self, tmp_path):
        batched = self.runner(tmp_path)
        out = batched.run_batch(self.points())
        plain = ExperimentRunner(scale=0.05, use_cache=False)
        for point in self.points():
            want = plain.run(point.workload, point.model,
                             **dict(point.overrides)).stats.to_dict()
            assert out[point].stats.to_dict() == want

    def test_parallel_batch_workers_load_not_rebuild(self, tmp_path):
        self.runner(tmp_path).run_batch(self.points())       # populate store
        runner = self.runner(tmp_path, jobs=2, cache=ResultCache(
            root=tmp_path / "cache2"))
        out = runner.run_batch(self.points())
        assert len(out) == 8
        timing = runner.batch_log[-1]
        assert timing.worker_retraces == 0
        assert timing.worker_precomputes_built == 0
        assert timing.worker_precomputes_loaded >= 2
        assert timing.precomputes_built == 0

    def test_single_point_run_stays_precompute_free(self, tmp_path):
        # A per-point run neither resolves nor stores a shared bundle:
        # its Simulator builds its own tables, and the sweep benchmark's
        # warm_store leg depends on that staying honest.
        runner = self.runner(tmp_path)
        runner.run("mcf", ModelKind.DMDP)
        assert runner.precomputes_built == 0
        assert runner.precomputes_loaded == 0
        assert runner.precompute_store.entry_count() == 0

    def test_attach_precompute_bad_blob_falls_back(self, tmp_path):
        runner = self.runner(tmp_path)
        path = tmp_path / "bogus.pre"
        path.write_bytes(b"not a bundle")
        assert not runner.attach_precompute("mcf", str(path))
        assert runner.precomputes_loaded == 0
        bundle = runner.precompute_for("mcf")          # falls back to build
        assert bundle is not None
        assert runner.precomputes_built == 1

    def test_attach_trace_drops_the_replaced_traces_bundle(self, tmp_path):
        # A bundle belongs to one trace object: after a worker adopts a
        # new trace blob, the workload's bundle is resolved again for it.
        runner = self.runner(tmp_path)
        path = runner.ensure_trace("mcf")
        old = runner.precompute_for("mcf")
        assert runner.attach_trace("mcf", path)
        new = runner.precompute_for("mcf")
        assert new is not old
        assert new.trace is runner.trace("mcf")
        assert runner.precomputes_loaded == 1       # from the store

    def test_ensure_precompute_populates_store(self, tmp_path):
        import os
        runner = self.runner(tmp_path)
        path = runner.ensure_precompute("mcf")
        assert path is not None and os.path.exists(path)
        fresh = self.runner(tmp_path, cache=ResultCache(
            root=tmp_path / "cache2"))
        assert fresh.attach_precompute("mcf", path)
        assert fresh.precomputes_loaded == 1
