"""Columnar trace store: packing fidelity, persistence, and sharing.

Three layers under test (DESIGN.md Section 12):

* the encoding -- ``PackedTrace`` must reproduce every ``TraceEntry``
  field exactly, both when packed from a list and when the functional
  CPU records into columns (checked against the test-local reference
  interpreter and its list recorder),
  across randomized programs covering loads/stores of all sizes,
  partial-word overlaps, silent stores, and branches;
* the golden bar -- ``Simulator`` statistics must be byte-identical
  whether it consumes the list or the packed representation;
* the store -- corrupted/truncated/mismatched blobs read as clean
  misses, a trace-format bump invalidates both trace *and* result keys,
  and the runner + parallel engine perform zero functional re-traces
  when the store is warm.
"""

import dataclasses
import random
import sys

import pytest

import repro.kernel.tracestore as tracestore_mod
from repro.config import ConfigSpec
from repro.harness.cache import PrecomputeStore, ResultCache, TraceStore
from repro.harness.parallel import make_point
from repro.harness.runner import ExperimentRunner, _simulate_task
from repro.kernel import (MAX_TRACE_INSTRUCTIONS, FunctionalCpu, PackedTrace,
                          TraceEntry, pack_trace, run_trace_packed)
from repro.kernel.precompute import TracePrecompute, bpred_signature
from repro.uarch import ALL_MODELS, ModelKind, Simulator, model_params
from repro.uarch.models import trace_program
from repro.workloads import get_workload

from .reference_cpu import reference_trace
from .test_differential_oracle import SEED, build_random_program

NUM_RANDOM_PROGRAMS = 12

FIELDS = ("index", "pc", "instr", "next_pc", "taken", "mem_addr",
          "mem_size", "value", "dep_store", "dep_covers", "silent",
          "word_addr", "bab")


def assert_entries_identical(packed, entries):
    __tracebackhide__ = True
    assert len(packed) == len(entries)
    for got, want in zip(packed, entries):
        for field in FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                "entry %d field %r: packed %r != original %r"
                % (want.index, field,
                   getattr(got, field), getattr(want, field)))


def random_case(index):
    """A random program and its trace as a list of entries."""
    rng = random.Random(SEED + index)
    program = build_random_program(rng)
    trace = FunctionalCpu(program).run_trace(max_instructions=200_000)
    return program, list(trace)


def small_workload(name="mcf", fraction=0.1):
    spec = get_workload(name)
    return spec.build(spec.iterations(fraction))


class TestPackedTraceFidelity:
    def test_fields_pin_trace_entry_field_order(self):
        # PackedTrace builds TraceEntry positionally in this order; a
        # reordered field must fail here, not shuffle values.
        assert tuple(f.name for f in dataclasses.fields(TraceEntry)) \
            == FIELDS

    def test_randomized_programs_roundtrip_field_for_field(self):
        for index in range(NUM_RANDOM_PROGRAMS):
            program, trace = random_case(index)
            packed = pack_trace(program, trace)
            assert_entries_identical(packed, trace)

    def test_recorder_matches_test_local_reference(self):
        # The pre-decoded CPU records into columns: every field it
        # records must match the test-local reference interpreter's list
        # recorder, and packing that list must give the recorded bytes.
        partial = silent = 0
        for index in range(6):
            program = build_random_program(random.Random(SEED + index))
            _cpu, entries = reference_trace(program,
                                            max_instructions=200_000)
            recorded = FunctionalCpu(program).run_trace(
                max_instructions=200_000)
            assert_entries_identical(recorded, entries)
            blob = pack_trace(program, entries).to_bytes()
            assert recorded.to_bytes() == blob
            assert run_trace_packed(program).to_bytes() == blob
            partial += sum(1 for e in entries if e.is_load
                           and e.dep_store is not None and not e.dep_covers)
            silent += sum(1 for e in entries if e.is_store and e.silent)
        assert partial and silent

    def test_disk_roundtrip_via_mmap(self, tmp_path):
        from repro.kernel import load_trace
        program, trace = random_case(0)
        path = tmp_path / "case0.trc"
        path.write_bytes(pack_trace(program, trace).to_bytes())
        loaded = load_trace(path, program)
        assert isinstance(loaded, PackedTrace)
        assert_entries_identical(loaded, trace)

    def test_slice_and_iter(self):
        program, trace = random_case(1)
        packed = pack_trace(program, trace)
        window = packed[5:9]
        assert [e.index for e in window] == [5, 6, 7, 8]
        assert packed[-1].index == len(trace) - 1
        assert sum(1 for _ in packed) == len(trace)

    def test_pack_trace_passes_packed_through(self):
        program, trace = random_case(2)
        packed = pack_trace(program, trace)
        assert pack_trace(program, packed) is packed


class TestColumnAccessorEdgeCases:
    """The column accessors feed the precompute scan and the Simulator's
    fetch stage, so their shape must hold at every boundary: empty
    traces, single-entry traces, traces exactly at the instruction cap,
    and the byteswap fallback decode used when a raw ``memoryview`` cast
    is unavailable."""

    ACCESSORS = ("static_column", "next_pc_column", "flags_column",
                 "mem_addr_column", "value_column", "dep_column",
                 "mem_size_column")

    def column_lists(self, packed):
        return {name: list(getattr(packed, name)())[:len(packed)]
                for name in self.ACCESSORS}

    def test_empty_trace_columns(self):
        program, _trace = random_case(0)
        empty = PackedTrace.from_entries(program, [])
        assert len(empty) == 0
        for name in self.ACCESSORS:
            assert len(getattr(empty, name)()) == 0
        assert list(empty) == []
        assert empty[0:0] == []
        with pytest.raises(IndexError):
            empty[0]

    def test_single_entry_trace_columns(self):
        from repro.isa import assemble
        program = assemble("""
            .text
        main: halt
        """)
        trace = list(FunctionalCpu(program).run_trace())
        assert len(trace) == 1
        packed = pack_trace(program, trace)
        assert list(packed.static_column())[:1] == [0]
        assert list(packed.dep_column())[:1] != []
        assert_entries_identical(packed, trace)
        # ...and a single-entry blob survives the disk roundtrip.
        again = PackedTrace.from_buffer(program, packed.to_bytes())
        assert_entries_identical(again, trace)

    def test_trace_exactly_at_instruction_cap(self):
        from repro.kernel import ExecutionError
        program, trace = random_case(5)
        cap = len(trace)
        capped = list(FunctionalCpu(program).run_trace(max_instructions=cap))
        assert len(capped) == cap                # boundary: == cap is fine
        packed = pack_trace(program, capped)
        assert_entries_identical(packed, capped)
        with pytest.raises(ExecutionError):
            FunctionalCpu(program).run_trace(max_instructions=cap - 1)

    def test_byteswap_fallback_decode_matches_cast(self, monkeypatch):
        import repro.kernel.tracestore as tracestore_mod
        program, trace = random_case(1)
        packed = pack_trace(program, trace)
        blob = packed.to_bytes()
        cast = PackedTrace.from_buffer(program, blob)
        monkeypatch.setattr(tracestore_mod, "_CAN_CAST", False)
        fallback = PackedTrace.from_buffer(program, blob)
        assert_entries_identical(fallback, trace)
        for name in self.ACCESSORS:
            assert (list(getattr(fallback, name)())[:len(packed)]
                    == list(getattr(cast, name)())[:len(packed)])

    def test_accessors_identical_across_construction_paths(self):
        # from_entries (array columns), from_bytes (memoryview casts),
        # and the direct columnar recorder must expose the same columns.
        program, trace = random_case(2)
        from_list = pack_trace(program, trace)
        from_blob = PackedTrace.from_buffer(program, from_list.to_bytes())
        direct = run_trace_packed(program)
        want = self.column_lists(from_list)
        assert self.column_lists(from_blob) == want
        assert self.column_lists(direct) == want


class TestGoldenIdentity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_stats_identical_packed_vs_list(self, model):
        program = small_workload()
        packed = FunctionalCpu(program).run_trace(
            max_instructions=MAX_TRACE_INSTRUCTIONS)
        trace = list(packed)
        from_list = Simulator(program, trace, model_params(model)).run()
        from_packed = Simulator(program, packed, model_params(model)).run()
        assert from_packed.to_dict() == from_list.to_dict()

    def test_random_program_stats_identical(self):
        program, trace = random_case(3)
        packed = pack_trace(program, trace)
        params = model_params(ModelKind.DMDP)
        assert (Simulator(program, packed, params).run().to_dict()
                == Simulator(program, trace, params).run().to_dict())


class TestTraceStore:
    def store(self, tmp_path):
        return TraceStore(root=tmp_path / "traces", version="v1")

    def test_put_load_roundtrip_and_counters(self, tmp_path):
        store = self.store(tmp_path)
        program, trace = random_case(0)
        assert store.load("rand0", 10, program) is None
        assert store.misses == 1
        store.put("rand0", 10, pack_trace(program, trace))
        loaded = store.load("rand0", 10, program)
        assert store.hits == 1
        assert_entries_identical(loaded, trace)
        assert store.entry_count() == 1
        assert store.size_bytes() > 0

    def test_truncated_blob_is_clean_miss_and_repaired(self, tmp_path):
        store = self.store(tmp_path)
        program, trace = random_case(0)
        store.put("rand0", 10, pack_trace(program, trace))
        path = store.path_for("rand0", 10)
        path.write_bytes(path.read_bytes()[:50])     # truncate mid-column
        assert store.load("rand0", 10, program) is None
        store.put("rand0", 10, pack_trace(program, trace))   # repair
        assert store.load("rand0", 10, program) is not None

    def test_garbage_bytes_are_clean_miss(self, tmp_path):
        store = self.store(tmp_path)
        program, _ = random_case(0)
        path = store.path_for("rand0", 10)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00definitely not a packed trace")
        assert store.load("rand0", 10, program) is None

    def test_flipped_payload_byte_is_clean_miss(self, tmp_path):
        # Right magic, right header, corrupted column data: the payload
        # checksum must reject it rather than decode garbage entries.
        store = self.store(tmp_path)
        program, trace = random_case(0)
        store.put("rand0", 10, pack_trace(program, trace))
        path = store.path_for("rand0", 10)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load("rand0", 10, program) is None

    def test_wrong_program_is_clean_miss(self, tmp_path):
        store = self.store(tmp_path)
        program_a, trace_a = random_case(0)
        program_b, _ = random_case(1)
        store.put("rand", 10, pack_trace(program_a, trace_a))
        assert store.load("rand", 10, program_b) is None

    def test_format_bump_changes_trace_key(self, tmp_path, monkeypatch):
        from repro.kernel import tracestore
        store = self.store(tmp_path)
        program, trace = random_case(0)
        store.put("rand0", 10, pack_trace(program, trace))
        old_key = store.key_for("rand0", 10)
        monkeypatch.setattr(tracestore, "TRACE_FORMAT_VERSION",
                            tracestore.TRACE_FORMAT_VERSION + 1)
        assert store.key_for("rand0", 10) != old_key
        assert store.load("rand0", 10, program) is None    # miss, no crash

    def test_format_bump_changes_result_cache_key(self, tmp_path,
                                                  monkeypatch):
        # Results are derived from decoded traces, so a trace-format bump
        # must conservatively invalidate them too.
        from repro.kernel import tracestore
        cache = ResultCache(root=tmp_path / "cache", version="v1")
        spec = ConfigSpec.create(ModelKind.DMDP)
        old_key = cache.key_for_spec("bzip2", 50, spec)
        monkeypatch.setattr(tracestore, "TRACE_FORMAT_VERSION",
                            tracestore.TRACE_FORMAT_VERSION + 1)
        assert cache.key_for_spec("bzip2", 50, spec) != old_key

    def test_functional_version_in_key(self, tmp_path):
        a = TraceStore(root=tmp_path / "t", version="v1")
        b = TraceStore(root=tmp_path / "t", version="v2")
        assert a.key_for("mcf", 10) != b.key_for("mcf", 10)

    def test_gc_and_clear_sweep_blobs_and_orphans(self, tmp_path):
        store = self.store(tmp_path)
        program, trace = random_case(0)
        store.put("rand0", 10, pack_trace(program, trace))
        orphan_dir = store.root / "ab"
        orphan_dir.mkdir(parents=True, exist_ok=True)
        (orphan_dir / "dead.tmp").write_bytes(b"partial")
        assert store.gc(min_age_seconds=3600.0) == 0
        assert store.gc() == 1
        assert store.clear() == 1
        assert store.entries() == []

    @pytest.mark.parametrize("kind", ["result", "trace", "precompute"])
    def test_disabled_store_is_inert(self, kind, tmp_path, monkeypatch):
        """``root=None`` persists nothing, counts nothing, and its
        maintenance calls see no files, for every kind of store."""
        monkeypatch.chdir(tmp_path)
        program, trace = random_case(0)
        packed = pack_trace(program, trace)
        if kind == "result":
            store = ResultCache(root=None)
            key = store.key_for_spec(
                "x", 1, ConfigSpec.create(ModelKind.DMDP))
            assert store.put(key, {"stats": 1}) is None
            assert store.get(key) is None
            assert store._path(key) is None
        elif kind == "trace":
            store = TraceStore(root=None)
            assert store.put("x", 1, packed) is None
            assert store.load("x", 1, program) is None
            assert store.path_for("x", 1) is None
        else:
            store = PrecomputeStore(root=None)
            bundle = TracePrecompute.build(
                packed, bpred_signature(model_params(ModelKind.DMDP)))
            assert store.put("x", 1, bundle) is None
            assert store.load("x", 1, packed, bundle.signature) is None
            assert store.path_for("x", 1, bundle.signature) is None
        assert store.root is None
        assert (store.hits, store.misses) == (0, 0)
        assert store.entries() == [] and store.tmp_files() == []
        assert store.entry_count() == store.size_bytes() == 0
        assert store.gc() == store.clear() == 0
        assert list(tmp_path.iterdir()) == []


class TestRunnerIntegration:
    def runner(self, tmp_path, **kwargs):
        kwargs.setdefault("cache", ResultCache(root=None))
        kwargs.setdefault("trace_store",
                          TraceStore(root=tmp_path / "traces"))
        return ExperimentRunner(scale=0.1, jobs=1, **kwargs)

    def test_warm_store_skips_functional_execution(self, tmp_path):
        first = self.runner(tmp_path)
        cold = first.run("mcf", ModelKind.DMDP)
        assert (first.traces_generated, first.traces_loaded) == (1, 0)

        second = self.runner(tmp_path)
        warm = second.run("mcf", ModelKind.DMDP)
        assert (second.traces_generated, second.traces_loaded) == (0, 1)
        assert (second.traces_generated, second.worker_retraces) == (0, 0)
        assert warm.stats.to_dict() == cold.stats.to_dict()

    def test_default_store_lives_under_cache_root(self, tmp_path):
        runner = ExperimentRunner(
            scale=0.1, cache=ResultCache(root=tmp_path / "cache"))
        assert runner.trace_store.root == tmp_path / "cache" / "traces"

    def test_no_cache_disables_trace_store_too(self):
        runner = ExperimentRunner(scale=0.1, use_cache=False)
        assert runner.trace_store.root is None

    def test_disabled_stores_hash_no_key(self, monkeypatch):
        """With the stores off, a batch digests no trace or precompute
        key: it runs with both ``key_for`` methods raising, and its
        statistics are unchanged."""
        points = [make_point("bzip2", ModelKind.NOSQ),
                  make_point("bzip2", ModelKind.DMDP)]
        want = ExperimentRunner(scale=0.05, use_cache=False).run_batch(points)

        def no_key(*args):
            raise AssertionError("a disabled store hashed a key")

        monkeypatch.setattr(TraceStore, "key_for", no_key)
        monkeypatch.setattr(PrecomputeStore, "key_for", no_key)
        runner = ExperimentRunner(scale=0.05, use_cache=False)
        got = runner.run_batch(points)
        assert runner.traces_generated == runner.precomputes_built == 1
        for point in points:
            assert got[point].stats.to_dict() == want[point].stats.to_dict()

    def worker(self, parent, points):
        """Run one worker task in this process on the parent's stores;
        returns its point outcomes and its counts."""
        (outcomes, _phases), counts = _simulate_task(points[0].workload, (
            parent.scale, parent.trace_store, parent.precompute_store,
            points))
        return outcomes, counts

    def test_worker_retraces_a_truncated_blob_and_rewrites_it(self,
                                                              tmp_path):
        parent = self.runner(tmp_path)
        parent.ensure_trace("mcf")
        path = parent.trace_store.path_for("mcf", parent.iterations("mcf"))
        stored = path.read_bytes()
        point = make_point("mcf", ModelKind.DMDP)
        [(_, warm, _)], counts = self.worker(parent, [point])
        assert counts == {}                          # mapped, not re-traced
        path.write_bytes(stored[:len(stored) // 2])
        [(_, rerun, _)], counts = self.worker(parent, [point])
        assert counts == {"worker_retraces": 1}      # a counted fallback
        assert path.read_bytes() == stored           # stored again
        assert rerun.stats.to_dict() == warm.stats.to_dict()

    def test_worker_uses_the_parent_stores_version(self, tmp_path):
        root = tmp_path / "traces"
        parent = self.runner(
            tmp_path, trace_store=TraceStore(root=root, version="v-test"),
            precompute_store=PrecomputeStore(root=root, version="v-test"))
        parent.ensure_trace("mcf")
        bundle = parent.ensure_precompute("mcf")
        assert parent.trace_store.entry_count() == 1
        iterations = parent.iterations("mcf")
        assert not TraceStore(root=root).path_for("mcf", iterations).exists()
        assert not PrecomputeStore(root=root).path_for(
            "mcf", iterations, bundle.signature).exists()
        _, counts = self.worker(parent, [make_point("mcf", model)
                                         for model in (ModelKind.DMDP,
                                                       ModelKind.NOSQ)])
        # Both v-test blobs found: no re-trace, no rebuilt bundle.
        assert counts == {"worker_precomputes_loaded": 1}
        assert parent.trace_store.entry_count() == 1

    def test_parallel_batch_zero_worker_retraces_with_store(self, tmp_path):
        runner = ExperimentRunner(
            scale=0.05, jobs=2, cache=ResultCache(root=tmp_path / "cache"),
            trace_store=TraceStore(root=tmp_path / "traces"))
        points = [make_point(w, m) for w in ("mcf", "lbm")
                  for m in (ModelKind.BASELINE, ModelKind.DMDP)]
        out = runner.run_batch(points)
        assert len(out) == 4
        assert runner.worker_retraces == 0
        assert runner.traces_generated == 2          # parent, once each
        timing = runner.batch_log[-1]
        assert timing.worker_retraces == 0
        assert timing.traces_generated == 2
        assert timing.traces_generated + timing.worker_retraces == 2

    def test_parallel_batch_without_store_retraces_per_worker(self):
        runner = ExperimentRunner(scale=0.05, jobs=2, use_cache=False)
        points = [make_point(w, ModelKind.DMDP) for w in ("mcf", "lbm")]
        runner.run_batch(points)
        assert runner.worker_retraces == 2
        assert runner.batch_log[-1].worker_retraces == 2


def _refuse(*_args, **_kwargs):
    raise AssertionError("one functional entry point called the other")


class TestFunctionalEntryPoints:
    """perfbench times ``FunctionalCpu.run_trace`` and
    ``run_trace_packed`` by name: if one called the other, a traced run
    would count each trace twice.  Each must record on its own."""

    def test_run_trace_records_without_run_trace_packed(self, monkeypatch):
        program, trace = random_case(0)
        original = tracestore_mod.run_trace_packed
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "run_trace_packed", None)
                    is original):
                monkeypatch.setattr(module, "run_trace_packed", _refuse)
        recorded = FunctionalCpu(program).run_trace()
        assert isinstance(recorded, PackedTrace)
        assert_entries_identical(recorded, trace)

    def test_run_trace_packed_records_without_run_trace(self, monkeypatch):
        program, trace = random_case(0)
        monkeypatch.setattr(FunctionalCpu, "run_trace", _refuse)
        assert_entries_identical(tracestore_mod.run_trace_packed(program),
                                 trace)


class TestTraceCaps:
    def test_single_cap_constant_everywhere(self):
        import inspect
        for func in (FunctionalCpu.run_trace, run_trace_packed,
                     trace_program):
            defaults = {
                name: parameter.default
                for name, parameter in
                inspect.signature(func).parameters.items()}
            assert defaults["max_instructions"] == MAX_TRACE_INSTRUCTIONS, (
                "%s does not honor the shared trace cap" % func.__name__)
