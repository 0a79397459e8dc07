"""Whole-trace precompute bundles: tables, serialisation, batching.

Four layers under test (DESIGN.md Section 14):

* the tables -- :class:`TracePrecompute` must reproduce exactly the
  mispredict flags, rename-time global history and fetch-group ends of
  an independent reference computed here from ``TraceEntry`` objects,
  before and after a serialisation round trip, plus the decode index,
  and the fetch stage must follow the per-entry fetch loop across
  squashes; back-to-back runs
  on one trace each start from a freshly loaded memory image;
  the Simulator reads each entry's producing store, word address and
  Byte Access Bits from the trace's own columns, and what it hands the
  T-SSBF equals each ``TraceEntry``'s fields;
* the golden bar -- SimStats must be byte-identical whether a point is
  simulated from the list trace, from a packed trace's first run (which
  builds its bundle) or from a later run that shares that bundle, on
  every model, and no run indexes a ``TraceEntry`` out of the packed
  trace; a bundle lives on the trace it was built or loaded for, under
  its predictor geometry, and is freed with it;
* the blob -- serialisation round-trips through bytes and through a
  file, and every corruption (truncated, flipped byte, bad magic,
  format bump, wrong trace, wrong signature) raises
  :class:`PrecomputeDecodeError`, which the store reads as a clean miss;
* the batching -- batch submissions resolve exactly one bundle per
  distinct trace (cold: built, warm store: loaded -- never rebuilt),
  asserted through the runner counters and :class:`BatchTiming`, and a
  grouped batch builds each trace's decode index once, where a runner
  per point builds one for every point.
"""

import copy
import gc
import glob
import os
import random
import weakref
from dataclasses import replace

import pytest

import repro.kernel.precompute as precompute_mod
from repro.harness.cache import PrecomputeStore, ResultCache, TraceStore
from repro.config import ConfigSpec
from repro.fuzz.artifacts import load_artifact
from repro.fuzz.generator import PROFILES, ProgramSpec, materialize
from repro.harness.parallel import SimPoint, make_point
from repro.harness.runner import ExperimentRunner, _simulate_task
from repro.kernel import (FunctionalCpu, MAX_TRACE_INSTRUCTIONS,
                          PackedTrace, load_trace, pack_trace)
from repro.kernel.memory import SparseMemory
from repro.kernel.precompute import (PRECOMPUTE_FORMAT_VERSION,
                                     PrecomputeDecodeError, TracePrecompute,
                                     bpred_signature, load_precompute)
from repro.kernel.tracestore import NO_DEP
from repro.obs.tracer import RecordingTracer
from repro.uarch import ALL_MODELS, ModelKind, Simulator, model_params
from repro.uarch.branch import BranchPredictor
from repro.uarch.pipeline import _Decoded
from repro.workloads import ALL_NAMES, get_workload

from .test_differential_oracle import SEED, build_random_program

DEFAULT_SIG = bpred_signature(model_params(ModelKind.BASELINE))


def small_workload(name="mcf", fraction=0.1):
    spec = get_workload(name)
    return spec.build(spec.iterations(fraction))


def packed_case(name="mcf", fraction=0.1):
    """A program, its trace as a list, and the recorded packed trace."""
    program = small_workload(name, fraction)
    packed = FunctionalCpu(program).run_trace(
        max_instructions=MAX_TRACE_INSTRUCTIONS)
    return program, list(packed), packed


def random_case(index):
    rng = random.Random(SEED + index)
    program = build_random_program(rng)
    packed = FunctionalCpu(program).run_trace(max_instructions=200_000)
    return program, list(packed), packed


def fuzz_case(profile="tag-alias", seed=1):
    """A recorded fuzz program whose trace has calls (JAL) and every
    partial-word load and store, which mcf's has not."""
    program = materialize(ProgramSpec(PROFILES[profile], seed).generate())
    packed = FunctionalCpu(program).run_trace(max_instructions=200_000)
    return program, list(packed), packed


def twin(program, packed):
    """Another trace object with the same content and no bundles."""
    return PackedTrace.from_buffer(program, packed.to_bytes())


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


def assert_reads_columns(sim, packed):
    """``sim`` reads each entry's memory fields from ``packed``'s own
    columns, not from a copy."""
    __tracebackhide__ = True
    assert sim.trace is packed
    assert sim._dep is packed.dep_column()
    assert sim._mem_addr is packed.mem_addr_column()
    assert sim._mem_size is packed.mem_size_column()


DECODE_FIELDS = ("pc", "instr", "is_load", "is_store", "is_mem",
                 "is_control",
                 "is_cond_branch", "src_regs", "dest_reg", "fu", "latency",
                 "is_partial", "rs", "rt", "rd", "uop_estimate", "uop_kind",
                 "uop_fu", "arch_dest", "arch_kind", "arch_alu", "imm",
                 "signed_load")


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
                theirs = _Decoded(entry.instr, params, entry.pc)
                for field in DECODE_FIELDS:
                    assert getattr(ours, field) == getattr(theirs, field)
            # The columns the pipeline reads by trace index hold each
            # entry's TraceEntry fields, the derived ones through the view
            # formulas it applies at each use.
            assert_reads_columns(sim, sim.trace)
            for e in trace:
                dep = sim._dep[e.index]
                addr, size = sim._mem_addr[e.index], sim._mem_size[e.index]
                assert (None if dep == NO_DEP else dep) == e.dep_store
                assert addr & ~0x3 == e.word_addr
                assert ((1 << size) - 1) << (addr & 0x3) == e.bab
            mem = [e for e in trace if e.instr.is_mem]
            assert mem, name
            for e in mem:
                assert (sim._mem_addr[e.index], sim._mem_size[e.index],
                        sim._value[e.index]) == (e.mem_addr, e.mem_size,
                                                 e.value)

    def test_random_programs_tables_match(self):
        signatures = (DEFAULT_SIG,
                      (DEFAULT_SIG[0] - 2, DEFAULT_SIG[1], DEFAULT_SIG[2]),
                      (DEFAULT_SIG[0], 16, 3))
        for index in range(4):
            _program, trace, packed = random_case(index)
            for signature in signatures:
                assert_tables(TracePrecompute.build(packed, signature),
                              reference_tables(trace, signature))

    def test_bundles_live_on_their_trace_by_signature(self):
        _program, _trace, packed = packed_case()
        assert packed.bundles == {}
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        assert packed.bundles == {DEFAULT_SIG: bundle}
        assert bundle.trace is packed
        other = (DEFAULT_SIG[0] + 1,) + DEFAULT_SIG[1:]
        second = TracePrecompute.build(packed, other)
        assert packed.bundles == {DEFAULT_SIG: bundle, other: second}
        # A decoded bundle lands on its trace too, replacing the built one.
        loaded = TracePrecompute.from_buffer(packed, bundle.to_bytes())
        assert packed.bundles == {DEFAULT_SIG: loaded, other: second}

    def test_twin_trace_carries_no_bundle(self):
        program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        other = twin(program, packed)
        assert len(other) == len(packed)
        assert other.bundles == {}
        sim = Simulator(program, other, model_params(ModelKind.BASELINE))
        assert sim.trace is other                # built its own
        assert other.bundles[DEFAULT_SIG] is not bundle
        assert packed.bundles == {DEFAULT_SIG: bundle}

    def test_dropped_trace_frees_its_bundles_and_mapping(self, tmp_path):
        # No reference cycle: with the cyclic collector off, dropping a
        # mapped trace after a run frees the trace, the bundle the run
        # left on it, and the mapping (cold-point's fresh runner per
        # point relies on this).
        program, _trace, packed = packed_case()
        path = tmp_path / "mcf.trc"
        path.write_bytes(packed.to_bytes())
        collecting = gc.isenabled()
        gc.disable()
        try:
            loaded = load_trace(path, program)
            assert loaded._mmap is not None
            sim = Simulator(program, loaded, model_params(ModelKind.DMDP))
            sim.run()
            refs = [weakref.ref(obj) for obj in
                    (loaded, loaded.bundles[DEFAULT_SIG], loaded._mmap)]
            del sim, loaded
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if collecting:
                gc.enable()

    def test_decode_index_memoised_per_latency_signature(self):
        _program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        base = model_params(ModelKind.BASELINE)
        dmdp = model_params(ModelKind.DMDP)
        assert bundle.decode_index(base) is bundle.decode_index(dmdp)
        slow = replace(base, mul_latency=base.mul_latency + 1)
        assert bundle.decode_index(slow) is not bundle.decode_index(base)

    def test_back_to_back_runs_each_start_from_a_fresh_image(self):
        # Two Simulators on one trace object share its bundle, and each
        # starts from the image a fresh load_segment gives: no store the
        # first run committed leaks into the second.
        program, _trace, packed = packed_case()
        params = model_params(ModelKind.DMDP)
        fresh = SparseMemory()
        fresh.load_segment(program.data_base, program.data)

        def image(memory):
            return memory.snapshot(), sorted(memory.touched_pages())

        first = Simulator(program, packed, params)
        bundle = packed.bundles[bpred_signature(params)]
        assert image(first.timing_mem) == image(fresh)
        stats = first.run().to_dict()
        assert image(first.timing_mem) != image(fresh)  # the run stored
        second = Simulator(program, packed, params)
        assert second._history is bundle.history_list()
        assert image(second.timing_mem) == image(fresh)
        assert second.run().to_dict() == stats


def reference_group_ends(entries, mispredicted):
    """The entries that end a fetch group, by a per-entry scan of
    ``TraceEntry`` objects: a control entry mispredicted or taken."""
    return [entry.index for entry in entries
            if entry.instr.is_control
            and (mispredicted[entry.index] or entry.taken)]


def corpus_programs():
    """The regression corpus's programs (tests/corpus/)."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                          "corpus", "*.json")))
    assert paths
    return [(os.path.basename(path),
             materialize(load_artifact(path).replay_ir)) for path in paths]


def reference_fetch(sim, mispredicted, entries):
    """Where the per-entry fetch scan leaves ``sim`` from its current
    state: (fetch index, pending branch index)."""
    index, pending = sim.fetch_index, sim._pending_branch_index
    width = sim.params.fetch_width
    if (sim.cycle < sim.fetch_blocked_until or sim.pending_branch
            or index - sim.rename_index >= 2 * width):
        return index, pending
    end = min(index + width, len(entries))
    while index < end:
        entry = entries[index]
        index += 1
        if entry.instr.is_control:
            if mispredicted[entry.index]:
                return index, entry.index
            if entry.taken:
                break
    return index, pending


class TestFetchGroups:
    """The bundle's fetch-group ends, and the fetch stage's cursor over
    them, against a per-entry scan of the trace."""

    def test_group_ends_match_a_per_entry_scan(self):
        cases = [(name, small_workload(name, 0.15))
                 for name in ALL_NAMES] + corpus_programs()
        kinds = set()
        for name, program in cases:
            packed = FunctionalCpu(program).run_trace(
                max_instructions=MAX_TRACE_INSTRUCTIONS)
            entries = list(packed)
            mispredicted, _history = reference_tables(entries, DEFAULT_SIG)
            want = reference_group_ends(entries, mispredicted) + [
                len(entries)]
            built = TracePrecompute.build(packed, DEFAULT_SIG)
            loaded = TracePrecompute.from_buffer(twin(program, packed),
                                                 built.to_bytes())
            assert list(built.fetch_group_ends()) == want, name
            assert list(loaded.fetch_group_ends()) == want, name
            kinds.update((mispredicted[i], entries[i].taken)
                         for i in want[:-1])
        # Each way to end a group occurs: mispredicted, taken, or both.
        assert kinds == {(True, False), (False, True), (True, True)}

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_fetch_follows_the_per_entry_scan_across_squashes(self, model):
        reseeks = 0
        for name, program in corpus_programs() + [
                ("bzip2", small_workload("bzip2", 0.05))]:
            packed = FunctionalCpu(program).run_trace(
                max_instructions=MAX_TRACE_INSTRUCTIONS)
            entries = list(packed)
            mispredicted, _history = reference_tables(entries, DEFAULT_SIG)
            sim = Simulator(program, packed, model_params(model))
            fetch = sim._fetch
            furthest = [0]

            def checked_fetch():
                nonlocal reseeks
                first = sim.fetch_index
                want = reference_fetch(sim, mispredicted, entries)
                fetch()
                assert (sim.fetch_index,
                        sim._pending_branch_index) == want, (name, first)
                if sim.fetch_index > first:
                    assert sim.fetch_groups[-1] == (sim.cycle + 2,
                                                    sim.fetch_index)
                    # A squash moved fetch back behind what it had
                    # fetched: this group came from a re-seek.
                    reseeks += first < furthest[0]
                furthest[0] = max(furthest[0], sim.fetch_index)

            sim._fetch = checked_fetch    # run() reads the stage off self
            stats = sim.run()
            assert stats.to_dict() == Simulator(
                program, entries, model_params(model)).run().to_dict()
        if model is not ModelKind.PERFECT:
            assert reseeks > 0


class TssbfSpy:
    """Stands in for a Simulator's T-SSBF: forwards every call, and
    records ``(kind, trace index, word_addr, bab)`` for each
    ``store_retire`` (a retiring store) and ``load_lookup`` (a verifying
    load), the index taken from the retire stage that made the call."""

    def __init__(self, sim):
        self.inner = sim.tssbf
        self.calls = []
        self.index = None
        sim.tssbf = self
        for name in ("_retire_store", "_verify_load"):
            def entered(instr, stage=getattr(sim, name)):
                self.index = instr.rob_id
                return stage(instr)
            setattr(sim, name, entered)

    def store_retire(self, word_addr, ssn, bab):
        self.calls.append(("store", self.index, word_addr, bab))
        self.inner.store_retire(word_addr, ssn, bab)

    def load_lookup(self, word_addr, load_bab):
        self.calls.append(("load", self.index, word_addr, load_bab))
        return self.inner.load_lookup(word_addr, load_bab)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestColumnMemoryFields:
    @pytest.mark.parametrize("model", [ModelKind.NOSQ, ModelKind.DMDP],
                             ids=lambda m: m.value)
    def test_tssbf_sees_each_entrys_word_address_and_bab(self, model):
        # The word address and Byte Access Bits the Simulator derives from
        # the mem_addr/mem_size columns are the TraceEntry view's: every
        # store retires into the T-SSBF once, in order, and every load
        # verifies against it with its own fields.  The tag-alias program
        # of seed 3 adds sub-word loads off a word boundary to seed 1's
        # sub-word stores.
        off_word = set()
        for case in (packed_case, fuzz_case, lambda: fuzz_case(seed=3)):
            program, trace, packed = case()
            sim = Simulator(program, packed, model_params(model))
            spy = TssbfSpy(sim)
            sim.run()
            stores = [e.index for e in trace if e.instr.is_store]
            assert [index for kind, index, _, _ in spy.calls
                    if kind == "store"] == stores
            loads = {index for kind, index, _, _ in spy.calls
                     if kind == "load"}
            assert loads and all(trace[i].instr.is_load for i in loads)
            for kind, index, word_addr, bab in spy.calls:
                entry = trace[index]
                assert (word_addr, bab) == (entry.word_addr, entry.bab), \
                    (kind, index)
                if entry.mem_addr & 0x3:
                    off_word.add(kind)
        # Where dropping either half of a formula shows, on both sides.
        assert off_word == {"store", "load"}


def forbid_entry_views(monkeypatch):
    """Make indexing or iterating any PackedTrace raise, so a run that
    materialises a TraceEntry fails (list() a trace before calling)."""
    def refuse(self, *args):
        raise AssertionError("the timing model indexed a TraceEntry view")
    monkeypatch.setattr(PackedTrace, "__getitem__", refuse)
    monkeypatch.setattr(PackedTrace, "__iter__", refuse)


def count_builds(monkeypatch):
    """Record every TracePrecompute.build call in the returned list."""
    built = []
    build = TracePrecompute.build.__func__
    monkeypatch.setattr(TracePrecompute, "build", classmethod(
        lambda cls, *args: built.append(args) or build(cls, *args)))
    return built


class TestGoldenBatchedIdentity:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.value)
    def test_stats_identical_list_packed_batched(self, model):
        # The first run over a packed trace builds the bundle, a later one
        # shares it: both read the same packed columns and bundle tables.
        program, trace, packed = packed_case()
        params = model_params(model)
        from_list = Simulator(program, trace, params).run().to_dict()
        first = Simulator(program, packed, params)
        bundle = packed.bundles[DEFAULT_SIG]
        later = Simulator(program, packed, params)
        assert packed.bundles == {DEFAULT_SIG: bundle}
        for sim in (first, later):
            assert_reads_columns(sim, packed)
            assert sim._history is bundle.history_list()
        assert first.run().to_dict() == from_list
        assert later.run().to_dict() == from_list

    def test_four_models_over_one_trace_build_one_bundle(self, monkeypatch):
        # short-programs, run_all_models and the fuzz oracles run every
        # model over one recorded trace: the first run builds the bundle,
        # the other three share it, all four read the trace's columns,
        # and every model's stats match its list-trace run.
        program, trace, packed = packed_case()
        built = count_builds(monkeypatch)
        sims = [Simulator(program, packed, model_params(model))
                for model in ALL_MODELS]
        assert len(built) == 1
        mispredicted = packed.bundles[DEFAULT_SIG].mispredicted_list()
        for sim in sims:
            assert_reads_columns(sim, packed)
            assert sim._mispredicted is mispredicted
        for model, sim in zip(ALL_MODELS, sims):
            assert (sim.run().to_dict() == Simulator(
                program, trace, model_params(model)).run().to_dict()), model

    @pytest.mark.parametrize("case", [packed_case, fuzz_case],
                             ids=["mcf", "fuzz"])
    @pytest.mark.parametrize("observer", ["arch_state", "tracer"])
    def test_runs_never_materialise_trace_entries(self, monkeypatch,
                                                  observer, case):
        # Every per-entry field comes from the packed columns and the
        # bundle's tables, so with entry views forbidden all four models
        # still run one recorded trace -- the first building its bundle,
        # the other three sharing it -- including the architectural-state
        # and tracer paths, and each model's stats match its list run.
        program, trace, packed = case()

        def simulate(source, model):
            if observer == "arch_state":
                sim = Simulator(program, source, model_params(model),
                                track_arch_state=True)
                stats = sim.run().to_dict()
                return stats, sim.architectural_registers()
            tracer = RecordingTracer()
            sim = Simulator(program, source, model_params(model),
                            tracer=tracer)
            return sim.run().to_dict(), tracer.events

        want = {model: simulate(trace, model) for model in ALL_MODELS}
        forbid_entry_views(monkeypatch)
        built = count_builds(monkeypatch)
        for model in ALL_MODELS:
            got = simulate(packed, model)
            assert got[0] == want[model][0], model
            assert got[1] == want[model][1], model
            assert got[1], model
        assert len(built) == 1
        assert list(packed.bundles) == [DEFAULT_SIG]

    def test_bundle_reuse_across_configs_is_identical(self):
        # The whole point of batching: one bundle, many configs.  Each
        # plain run gets a trace of its own, so it builds its own bundle.
        program, _trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        for model in (ModelKind.BASELINE, ModelKind.DMDP):
            for overrides in ({}, {"store_buffer_entries": 8}):
                params = replace(model_params(model), **overrides)
                plain = Simulator(program, twin(program, packed),
                                  params).run().to_dict()
                shared = Simulator(program, packed, params)
                assert shared._mispredicted is bundle.mispredicted_list()
                assert_reads_columns(shared, packed)
                assert shared.run().to_dict() == plain

    def test_overridden_geometry_falls_back_and_stays_identical(self):
        program, trace, packed = packed_case()
        bundle = TracePrecompute.build(packed, DEFAULT_SIG)
        params = replace(model_params(ModelKind.DMDP),
                         bpred_table_bits=DEFAULT_SIG[0] - 2)
        sim = Simulator(program, packed, params)
        # The Simulator built a bundle for its own predictor geometry and
        # left it beside the default one.
        own = packed.bundles[bpred_signature(params)]
        assert own is not bundle and packed.bundles[DEFAULT_SIG] is bundle
        assert sim.trace is packed
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
        assert len(packed_b) == len(packed_a)
        params = model_params(ModelKind.DMDP)
        sim = Simulator(program, packed_b, params)
        assert packed_b.bundles[DEFAULT_SIG] is not bundle_a
        assert packed_b.bundles[DEFAULT_SIG].trace is packed_b
        assert sim._value[flipped] == trace_b[flipped].value
        assert sim._value[flipped] != trace_a[flipped].value
        assert (sim.run().to_dict()
                == Simulator(program, trace_b, params).run().to_dict())

    def test_loaded_bundle_is_identical_to_built(self, tmp_path):
        program, _trace, packed = packed_case()
        params = model_params(ModelKind.DMDP)
        built = TracePrecompute.build(twin(program, packed), DEFAULT_SIG)
        path = tmp_path / "mcf.pre"
        path.write_bytes(built.to_bytes())
        loaded = load_precompute(path, packed, DEFAULT_SIG)
        assert packed.bundles == {DEFAULT_SIG: loaded}
        sim = Simulator(program, packed, params)
        assert sim._history is loaded.history_list()
        assert_reads_columns(sim, packed)
        assert (sim.run().to_dict() == Simulator(
            program, twin(program, packed), params).run().to_dict())


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
        path.write_bytes(bundle.to_bytes())
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
        return [SimPoint(w, ConfigSpec.create(m, o))
                for w in ("mcf", "lbm")
                for m in (ModelKind.BASELINE, ModelKind.DMDP)
                for o in ({}, {"core.store_buffer_entries": 8})]

    def test_cold_batch_builds_exactly_one_bundle_per_trace(self, tmp_path):
        runner = self.runner(tmp_path)
        out = runner.run_batch(self.points())
        assert len(out) == 8
        timing = runner.batch_log[-1]
        assert timing.precomputes_built == 2         # one per distinct trace
        assert timing.precomputes_loaded == 0
        assert timing.worker_precomputes_built == 0
        assert (timing.precomputes_built + timing.precomputes_loaded
                + timing.worker_precomputes_built
                + timing.worker_precomputes_loaded) == 2

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
            want = plain.run_batch([point])[point].stats.to_dict()
            assert out[point].stats.to_dict() == want

    def test_grouped_batch_builds_once_per_trace_not_per_point(
            self, tmp_path, monkeypatch):
        # What grouping saves, as counts: on warm trace and precompute
        # stores, a fresh runner per point builds a bundle and a decode
        # index for every point; one grouped run_batch loads one bundle
        # per trace, builds none, and builds the decode index once per
        # trace.  Each Simulator loads its own memory image either way.
        self.runner(tmp_path).run_batch(self.points())    # fill the stores
        built = count_builds(monkeypatch)
        indexed, images = [], []
        decode_index = TracePrecompute.decode_index
        load_segment = SparseMemory.load_segment

        def spy_decode_index(bundle, params):
            before = len(bundle._dec_memo)
            index = decode_index(bundle, params)
            if len(bundle._dec_memo) > before:
                indexed.append(bundle)
            return index

        def spy_load_segment(memory, *args):
            images.append(args)
            return load_segment(memory, *args)

        monkeypatch.setattr(TracePrecompute, "decode_index",
                            spy_decode_index)
        monkeypatch.setattr(SparseMemory, "load_segment", spy_load_segment)

        def taken():
            counts = (len(built), len(indexed), len(images))
            del built[:], indexed[:], images[:]
            return counts

        ungrouped = {}
        for point in self.points():
            runner = self.runner(tmp_path, cache=ResultCache(root=None))
            ungrouped[point] = runner.run_batch([point])[point]
            assert runner.traces_generated == 0
        assert taken() == (8, 8, 8)
        runner = self.runner(tmp_path, cache=ResultCache(root=None))
        grouped = runner.run_batch(self.points())
        assert taken() == (0, 2, 8)
        assert (runner.precomputes_loaded, runner.traces_generated) == (2, 0)
        for point, result in ungrouped.items():
            assert grouped[point].stats.to_dict() == result.stats.to_dict()

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

    @pytest.mark.parametrize("entry", ["run", "run_batch"])
    def test_single_point_run_stays_precompute_free(self, tmp_path, entry):
        # A single point neither resolves nor stores a shared bundle,
        # whichever way it is submitted: its Simulator builds the bundle
        # and leaves it on the trace, and perfbench's cold-point depends
        # on that staying honest.
        runner = self.runner(tmp_path)
        if entry == "run":
            runner.run("mcf", ModelKind.DMDP)
        else:
            point = make_point("mcf", ModelKind.DMDP)
            assert point in runner.run_batch([point])
        assert runner.batch_log[-1].simulated == 1
        assert runner.precomputes_built == 0
        assert runner.precomputes_loaded == 0
        assert runner.precompute_store.entry_count() == 0
        assert list(runner.trace("mcf").bundles) == [DEFAULT_SIG]

    def test_parallel_batch_shares_bundles_only_across_configs(
            self, tmp_path):
        # mcf has two configs and shares one bundle; lbm has one and
        # builds its own tables, in the parent and in its worker.
        runner = self.runner(tmp_path, jobs=2)
        points = [make_point("mcf", ModelKind.DMDP),
                  make_point("mcf", ModelKind.NOSQ),
                  make_point("lbm", ModelKind.DMDP)]
        out = runner.run_batch(points)
        assert set(out) == set(points)
        timing = runner.batch_log[-1]
        assert timing.precomputes_built == 1
        assert timing.worker_precomputes_built == 0
        assert timing.worker_precomputes_loaded == 1
        assert runner.precompute_store.entry_count() == 1

    def test_bundle_left_by_a_single_run_ships_to_workers(self, tmp_path):
        # A bundle a Simulator built first is stored when a two-config
        # batch resolves its inputs, and the workers load it and build
        # none.
        runner = self.runner(tmp_path, jobs=2)
        runner.run("mcf", ModelKind.DMDP)
        bundle = runner.trace("mcf").bundles[DEFAULT_SIG]
        assert runner.precompute_store.entry_count() == 0
        points = [make_point("mcf", ModelKind.NOSQ),
                  make_point("mcf", ModelKind.BASELINE)]
        assert set(runner.run_batch(points)) == set(points)
        timing = runner.batch_log[-1]
        assert timing.precomputes_built == 0
        assert timing.worker_precomputes_built == 0
        assert timing.worker_precomputes_loaded == 1
        path = runner.precompute_store.path_for(
            "mcf", runner.iterations("mcf"), DEFAULT_SIG)
        assert path.exists()
        assert path.read_bytes() == bundle.to_bytes()

    def worker(self, parent, points):
        """Run one worker task in this process on the parent's stores;
        returns its point outcomes and its counts."""
        (outcomes, _phases), counts = _simulate_task(points[0].workload, (
            parent.scale, parent.trace_store, parent.precompute_store,
            points))
        return outcomes, counts

    def mcf_points(self):
        return [make_point("mcf", ModelKind.DMDP),
                make_point("mcf", ModelKind.NOSQ)]

    def test_worker_loads_the_bundle_ensure_precompute_stored(self,
                                                              tmp_path):
        parent = self.runner(tmp_path)
        parent.ensure_trace("mcf")
        parent.ensure_precompute("mcf")
        assert parent.precompute_store.entry_count() == 1
        outcomes, counts = self.worker(parent, self.mcf_points())
        assert len(outcomes) == 2
        assert counts == {"worker_precomputes_loaded": 1}   # no re-trace

    def test_worker_rebuilds_a_garbage_bundle_blob(self, tmp_path):
        parent = self.runner(tmp_path)
        bundle = parent.ensure_precompute("mcf")
        path = parent.precompute_store.path_for(
            "mcf", parent.iterations("mcf"), DEFAULT_SIG)
        path.write_bytes(b"not a bundle")
        _, counts = self.worker(parent, self.mcf_points())
        assert counts == {"worker_precomputes_built": 1}    # counted
        assert path.read_bytes() == bundle.to_bytes()       # stored again

    def test_a_bundle_belongs_to_one_trace_object(self, tmp_path):
        # A worker's runner maps its own trace object from the parent's
        # stores, so the workload's bundle is resolved again for it.
        parent = self.runner(tmp_path)
        old = parent.ensure_precompute("mcf")
        worker = ExperimentRunner(scale=parent.scale, use_cache=False,
                                  trace_store=parent.trace_store,
                                  precompute_store=parent.precompute_store)
        new = worker.precompute_for("mcf")
        assert new is not old
        assert new.trace is worker.trace("mcf") is not old.trace
        assert (worker.precomputes_loaded, worker.precomputes_built) == (1, 0)
