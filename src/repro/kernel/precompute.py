"""Whole-trace precompute bundles (DESIGN.md section 14).

Every timing simulation needs per-trace metadata -- which trace entries
the front end mispredicts, the global branch history seen at rename and
the decode template per entry.  None of that depends on the sweep
configuration (only on the trace content and the branch-predictor
geometry).

:class:`TracePrecompute` derives it from
:class:`~repro.kernel.tracestore.PackedTrace` columns in one pure-Python
pass, and it is the only place the Simulator gets it from: the first
run of a trace builds the bundle and leaves it on the trace, and every
later run of that trace object shares it, as does every configuration
and worker of a sweep that loads it from the store.  The bundle holds:

* ``mispredicted`` -- per-entry branch-outcome flags from a sequential
  :class:`~repro.uarch.branch.BranchPredictor` replay;
* ``history`` -- the global-history shift register value at rename;
* the fetch-group ends -- the sorted positions of the entries that end a
  fetch group (a control entry that is mispredicted or taken), followed
  by the trace length as a sentinel: a few bytes per group, not an entry
  per trace entry;
* a decode-template index (``_Decoded`` per trace entry, carrying the
  static pc and instruction), memoised per latency signature so every
  config with default latencies shares one table.

Per-entry memory fields are not restated here: the Simulator reads each
entry's producing store, word address and Byte Access Bits straight
from the trace's ``dep`` / ``mem_addr`` / ``mem_size`` columns, so no
run materialises a :class:`~repro.kernel.trace.TraceEntry`.  Nor is the
pre-execution memory image: each Simulator loads its own with
``SparseMemory.load_segment``, which copies the data segment a page at
a time.

Bundles serialise to a small CRC'd blob (the sequential parts only:
bitmap + history; the group ends and the decode index re-derive from
the trace columns)
so the harness can persist them next to the trace blob -- see
``PrecomputeStore`` in :mod:`repro.harness.cache`.

A bundle lives on the trace it was built or loaded for: constructing
one files it in ``trace.bundles`` under its branch-predictor
*signature* (table bits, BTB entries, history bits), where Simulators
look it up.  Another trace object -- even a byte-equal one -- carries
none, and a configuration that overrides any of the geometry finds none
under its own signature, so sharing can never change results.  The
bundle refers back to its trace weakly, so a dropped trace, its bundles
and any mapping it holds are freed by reference counting.  Byte-identity
of SimStats across list runs and first and later runs of a packed trace
is golden-pinned in ``tests/test_precompute.py``.
"""

from __future__ import annotations

import struct
import sys
import weakref
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

from .tracestore import F_TAKEN, _U32, _pad

# Bump whenever the blob layout or the meaning of any precomputed table
# changes; folded into the persistent store's keys (harness/cache.py) so
# a format change invalidates stale blobs instead of mis-decoding them.
PRECOMPUTE_FORMAT_VERSION = 1

_MAGIC = b"RPPC"

# magic, version, count, bpred table bits, btb entries, history bits,
# reserved, payload crc32 -- 32 bytes, keeping the u32 payload aligned.
_HEADER = struct.Struct("<4s7I")

_U32_MAX = 0xFFFFFFFF


class PrecomputeDecodeError(ValueError):
    """A blob is truncated, corrupt, or from a different format/trace."""


def bpred_signature(params) -> Tuple[int, int, int]:
    """The branch-predictor geometry a bundle's tables depend on."""
    return (params.bpred_table_bits, params.btb_entries,
            params.predictor.history_bits)


class TracePrecompute:
    """Whole-trace analysis shared by every run of one packed trace."""

    def __init__(self, trace, signature: Tuple[int, int, int],
                 mispredicted: List[bool], history: List[int],
                 group_ends: array):
        self._trace = weakref.ref(trace)    # the trace holds the bundle
        self.signature = tuple(signature)
        self.n = len(trace)
        self._mispredicted = mispredicted
        self._history = history
        self._group_ends = group_ends
        # Lazily materialised shared state.
        self._dec_memo: Dict[Tuple[int, int, int, int], list] = {}
        trace.bundles[self.signature] = self

    @property
    def trace(self):
        """The packed trace this bundle was built or loaded for."""
        return self._trace()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, trace, signature: Tuple[int, int, int]
              ) -> "TracePrecompute":
        """Analyse one packed trace under one predictor geometry.

        One scan over the packed columns replays the branch predictor on
        control entries, records the rename-time history of every entry
        and collects the fetch-group ends.
        """
        # Deferred import: the uarch layer imports repro.kernel, so a
        # module-level import here would be circular.  The bundle is the
        # one kernel-level structure that replays timing-layer front-end
        # state (the paper's predictor is deterministic on the committed
        # path, which is what makes the replay a pure trace property).
        from ..uarch.branch import BranchPredictor

        table_bits, btb_entries, history_bits = signature
        program = trace.program
        instrs = program.instructions
        text_base = program.text_base
        is_control = [instr.is_control for instr in instrs]
        is_cond = [instr.is_cond_branch for instr in instrs]
        predict = BranchPredictor(table_bits, btb_entries).predict_and_update
        flags = trace.flags_column()
        next_pc = trace.next_pc_column()
        mask = (1 << history_bits) - 1
        n = len(trace)
        mispredicted = [False] * n
        history = [0] * n
        group_ends = array(_U32)
        state = 0
        for i, si in enumerate(trace.static_column()):
            history[i] = state
            if is_control[si]:
                taken = (flags[i] & F_TAKEN) != 0
                if not predict(text_base + 4 * si, instrs[si], taken,
                               next_pc[i]):
                    mispredicted[i] = True
                    group_ends.append(i)
                elif taken:
                    group_ends.append(i)
                if is_cond[si]:
                    state = ((state << 1) | taken) & mask
        group_ends.append(n)
        return cls(trace, signature, mispredicted, history, group_ends)

    # -- Simulator-facing tables (materialised once, shared) -----------------

    def mispredicted_list(self) -> List[bool]:
        """Per-entry mispredict flags."""
        return self._mispredicted

    def history_list(self) -> List[int]:
        """Per-entry rename-time global history."""
        return self._history

    def fetch_group_ends(self) -> array:
        """Sorted positions of the entries that end a fetch group -- a
        control entry the front end mispredicts or that is taken --
        followed by the trace length, which no fetch group reaches."""
        return self._group_ends

    def decode_index(self, params) -> list:
        """``_Decoded`` template per trace entry, memoised per latency
        signature (every default-latency config shares one table)."""
        key = (params.mul_latency, params.fp_latency,
               params.branch_latency, params.alu_latency)
        index = self._dec_memo.get(key)
        if index is None:
            from ..uarch.pipeline import _Decoded  # deferred: layering
            trace = self.trace
            instrs = trace.program.instructions
            text_base = trace.program.text_base
            dec_static = [None] * len(instrs)
            index = [None] * self.n
            for i, si in enumerate(trace.static_column()):
                dec = dec_static[si]
                if dec is None:
                    dec = dec_static[si] = _Decoded(instrs[si], params,
                                                    text_base + 4 * si)
                index[i] = dec
            self._dec_memo[key] = index
        return index

    # -- binary encoding ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the sequential tables (bitmap + history)."""
        n = self.n
        mis_bytes = bytearray(_pad((n + 7) // 8))
        for i, flag in enumerate(self._mispredicted):
            if flag:
                mis_bytes[i >> 3] |= 1 << (i & 7)
        col = array(_U32, self._history)
        if sys.byteorder != "little":  # pragma: no cover - exotic
            col.byteswap()
        payload = bytes(mis_bytes) + col.tobytes()
        table_bits, btb_entries, history_bits = self.signature
        header = _HEADER.pack(_MAGIC, PRECOMPUTE_FORMAT_VERSION, n,
                              table_bits, btb_entries, history_bits, 0,
                              zlib.crc32(payload) & _U32_MAX)
        return header + payload

    @classmethod
    def from_buffer(cls, trace, buf,
                    signature: Optional[Tuple[int, int, int]] = None
                    ) -> "TracePrecompute":
        """Decode a blob against its trace; raises
        :class:`PrecomputeDecodeError` on any mismatch (callers treat
        that as a clean cache miss)."""
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise PrecomputeDecodeError("blob shorter than the header")
        (magic, version, n, table_bits, btb_entries, history_bits,
         _reserved, crc) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise PrecomputeDecodeError("bad magic %r" % magic)
        if version != PRECOMPUTE_FORMAT_VERSION:
            raise PrecomputeDecodeError(
                "format version %d != %d"
                % (version, PRECOMPUTE_FORMAT_VERSION))
        if n != len(trace):
            raise PrecomputeDecodeError(
                "bundle is for a %d-entry trace, not %d" % (n, len(trace)))
        found = (table_bits, btb_entries, history_bits)
        if signature is not None and tuple(signature) != found:
            raise PrecomputeDecodeError(
                "bundle predictor signature %r != expected %r"
                % (found, tuple(signature)))
        packed_len = _pad((n + 7) // 8)
        expected = _HEADER.size + packed_len + 4 * n
        if len(view) != expected:
            raise PrecomputeDecodeError("blob is %d bytes, expected %d"
                                        % (len(view), expected))
        payload = view[_HEADER.size:]
        if zlib.crc32(payload) & _U32_MAX != crc:
            raise PrecomputeDecodeError("payload checksum mismatch")
        # Mispredicts are sparse: visit the non-zero bitmap bytes only.
        mis = [False] * (8 * packed_len)
        for byte_index, byte in enumerate(payload[:packed_len]):
            while byte:
                low = byte & -byte
                mis[8 * byte_index + low.bit_length() - 1] = True
                byte ^= low
        del mis[n:]
        col = array(_U32)
        col.frombytes(payload[packed_len:])
        if sys.byteorder != "little":  # pragma: no cover - exotic
            col.byteswap()
        return cls(trace, found, mis, col.tolist(),
                   _fetch_group_ends(trace, mis))


def _fetch_group_ends(trace, mispredicted: List[bool]) -> array:
    """The group ends a loaded bundle re-derives (``build`` collects
    them in its scan): one pass over the static and flags columns."""
    is_control = [instr.is_control for instr in trace.program.instructions]
    ends = array(_U32, [
        i for i, (si, flags) in enumerate(zip(trace.static_column(),
                                              trace.flags_column()))
        if is_control[si] and (mispredicted[i] or flags & F_TAKEN)])
    ends.append(len(trace))
    return ends


def load_precompute(path, trace,
                    signature: Optional[Tuple[int, int, int]] = None
                    ) -> TracePrecompute:
    """Load a bundle against its trace.

    The file is read rather than mapped: decoding copies the tables into
    lists anyway.  Raises :class:`PrecomputeDecodeError` (or ``OSError``)
    on any problem -- callers treat that as a cache miss.
    """
    with open(str(path), "rb") as handle:
        data = handle.read()
    return TracePrecompute.from_buffer(trace, data, signature)
