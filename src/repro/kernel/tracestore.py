"""Columnar binary trace encoding + lazy ``PackedTrace`` views.

A dynamic trace is a sequence of :class:`~repro.kernel.trace.TraceEntry`
records -- at full scale, millions per workload.  As Python objects each
costs a few hundred bytes and is re-materialised from scratch in every
worker process of a sweep, so the functional CPU's pre-decoded handlers
write a trace straight into parallel fixed-width columns (held by a
:class:`ColumnarTraceRecorder`)::

    header | static u32*n | next_pc u32*n | mem_addr u32*n | value u32*n
           | dep_store u32*n | flags u8*n | mem_size u8*n

Instruction operands are resolved through the *static* instruction index
(``pc == text_base + 4*static``) into the live :class:`~repro.isa.Program`,
so the encoding carries no pickled :class:`~repro.isa.Instruction` objects
and a blob is ~22 bytes per dynamic instruction (20 bytes of u32 columns
plus 2 of u8) instead of a few hundred.  Derived fields are recomputed at
view time (``word_addr``, ``bab``); nullability is tracked in per-entry
flag bits, and ``dep_store`` uses an explicit sentinel.

:class:`PackedTrace` wraps the columns as a lazy sequence satisfying the
timing Simulator's trace interface -- ``len()``, ``trace[i]`` -- by
materialising :class:`TraceEntry` views on demand, while exposing the raw
columns (``static_column`` / ``flags_column`` / ``next_pc_column``) so the
whole-trace precompute pass (:mod:`repro.kernel.precompute`, the one
source of every Simulator's trace tables) and the Simulator's fetch stage
scan integers instead of building objects.  Loaded from disk the columns
are zero-copy views into an ``mmap``, so N concurrent workers reading the
same blob share one set of page-cache pages instead of N private object
heaps.

Integrity: the header pins the format version, the entry count, the
program shape (instruction count, data length, bases, entry pc) and a
CRC-32 of the column payload; any mismatch raises
:class:`TraceDecodeError`, which the harness trace store treats as a
clean cache miss.
"""

from __future__ import annotations

import mmap
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Sequence, Union

from ..isa import Program
from .trace import MAX_TRACE_INSTRUCTIONS, TraceEntry

# Bump whenever the binary layout (or the meaning of any column) changes;
# folded into both the trace-store key and the result-cache key so a
# format change invalidates stale blobs instead of mis-decoding them.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPKT"

# magic, version, count, n_static, data_len, text_base, data_base,
# entry_pc, payload_crc32 -- 36 bytes, keeping the u32 columns aligned.
_HEADER = struct.Struct("<4s8I")

# Per-entry flag bits.
F_TAKEN = 1        # control flow: branch/jump was taken
F_SILENT = 2       # store wrote the value already present
F_DEP_COVERS = 4   # the dep store wrote every byte the load reads
F_HAS_ADDR = 8     # mem_addr is not None
F_HAS_SIZE = 16    # mem_size is not None
F_HAS_VALUE = 32   # value is not None

# dep_store column sentinel for "no producing store" (trace indices are
# capped at MAX_TRACE_INSTRUCTIONS, far below 2**32 - 1).
NO_DEP = 0xFFFFFFFF

# Entries a recorder allocates first; it doubles from there.
_FIRST_CHUNK = 1024

_U32_MAX = 0xFFFFFFFF

# array typecode with a 4-byte item on this interpreter ('I' everywhere
# that matters; 'L' only as a pathological fallback).
_U32 = "I" if array("I").itemsize == 4 else "L"

# Zero-copy memoryview casts need native 4-byte little-endian ints.
_CAN_CAST = struct.calcsize("I") == 4 and sys.byteorder == "little"


class TraceEncodeError(ValueError):
    """A trace entry does not fit the packed column encoding."""


class TraceDecodeError(ValueError):
    """A blob is truncated, corrupt, or from a different format/program."""


Column = Union[Sequence[int], memoryview]


class PackedTrace:
    """Columnar dynamic trace with lazy :class:`TraceEntry` views.

    Satisfies the Simulator's trace interface (``len``, integer and slice
    indexing, iteration) and exposes the raw columns the precompute pass
    scans.  ``bundles`` maps a predictor signature to the
    :class:`~repro.kernel.precompute.TracePrecompute` bundle built or
    loaded for this trace, which every run of the trace shares (DESIGN.md
    section 14).
    """

    __slots__ = ("program", "_n", "_static", "_next_pc", "_mem_addr",
                 "_value", "_dep", "_flags", "_mem_size", "_instructions",
                 "_text_base", "_mmap", "bundles",
                 "__weakref__")

    def __init__(self, program: Program, static: Column, next_pc: Column,
                 mem_addr: Column, value: Column, dep: Column,
                 flags: Column, mem_size: Column,
                 mm: Optional[mmap.mmap] = None):
        self.program = program
        self._n = len(static)
        self._static = static
        self._next_pc = next_pc
        self._mem_addr = mem_addr
        self._value = value
        self._dep = dep
        self._flags = flags
        self._mem_size = mem_size
        self._instructions = program.instructions
        self._text_base = program.text_base
        self._mmap = mm               # keeps the mapping alive with the views
        self.bundles: Dict[tuple, object] = {}

    # -- sequence interface --------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        flags = self._flags[index]
        static = self._static[index]
        mem_addr = self._mem_addr[index] if flags & F_HAS_ADDR else None
        mem_size = self._mem_size[index] if flags & F_HAS_SIZE else None
        dep = self._dep[index]
        # Positional, in field order (index, pc, instr, next_pc, taken,
        # mem_addr, mem_size, value, dep_store, dep_covers, silent,
        # word_addr, bab, pinned by tests/test_tracestore.py): a keyword
        # call costs about three times as much.
        return TraceEntry(
            index,
            self._text_base + 4 * static,
            self._instructions[static],
            self._next_pc[index],
            bool(flags & F_TAKEN),
            mem_addr,
            mem_size,
            self._value[index] if flags & F_HAS_VALUE else None,
            None if dep == NO_DEP else dep,
            bool(flags & F_DEP_COVERS),
            bool(flags & F_SILENT),
            (mem_addr or 0) & ~0x3,
            ((1 << (mem_size or 0)) - 1) << ((mem_addr or 0) & 0x3))

    def __iter__(self):
        for index in range(self._n):
            yield self[index]

    # -- column accessors ----------------------------------------------------

    def static_column(self) -> Column:
        """Static instruction index per entry (u32)."""
        return self._static

    def next_pc_column(self) -> Column:
        """Architectural next pc per entry (u32)."""
        return self._next_pc

    def flags_column(self) -> Column:
        """Per-entry flag byte (``F_*`` bits; bit 0 is ``taken``)."""
        return self._flags

    def mem_addr_column(self) -> Column:
        """Effective byte address per entry (u32; 0 when ``F_HAS_ADDR`` is
        clear, matching the ``(mem_addr or 0)`` idiom of the view path)."""
        return self._mem_addr

    def value_column(self) -> Column:
        """Loaded/stored value per entry (u32; 0 when ``F_HAS_VALUE`` is
        clear)."""
        return self._value

    def dep_column(self) -> Column:
        """Oracle dependence per entry (u32; ``NO_DEP`` for loads without a
        producing store and for every non-load)."""
        return self._dep

    def mem_size_column(self) -> Column:
        """Access size in bytes per entry (u8; 0 when ``F_HAS_SIZE`` is
        clear)."""
        return self._mem_size

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_entries(cls, program: Program,
                     entries: Sequence[TraceEntry]) -> "PackedTrace":
        """Pack an existing ``List[TraceEntry]`` (column-at-a-time)."""
        static = array(_U32)
        next_pc = array(_U32)
        mem_addr = array(_U32)
        value = array(_U32)
        dep = array(_U32)
        flags = bytearray()
        mem_size = bytearray()
        text_base = program.text_base
        for entry in entries:
            offset = entry.pc - text_base
            if offset < 0 or offset & 0x3:
                raise TraceEncodeError("pc 0x%x outside the text segment"
                                       % entry.pc)
            bits = _flag_bits(entry.taken, entry.silent, entry.dep_covers,
                              entry.mem_addr, entry.mem_size, entry.value)
            static.append(offset >> 2)
            next_pc.append(_u32(entry.next_pc, "next_pc"))
            mem_addr.append(_u32(entry.mem_addr or 0, "mem_addr"))
            value.append(_u32(entry.value or 0, "value"))
            dep.append(NO_DEP if entry.dep_store is None
                       else _u32(entry.dep_store, "dep_store"))
            flags.append(bits)
            mem_size.append(entry.mem_size or 0)
        return cls(program, static, next_pc, mem_addr, value, dep,
                   bytes(flags), bytes(mem_size))

    # -- binary encoding ------------------------------------------------------

    def to_bytes(self) -> bytes:
        n = self._n
        pad = b"\x00" * (_pad(n) - n)
        payload = b"".join((
            _u32_bytes(self._static, n), _u32_bytes(self._next_pc, n),
            _u32_bytes(self._mem_addr, n), _u32_bytes(self._value, n),
            _u32_bytes(self._dep, n),
            bytes(self._flags), pad, bytes(self._mem_size), pad,
        ))
        program = self.program
        header = _HEADER.pack(
            _MAGIC, TRACE_FORMAT_VERSION, n, len(program.instructions),
            len(program.data), program.text_base, program.data_base,
            program.entry, zlib.crc32(payload) & _U32_MAX)
        return header + payload

    @classmethod
    def from_buffer(cls, program: Program, buf,
                    mm: Optional[mmap.mmap] = None) -> "PackedTrace":
        """Decode a blob; zero-copy column views when the buffer allows it."""
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise TraceDecodeError("blob shorter than the header")
        (magic, version, n, n_static, data_len, text_base, data_base,
         entry_pc, crc) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise TraceDecodeError("bad magic %r" % magic)
        if version != TRACE_FORMAT_VERSION:
            raise TraceDecodeError("format version %d != %d"
                                   % (version, TRACE_FORMAT_VERSION))
        if (n_static != len(program.instructions)
                or data_len != len(program.data)
                or text_base != program.text_base
                or data_base != program.data_base
                or entry_pc != program.entry):
            raise TraceDecodeError("blob was packed for a different program")
        padded = _pad(n)
        expected = _HEADER.size + 20 * n + 2 * padded
        if len(view) != expected:
            raise TraceDecodeError("blob is %d bytes, expected %d"
                                   % (len(view), expected))
        payload = view[_HEADER.size:]
        if zlib.crc32(payload) & _U32_MAX != crc:
            raise TraceDecodeError("payload checksum mismatch")

        offsets = [i * 4 * n for i in range(5)]
        byte_base = 20 * n
        if _CAN_CAST:
            u32 = [payload[off:off + 4 * n].cast("I") for off in offsets]
        else:                        # pragma: no cover - exotic platforms
            u32 = []
            for off in offsets:
                col = array(_U32)
                col.frombytes(bytes(payload[off:off + 4 * n]))
                if sys.byteorder != "little":
                    col.byteswap()
                u32.append(col)
        flags = payload[byte_base:byte_base + n]
        mem_size = payload[byte_base + padded:byte_base + padded + n]
        return cls(program, u32[0], u32[1], u32[2], u32[3], u32[4],
                   flags, mem_size, mm=mm)


def _pad(n: int) -> int:
    """Byte columns padded to 4-byte alignment."""
    return (n + 3) & ~0x3


def _u32(value: int, field: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise TraceEncodeError("%s=%r does not fit in u32" % (field, value))
    return value


def _u32_bytes(column, n: int) -> bytes:
    if isinstance(column, array):
        if sys.byteorder != "little":   # pragma: no cover - exotic platforms
            column = array(column.typecode, column)
            column.byteswap()
        return column.tobytes()
    return bytes(memoryview(column).cast("B"))


def _flag_bits(taken, silent, dep_covers, mem_addr, mem_size, value) -> int:
    bits = 0
    if taken:
        bits |= F_TAKEN
    if silent:
        bits |= F_SILENT
    if dep_covers:
        bits |= F_DEP_COVERS
    if mem_addr is not None:
        bits |= F_HAS_ADDR
    if mem_size is not None:
        bits |= F_HAS_SIZE
    if value is not None:
        bits |= F_HAS_VALUE
    return bits


class ColumnarTraceRecorder:
    """The columns of one functional run, which the pre-decoded handlers
    of :meth:`~repro.kernel.cpu.FunctionalCpu.run_trace` write in place.

    Every column grows in chunks pre-filled with the value of an entry
    that is not a memory access (0, and ``NO_DEP`` in ``dep``), so a
    handler writes only the columns its instruction sets.  The recorded
    bytes are checked against a test-local reference interpreter in
    tests/test_functional_reference.py.
    """

    def __init__(self, program: Program):
        self.program = program
        self.static = array(_U32)
        self.next_pc = array(_U32)
        self.mem_addr = array(_U32)
        self.value = array(_U32)
        self.dep = array(_U32)
        self.flags = bytearray()
        self.mem_size = bytearray()

    def grow(self) -> int:
        """Double the capacity (at least ``_FIRST_CHUNK`` entries) in
        place, so the handlers' references stay valid; returns it."""
        chunk = max(_FIRST_CHUNK, len(self.static))
        zeros = bytes(4 * chunk)
        for column in (self.static, self.next_pc, self.mem_addr,
                       self.value):
            column.frombytes(zeros)
        self.dep.frombytes(b"\xff" * (4 * chunk))    # NO_DEP in any byte order
        self.flags.extend(bytes(chunk))
        self.mem_size.extend(bytes(chunk))
        return len(self.static)

    def finish(self, count: int) -> PackedTrace:
        """The first ``count`` entries as a trace."""
        for column in (self.static, self.next_pc, self.mem_addr,
                       self.value, self.dep, self.flags, self.mem_size):
            del column[count:]
        return PackedTrace(self.program, self.static, self.next_pc,
                           self.mem_addr, self.value, self.dep,
                           bytes(self.flags), bytes(self.mem_size))


def run_trace_packed(program: Program,
                     max_instructions: int = MAX_TRACE_INSTRUCTIONS
                     ) -> PackedTrace:
    """Trace ``program`` into packed columns, for callers that keep no
    :class:`~repro.kernel.cpu.FunctionalCpu` (the same recording as
    ``FunctionalCpu.run_trace``)."""
    from .cpu import FunctionalCpu   # deferred: cpu imports the recorder
    return FunctionalCpu(program)._record_trace(max_instructions)


def pack_trace(program: Program,
               trace: Sequence[TraceEntry]) -> PackedTrace:
    """Pack any trace (already-packed traces pass through unchanged)."""
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_entries(program, trace)


def load_trace(path, program: Program) -> PackedTrace:
    """Load a packed trace read-only; column views are zero-copy into an
    ``mmap`` (shared page cache across workers) when the platform allows,
    and decoded from a plain read otherwise.

    Raises :class:`TraceDecodeError` (or ``OSError``) on any problem --
    callers treat that as a cache miss.
    """
    path = str(path)
    with open(path, "rb") as handle:
        if _CAN_CAST:
            try:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):   # empty file / no mmap support
                mm = None
            if mm is not None:
                try:
                    return PackedTrace.from_buffer(program, mm, mm=mm)
                except Exception:
                    mm.close()
                    raise
        data = handle.read()
    return PackedTrace.from_buffer(program, data)
