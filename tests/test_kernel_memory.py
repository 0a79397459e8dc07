"""Unit + property tests for the sparse memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import SparseMemory
from repro.kernel.memory import MemoryError_, PAGE_SHIFT, PAGE_SIZE
from repro.workloads import ALL_NAMES, get_workload


class TestBasics:
    def test_uninitialised_reads_zero(self):
        mem = SparseMemory()
        assert mem.read_word(0x1000) == 0
        assert mem.read_byte(0xFFFF_FFFC) == 0

    def test_word_roundtrip(self):
        mem = SparseMemory()
        mem.write_word(0x2000, 0xDEADBEEF)
        assert mem.read_word(0x2000) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = SparseMemory()
        mem.write_word(0x100, 0x11223344)
        assert mem.read_byte(0x100) == 0x44
        assert mem.read_byte(0x103) == 0x11

    def test_halfword_and_byte(self):
        mem = SparseMemory()
        mem.write(0x200, 0xBEEF, 2)
        assert mem.read(0x200, 2) == 0xBEEF
        mem.write(0x203, 0x7F, 1)
        assert mem.read(0x203, 1) == 0x7F

    def test_value_masking(self):
        mem = SparseMemory()
        mem.write(0x300, 0x1_FFFF_FFFF, 4)
        assert mem.read_word(0x300) == 0xFFFF_FFFF
        mem.write(0x304, -1, 4)
        assert mem.read_word(0x304) == 0xFFFF_FFFF

    def test_misaligned_access_rejected(self):
        mem = SparseMemory()
        with pytest.raises(MemoryError_):
            mem.read(0x101, 4)
        with pytest.raises(MemoryError_):
            mem.write(0x102, 1, 4)
        with pytest.raises(MemoryError_):
            mem.read(0x101, 2)

    def test_cross_page_word(self):
        mem = SparseMemory()
        addr = PAGE_SIZE - 4
        mem.write_word(addr, 0xCAFEBABE)
        assert mem.read_word(addr) == 0xCAFEBABE

    def test_load_segment(self):
        mem = SparseMemory()
        mem.load_segment(0x1_0000, bytes(range(16)))
        assert mem.read_bytes(0x1_0000, 16) == bytes(range(16))

    def test_touched_pages(self):
        mem = SparseMemory()
        assert not list(mem.touched_pages())
        mem.write_byte(0x5000, 1)
        assert len(list(mem.touched_pages())) == 1


class TestAlignedWordFastPath:
    """The 4-byte aligned read/write paths bypass the per-byte loop; they
    must stay byte-for-byte interchangeable with it."""

    def test_word_write_matches_byte_writes(self):
        fast, slow = SparseMemory(), SparseMemory()
        fast.write(0x400, 0x11223344, 4)
        for i, b in enumerate((0x44, 0x33, 0x22, 0x11)):
            slow.write_byte(0x400 + i, b)
        assert fast.snapshot() == slow.snapshot()

    def test_word_read_sees_byte_writes(self):
        mem = SparseMemory()
        for i, b in enumerate((0xEF, 0xBE, 0xAD, 0xDE)):
            mem.write_byte(0x500 + i, b)
        assert mem.read(0x500, 4) == 0xDEADBEEF

    def test_word_at_page_tail(self):
        """An aligned word never straddles a page: the last aligned slot of
        a page must go through the fast path and land in one page."""
        mem = SparseMemory()
        addr = PAGE_SIZE - 4
        mem.write(addr, 0xCAFED00D, 4)
        assert mem.read(addr, 4) == 0xCAFED00D
        assert len(list(mem.touched_pages())) == 1

    def test_word_read_of_untouched_page_allocates_nothing(self):
        mem = SparseMemory()
        assert mem.read(0x8000, 4) == 0
        assert not list(mem.touched_pages())


def _bytewise_read(mem, address, size):
    """Sized read through the per-byte path, the reference for read()."""
    return int.from_bytes(mem.read_bytes(address, size), "little")


def _bytewise_write(mem, address, value, size):
    """Sized write through the per-byte path, the reference for write()."""
    mask = (1 << (8 * size)) - 1
    for i, byte in enumerate((value & mask).to_bytes(size, "little")):
        mem.write_byte(address + i, byte)


class TestAlignedSubWordPath:
    """Aligned 1- and 2-byte read/write index the page in place; they must
    match the per-byte path in values, pages and snapshots."""

    # The last byte and halfword of a page, the first of the next one, and
    # values wider than the access (masked), zero and negative.
    WRITES = [(PAGE_SIZE - 1, 0x1AB, 1), (PAGE_SIZE - 2, 0x12345, 2),
              (PAGE_SIZE, -1, 1), (PAGE_SIZE + 2, 0xFFFF_BEEF, 2),
              (3 * PAGE_SIZE - 2, 0, 2), (0x40, -2, 2)]

    def test_writes_match_bytewise_reference(self):
        fast, ref = SparseMemory(), SparseMemory()
        for address, value, size in self.WRITES:
            fast.write(address, value, size)
            _bytewise_write(ref, address, value, size)
            assert fast.snapshot() == ref.snapshot()
            assert sorted(fast.touched_pages()) == sorted(ref.touched_pages())
        for address, _, size in self.WRITES:
            for width in (1, 2):
                at = address - address % width
                assert fast.read(at, width) == _bytewise_read(ref, at, width)
        assert fast.read(PAGE_SIZE - 2, 2) == 0x2345
        assert fast.read(PAGE_SIZE, 2) == 0x00FF

    @pytest.mark.parametrize("size", [1, 2])
    def test_read_of_untouched_page_allocates_nothing(self, size):
        mem = SparseMemory()
        assert mem.read(0x9000, size) == 0
        assert mem.read(PAGE_SIZE - size, size) == 0
        assert not list(mem.touched_pages())

    def test_misaligned_halfword_checked_first(self):
        mem = SparseMemory()
        with pytest.raises(MemoryError_):
            mem.write(PAGE_SIZE - 1, 0xFFFF, 2)
        assert not list(mem.touched_pages())

    @given(st.lists(st.tuples(st.integers(PAGE_SIZE - 8, PAGE_SIZE + 8),
                              st.integers(-(1 << 33), 1 << 33),
                              st.sampled_from([1, 2, 4])),
                    min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_mixed_accesses_match_bytewise_reference(self, writes):
        fast, ref = SparseMemory(), SparseMemory()
        for address, value, size in writes:
            address -= address % size
            fast.write(address, value, size)
            _bytewise_write(ref, address, value, size)
            for width in (1, 2, 4):
                at = address - address % width
                assert fast.read(at, width) == _bytewise_read(ref, at, width)
        assert fast.snapshot() == ref.snapshot()
        assert sorted(fast.touched_pages()) == sorted(ref.touched_pages())


def _pattern(length, seed=0):
    """``length`` bytes with zeroes among them, varied by ``seed``."""
    return bytes((seed + 37 * i) % 251 for i in range(length))


def _assert_same_as_bytewise(base, data):
    """``load_segment`` must leave the image a ``write_byte`` per byte
    leaves: the same pages (zero ones included) with the same bytes."""
    mem, ref = SparseMemory(), SparseMemory()
    mem.load_segment(base, data)
    for i, b in enumerate(data):
        ref.write_byte(base + i, b)
    assert sorted(mem.touched_pages()) == sorted(ref.touched_pages())
    for num in ref.touched_pages():
        at = num << PAGE_SHIFT
        assert mem.read_bytes(at, PAGE_SIZE) == ref.read_bytes(at, PAGE_SIZE)


class TestPageCopy:
    """``write_bytes`` (so ``load_segment``) copies a page slice per page;
    the reference interpreter loads memory through it too, so this class
    is what holds it to byte-by-byte writes."""

    @pytest.mark.parametrize("base, data", [
        (0x1_0FF0, _pattern(64)),
        (0x2_0000, _pattern(2 * PAGE_SIZE, 5)),
        (0x3_0800, bytes(PAGE_SIZE)),
        (0x1234, b""),
        (0xFFFF_FFF0, _pattern(48, 9)),
    ], ids=["mid-page-crossing", "page-aligned", "all-zero-still-allocates",
            "empty-touches-nothing", "wraps-past-top-to-page-0"])
    def test_matches_bytewise_writes(self, base, data):
        _assert_same_as_bytewise(base, data)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_workload_data_segment(self, name):
        spec = get_workload(name)
        program = spec.build(spec.iterations(0.15))
        _assert_same_as_bytewise(program.data_base, program.data)

    @given(st.integers(0, (1 << 20) - 1), st.integers(0, PAGE_SIZE - 1),
           st.integers(0, 3 * PAGE_SIZE), st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_any_base_and_length(self, page, offset, length, seed):
        _assert_same_as_bytewise((page << PAGE_SHIFT) + offset,
                                 _pattern(length, seed))

    def test_never_writes_a_byte_at_a_time(self, monkeypatch):
        spec = get_workload("lbm")
        program = spec.build(spec.iterations(0.15))

        def refuse(*_args):
            raise AssertionError("write_byte called")

        monkeypatch.setattr(SparseMemory, "write_byte", refuse)
        mem = SparseMemory()
        mem.load_segment(program.data_base, program.data)
        assert (mem.read_bytes(program.data_base, len(program.data))
                == program.data)


class TestProperties:
    @given(st.integers(0, 0xFFFF_FFF0), st.integers(0, 0xFFFF_FFFF))
    @settings(max_examples=200)
    def test_word_roundtrip_property(self, addr, value):
        addr &= ~0x3
        mem = SparseMemory()
        mem.write_word(addr, value)
        assert mem.read_word(addr) == value

    @given(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                    min_size=1, max_size=50))
    def test_byte_writes_match_model(self, writes):
        mem = SparseMemory()
        model = {}
        for addr, value in writes:
            mem.write_byte(addr, value)
            model[addr] = value
        for addr, value in model.items():
            assert mem.read_byte(addr) == value

    @given(st.integers(0, 1 << 20), st.binary(min_size=1, max_size=32))
    def test_bytes_roundtrip(self, addr, data):
        mem = SparseMemory()
        mem.write_bytes(addr, data)
        assert mem.read_bytes(addr, len(data)) == data

    @given(st.integers(0, 1 << 20), st.integers(0, 0xFFFF_FFFF),
           st.sampled_from([1, 2, 4]))
    def test_sized_write_reads_back_masked(self, addr, value, size):
        addr -= addr % size
        mem = SparseMemory()
        mem.write(addr, value, size)
        assert mem.read(addr, size) == value & ((1 << (8 * size)) - 1)
