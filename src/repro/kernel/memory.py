"""Byte-addressable sparse memory used by the functional simulator.

Memory is organised as 4 KiB pages allocated on first touch, little-endian,
32-bit address space.  The same class also serves as the "architectural
memory image" the timing simulator keeps at commit time.
"""

from __future__ import annotations

from struct import Struct
from typing import Dict, Iterable, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFFFFFF

_WORD = Struct("<I")
_HALF = Struct("<H")


class MemoryError_(Exception):
    """Raised for misaligned accesses."""


class SparseMemory:
    """A sparse, paged, little-endian byte-addressable memory."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def _page_for(self, address: int) -> Tuple[bytearray, int]:
        page_number = (address & ADDRESS_MASK) >> PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page, address & PAGE_MASK

    # -- byte-wise access ---------------------------------------------------

    def read_byte(self, address: int) -> int:
        page = self._pages.get((address & ADDRESS_MASK) >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        page, offset = self._page_for(address)
        page[offset] = value & 0xFF

    def read_bytes(self, address: int, size: int) -> bytes:
        return bytes(self.read_byte(address + i) for i in range(size))

    def write_bytes(self, address: int, data: bytes) -> None:
        """Store ``data`` from ``address`` on, one page slice per page.

        Allocates every page the range covers, as byte-by-byte writes
        would, and wraps past 0xFFFFFFFF to page 0.
        """
        view = memoryview(data)
        done, total = 0, len(view)
        while done < total:
            page, offset = self._page_for(address + done)
            end = min(total, done + PAGE_SIZE - offset)
            page[offset:offset + end - done] = view[done:end]
            done = end

    # -- sized little-endian access ------------------------------------------

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned little-endian int."""
        if address % size:
            raise MemoryError_("misaligned %d-byte read at 0x%x" % (size, address))
        if size == 4 or size == 2 or size == 1:
            # An aligned access of a word or less never straddles a page:
            # read it in place instead of one read_byte call per byte.
            page = self._pages.get((address & ADDRESS_MASK) >> PAGE_SHIFT)
            if page is None:
                return 0
            offset = address & PAGE_MASK
            if size == 4:
                return _WORD.unpack_from(page, offset)[0]
            if size == 2:
                return _HALF.unpack_from(page, offset)[0]
            return page[offset]
        return int.from_bytes(self.read_bytes(address, size), "little")

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` low-order bytes of ``value`` at ``address``."""
        if address % size:
            raise MemoryError_("misaligned %d-byte write at 0x%x" % (size, address))
        if size == 4 or size == 2 or size == 1:
            page, offset = self._page_for(address)
            if size == 4:
                _WORD.pack_into(page, offset, value & 0xFFFFFFFF)
            elif size == 2:
                _HALF.pack_into(page, offset, value & 0xFFFF)
            else:
                page[offset] = value & 0xFF
            return
        mask = (1 << (8 * size)) - 1
        self.write_bytes(address, (value & mask).to_bytes(size, "little"))

    def read_word(self, address: int) -> int:
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        self.write(address, value, 4)

    # -- bulk helpers ---------------------------------------------------------

    def load_segment(self, base: int, data: bytes) -> None:
        self.write_bytes(base, data)

    def touched_pages(self) -> Iterable[int]:
        """Page numbers that have been allocated (for tests/inspection)."""
        return self._pages.keys()

    def snapshot(self) -> Dict[int, bytes]:
        """Immutable image of every page with non-zero content.

        Pages that were touched but hold only zeroes are dropped, so two
        memories with the same logical contents compare equal even when
        they allocated different page sets.
        """
        zero = bytes(PAGE_SIZE)
        return {num: bytes(page) for num, page in self._pages.items()
                if bytes(page) != zero}
