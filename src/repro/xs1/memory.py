"""Single-cycle SRAM model.

Each XS1-L core carries 64 KiB of unified single-cycle SRAM and no cache —
one of the two pillars of Swallow's time determinism (the other being the
fixed-completion-time pipeline).  Every access completes in one cycle, so
the memory model only has to enforce bounds and alignment; timing lives in
the core's issue scheduler.

The image is stored as :data:`PAGE_BYTES` pages.  A fresh :class:`Sram`
holds one shared, immutable table of zero pages; the first store to a page
gives the SRAM a private table and the page a private copy, so a machine
of hundreds of cores holds only the pages its programs write.
"""

from __future__ import annotations

import functools
import hashlib

from repro.xs1.errors import MemoryAccessError

#: SRAM size of an XS1-L core (bytes).
SRAM_BYTES = 64 * 1024

#: Bytes per SRAM page, the unit a first write copies.  An aligned word or
#: halfword never straddles two pages.
PAGE_BYTES = 4096
_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1
_OFFSET_MASK = PAGE_BYTES - 1

_ZERO_PAGE = bytes(PAGE_BYTES)


@functools.cache
def _zero_table(size: int) -> tuple[bytes, ...]:
    """The table of zero pages every unwritten SRAM of ``size`` bytes
    shares; its last page is shorter when ``size`` is not a whole number
    of pages."""
    full, tail = divmod(size, PAGE_BYTES)
    return (_ZERO_PAGE,) * full + ((bytes(tail),) if tail else ())


@functools.cache
def _zero_digest(size: int) -> str:
    """The SHA-256 hex digest of an unwritten SRAM of ``size`` bytes."""
    return hashlib.sha256(bytes(size)).hexdigest()


# Made at import, so building a machine of default cores allocates no table.
_zero_table(SRAM_BYTES)


class Sram:
    """Byte-addressable SRAM with word/half/byte access, little-endian."""

    def __init__(self, size: int = SRAM_BYTES):
        if size <= 0 or size % 4 != 0:
            raise ValueError(f"SRAM size must be a positive multiple of 4, got {size}")
        self.size = size
        #: The pages in address order: the shared zero table (a tuple)
        #: until the first store, then a private list in which each
        #: written page is a ``bytearray`` and the rest the zero page.
        self._pages: tuple[bytes, ...] | list = _zero_table(size)
        self.loads = 0
        self.stores = 0

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise MemoryAccessError(
                f"address {address:#x} (+{width}) outside SRAM of {self.size:#x} bytes"
            )
        if address % width != 0:
            raise MemoryAccessError(
                f"address {address:#x} misaligned for {width}-byte access"
            )

    def _writable(self, index: int) -> bytearray:
        """Page ``index``, made private to this SRAM on its first write."""
        pages = self._pages
        page = pages[index]
        if type(page) is not bytearray:
            if type(pages) is tuple:
                pages = self._pages = list(pages)
            page = pages[index] = bytearray(page)
        return page

    def load_word(self, address: int) -> int:
        """Read a 32-bit little-endian word."""
        self._check(address, 4)
        self.loads += 1
        offset = address & _OFFSET_MASK
        page = self._pages[address >> _PAGE_SHIFT]
        return int.from_bytes(page[offset : offset + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        self._check(address, 4)
        self.stores += 1
        offset = address & _OFFSET_MASK
        page = self._writable(address >> _PAGE_SHIFT)
        page[offset : offset + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

    def load_half(self, address: int) -> int:
        """Read an unsigned 16-bit little-endian halfword."""
        self._check(address, 2)
        self.loads += 1
        offset = address & _OFFSET_MASK
        page = self._pages[address >> _PAGE_SHIFT]
        return int.from_bytes(page[offset : offset + 2], "little")

    def store_half(self, address: int, value: int) -> None:
        """Write a 16-bit little-endian halfword."""
        self._check(address, 2)
        self.stores += 1
        offset = address & _OFFSET_MASK
        page = self._writable(address >> _PAGE_SHIFT)
        page[offset : offset + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def load_byte(self, address: int) -> int:
        """Read an unsigned byte."""
        self._check(address, 1)
        self.loads += 1
        return self._pages[address >> _PAGE_SHIFT][address & _OFFSET_MASK]

    def store_byte(self, address: int, value: int) -> None:
        """Write a byte."""
        self._check(address, 1)
        self.stores += 1
        self._writable(address >> _PAGE_SHIFT)[address & _OFFSET_MASK] = value & 0xFF

    def write_block(self, address: int, data: bytes) -> None:
        """Bulk write (program loading); byte-aligned."""
        end = address + len(data)
        if address < 0 or end > self.size:
            raise MemoryAccessError(
                f"block [{address:#x}, +{len(data)}) outside SRAM"
            )
        done = 0
        while address < end:
            offset = address & _OFFSET_MASK
            count = min(PAGE_BYTES - offset, end - address)
            page = self._writable(address >> _PAGE_SHIFT)
            page[offset : offset + count] = data[done : done + count]
            address += count
            done += count

    def read_block(self, address: int, length: int) -> bytes:
        """Bulk read; byte-aligned."""
        end = address + length
        if address < 0 or length < 0 or end > self.size:
            raise MemoryAccessError(
                f"block [{address:#x}, +{length}) outside SRAM"
            )
        pages = self._pages
        parts = []
        while address < end:
            offset = address & _OFFSET_MASK
            count = min(PAGE_BYTES - offset, end - address)
            parts.append(pages[address >> _PAGE_SHIFT][offset : offset + count])
            address += count
        return b"".join(parts)

    # -- checkpointing (see repro.checkpoint) -------------------------------

    def snapshot_state(self) -> dict:
        """Canonical SRAM state: access counters plus a content digest.

        The digest (not the 64 KiB image) goes into checkpoint bundles;
        restore replays the workload, which rewrites the memory, and the
        digest proves the replayed image is byte-identical.  It is the
        SHA-256 of the flat image; an SRAM nothing has written takes it
        from a constant computed once per size.
        """
        pages = self._pages
        if type(pages) is tuple:
            digest = _zero_digest(self.size)
        else:
            hasher = hashlib.sha256()
            for page in pages:
                hasher.update(page)
            digest = hasher.hexdigest()
        return {
            "size": self.size,
            "loads": self.loads,
            "stores": self.stores,
            "sha256": digest,
        }

    def restore_state(self, state: dict) -> None:
        """Verify replayed SRAM contents against checkpointed state."""
        from repro.sim.state import verify_state

        verify_state(self.snapshot_state(), state, "sram")
