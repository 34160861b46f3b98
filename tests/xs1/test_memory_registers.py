"""Tests for SRAM and the register file."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xs1 import MemoryAccessError, RegisterFile, Sram, TrapError, s32, u32
from repro.xs1.memory import PAGE_BYTES


class TestSram:
    def test_word_roundtrip(self):
        mem = Sram()
        mem.store_word(0x100, 0xDEADBEEF)
        assert mem.load_word(0x100) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Sram()
        mem.store_word(0, 0x01020304)
        assert mem.load_byte(0) == 0x04
        assert mem.load_byte(3) == 0x01

    def test_byte_and_half(self):
        mem = Sram()
        mem.store_byte(5, 0xAB)
        assert mem.load_byte(5) == 0xAB
        mem.store_half(6, 0x1234)
        assert mem.load_half(6) == 0x1234

    def test_size_is_64kib(self):
        assert Sram().size == 64 * 1024

    def test_word_wraps_to_32_bits(self):
        mem = Sram()
        mem.store_word(0, 0x1_0000_0001)
        assert mem.load_word(0) == 1

    def test_out_of_range_rejected(self):
        mem = Sram()
        with pytest.raises(MemoryAccessError):
            mem.load_word(mem.size)
        with pytest.raises(MemoryAccessError):
            mem.store_word(mem.size - 2, 0)
        with pytest.raises(MemoryAccessError):
            mem.load_byte(-1)

    def test_misaligned_rejected(self):
        mem = Sram()
        with pytest.raises(MemoryAccessError, match="misaligned"):
            mem.load_word(2)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            mem.store_half(1, 0)

    def test_block_roundtrip(self):
        mem = Sram()
        mem.write_block(10, b"hello")
        assert mem.read_block(10, 5) == b"hello"

    def test_block_bounds(self):
        mem = Sram()
        with pytest.raises(MemoryAccessError):
            mem.write_block(mem.size - 2, b"abc")

    def test_access_counters(self):
        mem = Sram()
        mem.store_word(0, 1)
        mem.load_word(0)
        mem.load_byte(0)
        assert mem.stores == 1
        assert mem.loads == 2

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Sram(6)

    @given(st.integers(min_value=0, max_value=0xFFFF_FFFF), st.integers(min_value=0, max_value=(64 * 1024 - 4) // 4))
    def test_word_roundtrip_property(self, value, word_index):
        mem = Sram()
        mem.store_word(word_index * 4, value)
        assert mem.load_word(word_index * 4) == value

    def test_negative_block_length_rejected(self):
        mem = Sram()
        with pytest.raises(MemoryAccessError):
            mem.read_block(0, -1)
        with pytest.raises(MemoryAccessError):
            mem.read_block(8, -4)


class FlatSram(Sram):
    """The reference twin: the whole image as one flat ``bytearray``."""

    def __init__(self, size: int):
        super().__init__(size)
        self.flat = bytearray(size)

    def load_word(self, address):
        self._check(address, 4)
        self.loads += 1
        return int.from_bytes(self.flat[address : address + 4], "little")

    def store_word(self, address, value):
        self._check(address, 4)
        self.stores += 1
        self.flat[address : address + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

    def load_half(self, address):
        self._check(address, 2)
        self.loads += 1
        return int.from_bytes(self.flat[address : address + 2], "little")

    def store_half(self, address, value):
        self._check(address, 2)
        self.stores += 1
        self.flat[address : address + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def load_byte(self, address):
        self._check(address, 1)
        self.loads += 1
        return self.flat[address]

    def store_byte(self, address, value):
        self._check(address, 1)
        self.stores += 1
        self.flat[address] = value & 0xFF

    def write_block(self, address, data):
        if address < 0 or address + len(data) > self.size:
            raise MemoryAccessError(f"block [{address:#x}, +{len(data)}) outside SRAM")
        self.flat[address : address + len(data)] = data

    def read_block(self, address, length):
        if address < 0 or length < 0 or address + length > self.size:
            raise MemoryAccessError(f"block [{address:#x}, +{length}) outside SRAM")
        return bytes(self.flat[address : address + length])

    def snapshot_state(self):
        return {"size": self.size, "loads": self.loads, "stores": self.stores,
                "sha256": hashlib.sha256(self.flat).hexdigest()}


#: SRAM sizes the paged SRAM is checked at: less than one page, one page
#: and a 4-byte last page, and a core's 64 KiB.
SIZES = (8, 4100, 64 * 1024)

LOADS = ("load_word", "load_half", "load_byte")
STORES = ("store_word", "store_half", "store_byte")


def _address(size: int):
    """Addresses anywhere in (and just outside) SRAM, and near the page
    boundaries, where blocks straddle two pages."""
    near_boundary = st.builds(
        lambda page, delta: page * PAGE_BYTES + delta,
        st.integers(0, size // PAGE_BYTES + 1), st.integers(-6, 6))
    return st.one_of(st.integers(-4, size + 4), near_boundary)


def _block():
    """Block contents: short, or up to two pages and a bit."""
    long = st.builds(lambda n, first: bytes((first + i) & 0xFF for i in range(n)),
                     st.integers(0, 2 * PAGE_BYTES + 16), st.integers(0, 255))
    return st.one_of(st.binary(max_size=24), long)


def _op(size: int, loads_only: bool = False):
    address = _address(size)
    ops = [st.tuples(st.sampled_from(LOADS), address),
           st.tuples(st.just("read_block"), address,
                     st.integers(-8, 2 * PAGE_BYTES + 16))]
    if not loads_only:
        ops += [st.tuples(st.sampled_from(STORES), address,
                          st.integers(-(2**40), 2**40)),
                st.tuples(st.just("write_block"), address, _block())]
    return st.one_of(ops)


def _apply(mem: Sram, op: tuple):
    """The op's result, or the error it raised."""
    name, *args = op
    try:
        return getattr(mem, name)(*args)
    except MemoryAccessError as error:
        return error.__class__, str(error)


def _owned(mem: Sram) -> int:
    """Pages this SRAM holds a copy of."""
    return sum(type(page) is bytearray for page in mem._pages)


class TestPagedSram:
    """The paged SRAM against :class:`FlatSram`: every result and error,
    the access counters, the contents and the snapshot agree."""

    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_flat_twin(self, size, data):
        ops = data.draw(st.lists(_op(size), max_size=40))
        paged, flat = Sram(size), FlatSram(size)
        for op in ops:
            assert _apply(paged, op) == _apply(flat, op), op
        assert (paged.loads, paged.stores) == (flat.loads, flat.stores)
        assert paged.read_block(0, size) == bytes(flat.flat)
        assert paged.snapshot_state() == flat.snapshot_state()

    @pytest.mark.parametrize("size", SIZES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_loads_never_copy_a_page(self, size, data):
        ops = data.draw(st.lists(_op(size, loads_only=True), max_size=40))
        mem = Sram(size)
        for op in ops:
            _apply(mem, op)
        assert mem._pages is Sram(size)._pages
        assert mem.snapshot_state()["sha256"] == hashlib.sha256(bytes(size)).hexdigest()

    @pytest.mark.parametrize("size", SIZES)
    def test_untouched_digest_is_the_zero_image(self, size):
        state = Sram(size).snapshot_state()
        assert state == {"size": size, "loads": 0, "stores": 0,
                         "sha256": hashlib.sha256(bytes(size)).hexdigest()}

    def test_first_write_copies_one_page(self):
        mem = Sram()
        shared = mem._pages
        mem.store_word(0x1000, 7)
        mem.store_byte(0x1FFF, 1)
        assert _owned(mem) == 1
        assert Sram()._pages is shared and _owned(Sram()) == 0
        mem.write_block(PAGE_BYTES * 3 - 2, b"abcd")  # straddles pages 2 and 3
        assert _owned(mem) == 3
        assert mem.read_block(PAGE_BYTES * 3 - 4, 8) == b"\0\0abcd\0\0"


class TestRegisterFile:
    def test_initially_zero(self):
        regs = RegisterFile()
        assert all(v == 0 for v in regs.snapshot().values())

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(3, 99)
        assert regs.read(3) == 99

    def test_named_access(self):
        regs = RegisterFile()
        regs.write_named("sp", 0x8000)
        assert regs.read_named("sp") == 0x8000
        assert regs.read(14) == 0x8000

    def test_wraps_32_bits(self):
        regs = RegisterFile()
        regs.write(0, -1)
        assert regs.read(0) == 0xFFFF_FFFF

    def test_invalid_index(self):
        regs = RegisterFile()
        with pytest.raises(TrapError):
            regs.read(16)
        with pytest.raises(TrapError):
            regs.write(-1, 0)

    def test_snapshot_names(self):
        snap = RegisterFile().snapshot()
        assert set(snap) == {f"r{i}" for i in range(12)} | {"cp", "dp", "sp", "lr"}


class TestWrapHelpers:
    @given(st.integers())
    def test_u32_range(self, value):
        assert 0 <= u32(value) <= 0xFFFF_FFFF

    @given(st.integers())
    def test_s32_range(self, value):
        assert -(2**31) <= s32(value) <= 2**31 - 1

    def test_s32_negative(self):
        assert s32(0xFFFF_FFFF) == -1
        assert s32(0x8000_0000) == -(2**31)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_s32_roundtrip(self, value):
        assert s32(u32(value)) == value
