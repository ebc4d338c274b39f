"""Checksum and block-table behaviour."""

import struct
import zlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim import integrity
from fotasim.integrity import (
    _CHUNK,
    BlockCrcTable,
    EmptyImage,
    MalformedTable,
    block_count,
    crc32,
    image_crcs,
    reflect,
)

from conftest import crc32_bitwise


# Known-answer values computed with the bitwise reference implementation.
CHECK_VALUE = 0x0376E6E7  # crc32(b"123456789") for CRC-32/MPEG-2

# Lengths either side of crc32's piece boundaries, and past three pieces.
CHUNK_EDGES = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


def whole_buffer_crc(data) -> int:
    """CRC-32/MPEG-2 from one zlib call over the whole buffer bit-reversed
    in one piece: zlib's register, inverted and bit-reversed."""
    return int(f"{zlib.crc32(reflect(data)) ^ 0xFFFFFFFF:032b}"[::-1], 2)


def test_check_value():
    assert crc32(b"123456789") == CHECK_VALUE


def test_empty_input_is_init_value():
    assert crc32(b"") == 0xFFFFFFFF


def test_accepts_bytearray_and_memoryview():
    data = b"\x00\x01\x02\xff"
    assert crc32(bytearray(data)) == crc32(data)
    assert crc32(memoryview(data)) == crc32(data)
    for n in CHUNK_EDGES:
        data = Random(n).randbytes(n)
        expected = whole_buffer_crc(data)
        assert crc32(data) == expected
        assert crc32(bytearray(data)) == expected
        assert crc32(memoryview(bytearray(data)).toreadonly()) == expected
        assert crc32(memoryview(data)[1:]) == whole_buffer_crc(data[1:])


def test_a_strided_view_is_crcd_beside_a_remembered_image_of_its_bytes():
    integrity._memo.clear()
    image_crcs(b"ac", 1)
    assert crc32(memoryview(b"abcd")[::2]) == crc32_bitwise(b"ac")
    assert image_crcs(memoryview(b"abcd")[::2], 1) == (crc32_bitwise(b"ac"),
                                                        (crc32_bitwise(b"a"), crc32_bitwise(b"c")))


def test_single_bit_flip_changes_crc():
    data = bytes(64)
    flipped = bytearray(data)
    flipped[17] ^= 0x20
    assert crc32(data) != crc32(bytes(flipped))


@given(st.binary(max_size=512))
@settings(max_examples=200, deadline=None)
def test_matches_bitwise_reference(data):
    assert crc32(data) == crc32_bitwise(data)


def test_matches_reference_on_larger_buffer():
    for n in (8192, *CHUNK_EDGES):
        data = Random(42 + n).randbytes(n)
        assert crc32(data) == crc32_bitwise(data), n


def test_block_count_rounds_up():
    assert block_count(1, 1024) == 1
    assert block_count(1024, 1024) == 1
    assert block_count(1025, 1024) == 2
    assert block_count(128 * 1024, 1024) == 128


def test_block_count_rejects_bad_block_size():
    with pytest.raises(ValueError):
        block_count(10, 0)
    assert block_count(0, 1024) == 0


def test_image_crcs_rejects_a_block_size_below_one():
    with pytest.raises(ValueError):
        image_crcs(b"x", 0)


def test_table_refuses_an_entry_past_32_bits():
    with pytest.raises(MalformedTable):
        BlockCrcTable((2**32,))


def test_block_crcs_partial_final_block():
    data = bytes(range(256)) * 5  # 1280 bytes -> blocks of 1024 and 256
    crcs = list(image_crcs(data, 1024)[1])
    assert len(crcs) == 2
    assert crcs[0] == crc32(data[:1024])
    assert crcs[1] == crc32(data[1024:])  # only the real 256 bytes, no padding


@given(st.one_of(
    st.tuples(st.binary(min_size=1, max_size=6000), st.integers(1, 2048)),
    # Past two of image_crcs's pieces, whose edges need not fall on a block's.
    st.tuples(st.builds(lambda n, seed: Random(seed).randbytes(n),
                        st.integers(2 * _CHUNK + 1, 3 * _CHUNK + 5), st.integers(0, 2**32)),
              st.sampled_from((1000, 3000, 16384, 20000, 65536)))))
@settings(max_examples=150, deadline=None)
def test_block_crcs_match_crc32_of_each_chunk(case):
    data, block_size = case
    expected = [crc32(data[i : i + block_size]) for i in range(0, len(data), block_size)]
    for form in (bytes, bytearray, memoryview):
        integrity._memo.clear()  # each form's CRCs computed, not remembered
        assert image_crcs(form(data), block_size) == (whole_buffer_crc(data), tuple(expected))


# A memo call: which function, which of three buffers, in which form, and
# the block size image_crcs is asked for.
_memo_calls = st.tuples(st.sampled_from(("crc32", "image_crcs")), st.integers(0, 2),
                        st.sampled_from((bytes, bytearray, memoryview)), st.sampled_from((1, 5, 64)))
# A flip: XOR ``mask`` into one byte of one buffer, in place.
_flips = st.tuples(st.just("flip"), st.integers(0, 2), st.integers(0, 199), st.integers(1, 255))


@given(st.binary(min_size=1, max_size=200), st.lists(st.one_of(_memo_calls, _flips), max_size=25))
@settings(max_examples=300, deadline=None)
def test_the_memo_answers_only_for_equal_bytes(data, ops):
    # Three equal-length bytearrays that start equal, flipped in place
    # between calls, so the memo sees mutated buffers and buffers that
    # differ from a remembered one in one byte.
    integrity._memo.clear()
    buffers = [bytearray(data) for _ in range(3)]
    for op in ops:
        if op[0] == "flip":
            _, which, at, mask = op
            buffers[which][at % len(data)] ^= mask
            continue
        name, which, form, block_size = op
        buffer = buffers[which]
        snapshot = bytes(buffer)
        arg = {bytes: snapshot, bytearray: buffer, memoryview: memoryview(buffer)}[form]
        if name == "crc32":
            assert crc32(arg) == crc32_bitwise(snapshot)
        else:
            blocks = tuple(crc32_bitwise(snapshot[i : i + block_size])
                           for i in range(0, len(snapshot), block_size))
            assert image_crcs(arg, block_size) == (crc32_bitwise(snapshot), blocks)


@given(st.binary(max_size=2048), st.integers(0, 2048), st.integers(0, 2048))
@settings(max_examples=150, deadline=None)
def test_crc_of_a_slice_matches_the_bitwise_oracle(data, i, j):
    assert crc32(memoryview(data)[i:j]) == crc32(data[i:j]) == crc32_bitwise(data[i:j])


def test_block_crcs_empty_image_rejected():
    with pytest.raises(EmptyImage):
        image_crcs(b"")


def test_table_roundtrip():
    data = b"\xab" * 3000
    table = BlockCrcTable(image_crcs(data, 1024)[1])
    assert BlockCrcTable.decode(table.encode()) == table


def test_table_encoding_layout():
    # u16 LE count then u32 LE per entry, nothing else.
    table = BlockCrcTable(entries=(0x11223344, 0xAABBCCDD))
    blob = table.encode()
    assert blob == struct.pack("<H", 2) + struct.pack("<II", 0x11223344, 0xAABBCCDD)


def test_table_decode_rejects_truncation():
    blob = BlockCrcTable(entries=(1, 2, 3)).encode()
    for cut in (0, 1, len(blob) - 1):
        with pytest.raises(MalformedTable):
            BlockCrcTable.decode(blob[:cut])


def test_table_decode_ignores_padding():
    # Metadata slots are fixed-size, so the decoder must tolerate trailing
    # filler after the declared entries.
    table = BlockCrcTable(entries=(1, 2))
    assert BlockCrcTable.decode(table.encode() + b"\xff" * 100) == table


def encode_reference(table):
    """``BlockCrcTable.encode`` as a per-entry loop, kept as an oracle."""
    out = bytearray(struct.pack("<H", len(table.entries)))
    for value in table.entries:
        out += struct.pack("<I", value)
    return bytes(out)


def decode_reference(blob):
    """``BlockCrcTable.decode`` as a per-entry loop, kept as an oracle."""
    if len(blob) < 2:
        raise MalformedTable("table blob shorter than its count field")
    (count,) = struct.unpack_from("<H", blob, 0)
    if len(blob) < 2 + 4 * count:
        raise MalformedTable(f"table claims {count} entries but blob holds fewer")
    return BlockCrcTable(tuple(struct.unpack_from("<I", blob, 2 + 4 * i)[0] for i in range(count)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (MalformedTable, struct.error) as exc:
        return type(exc), str(exc)


@given(st.lists(st.one_of(st.integers(0, 0xFFFFFFFF), st.floats(0, 0xFFFFFFFF)), max_size=300))
@settings(max_examples=200, deadline=None)
def test_table_encode_matches_the_per_entry_loop(entries):
    # A float in range passes the table's check, and both encoders refuse it.
    table = BlockCrcTable(tuple(entries))
    assert outcome(table.encode) == outcome(encode_reference, table)


@given(st.integers(0, 300), st.binary(max_size=1300), st.sampled_from([None, 0, 1]))
@settings(max_examples=300, deadline=None)
def test_table_decode_matches_the_per_entry_loop(count, body, cut):
    # A blob that holds its entries or fewer, or one cut inside its count field.
    blob = (struct.pack("<H", count) + body)[:cut]
    assert outcome(BlockCrcTable.decode, blob) == outcome(decode_reference, blob)


@given(st.binary(min_size=1, max_size=4096),
       st.sampled_from([64, 256, 1024]))
@settings(max_examples=100, deadline=None)
def test_table_roundtrip_property(data, block_size):
    table = BlockCrcTable(image_crcs(data, block_size)[1])
    assert BlockCrcTable.decode(table.encode()).entries == table.entries
    assert len(table.entries) == block_count(len(data), block_size)
