"""Checksum and block-table behaviour."""

import struct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim.delta import StagedImage
from fotasim.integrity import (
    _CHUNK,
    BlockCrcTable,
    EmptyImage,
    MalformedTable,
    block_count,
    crc32,
    image_crcs,
    reflect,
    reflected_crc32,
)

from conftest import crc32_bitwise


# Known-answer values computed with the bitwise reference implementation.
CHECK_VALUE = 0x0376E6E7  # crc32(b"123456789") for CRC-32/MPEG-2

# Lengths either side of crc32's piece boundaries, and past three pieces.
CHUNK_EDGES = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


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
        expected = reflected_crc32(reflect(data))  # the whole buffer in one piece
        assert crc32(data) == expected
        assert crc32(bytearray(data)) == expected
        assert crc32(memoryview(bytearray(data)).toreadonly()) == expected
        assert crc32(StagedImage(data)) == expected
        assert crc32(memoryview(data)[1:]) == reflected_crc32(reflect(data[1:]))


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
    assert image_crcs(data, block_size)[0] == reflected_crc32(reflect(data))
    assert list(image_crcs(data, block_size)[1]) == expected
    assert list(image_crcs(bytearray(data), block_size)[1]) == expected
    assert list(image_crcs(memoryview(data), block_size)[1]) == expected


@given(st.binary(max_size=2048), st.integers(0, 2048), st.integers(0, 2048))
@settings(max_examples=150, deadline=None)
def test_reflected_crc_of_a_slice_matches_crc32(data, i, j):
    view = memoryview(reflect(data))
    assert reflected_crc32(view[i:j]) == crc32(data[i:j]) == crc32_bitwise(data[i:j])


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
