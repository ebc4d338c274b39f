"""Image integrity primitives: CRC-32/MPEG-2 and per-block CRC tables.

The checksum is the MSB-first CRC-32 variant with polynomial 0x04C11DB7,
initial value 0xFFFFFFFF, no input/output reflection and no final XOR
(check value: crc32(b"123456789") == 0x0376E6E7).  It is computed here by
running zlib's reflected CRC-32 over bit-reversed input and bit-reversing
the result, which is algebraically the same register and runs at C speed.

Bit-reversing the input is a ``bytes.translate`` pass, the larger part of a
CRC's cost.  Code that checks many blocks of one image reverses the image
once with :func:`reflect` and hands memoryview slices of the copy to
:func:`reflected_crc32`, which then costs one zlib call per block.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import Enum

DEFAULT_BLOCK_SIZE = 1024

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class IntegrityError(ValueError):
    pass


class EmptyImage(IntegrityError):
    pass


class MalformedTable(IntegrityError):
    pass


class CompareResult(Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"


def _bitrev8(x: int) -> int:
    x = ((x & 0x55) << 1) | ((x & 0xAA) >> 1)
    x = ((x & 0x33) << 2) | ((x & 0xCC) >> 2)
    return ((x & 0x0F) << 4) | ((x & 0xF0) >> 4)


_BITREV_BYTES = bytes(_bitrev8(i) for i in range(256))


def _bitrev32(x: int) -> int:
    # Reverse the byte order, then the bits inside each byte.
    return int.from_bytes(x.to_bytes(4, "little").translate(_BITREV_BYTES), "big")


def crc32(data: bytes) -> int:
    """CRC-32/MPEG-2 of ``data``.  crc32(b"") == 0xFFFFFFFF (the register
    is never touched for empty input)."""
    return reflected_crc32(reflect(data))


def reflect(data: bytes) -> bytes:
    """``data`` with the bits of every byte reversed, the input form that
    :func:`reflected_crc32` reads."""
    return bytes(data).translate(_BITREV_BYTES)


def reflected_crc32(reflected: bytes | memoryview) -> int:
    """CRC-32/MPEG-2 of the bytes whose :func:`reflect` copy is
    ``reflected``: ``reflected_crc32(reflect(d)[i:j]) == crc32(d[i:j])``."""
    return _bitrev32(zlib.crc32(reflected) ^ 0xFFFFFFFF)


def crc_compare(computed: int, stored: int) -> CompareResult:
    if computed == stored:
        return CompareResult.SUCCEEDED
    return CompareResult.FAILED


def block_count(image_length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-image_length // block_size)


def block_crcs(image: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> list[int]:
    """Per-block CRCs over ``image`` split into ``block_size`` chunks.

    The final block may be shorter than ``block_size``; its CRC covers the
    actual bytes present, not a padded block.
    """
    if len(image) == 0:
        raise EmptyImage("cannot build a block CRC table for an empty image")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    reflected = memoryview(reflect(image))
    return [reflected_crc32(reflected[i : i + block_size])
            for i in range(0, len(reflected), block_size)]


@dataclass(frozen=True)
class BlockCrcTable:
    """Ordered per-block CRCs for one image.

    Serialized form: entry count as u16 little-endian, then one u32
    little-endian per entry.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) > 0xFFFF:
            raise MalformedTable("table holds at most 65535 entries")
        for value in self.entries:
            if not 0 <= value <= 0xFFFFFFFF:
                raise MalformedTable("entries must be 32-bit values")

    def encode(self) -> bytes:
        out = bytearray(_U16.pack(len(self.entries)))
        for value in self.entries:
            out += _U32.pack(value)
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> "BlockCrcTable":
        if len(blob) < 2:
            raise MalformedTable("table blob shorter than its count field")
        (count,) = _U16.unpack_from(blob, 0)
        need = 2 + 4 * count
        if len(blob) < need:
            raise MalformedTable(f"table claims {count} entries but blob holds fewer")
        entries = tuple(_U32.unpack_from(blob, 2 + 4 * i)[0] for i in range(count))
        return cls(entries)

    def encoded_length(self) -> int:
        return 2 + 4 * len(self.entries)
