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
:func:`image_crcs` reads an image's CRC and block table from one copy.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

DEFAULT_BLOCK_SIZE = 1024

_U16 = struct.Struct("<H")


class IntegrityError(ValueError):
    pass


class EmptyImage(IntegrityError):
    pass


class MalformedTable(IntegrityError):
    pass


def _bitrev8(x: int) -> int:
    x = ((x & 0x55) << 1) | ((x & 0xAA) >> 1)
    x = ((x & 0x33) << 2) | ((x & 0xCC) >> 2)
    return ((x & 0x0F) << 4) | ((x & 0xF0) >> 4)


_BITREV_BYTES = bytes(_bitrev8(i) for i in range(256))
_BITREV_NOT_BYTES = bytes(_bitrev8(i) ^ 0xFF for i in range(256))


def _unreflect(registers: list[int]) -> tuple[int, ...]:
    """The CRC-32/MPEG-2 values of zlib's reflected ``registers``: packed
    little-endian, each byte inverted and bit-reversed, read back big-endian."""
    n = len(registers)
    return struct.unpack(f">{n}I", struct.pack(f"<{n}I", *registers).translate(_BITREV_NOT_BYTES))


def crc32(data: bytes) -> int:
    """CRC-32/MPEG-2 of ``data``.  crc32(b"") == 0xFFFFFFFF (the register
    is never touched for empty input)."""
    return reflected_crc32(reflect(data))


def reflect(data: bytes) -> bytes:
    """``data`` with the bits of every byte reversed, the input form that
    :func:`reflected_crc32` reads.  Bytes and bytearrays, subclasses too,
    are read in place; other buffers are copied to bytes first."""
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    return data.translate(_BITREV_BYTES)


def reflected_crc32(reflected: bytes | memoryview) -> int:
    """CRC-32/MPEG-2 of the bytes whose :func:`reflect` copy is
    ``reflected``: ``reflected_crc32(reflect(d)[i:j]) == crc32(d[i:j])``."""
    register = zlib.crc32(reflected).to_bytes(4, "little")  # _unreflect for one register
    return int.from_bytes(register.translate(_BITREV_NOT_BYTES), "big")


def block_count(image_length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-image_length // block_size)


def image_crcs(image: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[int, tuple[int, ...]]:
    """``crc32(image)`` and the CRC of each ``block_size`` chunk of it, from
    one reflected copy of ``image``.  The final block may be shorter than
    ``block_size``; its CRC covers the bytes present, not a padded block."""
    if len(image) == 0:
        raise EmptyImage("cannot build a block CRC table for an empty image")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    reflected = memoryview(reflect(image))
    crcs = _unreflect([zlib.crc32(reflected[i : i + block_size])
                       for i in range(0, len(reflected), block_size)] + [zlib.crc32(reflected)])
    return crcs[-1], crcs[:-1]


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
        return struct.pack(f"<H{len(self.entries)}I", len(self.entries), *self.entries)

    @classmethod
    def decode(cls, blob: bytes) -> "BlockCrcTable":
        if len(blob) < 2:
            raise MalformedTable("table blob shorter than its count field")
        (count,) = _U16.unpack_from(blob, 0)
        need = 2 + 4 * count
        if len(blob) < need:
            raise MalformedTable(f"table claims {count} entries but blob holds fewer")
        return cls(struct.unpack_from(f"<{count}I", blob, 2))
