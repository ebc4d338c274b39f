"""Image integrity primitives: CRC-32/MPEG-2 and per-block CRC tables.

The checksum is the MSB-first CRC-32 variant with polynomial 0x04C11DB7,
initial value 0xFFFFFFFF, no input/output reflection and no final XOR
(check value: crc32(b"123456789") == 0x0376E6E7).  It is computed here by
running zlib's reflected CRC-32 over bit-reversed input and bit-reversing
the result, which is algebraically the same register and runs at C speed.

Bit-reversing the input is a ``bytearray.translate`` pass (:func:`reflect`),
the larger part of a CRC's cost.  Neither CRC reverses an image in one
piece: :func:`crc32` folds one zlib register over ``_CHUNK``-byte pieces of
any buffer, each reversed in cache, and :func:`image_crcs` reverses whole
blocks about ``_CHUNK`` bytes at a time.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

DEFAULT_BLOCK_SIZE = 1024

_CHUNK = 16 * 1024  # bytes bit-reversed at a time; a message is one piece

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


def crc32(data) -> int:
    """CRC-32/MPEG-2 of ``data``, any buffer.  crc32(b"") == 0xFFFFFFFF (the
    register is never touched for empty input)."""
    if len(data) <= _CHUNK:  # one piece: a message costs the fewest calls
        return reflected_crc32(reflect(data))
    view = memoryview(data)
    register = 0
    for lo in range(0, view.nbytes, _CHUNK):
        register = zlib.crc32(reflect(view[lo : lo + _CHUNK]), register)
    return _unreflect([register])[0]


def reflect(data) -> bytearray:
    """``data``, any buffer, with the bits of every byte reversed: the input
    form that :func:`reflected_crc32` reads.  It goes through a bytearray
    copy, whose ``translate`` runs at twice the speed of ``bytes.translate``."""
    return bytearray(data).translate(_BITREV_BYTES)


def reflected_crc32(reflected: bytes | memoryview) -> int:
    """CRC-32/MPEG-2 of the bytes whose :func:`reflect` copy is
    ``reflected``: ``reflected_crc32(reflect(d)[i:j]) == crc32(d[i:j])``."""
    register = zlib.crc32(reflected).to_bytes(4, "little")  # _unreflect for one register
    return int.from_bytes(register.translate(_BITREV_NOT_BYTES), "big")


def block_count(image_length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-image_length // block_size)


def image_crcs(image, block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[int, tuple[int, ...]]:
    """``crc32(image)`` and the CRC of each ``block_size`` chunk of it, from
    pieces of whole blocks bit-reversed about ``_CHUNK`` bytes at a time.
    The final block may be shorter than ``block_size``; its CRC covers the
    bytes present, not a padded block."""
    view = memoryview(image)
    if view.nbytes == 0:
        raise EmptyImage("cannot build a block CRC table for an empty image")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    step = (_CHUNK // block_size or 1) * block_size
    pieces = [memoryview(reflect(view[lo : lo + step])) for lo in range(0, view.nbytes, step)]
    register = 0
    for piece in pieces:
        register = zlib.crc32(piece, register)
    crcs = _unreflect([zlib.crc32(piece[i : i + block_size])
                       for piece in pieces for i in range(0, piece.nbytes, block_size)] + [register])
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
