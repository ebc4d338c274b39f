"""Image integrity primitives: CRC-32/MPEG-2 and per-block CRC tables.

The checksum is the MSB-first CRC-32 variant with polynomial 0x04C11DB7,
initial value 0xFFFFFFFF, no input/output reflection and no final XOR
(check value: crc32(b"123456789") == 0x0376E6E7).  It is computed here by
running zlib's reflected CRC-32 over bit-reversed input and bit-reversing
the result, which is algebraically the same register and runs at C speed.

Bit-reversing the input is a ``bytearray.translate`` pass (:func:`reflect`),
the larger part of a CRC's cost.  Neither CRC reverses an image in one
piece: :func:`crc32` folds one zlib register over ``_CHUNK``-byte pieces of
any buffer, a message's one piece too, each reversed in cache, and
:func:`image_crcs` reverses whole blocks about ``_CHUNK`` bytes at a time.

One process CRCs the same image more than once: provisioning and the
report read the old image, and the host's package or record, the
target's staged image, its record and the boot's check the new one.  So
:func:`image_crcs` remembers its last ``_MEMO_ENTRIES`` results, each
keyed on the image's bytes (the caller's ``bytes``, or a ``bytes`` copy
of a buffer that can change) and block size.  A later :func:`image_crcs`
of equal bytes and block size, or :func:`crc32` of equal bytes, returns
the remembered result after one ``memcmp``; any other input is CRC'd.
Equal bytes have equal CRCs, so no caller can tell a remembered result
from a computed one but by its cost.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass

DEFAULT_BLOCK_SIZE = 1024

_CHUNK = 16 * 1024  # bytes bit-reversed at a time; a message is one piece

_MEMO_ENTRIES = 2  # an update's old image and its new one

# The last image_crcs results, oldest first: (image bytes, block size, result).
_memo: deque[tuple[bytes, int, tuple[int, tuple[int, ...]]]] = deque(maxlen=_MEMO_ENTRIES)

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


def _recall(view: memoryview, block_size: int | None = None):
    """The remembered :func:`image_crcs` result of bytes equal to ``view``'s,
    for ``block_size`` unless it is None; None when there is none, and for
    a view that is not contiguous, which ``startswith`` cannot read."""
    if view.c_contiguous:
        for kept, size, result in _memo:
            if len(kept) == view.nbytes and block_size in (None, size) and kept.startswith(view):
                return result
    return None


def crc32(data) -> int:
    """CRC-32/MPEG-2 of ``data``, any buffer: a remembered image's, or one
    zlib register folded over its ``_CHUNK``-byte pieces.  crc32(b"") ==
    0xFFFFFFFF (the register is never touched for empty input)."""
    view = memoryview(data)
    if (remembered := _recall(view)) is not None:
        return remembered[0]
    register = 0
    for lo in range(0, view.nbytes, _CHUNK):
        register = zlib.crc32(reflect(view[lo : lo + _CHUNK]), register)
    return _unreflect([register])[0]


def reflect(data) -> bytearray:
    """``data``, any buffer, with the bits of every byte reversed: the input
    form that zlib's reflected CRC-32 reads.  It goes through a bytearray
    copy, whose ``translate`` runs at twice the speed of ``bytes.translate``."""
    return bytearray(data).translate(_BITREV_BYTES)


def block_count(image_length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-image_length // block_size)


def image_crcs(image, block_size: int = DEFAULT_BLOCK_SIZE) -> tuple[int, tuple[int, ...]]:
    """``crc32(image)`` and the CRC of each ``block_size`` chunk of it: the
    remembered result for equal bytes and block size, or one computed from
    pieces of whole blocks bit-reversed about ``_CHUNK`` bytes at a time,
    which is then remembered.  The final block may be shorter than
    ``block_size``; its CRC covers the bytes present, not a padded block."""
    view = memoryview(image)
    if view.nbytes == 0:
        raise EmptyImage("cannot build a block CRC table for an empty image")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if (remembered := _recall(view, block_size)) is not None:
        return remembered
    step = (_CHUNK // block_size or 1) * block_size
    pieces = [memoryview(reflect(view[lo : lo + step])) for lo in range(0, view.nbytes, step)]
    register = 0
    for piece in pieces:
        register = zlib.crc32(piece, register)
    crcs = _unreflect([zlib.crc32(piece[i : i + block_size])
                       for piece in pieces for i in range(0, piece.nbytes, block_size)] + [register])
    result = crcs[-1], crcs[:-1]
    _memo.append((image if type(image) is bytes else bytes(view), block_size, result))
    return result


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
