"""Block-granular firmware deltas: build, serialize, decode, apply.

A package describes how a new image differs from an old one at two levels:
which fixed-size blocks changed (detected by comparing bytes), and inside
each changed block, which byte runs to rewrite.  Applying a package stages
the full new image in RAM and verifies every patched block CRC plus the
whole-image CRC; nothing here touches flash.  The target's DELTA_APPLY
(:mod:`fotasim.bootflow`) commits what the staging verified.

The byte work runs in C builtins.  A changed block is XORed with its old
contents as one big integer, and ``bytes.translate`` turns the XOR into a
0/1 map of where the bytes differ.  ``bytes.find`` then steps from one run
of difference to the next gap of ``gap_merge`` equal bytes and on to the
next run, so equal bytes are skipped in C.  ``build_delta`` reads the new
image's CRCs with :func:`~fotasim.integrity.image_crcs`, one pass that
reverses it in pieces, and no CRC of the old image; :func:`apply_delta`
reads the staged image's the same way, so in the process that built the
package, whose staged image equals the new one, they are remembered.

Wire format, all little-endian:

    header:  "FDP1" | version u8 | block_size u32 | new_image_length u32
             | new_image_crc u32 | entry_count u16            (19 bytes)
    entry:   block_index u16 | tuple_count u16 | new_block_crc u32
    tuple:   offset u16 | length u16 | data

Entries are sorted by block index, tuples by offset; neither overlaps.

In memory a tuple is a plain ``(offset, data)`` pair whose wire length is
``len(data)``, so a run cannot disagree with its own length.
:class:`DeltaPackage` is the one place the package rules are checked, in a
single walk over entries and tuples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .integrity import (
    DEFAULT_BLOCK_SIZE,
    EmptyImage,
    block_count,
    image_crcs,
)

MAGIC = b"FDP1"
VERSION = 1
MAX_BLOCK_SIZE = 0x10000  # tuple offsets are 16-bit

# Diff runs separated by fewer than this many equal bytes are merged; the
# per-tuple framing overhead is not worth chasing shorter gaps.
DEFAULT_GAP_MERGE = 8

_HEADER = struct.Struct("<4sBIIIH")
_ENTRY = struct.Struct("<HHI")
_TUPLE = struct.Struct("<HH")

HEADER_SIZE = _HEADER.size

_NONZERO_TO_ONE = bytes(1) + bytes((1,)) * 255  # bytes.translate table


class DeltaError(Exception):
    pass


class BadMagic(DeltaError):
    pass


class UnsupportedVersion(DeltaError):
    pass


class Truncated(DeltaError):
    pass


class MalformedPackage(DeltaError):
    pass


class BlockCrcMismatch(DeltaError):
    def __init__(self, block_index: int):
        super().__init__(f"patched block {block_index} fails its CRC")
        self.block_index = block_index


class ImageCrcMismatch(DeltaError):
    pass


@dataclass(frozen=True)
class DeltaEntry:
    block_index: int
    new_block_crc: int
    tuples: tuple[tuple[int, bytes], ...]  # (offset, data) runs to rewrite in the block


@dataclass(frozen=True)
class DeltaPackage:
    block_size: int
    new_image_length: int
    new_image_crc: int
    entries: tuple[DeltaEntry, ...]

    def __post_init__(self) -> None:
        size, n = self.block_size, self.new_image_length
        if size < 1 or n < 1:
            raise MalformedPackage("block size and image length must be positive")
        blocks = block_count(n, size)
        previous = -1
        for entry in self.entries:
            if not 0 <= entry.block_index <= 0xFFFF:
                raise MalformedPackage("block index exceeds 16 bits")
            if entry.block_index <= previous:
                raise MalformedPackage("entries must be sorted by block index")
            if entry.block_index >= blocks:
                raise MalformedPackage("entry lies beyond the new image")
            previous = entry.block_index
            if not 0 <= entry.new_block_crc <= 0xFFFFFFFF:
                raise MalformedPackage("block CRC exceeds 32 bits")
            limit = min(size, n - entry.block_index * size)
            cursor = 0  # first offset the next run may start at
            for offset, data in entry.tuples:
                if not 0 <= offset <= 0xFFFF:
                    raise MalformedPackage("tuple offset exceeds 16 bits")
                if not 1 <= len(data) <= 0xFFFF:
                    raise MalformedPackage("tuple length must be 1..65535")
                if offset < cursor:
                    raise MalformedPackage("tuples must be sorted and non-overlapping")
                cursor = offset + len(data)
                if cursor > limit:
                    raise MalformedPackage("tuple overruns its block")

    def changed_blocks(self) -> list[int]:
        return [e.block_index for e in self.entries]

    def payload_bytes(self) -> int:
        return sum(len(data) for e in self.entries for _, data in e.tuples)


def _diff_runs(old_block: bytes, new_block: bytes, gap_merge: int) -> list[tuple[int, int]]:
    """Half-open [start, end) runs where two equal-length blocks differ,
    merging runs separated by fewer than ``gap_merge`` equal bytes.

    ``differs`` holds 0 where the blocks agree and 1 where they differ.  A
    merged run starts at a 1 and ends where the next ``gap_merge`` (at least
    one) 0s in a row begin, or after the last 1.
    """
    xor = int.from_bytes(old_block, "little") ^ int.from_bytes(new_block, "little")
    differs = xor.to_bytes(len(new_block), "little").translate(_NONZERO_TO_ONE)
    gap = bytes(max(gap_merge, 1))
    runs = []
    start = differs.find(1)
    while start >= 0:
        end = differs.find(gap, start)
        if end < 0:
            runs.append((start, differs.rfind(1) + 1))
            break
        runs.append((start, end))
        start = differs.find(1, end)
    return runs


def build_delta(old: bytes, new: bytes, block_size: int = DEFAULT_BLOCK_SIZE,
                gap_merge: int = DEFAULT_GAP_MERGE) -> DeltaPackage:
    """Diff two images into a package that rewrites ``old`` into ``new``.

    The comparison runs over the new image's extent; where the old image is
    shorter it is treated as erased flash (0xFF).  Blocks whose bytes match
    produce no entry.
    """
    if len(old) == 0 or len(new) == 0:
        raise EmptyImage("delta inputs must be non-empty")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(f"block_size {block_size} exceeds 0x10000: tuple offsets are 16-bit")
    if gap_merge < 0:
        raise ValueError("gap_merge cannot be negative")
    n = len(new)
    old = bytes(old[:n]).ljust(n, b"\xff")
    image_crc, block_crcs = image_crcs(new, block_size)
    entries = []
    for index in range(block_count(n, block_size)):
        lo = index * block_size
        hi = min(lo + block_size, n)
        new_block = new[lo:hi]
        old_block = old[lo:hi]
        if old_block == new_block:
            continue
        runs = _diff_runs(old_block, new_block, gap_merge)
        if block_size > 0xFFFF:  # a whole changed 64 KiB block overflows a u16 length
            runs = [(o, min(o + 0xFFFF, e)) for s, e in runs for o in range(s, e, 0xFFFF)]
        tuples = tuple((s, new_block[s:e]) for s, e in runs)
        entries.append(DeltaEntry(index, block_crcs[index], tuples))
    return DeltaPackage(block_size, n, image_crc, tuple(entries))


def encode_package(pkg: DeltaPackage) -> bytes:
    out = bytearray(_HEADER.pack(MAGIC, VERSION, pkg.block_size, pkg.new_image_length,
                                 pkg.new_image_crc, len(pkg.entries)))
    for entry in pkg.entries:
        out += _ENTRY.pack(entry.block_index, len(entry.tuples), entry.new_block_crc)
        for offset, data in entry.tuples:
            out += _TUPLE.pack(offset, len(data))
            out += data
    return bytes(out)


def decode_package(blob: bytes) -> DeltaPackage:
    if len(blob) < HEADER_SIZE:
        raise Truncated("blob shorter than the package header")
    magic, version, block_size, new_length, new_crc, entry_count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagic(f"magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}")
    pos = HEADER_SIZE
    entries = []
    for _ in range(entry_count):
        if pos + _ENTRY.size > len(blob):
            raise Truncated("blob ends inside an entry header")
        block_index, tuple_count, block_crc = _ENTRY.unpack_from(blob, pos)
        pos += _ENTRY.size
        tuples = []
        for _ in range(tuple_count):
            if pos + _TUPLE.size > len(blob):
                raise Truncated("blob ends inside a tuple header")
            offset, length = _TUPLE.unpack_from(blob, pos)
            pos += _TUPLE.size
            if pos + length > len(blob):
                raise Truncated("blob ends inside tuple data")
            tuples.append((offset, blob[pos : pos + length]))
            pos += length
        entries.append(DeltaEntry(block_index, block_crc, tuple(tuples)))
    if pos != len(blob):
        raise MalformedPackage(f"{len(blob) - pos} trailing bytes after the last entry")
    return DeltaPackage(block_size, new_length, new_crc, tuple(entries))


def apply_delta(base: bytes, pkg: DeltaPackage) -> bytearray:
    """Stage the new image in RAM: pad or truncate ``base`` to the new
    length and apply every tuple.  Then read the staged image's CRC and
    block CRCs in one pass and check the patched blocks' CRCs in entry
    order, so the lowest bad block is the one reported, and last the
    whole-image CRC."""
    n = pkg.new_image_length
    size = pkg.block_size
    staged = bytearray(memoryview(base)[:n])
    staged += b"\xff" * (n - len(staged))  # empty unless base is short
    for entry in pkg.entries:
        lo = entry.block_index * size
        for offset, data in entry.tuples:
            staged[lo + offset : lo + offset + len(data)] = data
    image_crc, block_crcs = image_crcs(staged, size)
    for entry in pkg.entries:
        if block_crcs[entry.block_index] != entry.new_block_crc:
            raise BlockCrcMismatch(entry.block_index)
    if image_crc != pkg.new_image_crc:
        raise ImageCrcMismatch("staged image fails the whole-image CRC")
    return staged
