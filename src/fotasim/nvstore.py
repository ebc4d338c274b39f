"""Persistence shared by the boot chain: RTC backup registers and the
application metadata record kept in flash.

Backup registers survive a software reset but not a power cycle, which is
exactly what makes them usable as boot-stage mailboxes.  The metadata
record pins down what a valid application looks like: its byte count, its
whole-image CRC and its per-block CRC table, stored in the last KiB of the
application region (``METADATA_OFFSET``).  ``APP_CAPACITY`` is what that
leaves for the image, and ``MAX_TABLE_BLOCKS`` is how many block CRCs the
record holds; :func:`fits` states the two as one rule.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .flashmodel import APP_REGION, FlashDevice
from .integrity import DEFAULT_BLOCK_SIZE, BlockCrcTable, MalformedTable, block_count, image_crcs

BACKUP_REGISTER_COUNT = 20

# Register assignments for the boot-stage flags.
APP_ENTER_REG = 0
UPDATER_ENTER_REG = 1

# Reserved size and shape of the metadata record.
METADATA_SIZE = 1024
_COUNT_FIELD = 16
_U32 = struct.Struct("<I")

# The record's slot is the last KiB of the application region; the image
# gets the rest.
METADATA_OFFSET = APP_REGION.end - METADATA_SIZE
APP_CAPACITY = APP_REGION.size - METADATA_SIZE

# Most block-CRC entries the record carries.  The slot also bounds image
# size: an image needs ceil(len / block_size) <= MAX_TABLE_BLOCKS.
MAX_TABLE_BLOCKS = (METADATA_SIZE - _COUNT_FIELD - 4 - 2) // 4


def fits(image_length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> bool:
    """Whether an image of ``image_length`` bytes, its CRC table cut in
    ``block_size`` blocks, fits the application region beside its record:
    it is not empty (:func:`read_app_metadata` refuses a zero count), it
    leaves the record's slot free, and the record holds its table.  A
    ``block_size`` below 1 raises ValueError, whatever the length."""
    return (block_count(image_length, block_size) <= MAX_TABLE_BLOCKS
            and 1 <= image_length <= APP_CAPACITY)


class BootFlag(IntEnum):
    """Flag byte stored in a backup register.  Only the exact ENTER value
    arms a stage; every other register content decodes as NOT_ENTER."""

    ENTER = 0xAA
    NOT_ENTER = 0x55


def decode_flag(raw: int) -> BootFlag:
    return BootFlag.ENTER if raw == BootFlag.ENTER else BootFlag.NOT_ENTER


class BackupRegisters:
    """Bank of 20 32-bit registers modelled on an RTC backup domain."""

    def __init__(self) -> None:
        self._values = [0] * BACKUP_REGISTER_COUNT

    def read(self, index: int) -> int:
        return self._values[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError("backup registers hold 32-bit values")
        self._values[index] = value

    def clear(self) -> None:
        # Power-cycle semantics; a software reset must NOT call this.
        self._values = [0] * BACKUP_REGISTER_COUNT

    def read_flag(self, index: int) -> BootFlag:
        return decode_flag(self.read(index))

    def write_flag(self, index: int, flag: BootFlag) -> None:
        self.write(index, int(flag))


class MalformedMetadata(ValueError):
    pass


@dataclass(frozen=True)
class AppMetadata:
    """What the boot manager checks an application against."""

    byte_count: int
    image_crc: int
    table: BlockCrcTable

    @classmethod
    def for_image(cls, image: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> "AppMetadata":
        image_crc, blocks = image_crcs(image, block_size)
        return cls(len(image), image_crc, BlockCrcTable(blocks))

    def encode(self) -> bytes:
        """Layout: 16-byte ASCII decimal byte count (NUL padded), u32 LE
        image CRC, then the serialized block table."""
        count = str(self.byte_count).encode("ascii")
        if self.byte_count < 0 or len(count) > _COUNT_FIELD:
            raise ValueError("byte_count does not fit the 16-byte count field")
        blob = count.ljust(_COUNT_FIELD, b"\x00") + _U32.pack(self.image_crc) + self.table.encode()
        if len(blob) > METADATA_SIZE:
            raise ValueError("encoded metadata exceeds its reserved block")
        return blob

    @classmethod
    def decode(cls, blob: bytes) -> "AppMetadata":
        if len(blob) < _COUNT_FIELD + 4:
            raise MalformedMetadata("metadata blob truncated before the CRC field")
        raw_count = blob[:_COUNT_FIELD].split(b"\x00", 1)[0]
        if not raw_count or not raw_count.isdigit():
            raise MalformedMetadata("byte count field is not ASCII decimal")
        (image_crc,) = _U32.unpack_from(blob, _COUNT_FIELD)
        try:
            table = BlockCrcTable.decode(blob[_COUNT_FIELD + 4 :])
        except MalformedTable as exc:
            raise MalformedMetadata(str(exc)) from exc
        return cls(int(raw_count), image_crc, table)


def read_app_metadata(device: FlashDevice) -> AppMetadata:
    """Decode the metadata record from flash.

    Raises :class:`MalformedMetadata` for anything undecodable, including a
    byte count that could not fit the application region, and one of zero:
    no application is empty (:meth:`AppMetadata.for_image` refuses one),
    and a zero-byte record whose CRC is crc32(b"") would pass any flash.
    """
    blob, _ = device.read(METADATA_OFFSET, METADATA_SIZE)
    meta = AppMetadata.decode(blob)
    if meta.byte_count == 0:
        raise MalformedMetadata("byte count is zero")
    if meta.byte_count > APP_CAPACITY:
        raise MalformedMetadata("byte count exceeds application capacity")
    return meta


def write_app_metadata(device: FlashDevice, meta: AppMetadata, now_us: int = 0) -> int:
    """Program the metadata record; the slot must already be erased."""
    return device.program(METADATA_OFFSET, meta.encode(), now_us)
