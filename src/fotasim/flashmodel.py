"""Emulated on-chip flash: sectored geometry, lock keys, erase/program costs.

The device is a byte array with NOR-flash semantics: erase sets whole
sectors to 0xFF, programming may only clear bits (enforced strictly here as
"target bytes must read 0xFF"), and every mutation is gated behind a
two-key unlock.  Geometry, key pair and costs are fixed module constants:
the one flash map is ``LAYOUT``, with ``APP_REGION`` and
``BOOTLOADER_REGION`` and their sector tuples ``APP_SECTORS`` and
``BOOTLOADER_SECTORS``, and every device's ``layout`` is ``LAYOUT``.
Erase and program report simulated durations.  An erase copies from one
erased constant, and a program's erased check compares against it, one
``memcmp`` per 128 KiB; both write through a memoryview, so the bytes move
once.  :meth:`FlashDevice.view` reads the cells without a copy; a CRC of
them is :func:`~fotasim.integrity.crc32`'s, whose memo answers for cells
that equal a remembered image.  The device keeps the only flash-time
account: a busy horizon, which reads report as their stall and which a
node running on the device stalls on, and the running total of busy time.

Nothing here touches real hardware.  Durations are bookkeeping, not sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass

KIB = 1024

# Default geometry: eight sectors totalling 512 KiB.
DEFAULT_SECTOR_SIZES = (
    16 * KIB, 16 * KIB, 16 * KIB, 16 * KIB,
    64 * KIB,
    128 * KIB, 128 * KIB, 128 * KIB,
)

REGION_BOOT_MANAGER = "boot_manager"
REGION_BOOTLOADER = "bootloader"
REGION_APPLICATION = "application"

# unlock() wants exactly this key pair, in this order.
DEFAULT_UNLOCK_KEYS = (0x45670123, 0xCDEF89AB)

# Simulated costs in microseconds: erase by sector size, program per 32-bit word.
ERASE_US = {16 * KIB: 250_000, 64 * KIB: 700_000, 128 * KIB: 1_000_000}
PROGRAM_WORD_US = 16

# erase_sectors() sentinel: mass-erase of the application region.
MASS_ERASE_APPLICATION = 0xFF

ERASED_BYTE = 0xFF

# One erased sector of the largest size, which erases and programs slice.
_ERASED = memoryview(bytes([ERASED_BYTE]) * max(ERASE_US))


def program_cost(length: int) -> int:
    """Programming ``length`` bytes costs ceil(length / 4) words."""
    return -(-length // 4) * PROGRAM_WORD_US


class FlashError(Exception):
    pass


class BadKeySequence(FlashError):
    """Wrong unlock keys.  The device latches locked until reset."""


class AlreadyUnlocked(FlashError):
    pass


class LockedDevice(FlashError):
    pass


class SectorOutOfRange(FlashError):
    pass


class AddressOutOfRange(FlashError):
    pass


class ProgramOnNonErased(FlashError):
    """Attempted to program a byte that does not currently read 0xFF."""

    def __init__(self, offset: int):
        super().__init__(f"byte at offset 0x{offset:06X} is not erased")
        self.offset = offset


@dataclass(frozen=True)
class Sector:
    index: int
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass(frozen=True)
class Region:
    name: str
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.start <= address and address + length <= self.end


class FlashLayout:
    """Sector table plus named regions."""

    def __init__(self, sector_sizes: tuple[int, ...], regions: dict[str, tuple[int, int]]):
        sectors = []
        offset = 0
        for index, size in enumerate(sector_sizes):
            sectors.append(Sector(index, offset, size))
            offset += size
        self.sectors: tuple[Sector, ...] = tuple(sectors)
        self.size = offset
        self.regions: dict[str, Region] = {
            name: Region(name, start, size) for name, (start, size) in regions.items()
        }

    def region(self, name: str) -> Region:
        return self.regions[name]

    def sectors_overlapping(self, start: int, end: int) -> list[Sector]:
        """Sectors intersecting the half-open byte range [start, end)."""
        return [s for s in self.sectors if s.start < end and s.end > start]

    def sectors_within(self, region: Region) -> tuple[Sector, ...]:
        return tuple(s for s in self.sectors if s.start >= region.start and s.end <= region.end)


# The one flash map: 64 KiB boot manager, 64 KiB bootloader, 384 KiB application.
LAYOUT = FlashLayout(
    DEFAULT_SECTOR_SIZES,
    {
        REGION_BOOT_MANAGER: (0, 64 * KIB),
        REGION_BOOTLOADER: (64 * KIB, 64 * KIB),
        REGION_APPLICATION: (128 * KIB, 384 * KIB),
    },
)
APP_REGION = LAYOUT.region(REGION_APPLICATION)
BOOTLOADER_REGION = LAYOUT.region(REGION_BOOTLOADER)
APP_SECTORS = LAYOUT.sectors_within(APP_REGION)
BOOTLOADER_SECTORS = LAYOUT.sectors_within(BOOTLOADER_REGION)


class FlashDevice:
    """One 512 KiB flash bank.  Fresh devices are fully erased and locked.

    A failed unlock latches the lock until :meth:`reset`; this mirrors
    controllers that refuse further key writes after a bad sequence.
    ``busy_until_us`` is the simulated-time instant at which the last
    erase/program completes: reads report the remaining stall, and a node
    running on the device stalls until then.  ``busy_total_us`` adds up the
    duration of every erase and program, the device's flash-time account.
    """

    layout = LAYOUT

    def __init__(self) -> None:
        self.cells = bytearray([ERASED_BYTE]) * LAYOUT.size
        self.locked = True
        self.latched = False
        self.busy_until_us = 0
        self.busy_total_us = 0

    # -- lock handling -----------------------------------------------------

    def unlock(self, key1: int, key2: int) -> None:
        if not self.locked:
            raise AlreadyUnlocked("unlock issued while already unlocked")
        if self.latched or (key1, key2) != DEFAULT_UNLOCK_KEYS:
            self.latched = True
            raise BadKeySequence("wrong key sequence; device latched until reset")
        self.locked = False

    def reset(self) -> None:
        """Controller reset: relocks and clears the bad-key latch.  Cell
        contents and the busy horizon are untouched."""
        self.locked = True
        self.latched = False

    def _require_unlocked(self) -> None:
        if self.locked:
            raise LockedDevice("mutation attempted while locked")

    # -- mutation ----------------------------------------------------------

    def erase_sectors(self, start_sector: int, count: int = 1, now_us: int = 0) -> int:
        """Erase ``count`` sectors from ``start_sector``; returns duration in µs.

        ``start_sector == MASS_ERASE_APPLICATION`` erases every sector of the
        application region and ignores ``count``.
        """
        self._require_unlocked()
        if start_sector == MASS_ERASE_APPLICATION:
            sectors = APP_SECTORS
        else:
            if count < 1 or start_sector < 0 or start_sector + count > len(LAYOUT.sectors):
                raise SectorOutOfRange(
                    f"sectors [{start_sector}, {start_sector + count}) outside device"
                )
            sectors = LAYOUT.sectors[start_sector : start_sector + count]
        duration = 0
        for s in sectors:
            memoryview(self.cells)[s.start : s.end] = _ERASED[: s.size]
            duration += ERASE_US[s.size]
        self._occupy(now_us, duration)
        return duration

    def program(self, address: int, data: bytes, now_us: int = 0) -> int:
        """Program ``data`` at ``address``; returns duration in µs.

        Every target byte must currently read 0xFF, else
        :class:`ProgramOnNonErased` is raised with the first offending offset
        and nothing is written.
        """
        self._require_unlocked()
        n = len(data)
        if n == 0:
            return 0
        if address < 0 or address + n > LAYOUT.size:
            raise AddressOutOfRange(
                f"program of {n} bytes at 0x{address:06X} leaves the device"
            )
        cells, end = self.cells, address + n
        for lo in range(address, end, _ERASED.nbytes):  # one memcmp per largest sector
            if not cells.startswith(_ERASED[: end - lo], lo):
                for i in range(lo, end):
                    if cells[i] != ERASED_BYTE:
                        raise ProgramOnNonErased(i)
        memoryview(cells)[address:end] = data  # a bytearray slice copies data to a temporary first
        duration = program_cost(n)
        self._occupy(now_us, duration)
        return duration

    # -- access ------------------------------------------------------------

    def view(self, address: int, length: int) -> memoryview:
        """A read-only view of ``length`` bytes at ``address``, not a copy:
        it shows later erases and programs.  Never gated by the lock."""
        if length < 0 or address < 0 or address + length > LAYOUT.size:
            raise AddressOutOfRange(
                f"read of {length} bytes at 0x{address:06X} leaves the device"
            )
        return memoryview(self.cells)[address : address + length].toreadonly()

    def read(self, address: int, length: int, now_us: int = 0) -> tuple[bytes, int]:
        """A copy of :meth:`view` and ``stall_us``, how long the caller waits
        for the device to leave its busy window (zero when idle)."""
        return bytes(self.view(address, length)), max(0, self.busy_until_us - now_us)

    def _occupy(self, now_us: int, duration: int) -> None:
        self.busy_until_us = max(self.busy_until_us, now_us) + duration
        self.busy_total_us += duration
