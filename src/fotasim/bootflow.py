"""The three boot-chain programs: boot manager, bootloader, updater.

Everything here is written against :class:`EcuContext`, a thin bundle of
one ECU's devices and runtime callbacks, so the state machines run the
same way under the deterministic world scheduler and under plain unit
tests.

Command protocol (first payload byte selects the handler):

    0x27        security access, forwarded to the UDS session
    0x14..0x17  bootloader commands (flow control, erase, write, delta)
    0x20..0x23  updater commands (version, bootloader write/erase, leave)
    0x31        application command: drop to the bootloader

A MEM_WRITE request is the code, a u32 address and a u16 length (both
little-endian), then the data.  Replies are ``[0x79, code, ...]`` for ACK
and ``[0x1F, code, reason]`` for NACK.  The updater answers no security
service and silently ignores unknown commands; both facts are modelled
weaknesses of the chain being reproduced, not oversights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable

from .delta import DeltaError, apply_delta, decode_package, program_delta
from .flashmodel import (
    APP_REGION,
    APP_SECTORS,
    BOOTLOADER_REGION,
    BOOTLOADER_SECTORS,
    DEFAULT_UNLOCK_KEYS,
    FlashDevice,
    FlashError,
    MASS_ERASE_APPLICATION,
    ProgramOnNonErased,
    Region,
    Sector,
)
from .integrity import crc32
from .nvstore import (
    APP_ENTER_REG,
    UPDATER_ENTER_REG,
    BackupRegisters,
    BootFlag,
    MalformedMetadata,
    fits,
    read_app_metadata,
)
from .uds import SECURITY_SID, SecuritySession, server_handle

ACK = 0x79
NACK = 0x1F

NACK_REGION = 0x01
NACK_SECURITY = 0x02
NACK_FLASH = 0x03
NACK_DELTA = 0x04
NACK_MALFORMED = 0x05


class BootloaderCommand(IntEnum):
    GO_TO_ADDR = 0x14
    FLASH_ERASE = 0x15
    MEM_WRITE = 0x16
    DELTA_APPLY = 0x17


class UpdaterCommand(IntEnum):
    GET_VERSION = 0x20
    MEM_WRITE_BOOTLOADER = 0x21
    MEM_ERASE_BOOTLOADER = 0x22
    LEAVE_TO_BOOT_MANAGER = 0x23


APP_ENTER_BOOTLOADER = 0x31

MEM_WRITE_HEADER = struct.Struct("<BIH")  # code, address, length

UPDATER_VERSION = (1, 0, 0)  # major, minor, patch: the GET_VERSION reply


class BootDecision(Enum):
    JUMP_APPLICATION = "jump_application"
    JUMP_BOOTLOADER = "jump_bootloader"
    JUMP_UPDATER = "jump_updater"


class InjectedFault(RuntimeError):
    """Raised by a fault hook to interrupt the updater at a step boundary."""


class _VerifyFailed(Exception):
    pass


def _noop(*args, **kwargs):
    return None


@dataclass
class EcuContext:
    """One ECU's hardware plus the callbacks the state machines need.

    ``now`` reads the simulated clock; ``request_reset`` asks the runtime
    for a software reset after the current step; ``fault_hook`` (tests only)
    gets each updater step name and may raise :class:`InjectedFault`.
    """

    device: FlashDevice
    regs: BackupRegisters
    session: SecuritySession
    updater_image: bytes | None = None
    now: Callable[[], int] = lambda: 0
    log: Callable = _noop
    request_reset: Callable[[], None] = _noop
    fault_hook: Callable[[str], None] | None = None
    sectors_erased: int = 0

    def ensure_flash_unlocked(self) -> None:
        if self.device.locked:
            self.device.unlock(*DEFAULT_UNLOCK_KEYS)

    def _hook(self, step: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(step)


# -- boot manager ------------------------------------------------------------


def app_integrity(device: FlashDevice) -> bool:
    """Whether the stored application's CRC matches its metadata record."""
    try:
        meta = read_app_metadata(device)
    except MalformedMetadata:
        return False
    data, _ = device.read(APP_REGION.start, meta.byte_count)
    return crc32(data) == meta.image_crc


def _disarm_stages(regs: BackupRegisters) -> None:
    """Both stage flags to NOT_ENTER: the next boot lands in the bootloader."""
    regs.write_flag(APP_ENTER_REG, BootFlag.NOT_ENTER)
    regs.write_flag(UPDATER_ENTER_REG, BootFlag.NOT_ENTER)


def boot_decide(device: FlashDevice, regs: BackupRegisters) -> BootDecision:
    """Pick the next stage.

    A verified application with its enter flag armed wins; otherwise an
    armed updater flag wins; otherwise both flags are cleared and the
    bootloader takes over, so a stale flag can never loop the chain.  The
    flag is read first: only a boot that would enter the application CRCs
    it, and every such boot does.
    """
    if regs.read_flag(APP_ENTER_REG) is BootFlag.ENTER and app_integrity(device):
        return BootDecision.JUMP_APPLICATION
    if regs.read_flag(UPDATER_ENTER_REG) is BootFlag.ENTER:
        return BootDecision.JUMP_UPDATER
    _disarm_stages(regs)
    return BootDecision.JUMP_BOOTLOADER


# -- bootloader command server ------------------------------------------------


def _ack(code: int) -> bytes:
    return bytes([ACK, code])


def _nack(code: int, reason: int) -> bytes:
    return bytes([NACK, code, reason])


def is_ack_or_nack(payload: bytes) -> bool:
    return bool(payload) and payload[0] in (ACK, NACK)


def is_ack(reply: bytes | None, code: int) -> bool:
    return reply is not None and reply[:2] == bytes([ACK, code])


def is_nack(reply: bytes | None, reason: int) -> bool:
    """Whether ``reply`` is a NACK giving ``reason``, for whatever command."""
    return reply is not None and len(reply) >= 3 and reply[0] == NACK and reply[2] == reason


def mem_write_request(address: int, data: bytes) -> bytes:
    return MEM_WRITE_HEADER.pack(BootloaderCommand.MEM_WRITE, address, len(data)) + data


def _sectors_in(sectors: tuple[Sector, ...], start: int, count: int) -> bool:
    """Whether sectors [start, start + count) are all among ``sectors``."""
    return count >= 1 and sectors[0].index <= start and start + count <= sectors[-1].index + 1


def _erase(ctx: EcuContext, start: int, count: int) -> int:
    """Erase sectors [start, start + count), or every application sector for
    ``MASS_ERASE_APPLICATION`` (``count`` ignored), adding them to
    ``ctx.sectors_erased``; returns how many.  FlashError propagates."""
    ctx.ensure_flash_unlocked()
    ctx.device.erase_sectors(start, count, ctx.now())
    erased = len(APP_SECTORS) if start == MASS_ERASE_APPLICATION else count
    ctx.sectors_erased += erased
    return erased


def _mem_write(ctx: EcuContext, payload: bytes, region: Region,
               malformed: bytes | None) -> bytes | None:
    """Program a MEM_WRITE payload, its header already checked, into
    ``region``; a length that disagrees with the data draws ``malformed``."""
    code, address, length = MEM_WRITE_HEADER.unpack_from(payload)
    data = payload[MEM_WRITE_HEADER.size:]
    if len(data) != length:
        return malformed
    if not region.contains(address, length):
        return _nack(code, NACK_REGION)
    try:
        ctx.ensure_flash_unlocked()
        ctx.device.program(address, data, ctx.now())
    except ProgramOnNonErased:
        # A resend after a lost ACK finds its own bytes there: the write landed.
        if ctx.device.read(address, length)[0] != data:
            return _nack(code, NACK_FLASH)
    except FlashError:
        return _nack(code, NACK_FLASH)
    return _ack(code)


def bootloader_serve(ctx: EcuContext, payload: bytes) -> bytes | None:
    """Dispatch one host command; returns the reply payload (None to stay
    silent).  Erase, write and delta application all require an unlocked
    security session and are confined to the application region."""
    if not payload:
        return None
    code = payload[0]

    if code == SECURITY_SID:
        return server_handle(ctx.session, payload, ctx.now())

    if code == BootloaderCommand.GO_TO_ADDR:
        if len(payload) != 3:
            return _nack(code, NACK_MALFORMED)
        ctx.regs.write(APP_ENTER_REG, payload[1])
        ctx.regs.write(UPDATER_ENTER_REG, payload[2])
        ctx.log("CommandServed", command="go_to_addr")
        ctx.request_reset()
        return _ack(code)

    if code == BootloaderCommand.FLASH_ERASE:
        if len(payload) != 3:
            return _nack(code, NACK_MALFORMED)
        if not ctx.session.unlocked:
            return _nack(code, NACK_SECURITY)
        start, count = payload[1], payload[2]
        if start != MASS_ERASE_APPLICATION and not _sectors_in(APP_SECTORS, start, count):
            return _nack(code, NACK_REGION)
        try:
            erased = _erase(ctx, start, count)
        except FlashError:
            return _nack(code, NACK_FLASH)
        ctx.log("CommandServed", command="flash_erase", sectors=erased)
        return _ack(code)

    if code == BootloaderCommand.MEM_WRITE:
        if len(payload) < MEM_WRITE_HEADER.size:
            return _nack(code, NACK_MALFORMED)
        if not ctx.session.unlocked:
            return _nack(code, NACK_SECURITY)
        return _mem_write(ctx, payload, APP_REGION, _nack(code, NACK_MALFORMED))

    if code == BootloaderCommand.DELTA_APPLY:
        if not ctx.session.unlocked:
            return _nack(code, NACK_SECURITY)
        try:
            pkg = decode_package(payload[1:])
            # Before staging: a header can declare 4 GiB, or more blocks than the record holds.
            if not fits(pkg.new_image_length, pkg.block_size):
                return _nack(code, NACK_FLASH)
            base = b""
            try:
                meta = read_app_metadata(ctx.device)
                base, _ = ctx.device.read(APP_REGION.start, meta.byte_count)
            except MalformedMetadata:
                pass  # no valid base; verification decides
            staged = apply_delta(base, pkg)
        except DeltaError:
            return _nack(code, NACK_DELTA)

        def count(sectors: int) -> None:  # counted even if a program then fails
            ctx.sectors_erased += sectors
        try:
            ctx.ensure_flash_unlocked()
            erased = program_delta(ctx.device, staged, pkg, ctx.now(), count)
        except (FlashError, ValueError):
            return _nack(code, NACK_FLASH)
        ctx.log("CommandServed", command="delta_apply", blocks=len(pkg.entries), sectors=erased)
        return _ack(code)

    ctx.log("CommandServed", command="unknown", code=code)
    return None


# -- application-side command handling ----------------------------------------


def app_serve(ctx: EcuContext, payload: bytes) -> bytes | None:
    """The running application honours security access and the one command
    that drops it back to the bootloader; everything else is ignored."""
    if not payload:
        return None
    if payload[0] == SECURITY_SID:
        return server_handle(ctx.session, payload, ctx.now())
    if payload[0] == APP_ENTER_BOOTLOADER:
        _disarm_stages(ctx.regs)
        ctx.log("CommandServed", command="enter_bootloader")
        ctx.request_reset()
        return _ack(APP_ENTER_BOOTLOADER)
    return None


# -- bootloader updater --------------------------------------------------------


class UpdaterStatus(Enum):
    UPDATED = "updated"
    ROLLED_BACK = "rolled_back"
    REJECTED = "rejected"


@dataclass(frozen=True)
class UpdaterResult:
    status: UpdaterStatus
    cause: str | None = None


def updater_serve(ctx: EcuContext, payload: bytes) -> bytes | None:
    """Host-driven bootloader maintenance.  Note the asymmetry with
    :func:`bootloader_serve`: there is no security gate here."""
    if not payload:
        return None
    code = payload[0]

    if code == UpdaterCommand.GET_VERSION:
        return bytes([ACK, *UPDATER_VERSION])

    if code == UpdaterCommand.MEM_ERASE_BOOTLOADER:
        if len(payload) != 3:
            return None
        if not _sectors_in(BOOTLOADER_SECTORS, payload[1], payload[2]):
            return _nack(code, NACK_REGION)
        try:
            _erase(ctx, payload[1], payload[2])
        except FlashError:
            return _nack(code, NACK_FLASH)
        return _ack(code)

    if code == UpdaterCommand.MEM_WRITE_BOOTLOADER:
        if len(payload) < MEM_WRITE_HEADER.size:
            return None
        return _mem_write(ctx, payload, BOOTLOADER_REGION, None)

    if code == UpdaterCommand.LEAVE_TO_BOOT_MANAGER:
        _disarm_stages(ctx.regs)
        ctx.request_reset()
        return _ack(code)

    # Unsupported commands draw no reply at all.
    return None


def _restore_backup(ctx: EcuContext, backup: bytes) -> None:
    _erase(ctx, BOOTLOADER_SECTORS[0].index, len(BOOTLOADER_SECTORS))
    payload = backup.rstrip(b"\xff")  # trailing erased bytes need no programming
    if payload:
        ctx.device.program(BOOTLOADER_REGION.start, payload, ctx.now())


def updater_silent(ctx: EcuContext) -> UpdaterResult:
    """Replace the bootloader with the image embedded in the updater.

    The whole old bootloader is copied to RAM first; any failure after the
    erase restores it in full, so the region is never left part old, part
    new.  Success and rollback both clear the stage flags and software-reset.
    """
    image = ctx.updater_image

    def leave(result: UpdaterResult) -> UpdaterResult:
        _disarm_stages(ctx.regs)
        ctx.log("CommandServed", command="updater_silent", status=result.status.value,
                cause=result.cause)
        ctx.request_reset()
        return result

    if not image:
        return leave(UpdaterResult(UpdaterStatus.REJECTED, "no embedded image"))
    if len(image) > BOOTLOADER_REGION.size:
        # Rejected before anything is touched; the old bootloader survives.
        return leave(UpdaterResult(UpdaterStatus.REJECTED, "image exceeds region"))

    backup, _ = ctx.device.read(BOOTLOADER_REGION.start, BOOTLOADER_REGION.size)
    erased = False
    try:
        ctx._hook("backup")
        ctx._hook("erase")
        _erase(ctx, BOOTLOADER_SECTORS[0].index, len(BOOTLOADER_SECTORS))
        erased = True
        ctx._hook("program")
        ctx.device.program(BOOTLOADER_REGION.start, image, ctx.now())
        ctx._hook("verify")
        readback, _ = ctx.device.read(BOOTLOADER_REGION.start, len(image))
        if crc32(readback) != crc32(image):
            raise _VerifyFailed("read-back CRC mismatch")
    except (FlashError, InjectedFault, _VerifyFailed) as exc:
        if erased:
            _restore_backup(ctx, backup)
        ctx.log("Rollback", cause=str(exc))
        return leave(UpdaterResult(UpdaterStatus.ROLLED_BACK, str(exc)))

    try:
        ctx._hook("finalize")
    except InjectedFault:
        pass  # image already verified; the commit stands
    return leave(UpdaterResult(UpdaterStatus.UPDATED))
