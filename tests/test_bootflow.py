"""Boot decision table, command servers, updater rollback."""

import struct
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim import bootflow, integrity
from fotasim.bootflow import (
    ACK,
    APP_ENTER_BOOTLOADER,
    NACK,
    NACK_DELTA,
    NACK_FLASH,
    NACK_MALFORMED,
    NACK_REGION,
    NACK_SECURITY,
    UPDATER_VERSION,
    BootDecision,
    BootloaderCommand,
    EcuContext,
    InjectedFault,
    UpdaterCommand,
    UpdaterResult,
    UpdaterStatus,
    app_integrity,
    app_serve,
    boot_decide,
    bootloader_serve,
    mem_write_request,
    updater_serve,
    updater_silent,
)
from fotasim.delta import MAGIC, build_delta, encode_package
from fotasim.flashmodel import (
    APP_REGION,
    APP_SECTORS,
    BOOTLOADER_REGION,
    BOOTLOADER_SECTORS,
    DEFAULT_UNLOCK_KEYS,
    KIB,
    MASS_ERASE_APPLICATION,
    LAYOUT,
    REGION_BOOTLOADER,
    FlashDevice,
    FlashError,
)
from fotasim.integrity import BlockCrcTable, crc32
from fotasim.nvstore import (
    APP_ENTER_REG,
    METADATA_OFFSET,
    METADATA_SIZE,
    UPDATER_ENTER_REG,
    AppMetadata,
    BackupRegisters,
    BootFlag,
    MalformedMetadata,
    read_app_metadata,
    write_app_metadata,
)
from fotasim.scenario import provision_application
from fotasim.uds import KEY_LENGTH, SecuritySession, derive_key

from conftest import xor_generator

SECRET = 0x5EC10ACE


def make_ctx(image=None, updater_image=None, fault_hook=None):
    device = FlashDevice()
    if image is not None:
        provision_application(device, image)
    ctx = EcuContext(
        device=device,
        regs=BackupRegisters(),
        session=SecuritySession(SECRET, rng_seed=3),
        updater_image=updater_image,
        fault_hook=fault_hook,
    )
    return ctx


def unlock_session(ctx):
    seed = ctx.session.next_seed()
    ctx.session.active_seed = seed
    from fotasim.uds import SecurityState

    ctx.session.state = SecurityState.SEED_ISSUED
    reply = bootloader_serve(ctx, bytes([0x27, 0x02]) + derive_key(seed, SECRET))
    assert reply == bytes([0x67, 0x02])


# -- boot decision table -----------------------------------------------------------


def decide(intact, app_flag, upd_flag, monkeypatch):
    """The boot decision for one image state: True intact, False torn (one
    stored byte flipped), None no record (its sector erased under an intact
    image).  Asserts the decision is the parent's expression, ``app_integrity``
    then the flag, and that only an armed app flag runs ``app_integrity``."""
    image = Random(1).randbytes(4 * KIB)
    ctx = make_ctx(image)
    ctx.device.unlock(*DEFAULT_UNLOCK_KEYS)
    app = ctx.device.layout.region("application")
    if intact is False:
        # Flip one stored application byte so the CRC no longer matches.
        ctx.device.erase_sectors(5)
        broken = bytearray(image)
        broken[0] ^= 0xFF
        ctx.device.program(app.start, bytes(broken))
    elif intact is None:
        (meta_sector,) = ctx.device.layout.sectors_overlapping(METADATA_OFFSET, METADATA_OFFSET + 1)
        ctx.device.erase_sectors(meta_sector.index)
        assert ctx.device.read(app.start, len(image))[0] == image
    ctx.device.reset()
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER if app_flag else BootFlag.NOT_ENTER)
    ctx.regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER if upd_flag else BootFlag.NOT_ENTER)
    verified = app_integrity(ctx.device)
    assert verified is (intact is True)
    if verified and app_flag:
        parent = BootDecision.JUMP_APPLICATION
    elif upd_flag:
        parent = BootDecision.JUMP_UPDATER
    else:
        parent = BootDecision.JUMP_BOOTLOADER

    checks = []

    def counted(device):
        checks.append(device)
        return app_integrity(device)

    monkeypatch.setattr(bootflow, "app_integrity", counted)
    decision = boot_decide(ctx.device, ctx.regs)
    assert decision is parent
    assert len(checks) == (1 if app_flag else 0)  # every boot into the application CRCs
    return decision, ctx.regs


@pytest.mark.parametrize(
    "intact,app_flag,upd_flag,expected",
    [
        (True, True, True, BootDecision.JUMP_APPLICATION),
        (True, True, False, BootDecision.JUMP_APPLICATION),
        (True, False, True, BootDecision.JUMP_UPDATER),
        (True, False, False, BootDecision.JUMP_BOOTLOADER),
        (False, True, True, BootDecision.JUMP_UPDATER),
        (False, True, False, BootDecision.JUMP_BOOTLOADER),
        (False, False, True, BootDecision.JUMP_UPDATER),
        (False, False, False, BootDecision.JUMP_BOOTLOADER),
        (None, True, True, BootDecision.JUMP_UPDATER),
        (None, True, False, BootDecision.JUMP_BOOTLOADER),
        (None, False, True, BootDecision.JUMP_UPDATER),
        (None, False, False, BootDecision.JUMP_BOOTLOADER),
    ],
)
def test_boot_decision_table(intact, app_flag, upd_flag, expected, monkeypatch):
    decision, regs = decide(intact, app_flag, upd_flag, monkeypatch)
    assert decision is expected
    if expected is BootDecision.JUMP_BOOTLOADER:
        # Falling through to the bootloader disarms both flags.
        assert regs.read_flag(APP_ENTER_REG) is BootFlag.NOT_ENTER
        assert regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER


def test_erased_device_boots_to_bootloader():
    ctx = make_ctx()
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    assert boot_decide(ctx.device, ctx.regs) is BootDecision.JUMP_BOOTLOADER


def test_a_record_of_an_empty_application_boots_to_bootloader():
    # crc32(b"") is the CRC such a record declares, so only the zero byte
    # count tells it from a real application.
    ctx = make_ctx()
    ctx.ensure_flash_unlocked()
    write_app_metadata(ctx.device, AppMetadata(0, crc32(b""), BlockCrcTable(())))
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    assert not app_integrity(ctx.device)
    assert boot_decide(ctx.device, ctx.regs) is BootDecision.JUMP_BOOTLOADER


def test_app_integrity_checks_stored_bytes():
    image = Random(2).randbytes(4 * KIB)
    ctx = make_ctx(image)
    assert app_integrity(ctx.device)
    assert not app_integrity(FlashDevice())


# -- bootloader command gating --------------------------------------------------------


def test_commands_refused_while_locked():
    ctx = make_ctx(Random(3).randbytes(2 * KIB))
    for payload, code in [
        (bytes([BootloaderCommand.FLASH_ERASE, MASS_ERASE_APPLICATION, 0]),
         BootloaderCommand.FLASH_ERASE),
        (bytes([BootloaderCommand.MEM_WRITE]) + (128 * KIB).to_bytes(4, "little")
         + (1).to_bytes(2, "little") + b"\x00", BootloaderCommand.MEM_WRITE),
        # The security check comes before the length check.
        (bytes([BootloaderCommand.MEM_WRITE]) + (128 * KIB).to_bytes(4, "little")
         + (10).to_bytes(2, "little") + b"\x00", BootloaderCommand.MEM_WRITE),
        (bytes([BootloaderCommand.DELTA_APPLY]) + b"junk", BootloaderCommand.DELTA_APPLY),
    ]:
        assert bootloader_serve(ctx, payload) == bytes([NACK, code, NACK_SECURITY])


def test_go_to_addr_needs_no_security():
    resets = []
    ctx = make_ctx(Random(4).randbytes(2 * KIB))
    ctx.request_reset = lambda: resets.append(True)
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.GO_TO_ADDR, 0xAA, 0x55]))
    assert reply == bytes([ACK, BootloaderCommand.GO_TO_ADDR])
    assert ctx.regs.read_flag(APP_ENTER_REG) is BootFlag.ENTER
    assert ctx.regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER
    assert resets == [True]


def test_go_to_addr_stores_raw_bytes():
    # Arbitrary byte values land in the registers untranslated; only the
    # exact ENTER value arms a stage later.
    ctx = make_ctx(Random(4).randbytes(2 * KIB))
    bootloader_serve(ctx, bytes([BootloaderCommand.GO_TO_ADDR, 0x12, 0x34]))
    assert ctx.regs.read(APP_ENTER_REG) == 0x12
    assert ctx.regs.read_flag(APP_ENTER_REG) is BootFlag.NOT_ENTER


def test_erase_confined_to_application_region():
    ctx = make_ctx(Random(5).randbytes(2 * KIB))
    unlock_session(ctx)
    # Sector 4 is the bootloader: refused.
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE, 4, 1]))
    assert reply == bytes([NACK, BootloaderCommand.FLASH_ERASE, NACK_REGION])
    # Sectors 5..7 are fair game.
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE, 5, 3]))
    assert reply == bytes([ACK, BootloaderCommand.FLASH_ERASE])
    assert ctx.sectors_erased == 3


def test_mass_erase_sentinel():
    ctx = make_ctx(Random(6).randbytes(2 * KIB))
    unlock_session(ctx)
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE,
                                         MASS_ERASE_APPLICATION, 0]))
    assert reply == bytes([ACK, BootloaderCommand.FLASH_ERASE])
    assert ctx.sectors_erased == 3
    assert not app_integrity(ctx.device)


def test_mem_write_round_trip():
    ctx = make_ctx()
    unlock_session(ctx)
    bootloader_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE, MASS_ERASE_APPLICATION, 0]))
    address = 128 * KIB
    data = b"\x01\x02\x03\x04\x05"
    payload = (bytes([BootloaderCommand.MEM_WRITE]) + address.to_bytes(4, "little")
               + len(data).to_bytes(2, "little") + data)
    assert bootloader_serve(ctx, payload) == bytes([ACK, BootloaderCommand.MEM_WRITE])
    assert ctx.device.read(address, len(data))[0] == data


def test_mem_write_rejects_region_escape():
    ctx = make_ctx()
    unlock_session(ctx)
    for address in (0, 64 * KIB, 512 * KIB - 2):
        payload = (bytes([BootloaderCommand.MEM_WRITE]) + address.to_bytes(4, "little")
                   + (4).to_bytes(2, "little") + b"\x00\x01\x02\x03")
        reply = bootloader_serve(ctx, payload)
        assert reply == bytes([NACK, BootloaderCommand.MEM_WRITE, NACK_REGION])


def test_mem_write_rejects_length_mismatch():
    ctx = make_ctx()
    unlock_session(ctx)
    payload = (bytes([BootloaderCommand.MEM_WRITE]) + (128 * KIB).to_bytes(4, "little")
               + (10).to_bytes(2, "little") + b"\x00\x01")
    assert bootloader_serve(ctx, payload) == bytes(
        [NACK, BootloaderCommand.MEM_WRITE, NACK_MALFORMED])
    # Too short to carry an address and a length at all.
    short = bytes([BootloaderCommand.MEM_WRITE]) + (128 * KIB).to_bytes(4, "little")
    assert bootloader_serve(ctx, short) == bytes(
        [NACK, BootloaderCommand.MEM_WRITE, NACK_MALFORMED])


def test_mem_write_on_dirty_flash_is_flash_nack():
    ctx = make_ctx(Random(7).randbytes(2 * KIB))
    unlock_session(ctx)
    address = 128 * KIB  # already programmed by provisioning
    payload = (bytes([BootloaderCommand.MEM_WRITE]) + address.to_bytes(4, "little")
               + (2).to_bytes(2, "little") + b"\x00\x00")
    assert bootloader_serve(ctx, payload) == bytes(
        [NACK, BootloaderCommand.MEM_WRITE, NACK_FLASH])


@pytest.mark.parametrize("serve, payload", [
    pytest.param(bootloader_serve, mem_write_request(APP_REGION.start + 4 * KIB, bytes(8)),
                 id="mem-write"),
    pytest.param(bootloader_serve, bytes([BootloaderCommand.FLASH_ERASE, 5, 1]), id="flash-erase"),
    pytest.param(updater_serve,
                 bytes([UpdaterCommand.MEM_ERASE_BOOTLOADER, BOOTLOADER_SECTORS[0].index, 1]),
                 id="mem-erase-bootloader"),
])
def test_a_latched_flash_draws_a_flash_nack_and_stays_as_it_was(serve, payload):
    ctx = make_ctx(Random(17).randbytes(2 * KIB))
    unlock_session(ctx)
    with pytest.raises(FlashError):
        ctx.device.unlock(0, 0)  # a wrong key latches the lock until reset
    before = _flash_state(ctx)
    assert serve(ctx, payload) == bytes([NACK, payload[0], NACK_FLASH])
    assert _flash_state(ctx) == before


def test_a_mem_write_sent_twice_is_acked_twice_and_programs_once():
    # The master resends a write whose ACK it lost; the bytes already sit there.
    ctx = make_ctx()
    unlock_session(ctx)
    bootloader_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE, MASS_ERASE_APPLICATION, 0]))
    data = b"\x01\x02\x03\x04\x05"
    payload = (bytes([BootloaderCommand.MEM_WRITE]) + (128 * KIB).to_bytes(4, "little")
               + len(data).to_bytes(2, "little") + data)
    assert bootloader_serve(ctx, payload) == bytes([ACK, BootloaderCommand.MEM_WRITE])
    cells, busy = bytes(ctx.device.cells), ctx.device.busy_total_us
    assert bootloader_serve(ctx, payload) == bytes([ACK, BootloaderCommand.MEM_WRITE])
    assert bytes(ctx.device.cells) == cells
    assert ctx.device.busy_total_us == busy


def test_delta_apply_end_to_end():
    old = Random(8).randbytes(8 * KIB)
    new = bytearray(old)
    new[100] ^= 0xFF
    new[5000] ^= 0x0F
    ctx = make_ctx(old)
    unlock_session(ctx)
    pkg = build_delta(old, bytes(new))
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + encode_package(pkg))
    assert reply == bytes([ACK, BootloaderCommand.DELTA_APPLY])
    app = ctx.device.layout.region("application")
    assert ctx.device.read(app.start, len(new))[0] == bytes(new)
    meta = read_app_metadata(ctx.device)
    assert meta.image_crc == crc32(bytes(new))


@pytest.fixture
def reversed_sizes(monkeypatch):
    """The length of every buffer bit-reversed from here on, from an empty
    CRC memo, so no earlier test's images decide a count.  Every
    bit-reversal runs through integrity.reflect; a CRC of an image reverses
    it in pieces of at most integrity._CHUNK bytes."""
    sizes = []
    reflect = integrity.reflect

    def counted(data):
        sizes.append(len(data))
        return reflect(data)

    monkeypatch.setattr(integrity, "reflect", counted)
    integrity._memo.clear()
    return sizes


def _delta_apply_then_boot(reversed_sizes, forget):
    """DELTA_APPLY of a 20 KiB + 3000 byte image onto a provisioned target,
    then two boots that must reverse nothing; returns the sizes DELTA_APPLY
    reversed.  ``forget`` clears the CRC memo after the host's build_delta,
    as a target in its own process would start."""
    old = Random(11).randbytes(20 * KIB)
    new = bytearray(old + Random(12).randbytes(3000))
    new[9000] ^= 0x40
    new = bytes(new)
    blob = encode_package(build_delta(old, new))
    ctx = make_ctx(old)
    unlock_session(ctx)
    if forget:
        integrity._memo.clear()
    reversed_sizes.clear()

    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
    assert reply == bytes([ACK, BootloaderCommand.DELTA_APPLY])
    applied = list(reversed_sizes)
    assert ctx.device.read(METADATA_OFFSET, METADATA_SIZE)[0] == \
        AppMetadata.for_image(new).encode().ljust(METADATA_SIZE, b"\xff")

    reversed_sizes.clear()
    assert boot_decide(ctx.device, ctx.regs) is BootDecision.JUMP_BOOTLOADER
    assert reversed_sizes == []
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    assert boot_decide(ctx.device, ctx.regs) is BootDecision.JUMP_APPLICATION
    assert reversed_sizes == []
    return applied


def test_a_delta_apply_and_a_bootloader_boot_bit_reverse_only_what_they_must(reversed_sizes):
    # From a memo without the new image, DELTA_APPLY reverses the staged
    # image once, in pieces, so none copies the whole image; its CRCs stay
    # remembered, so the record and the boot into the new application
    # reverse nothing.
    applied = _delta_apply_then_boot(reversed_sizes, forget=True)
    assert sum(applied) == 20 * KIB + 3000  # the staged image, once
    assert max(applied) <= integrity._CHUNK


def test_a_delta_apply_in_the_process_that_built_its_package_reverses_nothing(reversed_sizes):
    # build_delta left the new image's CRCs in the memo, and the staged
    # image equals the new one byte for byte.
    assert _delta_apply_then_boot(reversed_sizes, forget=False) == []


def test_the_first_boot_after_provisioning_reverses_nothing(reversed_sizes):
    image = Random(13).randbytes(40 * KIB)
    ctx = make_ctx()
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    reversed_sizes.clear()
    provision_application(ctx.device, image)
    assert sum(reversed_sizes) == len(image)  # the record's CRCs, once
    reversed_sizes.clear()
    assert boot_decide(ctx.device, ctx.regs) is BootDecision.JUMP_APPLICATION
    assert reversed_sizes == []


def _flip_a_cell(device, image):
    device.cells[APP_REGION.start + len(image) // 2] ^= 0x01


def _erase_the_image(device, image):
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    device.erase_sectors(APP_SECTORS[0].index)


def _program_its_erased_tail(device, image):
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    device.program(APP_REGION.start + len(image) - 1, b"\x00")


def _xor_the_generator_in(device, image):
    xor_generator(device.cells, APP_REGION.start + 100)


@pytest.mark.parametrize("disturb, decision", [
    (_flip_a_cell, BootDecision.JUMP_BOOTLOADER),
    (_erase_the_image, BootDecision.JUMP_BOOTLOADER),
    (_program_its_erased_tail, BootDecision.JUMP_BOOTLOADER),
    # Other bytes with the same CRC: the real bytes' CRC still verifies.
    (_xor_the_generator_in, BootDecision.JUMP_APPLICATION),
])
def test_a_boot_after_flash_changed_under_the_vouched_image_crcs_the_real_bytes(
        disturb, decision, reversed_sizes):
    # The record vouches for ``image``, whose CRCs provisioning left in the memo.
    image = Random(14).randbytes(12 * KIB) + b"\xff" * 4  # its last bytes read erased
    ctx = make_ctx(image)
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    disturb(ctx.device, image)
    assert ctx.device.view(APP_REGION.start, len(image)) != image
    reversed_sizes.clear()
    assert boot_decide(ctx.device, ctx.regs) is decision
    assert sum(reversed_sizes) == len(image)


def test_delta_apply_wrong_base_is_delta_nack():
    old = Random(9).randbytes(8 * KIB)
    stranger = Random(10).randbytes(8 * KIB)
    new = bytearray(stranger)
    new[0] ^= 1
    ctx = make_ctx(old)  # device holds `old`, package built against `stranger`
    unlock_session(ctx)
    pkg = build_delta(stranger, bytes(new))
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + encode_package(pkg))
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_DELTA])
    # Nothing was erased or programmed: the old image still verifies.
    assert app_integrity(ctx.device)


def test_delta_apply_onto_a_target_with_no_record_stages_from_erased_flash():
    old = Random(18).randbytes(4 * KIB)
    new = bytearray(old)
    new[100] ^= 1
    ctx = make_ctx()  # erased flash: no valid record, so no base to patch
    unlock_session(ctx)
    before = _flash_state(ctx)
    blob = encode_package(build_delta(old, bytes(new)))
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_DELTA])
    assert _flash_state(ctx) == before
    # A package built against erased flash rewrites every byte, and installs.
    blob = encode_package(build_delta(b"\xff" * len(new), bytes(new)))
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
    assert reply == bytes([ACK, BootloaderCommand.DELTA_APPLY])
    assert app_integrity(ctx.device)
    assert ctx.device.view(APP_REGION.start, len(new)) == new


def test_delta_apply_garbage_is_delta_nack():
    ctx = make_ctx(Random(11).randbytes(2 * KIB))
    unlock_session(ctx)
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + b"not a package")
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_DELTA])


def test_delta_apply_oversize_package_is_flash_nack_without_staging():
    # A header-only package that declares a 4 GiB image decodes cleanly;
    # staging it would pad a buffer to the declared length.
    ctx = make_ctx(Random(14).randbytes(2 * KIB))
    unlock_session(ctx)
    blob = struct.pack("<4sBIIIH", MAGIC, 1, 1024, 0xFFFFFFFF, 0, 0)
    tracemalloc.start()
    try:
        reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_FLASH])
    assert peak < 1 << 20
    assert app_integrity(ctx.device)


@pytest.mark.parametrize("seed, changed", [(15, 1000), (41, 0)])
def test_delta_apply_of_a_table_past_the_record_is_flash_nack_before_staging(seed, changed):
    # 128-byte blocks of a 64 KiB image make 512 block CRCs; the record holds 250.
    old = Random(seed).randbytes(64 * KIB)
    new = bytearray(old)
    new[changed] ^= 1
    ctx = make_ctx(old)
    unlock_session(ctx)
    blob = encode_package(build_delta(old, bytes(new), block_size=128))
    cells, busy = bytes(ctx.device.cells), ctx.device.busy_total_us
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_FLASH])
    assert bytes(ctx.device.cells) == cells
    assert ctx.device.busy_total_us == busy
    assert ctx.sectors_erased == 0
    assert read_app_metadata(ctx.device) == AppMetadata.for_image(old)


def test_a_delta_apply_whose_flash_fails_after_its_erases_counts_them(monkeypatch):
    # Changed blocks in the first two 128 KiB application sectors.
    old = Random(16).randbytes(200 * KIB)
    new = bytearray(old)
    new[1000] ^= 1
    new[150 * KIB] ^= 1
    ctx = make_ctx(old)
    unlock_session(ctx)
    blob = encode_package(build_delta(old, bytes(new)))
    erased = []
    erase = ctx.device.erase_sectors

    def recorded(start, count=1, now_us=0):
        erased.append(start)
        return erase(start, count, now_us)

    def failing(address, data, now_us=0):
        raise FlashError("program failed")

    monkeypatch.setattr(ctx.device, "erase_sectors", recorded)
    monkeypatch.setattr(ctx.device, "program", failing)
    reply = bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + blob)
    assert reply == bytes([NACK, BootloaderCommand.DELTA_APPLY, NACK_FLASH])
    (meta_sector,) = LAYOUT.sectors_overlapping(METADATA_OFFSET, METADATA_OFFSET + 1)
    changed = [index for index in erased if index != meta_sector.index]
    assert erased[0] == meta_sector.index and len(changed) == 2
    assert ctx.sectors_erased == len(changed)  # the metadata refresh is not counted


def test_unknown_command_is_silent():
    ctx = make_ctx()
    assert bootloader_serve(ctx, bytes([0x99, 1, 2])) is None
    assert bootloader_serve(ctx, b"") is None


def test_bootloader_fuzz_never_mutates_boot_manager():
    """Random command payloads — locked and unlocked — must never change the
    boot-manager region or crash the server."""
    image = Random(12).randbytes(4 * KIB)
    ctx = make_ctx(image)
    boot_region, _ = ctx.device.read(0, 64 * KIB)
    rng = Random(13)
    for round_no in range(2000):
        if round_no == 1000:
            unlock_session(ctx)
        payload = rng.randbytes(rng.randint(0, 40))
        bootloader_serve(ctx, payload)
        assert ctx.device.read(0, 64 * KIB)[0] == boot_region


# The command contract: a refusal (a NACK, a negative security response or
# silence) leaves the flash as it was.

CONTRACT_IMAGE = Random(31).randbytes(6 * KIB)
CONTRACT_PACKAGES = [  # each encoded against CONTRACT_IMAGE unless it says otherwise
    encode_package(build_delta(CONTRACT_IMAGE, new, block_size))
    for new, block_size in (
        (CONTRACT_IMAGE[:2048] + Random(32).randbytes(512) + CONTRACT_IMAGE[2560:], 1024),
        (CONTRACT_IMAGE + Random(33).randbytes(2 * KIB), 256),  # grows
        (CONTRACT_IMAGE[: 3 * KIB], 1024),  # shrinks
    )
] + [encode_package(build_delta(Random(34).randbytes(6 * KIB), CONTRACT_IMAGE[:4096], 512))]
KNOWN_CODES = {0x27, *BootloaderCommand}


class WatchedDevice(FlashDevice):
    """A flash device that counts its erases, so the one refusal allowed to
    change flash (a flash fault after the first erase) can be told apart."""

    erases = 0

    def erase_sectors(self, start_sector, count=1, now_us=0):
        duration = super().erase_sectors(start_sector, count, now_us)
        self.erases += 1
        return duration


def _mem_write_payloads():
    address = st.one_of(
        st.integers(APP_REGION.start - 64, APP_REGION.start + 8 * KIB),
        st.sampled_from([0, BOOTLOADER_REGION.start, METADATA_OFFSET - 8, APP_REGION.end - 16,
                         LAYOUT.size - 4]),
        st.integers(0, 0xFFFFFFFF))

    def request(address, length, fill):
        offset = address - APP_REGION.start
        data = (CONTRACT_IMAGE[offset : offset + length] if fill is None and offset >= 0
                else bytes([fill or 0]) * length)  # None: the bytes already there, if any
        return mem_write_request(address, data)
    return st.builds(request, address, st.integers(0, 64),
                     st.one_of(st.none(), st.integers(0, 255)))


WELL_FORMED_COMMANDS = st.one_of(
    _mem_write_payloads(),
    st.tuples(st.sampled_from([*range(10), MASS_ERASE_APPLICATION]), st.integers(0, 9)).map(
        lambda erase: bytes([BootloaderCommand.FLASH_ERASE, *erase])),
    st.sampled_from(CONTRACT_PACKAGES).map(
        lambda blob: bytes([BootloaderCommand.DELTA_APPLY]) + blob),
    st.binary(min_size=2, max_size=2).map(lambda regs: bytes([BootloaderCommand.GO_TO_ADDR]) + regs),
    st.binary(max_size=20).map(lambda tail: b"\x27" + tail),
)


@st.composite
def mangled_commands(draw):
    payload = bytearray(draw(WELL_FORMED_COMMANDS))
    how = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if how == "flip":
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    else:
        payload += draw(st.binary(min_size=1, max_size=8))
    return bytes(payload)


COMMANDS = st.one_of(
    WELL_FORMED_COMMANDS,
    mangled_commands(),
    st.tuples(st.integers(0, 255).filter(lambda code: code not in KNOWN_CODES),
              st.binary(max_size=16)).map(lambda unknown: bytes([unknown[0]]) + unknown[1]),
)


def _flash_state(ctx):
    try:
        record = read_app_metadata(ctx.device)
    except MalformedMetadata:
        record = None
    return bytes(ctx.device.cells), record, ctx.device.busy_total_us, ctx.sectors_erased


@given(unlocked=st.booleans(), payloads=st.lists(COMMANDS, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_a_refused_command_leaves_the_flash_as_it_was(unlocked, payloads):
    ctx = make_ctx()
    ctx.device = WatchedDevice()
    provision_application(ctx.device, CONTRACT_IMAGE)
    if unlocked:
        unlock_session(ctx)
    for payload in payloads:
        before = _flash_state(ctx)
        ctx.device.erases = 0
        reply = bootloader_serve(ctx, payload)
        if reply is not None and reply[0] not in (NACK, 0x7F):  # 0x7F: a negative response
            continue
        if reply is not None and reply[2:] == bytes([NACK_FLASH]) and ctx.device.erases:
            continue  # a flash fault after the first erase
        assert _flash_state(ctx) == before, (payload.hex(), reply)


# -- application server ------------------------------------------------------------


def test_app_enter_bootloader():
    resets = []
    ctx = make_ctx(Random(14).randbytes(2 * KIB))
    ctx.request_reset = lambda: resets.append(True)
    ctx.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    reply = app_serve(ctx, bytes([APP_ENTER_BOOTLOADER]))
    assert reply == bytes([ACK, APP_ENTER_BOOTLOADER])
    assert ctx.regs.read_flag(APP_ENTER_REG) is BootFlag.NOT_ENTER
    assert ctx.regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER
    assert resets == [True]


def test_app_answers_security():
    ctx = make_ctx(Random(15).randbytes(2 * KIB))
    reply = app_serve(ctx, bytes([0x27, 0x01]))
    assert reply[:2] == bytes([0x67, 0x01])


def test_app_ignores_bootloader_commands():
    ctx = make_ctx(Random(16).randbytes(2 * KIB))
    assert app_serve(ctx, bytes([BootloaderCommand.FLASH_ERASE, 0xFF, 0])) is None
    assert app_serve(ctx, b"") is None


# -- updater -----------------------------------------------------------------------


def test_updater_get_version():
    reply = updater_serve(make_ctx(), bytes([UpdaterCommand.GET_VERSION]))
    assert reply == bytes([ACK, *UPDATER_VERSION]) == bytes([ACK, 1, 0, 0])


def test_updater_write_confined_to_bootloader_region():
    ctx = make_ctx()
    payload = (bytes([UpdaterCommand.MEM_WRITE_BOOTLOADER])
               + (128 * KIB).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"\x00")
    reply = updater_serve(ctx, payload)
    assert reply == bytes([NACK, UpdaterCommand.MEM_WRITE_BOOTLOADER, NACK_REGION])
    ok = (bytes([UpdaterCommand.MEM_WRITE_BOOTLOADER])
          + (64 * KIB).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"\x00")
    assert updater_serve(ctx, ok) == bytes([ACK, UpdaterCommand.MEM_WRITE_BOOTLOADER])
    # Malformed writes draw no reply: too short, or a length mismatch.
    short = bytes([UpdaterCommand.MEM_WRITE_BOOTLOADER]) + (64 * KIB).to_bytes(4, "little")
    assert updater_serve(ctx, short) is None
    mismatch = (bytes([UpdaterCommand.MEM_WRITE_BOOTLOADER])
                + (64 * KIB + 4).to_bytes(4, "little") + (10).to_bytes(2, "little") + b"\x00")
    assert updater_serve(ctx, mismatch) is None


def test_updater_answers_no_security_service():
    # Modelled weakness: 0x27 is simply not a command the updater knows.
    ctx = make_ctx()
    assert updater_serve(ctx, bytes([0x27, 0x01])) is None


def test_updater_leave_clears_flags_and_resets():
    resets = []
    ctx = make_ctx()
    ctx.request_reset = lambda: resets.append(True)
    ctx.regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
    reply = updater_serve(ctx, bytes([UpdaterCommand.LEAVE_TO_BOOT_MANAGER]))
    assert reply == bytes([ACK, UpdaterCommand.LEAVE_TO_BOOT_MANAGER])
    assert ctx.regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER
    assert resets == [True]


# -- silent updater: success and rollback ---------------------------------------------


def old_bootloader_bytes(ctx):
    region = ctx.device.layout.region(REGION_BOOTLOADER)
    return ctx.device.read(region.start, region.size)[0]


def seed_bootloader(ctx, blob):
    region = ctx.device.layout.region(REGION_BOOTLOADER)
    ctx.device.unlock(*DEFAULT_UNLOCK_KEYS)
    ctx.device.program(region.start, blob)
    ctx.device.reset()
    ctx.device.busy_until_us = 0


def test_updater_success_replaces_bootloader():
    new_bl = Random(17).randbytes(10 * KIB)
    ctx = make_ctx(updater_image=new_bl)
    seed_bootloader(ctx, b"OLD-BOOTLOADER" * 100)
    result = updater_silent(ctx)
    assert result.status is UpdaterStatus.UPDATED
    region = ctx.device.layout.region(REGION_BOOTLOADER)
    assert ctx.device.read(region.start, len(new_bl))[0] == new_bl
    assert ctx.regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER


def test_updater_rejects_missing_or_oversized_image():
    ctx = make_ctx(updater_image=None)
    old = old_bootloader_bytes(ctx)
    assert updater_silent(ctx).status is UpdaterStatus.REJECTED
    assert old_bootloader_bytes(ctx) == old

    ctx = make_ctx(updater_image=bytes(65 * KIB))
    old = old_bootloader_bytes(ctx)
    result = updater_silent(ctx)
    assert result.status is UpdaterStatus.REJECTED
    assert "exceeds" in result.cause
    assert old_bootloader_bytes(ctx) == old


@pytest.mark.parametrize("fault_step", ["backup", "erase", "program", "verify"])
def test_updater_rollback_at_every_step(fault_step):
    """A fault injected at any step before commit leaves the exact old
    bootloader bytes in place."""

    def hook(step):
        if step == fault_step:
            raise InjectedFault(step)

    old_bl = b"OLD-BOOTLOADER!!" * 512
    ctx = make_ctx(updater_image=Random(18).randbytes(8 * KIB), fault_hook=hook)
    seed_bootloader(ctx, old_bl)
    before = old_bootloader_bytes(ctx)

    result = updater_silent(ctx)
    assert result.status is UpdaterStatus.ROLLED_BACK
    assert result.cause == fault_step
    assert old_bootloader_bytes(ctx) == before
    # Flags are disarmed either way, so the chain cannot loop back here.
    assert ctx.regs.read_flag(UPDATER_ENTER_REG) is BootFlag.NOT_ENTER


@pytest.mark.parametrize("fault_step, erases", [(None, 1), ("erase", 0), ("program", 2),
                                                ("verify", 2)])
def test_updater_counts_every_bootloader_erase(fault_step, erases):
    """``sectors_erased`` counts each erase of the bootloader region: the
    update's, and the rollback's that restores the backup."""

    def hook(step):
        if step == fault_step:
            raise InjectedFault(step)

    ctx = make_ctx(updater_image=Random(21).randbytes(4 * KIB), fault_hook=hook)
    seed_bootloader(ctx, b"OLD" * 1000)
    erased = []
    erase = ctx.device.erase_sectors

    def counting_erase(start_sector, count=1, now_us=0):
        erased.append(count)
        return erase(start_sector, count, now_us)

    ctx.device.erase_sectors = counting_erase
    updater_silent(ctx)
    assert erased == [len(BOOTLOADER_SECTORS)] * erases
    assert ctx.sectors_erased == sum(erased)


def test_updater_fault_after_verify_keeps_new_image():
    def hook(step):
        if step == "finalize":
            raise InjectedFault(step)

    new_bl = Random(19).randbytes(4 * KIB)
    ctx = make_ctx(updater_image=new_bl, fault_hook=hook)
    seed_bootloader(ctx, b"OLD" * 1000)
    result = updater_silent(ctx)
    # The image was verified before the fault: the commit stands.
    assert result.status is UpdaterStatus.UPDATED
    region = ctx.device.layout.region(REGION_BOOTLOADER)
    assert ctx.device.read(region.start, len(new_bl))[0] == new_bl


def test_updater_genuine_verify_failure_rolls_back():
    # No injected fault: corrupt the read-back by tampering with the cells
    # via the fault hook at the verify boundary.
    new_bl = Random(20).randbytes(4 * KIB)

    def hook(step):
        if step == "verify":
            region = ctx.device.layout.region(REGION_BOOTLOADER)
            ctx.device.cells[region.start] ^= 0xFF  # silent bit rot

    ctx = make_ctx(updater_image=new_bl, fault_hook=hook)
    old_bl = b"\x5a" * (2 * KIB)
    seed_bootloader(ctx, old_bl)
    result = updater_silent(ctx)
    assert result.status is UpdaterStatus.ROLLED_BACK
    assert result.cause == "read-back mismatch"
    assert old_bootloader_bytes(ctx)[: 2 * KIB] == old_bl


def test_an_updater_read_back_with_the_same_crc_but_other_bytes_rolls_back():
    # The generator XORed into the fresh bootloader leaves its CRC as it was:
    # only a byte comparison sees the wrong bytes.
    new_bl = Random(22).randbytes(4 * KIB)

    def hook(step):
        if step == "verify":
            xor_generator(ctx.device.cells, BOOTLOADER_REGION.start + 1000)

    ctx = make_ctx(updater_image=new_bl, fault_hook=hook)
    old_bl = b"\xa5" * (2 * KIB)
    seed_bootloader(ctx, old_bl)
    result = updater_silent(ctx)
    assert result == UpdaterResult(UpdaterStatus.ROLLED_BACK, "read-back mismatch")
    assert old_bootloader_bytes(ctx)[: 2 * KIB] == old_bl
