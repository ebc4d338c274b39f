"""Backup registers and the flash metadata record."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fotasim.flashmodel import DEFAULT_UNLOCK_KEYS, KIB, FlashDevice
from fotasim.integrity import BlockCrcTable, block_count, crc32
from fotasim.nvstore import (
    APP_ENTER_REG,
    BACKUP_REGISTER_COUNT,
    METADATA_SIZE,
    UPDATER_ENTER_REG,
    AppMetadata,
    BackupRegisters,
    BootFlag,
    APP_CAPACITY,
    MAX_TABLE_BLOCKS,
    METADATA_OFFSET,
    MalformedMetadata,
    decode_flag,
    fits,
    read_app_metadata,
    write_app_metadata,
)
from fotasim.scenario import ScenarioError, provision_application


def test_flag_decoding_is_strict():
    assert decode_flag(0xAA) is BootFlag.ENTER
    # Anything that is not the exact ENTER byte reads as NOT_ENTER.
    for raw in (0x55, 0x00, 0xAB, 0xFF, 0xAA00, 1):
        assert decode_flag(raw) is BootFlag.NOT_ENTER


def test_registers_default_to_zero():
    regs = BackupRegisters()
    assert all(regs.read(i) == 0 for i in range(BACKUP_REGISTER_COUNT))
    assert regs.read_flag(APP_ENTER_REG) is BootFlag.NOT_ENTER


def test_register_write_read_roundtrip():
    regs = BackupRegisters()
    regs.write(3, 0xDEADBEEF)
    assert regs.read(3) == 0xDEADBEEF
    regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
    assert regs.read_flag(UPDATER_ENTER_REG) is BootFlag.ENTER


def test_register_rejects_oversized_values():
    regs = BackupRegisters()
    with pytest.raises(ValueError):
        regs.write(0, 1 << 32)
    with pytest.raises(ValueError):
        regs.write(0, -1)


def test_register_index_bounds():
    regs = BackupRegisters()
    with pytest.raises(IndexError):
        regs.read(BACKUP_REGISTER_COUNT)


def test_clear_models_power_loss():
    regs = BackupRegisters()
    regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
    regs.clear()
    assert regs.read_flag(APP_ENTER_REG) is BootFlag.NOT_ENTER


# -- metadata record -----------------------------------------------------------


def test_metadata_roundtrip():
    image = bytes(range(256)) * 10
    meta = AppMetadata.for_image(image)
    decoded = AppMetadata.decode(meta.encode())
    assert decoded == meta
    assert decoded.byte_count == len(image)


@given(st.integers(0, 4000), st.integers(1, 4096), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_for_image_reads_the_crc_and_every_block_crc_of_the_image(half, block_size, seed):
    # An odd length, so the final block is short whenever block_size is even.
    image = Random(seed).randbytes(2 * half + 1)
    chunks = [image[i : i + block_size] for i in range(0, len(image), block_size)]
    expected = AppMetadata(len(image), crc32(image),
                           BlockCrcTable(tuple(crc32(chunk) for chunk in chunks)))
    for form in (bytes, bytearray, memoryview):
        assert AppMetadata.for_image(form(image), block_size) == expected


def test_metadata_encoding_layout():
    meta = AppMetadata.for_image(b"\x01" * 100)
    blob = meta.encode()
    assert blob[:16] == b"100".ljust(16, b"\x00")       # ASCII decimal count
    assert int.from_bytes(blob[16:20], "little") == meta.image_crc
    assert len(blob) <= METADATA_SIZE


def test_metadata_decode_tolerates_flash_padding():
    meta = AppMetadata.for_image(b"\x42" * 3000)
    padded = meta.encode().ljust(METADATA_SIZE, b"\xff")
    assert AppMetadata.decode(padded) == meta


def test_metadata_decode_rejects_garbage_count():
    erased = b"\xff" * METADATA_SIZE
    with pytest.raises(MalformedMetadata):
        AppMetadata.decode(erased)
    with pytest.raises(MalformedMetadata):
        AppMetadata.decode(b"12a".ljust(16, b"\x00") + bytes(8))
    with pytest.raises(MalformedMetadata):
        AppMetadata.decode(b"\x00" * METADATA_SIZE)


def test_metadata_decode_rejects_truncation():
    with pytest.raises(MalformedMetadata):
        AppMetadata.decode(b"100".ljust(16, b"\x00") + b"\x00\x00")


def test_metadata_slot_is_last_kib_of_app_region():
    assert METADATA_OFFSET == 512 * KIB - 1024
    assert APP_CAPACITY == 384 * KIB - 1024


def test_metadata_flash_roundtrip():
    device = FlashDevice()
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    image = b"\x37" * 5000
    meta = AppMetadata.for_image(image)
    write_app_metadata(device, meta)
    assert read_app_metadata(device) == meta


def test_read_rejects_erased_slot():
    with pytest.raises(MalformedMetadata):
        read_app_metadata(FlashDevice())


def test_read_rejects_count_beyond_capacity():
    device = FlashDevice()
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    bogus = AppMetadata(byte_count=APP_CAPACITY + 1,
                        image_crc=0, table=AppMetadata.for_image(b"x").table)
    write_app_metadata(device, bogus)
    with pytest.raises(MalformedMetadata):
        read_app_metadata(device)


def test_read_rejects_a_zero_byte_count():
    device = FlashDevice()
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    write_app_metadata(device, AppMetadata(byte_count=0, image_crc=crc32(b""),
                                           table=BlockCrcTable(())))
    with pytest.raises(MalformedMetadata):
        read_app_metadata(device)


@given(st.binary(min_size=1, max_size=2048))
@settings(max_examples=60, deadline=None)
def test_metadata_roundtrip_property(image):
    meta = AppMetadata.for_image(image, block_size=256)
    assert AppMetadata.decode(meta.encode().ljust(METADATA_SIZE, b"\xff")) == meta


def record_encodes(image_length, blocks):
    """Whether a record for ``image_length`` bytes with ``blocks`` table
    entries encodes within its ``METADATA_SIZE`` slot."""
    try:
        AppMetadata(image_length, 0, BlockCrcTable((0,) * blocks)).encode()
    except ValueError:  # the slot overflows, or the table's u16 count does
        return False
    return True


@given(st.integers(0, APP_CAPACITY + 2 * KIB), st.integers(1, 0x10000))
@settings(max_examples=200, deadline=None)
@example(APP_CAPACITY, 2 * KIB)
@example(APP_CAPACITY + 1, 2 * KIB)
@example(MAX_TABLE_BLOCKS * KIB, KIB)
@example(MAX_TABLE_BLOCKS * KIB + 1, KIB)
@example(0, KIB)
def test_an_image_fits_when_it_is_not_empty_and_region_and_record_hold_it(length, block_size):
    assert fits(length, block_size) is (1 <= length <= APP_CAPACITY
                                        and record_encodes(length, block_count(length, block_size)))


@pytest.mark.parametrize("length", [0, 1, APP_CAPACITY + 1])
def test_a_block_size_below_one_is_refused_whatever_the_length(length):
    # So a campaign plan with such a block size raises, even for an image too large to build.
    with pytest.raises(ValueError):
        fits(length, 0)


def test_provisioning_refuses_an_empty_image_before_it_touches_the_device():
    device = FlashDevice()
    provision_application(device, b"\x37" * 5000)
    before = (bytes(device.cells), device.locked, device.busy_until_us, device.busy_total_us)
    with pytest.raises(ScenarioError, match="empty"):
        provision_application(device, b"")
    assert (bytes(device.cells), device.locked, device.busy_until_us,
            device.busy_total_us) == before
