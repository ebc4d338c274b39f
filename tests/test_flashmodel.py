"""Flash device semantics: geometry, locking, erase/program rules, timing."""

from random import Random

import pytest

from fotasim.flashmodel import (
    APP_REGION,
    APP_SECTORS,
    BOOTLOADER_REGION,
    BOOTLOADER_SECTORS,
    DEFAULT_UNLOCK_KEYS,
    ERASED_BYTE,
    KIB,
    LAYOUT,
    MASS_ERASE_APPLICATION,
    REGION_APPLICATION,
    REGION_BOOT_MANAGER,
    REGION_BOOTLOADER,
    AddressOutOfRange,
    AlreadyUnlocked,
    BadKeySequence,
    FlashDevice,
    LockedDevice,
    ProgramOnNonErased,
    SectorOutOfRange,
    program_cost,
)


def unlocked():
    d = FlashDevice()
    d.unlock(*DEFAULT_UNLOCK_KEYS)
    return d


# -- geometry ----------------------------------------------------------------


def test_default_geometry():
    layout = LAYOUT
    assert layout.size == 512 * KIB
    assert [s.size for s in layout.sectors] == [
        16 * KIB, 16 * KIB, 16 * KIB, 16 * KIB, 64 * KIB,
        128 * KIB, 128 * KIB, 128 * KIB,
    ]
    assert layout.region(REGION_BOOT_MANAGER).start == 0
    assert layout.region(REGION_BOOTLOADER).start == 64 * KIB
    app = layout.region(REGION_APPLICATION)
    assert (app.start, app.end) == (128 * KIB, 512 * KIB)


def test_regions_cover_expected_sectors():
    layout = LAYOUT
    within_app = layout.sectors_within(layout.region(REGION_APPLICATION))
    assert [s.index for s in within_app] == [5, 6, 7]
    within = layout.sectors_within(layout.region(REGION_BOOT_MANAGER))
    assert [s.index for s in within] == [0, 1, 2, 3]
    assert [s.index for s in layout.sectors_within(layout.region(REGION_BOOTLOADER))] == [4]
    assert (APP_REGION, APP_SECTORS) == (layout.region(REGION_APPLICATION), within_app)
    assert BOOTLOADER_REGION == layout.region(REGION_BOOTLOADER)
    assert [s.index for s in BOOTLOADER_SECTORS] == [4]
    assert FlashDevice().layout is LAYOUT


def test_sector_at_boundaries():
    # The sector holding one byte is the one-byte range [address, address + 1);
    # a byte past either end of the device lies in no sector.
    layout = LAYOUT
    for address, indices in ((0, [0]), (16 * KIB - 1, [0]), (16 * KIB, [1]),
                             (512 * KIB - 1, [7]), (512 * KIB, []), (-1, [])):
        assert [s.index for s in layout.sectors_overlapping(address, address + 1)] == indices


def test_sectors_overlapping_partial_range():
    layout = LAYOUT
    touched = layout.sectors_overlapping(16 * KIB - 1, 16 * KIB + 1)
    assert [s.index for s in touched] == [0, 1]


def test_region_contains():
    app = LAYOUT.region(REGION_APPLICATION)
    assert app.contains(app.start)
    assert app.contains(app.end - 1)
    assert not app.contains(app.end)
    assert app.contains(app.start, app.size)
    assert not app.contains(app.start, app.size + 1)
    assert not app.contains(app.start - 1)


# -- lock handling -------------------------------------------------------------


def test_fresh_device_is_locked_and_erased():
    d = FlashDevice()
    assert d.locked
    data, _ = d.read(0, d.layout.size)
    assert data == bytes([ERASED_BYTE]) * d.layout.size


def test_mutation_requires_unlock():
    d = FlashDevice()
    with pytest.raises(LockedDevice):
        d.erase_sectors(0)
    with pytest.raises(LockedDevice):
        d.program(0, b"\x00")


def test_unlock_happy_path():
    d = unlocked()
    assert not d.locked
    d.program(0, b"\x12\x34")
    assert d.read(0, 2)[0] == b"\x12\x34"


def test_wrong_keys_latch_until_reset():
    d = FlashDevice()
    with pytest.raises(BadKeySequence):
        d.unlock(0xDEAD, 0xBEEF)
    # Even the right keys are refused while latched.
    with pytest.raises(BadKeySequence):
        d.unlock(*DEFAULT_UNLOCK_KEYS)
    d.reset()
    d.unlock(*DEFAULT_UNLOCK_KEYS)
    assert not d.locked


def test_keys_in_wrong_order_latch():
    d = FlashDevice()
    k1, k2 = DEFAULT_UNLOCK_KEYS
    with pytest.raises(BadKeySequence):
        d.unlock(k2, k1)
    assert d.latched


def test_double_unlock_rejected():
    d = unlocked()
    with pytest.raises(AlreadyUnlocked):
        d.unlock(*DEFAULT_UNLOCK_KEYS)


def test_reset_relocks_but_keeps_contents():
    d = unlocked()
    d.program(100, b"\xab")
    d.reset()
    assert d.locked
    assert d.read(100, 1)[0] == b"\xab"


# -- erase/program rules --------------------------------------------------------


def test_program_requires_erased_target():
    d = unlocked()
    d.program(10, b"\x01\x02")
    with pytest.raises(ProgramOnNonErased) as exc:
        d.program(11, b"\x03")
    assert exc.value.offset == 11
    # Failed program writes nothing.
    assert d.read(10, 2)[0] == b"\x01\x02"


def test_program_zero_length_is_free():
    d = unlocked()
    assert d.program(0, b"") == 0


def test_program_out_of_range():
    d = unlocked()
    with pytest.raises(AddressOutOfRange):
        d.program(d.layout.size - 1, b"\x00\x00")


def test_erase_restores_0xff():
    d = unlocked()
    d.program(0, bytes(16))
    d.erase_sectors(0)
    assert d.read(0, 16)[0] == bytes([ERASED_BYTE]) * 16


def test_erase_is_sector_granular():
    d = unlocked()
    d.program(0, b"\x00")               # sector 0
    d.program(16 * KIB, b"\x00")        # sector 1
    d.erase_sectors(0)
    assert d.read(0, 1)[0] == b"\xff"
    assert d.read(16 * KIB, 1)[0] == b"\x00"  # neighbour untouched


def test_erase_range_out_of_bounds():
    d = unlocked()
    with pytest.raises(SectorOutOfRange):
        d.erase_sectors(7, 2)
    with pytest.raises(SectorOutOfRange):
        d.erase_sectors(-1)
    with pytest.raises(SectorOutOfRange):
        d.erase_sectors(0, 0)


def test_mass_erase_application_only():
    d = unlocked()
    d.program(0, b"\x00")                      # boot manager
    d.program(128 * KIB, b"\x00")              # application start
    d.program(512 * KIB - 1, b"\x00")          # application end
    d.erase_sectors(MASS_ERASE_APPLICATION)
    assert d.read(0, 1)[0] == b"\x00"          # outside app region: untouched
    assert d.read(128 * KIB, 1)[0] == b"\xff"
    assert d.read(512 * KIB - 1, 1)[0] == b"\xff"


def test_reprogram_after_erase():
    d = unlocked()
    d.program(128 * KIB, b"\x11")
    d.erase_sectors(5)
    d.program(128 * KIB, b"\x22")
    assert d.read(128 * KIB, 1)[0] == b"\x22"


# -- timing ----------------------------------------------------------------------


def test_erase_durations_by_sector_size():
    d = unlocked()
    assert d.erase_sectors(0) == 250_000
    assert d.erase_sectors(4) == 700_000
    assert d.erase_sectors(5) == 1_000_000
    assert d.erase_sectors(0, 4) == 4 * 250_000


def test_mass_erase_duration_sums_app_sectors():
    d = unlocked()
    d.busy_until_us = 0
    assert d.erase_sectors(MASS_ERASE_APPLICATION) == 3_000_000


def test_program_cost_per_word():
    assert program_cost(4) == 16
    assert program_cost(1) == 16     # partial word still costs a word
    assert program_cost(5) == 32
    assert program_cost(1024) == 1024 // 4 * 16


def test_busy_horizon_accumulates():
    d = unlocked()
    d.erase_sectors(0, now_us=1000)
    assert d.busy_until_us == 1000 + 250_000
    # Second op issued mid-flight queues behind the first.
    d.program(0, b"\x00" * 4, now_us=2000)
    assert d.busy_until_us == 1000 + 250_000 + 16


def test_read_reports_stall():
    d = unlocked()
    d.erase_sectors(0, now_us=0)
    _, stall = d.read(0, 1, now_us=100)
    assert stall == 250_000 - 100
    _, stall = d.read(0, 1, now_us=250_000)
    assert stall == 0


def test_read_never_gated_by_lock():
    d = FlashDevice()
    data, _ = d.read(0, 4)
    assert data == b"\xff\xff\xff\xff"


# -- random-operation invariant sweep --------------------------------------------


def test_random_operation_invariants():
    """10k random ops: erased bytes read 0xFF, programming only ever clears
    bits from 0xFF, state stays consistent with a parallel model."""
    rng = Random(2024)
    d = unlocked()
    shadow = bytearray([ERASED_BYTE]) * d.layout.size

    for _ in range(10_000):
        op = rng.random()
        if op < 0.40:
            # program a small run somewhere
            addr = rng.randrange(d.layout.size - 64)
            data = rng.randbytes(rng.randint(1, 64))
            window_erased = all(b == ERASED_BYTE for b in shadow[addr:addr + len(data)])
            if window_erased:
                d.program(addr, data)
                shadow[addr:addr + len(data)] = data
            else:
                with pytest.raises(ProgramOnNonErased):
                    d.program(addr, data)
        elif op < 0.70:
            sector = rng.choice(d.layout.sectors)
            d.erase_sectors(sector.index)
            shadow[sector.start:sector.end] = bytes([ERASED_BYTE]) * sector.size
        elif op < 0.95:
            addr = rng.randrange(d.layout.size - 64)
            length = rng.randint(1, 64)
            got, _ = d.read(addr, length)
            assert got == bytes(shadow[addr:addr + length])
        else:
            d.erase_sectors(MASS_ERASE_APPLICATION)
            app = d.layout.region(REGION_APPLICATION)
            shadow[app.start:app.end] = bytes([ERASED_BYTE]) * app.size

    full, _ = d.read(0, d.layout.size)
    assert full == bytes(shadow)
