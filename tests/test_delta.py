"""Delta packages: diffing, wire format, staged apply, and DELTA_APPLY's commit."""

import struct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim.bootflow import ACK, BootloaderCommand, EcuContext, bootloader_serve
from fotasim.delta import (
    HEADER_SIZE,
    MAGIC,
    BadMagic,
    BlockCrcMismatch,
    DeltaEntry,
    DeltaError,
    DeltaPackage,
    ImageCrcMismatch,
    MalformedPackage,
    Truncated,
    UnsupportedVersion,
    _diff_runs,
    apply_delta,
    build_delta,
    decode_package,
    encode_package,
)
from fotasim.flashmodel import (
    APP_REGION,
    KIB,
    LAYOUT,
    REGION_APPLICATION,
    FlashDevice,
)
from fotasim.integrity import EmptyImage, crc32
from fotasim.nvstore import (
    MAX_TABLE_BLOCKS,
    METADATA_OFFSET,
    METADATA_SIZE,
    AppMetadata,
    BackupRegisters,
    read_app_metadata,
)
from fotasim.orchestrator import CampaignMode, CampaignPlan, run_campaign
from fotasim.scenario import DEFAULT_SECRET, build_world, provision_application
from fotasim.uds import SecuritySession, SecurityState

from conftest import GENERATOR, xor_generator


def make_pair(size=8 * KIB, seed=1):
    old = Random(seed).randbytes(size)
    return old, bytearray(old)


def diff_runs_reference(old_block, new_block, gap_merge):
    """The diff kernel as a plain per-byte loop, kept as an oracle."""
    runs = []
    i = 0
    n = len(new_block)
    while i < n:
        if old_block[i] == new_block[i]:
            i += 1
            continue
        start = i
        while i < n and old_block[i] != new_block[i]:
            i += 1
        if runs and start - runs[-1][1] < gap_merge:
            runs[-1][1] = i
        else:
            runs.append([start, i])
    return [(s, e) for s, e in runs]


@st.composite
def block_pairs(draw):
    """An old block and a copy with edits XORed in: runs of random masks,
    single-bit flips, or edits pinned to the first and last byte."""
    n = draw(st.integers(1, 300))
    old = draw(st.binary(min_size=n, max_size=n))
    new = bytearray(old)
    masks = st.integers(1, 255) | st.sampled_from([1 << k for k in range(8)])
    positions = st.integers(0, n - 1) | st.sampled_from([0, n - 1])
    for pos, length, mask in draw(st.lists(st.tuples(positions, st.integers(1, 20), masks),
                                           max_size=12)):
        for i in range(pos, min(pos + length, n)):
            new[i] ^= mask
    return old, bytes(new)


# -- diffing --------------------------------------------------------------------


@given(block_pairs(), st.integers(0, 16))
@settings(max_examples=150, deadline=None)
def test_diff_runs_match_the_per_byte_loop(pair, gap_merge):
    old, new = pair
    assert _diff_runs(old, new, gap_merge) == diff_runs_reference(old, new, gap_merge)


@given(st.integers(1, 2 * KIB), st.integers(0, 2**32 - 1), st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_diff_runs_match_the_per_byte_loop_on_unrelated_blocks(size, seed, gap_merge):
    rng = Random(seed)
    old, new = rng.randbytes(size), rng.randbytes(size)
    assert _diff_runs(old, new, gap_merge) == diff_runs_reference(old, new, gap_merge)


@pytest.mark.parametrize("gap_merge", range(17))
def test_diff_runs_edges(gap_merge):
    block = bytes(range(64))
    assert _diff_runs(block, block, gap_merge) == []
    assert _diff_runs(b"\x00", b"\x00", gap_merge) == []
    assert _diff_runs(b"\x00", b"\x80", gap_merge) == [(0, 1)]
    edges = bytearray(block)
    edges[0] ^= 1
    edges[63] ^= 0x80
    assert _diff_runs(block, bytes(edges), gap_merge) == [(0, 1), (63, 64)]


def single_bit_flips(block, positions):
    flipped = bytearray(block)
    for i in positions:
        flipped[i] ^= 4
    return bytes(flipped)


@pytest.mark.parametrize("gap_merge", range(17))
def test_diff_runs_gap_merge_boundary(gap_merge):
    block = bytes(64)
    # A gap of gap_merge equal bytes (and of one, the shortest gap) splits
    # the runs ...
    far = 6 + max(gap_merge, 1)
    split = _diff_runs(block, single_bit_flips(block, (5, far)), gap_merge)
    assert split == [(5, 6), (far, far + 1)]
    # ... one byte fewer merges them.
    if gap_merge:
        near = 5 + gap_merge
        assert _diff_runs(block, single_bit_flips(block, (5, near)), gap_merge) == [(5, near + 1)]


def test_ten_changed_bytes_in_block_two():
    old, new = make_pair()
    for i in range(2048, 2058):
        new[i] ^= 0xFF
    pkg = build_delta(old, bytes(new))
    assert pkg.changed_blocks() == [2]
    (entry,) = pkg.entries
    assert entry.tuples == ((0, bytes(new[2048:2058])),)
    assert entry.new_block_crc == crc32(bytes(new[2048:3072]))


def test_identical_images_empty_package():
    old, new = make_pair()
    pkg = build_delta(old, bytes(new))
    assert pkg.entries == ()
    assert encode_package(pkg) == encode_package(pkg)
    assert len(encode_package(pkg)) == HEADER_SIZE  # 19 bytes, header only


def colliding_pair(seed, block, offset):
    """An 8 KiB pair that differs only in ``block``, where the generator is
    XORed in at ``offset``: that block's CRC, and the image's, stay."""
    old, new = make_pair(seed=seed)
    lo, hi = block * KIB, (block + 1) * KIB
    xor_generator(new, lo + offset)
    assert new[lo:hi] != old[lo:hi] and crc32(bytes(new[lo:hi])) == crc32(old[lo:hi])
    return old, bytes(new)


@given(st.integers(0, 2**32 - 1), st.integers(0, 7), st.integers(0, KIB - len(GENERATOR)),
       st.integers(0, 8 * KIB - 1))
@settings(max_examples=60, deadline=None)
def test_a_block_whose_crc_collides_gets_an_entry(seed, block, offset, bit):
    # Blocks are compared by bytes: one whose bytes differ but whose CRC matches
    # gets an entry, as does one with one bit changed anywhere.
    old, new = colliding_pair(seed, block, offset)
    pkg = build_delta(old, new)
    assert pkg.changed_blocks() == [block]
    assert apply_delta(old, pkg) == new
    flipped = bytearray(old)
    flipped[block * KIB + bit // 8] ^= 1 << bit % 8
    assert build_delta(old, bytes(flipped)).changed_blocks() == [block]


def test_a_delta_campaign_over_a_colliding_pair_installs_the_new_image():
    old, new = colliding_pair(seed=5, block=3, offset=100)
    world, _, target = build_world(old_image=old, seed=5)
    report = run_campaign(world, CampaignPlan(mode=CampaignMode.DELTA, old_image=old,
                                              new_image=new, shared_secret=DEFAULT_SECRET))
    assert report.success
    assert target.device.view(APP_REGION.start, len(new)) == new


def test_growth_pads_old_with_erased_bytes():
    old = Random(5).randbytes(1024)
    new = old + Random(6).randbytes(1024)
    pkg = build_delta(old, new)
    assert pkg.changed_blocks() == [1]
    (entry,) = pkg.entries
    # The old side of block 1 is all-0xFF padding, so any new byte that is
    # not 0xFF differs; with random data that is one merged run.
    assert apply_delta(old, pkg) == new


def test_shrink_uses_new_extent():
    old = Random(7).randbytes(4096)
    new = old[:1536]
    pkg = build_delta(old, new)
    # Block 0 identical, block 1 is a shorter slice of the same bytes: its
    # CRC differs (different length), so it appears.
    assert pkg.new_image_length == 1536
    assert apply_delta(old, pkg) == new


def test_gap_merge_boundary():
    old, new = make_pair()
    base = 100
    new[base] ^= 1
    new[base + 8] ^= 1   # gap of 7 equal bytes < gap_merge=8: merged
    pkg = build_delta(old, bytes(new))
    (entry,) = pkg.entries
    assert [(offset, len(data)) for offset, data in entry.tuples] == [(base, 9)]

    old2, new2 = make_pair()
    new2[base] ^= 1
    new2[base + 9] ^= 1  # gap of 8 equal bytes: kept separate
    pkg2 = build_delta(old2, bytes(new2))
    (entry2,) = pkg2.entries
    assert [(offset, len(data)) for offset, data in entry2.tuples] == [(base, 1), (base + 9, 1)]


def test_changes_in_several_blocks():
    old, new = make_pair(size=10 * KIB)
    for block in (0, 3, 9):
        new[block * KIB] ^= 0x55
    pkg = build_delta(old, bytes(new))
    assert pkg.changed_blocks() == [0, 3, 9]


def test_empty_inputs_rejected():
    with pytest.raises(EmptyImage):
        build_delta(b"", b"x")
    with pytest.raises(EmptyImage):
        build_delta(b"x", b"")


def test_block_size_past_the_16_bit_offsets_is_refused():
    # A byte past offset 0xFFFF of a block cannot be addressed on the wire.
    old = bytes(0x20000)
    new = bytearray(old)
    new[0x18000] = 1
    with pytest.raises(ValueError, match="16-bit"):
        build_delta(old, bytes(new), block_size=0x20000)


@pytest.mark.parametrize("first_changed", [0xFFFF, 0x8000, 0])
def test_64_kib_blocks_round_trip(first_changed):
    # A wholly changed 64 KiB block is one run a byte longer than a u16
    # length can carry; it ships as two tuples.
    old = bytes(0x18000)
    new = old[:first_changed] + b"\x01" * (0x10000 - first_changed) + old[0x10000:]
    pkg = build_delta(old, new, block_size=0x10000)
    assert pkg.changed_blocks() == [0]
    assert apply_delta(old, decode_package(encode_package(pkg))) == new


# -- wire format ------------------------------------------------------------------


def test_package_roundtrip():
    old, new = make_pair(size=16 * KIB, seed=3)
    for i in (0, 5000, 6000, 16 * KIB - 1):
        new[i] ^= 0xA5
    pkg = build_delta(old, bytes(new))
    assert decode_package(encode_package(pkg)) == pkg


def test_header_fields():
    old, new = make_pair()
    new[0] ^= 1
    blob = encode_package(build_delta(old, bytes(new)))
    assert blob[:4] == MAGIC
    assert blob[4] == 1  # version
    assert int.from_bytes(blob[5:9], "little") == 1024
    assert int.from_bytes(blob[9:13], "little") == len(new)
    assert int.from_bytes(blob[13:17], "little") == crc32(bytes(new))
    assert int.from_bytes(blob[17:19], "little") == 1


def test_decode_rejects_bad_magic_and_version():
    old, new = make_pair()
    new[0] ^= 1
    blob = bytearray(encode_package(build_delta(old, bytes(new))))
    wrong_magic = bytes(b"XXXX") + bytes(blob[4:])
    with pytest.raises(BadMagic):
        decode_package(wrong_magic)
    blob[4] = 9
    with pytest.raises(UnsupportedVersion):
        decode_package(bytes(blob))


def test_decode_rejects_truncation_everywhere():
    old, new = make_pair()
    for i in (0, 2048, 2600):
        new[i] ^= 1
    blob = encode_package(build_delta(old, bytes(new)))
    for cut in range(len(blob)):
        with pytest.raises((Truncated, MalformedPackage)):
            decode_package(blob[:cut])


def test_decode_rejects_trailing_bytes():
    old, new = make_pair()
    new[0] ^= 1
    blob = encode_package(build_delta(old, bytes(new)))
    with pytest.raises(MalformedPackage):
        decode_package(blob + b"\x00")


def wire(block_size, image_length, entries, image_crc=0):
    """Hand-pack an FDP1 blob from ``(block_index, crc, runs)`` entries,
    each run an ``(offset, data)`` pair, without going through the model."""
    out = struct.pack("<4sBIIIH", MAGIC, 1, block_size, image_length, image_crc, len(entries))
    for index, crc, runs in entries:
        out += struct.pack("<HHI", index, len(runs), crc)
        for offset, data in runs:
            out += struct.pack("<HH", offset, len(data)) + data
    return out


def model(block_size, image_length, entries, image_crc=0):
    return DeltaPackage(block_size, image_length, image_crc,
                        tuple(DeltaEntry(i, crc, tuple(runs)) for i, crc, runs in entries))


def assert_refused(block_size, image_length, entries):
    """The rule holds at both doors: the constructor and the decoder."""
    with pytest.raises(MalformedPackage):
        model(block_size, image_length, entries)
    with pytest.raises(MalformedPackage):
        decode_package(wire(block_size, image_length, entries))


def test_tuple_validation():
    assert_refused(1024, 1024, [(0, 0, [(0, b"")])])                 # zero length
    assert_refused(1024, 1024, [(0, 0, [(5, b"a"), (6, b"")])])      # zero length after a run
    # Offsets are 16-bit: the wire cannot carry 0x10000, and the model refuses
    # it even where the block is long enough to hold it.
    with pytest.raises(MalformedPackage):
        model(0x20000, 0x20000, [(0, 0, [(0x10000, b"x")])])
    edge = [(0, 0, [(0xFFFF, b"xy")])]
    assert decode_package(wire(0x20000, 0x20000, edge)) == model(0x20000, 0x20000, edge)
    with pytest.raises(MalformedPackage):
        model(0x20000, 0x20000, [(0, 0, [(0, bytes(0x10000))])])    # length > 16 bits


def test_entry_rejects_overlapping_tuples():
    assert_refused(1024, 1024, [(0, 0, [(0, b"aaaa"), (3, b"bb")])])  # overlapping
    assert_refused(1024, 1024, [(0, 0, [(5, b"a"), (0, b"b")])])      # unsorted
    assert_refused(1024, 1024, [(0, 0, [(5, b"a"), (5, b"b")])])      # same offset twice
    # Back to back is not an overlap.
    adjacent = [(0, 0, [(0, b"aaaa"), (4, b"bb")])]
    assert decode_package(wire(1024, 1024, adjacent)) == model(1024, 1024, adjacent)


def test_package_rejects_out_of_image_entries():
    assert_refused(1024, 1024, [(1, 0, [])])                        # only block 0 exists
    assert_refused(1024, 500, [(0, 0, [(490, bytes(20))])])         # past the 500-byte final block
    assert_refused(1024, 1524, [(1, 0, [(499, b"ab")])])            # past a short block 1
    assert_refused(1024, 4096, [(2, 0, []), (1, 0, [])])            # unsorted entries
    assert_refused(1024, 4096, [(2, 0, []), (2, 0, [])])            # duplicate entries
    assert_refused(0, 4096, [])                                     # zero block size
    assert_refused(1024, 0, [])                                     # empty image
    # A run that ends exactly on the short final block's last byte is fine.
    last = [(1, 0, [(498, b"ab")])]
    assert decode_package(wire(1024, 1524, last)) == model(1024, 1524, last)


@given(st.integers(0, 2**32 - 1), st.binary(min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_handcrafted_package_roundtrip(crc, data):
    pkg = DeltaPackage(
        block_size=256,
        new_image_length=1000,
        new_image_crc=crc,
        entries=(DeltaEntry(1, crc ^ 0xFFFFFFFF, ((10, data),)),),
    )
    assert decode_package(encode_package(pkg)) == pkg
    assert encode_package(pkg) == wire(256, 1000, [(1, crc ^ 0xFFFFFFFF, [(10, data)])], crc)


def _fuzz_seed_blob():
    old = Random(41).randbytes(5 * KIB + 300)
    new = bytearray(old)
    for i in (3, 20, 1500, 1507, 4000, 5 * KIB + 299):
        new[i] ^= 0x5A
    return encode_package(build_delta(old, bytes(new)))


FUZZ_SEED_BLOB = _fuzz_seed_blob()


def decodes_or_raises_delta_error(blob):
    try:
        return isinstance(decode_package(blob), DeltaPackage)
    except DeltaError:
        return True


def test_decode_of_every_single_byte_corruption_returns_or_raises_delta_error():
    for pos in range(len(FUZZ_SEED_BLOB)):
        for value in (0x00, 0xFF, FUZZ_SEED_BLOB[pos] ^ 0x01, FUZZ_SEED_BLOB[pos] ^ 0x80):
            blob = bytearray(FUZZ_SEED_BLOB)
            blob[pos] = value
            assert decodes_or_raises_delta_error(bytes(blob)), (pos, value)


# Half the corrupted bytes land in the header and first entry, where one
# byte changes a size, a count or an index rather than patch data.  A byte is
# overwritten rather than XORed so that 0x00 and 0xFF, the values that empty
# or saturate a field, come up often.
_CORRUPT_POSITIONS = st.one_of(st.integers(0, HEADER_SIZE + 16),
                               st.integers(0, len(FUZZ_SEED_BLOB) - 1))


@given(st.lists(st.tuples(_CORRUPT_POSITIONS, st.integers(0, 255)), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_decode_of_a_corrupted_blob_returns_or_raises_delta_error(flips):
    blob = bytearray(FUZZ_SEED_BLOB)
    for pos, value in flips:
        blob[pos] = value
    assert decodes_or_raises_delta_error(bytes(blob))


# -- staged apply ------------------------------------------------------------------


def test_apply_reproduces_new_image():
    old, new = make_pair(size=20 * KIB, seed=9)
    rng = Random(10)
    for _ in range(200):
        new[rng.randrange(len(new))] ^= rng.randrange(1, 256)
    pkg = build_delta(old, bytes(new))
    assert apply_delta(old, pkg) == bytes(new)


def test_apply_detects_block_corruption():
    old, new = make_pair()
    new[2048] ^= 1
    pkg = build_delta(old, bytes(new))
    # Tamper with the tuple data after building.
    bad = DeltaPackage(
        pkg.block_size, pkg.new_image_length, pkg.new_image_crc,
        (DeltaEntry(2, pkg.entries[0].new_block_crc,
                    ((0, b"\x00"),)),),
    )
    with pytest.raises(BlockCrcMismatch) as exc:
        apply_delta(old, bad)
    assert exc.value.block_index == 2


def with_entries(pkg, entries, new_image_crc=None):
    crc = pkg.new_image_crc if new_image_crc is None else new_image_crc
    return DeltaPackage(pkg.block_size, pkg.new_image_length, crc, tuple(entries))


def tampered(entry):
    """``entry`` with its first tuple's data inverted, CRC left as built."""
    (offset, data), *rest = entry.tuples
    bad = (offset, bytes(b ^ 0xFF for b in data))
    return DeltaEntry(entry.block_index, entry.new_block_crc, (bad, *rest))


def test_apply_reports_the_lowest_bad_block_first():
    old, new = make_pair()
    for i in (1024, 3072, 5000):
        new[i] ^= 1
    pkg = build_delta(old, bytes(new))
    assert pkg.changed_blocks() == [1, 3, 4]
    first, middle, last = pkg.entries
    bad = with_entries(pkg, (first, tampered(middle), tampered(last)))
    with pytest.raises(BlockCrcMismatch) as exc:
        apply_delta(old, bad)
    assert exc.value.block_index == 3
    # A bad block outranks a wrong image CRC as well.
    bad_twice = with_entries(pkg, (tampered(first), middle, last), pkg.new_image_crc ^ 1)
    with pytest.raises(BlockCrcMismatch) as exc:
        apply_delta(old, bad_twice)
    assert exc.value.block_index == 1


def test_apply_checks_the_image_crc_after_good_blocks():
    old, new = make_pair()
    new[2048] ^= 1
    pkg = build_delta(old, bytes(new))
    with pytest.raises(ImageCrcMismatch):
        apply_delta(old, with_entries(pkg, pkg.entries, pkg.new_image_crc ^ 0x80000000))


@pytest.mark.parametrize("old_size, new_size", [
    (6 * KIB, 4 * KIB),           # old longer than new
    (2 * KIB, 5 * KIB),           # old shorter: its missing tail reads as 0xFF
    (3 * KIB + 100, 3 * KIB + 700),  # short tail block on both sides
    (4 * KIB + 900, 4 * KIB + 1),    # new ends one byte into its last block
])
def test_build_crcs_cover_each_new_block(old_size, new_size):
    rng = Random(old_size * new_size)
    old = rng.randbytes(old_size)
    new = bytearray(old[:new_size].ljust(new_size, b"\xff"))
    for _ in range(40):
        new[rng.randrange(new_size)] ^= rng.randrange(1, 256)
    new = bytes(new)
    pkg = build_delta(old, new)
    assert pkg.entries
    for entry in pkg.entries:
        lo = entry.block_index * KIB
        assert entry.new_block_crc == crc32(new[lo : lo + KIB])
    assert pkg.new_image_crc == crc32(new)
    assert apply_delta(old, pkg) == new


def test_apply_detects_wrong_base():
    old, new = make_pair(seed=21)
    new[2048] ^= 1
    pkg = build_delta(old, bytes(new))
    stranger = Random(99).randbytes(len(old))
    # Patching the wrong base leaves untouched parts of block 2 wrong.
    with pytest.raises((BlockCrcMismatch, ImageCrcMismatch)):
        apply_delta(stranger, pkg)


@given(st.integers(1, 2**32 - 1), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_build_apply_inverse_property(seed, extra_kib):
    rng = Random(seed)
    old = rng.randbytes(rng.randint(1, 4 * KIB))
    new = bytearray(rng.randbytes(rng.randint(1, 4 * KIB) + extra_kib * KIB))
    pkg = build_delta(old, bytes(new))
    assert apply_delta(old, pkg) == bytes(new)


# -- DELTA_APPLY's commit ------------------------------------------------------------
# What the target's DELTA_APPLY writes once a package stages: driven through
# bootloader_serve, which commits in bootflow.


def delta_target(image, block_size=KIB):
    """An ECU context over a device provisioned with ``image``, its security
    session already unlocked."""
    ctx = EcuContext(FlashDevice(), BackupRegisters(), SecuritySession(0))
    provision_application(ctx.device, image, block_size)
    ctx.session.state = SecurityState.UNLOCKED
    return ctx


def delta_apply(ctx, pkg):
    return bootloader_serve(ctx, bytes([BootloaderCommand.DELTA_APPLY]) + encode_package(pkg))


DELTA_ACK = bytes([ACK, BootloaderCommand.DELTA_APPLY])


def test_program_delta_touches_only_changed_sectors():
    # A 300 KiB image spans sectors 5-7; at that size the 1 KiB metadata
    # slot needs 2 KiB blocks to fit the CRC table.
    app_size = 300 * KIB
    old = Random(31).randbytes(app_size)
    new = bytearray(old)
    new[0] ^= 1  # one byte in sector 5
    pkg = build_delta(old, bytes(new), block_size=2 * KIB)

    ctx = delta_target(old, block_size=2 * KIB)
    device = ctx.device
    app = device.layout.region(REGION_APPLICATION)
    before_s6 = device.read(app.start + 128 * KIB, KIB)[0]

    assert delta_apply(ctx, pkg) == DELTA_ACK
    assert ctx.sectors_erased == 1  # metadata refresh not counted
    # Sector 6 bytes were never rewritten.
    assert device.read(app.start + 128 * KIB, KIB)[0] == before_s6
    # Whole image readback matches.
    assert device.read(app.start, len(new))[0] == bytes(new)
    # Metadata was refreshed to describe the new image.
    meta = read_app_metadata(device)
    assert meta.byte_count == len(new)
    assert meta.image_crc == crc32(bytes(new))


def test_program_delta_counts_every_changed_sector():
    app_size = 300 * KIB
    old = Random(33).randbytes(app_size)
    new = bytearray(old)
    new[0] ^= 1                 # sector 5
    new[130 * KIB] ^= 1         # sector 6
    new[260 * KIB] ^= 1         # sector 7 (also holds metadata)
    pkg = build_delta(old, bytes(new), block_size=2 * KIB)
    ctx = delta_target(old, block_size=2 * KIB)
    assert delta_apply(ctx, pkg) == DELTA_ACK
    assert ctx.sectors_erased == 3
    assert ctx.device.read(ctx.device.layout.region(REGION_APPLICATION).start,
                           len(new))[0] == bytes(new)


def test_program_delta_duration_accounts_erase_and_program():
    old = Random(35).randbytes(10 * KIB)
    new = bytearray(old)
    new[0] ^= 1
    pkg = build_delta(old, bytes(new))
    ctx = delta_target(old)
    busy_before = ctx.device.busy_total_us
    assert delta_apply(ctx, pkg) == DELTA_ACK
    # Two 128 KiB erases (data sector 5 + metadata sector 7), 10 KiB image
    # reprogram, and one metadata record.
    meta_len = len(read_app_metadata(ctx.device).encode())
    expected = 2 * 1_000_000 + (10 * KIB // 4) * 16 + -(-meta_len // 4) * 16
    assert ctx.device.busy_total_us - busy_before == expected


def apply_reference(base, pkg):
    """``apply_delta`` as a per-entry ``crc32`` loop over the staged image,
    kept as an oracle: the lowest bad block first, the image CRC last."""
    n, size = pkg.new_image_length, pkg.block_size
    stage = bytearray(base[:n].ljust(n, b"\xff"))
    for entry in pkg.entries:
        lo = entry.block_index * size
        for offset, data in entry.tuples:
            stage[lo + offset : lo + offset + len(data)] = data
    for entry in pkg.entries:
        lo = entry.block_index * size
        if crc32(bytes(stage[lo : lo + size])) != entry.new_block_crc:
            raise BlockCrcMismatch(entry.block_index)
    if crc32(bytes(stage)) != pkg.new_image_crc:
        raise ImageCrcMismatch("staged image fails the whole-image CRC")
    return bytes(stage)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_delta_apply_commits_the_record_its_check_read(data):
    """What DELTA_APPLY runs, ``apply_delta`` then its commit, over growing
    and shrinking images with partial last blocks and several block sizes:
    a good package commits ``AppMetadata.for_image(staged)`` byte for byte,
    counting each changed sector but the record's, and a tampered one
    raises what the oracle raises."""
    block_size = data.draw(st.sampled_from([64, 100, 256, KIB, 2 * KIB]))
    longest = min(12 * KIB, MAX_TABLE_BLOCKS * block_size)
    old_size = data.draw(st.integers(1, longest))
    new_size = data.draw(st.integers(1, longest))
    rng = Random(data.draw(st.integers(0, 2**32 - 1)))
    old = rng.randbytes(old_size)
    new = bytearray(old[:new_size]) + rng.randbytes(max(0, new_size - old_size))
    for _ in range(data.draw(st.integers(0, 6))):
        new[rng.randrange(new_size)] ^= rng.randrange(1, 256)
    pkg = build_delta(old, bytes(new), block_size)

    if data.draw(st.booleans(), label="tamper"):
        kinds = data.draw(st.lists(st.sampled_from(["keep", "crc", "data"]),
                                   min_size=len(pkg.entries), max_size=len(pkg.entries)))
        entries = [entry if kind == "keep"
                   else tampered(entry) if kind == "data"
                   else DeltaEntry(entry.block_index, entry.new_block_crc ^ 1, entry.tuples)
                   for entry, kind in zip(pkg.entries, kinds)]
        crc_flip = data.draw(st.sampled_from([0, 1, 0x80000000]))
        pkg = with_entries(pkg, entries, pkg.new_image_crc ^ crc_flip)

    try:
        expected = apply_reference(old, pkg)
    except DeltaError as exc:
        with pytest.raises(DeltaError) as raised:
            apply_delta(old, pkg)
        assert type(raised.value) is type(exc)
        assert getattr(raised.value, "block_index", None) == getattr(exc, "block_index", None)
        return
    staged = apply_delta(old, pkg)
    assert staged == expected == bytes(new)
    record = AppMetadata.for_image(expected, block_size).encode()
    ctx = delta_target(old, block_size)
    assert delta_apply(ctx, pkg) == DELTA_ACK
    assert ctx.device.read(METADATA_OFFSET, METADATA_SIZE)[0] == record.ljust(METADATA_SIZE,
                                                                              b"\xff")
    start = ctx.device.layout.region(REGION_APPLICATION).start
    assert ctx.device.read(start, new_size)[0] == expected
    (record_sector,) = LAYOUT.sectors_overlapping(METADATA_OFFSET, METADATA_OFFSET + 1)
    changed = {sector.index for index in pkg.changed_blocks()
               for sector in LAYOUT.sectors_overlapping(
                   start + index * block_size, start + min((index + 1) * block_size, new_size))}
    assert ctx.sectors_erased == len(changed - {record_sector.index})
