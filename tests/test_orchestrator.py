"""Campaign flows: full and delta transfers, failure reasons, reports."""

import json

import pytest

from fotasim import simruntime
from fotasim.bootflow import ACK, MEM_WRITE_HEADER, NACK, NACK_FLASH, BootloaderCommand
from fotasim.canbus import BusConfig
from fotasim.integrity import EmptyImage, crc32
from fotasim.nvstore import METADATA_OFFSET
from fotasim.orchestrator import (
    MASTER_NODE,
    CampaignMode,
    CampaignPlan,
    CampaignReport,
    IncomparableReports,
    reduction_ratio,
    run_campaign,
    start_campaign,
)
from fotasim.scenario import DEFAULT_SECRET, build_world, generate_image, mutate_blocks
from fotasim.simruntime import NodeMode

KIB = 1024


def image_pair(size=32 * KIB, changed=8, seed=5):
    old = generate_image(size, seed=seed)
    new = mutate_blocks(old, count=changed, seed=seed + 1)
    return old, new


def plan_for(mode, old, new, **overrides):
    fields = dict(mode=mode, old_image=old, new_image=new,
                  shared_secret=DEFAULT_SECRET)
    fields.update(overrides)
    return CampaignPlan(**fields)


def app_readback(target, length):
    app = target.device.layout.region("application")
    data, _ = target.device.read(app.start, length, target.world.clock_us)
    return data


def test_delta_campaign_updates_the_target_in_place():
    old, new = image_pair()
    world, _, target = build_world(old_image=old, seed=1)
    report = run_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    assert report.outcome == "success" and report.reason is None
    assert app_readback(target, len(new)) == new
    assert target.mode is NodeMode.APPLICATION
    assert report.blocks_transferred == 8
    assert report.blocks_skipped == 32 - 8
    assert report.sectors_erased >= 1
    assert report.frames_sent > 0
    assert report.bytes_on_bus > 0
    assert report.handshake_duration_us > 0
    assert report.total_duration_us > 0
    assert report.flash_duration_us > 0


def test_full_campaign_streams_every_block():
    old, new = image_pair(size=16 * KIB, changed=3)
    world, _, target = build_world(old_image=old, seed=2)
    report = run_campaign(world, plan_for(CampaignMode.FULL, old, new))
    assert report.success
    assert app_readback(target, len(new)) == new
    assert report.blocks_transferred == 16
    assert report.blocks_skipped == 0
    assert target.mode is NodeMode.APPLICATION


def test_delta_beats_full_on_a_sparse_change():
    old, new = image_pair()
    world_full, _, _ = build_world(old_image=old, seed=3)
    full = run_campaign(world_full, plan_for(CampaignMode.FULL, old, new))
    world_delta, _, _ = build_world(old_image=old, seed=3)
    delta = run_campaign(world_delta, plan_for(CampaignMode.DELTA, old, new))
    assert full.success and delta.success
    ratio = reduction_ratio(delta, full)
    assert 0.0 < ratio < 1.0
    assert delta.bytes_on_bus < full.bytes_on_bus
    assert delta.total_duration_us < full.total_duration_us


def test_reports_over_different_pairs_do_not_compare():
    old, new = image_pair()
    kwargs = dict(outcome="success", total_duration_us=10)

    def report(old_crc, new_crc, old_len, new_len, **extra):
        fields = dict(kwargs)
        fields.update(extra)
        return CampaignReport(mode="delta", old_image_crc=old_crc,
                              new_image_crc=new_crc, old_image_length=old_len,
                              new_image_length=new_len, **fields)

    base = report(1, 2, 10, 10)
    with pytest.raises(IncomparableReports):
        reduction_ratio(base, report(1, 3, 10, 10))  # different new image
    with pytest.raises(IncomparableReports):
        reduction_ratio(base, report(1, 2, 10, 10, outcome="failed"))
    with pytest.raises(IncomparableReports):
        reduction_ratio(report(1, 2, 10, 10, outcome="failed"), base)
    with pytest.raises(IncomparableReports):
        reduction_ratio(base, report(1, 2, 10, 10, total_duration_us=0))


def test_image_exceeding_the_region_fails_before_any_traffic():
    old = generate_image(16 * KIB, seed=1)
    world, _, _ = build_world(old_image=old, seed=1)
    capacity = 384 * KIB - KIB
    plan = plan_for(CampaignMode.FULL, old, bytes(capacity + 1))
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "image_too_large")
    assert report.frames_sent == 0


def test_image_exceeding_the_metadata_table_fails_early():
    old = generate_image(16 * KIB, seed=1)
    world, _, _ = build_world(old_image=old, seed=1)
    # 300 KiB fits the region but needs more 1 KiB block slots than the
    # metadata record can describe.
    plan = plan_for(CampaignMode.FULL, old, generate_image(300 * KIB, seed=2))
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "image_too_large")
    assert report.frames_sent == 0


@pytest.mark.parametrize("mode", [CampaignMode.FULL, CampaignMode.DELTA])
@pytest.mark.parametrize("block_size", [256, 1])
def test_an_image_that_does_not_fit_fails_its_first_step_whatever_its_block_size(mode,
                                                                               block_size):
    # 70 KiB needs 280 blocks of 256 bytes, or 71,680 of one byte; the record holds 250.
    old, new = generate_image(8 * KIB, seed=1), generate_image(70 * KIB, seed=2)
    world, _, _ = build_world(old_image=old, seed=1)
    report = run_campaign(world, plan_for(mode, old, new, block_size=block_size))
    assert (report.outcome, report.reason) == ("failed", "image_too_large")
    assert report.new_image_crc == crc32(new)
    assert report.frames_sent == 0


@pytest.mark.parametrize("mode, new_image, overrides, error", [
    pytest.param(CampaignMode.FULL, b"", {}, EmptyImage, id="full-empty-image"),
    pytest.param(CampaignMode.DELTA, b"", {}, EmptyImage, id="delta-empty-image"),
    pytest.param(CampaignMode.DELTA, None, {"block_size": 0x10001}, ValueError,
                 id="delta-block-size-past-0x10000"),
    # Past one MEM_WRITE's payload: a 128 KiB image's first 64 KiB block cannot be sent,
    # and the target would be mass-erased before it is tried.
    pytest.param(CampaignMode.FULL, generate_image(128 * KIB, seed=3), {"block_size": 0x10000},
                 ValueError, id="full-block-size-past-one-mem-write"),
])
def test_a_plan_that_cannot_be_built_fails_before_any_traffic(mode, new_image, overrides, error):
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=14)
    plan = plan_for(mode, old, new if new_image is None else new_image, **overrides)
    with pytest.raises(error):
        run_campaign(world, plan)
    assert world.clock_us == 0
    assert world.events == []
    assert not world.bus.pending()
    assert world.nodes[MASTER_NODE].tasks == []


def _is_metadata_write(payload):
    return (payload[0] == BootloaderCommand.MEM_WRITE
            and MEM_WRITE_HEADER.unpack_from(payload)[1] == METADATA_OFFSET)


def _command(code):
    return lambda payload: payload[0] == code


_FAILING_STEPS = [  # reason, mode, which command fails, the answer it gets, blocks_transferred
    ("erase_refused", CampaignMode.FULL, _command(BootloaderCommand.FLASH_ERASE), NACK, 0),
    ("block_write_refused", CampaignMode.FULL, _command(BootloaderCommand.MEM_WRITE), NACK, 0),
    ("metadata_write_refused", CampaignMode.FULL, _is_metadata_write, NACK, 16),
    ("delta_refused", CampaignMode.DELTA, _command(BootloaderCommand.DELTA_APPLY), NACK, 2),
    ("go_to_addr_refused", CampaignMode.DELTA, _command(BootloaderCommand.GO_TO_ADDR), NACK, 2),
    # An ACK that arms nothing: the target stays in its bootloader.
    ("application_not_reached", CampaignMode.DELTA, _command(BootloaderCommand.GO_TO_ADDR),
     ACK, 2),
]


@pytest.mark.parametrize("reason, mode, fails, answer, blocks",
                         [pytest.param(*case, id=case[0]) for case in _FAILING_STEPS])
def test_a_failing_step_ends_the_campaign_with_its_reason(monkeypatch, reason, mode, fails,
                                                          answer, blocks):
    served = []
    serve = simruntime.bootloader_serve

    def answering(ctx, payload):
        served.append(payload)
        if fails(payload):
            return bytes([answer, payload[0]]) + (bytes([NACK_FLASH]) if answer == NACK else b"")
        return serve(ctx, payload)

    monkeypatch.setattr(simruntime, "bootloader_serve", answering)
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=15)
    report = run_campaign(world, plan_for(mode, old, new))
    assert (report.outcome, report.reason) == ("failed", reason)
    assert report.blocks_transferred == blocks
    # The failing command was served once, and nothing after it.
    assert fails(served[-1])
    assert sum(map(fails, served)) == 1


def test_wrong_secret_is_reported_as_denied():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, target = build_world(old_image=old, seed=4)
    plan = plan_for(CampaignMode.DELTA, old, new,
                    shared_secret=DEFAULT_SECRET ^ 1)
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "security_denied")
    assert app_readback(target, len(old)) == old


def test_unanswered_target_times_out():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, target = build_world(old_image=old, seed=4)
    # Simplest deaf target: wipe its filters so requests never reach it.
    target.endpoint.filters = ()
    plan = plan_for(CampaignMode.DELTA, old, new, command_deadline_us=50_000)
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "security_timeout")


def test_target_already_in_bootloader_refuses_the_drop_command():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, target = build_world(old_image=old, seed=5)
    world.power_cycle("target")  # boots to the bootloader: flag was volatile
    world.tick()
    assert target.mode is NodeMode.BOOTLOADER
    plan = plan_for(CampaignMode.DELTA, old, new, command_deadline_us=50_000)
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "enter_bootloader_refused")


def test_reboot_missing_the_deadline_fails_the_campaign():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=6)
    plan = plan_for(CampaignMode.DELTA, old, new, boot_deadline_us=0)
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "bootloader_not_reached")


def test_oversized_delta_package_is_refused_locally():
    old = generate_image(80 * KIB, seed=7)
    new = generate_image(80 * KIB, seed=8)  # no blocks shared
    world, _, target = build_world(old_image=old, seed=7)
    report = run_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    assert (report.outcome, report.reason) == ("failed", "package_too_large")
    assert app_readback(target, len(old)) == old


def test_drifted_base_image_is_caught_by_the_target():
    # The package patches blocks 0..7; the device has since drifted in the
    # upper half, so the staged result cannot verify.
    old = generate_image(16 * KIB, seed=9)
    new = mutate_blocks(old, count=2, seed=10, block_range=(0, 8))
    drifted = mutate_blocks(old, count=2, seed=99, block_range=(8, 16))
    world, _, target = build_world(old_image=drifted, seed=9)
    plan = plan_for(CampaignMode.DELTA, old, new)
    report = run_campaign(world, plan)
    assert (report.outcome, report.reason) == ("failed", "block_crc_mismatch")
    assert app_readback(target, len(drifted)) == drifted
    assert target.mode is NodeMode.BOOTLOADER


def test_slow_but_live_campaign_runs_to_its_end():
    # Dropped frames with no retransmit budget cost whole command deadlines;
    # the campaign still ends, by its own deadlines, and here it succeeds.
    old = generate_image(64 * KIB, seed=41)
    new = mutate_blocks(old, 8, seed=42)
    config = BusConfig(drop_probability=0.0024, max_auto_retransmit=0, rng_seed=3)
    world, _, target = build_world(old_image=old, seed=3, bus=config)
    report = run_campaign(world, plan_for(CampaignMode.FULL, old, new))
    assert (report.outcome, report.reason) == ("success", None)
    assert report.total_duration_us == 197_597_000
    assert report.frames_sent == 15_257
    assert app_readback(target, len(new)) == new


def test_handle_exposes_progress_and_cancel():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=11)
    handle = start_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    assert not handle.done
    world.run_ticks(10)
    handle.cancel()
    world.tick()
    assert handle.done


def test_campaign_task_result_is_the_live_report():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=13)
    task = start_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    report = task.result
    assert isinstance(report, CampaignReport)
    assert (report.mode, report.total_duration_us) == ("delta", 0)
    assert world.run_until(lambda w: task.done, max_ticks=60_000).met
    assert task.result is report
    assert report.success and report.total_duration_us > 0


def test_report_serializes_to_sorted_json():
    old, new = image_pair(size=16 * KIB, changed=2)
    world, _, _ = build_world(old_image=old, seed=12)
    report = run_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    decoded = json.loads(report.to_json())
    assert decoded == report.__dict__
    assert list(decoded) == sorted(decoded)
    assert decoded["mode"] == "delta"
    assert decoded["outcome"] == "success"


def test_campaign_rides_out_a_noisy_bus():
    old, new = image_pair()
    config = BusConfig(corruption_probability=0.01, rng_seed=21)
    world, _, target = build_world(old_image=old, seed=21, bus=config)
    report = run_campaign(world, plan_for(CampaignMode.DELTA, old, new))
    assert report.success
    assert report.retransmissions > 0
    assert app_readback(target, len(new)) == new
