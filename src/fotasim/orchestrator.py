"""Update campaigns: drive one target from old image to new over the bus.

A campaign is a list of steps, and one loop runs them and ends the campaign
in ``finish`` at the first that fails: authenticate against whatever is
running, drop the target into its bootloader, authenticate again (access
does not survive the reset), erase and stream every block or ship one delta
package, then command the jump back into the application.  What a campaign
ships, the metadata record or the package, is built before it starts.  The
record is always the last thing written, so a campaign killed anywhere in
the middle leaves a target that falls back to its bootloader instead of
booting a torn image.
"""

from __future__ import annotations

import json
import sys
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice

from .bootflow import (
    APP_ENTER_BOOTLOADER,
    MEM_WRITE_HEADER,
    NACK_DELTA,
    BootloaderCommand,
    is_ack,
    is_ack_or_nack,
    is_nack,
    mem_write_request,
)
from .canbus import MAX_SEGMENTED_PAYLOAD, await_reply, send_segmented, wait_for
from .delta import DEFAULT_GAP_MERGE, DeltaPackage, build_delta, encode_package
from .flashmodel import APP_REGION
from .integrity import DEFAULT_BLOCK_SIZE, block_count, crc32
from .nvstore import METADATA_OFFSET, AppMetadata, BootFlag, fits
from .simruntime import Task, TaskPriority, World
from .uds import client_unlock

DEFAULT_REQUEST_ID = 0x101
DEFAULT_RESPONSE_ID = 0x201

# The two nodes of every campaign world; scenario.build_world names them.
MASTER_NODE = "master"
TARGET_NODE = "target"

# A full campaign's block rides in one MEM_WRITE, after its header.
MAX_FULL_BLOCK_SIZE = MAX_SEGMENTED_PAYLOAD - MEM_WRITE_HEADER.size

DEFAULT_COMMAND_DEADLINE_US = 5_000_000
DEFAULT_BOOT_DEADLINE_US = 10_000_000


class IncomparableReports(ValueError):
    pass


class CampaignMode(Enum):
    FULL = "full"
    DELTA = "delta"


@dataclass(frozen=True)
class CampaignPlan:
    mode: CampaignMode
    old_image: bytes
    new_image: bytes
    shared_secret: int
    retry_budget: int = 3
    block_size: int = DEFAULT_BLOCK_SIZE
    gap_merge: int = DEFAULT_GAP_MERGE
    command_deadline_us: int = DEFAULT_COMMAND_DEADLINE_US
    boot_deadline_us: int = DEFAULT_BOOT_DEADLINE_US


@dataclass
class CampaignReport:
    mode: str
    outcome: str = "failed"
    reason: str | None = None
    frames_sent: int = 0
    bytes_on_bus: int = 0
    retransmissions: int = 0
    blocks_transferred: int = 0
    blocks_skipped: int = 0
    sectors_erased: int = 0
    transfer_duration_us: int = 0
    flash_duration_us: int = 0
    total_duration_us: int = 0
    handshake_duration_us: int = 0
    old_image_crc: int = 0
    new_image_crc: int = 0
    old_image_length: int = 0
    new_image_length: int = 0

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def _campaign(world: World, plan: CampaignPlan, report: CampaignReport,
              shipped: AppMetadata | DeltaPackage | None):
    """The master's side of a campaign that ships ``shipped`` (None: too large
    to fit), as a generator that yields its deadlines and fills in ``report``."""
    bus = world.bus
    endpoint = world.nodes[MASTER_NODE].endpoint
    target = world.nodes[TARGET_NODE]

    def now() -> int:
        return world.clock_us

    start_clock = now()
    stats0 = replace(bus.stats)
    flash0 = target.device.busy_total_us
    erased0 = target.ctx.sectors_erased
    command_retries = 0

    def finish(reason: str | None) -> CampaignReport:
        report.outcome = "failed" if reason else "success"
        report.reason = reason
        stats = bus.stats
        report.frames_sent = stats.frames_sent - stats0.frames_sent
        report.bytes_on_bus = stats.payload_bytes - stats0.payload_bytes
        report.retransmissions = stats.retransmissions - stats0.retransmissions + command_retries
        report.transfer_duration_us = stats.busy_time_us - stats0.busy_time_us
        report.flash_duration_us = target.device.busy_total_us - flash0
        report.total_duration_us = now() - start_clock
        report.sectors_erased = target.ctx.sectors_erased - erased0
        world.log(MASTER_NODE, "CampaignDone",
                  outcome=report.outcome, reason=reason, mode=plan.mode.value)
        return report

    def refuse(reason: str):
        """A step that fails at once, without waiting."""
        yield from ()
        return reason

    def unlock(first: bool = False):
        """Authenticate; the first handshake's duration goes in the report."""
        unlocked = yield from client_unlock(bus, endpoint, DEFAULT_REQUEST_ID, plan.shared_secret,
                                            now, plan.command_deadline_us)
        if first:
            report.handshake_duration_us = unlocked.duration_us
        return None if unlocked.granted else f"security_{unlocked.outcome.value}"

    def command(payload: bytes, refusal: str):
        """Send ``payload`` and wait for its ACK/NACK, resending on silence
        until the retry budget is spent; a NACK is an answer, not a loss,
        and other traffic is stray.  Returns None once the target ACKs the
        command, else ``refusal`` (a delta NACKed for its blocks: a CRC
        mismatch)."""
        nonlocal command_retries
        retries_left = plan.retry_budget
        while True:
            send_segmented(bus, endpoint, DEFAULT_REQUEST_ID, payload)
            reply = yield from await_reply(endpoint, now, now() + plan.command_deadline_us,
                                           is_ack_or_nack)
            if reply is not None or retries_left <= 0:
                break
            retries_left -= 1
            command_retries += 1
        if is_ack(reply, payload[0]):
            return None
        if payload[0] == BootloaderCommand.DELTA_APPLY and is_nack(reply, NACK_DELTA):
            return "block_crc_mismatch"
        return refusal

    def decided(decision: str, mark: int, refusal: str):
        """Wait for the target to log ``decision`` at or after event ``mark``."""
        def poll():
            return any(e["node"] == TARGET_NODE and e["event"] == "Decision"
                       and e.get("decision") == decision
                       for e in islice(world.events, mark, None)) or None

        seen = yield from wait_for(now, now() + plan.boot_deadline_us, poll)
        return None if seen else refusal

    def steps():
        """The campaign's steps in order, each a generator that yields
        deadlines and returns None or the reason the campaign failed.  A
        step is made only once the one before it has succeeded."""
        if shipped is None:
            yield refuse("image_too_large")
        mark = len(world.events)
        yield unlock(first=True)
        yield command(bytes([APP_ENTER_BOOTLOADER]), "enter_bootloader_refused")
        yield decided("jump_bootloader", mark, "bootloader_not_reached")
        # The reset dropped security access.
        yield unlock()
        if plan.mode is CampaignMode.FULL:
            yield command(bytes([BootloaderCommand.FLASH_ERASE, 0xFF, 0]), "erase_refused")
            for lo in range(0, len(plan.new_image), plan.block_size):
                chunk = plan.new_image[lo : lo + plan.block_size]
                yield command(mem_write_request(APP_REGION.start + lo, chunk),
                              "block_write_refused")
                report.blocks_transferred += 1
            # Metadata last: this write is the commit point.
            yield command(mem_write_request(METADATA_OFFSET, shipped.encode()),
                          "metadata_write_refused")
        else:
            report.blocks_transferred = len(shipped.entries)
            report.blocks_skipped = (block_count(len(plan.new_image), plan.block_size)
                                     - len(shipped.entries))
            blob = bytes([BootloaderCommand.DELTA_APPLY]) + encode_package(shipped)
            if len(blob) > MAX_SEGMENTED_PAYLOAD:
                yield refuse("package_too_large")
            yield command(blob, "delta_refused")
        # Arm the application flag and reset; the target must boot it on its own.
        mark = len(world.events)
        yield command(bytes([BootloaderCommand.GO_TO_ADDR, BootFlag.ENTER, BootFlag.NOT_ENTER]),
                      "go_to_addr_refused")
        yield decided("jump_application", mark, "application_not_reached")

    reason = None
    for step in steps():
        if reason := (yield from step):
            break
    return finish(reason)


def start_campaign(world: World, plan: CampaignPlan) -> Task:
    """Install a campaign on the master; returns its task.  The task's
    ``result`` is the campaign's report from the start and fills in as the
    campaign runs; ``cancel()`` abandons it mid-flight (the target is not
    told).  What the campaign ships is built here, so a plan that cannot
    be built raises before any traffic; an image that does not
    :func:`~fotasim.nvstore.fits` is refused by the first step, unbuilt."""
    if plan.mode is CampaignMode.FULL and plan.block_size > MAX_FULL_BLOCK_SIZE:
        raise ValueError(f"block_size {plan.block_size} exceeds {MAX_FULL_BLOCK_SIZE}: "
                         "a full campaign's block rides in one MEM_WRITE")
    if plan.new_image and not fits(len(plan.new_image), plan.block_size):
        shipped, new_image_crc = None, crc32(plan.new_image)
    elif plan.mode is CampaignMode.FULL:
        shipped = AppMetadata.for_image(plan.new_image, plan.block_size)
        new_image_crc = shipped.image_crc
    else:
        shipped = build_delta(plan.old_image, plan.new_image, plan.block_size, plan.gap_merge)
        new_image_crc = shipped.new_image_crc
    report = CampaignReport(
        mode=plan.mode.value,
        old_image_crc=crc32(plan.old_image),
        new_image_crc=new_image_crc,
        old_image_length=len(plan.old_image),
        new_image_length=len(plan.new_image),
    )
    # The campaign reaches its world weakly: the world holds its task.
    task = Task.from_generator("campaign", TaskPriority.COMM,
                               _campaign(weakref.proxy(world), plan, report, shipped))
    task.result = report
    world.nodes[MASTER_NODE].add_task(task)
    return task


def run_campaign(world: World, plan: CampaignPlan) -> CampaignReport:
    """Run a campaign to its end; returns its report.  No tick budget is
    needed: every wait in a campaign has a deadline, every command a finite
    number of retries, and the world passes idle time in spans."""
    task = start_campaign(world, plan)
    world.run_until(lambda w: task.done, sys.maxsize)
    return task.result


def reduction_ratio(delta_report: CampaignReport, full_report: CampaignReport) -> float:
    """1 - delta_total / full_total, defined only for two successful
    campaigns over the same image pair."""
    if not (delta_report.success and full_report.success):
        raise IncomparableReports("both campaigns must have succeeded")
    same = (delta_report.old_image_crc == full_report.old_image_crc
            and delta_report.new_image_crc == full_report.new_image_crc
            and delta_report.old_image_length == full_report.old_image_length
            and delta_report.new_image_length == full_report.new_image_length)
    if not same:
        raise IncomparableReports("reports describe different image pairs")
    if full_report.total_duration_us <= 0:
        raise IncomparableReports("full campaign reports no duration")
    return 1.0 - delta_report.total_duration_us / full_report.total_duration_us
