"""Update campaigns: drive one target from old image to new over the bus.

A campaign authenticates against whatever is running, drops the target
into its bootloader, authenticates again (access does not survive the
reset), moves the image across in full or as a delta package, and finally
commands the jump back into the application.  The full path erases the
whole application region and streams every block; the delta path ships one
package and lets the target reconcile sectors itself.  The metadata record
is always the last thing written, so a campaign killed anywhere in the
middle leaves a target that falls back to its bootloader instead of
booting a torn image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .bootflow import (
    ACK,
    APP_ENTER_BOOTLOADER,
    NACK,
    NACK_DELTA,
    BootloaderCommand,
)
from .canbus import MAX_SEGMENTED_PAYLOAD, await_reply, send_segmented
from .delta import DEFAULT_GAP_MERGE, build_delta, encode_package
from .flashmodel import APP_REGION
from .integrity import DEFAULT_BLOCK_SIZE, block_count, crc32
from .nvstore import APP_CAPACITY, MAX_TABLE_BLOCKS, METADATA_OFFSET, AppMetadata, BootFlag
from .simruntime import Task, TaskPriority, World
from .uds import client_unlock

DEFAULT_REQUEST_ID = 0x101
DEFAULT_RESPONSE_ID = 0x201

# The two nodes of every campaign world; scenario.build_world names them.
MASTER_NODE = "master"
TARGET_NODE = "target"

# A full campaign's block rides in one MEM_WRITE after its command byte,
# 4-byte address and 2-byte length.
MAX_FULL_BLOCK_SIZE = MAX_SEGMENTED_PAYLOAD - 7

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


def _is_ack(reply: bytes | None, code: int) -> bool:
    return reply is not None and len(reply) >= 2 and reply[0] == ACK and reply[1] == code


def _nack_reason(reply: bytes | None) -> int | None:
    if reply is not None and len(reply) >= 3 and reply[0] == NACK:
        return reply[2]
    return None


def _is_ack_or_nack(payload: bytes) -> bool:
    return bool(payload) and payload[0] in (ACK, NACK)


def _mem_write_payload(address: int, data: bytes) -> bytes:
    return (bytes([BootloaderCommand.MEM_WRITE]) + address.to_bytes(4, "little")
            + len(data).to_bytes(2, "little") + data)


class _Campaign:
    """Generator-backed master-side state machine."""

    def __init__(self, world: World, plan: CampaignPlan):
        self.world = world
        self.master = world.node(MASTER_NODE)
        self.plan = plan
        self.target = world.node(TARGET_NODE)
        self.report = CampaignReport(
            mode=plan.mode.value,
            old_image_crc=crc32(plan.old_image),
            new_image_crc=crc32(plan.new_image),
            old_image_length=len(plan.old_image),
            new_image_length=len(plan.new_image),
        )
        self.command_retries = 0

    # -- low-level helpers, all generators that yield their deadline ---------

    def _now(self) -> int:
        return self.world.clock_us

    def _command(self, payload: bytes):
        """Send ``payload`` and wait for its ACK/NACK, resending on silence
        until the retry budget is spent; a NACK is an answer, not a loss.
        Anything else on the master endpoint (e.g. a late security reply)
        is stray traffic."""
        retries_left = self.plan.retry_budget
        while True:
            send_segmented(self.world.bus, self.master.endpoint, DEFAULT_REQUEST_ID, payload)
            reply = yield from await_reply(self.master.endpoint, self._now,
                                           self._now() + self.plan.command_deadline_us,
                                           _is_ack_or_nack)
            if reply is not None or retries_left <= 0:
                return reply
            retries_left -= 1
            self.command_retries += 1

    def _wait_decision(self, decision: str, from_index: int, deadline_us: int):
        """Wait for the target to log ``decision`` at or after event
        ``from_index``; yields its deadline, so only a new event or the
        deadline needs a tick."""
        index = from_index
        while self._now() < deadline_us:
            events = self.world.events
            while index < len(events):
                e = events[index]
                index += 1
                if (e["node"] == TARGET_NODE and e["event"] == "Decision"
                        and e.get("decision") == decision):
                    return True
            yield deadline_us
        return False

    def _unlock(self):
        result = yield from client_unlock(
            self.world.bus, self.master.endpoint, DEFAULT_REQUEST_ID,
            self.plan.shared_secret, self._now, self.plan.command_deadline_us,
        )
        return result

    # -- the campaign itself --------------------------------------------------

    def run(self):
        plan = self.plan
        report = self.report
        bus = self.world.bus

        start_clock = self._now()
        stats0 = (bus.stats.frames_sent, bus.stats.payload_bytes,
                  bus.stats.retransmissions, bus.stats.busy_time_us)
        flash0 = self.target.device.busy_total_us
        erased0 = self.target.ctx.sectors_erased
        event_mark = len(self.world.events)

        def finish(outcome: str, reason: str | None = None) -> CampaignReport:
            report.outcome = outcome
            report.reason = reason
            report.frames_sent = bus.stats.frames_sent - stats0[0]
            report.bytes_on_bus = bus.stats.payload_bytes - stats0[1]
            report.retransmissions = (bus.stats.retransmissions - stats0[2]) + self.command_retries
            report.transfer_duration_us = bus.stats.busy_time_us - stats0[3]
            report.flash_duration_us = self.target.device.busy_total_us - flash0
            report.total_duration_us = self._now() - start_clock
            report.sectors_erased = self.target.ctx.sectors_erased - erased0
            self.world.log(self.master.name, "CampaignDone",
                           outcome=outcome, reason=reason, mode=plan.mode.value)
            return report

        total_blocks = block_count(len(plan.new_image), plan.block_size)
        if len(plan.new_image) > APP_CAPACITY or total_blocks > MAX_TABLE_BLOCKS:
            return finish("failed", "image_too_large")

        # 1. Authenticate against the running application.
        unlock = yield from self._unlock()
        report.handshake_duration_us = unlock.duration_us
        if not unlock.granted:
            return finish("failed", f"security_{unlock.outcome.value}")

        # 2. Ask the application to drop to the bootloader.
        reply = yield from self._command(bytes([APP_ENTER_BOOTLOADER]))
        if not _is_ack(reply, APP_ENTER_BOOTLOADER):
            return finish("failed", "enter_bootloader_refused")
        ok = yield from self._wait_decision(
            "jump_bootloader", event_mark, self._now() + plan.boot_deadline_us)
        if not ok:
            return finish("failed", "bootloader_not_reached")

        # 3. The reset dropped security access; authenticate again.
        unlock = yield from self._unlock()
        if not unlock.granted:
            return finish("failed", f"security_{unlock.outcome.value}")

        # 4. Move the image.
        if plan.mode is CampaignMode.FULL:
            reply = yield from self._command(
                bytes([BootloaderCommand.FLASH_ERASE, 0xFF, 0]))
            if not _is_ack(reply, BootloaderCommand.FLASH_ERASE):
                return finish("failed", "erase_refused")
            for index in range(total_blocks):
                lo = index * plan.block_size
                chunk = plan.new_image[lo : lo + plan.block_size]
                reply = yield from self._command(_mem_write_payload(APP_REGION.start + lo, chunk))
                if not _is_ack(reply, BootloaderCommand.MEM_WRITE):
                    return finish("failed", "block_write_refused")
                report.blocks_transferred += 1
            # Metadata last: this write is the commit point.
            meta = AppMetadata.for_image(plan.new_image, plan.block_size)
            reply = yield from self._command(_mem_write_payload(METADATA_OFFSET, meta.encode()))
            if not _is_ack(reply, BootloaderCommand.MEM_WRITE):
                return finish("failed", "metadata_write_refused")
        else:
            pkg = build_delta(plan.old_image, plan.new_image,
                              plan.block_size, plan.gap_merge)
            report.blocks_transferred = len(pkg.entries)
            report.blocks_skipped = total_blocks - len(pkg.entries)
            blob = bytes([BootloaderCommand.DELTA_APPLY]) + encode_package(pkg)
            if len(blob) > MAX_SEGMENTED_PAYLOAD:
                return finish("failed", "package_too_large")
            reply = yield from self._command(blob)
            if not _is_ack(reply, BootloaderCommand.DELTA_APPLY):
                if _nack_reason(reply) == NACK_DELTA:
                    return finish("failed", "block_crc_mismatch")
                return finish("failed", "delta_refused")

        # 5. Arm the application flag and reset.
        event_mark = len(self.world.events)
        reply = yield from self._command(
            bytes([BootloaderCommand.GO_TO_ADDR, BootFlag.ENTER, BootFlag.NOT_ENTER]))
        if not _is_ack(reply, BootloaderCommand.GO_TO_ADDR):
            return finish("failed", "go_to_addr_refused")

        # 6. The target must decide for the application on its own.
        ok = yield from self._wait_decision(
            "jump_application", event_mark, self._now() + plan.boot_deadline_us)
        if not ok:
            return finish("failed", "application_not_reached")
        return finish("success")


def start_campaign(world: World, plan: CampaignPlan) -> Task:
    """Install a campaign on the master; returns its task.  The task's
    ``result`` is the campaign's report from the start and fills in as the
    campaign runs; ``cancel()`` abandons it mid-flight (the target is not
    told)."""
    campaign = _Campaign(world, plan)
    task = Task.from_generator("campaign", TaskPriority.COMM, campaign.run())
    task.result = campaign.report
    campaign.master.add_task(task)
    return task


def run_campaign(world: World, plan: CampaignPlan,
                 max_ticks: int | None = None) -> CampaignReport:
    """Run a campaign to completion; returns its report."""
    task = start_campaign(world, plan)
    if max_ticks is None:
        # Worst case: every payload byte twice (retries), plus flash stalls.
        max_ticks = 120_000 + 4 * (len(plan.new_image) // 7 + 1)
    result = world.run_until(lambda w: task.done, max_ticks)
    report = task.result
    if not result.met:
        task.cancel()
        report.outcome = "failed"
        report.reason = "campaign_stalled"
    return report


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
