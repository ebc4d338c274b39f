"""World scheduler: tick clock, task ordering, boot dispatch, resets, logs."""

import dataclasses
import gc
import itertools
import json
import math
import os
import re
import tracemalloc
import types
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fotasim
from fotasim import orchestrator
from fotasim.bootflow import ACK, NACK, NACK_REGION, BootloaderCommand, UpdaterCommand
from fotasim.canbus import BusConfig, CanFrame, recv_segmented, send_segmented, wait_for
from fotasim.flashmodel import DEFAULT_UNLOCK_KEYS
from fotasim.lka import (MOTOR_LEFT, MOTOR_RIGHT, PARAM_OFFSET, NonFiniteInput, PidGains,
                         pack_image)
from fotasim.nvstore import APP_ENTER_REG, UPDATER_ENTER_REG, BootFlag
from fotasim.orchestrator import (DEFAULT_REQUEST_ID, TARGET_NODE, CampaignMode, CampaignPlan,
                                  run_campaign, start_campaign)
from fotasim.scenario import (DEFAULT_SECRET, build_world, generate_image, mutate_blocks,
                              provision_application, world_from_scenario)
from fotasim.simruntime import (
    DEFAULT_TICK_US,
    Node,
    NodeMode,
    RunResult,
    Task,
    TaskPriority,
    World,
)
from test_golden import updater_rollback

KIB = 1024


def host_world():
    world = World()
    node = world.add_node("box", 9, role="host")
    return world, node


def events_named(world, name):
    return [e for e in world.events if e["event"] == name]


# -- tasks ---------------------------------------------------------------


def test_tasks_run_in_priority_order_regardless_of_insertion():
    world, node = host_world()
    ran = []
    node.add_task(Task("app", TaskPriority.APP, lambda: ran.append("app")))
    node.add_task(Task("nvm", TaskPriority.NVM, lambda: ran.append("nvm")))
    node.add_task(Task("comm", TaskPriority.COMM, lambda: ran.append("comm")))
    world.tick()
    assert ran == ["comm", "nvm", "app"]


def test_generator_task_advances_once_per_tick_and_keeps_result():
    world, node = host_world()

    def worker():
        yield
        yield
        return 42

    task = Task.from_generator("worker", TaskPriority.APP, worker())
    node.add_task(task)
    world.tick()
    assert not task.done and task.result is None
    world.run_ticks(2)
    assert task.done
    assert task.result == 42
    world.tick()
    assert task not in node.tasks


def test_cancelled_task_never_steps_again():
    world, node = host_world()
    hits = []
    task = Task("mole", TaskPriority.APP, lambda: hits.append(1))
    node.add_task(task)
    world.tick()
    task.cancel()
    world.run_ticks(3)
    assert hits == [1]
    assert task not in node.tasks


def test_finished_generator_leaves_the_other_tasks_in_priority_order():
    world, node = host_world()
    ran = []

    def short():
        ran.append("comm")
        yield
        ran.append("comm")

    node.add_task(Task("app", TaskPriority.APP, lambda: ran.append("app")))
    node.add_task(Task("nvm", TaskPriority.NVM, lambda: ran.append("nvm")))
    node.add_task(Task.from_generator("short", TaskPriority.COMM, short()))
    world.run_ticks(3)
    assert ran == ["comm", "nvm", "app"] * 2 + ["nvm", "app"]
    assert [t.name for t in node.tasks] == ["nvm", "app"]


def test_node_added_after_ticks_runs_on_the_next_tick():
    world, _ = host_world()
    world.run_ticks(3)
    late = world.add_node("late", 10, role="host")
    hits = []
    late.add_task(Task("count", TaskPriority.APP, lambda: hits.append(world.clock_us)))
    world.tick()
    assert hits == [3 * DEFAULT_TICK_US]


# -- clock ---------------------------------------------------------------


def test_idle_tick_advances_by_base_period():
    world = World()
    world.tick()
    assert world.clock_us == DEFAULT_TICK_US
    assert world.last_tick_time == 0
    world.tick()
    assert world.clock_us == 2 * DEFAULT_TICK_US
    assert world.last_tick_time == DEFAULT_TICK_US


def test_slow_frame_stretches_the_tick():
    world = World(BusConfig(frame_time_us=2500))
    node = world.add_node("box", 9, role="host")
    send_segmented(world.bus, node.endpoint, 0x100, b"x")  # header + one body
    world.tick()
    assert world.clock_us == 2500
    world.tick()
    assert world.clock_us == 5000
    world.tick()  # bus idle again
    assert world.clock_us == 6000


def test_run_until_checks_before_the_first_tick():
    world = World()
    result = world.run_until(lambda w: True, max_ticks=50)
    assert result.met and result.at_time_us == 0 and result.ticks == 0
    assert world.clock_us == 0


def test_run_until_reports_the_triggering_ticks_timestamp():
    world, node = host_world()
    hits = []
    node.add_task(Task("count", TaskPriority.APP, lambda: hits.append(1)))
    result = world.run_until(lambda w: len(hits) >= 3, max_ticks=10)
    assert result.met
    assert result.ticks == 3
    # The third tick ran with the clock at 2 ms; the clock has since moved on.
    assert result.at_time_us == 2 * DEFAULT_TICK_US
    assert world.clock_us == 3 * DEFAULT_TICK_US


def test_run_until_gives_up_after_the_budget():
    world = World()
    result = world.run_until(lambda w: False, max_ticks=5)
    assert result.met is False
    assert result.ticks == 5
    assert result.at_time_us == world.clock_us == 5 * DEFAULT_TICK_US


def test_a_host_node_is_its_endpoint_and_its_tasks():
    tracemalloc.start()
    try:
        _, master, _ = build_world(old_image=generate_image(KIB, seed=1), seed=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for ecu_state in ("device", "regs", "session", "ctx"):
        assert not hasattr(master, ecu_state)
    assert held < 768 * KIB


def test_an_ecu_serves_and_steers_without_tasks():
    # Serving and steering are the mode's own work; a fresh ECU carries no task.
    assert World().add_node("ecu", 2).tasks == []


def test_duplicate_node_name_is_rejected():
    world = World()
    world.add_node("ecu", 2, role="host")
    with pytest.raises(ValueError):
        world.add_node("ecu", 3, role="host")


# -- boot dispatch ---------------------------------------------------------


def test_erased_ecu_boots_into_the_bootloader_once():
    world = World()
    node = world.add_node("ecu", 2, role="ecu")
    world.tick()
    assert node.mode is NodeMode.BOOTLOADER
    assert node.boot_count == 1
    assert [e["decision"] for e in events_named(world, "Decision")] == ["jump_bootloader"]
    world.run_ticks(3)
    assert node.boot_count == 1  # no re-boot without a reset


def test_provisioned_ecu_boots_into_the_application_with_its_gains():
    gains = PidGains(kp=3.5, ki=0.25, kd=0.75)
    image = generate_image(8 * KIB, seed=4, gains=gains)
    world, _, target = build_world(old_image=image, seed=4)
    world.tick()
    assert target.mode is NodeMode.APPLICATION
    assert target.gains == gains
    # The flag is only consumed on the bootloader fall-through, so a plain
    # reboot lands back in the application.
    assert target.regs.read_flag(APP_ENTER_REG) is BootFlag.ENTER
    world.software_reset("target")
    world.tick()
    assert target.mode is NodeMode.APPLICATION


def test_scenario_block_size_does_not_move_the_gains():
    # Gains sit at byte 1024 whatever block size the campaign uses; the
    # scenario must pack them where the target reads them.
    spec = {
        "seed": 3,
        "images": {
            "old": {"size": 8 * KIB, "seed": 1, "gains": [3.0, 0.2, 0.4]},
            "new": {"base": "old", "change_blocks": 1, "seed": 2},
        },
        "campaign": {"block_size": 512},
    }
    world, _ = world_from_scenario(spec)
    target = world.nodes["target"]
    assert world.run_until(lambda w: target.mode is NodeMode.APPLICATION, 10).met
    assert target.gains == PidGains(3.0, 0.2, 0.4)


def test_image_ending_before_the_gains_boots_with_builtin_gains():
    # A 1 KiB image has no parameter block: the gains bytes the target reads
    # are erased flash.
    world, _, target = build_world(old_image=generate_image(KIB, seed=6), seed=6)
    world.tick()
    assert target.mode is NodeMode.APPLICATION
    assert target.gains == PidGains()


def test_infinite_gain_boots_with_builtin_gains():
    # Like NaN, an infinite gain would drive the plant (kp=inf swings 0.0, 0.1,
    # 0.0, ... on a zero-deviation feed), so the gains block must be all finite.
    image = pack_image(bytes(4 * KIB), PidGains(math.inf, 0.1, 0.5))
    world, _, target = build_world(old_image=image, seed=6, deviation_lines=[b"0.00\n"] * 8)
    world.run_ticks(6)
    assert target.mode is NodeMode.APPLICATION
    assert target.gains == PidGains()
    assert target.steering.position == 0.0


def test_image_ending_with_the_gains_boots_with_them():
    gains = PidGains(kp=1.5, ki=0.125, kd=0.25)
    image = generate_image(PARAM_OFFSET, seed=7) + gains.encode()
    assert len(image) == PARAM_OFFSET + 24
    world, _, target = build_world(old_image=image, seed=7)
    world.tick()
    assert target.mode is NodeMode.APPLICATION
    assert target.gains == gains


def test_nan_parameter_block_falls_back_to_builtin_gains():
    nan = float("nan")
    image = generate_image(8 * KIB, seed=4, gains=PidGains(nan, nan, nan))
    world, _, target = build_world(old_image=image, seed=4)
    world.tick()
    assert target.mode is NodeMode.APPLICATION
    assert target.gains == PidGains()


def test_updater_flag_wins_over_a_missing_app():
    world = World()
    node = world.add_node("ecu", 2, role="ecu", updater_image=b"\x01" * 64)
    node.regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
    world.tick()
    assert node.mode is NodeMode.UPDATER
    assert [e["decision"] for e in events_named(world, "Decision")] == ["jump_updater"]


def test_an_ecu_without_an_updater_image_serves_the_host_in_the_updater():
    world, master, target = build_world(old_image=generate_image(8 * KIB, seed=6), seed=6)
    target.regs.write_flag(APP_ENTER_REG, BootFlag.NOT_ENTER)
    target.regs.write_flag(UPDATER_ENTER_REG, BootFlag.ENTER)
    erase, leave = UpdaterCommand.MEM_ERASE_BOOTLOADER, UpdaterCommand.LEAVE_TO_BOOT_MANAGER

    def ask(payload, max_ticks=1000):
        """The target's reply to ``payload``, or None if none lands in ``max_ticks``."""
        send_segmented(world.bus, master.endpoint, DEFAULT_REQUEST_ID, payload)
        if world.run_until(lambda w: bool(master.endpoint.rx), max_ticks).met:
            return recv_segmented(master.endpoint).payload
        return None

    assert ask(bytes([UpdaterCommand.GET_VERSION])) == bytes([ACK, 1, 0, 0])
    assert target.mode is NodeMode.UPDATER
    assert ask(bytes([erase, 4, 1])) == bytes([ACK, erase])  # the bootloader's 64 KiB sector
    assert target.ctx.sectors_erased == 1
    assert target.busy_until_us >= world.clock_us + 690_000  # the erase stalls it for 700 ms
    assert ask(bytes([erase, 3, 1])) == bytes([NACK, erase, NACK_REGION])  # the boot manager's
    assert world.clock_us > target.busy_until_us
    assert ask(bytes([erase, 4]), max_ticks=50) is None  # malformed: no reply at all
    assert target.ctx.sectors_erased == 1
    mark = len(world.events)
    assert ask(bytes([leave])) == bytes([ACK, leave])
    assert world.run_until(lambda w: target.boot_count == 2, 100).met
    assert [(e["event"], e.get("kind"), e.get("decision")) for e in world.events[mark:]] == [
        ("Reset", "software", None), ("Boot", None, None), ("Decision", None, "jump_bootloader")]
    assert target.mode is NodeMode.BOOTLOADER


# -- resets ---------------------------------------------------------------


def test_pending_reset_waits_until_the_tx_queue_drains():
    image = generate_image(8 * KIB, seed=1)
    world, _, target = build_world(old_image=image, seed=1)
    world.tick()
    assert target.mode is NodeMode.APPLICATION
    send_segmented(world.bus, target.endpoint, 0x201, b"hello")  # two frames
    target.pending_reset = True
    world.tick()  # first frame leaves; replies still queued, no reset yet
    assert target.mode is NodeMode.APPLICATION
    assert len(target.endpoint.tx) == 1
    world.tick()  # queue empty after this bus step: the reset lands
    assert target.mode is NodeMode.BOOT
    assert [e["kind"] for e in events_named(world, "Reset")] == ["software"]
    world.tick()
    assert target.boot_count == 2


def test_software_reset_preserves_backup_registers():
    world = World()
    node = world.add_node("ecu", 2, role="ecu")
    world.tick()
    node.regs.write(5, 0xABCD)
    node.device.unlock(*DEFAULT_UNLOCK_KEYS)
    world.software_reset("ecu")
    assert node.mode is NodeMode.BOOT
    assert node.regs.read(5) == 0xABCD
    assert node.device.locked  # flash relatches on any reset
    world.tick()
    assert node.boot_count == 2


def test_power_cycle_clears_backup_registers_and_busy_time():
    world = World()
    node = world.add_node("ecu", 2, role="ecu")
    world.tick()
    node.regs.write(5, 0xABCD)
    node.device.busy_until_us = 10_000_000
    world.power_cycle("ecu")
    assert node.regs.read(5) == 0
    assert node.device.busy_until_us == 0
    assert node.mode is NodeMode.BOOT


@pytest.mark.parametrize("reset", ["software_reset", "power_cycle"])
def test_resetting_a_host_names_the_node(reset):
    world, _ = host_world()
    with pytest.raises(ValueError, match="'box' is a host: a host has nothing to reset"):
        getattr(world, reset)("box")


# -- memory: a dropped world frees at once ------------------------------------


def _lossy_campaign(mode):
    old = generate_image(16 * KIB, seed=41, gains=PidGains())
    bus = BusConfig(corruption_probability=0.05, rng_seed=41)
    world, _, _ = build_world(old_image=old, seed=41, bus=bus)
    report = run_campaign(world, CampaignPlan(mode=mode, old_image=old,
                                              new_image=mutate_blocks(old, 3, seed=42),
                                              shared_secret=DEFAULT_SECRET))
    assert report.success and world.bus.stats.corrupted
    return world


def _steering_soak():
    old = generate_image(16 * KIB, seed=43, gains=PidGains())
    world, _, _ = build_world(old_image=old, seed=43, deviation_lines=itertools.repeat("0.10\n"))
    run_campaign(world, CampaignPlan(mode=CampaignMode.FULL, old_image=old,
                                     new_image=mutate_blocks(old, 2, seed=44),
                                     shared_secret=DEFAULT_SECRET))
    world.run_ticks(500)
    assert world.nodes[TARGET_NODE].steering.position > 0
    return world


def _campaign_in_flight():
    old = generate_image(16 * KIB, seed=46, gains=PidGains())
    world, _, _ = build_world(old_image=old, seed=46)
    task = orchestrator.start_campaign(world, CampaignPlan(
        mode=CampaignMode.DELTA, old_image=old, new_image=mutate_blocks(old, 3, seed=47),
        shared_secret=DEFAULT_SECRET))
    world.run_ticks(50)
    assert not task.done
    return world


def _power_cycle():
    world, _, _ = build_world(old_image=generate_image(4 * KIB, seed=45), seed=45)
    world.run_ticks(20)
    world.power_cycle(TARGET_NODE)
    world.run_ticks(20)
    return world


def _updater_rollback():
    return updater_rollback()[0]


def _of_fotasim(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return obj.__module__.startswith("fotasim")
    if isinstance(obj, (types.GeneratorType, types.FrameType)):
        code = obj.gi_code if isinstance(obj, types.GeneratorType) else obj.f_code
        return os.path.dirname(code.co_filename) == os.path.dirname(fotasim.__file__)
    return type(obj).__module__.startswith("fotasim")


@pytest.mark.parametrize("scenario, campaigns", [
    (lambda: _lossy_campaign(CampaignMode.FULL), 1),
    (lambda: _lossy_campaign(CampaignMode.DELTA), 1),
    (_steering_soak, 1),
    (_campaign_in_flight, 1),
    (_power_cycle, 0),
    (_updater_rollback, 1),
], ids=["full-lossy", "delta-lossy", "steering-soak", "campaign-in-flight", "power-cycle",
        "updater-rollback"])
def test_a_dropped_world_frees_at_once(scenario, campaigns, monkeypatch):
    """No reference cycle runs through a world: with the cyclic collector
    off, dropping the world frees it, its nodes, the target's flash and the
    campaign's task, done or not, and a collection then finds no fotasim
    object."""
    tasks = []

    def start(world, plan):
        task = start_campaign(world, plan)
        tasks.append(weakref.ref(task))
        return task

    monkeypatch.setattr(orchestrator, "start_campaign", start)
    gc.collect()
    gc.disable()
    try:
        world = scenario()
        assert len(tasks) == campaigns
        refs = [weakref.ref(world), *map(weakref.ref, world.nodes.values()),
                weakref.ref(world.nodes[TARGET_NODE].device), *tasks]
        del world
        assert [ref() for ref in refs] == [None] * len(refs)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert [type(obj) for obj in gc.garbage if _of_fotasim(obj)] == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_an_ecu_used_after_its_world_is_gone_says_so():
    node = World().add_node("ecu", 2)
    with pytest.raises(ReferenceError):
        node.run_tick()


# -- flash stalls ----------------------------------------------------------


def booted_ecu():
    """An erased ECU after its boot tick: in the bootloader at 1 ms."""
    world = World()
    node = world.add_node("ecu", 2, role="ecu")
    world.tick()
    return world, node


def test_flash_busy_window_gates_every_task():
    world, node = booted_ecu()
    hits = []
    node.add_task(Task("count", TaskPriority.APP, lambda: hits.append(1)))
    node.device.busy_until_us = 3500
    world.run_ticks(3)  # clock samples 1000, 2000, 3000: all inside the window
    assert hits == []
    world.tick()  # clock 4000
    assert hits == [1]


def test_flash_time_accumulates_and_extends_the_stall():
    world, node = booted_ecu()
    device = node.device
    device.unlock(*DEFAULT_UNLOCK_KEYS)
    hits = []
    node.add_task(Task("count", TaskPriority.APP, lambda: hits.append(world.clock_us)))
    device.program(0, bytes(1000), world.clock_us)  # 250 words: 4000 us
    device.program(1000, bytes(500), world.clock_us)  # 2000 us, queued behind it
    assert device.busy_total_us == 6000
    assert node.busy_until_us == device.busy_until_us == 7000
    world.run_ticks(7)  # clock samples 1000..7000: the node stalls until 7000
    assert hits == [7000]
    world.run_ticks(2)  # idle gap
    device.program(1500, bytes(500), world.clock_us)  # stall starts from now
    assert device.busy_total_us == 8000
    assert node.busy_until_us == world.clock_us + 2000


# -- steering task ----------------------------------------------------------


def test_deviation_feed_steers_the_application():
    image = generate_image(8 * KIB, seed=2)
    lines = [b"0.25\n", b"not a number\n"]
    world, _, target = build_world(old_image=image, seed=2, deviation_lines=lines)
    world.tick()  # boot
    world.tick()  # consumes the first reading
    assert target.steering_target == pytest.approx(15.0)  # 0.25 m * 60 deg/m
    assert target.motor == MOTOR_RIGHT
    world.tick()  # consumes the garbage line
    assert len(events_named(world, "BadDeviation")) == 1
    assert target.steering_target == pytest.approx(15.0)
    world.run_ticks(50)
    assert 0.0 < target.steering.position <= 15.5


@pytest.mark.parametrize("item", [0.1, 25, bytearray(b"0.10\n")])
def test_a_feed_item_that_is_not_text_is_a_bad_deviation(item):
    # Tick by tick and through run_ticks alike, the item is logged and
    # steering goes on to the next line.
    image = generate_image(8 * KIB, seed=2)
    lines = ["0.25\n", item, "-0.10\n"]
    (ticked, _, a), (spanned, _, b) = [
        build_world(old_image=image, seed=2, deviation_lines=lines) for _ in range(2)]
    for _ in range(4):  # a boot, then one line a tick
        ticked.tick()
    one_at_a_time = []
    spanned.tick = lambda: (one_at_a_time.append(spanned.clock_us), World.tick(spanned))
    spanned.tick()
    spanned.run_ticks(3)
    (bad,) = events_named(ticked, "BadDeviation")
    assert bad["line"] == repr(item)
    assert bad["time_us"] in one_at_a_time  # a tick, not a span, read the item
    assert spanned.events == ticked.events
    assert a.steering_target == b.steering_target == pytest.approx(-6.0)
    assert repr(a.steering) == repr(b.steering)


def test_feed_exhaustion_keeps_the_last_target():
    image = generate_image(8 * KIB, seed=2)
    world, _, target = build_world(old_image=image, seed=2,
                                   deviation_lines=[b"-0.10\n"])
    world.run_ticks(6)
    assert target.steering_target == pytest.approx(-6.0)
    assert target.steering.position < 0.0


class Unequal(str):
    """A feed line equal to nothing, so the node parses it however it repeats."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = str.__hash__


class UnequalBytes(bytes):
    """The bytes form of :class:`Unequal`."""

    __eq__, __ne__, __hash__ = Unequal.__eq__, Unequal.__ne__, bytes.__hash__


def test_a_repeated_line_steers_as_a_freshly_parsed_one():
    # A line repeated as str, then as equal bytes; a malformed line, once and
    # twice, between two equal lines; and a software reset into the
    # application between two equal lines, after which it steers from zero.
    lines = (["0.25\n"] * 3 + [b"0.25\n"] * 2 + ["0.25\n", "bad\n", "0.25\n", "bad\n",
             "bad\n", "0.25\n", "9" * 400 + ".00\n", "0.25\n"] + ["-0.10\n"] * 4)
    reset_after = 15
    assert lines[reset_after - 1] == lines[reset_after]
    fresh = [UnequalBytes(line) if isinstance(line, bytes) else Unequal(line) for line in lines]
    image = generate_image(8 * KIB, seed=2, gains=PidGains())
    (memo, _, a), (parsed, _, b) = runs = [
        build_world(old_image=image, seed=2, deviation_lines=feed) for feed in (lines, fresh)]

    def tick(count):
        for _ in range(count):
            for world, _, _ in runs:
                world.tick()
            # repr tells -0.0 from 0.0, which == does not.
            assert repr((a.steering_target, a.motor, a.steering)) == \
                repr((b.steering_target, b.motor, b.steering))
            assert memo.events == parsed.events

    tick(1 + reset_after)  # a boot, then one line a tick
    memo.software_reset("target")
    parsed.software_reset("target")
    tick(1 + len(lines) - reset_after)  # a boot, then the rest of the feed
    assert next(a.deviation_feed, None) is None
    assert [e["kind"] for e in events_named(memo, "Reset")] == ["software"]
    assert len(events_named(memo, "BadDeviation")) == 4
    assert (a.mode, a.steering_target, a.motor) == (NodeMode.APPLICATION, -6.0, MOTOR_LEFT)


# -- exports ---------------------------------------------------------------


def test_events_jsonl_is_canonical_json_lines():
    world = World()
    world.add_node("ecu", 2, role="ecu")
    world.run_ticks(2)
    text = world.events_jsonl()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines  # boot left a trace
    for line in lines:
        entry = json.loads(line)
        assert {"time_us", "node", "event"} <= set(entry)
        assert line == json.dumps(entry, sort_keys=True)


def test_frames_csv_lists_every_bus_slot():
    world = World()
    world.bus.trace_enabled = True
    node = world.add_node("box", 9, role="host")
    send_segmented(world.bus, node.endpoint, 0x2AB, b"hi")
    world.run_ticks(3)
    lines = world.frames_csv().splitlines()
    assert lines[0] == "time_us,id_hex,dlc,data_hex,kind"
    assert len(lines) == 3  # header plus one row per transmitted frame
    for row in lines[1:]:
        assert re.fullmatch(r"\d+,2ab,\d,(?:[0-9a-f]{2})*,data", row)


def test_frame_trace_does_not_perturb_a_lossy_campaign():
    """The delta-lossy golden scenario with the bus trace on and off."""
    def run(traced):
        old = generate_image(32 * KIB, seed=22, gains=PidGains())
        new = mutate_blocks(old, count=6, seed=23)
        world, _, _ = build_world(old_image=old, seed=22,
                                  bus=BusConfig(corruption_probability=0.02, rng_seed=22))
        world.bus.trace_enabled = traced
        report = run_campaign(world, CampaignPlan(mode=CampaignMode.DELTA, old_image=old,
                                                  new_image=new, shared_secret=DEFAULT_SECRET))
        return world.events_jsonl(), report.to_json(), world.bus.trace

    events_on, report_on, trace_on = run(True)
    events_off, report_off, trace_off = run(False)
    assert (events_on, report_on) == (events_off, report_off)
    assert any(row["kind"] == "error" for row in trace_on)  # the lottery fired
    assert trace_off == []


def test_same_seed_replays_to_identical_logs():
    def chatter(world, master):
        for _ in range(25):
            send_segmented(world.bus, master.endpoint, 0x101, bytes([0x27, 0x01]))
            yield
            yield

    def run(seed):
        image = generate_image(8 * KIB, seed=3)
        config = BusConfig(corruption_probability=0.3, rng_seed=seed)
        world, master, target = build_world(old_image=image, seed=seed, bus=config)
        world.bus.trace_enabled = True
        master.add_task(Task.from_generator(
            "chatter", TaskPriority.APP, chatter(world, master)))
        world.run_ticks(150)
        return world.events_jsonl(), world.frames_csv()

    events_a, frames_a = run(11)
    events_b, frames_b = run(11)
    assert events_a == events_b
    assert frames_a == frames_b
    errors = [row for row in frames_a.splitlines() if row.endswith(",error")]
    assert errors  # the lottery fired, so the logs exercised the rng
    events_c, frames_c = run(12)
    assert frames_c != frames_a


# -- spans: run_ticks / run_until against tick-by-tick stepping -------------------


def ticked_run_until(world, predicate, max_ticks):
    """The reference stepping: ``World.run_until`` one ``tick()`` at a time."""
    if predicate(world):
        return RunResult(True, world.clock_us, 0)
    for i in range(1, max_ticks + 1):
        world.tick()
        if predicate(world):
            return RunResult(True, world.last_tick_time, i)
    return RunResult(False, world.clock_us, max_ticks)


def ticked_run_ticks(world, count):
    for _ in range(count):
        world.tick()


def observed(world):
    return (world.clock_us, world.last_tick_time, dataclasses.astuple(world.bus.stats),
            world.events_jsonl(), world.frames_csv())


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(CampaignMode),
       corruption=st.sampled_from([0.0, 0.02, 0.2]),
       drop=st.sampled_from([0.0, 0.05]),
       budget=st.sampled_from([0, 3, None]),
       frame_time_us=st.sampled_from([500, 1500]),
       wrong_secret=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       max_ticks=st.one_of(st.just(200_000), st.integers(1, 3000)),
       soak=st.integers(0, 1500),
       feed=st.one_of(st.none(), st.lists(st.sampled_from(
           ["0.10\n", "-0.02\n", "bad\n", "1.5\n"]), max_size=60)),
       trace=st.booleans())
def test_spans_replay_tick_by_tick_stepping_byte_for_byte(
        mode, corruption, drop, budget, frame_time_us, wrong_secret, seed, max_ticks, soak, feed,
        trace):
    old = generate_image(12 * KIB, seed=seed % 1000, gains=PidGains())
    new = mutate_blocks(old, count=1 + seed % 4, seed=seed % 997)
    secret = DEFAULT_SECRET ^ 1 if wrong_secret else DEFAULT_SECRET

    def run(run_until, run_ticks):
        config = BusConfig(frame_time_us=frame_time_us, corruption_probability=corruption,
                           drop_probability=drop, rng_seed=seed, max_auto_retransmit=budget)
        world, _, _ = build_world(old_image=old, seed=seed, bus=config, deviation_lines=feed)
        world.bus.trace_enabled = trace
        task = start_campaign(world, CampaignPlan(mode=mode, old_image=old, new_image=new,
                                                  shared_secret=secret))
        result = run_until(world, lambda w: task.done, max_ticks)
        run_ticks(world, soak)
        return observed(world) + (result, task.done, task.result.to_json())

    spans = run(World.run_until, World.run_ticks)
    ticks = run(ticked_run_until, ticked_run_ticks)
    assert spans == ticks


@settings(max_examples=60, deadline=None)
@given(corruption=st.sampled_from([0.0, 0.1]),
       budget=st.sampled_from([0, 3]),
       frame_time_us=st.sampled_from([500, 1500]),
       seed=st.integers(0, 2**32 - 1),
       script=st.lists(st.tuples(st.sampled_from(["write", "unknown", "raw", "stall", "sleep"]),
                                 st.integers(1, 400)), max_size=12),
       max_ticks=st.integers(1, 3000),
       tail=st.integers(0, 500),
       trace=st.booleans())
def test_stalls_and_landing_frames_replay_tick_by_tick_stepping(
        corruption, budget, frame_time_us, seed, script, max_ticks, tail, trace):
    """A host sends trains to an ECU in its bootloader, which answers the
    writes (NACKs: it is locked) and logs the unknown commands.  A stall can
    end mid-train, a train's completing or breaking frame lands in the
    advance that streams up to it, and ``run_until`` reports the result of
    tick-by-tick stepping."""
    def run(run_until, run_ticks):
        world = World(BusConfig(frame_time_us=frame_time_us, corruption_probability=corruption,
                                rng_seed=seed, max_auto_retransmit=budget))
        world.bus.trace_enabled = trace
        host = world.add_node("host", 1, role="host")
        ecu = world.add_node("ecu", 2, role="ecu", reply_id=0x102)  # erased: its bootloader
        replies = []

        def now():
            return world.clock_us

        def drain():
            while host.endpoint.rx:
                replies.append(repr(host.endpoint.rx.popleft()))

        def host_script():
            for kind, size in script:
                if kind in ("write", "unknown"):
                    code = BootloaderCommand.MEM_WRITE if kind == "write" else 0x40
                    send_segmented(world.bus, host.endpoint, 0x101, bytes([code]) + bytes(size))
                elif kind == "raw":  # a header whose CRC lies, or a body frame likely out of phase
                    raw = bytes([0xA0, size % 256]) + bytes(6) if size % 2 else bytes([size % 3]) * 8
                    world.bus.transmit(host.endpoint, CanFrame(0x101, raw))
                elif kind == "stall":  # from now; it may end in the middle of a train
                    ecu.device.busy_until_us = now() + size * 150
                else:
                    yield from wait_for(now, now() + size * 100, drain)
            yield from wait_for(now, now() + 200_000, drain)

        task = Task.from_generator("script", TaskPriority.APP, host_script())
        host.add_task(task)
        result = run_until(world, lambda w: task.done, max_ticks)
        run_ticks(world, tail)
        return observed(world) + (result, replies, repr(list(ecu.endpoint.rx)))

    spans = run(World.run_until, World.run_ticks)
    assert spans == run(ticked_run_until, ticked_run_ticks)


_FEED_LINES = ["0.10\n", "-0.02\n", "bad\n", b"0.10\n", None]


def steering_world(feeds, host_at, wakes, reset_at, stall_at=None, stall_us=0):
    """ECU ``a`` (and ``b`` given a second feed) booting into the
    application, each steering by its feed, and a host at position
    ``host_at`` in tick order that sleeps through ``wakes``, software-resets
    the last ECU at wake ``reset_at`` and stalls ``a``'s flash for
    ``stall_us`` at wake ``stall_at``."""
    world = World()
    names = ["a", "b"][:len(feeds)]
    names.insert(host_at, "host")
    ecus = []
    for node_id, name in enumerate(names, 1):
        if name == "host":
            host = world.add_node(name, node_id, role="host")
            continue
        ecu = world.add_node(name, node_id, role="ecu", deviation_feed=feeds[len(ecus)])
        provision_application(ecu.device, generate_image(8 * KIB, seed=node_id, gains=PidGains()))
        ecu.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
        ecus.append(ecu)

    def sleeper():
        for k, gap in enumerate(wakes):
            yield from wait_for(lambda: world.clock_us, world.clock_us + gap, lambda: None)
            if k == reset_at:
                world.software_reset(ecus[-1].name)
            if k == stall_at:
                world.nodes["a"].device.busy_until_us = world.clock_us + stall_us

    host.add_task(Task.from_generator("sleep", TaskPriority.APP, sleeper()))
    return world, ecus


@settings(max_examples=60, deadline=None)
@given(feeds=st.lists(st.lists(st.tuples(st.sampled_from(_FEED_LINES), st.integers(1, 80)),
                               max_size=8), min_size=1, max_size=2),
       host_at=st.integers(0, 2),
       wakes=st.lists(st.integers(1_000, 60_000), max_size=6),
       reset_at=st.integers(0, 8),
       stall_at=st.integers(0, 8),
       stall_us=st.integers(1, 50_000),
       chunks=st.lists(st.integers(1, 400), min_size=1, max_size=6))
def test_steering_spans_replay_tick_by_tick_stepping(feeds, host_at, wakes, reset_at, stall_at,
                                                     stall_us, chunks):
    # Feeds change line at random ticks, hold malformed lines and None, and
    # run dry; spans start and stop at random ticks, and a stalled
    # application steers again once its stall ends.  One ECU glides between
    # its new lines, with the host before or after it; two ECUs tick.
    def state(world, ecus):
        return (world.clock_us, world.last_tick_time, world.events_jsonl(),
                [repr((n.mode, n.steering, n.steering_target, n.motor)) for n in ecus])

    lines = [[line for line, count in feed for _ in range(count)] for feed in feeds]
    (spanned, a), (ticked, b) = [
        steering_world([iter(x) for x in lines], host_at, wakes, reset_at, stall_at, stall_us)
        for _ in range(2)]
    for count in chunks:
        spanned.run_ticks(count)
        ticked_run_ticks(ticked, count)
        assert state(spanned, a) == state(ticked, b)


def test_a_second_steering_node_logs_where_ticks_would():
    # ``b`` comes after ``a`` in tick order: at the tick ``b`` logs, ``a`` has
    # steered and the host after both runs; neither steers past that tick.
    feeds = (["0.10\n"] * 200, ["-0.02\n"] * 70 + ["bad\n"] + ["0.10\n"] * 50)
    worlds = [steering_world([iter(feed) for feed in feeds], 2, [90_000], 9) for _ in range(2)]
    (spanned, a), (ticked, b) = worlds
    ticks = []
    spanned.tick = lambda: (ticks.append(spanned.clock_us), World.tick(spanned))
    spanned.run_ticks(150)
    ticked_run_ticks(ticked, 150)
    (bad,) = events_named(spanned, "BadDeviation")
    assert (bad["node"], bad["time_us"]) == ("b", 71_000)  # the boot tick, then one line a tick
    assert bad["time_us"] in ticks  # a tick, not a span, logged it
    assert spanned.events == ticked.events
    for x, y in zip(a, b):
        assert repr((x.steering, x.steering_target, x.motor)) == \
            repr((y.steering, y.steering_target, y.motor))


@pytest.mark.parametrize("host_first", [True, False])
def test_a_target_that_turns_non_finite_mid_run_raises_where_ticks_would(host_first):
    # The host spoils the target at 40 ms; the next steering step raises,
    # leaving the steering state, the clock and the last tick's time where
    # tick-by-tick leaves them.
    def run(run_ticks):
        world = World()
        order = [("host", 1), ("ecu", 2)] if host_first else [("ecu", 2), ("host", 1)]
        for name, node_id in order:
            if name == "host":
                host = world.add_node(name, node_id, role="host")
            else:
                ecu = world.add_node(name, node_id, role="ecu",
                                     deviation_feed=itertools.repeat("0.10\n"))
        provision_application(ecu.device, generate_image(8 * KIB, seed=3, gains=PidGains()))
        ecu.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)

        def spoil():
            yield from wait_for(lambda: world.clock_us, 40_000, lambda: None)
            ecu.steering_target = math.inf
            yield from wait_for(lambda: world.clock_us, 10**9, lambda: None)

        host.add_task(Task.from_generator("spoil", TaskPriority.APP, spoil()))
        with pytest.raises(NonFiniteInput):
            run_ticks(world, 100)
        return world.clock_us, world.last_tick_time, repr(ecu.steering), world.events_jsonl()

    spans = run(World.run_ticks)
    assert spans == run(ticked_run_ticks)
    at = 40_000 if host_first else 41_000
    assert spans[:2] == (at, at)  # the clock, and the tick the step raised in


def talking_worlds():
    """Two identical worlds: a host queues a 700-byte message (101 frames)
    for an erased ECU, which has booted into its bootloader and listens."""
    worlds = []
    for _ in range(2):
        world = World()
        world.bus.trace_enabled = True
        host = world.add_node("host", 1, role="host")
        ecu = world.add_node("ecu", 2, role="ecu")
        world.tick()
        send_segmented(world.bus, host.endpoint, 0x101, bytes(range(100)) * 7)
        worlds.append((world, ecu))
    return worlds


def test_run_ticks_lands_on_the_tick_mid_message():
    (spans, _), (ticks, _) = talking_worlds()
    one_at_a_time = []
    spans.tick = lambda: (one_at_a_time.append(spans.clock_us), World.tick(spans))
    spans.run_ticks(37)
    ticked_run_ticks(ticks, 37)
    # The boot logged events, so one tick runs alone; the other 36 frames stream.
    assert one_at_a_time == [DEFAULT_TICK_US]
    assert spans.clock_us == 38 * DEFAULT_TICK_US
    assert spans.bus.stats.frames_sent == 37
    assert observed(spans) == observed(ticks)
    spans.run_ticks(64)  # the message's last frame, then the ECU serves it
    ticked_run_ticks(ticks, 64)
    assert observed(spans) == observed(ticks)
    assert [e["command"] for e in events_named(spans, "CommandServed")] == ["unknown"]


@pytest.mark.parametrize("stall_until_us", [0, 50_000])
def test_a_trains_completing_frame_lands_in_the_advance_that_streams_up_to_it(stall_until_us):
    # A stall that ends mid-train, with nothing queued and no task due, cuts no span.
    (spans, a), (ticks, b) = talking_worlds()
    a.device.busy_until_us = b.device.busy_until_us = stall_until_us
    advances = []
    spans._advance = lambda budget: advances.append(World._advance(spans, budget)) or advances[-1]

    def served(world):
        return bool(events_named(world, "CommandServed"))

    result = spans.run_until(served, 500)
    assert result == ticked_run_until(ticks, served, 500) == RunResult(True, 101_000, 101)
    # The boot's events hold the header back to a tick of its own; then 99
    # body frames stream and the last one lands in the same advance.
    assert advances == [1, 100]
    assert observed(spans) == observed(ticks)


def test_a_stalled_ecu_queues_whole_messages_and_serves_them_once_the_flash_frees():
    # Frames reassemble as they land, stall or not: the stalled bootloader's
    # receive queue holds the two messages, not their 202 frames.
    worlds = []
    for _ in range(2):
        world = World()
        world.bus.trace_enabled = True
        host = world.add_node("host", 1, role="host")
        ecu = world.add_node("ecu", 2, role="ecu")
        world.tick()  # erased: the ECU boots into its bootloader
        ecu.device.busy_until_us = 400_000
        for first in (0x40, 0x41):
            send_segmented(world.bus, host.endpoint, 0x101, bytes([first]) + bytes(699))
        worlds.append((world, ecu))
    (spans, ecu), (ticks, _) = worlds
    spans.run_ticks(300)
    ticked_run_ticks(ticks, 300)
    assert observed(spans) == observed(ticks)
    assert [(type(m).__name__, m.payload[0]) for m in ecu.endpoint.rx] == \
        [("SegmentedMessage", 0x40), ("SegmentedMessage", 0x41)]
    assert events_named(spans, "CommandServed") == []

    def served(world):
        return bool(events_named(world, "CommandServed"))

    assert spans.run_until(served, 200) == ticked_run_until(ticks, served, 200)
    assert observed(spans) == observed(ticks)
    assert [(e["time_us"], e["command"], e["code"]) for e in events_named(spans, "CommandServed")] \
        == [(400_000, "unknown", 0x40), (400_000, "unknown", 0x41)]
    assert not ecu.endpoint.rx


def test_reset_during_a_stall_boots_once_the_flash_is_free():
    # The gates in order: the pending reset goes first, then the stall holds
    # the boot back until the flash leaves its busy window.
    def run(run_ticks):
        world, _, target = build_world(old_image=generate_image(8 * KIB, seed=5), seed=5)
        world.tick()
        target.device.busy_until_us = 50_000
        target.pending_reset = True
        run_ticks(world, 60)
        return observed(world) + (target.mode, target.boot_count)

    spans = run(World.run_ticks)
    assert spans == run(ticked_run_ticks)
    events = [json.loads(line) for line in spans[3].splitlines()]
    assert [(e["time_us"], e["event"]) for e in events[2:]] == \
        [(1000, "Reset"), (50_000, "Boot"), (50_000, "Decision")]
    assert spans[-2:] == (NodeMode.APPLICATION, 2)


def test_a_steering_span_ends_on_its_event_tick_as_a_tick_would():
    # The application's own waiting task and the nodes after it in tick order
    # see the BadDeviation in the tick that logs it, as World.tick has them.
    def run(run_ticks):
        image = generate_image(8 * KIB, seed=4, gains=PidGains())
        world, master, target = build_world(old_image=image, seed=4,
                                            deviation_lines=["0.10\n"] * 5 + ["bad\n"])
        world.tick()  # boots into the application
        seen = []

        def watch(node):
            logged = len(world.events)
            while True:
                if len(world.events) != logged:  # new only when an event lands
                    logged = len(world.events)
                    seen.append((node.name, world.clock_us, logged))
                yield 10**9

        for node in (target, master):
            node.add_task(Task.from_generator("watch", TaskPriority.APP, watch(node)))
        run_ticks(world, 20)
        return observed(world) + (seen,)

    spans = run(World.run_ticks)
    assert spans == run(ticked_run_ticks)
    assert [name for name, _, _ in spans[-1]] == ["target", "master"]


def test_a_steering_event_tick_runs_the_nodes_after_the_steering_one():
    # The host comes after the application ECU in tick order, so the tick
    # at which steering logs an event must run it.
    lines = ["0.10\n"] * 40 + ["bad\n"] + ["-0.05\n"] * 40

    def run(spanned):
        world = World()
        ecu = world.add_node("ecu", 2, role="ecu", deviation_feed=lines)
        provision_application(ecu.device, generate_image(8 * KIB, seed=8, gains=PidGains()))
        ecu.regs.write_flag(APP_ENTER_REG, BootFlag.ENTER)
        host = world.add_node("host", 1, role="host")
        ticked, host_ran, woke = [], [], []
        world.tick = lambda: (ticked.append(world.clock_us), World.tick(world))
        host.run_tick = lambda: (host_ran.append(world.clock_us), Node.run_tick(host))

        def now():
            return world.clock_us

        def waiter():
            while True:
                yield from wait_for(now, now() + 30_000, lambda: None)
                woke.append(now())

        host.add_task(Task.from_generator("wait", TaskPriority.APP, waiter()))
        if spanned:
            world.run_ticks(120)
        else:
            for _ in range(120):
                world.tick()
        (bad,) = events_named(world, "BadDeviation")
        return (world.events_jsonl(), world.clock_us, woke, repr(ecu.steering),
                ecu.steering_target), bad["time_us"], ticked, host_ran

    spans, bad_at, ticked, host_ran = run(spanned=True)
    assert spans == run(spanned=False)[0]
    assert spans[1] == 120 * DEFAULT_TICK_US
    assert spans[2] == [30_000, 60_000, 90_000]
    assert bad_at in ticked and bad_at in host_ran  # a tick, not a span, logged it


_NODE_CODE = ("_serve", "_steer", "_run_tasks", "_boot", "run_tick")


@settings(max_examples=40, deadline=None)
@given(feeds=st.lists(st.lists(st.tuples(st.sampled_from(_FEED_LINES), st.integers(1, 80)),
                               max_size=8), min_size=1, max_size=2),
       host_at=st.integers(0, 2),
       wakes=st.lists(st.integers(1_000, 60_000), max_size=6),
       reset_at=st.integers(0, 8),
       stall_at=st.integers(0, 8),
       stall_us=st.integers(1, 50_000),
       ticks=st.integers(1, 600))
def test_only_world_tick_runs_node_code(feeds, host_at, wakes, reset_at, stall_at, stall_us,
                                        ticks):
    # A span only skips: serving, steering, tasks, boots and run_tick itself
    # run inside a World.tick, whatever the spans around them pass.
    inside, outside, ran = [], [], []
    real_tick = World.tick

    def tick(world):
        inside.append(world)
        try:
            real_tick(world)
        finally:
            inside.pop()

    def watch(name, real):
        def watched(node, *args):
            (ran if inside else outside).append((name, node.name))
            return real(node, *args)
        return watched

    lines = [[line for line, count in feed for _ in range(count)] for feed in feeds]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(World, "tick", tick)
        for name in _NODE_CODE:
            patch.setattr(Node, name, watch(name, getattr(Node, name)))
        world, _ = steering_world([iter(x) for x in lines], host_at, wakes, reset_at, stall_at,
                                  stall_us)
        world.run_ticks(ticks)
        (talking, _), _ = talking_worlds()
        talking.run_until(lambda w: bool(events_named(w, "CommandServed")), 500)
    assert outside == []
    assert {name for name, _ in ran} >= {"run_tick", "_boot", "_run_tasks", "_serve"}


def test_run_ticks_lands_on_the_tick_mid_stall():
    world, node = booted_ecu()
    hits = []
    node.add_task(Task("count", TaskPriority.APP, lambda: hits.append(world.clock_us)))
    node.device.busy_until_us = 10_500
    world.run_ticks(5)  # clock samples 1000..5000, all stalled
    assert (world.clock_us, world.last_tick_time, hits) == (6000, 5000, [])
    world.run_ticks(10)  # 6000..15000; the stall ends at the tick sampling 11000
    assert world.clock_us == 16_000
    assert hits == [11_000, 12_000, 13_000, 14_000, 15_000]


def test_every_tick_host_task_keeps_ticking_one_at_a_time():
    world, node = host_world()
    world.bus.trace_enabled = True
    stepped, resumed = [], []

    def bare_yields():
        while True:
            resumed.append(world.clock_us)
            yield

    node.add_task(Task("count", TaskPriority.APP, lambda: stepped.append(world.clock_us)))
    node.add_task(Task.from_generator("poll", TaskPriority.COMM, bare_yields()))
    send_segmented(world.bus, node.endpoint, 0x100, bytes(70))  # 11 frames, nobody hears
    world.run_ticks(15)
    every_tick = [t * DEFAULT_TICK_US for t in range(15)]
    assert stepped == resumed == every_tick
    sent_at = [int(row.split(",")[0]) for row in world.frames_csv().splitlines()[1:]]
    assert sent_at == every_tick[:11]


def test_deadline_yield_sleeps_until_its_deadline():
    world, node = host_world()
    resumed = []

    def sleeper():
        while world.clock_us < 7000:
            resumed.append(world.clock_us)
            yield 7000
        resumed.append(world.clock_us)

    task = Task.from_generator("sleep", TaskPriority.COMM, sleeper())
    node.add_task(task)
    result = world.run_until(lambda w: task.done, max_ticks=50)
    assert resumed == [0, 7000]
    assert result == RunResult(True, 7000, 8)
    assert world.clock_us == 8000
