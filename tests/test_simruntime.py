"""World scheduler: tick clock, task ordering, boot dispatch, resets, logs."""

import dataclasses
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim.canbus import BusConfig, send_segmented
from fotasim.flashmodel import DEFAULT_UNLOCK_KEYS
from fotasim.lka import MOTOR_LEFT, MOTOR_RIGHT, PARAM_OFFSET, PidGains, pack_image
from fotasim.nvstore import APP_ENTER_REG, UPDATER_ENTER_REG, BootFlag
from fotasim.orchestrator import CampaignMode, CampaignPlan, run_campaign, start_campaign
from fotasim.scenario import (DEFAULT_SECRET, build_world, generate_image, mutate_blocks,
                              world_from_scenario)
from fotasim.simruntime import (
    DEFAULT_TICK_US,
    NodeMode,
    RunResult,
    Task,
    TaskPriority,
    World,
)

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
    target = world.node("target")
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
    # Tick by tick and in a steering span alike, the item is logged and
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
    assert bad["time_us"] not in one_at_a_time  # the span, not a tick, read the item
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
