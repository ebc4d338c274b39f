"""Deterministic discrete-time world: one CAN bus plus any number of nodes.

A tick is: one bus step, then every node runs its ready tasks in priority
order (communication before storage before application), run to
completion.  The clock then advances by the larger of the bus frame time
and the 1 ms base tick.  All randomness flows from seeds held in the bus
and the security sessions, so a (seed, scenario) pair replays to an
identical event log, byte for byte.

:meth:`World.tick` is that tick.  :meth:`World.run_ticks` and
:meth:`World.run_until` give the same result, tick count and clock, but
skip a span of ticks in one step when no node's ``run_tick`` would act in
any of them; every tick that acts is a ``tick()``.  A node is quiet while
it waits: an ECU stalled on flash until its busy horizon (or a later
wake-up of its own), an ECU serving as bootloader or updater until its
endpoint queues a message or a transport error, a host until every task's
yielded deadline or such an arrival.  A span streams one sender's frames
up to one that would complete or break a message on any receiver
(:meth:`Bus.stream <fotasim.canbus.Bus.stream>`), or, on an idle bus, jumps
the clock to the earliest wake-up or glides the one steering application
ECU up to a new feed line (:func:`~fotasim.lka.steer`); a tick sends that
frame or reads that line.  A task without a deadline runs every tick.

A node's ``role`` says what it is.  An ECU owns a flash device, backup
registers and a security session and lives the boot-chain life: reset,
decide, then serve as application, bootloader or updater until the next
reset.  An updater that holds an embedded image installs it as the
bootloader at once; one that holds none serves host commands.  A software
reset preserves backup registers; a power cycle clears them.  A host (the
update master) is an endpoint and the tasks installed on it, nothing more;
it has nothing to reset.

No reference cycle runs through a world.  An ECU holds its world, and its
callbacks hold the ECU, through :func:`weakref.proxy`, and a task holds
only its generator, which its node advances, so a dropped world frees at
once, flash included, without waiting for the cyclic collector.  An ECU
used after its world is gone raises :class:`ReferenceError`.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Generator

from .bootflow import (BootDecision, EcuContext, app_serve, boot_decide, bootloader_serve,
                       updater_serve, updater_silent)
from .canbus import ACCEPT_ALL, Bus, BusConfig, CanError, recv_segmented, send_segmented
from .flashmodel import APP_REGION, FlashDevice
from .lka import (
    PARAM_END,
    PidGains,
    SteeringState,
    deviation_to_target,
    motor_order,
    parse_deviation_line,
    read_gains,
    steer,
)
from .nvstore import BackupRegisters
from .uds import SecuritySession

DEFAULT_TICK_US = 1000
_TICK_S = DEFAULT_TICK_US / 1_000_000


class TaskPriority(IntEnum):
    COMM = 0
    NVM = 1
    APP = 2


class Task:
    """One schedulable unit: a generator, advanced once per tick by its
    node, and done when it returns (its return value lands in ``result``).

    ``wake_us`` is the clock the task next needs a tick at; None means every
    tick.  The generator sets it by what it yields: a deadline in us, under
    the promise :func:`~fotasim.canbus.wait_for` states, or a bare
    ``yield`` for the next tick."""

    def __init__(self, name: str, priority: TaskPriority, gen: Generator):
        self.name = name
        self.priority = priority
        self.gen = gen
        self.done = False
        self.result = None
        self.wake_us: float | None = None

    def cancel(self) -> None:
        self.done = True


class NodeMode(Enum):
    BOOT = "boot"
    APPLICATION = "application"
    BOOTLOADER = "bootloader"
    UPDATER = "updater"


# Tick-loop aliases: EnumType.__getattr__ makes each NodeMode.X read ~10x slower than a global.
_BOOT, _APPLICATION = NodeMode.BOOT, NodeMode.APPLICATION
_RESET, _STALL = "reset", "stall"  # the gates before a boot (see Node._gate)

_MODE_OF = {BootDecision.JUMP_APPLICATION: _APPLICATION,
            BootDecision.JUMP_BOOTLOADER: NodeMode.BOOTLOADER,
            BootDecision.JUMP_UPDATER: NodeMode.UPDATER}

_NEVER = math.inf  # the wake-up of a node that only a frame or an event can stir


class Node:
    """One bus participant.  A host (``role == "host"``) is its endpoint and
    whatever tasks get installed; an ECU (``role == "ecu"``) also gets flash,
    registers, a security session and the boot-chain behaviour."""

    def __init__(self, world: "World", name: str, node_id: int, *,
                 role: str = "ecu",
                 filters=ACCEPT_ALL,
                 reply_id: int | None = None,
                 shared_secret: int = 0,
                 session_seed: int = 1,
                 updater_image: bytes | None = None,
                 deviation_feed=None,
                 fault_hook=None):
        self.name = name
        self.node_id = node_id
        self.role = role
        self.endpoint = world.bus.attach(node_id, filters)
        self.tasks: list[Task] = []
        if role == "host":
            return

        self.world = world = weakref.proxy(world)  # no cycle (see the module docstring)
        self.reply_id = reply_id
        self.device = FlashDevice()
        self.regs = BackupRegisters()
        self.session = SecuritySession(shared_secret, session_seed)
        self.deviation_feed = iter(deviation_feed) if deviation_feed is not None else None
        self.mode = NodeMode.BOOT
        self.pending_reset = False
        self.boot_count = 0
        node = weakref.proxy(self)
        self.ctx = EcuContext(
            device=self.device,
            regs=self.regs,
            session=self.session,
            updater_image=updater_image,
            now=lambda: world.clock_us,
            log=lambda event, **detail: world.log(name, event, **detail),
            request_reset=lambda: setattr(node, "pending_reset", True),
            fault_hook=fault_hook,
        )
        # Steering loop state, live while the node runs as an application.
        self._start_steering(PidGains())

    # -- plumbing ----------------------------------------------------------

    def add_task(self, task: Task) -> None:
        self.tasks.append(task)
        self.tasks.sort(key=lambda t: t.priority)

    @property
    def busy_until_us(self) -> int:
        """When the node's flash device leaves its busy window."""
        return self.device.busy_until_us

    def _reset(self, kind: str) -> None:
        # Backup registers survive on purpose; everything volatile goes.
        self.session.reset()
        self.device.reset()
        self.endpoint.clear()
        self.pending_reset = False
        self.mode = NodeMode.BOOT
        self.world.log(self.name, "Reset", kind=kind)

    # -- per-tick behaviour --------------------------------------------------

    def _gate(self, now_us: int):
        """The first gate an ECU meets at ``now_us``: a pending reset, a
        stall on its busy flash, a boot after a reset, or None when it runs."""
        if self.pending_reset:
            return _RESET
        if now_us < self.device.busy_until_us:
            return _STALL
        return _BOOT if self.mode is _BOOT else None

    def run_tick(self) -> None:
        """An ECU acts on its first gate (:meth:`_gate`), or else serves in
        its mode, steers if in the application, then runs its tasks: a task
        added to an ECU runs after both, whatever its priority.  A host
        runs its tasks."""
        if self.role == "ecu":
            gate = self._gate(self.world.clock_us)
            if gate is not None:
                if gate is _BOOT:
                    self._boot()
                elif gate is _RESET and not self.endpoint.tx:  # replies flushed: go down
                    self._reset("software")
                return
            self._serve()
            if self.mode is _APPLICATION:
                self._steer()
        self._run_tasks()

    def _run_tasks(self) -> None:
        tasks = self.tasks
        for task in tasks:
            if not task.done:
                try:
                    task.wake_us = next(task.gen)
                except StopIteration as stop:
                    task.result = stop.value
                    task.done = True
        for task in tasks:
            if task.done:
                self.tasks = [t for t in tasks if not t.done]
                break

    def _quiet(self, now_us: int) -> tuple[float, bool] | None:
        """None when ``run_tick`` at ``now_us`` could act but steer; else
        ``(wake_us, steers)``: the clock of the first tick at which it
        could, and whether it steers; a span skips only quiet ticks.  Of an
        ECU's gates (:meth:`_gate`) only a stall is quiet, whatever its
        receive queue holds, until the later of its end and the wake-up these
        rules give then (for an application, its end); past them a node with
        a queued message or error acts, and an application steers.  Hosts
        without tasks never act."""
        if self.role == "ecu":
            gate = self._gate(now_us)
            if gate is _STALL:
                after = self._quiet(self.device.busy_until_us)
                return (self.device.busy_until_us, False) if after is None or after[1] else after
            if gate is not None:
                return None
        elif not self.tasks:
            return _NEVER, False
        if self.endpoint.rx:
            return None
        wake = _NEVER
        for task in self.tasks:
            if task.done or task.wake_us is None or task.wake_us <= now_us:
                return None
            wake = min(wake, task.wake_us)
        return wake, self.role == "ecu" and self.mode is _APPLICATION

    def _boot(self) -> None:
        self.world.log(self.name, "Boot")
        decision = boot_decide(self.device, self.regs)
        self.boot_count += 1
        self.world.log(self.name, "Decision", decision=decision.value)
        self.mode = _MODE_OF[decision]
        if self.mode is _APPLICATION:
            self._enter_application()
        elif self.mode is NodeMode.UPDATER and self.ctx.updater_image is not None:
            updater_silent(self.ctx)

    def _enter_application(self) -> None:
        # The application region always spans the gains; a short image
        # leaves them erased, and erased bytes decode as NaN.
        params, _ = self.device.read(APP_REGION.start, PARAM_END)
        gains = read_gains(params)
        # Gains that are not all finite fall back to the builtin tuning.
        self._start_steering(gains if gains.finite() else PidGains())

    def _start_steering(self, gains: PidGains) -> None:
        self.gains = gains
        self.steering = SteeringState()
        self.steering_target = 0.0
        self.motor = 0
        self._steered_by = None  # the feed line that set steering_target
        self._held = None  # a new line read ahead by _glide, which the next _steer takes

    def _serve(self) -> None:
        while self.endpoint.rx and not self.pending_reset:
            try:
                msg = recv_segmented(self.endpoint)
            except CanError as exc:
                self.world.log(self.name, "TransportError", error=type(exc).__name__)
                continue
            # Looked up as module globals per call: perfbench's tracer rebinds these names.
            if self.mode is _APPLICATION:
                reply = app_serve(self.ctx, msg.payload)
            elif self.mode is NodeMode.BOOTLOADER:
                reply = bootloader_serve(self.ctx, msg.payload)
            else:
                reply = updater_serve(self.ctx, msg.payload)
            if reply is not None and self.reply_id is not None:
                send_segmented(self.world.bus, self.endpoint, self.reply_id, reply)

    def _steer(self) -> None:
        if self._held is None and self._glide(1):  # no new line to parse
            return
        line, self._held = self._held, None
        try:
            deviation = parse_deviation_line(line)
        except ValueError:
            self.world.log(self.name, "BadDeviation", line=repr(line))
        else:
            self.steering_target = deviation_to_target(deviation)
            self.motor = motor_order(deviation)
            self._steered_by = line
        self.steering = steer(self.steering, self.gains, self.steering_target, _TICK_S)[1]

    def _glide(self, ticks: int) -> int:
        """Steer up to ``ticks`` ticks as one :func:`~fotasim.lka.steer` loop; returns how
        many.  It only skips: a new feed line (unequal to the one that set the target) ends
        it, held for the :meth:`_steer` of the tick that reads it."""
        _, self.steering, ran, self._held = steer(self.steering, self.gains, self.steering_target,
                                                  _TICK_S, ticks, self.deviation_feed,
                                                  self._steered_by)
        return ran


@dataclass(frozen=True)
class RunResult:
    met: bool
    at_time_us: int
    ticks: int


class World:
    def __init__(self, bus_config: BusConfig | None = None):
        self.bus = Bus(bus_config)
        self.clock_us = 0
        self.nodes: dict[str, Node] = {}  # insertion order is the tick order
        self.events: list[dict] = []
        self.last_tick_time = 0
        self._events_before_tick = 0  # len(events) when the last tick began
        self._sender = None  # the bus's arbitration winner, if _advance holds it

    # -- construction --------------------------------------------------------

    def add_node(self, name: str, node_id: int, **kwargs) -> Node:
        if name in self.nodes:
            raise ValueError(f"node name {name!r} already used")
        node = Node(self, name, node_id, **kwargs)
        self.nodes[name] = node
        return node

    # -- time ----------------------------------------------------------------

    def log(self, node: str, event: str, **detail) -> None:
        entry = {"time_us": self.clock_us, "node": node, "event": event}
        entry.update(detail)
        self.events.append(entry)

    def tick(self) -> None:
        """One tick: a bus step, then every node's ``run_tick``."""
        sender, self._sender = self._sender, None
        self._events_before_tick = len(self.events)
        self.last_tick_time = self.clock_us
        _, elapsed = self.bus.step(self.clock_us, sender)
        for node in self.nodes.values():
            node.run_tick()
        self.clock_us += max(elapsed, DEFAULT_TICK_US)

    def _advance(self, budget: int) -> int:
        """Move time by up to ``budget`` ticks; returns how many it took.

        A span only skips ticks in which no node's ``run_tick`` would act
        but steer; every tick that acts is a :meth:`tick`.  The bus streams
        one sender's frames, or, idle, the clock jumps to the earliest
        wake-up or the one steering node glides (:meth:`Node._glide`).  A
        stream stopped before a frame it does not carry, or a glide stopped
        at a new feed line, ends with the :meth:`tick` that sends or reads
        it.  No span follows a tick that logged an event (a node earlier in
        tick order has not seen it).  The stream and the tick after it take
        one arbitration's winner: no node runs in between, and a stream that
        stops short leaves its entry at the head."""
        now, span, sender = self.clock_us, 0, None
        if len(self.events) == self._events_before_tick:
            wake, steering = _NEVER, []
            for node in self.nodes.values():
                quiet = node._quiet(now)
                if quiet is None:
                    break
                wake = min(wake, quiet[0])
                if quiet[1]:
                    steering.append(node)
            else:
                bus = self.bus
                sender = bus._winner()  # None when the bus is idle
                tick_us = DEFAULT_TICK_US
                if sender:
                    tick_us = max(bus.config.frame_time_us, DEFAULT_TICK_US)
                span, lands = budget, False
                if wake != _NEVER:  # the ticks that sample the clock before the wake-up
                    span = min(span, -int((now - wake) // tick_us))
                if steering and (sender or len(steering) > 1):
                    span = 0  # a glide passes no tick at which another node acts
                elif steering:
                    self.last_tick_time = now  # where a tick whose steering raises leaves it
                    ran = steering[0]._glide(span)
                    span, lands = ran, ran < span
                elif sender:
                    span, lands = bus.stream(now, tick_us, span, sender)
                if span:
                    self.last_tick_time = now + (span - 1) * tick_us
                    self.clock_us = now + span * tick_us
                    if not lands:
                        return span
        self._sender = sender
        self.tick()
        return span + 1

    def run_ticks(self, count: int) -> None:
        """Advance exactly ``count`` ticks."""
        while count > 0:
            count -= self._advance(count)

    def run_until(self, predicate: Callable[["World"], bool], max_ticks: int) -> RunResult:
        """Tick until ``predicate(world)`` holds, at most ``max_ticks`` ticks;
        the reported time is the timestamp the triggering tick's events
        carry.

        Spans of ticks in which no node could act but steer pass in one
        step, so the predicate is re-checked whenever a node could have
        acted, not at every tick: it should read node or task state, not
        steering, and a time budget belongs in ``max_ticks``."""
        if predicate(self):
            return RunResult(True, self.clock_us, 0)
        ticks = 0
        while ticks < max_ticks:
            ticks += self._advance(max_ticks - ticks)
            if predicate(self):
                return RunResult(True, self.last_tick_time, ticks)
        return RunResult(False, self.clock_us, max_ticks)

    # -- resets ----------------------------------------------------------------

    def _ecu(self, name: str) -> Node:
        node = self.nodes[name]
        if node.role != "ecu":
            raise ValueError(f"node {name!r} is a host: a host has nothing to reset")
        return node

    def software_reset(self, name: str) -> None:
        """Out-of-band reset: volatile state goes, backup registers stay."""
        self._ecu(name)._reset("software")

    def power_cycle(self, name: str) -> None:
        node = self._ecu(name)
        node.regs.clear()
        node.device.busy_until_us = 0
        node._reset("power")

    # -- export ----------------------------------------------------------------

    def events_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events) + "\n"

    def frames_csv(self) -> str:
        lines = ["time_us,id_hex,dlc,data_hex,kind"]
        for row in self.bus.trace:
            lines.append(
                f"{row['time_us']},{row['id']:03x},{row['dlc']},{row['data']},{row['kind']}"
            )
        return "\n".join(lines) + "\n"
