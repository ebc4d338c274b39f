"""Simulated CAN bus with standard-id arbitration plus a segmented transport.

Transport wire format (all frames dlc <= 8, payload <= 65535 bytes):

    header frame:  A0 | len_lo len_hi | crc32 (4 bytes, little-endian) | 00
    body frame:    seq (mod 256, from 0) | up to 7 payload bytes

The CRC in the header is CRC-32/MPEG-2 over the whole payload and is what
receivers check after reassembly.  One bus step transmits exactly one
frame: the pending frame with the lowest id wins arbitration (FIFO order
breaks ties).  Fault injection corrupts or drops the frame under
transmission; a corrupted frame is signalled as an error frame and never
reaches a receive FIFO, and the sender re-queues it until its retransmit
budget runs out, at which point the node counts a bus-off.  A stream is
that step repeated for one sender's frame train, one frame per tick.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from random import Random

from .integrity import crc32

MAX_STANDARD_ID = 0x7FF
MAX_FRAME_DATA = 8
MAX_SEGMENTED_PAYLOAD = 0xFFFF

HEADER_MARKER = 0xA0
BODY_CHUNK = 7

ACCEPT_ALL = ((0x000, 0x000),)

_HEADER = struct.Struct("<BHIB")
_SEQ_BYTES = tuple(bytes((n,)) for n in range(256))


class CanError(Exception):
    pass


class MalformedFrame(CanError):
    pass


class DuplicateNode(CanError):
    pass


class PayloadTooLarge(CanError):
    pass


class SequenceGap(CanError):
    """A body frame arrived out of order (or without a header)."""


class ChecksumMismatch(CanError):
    """Reassembled payload does not match the CRC announced in the header."""


@dataclass(frozen=True, slots=True)
class CanFrame:
    can_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= MAX_STANDARD_ID:
            raise MalformedFrame(f"id 0x{self.can_id:X} exceeds the 11-bit range")
        if len(self.data) > MAX_FRAME_DATA:
            raise MalformedFrame(f"dlc {len(self.data)} exceeds 8")
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", bytes(self.data))

    @property
    def dlc(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class SegmentedMessage:
    can_id: int
    payload: bytes


@dataclass(frozen=True)
class BusConfig:
    frame_time_us: int = 500
    corruption_probability: float = 0.0
    drop_probability: float = 0.0
    rng_seed: int = 0
    # None lifts the budget entirely.
    max_auto_retransmit: int | None = 3


@dataclass(slots=True)
class _TxEntry:
    order: int
    frame: CanFrame
    attempts: int = 0


class _Assembly:
    __slots__ = ("expected", "crc", "buf", "seq")

    def __init__(self, expected: int, crc: int):
        self.expected = expected
        self.crc = crc
        self.buf = bytearray()
        self.seq = 0


class Endpoint:
    """One attached node: its acceptance filters, FIFOs and link statistics."""

    def __init__(self, node_id: int, filters: tuple[tuple[int, int], ...]):
        self.node_id = node_id
        self.filters = filters
        self.rx: deque[CanFrame] = deque()
        self.tx: deque[_TxEntry] = deque()
        self.retransmissions = 0
        self.bus_off_count = 0
        self._assembly: dict[int, _Assembly] = {}

    def accepts(self, can_id: int) -> bool:
        return any((can_id & mask) == match for mask, match in self.filters)

    def clear(self) -> None:
        """Controller reset: drops FIFOs and any half-assembled payloads."""
        self.rx.clear()
        self.tx.clear()
        self._assembly.clear()


@dataclass
class BusStats:
    frames_sent: int = 0
    payload_bytes: int = 0
    deliveries: int = 0
    corrupted: int = 0
    dropped: int = 0
    retransmissions: int = 0
    bus_off_events: int = 0
    busy_time_us: int = 0


class Bus:
    def __init__(self, config: BusConfig | None = None):
        self.config = config or BusConfig()
        self.rng = Random(self.config.rng_seed)
        self.endpoints: dict[int, Endpoint] = {}
        self._endpoints: tuple[Endpoint, ...] = ()  # attach order, for the per-frame loops
        self.stats = BusStats()
        self.trace: list[dict] = []
        self.trace_enabled = False
        self._order = 0

    def attach(self, node_id: int, filters: tuple[tuple[int, int], ...] = ACCEPT_ALL) -> Endpoint:
        if node_id in self.endpoints:
            raise DuplicateNode(f"node id {node_id} already attached")
        endpoint = Endpoint(node_id, filters)
        self.endpoints[node_id] = endpoint
        self._endpoints += (endpoint,)
        return endpoint

    def transmit(self, endpoint: Endpoint, frame: CanFrame) -> None:
        self._order += 1
        endpoint.tx.append(_TxEntry(self._order, frame))

    def pending(self) -> bool:
        return any(ep.tx for ep in self._endpoints)

    def _winner(self) -> Endpoint | None:
        """The endpoint whose head frame wins arbitration, or None when idle."""
        sender = None
        for ep in self._endpoints:
            if ep.tx:
                head = ep.tx[0]
                if sender is None or (head.frame.can_id, head.order) < (best.frame.can_id, best.order):
                    sender, best = ep, head
        return sender

    def step(self, now_us: int = 0) -> tuple[list[tuple[int, CanFrame]], int]:
        """Transmit at most one frame; returns ``(delivered, elapsed_us)``.

        ``delivered`` lists ``(receiver node_id, frame)`` pairs.  ``elapsed``
        is the frame time when a frame occupied the bus, zero when idle.
        """
        sender = self._winner()
        if sender is None:
            return [], 0
        frame = self._land(sender, now_us)
        delivered = []
        if frame is not None:
            for ep in self._endpoints:
                if ep is not sender and ep.accepts(frame.can_id):
                    ep.rx.append(frame)
                    delivered.append((ep.node_id, frame))
            self.stats.deliveries += len(delivered)
        return delivered, self.config.frame_time_us

    def stream(self, now_us: int, tick_us: int, max_frames: int,
               listeners: list[Endpoint]) -> int:
        """Transmit the winning sender's frames back to back, one per tick of
        ``tick_us`` starting at ``now_us``; returns how many were sent.

        This is :meth:`step` repeated while the outcome of each step is
        already known: the stream carries one sender and one id, and stops
        after ``max_frames``, at a frame with another id, at one that
        another sender's queued frame would beat, and at one that a
        ``listeners`` endpoint could not take into reassembly without
        completing or breaking a message.  A delivered frame goes straight
        into each listener's reassembly and onto the receive FIFO of every
        other accepting endpoint.  Draws, statistics, trace rows,
        retransmits and bus-offs are exactly those of the same steps.
        """
        sender = self._winner()
        if sender is None:
            return 0
        tx = sender.tx
        can_id = tx[0].frame.can_id
        # The sender keeps the bus until its next frame would lose to another
        # sender's queued frame: one with a lower id, or the same id queued earlier.
        rival = min(((ep.tx[0].frame.can_id, ep.tx[0].order)
                     for ep in self._endpoints if ep.tx and ep is not sender),
                    default=(MAX_STANDARD_ID + 1, 0))
        last_order = rival[1] if rival[0] == can_id else math.inf
        deaf, hear = [], []
        for ep in self._endpoints:
            if ep is not sender and ep.accepts(can_id):
                (hear if ep in listeners else deaf).append(ep)
        receivers = len(deaf) + len(hear)
        land, stats = self._land, self.stats
        sent = 0
        while sent < max_frames and tx:
            entry = tx[0]
            frame = entry.frame
            if frame.can_id != can_id or entry.order > last_order:
                break
            for ep in hear:
                if not _is_quiet(ep._assembly.get(can_id), frame):
                    return sent
            if land(sender, now_us) is not None:
                for ep in deaf:
                    ep.rx.append(frame)
                for ep in hear:
                    _take_quiet(ep, ep._assembly.get(can_id), frame)
                stats.deliveries += receivers
            now_us += tick_us
            sent += 1
        return sent

    def _land(self, sender: Endpoint, now_us: int) -> CanFrame | None:
        """Put the sender's head frame on the bus: count it, draw the fault
        lottery, trace it, and re-queue or drop it when it is corrupted or
        lost.  Returns the frame when it reaches the receivers."""
        entry = sender.tx.popleft()
        frame = entry.frame
        dlc = len(frame.data)

        stats = self.stats
        stats.frames_sent += 1
        stats.payload_bytes += dlc
        stats.busy_time_us += self.config.frame_time_us

        roll = self.rng.random()
        if roll < self.config.corruption_probability and dlc > 0:
            mangled = bytearray(frame.data)
            mangled[self.rng.randrange(dlc)] ^= 1 << self.rng.randrange(8)
            stats.corrupted += 1
            if self.trace_enabled:
                self._trace(now_us, frame.can_id, mangled, "error")
            self._retransmit(sender, entry)
            return None
        if roll < self.config.corruption_probability + self.config.drop_probability:
            stats.dropped += 1
            self._retransmit(sender, entry)
            return None
        if self.trace_enabled:
            self._trace(now_us, frame.can_id, frame.data, "data")
        return frame

    def _retransmit(self, sender: Endpoint, entry: _TxEntry) -> None:
        budget = self.config.max_auto_retransmit
        if budget is None or entry.attempts < budget:
            entry.attempts += 1
            sender.retransmissions += 1
            self.stats.retransmissions += 1
            sender.tx.appendleft(entry)  # keeps its original arbitration slot
        else:
            sender.bus_off_count += 1
            self.stats.bus_off_events += 1

    def _trace(self, now_us: int, can_id: int, data: bytes, kind: str) -> None:
        self.trace.append({"time_us": now_us, "id": can_id, "dlc": len(data),
                           "data": data.hex(), "kind": kind})


def send_segmented(bus: Bus, endpoint: Endpoint, can_id: int, payload: bytes) -> int:
    """Queue one payload as a header frame plus 7-byte body frames; returns
    the number of frames queued."""
    if len(payload) == 0:
        raise ValueError("refusing to send an empty payload")
    if len(payload) > MAX_SEGMENTED_PAYLOAD:
        raise PayloadTooLarge(f"{len(payload)} bytes exceeds the 16-bit length field")
    bus.transmit(endpoint, CanFrame(can_id, _HEADER.pack(HEADER_MARKER, len(payload), crc32(payload), 0)))
    for seq, start in enumerate(range(0, len(payload), BODY_CHUNK)):
        bus.transmit(endpoint, CanFrame(can_id, _SEQ_BYTES[seq & 0xFF] + payload[start : start + BODY_CHUNK]))
    return 2 + seq  # the header plus seq + 1 body frames


def _is_quiet(state: _Assembly | None, frame: CanFrame) -> bool:
    """The reassembly rule :func:`recv_segmented` and :meth:`Bus.stream`
    share: whether taking ``frame`` into ``state`` (the open assembly on its
    id, if any) neither completes nor breaks a message.  That holds for a
    header where no assembly is open and for the next body frame short of
    the payload's end."""
    data = frame.data
    if state is None:
        return len(data) == _HEADER.size and data[0] == HEADER_MARKER
    return (bool(data) and data[0] == state.seq & 0xFF
            and len(state.buf) + len(data) - 1 < state.expected)


def _take_quiet(endpoint: Endpoint, state: _Assembly | None, frame: CanFrame) -> None:
    """Take a frame for which :func:`_is_quiet` holds."""
    if state is None:
        _, length, crc, _ = _HEADER.unpack(frame.data)
        endpoint._assembly[frame.can_id] = _Assembly(length, crc)
    else:
        state.buf += frame.data[1:]
        state.seq += 1


def recv_segmented(endpoint: Endpoint) -> SegmentedMessage | None:
    """Feed queued frames into reassembly; returns the next complete message,
    or None while one is still pending.

    Raises :class:`SequenceGap` when a body frame is missing or out of phase
    and :class:`ChecksumMismatch` when a reassembled payload fails its CRC;
    either way the partial payload is discarded and later frames start fresh.
    """
    while endpoint.rx:
        frame = endpoint.rx.popleft()
        state = endpoint._assembly.get(frame.can_id)
        if _is_quiet(state, frame):
            _take_quiet(endpoint, state, frame)
            continue
        if state is None:
            raise SequenceGap(f"body frame on id 0x{frame.can_id:X} without a header")
        del endpoint._assembly[frame.can_id]
        if frame.dlc < 1 or frame.data[0] != state.seq & 0xFF:
            got = frame.data[0] if frame.dlc else None
            raise SequenceGap(f"expected seq {state.seq & 0xFF}, got {got}")
        state.buf += frame.data[1:]
        payload = bytes(state.buf[: state.expected])
        if len(state.buf) != state.expected or crc32(payload) != state.crc:
            raise ChecksumMismatch(f"payload on id 0x{frame.can_id:X} failed its checksum")
        return SegmentedMessage(frame.can_id, payload)
    return None


def wait_for(now, deadline_us: int, poll):
    """Wait as a coroutine: returns the first result of ``poll()`` that is
    not None, or None once ``now()`` reaches ``deadline_us``.

    Each yield hands ``deadline_us`` to the scheduler, with one promise:
    until the clock reaches it, polling again finds nothing new unless a
    message completes or breaks on the waiting node's endpoint or an event
    is logged, so a world may pass the ticks in between in one span.
    """
    while now() < deadline_us:
        result = poll()
        if result is not None:
            return result
        yield deadline_us
    return None


def await_reply(endpoint: Endpoint, now, deadline_us: int, accept):
    """Wait, via :func:`wait_for`, for the first reassembled payload for
    which ``accept(payload)`` holds.  Payloads that ``accept`` refuses are
    drained as stray traffic; a mangled message is dropped and the deadline
    decides."""
    def poll():
        while endpoint.rx:
            try:
                msg = recv_segmented(endpoint)
            except CanError:
                return None
            if msg is not None and accept(msg.payload):
                return msg.payload
        return None

    return wait_for(now, deadline_us, poll)
