"""Simulated CAN bus with standard-id arbitration plus a segmented transport.

Transport wire format (all frames dlc <= 8, payload <= 65535 bytes):

    header frame:  A0 | len_lo len_hi | crc32 (4 bytes, little-endian) | 00
    body frame:    seq (mod 256, from 0) | up to 7 payload bytes

The CRC in the header is CRC-32/MPEG-2 over the whole payload and is what
receivers check after reassembly.  A queued message is one entry, and its
frames are cut as they land (:func:`_frame`).  One bus step transmits one
frame: the pending frame with the lowest id wins arbitration (FIFO order
breaks ties).  A frame that lands goes straight into each accepting
receiver's reassembly (:func:`_take`), which queues what completes or
breaks a message.  Fault injection corrupts or drops the frame under
transmission; a corrupted frame is signalled as an error frame and never
reaches a receiver, and the sender retries it until its retransmit
budget runs out; then the node counts a bus-off and skips the frame.  A
stream is that step repeated for one sender's frame train, one per tick.
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
    """A queued message or raw frame: frame ``index`` of ``count`` goes next,
    in arbitration slot ``order``; the later frames hold the slots after it."""
    can_id: int
    order: int
    head: bytes  # frame 0: a message's header, or a raw frame's data
    payload: bytes  # cut into the body frames
    count: int
    index: int = 0
    attempts: int = 0  # retransmits of frame ``index`` so far


class _Assembly:
    __slots__ = ("expected", "crc", "buf", "seq")

    def __init__(self, expected: int, crc: int):
        self.expected = expected
        self.crc = crc
        self.buf = bytearray()
        self.seq = 0


class Endpoint:
    """One attached node: its acceptance filters, its open reassemblies, its
    receive queue of what they produced (each complete message, or the
    :class:`SequenceGap` or :class:`ChecksumMismatch` that broke one, in
    landing order), its transmit queue and its link statistics."""

    def __init__(self, node_id: int, filters: tuple[tuple[int, int], ...]):
        self.node_id = node_id
        self.filters = filters
        self.rx: deque[SegmentedMessage | CanError] = deque()
        self.tx: deque[_TxEntry] = deque()
        self.retransmissions = 0
        self.bus_off_count = 0
        self._assembly: dict[int, _Assembly] = {}

    def accepts(self, can_id: int) -> bool:
        return any((can_id & mask) == match for mask, match in self.filters)

    def clear(self) -> None:
        """Controller reset: drops both queues and any half-assembled payloads."""
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
        self._enqueue(endpoint, frame.can_id, frame.data, b"", 1)

    def _enqueue(self, endpoint: Endpoint, can_id: int, head: bytes, payload: bytes,
                 count: int) -> None:
        endpoint.tx.append(_TxEntry(can_id, self._order + 1, head, payload, count))
        self._order += count

    def pending(self) -> bool:
        return any(ep.tx for ep in self._endpoints)

    def _winner(self) -> Endpoint | None:
        """The endpoint whose head frame wins arbitration, or None when idle."""
        sender = None
        for ep in self._endpoints:
            if ep.tx:
                head = ep.tx[0]
                if sender is None or (head.can_id, head.order) < (best.can_id, best.order):
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
        entry = sender.tx[0]
        data = self._land(sender, entry, self.rng.random(), now_us)
        delivered = []
        if data is not None:
            frame = CanFrame(entry.can_id, data)
            for ep in self._endpoints:
                if ep is not sender and ep.accepts(frame.can_id):
                    _take(ep, frame.can_id, data)
                    delivered.append((ep.node_id, frame))
            self.stats.deliveries += len(delivered)
        return delivered, self.config.frame_time_us

    def stream(self, now_us: int, tick_us: int, max_frames: int) -> int:
        """Transmit the winning sender's frames back to back, one per tick of
        ``tick_us`` starting at ``now_us``; returns how many were sent.

        This is :meth:`step` repeated while the outcome of each step is
        already known: the stream carries one sender and one id, and stops
        after ``max_frames``, at a frame with another id, at one that
        another sender's queued frame would beat, and at one that would
        complete or break a message on any receiver, so a stream never
        adds to a receive queue.  Draws, statistics, trace rows, retransmits
        and bus-offs are exactly those of the same steps.  The clean body
        frames of one message before a fault go as one run: they are
        counted at once and reach each receiver as one payload slice.
        """
        sender = self._winner()
        if sender is None:
            return 0
        tx = sender.tx
        can_id = tx[0].can_id
        # The sender keeps the bus until its next frame would lose to another
        # sender's queued frame: one with a lower id, or the same id queued earlier.
        rival = min(((ep.tx[0].can_id, ep.tx[0].order)
                     for ep in self._endpoints if ep.tx and ep is not sender),
                    default=(MAX_STANDARD_ID + 1, 0))
        last_order = rival[1] if rival[0] == can_id else math.inf
        receivers = [ep for ep in self._endpoints if ep is not sender and ep.accepts(can_id)]
        stats, random, trace = self.stats, self.rng.random, self.trace_enabled
        faulty_below = self.config.corruption_probability + self.config.drop_probability
        sent = 0
        while sent < max_frames and tx:
            entry = tx[0]
            index = entry.index
            if entry.can_id != can_id or entry.order > last_order:
                break
            run = min(entry.count - index, max_frames - sent)
            states = [ep._assembly.get(can_id) for ep in receivers]
            single = index == 0 or None in states
            if single:  # a header, a raw frame, or a receiver with no open message
                data = _frame(entry, index)
                run = 1 if all(_is_quiet(state, data) for state in states) else 0
            else:
                start = (index - 1) * BODY_CHUNK
                for state in states:
                    size = min(start + run * BODY_CHUNK, len(entry.payload)) - start
                    run = _quiet_run(state, (index - 1) & 0xFF, run, size)
            if not run:
                return sent
            clean = 0  # frames before the first fault, one draw each
            while clean < run and (roll := random()) >= faulty_below:
                clean += 1
            if clean:
                if single:
                    stats.payload_bytes += len(data)
                    for ep in receivers:
                        _take(ep, can_id, data)
                else:
                    end = min(start + clean * BODY_CHUNK, len(entry.payload))
                    stats.payload_bytes += clean + end - start
                    for state in states:
                        state.buf += entry.payload[start:end]
                        state.seq += clean
                stats.frames_sent += clean
                stats.busy_time_us += clean * self.config.frame_time_us
                stats.deliveries += clean * len(receivers)
                if trace:
                    for k in range(clean):
                        self._trace(now_us + k * tick_us, can_id, _frame(entry, index + k), "data")
                _pass(tx, entry, clean)
                now_us += clean * tick_us
                sent += clean
            if clean < run:  # the next frame drew a fault
                self._land(sender, entry, roll, now_us)
                now_us += tick_us
                sent += 1
        return sent

    def _land(self, sender: Endpoint, entry: _TxEntry, roll: float, now_us: int) -> bytes | None:
        """Put the sender's head frame on the bus: count it, settle the fault
        lottery by ``roll``, trace it, and retry it, or move the entry past
        it.  Returns the frame's data when it reaches the receivers."""
        data = _frame(entry, entry.index)
        dlc = len(data)
        stats = self.stats
        stats.frames_sent += 1
        stats.payload_bytes += dlc
        stats.busy_time_us += self.config.frame_time_us

        if roll < self.config.corruption_probability and dlc > 0:
            mangled = bytearray(data)
            mangled[self.rng.randrange(dlc)] ^= 1 << self.rng.randrange(8)
            stats.corrupted += 1
            if self.trace_enabled:
                self._trace(now_us, entry.can_id, mangled, "error")
        elif roll < self.config.corruption_probability + self.config.drop_probability:
            stats.dropped += 1
        else:
            if self.trace_enabled:
                self._trace(now_us, entry.can_id, data, "data")
            _pass(sender.tx, entry, 1)
            return data
        budget = self.config.max_auto_retransmit
        if budget is None or entry.attempts < budget:
            entry.attempts += 1  # the frame keeps its arbitration slot
            sender.retransmissions += 1
            stats.retransmissions += 1
        else:
            sender.bus_off_count += 1
            stats.bus_off_events += 1
            _pass(sender.tx, entry, 1)
        return None

    def _trace(self, now_us: int, can_id: int, data: bytes, kind: str) -> None:
        self.trace.append({"time_us": now_us, "id": can_id, "dlc": len(data),
                           "data": data.hex(), "kind": kind})


def send_segmented(bus: Bus, endpoint: Endpoint, can_id: int, payload: bytes) -> int:
    """Queue one payload as one entry, a header frame plus 7-byte body
    frames that are cut as they land; returns the number of frames."""
    if len(payload) == 0:
        raise ValueError("refusing to send an empty payload")
    if len(payload) > MAX_SEGMENTED_PAYLOAD:
        raise PayloadTooLarge(f"{len(payload)} bytes exceeds the 16-bit length field")
    if not 0 <= can_id <= MAX_STANDARD_ID:
        raise MalformedFrame(f"id 0x{can_id:X} exceeds the 11-bit range")
    payload = bytes(payload)
    count = 2 + (len(payload) - 1) // BODY_CHUNK  # the header plus the body frames
    bus._enqueue(endpoint, can_id, _HEADER.pack(HEADER_MARKER, len(payload), crc32(payload), 0),
                 payload, count)
    return count


def _frame(entry: _TxEntry, index: int) -> bytes:
    """Frame ``index`` of a queued entry: its head (a header or a raw frame),
    or body frame ``index - 1``: the sequence byte and a 7-byte chunk."""
    if index == 0:
        return entry.head
    start = (index - 1) * BODY_CHUNK
    return _SEQ_BYTES[(index - 1) & 0xFF] + entry.payload[start : start + BODY_CHUNK]


def _pass(tx: deque[_TxEntry], entry: _TxEntry, frames: int) -> None:
    """Move ``entry``, the head of ``tx``, past its next ``frames`` frames."""
    entry.index += frames
    entry.order += frames
    entry.attempts = 0
    if entry.index == entry.count:
        tx.popleft()


def _quiet_run(state: _Assembly, seq: int, count: int, size: int) -> int:
    """The reassembly rule for body frames: how many of ``count`` in a row,
    the first with sequence byte ``seq``, each but the last a full chunk,
    ``size`` payload bytes in all, the open message ``state`` takes in
    phase and short of its announced length, so neither breaks nor ends."""
    if seq != state.seq & 0xFF:
        return 0
    room = state.expected - len(state.buf)  # the message completes once this many bytes land
    full = (room - 1) // BODY_CHUNK  # full chunks that leave it open
    if full >= count - 1 and size < room:
        return count
    return max(0, min(full, count - 1))


def _is_quiet(state: _Assembly | None, data: bytes) -> bool:
    """Whether taking the frame ``data`` into ``state`` (the open assembly
    on its id, if any) neither completes nor breaks a message: a header
    where no assembly is open, or a body frame by :func:`_quiet_run`."""
    if state is None:
        return len(data) == _HEADER.size and data[0] == HEADER_MARKER
    return bool(data) and _quiet_run(state, data[0], 1, len(data) - 1) == 1


def _take(endpoint: Endpoint, can_id: int, data: bytes) -> None:
    """Feed one landed frame into the endpoint's reassembly on ``can_id``.
    A frame that completes a message queues it on ``endpoint.rx``; one that
    breaks a message queues the :class:`SequenceGap` (a body frame missing,
    out of phase or without a header) or :class:`ChecksumMismatch` (a
    payload that fails its CRC), and the partial payload is discarded."""
    state = endpoint._assembly.get(can_id)
    if _is_quiet(state, data):
        if state is None:
            _, length, crc, _ = _HEADER.unpack(data)
            endpoint._assembly[can_id] = _Assembly(length, crc)
        else:
            state.buf += data[1:]
            state.seq += 1
        return
    if state is None:
        outcome = SequenceGap(f"body frame on id 0x{can_id:X} without a header")
    elif not data or data[0] != state.seq & 0xFF:
        outcome = SequenceGap(f"expected seq {state.seq & 0xFF}, got {data[0] if data else None}")
    else:
        state.buf += data[1:]
        payload = bytes(state.buf[: state.expected])
        if len(state.buf) != state.expected or crc32(payload) != state.crc:
            outcome = ChecksumMismatch(f"payload on id 0x{can_id:X} failed its checksum")
        else:
            outcome = SegmentedMessage(can_id, payload)
    endpoint._assembly.pop(can_id, None)
    endpoint.rx.append(outcome)


def recv_segmented(endpoint: Endpoint) -> SegmentedMessage | None:
    """Take the next outcome off the endpoint's receive queue: returns a
    complete message, raises the :class:`SequenceGap` or
    :class:`ChecksumMismatch` that broke one, or returns None when the
    queue is empty."""
    if not endpoint.rx:
        return None
    outcome = endpoint.rx.popleft()
    if isinstance(outcome, CanError):
        raise outcome
    return outcome


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
            if accept(msg.payload):
                return msg.payload
        return None

    return wait_for(now, deadline_us, poll)
