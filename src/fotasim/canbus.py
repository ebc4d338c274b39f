"""Simulated CAN bus with standard-id arbitration plus a segmented transport.

Transport wire format (all frames dlc <= 8, payload <= 65535 bytes):

    header frame:  A0 | len_lo len_hi | crc32 (4 bytes, little-endian) | 00
    body frame:    seq (mod 256, from 0) | up to 7 payload bytes

The CRC in the header is CRC-32/MPEG-2 over the whole payload; a receiver
checks it after reassembly, unless it assembled the very payload whose own
header opened the assembly, which it then queues with no copy and no second
CRC.  A queued message is one entry, and its frames are cut as they land
(:func:`_frame`).  One bus step transmits one frame: of the queue heads, the
entry with the lowest id wins arbitration, then the oldest entry, for every
frame of that entry.  A frame that lands goes straight into each accepting
receiver's reassembly (:func:`_take`), which queues what completes or breaks
a message.  Fault injection corrupts or drops the frame under transmission,
settled by one draw of the bus's seeded RNG per frame when a fault can
happen and by none on a fault-free bus (both probabilities zero); a
corrupted frame is signalled as an error frame and never reaches a receiver,
and the sender retries it until its retransmit budget runs out; then the
node counts a bus-off and skips the frame.  A stream is that step repeated
for the winner's head entry, one frame per tick, while its frames are its
message's own and neither complete nor break it; a step sends any other.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
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

    def __post_init__(self) -> None:
        if not (type(self.frame_time_us) is int and self.frame_time_us >= 1):
            raise ValueError(f"frame_time_us must be an integer of at least 1, "
                             f"got {self.frame_time_us!r}")
        budget = self.max_auto_retransmit
        if not (budget is None or type(budget) is int and budget >= 0):
            raise ValueError(f"max_auto_retransmit must be an integer of at least 0, or None "
                             f"for no budget, got {budget!r}")
        # One roll decides both faults, so their probabilities share [0, 1].
        corrupt, drop = self.corruption_probability, self.drop_probability
        if not (corrupt >= 0 and drop >= 0 and corrupt + drop <= 1):  # NaN fails each test
            raise ValueError(f"corruption and drop probabilities {corrupt!r} and {drop!r} must "
                             "be non-negative and sum to at most 1")


@dataclass(slots=True)
class _TxEntry:
    """A queued message or raw frame: frame ``index`` of ``count`` goes next.
    ``order`` numbers entries as they queue: one arbitration slot each."""
    can_id: int
    order: int
    head: bytes  # frame 0: a message's header, or a raw frame's data
    payload: bytes  # cut into the body frames
    count: int
    index: int = 0
    attempts: int = 0  # retransmits of frame ``index`` so far


@dataclass(slots=True, eq=False)
class _Assembly:
    expected: int
    crc: int
    sent: bytes | None  # the payload of the queued message whose own header opened it
    buf: bytearray = field(default_factory=bytearray)
    seq: int = 0


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
        for mask, match in self.filters:
            if can_id & mask == match:
                return True
        return False

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
        self._endpoints: tuple[Endpoint, ...] = ()  # in attach order
        self.stats = BusStats()
        self.trace: list[dict] = []
        self.trace_enabled = False
        self._order = 0

    def attach(self, node_id: int, filters: tuple[tuple[int, int], ...] = ACCEPT_ALL) -> Endpoint:
        if any(ep.node_id == node_id for ep in self._endpoints):
            raise DuplicateNode(f"node id {node_id} already attached")
        endpoint = Endpoint(node_id, filters)
        self._endpoints += (endpoint,)
        return endpoint

    def transmit(self, endpoint: Endpoint, frame: CanFrame) -> None:
        self._enqueue(endpoint, frame.can_id, frame.data, b"", 1)

    def _enqueue(self, endpoint: Endpoint, can_id: int, head: bytes, payload: bytes,
                 count: int) -> None:
        self._order += 1
        endpoint.tx.append(_TxEntry(can_id, self._order, head, payload, count))

    def pending(self) -> bool:
        return any(ep.tx for ep in self._endpoints)

    def _winner(self) -> Endpoint | None:
        """The endpoint whose head entry wins arbitration, or None when idle."""
        sender = None
        for ep in self._endpoints:
            if ep.tx:
                head = ep.tx[0]
                if sender is None or (head.can_id, head.order) < (best.can_id, best.order):
                    sender, best = ep, head
        return sender

    def step(self, now_us: int = 0) -> tuple[bytes | None, int]:
        """A tick's bus step: the arbitration winner's frame goes through
        :meth:`_land`; returns ``(landed, elapsed_us)``.  ``landed`` is the
        frame's data when it reached the receivers, None when it faulted or
        the bus was idle; ``elapsed`` is the frame time, zero when idle."""
        sender = self._winner()
        if sender is None:
            return None, 0
        entry = sender.tx[0]
        config = self.config
        roll = self.rng.random() if config.corruption_probability + config.drop_probability else 1.0
        landed = self._land(sender, entry, roll, now_us, self._receivers(sender, entry.can_id))
        return landed, config.frame_time_us

    def stream(self, now_us: int, tick_us: int, max_frames: int) -> tuple[int, bool]:
        """Transmit the frames of the winner's head entry back to back, one
        per tick of ``tick_us`` from ``now_us``; returns ``(sent, lands)``.

        This is :meth:`step` repeated while the outcome of each step is
        already known, and it only skips: the stream carries the winner's
        head entry, which wins every frame to its end since nothing queues
        meanwhile, and stops after ``max_frames``, at the entry's end, and
        before any frame it does not carry (``lands``: a step sends it).
        It carries a message's header when no receiver has an assembly open
        on the id, and a body frame that every receiver has open and that
        neither completes nor breaks the message.  Draws, statistics, trace
        rows, retransmits and bus-offs are exactly those of the same steps.
        Clean frames before a fault go as one run, counted at once and
        reaching each receiver as one payload slice; a frame that draws a
        fault lands alone by :meth:`_land`.
        """
        sender = self._winner()
        if sender is None:
            return 0, False
        entry = sender.tx[0]
        can_id = entry.can_id
        receivers = self._receivers(sender, can_id)
        stats, random, trace = self.stats, self.rng.random, self.trace_enabled
        faulty_below = self.config.corruption_probability + self.config.drop_probability
        sent = 0
        while sent < max_frames and entry.index < entry.count:
            first = index = entry.index
            states = [ep._assembly.get(can_id) for ep in receivers]
            if index == 0:  # only a message's header, onto no open assembly, streams
                if entry.count == 1 or any(states):
                    return sent, True
                roll = random() if faulty_below else 1.0
                if roll < faulty_below:  # it faults alone
                    self._land(sender, entry, roll, now_us, receivers)
                    now_us += tick_us
                    sent += 1
                    continue
                for ep in receivers:
                    _take(ep, can_id, entry.head, entry.payload)
                states = [ep._assembly[can_id] for ep in receivers]
                index = 1  # the header leads the run
            elif None in states:  # a body frame streams only into an open assembly
                return sent, True
            run = want = min(entry.count - index, max_frames - sent - (index - first))
            start = (index - 1) * BODY_CHUNK
            for state in states:
                size = min(start + run * BODY_CHUNK, len(entry.payload)) - start
                run = _quiet_run(state, (index - 1) & 0xFF, run, size)
            # Frames before the first fault: one draw each, none on a fault-free bus.
            clean = 0 if faulty_below else run
            while clean < run and (roll := random()) >= faulty_below:
                clean += 1
            if landed := index - first + clean:
                end = min(start + clean * BODY_CHUNK, len(entry.payload))
                stats.payload_bytes += (index - first) * _HEADER.size + clean + end - start
                for state in states:
                    state.buf += entry.payload[start:end]
                    state.seq += clean
                stats.frames_sent += landed
                stats.busy_time_us += landed * self.config.frame_time_us
                stats.deliveries += landed * len(receivers)
                if trace:
                    for k in range(landed):
                        self._trace(now_us + k * tick_us, can_id, _frame(entry, first + k), "data")
                _pass(sender.tx, entry, landed)
                now_us += landed * tick_us
                sent += landed
            if clean < run:  # the next frame drew a fault
                self._land(sender, entry, roll, now_us, receivers)
                now_us += tick_us
                sent += 1
            elif run < want:  # the next frame completes or breaks a message
                return sent, True
        return sent, False

    def _receivers(self, sender: Endpoint, can_id: int) -> list[Endpoint]:
        """The endpoints other than ``sender`` that accept ``can_id``, in
        attach order."""
        return [ep for ep in self._endpoints if ep is not sender and ep.accepts(can_id)]

    def _land(self, sender: Endpoint, entry: _TxEntry, roll: float, now_us: int,
              receivers: list[Endpoint]) -> bytes | None:
        """Put the sender's head frame on the bus: count it, settle the fault
        lottery by ``roll``, trace it, and retry it, or move the entry past
        it and feed it to each of ``receivers`` (:meth:`_receivers`, which
        the caller holds) with :func:`_take`; returns its data when it
        lands.  The one path of a step's frame and of a stream's faulted one."""
        sent = entry.payload if entry.index == 0 and entry.count > 1 else None  # its header
        data = _frame(entry, entry.index)
        dlc = len(data)
        stats = self.stats
        stats.frames_sent += 1
        stats.payload_bytes += dlc
        stats.busy_time_us += self.config.frame_time_us

        if roll < self.config.corruption_probability:
            mangled = bytearray(data)
            if dlc:  # only the bit flip needs a byte
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
            for ep in receivers:
                _take(ep, entry.can_id, data, sent)
            stats.deliveries += len(receivers)
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
    entry.attempts = 0
    if entry.index == entry.count:
        tx.popleft()


def _quiet_run(state: _Assembly, seq: int, count: int, size: int) -> int:
    """:func:`_take`'s rule for a run of body frames: how many of ``count``
    in a row, the first with sequence byte ``seq``, each but the last a full
    chunk, ``size`` payload bytes in all, the open message ``state`` takes
    in phase and short of its announced length, so neither breaks nor ends."""
    if seq != state.seq & 0xFF:
        return 0
    room = state.expected - len(state.buf)  # the message completes once this many bytes land
    full = (room - 1) // BODY_CHUNK  # full chunks that leave it open
    if full >= count - 1 and size < room:
        return count
    return max(0, min(full, count - 1))


def _take(endpoint: Endpoint, can_id: int, data: bytes, sent: bytes | None) -> None:
    """Feed one landed frame into the endpoint's reassembly on ``can_id``;
    ``sent`` is the queued payload when ``data`` is its header, else None.
    A header opens a message where none is open, and a body frame in phase
    and short of the announced length keeps it open.  Any other frame
    completes the message, queued on ``endpoint.rx`` (as ``sent`` when it
    assembled those bytes), or breaks it: the :class:`SequenceGap` or
    :class:`ChecksumMismatch` is queued and the partial payload discarded."""
    state = endpoint._assembly.get(can_id)
    if state is None:
        if len(data) == _HEADER.size and data[0] == HEADER_MARKER:  # a header opens a message
            _, length, crc, _ = _HEADER.unpack(data)
            endpoint._assembly[can_id] = _Assembly(length, crc, sent)
            return
        outcome = SequenceGap(f"body frame on id 0x{can_id:X} without a header")
    elif not data or data[0] != state.seq & 0xFF:
        outcome = SequenceGap(f"expected seq {state.seq & 0xFF}, got {data[0] if data else None}")
    else:
        state.buf += data[1:]
        if len(state.buf) < state.expected:  # in phase and short of the length: still open
            state.seq += 1
            return
        whole = len(state.buf) == state.expected
        if whole and state.buf == state.sent:
            outcome = SegmentedMessage(can_id, state.sent)
        elif whole and crc32(payload := bytes(state.buf)) == state.crc:
            outcome = SegmentedMessage(can_id, payload)
        else:
            outcome = ChecksumMismatch(f"payload on id 0x{can_id:X} failed its checksum")
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
    drained as stray traffic, and so is a mangled message: a reply queued
    behind it is found by the same poll."""
    def poll():
        while endpoint.rx:
            try:
                msg = recv_segmented(endpoint)
            except CanError:
                continue
            if accept(msg.payload):
                return msg.payload
        return None

    return wait_for(now, deadline_us, poll)
