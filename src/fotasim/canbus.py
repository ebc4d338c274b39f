"""Simulated CAN bus with standard-id arbitration plus a segmented transport.

Transport wire format (all frames dlc <= 8, payload <= 65535 bytes):

    header frame:  A0 | len_lo len_hi | crc32 (4 bytes, little-endian) | 00
    body frame:    seq (mod 256, from 0) | up to 7 payload bytes

The CRC in the header is CRC-32/MPEG-2 over the whole payload; a receiver
checks it after reassembly, unless it assembled the very payload whose own
header opened the assembly, which it queues with no copy and no CRC.  A
queued message is one entry, cut into frames as they land (:func:`_frame`),
its header's bytes only when a step, a fault or a trace row needs them.
One bus step transmits one frame: of the queue heads, the entry with the
lowest id wins arbitration, then the oldest entry, for every frame of that
entry.  A frame that lands goes straight into each accepting receiver's
reassembly (:func:`_take`), which queues what completes or breaks a
message.  Fault injection corrupts or drops the frame under transmission,
settled by one draw of the bus's seeded RNG per frame when a fault can
happen and by none on a fault-free bus (both probabilities zero); a
corrupted frame is signalled as an error frame and never reaches a receiver,
and the sender retries it until its retransmit budget runs out; then the
node counts a bus-off and skips the frame.  A stream is that step repeated
for the winner's head entry, one frame per tick: a run of its message's
header and body frames, each into the assembly that header opened, up to
the message's last frame; a step sends that frame and any other.
"""

from __future__ import annotations

import struct
import weakref
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
    head: bytes | None  # frame 0: a raw frame's data, or a message's header once built
    payload: bytes  # cut into the body frames
    count: int
    index: int = 0
    attempts: int = 0  # retransmits of frame ``index`` so far


@dataclass(slots=True, eq=False)
class _Assembly:
    expected: int
    crc: int | None  # the header's CRC, None when ``sent`` stands behind the header
    sent: bytes | None  # the payload of the queued message whose own header opened it
    buf: bytearray = field(default_factory=bytearray)
    seq: int = 0


class Endpoint:
    """One attached node: its acceptance filters, its open reassemblies, its
    receive queue of what they produced (each complete message, or the
    :class:`SequenceGap` or :class:`ChecksumMismatch` that broke one, in
    landing order), its transmit queue and its link statistics."""

    def __init__(self, node_id: int, filters: tuple[tuple[int, int], ...], bus: Bus):
        self.node_id = node_id
        self._bus = weakref.ref(bus)  # no reference cycle through the bus
        self.filters = filters
        self.rx: deque[SegmentedMessage | CanError] = deque()
        self.tx: deque[_TxEntry] = deque()
        self.retransmissions = 0
        self.bus_off_count = 0
        self._assembly: dict[int, _Assembly] = {}

    @property
    def filters(self) -> tuple[tuple[int, int], ...]:
        return self._filters

    @filters.setter
    def filters(self, filters: tuple[tuple[int, int], ...]) -> None:
        self._filters = filters
        if bus := self._bus():  # a new filter list makes the bus forget who hears what
            bus._heard.clear()

    def accepts(self, can_id: int) -> bool:
        return any(can_id & mask == match for mask, match in self._filters)

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
        self._heard: dict[tuple[Endpoint, int], tuple[Endpoint, ...]] = {}  # see _receivers
        self.stats = BusStats()
        self.trace: list[dict] = []
        self.trace_enabled = False
        self._order = 0

    def attach(self, node_id: int, filters: tuple[tuple[int, int], ...] = ACCEPT_ALL) -> Endpoint:
        if any(ep.node_id == node_id for ep in self._endpoints):
            raise DuplicateNode(f"node id {node_id} already attached")
        endpoint = Endpoint(node_id, filters, self)
        self._endpoints += (endpoint,)
        return endpoint

    def transmit(self, endpoint: Endpoint, frame: CanFrame) -> None:
        self._enqueue(endpoint, frame.can_id, frame.data, b"", 1)

    def _enqueue(self, endpoint: Endpoint, can_id: int, head: bytes | None, payload: bytes,
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

    def step(self, now_us: int = 0, sender: Endpoint | None = None) -> tuple[bytes | None, int]:
        """A tick's bus step: the arbitration winner's frame goes through
        :meth:`_land`; returns ``(landed, elapsed_us)``.  ``landed`` is the
        frame's data when it reached the receivers, None when it faulted or
        the bus was idle; ``elapsed`` is the frame time, zero when idle.
        ``sender`` is the :meth:`_winner`, if the caller holds it; None arbitrates."""
        sender = sender or self._winner()
        if sender is None:
            return None, 0
        entry = sender.tx[0]
        config = self.config
        roll = self.rng.random() if config.corruption_probability + config.drop_probability else 1.0
        landed = self._land(sender, entry, roll, now_us, self._receivers(sender, entry.can_id))
        return landed, config.frame_time_us

    def stream(self, now_us: int, tick_us: int, max_frames: int,
               sender: Endpoint | None = None) -> tuple[int, bool]:
        """Transmit the frames of the winner's head entry back to back, one
        per tick of ``tick_us`` from ``now_us``; returns ``(sent, lands)``.

        This is :meth:`step` repeated while the outcome of each step is
        already known, and it only skips: the stream carries the winner's
        head entry, which wins every frame to its end since nothing queues
        meanwhile, and stops after ``max_frames``, at the entry's end, and
        before any frame it does not carry (``lands``: a step sends it).
        Each pass is one run of the entry's own message: its header onto
        no open assembly (opening one on each receiver from the payload,
        with no header bytes), then body frames while every receiver's
        assembly is the one that header opened, in phase, up to the
        message's last frame; raw frames, that last frame and any other go
        by step.  Draws, statistics, trace rows, retransmits and bus-offs
        are exactly those of the same steps.  Clean frames before a fault
        are counted at once and reach each receiver as one payload slice; a
        frame that draws a fault lands alone by :meth:`_land`.  ``sender``
        is as for :meth:`step`, and still the winner after ``lands``.
        """
        sender = sender or self._winner()
        if sender is None:
            return 0, False
        entry = sender.tx[0]
        can_id, payload = entry.can_id, entry.payload
        receivers = self._receivers(sender, can_id)
        stats, random, trace = self.stats, self.rng.random, self.trace_enabled
        faulty_below = self.config.corruption_probability + self.config.drop_probability
        sent = 0
        while sent < max_frames and entry.index < entry.count:
            index = entry.index
            states = [ep._assembly.get(can_id) for ep in receivers]
            # A resend may share an older message's payload object: onto that one's
            # open assembly its header lands by a step, and an in-phase assembly of
            # this length, at most 7 bytes a frame, cannot complete before the last.
            if any(states) if index == 0 else not all(
                    s and s.sent is payload and s.seq == index - 1 for s in states):
                return sent, True
            want = min(entry.count - index, max_frames - sent)
            run = min(want, entry.count - 1 - index)  # the last frame completes the message
            # Frames before the first fault: one draw each, none on a fault-free bus.
            clean = 0 if faulty_below else run
            while clean < run and (roll := random()) >= faulty_below:
                clean += 1
            if clean:
                if headed := index == 0:  # as _take opens them on the header
                    states = [_Assembly(len(payload), None, payload) for _ in receivers]
                    for ep, state in zip(receivers, states):
                        ep._assembly[can_id] = state
                start = (index - 1 + headed) * BODY_CHUNK
                end = min(start + (clean - headed) * BODY_CHUNK, len(payload))
                stats.payload_bytes += headed * _HEADER.size + clean - headed + end - start
                for state in states:
                    state.buf += payload[start:end]
                    state.seq += clean - headed
                stats.frames_sent += clean
                stats.busy_time_us += clean * self.config.frame_time_us
                stats.deliveries += clean * len(receivers)
                if trace:
                    for k in range(clean):
                        self._trace(now_us + k * tick_us, can_id, _frame(entry, index + k), "data")
                _pass(sender.tx, entry, clean)
                now_us += clean * tick_us
                sent += clean
            if clean < run:  # the next frame drew a fault
                self._land(sender, entry, roll, now_us, receivers)
                now_us += tick_us
                sent += 1
            elif run < want:  # the next frame is the message's last
                return sent, True
        return sent, False

    def _receivers(self, sender: Endpoint, can_id: int) -> tuple[Endpoint, ...]:
        """The endpoints other than ``sender`` that accept ``can_id``, in
        attach order; kept per ``(sender, can_id)`` until an endpoint's
        filters are assigned, as they are when it attaches."""
        heard = self._heard.get((sender, can_id))
        if heard is None:
            heard = self._heard[sender, can_id] = tuple(
                ep for ep in self._endpoints if ep is not sender and ep.accepts(can_id))
        return heard

    def _land(self, sender: Endpoint, entry: _TxEntry, roll: float, now_us: int,
              receivers: tuple[Endpoint, ...]) -> bytes | None:
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
    frames, all cut as they land (:func:`_frame`); returns the number of frames."""
    if len(payload) == 0:
        raise ValueError("refusing to send an empty payload")
    if len(payload) > MAX_SEGMENTED_PAYLOAD:
        raise PayloadTooLarge(f"{len(payload)} bytes exceeds the 16-bit length field")
    if not 0 <= can_id <= MAX_STANDARD_ID:
        raise MalformedFrame(f"id 0x{can_id:X} exceeds the 11-bit range")
    payload = bytes(payload)
    count = 2 + (len(payload) - 1) // BODY_CHUNK  # the header plus the body frames
    bus._enqueue(endpoint, can_id, None, payload, count)
    return count


def _frame(entry: _TxEntry, index: int) -> bytes:
    """Frame ``index`` of a queued entry: its head (a raw frame, or a
    message's header, built when first asked for and kept), or body frame
    ``index - 1``: the sequence byte and a 7-byte chunk."""
    if index == 0:
        if entry.head is None:
            entry.head = _HEADER.pack(HEADER_MARKER, len(entry.payload), crc32(entry.payload), 0)
        return entry.head
    start = (index - 1) * BODY_CHUNK
    return _SEQ_BYTES[(index - 1) & 0xFF] + entry.payload[start : start + BODY_CHUNK]


def _pass(tx: deque[_TxEntry], entry: _TxEntry, frames: int) -> None:
    """Move ``entry``, the head of ``tx``, past its next ``frames`` frames."""
    entry.index += frames
    entry.attempts = 0
    if entry.index == entry.count:
        tx.popleft()


def _take(endpoint: Endpoint, can_id: int, data: bytes, sent: bytes | None) -> None:
    """Feed one landed frame into the endpoint's reassembly on ``can_id``;
    ``sent`` is the queued payload when ``data`` is its header, else None.
    The one statement of the reassembly rule: a header opens a message where
    none is open, and a body frame in phase and short of the announced
    length keeps it open.  Any other frame completes the message, queued on
    ``endpoint.rx`` (as ``sent`` when it assembled those bytes), or breaks
    it: the :class:`SequenceGap` or :class:`ChecksumMismatch` is queued and
    the partial payload discarded."""
    state = endpoint._assembly.get(can_id)
    if state is None:
        if len(data) == _HEADER.size and data[0] == HEADER_MARKER:  # a header opens a message
            _, length, crc, _ = _HEADER.unpack(data)
            endpoint._assembly[can_id] = _Assembly(length, crc if sent is None else None, sent)
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
        elif whole and crc32(payload := bytes(state.buf)) == (
                state.crc if state.sent is None else crc32(state.sent)):  # the header's CRC
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
