"""Bus arbitration, fault injection and the segmented transport."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fotasim.canbus import (
    ACCEPT_ALL,
    HEADER_MARKER,
    Bus,
    BusConfig,
    CanError,
    CanFrame,
    ChecksumMismatch,
    DuplicateNode,
    MalformedFrame,
    PayloadTooLarge,
    SequenceGap,
    recv_segmented,
    send_segmented,
    wait_for,
)
from fotasim.integrity import crc32


def two_node_bus(config=None):
    bus = Bus(config or BusConfig())
    a = bus.attach(1)
    b = bus.attach(2)
    return bus, a, b


# -- frames and attachment ------------------------------------------------------


def test_frame_validation():
    CanFrame(0x7FF, b"12345678")
    with pytest.raises(MalformedFrame):
        CanFrame(0x800, b"")
    with pytest.raises(MalformedFrame):
        CanFrame(-1, b"")
    with pytest.raises(MalformedFrame):
        CanFrame(0x100, b"123456789")


def test_duplicate_node_id_rejected():
    bus = Bus()
    bus.attach(1)
    with pytest.raises(DuplicateNode):
        bus.attach(1)


# -- arbitration ----------------------------------------------------------------


def test_lowest_id_wins_arbitration():
    bus, a, b = two_node_bus()
    bus.transmit(a, CanFrame(0x200, b"late"))
    bus.transmit(b, CanFrame(0x100, b"early"))
    delivered, elapsed = bus.step()
    assert [(nid, f.data) for nid, f in delivered] == [(1, b"early")]
    assert elapsed == bus.config.frame_time_us
    delivered, _ = bus.step()
    assert [(nid, f.data) for nid, f in delivered] == [(2, b"late")]


def test_equal_ids_resolve_in_enqueue_order():
    bus, a, b = two_node_bus()
    bus.transmit(b, CanFrame(0x100, b"first"))
    bus.transmit(a, CanFrame(0x100, b"second"))
    assert bus.step()[0][0][1].data == b"first"
    assert bus.step()[0][0][1].data == b"second"


_SEND = st.tuples(st.just("send"), st.integers(0, 3), st.integers(0, 0x7FF))
_STEP = st.tuples(st.just("step"), st.booleans())  # True: the frame is dropped


@given(st.integers(3, 4), st.lists(st.one_of(_SEND, _STEP), max_size=60))
@settings(max_examples=150, deadline=None)
def test_arbitration_picks_the_lowest_id_then_the_oldest_entry(n_endpoints, program):
    """Each step the bus must send the queue head with the lowest
    ``(can_id, enqueue order)``; a dropped frame keeps its slot."""
    bus = Bus(BusConfig(max_auto_retransmit=None))
    endpoints = [bus.attach(i + 1) for i in range(n_endpoints)]
    queues = [[] for _ in endpoints]  # reference FIFOs of (can_id, order)
    order = 0
    for op in program:
        if op[0] == "send":
            _, index, can_id = op
            index %= n_endpoints
            order += 1
            queues[index].append((can_id, order))
            bus.transmit(endpoints[index], CanFrame(can_id, order.to_bytes(2, "little")))
            continue
        heads = sorted((q[0], i) for i, q in enumerate(queues) if q)
        bus.config = BusConfig(drop_probability=1.0 if op[1] else 0.0, max_auto_retransmit=None)
        retransmissions = [ep.retransmissions for ep in endpoints]
        delivered, _ = bus.step()
        if not heads:
            assert delivered == []
            continue
        (can_id, expected), winner = heads[0]
        if op[1]:
            assert delivered == []
            assert [ep.retransmissions - r for ep, r in zip(endpoints, retransmissions)] == \
                [int(i == winner) for i in range(n_endpoints)]
        else:
            queues[winner].pop(0)
            frames = {f for _, f in delivered}
            assert frames == {CanFrame(can_id, expected.to_bytes(2, "little"))}
            assert sorted(nid for nid, _ in delivered) == \
                [i + 1 for i in range(n_endpoints) if i != winner]


_FILTERS = st.lists(st.tuples(st.integers(0, 0x7FF), st.integers(0, 0x7FF)), max_size=3)


@given(_FILTERS, _FILTERS, st.lists(st.integers(0, 0x7FF), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_memoised_acceptance_matches_the_filter_list(filters, refilters, ids):
    ep = Bus().attach(1, filters=tuple(filters))
    for current in (filters, refilters):
        ep.filters = current  # a new filter list forgets every earlier answer
        for can_id in ids + ids:
            assert ep.accepts(can_id) == any((can_id & mask) == match for mask, match in current)


def test_idle_bus_step_is_free():
    bus, _, _ = two_node_bus()
    assert bus.step() == ([], 0)
    assert not bus.pending()


def test_sender_does_not_hear_itself():
    bus, a, b = two_node_bus()
    bus.transmit(a, CanFrame(0x100, b"out"))
    delivered, _ = bus.step()
    assert [(nid, f.data) for nid, f in delivered] == [(2, b"out")]
    assert recv_segmented(a) is None
    with pytest.raises(SequenceGap):  # b"out" is not a header, so b's reassembly refuses it
        recv_segmented(b)


def test_acceptance_filters():
    bus = Bus()
    a = bus.attach(1, filters=ACCEPT_ALL)
    b = bus.attach(2, filters=((0x7FF, 0x201),))
    c = bus.attach(3, filters=((0x7FF, 0x300), (0x7FF, 0x201)))
    bus.transmit(a, CanFrame(0x201, b"hit"))
    delivered, _ = bus.step()
    assert sorted(nid for nid, _ in delivered) == [2, 3]
    bus.transmit(a, CanFrame(0x400, b"miss"))
    delivered, _ = bus.step()
    assert delivered == []  # nobody else accepts 0x400


# -- fault injection --------------------------------------------------------------


def test_corruption_raises_error_frame_and_retransmits():
    bus, a, b = two_node_bus(BusConfig(corruption_probability=1.0, max_auto_retransmit=2))
    bus.trace_enabled = True
    bus.transmit(a, CanFrame(0x100, b"payload"))
    delivered, elapsed = bus.step()
    assert delivered == []                 # corrupted frames are never delivered
    assert elapsed == 500                  # but they did occupy the bus
    assert bus.trace[-1]["kind"] == "error"
    assert a.retransmissions == 1
    assert a.tx                            # requeued at the front


def test_retransmit_budget_exhaustion_goes_bus_off():
    bus, a, b = two_node_bus(BusConfig(drop_probability=1.0, max_auto_retransmit=2))
    bus.transmit(a, CanFrame(0x100, b"doomed"))
    for _ in range(3):  # initial try + 2 retransmits
        bus.step()
    assert not a.tx
    assert a.bus_off_count == 1
    assert bus.stats.bus_off_events == 1
    assert not b.rx


def test_unlimited_retransmit_budget():
    bus, a, _ = two_node_bus(BusConfig(drop_probability=1.0, max_auto_retransmit=None))
    bus.transmit(a, CanFrame(0x100, b"x"))
    for _ in range(50):
        bus.step()
    assert a.tx  # still trying
    assert a.bus_off_count == 0


def test_fault_lottery_is_single_roll():
    # corruption 1.0 means the drop branch is unreachable: every fault is a
    # corruption, never a drop.
    bus, a, _ = two_node_bus(BusConfig(corruption_probability=1.0, drop_probability=1.0,
                                       max_auto_retransmit=0))
    bus.transmit(a, CanFrame(0x100, b"x"))
    bus.step()
    assert bus.stats.corrupted == 1
    assert bus.stats.dropped == 0


def test_seeded_faults_are_reproducible():
    def run():
        bus, a, b = two_node_bus(BusConfig(corruption_probability=0.3, rng_seed=99))
        for i in range(40):
            bus.transmit(a, CanFrame(0x100, bytes([i])))
        log = []
        while bus.pending():
            delivered, _ = bus.step()
            log.append(tuple(f.data for _, f in delivered))
        return log, bus.stats.corrupted

    assert run() == run()


# -- segmented transport -----------------------------------------------------------


def test_fifteen_byte_payload_frame_shape():
    bus, a, b = two_node_bus()
    payload = bytes(range(15))
    frames = send_segmented(bus, a, 0x123, payload)
    assert frames == 4  # header + 7 + 7 + 1

    sent = []
    while bus.pending():
        delivered, _ = bus.step()
        sent += [frame for _, frame in delivered]
    header = sent[0].data
    marker, length, crc, pad = struct.unpack("<BHIB", header)
    assert (marker, length, pad) == (HEADER_MARKER, 15, 0)
    assert crc == crc32(payload)
    assert [f.data[0] for f in sent[1:]] == [0, 1, 2]
    assert [f.data[1:] for f in sent[1:]] == [payload[0:7], payload[7:14], payload[14:15]]


def test_segmented_roundtrip():
    bus, a, b = two_node_bus()
    payload = bytes(1000)
    send_segmented(bus, a, 0x101, payload)
    while bus.pending():
        bus.step()
    msg = recv_segmented(b)
    assert msg is not None
    assert (msg.can_id, msg.payload) == (0x101, payload)
    assert recv_segmented(b) is None


def test_recv_returns_none_while_incomplete():
    bus, a, b = two_node_bus()
    send_segmented(bus, a, 0x101, bytes(20))
    bus.step()  # header only
    assert recv_segmented(b) is None
    bus.step()  # first body frame
    assert recv_segmented(b) is None


def test_empty_payload_rejected():
    bus, a, _ = two_node_bus()
    with pytest.raises(ValueError):
        send_segmented(bus, a, 0x101, b"")


def test_payload_cap_is_16_bit():
    bus, a, _ = two_node_bus()
    send_segmented(bus, a, 0x101, bytes(0xFFFF))
    with pytest.raises(PayloadTooLarge):
        send_segmented(bus, a, 0x102, bytes(0x10000))


def test_segmented_id_past_11_bits_is_malformed_and_queues_nothing():
    bus, a, _ = two_node_bus()
    with pytest.raises(MalformedFrame):
        send_segmented(bus, a, 0x800, b"payload")
    assert not a.tx and not bus.pending()


def test_body_without_header_is_a_sequence_gap():
    bus, a, b = two_node_bus()
    bus.transmit(a, CanFrame(0x101, b"\x00junk"))
    bus.step()
    with pytest.raises(SequenceGap):
        recv_segmented(b)


def test_missing_body_frame_is_a_sequence_gap():
    bus, a, b = two_node_bus()
    payload = bytes(21)  # header + seq 0,1,2
    header = struct.pack("<BHIB", HEADER_MARKER, len(payload), crc32(payload), 0)
    bus.transmit(a, CanFrame(0x101, header))
    bus.transmit(a, CanFrame(0x101, b"\x00" + payload[:7]))
    bus.transmit(a, CanFrame(0x101, b"\x02" + payload[14:]))  # seq 1 is lost
    while bus.pending():
        bus.step()
    with pytest.raises(SequenceGap):
        recv_segmented(b)
    # State is discarded: a fresh send reassembles cleanly afterwards.
    send_segmented(bus, a, 0x101, b"recovered")
    while bus.pending():
        bus.step()
    assert recv_segmented(b).payload == b"recovered"


def test_wrong_crc_is_checksum_mismatch():
    bus, a, b = two_node_bus()
    payload = b"\x11" * 10
    bad_header = struct.pack("<BHIB", HEADER_MARKER, len(payload), crc32(payload) ^ 1, 0)
    bus.transmit(a, CanFrame(0x101, bad_header))
    bus.transmit(a, CanFrame(0x101, b"\x00" + payload[:7]))
    bus.transmit(a, CanFrame(0x101, b"\x01" + payload[7:]))
    while bus.pending():
        bus.step()
    with pytest.raises(ChecksumMismatch):
        recv_segmented(b)


def test_lower_id_sender_preempts_between_frames():
    bus = Bus()
    a = bus.attach(1, filters=())        # transmit-only senders
    c = bus.attach(3, filters=())
    b = bus.attach(2)
    send_segmented(bus, a, 0x102, b"B" * 9)   # queued first
    send_segmented(bus, c, 0x101, b"A" * 9)   # lower id, queued second
    while bus.pending():
        bus.step()
    # Arbitration runs per frame, so the lower id finishes first even though
    # the other sender had already queued its whole message.
    first = recv_segmented(b)
    second = recv_segmented(b)
    assert (first.can_id, first.payload) == (0x101, b"A" * 9)
    assert (second.can_id, second.payload) == (0x102, b"B" * 9)


def test_interleaved_ids_reassemble_independently():
    # One sender emitting two payloads frame-interleaved across two ids:
    # reassembly state must be kept per id.
    bus, a, b = two_node_bus()
    pa, pb = b"A" * 9, b"B" * 9
    ha = struct.pack("<BHIB", HEADER_MARKER, len(pa), crc32(pa), 0)
    hb = struct.pack("<BHIB", HEADER_MARKER, len(pb), crc32(pb), 0)
    for frame in (
        CanFrame(0x101, ha),
        CanFrame(0x102, hb),
        CanFrame(0x101, b"\x00" + pa[:7]),
        CanFrame(0x102, b"\x00" + pb[:7]),
        CanFrame(0x101, b"\x01" + pa[7:]),
        CanFrame(0x102, b"\x01" + pb[7:]),
    ):
        bus.transmit(a, frame)
    while bus.pending():
        bus.step()
    first = recv_segmented(b)
    second = recv_segmented(b)
    assert (first.can_id, first.payload) == (0x101, pa)
    assert (second.can_id, second.payload) == (0x102, pb)


def test_endpoint_clear_drops_partial_assembly():
    bus, a, b = two_node_bus()
    send_segmented(bus, a, 0x101, bytes(30))
    bus.step()
    bus.step()
    b.clear()
    assert recv_segmented(b) is None  # nothing left, no exception


@given(st.binary(min_size=1, max_size=300), st.integers(0, 0x7FF))
@settings(max_examples=80, deadline=None)
def test_segmented_roundtrip_property(payload, can_id):
    bus, a, b = two_node_bus()
    frames = send_segmented(bus, a, can_id, payload)
    assert frames == 1 + -(-len(payload) // 7)
    while bus.pending():
        bus.step()
    assert recv_segmented(b).payload == payload


def test_stats_accumulate():
    bus, a, b = two_node_bus()
    send_segmented(bus, a, 0x101, bytes(14))
    while bus.pending():
        bus.step()
    assert bus.stats.frames_sent == 3
    assert bus.stats.payload_bytes == 8 + 8 + 8  # header + two full body frames
    assert bus.stats.deliveries == 3
    assert bus.stats.busy_time_us == 3 * 500


# -- streams against steps ---------------------------------------------------------

_IDS = (0x100, 0x101, 0x200)
_RAW = st.one_of(
    st.binary(max_size=8),
    st.builds(lambda length, crc: struct.pack("<BHIB", HEADER_MARKER, length, crc, 0),
              st.integers(0, 20), st.integers(0, 2**32 - 1)),  # a header, perhaps a lying one
    st.builds(lambda seq, body: bytes([seq]) + body, st.integers(0, 3), st.binary(max_size=7)))
_QUEUE = st.one_of(
    st.tuples(st.just("message"), st.integers(0, 2), st.sampled_from(_IDS),
              st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("frame"), st.integers(0, 2), st.sampled_from(_IDS), _RAW))
_DRAIN = st.tuples(st.just("drain"), st.integers(1, 60))
_TICK_US = 1000


@settings(max_examples=200, deadline=None)
@given(senders=st.integers(2, 3),
       listening=st.lists(st.booleans(), min_size=4, max_size=4),
       filtered=st.lists(st.booleans(), min_size=4, max_size=4),
       corruption=st.sampled_from([0.0, 0.2]),
       drop=st.sampled_from([0.0, 0.05]),
       budget=st.sampled_from([0, 3, None]),
       trace=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       program=st.lists(st.one_of(_QUEUE, _DRAIN), max_size=40))
def test_streams_replay_step_by_step_byte_for_byte(
        senders, listening, filtered, corruption, drop, budget, trace, seed, program):
    """Two identical buses take the same queued messages and raw frames.  One
    drains by ``step()`` alone, the other by ``stream()``, with a ``step()``
    whenever the stream sends nothing, as the world does.  After every call
    both sides hold the same receive queues and open reassemblies, and a
    stream has added to no queue; then the ``listening`` endpoints are
    drained by ``recv_segmented``, the others only at the end."""
    class Side:
        def __init__(self):
            self.bus = Bus(BusConfig(corruption_probability=corruption, drop_probability=drop,
                                     rng_seed=seed, max_auto_retransmit=budget))
            self.bus.trace_enabled = trace
            # The senders, then one endpoint that only receives; a filtered one hears one id.
            self.endpoints = [
                self.bus.attach(i + 1, ((0x7FF, _IDS[i % 3]),) if filtered[i] else ACCEPT_ALL)
                for i in range(senders + 1)]
            self.listening = [ep for ep, on in zip(self.endpoints, listening) if on]
            self.log = {ep.node_id: [] for ep in self.endpoints}

        def drain(self, endpoints):
            for ep in endpoints:
                while ep.rx:
                    try:
                        msg = recv_segmented(ep)
                    except CanError as exc:
                        self.log[ep.node_id].append(type(exc).__name__)
                    else:
                        self.log[ep.node_id].append((msg.can_id, msg.payload))

        def queues(self):
            return [([(type(o).__name__, str(o)) if isinstance(o, CanError)
                      else (o.can_id, o.payload) for o in ep.rx],
                     {can_id: (a.expected, a.crc, bytes(a.buf), a.seq)
                      for can_id, a in ep._assembly.items()})
                    for ep in self.endpoints]

        def observed(self):
            return (dataclasses.astuple(self.bus.stats), self.bus.rng.getstate(), self.bus.trace,
                    [(ep.retransmissions, ep.bus_off_count) for ep in self.endpoints],
                    self.queues(), self.log)

    stepped, streamed = Side(), Side()
    now = 0
    for op in program + [("drain", 10**6)]:
        if op[0] != "drain":
            kind, sender, can_id, data = op
            for side in (stepped, streamed):
                if kind == "message":
                    send_segmented(side.bus, side.endpoints[sender % senders], can_id, data)
                else:
                    side.bus.transmit(side.endpoints[sender % senders], CanFrame(can_id, data))
            continue
        ticks = op[1]
        while ticks and streamed.bus.pending():
            queued = [len(ep.rx) for ep in streamed.endpoints]
            sent = streamed.bus.stream(now, _TICK_US, ticks)
            if sent:
                assert [len(ep.rx) for ep in streamed.endpoints] == queued
            else:
                streamed.bus.step(now)
                sent = 1
            for _ in range(sent):
                stepped.bus.step(now)
                now += _TICK_US
            ticks -= sent
            assert streamed.observed() == stepped.observed()
            for side in (stepped, streamed):
                side.drain(side.listening)
    assert not stepped.bus.pending()
    for side in (stepped, streamed):
        side.drain(side.endpoints)
    assert streamed.observed() == stepped.observed()


def test_wait_for_returns_the_first_poll_result_or_none_at_its_deadline():
    clock = [0]
    answers = iter([None, 0, "later"])
    polls = []

    def poll():
        polls.append(clock[0])
        return next(answers)

    waiter = wait_for(lambda: clock[0], 5000, poll)
    assert next(waiter) == 5000  # waiting yields the deadline
    clock[0] = 1000
    with pytest.raises(StopIteration) as stop:
        next(waiter)
    assert stop.value.value == 0  # falsy, but not None: an answer
    assert polls == [0, 1000]

    waiter = wait_for(lambda: clock[0], 3000, lambda: None)
    assert next(waiter) == 3000
    clock[0] = 3000
    with pytest.raises(StopIteration) as stop:
        next(waiter)
    assert stop.value.value is None
