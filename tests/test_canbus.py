"""Bus arbitration, fault injection and the segmented transport."""

import dataclasses
import struct
from random import Random

import pytest
from hypothesis import example, given, settings
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
    SegmentedMessage,
    SequenceGap,
    await_reply,
    recv_segmented,
    send_segmented,
    wait_for,
)
from conftest import crc32_bitwise, xor_generator
from fotasim.integrity import crc32
from fotasim.orchestrator import CampaignMode, CampaignPlan, run_campaign
from fotasim.scenario import DEFAULT_SECRET, build_world, generate_image, mutate_blocks


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
    frame = CanFrame(0x100, bytearray(b"ab"))  # stored as bytes, so the frame is immutable
    assert type(frame.data) is bytes and frame.data == b"ab"


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
    landed, elapsed = bus.step()
    assert landed == b"early"
    assert elapsed == bus.config.frame_time_us
    assert (len(a.rx), len(b.rx)) == (1, 0)  # only node 1 took it
    landed, _ = bus.step()
    assert landed == b"late"
    assert (len(a.rx), len(b.rx)) == (1, 1)


def test_equal_ids_resolve_in_enqueue_order():
    bus, a, b = two_node_bus()
    bus.transmit(b, CanFrame(0x100, b"first"))
    bus.transmit(a, CanFrame(0x100, b"second"))
    assert bus.step()[0] == b"first"
    assert bus.step()[0] == b"second"


_SHARED_IDS = (0x100, 0x101, 0x300)
# ("send", sender, can_id, payload length): 0 queues a raw 2-byte frame, more a message.
_SEND = st.tuples(st.just("send"), st.integers(0, 3),
                  st.one_of(st.integers(0, 0x7FF), st.sampled_from(_SHARED_IDS)), st.just(0))
_SEND_MESSAGE = st.tuples(st.just("send"), st.integers(0, 3), st.sampled_from(_SHARED_IDS),
                          st.integers(1, 40))
_STEP = st.tuples(st.just("step"), st.booleans(), st.integers(1, 20))  # True: frames drop


@given(st.integers(3, 4), st.booleans(),
       st.lists(st.one_of(_SEND, _SEND_MESSAGE, _STEP), max_size=60))
@settings(max_examples=150, deadline=None)
def test_arbitration_picks_the_lowest_id_then_the_oldest_entry(n_endpoints, streamed, program):
    """Every frame the bus sends comes from the queue head with the lowest
    ``(can_id, enqueue order)``, each frame of a segmented message too,
    whether ``step()`` alone drives the bus or ``stream()`` (up to the
    step op's frame count) plus a ``step()`` for the frame a stream says
    would land, as the world does; a dropped frame keeps its entry's slot."""
    bus = Bus(BusConfig(max_auto_retransmit=None))
    bus.trace_enabled = True
    endpoints = [bus.attach(i + 1) for i in range(n_endpoints)]
    queues = [[] for _ in endpoints]  # reference FIFOs of [(can_id, order), frames left, raw]
    order = 0
    for op in program:
        if op[0] == "send":
            _, index, can_id, length = op
            index %= n_endpoints
            order += 1
            if length:
                payload = bytes((order + k) & 0xFF for k in range(length))
                send_segmented(bus, endpoints[index], can_id, payload)
                frames = [struct.pack("<BHIB", HEADER_MARKER, length, crc32(payload), 0)] + \
                    [bytes((k,)) + payload[7 * k : 7 * k + 7] for k in range(-(-length // 7))]
            else:
                frames = [order.to_bytes(2, "little")]
                bus.transmit(endpoints[index], CanFrame(can_id, frames[0]))
            queues[index].append([(can_id, order), frames, not length])
            continue
        _, drop, max_frames = op
        heads = sorted((q[0][0], i) for i, q in enumerate(queues) if q)
        bus.config = BusConfig(drop_probability=1.0 if drop else 0.0, max_auto_retransmit=None)
        open_ids = {can_id for ep in endpoints for can_id in ep._assembly}
        retransmissions = [ep.retransmissions for ep in endpoints]
        queued = [len(ep.rx) for ep in endpoints]
        rows = len(bus.trace)
        if streamed:
            sent, lands = bus.stream(0, 500, max_frames)
            if lands:
                bus.step()
            sent += lands
        else:
            sent = int(bus.step()[1] > 0)
        if not heads:
            assert sent == 0
            continue
        if drop:
            assert len(bus.trace) == rows
            assert [ep.retransmissions - r for ep, r in zip(endpoints, retransmissions)] == \
                [sent * (i == heads[0][1]) for i in range(n_endpoints)]
            continue
        assert len(bus.trace) - rows == sent > 0
        raw = None
        for row in bus.trace[rows:]:
            (can_id, _), winner = min((q[0][0], i) for i, q in enumerate(queues) if q)
            entry = queues[winner][0]
            assert (row["kind"], row["id"], row["data"]) == ("data", can_id, entry[1].pop(0).hex())
            if not entry[1]:
                queues[winner].pop(0)
            if entry[2]:
                raw = can_id, winner
        if raw and raw[0] not in open_ids:
            # A 2-byte frame is never a header, and a raw frame lands alone in a step:
            # each receiver queues one gap naming its id.
            can_id, winner = raw
            assert [len(ep.rx) - n for ep, n in zip(endpoints, queued)] == \
                [int(i != winner) for i in range(n_endpoints)]
            assert all(f"on id 0x{can_id:X} " in str(ep.rx[-1])
                       for i, ep in enumerate(endpoints) if i != winner)


_FILTERS = st.lists(st.tuples(st.integers(0, 0x7FF), st.integers(0, 0x7FF)), max_size=3)


@given(_FILTERS, _FILTERS, st.lists(st.integers(0, 0x7FF), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_memoised_acceptance_matches_the_filter_list(filters, refilters, ids):
    """An endpoint's answers, and the receivers the bus finds for a sender
    and an id, follow a new filter list and a later attach: a streamed and
    a stepped message each reach exactly the endpoints that accept the id."""
    bus = Bus()
    sender = bus.attach(1)
    ep = bus.attach(2, filters=tuple(filters))
    endpoints = [sender, ep]

    def hear(can_id, streamed):
        send_segmented(bus, sender, can_id, b"x")
        if streamed and bus.stream(0, 500, 10)[1]:
            bus.step()
        while bus.pending():
            bus.step()
        for other in endpoints[1:]:
            accepts = any((can_id & mask) == match for mask, match in other.filters)
            assert [(m.can_id, m.payload) for m in other.rx] == [(can_id, b"x")] * accepts
            other.rx.clear()

    for current in (filters, refilters):
        ep.filters = current  # a new filter list forgets every earlier answer
        for can_id in ids + ids:
            assert ep.accepts(can_id) == any((can_id & mask) == match for mask, match in current)
            hear(can_id, streamed=True)
            hear(can_id, streamed=False)
    endpoints.append(bus.attach(3, filters=tuple(filters)))  # heard from its attach on
    for can_id in ids:
        hear(can_id, streamed=True)
        hear(can_id, streamed=False)


def test_idle_bus_step_is_free():
    bus, _, _ = two_node_bus()
    assert bus.step() == (None, 0)
    assert not bus.pending()


def test_sender_does_not_hear_itself():
    bus, a, b = two_node_bus()
    bus.transmit(a, CanFrame(0x100, b"out"))
    landed, _ = bus.step()
    assert landed == b"out"
    assert bus.stats.deliveries == 1
    assert recv_segmented(a) is None
    with pytest.raises(SequenceGap):  # b"out" is not a header, so b's reassembly refuses it
        recv_segmented(b)


def test_acceptance_filters():
    bus = Bus()
    a = bus.attach(1, filters=ACCEPT_ALL)
    b = bus.attach(2, filters=((0x7FF, 0x201),))
    c = bus.attach(3, filters=((0x7FF, 0x300), (0x7FF, 0x201)))
    bus.transmit(a, CanFrame(0x201, b"hit"))
    bus.step()
    assert [len(ep.rx) for ep in (a, b, c)] == [0, 1, 1]
    bus.transmit(a, CanFrame(0x400, b"miss"))
    assert bus.step()[0] == b"miss"
    assert [len(ep.rx) for ep in (a, b, c)] == [0, 1, 1]  # nobody else accepts 0x400
    assert bus.stats.deliveries == 2


# -- fault injection --------------------------------------------------------------


def test_corruption_raises_error_frame_and_retransmits():
    bus, a, b = two_node_bus(BusConfig(corruption_probability=1.0, max_auto_retransmit=2))
    bus.trace_enabled = True
    bus.transmit(a, CanFrame(0x100, b"payload"))
    landed, elapsed = bus.step()
    assert landed is None                  # corrupted frames are never delivered
    assert elapsed == 500                  # but they did occupy the bus
    assert bus.trace[-1]["kind"] == "error"
    assert a.retransmissions == 1
    assert a.tx                            # requeued at the front


def test_a_zero_length_frame_that_draws_a_corruption_counts_as_corrupted():
    """Only the bit flip needs a byte: an empty frame whose roll falls below
    the corruption probability is an error frame, with the one draw."""
    bus, a, _ = two_node_bus(BusConfig(corruption_probability=1.0, max_auto_retransmit=0))
    bus.trace_enabled = True
    bus.transmit(a, CanFrame(0x100, b""))
    assert bus.step() == (None, 500)
    stats = bus.stats
    assert (stats.corrupted, stats.dropped, stats.bus_off_events) == (1, 0, 1)
    assert [(row["dlc"], row["kind"]) for row in bus.trace] == [(0, "error")]
    reference = Random(0)
    reference.random()
    assert bus.rng.getstate() == reference.getstate()


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
    # Probabilities summing to 1 fault every frame under one roll, some by
    # corruption and some by drop; two independent rolls would let about a
    # quarter of the frames land.
    bus, a, _ = two_node_bus(BusConfig(corruption_probability=0.5, drop_probability=0.5,
                                       max_auto_retransmit=0, rng_seed=4))
    for i in range(40):
        bus.transmit(a, CanFrame(0x100, bytes([i])))
    while bus.pending():
        assert bus.step()[0] is None
    assert bus.stats.corrupted + bus.stats.dropped == 40
    assert bus.stats.corrupted and bus.stats.dropped


@pytest.mark.parametrize("corruption, drop", [
    (-0.1, 0.0), (0.0, -0.3), (0.3, -0.3), (float("nan"), 0.0), (0.0, float("nan")),
    (0.6, 0.5), (1.0, 1.0), (float("inf"), 0.0)])
def test_bus_config_refuses_fault_probabilities_one_roll_cannot_hold(corruption, drop):
    # One roll decides both faults, so each probability is non-negative and
    # the pair shares [0, 1].
    with pytest.raises(ValueError, match="probabilities"):
        BusConfig(corruption_probability=corruption, drop_probability=drop)


@pytest.mark.parametrize("setting, value", [
    ("frame_time_us", -500), ("frame_time_us", 0), ("frame_time_us", 1500.5),
    ("frame_time_us", True), ("frame_time_us", "500"),
    ("max_auto_retransmit", -1), ("max_auto_retransmit", 1.5), ("max_auto_retransmit", "x"),
    ("max_auto_retransmit", False)])
def test_bus_config_refuses_a_frame_time_or_budget_a_bus_cannot_run(setting, value):
    # A negative frame time made durations negative; a fractional one made them floats.
    with pytest.raises(ValueError, match=setting):
        BusConfig(**{setting: value})


def test_bus_config_takes_the_least_frame_time_and_budget_and_no_budget():
    assert BusConfig(frame_time_us=1, max_auto_retransmit=0).frame_time_us == 1
    assert BusConfig(max_auto_retransmit=None).max_auto_retransmit is None


def test_a_fault_free_bus_never_draws():
    """With both fault probabilities zero no frame can fault, so no step,
    no lone frame of a stream and no clean run of one draws from the bus's
    RNG: a whole campaign leaves its state as it was."""
    old = generate_image(16 * 1024, seed=3)
    world, _, _ = build_world(old_image=old, seed=3)
    state = world.bus.rng.getstate()
    plan = CampaignPlan(mode=CampaignMode.FULL, old_image=old,
                        new_image=mutate_blocks(old, count=2, seed=4),
                        shared_secret=DEFAULT_SECRET)
    report = run_campaign(world, plan)
    assert report.success and report.frames_sent > 0
    assert world.bus.rng.getstate() == state

    bus, a, b = two_node_bus()
    state = bus.rng.getstate()
    payloads = [bytes(range(n)) for n in (1, 7, 8, 200)]
    for payload in payloads:
        send_segmented(bus, a, 0x100, payload)
        bus.transmit(a, CanFrame(0x101, b"x"))
    now = 0
    while bus.pending():  # streamed, with a step for each frame that lands a message
        sent, lands = bus.stream(now, 500, 1000)
        now += sent * 500
        if lands:
            bus.step(now)
            now += 500
    for payload in payloads:
        send_segmented(bus, b, 0x200, payload)
    while bus.pending():  # stepped
        bus.step()
    assert bus.rng.getstate() == state
    assert bus.stats.frames_sent == 2 * sum(2 + (len(p) - 1) // 7 for p in payloads) + 4
    # b also hears a's raw 1-byte frames, each a SequenceGap.
    assert [(o.can_id, o.payload) for o in a.rx] == [(0x200, p) for p in payloads]
    assert [(o.can_id, o.payload) for o in b.rx if not isinstance(o, CanError)] == \
        [(0x100, p) for p in payloads]


def test_seeded_faults_are_reproducible():
    def run():
        bus, a, b = two_node_bus(BusConfig(corruption_probability=0.3, rng_seed=99))
        for i in range(40):
            bus.transmit(a, CanFrame(0x100, bytes([i])))
        log = []
        while bus.pending():
            log.append(bus.step()[0])
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
        sent.append(bus.step()[0])
    marker, length, crc, pad = struct.unpack("<BHIB", sent[0])
    assert (marker, length, pad) == (HEADER_MARKER, 15, 0)
    assert crc == crc32(payload)
    assert [data[0] for data in sent[1:]] == [0, 1, 2]
    assert [data[1:] for data in sent[1:]] == [payload[0:7], payload[7:14], payload[14:15]]


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


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("colliding", [False, True])
def test_a_message_its_sender_did_not_finish_is_checked_against_the_sent_payloads_crc(
        streamed, colliding):
    """The sender's own header opens the receiver's assembly, by a step or by
    a stream, then the sender resets mid-message and another endpoint's raw
    body frame completes it.  Bytes that are not the queued payload are
    checked against the payload's CRC: a foreign chunk breaks the message,
    and one whose bytes keep the CRC (the generator XORed in) completes it
    with the bytes assembled."""
    bus = Bus()
    a, c = bus.attach(1, filters=()), bus.attach(3, filters=())
    b = bus.attach(2)
    payload = bytes(range(1, 15))  # the header and two body frames
    send_segmented(bus, a, 0x101, payload)
    if streamed:
        assert bus.stream(0, 500, 10) == (2, True)  # it stops before the completing frame
    else:
        bus.step()
        bus.step()
    a.clear()
    substitute = bytearray(payload)
    if colliding:
        xor_generator(substitute, 7)
        assert crc32(substitute) == crc32(payload)
    else:
        substitute[7:] = bytes(7)
    bus.transmit(c, CanFrame(0x101, b"\x01" + substitute[7:]))
    bus.step()
    if colliding:
        msg = recv_segmented(b)
        assert (msg.can_id, msg.payload) == (0x101, bytes(substitute)) and msg.payload != payload
    else:
        with pytest.raises(ChecksumMismatch):
            recv_segmented(b)
    assert recv_segmented(b) is None


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("foreign", [False, True])
def test_a_stream_carries_body_frames_only_into_its_own_message(foreign, streamed):
    """On a bus with no retransmit budget a message's header, or its second
    body frame, is given up.  The receiver's assembly is then one a third
    endpoint's raw header opened, with the message's CRC, or out of phase;
    a stream carries no body frame into it, and stream plus steps queue
    what steps alone queue: the message accepted by the foreign header's
    CRC, or three sequence gaps."""
    clean = BusConfig(max_auto_retransmit=0)
    bus = Bus(clean)
    a, c = bus.attach(1, filters=()), bus.attach(3, filters=())
    b = bus.attach(2)
    payload = bytes(range(20 if foreign else 29))
    if foreign:
        bus.transmit(c, CanFrame(0x101, struct.pack("<BHIB", HEADER_MARKER, 20, crc32(payload), 0)))
        bus.step()
    send_segmented(bus, a, 0x101, payload)
    for _ in range(0 if foreign else 2):
        bus.step()
    bus.config = BusConfig(drop_probability=1.0, max_auto_retransmit=0)
    bus.step()  # the frame draws a drop and its sender gives it up
    bus.config = clean
    if streamed:
        assert bus.stream(0, 1000, 10) == (0, True)
    while bus.pending():
        if not streamed or bus.stream(0, 1000, 10)[1]:
            bus.step()
    queued = [type(o).__name__ if isinstance(o, CanError) else (o.can_id, o.payload) for o in b.rx]
    assert queued == ([(0x101, payload)] if foreign else ["SequenceGap"] * 3)


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("trace", [False, True])
def test_a_header_is_built_once_and_only_when_a_frame_needs_it(
        monkeypatch, faulty, streamed, trace):
    """A message's header, and so its CRC, is built the first time a step
    lands it, it faults or it is traced, and kept for its retries; a clean
    untraced stream never builds one.  Every traced header is the one the
    wire format states, computed here from the payload."""
    built = []
    monkeypatch.setattr("fotasim.canbus.crc32", lambda data: built.append(1) or crc32(data))
    bus, a, b = two_node_bus(BusConfig(corruption_probability=0.3 if faulty else 0.0,
                                       rng_seed=2, max_auto_retransmit=None))
    bus.trace_enabled = trace
    alone, land = [], bus._land  # the entry of each header that goes through _land

    def counted(sender, entry, *rest):
        if entry.index == 0:
            alone.append(entry.order)
        return land(sender, entry, *rest)

    bus._land = counted
    payloads = [bytes(range(n)) for n in (1, 7, 8, 30)]
    expected = []
    for payload in payloads:
        send_segmented(bus, a, 0x100, payload)
        expected.append(struct.pack("<BHIB", HEADER_MARKER, len(payload), crc32(payload), 0))
        expected += [bytes((k,)) + payload[7 * k : 7 * k + 7] for k in range(-(-len(payload) // 7))]
    while bus.pending():
        if not streamed or bus.stream(0, 500, 1000)[1]:
            bus.step()
    assert [(o.can_id, o.payload) for o in b.rx] == [(0x100, p) for p in payloads]
    assert len(built) == (len(payloads) if trace else len(set(alone)))
    if faulty and not streamed:
        assert len(alone) > len(payloads)  # a header was retried and not built again
    if not (faulty or streamed):
        assert len(alone) == len(payloads)
    if trace:
        rows = [bytes.fromhex(row["data"]) for row in bus.trace if row["kind"] == "data"]
        assert rows == expected


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
_RAW_HEADER = st.builds(lambda length, crc: struct.pack("<BHIB", HEADER_MARKER, length, crc, 0),
                        st.integers(0, 20), st.integers(0, 2**32 - 1))  # perhaps a lying one
_RAW = st.one_of(
    st.binary(max_size=8),
    _RAW_HEADER,
    st.builds(lambda seq, body: bytes([seq]) + body, st.integers(0, 3), st.binary(max_size=7)))
_QUEUE = st.one_of(
    st.tuples(st.just("message"), st.integers(0, 2), st.sampled_from(_IDS),
              st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("frame"), st.integers(0, 2), st.sampled_from(_IDS), _RAW),
    # The last message again, the same payload object, as a resend after a reset queues it.
    st.tuples(st.just("resend"), st.integers(0, 2)),
    # A message, behind a raw frame (often a header) that its sender queues on its id, or
    # behind nothing; then steps of ``frames`` frames, and the next frame drawn as a drop
    # and given up, as with no retransmit budget, or the sender reset mid-message.  The
    # receivers keep an assembly that another frame opened, or one out of phase, and the
    # same id's own body frames may follow.
    st.tuples(st.just("interrupt"), st.integers(0, 2), st.sampled_from(_IDS),
              st.binary(min_size=15, max_size=40), st.none() | _RAW_HEADER | _RAW,
              st.integers(0, 3), st.booleans()))
_DRAIN = st.tuples(st.just("drain"), st.integers(1, 60))
_TICK_US = 1000
_FOREIGN_HEADER = struct.pack("<BHIB", HEADER_MARKER, 20, 0, 0)  # opens 20 bytes, CRC 0


def _queue(bus, endpoints, op, last, now_us=0):
    """Apply ``op``, one of :data:`_QUEUE`, to ``bus``, whose sender ``i``
    is ``endpoints[i % len(endpoints)]``; ``last`` holds the last message's
    id and payload, for a resend.  Returns how many frames it stepped."""
    sender = endpoints[op[1] % len(endpoints)]
    if op[0] == "message":
        last[:] = op[2:]
        send_segmented(bus, sender, *last)
    elif op[0] == "frame":
        bus.transmit(sender, CanFrame(op[2], op[3]))
    elif op[0] == "resend" and last:
        send_segmented(bus, sender, *last)
    elif op[0] == "interrupt":
        _, _, can_id, data, opener, frames, reset = op
        if opener is not None:
            bus.transmit(sender, CanFrame(can_id, opener))
        last[:] = can_id, data
        send_segmented(bus, sender, can_id, data)
        for _ in range(frames):
            bus.step(now_us)
        if reset:
            sender.clear()
            return frames
        config = bus.config
        bus.config = BusConfig(drop_probability=1.0, max_auto_retransmit=0)
        bus.step(now_us)
        bus.config = config
        return frames + 1
    return 0


def _carries(bus):
    """Whether a stream carries the next frame on ``bus``, by the state before
    it lands: its message's header on an id no receiver has open, or a body
    frame into each receiver's assembly that this message's header opened,
    in phase (its last frame only when it has a receiver, whose queue it fills)."""
    sender = bus._winner()
    entry = sender.tx[0]
    states = [ep._assembly.get(entry.can_id) for ep in bus._receivers(sender, entry.can_id)]
    if entry.index == 0:
        return entry.count > 1 and not any(states)
    return all(s and s.sent is entry.payload and s.seq == entry.index - 1 for s in states) and (
        entry.index < entry.count - 1 or bool(states))


# A message's header, then its second body frame, given up: the receivers' assembly is one
# a raw header opened, or out of phase, when the message's own body frames follow.
_INTERRUPTED = [[("interrupt", 0, 0x101, bytes(range(30)), _FOREIGN_HEADER, 1, False),
                 ("drain", 60)],
                [("interrupt", 0, 0x101, bytes(range(30)), None, 2, False), ("drain", 60)]]


@settings(max_examples=200, deadline=None)
@example(filtered=[False] * 3, program=_INTERRUPTED[0])
@example(filtered=[False] * 3, program=_INTERRUPTED[1])
@given(filtered=st.lists(st.booleans(), min_size=3, max_size=3),
       program=st.lists(st.one_of(_QUEUE, _DRAIN), max_size=40))
def test_a_fault_free_stream_never_lands_a_frame_alone(filtered, program):
    """Messages and raw frames (some header-like, some on an id with no
    receiver, some messages interrupted between drains by a frame given up
    or their sender's reset) on a fault-free bus, drained by ``stream()``
    plus the ``step()`` for the frame a stream stops at.  No stream lands a
    frame through ``_land``: it stops, with ``lands``, before each frame it
    does not carry (a body frame into an assembly its message's header did not
    open, or out of phase), and before its message's last frame, which
    completes or breaks a message on each receiver."""
    bus = Bus()
    # A filtered endpoint hears only 0x100, so a frame on another id may have no receiver.
    endpoints = [bus.attach(i + 1, ((0x7FF, 0x100),) if filtered[i] else ACCEPT_ALL)
                 for i in range(3)]
    alone, land, last = [], bus._land, []
    bus._land = lambda *args: alone.append(args) or land(*args)
    for op in program + [("drain", 10**6)]:
        if op[0] != "drain":
            _queue(bus, endpoints, op, last)
            alone.clear()  # what an interruption stepped went through _land
            continue
        ticks = op[1]
        while ticks and bus.pending():
            carried = _carries(bus)
            sent, lands = bus.stream(0, _TICK_US, ticks)
            assert not alone and (sent or lands)
            assert carried or (sent, lands) == (0, True)
            if lands:
                queued = [len(ep.rx) for ep in endpoints]
                carried = _carries(bus)
                bus.step()
                assert not carried or [len(ep.rx) for ep in endpoints] != queued
                alone.clear()
                sent += 1
            ticks -= sent


_CLEAN_REPLAY = dict(senders=2, listening=[False] * 4, filtered=[False] * 4, corruption=0.0,
                     drop=0.0, budget=None, trace=False, seed=0)


@settings(max_examples=200, deadline=None)
@example(**_CLEAN_REPLAY, program=_INTERRUPTED[0])
@example(**_CLEAN_REPLAY, program=_INTERRUPTED[1])
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
    for the frame a stream says would land, as the world does.  After every
    call both sides hold the same receive queues and open reassemblies, a
    stream has added to no queue, and the frame it stopped at adds to one
    unless it faults; then the ``listening`` endpoints are drained by
    ``recv_segmented``, the others only at the end."""
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
    now, last = 0, []
    for op in program + [("drain", 10**6)]:
        if op[0] != "drain":
            for side in (stepped, streamed):
                frames = _queue(side.bus, side.endpoints[:senders], op, last, now)
            now += frames * _TICK_US
            continue
        ticks = op[1]
        while ticks and streamed.bus.pending():
            queued = [len(ep.rx) for ep in streamed.endpoints]
            sent, lands = streamed.bus.stream(now, _TICK_US, ticks)
            assert [len(ep.rx) for ep in streamed.endpoints] == queued
            assert sent or lands
            if lands:
                # The frame it stopped at completes or breaks a message, unless it faults
                # or is one a stream does not carry.
                assert sent < ticks
                carried = _carries(streamed.bus)
                landed, _ = streamed.bus.step(now + sent * _TICK_US)
                assert landed is None or not carried or \
                    [len(ep.rx) for ep in streamed.endpoints] != queued
                sent += 1
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


_ORACLE_IDS = (0x100, 0x101)
_ORACLE_OPS = st.one_of(
    # A message, and perhaps a raw body frame queued right after it on its id, with the
    # sequence byte and chunk length of its body frame ``back`` from the end: its own
    # bytes, or others (it completes the message if that frame was lost to a fault).
    st.tuples(st.just("message"), st.integers(0, 2), st.sampled_from(_ORACLE_IDS),
              st.binary(min_size=1, max_size=30),
              st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans(),
                                    st.binary(min_size=7, max_size=7))),
    st.tuples(st.just("frame"), st.integers(0, 2), st.sampled_from(_ORACLE_IDS), _RAW, st.none()),
    st.tuples(st.just("drain"), st.integers(1, 40), st.booleans()))


@settings(max_examples=300, deadline=None)
# The message's one body frame is lost to a fault; a raw frame with its sequence byte but
# other bytes completes it, and must fail the CRC.
@example(filtered=[False] * 3, corruption=0.25, drop=0.0, seed=7,
         program=[("message", 0, 0x100, b"fotasim", (1, 0, False, b"FOTASIM"))])
# A raw frame that looks like the header of an empty payload, and the body frame that
# completes it: no queued payload stands behind that header, so its CRC decides.
@example(filtered=[False] * 3, corruption=0.0, drop=0.0, seed=0,
         program=[("frame", 0, 0x100, struct.pack("<BHIB", HEADER_MARKER, 0, 0, 0), None),
                  ("frame", 1, 0x100, b"\x00", None)])
@given(filtered=st.lists(st.booleans(), min_size=3, max_size=3),
       corruption=st.sampled_from([0.0, 0.25]),
       drop=st.sampled_from([0.0, 0.1]),
       seed=st.integers(0, 2**32 - 1),
       program=st.lists(_ORACLE_OPS, max_size=40))
def test_receivers_match_an_independent_reassembly_of_the_landed_frames(
        filtered, corruption, drop, seed, program):
    """Random traffic (messages, raw frames that may look like headers, body
    frames spliced in with a message's sequence byte, two senders on one id)
    on a bus that skips every faulted frame, drained by ``step()`` alone or
    by ``stream()`` plus the ``step()`` for the frame a stream says would
    land.  Every frame that landed, read back from the trace's ``data`` rows
    with the sender the test saw send it, is replayed through each other
    endpoint's filters into a reassembly written here that always checks
    the CRC (bit by bit); each endpoint's receive queue holds exactly the
    outcomes, by type and payload, that this reassembly produces."""
    bus = Bus(BusConfig(corruption_probability=corruption, drop_probability=drop,
                        rng_seed=seed, max_auto_retransmit=0))
    bus.trace_enabled = True
    endpoints = [bus.attach(i + 1, ((0x7FF, _ORACLE_IDS[i % 2]),) if filtered[i] else ACCEPT_ALL)
                 for i in range(3)]
    landed = []  # (sender, can_id, data) for every frame that reached the receivers

    def frames_left(ep):
        return sum(entry.count - entry.index for entry in ep.tx)

    def run(call):
        before, rows = [frames_left(ep) for ep in endpoints], len(bus.trace)
        result = call()
        senders = [ep for ep, n in zip(endpoints, before) if frames_left(ep) < n]
        new = [row for row in bus.trace[rows:] if row["kind"] == "data"]
        assert len(senders) == 1 or not new
        landed.extend((senders[0], row["id"], bytes.fromhex(row["data"])) for row in new)
        return result

    now = 0
    for op in program + [("drain", 10**6, True)]:
        if op[0] == "drain":
            _, ticks, streamed = op
            while ticks and bus.pending():
                if streamed:
                    sent, lands = run(lambda: bus.stream(now, _TICK_US, ticks))
                    if lands:
                        run(lambda: bus.step(now + sent * _TICK_US))
                        sent += 1
                else:
                    sent = 1
                    run(lambda: bus.step(now))
                now += sent * _TICK_US
                ticks -= sent
            continue
        kind, sender, can_id, data, splice = op
        if kind == "frame":
            bus.transmit(endpoints[sender], CanFrame(can_id, data))
            continue
        send_segmented(bus, endpoints[sender], can_id, data)
        if splice is not None:
            splicer, back, own, other = splice
            index = max(0, -(-len(data) // 7) - 1 - back)
            chunk = data[7 * index : 7 * index + 7]
            body = bytes([index & 0xFF]) + (chunk if own else other[: len(chunk)])
            bus.transmit(endpoints[splicer], CanFrame(can_id, body))

    expected = {ep.node_id: [] for ep in endpoints}
    for ep in endpoints:
        open_ = {}  # can_id -> [expected length, crc, buffer, next sequence byte]
        for sender, can_id, data in landed:
            if sender is ep or not any(can_id & mask == match for mask, match in ep.filters):
                continue
            state = open_.get(can_id)
            if state is None:
                if len(data) == 8 and data[0] == HEADER_MARKER:
                    _, length, crc, _ = struct.unpack("<BHIB", data)
                    open_[can_id] = [length, crc, b"", 0]
                else:
                    expected[ep.node_id].append("SequenceGap")
                continue
            length, crc, buf, seq = state
            if not data or data[0] != seq:
                expected[ep.node_id].append("SequenceGap")
                del open_[can_id]
                continue
            state[2], state[3] = buf + data[1:], (seq + 1) & 0xFF
            if len(state[2]) >= length:
                whole = len(state[2]) == length and crc32_bitwise(state[2]) == crc
                expected[ep.node_id].append((can_id, state[2]) if whole else "ChecksumMismatch")
                del open_[can_id]
    for ep in endpoints:
        outcomes = []
        while ep.rx:
            try:
                msg = recv_segmented(ep)
            except CanError as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append((msg.can_id, msg.payload))
        assert outcomes == expected[ep.node_id]


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


def test_a_reply_queued_behind_a_broken_message_is_found_by_the_same_poll():
    endpoint = Bus().attach(1)
    endpoint.rx.extend([SequenceGap("expected seq 3, got 5"), SegmentedMessage(0x7E8, b"reply")])
    waiter = await_reply(endpoint, lambda: 0, 5000, lambda payload: True)
    with pytest.raises(StopIteration) as stop:
        next(waiter)
    assert stop.value.value == b"reply"
    assert not endpoint.rx
