"""Seed/key security access: exact response bytes, attempt limits, lockout."""

import pytest

from fotasim.canbus import Bus, BusConfig
from fotasim.uds import (
    KEY_LENGTH,
    LOCKOUT_US,
    NRC_CONDITIONS_NOT_CORRECT,
    NRC_EXCEEDED_ATTEMPTS,
    NRC_INVALID_KEY,
    NRC_SEQUENCE_ERROR,
    SecuritySession,
    SecurityState,
    UnlockOutcome,
    client_unlock,
    derive_key,
    server_handle,
    xorshift32,
)

SECRET = 0x5EC10ACE


def session(**kw):
    return SecuritySession(SECRET, rng_seed=1, **kw)


def request_seed(s, now=0):
    reply = server_handle(s, bytes([0x27, 0x01]), now)
    assert reply[:2] == bytes([0x67, 0x01])
    return reply[2:]


# -- key derivation -------------------------------------------------------------


def test_xorshift32_reference_values():
    # One hand-checked chain from state 1.
    assert xorshift32(1) == 270369
    assert xorshift32(270369) == 67634689
    # Zero is the fixed point the derivation must avoid.
    assert xorshift32(0) == 0


def test_derive_key_shape_and_determinism():
    key = derive_key(b"\x12\x34\x56\x78", SECRET)
    assert len(key) == KEY_LENGTH
    assert key == derive_key(b"\x12\x34\x56\x78", SECRET)
    assert key != derive_key(b"\x12\x34\x56\x79", SECRET)
    assert key != derive_key(b"\x12\x34\x56\x78", SECRET ^ 1)


def test_derive_key_zero_state_remap():
    # seed XOR secret == 0 must not produce the all-zero key.
    seed = (SECRET & 0xFFFFFFFF).to_bytes(4, "big")
    key = derive_key(seed, SECRET)
    assert key != bytes(KEY_LENGTH)
    assert key == derive_key(b"\xde\xad\xbe\xef", 0)  # remapped to 0xDEADBEEF


def test_derive_key_validates_seed_length():
    with pytest.raises(ValueError):
        derive_key(b"\x01\x02\x03", SECRET)


# -- server: happy path and exact bytes -------------------------------------------


def test_seed_then_good_key_unlocks():
    s = session()
    seed = request_seed(s)
    assert len(seed) == 4
    reply = server_handle(s, bytes([0x27, 0x02]) + derive_key(seed, SECRET))
    assert reply == bytes([0x67, 0x02])
    assert s.unlocked


def test_seed_request_while_unlocked_returns_zero_seed():
    s = session()
    seed = request_seed(s)
    server_handle(s, bytes([0x27, 0x02]) + derive_key(seed, SECRET))
    assert server_handle(s, bytes([0x27, 0x01])) == bytes([0x67, 0x01, 0, 0, 0, 0])


def test_seeds_differ_between_requests():
    s = session()
    assert request_seed(s) != request_seed(s)


def test_seed_sequence_has_no_short_cycle():
    s = session()
    seen = set()
    for _ in range(2 ** 16):
        seen.add(request_seed(s))
    assert len(seen) == 2 ** 16


def test_wrong_key_exact_negative_response():
    s = session()
    request_seed(s)
    reply = server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH))
    assert reply == bytes([0x7F, 0x27, NRC_INVALID_KEY])
    assert s.state is SecurityState.LOCKED


def test_key_before_seed_is_sequence_error():
    s = session()
    reply = server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH))
    assert reply == bytes([0x7F, 0x27, NRC_SEQUENCE_ERROR])


def test_key_after_failed_key_is_sequence_error():
    s = session()
    request_seed(s)
    server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH))
    reply = server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH))
    assert reply == bytes([0x7F, 0x27, NRC_SEQUENCE_ERROR])


def test_malformed_requests_are_conditions_not_correct():
    s = session()
    for bad in (b"", b"\x27", b"\x10\x01", b"\x27\x99"):
        assert server_handle(s, bad) == bytes([0x7F, 0x27, NRC_CONDITIONS_NOT_CORRECT])


def test_wrong_key_length_rejected_without_charging_an_attempt():
    s = session()
    request_seed(s)
    reply = server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH - 1))
    assert reply == bytes([0x7F, 0x27, NRC_CONDITIONS_NOT_CORRECT])
    assert s.failed_attempts == 0


def test_replayed_key_does_not_unlock():
    # A key captured from one handshake is useless for the next seed.
    s = session()
    first_seed = request_seed(s)
    old_key = derive_key(first_seed, SECRET)
    server_handle(s, bytes([0x27, 0x02]) + old_key)
    assert s.unlocked
    s.reset()
    second_seed = request_seed(s)
    assert second_seed != first_seed
    reply = server_handle(s, bytes([0x27, 0x02]) + old_key)
    assert reply == bytes([0x7F, 0x27, NRC_INVALID_KEY])


# -- attempt limit and lockout ------------------------------------------------------


def fail_once(s, now=0):
    request_seed(s, now)
    return server_handle(s, bytes([0x27, 0x02]) + bytes(KEY_LENGTH), now)


def test_third_failure_locks_out():
    s = session()
    assert fail_once(s)[2] == NRC_INVALID_KEY
    assert fail_once(s)[2] == NRC_INVALID_KEY
    reply = fail_once(s, now=1000)
    assert reply == bytes([0x7F, 0x27, NRC_EXCEEDED_ATTEMPTS])
    assert s.lockout_until_us == 1000 + LOCKOUT_US


def test_lockout_rejects_everything_until_expiry():
    s = session()
    for _ in range(3):
        fail_once(s, now=0)
    # During lockout even a seed request gets 0x36.
    reply = server_handle(s, bytes([0x27, 0x01]), LOCKOUT_US - 1)
    assert reply == bytes([0x7F, 0x27, NRC_EXCEEDED_ATTEMPTS])
    # At expiry the server recovers and a clean handshake succeeds.
    seed = request_seed(s, now=LOCKOUT_US)
    reply = server_handle(s, bytes([0x27, 0x02]) + derive_key(seed, SECRET), LOCKOUT_US)
    assert reply == bytes([0x67, 0x02])


def test_success_resets_attempt_counter():
    s = session()
    fail_once(s)
    fail_once(s)
    seed = request_seed(s)
    server_handle(s, bytes([0x27, 0x02]) + derive_key(seed, SECRET))
    assert s.failed_attempts == 0
    # Two more failures later still leave one attempt before lockout.
    fail_once(s)
    assert s.lockout_until_us is None


def test_reset_relocks_but_keeps_attempt_count():
    s = session()
    fail_once(s)
    fail_once(s)
    s.reset()
    assert s.state is SecurityState.LOCKED
    assert s.failed_attempts == 2
    # The next failure after reboot still triggers the lockout.
    assert fail_once(s)[2] == NRC_EXCEEDED_ATTEMPTS


def test_state_machine_never_unlocks_without_correct_key():
    """Brute safety sweep: no sequence of malformed/wrong-key requests may
    reach UNLOCKED."""
    probes = [
        b"",
        b"\x27",
        b"\x27\x01",
        b"\x27\x02",
        b"\x27\x02" + bytes(KEY_LENGTH),
        b"\x27\x02" + b"\xff" * KEY_LENGTH,
        b"\x27\x02" + bytes(KEY_LENGTH - 1),
        b"\x27\x02" + bytes(KEY_LENGTH + 1),
        b"\x27\x03",
        b"\x67\x02",
    ]
    from itertools import product

    for combo in product(range(len(probes)), repeat=3):
        s = session()
        for i in combo:
            server_handle(s, probes[i], 0)
            assert s.state is not SecurityState.UNLOCKED


# -- client coroutine over the bus ---------------------------------------------------


def unlock_over_bus(secret_client=SECRET, secret_server=SECRET, deadline_us=5_000_000,
                    s=None, answer=server_handle):
    """Run :func:`client_unlock` against a server that replies ``answer(s,
    request, now)``, by default a fresh session at ``secret_server``."""
    bus = Bus(BusConfig())
    client = bus.attach(1, filters=((0x7FF, 0x201),))
    server = bus.attach(2, filters=((0x7FF, 0x101),))
    s = s or SecuritySession(secret_server, rng_seed=7)

    clock = 0
    steps = 0
    gen = client_unlock(bus, client, 0x101, secret_client,
                        now=lambda: clock, deadline_us=deadline_us)
    try:
        while True:
            next(gen)
            # Pump the bus and let the server answer, 1 ms per round.
            from fotasim.canbus import recv_segmented, send_segmented

            while bus.pending():
                bus.step()
            msg = recv_segmented(server)
            if msg is not None:
                send_segmented(bus, server, 0x201, answer(s, msg.payload, clock))
                while bus.pending():
                    bus.step()
            clock += 1000
            steps += 1
            if steps > 10_000:
                pytest.fail("handshake never terminated")
    except StopIteration as stop:
        return stop.value, s


def test_client_unlock_granted():
    result, s = unlock_over_bus()
    assert result.outcome is UnlockOutcome.GRANTED
    assert result.granted
    assert result.nrc is None
    assert s.unlocked
    assert result.duration_us > 0


def test_client_unlock_wrong_secret_denied():
    result, s = unlock_over_bus(secret_client=0x12345678)
    assert result.outcome is UnlockOutcome.DENIED
    assert result.nrc == NRC_INVALID_KEY
    assert not s.unlocked


def test_client_unlock_denied_by_a_negative_seed_reply_carries_its_nrc():
    s = SecuritySession(SECRET, rng_seed=7)
    for _ in range(3):
        fail_once(s)  # locked out until LOCKOUT_US
    result, _ = unlock_over_bus(s=s)
    assert (result.outcome, result.nrc) == (UnlockOutcome.DENIED, NRC_EXCEEDED_ATTEMPTS)
    assert not s.unlocked


def test_client_unlock_denied_by_a_seed_reply_too_short_for_a_seed():
    result, _ = unlock_over_bus(answer=lambda s, request, now: bytes([0x67, 0x01, 0x12]))
    assert (result.outcome, result.nrc) == (UnlockOutcome.DENIED, None)


def test_client_unlock_granted_by_the_zero_seed_sends_no_key():
    s = SecuritySession(SECRET, rng_seed=7)
    seed = request_seed(s)
    server_handle(s, bytes([0x27, 0x02]) + derive_key(seed, SECRET))
    assert s.unlocked
    heard = []

    def answer(s, request, now):
        heard.append(request)
        return server_handle(s, request, now)

    result, _ = unlock_over_bus(secret_client=0x12345678, s=s, answer=answer)
    assert (result.outcome, result.nrc) == (UnlockOutcome.GRANTED, None)
    assert heard == [bytes([0x27, 0x01])]  # the seed request only


def test_client_unlock_times_out_without_server():
    bus = Bus(BusConfig())
    client = bus.attach(1, filters=((0x7FF, 0x201),))
    bus.attach(2, filters=())  # deaf server

    clock = 0
    gen = client_unlock(bus, client, 0x101, SECRET, now=lambda: clock,
                        deadline_us=50_000)
    result = None
    try:
        while True:
            next(gen)
            while bus.pending():
                bus.step()
            clock += 1000
    except StopIteration as stop:
        result = stop.value
    assert result.outcome is UnlockOutcome.TIMEOUT
    assert result.duration_us >= 50_000
