"""Security access (service 0x27) over the segmented transport.

Seed/key flow: the client requests a seed (sub-function 0x01), derives a
32-byte key from it with the shared secret, and sends the key back
(sub-function 0x02).  Three bad keys lock the server out for ten simulated
seconds.  The derivation is a toy xorshift32 chain: fine for exercising the
protocol machinery, worthless as actual cryptography, and labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .canbus import Bus, Endpoint, await_reply, send_segmented

SECURITY_SID = 0x27
RESPONSE_SID = 0x67  # request SID + 0x40
NEGATIVE_RESPONSE = 0x7F

SUB_REQUEST_SEED = 0x01
SUB_SEND_KEY = 0x02

NRC_CONDITIONS_NOT_CORRECT = 0x22
NRC_SEQUENCE_ERROR = 0x24
NRC_INVALID_KEY = 0x35
NRC_EXCEEDED_ATTEMPTS = 0x36

SEED_LENGTH = 4
KEY_LENGTH = 32
DEFAULT_MAX_ATTEMPTS = 3
LOCKOUT_US = 10_000_000
DEFAULT_UNLOCK_DEADLINE_US = 5_000_000

_ZERO_SEED = bytes(SEED_LENGTH)
_DEFAULT_RNG_STATE = 0x243F6A88


def xorshift32(x: int) -> int:
    x &= 0xFFFFFFFF
    x ^= (x << 13) & 0xFFFFFFFF
    x ^= x >> 17
    x ^= (x << 5) & 0xFFFFFFFF
    return x


def derive_key(seed: bytes, shared_secret: int) -> bytes:
    """Expand a 4-byte seed into the 32-byte key the server expects.

    The seed (big-endian) is XORed with the shared secret; a zero result is
    remapped to 0xDEADBEEF so the xorshift chain never sits on its fixed
    point.  The key is the next eight xorshift32 states, each big-endian.
    """
    if len(seed) != SEED_LENGTH:
        raise ValueError(f"seed must be {SEED_LENGTH} bytes")
    state = int.from_bytes(seed, "big") ^ (shared_secret & 0xFFFFFFFF)
    if state == 0:
        state = 0xDEADBEEF
    out = bytearray()
    for _ in range(8):
        state = xorshift32(state)
        out += state.to_bytes(4, "big")
    return bytes(out)


class SecurityState(Enum):
    LOCKED = "locked"
    SEED_ISSUED = "seed_issued"
    UNLOCKED = "unlocked"


class SecuritySession:
    """Server-side state for one ECU."""

    def __init__(self, shared_secret: int, rng_seed: int = _DEFAULT_RNG_STATE):
        self.shared_secret = shared_secret & 0xFFFFFFFF
        self.rng_state = (rng_seed & 0xFFFFFFFF) or _DEFAULT_RNG_STATE
        self.state = SecurityState.LOCKED
        self.active_seed: bytes | None = None
        self.failed_attempts = 0
        self.lockout_until_us: int | None = None

    @property
    def unlocked(self) -> bool:
        return self.state is SecurityState.UNLOCKED

    def next_seed(self) -> bytes:
        self.rng_state = xorshift32(self.rng_state)
        return self.rng_state.to_bytes(4, "big")

    def reset(self) -> None:
        """ECU software reset: access must be re-established.  Failed-attempt
        count and any active lockout deliberately survive, so rebooting is
        not a way around the attempt limit."""
        self.state = SecurityState.LOCKED
        self.active_seed = None


def server_handle(session: SecuritySession, request: bytes, now_us: int = 0) -> bytes:
    """Serve one 0x27 request; returns the exact response payload."""
    if session.lockout_until_us is not None:
        if now_us < session.lockout_until_us:
            return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_EXCEEDED_ATTEMPTS])
        session.lockout_until_us = None
        session.failed_attempts = 0
        session.state = SecurityState.LOCKED

    if len(request) < 2 or request[0] != SECURITY_SID:
        return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_CONDITIONS_NOT_CORRECT])

    sub = request[1]
    if sub == SUB_REQUEST_SEED:
        if session.state is SecurityState.UNLOCKED:
            # Zero seed signals "nothing to do" to the client.
            return bytes([RESPONSE_SID, SUB_REQUEST_SEED]) + _ZERO_SEED
        session.active_seed = session.next_seed()
        session.state = SecurityState.SEED_ISSUED
        return bytes([RESPONSE_SID, SUB_REQUEST_SEED]) + session.active_seed

    if sub == SUB_SEND_KEY:
        if session.state is not SecurityState.SEED_ISSUED:
            return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_SEQUENCE_ERROR])
        if len(request) != 2 + KEY_LENGTH:
            return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_CONDITIONS_NOT_CORRECT])
        expected = derive_key(session.active_seed, session.shared_secret)
        session.active_seed = None
        if request[2:] == expected:
            session.state = SecurityState.UNLOCKED
            session.failed_attempts = 0
            return bytes([RESPONSE_SID, SUB_SEND_KEY])
        session.state = SecurityState.LOCKED
        session.failed_attempts += 1
        if session.failed_attempts >= DEFAULT_MAX_ATTEMPTS:
            session.lockout_until_us = now_us + LOCKOUT_US
            return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_EXCEEDED_ATTEMPTS])
        return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_INVALID_KEY])

    return bytes([NEGATIVE_RESPONSE, SECURITY_SID, NRC_CONDITIONS_NOT_CORRECT])


class UnlockOutcome(Enum):
    GRANTED = "granted"
    DENIED = "denied"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class UnlockResult:
    outcome: UnlockOutcome
    nrc: int | None
    duration_us: int

    @property
    def granted(self) -> bool:
        return self.outcome is UnlockOutcome.GRANTED


def _is_security_reply(p: bytes) -> bool:
    return bool(p) and (p[0] == RESPONSE_SID
                        or (len(p) >= 2 and p[0] == NEGATIVE_RESPONSE and p[1] == SECURITY_SID))


def client_unlock(bus: Bus, endpoint: Endpoint, request_id: int, shared_secret: int,
                  now, deadline_us: int = DEFAULT_UNLOCK_DEADLINE_US):
    """Drive one seed/key handshake as a coroutine.

    ``now`` is a zero-argument callable reading the simulated clock; the
    generator yields whenever it is waiting on the bus and returns an
    :class:`UnlockResult`.
    """
    started = now()
    deadline = started + deadline_us

    send_segmented(bus, endpoint, request_id, bytes([SECURITY_SID, SUB_REQUEST_SEED]))
    reply = yield from await_reply(endpoint, now, deadline, _is_security_reply)
    if reply is None:
        return UnlockResult(UnlockOutcome.TIMEOUT, None, now() - started)
    if reply[0] == NEGATIVE_RESPONSE:
        return UnlockResult(UnlockOutcome.DENIED, reply[2] if len(reply) > 2 else None, now() - started)
    if len(reply) < 2 + SEED_LENGTH or reply[1] != SUB_REQUEST_SEED:
        return UnlockResult(UnlockOutcome.DENIED, None, now() - started)
    seed = reply[2 : 2 + SEED_LENGTH]
    if seed == _ZERO_SEED:
        return UnlockResult(UnlockOutcome.GRANTED, None, now() - started)

    key = derive_key(seed, shared_secret)
    send_segmented(bus, endpoint, request_id, bytes([SECURITY_SID, SUB_SEND_KEY]) + key)
    reply = yield from await_reply(endpoint, now, deadline, _is_security_reply)
    if reply is None:
        return UnlockResult(UnlockOutcome.TIMEOUT, None, now() - started)
    if reply[0] == RESPONSE_SID and len(reply) >= 2 and reply[1] == SUB_SEND_KEY:
        return UnlockResult(UnlockOutcome.GRANTED, None, now() - started)
    nrc = reply[2] if reply[0] == NEGATIVE_RESPONSE and len(reply) > 2 else None
    return UnlockResult(UnlockOutcome.DENIED, nrc, now() - started)
