"""Lane-keep assist: the updatable application payload.

A camera feed is modelled as text lines carrying the lateral deviation in
metres ("-0.12\\n"); the controller turns deviation into a steering-angle
target, runs a PID loop against a first-order steering plant, and reduces
the command to one of three motor orders.  The PID gains live inside the
firmware image itself, at byte 1024 (block 1 of 1 KiB), so an update that
retunes the controller is an ordinary one-block delta.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

from .integrity import DEFAULT_BLOCK_SIZE

MOTOR_RIGHT = 1
MOTOR_LEFT = 2
MOTOR_STRAIGHT = 3

DEFAULT_THRESHOLD_M = 0.05

# Deviation-to-target mapping: degrees of steering per metre of lateral
# deviation, saturated to the mechanical range.
TARGET_GAIN_DEG_PER_M = 60.0
TARGET_LIMIT_DEG = 30.0

# Gains are stored in this 1 KiB block of the application image, whatever
# block size a campaign moves the image in.
PARAM_BLOCK_INDEX = 1
PARAM_OFFSET = PARAM_BLOCK_INDEX * DEFAULT_BLOCK_SIZE

SIMULATE_DT_S = 0.01

COMMAND_LIMIT = 100.0
INTEGRAL_LIMIT = 100.0
PLANT_GAIN_DEG_PER_S = 1.0

_GAINS = struct.Struct("<ddd")
PARAM_END = PARAM_OFFSET + _GAINS.size  # an image this long holds the gains

_DEVIATION_RE = re.compile(r"[+-]?[0-9]+\.[0-9]{2}\n\Z")


class NonFiniteInput(ValueError):
    pass


class MalformedDeviation(ValueError):
    pass


@dataclass(frozen=True)
class PidGains:
    kp: float = 2.0
    ki: float = 0.1
    kd: float = 0.5

    def encode(self) -> bytes:
        return _GAINS.pack(self.kp, self.ki, self.kd)

    @classmethod
    def decode(cls, blob: bytes) -> "PidGains":
        return cls(*_GAINS.unpack(blob[: _GAINS.size]))

    def finite(self) -> bool:
        """True when kp, ki and kd are all finite: the only gains a controller runs."""
        return all(map(math.isfinite, (self.kp, self.ki, self.kd)))


def parse_gains(values) -> PidGains:
    """Gains from exactly three finite numbers, kp, ki, kd; else ValueError."""
    gains = [float(v) for v in values]
    if len(gains) != 3 or not PidGains(*gains).finite():
        raise ValueError("gains must be three finite numbers: kp, ki, kd")
    return PidGains(*gains)


@dataclass(frozen=True)
class SteeringState:
    position: float = 0.0
    integral: float = 0.0
    previous_error: float = 0.0


def motor_order(deviation: float) -> int:
    """Reduce a lateral deviation to a steer-right/steer-left/straight order."""
    if not math.isfinite(deviation):
        raise NonFiniteInput(repr(deviation))
    if deviation > DEFAULT_THRESHOLD_M:
        return MOTOR_RIGHT
    if deviation < -DEFAULT_THRESHOLD_M:
        return MOTOR_LEFT
    return MOTOR_STRAIGHT


def parse_deviation_line(line: str | bytes) -> float:
    """Parse one newline-terminated deviation reading with exactly two
    fractional digits, e.g. ``"-0.12\\n"``."""
    if isinstance(line, bytes):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedDeviation(repr(line)) from exc
    if not _DEVIATION_RE.fullmatch(line):
        raise MalformedDeviation(repr(line))
    return float(line)


def format_deviation(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteInput(repr(value))
    return f"{value:.2f}\n"


def deviation_to_target(deviation_m: float) -> float:
    """Steering-angle target (degrees) for a lateral deviation (metres)."""
    if not math.isfinite(deviation_m):
        raise NonFiniteInput(repr(deviation_m))
    raw = deviation_m * TARGET_GAIN_DEG_PER_M
    return max(-TARGET_LIMIT_DEG, min(TARGET_LIMIT_DEG, raw))


def pid_step(state: SteeringState, gains: PidGains, error: float, dt: float) -> tuple[float, SteeringState]:
    """One controller step; returns ``(command, new_state)``.

    command = kp*e + ki*integral + kd*(e - e_prev)/dt, with the integral
    (rectangular) clamped to +/-100 before use and the command clamped to
    +/-100.  The plant position is not touched here.
    """
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not math.isfinite(error):
        raise NonFiniteInput(repr(error))
    integral = state.integral + error * dt
    integral = max(-INTEGRAL_LIMIT, min(INTEGRAL_LIMIT, integral))
    derivative = (error - state.previous_error) / dt
    command = gains.kp * error + gains.ki * integral + gains.kd * derivative
    command = max(-COMMAND_LIMIT, min(COMMAND_LIMIT, command))
    return command, SteeringState(state.position, integral, error)


def plant_step(state: SteeringState, gains: PidGains, target_deg: float, dt: float) -> SteeringState:
    """One controller step driving the first-order plant (1 deg/s per
    command unit) towards ``target_deg``; returns the new state."""
    command, state = pid_step(state, gains, target_deg - state.position, dt)
    position = state.position + dt * PLANT_GAIN_DEG_PER_S * command
    return SteeringState(position, state.integral, state.previous_error)


def simulate(gains: PidGains, target_deg: float, initial_deg: float,
             duration_s: float) -> list[tuple[float, float]]:
    """Run the loop against the first-order plant (1 deg/s per command unit)
    in 10 ms steps; returns ``(time_s, |target - position|)`` per step."""
    state = SteeringState(position=initial_deg)
    trace = []
    steps = round(duration_s / SIMULATE_DT_S)
    t = 0.0
    for _ in range(steps):
        state = plant_step(state, gains, target_deg, SIMULATE_DT_S)
        t += SIMULATE_DT_S
        trace.append((t, abs(target_deg - state.position)))
    return trace


def pack_image(raw: bytes, gains: PidGains) -> bytes:
    """Embed ``gains`` into the parameter block of a firmware payload,
    padding with 0xFF if the payload ends before that block does."""
    need = PARAM_OFFSET + DEFAULT_BLOCK_SIZE
    image = bytearray(raw)
    if len(image) < need:
        image += b"\xff" * (need - len(image))
    image[PARAM_OFFSET:PARAM_END] = gains.encode()
    return bytes(image)


def read_gains(image: bytes) -> PidGains:
    if len(image) < PARAM_END:
        raise ValueError("image too short to hold a parameter block")
    return PidGains.decode(image[PARAM_OFFSET:PARAM_END])
