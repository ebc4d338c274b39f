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
from typing import NamedTuple

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


class SteeringState(NamedTuple):
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
    fractional digits, e.g. ``"-0.12\\n"``.  Anything but text is malformed."""
    if isinstance(line, bytes):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedDeviation(repr(line)) from exc
    if not isinstance(line, str) or not _DEVIATION_RE.fullmatch(line):
        raise MalformedDeviation(repr(line))
    value = float(line)
    if not math.isfinite(value):  # enough digits parse as infinity
        raise MalformedDeviation(repr(line))
    return value


def format_deviation(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteInput(repr(value))
    return f"{value:.2f}\n"


def deviation_to_target(deviation_m: float) -> float:
    """Steering-angle target (degrees) for a lateral deviation (metres)."""
    if not math.isfinite(deviation_m):
        raise NonFiniteInput(repr(deviation_m))
    return _clamp(deviation_m * TARGET_GAIN_DEG_PER_M, TARGET_LIMIT_DEG)


def _clamp(x: float, limit: float) -> float:
    """``max(-limit, min(limit, x))`` bit for bit: NaN gives ``limit``."""
    return x if -limit < x < limit else -limit if x <= -limit else limit


def steer(state: SteeringState, gains: PidGains, target_deg: float, dt: float, steps: int = 1,
          lines=None, last=None) -> tuple[float, SteeringState, int, object]:
    """The controller loop, stated once: up to ``steps`` steps driving the
    first-order plant (1 deg/s per command unit) towards ``target_deg``.
    command = kp*e + ki*integral + kd*(e - e_prev)/dt, the integral
    (rectangular) clamped to +/-100 before use and the command to +/-100.
    With ``lines`` (a feed iterator) a step first reads a line, and the loop
    stops before one neither None nor ``last``.  Returns ``(command, state,
    steps run, that line)``, the line None when every step ran."""
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    position, integral, previous = state
    kp, ki, kd, move, command = gains.kp, gains.ki, gains.kd, dt * PLANT_GAIN_DEG_PER_S, 0.0
    ilim, clim, isfinite = INTEGRAL_LIMIT, COMMAND_LIMIT, math.isfinite
    for ran in range(steps):
        if lines is not None:
            line = next(lines, None)
            if line is not None and line != last:
                return command, SteeringState(position, integral, previous), ran, line
        error = target_deg - position
        if not isfinite(error):
            raise NonFiniteInput(repr(error))
        integral += error * dt  # both clamps are _clamp's, inline: NaN goes to +limit
        if not -ilim < integral < ilim:
            integral = -ilim if integral <= -ilim else ilim
        command = kp * error + ki * integral + kd * ((error - previous) / dt)
        if not -clim < command < clim:
            command = -clim if command <= -clim else clim
        position, previous = position + move * command, error
    return command, SteeringState(position, integral, previous), steps, None


def simulate(gains: PidGains, target_deg: float, initial_deg: float,
             duration_s: float) -> list[tuple[float, float]]:
    """Run the loop against the first-order plant (1 deg/s per command unit)
    in 10 ms steps; returns ``(time_s, |target - position|)`` per step."""
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration_s must be finite and non-negative, got {duration_s!r}")
    state = SteeringState(position=initial_deg)
    trace = []
    steps = round(duration_s / SIMULATE_DT_S)
    t = 0.0
    for _ in range(steps):
        state = steer(state, gains, target_deg, SIMULATE_DT_S)[1]
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
