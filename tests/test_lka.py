"""Lane-keep assist: motor orders, deviation wire format, PID behaviour."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fotasim.lka import (
    MOTOR_LEFT,
    MOTOR_RIGHT,
    MOTOR_STRAIGHT,
    PARAM_BLOCK_INDEX,
    MalformedDeviation,
    NonFiniteInput,
    PidGains,
    SteeringState,
    deviation_to_target,
    format_deviation,
    motor_order,
    pack_image,
    parse_deviation_line,
    read_gains,
    simulate,
    steer,
)


# -- motor orders ---------------------------------------------------------------


def test_motor_order_mapping():
    assert motor_order(0.2) == MOTOR_RIGHT
    assert motor_order(-0.2) == MOTOR_LEFT
    assert motor_order(0.0) == MOTOR_STRAIGHT
    # Threshold is exclusive on both sides.
    assert motor_order(0.05) == MOTOR_STRAIGHT
    assert motor_order(-0.05) == MOTOR_STRAIGHT
    assert motor_order(0.0500001) == MOTOR_RIGHT


def test_motor_order_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteInput):
            motor_order(bad)


@pytest.mark.parametrize("convert", [format_deviation, deviation_to_target])
def test_a_non_finite_deviation_is_neither_formatted_nor_steered_to(convert):
    with pytest.raises(NonFiniteInput):
        convert(math.nan)


# -- deviation wire format ---------------------------------------------------------


def test_parse_deviation_line():
    assert parse_deviation_line("0.10\n") == pytest.approx(0.10)
    assert parse_deviation_line("-12.34\n") == pytest.approx(-12.34)
    assert parse_deviation_line("+0.05\n") == pytest.approx(0.05)
    assert parse_deviation_line(b"3.00\n") == pytest.approx(3.0)


def test_parse_rejects_malformed_lines():
    for bad in ("0.1\n", "0.123\n", "0.10", ".10\n", "abc\n", "0,10\n",
                "0.10\n\n", "", "nan\n", b"\xff\xff"):
        with pytest.raises(MalformedDeviation):
            parse_deviation_line(bad)


def test_parse_rejects_an_item_that_is_not_text():
    for bad in (0.1, 25, None, bytearray(b"0.10\n"), memoryview(b"0.10\n"), ["0.10\n"]):
        with pytest.raises(MalformedDeviation, match=re.escape(repr(bad))):
            parse_deviation_line(bad)


def test_parse_rejects_a_reading_that_overflows_to_infinity():
    # The format allows any number of integer digits; enough of them parse as inf.
    huge = "9" * 400 + ".00\n"
    for bad in (huge, "-" + huge, huge.encode()):
        with pytest.raises(MalformedDeviation):
            parse_deviation_line(bad)
    largest = "9" * 308 + ".00\n"
    assert parse_deviation_line(largest) == float(largest)


def test_format_parse_roundtrip():
    assert parse_deviation_line(format_deviation(-0.1234)) == pytest.approx(-0.12)


@given(st.floats(-99, 99))
@settings(max_examples=100, deadline=None)
def test_format_parse_roundtrip_property(value):
    parsed = parse_deviation_line(format_deviation(value))
    assert parsed == pytest.approx(round(value, 2), abs=1e-9)


def test_deviation_to_target_gain_and_saturation():
    assert deviation_to_target(0.1) == pytest.approx(6.0)    # 60 deg per metre
    assert deviation_to_target(-0.1) == pytest.approx(-6.0)
    assert deviation_to_target(1.0) == 30.0                  # clamped
    assert deviation_to_target(-5.0) == -30.0


# -- PID core --------------------------------------------------------------------


def pid_step(state, gains, error, dt):
    """One :func:`steer` step from position 0, whose target is the error:
    ``(command, new state)``."""
    return steer(state._replace(position=0.0), gains, error, dt)[:2]


def test_pid_step_formula():
    gains = PidGains(2.0, 0.1, 0.5)
    state = SteeringState(position=0.0, integral=1.0, previous_error=3.0)
    command, new = pid_step(state, gains, error=5.0, dt=0.01)
    integral = 1.0 + 5.0 * 0.01
    derivative = (5.0 - 3.0) / 0.01
    assert command == pytest.approx(min(100.0, 2.0 * 5.0 + 0.1 * integral + 0.5 * derivative))
    assert command == 100.0  # the derivative term saturates this one
    assert new.integral == pytest.approx(integral)
    assert new.previous_error == 5.0


def test_pid_command_clamp_both_sides():
    gains = PidGains(1000.0, 0.0, 0.0)
    cmd, _ = pid_step(SteeringState(), gains, 10.0, 0.01)
    assert cmd == 100.0
    cmd, _ = pid_step(SteeringState(), gains, -10.0, 0.01)
    assert cmd == -100.0


def test_pid_integral_anti_windup():
    gains = PidGains(0.0, 1.0, 0.0)
    state = SteeringState()
    for _ in range(200):
        _, state = pid_step(state, gains, 1000.0, 0.01)
    assert state.integral == 100.0  # clamped, not 2000


def test_pid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pid_step(SteeringState(), PidGains(), 1.0, 0.0)
    with pytest.raises(ValueError):
        pid_step(SteeringState(), PidGains(), 1.0, -0.01)
    with pytest.raises(NonFiniteInput):
        pid_step(SteeringState(), PidGains(), math.nan, 0.01)


def test_pid_derivative_sensitivity():
    """Finite-difference check: d(command)/d(error) == kp + ki*dt + kd/dt
    while no clamp is active (the fresh integral already contains e*dt)."""
    gains = PidGains(2.0, 0.1, 0.5)
    dt = 0.01
    state = SteeringState(integral=0.0, previous_error=0.1)
    eps = 1e-6
    base = 0.1  # small error keeps every term off its clamp
    c1, _ = pid_step(state, gains, base, dt)
    c2, _ = pid_step(state, gains, base + eps, dt)
    sensitivity = (c2 - c1) / eps
    expected = gains.kp + gains.ki * dt + gains.kd / dt
    assert sensitivity == pytest.approx(expected, rel=1e-6)


def test_convergence_from_known_disturbances():
    # Residual |error| after 5 simulated seconds, default gains.
    gains = PidGains(2.0, 0.1, 0.5)
    for initial, bound in ((10.0, 0.5), (20.0, 0.7), (30.0, 1.0)):
        trace = simulate(gains, target_deg=0.0, initial_deg=initial, duration_s=5.0)
        assert trace[-1][0] == pytest.approx(5.0)
        assert trace[-1][1] <= bound, f"from {initial} deg: residual {trace[-1][1]}"


def test_convergence_shrinks_the_error_envelope():
    # The loop overshoots once while the wound-up integral unwinds, but the
    # envelope must still shrink: worst error in the final second well below
    # the starting error, and the trajectory crosses (near) zero on the way.
    trace = simulate(PidGains(), 0.0, 30.0, 5.0)
    final_second = [err for t, err in trace if t >= 4.0]
    assert max(final_second) < 30.0 / 20
    assert min(err for _, err in trace) < 0.01


def test_zero_initial_error_stays_zero():
    trace = simulate(PidGains(), 0.0, 0.0, 1.0)
    assert all(err == 0.0 for _, err in trace)


def test_simulate_rejects_a_bad_duration():
    for bad in (math.nan, math.inf, -math.inf, -0.01, -5.0):
        with pytest.raises(ValueError, match="duration_s"):
            simulate(PidGains(), 0.0, 10.0, bad)
    assert simulate(PidGains(), 0.0, 10.0, 0.0) == []
    assert simulate(PidGains(), 0.0, 10.0, 0.004) == []  # rounds to no step


def reference_pid_step(state, gains, error, dt):
    """The controller step as first written, with max/min clamps."""
    integral = state.integral + error * dt
    integral = max(-100.0, min(100.0, integral))
    derivative = (error - state.previous_error) / dt
    command = gains.kp * error + gains.ki * integral + gains.kd * derivative
    command = max(-100.0, min(100.0, command))
    return command, SteeringState(state.position, integral, error)


def reference_plant_step(state, gains, target_deg, dt):
    command, state = reference_pid_step(state, gains, target_deg - state.position, dt)
    position = state.position + dt * 1.0 * command
    return SteeringState(position, state.integral, state.previous_error)


def state_bits(state):
    return [float.hex(v) for v in (state.position, state.integral, state.previous_error)]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
STATES = st.builds(SteeringState, FINITE, FINITE, FINITE)
GAIN = st.floats(-1e308, 1e308)
WIDE_GAINS = st.builds(PidGains, GAIN, GAIN, GAIN)
DTS = st.one_of(st.sampled_from([0.001, 0.01]),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@given(STATES, WIDE_GAINS, FINITE, FINITE, DTS)
@settings(max_examples=300, deadline=None)
# Commands that overflow to NaN, +inf and -inf, and an all -0.0 step.
@example(SteeringState(), PidGains(1e308, 0.0, -1e308), 10.0, 10.0, 0.01)
@example(SteeringState(), PidGains(1e308, 0.0, 1e308), 10.0, 10.0, 0.01)
@example(SteeringState(), PidGains(-1e308, 0.0, -1e308), 10.0, 10.0, 0.01)
@example(SteeringState(0.0, -0.0, 0.0), PidGains(), -0.0, -0.0, 0.01)
def test_plant_step_matches_the_clamped_formula_bit_for_bit(state, gains, error, target, dt):
    command, new = pid_step(state, gains, error, dt)
    reference_command, reference_new = reference_pid_step(state, gains, error, dt)
    assert float.hex(command) == float.hex(reference_command)
    assert state_bits(new)[1:] == state_bits(reference_new)[1:]  # integral, previous error
    if not math.isfinite(target - state.position):
        with pytest.raises(NonFiniteInput):
            steer(state, gains, target, dt)
        return
    assert state_bits(steer(state, gains, target, dt)[1]) == \
        state_bits(reference_plant_step(state, gains, target, dt))


SATURATING = PidGains(1e308, 1e308, 1e308)


@given(STATES, WIDE_GAINS, FINITE, DTS, st.integers(0, 60),
       st.lists(st.sampled_from(["same", "new", None]), max_size=60))
@settings(max_examples=300, deadline=None)
# Both clamps saturated from the first step, and saturated to the negative side.
@example(SteeringState(), SATURATING, 30.0, 0.01, 40, [])
@example(SteeringState(), PidGains(-1e308, 1e308, 0.0), -30.0, 0.001, 40, ["same"] * 10)
@example(SteeringState(5.0, -100.0, 1e300), PidGains(), 5.0, 0.001, 3, [None, "new"])
def test_the_n_step_loop_is_n_reference_plant_steps_bit_for_bit(state, gains, target, dt, steps,
                                                               feed):
    # The loop reads a line before each step and stops before the first
    # "new" one (not None, not equal to the line that set the target); a dry
    # feed reads as None.
    lines = [f"{word}\n" if word else None for word in feed]
    stop = lines.index("new\n") if "new\n" in lines else None
    expected_ran = steps if stop is None or stop >= steps else stop
    reference, command = state, None
    for _ in range(expected_ran):
        if not math.isfinite(target - reference.position):
            with pytest.raises(NonFiniteInput):
                steer(state, gains, target, dt, steps, iter(lines), "same\n")
            return
        command, _ = reference_pid_step(reference, gains, target - reference.position, dt)
        reference = reference_plant_step(reference, gains, target, dt)
    got_command, got, ran, line = steer(state, gains, target, dt, steps, iter(lines), "same\n")
    assert state_bits(got) == state_bits(reference)
    assert (ran, line) == (expected_ran, "new\n" if expected_ran < steps else None)
    if command is not None:
        assert float.hex(got_command) == float.hex(command)
    if not lines:  # no feed at all runs the same steps
        assert state_bits(steer(state, gains, target, dt, steps)[1]) == state_bits(reference)


@given(STATES, WIDE_GAINS, FINITE,
       st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])),
       st.sampled_from([math.nan, math.inf, -math.inf]))
@settings(max_examples=60, deadline=None)
def test_steps_still_reject_a_bad_dt_or_a_non_finite_error(state, gains, value, bad_dt, bad):
    for start in (state._replace(position=0.0), state):
        with pytest.raises(ValueError, match="dt"):
            steer(start, gains, value, bad_dt)
        with pytest.raises(NonFiniteInput):
            steer(start, gains, bad, 0.01)


# -- gains embedded in the image ------------------------------------------------------


def test_pack_and_read_gains():
    gains = PidGains(3.5, 0.2, 0.9)
    image = pack_image(b"\x00" * 5000, gains)
    assert read_gains(image) == gains
    assert len(image) == 5000  # payload already covered the parameter block


def test_pack_pads_short_payload():
    gains = PidGains()
    image = pack_image(b"\x01\x02", gains)
    assert len(image) == (PARAM_BLOCK_INDEX + 1) * 1024
    assert image[:2] == b"\x01\x02"
    assert image[2:1024] == b"\xff" * 1022
    assert read_gains(image) == gains


def test_read_gains_rejects_short_image():
    with pytest.raises(ValueError):
        read_gains(b"\x00" * 100)


def test_gains_update_is_single_block_delta():
    from fotasim.delta import build_delta

    base = pack_image(bytes(8 * 1024), PidGains(2.0, 0.1, 0.5))
    retuned = pack_image(bytes(8 * 1024), PidGains(4.0, 0.1, 0.5))
    pkg = build_delta(base, retuned)
    assert pkg.changed_blocks() == [PARAM_BLOCK_INDEX]


@given(st.floats(-1e6, 1e6), st.floats(0, 10), st.floats(-10, 10))
@settings(max_examples=60, deadline=None)
def test_gains_roundtrip_property(kp, ki, kd):
    gains = PidGains(kp, ki, kd)
    assert PidGains.decode(gains.encode()) == gains
