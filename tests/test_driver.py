import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from step_reference import available_torque, pi_step, split_command

from bevsim import DriverState
from bevsim.params import DriverParams, motor_rpm_per_kmh, with_overrides

GAINS = DriverParams(kp=0.4, ki=0.1)


def test_zero_error_is_a_fixed_point():
    state = DriverState()
    for _ in range(50):
        cmd, state = pi_step(state, 40.0, 40.0, 0.1, GAINS)
        assert cmd == 0.0
        assert state.integral == 0.0


def test_large_error_clamps_to_one_and_freezes_integral():
    # raw = 0.4*10 + 0.1*(10*0.1) = 4.1, clamped to 1; integral frozen at 0.
    cmd, state = pi_step(DriverState(), 50.0, 40.0, 0.1, GAINS)
    assert cmd == 1.0
    assert state.integral == 0.0


def test_sustained_negative_error_converges_to_full_braking():
    # Independent scripted expectation: command reaches -1 and the integral
    # stops growing in magnitude once saturated.
    state = DriverState()
    magnitudes = []
    for _ in range(100):
        cmd, state = pi_step(state, 35.0, 40.0, 0.1, GAINS)
        magnitudes.append(abs(state.integral))
    assert cmd == -1.0
    assert magnitudes[-1] == magnitudes[-2]  # frozen, not winding up
    bound = (1.0 + GAINS.kp * 5.0) / GAINS.ki + 5.0 * 0.1
    assert magnitudes[-1] <= bound


def test_anti_windup_bounded_over_many_saturated_steps():
    state = DriverState()
    dv = 10.0
    for _ in range(100_000):
        cmd, state = pi_step(state, dv, 0.0, 0.1, GAINS)
    assert cmd == 1.0
    assert abs(state.integral) <= (1.0 + GAINS.kp * dv) / GAINS.ki + dv * 0.1


def test_integral_unwinds_when_error_opposes_saturation():
    # Saturated high with a large stored integral: a negative error must be
    # allowed to shrink the integral even while the output stays clamped.
    state = DriverState(integral=50.0)
    cmd, state = pi_step(state, 38.0, 40.0, 0.1, GAINS)
    assert cmd == 1.0
    assert state.integral == pytest.approx(50.0 - 2.0 * 0.1, rel=1e-12)


def test_pi_rejects_bad_dt():
    with pytest.raises(ValueError):
        pi_step(DriverState(), 1.0, 0.0, 0.0, GAINS)


@given(
    st.floats(-500.0, 500.0),
    st.floats(0.0, 500.0),
    st.floats(-50.0, 50.0),
)
@settings(max_examples=200)
def test_command_always_in_unit_interval(target, actual, integral):
    cmd, state = pi_step(DriverState(integral=integral), target, actual, 0.1, GAINS)
    assert -1.0 <= cmd <= 1.0
    assert -1.0 <= state.last_command <= 1.0


@given(
    st.floats(0.0, 200.0),
    st.floats(0.0, 200.0),
    st.floats(0.0, 120.0),
    st.floats(-20.0, 20.0),
)
@settings(max_examples=200)
def test_command_monotone_in_error(t1, t2, actual, integral):
    lo, hi = sorted((t1, t2))
    state = DriverState(integral=integral)
    cmd_lo, _ = pi_step(state, lo, actual, 0.1, GAINS)
    cmd_hi, _ = pi_step(state, hi, actual, 0.1, GAINS)
    assert cmd_hi >= cmd_lo


def test_full_throttle_is_torque_limited_below_base_speed(config):
    req = split_command(1.0, 3000.0, 66.9, config)
    # 9550*75/3000 = 238.75 exceeds the 230 cap, so the cap binds.
    assert req.propulsion_torque_nm == 230.0
    assert req.regen_torque_nm == 0.0
    assert req.friction_force_n == 0.0


def test_half_throttle_in_power_region(config):
    req = split_command(0.5, 6000.0, 133.8, config)
    assert req.propulsion_torque_nm == pytest.approx(
        0.5 * 9550.0 * 75.0 / 6000.0, rel=1e-12
    )
    assert req.propulsion_torque_nm == pytest.approx(59.69, abs=0.005)


def test_full_braking_at_50_kmh_saturates_regen_and_friction(config):
    rpm = _rpm(config, 50.0)
    assert rpm == pytest.approx(2242.0, abs=1.0)
    req = split_command(-1.0, rpm, 50.0, config)
    assert req.propulsion_torque_nm == 0.0
    assert req.regen_torque_nm == pytest.approx(230.0, rel=1e-12)
    assert req.friction_force_n == pytest.approx(800.0, rel=1e-12)


def test_braking_below_cutoff_uses_friction_only(config):
    cfg = with_overrides(config, drivetrain={"regen_cutoff_speed": 5.0})
    rpm = _rpm(cfg, 3.0)
    req = split_command(-0.5, rpm, 3.0, cfg)
    assert req.regen_torque_nm == 0.0
    assert req.friction_force_n == pytest.approx(0.5 * 800.0, rel=1e-12)


def test_gentle_braking_is_regen_only(config):
    rpm = _rpm(config, 50.0)
    req = split_command(-0.2, rpm, 50.0, config)
    assert req.friction_force_n == 0.0
    assert req.regen_torque_nm > 0.0


def test_no_torque_beyond_motor_speed_ceiling(config):
    req = split_command(1.0, config.motor.max_speed + 500.0, 190.0, config)
    assert req.propulsion_torque_nm == 0.0
    req = split_command(-1.0, config.motor.max_speed + 500.0, 190.0, config)
    assert req.regen_torque_nm == 0.0
    assert req.friction_force_n == 800.0


@given(
    st.floats(-1.0, 1.0),
    st.floats(0.0, 120.0),
)
@settings(max_examples=200)
def test_sign_coherence(command, speed):
    config = _config()
    rpm = _rpm(config, speed)
    req = split_command(command, rpm, speed, config)
    if command > 0.0:
        assert req.friction_force_n == 0.0 and req.regen_torque_nm == 0.0
    elif command < 0.0:
        assert req.propulsion_torque_nm == 0.0
    else:
        assert req.propulsion_torque_nm == 0.0
        assert req.regen_torque_nm == 0.0
        assert req.friction_force_n == 0.0


@given(st.floats(-1.0, -0.0001), st.floats(0.0, 180.0))
@settings(max_examples=200)
def test_braking_respects_actuator_limits(command, speed):
    config = _config()
    rpm = _rpm(config, speed)
    req = split_command(command, rpm, speed, config)
    limit = (
        available_torque(config.motor, rpm)
        if rpm <= config.motor.max_speed
        else 0.0
    )
    assert req.regen_torque_nm <= limit * (1.0 + 1e-12)
    assert req.friction_force_n <= config.drivetrain.max_friction_brake_force


def _config():
    from bevsim import default_config

    return default_config()


def _rpm(config, speed_kmh):
    """Motor shaft speed [rpm] at a vehicle speed [km/h]."""
    factor = motor_rpm_per_kmh(config.body.wheel_radius, config.drivetrain.gear_ratio)
    return factor * speed_kmh
