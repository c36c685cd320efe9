import numpy as np
import pytest

from step_reference import (
    available_torque,
    battery_step,
    motor_current,
    motor_electrical_power,
    wheel_torque,
)

from bevsim import DegenerateVoltageError, EnvelopeError
from bevsim.params import motor_rpm_per_kmh
from bevsim.powertrain import BatteryState, initial_battery_state


def test_available_torque_at_standstill(config):
    assert available_torque(config.motor, 0.0) == 230.0


def test_available_torque_at_max_speed(config):
    assert available_torque(config.motor, 8000.0) == pytest.approx(
        9550.0 * 75.0 / 8000.0, rel=1e-12
    )
    assert available_torque(config.motor, 8000.0) == pytest.approx(89.53, abs=0.005)


def test_available_torque_crossover_at_base_speed(config):
    base = 9550.0 * 75.0 / 230.0
    assert available_torque(config.motor, base) == pytest.approx(230.0, rel=0.005)


def test_available_torque_rejects_out_of_envelope(config):
    with pytest.raises(EnvelopeError):
        available_torque(config.motor, 8000.1)
    with pytest.raises(EnvelopeError):
        available_torque(config.motor, -1.0)


def test_envelope_bounds_hold_across_speeds(config):
    for rpm in np.linspace(0.0, 8000.0, 250):
        tau = available_torque(config.motor, float(rpm))
        assert tau <= config.motor.max_torque
        assert tau * rpm / 9550.0 <= config.motor.max_power * (1.0 + 1e-9)


def test_rated_point_power_at_unit_efficiency():
    assert motor_electrical_power(95.5, 3000.0, 1.0) == pytest.approx(
        30.0, rel=1e-9
    )


def test_propulsion_draw_exceeds_mechanical():
    assert motor_electrical_power(95.5, 3000.0, 0.9) == pytest.approx(
        30.0 / 0.9, rel=1e-12
    )


def test_generation_returns_less_than_mechanical():
    assert motor_electrical_power(-95.5, 3000.0, 0.9) == pytest.approx(
        -27.0, rel=1e-12
    )


def test_zero_torque_draws_nothing():
    assert motor_electrical_power(0.0, 5000.0, 0.9) == 0.0


def test_losses_never_create_energy():
    for tau in (20.0, 95.5, 230.0):
        for n in (500.0, 3000.0, 7000.0):
            mech = tau * n / 9550.0
            draw = motor_electrical_power(tau, n, 0.9)
            back = -motor_electrical_power(-tau, n, 0.9)
            assert draw >= mech >= back


def test_motor_current_values():
    assert motor_current(30.0, 350.0) == pytest.approx(85.714285, abs=1e-5)
    assert motor_current(0.0, 350.0) == 0.0
    assert motor_current(-27.0, 350.0) == pytest.approx(-77.142857, abs=1e-5)


def test_motor_current_rejects_degenerate_voltage():
    with pytest.raises(DegenerateVoltageError):
        motor_current(30.0, 0.5)


def test_wheel_torque_propulsion():
    assert wheel_torque(95.5, 4.8, 0.9) == pytest.approx(412.56, rel=1e-12)
    assert wheel_torque(95.5, 4.8, 1.0) == pytest.approx(458.4, rel=1e-12)
    assert wheel_torque(0.0, 4.8, 0.9) == 0.0


def test_wheel_torque_generation_amplifies_magnitude():
    # Losses subtract from through-power: a generating motor absorbing tau
    # corresponds to more braking torque at the wheel, not less.
    braking = wheel_torque(-95.5, 4.8, 0.9)
    assert braking == pytest.approx(-95.5 * 4.8 / 0.9, rel=1e-12)
    assert abs(braking) > abs(wheel_torque(95.5, 4.8, 0.9))


def test_motor_speed_from_vehicle():
    rpm = motor_rpm_per_kmh(0.284, 4.8) * 100.0
    assert rpm == pytest.approx((100.0 / 3.6) / 0.284 * 60.0 / (2 * np.pi) * 4.8)
    assert rpm == pytest.approx(4483.6, rel=1e-3)
    assert motor_rpm_per_kmh(0.284, 4.8) * 180.0 == pytest.approx(
        8070.5, rel=1e-3
    )


def test_battery_idle_step_is_identity(config):
    state = initial_battery_state(config.battery)
    out = battery_step(state, 0.0, 3600.0, config.battery)
    assert out.soc == state.soc
    assert out.terminal_voltage == config.battery.nominal_voltage
    assert out.cumulative_energy_out == 0.0
    assert out.cumulative_energy_regen == 0.0


def test_battery_discharge_tenth_of_capacity_per_hour(config):
    capacity_ah = 216000.0 / 350.0
    state = initial_battery_state(config.battery)
    out = battery_step(state, capacity_ah / 10.0, 3600.0, config.battery)
    assert state.soc - out.soc == pytest.approx(0.1, rel=1e-12)


def test_battery_terminal_voltage_drop(config):
    state = initial_battery_state(config.battery)
    out = battery_step(state, 100.0, 0.1, config.battery)
    assert out.terminal_voltage == pytest.approx(340.0, rel=1e-9)


def test_battery_regen_raises_soc(config):
    state = initial_battery_state(config.battery)
    out = battery_step(state, -77.14, 10.0, config.battery)
    expected = 77.14 * 10.0 / (3600.0 * 216000.0 / 350.0)
    assert out.soc - state.soc == pytest.approx(expected, rel=1e-12)
    assert out.soc - state.soc == pytest.approx(3.47e-4, abs=5e-7)
    assert out.terminal_voltage > config.battery.nominal_voltage
    assert out.cumulative_energy_regen > 0.0
    assert out.cumulative_energy_out == 0.0


def test_battery_soc_clamps_with_flag(config):
    state = BatteryState(soc=0.9999, terminal_voltage=350.0)
    out = battery_step(state, -10000.0, 100.0, config.battery)
    assert out.soc == 1.0
    assert out.soc_saturated
    state = BatteryState(soc=0.0001, terminal_voltage=350.0)
    out = battery_step(state, 10000.0, 100.0, config.battery)
    assert out.soc == 0.0
    assert out.soc_saturated


def test_battery_rejects_bad_dt(config):
    state = initial_battery_state(config.battery)
    with pytest.raises(ValueError):
        battery_step(state, 1.0, 0.0, config.battery)


def test_soc_conservation_over_random_sequence(config):
    rng = np.random.default_rng(7)
    currents = rng.uniform(-120.0, 120.0, size=2000)
    dt = 0.1
    state = initial_battery_state(config.battery)
    for j in currents:
        state = battery_step(state, float(j), dt, config.battery)
    capacity_ah = 216000.0 / 350.0
    expected = config.battery.initial_soc - sum(
        config.battery.coulombic_efficiency * float(j) * dt
        / (3600.0 * capacity_ah)
        for j in currents
    )
    assert state.soc == pytest.approx(expected, abs=1e-12)


def test_terminal_voltage_is_affine_in_current(config):
    state = initial_battery_state(config.battery)
    points = []
    for j in (-80.0, 10.0, 120.0):
        out = battery_step(state, j, 0.1, config.battery)
        points.append((j, out.terminal_voltage))
    slope = (points[2][1] - points[0][1]) / (points[2][0] - points[0][0])
    assert slope == pytest.approx(-config.battery.internal_resistance, rel=1e-12)
    # middle point sits exactly on the line through the outer two
    interp = points[0][1] + slope * (points[1][0] - points[0][0])
    assert points[1][1] == pytest.approx(interp, rel=1e-12)


def test_round_trip_returns_at_most_the_loss_bound(config):
    eta_t = config.drivetrain.transmission_efficiency
    eta_m = config.motor.efficiency
    eta_r = config.drivetrain.regen_efficiency
    gr = config.drivetrain.gear_ratio
    tau, rpm = 150.0, 2500.0
    # battery -> wheel
    draw_kw = motor_electrical_power(tau, rpm, eta_m)
    wheel_kw = wheel_torque(tau, gr, eta_t) * (rpm / gr) / 9550.0
    # wheel -> battery at the same wheel torque magnitude
    tau_back = abs(wheel_torque(tau, gr, eta_t)) * eta_t / gr
    returned_kw = -motor_electrical_power(-tau_back, rpm, eta_m) * eta_r
    bound = eta_t**2 * eta_m**2 * eta_r
    assert returned_kw / draw_kw <= bound * (1.0 + 1e-12)
    assert returned_kw / draw_kw == pytest.approx(bound, rel=1e-9)
    assert wheel_kw <= draw_kw
