"""Motor envelope, electrical conversion, transmission, and battery state.

Sign conventions: positive shaft torque, electrical power, and current mean
propulsion/discharge; negative mean generation/charging. Efficiencies
always reduce the through-power, in both directions: an electric machine
draws more electrical power than it delivers mechanically when propelling,
and delivers less electrical power than it absorbs when generating.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DegenerateVoltageError, EnvelopeError
from .params import RPM_KW_CONSTANT, BatteryParams, MotorParams

# Below this terminal voltage the current computation is meaningless.
VOLTAGE_FLOOR = 1.0


@dataclass(frozen=True)
class BatteryState:
    """Battery bookkeeping carried across steps.

    Args:
        soc: State of charge, fraction in [0, 1].
        terminal_voltage: Last terminal voltage [V].
        cumulative_energy_out: Terminal energy delivered while discharging [kWh].
        cumulative_energy_regen: Terminal energy absorbed while charging [kWh].
        soc_saturated: True once the SoC ever hit a [0, 1] bound and was clamped.
    """

    soc: float
    terminal_voltage: float
    cumulative_energy_out: float = 0.0
    cumulative_energy_regen: float = 0.0
    soc_saturated: bool = False


def available_torque(motor: MotorParams, speed_rpm: float) -> float:
    """Peak shaft torque [N*m] at a given speed: torque cap below base
    speed, max_power envelope above it.

    Raises:
        EnvelopeError: If speed exceeds max_speed (callers must cap motor
            speed before asking).
    """
    if speed_rpm < 0.0:
        raise EnvelopeError(f"motor speed must be >= 0 (got {speed_rpm})")
    if speed_rpm > motor.max_speed:
        raise EnvelopeError(
            f"motor speed {speed_rpm:.1f} rpm exceeds max {motor.max_speed:.1f} rpm"
        )
    if speed_rpm == 0.0:
        return motor.max_torque
    return min(motor.max_torque, RPM_KW_CONSTANT * motor.max_power / speed_rpm)


def motor_electrical_power(
    shaft_torque_nm: float, speed_rpm: float, motor_efficiency: float
) -> float:
    """Electrical power [kW] for a shaft torque [N*m] at a speed [rpm].

    Mechanical power is tau * n / 9550 kW. Propulsion divides by the
    efficiency (the battery supplies the losses); generation multiplies by
    it (losses reduce what comes back). Zero torque draws nothing.
    """
    if shaft_torque_nm == 0.0:
        return 0.0
    mech_kw = shaft_torque_nm * speed_rpm / RPM_KW_CONSTANT
    if shaft_torque_nm > 0.0:
        return mech_kw / motor_efficiency
    return mech_kw * motor_efficiency


def motor_current(electrical_power_kw: float, terminal_voltage: float) -> float:
    """Battery current [A] = 1000 * P / V, sign preserved.

    Raises:
        DegenerateVoltageError: If the terminal voltage is below 1 V.
    """
    if terminal_voltage < VOLTAGE_FLOOR:
        raise DegenerateVoltageError(
            f"terminal voltage {terminal_voltage:.3f} V below {VOLTAGE_FLOOR} V floor"
        )
    return 1000.0 * electrical_power_kw / terminal_voltage


def wheel_torque(
    motor_torque_nm: float, gear_ratio: float, transmission_efficiency: float
) -> float:
    """Wheel-side torque [N*m] for a motor-side torque [N*m], signed.

    Propulsion multiplies by gear_ratio * efficiency. On the generating
    path the losses still subtract from the through-power, so a motor
    absorbing |tau| corresponds to a larger wheel-side braking torque
    |tau| * gear_ratio / efficiency.
    """
    if motor_torque_nm >= 0.0:
        return motor_torque_nm * gear_ratio * transmission_efficiency
    return motor_torque_nm * gear_ratio / transmission_efficiency


def battery_step(
    state: BatteryState, current_a: float, dt: float, params: BatteryParams
) -> BatteryState:
    """Advance the battery one step at a constant current [A].

    Amp-hour counting: soc decreases by eta_coulombic * J * dt / (3600 * Cb)
    with Cb in Ah (discharge positive, charging negative). The terminal
    voltage is nominal minus the resistive drop for this step's current, and
    the terminal energy V * J * dt accumulates into the discharge or regen
    ledger by sign. SoC is clamped to [0, 1] with a saturation flag; the
    depletion stop policy belongs to the engine.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")
    capacity_ah = 1000.0 * params.capacity_energy / params.nominal_voltage
    soc = state.soc - params.coulombic_efficiency * current_a * dt / (
        3600.0 * capacity_ah
    )
    saturated = state.soc_saturated
    if soc > 1.0:
        soc = 1.0
        saturated = True
    elif soc < 0.0:
        soc = 0.0
        saturated = True
    voltage = params.nominal_voltage - params.internal_resistance * current_a
    terminal_energy_kwh = voltage * current_a * dt / 3.6e6
    out = state.cumulative_energy_out
    regen = state.cumulative_energy_regen
    if current_a >= 0.0:
        out += terminal_energy_kwh
    else:
        regen += -terminal_energy_kwh
    return replace(
        state,
        soc=soc,
        terminal_voltage=voltage,
        cumulative_energy_out=out,
        cumulative_energy_regen=regen,
        soc_saturated=saturated,
    )


def initial_battery_state(params: BatteryParams) -> BatteryState:
    """Fresh battery state at the configured initial SoC."""
    return BatteryState(soc=params.initial_soc, terminal_voltage=params.nominal_voltage)
