"""Closed-loop speed control: PI command and braking-allocation split.

The PI output is a normalized command in [-1, 1]; positive demands
propulsion torque, negative demands braking. Negative commands are split
regen-first: the motor absorbs as much of the demanded wheel force as its
torque envelope allows (unless the vehicle is below the cutoff speed), and
the friction system supplies the remainder up to its cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import DriverParams, VehicleConfig
from .powertrain import available_torque


@dataclass(frozen=True)
class DriverState:
    """Controller memory across steps.

    Args:
        integral: Accumulated speed error [km/h * s].
        last_command: Previous output, in [-1, 1].
    """

    integral: float = 0.0
    last_command: float = 0.0


@dataclass(frozen=True)
class ActuationRequest:
    """Driver command resolved into actuator demands.

    Propulsion and braking are mutually exclusive. ``regen_torque_nm`` is
    the magnitude of the negative motor-shaft torque; ``friction_force_n``
    acts directly at the wheels.
    """

    propulsion_torque_nm: float = 0.0
    regen_torque_nm: float = 0.0
    friction_force_n: float = 0.0


def pi_step(
    state: DriverState,
    target_kmh: float,
    actual_kmh: float,
    dt: float,
    params: DriverParams,
) -> tuple[float, DriverState]:
    """Advance the PI controller one step; returns (command, new state).

    The command is kp*dv + ki*integral with the integral tentatively
    advanced by dv*dt, clamped to [command_min, command_max]. Anti-windup is
    conditional integration: the tentative advance is kept only when the
    output is unsaturated or the error drives it out of saturation, so the
    integral stays bounded under persistent saturation.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")
    dv = target_kmh - actual_kmh
    candidate = state.integral + dv * dt
    raw = params.kp * dv + params.ki * candidate
    if raw > params.command_max:
        command = params.command_max
        integral = state.integral if dv > 0.0 else candidate
    elif raw < params.command_min:
        command = params.command_min
        integral = state.integral if dv < 0.0 else candidate
    else:
        command = raw
        integral = candidate
    return command, DriverState(integral=integral, last_command=command)


def split_command(
    command: float,
    motor_speed_rpm: float,
    vehicle_speed_kmh: float,
    config: VehicleConfig,
) -> ActuationRequest:
    """Resolve a normalized command into propulsion/regen/friction demands.

    A non-negative command scales the motor torque available at the current
    speed. A negative command demands a wheel braking force of
    |command| * (friction cap + regen-capable wheel force); regeneration is
    capable of ``available_torque * gear_ratio / (transmission_efficiency *
    wheel_radius)`` at the wheels (losses subtract from the through-power on
    the generating path) and is disabled below the cutoff speed. Beyond the
    motor speed ceiling the available torque is treated as zero rather than
    an error.
    """
    motor = config.motor
    d = config.drivetrain
    if motor_speed_rpm > motor.max_speed:
        avail = 0.0
    else:
        avail = available_torque(motor, motor_speed_rpm)
    if command >= 0.0:
        return ActuationRequest(propulsion_torque_nm=command * avail)

    if vehicle_speed_kmh > d.regen_cutoff_speed:
        cap_wheel_force = (
            avail * d.gear_ratio
            / (d.transmission_efficiency * config.body.wheel_radius)
        )
    else:
        cap_wheel_force = 0.0
    demand = -command * (d.max_friction_brake_force + cap_wheel_force)
    regen_force = demand if demand <= cap_wheel_force else cap_wheel_force
    remainder = demand - regen_force
    friction = (
        remainder
        if remainder <= d.max_friction_brake_force
        else d.max_friction_brake_force
    )
    regen_torque = (
        regen_force
        * d.transmission_efficiency
        * config.body.wheel_radius
        / d.gear_ratio
    )
    return ActuationRequest(regen_torque_nm=regen_torque, friction_force_n=friction)
