"""Reference step: the engine's per-step rules composed from the component
operations of ``cycle``, ``driver``, ``dynamics`` and ``powertrain``.

The engine inlines this arithmetic into one kernel for speed; tests compare
both ``engine.run`` and ``engine.step`` against this composition bit for
bit, so a change to the engine's physics must be made here as well.
"""

from __future__ import annotations

import math

from bevsim.cycle import DriveCycle, target_speed
from bevsim.driver import ActuationRequest, DriverState, pi_step, split_command
from bevsim.dynamics import (
    ForceBreakdown,
    acceleration,
    aero_drag,
    integrate,
    rolling_resistance,
)
from bevsim.engine import SimState, TraceRecord
from bevsim.params import VehicleConfig
from bevsim.powertrain import battery_step, motor_current, motor_electrical_power


def reference_step(
    state: SimState,
    cycle: DriveCycle,
    config: VehicleConfig,
    regen_enabled: bool = True,
    pinned_command: float | None = None,
) -> tuple[SimState, TraceRecord]:
    """Advance one fixed step; returns the new state and its trace record.

    Composes the component operations in the documented order. The returned
    record carries the post-step time, speed, and target (the pair the next
    command acts on) together with the torques and forces applied during
    the step.
    """
    body = config.body
    d = config.drivetrain
    dt = config.sim.dt
    v_kmh = state.body.speed_kmh
    target = target_speed(cycle, state.t_s)

    if pinned_command is None:
        cmd, driver_state = pi_step(state.driver, target, v_kmh, dt, config.driver)
    else:
        cmd = pinned_command
        driver_state = DriverState(integral=state.driver.integral, last_command=cmd)

    rpm = (
        d.gear_ratio * (60.0 / math.tau) / (3.6 * body.wheel_radius)
    ) * v_kmh
    request = split_command(cmd, rpm, v_kmh, config)
    tau_p = request.propulsion_torque_nm
    f_fric = request.friction_force_n
    # Recover the wheel-side regen force from the shaft torque so the trace
    # torque and the applied force stay mutually consistent.
    f_regen = (
        request.regen_torque_nm * d.gear_ratio / d.transmission_efficiency
        / body.wheel_radius
    )
    f_p = tau_p * d.gear_ratio * d.transmission_efficiency / body.wheel_radius

    if v_kmh > 0.0:
        rr = rolling_resistance(body, v_kmh)
        wr = aero_drag(body, v_kmh)
        forces = ForceBreakdown(f_p, f_regen, f_fric, rr, wr)
        a = acceleration(forces, body.mass)
        if v_kmh + a * dt * 3.6 < 0.0:
            # Stop clamp: shed friction first, then regen, to end at rest.
            v_ms = v_kmh / 3.6
            brake_needed = body.mass * v_ms / dt - rr - wr
            if brake_needed <= 0.0:
                tau_r = 0.0
                f_regen = 0.0
                f_fric = 0.0
            elif brake_needed <= f_regen:
                tau_r = (
                    brake_needed * d.transmission_efficiency
                    * body.wheel_radius / d.gear_ratio
                )
                f_regen = (
                    tau_r * d.gear_ratio / d.transmission_efficiency
                    / body.wheel_radius
                )
                f_fric = 0.0
            else:
                tau_r = request.regen_torque_nm
                f_fric = brake_needed - f_regen
            request = ActuationRequest(
                regen_torque_nm=tau_r, friction_force_n=f_fric
            )
            forces = ForceBreakdown(f_p, f_regen, f_fric, rr, wr)
            a = -v_ms / dt
        new_body = integrate(state.body, a, dt)
    else:
        # At rest: resistances report zero; launch only past the static
        # rolling threshold, against zero resistance for this step.
        rr = 0.0
        wr = 0.0
        f_regen = 0.0
        f_fric = 0.0
        request = ActuationRequest(propulsion_torque_nm=tau_p)
        if f_p > body.mass * body.gravity * body.f0:
            forces = ForceBreakdown(propulsion=f_p)
        else:
            f_p = 0.0
            forces = ForceBreakdown()
        a = acceleration(forces, body.mass)
        new_body = integrate(state.body, a, dt)

    if tau_p > 0.0:
        tau_signed = tau_p
    elif request.regen_torque_nm > 0.0:
        tau_signed = -request.regen_torque_nm
    else:
        tau_signed = 0.0
    p_elec = motor_electrical_power(tau_signed, rpm, config.motor.efficiency)
    if p_elec < 0.0:
        p_batt = (p_elec * d.regen_efficiency if regen_enabled else 0.0) + 0.0
    else:
        p_batt = p_elec
    current = motor_current(p_batt, state.battery.terminal_voltage) + 0.0
    new_battery = battery_step(state.battery, current, dt, config.battery)

    t2 = state.t_s + dt
    record = TraceRecord(
        t_s=t2,
        v_target_kmh=target_speed(cycle, t2),
        v_kmh=new_body.speed_kmh,
        dist_km=new_body.distance_km,
        cmd=cmd,
        motor_nm=tau_signed,
        motor_rpm=rpm,
        fric_n=request.friction_force_n,
        batt_kw=p_batt,
        current_a=current,
        volt_v=new_battery.terminal_voltage,
        soc=new_battery.soc,
        rr_n=rr,
        wr_n=wr,
        accel_ms2=a,
    )
    new_state = SimState(
        t_s=t2,
        body=new_body,
        battery=new_battery,
        driver=driver_state,
    )
    return new_state, record
