"""Reference step: the engine's per-step rules composed from the component
operations of ``cycle``, ``driver``, ``dynamics`` and ``powertrain``.

The engine inlines this arithmetic into one kernel for speed; tests compare
both ``engine.run`` and ``engine.step`` against this composition bit for
bit, so a change to the engine's physics must be made here as well.
``reference_run`` iterates the reference step and accumulates the energy
ledger and the tracking error the way the kernel does, so ``run``'s summary
and ledger can be checked bit for bit too.
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
from bevsim.engine import (
    EnergyLedger,
    SimState,
    SimSummary,
    StopReason,
    TraceRecord,
    initial_state,
)
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
    return _reference_step(state, cycle, config, regen_enabled, pinned_command)[:2]


def _reference_step(state, cycle, config, regen_enabled, pinned_command):
    """``reference_step`` that also returns the applied wheel propulsion and
    regen forces [N], which the ledger needs and the record does not hold."""
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
    return new_state, record, f_p, f_regen


def reference_run(
    config: VehicleConfig,
    cycle: DriveCycle,
    n: int,
    regen_enabled: bool = True,
    pinned_command: float | None = None,
) -> tuple[list[TraceRecord], SimSummary, EnergyLedger]:
    """Iterate ``reference_step`` n times from rest; returns the records and
    the summary and ledger of a single-pass run stopped by ``max_time``.

    The ledger buckets [J] and the tracking-error maximum accumulate with
    the kernel's documented expressions in their written order (storage-side
    battery energy, midpoint displacement); the kernel may hoist or share
    subexpressions but must produce these doubles.
    """
    bat = config.battery
    dt = config.sim.dt
    m = config.body.mass
    vn = bat.nominal_voltage
    z = bat.internal_resistance
    e_out = e_regen = e_resist = e_roll = e_aero = e_fric = e_drive = e_kin = 0.0
    max_err = 0.0
    state = initial_state(config)
    records = []
    for _ in range(n):
        v = state.body.speed_kmh
        state, rec, f_p, f_regen = _reference_step(
            state, cycle, config, regen_enabled, pinned_command
        )
        records.append(rec)
        v2 = rec.v_kmh
        current = rec.current_a
        v_ms = v / 3.6
        v2_ms = v2 / 3.6
        s_mid = (v_ms + v2_ms) * 0.5 * dt
        e_term_j = rec.volt_v * current * dt
        if current > 0.0:
            e_out += vn * current * dt
        elif current < 0.0:
            e_regen += -vn * current * dt
        e_drive += e_term_j - (f_p - f_regen) * s_mid
        e_resist += z * current * current * dt
        e_roll += rec.rr_n * s_mid
        e_aero += rec.wr_n * s_mid
        e_fric += rec.fric_n * s_mid
        e_kin += 0.5 * m * (v2_ms * v2_ms - v_ms * v_ms)
        err = rec.v_target_kmh - v2
        if err < 0.0:
            err = -err
        if err > max_err:
            max_err = err

    t = state.t_s
    cycle_max = max(cycle._speeds)
    summary = SimSummary(
        duration_s=t,
        distance_km=state.body.distance_km,
        soc_start=bat.initial_soc,
        soc_end=state.battery.soc,
        max_tracking_error_kmh=max_err,
        max_tracking_error_pct=(
            100.0 * max_err / cycle_max if cycle_max > 0.0 else 0.0
        ),
        energy_out_kwh=state.battery.cumulative_energy_out,
        energy_regen_kwh=state.battery.cumulative_energy_regen,
        cycles_completed=int((t + dt * 1e-6) / cycle.duration_s),
        stop_reason=StopReason.MAX_TIME,
    )
    ledger_j = (e_out, e_regen, e_kin, e_roll, e_aero, e_fric, e_drive, e_resist)
    ledger = EnergyLedger(*(e / 3.6e6 for e in ledger_j))
    return records, summary, ledger
