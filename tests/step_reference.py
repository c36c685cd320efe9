"""Reference step: the engine's per-step rules composed from component
operations, the bit-exact oracle for the engine kernel.

The package runs all per-step physics in one kernel, ``engine._advance``.
This module keeps the same physics as separate component operations (the
PI controller and braking split, the force balance and integration, the
motor envelope, electrical conversion and battery update) and composes them
in the documented order. Tests compare both ``engine.run`` and
``engine.step`` against this composition bit for bit, so a change to the
engine's physics must be made here as well. ``reference_run`` iterates the
reference step and accumulates the energy ledger and the tracking error the
way the kernel does, so ``run``'s summary and ledger can be checked bit for
bit too. The components carry their own state types (``DriverState``,
``BodyState``, ``BatteryState``); the reference step builds them from the
engine's flat ``SimState`` and flattens its result back into one. The
component operations have their own unit tests in ``test_driver``,
``test_dynamics`` and ``test_powertrain``.

Three oracles that no package code calls live here too: ``target_speed``,
the cycle lookup the kernel's cursor must reproduce;
``soc_dynamics_report``, which classifies every SoC rise in a trace; and
``euler_accel_time``, a fine-step time integration of full-throttle
acceleration that cross-checks the package's quadrature oracle
(``experiments.accel_time_oracle``) by a different method.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from bevsim.cycle import DriveCycle
from bevsim.dynamics import aero_drag, rolling_resistance
from bevsim.engine import (
    EnergyLedger,
    SimState,
    SimSummary,
    SimTrace,
    StopReason,
    TraceRecord,
    _steps_for,
    _whole_steps,
    initial_state,
)
from bevsim.errors import (
    DegenerateVoltageError,
    EnvelopeError,
    UnreachableTargetError,
)
from bevsim.experiments import _FULL_THROTTLE_TIME_CAP_S
from bevsim.params import (
    RPM_KW_CONSTANT,
    BatteryParams,
    DriverParams,
    MotorParams,
    VehicleConfig,
)

# Below this terminal voltage the current computation is meaningless.
VOLTAGE_FLOOR = 1.0


# -- cycle: target-speed lookup -----------------------------------------------


def target_speed(cycle: DriveCycle, t: float) -> float:
    """Target speed at time t [km/h]: linear between samples, last value held.

    The interpolation expression must stay identical to the cycle cursor in
    engine._advance (bit-for-bit), so keep any change in sync with it. The
    kernel caches the current segment (t0, v0, v1 - v0, t1 - t0) between
    steps but evaluates this same expression.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0 (got {t})")
    times = cycle.times_s
    speeds = cycle.speeds_kmh
    if t >= times[-1]:
        return speeds[-1]
    i = bisect_right(times, t) - 1
    t0 = times[i]
    t1 = times[i + 1]
    v0 = speeds[i]
    v1 = speeds[i + 1]
    return v0 + (v1 - v0) * ((t - t0) / (t1 - t0))


# -- driver: PI command and braking-allocation split --------------------------
#
# The PI output is a normalized command in [-1, 1]; positive demands
# propulsion torque, negative demands braking. Negative commands are split
# regen-first: the motor absorbs as much of the demanded wheel force as its
# torque envelope allows (unless the vehicle is below the cutoff speed), and
# the friction system supplies the remainder up to its cap.


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
    advanced by dv*dt, clamped to [-1, 1]. Anti-windup is
    conditional integration: the tentative advance is kept only when the
    output is unsaturated or the error drives it out of saturation, so the
    integral stays bounded under persistent saturation.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")
    dv = target_kmh - actual_kmh
    candidate = state.integral + dv * dt
    raw = params.kp * dv + params.ki * candidate
    if raw > 1.0:
        command = 1.0
        integral = state.integral if dv > 0.0 else candidate
    elif raw < -1.0:
        command = -1.0
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


# -- dynamics: force balance and speed/distance integration -------------------
#
# Internal computation is SI; speeds cross into km/h only at the empirical
# road-load formulas (``bevsim.dynamics``). Braking terms enter the force
# breakdown as non-negative magnitudes with fixed signs, so no caller ever
# negates a torque twice.


@dataclass(frozen=True)
class BodyState:
    """Translational state of the vehicle.

    Args:
        speed_kmh: Vehicle speed [km/h], >= 0 (no reverse).
        distance_km: Cumulative distance [km], non-decreasing.
        acceleration_ms2: Most recently applied acceleration [m/s^2].
    """

    speed_kmh: float = 0.0
    distance_km: float = 0.0
    acceleration_ms2: float = 0.0


@dataclass(frozen=True)
class ForceBreakdown:
    """Per-step wheel-level forces [N]; all components non-negative.

    ``net`` is propulsion minus every opposing term, by construction.
    """

    propulsion: float = 0.0
    regen_brake: float = 0.0
    friction_brake: float = 0.0
    rolling: float = 0.0
    aero: float = 0.0

    @property
    def net(self) -> float:
        return (
            self.propulsion
            - self.regen_brake
            - self.friction_brake
            - self.rolling
            - self.aero
        )


def acceleration(forces: ForceBreakdown, mass_kg: float) -> float:
    """Acceleration [m/s^2] from the net wheel-level force."""
    if mass_kg <= 0.0:
        raise ValueError(f"mass must be > 0 (got {mass_kg})")
    return forces.net / mass_kg


def integrate(state: BodyState, accel_ms2: float, dt: float) -> BodyState:
    """Semi-implicit Euler update: speed first, then distance with the new
    speed. Speed clamps at zero (no reverse); distance never decreases.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0 (got {dt})")
    speed = state.speed_kmh + accel_ms2 * dt * 3.6
    if speed < 0.0:
        speed = 0.0
    distance = state.distance_km + (speed / 3.6) * dt / 1000.0
    return BodyState(
        speed_kmh=speed, distance_km=distance, acceleration_ms2=accel_ms2
    )


# -- powertrain: motor envelope, electrical conversion, transmission, battery -
#
# Sign conventions: positive shaft torque, electrical power, and current mean
# propulsion/discharge; negative mean generation/charging. Efficiencies
# always reduce the through-power, in both directions: an electric machine
# draws more electrical power than it delivers mechanically when propelling,
# and delivers less electrical power than it absorbs when generating.


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


def initial_battery_state(params: BatteryParams) -> BatteryState:
    """Fresh battery state at the configured initial SoC."""
    return BatteryState(soc=params.initial_soc, terminal_voltage=params.nominal_voltage)


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


# -- the composed step ---------------------------------------------------------


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

    Raises:
        ValueError: If ``state.t_s`` is negative, ``config.sim.dt`` is not
            positive, or any state float the step reads is not finite.
        EnvelopeError: If the vehicle speed is negative or not finite.
        DegenerateVoltageError: If the terminal voltage is not >= 1 V.
    """
    return _reference_step(state, cycle, config, regen_enabled, pinned_command)[:2]


def _check_client_state(state: SimState, dt: float) -> None:
    """The checks ``engine.step`` makes before its kernel runs: a bad time or
    step, speed or voltage raises as the components would for a finite bad
    value, and no non-finite float reaches them."""
    finite = math.isfinite
    if not (state.t_s >= 0.0 and finite(state.t_s)):
        raise ValueError(f"t must be finite and >= 0 (got {state.t_s})")
    if not (dt > 0.0 and finite(dt)):
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
    speed = state.speed_kmh
    if not (speed >= 0.0 and finite(speed)):
        raise EnvelopeError(f"vehicle speed must be finite and >= 0 (got {speed})")
    voltage = state.terminal_voltage
    if not (voltage >= VOLTAGE_FLOOR and finite(voltage)):
        raise DegenerateVoltageError(f"terminal voltage {voltage} V is not >= 1 V")
    others = (
        state.distance_km,
        state.integral,
        state.soc,
        state.cumulative_energy_out,
        state.cumulative_energy_regen,
    )
    if not all(finite(x) for x in others):
        raise ValueError(f"state floats must be finite (got {state})")


def _reference_step(state, cycle, config, regen_enabled, pinned_command):
    """``reference_step`` that also returns the applied wheel propulsion and
    regen forces [N], which the ledger needs and the record does not hold."""
    body = config.body
    d = config.drivetrain
    dt = config.sim.dt
    _check_client_state(state, dt)
    # The components' own states, built from the flat client state.
    body_state = BodyState(speed_kmh=state.speed_kmh, distance_km=state.distance_km)
    battery_state = BatteryState(
        soc=state.soc,
        terminal_voltage=state.terminal_voltage,
        cumulative_energy_out=state.cumulative_energy_out,
        cumulative_energy_regen=state.cumulative_energy_regen,
        soc_saturated=state.soc_saturated,
    )
    driver_state = DriverState(integral=state.integral)
    v_kmh = body_state.speed_kmh
    target = target_speed(cycle, state.t_s)

    if pinned_command is None:
        cmd, driver_state = pi_step(driver_state, target, v_kmh, dt, config.driver)
    else:
        cmd = pinned_command
        driver_state = DriverState(integral=driver_state.integral, last_command=cmd)

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
        new_body = integrate(body_state, a, dt)
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
        new_body = integrate(body_state, a, dt)

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
    current = motor_current(p_batt, battery_state.terminal_voltage) + 0.0
    new_battery = battery_step(battery_state, current, dt, config.battery)

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
        speed_kmh=new_body.speed_kmh,
        distance_km=new_body.distance_km,
        integral=driver_state.integral,
        soc=new_battery.soc,
        terminal_voltage=new_battery.terminal_voltage,
        cumulative_energy_out=new_battery.cumulative_energy_out,
        cumulative_energy_regen=new_battery.cumulative_energy_regen,
        soc_saturated=new_battery.soc_saturated,
    )
    return new_state, record, f_p, f_regen


def reference_run(
    config: VehicleConfig,
    cycle: DriveCycle,
    n: int,
    regen_enabled: bool = True,
) -> tuple[list[TraceRecord], SimSummary, EnergyLedger]:
    """Iterate ``reference_step`` n times from rest; returns the records and
    the summary and ledger of a single-pass run bounded at n steps: its
    stop reason is ``CYCLE_END`` when n reaches the cycle's step count (a
    tie goes to the cycle end), else ``MAX_TIME``.

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
        v = state.speed_kmh
        state, rec, f_p, f_regen = _reference_step(
            state, cycle, config, regen_enabled, None
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
    cycle_max = max(cycle.speeds_kmh)
    # Whole passes: by step count when dt divides the duration (t drifts
    # from n * dt over many passes), else by time.
    pass_steps = _whole_steps(cycle.duration_s, dt)
    if pass_steps:
        cycles = n // pass_steps
    else:
        cycles = int((t + dt * 1e-6) / cycle.duration_s)
    summary = SimSummary(
        duration_s=t,
        distance_km=state.distance_km,
        soc_start=bat.initial_soc,
        soc_end=state.soc,
        max_tracking_error_kmh=max_err,
        max_tracking_error_pct=(
            100.0 * max_err / cycle_max if cycle_max > 0.0 else 0.0
        ),
        energy_out_kwh=state.cumulative_energy_out,
        energy_regen_kwh=state.cumulative_energy_regen,
        cycles_completed=cycles,
        stop_reason=(
            StopReason.CYCLE_END
            if n >= _steps_for(cycle.duration_s, dt)
            else StopReason.MAX_TIME
        ),
    )
    ledger_j = (e_out, e_regen, e_kin, e_roll, e_aero, e_fric, e_drive, e_resist)
    ledger = EnergyLedger(*(e / 3.6e6 for e in ledger_j))
    return records, summary, ledger


# -- SoC dynamics: where and why the state of charge rose ---------------------


@dataclass(frozen=True)
class SocIncreaseEvent:
    """One step on which the state of charge rose."""

    t_s: float
    soc_delta: float
    command: float
    speed_kmh: float


@dataclass(frozen=True)
class SocDynamicsReport:
    """Where and why the SoC rose over a trace."""

    increase_steps: int
    violation_steps: int
    violations: tuple[SocIncreaseEvent, ...]
    increase_times_s: tuple[float, ...]
    per_cycle_soc_delta: tuple[float, ...]


def soc_dynamics_report(
    trace: SimTrace,
    config: VehicleConfig,
    cycle_duration_s: float | None = None,
    max_recorded_violations: int = 20,
) -> SocDynamicsReport:
    """Classify every SoC increase in a full-rate trace.

    An increase is legitimate only while braking (negative command) above
    the regen cutoff speed; anything else is reported as a violation.
    """
    soc = np.asarray(trace.soc)
    if len(soc) == 0:
        return SocDynamicsReport(0, 0, (), (), ())
    prev_soc = np.concatenate(([config.battery.initial_soc], soc[:-1]))
    prev_v = np.concatenate(([0.0], np.asarray(trace.v_kmh)[:-1]))
    delta = soc - prev_soc
    rising = delta > 0.0
    braking = np.asarray(trace.cmd) < 0.0
    above_cutoff = prev_v > config.drivetrain.regen_cutoff_speed
    bad = rising & ~(braking & above_cutoff)
    violations = tuple(
        SocIncreaseEvent(
            t_s=float(trace.t_s[i]),
            soc_delta=float(delta[i]),
            command=float(trace.cmd[i]),
            speed_kmh=float(prev_v[i]),
        )
        for i in np.flatnonzero(bad)[:max_recorded_violations]
    )
    per_cycle: tuple[float, ...] = ()
    if cycle_duration_s and cycle_duration_s > 0.0:
        t = np.asarray(trace.t_s)
        boundaries = np.arange(cycle_duration_s, t[-1] + 1e-9, cycle_duration_s)
        idx = np.searchsorted(t, boundaries - 1e-9, side="left")
        idx = np.minimum(idx, len(soc) - 1)
        socs = np.concatenate(([config.battery.initial_soc], soc[idx]))
        per_cycle = tuple(float(x) for x in np.diff(socs))
    return SocDynamicsReport(
        increase_steps=int(np.count_nonzero(rising)),
        violation_steps=int(np.count_nonzero(bad)),
        violations=violations,
        increase_times_s=tuple(
            float(x) for x in np.asarray(trace.t_s)[rising]
        ),
        per_cycle_soc_delta=per_cycle,
    )


# -- acceleration: fine-step time integration ---------------------------------


def euler_accel_time(
    config: VehicleConfig, target_kmh: float, dt: float = 1e-3
) -> float:
    """0-to-target time [s] by semi-implicit Euler at a fine step.

    Full throttle along the torque/power envelope against the road loads,
    with the crossing linearly interpolated; at rest the car launches
    against no resistance once the drive force beats m*g*f0, as the engine
    does.

    Raises:
        UnreachableTargetError: If the speed stops rising, or the target is
            not reached within the full-throttle time cap.
    """
    if target_kmh <= 0.0:
        return 0.0
    b = config.body
    mtr = config.motor
    d = config.drivetrain
    rpm_per = d.gear_ratio * (60.0 / math.tau) / (3.6 * b.wheel_radius)
    force_per_nm = d.gear_ratio * d.transmission_efficiency / b.wheel_radius
    static = b.mass * b.gravity * b.f0
    v = 0.0
    t = 0.0
    while t < _FULL_THROTTLE_TIME_CAP_S:
        rpm = rpm_per * v
        if rpm > mtr.max_speed:
            tau = 0.0
        elif rpm > 0.0:
            tau = min(mtr.max_torque, RPM_KW_CONSTANT * mtr.max_power / rpm)
        else:
            tau = mtr.max_torque
        force = tau * force_per_nm
        if v > 0.0:
            x = v / 100.0
            resist = b.mass * b.gravity * (b.f0 + b.f1 * x + b.f4 * x**4)
            resist += b.drag_coefficient * b.frontal_area * v * v / 21.15
            a = (force - resist) / b.mass
        elif force > static:
            a = force / b.mass
        else:
            a = 0.0
        v2 = v + a * dt * 3.6
        if v2 < 0.0:
            v2 = 0.0
        if v2 >= target_kmh:
            return t + dt * (target_kmh - v) / (v2 - v)
        if v2 <= v and v > 0.0:
            break
        v = v2
        t += dt
    raise UnreachableTargetError(
        f"euler: {target_kmh:g} km/h not reached within "
        f"{_FULL_THROTTLE_TIME_CAP_S:g} s"
    )
