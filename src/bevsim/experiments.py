"""Scripted evaluation scenarios with independent oracles.

Range, acceleration, and top-speed scenarios drive the engine; each
performance scenario is paired with an oracle that never touches the
engine (force-balance bisection for top speed, a fine-step reference
integrator for acceleration), so wiring bugs cannot cancel out.

Acceleration and top-speed runs pin the command at 1 instead of using the
PI driver, so the results reflect the powertrain rather than controller
tuning. Crossing times are linearly interpolated between steps to
de-quantize the fixed step.

The module also records the published reference figures this vehicle
parameter set is usually quoted with (regen range gain of 23/25/25.5%,
9.5 s to 100 km/h, roughly 190 km/h top speed). Those figures are not
reproducible from the parameter set itself; scenarios report the measured
value next to the reference instead of asserting it. See the README.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .cycle import DriveCycle
from .dynamics import aero_drag, rolling_resistance
from .engine import EnergyLedger, SimSummary, SimTrace, run
from .errors import UnreachableTargetError
from .params import RPM_KW_CONSTANT, VehicleConfig, motor_rpm_per_kmh

# Published reference figures for this parameter set (not derivable from it).
REFERENCE_REGEN_GAIN_PERCENTS = (23.0, 25.0, 25.5)
REFERENCE_ACCEL_TIME_S = 9.5
REFERENCE_TOP_SPEED_KMH = 190.0

_ORACLE_TOLERANCE_KMH = 0.01
_FULL_THROTTLE_TIME_CAP_S = 600.0
_FIRST_ACCEL_HORIZON_S = 32.0


@dataclass(frozen=True)
class RangeReport:
    """Outcome of a repeated-cycle depletion run."""

    distance_km: float
    cycles_completed: int
    soc_start: float
    soc_end: float
    energy_out_kwh: float
    energy_regen_kwh: float
    regen_enabled: bool


@dataclass(frozen=True)
class RegenComparisonReport:
    """Regen-on vs regen-off depletion runs and the resulting range gain."""

    regen_on: RangeReport
    regen_off: RangeReport
    gain_fraction: float
    reference_gain_percents: tuple[float, ...] = REFERENCE_REGEN_GAIN_PERCENTS

    @property
    def gain_percent(self) -> float:
        return 100.0 * self.gain_fraction


@dataclass(frozen=True)
class AccelReport:
    """Full-throttle time to a target speed."""

    time_to_target_s: float
    target_kmh: float
    speed_trajectory: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TopSpeedReport:
    """Full-throttle settled top speed against the force-balance oracle."""

    vmax_kmh: float
    time_to_vmax_s: float
    oracle_vmax_kmh: float
    discrepancy_kmh: float
    speed_trajectory: tuple[tuple[float, float], ...]


def _full_throttle_cycle() -> DriveCycle:
    # Placeholder schedule; the command is pinned so targets are unused.
    return DriveCycle("full-throttle", (0.0, 1.0), (0.0, 0.0))


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (got {value})")


def _crossing_time(
    t: Sequence[float], v: Sequence[float], target: float
) -> tuple[float | None, int | None]:
    """First time v reaches the target, interpolated between steps."""
    i = next((i for i, vi in enumerate(v) if vi >= target), None)
    if i is None:
        return None, None
    if i == 0:
        t_prev, v_prev = 0.0, 0.0
    else:
        t_prev, v_prev = t[i - 1], v[i - 1]
    frac = (target - v_prev) / (v[i] - v_prev)
    return t_prev + (t[i] - t_prev) * frac, i


def range_test_detailed(
    config: VehicleConfig,
    cycle: DriveCycle,
    regen_enabled: bool = True,
    soc_floor: float | None = None,
    trace_every: int = 0,
) -> tuple[RangeReport, SimTrace, SimSummary, EnergyLedger]:
    """Repeat the cycle until the SoC floor; also return trace/summary/ledger."""
    floor = config.battery.soc_floor if soc_floor is None else soc_floor
    if config.battery.initial_soc <= floor:
        raise ValueError(
            f"initial_soc {config.battery.initial_soc} must exceed the "
            f"soc floor {floor}"
        )
    trace, summary, ledger = run(
        config,
        cycle,
        regen_enabled=regen_enabled,
        stop_at_soc=floor,
        repeat=True,
        trace_every=trace_every,
    )
    report = RangeReport(
        distance_km=summary.distance_km,
        cycles_completed=summary.cycles_completed,
        soc_start=summary.soc_start,
        soc_end=summary.soc_end,
        energy_out_kwh=summary.energy_out_kwh,
        energy_regen_kwh=summary.energy_regen_kwh,
        regen_enabled=regen_enabled,
    )
    return report, trace, summary, ledger


def range_test(
    config: VehicleConfig,
    cycle: DriveCycle,
    regen_enabled: bool = True,
    soc_floor: float | None = None,
) -> RangeReport:
    """Repeat the cycle until the SoC floor and report the totals."""
    return range_test_detailed(config, cycle, regen_enabled, soc_floor)[0]


def regen_comparison(
    config: VehicleConfig,
    cycle: DriveCycle,
    soc_floor: float | None = None,
    parallel: bool = False,
) -> RegenComparisonReport:
    """Run the depletion test with and without energy recovery.

    Recovery off disables the charging path only (braking behavior is
    identical in both legs), so the gain isolates the recovered energy.
    The legs run concurrently when ``parallel`` is set and the platform
    supports it; results are identical either way.
    """
    on = off = None
    if parallel:
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                fut_on = pool.submit(range_test, config, cycle, True, soc_floor)
                fut_off = pool.submit(range_test, config, cycle, False, soc_floor)
                on = fut_on.result()
                off = fut_off.result()
        except (OSError, RuntimeError):
            on = off = None
    if on is None or off is None:
        on = range_test(config, cycle, True, soc_floor)
        off = range_test(config, cycle, False, soc_floor)
    gain = on.distance_km / off.distance_km - 1.0
    return RegenComparisonReport(regen_on=on, regen_off=off, gain_fraction=gain)


def accel_test(config: VehicleConfig, target_kmh: float = 100.0) -> AccelReport:
    """Full-throttle time from rest to a target speed.

    Raises:
        ValueError: If the target is negative or not finite.
        UnreachableTargetError: If the force balance caps the top speed
            below the target (checked against the oracle up front).
    """
    _require_finite("target", target_kmh)
    if target_kmh < 0.0:
        raise ValueError(f"target must be >= 0 (got {target_kmh})")
    if target_kmh == 0.0:
        return AccelReport(0.0, 0.0, ((0.0, 0.0),))
    vmax = top_speed_oracle(config)
    if target_kmh >= vmax:
        raise UnreachableTargetError(
            f"target {target_kmh:g} km/h is not below the force-balance "
            f"top speed {vmax:.1f} km/h"
        )
    # A shorter run from rest is an exact prefix of a longer one, so the
    # horizon doubles up to the cap (or sim.max_sim_time, when shorter)
    # until it holds the crossing.
    cap = min(_FULL_THROTTLE_TIME_CAP_S, config.sim.max_sim_time)
    horizon = min(_FIRST_ACCEL_HORIZON_S, cap)
    while True:
        trace, _, _ = run(
            config,
            _full_throttle_cycle(),
            pinned_command=1.0,
            max_time=horizon,
            repeat=True,
        )
        t_cross, idx = _crossing_time(trace.t_s, trace.v_kmh, target_kmh)
        if t_cross is not None or horizon >= cap:
            break
        horizon = min(2.0 * horizon, cap)
    if t_cross is None:
        raise UnreachableTargetError(
            f"{target_kmh:g} km/h not reached within {cap:g} s"
        )
    trajectory = tuple(zip(trace.t_s[: idx + 1], trace.v_kmh[: idx + 1]))
    return AccelReport(
        time_to_target_s=t_cross,
        target_kmh=target_kmh,
        speed_trajectory=trajectory,
    )


def accel_time_oracle(
    config: VehicleConfig, target_kmh: float, dt: float = 1e-3
) -> float:
    """Reference 0-to-target time by brute-force fine-step integration.

    Deliberately self-contained (no engine involved): full throttle along
    the torque/power envelope against the road loads, semi-implicit Euler
    at a fine step, with the crossing linearly interpolated.

    Raises:
        ValueError: If the target is not finite or dt is not a finite
            positive step.
        UnreachableTargetError: If the target is not reached within the
            full-throttle time cap.
    """
    _require_finite("target", target_kmh)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0 (got {dt})")
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
        f"oracle: {target_kmh:g} km/h not reached within "
        f"{_FULL_THROTTLE_TIME_CAP_S:g} s"
    )


def top_speed_test(config: VehicleConfig, duration: float = 120.0) -> TopSpeedReport:
    """Full-throttle settled speed over ``duration`` (at most
    sim.max_sim_time), compared against the force-balance root."""
    trace, _, _ = run(
        config,
        _full_throttle_cycle(),
        pinned_command=1.0,
        max_time=duration,
        repeat=True,
    )
    if len(trace) == 0:
        raise ValueError("duration too short for a single step")
    vmax = max(trace.v_kmh)
    settle_idx = next(i for i, v in enumerate(trace.v_kmh) if v >= vmax - 1.0)
    oracle = top_speed_oracle(config)
    return TopSpeedReport(
        vmax_kmh=vmax,
        time_to_vmax_s=trace.t_s[settle_idx],
        oracle_vmax_kmh=oracle,
        discrepancy_kmh=vmax - oracle,
        speed_trajectory=tuple(zip(trace.t_s, trace.v_kmh)),
    )


def top_speed_oracle(config: VehicleConfig) -> float:
    """Force-balance top speed [km/h] by bisection.

    Root of eta_t * max_power = v * (RR(v) + WR(v)) / 3600 over speeds up
    to the motor speed ceiling; capped at the ceiling when the resistive
    root lies beyond it.
    """
    b = config.body
    d = config.drivetrain
    mtr = config.motor
    v_cap = mtr.max_speed / motor_rpm_per_kmh(b.wheel_radius, d.gear_ratio)
    wheel_kw = d.transmission_efficiency * mtr.max_power

    def surplus(v_kmh: float) -> float:
        return wheel_kw - v_kmh * (
            rolling_resistance(b, v_kmh) + aero_drag(b, v_kmh)
        ) / 3600.0

    if surplus(v_cap) >= 0.0:
        return v_cap
    lo, hi = 0.0, v_cap
    while hi - lo > _ORACLE_TOLERANCE_KMH:
        mid = 0.5 * (lo + hi)
        if surplus(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def size_motor(config: VehicleConfig, design_speed_kmh: float) -> float:
    """Motor power [kW] to hold a design speed: v * (RR + WR) / 3600."""
    _require_finite("design speed", design_speed_kmh)
    if design_speed_kmh <= 0.0:
        raise ValueError(f"design speed must be > 0 (got {design_speed_kmh})")
    b = config.body
    return design_speed_kmh * (
        rolling_resistance(b, design_speed_kmh) + aero_drag(b, design_speed_kmh)
    ) / 3600.0


def design_speed_for_power(config: VehicleConfig, power_kw: float) -> float:
    """Invert size_motor: the cruising speed [km/h] a power rating sustains."""
    _require_finite("power", power_kw)
    if power_kw <= 0.0:
        raise ValueError(f"power must be > 0 (got {power_kw})")
    hi = 10.0
    while size_motor(config, hi) < power_kw:
        hi *= 2.0
        if hi > 1e5:
            raise ValueError(f"no speed below 1e5 km/h needs {power_kw} kW")
    lo = 0.0
    while hi - lo > _ORACLE_TOLERANCE_KMH:
        mid = 0.5 * (lo + hi)
        if size_motor(config, mid) < power_kw:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
