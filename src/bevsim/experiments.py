"""Scripted evaluation scenarios with independent oracles.

Range, acceleration, and top-speed scenarios drive the engine; each
performance scenario is paired with an oracle that never touches the
engine (bisection of the full-throttle force balance for top speed,
quadrature of the acceleration-time integral over that same net force for
acceleration), so wiring bugs cannot cancel out, and neither oracle shares
the engine's fixed-step time integration.

The regen comparison runs both depletion legs as one kernel pass in this
process, a zero-efficiency battery lane beside the regen-on one, since
both follow one trajectory. It accepts and ignores ``parallel``, which
``perfbench/workloads.py`` passes. ``perfbench/tracer.py`` swaps the
``ProcessPoolExecutor`` name, so the module still resolves it, but only
on first access (see ``__getattr__``): importing the package never loads
``concurrent.futures`` or ``multiprocessing``.

Acceleration and top-speed runs pin the command at 1 instead of using the
PI driver, so the results reflect the powertrain rather than controller
tuning. Crossing times are linearly interpolated between steps to
de-quantize the fixed step. Both drive the engine's kernel in chunks:
acceleration runs one kernel on until the crossing, and top speed keeps
only what its report needs, so its memory does not grow with the duration.

The module also records the published reference figures this vehicle
parameter set is usually quoted with (regen range gain of 23/25/25.5%,
9.5 s to 100 km/h, roughly 190 km/h top speed). Those figures are not
reproducible from the parameter set itself; scenarios report the measured
value next to the reference instead of asserting it. See the README.
"""

import math
from bisect import bisect_left
from collections.abc import Callable, Generator, Sequence
from itertools import accumulate
from typing import NamedTuple

from .cycle import DriveCycle
from .dynamics import aero_drag, rolling_resistance
from .engine import (
    EnergyLedger,
    SimSummary,
    SimTrace,
    _advance,
    _results,
    _steps_for,
    initial_state,
    run,
)
from .errors import UnreachableTargetError
from .params import _DOMAINS, RPM_KW_CONSTANT, VehicleConfig, motor_rpm_per_kmh

# Published reference figures for this parameter set (not derivable from it).
REFERENCE_REGEN_GAIN_PERCENTS = (23.0, 25.0, 25.5)
REFERENCE_ACCEL_TIME_S = 9.5
REFERENCE_TOP_SPEED_KMH = 190.0

_ORACLE_TOLERANCE_KMH = 0.01
_FULL_THROTTLE_TIME_CAP_S = 600.0
_FIRST_ACCEL_HORIZON_S = 32.0
_SIMPSON_INTERVALS = 400  # even; per side of the torque/power corner
_TOP_SPEED_CHUNK_STEPS = 4096  # a chunk: 0.5 MB of buffer plus 0.5 MB of columns
_MAX_DESIGN_SPEED_KMH = 1e5  # the bound of size_motor and its inverse
# Plots draw at most this many points of a trajectory, thinned by a stride.
_MAX_PLOT_POINTS = 4000


def __getattr__(name: str):
    # Only perfbench/tracer.py reads this name, to swap it; importing it
    # eagerly loaded multiprocessing into every process. This goes when
    # ROADMAP item 14 drops the tracer's swap.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RangeReport(NamedTuple):
    """Outcome of a repeated-cycle depletion run."""

    distance_km: float
    cycles_completed: int
    soc_start: float
    soc_end: float
    energy_out_kwh: float
    energy_regen_kwh: float
    regen_enabled: bool  # the leg ran with a regen efficiency above 0


class RegenComparisonReport(NamedTuple):
    """Regen-on vs regen-off depletion runs and the resulting range gain."""

    regen_on: RangeReport
    regen_off: RangeReport
    gain_fraction: float
    reference_gain_percents: tuple[float, ...] = REFERENCE_REGEN_GAIN_PERCENTS

    @property
    def gain_percent(self) -> float:
        return 100.0 * self.gain_fraction


class AccelReport(NamedTuple):
    """Full-throttle time to a target speed."""

    time_to_target_s: float
    target_kmh: float
    speed_trajectory: tuple[tuple[float, float], ...]


class TopSpeedReport(NamedTuple):
    """Full-throttle settled top speed against the force-balance oracle;
    the trajectory is thinned as the plots thin it (see top_speed_test)."""

    vmax_kmh: float
    time_to_vmax_s: float
    oracle_vmax_kmh: float
    discrepancy_kmh: float
    speed_trajectory: tuple[tuple[float, float], ...]


def _full_throttle_cycle() -> DriveCycle:
    # Placeholder schedule; the command is pinned so targets are unused.
    return DriveCycle("full-throttle", (0.0, 1.0), (0.0, 0.0))


def _require(name: str, value: float, rule: str | None = None) -> None:
    """Raise ValueError unless ``value`` is finite and, given a ``rule``
    (a config domain such as ``">= 0"``), inside it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite (got {value})")
    if rule is not None and not _DOMAINS[rule](value):
        raise ValueError(f"{name} must be {rule} (got {value})")


def _full_throttle(config: VehicleConfig) -> Generator:
    """A primed kernel at rest (config validated, no step run) under the
    pinned full-throttle command, collecting every step: each
    ``send((n, 1.0))`` runs n more steps and yields their columns. Its
    cycle is a single pass with no soc floor; past the cycle's end the
    target holds at its last speed, 0.0, as when it repeats."""
    kernel = _advance(config, _full_throttle_cycle(), initial_state(config), False, 1)
    next(kernel)
    return kernel


def _plot_stride(n: int) -> int:
    """Every how many points a trajectory of n is drawn (1 up to the cap)."""
    return 1 if n <= _MAX_PLOT_POINTS else math.ceil(n / _MAX_PLOT_POINTS)


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
    trace_every: int = 0,
) -> tuple[RangeReport, SimTrace, SimSummary, EnergyLedger]:
    """Repeat the cycle until battery.soc_floor; also return
    trace/summary/ledger."""
    trace, summary, ledger = run(
        config, cycle, regen_enabled=regen_enabled, passes=None, trace_every=trace_every
    )
    report = RangeReport(
        distance_km=summary.distance_km,
        cycles_completed=summary.cycles_completed,
        soc_start=summary.soc_start,
        soc_end=summary.soc_end,
        energy_out_kwh=summary.energy_out_kwh,
        energy_regen_kwh=summary.energy_regen_kwh,
        regen_enabled=regen_enabled and config.drivetrain.regen_efficiency > 0,
    )
    return report, trace, summary, ledger


def _regen_lanes(
    config: VehicleConfig, cycle: DriveCycle
) -> tuple[tuple[RangeReport, EnergyLedger], tuple[RangeReport, EnergyLedger]]:
    """``range_test_detailed``'s report and ledger with regen on and with it
    off, bit for bit, from one kernel pass carrying a zero-efficiency
    battery lane beside the main one; its errors are those of the two legs
    run in that order."""
    dt = config.sim.dt
    off_lane: list = []
    kernel = _advance(config, cycle, initial_state(config), True, 0, off_lane)
    next(kernel)
    end, _, ledger_j, max_err, _ = kernel.send(
        (_steps_for(config.sim.max_sim_time, dt), None)
    )
    soc0 = config.battery.initial_soc
    legs = []
    on = config.drivetrain.regen_efficiency > 0
    for regen, lane in ((on, (end, ledger_j, max_err)), (False, off_lane[0])):
        if isinstance(lane, Exception):
            raise lane
        end, ledger_j, _ = lane
        cycles, ledger = _results(end, ledger_j, dt, cycle.duration_s)
        _, _, dist, _, soc, _, out, regen_kwh, _ = end
        report = RangeReport(dist, cycles, soc0, soc, out, regen_kwh, regen)
        legs.append((report, ledger))
    return legs[0], legs[1]


def _compare_legs(
    config: VehicleConfig, cycle: DriveCycle
) -> tuple[RegenComparisonReport, tuple[EnergyLedger, EnergyLedger]]:
    """``regen_comparison``'s report with the two legs' ledgers (regen on,
    then off), from the one pass of ``_regen_lanes``."""
    (on, on_ledger), (off, off_ledger) = _regen_lanes(config, cycle)
    if off.distance_km == 0.0:
        raise ValueError(
            f"the regen-off leg covered no distance (soc_end {off.soc_end:g}), "
            "so the range gain is undefined"
        )
    gain = on.distance_km / off.distance_km - 1.0
    report = RegenComparisonReport(regen_on=on, regen_off=off, gain_fraction=gain)
    return report, (on_ledger, off_ledger)


def regen_comparison(
    config: VehicleConfig, cycle: DriveCycle, parallel: bool = False
) -> RegenComparisonReport:
    """Run the depletion test, to battery.soc_floor, with and without
    energy recovery.

    Recovery off is regen_efficiency 0, which disables the charging path
    only (braking behavior is identical in both legs), so the gain
    isolates the recovered energy, and both legs follow one trajectory:
    they run as one pass in this process, a zero-efficiency battery lane
    beside the regen-on one, and each report equals
    ``range_test_detailed``'s bit for bit. ``parallel`` is accepted and
    ignored; only ``perfbench/workloads.py`` still passes it.

    Raises:
        ValueError: If the regen-off leg covers no distance, which leaves
            the gain undefined.
    """
    return _compare_legs(config, cycle)[0]


def accel_test(config: VehicleConfig, target_kmh: float = 100.0) -> AccelReport:
    """Full-throttle time from rest to a target speed.

    Raises:
        ValueError: If the target is negative or not finite.
        UnreachableTargetError: If the force balance caps the top speed
            below the target (checked against the oracle up front).
    """
    _require("target", target_kmh, ">= 0")
    if target_kmh == 0.0:
        return AccelReport(0.0, 0.0, ((0.0, 0.0),))
    vmax = top_speed_oracle(config)
    if target_kmh >= vmax:
        raise UnreachableTargetError(
            f"target {target_kmh:g} km/h is not below the force-balance "
            f"top speed {vmax:.1f} km/h"
        )
    # One kernel runs on from rest, its horizon doubling up to the cap (or
    # sim.max_sim_time, when shorter), until it holds the crossing; by the
    # chunk property these are the bits of a single run to that horizon.
    kernel = _full_throttle(config)
    dt = config.sim.dt
    cap = min(_FULL_THROTTLE_TIME_CAP_S, config.sim.max_sim_time)
    horizon = min(_FIRST_ACCEL_HORIZON_S, cap)
    t_s: list[float] = []
    v_kmh: list[float] = []
    while True:
        cols = kernel.send((_steps_for(horizon, dt) - len(t_s), 1.0))[1]
        t_s += cols[0]
        v_kmh += cols[2]
        t_cross, idx = _crossing_time(t_s, v_kmh, target_kmh)
        if t_cross is not None or horizon >= cap:
            break
        horizon = min(2.0 * horizon, cap)
    if t_cross is None:
        raise UnreachableTargetError(
            f"{target_kmh:g} km/h not reached within {cap:g} s"
        )
    trajectory = tuple(zip(t_s[: idx + 1], v_kmh[: idx + 1]))
    return AccelReport(
        time_to_target_s=t_cross,
        target_kmh=target_kmh,
        speed_trajectory=trajectory,
    )


def accel_time_oracle(config: VehicleConfig, target_kmh: float) -> float:
    """Reference 0-to-target time [s] by quadrature over speed.

    The acceleration-time integral t = integral of m dv / (3.6 F_net(v))
    from rest to the target (Ehsani et al., Modern Electric, Hybrid
    Electric, and Fuel Cell Vehicles, ch. 2), by composite Simpson on each
    side of the torque/power corner speed, where F_net has a kink. F_net
    is the full-throttle envelope torque at the wheel (gr * eta_t / r_w)
    minus rolling and aero resistance. No engine is involved, and the
    method differs from the engine's fixed-step time integration.

    Raises:
        ValueError: If the target is negative or not finite.
        UnreachableTargetError: If F_net is not positive up to the target,
            or the time exceeds the full-throttle time cap.
    """
    _require("target", target_kmh, ">= 0")
    if target_kmh == 0.0:
        return 0.0
    net_force, _, corner = _net_force(config)
    mass = config.body.mass

    def seconds_per_kmh(v: float) -> float:
        net = net_force(v)
        if net <= 0.0:
            raise UnreachableTargetError(
                f"oracle: {target_kmh:g} km/h not reachable: net force "
                f"{net:.1f} N at {v:.1f} km/h"
            )
        return mass / (3.6 * net)

    if corner < target_kmh:
        t = _simpson(seconds_per_kmh, 0.0, corner)
        t += _simpson(seconds_per_kmh, corner, target_kmh)
    else:
        t = _simpson(seconds_per_kmh, 0.0, target_kmh)
    if t > _FULL_THROTTLE_TIME_CAP_S:
        raise UnreachableTargetError(
            f"oracle: {target_kmh:g} km/h not reached within "
            f"{_FULL_THROTTLE_TIME_CAP_S:g} s"
        )
    return t


def _net_force(
    config: VehicleConfig,
) -> tuple[Callable[[float], float], float, float]:
    """F_net(v) [N] at v [km/h], with the motor speed ceiling and the
    torque/power corner [km/h]. F_net is the full-throttle envelope torque
    at the wheel (gr * eta_t / r_w; zero above the ceiling) minus rolling
    and aero resistance, and falls as the speed rises."""
    b = config.body
    mtr = config.motor
    d = config.drivetrain
    rpm_per = motor_rpm_per_kmh(b.wheel_radius, d.gear_ratio)
    v_cap = mtr.max_speed / rpm_per
    force_per_nm = d.gear_ratio * d.transmission_efficiency / b.wheel_radius
    kw_rpm = RPM_KW_CONSTANT * mtr.max_power

    def net_force(v: float) -> float:
        rpm = rpm_per * v
        if v > v_cap:
            tau = 0.0
        elif rpm > 0.0:
            tau = min(mtr.max_torque, kw_rpm / rpm)
        else:
            tau = mtr.max_torque
        try:
            rr = rolling_resistance(b, v)
        except OverflowError:  # only its x**4 raises; the rest turn inf
            raise OverflowError(
                f"rolling resistance overflowed (speed {v:g} km/h)"
            ) from None
        return tau * force_per_nm - rr - aero_drag(b, v)

    return net_force, v_cap, kw_rpm / mtr.max_torque / rpm_per


def _simpson(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Composite Simpson's rule for f over [lo, hi]: 400 intervals, doubled
    (up to 64 times as many) while the rule on half as many differs by
    more than 1e-6 relative. Close below the top speed, 1 / F_net rises
    too steeply for 400."""
    n = _SIMPSON_INTERVALS
    while True:
        h = (hi - lo) / n
        odd = sum(f(lo + i * h) for i in range(1, n, 2))
        evens = [f(lo + i * h) for i in range(2, n, 2)]
        ends = f(lo) + f(hi)
        total = (ends + 4.0 * odd + 2.0 * sum(evens)) * h / 3.0
        half = (ends + 4.0 * sum(evens[::2]) + 2.0 * sum(evens[1::2])) * h * 2.0 / 3.0
        if abs(total - half) <= 1e-6 * total or n >= 64 * _SIMPSON_INTERVALS:
            return total
        n *= 2


def top_speed_test(config: VehicleConfig, duration: float = 120.0) -> TopSpeedReport:
    """Full-throttle settled speed over ``duration`` (at most
    sim.max_sim_time), compared against the force-balance root.

    The settled speed is the run's maximum, reached at the first step
    within 1 km/h of it. The kernel runs in chunks, and only three things
    are kept, so memory does not grow with the duration: the running
    maximum; the strict running-maximum records within 1 km/h of it (the
    first step at or above the final maximum less 1 km/h is one of them);
    and the trajectory thinned with the plots' stride: every step of a run
    of at most 4000 steps, and every ceil(n / 4000)-th step of a longer
    one, starting with the first.

    Raises:
        ValueError: If ``duration`` is not finite or too short for a step.
    """
    kernel = _full_throttle(config)
    _require("duration", duration)
    dt = config.sim.dt
    steps = min(_steps_for(duration, dt), _steps_for(config.sim.max_sim_time, dt))
    if steps <= 0:
        raise ValueError("duration too short for a single step")
    stride = _plot_stride(steps)
    trajectory: list[tuple[float, float]] = []
    vmax = -math.inf
    record_v: list[float] = []  # ascending, as are their times
    record_t: list[float] = []
    done = 0
    while done < steps:
        n = min(steps - done, _TOP_SPEED_CHUNK_STEPS)
        cols = kernel.send((n, 1.0))[1]
        t_s, v_kmh = cols[0], cols[2]
        first = -done % stride
        trajectory += zip(t_s[first::stride], v_kmh[first::stride])
        done += len(v_kmh)
        top = max(v_kmh)
        if top <= vmax:
            continue
        floor = top - 1.0
        keep = bisect_left(record_v, floor)
        del record_v[:keep], record_t[:keep]
        # peaks[i] is the maximum before step i, so step i is a record when
        # it exceeds peaks[i]; no step before the one that lifts the maximum
        # to the floor can be a record at or above it.
        peaks = list(accumulate(v_kmh, max, initial=vmax))
        for i in range(bisect_left(peaks, floor, 1) - 1, len(v_kmh)):
            if v_kmh[i] > peaks[i]:
                record_v.append(v_kmh[i])
                record_t.append(t_s[i])
        vmax = top
    oracle = top_speed_oracle(config)
    return TopSpeedReport(
        vmax_kmh=vmax,
        time_to_vmax_s=record_t[bisect_left(record_v, vmax - 1.0)],
        oracle_vmax_kmh=oracle,
        discrepancy_kmh=vmax - oracle,
        speed_trajectory=tuple(trajectory),
    )


def top_speed_oracle(config: VehicleConfig) -> float:
    """Force-balance top speed [km/h] by bisection.

    Root of the full-throttle net force that ``accel_time_oracle``
    integrates (torque- or power-limited), over speeds up to the motor
    speed ceiling; capped at the ceiling when the root lies beyond it.

    Raises:
        ValueError: If the ceiling is no finite vehicle speed, which leaves
            nothing to bisect.
    """
    net_force, v_cap, _ = _net_force(config)
    if v_cap == math.inf:
        raise ValueError(
            "the motor speed ceiling is no finite vehicle speed "
            "(gear ratio too small for the wheel radius)"
        )
    if net_force(v_cap) >= 0.0:
        return v_cap
    return _bisect(lambda v: net_force(v) >= 0.0, 0.0, v_cap)


def _bisect(below: Callable[[float], bool], lo: float, hi: float) -> float:
    """The speed [km/h] where ``below`` turns false on [lo, hi], to within
    the oracle tolerance: the midpoint of the last bracket."""
    while hi - lo > _ORACLE_TOLERANCE_KMH:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def size_motor(config: VehicleConfig, design_speed_kmh: float) -> float:
    """Motor power [kW] to hold a design speed: v * (RR + WR) / 3600."""
    _require("design speed", design_speed_kmh, "> 0")
    if design_speed_kmh > _MAX_DESIGN_SPEED_KMH:
        raise ValueError(
            f"design speed must be <= {_MAX_DESIGN_SPEED_KMH:g} km/h "
            f"(got {design_speed_kmh:g})"
        )
    b = config.body
    return design_speed_kmh * (
        rolling_resistance(b, design_speed_kmh) + aero_drag(b, design_speed_kmh)
    ) / 3600.0


def design_speed_for_power(config: VehicleConfig, power_kw: float) -> float:
    """Invert size_motor: the cruising speed [km/h] a power rating sustains."""
    _require("power", power_kw, "> 0")
    hi = 10.0
    while size_motor(config, hi) < power_kw:
        hi *= 2.0
        if hi > _MAX_DESIGN_SPEED_KMH:
            raise ValueError(
                f"no speed below {_MAX_DESIGN_SPEED_KMH:g} km/h needs {power_kw} kW"
            )
    return _bisect(lambda v: size_motor(config, v) < power_kw, 0.0, hi)
