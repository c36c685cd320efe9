"""Fixed-step closed-loop simulation engine.

Each step executes in a fixed order: target lookup, PI command, actuation
split, wheel/resistive force assembly, acceleration and integration, then
electrical power, current, and battery update. The driver acts on the
previous step's speed and the battery sees this step's motor power (one
step of signal latency, accepted and documented).

Engine-level rules on top of the per-step formulas:

* Standstill: at rest with net driving force at or below the static rolling
  threshold (m*g*f0), nothing moves and all reported forces are zero; above
  it, the vehicle launches against zero resistance for that step
  (resistances activate once v > 0).
* Stop clamp: when braking would reverse the vehicle within a step, the
  friction force (first) and regen torque (second) are scaled down so the
  step ends exactly at rest; regenerated energy reflects the force actually
  applied.
* Regen off is ``regen_efficiency = 0``, and it disables the
  battery-charging path only: the motor still provides the same braking
  torque, but the recovered energy is discarded (counted as drivetrain
  loss). This keeps the mechanical trajectory identical between regen-on
  and regen-off runs, so range comparisons isolate energy recovery.
  Nothing mechanical reads the battery, so the kernel can carry a second,
  zero-efficiency battery lane over the one trajectory: the regen
  comparison runs both legs as one pass, with the driver, split, road
  loads, integration, cycle lookup, tracking error and mechanical ledger
  terms computed once per step.
* Beyond the motor speed ceiling the commanded torque is capped to zero
  rather than raising mid-run.

All per-step physics lives in one private kernel, ``_advance``: the PI
controller, the braking split, the road loads, the force balance and
integration, the motor envelope, the electrical conversion and the battery
update. ``dynamics`` holds only the road-load formulas that the
experiments' force-balance oracles evaluate. The kernel is a generator
whose suspended frame is the carry, and it has one contract. Creating it
fixes what holds for its life (config, cycle, start ``SimState``, repeat,
trace stride; a repeating kernel stops at the config's soc floor, a single
pass has none); ``next()`` primes it, validating the config and yielding
at once with no step run; every chunk of steps then arrives
by ``send((n, pinned_command))``, which yields the end ``SimState``. What
it accumulates (ledger sums, tracking-error maximum, cycle cursor, step
index) stays in the frame between chunks, so a resumed kernel gives the
bits of one unsplit call. ``run`` sends one chunk for a
whole run, from ``initial_state(config)`` (N passes: a repeating kernel's
chunk of N cycle durations); the experiments' acceleration
and top-speed scenarios send chunks at full throttle until they have what
their reports need. ``step`` sends one-step chunks with no trace
collection: handed back the exact state object it last returned, with the
same cycle and config objects, it resumes that kernel; any other state
primes a new one. The last session's kernel waits in one module-level
slot, taken with ``list.pop`` so no two threads resume one kernel, and put
back only after it stepped, so a kernel that raised is dropped. The test
suite composes the same physics from separate component operations and
state types (``tests/step_reference.py``) and checks both entry points
against it bit for bit. Runs are deterministic: identical config, cycle,
and options produce bit-identical traces.

The kernel's loop invariants (config scalars, hoisted products) come from
``_invariants``, which keeps the last config's in one module-level
``(config, invariants)`` slot, compared by identity and read with one
global load: a ``step()`` session passing one config object hoists once,
any other config object recomputes, and no caller, in any thread, pairs a
config with another's values (the slot's reference keeps the id unique).
A miss validates the config first, so ``run`` and ``step`` both raise
``ConfigError`` for an invalid one, at one check per config object.

Editing the kernel or ``_invariants``: every double they produce must stay
bit for bit what the reference computes. A step may hoist a loop-invariant
product only when it is the left-operand prefix of a left-to-right
expression (``m * g`` in ``m * g * (...)``), and may reuse a value only
where the identical subexpression appears again. Never reassociate,
reorder or fuse a floating-point operation.
"""

import enum
import math
from array import array
from bisect import bisect_right
from collections.abc import Generator
from typing import NamedTuple

from .cycle import DriveCycle, _Frozen
from .errors import ConfigError, CycleError, DegenerateVoltageError, EnvelopeError
from .params import RPM_KW_CONSTANT, VehicleConfig, motor_rpm_per_kmh, validate

_J_PER_KWH = 3.6e6


class StopReason(enum.Enum):
    CYCLE_END = "cycle_end"
    SOC_FLOOR = "soc_floor"
    MAX_TIME = "max_time"


class SimState(NamedTuple):
    """Complete instantaneous state of one run, in the kernel's carry order;
    built by ``initial_state`` and edited with ``_replace``."""

    t_s: float
    speed_kmh: float  # >= 0 (no reverse)
    distance_km: float
    integral: float  # PI controller integral [km/h * s]
    soc: float  # in [0, 1]
    terminal_voltage: float  # last step's [V]
    cumulative_energy_out: float  # terminal energy while discharging [kWh]
    cumulative_energy_regen: float  # terminal energy while charging [kWh]
    soc_saturated: bool  # the soc was ever clamped to [0, 1]


class TraceRecord(NamedTuple):
    """One per-step record; field order matches the trace CSV columns."""

    t_s: float
    v_target_kmh: float
    v_kmh: float
    dist_km: float
    cmd: float
    motor_nm: float
    motor_rpm: float
    fric_n: float
    batt_kw: float
    current_a: float
    volt_v: float
    soc: float
    rr_n: float
    wr_n: float
    accel_ms2: float


TRACE_FIELDS = TraceRecord._fields


class SimTrace(_Frozen):
    """Column-major per-step records of a run, one ``array('d')`` per
    TRACE_FIELDS column (buffer-protocol consumers view a column without a
    copy); its length is the row count."""

    __slots__ = TRACE_FIELDS

    def __init__(self, *columns: array, **named: array) -> None:
        # TraceRecord binds the arguments: the same names in the same order.
        for name, column in zip(TRACE_FIELDS, TraceRecord(*columns, **named)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.t_s)

    def record(self, i: int) -> TraceRecord:
        return TraceRecord(*(getattr(self, f)[i] for f in TRACE_FIELDS))


class EnergyLedger(NamedTuple):
    """Energy-conservation accounting for a run, all in kWh.

    ``battery_out`` and ``battery_regen_in`` are measured at the ideal
    source (nominal voltage times current), so the resistive internal loss
    Z*J^2 appears as its own bucket. ``drivetrain_loss`` collects motor and
    transmission conversion losses in both directions, the unrecovered
    regen fraction, and regen energy discarded when charging is disabled.
    ``residual`` is whatever the named buckets fail to explain; a healthy
    run keeps it below 0.5% of battery_out.
    """

    battery_out: float = 0.0
    battery_regen_in: float = 0.0
    kinetic_delta: float = 0.0
    rolling_loss: float = 0.0
    aero_loss: float = 0.0
    friction_brake_loss: float = 0.0
    drivetrain_loss: float = 0.0
    resistive_internal_loss: float = 0.0

    @property
    def residual(self) -> float:
        return self.battery_out - self.battery_regen_in - (
            self.kinetic_delta
            + self.rolling_loss
            + self.aero_loss
            + self.friction_brake_loss
            + self.drivetrain_loss
            + self.resistive_internal_loss
        )


class LedgerCheck(NamedTuple):
    passed: bool
    residual_kwh: float
    residual_fraction: float


class SimSummary(NamedTuple):
    """Aggregate results of one run."""

    duration_s: float
    distance_km: float
    soc_start: float
    soc_end: float
    max_tracking_error_kmh: float
    max_tracking_error_pct: float
    energy_out_kwh: float
    energy_regen_kwh: float
    cycles_completed: int
    stop_reason: StopReason


def initial_state(config: VehicleConfig) -> SimState:
    """At rest at t = 0, with the configured initial SoC at nominal voltage."""
    bat = config.battery
    return SimState(
        0.0, 0.0, 0.0, 0.0, bat.initial_soc, bat.nominal_voltage, 0.0, 0.0, False
    )


# The last step() session's (kernel, state it returned, cycle, config); taken
# with pop(), so no two threads resume one kernel.
_resumable: list = []


def step(
    state: SimState,
    cycle: DriveCycle,
    config: VehicleConfig,
    *,
    pinned_command: float | None = None,
) -> tuple[SimState, TraceRecord]:
    """Advance one fixed step; returns the new state and its trace record.

    Runs ``run``'s kernel for one step from ``state``, which may sit
    anywhere in the cycle (past its end the last target speed holds). The
    returned record carries the post-step time, speed, and target (the pair
    the next command acts on) together with the torques and forces applied
    during the step. Handing back the returned state, with the same cycle
    and config objects, resumes the kernel where it stopped instead of
    starting a new one; the bits are the same either way, and any other
    state (an equal copy too) starts afresh. Regen is the config's
    efficiency, so switching it off is a config swap, which starts afresh.

    Raises:
        ValueError: If ``state.t_s`` is negative, ``config.sim.dt`` is not
            positive, or any state float the kernel reads is not finite.
        EnvelopeError: If the vehicle speed is negative or not finite.
        DegenerateVoltageError: If the terminal voltage is not >= 1 V.
        ConfigError: If the config fails validation.
    """
    try:
        kernel, resumes, resumed_cycle, resumed_config = _resumable.pop()
    except IndexError:
        resumes = None
    if not (resumes is state and resumed_cycle is cycle and resumed_config is config):
        t, v, dist, integ, soc, vterm, out, regen, _ = state
        dt = config.sim.dt
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0 (got {t})")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0 (got {dt})")
        if not 0.0 <= v < math.inf:
            raise EnvelopeError(f"vehicle speed must be finite and >= 0 (got {v})")
        if not 1.0 <= vterm < math.inf:
            raise DegenerateVoltageError(
                f"terminal voltage {vterm} V is not a finite value >= 1 V"
            )
        if not (
            math.isfinite(dist) and math.isfinite(integ) and math.isfinite(soc)
            and math.isfinite(out) and math.isfinite(regen)
        ):
            raise ValueError(f"state floats must be finite (got {state})")
        kernel = _advance(config, cycle, state, False, 0)
        next(kernel)
    end, _, _, _, last = kernel.send((1, pinned_command))
    # Put back only after the kernel stepped: one that raised is dropped.
    _resumable[:] = ((kernel, end, cycle, config),)
    return end, last


def _whole_steps(duration_s: float, dt: float) -> int | None:
    """Step count of a duration when dt divides it (to 1e-6 of a step),
    else None."""
    q = duration_s / dt
    if q == math.inf:
        raise OverflowError(
            f"step count overflowed (duration {duration_s:g} s, step {dt:g} s)"
        )
    r = round(q)
    return int(r) if abs(q - r) < 1e-6 else None


def _steps_for(duration_s: float, dt: float) -> int:
    """Step count covering a duration; exact when dt divides it."""
    steps = _whole_steps(duration_s, dt)
    return int(math.ceil(duration_s / dt)) if steps is None else steps


def _voltage_collapse(vterm: float, t: float) -> DegenerateVoltageError:
    return DegenerateVoltageError(
        f"terminal voltage {vterm:.3f} V below 1 V floor at t = {t:.1f} s"
    )


def _results(
    end: SimState, ledger_j: tuple, dt: float, duration: float
) -> tuple[int, EnergyLedger]:
    """A kernel's end state and ledger sums [J] as results: the whole cycle
    passes completed and the ledger in kWh. A terminal voltage that is not
    >= 1 V raises ``DegenerateVoltageError``, as the next step would."""
    if not end.terminal_voltage >= 1.0:
        raise _voltage_collapse(end.terminal_voltage, end.t_s)
    ledger = EnergyLedger(*(e / _J_PER_KWH for e in ledger_j))
    return _cycles_completed(end.t_s, dt, duration), ledger


def _cycles_completed(t: float, dt: float, duration: float) -> int:
    """Whole passes of a cycle of ``duration`` seconds completed by a run
    from t = 0 that ended at time t. When dt divides the duration, passes
    are counted in steps, ``round(t / dt)``: t adds dt once per step and
    drifts, which over many passes can lose one."""
    pass_steps = _whole_steps(duration, dt)
    if pass_steps:
        return round(t / dt) // pass_steps
    return int((t + dt * 1e-6) / duration)


def run(
    config: VehicleConfig,
    cycle: DriveCycle,
    *,
    regen_enabled: bool = True,
    passes: int | None = 1,
    trace_every: int = 1,
) -> tuple[SimTrace, SimSummary, EnergyLedger]:
    """Run the closed loop from ``initial_state`` until a stop condition.

    ``passes`` N runs the steps of N cycle durations, the cycle wrapping
    in the kernel (None: without end); a repeated run stops early at
    battery.soc_floor, a single pass has no floor, sim.max_sim_time bounds
    every run. Stop priority on one step: soc floor, then cycle end, then
    max time. ``trace_every`` keeps every Nth record (0 disables
    collection; the ledger and summary always run at full rate).
    ``regen_enabled=False`` runs the config with regen_efficiency 0; ROADMAP
    item 14 can drop the keyword with its benchmark callers.

    Raises:
        ConfigError: If the config fails validation.
        CycleError: If a repeated cycle is shorter than one step.
        ValueError: If ``passes`` is below 1 or ``trace_every`` negative.
        DegenerateVoltageError: If the terminal voltage collapses (below
            1 V), the last step included.
    """
    if not regen_enabled:
        _invariants(config)  # the caller's config, validated first
        config = config._replace(
            drivetrain=config.drivetrain._replace(regen_efficiency=0.0)
        )
    repeat = passes != 1
    kernel = _advance(config, cycle, initial_state(config), repeat, trace_every)
    next(kernel)  # validates the config first
    if trace_every < 0:
        raise ValueError(f"trace_every must be >= 0 (got {trace_every})")
    if passes is not None and passes < 1:
        raise ValueError(f"passes must be >= 1 (got {passes})")

    bat = config.battery
    dt = config.sim.dt
    duration = cycle.duration_s
    bound = config.sim.max_sim_time

    time_steps = _steps_for(bound, dt)
    # Clipped to the bound (plus a pass) before it multiplies: never inf.
    cycle_steps = math.inf if passes is None else _steps_for(
        min(passes, bound / duration + 1.0) * duration, dt
    )
    end, cols, ledger_j, max_err, _ = kernel.send(
        (min(cycle_steps, time_steps), None)
    )
    cycles, ledger = _results(end, ledger_j, dt, duration)
    t, _, dist, _, soc, _, energy_out, energy_regen, _ = end
    # The kernel stops early only at the soc floor, which also outranks a
    # step limit reached on the same step.
    if repeat and soc <= bat.soc_floor:
        reason = StopReason.SOC_FLOOR
    elif time_steps < cycle_steps:
        reason = StopReason.MAX_TIME
    else:
        reason = StopReason.CYCLE_END

    if not trace_every:  # the kernel handed out empty tuples
        cols = [array("d") for _ in TRACE_FIELDS]
    trace = SimTrace(*cols)
    cycle_max = max(cycle.speeds_kmh)
    summary = SimSummary(
        duration_s=t,
        distance_km=dist,
        soc_start=bat.initial_soc,
        soc_end=soc,
        max_tracking_error_kmh=max_err,
        max_tracking_error_pct=(
            100.0 * max_err / cycle_max if cycle_max > 0.0 else 0.0
        ),
        energy_out_kwh=energy_out,
        energy_regen_kwh=energy_regen,
        cycles_completed=cycles,
        stop_reason=reason,
    )
    return trace, summary, ledger


_hoisted: tuple = (None, ())  # (config, invariants) of the last config seen


def _invariants(config: VehicleConfig) -> tuple[float, ...]:
    """The kernel's loop invariants for ``config``, in the order ``_advance``
    unpacks them; validated (else ``ConfigError``) and computed once per
    config object (see the module notes)."""
    global _hoisted
    cached_config, cached = _hoisted
    if cached_config is config:
        return cached
    violations = validate(config)
    if violations:
        raise ConfigError("invalid configuration: " + "; ".join(violations))
    body = config.body
    motor = config.motor
    bat = config.battery
    d = config.drivetrain
    # Hoisted scalars; expressions mirror the component ops bit-for-bit.
    m = body.mass
    rw = body.wheel_radius
    gr = d.gear_ratio
    vn = bat.nominal_voltage
    capacity_ah = 1000.0 * bat.capacity_energy / vn
    mg = m * body.gravity
    invariants = (
        config.sim.dt, m, body.f0, body.f1, body.f4, rw, gr,
        d.transmission_efficiency, d.max_friction_brake_force,
        d.regen_efficiency, d.regen_cutoff_speed,
        motor.max_torque, motor.max_speed, motor.efficiency,
        config.driver.kp, config.driver.ki,
        vn, bat.internal_resistance, bat.coulombic_efficiency,
        motor_rpm_per_kmh(rw, gr),
        # Left-operand prefixes of the kernel's per-step expressions.
        mg, body.drag_coefficient * body.frontal_area,
        RPM_KW_CONSTANT * motor.max_power, 3600.0 * capacity_ah, 0.5 * m,
        mg * body.f0,
    )
    _hoisted = (config, invariants)
    return invariants


def _advance(
    config: VehicleConfig,
    cycle: DriveCycle,
    start: SimState,
    repeat: bool,
    trace_every: int,
    off_lane: list | None = None,
) -> Generator[tuple, tuple, None]:
    """The simulation kernel, a generator whose suspended frame is the carry.

    ``next()`` primes it: the config is validated (else ``ConfigError``), a
    repeated cycle shorter than one step is refused (``CycleError``), and
    it yields at once with no step run. Each ``send((n, pinned_command))``
    then runs n more steps under that command (None: the PI driver's), or,
    when ``repeat`` is set, fewer once the soc reaches the config's
    battery.soc_floor, and yields ``(end, cols, ledger_j, max_err, last)``:
    the end ``SimState``; one ``array('d')`` per TRACE_FIELDS column
    holding this chunk's records whose step index (counted from ``start``)
    is a multiple of ``trace_every``, each a strided slice of the one flat
    buffer the chunk's packed records fill (with ``trace_every`` 0, an
    empty tuple per column and no buffer); the ledger buckets in joules, in
    EnergyLedger field order; the largest post-step tracking error [km/h];
    and the last step's ``TraceRecord`` (None while no step has run). The
    ledger sums, ``max_err``, the cycle cursor and wrap count, and the step
    index stay in the frame between chunks, so N steps and then M more give
    the bits of N + M steps.

    ``start`` is a ``SimState``: (t, v, distance, PI integral, soc, terminal
    voltage, energy out, energy regen, soc saturated). t may lie anywhere in
    the cycle, but a repeating run must start within its first pass; a step
    that clamps the soc sets the flag.

    A list ``off_lane`` adds a zero-efficiency battery lane that starts
    from ``start`` and rides on the one trajectory (see the module notes):
    it keeps only its own current, soc, voltage, energy totals and
    battery-side ledger terms. A regen step leaves the main lane's voltage
    higher and its later currents no larger, so the lane reaches the soc
    floor no later than the main lane; it stops after that step.
    ``off_lane`` then holds ``[(end, ledger_j, max_err)]`` as at a yield,
    written when the lane stops and at each yield while it runs, or
    ``[DegenerateVoltageError]`` for the caller to raise once the main lane
    is through, as a regen-off leg run after the regen-on one would.
    """
    (
        dt, m, f0, f1, f4, rw, gr, eta_t, fric_max, eta_regen, cutoff,
        tau_max, n_max, eta_m, kp, ki, vn, z, eta_c,
        rpm_per_kmh, mg, cd_af, kw_rpm, charge_as, half_m, static_rr,
    ) = _invariants(config)
    tuple_new = tuple.__new__  # skips the named tuples' Python-level __new__

    times = cycle.times_s
    speeds = cycle.speeds_kmh
    duration = times[-1]
    v_last = speeds[-1]
    if repeat and duration < dt:
        # Each step would wrap dt / duration times, without bound.
        raise CycleError(
            f"a repeated cycle must last at least one step of {dt:g} s "
            f"(got {duration:g} s)"
        )

    t, v, dist, integ, soc, vterm, cum_out, cum_regen, saturated = start

    # Ledger accumulators [J] and tracking-error maximum.
    e_out = e_regen = e_resist = e_roll = e_aero = e_fric = e_drive = e_kin = 0.0
    max_err = 0.0

    floor = config.battery.soc_floor if repeat else -math.inf  # -inf: no floor

    # The zero-efficiency lane's battery state and ledger terms; lane_limit
    # holds the step limit while the lane's floor stop borrows it.
    lane = off_lane is not None
    lane_limit = None
    soc_o, vterm_o, out_o, regen_o, sat_o = soc, vterm, cum_out, cum_regen, saturated
    e_out_o = e_drive_o = e_resist_o = 0.0

    # Each kept step appends its packed record to one flat buffer (packing
    # converts the 15 floats at a third of array.extend's cost); each yield
    # hands out the buffer's strided columns and empties it. Without
    # collection every yield hands out these empty columns, and nothing is
    # allocated or imported.
    collect = trace_every > 0
    width = len(TRACE_FIELDS)
    cols = [()] * width
    if collect:
        from struct import Struct

        rows = array("d")
        record = rows.frombytes
        pack = Struct(f"{width}d").pack

    # Cycle cursor: placed by bisection at the start time, then forward
    # only. It caches its segment (t0, t1, v0, rise, span) and reloads it when
    # the query time reaches t1 or the cycle wraps; the interpolation must
    # match target_speed in tests/step_reference.py bit for bit.
    wraps = 0
    cur_i = bisect_right(times, t) - 1
    if t >= duration:
        target = v_last
    else:
        t0 = times[cur_i]
        t1 = times[cur_i + 1]
        v0 = speeds[cur_i]
        rise = speeds[cur_i + 1] - v0
        span = t1 - t0
        target = v0 + rise * ((t - t0) / span)

    # ``while True`` on purpose: CPython 3.11 warms a function up for
    # specialisation on a loop's unconditional backward jump, so a loop
    # condition here leaves the kernel unspecialised for a process's first
    # calls. The chunk boundary is a branch inside the loop, so a resumed
    # kernel keeps taking that jump too. The first loop top is the priming
    # yield.
    k = step_limit = 0
    try:
        while True:
            if k >= step_limit or soc <= floor:
                if lane or lane_limit is not None:
                    off_lane[:] = ((
                        tuple_new(SimState, (
                            t, v, dist, integ, soc_o, vterm_o, out_o, regen_o, sat_o
                        )),
                        (e_out_o, 0.0, e_kin, e_roll, e_aero, e_fric, e_drive_o,
                         e_resist_o),
                        max_err,
                    ),)
                    if lane_limit is not None:  # the lane reached its floor
                        step_limit, lane_limit = lane_limit, None
                        continue
                if collect:
                    cols = [rows[i::width] for i in range(width)]
                    del rows[:]
                n, pinned_command = yield (
                    tuple_new(SimState, (
                        t, v, dist, integ, soc, vterm, cum_out, cum_regen, saturated
                    )),
                    cols,
                    (e_out, e_regen, e_kin, e_roll, e_aero, e_fric, e_drive, e_resist),
                    max_err,
                    tuple_new(TraceRecord, (
                        t, target, v, dist, cmd, tau_signed, rpm, f_fric,
                        p_batt, current, vterm, soc, rr, wr, a,
                    )) if k else None,
                )
                step_limit = k + n
                continue

            # --- driver ---
            if pinned_command is None:
                dv = target - v
                candidate = integ + dv * dt
                raw = kp * dv + ki * candidate
                if raw > 1.0:
                    cmd = 1.0
                    if dv <= 0.0:
                        integ = candidate
                elif raw < -1.0:
                    cmd = -1.0
                    if dv >= 0.0:
                        integ = candidate
                else:
                    cmd = raw
                    integ = candidate
            else:
                cmd = pinned_command

            # --- actuation split ---
            rpm = rpm_per_kmh * v
            if rpm > n_max:
                avail = 0.0
            elif rpm == 0.0:
                avail = tau_max
            else:
                q = kw_rpm / rpm
                avail = q if q < tau_max else tau_max
            if cmd >= 0.0:
                tau_p = cmd * avail
                tau_r = 0.0
                f_regen = 0.0
                f_fric = 0.0
            else:
                tau_p = 0.0
                if v > cutoff:
                    cap_wheel = avail * gr / (eta_t * rw)
                else:
                    cap_wheel = 0.0
                demand = -cmd * (fric_max + cap_wheel)
                f_alloc = demand if demand <= cap_wheel else cap_wheel
                remainder = demand - f_alloc
                f_fric = remainder if remainder <= fric_max else fric_max
                tau_r = f_alloc * eta_t * rw / gr
                f_regen = tau_r * gr / eta_t / rw

            f_p = tau_p * gr * eta_t / rw

            # --- road loads, acceleration, integration ---
            v_ms = v / 3.6
            if v > 0.0:
                x = v / 100.0
                rr = mg * (f0 + f1 * x + f4 * x**4)
                wr = cd_af * v * v / 21.15
                a = (f_p - f_regen - f_fric - rr - wr) / m
                v2 = v + a * dt * 3.6
                if v2 < 0.0:
                    brake_needed = m * v_ms / dt - rr - wr
                    if brake_needed <= 0.0:
                        f_regen = 0.0
                        f_fric = 0.0
                        tau_r = 0.0
                    elif brake_needed <= f_regen:
                        tau_r = brake_needed * eta_t * rw / gr
                        f_regen = tau_r * gr / eta_t / rw
                        f_fric = 0.0
                    else:
                        f_fric = brake_needed - f_regen
                    a = -v_ms / dt
                    v2 = v + a * dt * 3.6
            else:
                rr = 0.0
                wr = 0.0
                f_regen = 0.0
                f_fric = 0.0
                tau_r = 0.0
                if f_p > static_rr:
                    a = f_p / m
                else:
                    f_p = 0.0
                    a = 0.0
                v2 = v + a * dt * 3.6
            if v2 < 0.0:
                v2 = 0.0
            v2_ms = v2 / 3.6
            dist = dist + v2_ms * dt / 1000.0

            # --- electrical and battery ---
            if tau_p > 0.0:
                tau_signed = tau_p
                p_elec = tau_signed * rpm / RPM_KW_CONSTANT / eta_m
                p_batt = p_elec
            elif tau_r > 0.0:
                tau_signed = -tau_r
                p_elec = tau_signed * rpm / RPM_KW_CONSTANT * eta_m
                p_batt = p_elec * eta_regen + 0.0
            else:
                tau_signed = 0.0
                p_elec = 0.0
                p_batt = 0.0
            if vterm < 1.0:
                raise _voltage_collapse(vterm, t)
            current = 1000.0 * p_batt / vterm + 0.0
            d_soc = eta_c * current * dt / charge_as
            soc = soc - d_soc
            if soc > 1.0:
                soc = 1.0
                saturated = True
            elif soc < 0.0:
                soc = 0.0
                saturated = True
            vterm = vn - z * current
            e_term_j = vterm * current * dt
            e_term_kwh = e_term_j / 3.6e6
            if current >= 0.0:
                cum_out += e_term_kwh
            else:
                cum_regen += -e_term_kwh

            # --- ledger (storage-side battery energy; midpoint displacement) ---
            s_mid = (v_ms + v2_ms) * 0.5 * dt
            if current > 0.0:
                out_j = vn * current * dt
                e_out += out_j
            elif current < 0.0:
                e_regen += -vn * current * dt
            # Terminal electrical net minus wheel net work; covers propulsion
            # losses, regen losses, and discarded regen when charging is off.
            wheel_j = (f_p - f_regen) * s_mid
            drive_j = e_term_j - wheel_j
            e_drive += drive_j
            resist_j = z * current * current * dt
            e_resist += resist_j
            e_roll += rr * s_mid
            e_aero += wr * s_mid
            e_fric += f_fric * s_mid
            e_kin += half_m * (v2_ms * v2_ms - v_ms * v_ms)

            # --- zero-efficiency lane: its battery and battery-side ledger ---
            # It draws only when motoring, so its soc only falls and its regen
            # totals stay put. Adding or skipping a zero term gives the same
            # bits, so a step that draws nothing only resets the voltage and
            # moves the drivetrain term.
            if lane:
                if vterm_o < 1.0:
                    lane = False
                    off_lane[:] = (_voltage_collapse(vterm_o, t),)
                elif tau_p > 0.0:
                    cur_o = 1000.0 * p_batt / vterm_o + 0.0
                    if cur_o == current and cur_o > 0.0:
                        # Same current, same terms: the lanes' voltages have
                        # met again since the last regen step (most steps).
                        soc_o = soc_o - d_soc
                        vterm_o = vterm
                        out_o += e_term_kwh
                        e_out_o += out_j
                        e_drive_o += drive_j
                        e_resist_o += resist_j
                    else:
                        soc_o = soc_o - eta_c * cur_o * dt / charge_as
                        vterm_o = vn - z * cur_o
                        e_term_j = vterm_o * cur_o * dt
                        out_o += e_term_j / 3.6e6
                        e_out_o += vn * cur_o * dt
                        e_drive_o += e_term_j - wheel_j
                        e_resist_o += z * cur_o * cur_o * dt
                    if soc_o < 0.0:
                        soc_o = 0.0
                        sat_o = True
                    if soc_o <= floor:
                        # Stop the lane at the next loop top, after this step.
                        lane = False
                        step_limit, lane_limit = k + 1, step_limit
                else:
                    vterm_o = vn
                    e_drive_o -= wheel_j

            # --- advance time, look up next target, record ---
            t = t + dt
            if repeat:
                tq = t - wraps * duration
                while tq >= duration:
                    wraps += 1
                    cur_i = 0
                    t1 = 0.0  # reload the segment from the first knot
                    tq = t - wraps * duration
            else:
                tq = t
            if tq >= duration:
                target = v_last
            else:
                if tq >= t1:
                    while times[cur_i + 1] <= tq:
                        cur_i += 1
                    t0 = times[cur_i]
                    t1 = times[cur_i + 1]
                    v0 = speeds[cur_i]
                    rise = speeds[cur_i + 1] - v0
                    span = t1 - t0
                target = v0 + rise * ((tq - t0) / span)

            err = target - v2
            if err < 0.0:
                err = -err
            if err > max_err:
                max_err = err

            if collect and k % trace_every == 0:
                record(pack(
                    t, target, v2, dist, cmd, tau_signed, rpm, f_fric,
                    p_batt, current, vterm, soc, rr, wr, a,
                ))

            v = v2
            k += 1
    except OverflowError:  # only x**4 raises on overflow; the rest turn inf
        raise OverflowError(
            f"rolling resistance overflowed at t = {t:g} s (speed {v:g} km/h)"
        ) from None


def ledger_check(ledger: EnergyLedger) -> LedgerCheck:
    """Pass iff the residual is within 0.5% of battery_out (1e-6 kWh
    absolute when essentially no energy moved)."""
    residual = ledger.residual
    if ledger.battery_out > 1e-9:
        fraction = abs(residual) / ledger.battery_out
        passed = fraction <= 0.005
    else:
        passed = abs(residual) <= 1e-6
        fraction = 0.0 if passed else math.inf
    return LedgerCheck(passed=passed, residual_kwh=residual, residual_fraction=fraction)
