import math
import random
import subprocess
import sys
from array import array

import numpy as np
import pytest

from step_reference import euler_accel_time, soc_dynamics_report

from bevsim import (
    ConfigError,
    DegenerateVoltageError,
    DriveCycle,
    UnreachableTargetError,
    accel_test,
    accel_time_oracle,
    design_speed_for_power,
    regen_comparison,
    run,
    size_motor,
    synth_trapezoid,
    top_speed_oracle,
    top_speed_test,
)
from bevsim.engine import initial_state, step
from bevsim.experiments import (
    _FIRST_ACCEL_HORIZON_S,
    _FULL_THROTTLE_TIME_CAP_S,
    _MAX_PLOT_POINTS,
    _TOP_SPEED_CHUNK_STEPS,
    AccelReport,
    _crossing_time,
    _full_throttle_cycle,
    _regen_lanes,
    range_test_detailed,
)
from bevsim.params import (
    RPM_KW_CONSTANT,
    default_config,
    motor_rpm_per_kmh,
    validate,
    with_overrides,
)


def test_top_speed_oracle_default(config):
    assert top_speed_oracle(config) == pytest.approx(171.8, abs=0.5)


def test_top_speed_oracle_caps_at_motor_ceiling(config):
    frictionless = with_overrides(
        config,
        body={"drag_coefficient": 1e-9, "f0": 0.0},
    )
    from bevsim.params import motor_rpm_per_kmh

    cap = config.motor.max_speed / motor_rpm_per_kmh(
        config.body.wheel_radius, config.drivetrain.gear_ratio
    )
    assert top_speed_oracle(frictionless) == pytest.approx(cap, rel=1e-9)


def test_top_speed_oracle_monotone_in_drag(config):
    draggy = with_overrides(config, body={"drag_coefficient": 0.84})
    assert top_speed_oracle(draggy) < top_speed_oracle(config)
    assert top_speed_oracle(with_overrides(config, body={"drag_coefficient": 5.0})) < 80.0


def test_top_speed_test_agrees_with_oracle(config):
    report = top_speed_test(config)
    assert abs(report.discrepancy_kmh) <= 2.0
    assert report.vmax_kmh == pytest.approx(report.oracle_vmax_kmh, abs=2.0)
    assert 0.0 < report.time_to_vmax_s <= 120.0


def test_top_speed_monotone_in_power_and_drag(config):
    base = top_speed_test(config).vmax_kmh
    strong = with_overrides(config, motor={"max_power": 150.0})
    assert top_speed_test(strong).vmax_kmh > base
    draggy = with_overrides(config, body={"drag_coefficient": 0.84})
    assert top_speed_test(draggy).vmax_kmh < base


def _random_config(rng: random.Random):
    while True:
        # The peaks are drawn as multiples of a consistent continuous rating
        # (speed, power, torque), which the model itself does not read.
        base_speed = rng.uniform(2200.0, 5000.0)
        max_speed = base_speed * rng.uniform(2.0, 2.8)
        max_power = rng.uniform(50.0, 150.0)
        base_power = max_power / rng.uniform(2.0, 3.0)
        base_torque = RPM_KW_CONSTANT * base_power / base_speed
        max_torque = base_torque * rng.uniform(1.6, 2.5)
        cfg = with_overrides(
            default_config(),
            body={
                "mass": rng.uniform(950.0, 2300.0),
                "drag_coefficient": rng.uniform(0.25, 0.45),
                "frontal_area": rng.uniform(1.6, 2.6),
                "f0": rng.uniform(0.008, 0.022),
                "wheel_radius": rng.uniform(0.26, 0.34),
            },
            motor={
                "max_speed": max_speed,
                "max_power": max_power,
                "max_torque": max_torque,
            },
            drivetrain={
                "gear_ratio": rng.uniform(3.5, 7.0),
                "transmission_efficiency": rng.uniform(0.86, 0.97),
            },
        )
        assert validate(cfg) == []
        if top_speed_oracle(cfg) > 112.0:
            return cfg


def test_top_speed_oracle_agreement_over_random_configs():
    rng = random.Random(20240811)
    for _ in range(10):
        cfg = _random_config(rng)
        report = top_speed_test(cfg)
        assert abs(report.discrepancy_kmh) <= 2.0, cfg


def test_top_speed_oracle_sees_the_torque_cap():
    # The ninth rng-42 config has its torque/power corner far above its
    # top speed, so it is torque-limited there; a power-only balance put
    # the oracle at 222.75 km/h against the engine's 201.00.
    rng = random.Random(42)
    cfg = [_random_config(rng) for _ in range(9)][-1]
    rpm_per = motor_rpm_per_kmh(cfg.body.wheel_radius, cfg.drivetrain.gear_ratio)
    corner = RPM_KW_CONSTANT * cfg.motor.max_power / cfg.motor.max_torque / rpm_per
    assert corner > 260.0
    report = top_speed_test(cfg, 400.0)
    assert report.vmax_kmh == pytest.approx(201.0, abs=0.1)
    assert abs(report.discrepancy_kmh) <= 2.0
    # A target above the real top speed is refused before any run.
    with pytest.raises(UnreachableTargetError, match="force-balance top speed"):
        accel_test(cfg, 210.0)


def _time_or_unreachable(fn, cfg, target):
    try:
        return fn(cfg, target)
    except UnreachableTargetError:
        return None


def test_accel_time_oracle_agrees_with_euler_reference_over_random_configs():
    # Quadrature over speed against fine-step time integration, from
    # 50 km/h up to 1 km/h below the force-balance top speed; a target
    # whose time passes the cap must be unreachable to both methods.
    rng = random.Random(42)
    reached = 0
    for _ in range(10):
        cfg = _random_config(rng)
        vmax = top_speed_oracle(cfg)
        for target in (50.0, 100.0, 0.5 * (49.0 + vmax), vmax - 1.0):
            quad = _time_or_unreachable(accel_time_oracle, cfg, target)
            euler = _time_or_unreachable(euler_accel_time, cfg, target)
            assert (quad is None) == (euler is None), (cfg, target)
            if euler is not None:
                reached += 1
                assert quad == pytest.approx(euler, rel=1e-4), (cfg, target)
    assert reached >= 35


def test_accel_time_oracle_takes_no_time_step(config):
    # The quadrature integrates over speed: there is no dt to pass.
    with pytest.raises(TypeError):
        accel_time_oracle(config, 50.0, dt=1e-3)


def test_accel_time_agrees_with_fine_step_oracle_over_random_configs():
    rng = random.Random(42)
    for _ in range(10):
        cfg = _random_config(rng)
        sim = accel_test(cfg, 100.0).time_to_target_s
        ref = accel_time_oracle(cfg, 100.0)
        assert sim == pytest.approx(ref, rel=0.01), cfg


def test_accel_default_config(config):
    report = accel_test(config, 100.0)
    ref = accel_time_oracle(config, 100.0)
    assert report.time_to_target_s == pytest.approx(ref, rel=0.01)
    # the published 9.5 s is not reachable from this parameter set
    assert 13.0 < report.time_to_target_s < 18.0
    v = np.array([p[1] for p in report.speed_trajectory])
    assert np.all(np.diff(v) >= 0.0)
    assert v[-1] >= 100.0


def test_accel_zero_target(config):
    report = accel_test(config, 0.0)
    assert report.time_to_target_s == 0.0
    assert accel_time_oracle(config, 0.0) == 0.0


def test_accel_unreachable_target(config):
    with pytest.raises(UnreachableTargetError):
        accel_test(config, 250.0)
    with pytest.raises(UnreachableTargetError):
        accel_time_oracle(config, 250.0)


def _accel_over_full_cap(config, target_kmh):
    """accel_test's report from one full-throttle run over the whole time
    cap; None when the target is not reached within it."""
    trace, _, _ = run(
        with_overrides(config, sim={"max_sim_time": _FULL_THROTTLE_TIME_CAP_S}),
        _full_throttle_cycle(),
        pinned_command=1.0,
        passes=None,
    )
    t_cross, idx = _crossing_time(trace.t_s, trace.v_kmh, target_kmh)
    if t_cross is None:
        return None
    trajectory = tuple(
        (float(t), float(v))
        for t, v in zip(trace.t_s[: idx + 1], trace.v_kmh[: idx + 1])
    )
    return AccelReport(t_cross, target_kmh, trajectory)


def _accel_bits(report):
    return (
        report.time_to_target_s.hex(),
        report.target_kmh,
        [(t.hex(), v.hex()) for t, v in report.speed_trajectory],
    )


@pytest.mark.parametrize(
    "body, target",
    [
        ({}, 50.0),
        ({}, 100.0),
        ({}, 150.0),
        ({}, "oracle-1.5"),  # crosses after about 93 s
        ({"mass": 4_000.0}, 100.0),  # after about 40 s
        ({"mass": 60_000.0, "f0": 0.0}, 100.0),  # after about 534 s
    ],
    ids=[
        "50", "100", "150", "near-top-speed", "weak-crosses-after-first-horizon",
        "crosses-in-last-horizon",
    ],
)
def test_accel_matches_full_cap_run_bit_for_bit(config, body, target):
    # accel_test runs one kernel on until the crossing, in chunks; by the
    # chunk property it must give the bits of the full-cap run's prefix.
    config = with_overrides(config, body=body)
    if target == "oracle-1.5":
        target = top_speed_oracle(config) - 1.5
    want = _accel_over_full_cap(config, target)
    assert want is not None
    if body:
        assert want.time_to_target_s > _FIRST_ACCEL_HORIZON_S
    assert _accel_bits(accel_test(config, target)) == _accel_bits(want)


def test_accel_not_reached_within_cap_matches_full_cap_run(config):
    # Without rolling resistance a 200 t car still has the default's
    # force-balance top speed but gains under 40 km/h in the whole cap.
    heavy = with_overrides(config, body={"mass": 200_000.0, "f0": 0.0})
    assert top_speed_oracle(heavy) > 100.0
    assert _accel_over_full_cap(heavy, 100.0) is None
    with pytest.raises(UnreachableTargetError) as exc:
        accel_test(heavy, 100.0)
    assert str(exc.value) == (
        f"100 km/h not reached within {_FULL_THROTTLE_TIME_CAP_S:g} s"
    )
    with pytest.raises(UnreachableTargetError):
        accel_time_oracle(heavy, 100.0)


def test_accel_crossing_just_past_the_cap_is_unreachable(config):
    # A 90 t car reaches 100 km/h after about 801 s: past the time cap, so
    # both the scenario, which must not run past its last horizon, and
    # the quadrature oracle call the target unreachable.
    heavy = with_overrides(config, body={"mass": 90_000.0, "f0": 0.0})
    trace, _, _ = run(
        with_overrides(heavy, sim={"max_sim_time": 900.0}), _full_throttle_cycle(),
        pinned_command=1.0, passes=None,
    )
    assert _crossing_time(trace.t_s, trace.v_kmh, 100.0)[0] < 900.0
    assert _accel_over_full_cap(heavy, 100.0) is None
    with pytest.raises(UnreachableTargetError):
        accel_test(heavy, 100.0)
    with pytest.raises(UnreachableTargetError):
        accel_time_oracle(heavy, 100.0)


def test_top_speed_and_accel_stay_within_max_sim_time(config):
    # An explicit duration or horizon never outlasts sim.max_sim_time, and
    # accel_test names the bound that applied.
    cfg = with_overrides(config, sim={"max_sim_time": 10.0})
    report = top_speed_test(cfg, duration=20.0)
    assert len(report.speed_trajectory) == 100
    assert report.speed_trajectory[-1][0] == pytest.approx(10.0, abs=1e-9)
    assert accel_test(config, 100.0).time_to_target_s > 10.0
    with pytest.raises(UnreachableTargetError) as exc:
        accel_test(cfg, 100.0)
    assert str(exc.value) == "100 km/h not reached within 10 s"


# Peak RSS growth [KiB on Linux] of a 200 k-step top-speed run, measured in
# a fresh process after a short warm-up run. tracemalloc is no use here: it
# resolves a line number in the large kernel frame on every allocation,
# which makes this run over a hundred times slower.
_TOP_SPEED_PEAK_GROWTH = """
import resource
from bevsim import default_config, top_speed_test

config = default_config()
top_speed_test(config, 200.0)
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
top_speed_test(config, 20_000.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def test_top_speed_memory_stays_flat_over_a_long_run(package_env):
    # A full trace of these 200 k steps grew the peak by over 100 MB.
    proc = subprocess.run(
        [sys.executable, "-c", _TOP_SPEED_PEAK_GROWTH],
        env=package_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10_000


@pytest.mark.parametrize(
    "body, duration",
    [
        ({}, 120.0),
        ({}, 410.0),
        ({"mass": 60_000.0, "f0": 0.0}, 3000.0),
        ({}, 20_000.0),
    ],
    ids=["one-chunk", "stride-2", "settles-in-a-later-chunk", "200k-steps"],
)
def test_top_speed_matches_every_step_bit_for_bit(config, body, duration):
    # top_speed_test keeps only a bounded reduction of its run; its report
    # must equal one computed from every step, and its trajectory must be
    # every stride-th step, as the plot would thin the full one.
    config = with_overrides(config, body=body)
    report = top_speed_test(config, duration)
    steps = round(duration / config.sim.dt)
    state, cycle = initial_state(config), _full_throttle_cycle()
    t_s, v_kmh = array("d"), array("d")
    for _ in range(steps):
        state, _ = step(state, cycle, config, pinned_command=1.0)
        t_s.append(state.t_s)
        v_kmh.append(state.speed_kmh)
    vmax = max(v_kmh)
    settle = next(i for i, v in enumerate(v_kmh) if v >= vmax - 1.0)
    assert report.vmax_kmh.hex() == vmax.hex()
    assert report.time_to_vmax_s.hex() == t_s[settle].hex()
    assert report.discrepancy_kmh.hex() == (vmax - report.oracle_vmax_kmh).hex()
    stride = max(1, math.ceil(steps / _MAX_PLOT_POINTS))
    assert report.speed_trajectory == tuple(zip(t_s[::stride], v_kmh[::stride]))
    if body:
        assert report.time_to_vmax_s > _TOP_SPEED_CHUNK_STEPS * config.sim.dt


def test_size_motor_values(config):
    assert size_motor(config, 120.0) == pytest.approx(28.46, abs=0.005)
    assert size_motor(config, 100.0) == pytest.approx(19.18, abs=0.005)
    with pytest.raises(ValueError):
        size_motor(config, 0.0)
    # The bound design_speed_for_power searches below; far past it the
    # rolling resistance's v**4 term overflows.
    assert math.isfinite(size_motor(config, 1e5))
    with pytest.raises(ValueError, match="design speed must be <= 100000 km/h"):
        size_motor(config, math.nextafter(1e5, math.inf))
    with pytest.raises(ValueError, match="design speed"):
        size_motor(config, 1e100)


def test_design_speed_for_published_rating(config):
    # 29.48 kW corresponds to a design speed of roughly 122 km/h.
    speed = design_speed_for_power(config, 29.48)
    assert speed == pytest.approx(122.0, abs=1.0)
    assert size_motor(config, speed) == pytest.approx(29.48, abs=0.01)


def _range_floor(cfg, floor):
    trapezoid = synth_trapezoid(50.0, 10.0, 10.0)
    floored = with_overrides(cfg, battery={"soc_floor": floor})
    return range_test_detailed(floored, trapezoid)[0]


_SCALAR_ENTRY_POINTS = (
    size_motor, design_speed_for_power, accel_test, accel_time_oracle,
    top_speed_test, _range_floor,
)


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(fn, x, id=f"{fn.__name__}-{x}")
        for fn in _SCALAR_ENTRY_POINTS
        for x in (math.nan, math.inf, -math.inf)
    ]
    # A negative target is outside the domain of both the acceleration
    # scenario and its oracle.
    + [
        pytest.param(fn, -5.0, id=f"{fn.__name__}--5.0")
        for fn in (accel_test, accel_time_oracle)
    ],
)
def test_scalar_entry_points_reject_bad_values_up_front(config, call, bad):
    # Rejected before any simulation or search: a NaN target must not run
    # the engine, and a NaN power must not bisect to a meaningless speed.
    # A range's floor is the config's battery.soc_floor, held to its rules.
    with pytest.raises(ConfigError if call is _range_floor else ValueError):
        call(config, bad)


def test_range_regen_on_beats_regen_off(small_battery_config, udds):
    on = range_test_detailed(small_battery_config, udds, regen_enabled=True)[0]
    off = range_test_detailed(small_battery_config, udds, regen_enabled=False)[0]
    assert on.distance_km > off.distance_km
    assert off.energy_regen_kwh == 0.0
    assert on.energy_regen_kwh > 0.0
    assert on.soc_end <= 0.1 + 1e-9
    assert on.cycles_completed >= 1


def test_range_terminates_near_floor(small_battery_config, udds):
    nearly_empty = with_overrides(
        small_battery_config, battery={"initial_soc": 0.101}
    )
    report = range_test_detailed(nearly_empty, udds)[0]
    assert report.distance_km >= 0.0
    assert report.soc_end <= 0.1 + 1e-12


def test_range_rejects_initial_soc_at_floor(small_battery_config, udds):
    bad = with_overrides(
        small_battery_config, battery={"initial_soc": 0.2, "soc_floor": 0.2}
    )
    with pytest.raises(ConfigError, match="soc_floor < initial_soc"):
        range_test_detailed(bad, udds)
    with pytest.raises(ConfigError, match="soc_floor < initial_soc"):
        _regen_lanes(bad, udds)


def test_range_monotone_in_capacity(small_battery_config, udds):
    distances = []
    for kwh in (3.0, 4.0, 5.0):
        cfg = with_overrides(small_battery_config, battery={"capacity_energy": kwh})
        distances.append(range_test_detailed(cfg, udds)[0].distance_km)
    assert distances[0] <= distances[1] <= distances[2]
    assert distances[2] > distances[0]


def test_range_monotone_in_regen_efficiency(small_battery_config, udds):
    distances = []
    for eff in (0.0, 0.5, 1.0):
        cfg = with_overrides(
            small_battery_config, drivetrain={"regen_efficiency": eff}
        )
        distances.append(range_test_detailed(cfg, udds)[0].distance_km)
    assert distances[0] <= distances[1] <= distances[2]
    assert distances[2] > distances[0]


def test_range_strictly_decreasing_in_mass(small_battery_config, udds):
    distances = []
    for mass in (1200.0, 1549.0, 1900.0):
        cfg = with_overrides(small_battery_config, body={"mass": mass})
        distances.append(range_test_detailed(cfg, udds)[0].distance_km)
    assert distances[0] > distances[1] > distances[2]


def test_regen_comparison_gain_zero_at_zero_efficiency(small_battery_config, udds):
    cfg = with_overrides(small_battery_config, drivetrain={"regen_efficiency": 0.0})
    comparison = regen_comparison(cfg, udds)
    assert comparison.gain_fraction == 0.0
    # Both legs ran without recovery, and their reports say so.
    assert comparison.regen_on == comparison.regen_off
    assert not comparison.regen_on.regen_enabled
    assert not range_test_detailed(cfg, udds)[0].regen_enabled


def test_regen_comparison_gain_grows_with_efficiency(small_battery_config, udds):
    half = regen_comparison(small_battery_config, udds)
    cfg = with_overrides(small_battery_config, drivetrain={"regen_efficiency": 1.0})
    full = regen_comparison(cfg, udds)
    assert full.gain_fraction > half.gain_fraction > 0.0
    assert half.reference_gain_percents == (23.0, 25.0, 25.5)


def _bits(report):
    return [x.hex() if isinstance(x, float) else x for x in report]


def _assert_lanes_match_serial_legs(cfg, cycle):
    """The two-lane pass gives each serial leg's report and ledger, bit for
    bit; returns the two reports."""
    lanes = _regen_lanes(cfg, cycle)
    for regen, (report, ledger) in zip((True, False), lanes):
        want, _, _, want_ledger = range_test_detailed(cfg, cycle, regen)
        assert _bits(report) == _bits(want), (cfg, regen)
        assert _bits(ledger) == _bits(want_ledger), (cfg, regen)
    return lanes[0][0], lanes[1][0]


def test_regen_lanes_match_serial_legs_over_random_configs(udds):
    rng = random.Random(42)
    for _ in range(10):
        cfg = with_overrides(_random_config(rng), battery={"capacity_energy": 3.0})
        on, off = _assert_lanes_match_serial_legs(cfg, udds)
        assert on.distance_km > off.distance_km


def test_regen_lanes_stop_on_one_step_without_recovery(small_battery_config, udds):
    cfg = with_overrides(small_battery_config, drivetrain={"regen_efficiency": 0.0})
    on, off = _assert_lanes_match_serial_legs(cfg, udds)
    assert _bits(on)[:-1] == _bits(off)[:-1]
    assert regen_comparison(cfg, udds).gain_fraction == 0.0


def test_regen_lanes_with_a_floor_inside_the_first_cycle(small_battery_config, udds):
    def floored(floor):
        return with_overrides(small_battery_config, battery={"soc_floor": floor})

    on, off = _assert_lanes_match_serial_legs(floored(0.89), udds)
    assert on.cycles_completed == off.cycles_completed == 0
    assert on.distance_km > off.distance_km
    # A floor the regen-off leg's soc lands on exactly stops it on that step.
    exact = off.soc_end
    _, off = _assert_lanes_match_serial_legs(floored(exact), udds)
    assert off.soc_end == exact


def test_regen_lanes_cut_by_max_sim_time(small_battery_config, udds):
    cfg = with_overrides(small_battery_config, sim={"max_sim_time": 1000.0})
    on, off = _assert_lanes_match_serial_legs(cfg, udds)
    assert on.soc_end > off.soc_end > cfg.battery.soc_floor
    assert on.distance_km == off.distance_km


# Cruise at 50 km/h, a dip to 35, then a step up to 130: the first
# full-throttle step follows a regen step, which left the regen-on lane's
# terminal voltage above the regen-off lane's. With a large internal
# resistance the voltage collapses, in whichever leg and at whichever step
# each resistance gives. The ids name the legs whose next step finds the
# collapse; a leg that its floor stops on the collapsing step raises too
# (1.16 off, 1.58 on), since its end state is no result.
_DIP = DriveCycle(
    "dip", (0.0, 150.0, 180.0, 184.0, 184.1, 210.0),
    (0.0, 50.0, 50.0, 35.0, 130.0, 130.0),
)


@pytest.mark.parametrize(
    "resistance, collapse_times",
    [
        pytest.param(0.5, ("187.8", "187.8"), id="both-at-one-step"),
        pytest.param(1.16, ("184.5", "184.5"), id="on-only-off-stops-at-floor"),
        pytest.param(1.17, ("184.5", "184.4"), id="off-first-then-on"),
        pytest.param(1.58, ("184.4", "184.3"), id="off-only"),
    ],
)
def test_regen_lanes_raise_the_serial_legs_voltage_collapse(resistance, collapse_times):
    cfg = with_overrides(
        default_config(),
        battery={"internal_resistance": resistance, "capacity_energy": 0.5},
        sim={"max_sim_time": 210.0},
    )
    errors = []
    for regen in (True, False):
        try:
            range_test_detailed(cfg, _DIP, regen)
        except DegenerateVoltageError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    assert tuple(e and e.split("t = ")[1][:-2] for e in errors) == collapse_times
    # The serial comparison runs the regen-on leg first, then the other.
    with pytest.raises(DegenerateVoltageError) as exc:
        _regen_lanes(cfg, _DIP)
    assert str(exc.value) == (errors[0] or errors[1])


def test_depletion_stopping_on_its_voltage_collapse_raises(udds):
    # A vanishing motor efficiency draws an infinite current on the first
    # motoring step: the soc clamps to 0 and the floor stops the run on the
    # step whose voltage collapsed, so no next step would raise.
    cfg = with_overrides(
        default_config(), motor={"efficiency": 5e-324}, battery={"soc_floor": 0.85}
    )
    with pytest.raises(DegenerateVoltageError, match="-inf V below 1 V floor"):
        range_test_detailed(cfg, udds)
    with pytest.raises(DegenerateVoltageError, match="-inf V below 1 V floor"):
        _regen_lanes(cfg, udds)


def test_regen_comparison_ignores_parallel(small_battery_config, udds):
    cfg = with_overrides(small_battery_config, battery={"soc_floor": 0.7})
    assert regen_comparison(cfg, udds, parallel=True) == regen_comparison(
        cfg, udds, parallel=False
    )


def test_soc_dynamics_regen_off_has_no_increases(config, udds):
    trace, _, _ = run(config, udds, regen_enabled=False)
    report = soc_dynamics_report(trace, config)
    assert report.increase_steps == 0
    assert report.violation_steps == 0


def test_soc_dynamics_increases_only_during_braking(config, udds):
    trace, _, _ = run(config, udds)
    report = soc_dynamics_report(trace, config, cycle_duration_s=1369.0)
    assert report.increase_steps > 0
    assert report.violation_steps == 0
    assert report.violations == ()
    assert len(report.increase_times_s) == report.increase_steps
    assert len(report.per_cycle_soc_delta) == 1
    assert report.per_cycle_soc_delta[0] < 0.0


def test_soc_dynamics_cruise_is_monotone_decrease(config):
    cruise = synth_trapezoid(60.0, 30.0, 240.0)
    trace, _, _ = run(config, cruise)
    report = soc_dynamics_report(trace, config)
    # braking only at the final ramp-down; nothing during the cruise hold
    t = np.asarray(trace.t_s)
    hold = (t > 40.0) & (t < 260.0)
    soc_hold = np.asarray(trace.soc)[hold]
    assert np.all(np.diff(soc_hold) < 0.0)
    assert report.violation_steps == 0


def test_range_detailed_exposes_ledger(small_battery_config, udds):
    from bevsim import ledger_check

    report, trace, summary, ledger = range_test_detailed(
        small_battery_config, udds, trace_every=50
    )
    assert report.distance_km == summary.distance_km
    assert len(trace) > 0
    assert ledger_check(ledger).passed
