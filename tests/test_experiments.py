import random

import numpy as np
import pytest

from bevsim import (
    UnreachableTargetError,
    accel_test,
    accel_time_oracle,
    design_speed_for_power,
    range_test,
    regen_comparison,
    run,
    size_motor,
    soc_dynamics_report,
    top_speed_oracle,
    top_speed_test,
)
from bevsim.experiments import (
    _FULL_THROTTLE_TIME_CAP_S,
    AccelReport,
    _crossing_time,
    _full_throttle_cycle,
    range_test_detailed,
)
from bevsim.params import RPM_KW_CONSTANT, default_config, validate, with_overrides


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
        rated_speed = rng.uniform(2200.0, 5000.0)
        max_speed = rated_speed * rng.uniform(2.0, 2.8)
        max_power = rng.uniform(50.0, 150.0)
        rated_power = max_power / rng.uniform(2.0, 3.0)
        rated_torque = RPM_KW_CONSTANT * rated_power / rated_speed
        max_torque = rated_torque * rng.uniform(1.6, 2.5)
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
                "rated_speed": rated_speed,
                "max_speed": max_speed,
                "rated_power": rated_power,
                "max_power": max_power,
                "rated_torque": rated_torque,
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


def test_accel_unreachable_target(config):
    with pytest.raises(UnreachableTargetError):
        accel_test(config, 250.0)
    with pytest.raises(UnreachableTargetError):
        accel_time_oracle(config, 250.0)


def _accel_over_full_cap(config, target_kmh):
    """accel_test's report from one full-throttle run over the whole time
    cap; None when the target is not reached within it."""
    trace, _, _ = run(
        config,
        _full_throttle_cycle(),
        pinned_command=1.0,
        max_time=_FULL_THROTTLE_TIME_CAP_S,
        repeat=True,
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
        ({"mass": 60_000.0, "f0": 0.0}, 100.0),  # after about 534 s
    ],
    ids=["50", "100", "150", "near-top-speed", "crosses-in-last-horizon"],
)
def test_accel_matches_full_cap_run_bit_for_bit(config, body, target):
    # accel_test stops at the first horizon holding the crossing; a shorter
    # run from rest is a prefix of the full-cap run, so nothing may change.
    config = with_overrides(config, body=body)
    if target == "oracle-1.5":
        target = top_speed_oracle(config) - 1.5
    want = _accel_over_full_cap(config, target)
    assert want is not None
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


def test_size_motor_values(config):
    assert size_motor(config, 120.0) == pytest.approx(28.46, abs=0.005)
    assert size_motor(config, 100.0) == pytest.approx(19.18, abs=0.005)
    with pytest.raises(ValueError):
        size_motor(config, 0.0)


def test_design_speed_for_published_rating(config):
    # 29.48 kW corresponds to a design speed of roughly 122 km/h.
    speed = design_speed_for_power(config, 29.48)
    assert speed == pytest.approx(122.0, abs=1.0)
    assert size_motor(config, speed) == pytest.approx(29.48, abs=0.01)


def test_range_regen_on_beats_regen_off(small_battery_config, udds):
    on = range_test(small_battery_config, udds, regen_enabled=True)
    off = range_test(small_battery_config, udds, regen_enabled=False)
    assert on.distance_km > off.distance_km
    assert off.energy_regen_kwh == 0.0
    assert on.energy_regen_kwh > 0.0
    assert on.soc_end <= 0.1 + 1e-9
    assert on.cycles_completed >= 1


def test_range_terminates_near_floor(small_battery_config, udds):
    nearly_empty = with_overrides(
        small_battery_config, battery={"initial_soc": 0.101}
    )
    report = range_test(nearly_empty, udds)
    assert report.distance_km >= 0.0
    assert report.soc_end <= 0.1 + 1e-12


def test_range_rejects_initial_soc_at_floor(small_battery_config, udds):
    bad = with_overrides(small_battery_config, battery={"initial_soc": 0.2})
    with pytest.raises(ValueError):
        range_test(bad, udds, soc_floor=0.2)


def test_range_monotone_in_capacity(small_battery_config, udds):
    distances = []
    for kwh in (3.0, 4.0, 5.0):
        cfg = with_overrides(small_battery_config, battery={"capacity_energy": kwh})
        distances.append(range_test(cfg, udds).distance_km)
    assert distances[0] <= distances[1] <= distances[2]
    assert distances[2] > distances[0]


def test_range_monotone_in_regen_efficiency(small_battery_config, udds):
    distances = []
    for eff in (0.0, 0.5, 1.0):
        cfg = with_overrides(
            small_battery_config, drivetrain={"regen_efficiency": eff}
        )
        distances.append(range_test(cfg, udds).distance_km)
    assert distances[0] <= distances[1] <= distances[2]
    assert distances[2] > distances[0]


def test_range_strictly_decreasing_in_mass(small_battery_config, udds):
    distances = []
    for mass in (1200.0, 1549.0, 1900.0):
        cfg = with_overrides(small_battery_config, body={"mass": mass})
        distances.append(range_test(cfg, udds).distance_km)
    assert distances[0] > distances[1] > distances[2]


def test_regen_comparison_gain_zero_at_zero_efficiency(small_battery_config, udds):
    cfg = with_overrides(small_battery_config, drivetrain={"regen_efficiency": 0.0})
    comparison = regen_comparison(cfg, udds)
    assert comparison.gain_fraction == 0.0


def test_regen_comparison_gain_grows_with_efficiency(small_battery_config, udds):
    half = regen_comparison(small_battery_config, udds)
    cfg = with_overrides(small_battery_config, drivetrain={"regen_efficiency": 1.0})
    full = regen_comparison(cfg, udds)
    assert full.gain_fraction > half.gain_fraction > 0.0
    assert half.reference_gain_percents == (23.0, 25.0, 25.5)


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
    from bevsim import synth_trapezoid

    cruise = synth_trapezoid(60.0, 30.0, 240.0)
    trace, _, _ = run(config, cruise)
    report = soc_dynamics_report(trace, config)
    # braking only at the final ramp-down; nothing during the cruise hold
    hold = (trace.t_s > 40.0) & (trace.t_s < 260.0)
    soc_hold = trace.soc[hold]
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
