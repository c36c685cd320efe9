"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines; tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from step_reference import soc_dynamics_report

from bevsim import (
    accel_test,
    accel_time_oracle,
    ledger_check,
    run,
    size_motor,
    top_speed_test,
)
from bevsim.experiments import (
    REFERENCE_ACCEL_TIME_S,
    REFERENCE_REGEN_GAIN_PERCENTS,
    REFERENCE_TOP_SPEED_KMH,
    range_test_detailed,
)
from bevsim.params import with_overrides


def _report(line: str) -> None:
    print(line, flush=True)


@pytest.fixture(scope="module")
def depletion(config, udds):
    """Shared SoC 0.9 -> 0.1 depletion runs (regen on and off), timed."""
    t0 = time.perf_counter()
    on = range_test_detailed(config, udds, regen_enabled=True)
    off = range_test_detailed(config, udds, regen_enabled=False)
    elapsed = time.perf_counter() - t0
    return {"on": on, "off": off, "elapsed_s": elapsed}


def test_a1_speed_tracking(config, udds):
    t0 = time.perf_counter()
    _, summary, _ = run(config, udds, trace_every=0)
    elapsed = time.perf_counter() - t0
    limit_kmh = 0.015 * 91.251285
    ok = summary.max_tracking_error_kmh <= limit_kmh and elapsed < 1.0
    _report(
        f"A1 speed tracking: {'PASS' if ok else 'FAIL'} — max error "
        f"{summary.max_tracking_error_kmh:.3f} km/h "
        f"({summary.max_tracking_error_pct:.2f}%) <= {limit_kmh:.3f} km/h (1.5%); "
        f"runtime {elapsed:.2f} s < 1 s"
    )
    assert summary.max_tracking_error_kmh <= limit_kmh
    assert elapsed < 1.0


def test_a2_regen_range_gain(depletion):
    on = depletion["on"][0]
    off = depletion["off"][0]
    gain_pct = 100.0 * (on.distance_km / off.distance_km - 1.0)
    ok = 0.0 < gain_pct and 10.0 <= gain_pct <= 40.0 and depletion["elapsed_s"] < 30.0
    _report(
        f"A2 regen range gain: {'PASS' if ok else 'FAIL'} — range with recovery "
        f"{on.distance_km:.1f} km ({on.cycles_completed} cycles), without "
        f"{off.distance_km:.1f} km ({off.cycles_completed} cycles); measured gain "
        f"{gain_pct:.2f}% in [10%, 40%]; published reference gains "
        f"{REFERENCE_REGEN_GAIN_PERCENTS}% and ~352 km absolute range are not "
        f"reproducible from the given parameter set (reported, not asserted); "
        f"runtime {depletion['elapsed_s']:.1f} s < 30 s"
    )
    assert gain_pct > 0.0
    assert 10.0 <= gain_pct <= 40.0
    assert depletion["elapsed_s"] < 30.0


def test_a3_top_speed(config):
    t0 = time.perf_counter()
    report = top_speed_test(config)
    elapsed = time.perf_counter() - t0
    ok = abs(report.discrepancy_kmh) <= 2.0 and elapsed < 2.0
    _report(
        f"A3 top speed: {'PASS' if ok else 'FAIL'} — settled "
        f"{report.vmax_kmh:.1f} km/h vs force-balance oracle "
        f"{report.oracle_vmax_kmh:.1f} km/h (|diff| "
        f"{abs(report.discrepancy_kmh):.2f} <= 2 km/h); published reference "
        f"~{REFERENCE_TOP_SPEED_KMH:.0f} km/h is a known discrepancy; "
        f"runtime {elapsed:.2f} s < 2 s"
    )
    assert abs(report.discrepancy_kmh) <= 2.0
    assert elapsed < 2.0


def test_a4_acceleration(config):
    t0 = time.perf_counter()
    report = accel_test(config, 100.0)
    oracle_s = accel_time_oracle(config, 100.0)
    elapsed = time.perf_counter() - t0
    rel = abs(report.time_to_target_s - oracle_s) / oracle_s
    ok = rel <= 0.01 and elapsed < 2.0
    _report(
        f"A4 acceleration: {'PASS' if ok else 'FAIL'} — 0-100 km/h in "
        f"{report.time_to_target_s:.2f} s vs quadrature oracle {oracle_s:.2f} s "
        f"(rel diff {100.0 * rel:.2f}% <= 1%); published reference "
        f"{REFERENCE_ACCEL_TIME_S} s is a known discrepancy; "
        f"runtime {elapsed:.2f} s < 2 s"
    )
    assert rel <= 0.01
    assert elapsed < 2.0


def test_a5_energy_conservation(depletion):
    ledger = depletion["on"][3]
    check = ledger_check(ledger)
    ok = check.passed and check.residual_fraction <= 0.005
    _report(
        f"A5 energy conservation: {'PASS' if ok else 'FAIL'} — full range run "
        f"residual {check.residual_kwh:+.2e} kWh = "
        f"{100.0 * check.residual_fraction:.2e}% of battery out "
        f"{ledger.battery_out:.2f} kWh (<= 0.5%)"
    )
    assert check.passed
    assert check.residual_fraction <= 0.005


def test_a6_dt_refinement(config, udds):
    _, coarse, _ = run(config, udds, trace_every=0)
    fine_cfg = with_overrides(config, sim={"dt": 0.01})
    _, fine, _ = run(fine_cfg, udds, trace_every=0)
    dist_rel = abs(fine.distance_km - coarse.distance_km) / coarse.distance_km
    soc_rel = abs(fine.soc_end - coarse.soc_end) / abs(coarse.soc_end)
    ok = dist_rel <= 0.005 and soc_rel <= 0.005
    _report(
        f"A6 dt refinement: {'PASS' if ok else 'FAIL'} — dt 0.1 vs 0.01 over "
        f"UDDS: distance rel diff {dist_rel:.2e}, final SoC rel diff "
        f"{soc_rel:.2e} (both <= 0.5%)"
    )
    assert dist_rel <= 0.005
    assert soc_rel <= 0.005


def test_a7_formula_unit_checks(config):
    from step_reference import (
        battery_step,
        initial_battery_state,
        motor_electrical_power,
    )

    from bevsim import aero_drag, rolling_resistance

    checks = []
    rr = rolling_resistance(config.body, 60.0)
    checks.append(("RR", rr, 1549.0 * 9.81 * 0.021))
    wr = aero_drag(config.body, 100.0)
    checks.append(("WR(100)", wr, 0.42 * 1.87 * 100.0**2 / 21.15))
    p = motor_electrical_power(95.5, 3000.0, 1.0)
    checks.append(("rated point", p, 95.5 * 3000.0 / 9550.0))
    volts = battery_step(
        initial_battery_state(config.battery), 100.0, 0.1, config.battery
    ).terminal_voltage
    checks.append(("V(100 A)", volts, 350.0 - 0.1 * 100.0))
    bat = config.battery
    cb = 1000.0 * bat.capacity_energy / bat.nominal_voltage
    checks.append(("Cb", cb, 216000.0 / 350.0))
    sized = size_motor(config, 120.0)
    expected_sized = 120.0 * (
        1549.0 * 9.81 * 0.021 + 0.42 * 1.87 * 120.0**2 / 21.15
    ) / 3600.0
    checks.append(("size_motor(120)", sized, expected_sized))

    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    ok = worst <= 1e-9
    shown = ", ".join(f"{name} {got:.6g}" for name, got, _ in checks)
    _report(
        f"A7 formula unit checks: {'PASS' if ok else 'FAIL'} — {shown}; "
        f"worst rel error {worst:.1e} <= 1e-9"
    )
    for name, got, want in checks:
        assert got == pytest.approx(want, rel=1e-9), name


def test_a8_regen_off_equivalence(config, udds):
    t_off, _, _ = run(config, udds, regen_enabled=False)
    zero = with_overrides(config, drivetrain={"regen_efficiency": 0.0})
    t_zero, _, _ = run(zero, udds, regen_enabled=True)
    identical = np.array_equal(t_off.soc, t_zero.soc)
    _report(
        f"A8 regen-off equivalence: {'PASS' if identical else 'FAIL'} — "
        f"regen disabled vs regen_efficiency=0 SoC trajectories bit-identical "
        f"over {len(t_off.soc)} steps"
    )
    assert identical


def test_a9_soc_dynamics(config, udds):
    trace_on, _, _ = run(config, udds)
    rep_on = soc_dynamics_report(trace_on, config)
    trace_off, _, _ = run(config, udds, regen_enabled=False)
    rep_off = soc_dynamics_report(trace_off, config)
    ok = (
        rep_on.increase_steps > 0
        and rep_on.violation_steps == 0
        and rep_off.increase_steps == 0
    )
    _report(
        f"A9 SoC dynamics: {'PASS' if ok else 'FAIL'} — "
        f"{rep_on.increase_steps} SoC-increase steps with recovery on, every "
        f"one during braking above the cutoff ({rep_on.violation_steps} "
        f"violations); {rep_off.increase_steps} increase steps with recovery off"
    )
    assert rep_on.increase_steps > 0
    assert rep_on.violation_steps == 0
    assert rep_off.increase_steps == 0


def test_a10_dt_convergence(config, udds):
    # Halving dt twice: explicit Euler converges at first order, so the SoC
    # drop moves about half as much on the second halving as on the first.
    # Independent of the step oracle, which shares the kernel's time
    # discretisation. dt 0.2 is left out: there the PI command chatters.
    runs = [
        run(with_overrides(config, sim={"dt": dt}), udds, trace_every=0)[1]
        for dt in (0.1, 0.05, 0.025)
    ]
    drop = [s.soc_start - s.soc_end for s in runs]
    ratio = (drop[1] - drop[0]) / (drop[2] - drop[1])
    dist_rel = max(abs(s.distance_km / runs[0].distance_km - 1.0) for s in runs)
    ok = 1.5 <= ratio <= 2.5 and dist_rel <= 1e-5
    _report(
        f"A10 dt convergence: {'PASS' if ok else 'FAIL'} — UDDS at dt 0.1, "
        f"0.05, 0.025: SoC drop changes {drop[1] - drop[0]:.3g} then "
        f"{drop[2] - drop[1]:.3g}, ratio {ratio:.2f} (in [1.5, 2.5]); distance "
        f"rel spread {dist_rel:.1e} (<= 1e-5)"
    )
    assert 1.5 <= ratio <= 2.5
    assert dist_rel <= 1e-5
