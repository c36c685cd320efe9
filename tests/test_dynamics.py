import math

import pytest

from step_reference import BodyState, ForceBreakdown, acceleration, integrate

from bevsim import aero_drag, rolling_resistance
from bevsim.params import VehicleBodyParams


def test_rolling_resistance_constant_term(config):
    expected = 1549.0 * 9.81 * 0.021
    for v in (1.0, 30.0, 91.0):
        assert rolling_resistance(config.body, v) == pytest.approx(
            expected, rel=1e-12
        )
    assert expected == pytest.approx(319.11, abs=0.005)


def test_rolling_resistance_zero_coefficients():
    body = VehicleBodyParams(f0=0.0, f1=0.0, f4=0.0)
    assert rolling_resistance(body, 80.0) == 0.0


def test_rolling_resistance_linear_term():
    body = VehicleBodyParams(f0=0.021, f1=0.01)
    assert rolling_resistance(body, 100.0) == pytest.approx(
        1549.0 * 9.81 * 0.031, rel=1e-12
    )
    assert rolling_resistance(body, 100.0) == pytest.approx(471.07, abs=0.01)


def test_rolling_resistance_rejects_negative_speed(config):
    with pytest.raises(ValueError):
        rolling_resistance(config.body, -1.0)


def test_aero_drag_values(config):
    assert aero_drag(config.body, 0.0) == 0.0
    assert aero_drag(config.body, 100.0) == pytest.approx(
        0.42 * 1.87 * 1e4 / 21.15, rel=1e-12
    )
    assert aero_drag(config.body, 100.0) == pytest.approx(371.35, abs=0.005)


def test_aero_drag_quadratic_scaling(config):
    assert aero_drag(config.body, 50.0) == pytest.approx(
        aero_drag(config.body, 100.0) / 4.0, rel=1e-12
    )


def test_acceleration_from_breakdown():
    forces = ForceBreakdown(propulsion=3498.6, rolling=319.1)
    assert acceleration(forces, 1549.0) == pytest.approx(2.053, abs=5e-4)
    assert acceleration(ForceBreakdown(), 1549.0) == 0.0
    braking = ForceBreakdown(friction_brake=1000.0, rolling=549.0)
    assert acceleration(braking, 1549.0) == pytest.approx(-1.0, rel=1e-12)


def test_breakdown_net_is_constructed_sum():
    f = ForceBreakdown(
        propulsion=10.0, regen_brake=1.0, friction_brake=2.0, rolling=3.0, aero=4.0
    )
    assert f.net == 10.0 - 1.0 - 2.0 - 3.0 - 4.0


def test_integrate_unit_conversions():
    out = integrate(BodyState(), 1.0, 1.0)
    assert out.speed_kmh == pytest.approx(3.6, rel=1e-12)
    assert out.distance_km == pytest.approx(0.001, rel=1e-12)


def test_integrate_clamps_at_rest():
    out = integrate(BodyState(speed_kmh=10.0), -10.0, 1.0)
    assert out.speed_kmh == 0.0
    assert out.distance_km == 0.0


def test_integrate_coasting():
    out = integrate(BodyState(speed_kmh=36.0, distance_km=1.0), 0.0, 10.0)
    assert out.speed_kmh == 36.0
    assert out.distance_km == pytest.approx(1.1, rel=1e-12)


def test_resistances_strictly_increase_with_speed(config):
    body = VehicleBodyParams(f0=0.021, f1=0.005, f4=0.002)
    prev_rr = rolling_resistance(body, 0.0)
    prev_wr = aero_drag(config.body, 0.0)
    for v in range(10, 200, 10):
        rr = rolling_resistance(body, float(v))
        wr = aero_drag(config.body, float(v))
        assert rr > prev_rr
        assert wr > prev_wr
        prev_rr, prev_wr = rr, wr


def test_speed_never_negative_distance_never_decreases(config):
    state = BodyState()
    import random

    rng = random.Random(3)
    prev_distance = 0.0
    for _ in range(500):
        a = rng.uniform(-4.0, 4.0)
        state = integrate(state, a, 0.1)
        assert state.speed_kmh >= 0.0
        assert state.distance_km >= prev_distance
        prev_distance = state.distance_km


def _coast_to_balance(config, force_n, dt, t_end):
    v = 0.0
    steps = int(t_end / dt)
    for _ in range(steps):
        if v > 0.0:
            net = force_n - rolling_resistance(config.body, v) - aero_drag(
                config.body, v
            )
        else:
            net = force_n
        v = max(0.0, v + net / config.body.mass * dt * 3.6)
    return v


def test_constant_force_converges_to_force_balance_root(config):
    force = 1500.0

    def surplus(v):
        return force - rolling_resistance(config.body, v) - aero_drag(config.body, v)

    lo, hi = 1.0, 400.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if surplus(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    settled = _coast_to_balance(config, force, 0.1, 400.0)
    assert settled == pytest.approx(root, abs=0.5)


def test_halving_dt_changes_trajectory_by_under_a_tenth_percent(config):
    v_coarse = _coast_to_balance(config, 1200.0, 0.1, 100.0)
    v_fine = _coast_to_balance(config, 1200.0, 0.05, 100.0)
    assert math.isclose(v_coarse, v_fine, rel_tol=1e-3)
