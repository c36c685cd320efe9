import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from step_reference import target_speed

from bevsim import (
    CycleError,
    DriveCycle,
    cycle_stats,
    parse_cycle,
    repeat,
    serialize_cycle,
    synth_trapezoid,
)


def test_parse_three_samples():
    c = parse_cycle("t_s,v_kmh\n0,0\n1,5\n2,10")
    assert len(c) == 3
    assert c.duration_s == 2.0
    assert list(c.speeds_kmh) == [0.0, 5.0, 10.0]


def test_parse_rejects_non_monotonic_time_with_row_number():
    # t = 3 then t = 2: the second data row is the offender.
    with pytest.raises(CycleError, match="row 2"):
        parse_cycle("t_s,v_kmh\n3,5\n2,10")
    with pytest.raises(CycleError, match="row 3"):
        parse_cycle("t_s,v_kmh\n0,0\n3,5\n2,10")


def test_parse_rejects_negative_speed():
    with pytest.raises(CycleError, match="row 2"):
        parse_cycle("t_s,v_kmh\n0,0\n1,-5")


def test_parse_rejects_malformed_row():
    with pytest.raises(CycleError, match="row 1"):
        parse_cycle("t_s,v_kmh\n0;0\n1,5")
    with pytest.raises(CycleError, match="row 2"):
        parse_cycle("t_s,v_kmh\n0,0\n1,fast")


def test_parse_rejects_wrong_header():
    with pytest.raises(CycleError, match="header"):
        parse_cycle("time,speed\n0,0\n1,5")


def test_parse_rejects_nonzero_start():
    with pytest.raises(CycleError, match="t = 0"):
        parse_cycle("t_s,v_kmh\n1,0\n2,5")


def test_parse_rejects_single_sample():
    with pytest.raises(CycleError, match="2 samples"):
        parse_cycle("t_s,v_kmh\n0,0")


@pytest.mark.parametrize(
    "times, speeds",
    [([0.0, 1.0], [0.0, math.nan]), ([0.0, math.inf], [0.0, 5.0])],
    ids=["nan-speed", "inf-time"],
)
def test_cycle_rejects_non_finite_knots(times, speeds):
    with pytest.raises(CycleError, match="finite"):
        DriveCycle("x", np.array(times), np.array(speeds))


def test_bundled_udds_aggregates(udds):
    stats = cycle_stats(udds)
    assert stats.duration_s == 1369.0
    assert len(udds) == 1370
    assert stats.distance_km == pytest.approx(11.99, abs=0.01)
    assert stats.max_speed_kmh == pytest.approx(91.25, abs=0.01)


def test_cycle_arrays_are_immutable(udds):
    with pytest.raises(TypeError):
        udds.speeds_kmh[0] = 1.0


def test_target_speed_midpoint():
    c = DriveCycle("seg", np.array([0.0, 2.0]), np.array([0.0, 10.0]))
    assert target_speed(c, 1.0) == 5.0


def test_target_speed_exact_at_knots(udds):
    for i in (0, 1, 57, 500, 1369):
        t = float(udds.times_s[i])
        assert target_speed(udds, t) == float(udds.speeds_kmh[i])


def test_target_speed_clamps_after_end():
    c = parse_cycle("t_s,v_kmh\n0,0\n1369,0")
    assert target_speed(c, 2000.0) == 0.0
    c2 = DriveCycle("held", np.array([0.0, 10.0]), np.array([0.0, 40.0]))
    assert target_speed(c2, 10.0) == 40.0
    assert target_speed(c2, 1e9) == 40.0


def test_target_speed_rejects_negative_time(udds):
    with pytest.raises(ValueError):
        target_speed(udds, -0.1)


def test_target_speed_rejects_nan_time(udds):
    with pytest.raises(ValueError):
        target_speed(udds, math.nan)


def test_trapezoid_distance():
    c = synth_trapezoid(36.0, 10.0, 10.0)
    stats = cycle_stats(c)
    # ramps average 5 m/s for 10 s each, hold runs 10 s at 10 m/s: 200 m
    assert stats.distance_km == pytest.approx(0.2, rel=1e-12)
    assert stats.duration_s == 30.0
    assert stats.max_speed_kmh == 36.0


def test_zero_cycle_distance():
    c = synth_trapezoid(0.0, 10.0, 10.0)
    assert cycle_stats(c).distance_km == 0.0


@pytest.mark.parametrize(
    "times", [[0.0, 22.3125], [0.0, 56.924695443473, 137.15317890967967]]
)
def test_constant_cycle_mean_is_its_speed(times):
    # Both once gave a mean of 7.000000000000001 km/h, above the peak.
    c = DriveCycle("flat", np.array(times), np.full(len(times), 7.0))
    assert cycle_stats(c).mean_speed_kmh == 7.0


def test_repeat_udds_duration(udds):
    assert repeat(udds, 2).duration_s == pytest.approx(2738.0, rel=1e-12)


def test_repeat_identity(udds):
    assert repeat(udds, 1) is udds


def test_repeat_rejects_zero(udds):
    with pytest.raises(ValueError):
        repeat(udds, 0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_repeat_distance_linearity_closed(udds, n):
    d1 = cycle_stats(udds).distance_km
    dn = cycle_stats(repeat(udds, n)).distance_km
    assert dn == pytest.approx(n * d1, rel=1e-9)


def test_repeat_distance_linearity_open_cycle():
    # Ends at a nonzero speed; the join inserts a 1 ns jump knot.
    c = DriveCycle("open", np.array([0.0, 5.0, 9.0]), np.array([0.0, 30.0, 12.0]))
    d1 = cycle_stats(c).distance_km
    d3 = cycle_stats(repeat(c, 3)).distance_km
    assert d3 == pytest.approx(3 * d1, rel=1e-9)


def test_synth_trapezoid_knots():
    c = synth_trapezoid(36.0, 10.0, 10.0)
    assert len(c) == 4
    c0 = synth_trapezoid(100.0, 9.5, 0.0)
    assert len(c0) == 3
    assert c0.duration_s == 19.0
    assert cycle_stats(c0).max_speed_kmh == 100.0


def test_synth_trapezoid_rejects_bad_args():
    with pytest.raises(ValueError):
        synth_trapezoid(-1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        synth_trapezoid(10.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        synth_trapezoid(10.0, 10.0, -1.0)


@st.composite
def cycles(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    dts = draw(
        st.lists(
            st.floats(0.01, 100.0, allow_nan=False), min_size=n - 1, max_size=n - 1
        )
    )
    speeds = draw(
        st.lists(
            st.floats(0.0, 200.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    times = np.concatenate(([0.0], np.cumsum(dts)))
    return DriveCycle("gen", times, np.array(speeds))


@given(cycles())
@settings(max_examples=60)
def test_serialize_parse_round_trip_bit_exact(c):
    back = parse_cycle(serialize_cycle(c), name=c.name)
    assert [x.hex() for x in back.times_s + back.speeds_kmh] == [
        x.hex() for x in c.times_s + c.speeds_kmh
    ]
    # Equal knots and name make equal, equally hashed cycles.
    assert back == c
    assert hash(back) == hash(c)


@given(cycles())
@settings(max_examples=60)
def test_stats_invariants(c):
    stats = cycle_stats(c)
    assert stats.duration_s > 0.0
    assert stats.distance_km >= 0.0
    assert stats.max_speed_kmh >= stats.mean_speed_kmh >= 0.0


@given(cycles(), st.data())
@settings(max_examples=60)
def test_target_speed_is_lipschitz(c, data):
    dur = c.duration_s
    t1 = data.draw(st.floats(0.0, dur, allow_nan=False))
    t2 = data.draw(st.floats(0.0, dur, allow_nan=False))
    dt = np.diff(c.times_s)
    dv = np.abs(np.diff(c.speeds_kmh))
    lipschitz = float(np.max(dv / dt))
    gap = abs(target_speed(c, t1) - target_speed(c, t2))
    assert gap <= lipschitz * abs(t1 - t2) + 1e-9 * (1.0 + lipschitz)
