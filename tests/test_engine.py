import math
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from step_reference import reference_run, reference_step, target_speed

from bevsim import (
    ConfigError,
    CycleError,
    DegenerateVoltageError,
    DriveCycle,
    EnvelopeError,
    StopReason,
    initial_state,
    ledger_check,
    run,
    step,
    synth_trapezoid,
)
from bevsim import engine
from bevsim.cycle import repeat
from bevsim.engine import TRACE_FIELDS, SimTrace
from bevsim.params import with_overrides

NAN = math.nan
INF = math.inf


def test_all_zero_cycle_is_a_fixed_point(config):
    cycle = synth_trapezoid(0.0, 10.0, 40.0)
    trace, summary, ledger = run(config, cycle)
    assert len(trace) == 600
    for field in TRACE_FIELDS:
        col = np.asarray(getattr(trace, field))
        if field == "t_s":
            assert np.all(np.diff(col) > 0.0)
        elif field == "volt_v":
            assert np.all(col == config.battery.nominal_voltage)
        elif field == "soc":
            assert np.all(col == config.battery.initial_soc)
        else:
            assert np.all(col == 0.0), field
    assert summary.distance_km == 0.0
    assert ledger.residual == 0.0
    assert ledger_check(ledger).passed


def test_launch_step_accelerates_at_standstill_force_over_mass(config):
    cycle = synth_trapezoid(100.0, 9.5, 0.0)
    state = initial_state(config)
    new, rec = step(state, cycle, config, pinned_command=1.0)
    assert rec.accel_ms2 == pytest.approx(3498.59 / 1549.0, abs=2e-4)
    assert rec.accel_ms2 == pytest.approx(2.259, abs=1e-3)
    assert rec.rr_n == 0.0 and rec.wr_n == 0.0
    assert rec.current_a == 0.0  # no electrical draw at zero shaft speed
    assert new.speed_kmh > 0.0


def test_sub_threshold_command_does_not_creep(config):
    # Propulsion force below the static rolling threshold holds the car.
    cycle = synth_trapezoid(100.0, 9.5, 0.0)
    state = initial_state(config)
    new, rec = step(state, cycle, config, pinned_command=0.05)
    assert new.speed_kmh == 0.0
    assert rec.accel_ms2 == 0.0


def _bits(obj, name="") -> dict:
    """Every leaf of a SimState or TraceRecord by name, floats as hex."""
    if not isinstance(obj, tuple):
        return {name: obj.hex() if isinstance(obj, float) else obj}
    out = {}
    for key, value in obj._asdict().items():
        out.update(_bits(value, f"{name}.{key}" if name else key))
    return out


def _regen_off(config):
    return with_overrides(config, drivetrain={"regen_efficiency": 0.0})


def _step_matches_reference(
    config, cycle, n, state=None, regen_enabled=True, pinned_command=None
):
    """Iterate step() and the reference step side by side from ``state``
    (default: at rest); every record and state must agree bit for bit.
    The reference switches regen off by its own flag, step() by the config's
    efficiency. Returns the reference records and final state."""
    stepped = config if regen_enabled else _regen_off(config)
    ref = mine = state if state is not None else initial_state(config)
    records = []
    for i in range(n):
        ref, want = reference_step(ref, cycle, config, regen_enabled, pinned_command)
        mine, got = step(mine, cycle, stepped, pinned_command=pinned_command)
        assert _bits(got) == _bits(want), f"record diverges at step {i}"
        assert _bits(mine) == _bits(ref), f"state diverges at step {i}"
        records.append(want)
    return records, ref


def _run_and_step_match_reference(config, cycle, n, **options):
    """run() for n steps from rest and iterated step() both equal the
    reference on every record; run()'s summary and ledger equal the
    reference run's, floats compared as hex. run() is bounded by
    sim.max_sim_time."""
    _step_matches_reference(config, cycle, n, **options)
    records, want_summary, want_ledger = reference_run(config, cycle, n, **options)
    bounded = with_overrides(config, sim={"max_sim_time": n * config.sim.dt})
    trace, summary, ledger = run(bounded, cycle, **options)
    assert len(trace) == n
    for i, want in enumerate(records):
        assert _bits(trace.record(i)) == _bits(want), f"run() diverges at step {i}"
    assert _bits(summary) == _bits(want_summary)
    assert _bits(ledger) == _bits(want_ledger)
    return trace


def test_run_matches_iterated_step_bit_for_bit(config):
    # Three routes through the same physics: run() and step() share the
    # engine kernel, the reference composes the component operations.
    cycle = DriveCycle(
        "mixed",
        np.array([0.0, 12.0, 18.0, 24.0, 40.0, 50.0, 55.0, 70.0]),
        np.array([0.0, 70.0, 70.0, 0.0, 0.0, 45.0, 45.0, 0.0]),
    )
    n = 400  # covers launch, cruise, braking, stop clamp, standstill, relaunch
    for regen_enabled in (True, False):
        _run_and_step_match_reference(config, cycle, n, regen_enabled=regen_enabled)
    # Only step() takes a pinned command.
    _step_matches_reference(config, cycle, n, pinned_command=1.0)


# A coarse step, light car, and low cutoff make braking overshoot zero
# while regen is still active, forcing the clamp to rescale the regen
# torque; the PI is deliberately unstable at this step so the profile
# thrashes between launch and clamp.
def _clamp_config(config):
    return with_overrides(
        config,
        sim={"dt": 0.5},
        body={"mass": 900.0},
        drivetrain={"regen_cutoff_speed": 0.5},
        driver={"kp": 2.0, "ki": 0.5},
    )


_SAWTOOTH = DriveCycle(
    "sawtooth",
    np.array([0.0, 8.0, 8.5, 20.0, 28.0, 28.5, 40.0]),
    np.array([0.0, 35.0, 0.0, 0.0, 30.0, 0.0, 0.0]),
)


def test_run_matches_step_through_stop_clamp_rescaling(config):
    # run(), step() and the reference still agree through the clamp.
    trace = _run_and_step_match_reference(_clamp_config(config), _SAWTOOTH, 80)
    v = np.asarray(trace.v_kmh)
    v_prev = np.concatenate(([0.0], v[:-1]))
    rescaled = (v == 0.0) & (v_prev > 0.0) & (np.asarray(trace.motor_nm) < 0.0)
    assert rescaled.sum() > 0  # the regen-rescale branch actually ran


def test_stop_clamp_sheds_friction_before_regen(config):
    # Constructed state inside the narrow band where regen alone cannot
    # stop the car but regen plus full friction would reverse it: friction
    # must shrink to the exact remainder and the step must end at rest.
    cfg = with_overrides(
        config,
        sim={"dt": 0.5},
        body={"mass": 900.0},
        motor={"max_torque": 120.0},
        drivetrain={"regen_cutoff_speed": 0.5},
    )
    state = initial_state(cfg)._replace(speed_kmh=6.0)
    cycle = synth_trapezoid(0.0, 1.0, 60.0)
    new, rec = step(state, cycle, cfg, pinned_command=-1.0)
    assert new.speed_kmh == 0.0
    cap_wheel = 120.0 * 4.8 / (0.9 * 0.284)
    brake_needed = (
        900.0 * (6.0 / 3.6) / 0.5
        - rec.rr_n
        - rec.wr_n
    )
    assert rec.motor_nm == pytest.approx(-120.0, rel=1e-9)  # regen kept at cap
    assert rec.fric_n == pytest.approx(brake_needed - cap_wheel, rel=1e-9)
    assert 0.0 < rec.fric_n < cfg.drivetrain.max_friction_brake_force
    assert rec.accel_ms2 == pytest.approx(-(6.0 / 3.6) / 0.5, rel=1e-12)


def test_udds_prefix_matches_iterated_step(config, udds):
    _run_and_step_match_reference(config, udds, 600)


# Off-grid knots (and one on it) over a 3.05 s cycle.
_SHORT = DriveCycle(
    "short",
    np.array([0.0, 0.35, 1.2, 2.0, 3.05]),
    np.array([0.0, 12.5, 7.0, 30.0, 3.0]),
)


def test_repeat_cursor_matches_target_speed_over_wraps(config):
    # 300 steps wrap _SHORT nine times. Every target must be target_speed's
    # double at the query time of the kernel's wrap rule.
    cycle = _SHORT
    cfg = with_overrides(config, sim={"max_sim_time": 30.0})
    trace, _, _ = run(cfg, cycle, passes=None)
    assert len(trace) == 300
    duration = cycle.duration_s
    wraps = 0
    for t, got in zip(trace.t_s.tolist(), trace.v_target_kmh.tolist()):
        tq = t - wraps * duration
        while tq >= duration:
            wraps += 1
            tq = t - wraps * duration
        assert got.hex() == target_speed(cycle, tq).hex(), t
    assert wraps == 9


def test_step_past_cycle_end_holds_last_target(config):
    cycle = DriveCycle("ramp", np.array([0.0, 10.0]), np.array([0.0, 50.0]))
    records, state = _step_matches_reference(config, cycle, 250)
    past_end = [r for r in records if r.t_s >= 10.0]
    assert len(past_end) > 100
    assert all(r.v_target_kmh == 50.0 for r in past_end)
    assert state.speed_kmh == pytest.approx(50.0, abs=1.0)


def test_step_from_client_replaced_mid_cycle_state(config, udds):
    # A co-simulation client may hand step() any state: here mid-interval
    # on a UDDS braking segment with a full battery, so regen clamps the
    # SoC at 1 and the saturation flag must be reported.
    state = initial_state(config)._replace(
        t_s=106.05,
        speed_kmh=48.0,
        distance_km=0.6,
        integral=-3.0,
        soc=1.0,
        terminal_voltage=351.0,
    )
    _, final = _step_matches_reference(config, udds, 300, state=state)
    assert final.soc_saturated
    assert final.t_s == pytest.approx(136.05, abs=1e-9)


# step() reuses the hoisted invariants of the last config object it saw;
# these sessions change config between ticks and must never see another's.
_LAUNCH = DriveCycle("launch", np.array([0.0, 20.0, 40.0]), np.array([0.0, 80.0, 0.0]))


def _with_mass(config, mass):
    return config._replace(body=config.body._replace(mass=mass))


def _session(config, n):
    """n uninterrupted step() calls from rest on _LAUNCH: every state and
    record."""
    state = initial_state(config)
    out = []
    for _ in range(n):
        state, record = step(state, _LAUNCH, config)
        out.append((state, record))
    return out


def _session_bits(session):
    return [(_bits(state), _bits(record)) for state, record in session]


def test_interleaved_step_sessions_keep_their_own_configs(config):
    configs = [_with_mass(config, 1200.0), _with_mass(config, 2400.0)]
    n = 250
    want = [_session_bits(_session(cfg, n)) for cfg in configs]
    assert want[0] != want[1]
    other = with_overrides(_with_mass(config, 1800.0), sim={"max_sim_time": 0.5})
    states = [initial_state(cfg) for cfg in configs]
    got = [[], []]
    for _ in range(n):
        for i, cfg in enumerate(configs):
            states[i], record = step(states[i], _LAUNCH, cfg)
            got[i].append((_bits(states[i]), _bits(record)))
            run(other, _LAUNCH)
    assert got == want


def test_concurrent_step_sessions_keep_their_own_configs(config):
    configs = [_with_mass(config, 1000.0 + 400.0 * i) for i in range(4)]
    n = 250
    want = [_session_bits(_session(cfg, n)) for cfg in configs]
    got = [None] * len(configs)

    def work(i):
        got[i] = _session(configs[i], n)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [_session_bits(session) for session in got] == want


def test_step_takes_a_replaced_config_on_the_next_tick(config):
    heavier = _with_mass(config, config.body.mass + 600.0)
    _, state = _step_matches_reference(config, _LAUNCH, 100)
    assert step(state, _LAUNCH, heavier)[1] != step(state, _LAUNCH, config)[1]
    _step_matches_reference(heavier, _LAUNCH, 100, state=state)


@pytest.mark.parametrize("route", [step, reference_step])
@pytest.mark.parametrize(
    "change, dt, error",
    [
        (dict(t_s=-0.1), 0.1, ValueError),
        ({}, 0.0, ValueError),
        (dict(speed_kmh=-1.0), 0.1, EnvelopeError),
        (dict(terminal_voltage=0.5), 0.1, DegenerateVoltageError),
        (dict(t_s=NAN), 0.1, ValueError),
        (dict(t_s=INF), 0.1, ValueError),
        ({}, NAN, ValueError),
        ({}, INF, ValueError),
        (dict(speed_kmh=NAN), 0.1, EnvelopeError),
        (dict(speed_kmh=INF), 0.1, EnvelopeError),
        (dict(terminal_voltage=NAN), 0.1, DegenerateVoltageError),
        (dict(terminal_voltage=INF), 0.1, DegenerateVoltageError),
        (dict(distance_km=NAN), 0.1, ValueError),
        (dict(integral=-INF), 0.1, ValueError),
        (dict(soc=NAN), 0.1, ValueError),
        (dict(cumulative_energy_out=INF), 0.1, ValueError),
        (dict(cumulative_energy_regen=NAN), 0.1, ValueError),
    ],
    ids=[
        "negative-time", "zero-dt", "negative-speed", "collapsed-voltage",
        "nan-time", "inf-time", "nan-dt", "inf-dt", "nan-speed", "inf-speed",
        "nan-voltage", "inf-voltage", "nan-distance", "inf-integral", "nan-soc",
        "inf-energy-out", "nan-energy-regen",
    ],
)
def test_step_rejects_invalid_client_state(config, udds, route, change, dt, error):
    cfg = with_overrides(config, sim={"dt": dt})
    state = initial_state(cfg)._replace(**change)
    with pytest.raises(error):
        route(state, udds, cfg)


@pytest.mark.parametrize(
    "change, field",
    [(dict(body={"mass": NAN}), "body.mass"), (dict(sim={"dt": 5.0}), "sim.dt")],
    ids=["nan-mass", "coarse-dt"],
)
def test_step_rejects_an_invalid_config(config, udds, change, field):
    # Validated when the config's invariants are first hoisted; an invalid
    # config is never cached, so every call raises, as run() does.
    bad = with_overrides(config, **change)
    state = initial_state(bad)
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"invalid configuration: {field}"):
            step(state, udds, bad)
    with pytest.raises(ConfigError, match=field):
        run(bad, udds)


def test_a_repeated_cycle_shorter_than_one_step_is_refused(config):
    cfg = with_overrides(config, sim={"max_sim_time": 2.0})
    with pytest.raises(CycleError, match="must last at least one step of 0.1 s"):
        run(cfg, DriveCycle("blip", (0.0, 0.05), (0.0, 0.0)), passes=None)
    # One step long is enough: every step wraps once.
    _, summary, _ = run(cfg, DriveCycle("tick", (0.0, 0.1), (0.0, 0.0)), passes=None)
    assert summary.cycles_completed == 20
    assert summary.stop_reason is StopReason.MAX_TIME


# step() resumes the kernel of the last session when handed back the state
# it returned, with the same cycle and config objects.
@pytest.fixture
def kernels(monkeypatch):
    """Every kernel created from here on: the arguments of each
    ``engine._advance`` call."""
    created = []
    advance = engine._advance

    def counting(*args, **kwargs):
        created.append(args)
        return advance(*args, **kwargs)

    monkeypatch.setattr(engine, "_advance", counting)
    return created


def test_a_step_session_creates_one_kernel(config, kernels):
    session = _session(config, 500)
    assert len(kernels) == 1
    assert session[-1][0].t_s == pytest.approx(50.0, abs=1e-9)


def test_resumed_session_follows_options_changed_every_tick(config, udds, kernels):
    # The pinned command changes on every tick and regen on some; each tick
    # must still equal the reference step, which switches regen by its flag,
    # bit for bit. Regen off is a config swap, so each swap starts one new
    # kernel, while the command changes resume the one running.
    commands = [None, None, 0.8, None, -0.7, None, 0.2, -1.0]
    off = _regen_off(config)
    ref = mine = initial_state(config)
    for i in range(600):
        regen_enabled = i % 5 != 2
        pinned_command = commands[i % 8]
        ref, want = reference_step(ref, udds, config, regen_enabled, pinned_command)
        mine, got = step(
            mine, udds, config if regen_enabled else off, pinned_command=pinned_command
        )
        assert _bits(got) == _bits(want), f"record diverges at step {i}"
        assert _bits(mine) == _bits(ref), f"state diverges at step {i}"
    # Each of the 120 regen-off ticks swaps its config in, and the next tick
    # swaps it back out.
    assert len(kernels) == 1 + 2 * 120


def test_branching_from_one_state_gives_identical_branches(config, kernels):
    state = _session(config, 120)[-1][0]
    branches = [step(state, _LAUNCH, config), step(state, _LAUNCH, config)]
    assert len(kernels) == 2  # the first resumed, the second started afresh
    # Alternating between the branches restarts a kernel on every tick.
    for _ in range(40):
        branches = [step(s, _LAUNCH, config) for s, _ in branches]
    assert _bits(branches[0][0]) == _bits(branches[1][0])
    assert _bits(branches[0][1]) == _bits(branches[1][1])
    assert len(kernels) == 2 + 80


def test_an_equal_but_new_state_starts_a_fresh_kernel(config, kernels):
    state = _session(config, 120)[-1][0]
    resumed = step(state, _LAUNCH, config)
    assert len(kernels) == 1
    copy = state._replace()
    assert copy == state and copy is not state
    fresh = step(copy, _LAUNCH, config)
    assert len(kernels) == 2
    want = reference_step(state, _LAUNCH, config)
    for got in (resumed, fresh):
        assert _bits(got[0]) == _bits(want[0])
        assert _bits(got[1]) == _bits(want[1])


@pytest.mark.parametrize("swap", ["cycle", "config"])
def test_a_new_cycle_or_config_starts_a_fresh_kernel(config, kernels, swap):
    state = _session(config, 120)[-1][0]
    cycle = _SAWTOOTH if swap == "cycle" else _LAUNCH
    cfg = _with_mass(config, 2400.0) if swap == "config" else config
    got = step(state, cycle, cfg)
    assert len(kernels) == 2
    want = reference_step(state, cycle, cfg)
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])


def test_a_kernel_that_raised_is_not_resumed(config, kernels):
    # At 1 V the first step draws a huge current, so the resumed second
    # step finds the terminal voltage collapsed and the kernel raises.
    start = initial_state(config)._replace(
        t_s=10.0, speed_kmh=50.0, terminal_voltage=1.0
    )
    state, _ = step(start, _LAUNCH, config, pinned_command=1.0)
    assert state.terminal_voltage < 1.0
    for _ in range(2):  # never StopIteration from the dead kernel
        with pytest.raises(DegenerateVoltageError):
            step(state, _LAUNCH, config, pinned_command=1.0)
    assert len(kernels) == 1
    _step_matches_reference(config, _LAUNCH, 5)
    assert len(kernels) == 2


def test_a_kernel_is_taken_before_it_resumes(config, monkeypatch):
    # A step() from the same state while that kernel runs, as another thread
    # could make, must find no kernel to resume and start its own.
    advance = engine._advance
    nested = []

    def interrupted(*args, **kwargs):
        kernel = advance(*args, **kwargs)
        # Primed, then the fresh step's own send: not yet a resume.
        out = kernel.send((yield next(kernel)))
        while True:
            options = yield out
            if not nested:
                nested.append(step(out[0], _LAUNCH, config))
            out = kernel.send(options)

    monkeypatch.setattr(engine, "_advance", interrupted)
    state, _ = step(initial_state(config), _LAUNCH, config)
    resumed = step(state, _LAUNCH, config)
    assert len(nested) == 1
    assert _session_bits(nested) == _session_bits([resumed])


# Kernels driven in chunks: a repeating _SHORT whose chunks cross its
# wraps, the stop clamp, and a tiny battery whose SoC floor (reached at step
# 53) falls inside a chunk.
def _chunk_scenario(config, name):
    """(config, cycle, kernel options: those fixed at creation and the
    command sent with each chunk)."""
    if name == "wraps":
        return config, _SHORT, dict(repeat=True, pinned_command=None)
    if name == "stop-clamp":
        return _clamp_config(config), _SAWTOOTH, dict(repeat=False, pinned_command=None)
    tiny = with_overrides(config, battery={"capacity_energy": 0.2, "soc_floor": 0.85})
    return _regen_off(tiny), _LAUNCH, dict(repeat=True, pinned_command=None)


def _hex(values):
    return None if values is None else [x.hex() for x in values]


@given(
    scenario=st.sampled_from(["wraps", "stop-clamp", "soc-floor"]),
    sizes=st.lists(st.integers(0, 80), min_size=1, max_size=6),
    trace_every=st.sampled_from([0, 1, 3, 7]),
)
@example(scenario="wraps", sizes=[29, 2, 31, 60], trace_every=1)
@example(scenario="soc-floor", sizes=[30, 40, 50], trace_every=3)
@settings(max_examples=120, deadline=None)
def test_kernel_resumed_in_chunks_equals_one_call(
    config, scenario, sizes, trace_every
):
    cfg, cycle, options = _chunk_scenario(config, scenario)
    start = initial_state(cfg)
    sent = (options["pinned_command"],)

    def kernel():
        primed = engine._advance(cfg, cycle, start, options["repeat"], trace_every)
        next(primed)
        return primed

    chunked = kernel()
    chunks = [chunked.send((n, *sent)) for n in sizes]
    end, cols, ledger_j, max_err, last = kernel().send((sum(sizes), *sent))
    if scenario == "soc-floor" and sum(sizes) >= 53:
        assert end.soc <= 0.85
    got_end, _, got_ledger, got_max_err, got_last = chunks[-1]
    assert _bits(got_end) == _bits(end)
    for i, field in enumerate(TRACE_FIELDS):
        got = [x for chunk in chunks for x in chunk[1][i]]
        assert _hex(got) == _hex(cols[i]), field
    assert _hex(got_ledger) == _hex(ledger_j)
    assert got_max_err.hex() == max_err.hex()
    assert _hex(got_last) == _hex(last)


# Finite client states anywhere in and past the UDDS cycle (1369 s).
_CLIENT_STATES = st.fixed_dictionaries({
    "t_s": st.floats(0.0, 2000.0),
    "speed_kmh": st.floats(0.0, 150.0),
    "distance_km": st.floats(0.0, 1e3),
    "integral": st.floats(-1e3, 1e3),
    "soc": st.floats(0.0, 1.0),
    "terminal_voltage": st.floats(1.0, 1e3),
    "cumulative_energy_out": st.floats(0.0, 1e3),
    "cumulative_energy_regen": st.floats(0.0, 1e3),
    "soc_saturated": st.booleans(),
})


@given(
    change=_CLIENT_STATES,
    regen_enabled=st.booleans(),
    pinned_command=st.none() | st.floats(-1.0, 1.0),
    n=st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_step_matches_reference_from_any_finite_client_state(
    config, udds, change, regen_enabled, pinned_command, n
):
    # A few steps from the drawn state: each either raises the same
    # exception type on both routes or agrees on every field as hex.
    stepped = config if regen_enabled else _regen_off(config)
    ref = mine = initial_state(config)._replace(**change)
    for _ in range(n):
        try:
            ref, want = reference_step(ref, udds, config, regen_enabled, pinned_command)
        except Exception as exc:
            with pytest.raises(Exception) as raised:
                step(mine, udds, stepped, pinned_command=pinned_command)
            assert type(raised.value) is type(exc)
            return
        mine, got = step(mine, udds, stepped, pinned_command=pinned_command)
        assert _bits(got) == _bits(want)
        assert _bits(mine) == _bits(ref)


# Config changes in the ranges test_experiments' _random_config draws, with
# a regen efficiency and cutoff of their own.
_CONFIG_CHANGES = st.fixed_dictionaries({
    "body": st.fixed_dictionaries({
        "mass": st.floats(950.0, 2300.0),
        "drag_coefficient": st.floats(0.25, 0.45),
        "frontal_area": st.floats(1.6, 2.6),
        "f0": st.floats(0.008, 0.022),
        "wheel_radius": st.floats(0.26, 0.34),
    }),
    "motor": st.fixed_dictionaries({
        "max_speed": st.floats(4400.0, 14000.0),
        "max_power": st.floats(50.0, 150.0),
        "max_torque": st.floats(50.0, 800.0),
    }),
    "drivetrain": st.fixed_dictionaries({
        "gear_ratio": st.floats(3.5, 7.0),
        "transmission_efficiency": st.floats(0.86, 0.97),
        "regen_efficiency": st.floats(0.0, 1.0),
        "regen_cutoff_speed": st.floats(0.0, 10.0),
    }),
})


@given(
    changes=_CONFIG_CHANGES,
    change=_CLIENT_STATES,
    pinned_command=st.none() | st.floats(-1.0, 1.0),
    n=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_step_at_zero_regen_efficiency_is_the_reference_with_regen_off(
    config, udds, changes, change, pinned_command, n
):
    # The reference's own regen flag, off on the drawn config and on at
    # efficiency 0, against step() at efficiency 0: the same exception type
    # or the same bits.
    drawn = with_overrides(config, **changes)
    zero = _regen_off(drawn)
    ref = also = mine = initial_state(drawn)._replace(**change)
    for _ in range(n):
        try:
            ref, want = reference_step(ref, udds, drawn, False, pinned_command)
        except Exception as exc:
            for call, args in (
                (reference_step, (also, udds, zero, True)),
                (step, (mine, udds, zero)),
            ):
                with pytest.raises(Exception) as raised:
                    call(*args, pinned_command=pinned_command)
                assert type(raised.value) is type(exc)
            return
        also, want_too = reference_step(also, udds, zero, True, pinned_command)
        mine, got = step(mine, udds, zero, pinned_command=pinned_command)
        assert _bits(got) == _bits(want) == _bits(want_too)
        assert _bits(mine) == _bits(ref) == _bits(also)


def test_step_takes_the_pinned_command_by_keyword_only(config, udds):
    # A positional False, an old regen flag, would pin the command at 0.
    with pytest.raises(TypeError):
        step(initial_state(config), udds, config, False)


def test_regen_off_run_validates_the_callers_config_first(config, udds):
    bad = with_overrides(config, drivetrain={"regen_efficiency": 2.0})
    with pytest.raises(ConfigError, match="drivetrain.regen_efficiency"):
        run(bad, udds, regen_enabled=False)


def test_runs_are_deterministic(config, udds):
    t1, s1, l1 = run(config, udds)
    t2, s2, l2 = run(config, udds)
    assert t1 == t2
    assert s1 == s2
    assert l1 == l2


def test_regen_off_equals_zero_regen_efficiency_bitwise(config, udds):
    t_off, s_off, _ = run(config, udds, regen_enabled=False)
    zero_eff = with_overrides(config, drivetrain={"regen_efficiency": 0.0})
    t_zero, s_zero, _ = run(zero_eff, udds, regen_enabled=True)
    assert np.array_equal(t_off.soc, t_zero.soc)
    assert np.array_equal(t_off.v_kmh, t_zero.v_kmh)
    assert s_off.soc_end == s_zero.soc_end


def test_soc_never_increases_without_regen(config, udds):
    trace, summary, _ = run(config, udds, regen_enabled=False)
    soc = np.concatenate(([config.battery.initial_soc], trace.soc))
    assert np.all(np.diff(soc) <= 0.0)
    assert summary.soc_end <= summary.soc_start


def test_soc_increases_only_while_braking_above_cutoff(config, udds):
    trace, _, _ = run(config, udds)
    soc = np.concatenate(([config.battery.initial_soc], trace.soc))
    rising = np.flatnonzero(np.diff(soc) > 0.0)
    assert len(rising) > 0
    v_prev = np.concatenate(([0.0], trace.v_kmh[:-1]))
    assert np.all(np.asarray(trace.cmd)[rising] < 0.0)
    assert np.all(v_prev[rising] > config.drivetrain.regen_cutoff_speed)


def test_ledger_closes_on_udds(config, udds):
    _, _, ledger = run(config, udds)
    check = ledger_check(ledger)
    assert check.passed
    assert check.residual_fraction <= 1e-6  # far tighter than the 0.5% gate


def test_ledger_detects_a_corrupted_term(config, udds):
    _, _, ledger = run(config, udds)
    corrupted = ledger._replace(
        rolling_loss=ledger.rolling_loss + 0.01 * ledger.battery_out
    )
    assert not ledger_check(corrupted).passed


def test_ledger_regen_energy_flows(config, udds):
    _, _, on = run(config, udds)
    _, _, off = run(config, udds, regen_enabled=False)
    assert on.battery_regen_in > 0.0
    assert off.battery_regen_in == 0.0
    # Discarded recovery shows up as drivetrain loss instead.
    assert off.drivetrain_loss > on.drivetrain_loss
    assert ledger_check(off).passed


def test_a_run_stopped_before_its_first_step_is_empty(config, udds):
    # A time bound shorter than one step stops the kernel before its first.
    cfg = with_overrides(config, sim={"max_sim_time": 1e-9})
    trace, summary, ledger = run(cfg, udds)
    assert len(trace) == 0
    assert summary.stop_reason is StopReason.MAX_TIME
    assert summary.duration_s == 0.0
    assert ledger.battery_out == 0.0
    assert ledger_check(ledger).passed


def test_stop_reason_priority(config, udds):
    # soc floor beats the time limit; the time limit beats cycle end.
    tiny = with_overrides(config, battery={"capacity_energy": 0.2, "soc_floor": 0.88})
    _, summary, _ = run(tiny, udds, passes=None)
    assert summary.stop_reason is StopReason.SOC_FLOOR
    assert summary.soc_end <= 0.88

    _, summary, _ = run(with_overrides(config, sim={"max_sim_time": 100.0}), udds)
    assert summary.stop_reason is StopReason.MAX_TIME
    assert summary.duration_s == pytest.approx(100.0, abs=1e-6)

    _, summary, _ = run(config, udds)
    assert summary.stop_reason is StopReason.CYCLE_END
    assert summary.duration_s == pytest.approx(1369.0, abs=1e-6)
    assert summary.cycles_completed == 1


def test_single_pass_is_bounded_by_max_sim_time(config):
    # A cycle far longer than the budget stops at sim.max_sim_time.
    cfg = with_overrides(config, sim={"max_sim_time": 10.0})
    endless = DriveCycle("endless", np.array([0.0, 1e300]), np.array([0.0, 5.0]))
    trace, summary, _ = run(cfg, endless)
    assert len(trace) == 100
    assert summary.stop_reason is StopReason.MAX_TIME
    assert summary.duration_s == pytest.approx(10.0, abs=1e-9)
    # A cycle that fits the budget exactly reports what it does without one.
    fits = with_overrides(config, sim={"max_sim_time": 40.0})
    cycle = synth_trapezoid(50.0, 15.0, 10.0)
    assert cycle.duration_s == 40.0
    t_fit, s_fit, l_fit = run(fits, cycle)
    t_ref, s_ref, l_ref = run(config, cycle)
    assert s_fit == s_ref and l_fit == l_ref
    assert s_fit.stop_reason is StopReason.CYCLE_END
    assert np.array_equal(t_fit.v_kmh, t_ref.v_kmh)


def test_repeat_mode_counts_cycles(config, udds):
    cfg = with_overrides(config, sim={"max_sim_time": 3000.0})
    _, summary, _ = run(cfg, udds, passes=None)
    assert summary.stop_reason is StopReason.MAX_TIME
    assert summary.cycles_completed == 2
    # two full cycles plus 262 s of a third
    assert 2.0 * 11.9 < summary.distance_km < 3.0 * 11.99


@pytest.mark.parametrize("n", [5, 20, 30, 83])
def test_repeat_mode_counts_cycles_by_step(config, udds, n):
    # The kernel's clock adds dt once per step, so it drifts: after 20 UDDS
    # passes it reads below 20 * 1369 s. Whole passes count in steps.
    dt = config.sim.dt
    pass_steps = engine._steps_for(udds.duration_s, dt)
    t = 0.0
    for _ in range(n * pass_steps - 1):
        t = t + dt
    assert engine._cycles_completed(t, dt, udds.duration_s) == n - 1
    t = t + dt
    assert engine._cycles_completed(t, dt, udds.duration_s) == n
    if n == 20:
        assert t < n * udds.duration_s
        cfg = with_overrides(config, sim={"max_sim_time": n * udds.duration_s})
        _, summary, _ = run(cfg, udds, passes=None)
        assert summary.duration_s == t
        assert summary.cycles_completed == n


@pytest.mark.parametrize("n", [2, 3, 7])
def test_passes_equal_a_concatenated_cycle_but_count_every_pass(config, udds, n):
    # UDDS is closed (it starts and ends at rest), so its concatenation has
    # no join knots: N kernel passes give its bits, and count N.
    trace, summary, ledger = run(config, udds, passes=n)
    ref_trace, ref_summary, ref_ledger = run(config, repeat(udds, n))
    for field in TRACE_FIELDS:
        assert _hex(getattr(trace, field)) == _hex(getattr(ref_trace, field)), field
    assert _bits(ledger) == _bits(ref_ledger)
    assert summary.cycles_completed == n and ref_summary.cycles_completed == 1
    assert _bits(summary._replace(cycles_completed=1)) == _bits(ref_summary)
    assert summary.stop_reason is StopReason.CYCLE_END


def test_passes_must_be_at_least_one(config, udds):
    with pytest.raises(ValueError, match="passes must be >= 1"):
        run(config, udds, passes=0)


def test_trace_is_a_frozen_value(config):
    trace, _, _ = run(config, synth_trapezoid(50.0, 10.0, 5.0))
    assert len(trace) == 250
    with pytest.raises(AttributeError):
        trace.soc = trace.v_kmh
    same = SimTrace(**{name: getattr(trace, name) for name in TRACE_FIELDS})
    assert same == trace
    assert same != SimTrace(*(getattr(trace, name)[:-1] for name in TRACE_FIELDS))
    with pytest.raises(TypeError, match="unhashable"):
        hash(trace)
    assert trace.record(249) == tuple(getattr(trace, f)[249] for f in TRACE_FIELDS)


def test_trace_decimation(config, udds):
    full, _, _ = run(config, udds)
    thin, summary, _ = run(config, udds, trace_every=7)
    assert len(thin) == (len(full) + 6) // 7
    assert np.array_equal(thin.soc, full.soc[::7])
    none, summary2, _ = run(config, udds, trace_every=0)
    assert len(none) == 0
    assert summary2 == summary  # summary unaffected by collection


@pytest.mark.parametrize("trace_every", [0, 1, 7])
def test_every_trace_column_is_its_own_array(config, udds, trace_every):
    cfg = with_overrides(config, sim={"max_sim_time": 60.0})
    trace, _, _ = run(cfg, udds, trace_every=trace_every)
    columns = [getattr(trace, f) for f in TRACE_FIELDS]
    assert all(type(c) is array and c.typecode == "d" for c in columns)
    assert len({id(c) for c in columns}) == len(TRACE_FIELDS)


def test_trace_collection_peaks_below_300_bytes_per_kept_row(config, udds):
    # One flat buffer, sliced into its columns at the end of the chunk: the
    # buffer (about 128 B a row) and the columns (120 B) are all it holds.
    cfg = with_overrides(config, sim={"max_sim_time": 5 * 1369.0})
    engine._invariants(cfg)  # hoisted before tracing starts
    tracemalloc.start()
    try:
        trace, _, _ = run(cfg, udds, passes=None, trace_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 5 * 13690
    assert peak / len(trace) <= 300.0


def test_torque_capped_to_zero_beyond_motor_ceiling(config):
    # A short gear makes the motor ceiling bind at ~90 km/h; the engine
    # must coast rather than raise.
    cfg = with_overrides(config, drivetrain={"gear_ratio": 10.0})
    cycle = synth_trapezoid(150.0, 60.0, 60.0)
    state = initial_state(cfg)
    records = []
    for _ in range(1200):  # 120 s at full throttle
        state, record = step(state, cycle, cfg, pinned_command=1.0)
        records.append(record)
    v = np.array([r.v_kmh for r in records])
    rpm = np.array([r.motor_rpm for r in records])
    torque = np.array([r.motor_nm for r in records])
    ceiling_kmh = cfg.motor.max_speed / (
        10.0 * (60.0 / (2.0 * np.pi)) / (3.6 * cfg.body.wheel_radius)
    )
    assert np.max(v) <= ceiling_kmh * 1.02
    assert np.any(rpm > cfg.motor.max_speed)
    assert np.all(torque[rpm > cfg.motor.max_speed] == 0.0)


def test_degenerate_voltage_propagates(config, udds):
    bad = with_overrides(config, battery={"nominal_voltage": 0.8})
    with pytest.raises(DegenerateVoltageError):
        run(bad, udds)


def test_invalid_config_is_rejected(config, udds):
    from bevsim import ConfigError

    bad = with_overrides(config, body={"mass": -5.0})
    with pytest.raises(ConfigError, match="mass"):
        run(bad, udds)


def test_tracking_error_fields(config, udds):
    _, summary, _ = run(config, udds)
    assert 0.0 < summary.max_tracking_error_kmh < 5.0
    assert summary.max_tracking_error_pct == pytest.approx(
        100.0 * summary.max_tracking_error_kmh / 91.251285, rel=1e-9
    )
