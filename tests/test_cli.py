import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevsim import PlotError, parse_config, run, synth_trapezoid
from bevsim.cli import build_parser, emit_trace, main
from bevsim.cycle import serialize_cycle
from bevsim.engine import TRACE_FIELDS, SimTrace
from bevsim.experiments import accel_test, top_speed_test
from bevsim.params import serialize_config, with_overrides
from bevsim.plots import emit_plot

EXPECTED_HEADER = (
    "t_s,v_target_kmh,v_kmh,dist_km,cmd,motor_nm,motor_rpm,fric_n,"
    "batt_kw,current_a,volt_v,soc,rr_n,wr_n,accel_ms2"
)


@pytest.fixture()
def short_cycle_path(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(serialize_cycle(synth_trapezoid(50.0, 10.0, 5.0)))
    return str(path)


@pytest.fixture()
def small_config_path(tmp_path, small_battery_config):
    path = tmp_path / "vehicle.json"
    path.write_text(serialize_config(small_battery_config))
    return str(path)


def test_simulate_happy_path(tmp_path, short_cycle_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        ["simulate", "--cycle", short_cycle_path, "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "simulate"
    assert payload["summary"]["stop_reason"] == "cycle_end"
    assert payload["ledger"]["check_passed"] is True
    lines = out.read_text().strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 1 + 250  # 25 s at dt=0.1


def test_trace_csv_round_trips_within_1e5(tmp_path, config):
    cycle = synth_trapezoid(50.0, 10.0, 5.0)
    trace, _, _ = run(config, cycle)
    path = tmp_path / "trace.csv"
    emit_trace(trace, str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == list(TRACE_FIELDS)
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    for j, field in enumerate(TRACE_FIELDS):
        col = getattr(trace, field)
        scale = np.maximum(np.abs(col), 1e-30)
        assert np.all(np.abs(rows[:, j] - col) / scale <= 1e-5 + 1e-12), field


def test_emit_trace_three_steps_gives_four_lines(tmp_path, config, udds):
    cfg = with_overrides(config, sim={"max_sim_time": 3 * config.sim.dt})
    trace, _, _ = run(cfg, udds)
    path = tmp_path / "three.csv"
    emit_trace(trace, str(path))
    assert len(path.read_text().strip().split("\n")) == 4


def test_emit_trace_empty_gives_header_only(tmp_path, config, udds):
    trace, _, _ = run(with_overrides(config, sim={"max_sim_time": 1e-9}), udds)
    path = tmp_path / "empty.csv"
    emit_trace(trace, str(path))
    assert path.read_text() == EXPECTED_HEADER + "\n"


def test_emit_trace_decimation(tmp_path, config):
    cycle = synth_trapezoid(50.0, 10.0, 5.0)
    trace, _, _ = run(config, cycle, trace_every=10)
    path = tmp_path / "thin.csv"
    emit_trace(trace, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 25


def test_emit_trace_formats_edge_values_like_format_6g(tmp_path):
    values = [-0.0, 1e-05, 5e-324, 1e16, 999999.5, 123456.5, np.inf, np.nan]
    # Rotate the values so every column holds each of them once.
    cols = {
        f: array("d", values[j % 8:] + values[:j % 8])
        for j, f in enumerate(TRACE_FIELDS)
    }
    path = tmp_path / "edges.csv"
    emit_trace(SimTrace(**cols), str(path))
    expected = [EXPECTED_HEADER] + [
        ",".join(format(float(cols[f][i]), ".6g") for f in TRACE_FIELDS)
        for i in range(len(values))
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_emit_trace_writes_pinned_6g_bytes(tmp_path):
    # Exact text, not format() as the oracle; -0 also shows that a column
    # keeps its signed zero.
    pinned = {
        -0.0: "-0", 5e-324: "4.94066e-324", 1e-05: "1e-05",
        0.000123456789: "0.000123457", 123456.5: "123456",
        1234567.0: "1.23457e+06", 1e21: "1e+21",
    }
    cols = {f: array("d", pinned) for f in TRACE_FIELDS}
    path = tmp_path / "pinned.csv"
    emit_trace(SimTrace(**cols), str(path))
    rows = [",".join([text] * len(TRACE_FIELDS)) for text in pinned.values()]
    assert path.read_text() == "\n".join([EXPECTED_HEADER] + rows) + "\n"


def test_repeated_invocations_are_byte_identical(tmp_path, short_cycle_path, capsys):
    outputs = []
    files = []
    for tag in ("a", "b"):
        out = tmp_path / f"trace_{tag}.csv"
        svg = tmp_path / f"plot_{tag}.svg"
        code = main(
            [
                "simulate",
                "--cycle", short_cycle_path,
                "--out", str(out),
                "--plot", str(svg),
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
        files.append((out.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]
    assert files[0] == files[1]


def test_missing_config_names_the_file(capsys):
    code = main(["simulate", "--config", "missing.json"])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


def test_malformed_cycle_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,v_kmh\n0,0\n2,5\n1,3\n")
    code = main(["simulate", "--cycle", str(bad)])
    assert code == 1
    assert "row" in capsys.readouterr().err


# A usage error is one line and exit 1, as every other bad input is: an
# unknown flag, a flag the subcommand does not read, a bad or missing
# value, a value its type refuses, a missing or unknown subcommand.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate", "--warp-speed"], "unrecognized arguments: --warp-speed"),
        (["simulate", "--no-regen"], "unrecognized arguments: --no-regen"),
        (["accel", "--cycle", "u.csv"], "unrecognized arguments: --cycle u.csv"),
        (["size-motor", "--dt", "5"], "unrecognized arguments: --dt 5"),
        (["validate", "--regen-eff", "1"], "unrecognized arguments: --regen-eff 1"),
        (["simulate", "--every", "x"], "argument --every: invalid int value: 'x'"),
        (["range", "--every"], "argument --every: expected one argument"),
        (["simulate", "--repeat", "0"], "argument --repeat: must be >= 1 (got 0)"),
        (["range", "--every", "-3"], "argument --every: must be >= 1 (got -3)"),
        (["topspeed", "--duration", "fast"], "argument --duration: invalid float value"),
        ([], "the following arguments are required: subcommand"),
        (["warp"], "argument subcommand: invalid choice: 'warp'"),
    ],
    ids=["unknown", "removed", "unread-cycle", "unread-dt", "unread-regen-eff",
         "bad-int", "missing-value", "zero-repeat", "negative-every", "bad-float",
         "no-subcommand", "unknown-subcommand"],
)
def test_unknown_flag_exits_one(capsys, argv, expected):
    _assert_one_line_error(capsys, main(argv), expected)


@pytest.mark.parametrize(
    "argv", [["--help"], ["accel", "--help"], ["defaults", "-h"]],
    ids=["bevsim", "accel", "defaults"],
)
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: bevsim")


def test_defaults_round_trips(capsys):
    assert main(["defaults"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    from bevsim import default_config

    assert cfg == default_config()


def test_validate_accepts_valid_config(tmp_path, small_config_path, capsys):
    code = main(["validate", "--config", small_config_path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_validate_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"body": {"mass": -1}}')
    code = main(["validate", "--config", str(path)])
    assert code == 1
    assert "mass" in capsys.readouterr().err


def test_lowering_the_peak_torque_alone_is_a_valid_config(tmp_path, capsys):
    # The motor enters only through its peak envelope: no rated point has to
    # stay below it.
    path = tmp_path / "vehicle.json"
    path.write_text('{"motor": {"max_torque": 80}}')
    assert main(["simulate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ledger"]["check_passed"] is True


@pytest.mark.parametrize(
    "section, key",
    [("motor", "rated_torque"), ("motor", "rated_power"), ("motor", "rated_speed"),
     ("driver", "command_min"), ("driver", "command_max")],
)
def test_removed_config_keys_exit_one(tmp_path, capsys, section, key):
    path = tmp_path / "vehicle.json"
    path.write_text(json.dumps({section: {key: 1.0}}))
    code = main(["simulate", "--config", str(path)])
    _assert_one_line_error(
        capsys, code, f"unknown key(s) in section '{section}': {key}"
    )


def _assert_one_line_error(capsys, code, expected, exit_code=1):
    out, err = capsys.readouterr()
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, doc, expected",
    [
        ("simulate", '{"body": {"mass": Infinity}}', "body.mass: must be finite"),
        ("range", '{"sim": {"max_sim_time": Infinity}}', "sim.max_sim_time"),
        ("validate", '{"battery": {"initial_soc": NaN}}', "battery.initial_soc"),
    ],
)
def test_non_finite_config_exits_one(tmp_path, capsys, subcommand, doc, expected):
    path = tmp_path / "vehicle.json"
    path.write_text(doc)
    code = main([subcommand, "--config", str(path)])
    _assert_one_line_error(capsys, code, expected)


def test_non_finite_override_exits_one(short_cycle_path, capsys):
    code = main(["simulate", "--cycle", short_cycle_path, "--regen-eff", "nan"])
    _assert_one_line_error(capsys, code, "drivetrain.regen_efficiency")


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def _float_flags():
    # float itself, and the float types that hold a flag to its rule.
    return [
        (name, action.option_strings[0])
        for name, sub in _subparsers().items()
        for action in sub._actions
        if getattr(action.type, "__name__", None) == "float"
    ]


# Flags that override a config field are reported under the field's name.
_OVERRIDDEN_FIELD = {
    "--dt": "sim.dt",
    "--regen-eff": "drivetrain.regen_efficiency",
    "--until-soc": "battery.soc_floor",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("subcommand, flag", _float_flags())
def test_non_finite_float_flag_exits_one(
    small_config_path, capsys, subcommand, flag, value
):
    code = main(
        [subcommand, "--config", small_config_path, f"{flag}={value}"]
    )
    _assert_one_line_error(capsys, code, _OVERRIDDEN_FIELD.get(flag, flag))


def test_float_flags_cover_every_numeric_option():
    assert {flag for _, flag in _float_flags()} == {
        "--dt", "--regen-eff", "--until-soc", "--target", "--duration",
        "--speed", "--power",
    }


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["topspeed", "--duration", "0"],
         "argument --duration: must be finite and > 0 (got 0)"),
        (["topspeed", "--duration", "-1"],
         "argument --duration: must be finite and > 0 (got -1)"),
        (["accel", "--target", "-5"],
         "argument --target: must be finite and >= 0 (got -5)"),
        (["size-motor", "--speed", "-1"],
         "argument --speed: must be finite and > 0 (got -1)"),
        (["size-motor", "--power", "0"],
         "argument --power: must be finite and > 0 (got 0)"),
    ],
    ids=["zero-duration", "negative-duration", "negative-target",
         "negative-speed", "zero-power"],
)
def test_out_of_range_float_flag_exits_one(small_config_path, capsys, argv, expected):
    code = main(argv + ["--config", small_config_path])
    _assert_one_line_error(capsys, code, expected)


# Inputs whose arithmetic overflows, or whose result is not finite: each
# exits 2 with one line, never a traceback or NaN/Infinity in the JSON.
@pytest.mark.parametrize(
    "argv, doc, expected",
    [
        (
            ["simulate"], {"body": {"mass": 1e-300}},
            "rolling resistance overflowed at t = ",
        ),
        (
            ["topspeed"], {"drivetrain": {"gear_ratio": 1e-300}},
            "rolling resistance overflowed (speed 8.56524e+302 km/h)",
        ),
        (
            ["accel"], {"motor": {"max_speed": 1e300}},
            "rolling resistance overflowed (speed 2.23053e+298 km/h)",
        ),
        (
            ["topspeed"], {"motor": {"max_speed": 1e300}},
            "rolling resistance overflowed (speed 2.23053e+298 km/h)",
        ),
        (["simulate"], {"body": {"mass": 1e-10}}, ""),
        (
            ["range", "--until-soc", "0.85"],
            {"body": {"wheel_radius": 5e-324}, "sim": {"dt": 1.0}}, "",
        ),
        (["topspeed"], {"drivetrain": {"gear_ratio": 5e-324}}, ""),
        # The soc floor stops the run on the very step its voltage collapses.
        (
            ["range", "--until-soc", "0.85"], {"motor": {"efficiency": 5e-324}},
            "terminal voltage -inf V below 1 V floor at t = 20.3 s",
        ),
    ],
    ids=["kernel-overflow", "oracle-overflow", "accel-oracle-overflow",
         "topspeed-oracle-overflow", "infinite-residual", "nan-report",
         "infinite-speed-ceiling", "collapsed-voltage-at-floor"],
)
def test_overflowing_or_non_finite_result_exits_two(
    tmp_path, capsys, argv, doc, expected
):
    path = tmp_path / "vehicle.json"
    path.write_text(json.dumps(doc))
    code = main(argv + ["--config", str(path)])
    _assert_one_line_error(capsys, code, expected, exit_code=2)


# max_sim_time / dt overflows to an infinite step count: a config error
# naming both fields, from the --dt flag or from the file.
@pytest.mark.parametrize(
    "argv, doc",
    [
        (["simulate", "--dt", "5e-324"], {}),
        (["range"], {"sim": {"dt": 1e-300, "max_sim_time": 1e10}}),
    ],
    ids=["step-count-overflow", "config-file"],
)
def test_step_count_that_overflows_exits_one(tmp_path, capsys, argv, doc):
    path = tmp_path / "vehicle.json"
    path.write_text(json.dumps(doc))
    code = main(argv + ["--config", str(path)])
    _assert_one_line_error(
        capsys, code, "sim.max_sim_time / sim.dt: must be a finite step count"
    )


# duration / dt overflows to an infinite step count: a runtime error naming
# the duration and the step, from a flag or from a single-pass cycle.
@pytest.mark.parametrize(
    "argv, knots",
    [
        (["topspeed", "--duration", "1e300", "--dt", "1e-10"], None),
        (["simulate", "--dt", "1e-10"], "0,0\n1e300,5\n"),
    ],
    ids=["topspeed-duration", "single-pass-cycle"],
)
def test_step_count_of_a_duration_that_overflows_exits_two(
    tmp_path, capsys, argv, knots
):
    if knots is not None:
        path = tmp_path / "cycle.csv"
        path.write_text("t_s,v_kmh\n" + knots)
        argv = argv + ["--cycle", str(path)]
    _assert_one_line_error(
        capsys, main(argv),
        "step count overflowed (duration 1e+300 s, step 1e-10 s)", exit_code=2,
    )


# A drag coefficient of 9.3e6 at dt 1 s leaves a residual of about 7000
# times the battery output: the JSON still prints, then the run exits 2.
@pytest.mark.parametrize(
    "argv", [["simulate"], ["range", "--until-soc", "0.85"]], ids=["simulate", "range"]
)
def test_ledger_that_does_not_close_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "vehicle.json"
    path.write_text('{"body": {"drag_coefficient": 9.3e6}}')
    code = main(argv + ["--dt", "1", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["ledger"]["check_passed"] is False
    assert err.startswith("error: energy ledger does not close: ")
    assert err.count("\n") == 1, err


def test_compare_regen_ledger_that_does_not_close_exits_two(tmp_path, capsys):
    # Both reports still print, then the first leg whose ledger fails is named.
    path = tmp_path / "vehicle.json"
    path.write_text('{"body": {"drag_coefficient": 9.3e6}}')
    code = main(
        ["range", "--compare-regen", "--dt", "1", "--until-soc", "0.85",
         "--config", str(path)]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert set(json.loads(out)["reports"]) == {"regen_on", "regen_off"}
    assert err.startswith("error: the regen-on leg's energy ledger does not close: ")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv",
    [["range"], ["range", "--compare-regen"], ["simulate", "--repeat", "2"]],
    ids=["one-leg", "compare", "simulate-repeat"],
)
def test_range_over_a_cycle_shorter_than_one_step_exits_one(tmp_path, capsys, argv):
    # Repeated, each 0.1 s step would wrap a 0.05 s cycle twice; at 1e-300 s
    # it would wrap without bound. simulate --repeat repeats as range does.
    cycle = tmp_path / "blip.csv"
    cycle.write_text("t_s,v_kmh\n0,0\n0.05,0\n")
    config = tmp_path / "vehicle.json"
    config.write_text('{"sim": {"max_sim_time": 5}}')
    code = main(argv + ["--cycle", str(cycle), "--config", str(config)])
    _assert_one_line_error(capsys, code, "a repeated cycle must last at least one step")


def test_single_pass_longer_than_max_sim_time_stops(tmp_path, capsys):
    cycle = tmp_path / "endless.csv"
    cycle.write_text("t_s,v_kmh\n0,0\n1e300,5\n")
    config = tmp_path / "vehicle.json"
    config.write_text('{"sim": {"max_sim_time": 5}}')
    code = main(["simulate", "--config", str(config), "--cycle", str(cycle)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["stop_reason"] == "max_time"
    assert summary["duration_s"] == pytest.approx(5.0, abs=1e-9)


def test_validate_requires_config(capsys):
    assert main(["validate"]) == 1


def test_range_compare_regen_reports_gain(small_config_path, capsys):
    code = main(
        [
            "range",
            "--config", small_config_path,
            "--until-soc", "0.5",
            "--compare-regen",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "range"
    on = payload["reports"]["regen_on"]
    off = payload["reports"]["regen_off"]
    assert on["distance_km"] > off["distance_km"]
    assert payload["gain_percent"] > 0.0
    assert payload["reference_gain_percents"] == [23.0, 25.0, 25.5]


@pytest.mark.parametrize("extra", [[], ["--compare-regen"]], ids=["one-leg", "compare"])
def test_until_soc_prints_the_bytes_of_the_config_floor(tmp_path, capsys, extra):
    path = tmp_path / "floor.json"
    path.write_text('{"battery": {"soc_floor": 0.85}}')
    outputs = []
    for flags in (["--until-soc", "0.85"], ["--config", str(path)]):
        assert main(["range"] + extra + flags) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_range_single_leg_with_outputs(tmp_path, small_config_path, capsys):
    out = tmp_path / "range.csv"
    svg = tmp_path / "range.svg"
    code = main(
        [
            "range",
            "--config", small_config_path,
            "--until-soc", "0.6",
            "--out", str(out),
            "--plot", str(svg),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["soc_end"] <= 0.6 + 1e-9
    assert payload["ledger"]["check_passed"] is True
    assert out.read_text().startswith(EXPECTED_HEADER)
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("flag", ["--out", "--plot"])
def test_range_compare_regen_rejects_outputs(tmp_path, small_config_path, capsys, flag):
    # A comparison writes no trace or plot, so asking for one is an error.
    path = tmp_path / "asked-for"
    code = main(
        ["range", "--config", small_config_path, "--compare-regen", flag, str(path)]
    )
    _assert_one_line_error(capsys, code, f"--compare-regen conflicts with {flag}")
    assert not path.exists()


def test_range_compare_regen_without_distance_exits_two(tmp_path, capsys):
    # A standing vehicle draws nothing, so neither leg reaches its floor or
    # covers any distance before sim.max_sim_time: no gain is defined.
    cycle_path = tmp_path / "zero.csv"
    cycle_path.write_text("t_s,v_kmh\n0,0\n10,0\n")
    config_path = tmp_path / "cfg.json"
    config_path.write_text('{"sim": {"max_sim_time": 100.0}}')
    code = main(
        ["range", "--compare-regen", "--cycle", str(cycle_path),
         "--config", str(config_path)]
    )
    _assert_one_line_error(
        capsys, code, "the regen-off leg covered no distance", exit_code=2
    )


def test_range_rejects_floor_above_initial_soc(small_config_path, capsys):
    code = main(
        ["range", "--config", small_config_path, "--until-soc", "0.95"]
    )
    _assert_one_line_error(
        capsys, code,
        "battery.soc_floor: must satisfy soc_floor < initial_soc (got 0.95 >= 0.9)",
    )


# --until-soc overrides battery.soc_floor and is held to the config's rules.
@pytest.mark.parametrize(
    "floor, expected",
    [
        ("-0.5", "battery.soc_floor: must be in [0, 1] (got -0.5)"),
        ("0.9", "battery.soc_floor: must satisfy soc_floor < initial_soc"),
    ],
    ids=["-0.5", "0.9"],
)
def test_range_rejects_floor_outside_unit_range(
    small_config_path, capsys, floor, expected
):
    code = main(["range", "--config", small_config_path, f"--until-soc={floor}"])
    _assert_one_line_error(capsys, code, expected)


def test_accel_command(capsys, tmp_path):
    svg = tmp_path / "accel.svg"
    code = main(["accel", "--target", "60", "--plot", str(svg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["target_kmh"] == 60.0
    assert payload["report"]["time_to_target_s"] > 0.0
    assert payload["oracle_time_s"] == pytest.approx(
        payload["report"]["time_to_target_s"], rel=0.02
    )
    assert payload["reference_time_to_100_s"] == 9.5
    assert svg.read_text().startswith("<svg")


def test_accel_unreachable_exits_two(capsys):
    code = main(["accel", "--target", "500"])
    assert code == 2
    assert "force-balance" in capsys.readouterr().err


def test_topspeed_command(capsys, tmp_path):
    svg = tmp_path / "top.svg"
    code = main(["topspeed", "--duration", "60", "--plot", str(svg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["oracle_vmax_kmh"] == pytest.approx(171.8, abs=0.5)
    assert payload["reference_top_speed_kmh"] == 190.0
    assert svg.exists()


def test_size_motor_command(capsys):
    code = main(["size-motor", "--speed", "120"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["power_kw"] == pytest.approx(28.46, abs=0.005)

    code = main(["size-motor", "--power", "29.48"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sustained_speed_kmh"] == pytest.approx(122.0, abs=1.0)

    code = main(["size-motor"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design_speed_kmh"] == 120.0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--speed", "1e100"], "design speed must be <= 100000 km/h"),
        (["--power", "1e308"], "no speed below 100000 km/h"),
    ],
    ids=["speed", "power"],
)
def test_size_motor_beyond_the_speed_bound_exits_two(capsys, argv, expected):
    # Finite, but far past any road speed, where the road loads overflow.
    code = main(["size-motor"] + argv)
    _assert_one_line_error(capsys, code, expected, exit_code=2)


def test_dt_override(short_cycle_path, capsys):
    code = main(["simulate", "--cycle", short_cycle_path, "--dt", "0.05"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["duration_s"] == pytest.approx(25.0, abs=1e-6)
    assert main(["simulate", "--cycle", short_cycle_path, "--dt", "0"]) == 1


def test_simulate_repeat_flag(short_cycle_path, capsys):
    code = main(["simulate", "--cycle", short_cycle_path, "--repeat", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["duration_s"] == pytest.approx(75.0, abs=1e-6)
    assert main(["simulate", "--cycle", short_cycle_path, "--repeat", "0"]) == 1


def test_simulate_repeat_counts_every_pass(capsys):
    # The clock drifts below 20 * 1369 s; the count goes by steps.
    for n in (3, 20):
        assert main(["simulate", "--repeat", str(n)]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert summary["cycles_completed"] == n
        assert summary["stop_reason"] == "cycle_end"
        # The cycle block describes the cycle as given, not n copies.
        assert payload["cycle"]["name"] == "udds"
        assert payload["cycle"]["duration_s"] == 1369.0
    assert summary["duration_s"] == 27379.99999988206


def test_simulate_repeat_past_max_sim_time_stops_at_the_bound(
    tmp_path, short_cycle_path, capsys
):
    # The cycle lasts 25 s, so a 50 s bound ends a third pass before it
    # starts, and two passes end on the bound's last step, as a cycle end.
    # A count too large for a float is clipped to the bound before it
    # multiplies the cycle's duration.
    config = tmp_path / "vehicle.json"
    config.write_text('{"sim": {"max_sim_time": 50}}')
    args = ["simulate", "--config", str(config), "--cycle", short_cycle_path]
    for n in ("3", "1000000000", "1" + "0" * 400, "2"):
        assert main(args + ["--repeat", n]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["duration_s"] == pytest.approx(50.0, abs=1e-6)
        assert summary["cycles_completed"] == 2
        assert summary["stop_reason"] == ("cycle_end" if n == "2" else "max_time")


def test_simulate_repeat_stops_at_the_soc_floor(tmp_path, capsys):
    # A 1 kWh battery cannot drive three UDDS passes: a repeated run stops
    # at battery.soc_floor instead of driving on an empty battery.
    config = tmp_path / "vehicle.json"
    config.write_text('{"battery": {"capacity_energy": 1.0}}')
    assert main(["simulate", "--config", str(config), "--repeat", "3"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["stop_reason"] == "soc_floor"
    assert 0.09 < summary["soc_end"] <= 0.1
    assert summary["energy_out_kwh"] < 0.9
    assert summary["cycles_completed"] == 0


# Each subcommand takes only the flags it reads: 29 in all.
_FLAGS = {
    "simulate": {"--config", "--cycle", "--dt", "--regen-eff", "--out", "--plot",
                 "--every", "--repeat"},
    "range": {"--config", "--cycle", "--dt", "--regen-eff", "--until-soc",
              "--compare-regen", "--out", "--plot", "--every"},
    "accel": {"--config", "--dt", "--target", "--plot"},
    "topspeed": {"--config", "--dt", "--duration", "--plot"},
    "size-motor": {"--config", "--speed", "--power"},
    "validate": {"--config"},
    "defaults": set(),
}


def test_every_subcommand_documents_every_flag():
    subparsers = _subparsers()
    assert {
        name: {opt for action in sub._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.items()
    } == _FLAGS
    assert sum(map(len, _FLAGS.values())) == 29
    for name, sub in subparsers.items():
        help_text = sub.format_help()
        for action in sub._actions:
            assert action.help, f"{name}: {action.option_strings} lacks help text"
            for opt in action.option_strings:
                assert opt in help_text, f"{name}: {opt} missing from --help"


def test_plot_kinds_render(config, udds, tmp_path):
    trace, _, _ = run(with_overrides(config, sim={"max_sim_time": 120.0}), udds)
    for kind in ("tracking", "range_soc"):
        path = tmp_path / f"{kind}.svg"
        emit_plot(trace, kind, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert "time [s]" in text


@pytest.mark.parametrize(
    "kind, title, level",
    [
        ("accel", "Full-throttle acceleration to 60 km/h", "target"),
        ("topspeed", "Full-throttle top speed", "force-balance limit"),
    ],
)
def test_report_plots_draw_their_title_and_legend(config, tmp_path, kind, title, level):
    report = (accel_test if kind == "accel" else top_speed_test)(config, 60.0)
    path = tmp_path / f"{kind}.svg"
    emit_plot(report, kind, str(path))
    text = path.read_text()
    for label in (title, "time [s]", "speed [km/h]", level, "actual"):
        assert f">{label}</text>" in text, label
    assert text.count("<polyline") == 2
    other, name = (
        ("topspeed", "TopSpeedReport") if kind == "accel" else ("accel", "AccelReport")
    )
    with pytest.raises(PlotError, match=f"^{other} plot needs a non-empty {name}$"):
        emit_plot(report, other, str(tmp_path / "never.svg"))
    empty = report._replace(speed_trajectory=())
    with pytest.raises(PlotError, match=f"^{kind} plot needs a non-empty"):
        emit_plot(empty, kind, str(tmp_path / "never.svg"))
    assert not (tmp_path / "never.svg").exists()


def test_plot_rejects_empty_trace(config, udds, tmp_path):
    empty, _, _ = run(with_overrides(config, sim={"max_sim_time": 1e-9}), udds)
    target = tmp_path / "never.svg"
    with pytest.raises(PlotError):
        emit_plot(empty, "tracking", str(target))
    assert not target.exists()


def test_plot_rejects_unknown_kind(config, udds, tmp_path):
    trace, _, _ = run(with_overrides(config, sim={"max_sim_time": 10.0}), udds)
    with pytest.raises(PlotError):
        emit_plot(trace, "waterfall", str(tmp_path / "x.svg"))


def test_tracking_plot_has_both_curves(config, udds, tmp_path):
    trace, _, _ = run(with_overrides(config, sim={"max_sim_time": 200.0}), udds)
    path = tmp_path / "tracking.svg"
    emit_plot(trace, "tracking", str(path))
    text = path.read_text()
    assert ">target</text>" in text
    assert ">actual</text>" in text
    assert text.count("<polyline") == 2


# Every command that writes a file or runs the two-lane regen comparison.
_NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bevsim.cli import main

for argv in (
    ["simulate", "--out", "sim.csv", "--plot", "sim.svg"],
    ["range", "--until-soc", "0.85", "--out", "r.csv", "--plot", "r.svg",
     "--every", "1"],
    ["range", "--compare-regen", "--until-soc", "0.85"],
    ["accel", "--plot", "a.svg"],
    ["topspeed", "--plot", "t.svg"],
):
    assert main(argv) == 0, argv
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "numpy" and mod]
assert not loaded, loaded
"""


def test_cli_runs_without_numpy(tmp_path, package_env):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN],
        cwd=tmp_path, env=package_env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("sim.csv", "sim.svg", "r.csv", "r.svg", "a.svg", "t.svg"):
        assert (tmp_path / name).stat().st_size > 0, name


# Property fuzz of main: extreme config values, short cycles and every
# scenario command. Whatever the input, main returns 0, 1 or 2; an error is
# one stderr line, and a success prints JSON with only finite numbers.
_EXTREMES = st.sampled_from([0.0, 5e-324, 1e-300, 1e300])
_FUZZED_FIELDS = {
    "body": (
        "mass", "wheel_radius", "frontal_area", "drag_coefficient",
        "f0", "f1", "f4", "gravity",
    ),
    "battery": (
        "capacity_energy", "nominal_voltage", "internal_resistance",
        "coulombic_efficiency", "initial_soc", "soc_floor",
    ),
    "motor": ("max_torque", "max_power", "max_speed", "efficiency"),
    "drivetrain": (
        "gear_ratio", "transmission_efficiency", "max_friction_brake_force",
        "regen_efficiency", "regen_cutoff_speed",
    ),
    "driver": ("kp", "ki"),
}
_CONFIG_DOCS = st.fixed_dictionaries(
    {
        "sim": st.fixed_dictionaries({
            "dt": st.sampled_from([0.1, 1.0, 5e-324]),
            "max_sim_time": st.sampled_from([0.5, 30.0, 300.0]),
        }),
    },
    optional={
        section: st.dictionaries(st.sampled_from(fields), _EXTREMES, max_size=2)
        for section, fields in _FUZZED_FIELDS.items()
    },
)
# 2-6 knots from t = 0; some gaps are shorter than any step.
_CYCLES = st.none() | st.lists(
    st.tuples(
        st.sampled_from([1e-300, 0.05, 0.3, 7.0, 120.0]), st.floats(0.0, 150.0)
    ),
    min_size=1, max_size=5,
)
_COMMANDS = st.sampled_from([
    ["simulate"],
    ["simulate", "--repeat", "3", "--every", "7", "--out", "t.csv"],
    ["simulate", "--regen-eff", "0", "--plot", "t.svg"],
    ["range"],
    ["range", "--until-soc", "0.85", "--out", "r.csv", "--plot", "r.svg"],
    ["range", "--compare-regen"],
    ["range", "--compare-regen", "--until-soc", "0.5"],
    ["accel"],
    ["accel", "--target", "30", "--plot", "a.svg"],
    ["accel", "--target", "1e300"],
    ["topspeed", "--duration", "300", "--plot", "s.svg"],
    ["topspeed", "--duration", "1e-300"],
    ["size-motor", "--speed", "1e-300"],
    ["size-motor", "--power", "50", "--speed", "80"],
    ["size-motor", "--power", "1e300"],
])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@given(doc=_CONFIG_DOCS, knots=_CYCLES, argv=_COMMANDS)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_main_ends_in_finite_json_or_one_error_line(doc, knots, argv):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "vehicle.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        # Output files go to the temporary directory too.
        args = [
            os.path.join(tmp, a) if a.endswith((".csv", ".svg")) else a
            for a in argv
        ] + ["--config", config]
        # Only simulate and range take a cycle.
        if knots is not None and argv[0] in ("simulate", "range"):
            t = 0.0
            rows = ["t_s,v_kmh", "0,0"]
            for gap, v in knots:
                t += gap
                rows.append(f"{t!r},{v!r}")
            path = os.path.join(tmp, "cycle.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
            args += ["--cycle", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        # Every run that exits 0 passes its ledger check.
        assert doc.get("ledger", {}).get("check_passed", True), doc
