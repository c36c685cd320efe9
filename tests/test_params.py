import json
import math
from pathlib import Path

import pytest

from step_reference import available_torque

from bevsim import (
    ConfigError,
    default_config,
    parse_config,
    serialize_config,
    validate,
)
from bevsim.params import (
    _FIELD_DOMAINS,
    _SECTIONS,
    RPM_KW_CONSTANT,
    with_overrides,
)


def test_defaults_carry_published_vehicle_values(config):
    assert config.body.mass == 1549.0
    assert config.body.wheel_radius == 0.284
    assert config.body.frontal_area == 1.87
    assert config.body.drag_coefficient == 0.42
    assert config.body.f0 == 0.021
    assert config.body.f1 == 0.0 and config.body.f4 == 0.0
    assert config.motor.max_torque == 230.0
    assert config.motor.max_power == 75.0
    assert config.motor.max_speed == 8000.0
    assert config.battery.capacity_energy == 216.0
    assert config.battery.initial_soc == 0.9
    assert config.drivetrain.transmission_efficiency == 0.9
    assert config.drivetrain.max_friction_brake_force == 800.0
    assert config.drivetrain.regen_efficiency == 0.5


def test_default_config_is_valid(config):
    assert validate(config) == []


def test_parse_full_document():
    doc = {
        "body": {"mass": 1549, "drag_coefficient": 0.42},
        "motor": {"max_power": 30},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.body.mass == 1549.0
    assert cfg.body.drag_coefficient == 0.42
    assert cfg.motor.max_power == 30.0


def test_parse_empty_document_gives_defaults():
    cfg = parse_config("{}")
    assert cfg == default_config()
    assert cfg.drivetrain.gear_ratio == 4.8


def test_parse_rejects_negative_mass():
    with pytest.raises(ConfigError, match="mass"):
        parse_config('{"body": {"mass": -1}}')


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="chassis"):
        parse_config('{"chassis": {}}')


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="masss"):
        parse_config('{"body": {"masss": 1500}}')


def test_with_overrides_rejects_unknown_names(config):
    with pytest.raises(ConfigError, match=r"unknown field\(s\) 'body\.mas'$"):
        with_overrides(config, body={"mas": 1.0})
    with pytest.raises(ConfigError, match="unknown section 'chassis'"):
        with_overrides(config, chassis={"mass": 1.0})


def test_configs_are_named_tuples(config):
    # Sections default to shared instances, safe because they are immutable;
    # records compare equal to plain tuples of their fields.
    assert default_config().body is config.body
    assert config.sim == (0.1, 500_000.0)
    assert tuple(config) == (
        config.body, config.motor, config.battery, config.drivetrain,
        config.driver, config.sim,
    )
    with pytest.raises(AttributeError):
        config.body.mass = 1.0
    heavier = with_overrides(config, body={"mass": 2000.0})
    assert heavier == config._replace(body=config.body._replace(mass=2000.0))
    assert heavier.motor is config.motor


def test_parse_rejects_non_numeric_values():
    with pytest.raises(ConfigError, match="body.mass"):
        parse_config('{"body": {"mass": "heavy"}}')
    with pytest.raises(ConfigError, match="body.mass"):
        parse_config('{"body": {"mass": true}}')


def test_validate_reports_every_non_finite_field(config):
    bad = with_overrides(
        config, body={"mass": math.inf}, sim={"max_sim_time": math.nan}
    )
    violations = validate(bad)
    assert "body.mass: must be finite (got inf)" in violations
    assert "sim.max_sim_time: must be finite (got nan)" in violations
    with pytest.raises(ConfigError, match="body.mass: must be finite"):
        parse_config('{"body": {"mass": -Infinity}}')


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("{not json")


def test_validate_requires_a_positive_motor_envelope(config):
    bad = with_overrides(
        config, motor={"max_torque": 0.0, "max_power": -1.0, "max_speed": 0.0}
    )
    assert validate(bad) == [
        "motor.max_torque: must be > 0 (got 0.0)",
        "motor.max_power: must be > 0 (got -1.0)",
        "motor.max_speed: must be > 0 (got 0.0)",
    ]


def test_validate_reports_soc_ordering(config):
    bad = with_overrides(
        config, battery={"initial_soc": 0.05, "soc_floor": 0.1}
    )
    violations = validate(bad)
    assert any("soc_floor" in v and "initial_soc" in v for v in violations)


def test_validate_collects_every_violation(config):
    bad = with_overrides(
        config,
        body={"mass": -1.0, "wheel_radius": 0.0},
        sim={"dt": 2.0},
    )
    violations = validate(bad)
    assert len(violations) >= 3


_ABOVE_ONE = 1.0000000000000002
# The nearest floats outside each domain, one per finite end.
_OUTSIDE = {
    "> 0": (0.0,),
    ">= 0": (-5e-324,),
    "in (0, 1]": (0.0, _ABOVE_ONE),
    "in [0, 1]": (-5e-324, _ABOVE_ONE),
}
# The nearest floats inside each domain, one per finite end.
_INSIDE = {
    "> 0": (5e-324,),
    ">= 0": (0.0,),
    "in (0, 1]": (5e-324, 1.0),
    "in [0, 1]": (0.0, 1.0),
}
_SOC_ORDER = "battery.soc_floor: must satisfy soc_floor < initial_soc (got {} >= {})"


def _with_field(label, value):
    section, field = label.split(".")
    return with_overrides(default_config(), **{section: {field: value}})


def test_domain_table_names_every_field_exactly_once():
    labels = [label for label, _ in _FIELD_DOMAINS]
    every_field = [f"{s}.{f}" for s, cls in _SECTIONS.items() for f in cls._fields]
    assert sorted(labels) == sorted(every_field)
    assert len(set(labels)) == len(labels) == 27
    assert {rule for _, rule in _FIELD_DOMAINS} == set(_OUTSIDE)


@pytest.mark.parametrize(
    "label, rule, value",
    [
        pytest.param(label, rule, value, id=f"{label}={value!r}")
        for label, rule in _FIELD_DOMAINS
        for value in _OUTSIDE[rule]
    ],
)
def test_a_value_just_outside_its_domain_gives_its_message(label, rule, value):
    expected = [f"{label}: must be {rule} (got {value})"]
    # Past the far end of its domain, a soc field also breaks the soc order.
    if (label, value) == ("battery.initial_soc", -5e-324):
        expected.append(_SOC_ORDER.format(0.1, value))
    if (label, value) == ("battery.soc_floor", _ABOVE_ONE):
        expected.append(_SOC_ORDER.format(value, 0.9))
    assert validate(_with_field(label, value)) == expected


@pytest.mark.parametrize(
    "label, rule, value",
    [
        pytest.param(label, rule, value, id=f"{label}={value!r}")
        for label, rule in _FIELD_DOMAINS
        for value in _INSIDE[rule]
    ],
)
def test_a_domain_holds_its_ends(label, rule, value):
    # A cross-field rule may still fire; the field's own domain may not.
    violations = validate(_with_field(label, value))
    assert not [v for v in violations if v.startswith(f"{label}: must be ")]


@pytest.mark.parametrize(
    "label, rule", _FIELD_DOMAINS, ids=[label for label, _ in _FIELD_DOMAINS]
)
def test_nan_breaks_finiteness_and_the_domain(label, rule):
    expected = [
        f"{label}: must be finite (got nan)",
        f"{label}: must be {rule} (got nan)",
    ]
    if label == "battery.soc_floor":
        expected.append(_SOC_ORDER.format(math.nan, 0.9))
    if label == "battery.initial_soc":
        expected.append(_SOC_ORDER.format(0.1, math.nan))
    assert validate(_with_field(label, math.nan)) == expected


def test_validate_orders_finiteness_then_domains_then_cross_field_rules(config):
    bad = with_overrides(
        config,
        battery={"initial_soc": 0.05},
        sim={"dt": 5e-324},
        body={"f1": -1.0, "mass": math.inf},
        driver={"ki": math.nan},
    )
    assert validate(bad) == [
        "body.mass: must be finite (got inf)",
        "driver.ki: must be finite (got nan)",
        "body.f1: must be >= 0 (got -1.0)",
        "driver.ki: must be >= 0 (got nan)",
        _SOC_ORDER.format(0.1, 0.05),
        "sim.max_sim_time / sim.dt: must be a finite step count "
        "(got 500000.0 / 5e-324)",
    ]


def test_readme_configuration_table_states_each_domain():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Configuration\n", 1)[1]
    rows = [line.split(" | ") for line in table.split("\n## ", 1)[0].splitlines()
            if line.startswith("| ")]
    assert rows[0][:4] == ["| section.field", "unit", "default", "domain"]
    documented = []
    for cells in rows[1:]:
        # "body.f0 / f1 / f4" documents f0, f1 and f4 of section body.
        first, *more = cells[0].removeprefix("| ").split(" / ")
        section, field = first.split(".")
        documented += [(f"{section}.{f}", cells[3]) for f in (field, *more)]
    assert sorted(documented) == sorted(_FIELD_DOMAINS)


def test_serialize_round_trip(config):
    assert parse_config(serialize_config(config)) == config
    assert validate(parse_config(serialize_config(config))) == []


@pytest.mark.parametrize(
    "updates",
    [
        {"body": {"mass": 901.25, "f1": 0.013}},
        {"motor": {"max_power": 120.0, "max_torque": 401.5}},
        {"battery": {"capacity_energy": 37.5, "nominal_voltage": 412.0}},
        {"drivetrain": {"gear_ratio": 7.77, "regen_efficiency": 0.33}},
    ],
)
def test_serialize_round_trip_preserves_values(config, updates):
    cfg = with_overrides(config, **updates)
    assert parse_config(serialize_config(cfg)) == cfg


def test_available_torque_at_base_speed_is_max_torque(config):
    m = config.motor
    base_speed_rpm = RPM_KW_CONSTANT * m.max_power / m.max_torque
    tau = available_torque(m, base_speed_rpm)
    assert tau == pytest.approx(config.motor.max_torque, rel=0.005)
