import json
import math

import pytest

from step_reference import available_torque

from bevsim import (
    ConfigError,
    default_config,
    parse_config,
    serialize_config,
    validate,
)
from bevsim.params import RPM_KW_CONSTANT, with_overrides


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
