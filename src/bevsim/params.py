"""Vehicle, motor, battery, drivetrain, driver, and solver parameters.

Single source of truth for units and domains. Every numeric field carries
exactly one unit, stated in its docstring, and one domain, its entry in
``_FIELD_DOMAINS``, which ``validate`` checks; the README's configuration
table lists both. The JSON config schema mirrors the fields (top level
keys ``body``, ``motor``, ``battery``, ``drivetrain``, ``driver``,
``sim``; field names exactly as below). Configs and their sections are
``NamedTuple``s: immutable, edited with ``with_overrides`` (or
``_replace``), and safe to share across concurrent simulation runs.
"""

import json
import math
from typing import NamedTuple

from .errors import ConfigError

# Torque/power/speed convention constant: P[kW] = tau[N*m] * n[rpm] / 9550.
RPM_KW_CONSTANT = 9550.0


class VehicleBodyParams(NamedTuple):
    """Chassis mass and road-load parameters.

    Args:
        mass: Vehicle mass [kg].
        wheel_radius: Driven-wheel rolling radius [m].
        frontal_area: Aerodynamic reference area [m^2].
        drag_coefficient: Aerodynamic drag coefficient.
        f0: Constant rolling-resistance coefficient.
        f1: Linear rolling-resistance coefficient (multiplies v/100, v in km/h).
        f4: Quartic rolling-resistance coefficient (multiplies (v/100)^4).
        gravity: Gravitational acceleration [m/s^2].
    """

    mass: float = 1549.0
    wheel_radius: float = 0.284
    frontal_area: float = 1.87
    drag_coefficient: float = 0.42
    f0: float = 0.021
    f1: float = 0.0
    f4: float = 0.0
    gravity: float = 9.81


class MotorParams(NamedTuple):
    """Traction motor peak envelope and efficiency.

    Args:
        max_torque: Peak torque below base speed [N*m].
        max_power: Peak power in the constant-power region [kW].
        max_speed: Maximum shaft speed [rpm].
        efficiency: Electromechanical conversion efficiency in (0, 1],
            applied as a constant in both torque directions (no map). The
            default is a representative permanent-magnet machine figure; it
            is not part of the published vehicle data set and it sets how
            much braking energy survives the round trip to the battery.
    """

    max_torque: float = 230.0
    max_power: float = 75.0
    max_speed: float = 8000.0
    efficiency: float = 0.95


class BatteryParams(NamedTuple):
    """Traction battery pack parameters.

    Nominal voltage and internal resistance are representative pack values,
    not part of the published vehicle data set; both are configurable.

    Args:
        capacity_energy: Pack energy capacity [kWh].
        nominal_voltage: Nominal (open-circuit) voltage [V].
        internal_resistance: Lumped internal resistance [ohm].
        coulombic_efficiency: Charge-counting efficiency (dimensionless).
        initial_soc: State of charge at run start, fraction in [0, 1].
        soc_floor: Depletion stop threshold, fraction in [0, 1].
    """

    capacity_energy: float = 216.0
    nominal_voltage: float = 350.0
    internal_resistance: float = 0.1
    coulombic_efficiency: float = 1.0
    initial_soc: float = 0.9
    soc_floor: float = 0.1


class DrivetrainParams(NamedTuple):
    """Transmission and brake-system parameters.

    The friction cap applies to the friction system only; regenerative and
    friction braking combined may exceed it. Gear ratio is a design choice
    (motor speed ceiling maps to roughly 180 km/h wheel speed), configurable.

    Args:
        gear_ratio: Motor-to-wheel speed multiplication (dimensionless).
        transmission_efficiency: Through-power efficiency in (0, 1].
        max_friction_brake_force: Friction-brake force cap at the wheels [N].
        regen_efficiency: Recovered-electrical to braking-mechanical energy
            ratio in [0, 1], applied once at the battery-charging step.
        regen_cutoff_speed: Vehicle speed below which regeneration is
            disabled [km/h]. The default sits just above standstill: with
            the 800 N friction cap, motor braking must stay available
            through nearly the whole stop ramp or urban stop profiles
            cannot be tracked.
    """

    gear_ratio: float = 4.8
    transmission_efficiency: float = 0.9
    max_friction_brake_force: float = 800.0
    regen_efficiency: float = 0.5
    regen_cutoff_speed: float = 1.5


class DriverParams(NamedTuple):
    """Speed-tracking PI controller gains; the command is clamped to [-1, 1].

    Args:
        kp: Proportional gain [command per km/h of speed error].
        ki: Integral gain [command per km/h*s of accumulated error].
    """

    kp: float = 1.2
    ki: float = 0.35


class SimParams(NamedTuple):
    """Fixed-step solver settings.

    Args:
        dt: Integration step [s], in (0, 1].
        max_sim_time: Hard stop for every run [s]: repeated-cycle and
            SoC-floor runs, and a single pass whose cycle is longer.
    """

    dt: float = 0.1
    max_sim_time: float = 500_000.0


class VehicleConfig(NamedTuple):
    """Complete, immutable parameter set for one simulation; its sections
    default to shared instances of their defaults."""

    body: VehicleBodyParams = VehicleBodyParams()
    motor: MotorParams = MotorParams()
    battery: BatteryParams = BatteryParams()
    drivetrain: DrivetrainParams = DrivetrainParams()
    driver: DriverParams = DriverParams()
    sim: SimParams = SimParams()


_SECTIONS = {
    name: type(section) for name, section in VehicleConfig._field_defaults.items()
}

# Each domain, worded as the messages print it, and its predicate.
_DOMAINS = {
    "> 0": lambda x: x > 0.0,
    ">= 0": lambda x: x >= 0.0,
    "in (0, 1]": lambda x: 0.0 < x <= 1.0,
    "in [0, 1]": lambda x: 0.0 <= x <= 1.0,
}
# Every field's domain, in validation order.
_FIELD_DOMAINS = (
    ("body.mass", "> 0"), ("body.wheel_radius", "> 0"),
    ("body.frontal_area", "> 0"), ("body.drag_coefficient", "> 0"),
    ("body.f0", ">= 0"), ("body.f1", ">= 0"), ("body.f4", ">= 0"),
    ("body.gravity", "> 0"),
    ("motor.max_torque", "> 0"), ("motor.max_power", "> 0"),
    ("motor.max_speed", "> 0"), ("motor.efficiency", "in (0, 1]"),
    ("battery.capacity_energy", "> 0"), ("battery.nominal_voltage", "> 0"),
    ("battery.internal_resistance", ">= 0"),
    ("battery.coulombic_efficiency", "in (0, 1]"),
    ("battery.soc_floor", "in [0, 1]"), ("battery.initial_soc", "in [0, 1]"),
    ("drivetrain.gear_ratio", "> 0"),
    ("drivetrain.transmission_efficiency", "in (0, 1]"),
    ("drivetrain.max_friction_brake_force", ">= 0"),
    ("drivetrain.regen_efficiency", "in [0, 1]"),
    ("drivetrain.regen_cutoff_speed", ">= 0"),
    ("driver.kp", ">= 0"), ("driver.ki", ">= 0"),
    ("sim.dt", "in (0, 1]"), ("sim.max_sim_time", "> 0"),
)
# Labels in the order a config's values flatten to; the table resolved to
# (flat index, label, rule, predicate), so a misspelt label fails at import.
_LABELS = tuple(
    f"{section}.{field}" for section, cls in _SECTIONS.items() for field in cls._fields
)
_DOMAIN_CHECKS = tuple(
    (_LABELS.index(label), label, rule, _DOMAINS[rule])
    for label, rule in _FIELD_DOMAINS
)


def default_config() -> VehicleConfig:
    """Return the documented default configuration."""
    return VehicleConfig()


def parse_config(text: str) -> VehicleConfig:
    """Parse a JSON configuration document into a validated VehicleConfig.

    Absent sections or fields take their documented defaults. Unknown keys
    are an error (catches typos).

    Raises:
        ConfigError: On malformed JSON, unknown keys, non-numeric values, or
            any violated invariant (all violations are reported).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")

    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    sections = {}
    for name, cls in _SECTIONS.items():
        raw = doc.get(name, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        bad = sorted(set(raw) - set(cls._fields))
        if bad:
            raise ConfigError(
                f"unknown key(s) in section '{name}': {', '.join(bad)}"
            )
        values = {}
        for key, val in raw.items():
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"{name}.{key}: expected a number, got {val!r}")
            values[key] = float(val)
        sections[name] = cls(**values)

    config = VehicleConfig(**sections)
    violations = validate(config)
    if violations:
        raise ConfigError("invalid configuration: " + "; ".join(violations))
    return config


def serialize_config(config: VehicleConfig) -> str:
    """Serialize a config to JSON text; parse_config round-trips it."""
    doc = {name: section._asdict() for name, section in zip(config._fields, config)}
    return json.dumps(doc, indent=2) + "\n"


def validate(config: VehicleConfig) -> list[str]:
    """Check every invariant; return all violations (empty list = valid),
    in order: finiteness for every field, each field's domain in table
    order, then ``soc_floor < initial_soc`` and a finite step count."""
    v: list[str] = []
    values = [value for params in config for value in params]
    for label, value in zip(_LABELS, values):
        if not math.isfinite(value):
            v.append(f"{label}: must be finite (got {value})")
    for k, label, rule, holds in _DOMAIN_CHECKS:
        value = values[k]
        if not holds(value):
            v.append(f"{label}: must be {rule} (got {value})")
    bat = config.battery
    if not bat.soc_floor < bat.initial_soc:
        v.append(
            f"battery.soc_floor: must satisfy soc_floor < initial_soc "
            f"(got {bat.soc_floor} >= {bat.initial_soc})"
        )
    dt, max_time = config.sim
    if dt > 0.0 and max_time < math.inf and max_time / dt == math.inf:
        v.append(
            "sim.max_sim_time / sim.dt: must be a finite step count "
            f"(got {max_time} / {dt})"
        )
    return v


def motor_rpm_per_kmh(wheel_radius: float, gear_ratio: float) -> float:
    """Kinematic factor: motor shaft rpm per km/h of vehicle speed."""
    return gear_ratio * (60.0 / math.tau) / (3.6 * wheel_radius)


def with_overrides(config: VehicleConfig, **section_updates) -> VehicleConfig:
    """Return a copy with per-section field updates.

    Example: with_overrides(cfg, sim={"dt": 0.01}, drivetrain={"regen_efficiency": 0}).

    Raises:
        ConfigError: On an unknown section or field.
    """
    replacements = {}
    for section, updates in section_updates.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section '{section}'")
        params = getattr(config, section)
        bad = sorted(set(updates) - set(params._fields))
        if bad:
            raise ConfigError(
                "unknown field(s) " + ", ".join(f"'{section}.{key}'" for key in bad)
            )
        replacements[section] = params._replace(**updates)
    return config._replace(**replacements)
