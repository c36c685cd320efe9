"""Vehicle, motor, battery, drivetrain, driver, and solver parameters.

Single source of truth for units. Every numeric field carries exactly one
unit, stated in its docstring and mirrored by the JSON config schema (top
level keys ``body``, ``motor``, ``battery``, ``drivetrain``, ``driver``,
``sim``; field names exactly as below). Configs and their sections are
``NamedTuple``s: immutable, edited with ``with_overrides`` (or
``_replace``), and safe to share across concurrent simulation runs.
"""

from __future__ import annotations

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
    """Traction motor ratings.

    Args:
        rated_torque: Continuous torque rating [N*m].
        max_torque: Peak torque below base speed [N*m].
        rated_power: Continuous power rating [kW].
        max_power: Peak power in the constant-power region [kW].
        rated_speed: Rated shaft speed [rpm].
        max_speed: Maximum shaft speed [rpm].
        efficiency: Electromechanical conversion efficiency in (0, 1],
            applied as a constant in both torque directions (no map). The
            default is a representative permanent-magnet machine figure; it
            is not part of the published vehicle data set and it sets how
            much braking energy survives the round trip to the battery.
    """

    rated_torque: float = 95.5
    max_torque: float = 230.0
    rated_power: float = 30.0
    max_power: float = 75.0
    rated_speed: float = 3000.0
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
    """Speed-tracking PI controller gains.

    Args:
        kp: Proportional gain [command per km/h of speed error].
        ki: Integral gain [command per km/h*s of accumulated error].
        command_min: Lower command bound; fixed at -1.
        command_max: Upper command bound; fixed at +1.
    """

    kp: float = 1.2
    ki: float = 0.35
    command_min: float = -1.0
    command_max: float = 1.0


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
    "body": VehicleBodyParams,
    "motor": MotorParams,
    "battery": BatteryParams,
    "drivetrain": DrivetrainParams,
    "driver": DriverParams,
    "sim": SimParams,
}


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
    """Check every invariant; return all violations (empty list = valid)."""
    v: list[str] = []
    for section in _SECTIONS:
        params = getattr(config, section)
        for name, value in zip(params._fields, params):
            if not math.isfinite(value):
                v.append(f"{section}.{name}: must be finite (got {value})")
    b = config.body
    _positive(v, "body.mass", b.mass)
    _positive(v, "body.wheel_radius", b.wheel_radius)
    _positive(v, "body.frontal_area", b.frontal_area)
    _positive(v, "body.drag_coefficient", b.drag_coefficient)
    _non_negative(v, "body.f0", b.f0)
    _non_negative(v, "body.f1", b.f1)
    _non_negative(v, "body.f4", b.f4)
    _positive(v, "body.gravity", b.gravity)

    m = config.motor
    _positive(v, "motor.rated_torque", m.rated_torque)
    _positive(v, "motor.rated_power", m.rated_power)
    _positive(v, "motor.rated_speed", m.rated_speed)
    if m.rated_torque > m.max_torque:
        v.append(
            f"motor.rated_torque: must satisfy rated_torque <= max_torque "
            f"(got {m.rated_torque} > {m.max_torque})"
        )
    if m.rated_power > m.max_power:
        v.append(
            f"motor.rated_power: must satisfy rated_power <= max_power "
            f"(got {m.rated_power} > {m.max_power})"
        )
    if m.rated_speed > m.max_speed:
        v.append(
            f"motor.rated_speed: must satisfy rated_speed <= max_speed "
            f"(got {m.rated_speed} > {m.max_speed})"
        )
    if not 0.0 < m.efficiency <= 1.0:
        v.append(f"motor.efficiency: must be in (0, 1] (got {m.efficiency})")
    if m.rated_torque > 0 and m.rated_speed > 0 and m.rated_power > 0:
        implied = m.rated_torque * m.rated_speed / RPM_KW_CONSTANT
        if abs(implied - m.rated_power) > 0.01 * m.rated_power:
            v.append(
                "motor.rated_power: rated_torque * rated_speed / 9550 "
                f"= {implied:.4g} kW disagrees with rated_power "
                f"{m.rated_power} kW by more than 1%"
            )

    bat = config.battery
    _positive(v, "battery.capacity_energy", bat.capacity_energy)
    _positive(v, "battery.nominal_voltage", bat.nominal_voltage)
    _non_negative(v, "battery.internal_resistance", bat.internal_resistance)
    if not 0.0 < bat.coulombic_efficiency <= 1.0:
        v.append(
            f"battery.coulombic_efficiency: must be in (0, 1] "
            f"(got {bat.coulombic_efficiency})"
        )
    if not 0.0 <= bat.soc_floor <= 1.0:
        v.append(f"battery.soc_floor: must be in [0, 1] (got {bat.soc_floor})")
    if not 0.0 <= bat.initial_soc <= 1.0:
        v.append(
            f"battery.initial_soc: must be in [0, 1] (got {bat.initial_soc})"
        )
    if not bat.soc_floor < bat.initial_soc:
        v.append(
            f"battery.soc_floor: must satisfy soc_floor < initial_soc "
            f"(got {bat.soc_floor} >= {bat.initial_soc})"
        )

    d = config.drivetrain
    _positive(v, "drivetrain.gear_ratio", d.gear_ratio)
    if not 0.0 < d.transmission_efficiency <= 1.0:
        v.append(
            f"drivetrain.transmission_efficiency: must be in (0, 1] "
            f"(got {d.transmission_efficiency})"
        )
    _non_negative(v, "drivetrain.max_friction_brake_force", d.max_friction_brake_force)
    if not 0.0 <= d.regen_efficiency <= 1.0:
        v.append(
            f"drivetrain.regen_efficiency: must be in [0, 1] "
            f"(got {d.regen_efficiency})"
        )
    _non_negative(v, "drivetrain.regen_cutoff_speed", d.regen_cutoff_speed)

    drv = config.driver
    _non_negative(v, "driver.kp", drv.kp)
    _non_negative(v, "driver.ki", drv.ki)
    if drv.command_min != -1.0:
        v.append(f"driver.command_min: must be -1 (got {drv.command_min})")
    if drv.command_max != 1.0:
        v.append(f"driver.command_max: must be +1 (got {drv.command_max})")

    s = config.sim
    if not 0.0 < s.dt <= 1.0:
        v.append(f"sim.dt: must be in (0, 1] (got {s.dt})")
    _positive(v, "sim.max_sim_time", s.max_sim_time)
    return v


def _positive(out: list[str], name: str, value: float) -> None:
    if not value > 0.0:
        out.append(f"{name}: must be > 0 (got {value})")


def _non_negative(out: list[str], name: str, value: float) -> None:
    if not value >= 0.0:
        out.append(f"{name}: must be >= 0 (got {value})")


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
