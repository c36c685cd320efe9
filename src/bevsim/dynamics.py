"""The resistive road-load formulas.

The force balance and the speed/distance integration run inside the engine
kernel (``engine._advance``). The two road-load formulas stay here as
functions because the experiments' force-balance oracles evaluate them
outside any run. They take km/h, as the empirical formulas do: the 21.15
constant absorbs air density and the unit change.
"""

from .params import VehicleBodyParams


def rolling_resistance(body: VehicleBodyParams, speed_kmh: float) -> float:
    """Rolling resistance [N]: m*g*(f0 + f1*(v/100) + f4*(v/100)^4), v in km/h.

    This is the moving-vehicle formula; the engine reports zero resistance
    for a vehicle at rest (no backward creep).
    """
    if speed_kmh < 0.0:
        raise ValueError(f"speed must be >= 0 (got {speed_kmh})")
    x = speed_kmh / 100.0
    return body.mass * body.gravity * (body.f0 + body.f1 * x + body.f4 * x**4)


def aero_drag(body: VehicleBodyParams, speed_kmh: float) -> float:
    """Aerodynamic drag [N]: Cd * Af * v^2 / 21.15, v in km/h."""
    if speed_kmh < 0.0:
        raise ValueError(f"speed must be >= 0 (got {speed_kmh})")
    return (
        body.drag_coefficient * body.frontal_area * speed_kmh * speed_kmh / 21.15
    )
