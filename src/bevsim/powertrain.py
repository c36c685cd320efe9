"""Battery state carried between steps.

The motor envelope, the electrical conversion and the amp-hour battery
update run inside the engine kernel (``engine._advance``). Sign
conventions: positive current means discharge and negative means charging;
the cumulative energies are magnitudes at the terminals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import BatteryParams


@dataclass(frozen=True)
class BatteryState:
    """Battery bookkeeping carried across steps.

    Args:
        soc: State of charge, fraction in [0, 1].
        terminal_voltage: Last terminal voltage [V].
        cumulative_energy_out: Terminal energy delivered while discharging [kWh].
        cumulative_energy_regen: Terminal energy absorbed while charging [kWh].
        soc_saturated: True once the SoC ever hit a [0, 1] bound and was clamped.
    """

    soc: float
    terminal_voltage: float
    cumulative_energy_out: float = 0.0
    cumulative_energy_regen: float = 0.0
    soc_saturated: bool = False


def initial_battery_state(params: BatteryParams) -> BatteryState:
    """Fresh battery state at the configured initial SoC."""
    return BatteryState(soc=params.initial_soc, terminal_voltage=params.nominal_voltage)
