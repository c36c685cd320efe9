"""Closed-loop speed controller state.

The PI controller and the regen-first braking split run inside the engine
kernel (``engine._advance``); this module holds the controller memory that
``SimState`` carries between steps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DriverState:
    """Controller memory across steps.

    Args:
        integral: Accumulated speed error [km/h * s].
        last_command: Previous output, in [-1, 1].
    """

    integral: float = 0.0
    last_command: float = 0.0
