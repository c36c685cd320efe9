"""Target-speed schedules: parsing, interpolation, statistics, synthesis.

Cycles are immutable after parsing (sample arrays are write-protected) and
safe to share across concurrent runs. The lookup is piecewise linear with a
clamp-after-end rule so a run remains well defined past the last sample.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import CycleError

CSV_HEADER = "t_s,v_kmh"


@dataclass(frozen=True)
class DriveCycle:
    """A time-indexed target-speed schedule.

    Args:
        name: Label used in reports and plots.
        times_s: Sample times [s]; strictly increasing, starting at 0.
        speeds_kmh: Target speeds [km/h]; non-negative.

    ``_times`` and ``_speeds`` hold the same knots as tuples of Python
    floats, built once, for the per-step lookups of ``target_speed`` and
    the engine; the arrays are write-protected, so they cannot go stale.
    """

    name: str
    times_s: np.ndarray
    speeds_kmh: np.ndarray
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _speeds: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=np.float64)
        v = np.asarray(self.speeds_kmh, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise CycleError("times and speeds must be 1-D arrays of equal length")
        if len(t) < 2:
            raise CycleError("a cycle needs at least 2 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise CycleError("sample times and speeds must be finite")
        if t[0] != 0.0:
            raise CycleError(f"cycle must start at t = 0 (got {t[0]})")
        if not np.all(np.diff(t) > 0.0):
            raise CycleError("sample times must be strictly increasing")
        if np.any(v < 0.0):
            raise CycleError("speeds must be non-negative")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "speeds_kmh", v)
        object.__setattr__(self, "_times", tuple(t.tolist()))
        object.__setattr__(self, "_speeds", tuple(v.tolist()))

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1])

    def __len__(self) -> int:
        return len(self.times_s)


@dataclass(frozen=True)
class CycleStats:
    """Aggregate quantities of a cycle.

    Args:
        duration_s: Total schedule length [s].
        distance_km: Trapezoidal integral of speed over time [km].
        max_speed_kmh: Peak target speed [km/h].
        mean_speed_kmh: distance / duration [km/h].
    """

    duration_s: float
    distance_km: float
    max_speed_kmh: float
    mean_speed_kmh: float


def parse_cycle(text: str, name: str = "cycle") -> DriveCycle:
    """Parse a cycle CSV (header ``t_s,v_kmh``, one sample per line).

    Raises:
        CycleError: On a missing/incorrect header, a malformed row,
            non-monotonic time, or negative speed; messages carry the
            1-based data row number.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CycleError("empty cycle document")
    if lines[0] != CSV_HEADER:
        raise CycleError(f"expected header '{CSV_HEADER}', got '{lines[0]}'")
    times: list[float] = []
    speeds: list[float] = []
    for row_num, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise CycleError(f"malformed row {row_num}: {line!r}")
        try:
            t = float(parts[0])
            v = float(parts[1])
        except ValueError:
            raise CycleError(f"malformed row {row_num}: {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise CycleError(f"malformed row {row_num}: non-finite value")
        if times and t <= times[-1]:
            raise CycleError(
                f"non-monotonic time at row {row_num}: {t} follows {times[-1]}"
            )
        if v < 0.0:
            raise CycleError(f"negative speed at row {row_num}: {v}")
        times.append(t)
        speeds.append(v)
    return DriveCycle(name=name, times_s=np.array(times), speeds_kmh=np.array(speeds))


def serialize_cycle(cycle: DriveCycle) -> str:
    """Serialize to CSV text; parse_cycle reproduces all samples bit-exactly."""
    rows = [CSV_HEADER]
    for t, v in zip(cycle.times_s, cycle.speeds_kmh):
        rows.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(rows) + "\n"


def target_speed(cycle: DriveCycle, t: float) -> float:
    """Target speed at time t [km/h]: linear between samples, last value held.

    The interpolation expression must stay identical to the cycle cursor in
    engine._advance (bit-for-bit), so keep any change in sync with it. The
    kernel caches the current segment (t0, v0, v1 - v0, t1 - t0) between
    steps but evaluates this same expression.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0 (got {t})")
    times = cycle._times
    speeds = cycle._speeds
    if t >= times[-1]:
        return speeds[-1]
    i = bisect_right(times, t) - 1
    t0 = times[i]
    t1 = times[i + 1]
    v0 = speeds[i]
    v1 = speeds[i + 1]
    return v0 + (v1 - v0) * ((t - t0) / (t1 - t0))


def cycle_stats(cycle: DriveCycle) -> CycleStats:
    """Trapezoidal distance and speed aggregates."""
    t = cycle.times_s
    v = cycle.speeds_kmh
    area = float(np.sum((v[1:] + v[:-1]) * 0.5 * np.diff(t)))  # km/h * s
    duration = float(t[-1])
    max_speed = float(np.max(v))
    return CycleStats(
        duration_s=duration,
        distance_km=area / 3600.0,
        max_speed_kmh=max_speed,
        # Rounding in the gaps and the sum can put area / duration an ulp
        # above the peak (a constant 7 km/h often gives 7.000000000000001).
        mean_speed_kmh=min(area / duration, max_speed),
    )


def repeat(cycle: DriveCycle, n: int) -> DriveCycle:
    """Concatenate n copies with time offsets; duration scales by n.

    For closed cycles (equal first and last speed) the join is seamless and
    distance scales exactly; otherwise the join holds the last speed for a
    1 ns knot before jumping, which perturbs distance by well under 1e-9
    relative.
    """
    if n < 1:
        raise ValueError(f"repeat count must be >= 1 (got {n})")
    if n == 1:
        return cycle
    t = cycle.times_s
    v = cycle.speeds_kmh
    duration = float(t[-1])
    closed = v[0] == v[-1]
    times = [t]
    speeds = [v]
    for k in range(1, n):
        offset = k * duration
        if closed:
            times.append(t[1:] + offset)
            speeds.append(v[1:])
        else:
            times.append(np.concatenate(([offset + 1e-9], t[1:] + offset)))
            speeds.append(np.concatenate(([v[0]], v[1:])))
    return DriveCycle(
        name=f"{cycle.name}x{n}",
        times_s=np.concatenate(times),
        speeds_kmh=np.concatenate(speeds),
    )


def synth_trapezoid(peak_kmh: float, ramp_s: float, hold_s: float) -> DriveCycle:
    """Synthetic test cycle: 0 -> peak over ramp, hold, peak -> 0 over ramp."""
    if peak_kmh < 0.0:
        raise ValueError(f"peak must be >= 0 (got {peak_kmh})")
    if ramp_s <= 0.0:
        raise ValueError(f"ramp must be > 0 (got {ramp_s})")
    if hold_s < 0.0:
        raise ValueError(f"hold must be >= 0 (got {hold_s})")
    if hold_s == 0.0:
        times = [0.0, ramp_s, 2.0 * ramp_s]
        speeds = [0.0, peak_kmh, 0.0]
    else:
        times = [0.0, ramp_s, ramp_s + hold_s, 2.0 * ramp_s + hold_s]
        speeds = [0.0, peak_kmh, peak_kmh, 0.0]
    return DriveCycle(
        name=f"trapezoid-{peak_kmh:g}",
        times_s=np.array(times),
        speeds_kmh=np.array(speeds),
    )


def load_udds() -> DriveCycle:
    """Load the bundled EPA Urban Dynamometer Driving Schedule.

    1370 one-hertz samples, 1369 s, about 11.99 km, peak 91.25 km/h. The
    file is a transcription of the public-domain EPA schedule; its SHA-256
    checksum is recorded in the README.
    """
    text = resources.files("bevsim.data").joinpath("udds.csv").read_text()
    return parse_cycle(text, name="udds")
