"""Target-speed schedules: parsing, statistics, synthesis.

A cycle holds its knots as tuples of floats, so it is immutable, hashable
and safe to share across concurrent runs. The engine interpolates them
piecewise linearly, holding the last speed past the last sample.
"""

import math
from typing import NamedTuple

from .errors import CycleError

CSV_HEADER = "t_s,v_kmh"


class _Frozen:
    """Base of the immutable ``__slots__`` records that are not tuples
    because their ``len()`` counts rows or samples, not fields: set once in
    ``__init__``, then compared, hashed, pickled and shown by value."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class DriveCycle(_Frozen):
    """A time-indexed target-speed schedule; its length is its sample count.

    Args:
        name: Label used in reports and plots.
        times_s: Sample times [s]; strictly increasing, starting at 0.
        speeds_kmh: Target speeds [km/h]; non-negative.

    Any sequences of numbers are accepted; both are stored as tuples of
    floats.
    """

    __slots__ = ("name", "times_s", "speeds_kmh")

    def __init__(self, name: str, times_s, speeds_kmh) -> None:
        try:
            t = tuple(map(float, times_s))
            v = tuple(map(float, speeds_kmh))
        except (TypeError, ValueError):
            t = v = None
        if t is None or len(t) != len(v):
            raise CycleError("times and speeds must be 1-D arrays of equal length")
        if len(t) < 2:
            raise CycleError("a cycle needs at least 2 samples")
        if not all(map(math.isfinite, t + v)):
            raise CycleError("sample times and speeds must be finite")
        if t[0] != 0.0:
            raise CycleError(f"cycle must start at t = 0 (got {t[0]})")
        if not all(map(float.__lt__, t, t[1:])):
            raise CycleError("sample times must be strictly increasing")
        if min(v) < 0.0:
            raise CycleError("speeds must be non-negative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "speeds_kmh", v)

    @property
    def duration_s(self) -> float:
        return self.times_s[-1]

    def __len__(self) -> int:
        return len(self.times_s)


class CycleStats(NamedTuple):
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
    return DriveCycle(name=name, times_s=times, speeds_kmh=speeds)


def serialize_cycle(cycle: DriveCycle) -> str:
    """Serialize to CSV text; parse_cycle reproduces all samples bit-exactly."""
    rows = [CSV_HEADER]
    for t, v in zip(cycle.times_s, cycle.speeds_kmh):
        rows.append(f"{t!r},{v!r}")
    return "\n".join(rows) + "\n"


def cycle_stats(cycle: DriveCycle) -> CycleStats:
    """Trapezoidal distance and speed aggregates."""
    t = cycle.times_s
    v = cycle.speeds_kmh
    area = math.fsum(  # km/h * s
        (v1 + v0) * 0.5 * (t1 - t0) for t0, t1, v0, v1 in zip(t, t[1:], v, v[1:])
    )
    duration = t[-1]
    max_speed = max(v)
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
    relative. ``run(passes=N)`` repeats a cycle; this stays only for
    ``perfbench/workloads.py`` (ROADMAP item 1 can delete it).
    """
    if n < 1:
        raise ValueError(f"repeat count must be >= 1 (got {n})")
    if n == 1:
        return cycle
    t = cycle.times_s
    v = cycle.speeds_kmh
    duration = t[-1]
    closed = v[0] == v[-1]
    times = list(t)
    speeds = list(v)
    for k in range(1, n):
        offset = k * duration
        if not closed:
            times.append(offset + 1e-9)
            speeds.append(v[0])
        times.extend(x + offset for x in t[1:])
        speeds.extend(v[1:])
    return DriveCycle(name=f"{cycle.name}x{n}", times_s=times, speeds_kmh=speeds)


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
    return DriveCycle(name=f"trapezoid-{peak_kmh:g}", times_s=times, speeds_kmh=speeds)


def load_udds() -> DriveCycle:
    """Load the bundled EPA Urban Dynamometer Driving Schedule.

    1370 one-hertz samples, 1369 s, about 11.99 km, peak 91.25 km/h. The
    file is a transcription of the public-domain EPA schedule; its SHA-256
    checksum is recorded in the README.
    """
    # Imported here: from Python 3.12 on, importlib.resources loads inspect.
    from importlib import resources

    text = resources.files("bevsim.data").joinpath("udds.csv").read_text()
    return parse_cycle(text, name="udds")
