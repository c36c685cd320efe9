"""Standalone SVG charts for traces and reports.

SVG is generated directly (no plotting library): the output is textual,
diffable, and byte-identical across runs of the same invocation. Each
figure is one or more stacked panels with axes, tick labels, a legend, and
a title; axis labels carry units.
"""

import math
from collections.abc import Sequence
from typing import NamedTuple

from .engine import SimTrace
from .errors import PlotError
from .experiments import AccelReport, TopSpeedReport, _plot_stride

TARGET_COLOR = "#c62828"  # desired speed drawn red, actual black
ACTUAL_COLOR = "#212121"
SERIES_COLORS = ("#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a")

_WIDTH = 900
_PANEL_HEIGHT = 280
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 46
_MARGIN_B = 52


class Series(NamedTuple):
    label: str
    x: Sequence[float]
    y: Sequence[float]
    color: str


class Panel(NamedTuple):
    title: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]


PLOT_KINDS = ("tracking", "range_soc", "accel", "topspeed")


def emit_plot(data, kind: str, path: str) -> None:
    """Render one figure kind to a standalone SVG file.

    ``tracking`` and ``range_soc`` take a SimTrace;
    ``accel`` takes an AccelReport; ``topspeed`` takes a TopSpeedReport.

    Raises:
        PlotError: On empty data or an unknown kind (no file is written).
    """
    panels = build_panels(data, kind)
    svg = render(panels)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def build_panels(data, kind: str) -> tuple[Panel, ...]:
    if kind == "tracking":
        trace = _require_trace(data, kind)
        return (
            Panel(
                "Speed tracking",
                "time [s]",
                "speed [km/h]",
                (
                    Series("target", trace.t_s, trace.v_target_kmh, TARGET_COLOR),
                    Series("actual", trace.t_s, trace.v_kmh, ACTUAL_COLOR),
                ),
            ),
        )
    if kind == "range_soc":
        trace = _require_trace(data, kind)
        return (
            Panel(
                "Travel distance",
                "time [s]",
                "distance [km]",
                (Series("distance", trace.t_s, trace.dist_km, SERIES_COLORS[0]),),
            ),
            Panel(
                "State of charge",
                "time [s]",
                "SoC [-]",
                (Series("SoC", trace.t_s, trace.soc, SERIES_COLORS[1]),),
            ),
        )
    if kind in ("accel", "topspeed"):
        report = AccelReport if kind == "accel" else TopSpeedReport
        if not isinstance(data, report) or not data.speed_trajectory:
            raise PlotError(f"{kind} plot needs a non-empty {report.__name__}")
        if report is AccelReport:
            title = f"Full-throttle acceleration to {data.target_kmh:g} km/h"
            label, level = "target", data.target_kmh
        else:
            title = "Full-throttle top speed"
            label, level = "force-balance limit", data.oracle_vmax_kmh
        t = [p[0] for p in data.speed_trajectory]
        v = [p[1] for p in data.speed_trajectory]
        return (
            Panel(
                title,
                "time [s]",
                "speed [km/h]",
                (
                    Series(label, t, [level] * len(t), TARGET_COLOR),
                    Series("actual", t, v, ACTUAL_COLOR),
                ),
            ),
        )
    raise PlotError(f"unknown plot kind '{kind}' (expected one of {PLOT_KINDS})")


def _require_trace(data, kind: str) -> SimTrace:
    if not isinstance(data, SimTrace) or len(data) == 0:
        raise PlotError(f"{kind} plot needs a non-empty trace")
    return data


def render(panels: tuple[Panel, ...]) -> str:
    if not panels:
        raise PlotError("nothing to plot")
    height = _PANEL_HEIGHT * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        parts.append(_render_panel(panel, i * _PANEL_HEIGHT))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_panel(panel: Panel, y_off: int) -> str:
    if not panel.series or all(len(s.x) == 0 for s in panel.series):
        raise PlotError(f"panel '{panel.title}' has no data")
    x_lo = min(min(s.x) for s in panel.series)
    x_hi = max(max(s.x) for s in panel.series)
    y_lo = min(min(s.y) for s in panel.series)
    y_hi = max(max(s.y) for s in panel.series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_x = _MARGIN_L
    plot_y = y_off + _MARGIN_T
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _PANEL_HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return plot_x + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return plot_y + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        '<g font-family="sans-serif" font-size="13">',
        f'<text x="{plot_x + plot_w / 2:.1f}" y="{y_off + 22}" '
        f'text-anchor="middle" font-size="16">{_esc(panel.title)}</text>',
        f'<rect x="{plot_x}" y="{plot_y}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888888"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.1f}" y1="{plot_y + plot_h}" x2="{px:.1f}" '
            f'y2="{plot_y + plot_h + 5}" stroke="#888888"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{plot_y + plot_h + 20}" '
            f'text-anchor="middle">{_num(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        out.append(
            f'<line x1="{plot_x - 5}" y1="{py:.1f}" x2="{plot_x}" '
            f'y2="{py:.1f}" stroke="#888888"/>'
        )
        out.append(
            f'<line x1="{plot_x}" y1="{py:.1f}" x2="{plot_x + plot_w}" '
            f'y2="{py:.1f}" stroke="#eeeeee"/>'
        )
        out.append(
            f'<text x="{plot_x - 9}" y="{py + 4:.1f}" '
            f'text-anchor="end">{_num(tick)}</text>'
        )
    out.append(
        f'<text x="{plot_x + plot_w / 2:.1f}" y="{y_off + _PANEL_HEIGHT - 12}" '
        f'text-anchor="middle">{_esc(panel.xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{plot_y + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {plot_y + plot_h / 2:.1f})">'
        f"{_esc(panel.ylabel)}</text>"
    )
    for s in panel.series:
        x, y = _decimate(s.x, s.y)
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        out.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="1.3" '
            f'points="{points}"/>'
        )
    legend_x = plot_x + plot_w - 150
    for i, s in enumerate(panel.series):
        ly = plot_y + 14 + 18 * i
        out.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 24}" '
            f'y2="{ly - 4}" stroke="{s.color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{legend_x + 30}" y="{ly}">{_esc(s.label)}</text>')
    out.append("</g>")
    return "\n".join(out)


def _decimate(
    x: Sequence[float], y: Sequence[float]
) -> tuple[Sequence[float], Sequence[float]]:
    stride = _plot_stride(len(x))
    if stride == 1:
        return x, y
    return x[::stride], y[::stride]


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _num(x: float) -> str:
    return format(x, ".6g")


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
