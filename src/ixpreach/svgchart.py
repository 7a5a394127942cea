"""Self-contained SVG line charts for daily metric series.

No renderer dependency: the chart is assembled as plain SVG text.  Gaps in
the date axis break the line into separate segments, one circle marks each
data point, and outage spans are shaded behind the line.
"""

from __future__ import annotations

import datetime as dt
from typing import Sequence

WIDTH = 900
HEIGHT = 320
MARGIN_LEFT = 62
MARGIN_RIGHT = 18
MARGIN_TOP = 34
MARGIN_BOTTOM = 42


def _fmt(value: float) -> str:
    return format(value, ".2f")


def render_chart(
    points: Sequence[tuple[dt.date, float]],
    *,
    title: str,
    y_label: str,
    events: Sequence[tuple[dt.date, dt.date, str]],
) -> str:
    """Render a date/value series as an SVG document string.

    `points` must be date-sorted; `events` are inclusive (start, end,
    label) spans drawn as shaded regions.
    """
    if not points:
        raise ValueError("cannot chart an empty series")
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    first = points[0][0].toordinal()
    last = points[-1][0].toordinal()
    span = max(last - first, 1)
    vmax = max(v for _, v in points)
    vmax = vmax * 1.05 if vmax > 0 else 1.0

    def x_of(ordinal: float) -> float:
        return MARGIN_LEFT + (ordinal - first) / span * plot_w

    def y_of(value: float) -> float:
        return MARGIN_TOP + plot_h - (value / vmax) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        f'<text x="14" y="{MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {MARGIN_TOP + plot_h / 2:.0f})">{_escape(y_label)}</text>',
    ]

    # Shaded outage spans sit behind everything else; half-day padding
    # keeps one-day events visible.
    for start, end, label in events:
        x1 = max(x_of(start.toordinal() - 0.5), MARGIN_LEFT)
        x2 = min(x_of(end.toordinal() + 0.5), MARGIN_LEFT + plot_w)
        if x2 <= x1:
            continue
        parts.append(
            f'<rect class="event" x="{_fmt(x1)}" y="{MARGIN_TOP}" width="{_fmt(x2 - x1)}" '
            f'height="{plot_h}" fill="#d62728" fill-opacity="0.15">'
            f"<title>{_escape(label)}</title></rect>"
        )

    # Axes and ticks.
    x_axis_y = MARGIN_TOP + plot_h
    parts.append(f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{MARGIN_LEFT + plot_w}" '
                 f'y2="{x_axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
                 f'y2="{x_axis_y}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = vmax * frac
        y = y_of(value)
        parts.append(f'<line x1="{MARGIN_LEFT - 4}" y1="{_fmt(y)}" x2="{MARGIN_LEFT}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 7}" y="{_fmt(y + 3.5)}" '
                     f'text-anchor="end">{value:.0f}</text>')
    tick_count = min(6, len(points))
    for k in range(tick_count):
        idx = k * (len(points) - 1) // max(tick_count - 1, 1)
        day = points[idx][0]
        x = x_of(day.toordinal())
        parts.append(f'<line x1="{_fmt(x)}" y1="{x_axis_y}" x2="{_fmt(x)}" '
                     f'y2="{x_axis_y + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{x_axis_y + 16}" '
                     f'text-anchor="middle">{day.isoformat()}</text>')

    # The line, split into one polyline per run of consecutive days.
    for segment in _segments(points):
        coords = " ".join(f"{_fmt(x_of(d.toordinal()))},{_fmt(y_of(v))}" for d, v in segment)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for day, value in points:
        parts.append(f'<circle cx="{_fmt(x_of(day.toordinal()))}" cy="{_fmt(y_of(value))}" '
                     f'r="2" fill="#1f77b4"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _segments(points: Sequence[tuple[dt.date, float]]) -> list[list[tuple[dt.date, float]]]:
    """Split a date-sorted series wherever a calendar day is missing."""
    runs: list[list[tuple[dt.date, float]]] = []
    for point in points:
        if runs and (point[0] - runs[-1][-1][0]).days == 1:
            runs[-1].append(point)
        else:
            runs.append([point])
    return runs


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
