"""Dip detection over metric series and catalog-based event annotation.

A snapshot day dips when its value falls more than a threshold fraction
below the median of the values on up to N prior snapshot days.  Dips are
found as runs of consecutive indices into a MetricSeries' columns, so a
gap day, which has no index, neither ends nor extends a run.  Each run is
one outage event: dated by the series' dates at its ends, with the
reference of its first day and the least value inside it.  Detected
events can be annotated from a catalog of known real-world disruptions
(`id|start|end|label|source` lines, end empty for an open-ended range)
whose date ranges overlap theirs.
"""

from __future__ import annotations

import csv
import datetime as dt
from typing import IO, Iterable, NamedTuple, Sequence

from .metrics import MetricSeries, read_csv_rows

DEFAULT_TRAILING_WINDOW = 7
DEFAULT_THRESHOLD = 0.05
DEFAULT_MIN_REFERENCE = 10

EVENTS_CSV_HEADER = ("ixp", "country", "metric", "start", "end", "reference", "min", "drop", "annotation")


class OutageEvent(NamedTuple):
    """A contiguous dip in one metric series."""

    ixp: str
    country: str
    metric: str
    start: dt.date
    end: dt.date
    reference_level: float
    min_value: float
    relative_drop: float
    annotation: str | None = None


class CatalogEvent(NamedTuple):
    """A known real-world disruption to match detected outages against;
    `parse_catalog` refuses one without a label or ending before it starts."""

    id: str
    start: dt.date
    end: dt.date | None  # None: open-ended
    label: str
    source: str = ""


def _median(window: Sequence[float]) -> float:
    """`statistics.median`: the middle sorted value, or the mean of the two middle ones."""
    ordered, middle = sorted(window), len(window) // 2
    return ordered[middle] if len(window) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def detect_dips(
    series: MetricSeries,
    metric: str,
    *,
    trailing_window: int = DEFAULT_TRAILING_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
    min_reference: float = DEFAULT_MIN_REFERENCE,
) -> list[OutageEvent]:
    """Find dips: days where the value drops below (1 - threshold) times
    the median of the up-to-N most recent prior values.

    Consecutive dip indices merge into one event (calendar gaps between
    them do not split an event, since gap days have no index).  The
    reference must reach `min_reference` for a day to qualify, which keeps
    tiny series from generating noise events.  The first day has no prior
    value and never dips; the next few are judged against the fewer prior
    days they have, so a series of any length is judged.
    """
    values = series.values(metric)
    runs: list[list] = []  # [first, last, reference] per run of dip indices
    for i in range(1, len(values)):
        reference = _median(values[max(0, i - trailing_window):i])
        if reference >= min_reference and values[i] < (1 - threshold) * reference:
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i, reference])
    events = []
    for first, last, reference in runs:
        low = min(values[first:last + 1])
        events.append(OutageEvent(
            ixp=series.ixp,
            country=series.country,
            metric=metric,
            start=series.dates[first],
            end=series.dates[last],
            reference_level=reference,
            min_value=low,
            relative_drop=(reference - low) / reference,
        ))
    return events


def _overlap_days(event: OutageEvent, entry: CatalogEvent) -> int:
    first = max(event.start, entry.start)
    last = min(event.end, entry.end or event.end)
    return (last - first).days + 1 if last >= first else 0


def annotate(events: Iterable[OutageEvent], catalog: Sequence[CatalogEvent]) -> list[OutageEvent]:
    """Attach the best-matching catalog id to each outage.

    A catalog range must overlap the outage span, both ends inclusive; the
    match with the most overlapping days wins, earliest catalog start
    breaking ties.  An approximate event is widened in its own catalog
    line.  Unmatched outages keep an empty annotation.  Dates and levels
    are never altered.
    """
    out = []
    for event in events:
        best = None
        best_key = None
        for entry in catalog:
            days = _overlap_days(event, entry)
            if days <= 0:
                continue
            key = (-days, entry.start, entry.id)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        out.append(event._replace(annotation=best.id) if best is not None else event)
    return out


def parse_catalog(source: Iterable[str]) -> list[CatalogEvent]:
    """Parse `id|start|end|label|source` lines; `#` starts a comment."""
    entries = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 5:
            raise ValueError(f"catalog line {lineno}: expected 5 pipe-separated fields")
        event_id, start_text, end_text, label, source_text = (p.strip() for p in parts)
        try:
            start = dt.date.fromisoformat(start_text)
            end = dt.date.fromisoformat(end_text) if end_text else None
            if not label:
                raise ValueError(f"catalog event {event_id!r} needs a label")
            if end is not None and end < start:
                raise ValueError(f"catalog event {event_id!r} ends before it starts")
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from None
        entries.append(CatalogEvent(event_id, start, end, label, source_text))
    return entries


def load_seed_catalog() -> list[CatalogEvent]:
    """The catalog of known 2022 disruption events bundled with the package."""
    from importlib import resources  # only the packaged catalog needs it
    text = resources.files("ixpreach").joinpath("data/event_catalog.txt").read_text("utf-8")
    return parse_catalog(text.splitlines())


def write_events_csv(stream: IO[str], events: Iterable[OutageEvent]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(EVENTS_CSV_HEADER)
    for ev in sorted(events, key=lambda e: (e.ixp, e.country, e.metric, e.start)):
        writer.writerow(
            (ev.ixp, ev.country, ev.metric, ev.start.isoformat(), ev.end.isoformat(),
             format(ev.reference_level, ".6g"), format(ev.min_value, ".6g"),
             format(ev.relative_drop, ".6f"), ev.annotation or "")
        )


def read_events_csv(stream: IO[str]) -> list[OutageEvent]:
    """Read the events written by :func:`write_events_csv`; a row that
    does not parse raises ValueError as `read_csv_rows` says."""
    return read_csv_rows(
        stream, EVENTS_CSV_HEADER, "an events CSV",
        lambda ixp, country, metric, start, end, reference, minimum, drop, annotation: OutageEvent(
            ixp, country, metric, dt.date.fromisoformat(start), dt.date.fromisoformat(end),
            float(reference), float(minimum), float(drop), annotation or None))
