"""Daily per-IXP per-country visibility metrics and origin presence.

Country attribution happens here and only here.  `build_series` looks up
the country of each distinct row id's origin and neighbor once, then
follows the series day by day: it diffs each snapshot's set of row ids
against the day before and applies only the added and removed ids to
per-country reference counts of origins, prefixes and neighbors, whose
sizes are three of the counts below.  Besides the counts it keeps, per
in-country origin, the runs of snapshot days on which the origin is
present: a run opens when the origin's reference count goes from 0 to 1
and closes when it falls back to 0, so presence grows with the changes
of a table, not with its days.  A PresenceMap wraps those runs with the
snapshot dates, and `reachability` reads every origin set it needs off
them.

Four counts are taken from each snapshot for a given country:

* announcements: routing-table rows whose origin AS is in-country
  (duplicates count, one row is one announcement)
* distinct_origins: unique in-country origin ASNs
* distinct_prefixes: unique prefixes announced by in-country origins
* distinct_neighbors: unique in-country first-hop ASNs, judged by the
  neighbor's own country
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import IO, Iterable

from .asndb import AsnDb
from .rtingest import SnapshotSeries

METRIC_NAMES = ("announcements", "distinct_origins", "distinct_prefixes", "distinct_neighbors")

METRICS_CSV_HEADER = ("ixp", "country", "date") + METRIC_NAMES

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")


def check_country(country: str) -> str:
    """Reject filter codes that can never name a real country."""
    if not _COUNTRY_RE.match(country) or country == "ZZ":
        raise ValueError(f"not a usable country filter: {country!r}")
    return country


@dataclass(frozen=True, slots=True)
class DailyMetrics:
    ixp: str
    date: dt.date
    country: str
    announcements: int
    distinct_origins: int
    distinct_prefixes: int
    distinct_neighbors: int


@dataclass(frozen=True)
class MetricSeries:
    """Date-ordered DailyMetrics for one (IXP, country) pair."""

    ixp: str
    country: str
    points: tuple[DailyMetrics, ...]
    gaps: tuple[dt.date, ...] = ()

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(p.date for p in self.points)

    def values(self, metric: str) -> tuple[int, ...]:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
        return tuple(getattr(p, metric) for p in self.points)


@dataclass(frozen=True)
class PresenceMap:
    """One country's in-country origins over the snapshots of one IXP.

    `dates` holds every snapshot date in order and no gap date; snapshot
    index i is `dates[i]`.  `runs` maps each origin seen on any snapshot
    to the half-open runs of snapshot indices on which it is present,
    flattened as `[start, end, start, end, ...]`: ascending, never empty,
    and never touching, so a run ends on the index where the origin is
    first absent.  A gap day has no index, so an origin's absence from a
    snapshot is never confused with a day that has no snapshot.
    """

    dates: tuple[dt.date, ...]
    runs: dict[int, list[int]]


def _hold(counts: dict, key: int | str) -> bool:
    """Take a reference on `key`; True if it is the first one."""
    held = counts.get(key, 0)
    counts[key] = held + 1
    return not held


def _release(counts: dict, key: int | str) -> bool:
    """Drop a reference on `key`; True if it was the last one."""
    left = counts[key] - 1
    if left:
        counts[key] = left
        return False
    del counts[key]
    return True


def _open_run(runs: dict[int, list[int]], origin: int, index: int) -> None:
    bounds = runs.get(origin)
    if bounds is None:
        runs[origin] = [index]
    elif bounds[-1] == index:
        bounds.pop()  # released and held again on the same day: the run goes on
    else:
        bounds.append(index)


def build_series(
    series: SnapshotSeries, db: AsnDb, countries: Iterable[str]
) -> dict[str, tuple[MetricSeries, dict[int, list[int]]]]:
    """Attribute every snapshot's rows to the given countries.

    For each distinct country: its MetricSeries (one DailyMetrics per
    snapshot, order preserved, gaps carried over) and the runs of
    snapshot indices on which each in-country origin is present, as
    `PresenceMap.runs` holds them and `origin_presence` takes them.  The
    result does not depend on row order or on repeated countries.

    Each row id present on a day holds one reference on its in-country
    origin, (country, prefix) pair and neighbor; a day costs set algebra
    over its ids plus the ids that came or went since the day before.
    Only ids with an in-country origin or neighbor enter the day sets.
    An origin's run opens or closes only when its first reference is
    taken or its last one dropped.
    """
    wanted = {check_country(cc) for cc in countries}
    country_of: dict[int, str | None] = {}
    for asn in set(series.origin_of).union(series.neighbor_of):
        cc = db.countries.get(asn)
        country_of[asn] = cc if cc in wanted else None
    origin_cc = list(map(country_of.__getitem__, series.origin_of))
    neighbor_cc = list(map(country_of.__getitem__, series.neighbor_of))
    keep = bytes(o is not None or n is not None for o, n in zip(origin_cc, neighbor_cc))
    prefix_of, origin_of, neighbor_of = series.prefix_of, series.origin_of, series.neighbor_of

    origins: dict[str, dict[int, int]] = {cc: {} for cc in wanted}
    prefixes: dict[str, dict[str, int]] = {cc: {} for cc in wanted}
    neighbors: dict[str, dict[int, int]] = {cc: {} for cc in wanted}
    points: dict[str, list[DailyMetrics]] = {cc: [] for cc in wanted}
    runs: dict[str, dict[int, list[int]]] = {cc: {} for cc in wanted}
    present: set[int] = set()
    for index, snap in enumerate(series.snapshots):
        kept = list(compress(snap.entries, map(keep.__getitem__, snap.entries)))
        today = set(kept)
        for rid in present - today:
            cc = origin_cc[rid]
            if cc is not None:
                if _release(origins[cc], origin_of[rid]):
                    runs[cc][origin_of[rid]].append(index)
                _release(prefixes[cc], prefix_of[rid])
            cc = neighbor_cc[rid]
            if cc is not None:
                _release(neighbors[cc], neighbor_of[rid])
        for rid in today - present:
            cc = origin_cc[rid]
            if cc is not None:
                if _hold(origins[cc], origin_of[rid]):
                    _open_run(runs[cc], origin_of[rid], index)
                _hold(prefixes[cc], prefix_of[rid])
            cc = neighbor_cc[rid]
            if cc is not None:
                _hold(neighbors[cc], neighbor_of[rid])
        present = today
        announcements = Counter(map(origin_cc.__getitem__, kept))
        for cc in wanted:
            points[cc].append(DailyMetrics(
                ixp=snap.ixp,
                date=snap.date,
                country=cc,
                announcements=announcements[cc],
                distinct_origins=len(origins[cc]),
                distinct_prefixes=len(prefixes[cc]),
                distinct_neighbors=len(neighbors[cc]),
            ))
    end = len(series.snapshots)
    for cc in wanted:
        for origin in origins[cc]:
            runs[cc][origin].append(end)
    return {
        cc: (MetricSeries(ixp=series.ixp, country=cc, points=tuple(points[cc]), gaps=series.gaps),
             runs[cc])
        for cc in sorted(wanted)
    }


def origin_presence(dates: tuple[dt.date, ...], runs: dict[int, list[int]]) -> PresenceMap:
    """One country's presence from its snapshot dates and the origin runs
    `build_series` returns for it; the runs are kept, not copied."""
    return PresenceMap(dates, runs)


def write_metrics_csv(stream: IO[str], series_list: Iterable[MetricSeries]) -> None:
    """Emit the plot-data CSV, one row per (ixp, country, day), sorted."""
    rows = []
    for series in series_list:
        for p in series.points:
            rows.append((p.ixp, p.country, p.date.isoformat(), p.announcements,
                         p.distinct_origins, p.distinct_prefixes, p.distinct_neighbors))
    rows.sort()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    writer.writerows(rows)


def read_metrics_csv(stream: IO[str]) -> list[DailyMetrics]:
    """Read rows written by :func:`write_metrics_csv`."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(header) != METRICS_CSV_HEADER:
        raise ValueError(f"not a metrics CSV (header {header!r})")
    out = []
    for row in reader:
        if not row:
            continue
        ixp, country, date_text, ann, orig, pref, neigh = row
        out.append(DailyMetrics(ixp, dt.date.fromisoformat(date_text), country,
                                int(ann), int(orig), int(pref), int(neigh)))
    return out
