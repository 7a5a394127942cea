"""Daily per-IXP per-country visibility metrics and origin presence.

Country attribution happens here and only here: `build_series` makes one
pass over each snapshot for every analysed country, looking up each row's
origin and neighbor in the ASN database.  Besides the four counts below
it keeps each country's in-country origin set per snapshot date; a
PresenceMap wraps those sets as they are, and `reachability` reads every
origin set it needs straight off them.

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
from dataclasses import dataclass
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
    """One country's in-country origins on each snapshot date of one IXP.

    `by_date` has a key for every snapshot date and none for a gap date,
    so an origin's absence from a snapshot is never confused with a day
    that has no snapshot.
    """

    by_date: dict[dt.date, set[int]]


def build_series(
    series: SnapshotSeries, db: AsnDb, countries: Iterable[str]
) -> dict[str, tuple[MetricSeries, dict[dt.date, set[int]]]]:
    """Attribute every snapshot's rows to the given countries in one pass.

    For each distinct country: its MetricSeries (one DailyMetrics per
    snapshot, order preserved, gaps carried over) and its in-country
    origins on each snapshot date, the input of `origin_presence`.  The
    result does not depend on row order or on repeated countries.
    """
    wanted = {check_country(cc) for cc in countries}
    country_of = {asn: rec.country for asn, rec in db.records.items() if rec.country in wanted}
    points: dict[str, list[DailyMetrics]] = {cc: [] for cc in wanted}
    daily_origins: dict[str, dict[dt.date, set[int]]] = {cc: {} for cc in wanted}
    for snap in series.snapshots:
        announcements = dict.fromkeys(wanted, 0)
        origins: dict[str, set[int]] = {cc: set() for cc in wanted}
        prefixes: dict[str, set[str]] = {cc: set() for cc in wanted}
        neighbors: dict[str, set[int]] = {cc: set() for cc in wanted}
        for entry in snap.entries:
            cc = country_of.get(entry.origin)
            if cc is not None:
                announcements[cc] += 1
                origins[cc].add(entry.origin)
                prefixes[cc].add(entry.prefix)
            cc = country_of.get(entry.neighbor)
            if cc is not None:
                neighbors[cc].add(entry.neighbor)
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
            daily_origins[cc][snap.date] = origins[cc]
    return {
        cc: (MetricSeries(ixp=series.ixp, country=cc, points=tuple(points[cc]), gaps=series.gaps),
             daily_origins[cc])
        for cc in sorted(wanted)
    }


def origin_presence(daily_origins: dict[dt.date, set[int]]) -> PresenceMap:
    """One country's presence from its per-date origins as `build_series`
    returns them (one key per snapshot date); the sets are kept, not copied."""
    return PresenceMap(daily_origins)


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
