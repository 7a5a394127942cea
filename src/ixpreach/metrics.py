"""Daily per-IXP per-country visibility metrics and their time series.

Country attribution happens here and only here: `build_series` makes one
pass over each snapshot for every analysed country, looking up each row's
origin and neighbor in the ASN database.  Everything else per country is
derived from what that pass returns: the presence maps below, and the
reachability sets in `reachability`.

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
from collections.abc import Mapping
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

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


class PresenceMap(Mapping):
    """ASN -> frozenset of snapshot dates on which the ASN was seen.

    Also remembers every snapshot date of the underlying series, so
    absence can be counted without conflating gaps with outages.
    """

    def __init__(self, by_asn: dict[int, frozenset[dt.date]], snapshot_dates: Iterable[dt.date]):
        self._by_asn = by_asn
        self.snapshot_dates = tuple(sorted(snapshot_dates))

    def __getitem__(self, asn: int) -> frozenset[dt.date]:
        return self._by_asn[asn]

    def __iter__(self) -> Iterator[int]:
        return iter(self._by_asn)

    def __len__(self) -> int:
        return len(self._by_asn)

    def __repr__(self) -> str:
        return f"PresenceMap({len(self._by_asn)} asns over {len(self.snapshot_dates)} days)"


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
            path = entry.as_path
            cc = country_of.get(path[-1])
            if cc is not None:
                announcements[cc] += 1
                origins[cc].add(path[-1])
                prefixes[cc].add(entry.prefix)
            cc = country_of.get(path[0])
            if cc is not None:
                neighbors[cc].add(path[0])
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


def origin_presence(daily_origins: Mapping[dt.date, Iterable[int]]) -> PresenceMap:
    """For each origin ever seen, the exact snapshot dates on which it
    appears, from one country's per-date origins as `build_series` returns
    them (one key per snapshot date)."""
    seen: dict[int, set[dt.date]] = {}
    for day, origins in daily_origins.items():
        for asn in origins:
            seen.setdefault(asn, set()).add(day)
    return PresenceMap({asn: frozenset(dates) for asn, dates in seen.items()}, daily_origins)


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
