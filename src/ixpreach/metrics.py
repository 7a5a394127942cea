"""Daily per-IXP per-country visibility counts and origin presence.

Country attribution happens here and only here.  `build_series` looks up
the country of each distinct row id's origin and neighbor once, then
follows the series day by day: it diffs each snapshot's set of row ids
against the day before and applies only the added and removed ids to
per-country reference counts of origins, prefixes and neighbors, whose
sizes are three of the counts below.

Everything is indexed by snapshot: index i is the IXP's i-th snapshot
date, and gap days have no index.  A MetricSeries holds the IXP's dates
once and one column of counts per metric, so `values(metric)[i]` is the
count on `dates[i]`.  Besides the counts, `build_series` keeps, per
in-country origin, a bitmask of the snapshot indices on which the origin
is present, set or cleared from the day its reference count leaves or
returns to 0.  A PresenceMap wraps those masks with the same dates
tuple, and `reachability` reads every origin set it needs off them;
`outage` finds dips as runs of indices into the columns.

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
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import IO, Iterable

from .asndb import AsnDb
from .rtingest import SnapshotSeries

METRIC_NAMES = ("announcements", "distinct_origins", "distinct_prefixes", "distinct_neighbors")

METRICS_CSV_HEADER = ("ixp", "country", "date") + METRIC_NAMES


@dataclass(frozen=True)
class MetricSeries:
    """The four counts of one (IXP, country) pair over the IXP's snapshots.

    `dates` holds every snapshot date in order and no gap date; each
    metric field holds one count per date, in the same order.
    """

    ixp: str
    country: str
    dates: tuple[dt.date, ...]
    announcements: tuple[int, ...]
    distinct_origins: tuple[int, ...]
    distinct_prefixes: tuple[int, ...]
    distinct_neighbors: tuple[int, ...]

    def values(self, metric: str) -> tuple[int, ...]:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
        return getattr(self, metric)


@dataclass(frozen=True)
class PresenceMap:
    """One country's in-country origins over the snapshots of one IXP.

    `dates` holds every snapshot date in order and no gap date; snapshot
    index i is `dates[i]`.  `masks` maps each origin seen on any snapshot
    to an int whose bit i is set iff the origin is present on snapshot i,
    so a mask is > 0 and below `1 << len(dates)`.  A gap day has no
    index, so an origin's absence from a snapshot is never confused with
    a day that has no snapshot.  A mask is smaller than a list of run
    bounds up to about 450 snapshot days.
    """

    dates: tuple[dt.date, ...]
    masks: dict[int, int]


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


def build_series(
    series: SnapshotSeries, db: AsnDb, countries: Iterable[str]
) -> dict[str, tuple[MetricSeries, PresenceMap]]:
    """Attribute every snapshot's rows to the given countries.

    For each distinct country: its MetricSeries (one count per snapshot
    in each column) and its PresenceMap, both over the one dates tuple
    that every country shares.  The result does not depend on row order
    or on repeated countries.

    Each row id present on a day holds one reference on its in-country
    origin, (country, prefix) pair and neighbor; a day costs set algebra
    over its ids plus the ids that came or went since the day before.
    Only ids with an in-country origin or neighbor enter the day sets.
    An origin's mask changes only when its first reference is taken or
    its last one dropped.
    """
    wanted = set(countries)
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
    counts: dict[str, list[tuple[int, int, int, int]]] = {cc: [] for cc in wanted}
    masks: dict[str, dict[int, int]] = {cc: {} for cc in wanted}
    present: set[int] = set()
    for index, snap in enumerate(series.snapshots):
        kept = list(compress(snap.entries, map(keep.__getitem__, snap.entries)))
        today = set(kept)
        for rid in present - today:
            cc = origin_cc[rid]
            if cc is not None:
                if _release(origins[cc], origin_of[rid]):
                    masks[cc][origin_of[rid]] &= (1 << index) - 1
                _release(prefixes[cc], prefix_of[rid])
            cc = neighbor_cc[rid]
            if cc is not None:
                _release(neighbors[cc], neighbor_of[rid])
        for rid in today - present:
            cc = origin_cc[rid]
            if cc is not None:
                origin = origin_of[rid]
                if _hold(origins[cc], origin):
                    # Held, the mask is negative: an open run sets every bit
                    # from `index` up, and the release clears those past it.
                    masks[cc][origin] = masks[cc].get(origin, 0) | -(1 << index)
                _hold(prefixes[cc], prefix_of[rid])
            cc = neighbor_cc[rid]
            if cc is not None:
                _hold(neighbors[cc], neighbor_of[rid])
        present = today
        announcements = Counter(map(origin_cc.__getitem__, kept))
        for cc in wanted:
            counts[cc].append((announcements[cc], len(origins[cc]),
                               len(prefixes[cc]), len(neighbors[cc])))
    every_day = (1 << len(series.snapshots)) - 1
    for cc in wanted:
        for origin in origins[cc]:
            masks[cc][origin] &= every_day
    dates = tuple(snap.date for snap in series.snapshots)
    # One column per metric; a series with no snapshot gets empty ones.
    return {
        cc: (MetricSeries(series.ixp, cc, dates,
                          *(tuple(zip(*counts[cc])) or ((),) * len(METRIC_NAMES))),
             origin_presence(dates, masks[cc]))
        for cc in sorted(wanted)
    }


def origin_presence(dates: tuple[dt.date, ...], masks: dict[int, int]) -> PresenceMap:
    """One country's presence from its snapshot dates and the origin masks
    `build_series` took for it; the masks are kept, not copied."""
    return PresenceMap(dates, masks)


def write_metrics_csv(stream: IO[str], series: MetricSeries) -> None:
    """Emit one series' plot-data CSV, one row per snapshot day in date order."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    writer.writerows((series.ixp, series.country, day.isoformat(), *counts)
                     for day, *counts in zip(series.dates, *map(series.values, METRIC_NAMES)))


def read_metrics_csv(stream: IO[str]) -> MetricSeries:
    """Read the series written by :func:`write_metrics_csv`, with its days
    sorted.  A file with no rows, or with rows of two (ixp, country)
    pairs, raises ValueError."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or tuple(header) != METRICS_CSV_HEADER:
        raise ValueError(f"not a metrics CSV (header {header!r})")
    rows = [row for row in reader if row]
    pairs = sorted({(ixp, country) for ixp, country, *_ in rows})
    if len(pairs) != 1:
        found = ", ".join(map("/".join, pairs)) or "no rows"
        raise ValueError(f"metrics CSV should hold one (ixp, country) series, found {found}")
    days = sorted((dt.date.fromisoformat(date_text), int(ann), int(orig), int(pref), int(neigh))
                  for _, _, date_text, ann, orig, pref, neigh in rows)
    return MetricSeries(*pairs[0], *zip(*days))
