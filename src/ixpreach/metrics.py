"""Daily per-IXP per-country visibility counts and origin presence.

Country attribution happens here and only here.  `build_series` looks up
the country of each row id's origin and neighbor and gives every row id
one byte: 2 + i when its origin is in the i-th analysed country, 1 when
only its neighbor is in one, else 0.  A day's codes are then one gather
over the snapshot's row ids: the ids with a nonzero code are the day's
set, and the count of byte 2 + i is the i-th country's announcements.
The ids that came or went since the day before are applied to
per-country reference counts of origins, prefixes and neighbors, whose
sizes are the other three counts below.  Past 254 countries the codes no longer fit a
byte, so the countries go in sorted blocks of 254, each with its own
codes and its own walk over the series.

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
from itertools import compress, repeat
from operator import itemgetter
from typing import IO, Callable, Iterable, NamedTuple, TypeVar

from .rtingest import SnapshotSeries

METRIC_NAMES = ("announcements", "distinct_origins", "distinct_prefixes", "distinct_neighbors")

METRICS_CSV_HEADER = ("ixp", "country", "date") + METRIC_NAMES


class MetricSeries(NamedTuple):
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


class PresenceMap(NamedTuple):
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


# Countries per block: codes 0 and 1 are taken, and a code is one byte.
_BLOCK = 254
_NONZERO = bytes([0] + [1] * 255)  # translate tables: code to 0/1 flag
_ZERO = bytes([1] + [0] * 255)


def build_series(
    series: SnapshotSeries, db: dict[int, str], countries: Iterable[str]
) -> dict[str, tuple[MetricSeries, PresenceMap]]:
    """Attribute every snapshot's rows to the given countries, each ASN's
    country read from `db`, the ASN -> country map `asndb.load` returns.

    For each distinct country: its MetricSeries (one count per snapshot
    in each column) and its PresenceMap, both over the one dates tuple
    that every country shares.  The result does not depend on row order
    or on repeated countries.

    The countries go in sorted blocks of up to `_BLOCK`, and each block
    walks the series with its own code table (`_row_codes`).  A day costs
    one gather of its ids' code bytes, a set of the ids whose code is not
    0, one `bytes.count` per country, and the ids that came or went since
    the day before.  Each id present on a day holds one reference on its
    in-country origin, (country, prefix) pair and neighbor.  An origin's
    mask changes only when its first reference is taken or its last one
    dropped.
    """
    wanted = sorted(set(countries))
    dates = tuple(snap.date for snap in series.snapshots)
    attributed: dict[str, tuple[MetricSeries, PresenceMap]] = {}
    for first in range(0, len(wanted), _BLOCK):
        attributed.update(_build_block(series, db, wanted[first:first + _BLOCK], dates))
    return attributed


def _row_codes(series: SnapshotSeries, db: dict[int, str], block: list[str]) -> tuple[bytes, bytes]:
    """Each row id's code and its neighbor's code for one block.

    An ASN's code is 2 + i when its country is `block[i]`, else 0.  The
    neighbor codes are the neighbor ASNs' codes; a row's code is its
    origin's code, or 1 when only its neighbor is in a block country.
    Each row's two ASNs go straight through the country map and the
    block's code table, at C level.
    """
    code_in = {cc: code for code, cc in enumerate(block, 2)}
    origin_codes = bytes(map(code_in.get, map(db.get, series.origin_of), repeat(0)))
    neighbor_codes = bytes(map(code_in.get, map(db.get, series.neighbor_of), repeat(0)))
    # Byte-wise over whole tables: the origin's code, or the neighbor's 0/1
    # flag where the origin's code is 0.
    row = int.from_bytes(origin_codes, "big") | (
        int.from_bytes(neighbor_codes.translate(_NONZERO), "big")
        & int.from_bytes(origin_codes.translate(_ZERO), "big"))
    return row.to_bytes(len(origin_codes), "big"), neighbor_codes


def _build_block(
    series: SnapshotSeries, db: dict[int, str], block: list[str], dates: tuple[dt.date, ...]
) -> dict[str, tuple[MetricSeries, PresenceMap]]:
    """`build_series` for one block of at most `_BLOCK` sorted countries."""
    codes, neighbor_codes = _row_codes(series, db, block)
    prefix_of, origin_of, neighbor_of = series.prefix_of, series.origin_of, series.neighbor_of
    # Per-country state, indexed by block position: code - 2.
    origins: list[dict[int, int]] = [{} for _ in block]
    prefixes: list[dict[str, int]] = [{} for _ in block]
    neighbors: list[dict[int, int]] = [{} for _ in block]
    masks: list[dict[int, int]] = [{} for _ in block]
    counts: list[list[tuple[int, int, int, int]]] = [[] for _ in block]
    present: set[int] = set()
    for index, snap in enumerate(series.snapshots):
        entries = snap.entries
        # itemgetter gives a scalar for one key and refuses none.
        day_codes = (bytes(itemgetter(*entries)(codes)) if len(entries) > 1
                     else bytes(map(codes.__getitem__, entries)))
        today = set(compress(entries, day_codes))
        for rid in present - today:
            i = codes[rid] - 2
            if i >= 0:
                if _release(origins[i], origin_of[rid]):
                    masks[i][origin_of[rid]] &= (1 << index) - 1
                _release(prefixes[i], prefix_of[rid])
            i = neighbor_codes[rid] - 2
            if i >= 0:
                _release(neighbors[i], neighbor_of[rid])
        for rid in today - present:
            i = codes[rid] - 2
            if i >= 0:
                origin = origin_of[rid]
                if _hold(origins[i], origin):
                    # Held, the mask is negative: an open run sets every bit
                    # from `index` up, and the release clears those past it.
                    masks[i][origin] = masks[i].get(origin, 0) | -(1 << index)
                _hold(prefixes[i], prefix_of[rid])
            i = neighbor_codes[rid] - 2
            if i >= 0:
                _hold(neighbors[i], neighbor_of[rid])
        present = today
        for i, column in enumerate(counts):
            column.append((day_codes.count(i + 2), len(origins[i]),
                           len(prefixes[i]), len(neighbors[i])))
    every_day = (1 << len(dates)) - 1
    for held, held_masks in zip(origins, masks):
        for origin in held:
            held_masks[origin] &= every_day
    # One column per metric; a series with no snapshot gets empty ones.
    return {
        cc: (MetricSeries(series.ixp, cc, dates, *(tuple(zip(*column)) or ((),) * len(METRIC_NAMES))),
             origin_presence(dates, cc_masks))
        for cc, column, cc_masks in zip(block, counts, masks)
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


T = TypeVar("T")


def read_csv_rows(stream: IO[str], header: tuple[str, ...], kind: str, parse: Callable[..., T]) -> list[T]:
    """`parse(*row)` for each non-blank row of a CSV whose first row is
    `header`.  Another first row ("not <kind>"), a row whose width is not
    the header's, a csv error, and a ValueError from `parse` each raise
    ValueError naming `<name>:<line>`: the stream's `name` (the path it
    was opened from) and the line read last."""
    reader = csv.reader(stream)
    parsed = []
    try:
        first = next(reader, None)
        if first is None or tuple(first) != header:
            raise ValueError(f"not {kind} (header {first!r})")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, expected {len(header)}")
            parsed.append(parse(*row))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{getattr(stream, 'name', '<stream>')}:{reader.line_num}: {exc}") from None
    return parsed


def read_metrics_csv(stream: IO[str]) -> MetricSeries:
    """Read the series written by :func:`write_metrics_csv`, with its days
    sorted.  A file with no rows, or with rows of two (ixp, country)
    pairs, raises ValueError, and so does a row as `read_csv_rows` says,
    a second row for one pair's day among them."""
    seen: set[tuple[str, str, dt.date]] = set()

    def parse(ixp, country, date_text, *counts):
        row = (ixp, country, dt.date.fromisoformat(date_text), *map(int, counts))
        if row[:3] in seen:
            raise ValueError(f"a second row for {row[2]}")
        seen.add(row[:3])
        return row

    rows = read_csv_rows(stream, METRICS_CSV_HEADER, "a metrics CSV", parse)
    pairs = sorted({row[:2] for row in rows})
    if len(pairs) != 1:
        found = ", ".join(map("/".join, pairs)) or "no rows"
        raise ValueError(f"metrics CSV should hold one (ixp, country) series, found {found}")
    return MetricSeries(*pairs[0], *zip(*sorted(row[2:] for row in rows)))
