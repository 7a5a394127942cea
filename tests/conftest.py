import datetime as dt
from pathlib import Path

import pytest

from ixpreach.asndb import AsnDb
from ixpreach.metrics import build_series, origin_presence
from ixpreach.reachability import diff_reachability
from ixpreach.rtingest import Snapshot, SnapshotSeries

FIXTURES = Path(__file__).parent / "fixtures"

BASE = dt.date(2022, 2, 19)


def day(offset: int) -> dt.date:
    return BASE + dt.timedelta(days=offset)


def make_db(countries: dict[int, str]) -> AsnDb:
    """In-memory AsnDb from a plain {asn: country} mapping."""
    return AsnDb(countries=dict(countries))


def make_series(days_rows, ixp="testix", gaps=()) -> SnapshotSeries:
    """Series from {date: rows} of (prefix, path) tuples; a path is a
    non-empty list or tuple, whose last element is the origin and first
    the neighbor.  As in the parser, each distinct (prefix, path) gets one
    row id, so paths that differ only between their endpoints hold
    distinct ids with equal fields."""
    ids: dict = {}
    columns: tuple[list, list, list] = ([], [], [])

    def row_id(prefix, path):
        key = (prefix, tuple(path))
        if key not in ids:
            ids[key] = len(ids)
            for column, value in zip(columns, (prefix, path[-1], path[0])):
                column.append(value)
        return ids[key]

    snapshots = tuple(
        Snapshot(ixp=ixp, date=d, entries=tuple(row_id(prefix, path) for prefix, path in rows))
        for d, rows in sorted(days_rows.items())
    )
    return SnapshotSeries(ixp=ixp, snapshots=snapshots, gaps=tuple(sorted(gaps)),
                          prefix_of=columns[0], origin_of=columns[1], neighbor_of=columns[2])


def rows_of(snapshot, table):
    """A snapshot's (prefix, origin, neighbor) rows, read through the
    row-id columns of `table` (an InternTable or a SnapshotSeries)."""
    return [(table.prefix_of[i], table.origin_of[i], table.neighbor_of[i]) for i in snapshot.entries]


def country_series(series, db, country):
    """One country's (MetricSeries, origin runs) from build_series."""
    return build_series(series, db, [country])[country]


def presence_of(series, db, country):
    """The country's origin presence map, built as the pipeline builds it."""
    mseries, runs = country_series(series, db, country)
    return origin_presence(mseries.dates(), runs)


def origins_by_date(presence):
    """Each snapshot date's origin set, expanded day by day from the runs,
    after checking each origin's bounds are ascending, never empty and
    never touching, inside the snapshot indices."""
    by_date = {d: set() for d in presence.dates}
    for origin, bounds in presence.runs.items():
        assert bounds and len(bounds) % 2 == 0, (origin, bounds)
        assert all(a < b for a, b in zip(bounds, bounds[1:])), (origin, bounds)
        assert 0 <= bounds[0] and bounds[-1] <= len(presence.dates), (origin, bounds)
        for start, end in zip(bounds[::2], bounds[1::2]):
            for i in range(start, end):
                by_date[presence.dates[i]].add(origin)
    return by_date


def reach(series, db, country, baseline, final, window=3):
    """The pipeline's reachability report for one (series, country)."""
    return diff_reachability(presence_of(series, db, country), series.ixp, country,
                             baseline, final, window)


@pytest.fixture
def delegated_dir() -> Path:
    return FIXTURES / "delegated"
