import datetime as dt
from pathlib import Path

import pytest

from ixpreach import asndb, pipeline
from ixpreach.metrics import METRIC_NAMES, build_series
from ixpreach.reachability import diff_reachability
from ixpreach.rtingest import Snapshot, SnapshotSeries

FIXTURES = Path(__file__).parent / "fixtures"

BASE = dt.date(2022, 2, 19)


def day(offset: int) -> dt.date:
    return BASE + dt.timedelta(days=offset)


# Catalog lines `parse_catalog` refuses, with the message after its line number.
BAD_CATALOG_LINES = {
    "empty-label": ("a|2022-03-01|2022-03-02||src", "catalog event 'a' needs a label"),
    "end-before-start": ("a|2022-03-02|2022-03-01|label|src", "catalog event 'a' ends before it starts"),
    "bad-date": ("a|2022-03-01|soon|label|src", "Invalid isoformat string: 'soon'"),
}


def make_db(countries: dict[int, str]) -> dict[int, str]:
    """A copy of a plain {asn: country} mapping, as `asndb.load` returns it."""
    return dict(countries)


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
        Snapshot(date=d, entries=tuple(row_id(prefix, path) for prefix, path in rows))
        for d, rows in sorted(days_rows.items())
    )
    return SnapshotSeries(ixp=ixp, snapshots=snapshots, gaps=tuple(sorted(gaps)),
                          prefix_of=columns[0], origin_of=columns[1], neighbor_of=columns[2])


def rows_of(snapshot, table):
    """A snapshot's (prefix, origin, neighbor) rows, read through the
    row-id columns of `table` (an InternTable or a SnapshotSeries)."""
    return [(table.prefix_of[i], table.origin_of[i], table.neighbor_of[i]) for i in snapshot.entries]


def country_series(series, db, country):
    """One country's (MetricSeries, PresenceMap) from build_series."""
    return build_series(series, db, [country])[country]


def presence_of(series, db, country):
    """The country's origin presence map, as build_series gives the pipeline."""
    return country_series(series, db, country)[1]


def day_counts(mseries):
    """Each snapshot date's (announcements, distinct_origins,
    distinct_prefixes, distinct_neighbors), read off the columns."""
    return dict(zip(mseries.dates, zip(*map(mseries.values, METRIC_NAMES))))


def origins_by_date(presence):
    """Each snapshot date's origin set, expanded bit by bit from the masks,
    after checking each origin's mask is not empty and has no bit at or
    past the last snapshot index."""
    by_date = {d: set() for d in presence.dates}
    for origin, mask in presence.masks.items():
        assert 0 < mask < 1 << len(presence.dates), (origin, mask)
        for i, d in enumerate(presence.dates):
            if mask >> i & 1:
                by_date[d].add(origin)
    return by_date


def reach(series, db, country, baseline, final, window=3):
    """The pipeline's reachability report for one (series, country), over
    the series cut to the days from `baseline` to `final`: as in
    `run_analysis`, both must be snapshot days."""
    snapshots = tuple(snap for snap in series.snapshots if baseline <= snap.date <= final)
    assert (snapshots[0].date, snapshots[-1].date) == (baseline, final)
    window_series = series._replace(snapshots=snapshots,
                                    gaps=tuple(d for d in series.gaps if baseline <= d <= final))
    return diff_reachability(presence_of(window_series, db, country), window)


def analyze_generated(tmp_path, gt, scen_dir="scen"):
    """Build the database of the tree `synth.generate` wrote for `gt` under
    `tmp_path / scen_dir`, analyse the tree with the truth's confirmation
    window and detector settings, write the outputs `synth.verify` reads
    and return the run's result."""
    db, skipped = asndb.build_from_files([("ripencc", tmp_path / scen_dir / "delegated.txt")])
    assert skipped == []
    db_path = tmp_path / f"{scen_dir}-asndb.txt"
    asndb.save(db, db_path)
    config = pipeline.RunConfig(
        asndb_path=db_path,
        snapshot_root=tmp_path / scen_dir / "snapshots",
        output_dir=tmp_path / f"{scen_dir}-out",
        ixps=gt.ixps,
        countries=gt.countries,
        baseline_date=gt.baseline_date,
        final_date=gt.final_date,
        confirmation_window=gt.confirmation_window,
        **gt.detector,
    )
    result = pipeline.run_analysis(config)
    pipeline.write_outputs(result)  # verify reads these files
    return result


@pytest.fixture
def delegated_dir() -> Path:
    return FIXTURES / "delegated"
