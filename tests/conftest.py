import datetime as dt
import json
import random
import re
from pathlib import Path

import pytest

from ixpreach import asndb, pipeline
from ixpreach.metrics import METRIC_NAMES, build_series
from ixpreach.reachability import diff_reachability
from ixpreach.rtingest import DateRange, Snapshot, SnapshotSeries
from ixpreach.synth import CountrySpec, Disruption, ScenarioSpec

FIXTURES = Path(__file__).parent / "fixtures"

BASE = dt.date(2022, 2, 19)


def day(offset: int) -> dt.date:
    return BASE + dt.timedelta(days=offset)


# Catalog lines `parse_catalog` refuses, with the message after its line number.
BAD_CATALOG_LINES = {
    "empty-id": ("|2022-03-01|2022-03-02|label|src", "catalog event needs an id"),
    "empty-label": ("a|2022-03-01|2022-03-02||src", "catalog event 'a' needs a label"),
    "end-before-start": ("a|2022-03-02|2022-03-01|label|src", "catalog event 'a' ends before it starts"),
    "bad-date": ("a|2022-03-01|soon|label|src", "Invalid isoformat string: 'soon'"),
}


def readme_scenario() -> dict:
    """The scenario document of README.md's JSON block."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


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


# Final day 13, confirmation window days 10-12, day 11 a gap.  At each IXP
# one removal ends inside the window (back by the final day) and one on the
# final day; of the latter, origins seen on a window snapshot flap and the
# others are lost.  Every RU origin at linx is out on days 9-10 as well, so
# its flaps are seen on day 12 alone.
FLAP_SPEC = ScenarioSpec(
    seed=3,
    window=DateRange(BASE, day(13)),
    ixps=("amsix", "linx"),
    countries={"RU": CountrySpec(origin_count=8), "UA": CountrySpec(origin_count=12)},
    gap_dates=(day(11),),
    disruptions=(
        Disruption("origin_removal", "amsix", "UA", day(9), day(10), count=2),
        Disruption("origin_removal", "amsix", "UA", day(12), day(13), count=2),
        Disruption("origin_removal", "amsix", "UA", day(10), day(13), count=1),
        Disruption("origin_removal", "linx", "RU", day(9), day(10), count=8),
        Disruption("origin_removal", "linx", "RU", day(11), day(12), count=2),
        Disruption("origin_removal", "linx", "RU", day(13), day(13), count=2),
    ),
)


def random_scenario(seed: int) -> ScenarioSpec:
    """A randomized but valid scenario over the study's 5 IXPs and 70 days,
    for oracle-equivalence testing."""
    ixps = ("amsix", "linx", "six", "auix", "spoixbr")
    countries = ("UA", "RU", "DE")
    days = 70
    start = dt.date(2022, 2, 19)
    rng = random.Random(f"scenario:{seed}")
    window = DateRange(start, start + dt.timedelta(days=days - 1))
    country_specs = {}
    for cc in countries:
        country_specs[cc] = CountrySpec(
            origin_count=rng.randint(18, 45),
            prefixes_per_origin=(1, rng.randint(2, 4)),
            neighbor_count=rng.randint(0, 3),
        )

    interior = [start + dt.timedelta(days=off) for off in range(3, days - 5)]
    gap_dates = tuple(sorted(rng.sample(interior, rng.randint(0, 2))))

    disruptions = []
    for ixp in ixps:
        for cc in countries:
            cspec = country_specs[cc]
            for _ in range(rng.randint(0, 2)):
                kinds = ["origin_removal", "permanent_loss", "prefix_shrink", "join"]
                if cspec.neighbor_count >= 1:
                    kinds.append("neighbor_disconnect")
                kind = rng.choice(kinds)
                day0 = start + dt.timedelta(days=rng.randint(4, days - 10))
                if kind == "origin_removal":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 5)),
                        count=rng.randint(1, max(1, cspec.max_origins() // 5))))
                elif kind == "permanent_loss":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, count=rng.randint(1, max(1, cspec.max_origins() // 6))))
                elif kind == "prefix_shrink":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 3)),
                        magnitude=round(rng.uniform(0.2, 0.5), 2)))
                elif kind == "join":
                    disruptions.append(Disruption(kind, ixp, cc, day0, count=rng.randint(1, 2)))
                else:
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 2)), count=1))

    return ScenarioSpec(
        seed=seed,
        window=window,
        ixps=ixps,
        countries=country_specs,
        disruptions=tuple(disruptions),
        gap_dates=gap_dates,
    )


def flap_scenario(seed):
    """A seeded scenario whose removals meet the final day.  Each (IXP,
    country) pair gets one removal that starts inside the confirmation
    window, on any of its days, and one that starts before it; both last
    through the final day.  The first makes flaps, or losses where it
    starts on the window's first day or the window's earlier days are
    gaps; the second makes losses.  A third removal starts on the day one
    of the two starts and ends on a day of the window, so its origins are
    back by the final day.  Gaps fall on the day after the baseline and
    inside the window."""
    rng = random.Random(f"flaps:{seed}")
    days = rng.randint(14, 24)
    final = day(days - 1)
    confirmation = rng.randint(2, 4)
    in_window = [final - dt.timedelta(days=k) for k in range(1, confirmation + 1)]
    gaps = {day(1), *rng.sample(in_window, rng.randint(0, confirmation - 1))}
    countries = {"UA": CountrySpec(origin_count=rng.randint(10, 20), neighbor_count=rng.randint(0, 2)),
                 "RU": CountrySpec(origin_count=rng.randint(8, 16))}
    ixps = ("amsix", "linx")
    disruptions = []
    for ixp in ixps:
        for cc in countries:
            flap_start = final - dt.timedelta(days=rng.randint(1, confirmation))
            loss_start = day(rng.randint(1, days - 2 - confirmation))
            for start in (flap_start, loss_start):
                disruptions.append(Disruption("origin_removal", ixp, cc, start, final, count=rng.randint(1, 3)))
            start = rng.choice((flap_start, loss_start))
            end = final - dt.timedelta(days=rng.randint(1, min(confirmation, (final - start).days)))
            disruptions.append(Disruption("origin_removal", ixp, cc, start, end, count=rng.randint(1, 3)))
    return ScenarioSpec(seed=seed, window=DateRange(BASE, final), ixps=ixps,
                        countries=countries, disruptions=tuple(disruptions),
                        gap_dates=tuple(sorted(gaps)), confirmation_window=confirmation)


@pytest.fixture
def delegated_dir() -> Path:
    return FIXTURES / "delegated"
