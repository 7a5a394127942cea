import random
import re

import pytest

from ixpreach import metrics
from ixpreach.asndb import COUNTRY_CODES
from ixpreach.metrics import MetricSeries, build_series
from ixpreach.pipeline import RunConfig

from conftest import (BASE, country_series, day, day_counts, make_db, make_series, origins_by_date,
                      presence_of, rows_of)


def compute_daily(rows, db, country):
    """The four counts build_series gives a one-snapshot series."""
    mseries = country_series(make_series({BASE: rows}), db, country)[0]
    assert mseries.dates == (BASE,)
    return day_counts(mseries)[BASE]


# 300 analysed codes, more than one block of byte codes holds: DE and RU fall
# in build_series' first block of 254 and UA in the second.  FR is left out, so an FR
# row stays foreign.
WIDE = sorted(["DE", "RU", "UA"] + [cc for cc in sorted(COUNTRY_CODES)
                                    if cc not in {"DE", "RU", "UA", "FR", "ZZ"}][::2][:297])
assert len(WIDE) == 300 and WIDE.index("RU") < 254 <= WIDE.index("UA")


def brute_counts(rows, countries, country):
    """Independent enumeration of the four counts from raw (prefix, path) rows."""
    ann = sum(1 for _, path in rows if countries.get(path[-1]) == country)
    origins = {path[-1] for _, path in rows if countries.get(path[-1]) == country}
    prefixes = {p for p, path in rows if countries.get(path[-1]) == country}
    neighbors = {path[0] for _, path in rows if countries.get(path[0]) == country}
    return ann, len(origins), len(prefixes), len(neighbors)


class TestComputeDaily:
    def test_three_row_hand_enumerated_example(self):
        # db: 20->UA, 21->UA, 10->DE, 11->UA; rows announce p1 twice, p2 once
        db = make_db({20: "UA", 21: "UA", 10: "DE", 11: "UA"})
        rows = [
            ("192.0.2.0/24", [10, 20]),
            ("192.0.2.0/24", [11, 20]),
            ("198.51.100.0/24", [10, 21]),
        ]
        announcements, origins, prefixes, neighbors = compute_daily(rows, db, "UA")
        assert announcements == 3
        assert origins == 2
        assert prefixes == 2
        assert neighbors == 1  # only first hop 11 is UA

    def test_empty_snapshot_is_all_zero(self):
        db = make_db({20: "UA"})
        assert compute_daily([], db, "UA") == (0, 0, 0, 0)

    def test_no_in_country_origin(self):
        db = make_db({20: "UA"})
        announcements, origins, prefixes, _ = compute_daily([("192.0.2.0/24", [10, 30])], db, "UA")
        assert announcements == 0
        assert origins == 0
        assert prefixes == 0

    def test_row_order_does_not_matter(self):
        rng = random.Random(5)
        countries = {i: ("UA" if i % 3 else "RU") for i in range(1, 30)}
        db = make_db(countries)
        rows = [(f"10.{i}.0.0/16", [rng.randint(1, 29), rng.randint(1, 29)]) for i in range(40)]
        base = compute_daily(rows, db, "UA")
        for _ in range(5):
            rng.shuffle(rows)
            assert compute_daily(rows, db, "UA") == base

    def test_matches_brute_force_on_random_snapshots(self):
        rng = random.Random(11)
        cases = []
        for _ in range(50):
            countries = {i: rng.choice(["UA", "RU", "DE"]) for i in range(1, 25)}
            rows = [
                (f"10.{rng.randint(0, 9)}.{rng.randint(0, 9)}.0/24",
                 [rng.randint(1, 30) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(0, 60))
            ]
            cases.append((countries, rows))
        countries = {1: "UA", 2: "RU", 3: "DE", 4: "FR"}
        cases += [
            (countries, [("192.0.2.0/24", [2, 1])]),  # one row: itemgetter returns a scalar
            (countries, []),  # no row: itemgetter() with no key raises
            (countries, [("192.0.2.0/24", [4, 4]), ("198.51.100.0/24", [4, 99])]),  # all foreign
        ]
        for countries, rows in cases:
            db = make_db(countries)
            for wanted in (["UA", "RU", "DE"], WIDE):
                joint = build_series(make_series({BASE: rows}), db, wanted)
                assert list(joint) == sorted(wanted)
                for cc in ("UA", "RU", "DE"):
                    assert day_counts(joint[cc][0]) == {BASE: brute_counts(rows, countries, cc)}
                    assert origins_by_date(joint[cc][1]) == {
                        BASE: {path[-1] for _, path in rows if countries.get(path[-1]) == cc}}

    def test_country_totals_bounded_by_entry_count(self):
        rng = random.Random(13)
        countries = {i: rng.choice(["UA", "RU"]) for i in range(1, 20)}
        db = make_db(countries)
        rows = [(f"10.{i}.0.0/16", [rng.randint(1, 25), rng.randint(1, 25)]) for i in range(30)]
        joint = build_series(make_series({BASE: rows}), db, ["UA", "RU"])
        total = sum(joint[cc][0].announcements[0] for cc in ("UA", "RU"))
        assert total <= len(rows)

    # build_series trusts its countries; the run's config refuses these.
    def test_zz_placeholder_is_not_a_country_filter(self, tmp_path):
        with pytest.raises(ValueError, match="^not a usable country filter: 'ZZ'$"):
            RunConfig(tmp_path, tmp_path, tmp_path, countries=("UA", "ZZ"))

    def test_code_with_a_trailing_newline_is_not_a_country_filter(self, tmp_path):
        with pytest.raises(ValueError, match=r"^not a usable country filter: 'UA\\n'$"):
            RunConfig(tmp_path, tmp_path, tmp_path, countries=("UA\n",))


def brute_masks(daily):
    """Each origin's mask of indices, from one origin set per index."""
    masks = {}
    for i, origins in enumerate(daily):
        for origin in origins:
            masks[origin] = masks.get(origin, 0) | 1 << i
    return masks


class TestBuildSeries:
    def test_point_count_and_gaps_preserved(self):
        db = make_db({20: "UA"})
        days = {day(i): [("192.0.2.0/24", [20])] for i in range(5)}
        series = make_series(days, gaps=[day(5), day(6)])
        mseries, presence = country_series(series, db, "UA")
        assert len(mseries.dates) == len(mseries.announcements) == 5
        assert presence.dates == tuple(day(i) for i in range(5))
        assert presence.masks == {20: 0b11111}

    def test_joint_pass_equals_single_country_passes(self):
        rng = random.Random(7)
        countries = {i: rng.choice(["UA", "RU", "DE", "FR"]) for i in range(1, 40)}
        db = make_db(countries)
        days = {day(i): [(f"10.{rng.randint(0, 20)}.0.0/16", [rng.randint(1, 45), rng.randint(1, 45)])
                         for _ in range(rng.randint(0, 50))] for i in range(6)}
        series = make_series(days, gaps=[day(6)])
        joint = build_series(series, db, ["UA", "RU", "DE", "FR"])
        assert list(joint) == ["DE", "FR", "RU", "UA"]
        # One dates tuple for the IXP, shared by every country's series and presence.
        assert all(mseries.dates is presence.dates is joint["DE"][0].dates
                   for mseries, presence in joint.values())
        for cc in joint:
            assert joint[cc] == build_series(series, db, [cc])[cc]
        assert build_series(series, db, ["UA", "UA"]) == build_series(series, db, ["UA"])

    def test_matches_brute_force_on_random_multi_day_series(self):
        rng = random.Random(19)
        shared_prefix = [("192.0.2.0/24", [7, 1]), ("192.0.2.0/24", [8, 2])]  # UA and RU origins
        cross = ("198.51.100.0/24", [2, 1])  # UA origin behind an RU neighbor
        behind_ru = ("198.51.100.128/25", [2, 40])  # ... and its only row, gone every fourth day
        duplicated = ("203.0.113.0/24", [3, 1])
        for _ in range(25):
            countries = {i: rng.choice(["UA", "RU", "DE"]) for i in range(1, 25)}
            countries.update({1: "UA", 2: "RU", 40: "UA"})
            db = make_db(countries)
            pool = [(f"10.{rng.randint(0, 9)}.{rng.randint(0, 9)}.0/24",
                     [rng.randint(1, 30) for _ in range(rng.randint(1, 4))])
                    for _ in range(rng.randint(10, 40))]
            offsets = sorted(rng.sample(range(16), 12))
            # An empty day, a one-row day and a day of foreign rows only.
            empty, single, foreign = rng.sample(offsets[1:-1], 3)
            days = {}
            for n, offset in enumerate(offsets):
                rows = [row for row in pool if rng.random() < 0.7]
                rows += rng.choices(rows, k=len(rows) // 4) if rows else []
                if n % 3 != 1:  # gone every third day, then back
                    rows += shared_prefix + [cross]
                rows += [duplicated] * (2 - n % 2)  # held twice, then once
                if n % 4 != 2:
                    rows.append(behind_ru)
                rng.shuffle(rows)
                days[day(offset)] = {empty: [], single: rows[:1],
                                     foreign: [("192.0.2.0/24", [41, 42]), ("10.0.0.0/8", [42])]
                                     }.get(offset, rows)
            gaps = [day(offset) for offset in range(16) if offset not in offsets]
            series = make_series(days, gaps=gaps)
            for wanted in (["UA", "RU", "DE"], WIDE):
                joint = build_series(series, db, wanted)
                for cc in ("UA", "RU", "DE"):
                    mseries, presence = joint[cc]
                    assert mseries.dates == tuple(days)
                    counts = day_counts(mseries)
                    daily = []
                    for d, rows in days.items():
                        assert counts[d] == brute_counts(rows, countries, cc), (cc, d)
                        daily.append({path[-1] for _, path in rows if countries.get(path[-1]) == cc})
                    masks = presence.masks
                    assert masks == brute_masks(daily), cc
                    assert origins_by_date(presence) == dict(zip(days, daily))
                    if cc == "UA":  # both leave and return: a 0 bit between two set ones
                        assert "0" in f"{masks[1]:b}".rstrip("0") and "0" in f"{masks[40]:b}".rstrip("0")

    def test_presence_marks_each_snapshot_day(self):
        db = make_db({20: "UA", 21: "UA"})
        days = {}
        for i in range(70):
            rows = [("192.0.2.0/24", [20])]
            if not 30 <= i < 40:
                rows.append(("198.51.100.0/24", [21]))
            days[day(i)] = rows
        every_day = (1 << 70) - 1
        assert country_series(make_series(days), db, "UA")[1].masks == {
            20: every_day, 21: every_day & ~((1 << 40) - (1 << 30))}

    def test_origin_moving_between_rows_keeps_one_run(self):
        # day 1 drops the only row of origin 20 and adds another of its rows
        db = make_db({20: "UA"})
        days = {day(0): [("192.0.2.0/24", [20])], day(1): [("198.51.100.0/24", [7, 20])],
                day(2): [("198.51.100.0/24", [7, 20])]}
        assert country_series(make_series(days), db, "UA")[1].masks == {20: 0b111}

    def test_single_snapshot_series_equals_hand_counts(self):
        db = make_db({20: "UA"})
        series = make_series({BASE: [("192.0.2.0/24", [20])]})
        assert country_series(series, db, "UA")[0] == MetricSeries("testix", "UA", (BASE,), (1,), (1,), (1,), (1,))

    def test_series_without_snapshots_has_empty_columns(self):
        db = make_db({20: "UA"})
        mseries, presence = country_series(make_series({}), db, "UA")
        assert mseries == MetricSeries("testix", "UA", (), (), (), (), ())
        assert presence == metrics.PresenceMap((), {})

    def test_values_accessor_validates_metric_name(self):
        db = make_db({20: "UA"})
        series = country_series(make_series({BASE: []}), db, "UA")[0]
        with pytest.raises(ValueError, match="unknown metric"):
            series.values("uptime")


class TestOriginPresence:
    def test_present_every_day(self):
        db = make_db({20: "UA"})
        days = {day(i): [("192.0.2.0/24", [20])] for i in range(70)}
        presence = presence_of(make_series(days), db, "UA")
        assert origins_by_date(presence) == {day(i): {20} for i in range(70)}

    def test_present_only_on_baseline(self):
        db = make_db({20: "UA", 21: "UA"})
        days = {day(i): [("192.0.2.0/24", [21])] for i in range(1, 10)}
        days[BASE] = [("192.0.2.0/24", [21]), ("198.51.100.0/24", [20])]
        presence = presence_of(make_series(days), db, "UA")
        assert [d for d, origins in origins_by_date(presence).items() if 20 in origins] == [BASE]

    def test_presence_consistent_with_daily_origin_counts(self):
        rng = random.Random(3)
        countries = {i: "UA" for i in range(1, 15)}
        countries.update({i: "RU" for i in range(15, 20)})
        db = make_db(countries)
        days = {}
        for i in range(12):
            rows = [(f"10.{o}.0.0/16", [o]) for o in rng.sample(range(1, 20), rng.randint(0, 10))]
            days[day(i)] = rows
        gaps = [day(i) for i in rng.sample(range(12), 3)]
        for gap in gaps:
            del days[gap]
        series = make_series(days, gaps=gaps)
        presence = presence_of(series, db, "UA")
        assert list(presence.dates) == [snap.date for snap in series.snapshots]
        by_date = origins_by_date(presence)
        for snap in series.snapshots:
            brute = {origin for _, origin, _ in rows_of(snap, series) if countries.get(origin) == "UA"}
            assert by_date[snap.date] == brute

    def test_keeps_the_runs_of_build_series(self):
        db = make_db({20: "UA"})
        mseries, presence = country_series(make_series({BASE: [("192.0.2.0/24", [20])]}), db, "UA")
        assert metrics.origin_presence(mseries.dates, presence.masks).masks is presence.masks
        assert presence.masks == {20: 1}
        assert presence.dates is mseries.dates
        assert presence.dates == (BASE,)


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        import io
        db = make_db({20: "UA", 30: "RU"})
        days = {day(i): [("192.0.2.0/24", [20]), ("198.51.100.0/24", [30])] for i in range(3)}
        series = [mseries for mseries, _ in build_series(make_series(days), db, ["UA", "RU"]).values()]
        assert [s.country for s in series] == ["RU", "UA"]
        for mseries in series:
            buf = io.StringIO()
            metrics.write_metrics_csv(buf, mseries)
            buf.seek(0)
            loaded = metrics.read_metrics_csv(buf)
            assert loaded == mseries
            assert loaded.announcements == (1, 1, 1)

    def test_reader_sorts_the_days_of_one_series(self):
        import io
        header = "ixp,country,date,announcements,distinct_origins,distinct_prefixes,distinct_neighbors\n"
        text = (header +
                "linx,UA,2022-02-21,3,3,3,1\n"
                "linx,UA,2022-02-19,1,1,1,1\n"
                "\n"
                "linx,UA,2022-02-20,2,2,2,1\n")
        loaded = metrics.read_metrics_csv(io.StringIO(text))
        assert loaded == MetricSeries("linx", "UA", (day(0), day(1), day(2)),
                                      (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 1, 1))
        with pytest.raises(ValueError, match="found amsix/UA, linx/UA"):
            metrics.read_metrics_csv(io.StringIO(text + "amsix,UA,2022-02-20,2,2,2,1\n"))
        with pytest.raises(ValueError, match="found no rows"):
            metrics.read_metrics_csv(io.StringIO(header + "\n"))

    def test_reader_refuses_a_repeated_day(self, tmp_path):
        # Two rows for one day would be two points on one day of a chart.
        path = tmp_path / "linx_RU.csv"
        path.write_text("ixp,country,date,announcements,distinct_origins,distinct_prefixes,distinct_neighbors\n"
                        "linx,RU,2022-02-19,5,5,5,1\n"
                        "linx,RU,2022-02-20,6,6,6,1\n"
                        "linx,RU,2022-02-19,9,9,9,1\n", encoding="utf-8")
        with open(path, newline="", encoding="utf-8") as handle:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: a second row for 2022-02-19$"):
                metrics.read_metrics_csv(handle)

    def test_reader_rejects_foreign_header(self):
        import io
        with pytest.raises(ValueError, match="not a metrics CSV"):
            metrics.read_metrics_csv(io.StringIO("a,b,c\n1,2,3\n"))
