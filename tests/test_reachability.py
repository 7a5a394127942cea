import datetime as dt
import io
import random

import pytest

from ixpreach import pipeline, reachability
from ixpreach.reachability import average_pct, pct_lost

from conftest import BASE, country_series, day, make_db, make_series, origins_by_date, presence_of, reach


def series_from_presence(present_by_day, db_countries, gaps=()):
    """Build a series where each day lists the origins present on it."""
    days = {}
    for d, origins in present_by_day.items():
        days[d] = [(f"10.{o % 250}.{o // 250}.0/24", [9999, o]) for o in sorted(origins)]
    return make_series(days, gaps=gaps)


UA_DB = make_db({o: "UA" for o in range(1, 200)})


def written_reachability(tmp_path, present_by_day, window=3):
    """The records and table text `write_outputs` writes for one testix/UA
    pair, whose baseline and final days are the first and last of
    `present_by_day`."""
    mseries, presence = country_series(series_from_presence(present_by_day, UA_DB), UA_DB, "UA")
    report = reachability.diff_reachability(presence, window)
    config = pipeline.RunConfig(tmp_path, tmp_path, tmp_path / "out", ixps=("testix",), countries=("UA",),
                                baseline_date=presence.dates[0], final_date=presence.dates[-1],
                                confirmation_window=window)
    pair = pipeline.PairResult(mseries, presence, report, [])
    pipeline.write_outputs(pipeline.AnalysisResult(
        config, {("testix", "UA"): pair}, {"UA": average_pct([report.pct_lost])}))
    out = tmp_path / "out" / "reachability"
    return (out / "UA_records.txt").read_text(), (out / "UA_table.txt").read_text()


def baseline_origins(series, db, country, baseline):
    """In-country origins present on the baseline day."""
    return frozenset(origins_by_date(presence_of(series, db, country))[baseline])


def unreachable_origins(series, db, country, baseline, final, window=3):
    return frozenset(reach(series, db, country, baseline, final, window).lost_asns)


class TestBaselineOrigins:
    def test_distinctness(self):
        series = make_series({BASE: [
            ("10.0.0.0/24", [9, 1]), ("10.0.1.0/24", [9, 1]), ("10.0.2.0/24", [9, 2]),
        ]})
        assert baseline_origins(series, UA_DB, "UA", BASE) == {1, 2}
        assert reach(series, UA_DB, "UA", BASE, BASE).total_baseline == 2

    def test_empty_when_no_in_country_origin(self):
        db = make_db({500: "RU"})
        series = make_series({BASE: [("10.0.0.0/24", [9, 1])]})
        assert baseline_origins(series, db, "RU", BASE) == frozenset()
        report = reach(series, db, "RU", BASE, BASE)
        assert (report.total_baseline, report.pct_lost) == (0, 0.0)


class TestUnreachableOrigins:
    def test_plain_set_difference_with_zero_window(self):
        series = series_from_presence({BASE: {1, 2, 3}, day(1): {1, 3}}, UA_DB)
        got = unreachable_origins(series, UA_DB, "UA", BASE, day(1), window=0)
        assert got == {2}

    def test_flap_is_not_a_loss_with_window(self):
        # B absent on the final day but present 2 days earlier
        series = series_from_presence({
            BASE: {1, 2}, day(1): {1}, day(2): {1, 2}, day(3): {1}, day(4): {1},
        }, UA_DB)
        assert unreachable_origins(series, UA_DB, "UA", BASE, day(4), window=3) == frozenset()
        assert unreachable_origins(series, UA_DB, "UA", BASE, day(4), window=0) == {2}

    def test_gap_days_neither_confirm_nor_refute(self):
        series = series_from_presence(
            {BASE: {1, 2}, day(2): {1}, day(4): {1}},
            UA_DB, gaps=[day(1), day(3)])
        assert unreachable_origins(series, UA_DB, "UA", BASE, day(4), window=3) == {2}

    def test_longer_window_shrinks_the_set(self):
        rng = random.Random(17)
        for _ in range(30):
            present = {day(i): {o for o in range(1, 30) if rng.random() < 0.8}
                       for i in range(10)}
            present[BASE] = set(range(1, 30))
            series = series_from_presence(present, UA_DB)
            sets = [unreachable_origins(series, UA_DB, "UA", BASE, day(9), window=w)
                    for w in range(5)]
            for smaller, larger in zip(sets[1:], sets):
                assert smaller <= larger

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            present = {day(i): {o for o in range(1, 25) if rng.random() < 0.7}
                       for i in range(8)}
            # gaps anywhere between baseline and final, so also inside the window
            gaps = [day(i) for i in range(1, 7) if rng.random() < 0.3]
            for gap in gaps:
                del present[gap]
            series = series_from_presence(present, UA_DB, gaps=gaps)
            w = rng.randint(0, 9)  # up to past the baseline day
            base, final = present[BASE], present[day(7)]
            check = [present[day(7 - b)] for b in range(1, w + 1) if day(7 - b) in present]
            gone = base - final
            report = reach(series, UA_DB, "UA", BASE, day(7), window=w)
            assert report.total_baseline == len(base)
            assert set(report.lost_asns) == {o for o in gone if all(o not in s for s in check)}
            assert set(report.flapping_asns) == {o for o in gone if any(o in s for s in check)}
            assert set(report.new_asns) == final - base

    def test_matches_brute_force_at_any_baseline_and_final(self):
        rng = random.Random(37)
        # The last series is longer than 64 snapshots, so its masks span machine words.
        for n, max_window in [(12, 5)] * 60 + [(150, 80)]:
            present = {day(i): {o for o in range(1, 12) if rng.random() < 0.6} for i in range(n)}
            gaps = [day(i) for i in range(n) if rng.random() < 0.2]
            for gap in gaps:
                del present[gap]
            dates = sorted(present)
            series = series_from_presence(present, UA_DB, gaps=gaps)
            baseline, final = sorted(rng.sample(dates, 2))
            w = rng.randint(0, max_window)
            base, last = present[baseline], present[final]
            # The report sees the snapshots from the baseline on, as run_analysis loads them.
            check = [present[d] for d in dates if max(baseline, final - dt.timedelta(days=w)) <= d < final]
            report = reach(series, UA_DB, "UA", baseline, final, window=w)
            assert report.total_baseline == len(base)
            assert set(report.lost_asns) == {o for o in base - last if all(o not in s for s in check)}
            assert set(report.flapping_asns) == {o for o in base - last if any(o in s for s in check)}
            assert set(report.new_asns) == last - base

    def test_huge_window_is_the_whole_series(self):
        rng = random.Random(41)
        for _ in range(20):
            present = {day(i): {o for o in range(1, 12) if rng.random() < 0.6} for i in range(10)}
            gap = day(rng.randint(1, 8))
            del present[gap]
            series = series_from_presence(present, UA_DB, gaps=[gap])
            whole = reach(series, UA_DB, "UA", BASE, day(9), window=9)
            for w in (10**6, 10**10):
                report = reach(series, UA_DB, "UA", BASE, day(9), window=w)
                assert (report.lost_asns, report.flapping_asns, report.new_asns) == \
                    (whole.lost_asns, whole.flapping_asns, whole.new_asns)


class TestPercentages:
    def test_auix_row(self):
        assert pct_lost(1016, 87) == 8.5

    def test_linx_row_confirms_truncation_over_rounding(self):
        assert pct_lost(2886, 109) == 3.7  # 3.777...

    def test_zero_lost(self):
        assert pct_lost(12345, 0) == 0.0

    def test_zero_total_is_an_error(self):
        with pytest.raises(ValueError):
            pct_lost(0, 0)

    def test_lost_beyond_total_is_an_error(self):
        with pytest.raises(ValueError):
            pct_lost(10, 11)

    def test_monotone_in_lost(self):
        values = [pct_lost(997, lost) for lost in range(998)]
        assert values == sorted(values)

    def test_average_of_first_table(self):
        assert average_pct([8.5, 19.0, 10.4, 9.0, 8.7]) == 11.12

    def test_average_of_second_table(self):
        assert average_pct([3.1, 3.7, 14.7, 18.7, 14.5]) == 10.94

    def test_singleton_average(self):
        assert average_pct([4.2]) == 4.2

    def test_average_rounds_half_up(self):
        # These three means are exact in hundredths, so no rounding happens:
        assert average_pct([1.2, 1.5]) == 1.35
        assert average_pct([0.1, 0.2]) == 0.15
        assert average_pct([0.0, 0.1]) == 0.05
        # These are not: a tie 0.025 and 0.0667 round up, 0.0333 rounds down.
        assert average_pct([0.1, 0.0, 0.0, 0.0]) == 0.03
        assert average_pct([0.2, 0.0, 0.0]) == 0.07
        assert average_pct([0.1, 0.0, 0.0]) == 0.03

    def test_empty_average_is_an_error(self):
        with pytest.raises(ValueError):
            average_pct([])


def written_origins(presence):
    """The origins CSV written for `presence`, read back: each origin's
    (first_seen, last_seen, days_present, days_offline), in file order."""
    buf = io.StringIO()
    reachability.write_origins_csv(buf, presence)
    buf.seek(0)
    return {asn: row for asn, *row in reachability.read_origins_csv(buf)}


def offline_days(presence, origin):
    """Snapshot days of the whole window on which the origin is absent, as
    the origins CSV gives them; a gap day has no snapshot."""
    return written_origins(presence)[origin][-1]


class TestOfflineDays:
    def test_never_absent(self):
        present = {day(i): {1} for i in range(70)}
        presence = presence_of(series_from_presence(present, UA_DB), UA_DB, "UA")
        assert offline_days(presence, 1) == 0

    def test_fifty_day_absence(self):
        present = {day(i): ({1, 2} if i < 10 or i >= 60 else {1}) for i in range(70)}
        presence = presence_of(series_from_presence(present, UA_DB), UA_DB, "UA")
        assert offline_days(presence, 2) == 50

    def test_present_only_on_baseline_of_ten_snapshots(self):
        present = {day(i): ({1, 2} if i == 0 else {1}) for i in range(10)}
        presence = presence_of(series_from_presence(present, UA_DB), UA_DB, "UA")
        assert offline_days(presence, 2) == 9

    def test_gap_days_are_not_counted(self):
        present = {day(i): {1} for i in (0, 2, 4)}
        series = series_from_presence(present, UA_DB, gaps=[day(1), day(3)])
        presence = presence_of(series, UA_DB, "UA")
        assert presence.dates == (day(0), day(2), day(4))
        assert offline_days(presence, 1) == 0

    def test_matches_brute_force(self):
        rng = random.Random(29)
        # The last series is longer than 64 snapshots, so its masks span machine words.
        for n in [15] * 40 + [150]:
            present = {day(i): {o for o in range(1, 8) if rng.random() < 0.6} for i in range(n)}
            gaps = [day(i) for i in range(n) if rng.random() < 0.2]
            for gap in gaps:
                del present[gap]
            presence = presence_of(series_from_presence(present, UA_DB, gaps=gaps), UA_DB, "UA")
            rows = written_origins(presence)
            assert list(rows) == sorted(set().union(*present.values()))
            for origin, row in rows.items():
                seen = [d for d, origins in present.items() if origin in origins]
                assert row == [seen[0], seen[-1], len(seen), len(present) - len(seen)]

    def test_unknown_origin_is_an_error(self):
        # An origin never seen has no mask, rather than an empty one that
        # would count every snapshot day as offline.
        presence = presence_of(series_from_presence({BASE: {1}}, UA_DB), UA_DB, "UA")
        assert set(presence.masks) == {1}
        with pytest.raises(KeyError):
            offline_days(presence, 999)


def neighbor_days(series, db, country):
    """Snapshot dates on which the country has at least one in-country first hop."""
    mseries = country_series(series, db, country)[0]
    return {d for d, count in zip(mseries.dates, mseries.distinct_neighbors) if count}


class TestNeighborTimeline:
    def test_neighbor_present_all_days(self):
        db = make_db({7: "UA", 1: "UA"})
        days = {day(i): [("10.0.0.0/24", [7, 1])] for i in range(5)}
        assert neighbor_days(make_series(days), db, "UA") == {day(i) for i in range(5)}

    def test_disconnected_days_missing(self):
        db = make_db({7: "UA", 8: "UA", 1: "UA"})
        days = {}
        for i in range(6):
            rows = [("10.0.0.0/24", [8, 1])]
            if i not in (2, 3):
                rows.append(("10.0.1.0/24", [7, 1]))
            days[day(i)] = rows
        mseries = country_series(make_series(days), db, "UA")[0]
        assert mseries.distinct_neighbors == (2, 2, 1, 1, 2, 2)

    def test_country_with_no_neighbors_yields_empty_map(self):
        db = make_db({1: "UA", 9999: "US"})
        days = {day(i): [("10.0.0.0/24", [9999, 1])] for i in range(3)}
        assert neighbor_days(make_series(days), db, "UA") == set()
        assert neighbor_days(make_series(days), db, "US") == {day(i) for i in range(3)}


class TestDiffReachability:
    def test_report_fields_are_consistent(self):
        present = {day(i): ({1, 2, 3} if i == 0 else {1, 4}) for i in range(8)}
        series = series_from_presence(present, UA_DB)
        report = reach(series, UA_DB, "UA", BASE, day(7), window=3)
        assert report.total_baseline == 3
        assert len(report.lost_asns) == 2
        assert report.lost_asns == (2, 3)
        assert report.new_asns == (4,)
        assert report.pct_lost == pct_lost(3, 2)
        assert set(report.lost_asns).isdisjoint(report.new_asns)

    def test_lost_and_retained_partition_baseline(self):
        rng = random.Random(31)
        present = {day(i): {o for o in range(1, 40) if rng.random() < 0.8} for i in range(9)}
        series = series_from_presence(present, UA_DB)
        report = reach(series, UA_DB, "UA", BASE, day(8), window=3)
        base = baseline_origins(series, UA_DB, "UA", BASE)
        retained = base - set(report.lost_asns)
        assert retained | set(report.lost_asns) == base
        assert retained.isdisjoint(report.lost_asns)

    def test_flapping_asns_reported(self):
        # origin 2 absent at final but present one day before
        present = {day(i): {1, 2} for i in range(7)}
        present[day(7)] = {1}
        series = series_from_presence(present, UA_DB)
        report = reach(series, UA_DB, "UA", BASE, day(7), window=3)
        assert report.lost_asns == ()
        assert report.flapping_asns == (2,)

    def test_runs_ending_on_the_window_start_or_starting_on_the_final_day(self):
        # window 3 before day(9): snapshots day(6), day(7), day(8)
        present = {day(i): {1} for i in range(10)}
        for i in range(6):
            present[day(i)] |= {2, 3, 4}  # 2 ends on the window's first index
        present[day(6)] |= {3}  # 3 is seen on the window's first day
        present[day(9)] |= {4, 5}  # 4 is back and 5 starts on the final day
        series = series_from_presence(present, UA_DB)
        presence = presence_of(series, UA_DB, "UA")
        assert presence.masks[2] == 0b0000111111 and presence.masks[3] == 0b0001111111
        assert presence.masks[4] == 0b1000111111 and presence.masks[5] == 0b1000000000
        report = reach(series, UA_DB, "UA", BASE, day(9), window=3)
        assert (report.total_baseline, report.lost_asns, report.flapping_asns, report.new_asns) == (
            4, (2,), (3,), (5,))

    def test_record_format_round_trips_key_facts(self, tmp_path):
        records, _ = written_reachability(tmp_path, {day(i): ({1, 2} if i == 0 else {1}) for i in range(8)})
        assert records == ("ixp=testix country=UA baseline_date=2022-02-19 final_date=2022-02-26 "
                           "confirmation_window=3 total_baseline=2 lost=1 pct_lost=50.0 "
                           "lost_asns=2 new_asns= flapping_asns=\n")

    def test_table_reproduces_truncated_percentages(self, tmp_path):
        present = {day(i): ({1, 2, 3} if i == 0 else {1, 4} if i < 6 else {1, 3, 4}) for i in range(8)}
        records, table = written_reachability(tmp_path, present)
        assert "lost=1 pct_lost=33.3 lost_asns=2 new_asns=4 flapping_asns=\n" in records
        assert table == ("Unreachable UA origins (baseline 2022-02-19, final 2022-02-26, confirmation 3d)\n"
                         "IXP        Total ASes  Lost ASes   % Lost\n"
                         "testix              3          1    33.3%\n"
                         "average % lost: 33.30\n")
