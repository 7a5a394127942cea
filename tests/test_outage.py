import datetime as dt
import io
import random
import statistics

import pytest

from ixpreach import outage, synth
from ixpreach.metrics import METRIC_NAMES, MetricSeries
from ixpreach.outage import CatalogEvent, OutageEvent, annotate, detect_dips, parse_catalog
from ixpreach.pipeline import RunConfig

from conftest import BAD_CATALOG_LINES, BASE, day


def series_of(values, metric="announcements", ixp="testix", country="UA", start=BASE):
    columns = dict.fromkeys(METRIC_NAMES, (0,) * len(values))
    columns[metric] = tuple(values)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return MetricSeries(ixp, country, dates, **columns)


@pytest.mark.parametrize("pool", [range(7), (-1.5, -0.1, 0.0, 0.1, 0.2, 0.3, 2.5)], ids=["int", "float"])
def test_median_is_statistics_median(pool):
    rng = random.Random("median")
    for length in range(1, 9):
        for _ in range(50):
            window = rng.choices(pool, k=length)
            expected = statistics.median(window)
            got = outage._median(window)
            assert (got, type(got)) == (expected, type(expected)), window


class TestDetectDips:
    def test_flat_series_has_no_events(self):
        assert detect_dips(series_of([100] * 30), "announcements") == []

    def test_hand_derived_three_day_dip(self):
        # 10 days at 100, 3 days at 60, 17 days at 100.  Walking the rule by
        # hand with N=7, theta=0.05: days 10-12 dip against a median of 100
        # (the trailing window still holds a majority of 100s), day 13 does
        # not (its value is back at 100).  One event, drop (100-60)/100.
        values = [100] * 10 + [60] * 3 + [100] * 17
        events = detect_dips(series_of(values), "announcements",
                             trailing_window=7, threshold=0.05)
        assert len(events) == 1
        ev = events[0]
        assert ev.start == day(10)
        assert ev.end == day(12)
        assert ev.reference_level == 100
        assert ev.min_value == 60
        assert ev.relative_drop == pytest.approx(0.4, abs=1e-9)

    def test_non_decreasing_series_never_dips(self):
        rng = random.Random(41)
        for _ in range(30):
            values, level = [], rng.randint(10, 50)
            for _ in range(rng.randint(9, 40)):
                level += rng.randint(0, 5)
                values.append(level)
            assert detect_dips(series_of(values), "announcements") == []

    def test_raising_threshold_never_adds_dip_days(self):
        rng = random.Random(43)
        values = [max(5, int(100 + 30 * rng.uniform(-1, 1))) for _ in range(60)]
        prev_days = None
        for theta in (0.02, 0.05, 0.1, 0.2, 0.4):
            events = detect_dips(series_of(values), "announcements", threshold=theta)
            total_days = sum((e.end - e.start).days + 1 for e in events)
            if prev_days is not None:
                assert total_days <= prev_days
            prev_days = total_days

    def test_events_are_disjoint_and_sorted(self):
        values = [100] * 10 + [50] * 2 + [100] * 10 + [40] * 3 + [100] * 10
        events = detect_dips(series_of(values), "announcements")
        assert [e.start for e in events] == sorted(e.start for e in events)
        for a, b in zip(events, events[1:]):
            assert a.end < b.start

    def test_min_reference_guards_small_series(self):
        # neighbor-count-sized values never reach the reference floor
        values = [3] * 10 + [1] * 3 + [3] * 10
        assert detect_dips(series_of(values, "distinct_neighbors"), "distinct_neighbors") == []

    @pytest.mark.parametrize("min_reference", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_min_reference_is_an_error(self, tmp_path, min_reference):
        # a NaN floor would silently hide this dip: every comparison with it
        # is false.  detect_dips trusts its settings; the run's config refuses it.
        values = [100] * 10 + [60] * 3 + [100] * 10
        assert len(detect_dips(series_of(values), "announcements", min_reference=10)) == 1
        assert detect_dips(series_of(values), "announcements", min_reference=float("nan")) == []
        with pytest.raises(ValueError, match="^min_reference must be a finite number$"):
            RunConfig(tmp_path, tmp_path, tmp_path, min_reference=min_reference)

    def test_reference_median_ignores_single_spike(self):
        values = [100] * 10 + [400] + [100] * 10
        assert detect_dips(series_of(values), "announcements") == []

    def test_short_series_is_judged_with_the_days_it_has(self):
        assert detect_dips(series_of([]), "announcements") == []
        assert detect_dips(series_of([100]), "announcements") == []
        assert detect_dips(series_of([100] * 7), "announcements", trailing_window=7) == []
        [event] = detect_dips(series_of([100, 100, 60]), "announcements", trailing_window=7)
        assert (event.start, event.end, event.reference_level, event.min_value) == (day(2), day(2), 100, 60)

    def test_matches_the_plain_rule_on_any_length(self):
        rng = random.Random(47)
        for length in range(41):
            for _ in range(5):
                values = [rng.choice((rng.randint(0, 15), rng.randint(60, 120))) for _ in range(length)]
                trailing = rng.randint(1, 9)
                series = series_of(values)
                events = detect_dips(series, "announcements", trailing_window=trailing)
                assert [(e.start, e.end) for e in events] == synth._expected_dip_spans(
                    series.dates, values, trailing, outage.DEFAULT_THRESHOLD, outage.DEFAULT_MIN_REFERENCE)
                for e in events:
                    first, last = series.dates.index(e.start), series.dates.index(e.end)
                    assert e.reference_level == statistics.median(values[max(0, first - trailing):first])
                    assert e.min_value == min(values[first:last + 1])
                    assert e.relative_drop == (e.reference_level - e.min_value) / e.reference_level

    def test_bad_metric_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            detect_dips(series_of([100] * 20), "latency")

    def test_dip_days_separated_by_gap_merge(self):
        # the missing calendar day between the two dip days is a gap, not a
        # recovery; they form one event
        values = [100] * 9 + [60, 60] + [100] * 9
        dates = series_of(values).dates
        # drop the point between the dip days to simulate a gap
        gappy = series_of(values[:10] + values[11:])._replace(dates=dates[:10] + dates[11:])
        events = detect_dips(gappy, "announcements")
        assert len(events) == 1


class TestAnnotate:
    def mk_event(self, start, end):
        return OutageEvent("linx", "UA", "announcements", start, end, 100.0, 60.0, 0.4)

    def test_exact_overlap(self):
        event = self.mk_event(dt.date(2022, 3, 28), dt.date(2022, 3, 29))
        catalog = [CatalogEvent("ukrtelecom-cyberattack", dt.date(2022, 3, 28),
                                dt.date(2022, 3, 29), "Ukrtelecom cyberattack")]
        [annotated] = annotate([event], catalog)
        assert annotated.annotation == "ukrtelecom-cyberattack"

    def test_unmatched_event_stays_unannotated(self):
        event = self.mk_event(dt.date(2022, 4, 10), dt.date(2022, 4, 11))
        catalog = [CatalogEvent("x", dt.date(2022, 3, 1), dt.date(2022, 3, 2), "other")]
        [annotated] = annotate([event], catalog)
        assert annotated.annotation is None

    def test_partial_overlap_matches(self):
        event = self.mk_event(dt.date(2022, 3, 13), dt.date(2022, 3, 14))
        catalog = [CatalogEvent("global-disruption", dt.date(2022, 3, 12),
                                dt.date(2022, 3, 14), "global disruption")]
        [annotated] = annotate([event], catalog)
        assert annotated.annotation == "global-disruption"

    def test_maximal_overlap_wins_then_earliest(self):
        event = self.mk_event(dt.date(2022, 3, 10), dt.date(2022, 3, 15))
        catalog = [
            CatalogEvent("brief", dt.date(2022, 3, 15), dt.date(2022, 3, 15), "short"),
            CatalogEvent("broad", dt.date(2022, 3, 9), dt.date(2022, 3, 14), "long"),
            CatalogEvent("tie-late", dt.date(2022, 3, 11), dt.date(2022, 3, 16), "tie"),
        ]
        [annotated] = annotate([event], catalog)
        assert annotated.annotation == "broad"

    def test_open_ended_range_matches_everything_later(self):
        event = self.mk_event(dt.date(2022, 4, 20), dt.date(2022, 4, 21))
        catalog = [CatalogEvent("open", dt.date(2022, 3, 21), None, "ongoing emergency")]
        assert annotate([event], catalog)[0].annotation == "open"

    def test_annotation_never_alters_spans_or_levels(self):
        event = self.mk_event(dt.date(2022, 3, 28), dt.date(2022, 3, 29))
        catalog = [CatalogEvent("id", dt.date(2022, 3, 28), dt.date(2022, 3, 29), "label")]
        [annotated] = annotate([event], catalog)
        assert (annotated.start, annotated.end) == (event.start, event.end)
        assert annotated.reference_level == event.reference_level
        assert annotated.min_value == event.min_value
        assert annotated.relative_drop == event.relative_drop


class TestCatalog:
    def test_parse_and_comments(self):
        text = (
            "# comment\n"
            "a|2022-03-01|2022-03-02|First event|src\n"
            "b|2022-03-05||Open-ended event|\n"
        )
        entries = parse_catalog(io.StringIO(text))
        assert [e.id for e in entries] == ["a", "b"]
        assert entries[1].end is None

    def test_field_count_enforced(self):
        with pytest.raises(ValueError, match="5 pipe-separated"):
            parse_catalog(io.StringIO("a|2022-03-01|2022-03-02|label\n"))

    @pytest.mark.parametrize("line, message", BAD_CATALOG_LINES.values(), ids=BAD_CATALOG_LINES)
    def test_bad_entry_names_its_line(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_catalog(io.StringIO(f"# comment\n{line}\n"))
        assert str(info.value) == f"catalog line 2: {message}"

    def test_seed_catalog_loads(self):
        entries = outage.load_seed_catalog()
        ids = {e.id for e in entries}
        assert "ukrtelecom-cyberattack" in ids
        assert "global-disruption" in ids
        cyber = next(e for e in entries if e.id == "ukrtelecom-cyberattack")
        assert (cyber.start, cyber.end) == (dt.date(2022, 3, 28), dt.date(2022, 3, 29))
        disruption = next(e for e in entries if e.id == "global-disruption")
        assert (disruption.start, disruption.end) == (dt.date(2022, 3, 12), dt.date(2022, 3, 14))


class TestEventsCsv:
    def test_round_trip(self):
        events = [
            OutageEvent("amsix", "UA", "announcements", day(10), day(12), 100.0, 60.0, 0.4, "sumy-blackout"),
            OutageEvent("amsix", "UA", "distinct_origins", day(3), day(3), 55.0, 40.0, 15 / 55),
        ]
        buf = io.StringIO()
        outage.write_events_csv(buf, events)
        buf.seek(0)
        loaded = outage.read_events_csv(buf)
        assert len(loaded) == 2
        by_metric = {e.metric: e for e in loaded}
        assert by_metric["announcements"].annotation == "sumy-blackout"
        assert by_metric["distinct_origins"].annotation is None
        assert by_metric["announcements"].relative_drop == pytest.approx(0.4, abs=1e-6)
