import csv
import datetime as dt
import io
import ipaddress
import logging
import random
import tracemalloc

import pytest

from ixpreach import asndb, pipeline, rtingest
from ixpreach.asndb import ASN_MAX
from ixpreach.rtingest import (
    DateRange,
    InternTable,
    load_series,
    parse_snapshot,
)

from conftest import BASE, day, make_db, make_series, origins_by_date, presence_of, rows_of

# Ten data rows exercising every defect class; `reference_parse` classifies
# them independently of the parser.
TEN_ROW_FIXTURE = """\
prefix,as_path
192.0.2.0/24,174 3216 25133
198.51.100.0/24,6939 6939 6939 12389
203.0.113.0/24,3356 {64512,64513}
2001:db8::/32,6939 25133
10.0.0.0/8,1299 1299 31133
192.0.2.0/24,174 3216 25133
172.16.0.0/12,
not-a-prefix,174 25133
100.64.0.0/10,174 bad 25133
192.88.99.0/24,12389
"""


def parse_text(text):
    return parse_snapshot(io.BytesIO(text.encode()), "testix", BASE, InternTable())


def parse_rows(text):
    """The (prefix, origin, neighbor) rows and skip count of one parse."""
    intern = InternTable()
    snap = parse_snapshot(io.BytesIO(text.encode()), "testix", BASE, intern=intern)
    return rows_of(snap, intern), snap.skipped


class TestRouteEntry:
    def test_origin_is_last_neighbor_is_first(self):
        intern = InternTable()
        row = intern.entry(("192.0.2.0/24", "174 3216 25133"))
        assert (intern.prefix_of[row], intern.origin_of[row], intern.neighbor_of[row]) == (
            "192.0.2.0/24", 25133, 174)


class TestParseSnapshot:
    def test_first_and_last_elements(self):
        assert parse_rows("prefix,as_path\n192.0.2.0/24,174 3216 25133\n") == (
            [("192.0.2.0/24", 25133, 174)], 0)

    def test_single_element_path_has_equal_endpoints(self):
        assert parse_rows("prefix,as_path\n192.0.2.0/24,12389\n") == ([("192.0.2.0/24", 12389, 12389)], 0)

    def test_prepending_does_not_change_endpoints(self):
        rows, _ = parse_rows("prefix,as_path\n192.0.2.0/24,6939 6939 6939 12389\n")
        assert rows[0][1:] == (12389, 6939)

    def test_as_set_row_is_skipped_and_counted(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,3356 {64512,64513}\n")
        assert snap.entries == ()
        assert snap.skipped == 1

    def test_ten_row_fixture_against_oracle(self):
        expected_rows, expected_skipped = reference_parse(io.StringIO(TEN_ROW_FIXTURE, newline=""))
        assert (len(expected_rows), expected_skipped) == (6, 4)
        assert parse_rows(TEN_ROW_FIXTURE) == (expected_rows, expected_skipped)

    def test_duplicate_rows_are_retained(self):
        snap = parse_text(
            "prefix,as_path\n192.0.2.0/24,174 25133\n192.0.2.0/24,174 25133\n"
        )
        assert len(snap.entries) == 2

    def test_entries_plus_skipped_equals_data_rows(self):
        snap = parse_text(TEN_ROW_FIXTURE)
        assert len(snap.entries) + snap.skipped == 10

    def test_prefixes_are_normalized(self):
        rows, _ = parse_rows("prefix,as_path\n2001:DB8::/32,174 25133\n192.0.2.7/24,174 25133\n")
        assert [prefix for prefix, _, _ in rows] == ["2001:db8::/32", "192.0.2.0/24"]

    def test_oversized_asn_token_is_a_defect(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,174 99999999999\n")
        assert snap.skipped == 1

    def test_missing_mapped_column_is_a_hard_error(self):
        with pytest.raises(ValueError, match="as_path"):
            parse_text("prefix,path\n192.0.2.0/24,174 25133\n")

    def test_header_orders_the_columns_and_may_add_others(self):
        rows, _ = parse_rows("nexthop,as_path,prefix\n10.0.0.1,174 25133,192.0.2.0/24\n")
        assert rows == [("192.0.2.0/24", 25133, 174)]

    def test_row_short_of_a_mapped_column_is_skipped(self):
        text = "age,prefix,as_path\n1h,192.0.2.0/24\n2h,198.51.100.0/24,174 25133\n"
        rows, skipped = parse_rows(text)
        assert [prefix for prefix, _, _ in rows] == ["198.51.100.0/24"]
        assert skipped == 1

    def test_parse_is_deterministic(self):
        a = parse_text(TEN_ROW_FIXTURE)
        b = parse_text(TEN_ROW_FIXTURE)
        assert a == b

    def test_shared_intern_table_parses_like_a_fresh_one(self):
        intern = InternTable()
        other_day = "prefix,as_path\n192.0.2.7/24,174 3216 25133\n10.0.0.0/8,\n2001:DB8::/32,6939 25133\n"
        parse_snapshot(io.BytesIO(other_day.encode()), "testix", day(-1), intern=intern)
        for text in (TEN_ROW_FIXTURE, other_day):
            shared = parse_snapshot(io.BytesIO(text.encode()), "testix", BASE, intern=intern)
            assert (rows_of(shared, intern), shared.skipped) == parse_rows(text)
        memo = intern.rows[(0, 1)]
        row = memo[b"192.0.2.7/24,174 3216 25133\n"]
        assert (intern.prefix_of[row], intern.origin_of[row], intern.neighbor_of[row]) == (
            "192.0.2.0/24", 25133, 174)
        assert memo[b"not-a-prefix,174 25133\n"] is None
        assert memo[b"10.0.0.0/8,\n"] is None

    # Each defect in the first, a middle and the last token of a path.
    PATH_DEFECTS = {"as-set": "{64512,64513}", "non-ascii-digit": "２５１３３",
                    "above-asn-max": str(ASN_MAX + 1), "4301-digits": "9" * 4301}

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("defect", list(PATH_DEFECTS.values()), ids=list(PATH_DEFECTS))
    def test_path_defect_in_any_position_is_skipped_and_counted(self, defect, position):
        tokens = ["174", "3216", "25133"]
        tokens[position] = defect
        cell = " ".join(tokens)
        intern = InternTable()
        # Quoted, as an AS_SET's comma would otherwise end the cell.
        text = f'prefix,as_path\n192.0.2.0/24,174 3216 25133\n198.51.100.0/24,"{cell}"\n10.0.0.0/8,"{cell}"\n'
        snap = parse_snapshot(io.BytesIO(text.encode()), "testix", BASE, intern=intern)
        assert (rows_of(snap, intern), snap.skipped) == ([("192.0.2.0/24", 25133, 174)], 2)
        assert rtingest._parse_path(cell) is None

    @pytest.mark.parametrize("path, origin, neighbor", [
        (f"0 174 {ASN_MAX}", ASN_MAX, 0),
        (f"{ASN_MAX} 174 0", 0, ASN_MAX),
        (f"{ASN_MAX} {ASN_MAX}", ASN_MAX, ASN_MAX),
        ("0", 0, 0),
        (str(ASN_MAX), ASN_MAX, ASN_MAX),
        ("25133", 25133, 25133),
    ])
    def test_path_endpoints_at_the_asn_bounds(self, path, origin, neighbor):
        intern = InternTable()
        row = intern.entry(("192.0.2.0/24", path))
        assert (intern.origin_of[row], intern.neighbor_of[row]) == (origin, neighbor)
        assert rtingest._parse_path(path) == (origin, neighbor)

    @pytest.mark.parametrize("header, layout", [("prefix,as_path", (0, 1)), ("as_path,prefix", (1, 0))],
                             ids=["prefix-first", "path-first"])
    def test_repeated_line_is_a_row_memo_hit_and_a_new_line_is_parsed(self, monkeypatch, header, layout):
        parsed = []
        for name in ("_parse_path", "_normalize_prefix"):
            def counted(text, real=getattr(rtingest, name)):
                parsed.append(text)
                return real(text)
            monkeypatch.setattr(rtingest, name, counted)
        path = f"{ASN_MAX} 3216 0"

        def line(prefix):
            return f"{prefix},{path}\n" if layout == (0, 1) else f"{path},{prefix}\n"

        intern = InternTable()
        first = parse_snapshot(io.BytesIO(f"{header}\n{line('192.0.2.0/24')}".encode()),
                               "testix", day(0), intern=intern)
        parsed.clear()
        # Day 1 repeats day 0's line and adds one that shares its path cell.
        later = parse_snapshot(io.BytesIO(f"{header}\n{line('192.0.2.0/24')}{line('198.51.100.0/24')}".encode()),
                               "testix", day(1), intern=intern)
        assert sorted(parsed) == sorted([path, "198.51.100.0/24"])
        assert later.entries[0] == first.entries[0]
        # Under either column order the memo key is the raw byte line,
        # terminator included.
        assert intern.rows == {layout: {line("192.0.2.0/24").encode(): first.entries[0],
                                        line("198.51.100.0/24").encode(): later.entries[1]}}
        assert rows_of(later, intern) == [(prefix, 0, ASN_MAX) for prefix in ("192.0.2.0/24", "198.51.100.0/24")]

    # (prefix, as_path, plain): rows on both sides of the plain-line
    # pattern.  A plain line is decided from one match, any other by csv.
    BOUNDARY_ROWS = [
        ("192.0.2.7/24", "174 3216 25133", True),
        ("2001:DB8:ABCD::1/48", "6939 999999999", True),
        ("FE80::1:ABCD/64", "0", True),
        ("10.1.2.3/8", "007 0174", True),
        ("::ffff:192.0.2.7/120", "25133", True),
        ("198.51.100.0/024", "174 25133", True),
        ("300.0.0.0/8", "174", True),
        ("192.0.2.0/33", "174 25133", True),
        ("192.0.2.0/24", "174 4294967295", False),
        ("192.0.2.0/24", "174 4294967296", False),
        ("198.51.100.0/24", "174  25133", False),
        ("198.51.100.0/24", " 174", False),
        ("198.51.100.0/24", "174 25133 ", False),
        ("192.0.2.0/24", "", False),
        ("192.0.2.0/24", "174 {64512 64513}", False),
        ("192.0.2.0", "174", False),
        (" 192.0.2.0/24", "174", False),
        ("192.0.2.0/24", "174 25133", True),
    ]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_plain_and_quoted_forms_give_equal_rows(self, monkeypatch, end):
        by_csv = []
        real_entry = InternTable.entry
        monkeypatch.setattr(InternTable, "entry", lambda table, cells: by_csv.append(cells) or real_entry(table, cells))
        cells = [("prefix", "as_path")] + [(prefix, path) for prefix, path, _ in self.BOUNDARY_ROWS]
        plain = "".join(f"{prefix},{path}{end}" for prefix, path in cells)
        quoted = "".join(f'"{prefix}","{path}"{end}' for prefix, path in cells)
        not_plain = [(prefix, path) for prefix, path, is_plain in self.BOUNDARY_ROWS if not is_plain]
        expected = reference_parse(io.StringIO(plain, newline=""))
        assert expected[1] == 5
        # Only the rows that are not plain take csv, with or without the
        # last line's end; every quoted row takes csv.
        for text, through_csv in ((plain, not_plain), (plain.rstrip(end), not_plain), (quoted, cells[1:])):
            by_csv.clear()
            assert parse_rows(text) == expected
            assert by_csv == through_csv


def write_snapshot_file(root, ixp, d, rows):
    ixp_dir = root / ixp
    ixp_dir.mkdir(parents=True, exist_ok=True)
    lines = ["prefix,as_path"] + [f"{p},{' '.join(map(str, path))}" for p, path in rows]
    (ixp_dir / f"{d.isoformat()}.csv").write_text("\n".join(lines) + "\n")


def save_ua_db(root):
    """A saved one-ASN database, 25133 -> UA; its path, for RunConfig."""
    path = root / "asndb.txt"
    asndb.save(asndb.MergedRecords({25133: (0, "ripencc", "UA", "")}), path)
    return path


class TestDateRange:
    def test_range_ending_on_date_max_yields_each_day(self):
        last = dt.date.max
        days = [last - dt.timedelta(days=n) for n in (2, 1, 0)]
        assert list(DateRange(days[0], last).days()) == days
        assert list(DateRange(last, last).days()) == [last]


class TestLoadSeries:
    def test_gap_accounting(self, tmp_path):
        window = DateRange(BASE, day(9))
        for offset in range(10):
            if offset in (3, 7):
                continue
            write_snapshot_file(tmp_path, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
        series = load_series(tmp_path, "amsix", window)
        assert len(series.snapshots) == 8
        assert series.gaps == (day(3), day(7))

    def test_empty_directory_is_all_gaps(self, tmp_path):
        (tmp_path / "amsix").mkdir()
        series = load_series(tmp_path, "amsix", DateRange(BASE, day(4)))
        assert series.snapshots == ()
        assert len(series.gaps) == 5

    def test_missing_ixp_directory_is_a_hard_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path, "nosuch", DateRange(BASE, day(4)))

    def test_files_outside_window_are_ignored(self, tmp_path):
        write_snapshot_file(tmp_path, "amsix", day(-5), [("192.0.2.0/24", [174, 25133])])
        write_snapshot_file(tmp_path, "amsix", day(0), [("192.0.2.0/24", [174, 25133])])
        series = load_series(tmp_path, "amsix", DateRange(BASE, day(2)))
        assert [snap.date for snap in series.snapshots] == [day(0)]

    @pytest.mark.parametrize("content, reason", [
        (b"", "has no header row"),
        (b"prefix,as_path\n192.0.2.0/24,174 \xff25133\n", "can't decode byte 0xff"),
        (b"prefix,path\n192.0.2.0/24,174 25133\n", "missing mapped column 'as_path'"),
        (b"prefix,as_path\n192.0.2.0/24,\"" + b"1" * (1 << 18) + b"\"\n", "field larger than field limit"),
    ], ids=["empty", "undecodable", "missing-column", "oversized-field"])
    def test_bad_file_becomes_a_logged_gap(self, tmp_path, caplog, content, reason):
        for offset in range(3):
            write_snapshot_file(tmp_path, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
        bad = tmp_path / "amsix" / f"{day(1).isoformat()}.csv"
        bad.write_bytes(content)
        with caplog.at_level(logging.WARNING, logger="ixpreach.rtingest"):
            series = load_series(tmp_path, "amsix", DateRange(BASE, day(2)))
        assert [snap.date for snap in series.snapshots] == [day(0), day(2)]
        assert series.gaps == (day(1),)
        assert len(caplog.records) == 1
        assert str(bad) in caplog.text and reason in caplog.text
        with open(bad, "rb") as handle:
            with pytest.raises((ValueError, csv.Error), match=reason):
                parse_snapshot(handle, "amsix", day(1), InternTable())

    @pytest.mark.parametrize("row", [
        "192.0.2.0\x00/24,174 25133",
        "2001:db8::\x00/32,174 25133",
        "192.0.2.0/24,174 \x0025133",
        "192.0.2.0/24,174 " + "9" * 5000 + " 25133",
    ], ids=["nul-ipv4-prefix", "nul-ipv6-prefix", "nul-path", "5000-digit-token"])
    def test_a_row_that_breaks_a_parser_is_one_skip(self, tmp_path, caplog, row):
        for offset in range(3):
            write_snapshot_file(tmp_path, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
        with open(tmp_path / "amsix" / f"{BASE.isoformat()}.csv", "a") as handle:
            handle.write(row + "\n")
        with caplog.at_level(logging.WARNING, logger="ixpreach.rtingest"):
            series = load_series(tmp_path, "amsix", DateRange(BASE, day(2)))
        assert not caplog.records
        assert series.gaps == ()
        assert [(snap.date, snap.entries, snap.skipped) for snap in series.snapshots] == [
            (BASE, (0,), 1), (day(1), (0,), 0), (day(2), (0,), 0)]

    @pytest.mark.parametrize("age", ["1\x00h", '"1\x00\n\x00h"'], ids=["one-line", "continued"])
    def test_nul_skips_only_rows_whose_mapped_cells_hold_one(self, age):
        text = (f"age,prefix,as_path\n{age},192.0.2.0/24,174 25133\n"
                "2h,192.0.2.0\x00/24,174 25133\n3h,192.0.2.0/24,174 \x0025133\n")
        snapshot = parse_snapshot(io.BytesIO(text.encode()), "amsix", BASE, InternTable())
        assert (snapshot.entries, snapshot.skipped) == ((0,), 2)

    def test_byte_order_mark_is_dropped(self, tmp_path, caplog):
        series = {}
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            for offset in range(2):
                write_snapshot_file(tmp_path / name, "amsix", day(offset),
                                    [("192.0.2.0/24", [174, 25133]), ("198.51.100.0/24", [6939, 31133 + offset])])
            path = tmp_path / name / "amsix" / f"{BASE.isoformat()}.csv"
            path.write_bytes(bom + path.read_bytes())
            with caplog.at_level(logging.WARNING, logger="ixpreach.rtingest"):
                series[name] = load_series(tmp_path / name, "amsix", DateRange(BASE, day(1)))
        assert not caplog.records
        assert series["bom"].gaps == ()
        assert series["bom"] == series["plain"]
        assert len(series["bom"].snapshots) == 2

    def test_quarantined_baseline_still_fails_the_run(self, tmp_path):
        # With every file of the window unusable the series is empty, and
        # the run still fails on the baseline it cannot use.
        for empty in (1, 3):
            root = tmp_path / f"empty-{empty}"
            for offset in range(3):
                write_snapshot_file(root, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
            for offset in range(empty):
                (root / "amsix" / f"{day(offset).isoformat()}.csv").write_bytes(b"")
            config = pipeline.RunConfig(asndb_path=save_ua_db(root), snapshot_root=root,
                                        output_dir=root / "out", ixps=("amsix",), countries=("UA",),
                                        baseline_date=BASE, final_date=day(2))
            with pytest.raises(ValueError, match="baseline date 2022-02-19 has no snapshot for IXP 'amsix'"):
                pipeline.run_analysis(config)

    @pytest.mark.parametrize("content", [b"", b"prefix,as_path\n192.0.2.0/24,174 \xff25133\n"],
                             ids=["empty", "undecodable"])
    def test_quarantined_final_day_still_fails_the_run(self, tmp_path, content):
        # The baseline and the day before the final one are fine: the run
        # fails on the final day and never falls back to another day.
        for offset in range(3):
            write_snapshot_file(tmp_path, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
        (tmp_path / "amsix" / f"{day(2).isoformat()}.csv").write_bytes(content)
        config = pipeline.RunConfig(asndb_path=save_ua_db(tmp_path), snapshot_root=tmp_path,
                                    output_dir=tmp_path / "out", ixps=("amsix",), countries=("UA",),
                                    baseline_date=BASE, final_date=day(2))
        with pytest.raises(ValueError, match="^final date 2022-02-21 has no snapshot for IXP 'amsix'$"):
            pipeline.run_analysis(config)

    @pytest.mark.parametrize("content", [b"", b"prefix,as_path\n192.0.2.0/24,174 \xff25133\n"],
                             ids=["empty", "undecodable"])
    @pytest.mark.parametrize("end", ["baseline", "final"])
    def test_unusable_end_file_fails_before_attribution(self, tmp_path, monkeypatch, end, content):
        # amsix is fine; linx's end file exists but is unusable, so the run
        # fails right after linx's window is loaded, before its attribution.
        for ixp in ("amsix", "linx"):
            for offset in range(3):
                write_snapshot_file(tmp_path, ixp, day(offset), [("192.0.2.0/24", [174, 25133])])
        bad = {"baseline": BASE, "final": day(2)}[end]
        (tmp_path / "linx" / f"{bad.isoformat()}.csv").write_bytes(content)
        attributed = []
        build_series = pipeline.metrics.build_series

        def spy(series, *args):
            attributed.append(series.ixp)
            return build_series(series, *args)

        monkeypatch.setattr(pipeline.metrics, "build_series", spy)
        config = pipeline.RunConfig(asndb_path=save_ua_db(tmp_path), snapshot_root=tmp_path,
                                    output_dir=tmp_path / "out", ixps=("amsix", "linx"), countries=("UA",),
                                    baseline_date=BASE, final_date=day(2))
        with pytest.raises(ValueError, match=f"^{end} date {bad} has no snapshot for IXP 'linx'$"):
            pipeline.run_analysis(config)
        assert attributed == ["amsix"]

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["plain", "all-quoted"])
    @pytest.mark.parametrize("age", [True, False], ids=["unmapped-column", "mapped-only"])
    def test_rows_share_entries_across_days(self, tmp_path, quoting, age):
        # The unmapped age column, where there is one, changes on every row
        # of every day; the mapped cells repeat, so each row shares the
        # first day's entry, however it is quoted.
        cells = [("192.0.2.0/24", "174 25133"), ("198.51.100.0/24", "6939 {64512,64513}"),
                 ("198.51.100.0/24", "6939 31133"), ("bad", "174")]
        (tmp_path / "amsix").mkdir()
        for offset in range(3):
            out = io.StringIO()
            writer = csv.writer(out, quoting=quoting, lineterminator="\n")
            writer.writerow(["age"] * age + ["prefix", "as_path"])
            writer.writerows([f"{offset}d {i}h ago"] * age + [p, a] for i, (p, a) in enumerate(cells))
            (tmp_path / "amsix" / f"{day(offset).isoformat()}.csv").write_text(out.getvalue())
        series = load_series(tmp_path, "amsix", DateRange(BASE, day(2)))
        first, *later = series.snapshots
        assert rows_of(first, series) == [("192.0.2.0/24", 25133, 174), ("198.51.100.0/24", 31133, 6939)]
        assert first.entries == (0, 1)
        assert first.skipped == 2
        for snapshot in later:
            assert snapshot.skipped == 2
            assert snapshot.entries == first.entries
        assert len(series.origin_of) == 2

    def test_each_distinct_row_is_parsed_once_past_the_old_cache_bound(self, tmp_path, monkeypatch):
        n = (1 << 16) + 4_000
        v6 = 500
        prefixes = [f"{10 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}.0/24" for i in range(n)]
        prefixes += [f"2001:DB8:{i:x}::/48" for i in range(v6)]
        write_snapshot_file(tmp_path, "amsix", day(0), [(p, [174, 25133 + i % 7]) for i, p in enumerate(prefixes)])
        # Day 2 repeats every prefix cell, half of them behind a new path.
        write_snapshot_file(tmp_path, "amsix", day(1), [(p, [174, 25133 + i % 7 + i % 2 * 10])
                                                        for i, p in enumerate(prefixes)])
        normalized, networks = [0], [0]
        real_normalize, real_network = rtingest._normalize_prefix, ipaddress.ip_network

        def counted_normalize(text):
            normalized[0] += 1
            return real_normalize(text)

        def counted_network(*args, **kwargs):
            networks[0] += 1
            return real_network(*args, **kwargs)

        monkeypatch.setattr(rtingest, "_normalize_prefix", counted_normalize)
        monkeypatch.setattr(ipaddress, "ip_network", counted_network)
        series = load_series(tmp_path, "amsix", DateRange(BASE, day(1)))
        # Each distinct row is parsed once, so a prefix cell is parsed again
        # only behind a new path, and the fast path takes both families: no
        # cell reaches ipaddress.
        assert normalized[0] == (n + v6) * 3 // 2
        assert networks[0] == 0
        first, second = series.snapshots
        assert len(first.entries) == len(second.entries) == n + v6
        prefix_of = series.prefix_of
        assert prefix_of[first.entries[-1]] == f"2001:db8:{v6 - 1:x}::/48"
        assert all(prefix_of[a] == prefix_of[b] for a, b in zip(first.entries, second.entries))
        assert all((a == b) == (i % 2 == 0) for i, (a, b) in enumerate(zip(first.entries, second.entries)))
        assert len(prefix_of) == len(set(first.entries + second.entries)) == (n + v6) * 3 // 2


class TestAttributeCountry:
    def test_known_and_unknown_origins(self):
        db = make_db({25133: "UA", 31133: "RU"})
        series = make_series({BASE: [
            ("192.0.2.0/24", [174, 25133]),
            ("198.51.100.0/24", [174, 31133]),
            ("203.0.113.0/24", [174, 2914]),
        ]})
        assert origins_by_date(presence_of(series, db, "UA")) == {BASE: {25133}}
        assert origins_by_date(presence_of(series, db, "RU")) == {BASE: {31133}}
        assert origins_by_date(presence_of(series, db, "US")) == {BASE: set()}


def test_check_ixp_accepts_plain_names_only():
    for name in pipeline.DEFAULT_IXPS + ("testix", "ix", "de-cix.fra", "linx_lon1", "6ix"):
        assert rtingest.check_ixp(name) == name
    for name in ("", ".", "..", "../x", "a/b", "a\\b", "ams ix", "-x", ".x", "_x", "amsix\n", "ämsix"):
        with pytest.raises(ValueError, match="not a usable IXP id"):
            rtingest.check_ixp(name)


def reference_prefix(text):
    try:
        return str(ipaddress.ip_network(text.strip(), strict=False))
    except ValueError:
        return None


# IPv6 cells around every edge of the inet_pton/inet_ntop fast path.
IPV6_EDGES = [
    # Case, exploded forms and hextets with leading zeros.
    "2001:DB8::/32", "2001:Db8:0:0:0:0:0:1/128", "2001:0db8:0000:0000:0000:0000:0000:0001/128",
    "2001:0DB8:0000:0000:0000:0000:0000:0000/32", "0:0:0:0:0:0:0:0/0", "0000:0000:0000:0000:0000:0000:0000:0001/128",
    "2001:0db8:00a0:0b00:000c:0d00:00e0:0f00/128", "FE80:0000:0000:0000:0202:B3FF:FE1E:8329/64",
    "2001:db8:0001::/48", "2001:db8:001::/48", "2001:db8:01::/48",
    # Zero runs: the longest is compressed, the leftmost of equal ones,
    # and a single zero hextet is not.
    "2001:db8:0:0:1:0:0:1/128", "2001:0:0:1:0:0:0:1/128", "2001:0:0:0:1:0:0:1/128", "1:0:0:2:0:0:3:4/128",
    "0:0:1:0:0:1:0:0/128", "1:0:0:0:0:0:0:0/128", "0:0:0:0:0:0:0:1/128", "1:0:1:0:1:0:1:0/128",
    "2001:db8:0:1:1:1:1:1/128", "2001:db8:1:1:1:1:1:0/128", "0:1:1:1:1:1:1:1/128", "1:2:3:4:5:6:7:0/128",
    "1:2:3:4:5:6:7::/128", "::2:3:4:5:6:7:8/128", "1:2:3:4::5:6:7/128",
    "::", "::/0", "::/128", "::1/128", "::1", "::/129", "::1/-1", "::1/", "::/+8",
    # Host bits and lengths; a length past 128 or with a leading zero.
    "2001:db8::1/64", "2001:db8::/129", "2001:db8::/064", "2001:db8::/0128", "2001:db8::/00", "2001:db8::/ 64",
    "2001:db8::/ffff:ffff::", "2001:db8::/255.255.0.0", "2001:db8::/1000",
    # Forms inet_ntop writes with a dotted IPv4 tail, and other IPv4 tails.
    "::ffff:192.0.2.7/120", "::192.0.2.7/128", "::ffff:192.0.2.7/128", "::ffff:c000:207/128",
    "::c000:207/128", "::ffff:0:0/96", "::ffff:0.0.0.0/96", "::0.0.0.1/128", "::0.1.0.0/128",
    "::ffff:192.0.2.7/96", "::ffff:192.0.2.7/80", "::fffe:192.0.2.7/128", "64:ff9b::192.0.2.7/128",
    "1:2:3:4:5:6:192.0.2.7/128", "::1:192.0.2.7/128", "::ffff:192.0.2.07/128", "::ffff:192.0.2/128",
    "::ffff:192.0.2.256/128", "192.0.2.7::/128",
    # Malformed: scope ids, long or bad hextets, wrong group counts.
    "fe80::1%eth0/64", "fe80::1%1/64", "fe80::1%/64", "2001:db8::12345/64", "2001:db8:00000::/48",
    "1:2:3:4:5:6:7:8:9/128", "1:2:3:4:5:6:7:8::/128", "::1:2:3:4:5:6:7:8/128", "1:2:3:4:5:6:7/128",
    ":::/0", ":::1/128", "1::2::3/128", ":1::/16", "1::2:/16", "1:2:3:4:5:6:7:8:/128", "g::/16",
    "0x1::/16", "2001:db8:: /48", " 2001:db8::/48 ", "2001 :db8::/48", "2001:db8::/４８", "２００１:db8::/32",
    ":/0", ":", "/64", "2001:db8::/", "2001:db8::/64/", "[2001:db8::]/32",
]


def prefix_corpus():
    """Prefix cells around every edge of the fast path, both families."""
    octets = ["0", "1", "9", "00", "01", "010", "001", "10", "99", "100", "199", "200",
              "249", "250", "255", "256", "260", "299", "300", "999", "0255", "1000", "", "-1", "٣"]
    lengths = [f"/{n}" for n in range(34)] + ["/00", "/08", "/024", "/0032", "/-1", "/", "", "/24/",
                                               "/ 24", "/2 4", "/255.255.255.0", "/0.0.0.255", "/255.0.255.0", "/٢٤"]
    corpus = []
    for position in range(4):
        for octet in octets:
            quad = ["192", "0", "2", "0"]
            quad[position] = octet
            corpus += [".".join(quad) + length for length in ("/24", "/32", "/0", "/8", "/33")]
    corpus += ["10.255.255.255" + length for length in lengths]
    corpus += ["0.0.0.0" + length for length in lengths]
    rng = random.Random(20221)
    for _ in range(3000):
        address = ".".join(str(rng.randrange(256)) for _ in range(4))
        corpus.append(f"{address}/{rng.randrange(34)}")
    corpus += [f"{pad}192.0.2.7/24{end}" for pad in ("", " ", "\t", " ", "　") for end in ("", " ", "\n", "\r\n")]
    corpus += ["2001:DB8::/32", "2001:db8::1/64", "::/0", "::ffff:192.0.2.7/120", "2001:db8::/129",
               "192.0.2.0", "192.0.2.7", "2001:db8::", "", " ", "not-a-prefix", "192.0.2/24", "192.0.2.0.0/24",
               "192.0.2.0/24 x", "192.0.2.0//24", "１９２.0.2.0/24", "192.0.2.0/２４", "192.0.2.0\\24", "+1.2.3.4/8"]
    corpus += IPV6_EDGES
    for length in range(131):
        corpus += [f"2001:db8:ffff:ffff:ffff:ffff:ffff:ffff/{length}", f"FFFF:{'FFFF:' * 6}FFFF/{length}",
                   f"::1/{length}", f"8000::/{length}"]
    for address in ("192.0.2.0", "2001:db8::"):
        corpus += [f"{address}\x00/24", f"{address}/2\x004", f"\x00{address}/24", f"{address}\ud800/24",
                   f"{address}/\udc00", f"\ud83d{address}/24"]
    return corpus


def test_normalize_prefix_matches_ipaddress():
    corpus = prefix_corpus()
    assert any(reference_prefix(text) is None for text in corpus)
    assert any(reference_prefix(text) not in (None, text) for text in corpus)
    for text in corpus:
        assert rtingest._normalize_prefix(text) == reference_prefix(text), repr(text)


def random_prefix_cells(rng, count, family):
    """Random cells of one family: IPv4 quads with lengths 0-33, or IPv6
    addresses (compressed, exploded, upper case, zero-padded hextets,
    zero runs, a few IPv4 tails) with lengths 0-130."""
    cells = []
    for _ in range(count):
        if family == 4:
            cells.append(".".join(str(rng.randrange(256)) for _ in range(4)) + f"/{rng.randrange(34)}")
            continue
        hextets = [rng.choice(["0", "0", "0", f"{rng.randrange(1 << 16):x}", f"{rng.randrange(1 << 8):x}",
                               f"{rng.randrange(1 << 16):04x}", f"{rng.randrange(1 << 16):04X}",
                               f"{rng.randrange(1 << 20):x}"])
                   for _ in range(rng.choice([8, 8, 8, 7, 9]))]
        if rng.random() < 0.5:
            start = rng.randrange(len(hextets))
            end = rng.randrange(start, len(hextets) + 1)
            text = ":".join(hextets[:start]) + "::" + ":".join(hextets[end:])
        else:
            text = ":".join(hextets)
        if rng.random() < 0.05:
            text = text.rsplit(":", 1)[0] + ":" + ".".join(str(rng.randrange(256)) for _ in range(4))
        cells.append(f"{text}/{rng.randrange(131)}")
    return cells


def test_normalize_prefix_matches_ipaddress_on_random_cells():
    rng = random.Random(20260)
    for family in (4, 6):
        cells = random_prefix_cells(rng, 20_000, family)
        expected = [reference_prefix(text) for text in cells]
        assert 5_000 < sum(prefix is not None for prefix in expected) < 20_000
        assert any(prefix not in (None, text) for prefix, text in zip(expected, cells))
        assert [rtingest._normalize_prefix(text) for text in cells] == expected


def test_ipv4_tail_forms_and_odd_lengths_reach_ipaddress(monkeypatch):
    fallback = ["::ffff:192.0.2.7/120", "::192.0.2.7/128", "::ffff:c000:207/128", "2001:db8::/064",
                "192.0.2.0/024", "192.0.2.0", "10.0.0.0/255.0.0.0", "fe80::1%eth0/64", "192.0.2.0\x00/24",
                "192.0.2.7/24"]
    fast = ["2001:DB8:0:0:0:0:0:1/64", "::/0", "::1/128", "192.0.2.0/24", "1:2:3:4:5:6:192.0.2.7/128"]
    expected = {text: reference_prefix(text) for text in fallback + fast}
    calls = []
    real_network = ipaddress.ip_network

    def counted_network(*args, **kwargs):
        calls.append(args[0])
        return real_network(*args, **kwargs)

    monkeypatch.setattr(ipaddress, "ip_network", counted_network)
    assert {text: rtingest._normalize_prefix(text) for text in fallback + fast} == expected
    assert calls == fallback


def reference_parse(lines):
    """(prefix, origin, neighbor) rows and the skip count of a snapshot
    stream, from one csv.reader over the whole stream and the documented
    row rules, with no memo."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError("no header row")
    for name in ("prefix", "as_path"):
        if name not in header:
            raise ValueError(f"missing mapped column {name!r}")
    p_idx, a_idx = header.index("prefix"), header.index("as_path")
    entries, skipped = [], 0
    for row in reader:
        if not row:
            continue
        entry = None
        if len(row) > max(p_idx, a_idx):
            tokens = row[a_idx].split()
            if tokens and all(t.isascii() and t.isdigit() and int(t) <= ASN_MAX for t in tokens):
                prefix = reference_prefix(row[p_idx])
                if prefix is not None:
                    entry = (prefix, int(tokens[-1]), int(tokens[0]))
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)
    return entries, skipped


def outcome(parse, table=None):
    """What a parse returns, or the class of what it raises (with the
    message for csv errors, which both parsers leave to csv).  A Snapshot's
    row ids are read through the columns of `table`."""
    try:
        result = parse()
    except csv.Error as exc:
        return csv.Error, str(exc)
    except ValueError as exc:
        return type(exc), None
    if isinstance(result, rtingest.Snapshot):
        return rows_of(result, table), result.skipped
    return result


FIELD_LIMIT = csv.field_size_limit()


def crlf_cut_at_the_block_end():
    """A CRLF file whose byte `_BLOCK - 1` is the `\\r` of a `\\r\\n`, so
    the first read of a block ends between the two."""
    line = b"10.0.0.0/8,174 25133\r\n"
    content = b"prefix,as_path\r\n" + line * ((rtingest._BLOCK - 16) // len(line) - 1)
    content += b" " * (rtingest._BLOCK + 1 - len(content) - len(line)) + line
    assert content[rtingest._BLOCK - 1:] == b"\r\n"
    return content + line + b"192.0.2.0/24,6939\r\n"


# A row of about 4 KB; repeated, it keeps the memo at one entry.
ROW = b"10.0.0.0/8," + b"174 " * 1000 + b"25133"


def lf_then_lone_cr(block, reads):
    """About `reads` reads of `\\n` lines, then lone-`\\r` lines.  The first
    read ends at a line end and the second inside the first `\\r` line."""
    header = b"prefix,as_path\n"
    width = len(ROW) + 1
    first = header + b" " * ((block - len(header)) % width) + (ROW + b"\n") * ((block - len(header)) // width)
    assert len(first) == block and block % width
    return first + (ROW + b"\n") * (block // width) + (ROW + b"\r") * ((reads - 2) * block // width + 2)


def long_lone_cr_line(block, span, reads):
    """About `reads` reads of lone-`\\r` lines, one of them over `span` reads
    long, each of its fields under csv's field size limit."""
    pad = min(block, FIELD_LIMIT - 1)
    long = ROW + (b"," + b" " * pad) * (span * block // pad + 1) + b"\r"
    return b"prefix,as_path\r" + ROW + b"\r" + long + (ROW + b"\r") * max(1, (reads - span - 1) * block // len(ROW))


def lone_cr_lines_a_read_long(block, reads):
    """`reads` reads of lone-`\\r` lines, each ending on the last byte of a
    read."""
    header, row = b"prefix,as_path\r", b"10.0.0.0/8,174 25133\r"
    first = header + b" " * (block - len(header) - len(row)) + row
    return first + (b" " * (block - len(row)) + row) * (reads - 1)


# Two cells as long as csv allows: space-padded, they still parse.
LONG_LINE = (b" " * (FIELD_LIMIT - 10) + b"10.0.0.0/8,"
             + b" " * (FIELD_LIMIT - 9) + b"174 25133")
assert len(LONG_LINE) > rtingest._BLOCK

# A path of single-spaced ASNs exactly as long as csv's field limit.
PLAIN_PATH_AT_LIMIT = b"174 " * (FIELD_LIMIT // 4 - 1) + b"25133"[:FIELD_LIMIT % 4 + 4]
assert len(PLAIN_PATH_AT_LIMIT) == FIELD_LIMIT

# One IXP's days, in order: each memo is warm with the lines of the days
# before it.  Every day holds lines a split on commas would misread.
ADVERSARIAL_DAYS = [
    b"prefix,as_path\n10.0.0.0/8,174 25133\n192.0.2.7/24,174 3216 25133\nnot-a-prefix,174\n25133\n",
    # A quoted record whose middle line equals a line memoised by its raw text.
    b'prefix,as_path\n192.0.2.0/24,"174\n10.0.0.0/8,174 25133\n25133"\n10.0.0.0/8,174 25133\n',
    b'prefix,as_path\n"10.0.0.0/8","174 25133"\n"192.0.2.0/24",174 "3216"\n10.0.0.0/8,"174 ""25133"\n',
    # A quoted field left open at the end of the file; the next day's
    # same line opens a record that reads on into the line after it.
    b'prefix,as_path\n10.0.0.0/8,"174 25133\n',
    b'prefix,as_path\n10.0.0.0/8,"174 25133\n192.0.2.0/24,174\n',
    b"prefix,as_path\r\n10.0.0.0/8,174 25133\r\n198.51.100.0/24,6939\r\n10.0.0.0/8,174 25133\n",
    b"prefix,as_path\r10.0.0.0/8,174 25133\r198.51.100.0/24,6939\r",
    b"prefix,as_path\n10.0.0.0/8,174\r25133\n10.0.0.0/8,174 25133\r\r\n198.51.100.0/24,6939",
    b"prefix,as_path\n\n10.0.0.0/8,174 25133\n   \n\r\n , \n\t\n\n10.0.0.0/8,174 25133\n\n",
    "prefix,as_path\n10.0.0.0/8,174 25133\x0c\n10.0.0.0/8,174 25133 \n".encode(),
    b"prefix,as_path\n10.0.0.0/8,174 25133\n10.0.0.0/8,174\x00 25133\n192.0.2.0/24,174\n",
    b"prefix,as_path\n10.0.0.0/8,174 25133\n192.0.2.0/24," + b"1" * (FIELD_LIMIT + 1) + b"\n",
    # Plain lines whose path is as long as csv's field limit, and one byte
    # longer: csv reads the first and refuses the second.
    b"prefix,as_path\n10.0.0.0/8," + PLAIN_PATH_AT_LIMIT + b"\n",
    b"prefix,as_path\n10.0.0.0/8," + PLAIN_PATH_AT_LIMIT + b"0\n",
    b"prefix,as_path,note\n10.0.0.0/8,174 25133," + b"x" * (FIELD_LIMIT - 5) + b"\n10.0.0.0/8,174 25133,\n",
    b"as_path,prefix\n174 25133,10.0.0.0/8\n10.0.0.0/8,174 25133\n",
    b"prefix,as_path,other\n10.0.0.0/8,174 25133,192.0.2.0/24\n",
    b"other,as_path,prefix\n10.0.0.0/8,174 25133,192.0.2.0/24\n",
    b"prefix,as_path\n10.0.0.0/8,174 \xff\n",
    # A byte that is not UTF-8 on a line csv reads on into.
    b'prefix,as_path\n10.0.0.0/8,"174\n25133 \xff"\n',
    b"",
    b"\nprefix,as_path\n10.0.0.0/8,174 25133\n",
    b"prefix,as_path\n",
    # A byte-order mark alone, and one before a blank first line.
    b"\xef\xbb\xbf",
    b"\xef\xbb\xbf\r\nprefix,as_path\r\n10.0.0.0/8,174 25133\r\n",
    crlf_cut_at_the_block_end(),
    # Lone-\r line ends past one block, so each read ends at its last line
    # end and the rest is carried into the next.
    b"prefix,as_path\r" + b"10.0.0.0/8,174 25133\r192.0.2.0/24,6939\r" * (rtingest._BLOCK // 32),
    # A switch from \n to lone-\r line ends inside a read, and a lone-\r
    # line that spans reads with no line end in them.
    lf_then_lone_cr(rtingest._BLOCK, 2),
    long_lone_cr_line(rtingest._BLOCK, 2, 3),
    # A line longer than one block, twice (a memo hit the second time),
    # with \n and \r\n ends.
    b"prefix,as_path\n" + LONG_LINE + b"\n" + LONG_LINE + b"\n10.0.0.0/8,174 25133\n",
    b"prefix,as_path\r\n" + LONG_LINE + b"\r\n" + LONG_LINE + b"\r\n",
]


def reference_series(root, ixp, window):
    snapshots, gaps = [], []
    for d in window.days():
        try:
            with open(root / ixp / f"{d.isoformat()}.csv", newline="", encoding="utf-8-sig") as handle:
                snapshots.append((d, outcome(lambda: reference_parse(handle))))
        except FileNotFoundError:
            gaps.append(d)
            continue
        if snapshots[-1][1][0] in (csv.Error, ValueError, UnicodeDecodeError):
            snapshots.pop()
            gaps.append(d)
    return snapshots, gaps


@pytest.mark.parametrize("block", [None, 1, 2, 3, 7], ids=["default", "1", "2", "3", "7"])
def test_load_series_matches_a_csv_reader_reference(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(rtingest, "_BLOCK", block)
    (tmp_path / "ix").mkdir()
    window = DateRange(BASE, day(len(ADVERSARIAL_DAYS)))  # the last day has no file
    for offset, content in enumerate(ADVERSARIAL_DAYS):
        (tmp_path / "ix" / f"{day(offset).isoformat()}.csv").write_bytes(content)
    series = load_series(tmp_path, "ix", window)
    snapshots, gaps = reference_series(tmp_path, "ix", window)
    assert [(s.date, outcome(lambda: s, series)) for s in series.snapshots] == snapshots
    assert list(series.gaps) == gaps
    assert len(gaps) < len(ADVERSARIAL_DAYS)


# The fuzzer's alphabet: good and bad cells, separators, quotes, each line
# end, NUL, a byte that is not UTF-8, a byte-order mark and a tab.
FUZZ_CELLS = [b"10.0.0.0/8", b"192.0.2.7/24", b"2001:DB8::/32", b"::ffff:192.0.2.7/120",
              b"FE80::1:ABCD/64", b"203.0.113.77/16"]
# Paths on both sides of the plain-line pattern: nine and ten digits, ASN_MAX
# and past it, and two spaces.
FUZZ_PATHS = [b"174 25133", b"25133", b"6939 174 25133", b"174 999999999", str(ASN_MAX).encode(), b"174  25133"]
FUZZ_PIECES = FUZZ_CELLS + FUZZ_PATHS + [b"x", b"174", b" ", b"{64512,64513}", str(ASN_MAX + 1).encode(),
                                         b",", b'"', b"\n", b"\r\n", b"\r", b"\x00", b"\xff", b"\t", b"\xef\xbb\xbf"]
FUZZ_HEADERS = [b"prefix,as_path", b"as_path,prefix", b"prefix,as_path,note", b'"prefix","as_path"', b"prefix,path"]
FUZZ_ENDS = [b"\n", b"\r\n", b"\r"]
FUZZ_BLOCKS = [1, 2, 3, 5, 7, 16, 64, 1 << 18]


def fuzz_days(rng):
    """One to four days of one IXP.  Their lines come from one pool, so a
    later day's memo holds lines of the days before it."""
    pool = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            line = rng.choice(FUZZ_CELLS) + b"," + rng.choice(FUZZ_PATHS)
        else:
            line = b"".join(rng.choices(FUZZ_PIECES, k=rng.randint(1, 6)))
        pool.append(line + rng.choice(FUZZ_ENDS))
    days = []
    for _ in range(rng.randint(1, 4)):
        content = (rng.choice([b"", b"\xef\xbb\xbf"]) + rng.choice(FUZZ_HEADERS) + rng.choice(FUZZ_ENDS)
                   + b"".join(rng.choices(pool, k=rng.randint(0, 8))))
        days.append(content.rstrip(b"\r\n") if rng.random() < 0.2 else content)
    return days


# A guard, not a bug hunt: 100,000 such cases found no mismatch.  A few
# thousand take about a second and cover every piece and block size.
FUZZ_CASES = 3_000


def test_load_series_matches_a_csv_reader_reference_under_fuzzing(tmp_path, monkeypatch):
    rng = random.Random("rtingest-fuzz")
    (tmp_path / "ix").mkdir()
    for case in range(FUZZ_CASES):
        days = fuzz_days(rng)
        monkeypatch.setattr(rtingest, "_BLOCK", rng.choice(FUZZ_BLOCKS))
        for offset, content in enumerate(days):
            path = tmp_path / "ix" / f"{day(offset).isoformat()}.csv"
            if rng.random() < 0.1:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(content)
        window = DateRange(BASE, day(len(days) - 1))
        series = load_series(tmp_path, "ix", window)
        snapshots, gaps = reference_series(tmp_path, "ix", window)
        got = [(s.date, outcome(lambda: s, series)) for s in series.snapshots], list(series.gaps)
        assert got == (snapshots, gaps), (case, rtingest._BLOCK, days)


def test_lone_cr_file_is_read_a_few_blocks_at_a_time(monkeypatch):
    # Files of 50-60 reads with lone-\r line ends: parsing each holds a few
    # reads plus its longest line, not the file (the rows repeat, so the
    # memo stays small).  csv needs about six times the longest line: its
    # bytes, its text, the cell, and 4 bytes a character while it reads it.
    shapes = {
        "lone-cr": (1 << 16, b"prefix,as_path\r" + (ROW + b"\r") * (50 * (1 << 16) // (len(ROW) + 1))),
        "lf-then-lone-cr": (1 << 16, lf_then_lone_cr(1 << 16, 50)),
        "long-lone-cr-line": (1 << 14, long_lone_cr_line(1 << 14, 5, 60)),
        "lone-cr-lines-a-read-long": (1 << 14, lone_cr_lines_a_read_long(1 << 14, 60)),
    }
    for name, (block, content) in shapes.items():
        monkeypatch.setattr(rtingest, "_BLOCK", block)
        longest = max(map(len, content.splitlines()))
        tracemalloc.start()
        try:
            snap = parse_snapshot(io.BytesIO(content), "ix", BASE, InternTable())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(snap.entries) == content.count(b"10.0.0.0/8"), name
        assert peak < 6 * block + 8 * longest, (name, peak / block, longest / block)


def test_parse_snapshot_matches_a_csv_reader_reference():
    shared = InternTable()
    for content in ADVERSARIAL_DAYS:
        text = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig", newline="")
        expected = outcome(lambda: reference_parse(text))
        assert outcome(lambda: parse_snapshot(io.BytesIO(content), "ix", BASE, intern=shared), shared) == expected
        fresh = InternTable()
        assert outcome(lambda: parse_snapshot(io.BytesIO(content), "ix", BASE, intern=fresh), fresh) == expected
