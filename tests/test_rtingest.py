import csv
import io
import ipaddress
import logging

import pytest

from ixpreach import pipeline, rtingest
from ixpreach.rtingest import (
    DateRange,
    InternTable,
    RouteEntry,
    SnapshotSchema,
    load_series,
    parse_snapshot,
)

from conftest import BASE, country_series, day, make_db, make_series

# Ten data rows exercising every defect class; the oracle below classifies
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


def oracle_rows(text):
    """Row-by-row expectation, built only from the stated defect rules."""
    import ipaddress
    good, bad = [], 0
    for line in text.splitlines()[1:]:
        prefix, _, path_cell = line.partition(",")
        tokens = path_cell.split()
        ok = bool(tokens) and all(t.isdigit() for t in tokens)
        if ok:
            try:
                ipaddress.ip_network(prefix, strict=False)
            except ValueError:
                ok = False
        if ok:
            good.append((prefix, [int(t) for t in tokens]))
        else:
            bad += 1
    return good, bad


def parse_text(text, schema=rtingest.DEFAULT_SCHEMA):
    return parse_snapshot(io.StringIO(text), "testix", BASE, schema)


class TestRouteEntry:
    def test_origin_is_last_neighbor_is_first(self):
        entry = RouteEntry("192.0.2.0/24", (174, 3216, 25133))
        assert entry.origin == 25133
        assert entry.neighbor == 174

    def test_single_element_path_has_equal_endpoints(self):
        entry = RouteEntry("192.0.2.0/24", (12389,))
        assert entry.origin == entry.neighbor == 12389

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            RouteEntry("192.0.2.0/24", ())


class TestParseSnapshot:
    def test_first_and_last_elements(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,174 3216 25133\n")
        assert len(snap.entries) == 1
        assert snap.entries[0].origin == 25133
        assert snap.entries[0].neighbor == 174

    def test_prepending_does_not_change_endpoints(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,6939 6939 6939 12389\n")
        assert snap.entries[0].origin == 12389
        assert snap.entries[0].neighbor == 6939

    def test_as_set_row_is_skipped_and_counted(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,3356 {64512,64513}\n")
        assert snap.entries == ()
        assert snap.skipped == 1

    def test_ten_row_fixture_against_oracle(self):
        expected_good, expected_bad = oracle_rows(TEN_ROW_FIXTURE)
        snap = parse_text(TEN_ROW_FIXTURE)
        assert len(snap.entries) == len(expected_good) == 6
        assert snap.skipped == expected_bad == 4
        for entry, (_, path) in zip(snap.entries, expected_good):
            assert list(entry.as_path) == path

    def test_duplicate_rows_are_retained(self):
        snap = parse_text(
            "prefix,as_path\n192.0.2.0/24,174 25133\n192.0.2.0/24,174 25133\n"
        )
        assert len(snap.entries) == 2

    def test_entries_plus_skipped_equals_data_rows(self):
        snap = parse_text(TEN_ROW_FIXTURE)
        assert len(snap.entries) + snap.skipped == 10

    def test_prefixes_are_normalized(self):
        snap = parse_text("prefix,as_path\n2001:DB8::/32,174 25133\n192.0.2.7/24,174 25133\n")
        assert snap.entries[0].prefix == "2001:db8::/32"
        assert snap.entries[1].prefix == "192.0.2.0/24"

    def test_oversized_asn_token_is_a_defect(self):
        snap = parse_text("prefix,as_path\n192.0.2.0/24,174 99999999999\n")
        assert snap.skipped == 1

    def test_missing_mapped_column_is_a_hard_error(self):
        with pytest.raises(ValueError, match="as_path"):
            parse_text("prefix,path\n192.0.2.0/24,174 25133\n")

    def test_schema_remaps_columns(self):
        schema = SnapshotSchema(prefix="pfx", as_path="aspath")
        snap = parse_text("nexthop,pfx,aspath\n10.0.0.1,192.0.2.0/24,174 25133\n", schema)
        assert snap.entries[0].origin == 25133

    def test_precomputed_origin_column_must_agree(self):
        schema = SnapshotSchema(origin="origin")
        text = "prefix,as_path,origin\n192.0.2.0/24,174 25133,25133\n198.51.100.0/24,174 25133,99\n"
        snap = parse_text(text, schema)
        assert len(snap.entries) == 1
        assert snap.skipped == 1

    @pytest.mark.parametrize("column", ["origin", "neighbor"])
    def test_row_short_of_a_mapped_column_is_skipped(self, column):
        schema = SnapshotSchema(**{column: column})
        good = "25133" if column == "origin" else "174"
        text = f"prefix,as_path,{column}\n192.0.2.0/24,174 25133\n198.51.100.0/24,174 25133,{good}\n"
        snap = parse_text(text, schema)
        assert [e.prefix for e in snap.entries] == ["198.51.100.0/24"]
        assert snap.skipped == 1

    def test_parse_is_deterministic(self):
        a = parse_text(TEN_ROW_FIXTURE)
        b = parse_text(TEN_ROW_FIXTURE)
        assert a == b

    def test_shared_intern_table_parses_like_a_fresh_one(self):
        intern = InternTable()
        other_day = "prefix,as_path\n192.0.2.7/24,174 3216 25133\n10.0.0.0/8,\n2001:DB8::/32,6939 25133\n"
        parse_snapshot(io.StringIO(other_day), "testix", day(-1), intern=intern)
        for text in (TEN_ROW_FIXTURE, other_day):
            shared = parse_snapshot(io.StringIO(text), "testix", BASE, intern=intern)
            assert shared == parse_text(text)
        assert intern.paths["174 3216 25133"] == (174, 3216, 25133)
        assert intern.prefixes["192.0.2.7/24"] == "192.0.2.0/24"
        assert intern.prefixes["not-a-prefix"] is None
        assert intern.paths[""] is None

    def test_schema_file_round_trip(self, tmp_path):
        path = tmp_path / "schema.cfg"
        path.write_text("# looking-glass export\nprefix = Prefix\nas_path = AS_Path\n")
        schema = SnapshotSchema.from_file(path)
        assert schema == SnapshotSchema(prefix="Prefix", as_path="AS_Path")

    def test_schema_file_rejects_unknown_field(self, tmp_path):
        path = tmp_path / "schema.cfg"
        path.write_text("med = MED\n")
        with pytest.raises(ValueError, match="med"):
            SnapshotSchema.from_file(path)


def write_snapshot_file(root, ixp, d, rows):
    ixp_dir = root / ixp
    ixp_dir.mkdir(parents=True, exist_ok=True)
    lines = ["prefix,as_path"] + [f"{p},{' '.join(map(str, path))}" for p, path in rows]
    (ixp_dir / f"{d.isoformat()}.csv").write_text("\n".join(lines) + "\n")


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
        assert series.dates() == (day(0),)

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
        assert series.dates() == (day(0), day(2))
        assert series.gaps == (day(1),)
        assert len(caplog.records) == 1
        assert str(bad) in caplog.text and reason in caplog.text
        with open(bad, newline="", encoding="utf-8") as handle:
            with pytest.raises((ValueError, csv.Error), match=reason):
                parse_snapshot(handle, "amsix", day(1))

    def test_quarantined_baseline_still_fails_the_run(self, tmp_path):
        for offset in range(3):
            write_snapshot_file(tmp_path, "amsix", day(offset), [("192.0.2.0/24", [174, 25133])])
        (tmp_path / "amsix" / f"{BASE.isoformat()}.csv").write_bytes(b"")
        config = pipeline.RunConfig(asndb_path=tmp_path / "unused", snapshot_root=tmp_path,
                                    output_dir=tmp_path / "out", ixps=("amsix",), countries=("UA",),
                                    baseline_date=BASE, final_date=day(2))
        with pytest.raises(ValueError, match="baseline date 2022-02-19 has no snapshot for IXP 'amsix'"):
            pipeline.run_analysis(config, db=make_db({25133: "UA"}))

    def test_repeated_cells_are_parsed_once_past_the_old_cache_bound(self, tmp_path, monkeypatch):
        n = (1 << 16) + 4_000
        prefixes = [f"{10 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}.0/24" for i in range(n)]
        write_snapshot_file(tmp_path, "amsix", day(0), [(p, [174, 25133 + i % 7]) for i, p in enumerate(prefixes)])
        # Day 2 repeats every prefix cell, half of them behind a new path.
        write_snapshot_file(tmp_path, "amsix", day(1), [(p, [174, 25133 + i % 7 + i % 2 * 10])
                                                        for i, p in enumerate(prefixes)])
        calls = [0]
        real = ipaddress.ip_network

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(ipaddress, "ip_network", counted)
        series = load_series(tmp_path, "amsix", DateRange(BASE, day(1)))
        assert calls[0] == n
        first, second = series.snapshots
        assert len(first.entries) == len(second.entries) == n
        assert all(a.prefix is b.prefix for a, b in zip(first.entries, second.entries))
        assert all((a is b) == (i % 2 == 0) for i, (a, b) in enumerate(zip(first.entries, second.entries)))


class TestAttributeCountry:
    def test_known_and_unknown_origins(self):
        db = make_db({25133: "UA", 31133: "RU"})
        series = make_series({BASE: [
            ("192.0.2.0/24", [174, 25133]),
            ("198.51.100.0/24", [174, 31133]),
            ("203.0.113.0/24", [174, 2914]),
        ]})
        assert country_series(series, db, "UA")[1] == {BASE: {25133}}
        assert country_series(series, db, "RU")[1] == {BASE: {31133}}
        assert country_series(series, db, "US")[1] == {BASE: set()}
