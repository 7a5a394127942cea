import datetime as dt
import hashlib
import logging
import os
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import ixpreach
from ixpreach import asndb, cli
from ixpreach.asndb import REGISTRIES, MergedRecords

# Hand-computed totals for the five fixture files: 4 + 6 + 4 + 2 + 3 raw
# records, AS 65000 appears in three registries, one arin row is malformed.
FIXTURE_RECORDS_PER_FILE = {"ripencc": 4, "arin": 6, "apnic": 4, "afrinic": 2, "lacnic": 3}
FIXTURE_TOTAL_RAW = 19
FIXTURE_TOTAL_MERGED = 17
FIXTURE_CONFLICTS = 2
FIXTURE_SKIPPED = 1

# `save` output for the five fixture files, byte for byte.
PINNED_FIXTURE_DB = """\
# asndb 1
# source afrinic sha256:f168ea402c0f429da5fbd0c6520e3d0360260e7c92b4110241a33acbae5ed837
# source apnic sha256:ce6e987db9d8c5965cce9c49a6e92efbb20fd49536620b7005a559a5d695cf4a
# source arin sha256:edb3362358ca2bd2ec5807e159d07d13df3bce249662686dcad17151866c12de
# source lacnic sha256:2a217d79cd0f56afa25bfd93a6561e8f5c043e98f4f4b7b1b0734f543140bc2b
# source ripencc sha256:4ca2163313fd5ca9c20f45f69e393132c1779c6aad38a9c59e5faaab48779216
# records 17 conflicts 2
100|US|arin|19950101
101|US|arin|19950101
102|US|arin|19950101
103|US|arin|19950101
104|US|arin|19950101
1221|AU|apnic|20000401
2497|JP|apnic|19930901
3741|ZA|afrinic|19940101
4134|CN|apnic|19970415
12389|RU|ripencc|19981230
12963|UA|ripencc|19990325
25133|UA|ripencc|20020701
26615|BR|lacnic|20030512
28573|BR|lacnic|20050110
33771|KE|afrinic|20050607
65000|AR|lacnic|20100101
199995|UA|ripencc|20130711
"""


# Files that touch every edge of the delegated-row parser: CRLF and
# whitespace-padded lines, a comment holding `|asn|`, short lines with and
# without `asn` (one of six fields), summary rows, all-zero and empty
# dates, one bad date in both files, and a range that ties with other
# registries' rows (arin and apnic beat ripencc on 20150101) and, within
# apnic, with another country.
EDGE_FILES = {
    "ripencc": (
        b"2|ripencc|20220219|9|19830705|20220218|+0100\r\n"
        b"ripencc|*|asn|*|7|summary\r\n"
        b"ripencc|*|ipv4|*|1|summary\r\n"
        b"# withdrawn: ripencc|UA|asn|64599|1|20020701|allocated\r\n"
        b"  ripencc|UA|asn|64500|4|20150101|allocated  \r\n"
        b"\tripencc|RU|asn|64600|1|00000000|assigned\r\n"
        b"ripencc|RU|asn|64601|1||assigned\r\n"
        b"ripencc|UA|asn|64602|1|20021301|allocated\r\n"
        b"ripencc|UA|asn|64603\r\n"
        b"ripencc|UA|ipv4|1.2.3.0|256|20100101\r\n"
        b"ripencc|NL|ipv4|2.56.0.0|1024|20180312|allocated\r\n"
        b"ripencc|UA|asn|64502|1|20150101|allocated\r\n"
    ),
    "arin": (
        b"arin|*|asn|*|5|summary\n"
        b"arin|US|asn|64501|1|20150101|assigned\n"
        b"arin|US|asn|64603|1|20021301|assigned\n"
        b"arin|US|asn|64600|1|19990101|assigned\n"
        b"apnic|JP|asn|64503|1|20150101|allocated\n"
        b"apnic|CN|asn|64503|1|20150101|allocated\n"
    ),
}
EDGE_SKIPPED = [
    ("ripencc", 8, "bad date '20021301'"),
    ("ripencc", 9, "expected at least 7 fields"),
    ("ripencc", 10, "expected at least 7 fields"),
    ("arin", 3, "bad date '20021301'"),
]
EDGE_STDOUT = "records=6 conflicts=5 skipped=4\n"
EDGE_TEXT_SHA256 = "1cac58840f8d7a4e8a08fccdc877aebc1fe0126b0b294f110b7c52a47cf8750d"
EDGE_INDEX_SHA256 = "3fee0048c132ac2849d50633cfc3a94e5c8ffd9cfbc92e22cb7c4a74504678ba"
EDGE_ROWS = [
    "64500|UA|ripencc|20150101",
    "64501|US|arin|20150101",
    "64502|UA|ripencc|20150101",
    "64503|CN|apnic|20150101",
    "64600|US|arin|19990101",
    "64601|RU|ripencc|",
]

DATES = asndb._DateMemo()


def delegation(country, registry, date_text=""):
    """The record tuple a delegated row of `date_text` gives its ASNs."""
    rank, date = DATES[date_text]
    return (rank, registry, country, date)


def build_text(directory, *texts):
    """`build_from_files` on `texts` written one file each, labelled with
    the registries in order."""
    items = []
    for registry, text in zip(REGISTRIES, texts):
        path = directory / f"{registry}.txt"
        path.write_text(text, encoding="utf-8")
        items.append((registry, path))
    return asndb.build_from_files(items)


def as_loaded(db):
    """The ASN -> country map that `load` returns for a saved MergedRecords `db`."""
    return {asn: country for asn, (_, _, country, _) in db.records.items()}


def save_and_load(db, path):
    asndb.save(db, path)
    return asndb.load(path)


def index_of(path):
    """Where `save` puts the country index of the database at `path`."""
    return Path(f"{path}.idx")


class TestDelegatedRows:
    # delegated-extended rows carry opaque ids after the status.
    # A real summary line has six fields, `summary` the last; an opaque id
    # that reads `summary` is still an id.
    @pytest.mark.parametrize("extra", ["", "|ae2f7b44-6cc5-4d52-8f1b-27d4c2a1b5e0", "|opaque|x", "|summary"],
                             ids=["7-fields", "8-fields", "9-fields", "extra-summary-field"])
    def test_single_asn_row(self, tmp_path, extra):
        db, skipped = build_text(tmp_path, f"ripencc|UA|asn|25133|1|20020701|allocated{extra}\n")
        assert db.records == {25133: delegation("UA", "ripencc", "20020701")}
        assert (db.conflicts, skipped) == (0, [])

    def test_range_row_gives_value_many_asns_one_delegation(self, tmp_path):
        db, _ = build_text(tmp_path, "arin|US|asn|100|5|19950101|assigned\n")
        assert sorted(db.records) == [100, 101, 102, 103, 104]
        assert len({id(rec) for rec in db.records.values()}) == 1
        assert db.records[104] == delegation("US", "arin", "19950101")

    @pytest.mark.parametrize("row", [
        "apnic|AU|ipv4|1.0.0.0|256|20110811|allocated",
    ], ids=["ipv4"])
    def test_non_asn_rows_are_skipped_silently(self, tmp_path, row):
        db, skipped = build_text(tmp_path, row + "\n")
        assert (db.records, skipped) == ({}, [])

    def test_version_summary_comment_and_blank_lines(self, tmp_path):
        text = (
            "2|ripencc|20220219|2|19830705|20220218|+0100\n"
            "ripencc|*|asn|*|1|summary\n"
            "# a comment\n"
            "\n"
            "ripencc|UA|asn|25133|1|20020701|allocated\n"
        )
        db, skipped = build_text(tmp_path, text)
        assert len(db) == 1
        assert skipped == []

    def test_reserved_and_available_rows_are_filtered(self, tmp_path):
        text = (
            "arin||asn|399260|2||reserved\n"
            "arin|US|asn|400000|1|20200101|available\n"
        )
        db, skipped = build_text(tmp_path, text)
        assert (db.records, skipped) == ({}, [])

    @pytest.mark.parametrize("row,reason_part", [
        ("arin|US|asn|notanumber|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|+100|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|1_000|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn| 2000|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|\uff13\uff10\uff10\uff10|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|\u0663\u0660\u0660|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|100|+2|20010101|assigned", "non-numeric"),
        ("arin|US|asn|100|0|20010101|assigned", "out of bounds"),
        ("arin|US|asn|4294967295|2|20010101|assigned", "out of bounds"),
        ("arin|usa|asn|100|1|20010101|assigned", "country"),
        ("arin|US|asn|100|1|2001-01-01|assigned", "date"),
        ("whois|US|asn|100|1|20010101|assigned", "registry"),
        ("too|few|fields", "7 fields"),
        ("arin|US|asn|100|1|2010011|assigned", "bad date '2010011'"),
        ("arin|US|asn|100|1|202211|assigned", "bad date '202211'"),
    ])
    def test_malformed_rows_recorded_with_line_number(self, tmp_path, row, reason_part):
        db, skipped = build_text(tmp_path, row + "\n")
        assert db.records == {}
        assert len(skipped) == 1
        registry, lineno, reason = skipped[0]
        assert (registry, lineno) == ("afrinic", 1)
        assert reason_part in reason

    def test_record_count_matches_sum_of_range_values(self, tmp_path):
        rng = random.Random(20220219)
        rows, expected = [], 0
        for i in range(50):
            value = rng.randint(1, 9)
            rows.append(f"apnic|AU|asn|{1000 + 10 * i}|{value}|20200101|allocated")
            expected += value
        db, _ = build_text(tmp_path, "\n".join(rows))
        assert (len(db), db.conflicts) == (expected, 0)

    def test_repeated_bad_date_is_skipped_on_every_row(self, tmp_path):
        text = (
            "ripencc|UA|asn|100|1|20021301|allocated\n"
            "ripencc|UA|asn|101|1|20020701|allocated\n"
            "ripencc|UA|asn|102|1|20021301|allocated\n"
            "ripencc|UA|asn|103|1|20020701|allocated\n"
        )
        db, skipped = build_text(tmp_path, text, text)
        assert sorted(db.records) == [101, 103]
        assert skipped == [(registry, lineno, "bad date '20021301'")
                           for registry in REGISTRIES[:2] for lineno in (1, 3)]
        assert all(date == "20020701" for _, _, _, date in db.records.values())

    def test_combined_file_takes_registry_from_each_row(self, tmp_path):
        text = (
            "ripencc|UA|asn|25133|1|20020701|allocated\n"
            "arin|US|asn|100|1|19950101|assigned\n"
        )
        db, _ = build_text(tmp_path, text)
        assert {asn: registry for asn, (_, registry, _, _) in db.records.items()} == {25133: "ripencc", 100: "arin"}

    def test_edge_cases_match_the_pinned_build(self, tmp_path, capsys):
        """The skip log, printed counts and saved bytes of EDGE_FILES,
        pinned byte for byte."""
        items = []
        for registry, data in EDGE_FILES.items():
            path = tmp_path / f"{registry}.txt"
            path.write_bytes(data)
            items.append((registry, path))
        assert asndb.build_from_files(items)[1] == EDGE_SKIPPED
        out = tmp_path / "asndb.txt"
        capsys.readouterr()
        assert cli.main(["build-asndb", *(arg for r, p in items for arg in ("--rir", f"{r}={p}")),
                         "--out", str(out)]) == 0
        assert capsys.readouterr() == (EDGE_STDOUT, "".join(
            f"warning: {registry}:{lineno}: {reason}\n" for registry, lineno, reason in EDGE_SKIPPED))
        assert out.read_text().splitlines()[-len(EDGE_ROWS):] == EDGE_ROWS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_TEXT_SHA256
        assert hashlib.sha256(index_of(out).read_bytes()).hexdigest() == EDGE_INDEX_SHA256


class TestDelegation:
    def test_fields_cannot_be_assigned(self):
        rec = delegation("UA", "ripencc", "20020701")
        with pytest.raises(TypeError):
            rec[2] = "RU"

    def test_date_text_is_the_saved_form(self):
        assert delegation("UA", "ripencc", "20020701")[3] == "20020701"
        assert delegation("UA", "ripencc", "00000000") == delegation("UA", "ripencc", "") == (0, "ripencc", "UA", "")

    def test_tuple_order_is_the_preference(self):
        ranked = [
            delegation("RU", "ripencc", "20100101"),
            delegation("UA", "apnic", "20010101"),
            delegation("RU", "ripencc", "20010101"),
            delegation("UA", "ripencc", "20010101"),
            delegation("AR", "afrinic", ""),
        ]
        assert sorted(reversed(ranked)) == ranked


class TestPick:
    def test_latest_allocation_date_wins(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|65000|1|20010101|allocated\n",
                           "ripencc|RU|asn|65000|1|20100101|allocated\n")
        assert db.records[65000] == delegation("RU", "ripencc", "20100101")
        assert db.conflicts == 1

    def test_missing_date_loses_to_any_date(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|65000|1||allocated\narin|RU|asn|65000|1|19950101|assigned\n")
        assert db.records[65000] == delegation("RU", "arin", "19950101")

    def test_date_tie_breaks_by_registry_ascending(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|65000|1|20100101|allocated\n",
                           "apnic|RU|asn|65000|1|20100101|allocated\n")
        assert db.records[65000] == delegation("RU", "apnic", "20100101")  # apnic < ripencc

    def test_date_and_registry_tie_breaks_by_country_ascending(self, tmp_path):
        db, _ = build_text(tmp_path, "apnic|JP|asn|65000|3|20100101|allocated\n",
                           "apnic|CN|asn|65001|1|20100101|allocated\n")
        assert [db.records[asn] for asn in (65000, 65001, 65002)] == [
            delegation(cc, "apnic", "20100101") for cc in ("JP", "CN", "JP")]
        assert db.conflicts == 1

    def test_single_file_has_zero_conflicts(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|10|5||allocated\n")
        assert len(db) == 5
        assert db.conflicts == 0

    def test_disjoint_files_union(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|1|3||allocated\n", "ripencc|RU|asn|4|4||allocated\n")
        assert len(db) == 7

    def test_rebuild_from_its_saved_rows_is_idempotent(self, tmp_path):
        once, _ = build_text(tmp_path, "ripencc|UA|asn|65000|1|20010101|allocated\n"
                                       "arin|RU|asn|65000|1|20100101|assigned\n"
                                       "ripencc|UA|asn|7|1||allocated\n")
        path = tmp_path / "asndb.txt"
        asndb.save(once, path)
        rows = [line.split("|") for line in path.read_text().splitlines() if not line.startswith("#")]
        again = tmp_path / "again"
        again.mkdir()
        twice, _ = build_text(again, "".join(f"{registry}|{cc}|asn|{asn}|1|{date}|allocated\n"
                                             for asn, cc, registry, date in rows))
        assert twice.records == once.records

    def test_result_independent_of_file_and_row_order(self, tmp_path):
        rng = random.Random(7)
        files = [
            [f"{REGISTRIES[rng.randrange(5)]}|{rng.choice(['UA', 'RU'])}|asn|{rng.randint(1, 40)}|"
             f"{rng.randint(1, 3)}|{2000 + rng.randint(0, 20)}0101|allocated" for _ in range(15)]
            for _ in range(4)
        ]
        names = list(REGISTRIES[:4])
        for i in range(11):
            directory = tmp_path / str(i)
            directory.mkdir()
            items = []
            for name, rows in zip(names, files):
                (directory / name).write_text("\n".join(rows))
                items.append((name, directory / name))
            db, _ = asndb.build_from_files(items)
            if i == 0:
                reference = db
                assert reference.conflicts > 0
            assert (db.records, db.conflicts) == (reference.records, reference.conflicts)
            for rows in files:
                rng.shuffle(rows)
            rng.shuffle(names)

    # A one-ASN row is folded by one lookup, not a range loop: it must keep
    # the same record and count the same conflict as a range row would.
    @pytest.mark.parametrize("single_date,range_date", [
        ("20150101", "20010101"), ("20010101", "20150101"), ("20100101", "20100101"),
    ], ids=["single-later", "range-later", "same-date"])
    @pytest.mark.parametrize("single_first", [True, False], ids=["single-file-first", "range-file-first"])
    def test_one_asn_row_folds_like_a_range_row(self, tmp_path, single_date, range_date, single_first):
        range_row = f"ripencc|UA|asn|65000|3|{range_date}|allocated\n"

        def build(directory, other_row):
            directory.mkdir()
            return build_text(directory, *((other_row, range_row) if single_first else (range_row, other_row)))

        db, skipped = build(tmp_path / "single", f"arin|US|asn|65000|1|{single_date}|assigned\n")
        # The same pair with the one-ASN row widened to a range that ends on
        # AS 65000, so only that ASN is shared.
        reference, _ = build(tmp_path / "ranges", f"arin|US|asn|64999|2|{single_date}|assigned\n")
        assert skipped == []
        assert db.records == {asn: rec for asn, rec in reference.records.items() if asn != 64999}
        assert db.conflicts == reference.conflicts == 1
        # arin sorts before ripencc, so it also wins the same-date tie.
        assert db.records[65000] == (delegation("US", "arin", single_date) if single_date >= range_date
                                     else delegation("UA", "ripencc", range_date))

    def test_lookup_never_invents_a_country(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|25133|1||allocated\n")
        assert db.records[25133] == delegation("UA", "ripencc")
        assert 12389 not in db.records


class TestFixtureFiles:
    def test_per_file_record_counts(self, delegated_dir):
        for registry, expected in FIXTURE_RECORDS_PER_FILE.items():
            db, _ = asndb.build_from_files([(registry, delegated_dir / f"{registry}.txt")])
            assert len(db) + db.conflicts == expected, registry

    def test_merged_totals_and_conflicts(self, delegated_dir):
        items = [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)]
        db, skipped = asndb.build_from_files(items)
        assert len(db) == FIXTURE_TOTAL_MERGED
        assert db.conflicts == FIXTURE_CONFLICTS
        assert len(skipped) == FIXTURE_SKIPPED
        assert FIXTURE_TOTAL_RAW - FIXTURE_CONFLICTS == FIXTURE_TOTAL_MERGED

    def test_duplicate_as65000_resolves_to_latest_date(self, delegated_dir):
        items = [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)]
        db, _ = asndb.build_from_files(items)
        # lacnic row, 2010, beats arin 2001 and apnic 1998
        assert db.records[65000] == delegation("AR", "lacnic", "20100101")
        assert db.records[25133] == delegation("UA", "ripencc", "20020701")
        assert db.records[12389] == delegation("RU", "ripencc", "19981230")


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        records = {25133: delegation("UA", "ripencc", "20020701"), 12389: delegation("RU", "ripencc")}
        db = MergedRecords(records=records, source_files=(("ripencc", "sha256:feed"),))
        path = tmp_path / "asndb.txt"
        assert save_and_load(db, path) == {25133: "UA", 12389: "RU"}
        # The provenance and conflict count stay in the saved header only.
        assert path.read_text().splitlines()[1:3] == ["# source ripencc sha256:feed", "# records 2 conflicts 0"]

    def test_round_trip_with_shared_and_missing_dates(self, tmp_path):
        db, _ = build_text(tmp_path, "ripencc|UA|asn|7|3|20020701|allocated\n"
                                     "ripencc|RU|asn|10|1||allocated\n"
                                     "arin|RU|asn|11|1||assigned\n"
                                     "arin|RU|asn|12|1|19991231|assigned\n")
        assert save_and_load(db, tmp_path / "asndb.txt") == as_loaded(db)

    def test_saved_fixture_database_is_pinned(self, tmp_path, delegated_dir):
        db, _ = asndb.build_from_files(
            [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)])
        path = tmp_path / "asndb.txt"
        asndb.save(db, path)
        assert path.read_bytes() == PINNED_FIXTURE_DB.encode("utf-8")

    def test_fixture_database_round_trips_exactly(self, tmp_path, delegated_dir):
        db, _ = asndb.build_from_files(
            [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)])
        assert save_and_load(db, tmp_path / "asndb.txt") == as_loaded(db)

    def test_loaded_countries_share_one_str_per_code(self, tmp_path, delegated_dir):
        db, _ = asndb.build_from_files(
            [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)])
        loaded = save_and_load(db, tmp_path / "asndb.txt")
        codes = set(loaded.values())
        assert len(codes) == 10
        assert len({id(cc) for cc in loaded.values()}) == len(codes)

    @pytest.mark.parametrize("row", [
        "25133|UA|ripencc",
        "25133|UA|ripencc|20020701|extra",
        "AS25133|UA|ripencc|20020701",
        "+25133|UA|ripencc|20020701",
        "25133|UA|ripencc|2002-07-01",
        "4294967296|UA|ripencc|",
        "25133|usa|ripencc|20020701",
        "25133|UA|ripencc|2010011",
    ], ids=["too-few-fields", "too-many-fields", "non-integer-asn", "signed-asn", "bad-date",
            "asn-above-max", "bad-country-code", "short-date"])
    def test_malformed_line_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "asndb.txt"
        path.write_text(f"# asndb 1\n# records 2 conflicts 0\n12389|RU|ripencc|\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: malformed asndb line")):
            asndb.load(path)

    def test_conflict_count_must_be_an_integer(self, tmp_path):
        path = tmp_path / "asndb.txt"
        path.write_text("# asndb 1\n# records 2 conflicts x\n12389|RU|ripencc|\n25133|UA|ripencc|20020701\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed asndb line")):
            asndb.load(path)

    @pytest.mark.parametrize("count", [1, 3])
    def test_record_count_must_match_header(self, tmp_path, count):
        path = tmp_path / "asndb.txt"
        path.write_text(f"# asndb 1\n# records {count} conflicts 0\n"
                        "12389|RU|ripencc|\n25133|UA|ripencc|20020701\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header says {count} records but 2")):
            asndb.load(path)

    @pytest.mark.parametrize("text", ["", "\n \n", "# asndb 1\n12389|RU|ripencc|\n25133|UA|ripencc|20020701\n"],
                             ids=["empty", "blank-lines", "records-only"])
    def test_file_without_header_is_rejected(self, tmp_path, text):
        path = tmp_path / "asndb.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: no '# records N conflicts M' header")):
            asndb.load(path)

    def test_persisted_bytes_independent_of_merge_order(self, tmp_path, delegated_dir):
        items = [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)]
        rng = random.Random(99)
        blobs = set()
        for i in range(10):
            shuffled = items[:]
            rng.shuffle(shuffled)
            db, _ = asndb.build_from_files(shuffled)
            path = tmp_path / f"db{i}.txt"
            asndb.save(db, path)
            blobs.add((path.read_bytes(), index_of(path).read_bytes()))
        assert len(blobs) == 1


def fixture_db(delegated_dir):
    db, _ = asndb.build_from_files(
        [(r, delegated_dir / f"{r}.txt") for r in sorted(FIXTURE_RECORDS_PER_FILE)])
    return db


def bench_sized_db(directory, seed=20220224, size=115_000):
    """About as many ASNs as the benchmark's databases, in delegated rows
    of under 200 codes, from every registry, partly above 2**31 and
    partly delegated twice."""
    rng = random.Random(seed)
    codes = [a + b for a in "ABCDEFGHIJ" for b in "ABCDEFGHIJKLMNOPQRST"]
    rows, asns, asn = [], [], 1
    while len(asns) < size:
        if len(asns) > size // 2 and asn < 2**31:
            asn = asndb.ASN_MAX - 2 * size
        count = rng.randint(1, 40)
        date = "" if rng.random() < 0.05 else dt.date(1990 + rng.randrange(33), 1 + rng.randrange(12),
                                                        1 + rng.randrange(28)).strftime("%Y%m%d")
        rows.append(f"{rng.choice(REGISTRIES)}|{rng.choice(codes)}|asn|{asn}|{count}|{date}|allocated")
        asns += range(asn, asn + count)
        asn += count + rng.randrange(50)
    rows += [f"{rng.choice(REGISTRIES)}|{rng.choice(codes)}|asn|{a}|1|20230101|assigned"
             for a in rng.sample(asns, 500)]
    db, skipped = build_text(directory, "\n".join(rows))
    assert (len(db), db.conflicts, skipped) == (len(asns), 500, [])
    return db


def spy_on_index(monkeypatch):
    """The maps the index reader returns from now on, one per load that used it."""
    maps = []
    read = asndb._read_index

    def spy(*args):
        maps.append(read(*args))
        return maps[-1]

    monkeypatch.setattr(asndb, "_read_index", spy)
    return maps


def load_without_index(path):
    index_of(path).unlink()
    return asndb.load(path)


def assert_same_db(got, want):
    assert got == want
    assert len({id(cc) for cc in got.values()}) == len(set(want.values()))


def read_index(path):
    """The header lines, ASN array and code positions of the index of `path`."""
    *header, body = index_of(path).read_bytes().split(b"\n", 4)
    count = int(header[2].split()[1])
    asns, positions = array("I", body[:4 * count]), array("H", body[4 * count:])
    if sys.byteorder == "big":
        asns.byteswap()
        positions.byteswap()
    return header, asns, positions


def write_index(path, header, asns, positions):
    if sys.byteorder == "big":
        asns.byteswap()
        positions.byteswap()
    index_of(path).write_bytes(b"\n".join(header) + b"\n" + asns.tobytes() + positions.tobytes())


def edit_text(path):
    path.write_text(path.read_text().replace("12389|RU|", "12389|UA|"))


def truncate_index(path):
    index_of(path).write_bytes(index_of(path).read_bytes()[:-1])


def replace_magic(path):
    """The index as the previous format version labels it."""
    header, asns, positions = read_index(path)
    write_index(path, [b"# asndb index 1: u32le asns, u16le code positions"] + header[1:], asns, positions)


def move_asn_to_another_code(path):
    """A well-formed edit of the arrays: 12389 (RU) takes 25133's code (UA)."""
    header, asns, positions = read_index(path)
    positions[asns.index(12389)] = positions[asns.index(25133)]
    write_index(path, header, asns, positions)


def position_past_table(path):
    header, asns, positions = read_index(path)
    positions[3] = len(header[3].split()) - 1
    write_index(path, header, asns, positions)


def digest_line_mislabelled(path):
    header, asns, positions = read_index(path)
    header[1] = header[1].replace(b"sha256 ", b"sha512 ")
    write_index(path, header, asns, positions)


def code_named_twice(path):
    header, asns, positions = read_index(path)
    header[3] += b" " + header[3].split()[1]
    write_index(path, header, asns, positions)


def count_off_by_one(path):
    header, asns, positions = read_index(path)
    header[2] = f"records {len(asns) + 1}".encode()
    write_index(path, header, asns, positions)


def duplicate_asn(path):
    header, asns, positions = read_index(path)
    asns[1] = asns[0]
    write_index(path, header, asns, positions)


class TestCountryIndex:
    def test_fixture_map_equals_the_text_parse(self, tmp_path, delegated_dir, monkeypatch, caplog):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        used = spy_on_index(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="ixpreach.asndb"):
            indexed = asndb.load(path)
            assert len(used) == 1
            assert_same_db(indexed, load_without_index(path))
            assert len(used) == 1
        assert caplog.records == []
        assert indexed[65000] == "AR"

    def test_bench_sized_map_equals_the_text_parse(self, tmp_path, monkeypatch):
        db = bench_sized_db(tmp_path)
        path = tmp_path / "asndb.txt"
        used = spy_on_index(monkeypatch)
        indexed = save_and_load(db, path)
        assert len(used) == 1
        assert max(indexed) > 2**31
        assert_same_db(indexed, load_without_index(path))
        assert indexed == as_loaded(db)

    @pytest.mark.parametrize("corrupt,reason", [
        (edit_text, "the text or the index changed after the index was written"),
        (move_asn_to_another_code, "the text or the index changed after the index was written"),
        (truncate_index, "101 bytes of arrays for 17 records"),
        (replace_magic, "not an asndb index"),
        (position_past_table, "a code position past the code table"),
        (count_off_by_one, "18 records, the text header says 17"),
        (duplicate_asn, "duplicate ASNs"),
        (digest_line_mislabelled, "no 'sha256' line"),
        (code_named_twice, "bad code table"),
    ], ids=["text-edited", "index-arrays-edited", "index-truncated", "wrong-magic", "position-past-table",
            "count-differs", "duplicate-asn", "no-digest-line", "bad-code-table"])
    def test_index_that_does_not_check_out_is_ignored_with_one_warning(self, tmp_path, delegated_dir,
                                                                          caplog, corrupt, reason):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        corrupt(path)
        with caplog.at_level(logging.WARNING, logger="ixpreach.asndb"):
            loaded = asndb.load(path)
            assert [r.getMessage() for r in caplog.records] == [
                f"{index_of(path)}: not used ({reason}); reading {path} line by line"]
            caplog.clear()
            assert_same_db(loaded, load_without_index(path))
        assert caplog.records == []

    @pytest.mark.parametrize("with_index", [False, True], ids=["no-index", "original-index"])
    def test_byte_order_mark_reads_the_same_map(self, tmp_path, delegated_dir, caplog, with_index):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        if with_index:  # the mark is hashed too, so the copied index no longer checks out
            index_of(bom).write_bytes(index_of(path).read_bytes())
        with caplog.at_level(logging.WARNING, logger="ixpreach.asndb"):
            loaded = asndb.load(bom)
        reason = "the text or the index changed after the index was written"
        assert [r.getMessage() for r in caplog.records] == (
            [f"{index_of(bom)}: not used ({reason}); reading {bom} line by line"] if with_index else [])
        assert_same_db(loaded, asndb.load(path))

    def test_edited_text_wins_over_its_stale_index(self, tmp_path, delegated_dir):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        edit_text(path)
        assert asndb.load(path)[12389] == "UA"

    def test_malformed_line_beside_a_stale_index_names_file_and_line(self, tmp_path, delegated_dir):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        lines = path.read_text().splitlines()
        lineno = lines.index("1221|AU|apnic|20000401") + 1
        lines[lineno - 1] = "1221|AU|apnic|2000-04-01"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: malformed asndb line")):
            asndb.load(path)

    def test_dates_are_saved_as_yyyymmdd_and_read_back(self, tmp_path):
        db, skipped = build_text(tmp_path, "ripencc|UA|asn|7|1|00010101|allocated\n"
                                           "ripencc|RU|asn|8|1|09991231|allocated\n"
                                           "ripencc|RU|asn|9|1|2010011|allocated\n")
        assert skipped == [("afrinic", 3, "bad date '2010011'")]
        path = tmp_path / "asndb.txt"
        asndb.save(db, path)
        assert path.read_text().splitlines()[-2:] == ["7|UA|ripencc|00010101", "8|RU|ripencc|09991231"]
        assert load_without_index(path) == as_loaded(db)

    def test_index_bytes_independent_of_hash_seed(self, tmp_path, delegated_dir):
        src = Path(ixpreach.__file__).resolve().parent.parent
        rir = [arg for r in sorted(FIXTURE_RECORDS_PER_FILE) for arg in ("--rir", f"{r}={delegated_dir / f'{r}.txt'}")]
        blobs = set()
        for seed in ("1", "2", "3"):
            out = tmp_path / f"asndb-{seed}.txt"
            subprocess.run([sys.executable, "-m", "ixpreach.cli", "build-asndb", *rir, "--out", str(out)],
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src)),
                           check=True, capture_output=True)
            blobs.add((out.read_bytes(), index_of(out).read_bytes()))
        assert len(blobs) == 1


def date_outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def exact_date(text):
    return dt.date(int(text[:4]), int(text[4:6]), int(text[6:]))


def test_parse_date_reads_exactly_yyyymmdd():
    texts = [f"{year:04d}{mmdd:04d}" for year in (1999, 2000, 2001) for mmdd in range(10_000)]
    texts += [f"{year}{month:02d}{d:02d}" for year in ("0000", "0001", "1900", "2024", "2100", "9999")
              for month in range(14) for d in range(33)]
    texts += ["00000101", "20100230", "20101301", "20100000"]
    assert sum(isinstance(date_outcome(exact_date, t), dt.date) for t in texts) > 1000
    for text in texts:
        if text != "00000000":
            assert date_outcome(asndb._parse_date, text) == date_outcome(exact_date, text), text
    # `strptime` would guess 2010-01-01, 2010-10-01 and 2022-01-01 for the first three.
    for text in ["2010011", "2010101", "202211", "201001011", "0", "2010-1-1", "2010-01-01",
                 " 20100101", "20100101 ", "+2010101", "-2010101", "2010_101", "٢٠١٠٠١٠١",
                 "１２３４０１０１", "२०१००१०१"]:
        assert date_outcome(asndb._parse_date, text) is ValueError, text
    assert asndb._parse_date("00000000") is None
    assert asndb._parse_date("") is None
