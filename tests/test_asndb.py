import datetime as dt
import io
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
from ixpreach import asndb
from ixpreach.asndb import AsnRecord, REGISTRIES

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


def parse_text(text):
    return asndb.parse_delegated(io.StringIO(text))


def as_loaded(db):
    """The AsnDb that `load` returns for a saved MergedRecords `db`."""
    countries = {asn: rec.country for asn, rec in db.records.items()}
    return asndb.AsnDb(countries=countries, source_files=db.source_files, conflicts=db.conflicts)


def save_and_load(db, path):
    asndb.save(db, path)
    return asndb.load(path)


def index_of(path):
    """Where `save` puts the country index of the database at `path`."""
    return Path(f"{path}.idx")


class TestParseDelegated:
    def test_single_asn_row(self):
        records, skipped = parse_text("ripencc|UA|asn|25133|1|20020701|allocated\n")
        assert records == [AsnRecord(25133, "UA", "ripencc", dt.date(2002, 7, 1))]
        assert skipped == []

    def test_range_row_expands_to_value_many_records(self):
        records, _ = parse_text("arin|US|asn|100|5|19950101|assigned\n")
        assert [r.asn for r in records] == [100, 101, 102, 103, 104]
        assert all(r.country == "US" for r in records)

    def test_non_asn_rows_are_skipped_silently(self):
        assert parse_text("apnic|AU|ipv4|1.0.0.0|256|20110811|allocated\n") == ([], [])

    def test_version_summary_comment_and_blank_lines(self):
        text = (
            "2|ripencc|20220219|2|19830705|20220218|+0100\n"
            "ripencc|*|asn|*|1|summary\n"
            "# a comment\n"
            "\n"
            "ripencc|UA|asn|25133|1|20020701|allocated\n"
        )
        records, skipped = parse_text(text)
        assert len(records) == 1
        assert skipped == []

    def test_reserved_and_available_rows_are_filtered(self):
        text = (
            "arin||asn|399260|2||reserved\n"
            "arin|US|asn|400000|1|20200101|available\n"
        )
        assert parse_text(text) == ([], [])

    @pytest.mark.parametrize("row,reason_part", [
        ("arin|US|asn|notanumber|1|20010101|assigned", "non-numeric"),
        ("arin|US|asn|100|0|20010101|assigned", "out of bounds"),
        ("arin|US|asn|4294967295|2|20010101|assigned", "out of bounds"),
        ("arin|usa|asn|100|1|20010101|assigned", "country"),
        ("arin|US|asn|100|1|2001-01-01|assigned", "date"),
        ("whois|US|asn|100|1|20010101|assigned", "registry"),
        ("too|few|fields", "7 fields"),
    ])
    def test_malformed_rows_recorded_with_line_number(self, row, reason_part):
        records, skipped = parse_text(row + "\n")
        assert records == []
        assert len(skipped) == 1
        lineno, reason = skipped[0]
        assert lineno == 1
        assert reason_part in reason

    def test_record_count_matches_sum_of_range_values(self):
        rng = random.Random(20220219)
        rows, expected = [], 0
        for i in range(50):
            value = rng.randint(1, 9)
            rows.append(f"apnic|AU|asn|{1000 + 10 * i}|{value}|20200101|allocated")
            expected += value
        records, _ = parse_text("\n".join(rows))
        assert len(records) == expected

    def test_repeated_bad_date_is_skipped_on_every_row(self):
        text = (
            "ripencc|UA|asn|100|1|20021301|allocated\n"
            "ripencc|UA|asn|101|1|20020701|allocated\n"
            "ripencc|UA|asn|102|1|20021301|allocated\n"
            "ripencc|UA|asn|103|1|20020701|allocated\n"
        )
        records, skipped = parse_text(text)
        assert [r.asn for r in records] == [101, 103]
        assert skipped == [(1, "bad date '20021301'"), (3, "bad date '20021301'")]
        assert all(r.date == dt.date(2002, 7, 1) for r in records)

    def test_combined_file_takes_registry_from_each_row(self):
        text = (
            "ripencc|UA|asn|25133|1|20020701|allocated\n"
            "arin|US|asn|100|1|19950101|assigned\n"
        )
        records, _ = parse_text(text)
        assert [r.registry for r in records] == ["ripencc", "arin"]


class TestAsnRecord:
    def test_fields_cannot_be_assigned(self):
        rec = AsnRecord(25133, "UA", "ripencc")
        with pytest.raises(AttributeError):
            rec.country = "RU"

    def test_hashable_and_equal_by_value(self):
        a = AsnRecord(25133, "UA", "ripencc", dt.date(2002, 7, 1))
        b = AsnRecord(25133, "UA", "ripencc", dt.date(2002, 7, 1))
        assert hash(a) == hash(b)
        assert len({a, b, AsnRecord(25133, "UA", "ripencc")}) == 2

    def test_defaults(self):
        assert AsnRecord(1, "UA", "ripencc") == AsnRecord(1, "UA", "ripencc", None)


class TestMerge:
    def test_latest_allocation_date_wins(self):
        a = AsnRecord(65000, "UA", "ripencc", dt.date(2001, 1, 1))
        b = AsnRecord(65000, "RU", "ripencc", dt.date(2010, 1, 1))
        db = asndb.merge([[a], [b]])
        assert db.records[65000].country == "RU"
        assert db.conflicts == 1

    def test_missing_date_loses_to_any_date(self):
        a = AsnRecord(65000, "UA", "ripencc", None)
        b = AsnRecord(65000, "RU", "arin", dt.date(1995, 1, 1))
        assert asndb.merge([[a, b]]).records[65000].country == "RU"

    def test_date_tie_breaks_by_registry_ascending(self):
        same_day = dt.date(2010, 1, 1)
        a = AsnRecord(65000, "UA", "ripencc", same_day)
        b = AsnRecord(65000, "RU", "apnic", same_day)
        assert asndb.merge([[a], [b]]).records[65000].country == "RU"  # apnic < ripencc

    def test_single_input_is_identity_with_zero_conflicts(self):
        records = [AsnRecord(10 + i, "UA", "ripencc") for i in range(5)]
        db = asndb.merge([records])
        assert len(db) == 5
        assert db.conflicts == 0

    def test_disjoint_inputs_union(self):
        left = [AsnRecord(i, "UA", "ripencc") for i in (1, 2, 3)]
        right = [AsnRecord(i, "RU", "ripencc") for i in (4, 5, 6, 7)]
        assert len(asndb.merge([left, right])) == 7

    def test_merge_is_idempotent(self):
        records = [
            AsnRecord(65000, "UA", "ripencc", dt.date(2001, 1, 1)),
            AsnRecord(65000, "RU", "arin", dt.date(2010, 1, 1)),
            AsnRecord(7, "UA", "ripencc"),
        ]
        once = asndb.merge([records])
        twice = asndb.merge([once.records.values()])
        assert twice.records == once.records

    def test_merge_is_order_independent(self):
        rng = random.Random(7)
        lists = []
        for i in range(4):
            lists.append([
                AsnRecord(rng.randint(1, 40), "UA" if rng.random() < 0.5 else "RU",
                          REGISTRIES[rng.randrange(5)],
                          dt.date(2000 + rng.randint(0, 20), 1, 1))
                for _ in range(15)
            ])
        reference = asndb.merge(lists)
        for _ in range(10):
            shuffled = lists[:]
            rng.shuffle(shuffled)
            assert asndb.merge(shuffled) == reference

    def test_lookup_never_invents_a_country(self):
        db = asndb.merge([[AsnRecord(25133, "UA", "ripencc")]])
        assert db.records[25133].country == "UA"
        assert 12389 not in db.records


class TestFixtureFiles:
    def test_per_file_record_counts(self, delegated_dir):
        for registry, expected in FIXTURE_RECORDS_PER_FILE.items():
            with open(delegated_dir / f"{registry}.txt") as handle:
                records, _ = asndb.parse_delegated(handle)
            assert len(records) == expected, registry

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
        assert db.records[65000].country == "AR"  # lacnic row, 2010, beats arin 2001 and apnic 1998
        assert db.records[25133].country == "UA"
        assert db.records[12389].country == "RU"


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        records = [
            AsnRecord(25133, "UA", "ripencc", dt.date(2002, 7, 1)),
            AsnRecord(12389, "RU", "ripencc", None),
        ]
        db = asndb.merge([records], sources=[("ripencc", "sha256:feed")])
        loaded = save_and_load(db, tmp_path / "asndb.txt")
        assert loaded.countries == {25133: "UA", 12389: "RU"}
        assert loaded.source_files == (("ripencc", "sha256:feed"),)
        assert loaded.conflicts == db.conflicts

    def test_round_trip_with_shared_and_missing_dates(self, tmp_path):
        shared = dt.date(2002, 7, 1)
        records = [AsnRecord(asn, "UA", "ripencc", shared) for asn in (7, 8, 9)]
        records += [AsnRecord(10, "RU", "ripencc", None),
                    AsnRecord(11, "RU", "arin", None),
                    AsnRecord(12, "RU", "arin", dt.date(1999, 12, 31))]
        db = asndb.merge([records])
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
        codes = set(loaded.countries.values())
        assert len(codes) == 10
        assert len({id(cc) for cc in loaded.countries.values()}) == len(codes)

    @pytest.mark.parametrize("row", [
        "25133|UA|ripencc",
        "25133|UA|ripencc|20020701|extra",
        "AS25133|UA|ripencc|20020701",
        "25133|UA|ripencc|2002-07-01",
    ], ids=["too-few-fields", "too-many-fields", "non-integer-asn", "bad-date"])
    def test_malformed_line_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "asndb.txt"
        path.write_text(f"# asndb 1\n# records 2 conflicts 0\n12389|RU|ripencc|\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4:")):
            asndb.load(path)

    @pytest.mark.parametrize("count", [1, 3])
    def test_record_count_must_match_header(self, tmp_path, count):
        path = tmp_path / "asndb.txt"
        path.write_text(f"# asndb 1\n# records {count} conflicts 0\n"
                        "12389|RU|ripencc|\n25133|UA|ripencc|20020701\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header says {count} records but 2")):
            asndb.load(path)

    @pytest.mark.parametrize("text", ["", "# asndb 1\n12389|RU|ripencc|\n25133|UA|ripencc|20020701\n"],
                             ids=["empty", "records-only"])
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


def bench_sized_db(seed=20220224, size=115_000):
    """About as many ASNs as the benchmark's databases, in ranges under 200
    codes, from every registry, partly above 2**31 and partly dated twice."""
    rng = random.Random(seed)
    codes = [a + b for a in "ABCDEFGHIJ" for b in "ABCDEFGHIJKLMNOPQRST"]
    records, asn = [], 1
    while len(records) < size:
        if len(records) > size // 2 and asn < 2**31:
            asn = asndb.ASN_MAX - 2 * size
        count = rng.randint(1, 40)
        cc, registry = rng.choice(codes), rng.choice(REGISTRIES)
        date = None if rng.random() < 0.05 else dt.date(1990 + rng.randrange(33), 1 + rng.randrange(12),
                                                      1 + rng.randrange(28))
        records += [AsnRecord(a, cc, registry, date) for a in range(asn, asn + count)]
        asn += count + rng.randrange(50)
    redelegated = [rec._replace(country=rng.choice(codes), date=dt.date(2023, 1, 1))
                   for rec in rng.sample(records, 500)]
    return asndb.merge([records, redelegated], sources=[("ripencc", "sha256:" + "ab" * 32)])


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
    assert len({id(cc) for cc in got.countries.values()}) == len(set(want.countries.values()))


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
        assert indexed.countries[65000] == "AR"

    def test_bench_sized_map_equals_the_text_parse(self, tmp_path, monkeypatch):
        db = bench_sized_db()
        path = tmp_path / "asndb.txt"
        used = spy_on_index(monkeypatch)
        indexed = save_and_load(db, path)
        assert len(used) == 1
        assert max(indexed.countries) > 2**31
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
    ], ids=["text-edited", "index-arrays-edited", "index-truncated", "wrong-magic", "position-past-table",
            "count-differs", "duplicate-asn"])
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

    def test_edited_text_wins_over_its_stale_index(self, tmp_path, delegated_dir):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        edit_text(path)
        assert asndb.load(path).countries[12389] == "UA"

    def test_malformed_line_beside_a_stale_index_names_file_and_line(self, tmp_path, delegated_dir):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        lines = path.read_text().splitlines()
        lineno = lines.index("1221|AU|apnic|20000401") + 1
        lines[lineno - 1] = "1221|AU|apnic|2000-04-01"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: malformed asndb line")):
            asndb.load(path)

    @pytest.mark.parametrize("record", [
        AsnRecord(7, "ZZZ", "ripencc"),
        AsnRecord(7, "UA", "whois"),
        AsnRecord(asndb.ASN_MAX + 1, "UA", "ripencc"),
    ], ids=["three-letter-code", "unknown-registry", "asn-past-32-bits"])
    def test_records_outside_the_index_types_leave_no_index(self, tmp_path, delegated_dir, caplog, record):
        path = tmp_path / "asndb.txt"
        asndb.save(fixture_db(delegated_dir), path)
        assert index_of(path).exists()
        db = asndb.merge([[record, AsnRecord(25133, "UA", "ripencc")]])
        with caplog.at_level(logging.WARNING, logger="ixpreach.asndb"):
            assert save_and_load(db, path) == as_loaded(db)
        assert not index_of(path).exists()
        assert caplog.records == []

    def test_dates_before_year_1000_read_back(self, tmp_path):
        records = [AsnRecord(7, "UA", "ripencc", dt.date(1, 1, 1)),
                   AsnRecord(8, "RU", "ripencc", dt.date(999, 12, 31))]
        db = asndb.merge([records])
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
    except ValueError as exc:
        return ValueError, str(exc)


def strptime_date(text):
    return dt.datetime.strptime(text, "%Y%m%d").date()


def test_parse_date_matches_strptime():
    texts = [f"{year:04d}{mmdd:04d}" for year in (1999, 2000, 2001) for mmdd in range(10_000)]
    texts += [f"{year}{month:02d}{d:02d}" for year in ("0000", "0001", "1900", "2024", "2100", "9999")
              for month in range(14) for d in range(33)]
    texts += ["00000101", "20100230", "20101301", "2010011", "٢٠١٠٠١٠١", "2010-1-1", "201001011",
              " 20100101", "20100101 ", "+2010101", "2010_101", "１２３４０１０１", "20100000", "0"]
    assert sum(isinstance(date_outcome(strptime_date, t), dt.date) for t in texts) > 1000
    for text in texts:
        if text != "00000000":
            assert date_outcome(asndb._parse_date, text) == date_outcome(strptime_date, text), text
    assert asndb._parse_date("00000000") is None
    assert asndb._parse_date("") is None
