"""ASN-to-country database built from RIR delegated statistics files.

The five RIRs publish pipe-separated "delegated" (or "delegated-extended")
files listing number-resource allocations:

    registry|cc|type|start|value|date|status[|opaque-id...]

For rows of type ``asn`` the start field is the first AS number and the
value field the count of consecutive ASNs covered, both plain ASCII
digits.  The module has two sides:

* building (`build_from_files` -> `save`, the `build-asndb` path) reads
  each file once, a line at a time, and folds each ASN row straight into
  one ASN -> record map.  A record is a plain `(rank, registry, country,
  date)` tuple (see `MergedRecords`): every ASN of a row shares the
  row's one tuple, and of two rows that cover an ASN the later date
  wins.  `save` writes the result as a sorted pipe-separated text file;
* looking up (`load`, what `analyze` reads) turns that file into the
  ASN -> country map, with one shared `str` per distinct code.  Registry,
  date and the `# source` provenance live only in the saved file: `load`
  checks that the date parses and keeps none of them.

`save` also writes a binary country index beside the text (`<path>.idx`):
a sha256 of the text and of the rest of the index, the record count, the
code table, every ASN and its code's position in the table.  `load` reads
the map from it when that digest holds for both files byte for byte, and
otherwise parses the text a line at a time.  Deleting the index only
makes `load` slower.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import string
import sys
from array import array
from pathlib import Path
from typing import Iterable, NamedTuple

REGISTRIES = ("afrinic", "apnic", "arin", "lacnic", "ripencc")

# Statuses that describe an actual holder; availability/reserved rows are
# registry bookkeeping and never enter the database.
_KEPT_STATUSES = frozenset({"allocated", "assigned"})

ASN_MAX = 2**32 - 1

# Every country code as the delegated files write it: two capital letters.
COUNTRY_CODES = frozenset(a + b for a in string.ascii_uppercase for b in string.ascii_uppercase)

# The country index `save` writes beside the text: this line, then
# `sha256 <hex>`, `records <n>` and `codes <cc> <cc> ...` lines, then the
# ASNs as array("I") and each ASN's code position as array("H"), both
# little-endian and in the text's order.  The sha256 is of the text's
# bytes followed by every index byte after the sha256 line.
_INDEX_SUFFIX = ".idx"
_INDEX_MAGIC = b"# asndb index 2: u32le asns, u16le code positions\n"
_INDEX_LINE_MAX = 4096


class MergedRecords(NamedTuple):
    """The built database: the kept record of each ASN (the ASNs of a row
    share one), the provenance and the number of duplicate ASN records
    the build resolved.

    A record is the plain tuple `(rank, registry, country, date)` that
    one delegated row gives every ASN of its range.  Its fields run in
    the order of preference, so of two records of one ASN the smaller
    tuple is kept: the latest date first (`rank` is minus the date's
    ordinal, and 0 for a row without a date, which sorts oldest), then
    the registry, then the country.  `date` is the `YYYYMMDD` text of the
    rank's date, "" for none, so it never breaks a tie.  `save` writes
    the country, registry and date as they are.
    """

    records: dict[int, tuple[int, str, str, str]]
    source_files: tuple[tuple[str, str], ...] = ()
    conflicts: int = 0

    # The ASN count, not the field count; `_make` and `_replace` check the
    # field count through len(), so they fail here.
    def __len__(self) -> int:
        return len(self.records)


def _number(text: str) -> int:
    """The value of a field of plain ASCII digits.  Any other text raises
    ValueError, including forms `int()` would take: a sign, spaces, `_`
    and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not plain ASCII digits: {text!r}")
    return int(text)


def _parse_date(text: str) -> dt.date | None:
    """The date of a `YYYYMMDD` text, or None for an empty or all-zero one.

    Only eight ASCII digits that form a real date are read; any other text
    raises ValueError, so a short text is never guessed at.
    """
    if not text or text == "00000000":
        return None
    if not (len(text) == 8 and text.isascii() and text.isdigit()):
        raise ValueError(f"not a YYYYMMDD date: {text!r}")
    return dt.date(int(text[:4]), int(text[4:6]), int(text[6:]))


class _DateMemo(dict):
    """Date text -> the `(rank, date)` fields of a record tuple (see
    `MergedRecords`), each distinct text parsed once.

    A build shares one memo across its files, and `load` uses one for the
    text it reads; a database holds about ten times more rows than
    distinct dates.  A text that does not parse raises ValueError on every
    lookup and is never stored.
    """

    def __missing__(self, text: str) -> tuple[int, str]:
        date = _parse_date(text)
        entry = self[text] = (0, "") if date is None else (-date.toordinal(), text)
        return entry


def build_from_files(items: Iterable[tuple[str, str | Path]]) -> tuple[MergedRecords, list[tuple[str, int, str]]]:
    """Build the database from delegated files given as (registry, path)
    pairs, in one pass over each file.

    Returns it plus the skipped-row log as (registry, line number, reason)
    entries.  Each row's registry comes from the row, so combined
    (NRO-style) files work too.  Comment, version, summary (six fields,
    the last `summary`), non-asn and availability/reserved rows are
    skipped silently; rows that should be ASN records but do not parse
    are logged.  Each ASN keeps the smallest record tuple of the rows
    that cover it, and every other ASN record counts as a conflict, so
    the result does not depend on the order of `items` or of their rows.
    Source file hashes go into the provenance.
    """
    chosen: dict[int, tuple[int, str, str, str]] = {}
    dates = _DateMemo()
    provenance = []
    skipped: list[tuple[str, int, str]] = []
    total = 0
    for registry, path in items:
        data = Path(path).read_bytes()
        provenance.append((registry, "sha256:" + hashlib.sha256(data).hexdigest()))
        for lineno, line in enumerate(data.decode("utf-8", errors="replace").splitlines(), start=1):
            if "|asn|" not in line and line.count("|") >= 6:
                # Seven or more fields but no asn type: an ipv4/ipv6 row or
                # the version header, most of a real file, skipped unsplit.
                continue
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            if len(fields) == 6 and fields[5] == "summary":
                continue
            if len(fields) < 7:
                skipped.append((registry, lineno, "expected at least 7 fields"))
                continue
            row_registry, cc, rtype, start, value, date_text, status = fields[:7]
            if rtype != "asn" or status not in _KEPT_STATUSES:
                continue
            if row_registry not in REGISTRIES:
                skipped.append((registry, lineno, f"unknown registry {row_registry!r}"))
                continue
            if cc not in COUNTRY_CODES:
                skipped.append((registry, lineno, f"bad country code {cc!r}"))
                continue
            # The test `_number` makes, inline: this runs once per ASN row.
            if not (start.isascii() and start.isdigit() and value.isascii() and value.isdigit()):
                skipped.append((registry, lineno, "non-numeric asn start or value"))
                continue
            first, count = int(start), int(value)
            if count < 1 or first < 1 or first + count - 1 > ASN_MAX:
                skipped.append((registry, lineno, "asn range out of bounds"))
                continue
            try:
                rank, date = dates[date_text]
            except ValueError:
                skipped.append((registry, lineno, f"bad date {date_text!r}"))
                continue
            row = (rank, row_registry, cc, date)
            if count == 1:  # most rows: one lookup, no range
                kept = chosen.get(first)
                if kept is None or row < kept:
                    chosen[first] = row
            else:
                for asn in range(first, first + count):
                    if row < chosen.setdefault(asn, row):
                        chosen[asn] = row
            total += count
    merged = MergedRecords(records=chosen, source_files=tuple(sorted(set(provenance))),
                           conflicts=total - len(chosen))
    return merged, skipped


def _index_path(path: str | Path) -> Path:
    return Path(f"{path}{_INDEX_SUFFIX}")


def save(db: MergedRecords, path: str | Path) -> None:
    """Write the database as sorted `asn|country|registry|date` rows under
    the provenance and `# records N conflicts M` header, and its country
    index at `<path>.idx`.
    """
    lines = ["# asndb 1"]
    for registry, digest in db.source_files:
        lines.append(f"# source {registry} {digest}")
    lines.append(f"# records {len(db.records)} conflicts {db.conflicts}")
    asns = sorted(db.records)
    picks = list(map(db.records.__getitem__, asns))
    lines += [f"{asn}|{country}|{registry}|{date}" for asn, (_, registry, country, date) in zip(asns, picks)]
    text = ("\n".join(lines) + "\n").encode("utf-8")
    Path(path).write_bytes(text)

    codes: dict[str, int] = {}
    positions = [codes.setdefault(country, len(codes)) for _, _, country, _ in picks]
    asn_array, position_array = array("I", asns), array("H", positions)
    if sys.byteorder == "big":
        asn_array.byteswap()
        position_array.byteswap()
    header = f"records {len(asns)}\ncodes {' '.join(codes)}\n".encode("ascii")
    digest = hashlib.sha256(text)
    for part in (header, asn_array, position_array):
        digest.update(part)
    with open(_index_path(path), "wb") as handle:
        handle.write(_INDEX_MAGIC + f"sha256 {digest.hexdigest()}\n".encode("ascii") + header)
        asn_array.tofile(handle)
        position_array.tofile(handle)


def _index_line(handle, key: str) -> str:
    """The value of the next index header line, which must be `<key> <value>`."""
    line = handle.readline(_INDEX_LINE_MAX)
    name, _, value = line.decode("ascii").partition(" ")
    if name != key or not value.endswith("\n"):
        raise ValueError(f"no {key!r} line")
    return value[:-1]


def _read_index(data: bytes, path: str | Path, expected: int) -> dict[int, str]:
    """The country map in the bytes `data` of the index of the text
    database at `path`, whose header says `expected` records; ValueError
    if the index does not belong to that text or does not check out."""
    handle = io.BytesIO(data)
    if handle.readline(len(_INDEX_MAGIC)) != _INDEX_MAGIC:
        raise ValueError("not an asndb index")
    digest = _index_line(handle, "sha256")
    hashed = memoryview(data)[handle.tell():]  # all that follows the digest
    count = int(_index_line(handle, "records"))
    if count != expected:
        raise ValueError(f"{count} records, the text header says {expected}")
    table = _index_line(handle, "codes").split()
    if len(set(table)) != len(table) or not COUNTRY_CODES.issuperset(table):
        raise ValueError("bad code table")
    asns, positions = array("I"), array("H")
    arrays = memoryview(data)[handle.tell():]
    if len(arrays) != count * (asns.itemsize + positions.itemsize):
        raise ValueError(f"{len(arrays)} bytes of arrays for {count} records")
    asns.frombytes(arrays[:count * asns.itemsize])
    positions.frombytes(arrays[count * asns.itemsize:])
    if sys.byteorder == "big":
        asns.byteswap()
        positions.byteswap()
    try:
        countries = dict(zip(asns, map(table.__getitem__, positions)))
    except IndexError:
        raise ValueError("a code position past the code table") from None
    if len(countries) != count:
        raise ValueError("duplicate ASNs")
    with open(path, "rb") as text:
        hasher = hashlib.file_digest(text, "sha256")
    hasher.update(hashed)
    if hasher.hexdigest() != digest:
        raise ValueError("the text or the index changed after the index was written")
    return countries


def _load_index(path: str | Path, expected: int) -> dict[int, str] | None:
    """The country map from the index beside the text database at `path`,
    or None when there is none or it does not check out; the latter is
    logged."""
    index = _index_path(path)
    try:
        return _read_index(index.read_bytes(), path, expected)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        import logging  # only an index that does not check out needs it
        logging.getLogger(__name__).warning("%s: not used (%s); reading %s line by line", index, exc, path)
        return None


def load(path: str | Path) -> dict[int, str]:
    """Read a database previously written by :func:`save` as its ASN ->
    country map: an ASN that is not a key is unknown, and equal country
    codes share one `str`.

    Of the header only the record count is read; the `# source` lines are
    skipped.  A UTF-8 byte-order mark before the first line is allowed.
    If the index beside the file (see `save`) holds that count and the
    sha256 of the file's exact bytes and its own, and its sizes and code
    positions check out, the map is read from it: the text, which `save`
    wrote from checked records, is then only hashed.  Otherwise, with one
    logged warning unless there is no index, the file is streamed a line
    at a time.  Each record line must hold the four
    `asn|country|registry|date` fields, an ASN of plain ASCII digits up
    to `ASN_MAX`, a code in `COUNTRY_CODES` and a date text that parses;
    registry and date are then dropped.  A malformed line, among them a
    `# records N conflicts M` header whose N or M is not an integer,
    raises ValueError naming `<path>:<lineno>`.  So does, naming `<path>`, a file without that
    header (an empty file would otherwise read as a database that knows no
    ASN) or one whose distinct ASNs do not number what the header says (a
    truncated file would otherwise leave ASNs without a country).
    """
    countries: dict[int, str] = {}
    codes: dict[str, str] = {}
    expected: int | None = None
    dates = _DateMemo()
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts[:1] == ["records"] and len(parts) == 4:
                        expected = int(parts[1])
                        int(parts[3])  # the conflict count is not kept, but must parse
                        if not countries and (indexed := _load_index(path, expected)) is not None:
                            countries = indexed
                            break
                    continue
                asn_text, country, _registry, date_text = line.split("|")
                asn = _number(asn_text)
                if asn > ASN_MAX:
                    raise ValueError(f"ASN above {ASN_MAX}")
                if country not in COUNTRY_CODES:
                    raise ValueError(f"bad country code {country!r}")
                dates[date_text]  # raises ValueError for a date that does not parse
                countries[asn] = codes.setdefault(country, country)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed asndb line {line!r}: {exc}") from None
    if expected is None:
        raise ValueError(f"{path}: no '# records N conflicts M' header; not a saved asndb")
    if len(countries) != expected:
        raise ValueError(f"{path}: header says {expected} records but {len(countries)} were read")
    return countries
