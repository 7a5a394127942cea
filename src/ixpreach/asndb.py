"""ASN-to-country database built from RIR delegated statistics files.

The five RIRs publish pipe-separated "delegated" (or "delegated-extended")
files listing number-resource allocations:

    registry|cc|type|start|value|date|status[|opaque-id...]

For rows of type ``asn`` the start field is the first AS number and the
value field the count of consecutive ASNs covered.  The module has two
sides:

* building (`parse_delegated` -> `merge` -> `save`, the `build-asndb`
  path) works on `AsnRecord` rows, one per ASN with its country, registry
  and allocation date, and persists the merged result as a sorted
  pipe-separated text file;
* looking up (`load`, what `analyze` reads) turns that file into an
  `AsnDb`: an ASN -> country map with one shared `str` per distinct code.
  Registry and date live only in the saved file: `load` checks that the
  date parses and keeps neither.

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
import logging
import re
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

REGISTRIES = ("afrinic", "apnic", "arin", "lacnic", "ripencc")

# Statuses that describe an actual holder; availability/reserved rows are
# registry bookkeeping and never enter the database.
_KEPT_STATUSES = frozenset({"allocated", "assigned"})

ASN_MAX = 2**32 - 1

# A country code as the delegated files write it, used with fullmatch.
COUNTRY_RE = re.compile(r"[A-Z]{2}")

# The country index `save` writes beside the text: this line, then
# `sha256 <hex>`, `records <n>` and `codes <cc> <cc> ...` lines, then the
# ASNs as array("I") and each ASN's code position as array("H"), both
# little-endian and in the text's order.  The sha256 is of the text's
# bytes followed by every index byte after the sha256 line.
_INDEX_SUFFIX = ".idx"
_INDEX_MAGIC = b"# asndb index 2: u32le asns, u16le code positions\n"
_INDEX_LINE_MAX = 4096

log = logging.getLogger(__name__)


class AsnRecord(NamedTuple):
    """One AS number with the country, registry and date it is delegated
    under: the row `parse_delegated` yields, `merge` picks and `save`
    writes.  `load` builds none.
    """

    asn: int
    country: str
    registry: str
    date: dt.date | None = None


@dataclass(frozen=True)
class MergedRecords:
    """The merged build-side database: one AsnRecord per ASN, the
    provenance and the number of duplicate records `merge` resolved."""

    records: dict[int, AsnRecord]
    source_files: tuple[tuple[str, str], ...] = ()
    conflicts: int = 0

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class AsnDb:
    """The ASN -> country lookup that `load` returns and `analyze` reads.

    `countries` maps each ASN to its country code, with one `str` object
    shared by every ASN of a code; an ASN that is not a key is unknown.
    Registry and allocation date are kept only in the saved file.
    Provenance and conflict count are the saved header's.
    """

    countries: dict[int, str]
    source_files: tuple[tuple[str, str], ...] = ()
    conflicts: int = 0


def _parse_date(text: str) -> dt.date | None:
    """The date of a `YYYYMMDD` text, or None for an empty or all-zero one.

    Eight ASCII digits are split by position; any other text, and one
    that is not a valid date, goes to `strptime`, which decides it and
    words its ValueError.
    """
    if not text or text == "00000000":
        return None
    if len(text) == 8 and text.isascii() and text.isdigit():
        try:
            return dt.date(int(text[:4]), int(text[4:6]), int(text[6:]))
        except ValueError:
            pass
    return dt.datetime.strptime(text, "%Y%m%d").date()


class _DateMemo(dict):
    """Date text -> parsed date, each distinct text parsed once.

    A database holds about ten times more records than distinct dates.  A
    text that does not parse raises ValueError on every lookup and is
    never stored.
    """

    def __missing__(self, text: str) -> dt.date | None:
        date = self[text] = _parse_date(text)
        return date


def parse_delegated(source: Iterable[str]) -> tuple[list[AsnRecord], list[tuple[int, str]]]:
    """Parse a delegated statistics stream into ASN records.

    Returns the records and the skipped-row log as (line number, reason)
    pairs.  Each record's registry comes from its row, so combined
    (NRO-style) files work too.  Comment, version, summary, non-asn and
    availability/reserved rows are skipped silently; rows that should be
    ASN records but do not parse are logged.
    """
    records: list[AsnRecord] = []
    skipped: list[tuple[int, str]] = []
    dates = _DateMemo()

    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if "summary" in fields:
            continue
        if len(fields) < 7:
            skipped.append((lineno, "expected at least 7 fields"))
            continue
        row_registry, cc, rtype, start, value, date_text, status = fields[:7]
        if rtype != "asn":
            # ipv4/ipv6 rows and the version header (whose third field is a
            # serial number) fall out here.
            continue
        if status not in _KEPT_STATUSES:
            continue
        if row_registry not in REGISTRIES:
            skipped.append((lineno, f"unknown registry {row_registry!r}"))
            continue
        if not COUNTRY_RE.fullmatch(cc):
            skipped.append((lineno, f"bad country code {cc!r}"))
            continue
        try:
            first = int(start)
            count = int(value)
        except ValueError:
            skipped.append((lineno, "non-numeric asn start or value"))
            continue
        if count < 1 or first < 1 or first + count - 1 > ASN_MAX:
            skipped.append((lineno, "asn range out of bounds"))
            continue
        try:
            date = dates[date_text]
        except ValueError:
            skipped.append((lineno, f"bad date {date_text!r}"))
            continue
        for asn in range(first, first + count):
            records.append(AsnRecord(asn, cc, row_registry, date))

    return records, skipped


def _preference(rec: AsnRecord) -> tuple:
    # Latest allocation date wins (missing date sorts oldest); ties broken
    # by registry and country so the merge is a total order.
    ordinal = rec.date.toordinal() if rec.date is not None else 0
    return (-ordinal, rec.registry, rec.country)


def merge(
    inputs: Iterable[Iterable[AsnRecord]],
    sources: Iterable[tuple[str, str]] = (),
) -> MergedRecords:
    """Fold record iterables into one MergedRecords with `sources` as
    provenance.

    One record survives per ASN; duplicates bump the conflict counter.
    The result is identical for any permutation of `inputs`.
    """
    chosen: dict[int, AsnRecord] = {}
    total = 0
    for records in inputs:
        for rec in records:
            total += 1
            current = chosen.get(rec.asn)
            if current is None or _preference(rec) < _preference(current):
                chosen[rec.asn] = rec
    return MergedRecords(
        records=chosen,
        source_files=tuple(sorted(set(sources))),
        conflicts=total - len(chosen),
    )


def build_from_files(items: Iterable[tuple[str, str | Path]]) -> tuple[MergedRecords, list[tuple[str, int, str]]]:
    """Parse and merge delegated files given as (registry, path) pairs.

    Returns the merged database plus the combined skipped-row log as
    (registry, line number, reason) entries.  Source file hashes go into
    the database provenance.
    """
    parsed = []
    provenance = []
    skipped: list[tuple[str, int, str]] = []
    for registry, path in items:
        data = Path(path).read_bytes()
        provenance.append((registry, "sha256:" + hashlib.sha256(data).hexdigest()))
        records, rows_skipped = parse_delegated(data.decode("utf-8", errors="replace").splitlines())
        parsed.append(records)
        skipped.extend((registry, lineno, reason) for lineno, reason in rows_skipped)
    return merge(parsed, sources=provenance), skipped


def _index_path(path: str | Path) -> Path:
    return Path(f"{path}{_INDEX_SUFFIX}")


def save(db: MergedRecords, path: str | Path) -> None:
    """Write the database as sorted `asn|country|registry|date` rows under
    the provenance and `# records N conflicts M` header, and its country
    index at `<path>.idx`.

    The index is written only when `load` would read the same map from it
    as from the text: every code is two capital letters (so the code table
    fits array("H")), every registry is one of REGISTRIES and every ASN
    fits array("I").  Otherwise an index left from an earlier save is
    removed.
    """
    lines = ["# asndb 1"]
    for registry, digest in db.source_files:
        lines.append(f"# source {registry} {digest}")
    lines.append(f"# records {len(db.records)} conflicts {db.conflicts}")
    date_texts: dict[dt.date | None, str] = {None: ""}
    codes: dict[str, int] = {}
    registries = set()
    asns, positions = [], []
    for asn in sorted(db.records):
        number, country, registry, date = db.records[asn]
        date_text = date_texts.get(date)
        if date_text is None:
            date_text = date_texts[date] = f"{date.year:04d}{date.month:02d}{date.day:02d}"
        lines.append(f"{number}|{country}|{registry}|{date_text}")
        position = codes.get(country)
        if position is None:
            position = codes[country] = len(codes)
        registries.add(registry)
        asns.append(number)
        positions.append(position)
    text = ("\n".join(lines) + "\n").encode("utf-8")
    Path(path).write_bytes(text)

    index = _index_path(path)
    indexable = registries.issubset(REGISTRIES) and all(map(COUNTRY_RE.fullmatch, codes))
    try:
        asn_array, position_array = array("I", asns), array("H", positions)
    except (OverflowError, TypeError):
        indexable = False
    if not indexable:
        index.unlink(missing_ok=True)
        return
    if sys.byteorder == "big":
        asn_array.byteswap()
        position_array.byteswap()
    header = f"records {len(asns)}\ncodes {' '.join(codes)}\n".encode("ascii")
    digest = hashlib.sha256(text)
    for part in (header, asn_array, position_array):
        digest.update(part)
    with open(index, "wb") as handle:
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
    if len(set(table)) != len(table) or not all(map(COUNTRY_RE.fullmatch, table)):
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
    if positions and max(positions) >= len(table):
        raise ValueError("a code position past the code table")
    countries = dict(zip(asns, map(table.__getitem__, positions)))
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
        log.warning("%s: not used (%s); reading %s line by line", index, exc, path)
        return None


def load(path: str | Path) -> AsnDb:
    """Read a database previously written by :func:`save` as an AsnDb.

    The header lines give the provenance, the conflict count and the
    record count.  If the index beside the file (see `save`) holds that
    count and the sha256 of the file's exact bytes and its own, and its
    sizes and code positions check out, the map is read from it: the
    text, which `save` wrote from checked records, is then only hashed.
    Otherwise, with one logged warning unless there is no index, the file
    is streamed a line at a time.  Each record line must hold the
    four `asn|country|registry|date` fields, an integer ASN and a date
    text that parses; registry and date are then dropped, and equal
    country codes share one `str`.  A malformed line raises
    ValueError naming `<path>:<lineno>`.  So does, naming `<path>`, a file
    without the `# records N conflicts M` header (an empty file would
    otherwise read as a database that knows no ASN) or one whose distinct
    ASNs do not number what the header says (a truncated file would
    otherwise leave ASNs without a country).
    """
    countries: dict[int, str] = {}
    codes: dict[str, str] = {}
    source_files: list[tuple[str, str]] = []
    conflicts = 0
    expected: int | None = None
    dates = _DateMemo()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts[:1] == ["source"] and len(parts) == 3:
                        source_files.append((parts[1], parts[2]))
                    elif parts[:1] == ["records"] and len(parts) == 4:
                        expected = int(parts[1])
                        conflicts = int(parts[3])
                        if not countries and (indexed := _load_index(path, expected)) is not None:
                            countries = indexed
                            break
                    continue
                asn_text, country, _registry, date_text = line.split("|")
                asn = int(asn_text)
                dates[date_text]  # raises ValueError for a date that does not parse
                countries[asn] = codes.setdefault(country, country)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed asndb line {line!r}: {exc}") from None
    if expected is None:
        raise ValueError(f"{path}: no '# records N conflicts M' header; not a saved asndb")
    if len(countries) != expected:
        raise ValueError(f"{path}: header says {expected} records but {len(countries)} were read")
    return AsnDb(countries=countries, source_files=tuple(sorted(source_files)), conflicts=conflicts)
