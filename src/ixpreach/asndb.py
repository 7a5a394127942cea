"""ASN-to-country database built from RIR delegated statistics files.

The five RIRs publish pipe-separated "delegated" (or "delegated-extended")
files listing number-resource allocations:

    registry|cc|type|start|value|date|status[|opaque-id...]

For rows of type ``asn`` the start field is the first AS number and the
value field the count of consecutive ASNs covered.  This module parses
those rows, merges the per-registry results into a single lookup table,
and persists it as a sorted pipe-separated text file.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

REGISTRIES = ("afrinic", "apnic", "arin", "lacnic", "ripencc")

# Statuses that describe an actual holder; availability/reserved rows are
# registry bookkeeping and never enter the database.
_KEPT_STATUSES = frozenset({"allocated", "assigned"})

ASN_MAX = 2**32 - 1

_CC_RE = re.compile(r"^[A-Z]{2}$")


class AsnRecord(NamedTuple):
    """One AS number with the country and registry it is delegated under.

    A named tuple: immutable, hashable and cheap to build, which matters
    for the hundred thousand records a full database loads on every run.
    """

    asn: int
    country: str
    registry: str
    date: dt.date | None = None


@dataclass(frozen=True)
class AsnDb:
    """Merged ASN lookup table; immutable and safe to share across threads."""

    records: dict[int, AsnRecord]
    source_files: tuple[tuple[str, str], ...] = ()
    conflicts: int = 0

    def lookup(self, asn: int) -> str | None:
        """Country code delegated for `asn`, or None when unknown."""
        rec = self.records.get(asn)
        return rec.country if rec is not None else None

    def __len__(self) -> int:
        return len(self.records)


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
        if not _CC_RE.match(cc):
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
) -> AsnDb:
    """Fold record iterables into one AsnDb with `sources` as provenance.

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
    return AsnDb(
        records=chosen,
        source_files=tuple(sorted(set(sources))),
        conflicts=total - len(chosen),
    )


def build_from_files(items: Iterable[tuple[str, str | Path]]) -> tuple[AsnDb, list[tuple[str, int, str]]]:
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


def save(db: AsnDb, path: str | Path) -> None:
    """Write the database as sorted `asn|country|registry|date` rows."""
    lines = ["# asndb 1"]
    for registry, digest in db.source_files:
        lines.append(f"# source {registry} {digest}")
    lines.append(f"# records {len(db.records)} conflicts {db.conflicts}")
    date_texts: dict[dt.date | None, str] = {None: ""}
    for asn in sorted(db.records):
        rec = db.records[asn]
        date = date_texts.get(rec.date)
        if date is None:
            date = date_texts[rec.date] = rec.date.strftime("%Y%m%d")
        lines.append(f"{rec.asn}|{rec.country}|{rec.registry}|{date}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load(path: str | Path) -> AsnDb:
    """Read a database previously written by :func:`save`.

    A malformed line raises ValueError naming `<path>:<lineno>`.  So does,
    naming `<path>`, a file without the `# records N conflicts M` header
    (an empty file would otherwise read as a database that knows no ASN)
    or one whose distinct records do not number what the header says (a
    truncated file would otherwise leave ASNs without a country).
    """
    records: dict[int, AsnRecord] = {}
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
                    continue
                asn_text, country, registry, date_text = line.split("|")
                asn = int(asn_text)
                records[asn] = AsnRecord(asn, country, registry, dates[date_text])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed asndb line {line!r}: {exc}") from None
    if expected is None:
        raise ValueError(f"{path}: no '# records N conflicts M' header; not a saved asndb")
    if len(records) != expected:
        raise ValueError(f"{path}: header says {expected} records but {len(records)} were read")
    return AsnDb(records=records, source_files=tuple(sorted(source_files)), conflicts=conflicts)
