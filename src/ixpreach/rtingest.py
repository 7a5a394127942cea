"""Parse daily route-server snapshot CSVs into row ids.

A snapshot file is one IXP's routing table for one day: a UTF-8 CSV with a
header row, where one column holds the announced prefix and another the
space-separated AS path.  Files live under `<root>/<ixp>/<YYYY-MM-DD>.csv`.

Parsing goes through an `InternTable`.  One `csv.reader` per file reads
the header and every line not seen before, so quoted and multi-line
records and csv errors behave exactly as with a plain reader.  Each row
is looked up in a memo kept per column layout, so a row repeated from an
earlier day yields the row id (or the skip) decided when it was first
seen.  When the header maps every one of its columns and csv ends a
record on the line it starts on, without reading past it, the key is that
raw line, so a repeated line costs one dict lookup and never reaches csv;
otherwise the key is the row's mapped cells, so unmapped columns that
change from row to row do not defeat the memo.  A new row's prefix and
AS-path cells are parsed through per-cell memos, and a kept row gets the
next dense row id, whose prefix, origin and neighbor the table records
once in its columns.  A day is then the tuple of its rows' ids plus a skip
count.  `load_series` keeps one table per IXP for the whole series and
hands its columns to the SnapshotSeries; the memos are dropped once the
series is loaded.
"""

from __future__ import annotations

import csv
import datetime as dt
import ipaddress
import logging
import operator
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .asndb import ASN_MAX

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DateRange:
    """Inclusive span of calendar days."""

    start: dt.date
    end: dt.date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"date range ends before it starts: {self.start}..{self.end}")

    def days(self) -> Iterator[dt.date]:
        day = self.start
        while day <= self.end:
            yield day
            day += dt.timedelta(days=1)

    def __contains__(self, day: dt.date) -> bool:
        return self.start <= day <= self.end


_IXP_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def check_ixp(ixp: str) -> str:
    """Reject an IXP id that is not a plain directory and file-name part."""
    if not _IXP_RE.fullmatch(ixp):
        raise ValueError(f"not a usable IXP id: {ixp!r}")
    return ixp


@dataclass(frozen=True)
class Snapshot:
    """One IXP's routing table for one day: the row id of every kept row,
    in file order with duplicates kept, and the count of skipped rows.
    The ids index the columns of the InternTable that parsed the day (and
    of the SnapshotSeries that holds it)."""

    ixp: str
    date: dt.date
    entries: tuple[int, ...]
    skipped: int = 0


@dataclass(frozen=True)
class SnapshotSeries:
    """Date-ordered snapshots for one IXP over a study window.

    `prefix_of`, `origin_of` and `neighbor_of` are the row-id columns of
    the table that parsed the snapshots: row id i has the canonical prefix
    `prefix_of[i]`, the origin `origin_of[i]` (the last AS-path element)
    and the neighbor `neighbor_of[i]` (the first, the AS facing the route
    server); a single-element path makes them equal.
    """

    ixp: str
    snapshots: tuple[Snapshot, ...]
    gaps: tuple[dt.date, ...] = ()
    prefix_of: Sequence[str] = ()
    origin_of: Sequence[int] = ()
    neighbor_of: Sequence[int] = ()

    def __post_init__(self) -> None:
        dates = [s.date for s in self.snapshots]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("snapshot dates must be strictly increasing")
        if set(self.gaps) & set(dates):
            raise ValueError("gap dates overlap snapshot dates")


@dataclass(frozen=True)
class SnapshotSchema:
    """Maps logical snapshot fields to CSV column names.

    `origin` and `neighbor` may name columns carrying precomputed values;
    when mapped, rows whose cells disagree with the path endpoints are
    treated as defective and skipped.
    """

    prefix: str = "prefix"
    as_path: str = "as_path"
    origin: str | None = None
    neighbor: str | None = None


DEFAULT_SCHEMA = SnapshotSchema()


_UNSEEN = object()

# Column indices (prefix, as_path, origin, neighbor) of one header; origin
# and neighbor are None when not mapped.
Layout = tuple[int, int, int | None, int | None]

# A row's mapped cells: (prefix, as_path) when neither origin nor neighbor
# is mapped, else (prefix, as_path, origin, neighbor) with None for the one
# not mapped.
Cells = tuple[str | None, ...]


@dataclass
class InternTable:
    """The parsed form of every distinct raw cell and row seen so far.

    `prefixes` maps a raw prefix cell to its canonical CIDR text and
    `paths` a raw AS-path cell to its ASN tuple, None marking a defective
    cell.  `rows` maps a column layout to a memo from a row key to the
    row's id, or None for a counted skip.  The key of a row is its raw
    physical line, terminator included, when the header maps every one of
    its columns and csv ended the record on that line without reading past
    it, so the line alone holds its mapped cells; otherwise it is the row's
    mapped `Cells`, so unmapped columns play no part in it.  What a key of
    either kind decides depends only on the layout, and a layout has its
    own memo because a line means other cells under another header.

    Row ids are dense, from 0, one per memo key that decided a kept row;
    `prefix_of`, `origin_of` and `neighbor_of` hold each id's fields, the
    ASNs as unsigned 32-bit array items (4 bytes a row, not a pointer).
    Two keys may decide equal fields (say, paths that differ only between
    their endpoints) and then hold two ids.
    """

    prefixes: dict[str, str | None] = field(default_factory=dict)
    paths: dict[str, tuple[int, ...] | None] = field(default_factory=dict)
    rows: dict[Layout, dict[str | Cells, int | None]] = field(default_factory=dict)
    prefix_of: list[str] = field(default_factory=list)
    origin_of: array = field(default_factory=lambda: array("I"))
    neighbor_of: array = field(default_factory=lambda: array("I"))

    def entry(self, cells: Cells) -> int | None:
        """A new row id for a row's mapped cells, or None when its path or
        prefix is defective or a mapped origin/neighbor cell disagrees with
        the path."""
        path = self.paths.get(cells[1], _UNSEEN)
        if path is _UNSEEN:
            path = self.paths[cells[1]] = _parse_path(cells[1])
        if path is None:
            return None
        prefix = self.prefixes.get(cells[0], _UNSEEN)
        if prefix is _UNSEEN:
            prefix = self.prefixes[cells[0]] = _normalize_prefix(cells[0])
        if prefix is None:
            return None
        origin, neighbor = path[-1], path[0]
        for cell, asn in zip(cells[2:], (origin, neighbor)):  # the origin, neighbor cells
            if cell is not None and cell.strip() != str(asn):
                return None
        self.prefix_of.append(prefix)
        self.origin_of.append(origin)
        self.neighbor_of.append(neighbor)
        return len(self.prefix_of) - 1


# Octets and a length written without leading zeros.
_OCTET = r"(0|[1-9][0-9]{0,2})"
_IPV4_CIDR = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}/(0|[1-9][0-9]?)")


def _normalize_prefix(text: str) -> str | None:
    """Canonical CIDR text for a prefix cell, or None when unparseable.

    A dotted-quad `a.b.c.d/len` with no leading zeros, octets up to 255
    and a length up to 32 is masked here, giving the text ipaddress would;
    every other text goes to `ipaddress.ip_network(..., strict=False)`.
    """
    text = text.strip()
    match = _IPV4_CIDR.fullmatch(text)
    if match is not None:
        a, b, c, d, length = map(int, match.groups())
        if a <= 255 and b <= 255 and c <= 255 and d <= 255 and length <= 32:
            mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
            address = (a << 24) | (b << 16) | (c << 8) | d
            if address & mask == address:
                return text
            address &= mask
            return f"{address >> 24}.{address >> 16 & 255}.{address >> 8 & 255}.{address & 255}/{length}"
    try:
        return str(ipaddress.ip_network(text, strict=False))
    except ValueError:
        return None


def _parse_path(text: str) -> tuple[int, ...] | None:
    """ASN tuple for an AS-path cell, or None when it is empty or holds a
    token that is not a plain ASN (brace-delimited AS_SETs included)."""
    path: list[int] = []
    for token in text.split():
        if not (token.isascii() and token.isdigit()):
            return None
        asn = int(token)
        if asn > ASN_MAX:
            return None
        path.append(asn)
    return tuple(path) or None


def _resolve_column(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ValueError(f"snapshot is missing mapped column {name!r} (header: {header})") from None


class _LineFeed:
    """The source of a file's one csv.reader: the line handed to it, or
    else the next of `lines` (for the header, and for a record that spans
    lines).  After a record, `read_on` tells whether csv asked past the
    line handed to it, which it does even when `lines` has none left."""

    __slots__ = ("lines", "line", "read_on")

    def __init__(self, lines: Iterator[str]) -> None:
        self.lines = lines
        self.line: str | None = None
        self.read_on = False

    def __iter__(self) -> "_LineFeed":
        return self

    def __next__(self) -> str:
        line, self.line = self.line, None
        self.read_on = line is None
        return next(self.lines) if line is None else line


def parse_snapshot(
    source: IO[str] | Iterable[str],
    ixp: str,
    date: dt.date,
    schema: SnapshotSchema = DEFAULT_SCHEMA,
    intern: InternTable | None = None,
) -> Snapshot:
    """Parse one snapshot CSV stream.

    Every data row yields either its row id in `intern` or a +1 on the
    skipped counter; blank lines are ignored and duplicate rows are kept,
    each being one announcement.  Rows too short to hold every mapped
    column, with empty paths, non-numeric path tokens (including
    brace-delimited AS_SET segments), unparseable prefixes or mapped
    origin/neighbor cells that disagree with the path are skipped.  One
    `csv.reader` reads the header and every line the memo has not decided.
    `intern` is shared by the snapshots of one series, and its columns
    give each id's fields; when None a fresh table is used, and the ids
    then serve only to count rows.
    """
    lines = iter(source)
    feed = _LineFeed(lines)
    reader = csv.reader(feed)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"snapshot for {ixp} {date} has no header row")
    layout: Layout = (
        _resolve_column(header, schema.prefix),
        _resolve_column(header, schema.as_path),
        _resolve_column(header, schema.origin) if schema.origin else None,
        _resolve_column(header, schema.neighbor) if schema.neighbor else None,
    )
    p_idx, a_idx, o_idx, n_idx = layout
    if o_idx is None and n_idx is None:
        cells_of = operator.itemgetter(p_idx, a_idx)
    else:
        def cells_of(row: list[str]) -> Cells:
            return (row[p_idx], row[a_idx],
                    None if o_idx is None else row[o_idx],
                    None if n_idx is None else row[n_idx])

    if intern is None:
        intern = InternTable()
    memo = intern.rows.setdefault(layout, {})
    # A line that holds nothing but mapped cells is its own memo key, so a
    # repeated one costs a single lookup.
    by_line = len(header) == len({p_idx, a_idx, o_idx, n_idx} - {None})
    entries: list[int] = []
    skipped = 0
    for line in lines:
        entry = memo.get(line, _UNSEEN) if by_line else _UNSEEN
        if entry is _UNSEEN:
            feed.line = line
            row = next(reader)
            if not row:  # a blank line
                continue
            try:
                cells = cells_of(row)
            except IndexError:  # a row short of any mapped column is skipped
                skipped += 1
                continue
            # A record csv did not end on this line (it read on into the
            # next lines, or to the end of the file) is keyed by its cells.
            key = cells if feed.read_on or not by_line else line
            entry = memo.get(key, _UNSEEN)
            if entry is _UNSEEN:
                entry = memo[key] = intern.entry(cells)
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)

    return Snapshot(ixp=ixp, date=date, entries=tuple(entries), skipped=skipped)


def load_series(
    root: str | Path,
    ixp: str,
    window: DateRange,
    schema: SnapshotSchema = DEFAULT_SCHEMA,
) -> SnapshotSeries:
    """Load every `<root>/<ixp>/<date>.csv` inside the window.

    Window days with no file become gaps.  So does a file that cannot be
    used, with a warning naming the file and the reason: one that cannot
    be opened or read, is not UTF-8, is not valid CSV, has no header row
    (an empty file) or lacks a mapped column.  Nothing is fabricated for a
    gap.  A missing IXP directory is a hard error.  The series holds the
    row-id columns of the one InternTable its snapshots share.
    """
    ixp_dir = Path(root) / ixp
    if not ixp_dir.is_dir():
        raise FileNotFoundError(f"no snapshot directory for IXP {ixp!r} under {root}")
    intern = InternTable()
    snapshots: list[Snapshot] = []
    gaps: list[dt.date] = []
    for day in window.days():
        path = ixp_dir / f"{day.isoformat()}.csv"
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                snapshots.append(parse_snapshot(handle, ixp, day, schema, intern))
        except FileNotFoundError:
            gaps.append(day)
        except (OSError, ValueError, csv.Error) as exc:
            # ValueError covers UnicodeDecodeError and parse_snapshot's
            # missing-header and missing-column rejections.
            log.warning("treating snapshot %s as a gap: %s", path, exc)
            gaps.append(day)
    return SnapshotSeries(ixp=ixp, snapshots=tuple(snapshots), gaps=tuple(gaps),
                          prefix_of=intern.prefix_of, origin_of=intern.origin_of,
                          neighbor_of=intern.neighbor_of)
