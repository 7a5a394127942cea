"""Parse daily route-server snapshot CSVs into typed routing tables.

A snapshot file is one IXP's routing table for one day: a UTF-8 CSV with a
header row, where one column holds the announced prefix and another the
space-separated AS path.  Files live under `<root>/<ixp>/<YYYY-MM-DD>.csv`.

Parsing goes through an `InternTable`: each distinct raw prefix cell,
AS-path cell and (prefix, AS path) row is parsed once, and every row
holding it shares the parsed object.  `load_series` keeps one table per
IXP for the whole series, so the table is bounded by that IXP's distinct
cells and rows over the window, and it is dropped once the series is
loaded.
"""

from __future__ import annotations

import csv
import datetime as dt
import ipaddress
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

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

    def __iter__(self) -> Iterator[dt.date]:
        return self.days()

    def __contains__(self, day: dt.date) -> bool:
        return self.start <= day <= self.end

    def __len__(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One routing-table row: a prefix and the AS path as announced.

    The origin is the last path element, the neighbor (the AS facing the
    route server) the first; a single-element path makes them equal.
    """

    prefix: str
    as_path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("as_path must be non-empty")

    @property
    def origin(self) -> int:
        return self.as_path[-1]

    @property
    def neighbor(self) -> int:
        return self.as_path[0]


@dataclass(frozen=True)
class Snapshot:
    """One IXP's routing table for one day."""

    ixp: str
    date: dt.date
    entries: tuple[RouteEntry, ...]
    skipped: int = 0


@dataclass(frozen=True)
class SnapshotSeries:
    """Date-ordered snapshots for one IXP over a study window."""

    ixp: str
    snapshots: tuple[Snapshot, ...]
    gaps: tuple[dt.date, ...] = ()

    def __post_init__(self) -> None:
        dates = [s.date for s in self.snapshots]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("snapshot dates must be strictly increasing")
        if set(self.gaps) & set(dates):
            raise ValueError("gap dates overlap snapshot dates")

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(s.date for s in self.snapshots)


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

    @classmethod
    def from_file(cls, path: str | Path) -> "SnapshotSchema":
        """Load a `key = value` mapping file (# starts a comment)."""
        known = {"prefix", "as_path", "origin", "neighbor"}
        values: dict[str, str] = {}
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'field = column'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown field {key!r}")
                values[key] = value
        return cls(**values)


DEFAULT_SCHEMA = SnapshotSchema()


_UNSEEN = object()


@dataclass
class InternTable:
    """The parsed form of every distinct raw cell and row seen so far.

    `prefixes` maps a raw prefix cell to its canonical CIDR text, `paths` a
    raw AS-path cell to its ASN tuple, and `rows` a (prefix cell, AS-path
    cell) pair to its RouteEntry; None marks a cell or row that is skipped.
    A repeated cell is parsed once, and every row holding it shares one
    str, tuple or RouteEntry.
    """

    prefixes: dict[str, str | None] = field(default_factory=dict)
    paths: dict[str, tuple[int, ...] | None] = field(default_factory=dict)
    rows: dict[tuple[str, str], RouteEntry | None] = field(default_factory=dict)

    def entry(self, prefix_cell: str, path_cell: str) -> RouteEntry | None:
        """The RouteEntry for a row not seen before, or None when its path
        or prefix is defective; memoised in `rows`."""
        path = self.paths.get(path_cell, _UNSEEN)
        if path is _UNSEEN:
            path = self.paths[path_cell] = _parse_path(path_cell)
        prefix = None
        if path is not None:
            prefix = self.prefixes.get(prefix_cell, _UNSEEN)
            if prefix is _UNSEEN:
                prefix = self.prefixes[prefix_cell] = _normalize_prefix(prefix_cell)
        entry = None if prefix is None else RouteEntry(prefix, path)
        self.rows[prefix_cell, path_cell] = entry
        return entry


def _normalize_prefix(text: str) -> str | None:
    """Canonical CIDR text for a prefix cell, or None when unparseable."""
    try:
        return str(ipaddress.ip_network(text.strip(), strict=False))
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


def parse_snapshot(
    source: IO[str] | Iterable[str],
    ixp: str,
    date: dt.date,
    schema: SnapshotSchema = DEFAULT_SCHEMA,
    intern: InternTable | None = None,
) -> Snapshot:
    """Parse one snapshot CSV stream.

    Every data row yields either a RouteEntry or a +1 on the skipped
    counter; duplicate rows are kept, each being one announcement.  Rows
    too short to hold every mapped column, with empty paths, non-numeric
    path tokens (including brace-delimited AS_SET segments) or unparseable
    prefixes are skipped.  `intern` is shared by the snapshots of one
    series; a fresh one is used when None.
    """
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"snapshot for {ixp} {date} has no header row")
    p_idx = _resolve_column(header, schema.prefix)
    a_idx = _resolve_column(header, schema.as_path)
    o_idx = _resolve_column(header, schema.origin) if schema.origin else None
    n_idx = _resolve_column(header, schema.neighbor) if schema.neighbor else None

    last_idx = max(i for i in (p_idx, a_idx, o_idx, n_idx) if i is not None)

    if intern is None:
        intern = InternTable()
    seen = intern.rows
    entries: list[RouteEntry] = []
    skipped = 0
    for row in reader:
        if not row:
            continue
        try:
            cells = (row[p_idx], row[a_idx])
            row[last_idx]  # a row short of any mapped column is skipped
        except IndexError:
            skipped += 1
            continue
        entry = seen.get(cells, _UNSEEN)
        if entry is _UNSEEN:
            entry = intern.entry(*cells)
        if entry is None:
            skipped += 1
            continue
        if o_idx is not None and row[o_idx].strip() != str(entry.as_path[-1]):
            skipped += 1
            continue
        if n_idx is not None and row[n_idx].strip() != str(entry.as_path[0]):
            skipped += 1
            continue
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
    gap.  A missing IXP directory is a hard error.
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
    return SnapshotSeries(ixp=ixp, snapshots=tuple(snapshots), gaps=tuple(gaps))
