"""Parse daily route-server snapshot CSVs into row ids.

A snapshot file is one IXP's routing table for one day: a UTF-8 CSV (a
leading byte-order mark is dropped) with a header row that names the
column `prefix` (the announced prefix) and the column `as_path` (the
space-separated AS path), in any order; other columns are ignored.
Files live under `<root>/<ixp>/<YYYY-MM-DD>.csv`.

Parsing goes through an `InternTable`.  A snapshot is read as bytes and
split into physical lines as a text file opened with `newline=""` would
split it (at `\n`, `\r\n` and a lone `\r`, each kept on its line); at
most one read plus the longest line is held, whatever the line ends.  Each
line is looked up as raw bytes in a memo kept per column layout, so a row
repeated from an earlier day yields the row id (or the skip) decided when
it was first seen, and is never decoded.  Under a `prefix,as_path` header
a line the memo has not decided is first matched against one pattern for
a plain line (a prefix of hex digits, dots and colons with a length, then
ASNs of at most nine digits separated by single spaces), which holds no
quote, so csv would read it as just these two cells; such a line is
decided from the match alone.  Only the other lines are decoded, strictly
as UTF-8, and read by the file's one `csv.reader`, so quoted and
multi-line records, csv errors and decode errors behave exactly as with a
plain reader over the decoded text.  When the header holds only the
prefix and AS-path columns and csv ends a record on the line it starts
on, without reading past it, the key is that raw byte line, so a repeated
line costs one dict lookup; otherwise the key is the row's prefix and
AS-path cells, so other columns that change from row to row do not
defeat the memo.  A new row's two cells are parsed on the spot, and of
the path only its two endpoints are kept: they are the row's origin (the
last ASN) and neighbor (the first), and no row reads the ASNs between
them.  A kept row gets the next dense row id, whose prefix, origin and
neighbor the table records once in its columns.  A day is then the tuple
of its rows' ids plus a skip count.  `load_series` keeps one table per
IXP for the whole series and hands its columns to the SnapshotSeries;
the memo is dropped once the series is loaded.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import ipaddress
import operator
import re
from array import array
from itertools import chain
from pathlib import Path
# The C functions themselves: the `socket` module around them takes several
# times as long to import, and nothing else of it is used.
from _socket import AF_INET, AF_INET6, inet_ntop, inet_pton
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .asndb import ASN_MAX


class DateRange(NamedTuple):
    """Inclusive span of calendar days; one that ends before it starts
    holds none."""

    start: dt.date
    end: dt.date

    def days(self) -> Iterator[dt.date]:
        # Counted, not stepped to past `end`: the day after date.max overflows.
        for offset in range((self.end - self.start).days + 1):
            yield self.start + dt.timedelta(days=offset)

    def __contains__(self, day: dt.date) -> bool:
        return self.start <= day <= self.end


_IXP_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def check_ixp(ixp: str) -> str:
    """Reject an IXP id that is not a plain directory and file-name part."""
    if not _IXP_RE.fullmatch(ixp):
        raise ValueError(f"not a usable IXP id: {ixp!r}")
    return ixp


class Snapshot(NamedTuple):
    """One IXP's routing table for one day: the row id of every kept row,
    in file order with duplicates kept, and the count of skipped rows.
    The ids index the columns of the InternTable that parsed the day (and
    of the SnapshotSeries that holds it)."""

    date: dt.date
    entries: tuple[int, ...]
    skipped: int = 0


class SnapshotSeries(NamedTuple):
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


# The header names of a snapshot's prefix and AS-path columns; a row's
# origin and neighbor are the two ends of its path.
PREFIX_COLUMN = "prefix"
AS_PATH_COLUMN = "as_path"


_UNSEEN = object()

# Column indices (prefix, as_path) of one header.
Layout = tuple[int, int]

# A row's (prefix, as_path) cells.
Cells = tuple[str, str]


class InternTable:
    """The parsed form of every distinct row seen so far.

    `rows` maps a column layout to a memo from a row key to the row's id,
    or None for a counted skip.  The key of a row is its raw physical
    line as `bytes`, terminator included and not decoded, when the header
    holds only the prefix and AS-path columns and csv ended the record on
    that line without reading past it, so the line alone holds both cells;
    otherwise it is the row's `Cells`, so other columns play no part in
    it.  What a key of either kind decides depends only on the layout, and
    a layout has its own memo because a line means other cells under
    another header.  A line is decoded, and a row's cells parsed, only
    when its key is first seen.

    Row ids are dense, from 0, one per memo key that decided a kept row;
    `prefix_of`, `origin_of` and `neighbor_of` hold each id's fields, the
    ASNs as unsigned 32-bit array items (4 bytes a row, not a pointer).
    Two keys may decide equal fields (say, paths that differ only between
    their endpoints) and then hold two ids.
    """

    def __init__(self) -> None:
        self.rows: dict[Layout, dict[bytes | Cells, int | None]] = {}
        self.prefix_of: list[str] = []
        self.origin_of = array("I")
        self.neighbor_of = array("I")

    def entry(self, cells: Cells) -> int | None:
        """A new row id for a row's cells, or None when its path or prefix
        is defective."""
        path = _parse_path(cells[1])
        if path is None:
            return None
        return self.add(cells[0], *path)

    def add(self, prefix_text: str, origin: int, neighbor: int) -> int | None:
        """A new row id for a checked path's endpoints, or None when the
        prefix is defective."""
        prefix = _normalize_prefix(prefix_text)
        if prefix is None:
            return None
        self.prefix_of.append(prefix)
        self.origin_of.append(origin)
        self.neighbor_of.append(neighbor)
        return len(self.prefix_of) - 1


# A prefix length in canonical decimal; any other length text is left to
# ipaddress.  The network masks are indexed by length.
_LENGTHS = {str(length): length for length in range(129)}
_MASKS_V4 = tuple((1 << 32) - (1 << (32 - length)) for length in range(33))
_MASKS_V6 = tuple((1 << 128) - (1 << (128 - length)) for length in range(129))


def _normalize_prefix(text: str) -> str | None:
    """Canonical CIDR text for a prefix cell, or None when unparseable.

    The fast path takes `address/len` with a canonical decimal length (no
    leading zeros, up to 32 for IPv4 and 128 for IPv6) and an address the
    C library's `inet_pton` accepts: four dotted decimal octets up to 255
    without leading zeros, or an IPv6 address in any case, compressed or
    exploded.  It masks the host bits and formats the network with
    `inet_ntop`, which for these forms gives the text ipaddress would.
    Every other text goes to `ipaddress.ip_network(..., strict=False)`:
    lengths written otherwise or as a netmask, an address without a length,
    scope ids and whatever `inet_pton` rejects.  So does an IPv6 network
    that `inet_ntop` writes with a dotted IPv4 tail (the IPv4-mapped and
    IPv4-compatible forms), where ipaddress writes hextets.
    """
    text = text.strip()
    address, _, length_text = text.partition("/")
    length = _LENGTHS.get(length_text)
    if length is not None:
        try:
            if ":" in address:
                value = int.from_bytes(inet_pton(AF_INET6, address), "big")
                network = inet_ntop(AF_INET6, (value & _MASKS_V6[length]).to_bytes(16, "big"))
                if "." not in network:
                    return f"{network}/{length_text}"
            elif length <= 32:
                value = int.from_bytes(inet_pton(AF_INET, address), "big")
                masked = value & _MASKS_V4[length]
                if masked == value:
                    return text
                return f"{inet_ntop(AF_INET, masked.to_bytes(4, 'big'))}/{length_text}"
        except (OSError, ValueError):  # ValueError: a NUL or a lone surrogate
            pass
    try:
        return str(ipaddress.ip_network(text, strict=False))
    except ValueError:
        return None


def _parse_path(text: str) -> tuple[int, int] | None:
    """`(origin, neighbor)` for an AS-path cell (its last and first ASN),
    or None when it is empty or holds a token that is not a plain ASN
    (brace-delimited AS_SETs included) or is above ASN_MAX.  Every token
    is checked, but only the endpoints are kept."""
    first = None
    for token in text.split():
        if not (token.isascii() and token.isdigit()):
            return None
        try:
            asn = int(token)
        except ValueError:  # more digits than int() reads: sys.get_int_max_str_digits()
            return None
        if asn > ASN_MAX:
            return None
        if first is None:
            first = asn
    if first is None:
        return None
    return asn, first


# A plain line: a prefix of hex digits, dots and colons with a length, a
# comma, and ASNs of at most nine digits (so within ASN_MAX) separated by
# single spaces, then at most one line end.  It holds no quote, so csv
# reads it as these two cells; group 3 is the last ASN after the first.
_plain_line = re.compile(
    rb"([0-9A-Fa-f.:]+/[0-9]{1,3}),([0-9]{1,9})(?: ([0-9]{1,9}))*(?:\r\n|\n|\r)?").fullmatch


def _resolve_column(header: list[str], name: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ValueError(f"snapshot is missing mapped column {name!r} (header: {header})") from None


# The size of a snapshot read; each block of lines ends at a line end.
_BLOCK = 1 << 18


def _blocks(handle: BinaryIO) -> Iterator[Iterable[bytes]]:
    """The physical lines of a binary stream, each with its terminator,
    as a text stream opened with `newline=""` splits them: at `\n`,
    `\r\n` and a lone `\r`.  They come block by block.  Every read is cut
    at its last line end and the rest is held for the next read: a
    trailing `\r` too, since the next byte may be its `\n`.  A held `\r`
    that the next read does not start with `\n` is a line end of its own.
    A read with no line end is held whole, and the held reads are joined
    once, at the next cut.  So no `\r\n` is cut in two, and at most one
    read plus the longest line is held, whatever the line ends.  A block
    with a `\r` is split by `splitlines`, any other at `\n` alone."""
    held: list[bytes] = []
    while block := handle.read(_BLOCK):
        cut = max(lf := block.rfind(b"\n"), block.rfind(b"\r", lf + 1, -1)) + 1
        if cut or held and held[-1].endswith(b"\r") and not block.startswith(b"\n"):
            # A read cut short is joined through a view, so it is copied
            # once; `block` is rebound, so the read is not kept.
            held.append(block if cut == len(block) else memoryview(block)[:cut])
            held, block = [block[cut:]], b"".join(held)
            yield block.splitlines(keepends=True) if b"\r" in block else io.BytesIO(block)
        else:
            held.append(block)
    # What is held at the end is one line, or none.
    yield b"".join(held).splitlines(keepends=True)


class _LineFeed:
    """The source of a file's one csv.reader: the line handed to it, or
    else the next of `lines` decoded as UTF-8 (for a record that spans
    lines).  After a record, `read_on` tells whether csv asked past the
    line handed to it, which it does even when `lines` has none left."""

    __slots__ = ("lines", "line", "read_on")

    def __init__(self, lines: Iterator[bytes]) -> None:
        self.lines = lines
        self.line: str | None = None
        self.read_on = False

    def __iter__(self) -> "_LineFeed":
        return self

    def __next__(self) -> str:
        line, self.line = self.line, None
        self.read_on = line is None
        return next(self.lines).decode() if line is None else line


def parse_snapshot(
    source: BinaryIO,
    ixp: str,
    date: dt.date,
    intern: InternTable | None = None,
) -> Snapshot:
    """Parse one snapshot CSV from a binary stream.

    Every data row yields either its row id in `intern` or a +1 on the
    skipped counter; blank lines are ignored and duplicate rows are kept,
    each being one announcement.  Rows too short to hold both the
    `prefix` and the `as_path` column, with empty paths, non-numeric path
    tokens (including brace-delimited AS_SET segments) or unparseable
    prefixes are skipped.
    Each line is looked up in the memo as raw bytes.  Under a
    `prefix,as_path` header a line the memo has not decided that is a
    plain line, no longer than csv's field limit, is decided from one
    match of `_plain_line`.  One `csv.reader` reads the header and every
    other line the memo has not decided, and only those lines are
    decoded: the first with `utf-8-sig`, which drops a leading byte-order
    mark, the others as strict UTF-8, so a byte that is not UTF-8 raises
    UnicodeDecodeError (a ValueError).  `intern` is shared by the
    snapshots of one series, and its columns give each id's fields; when
    None a fresh table is used, and the ids then serve only to count
    rows.
    """
    lines = chain.from_iterable(_blocks(source))
    feed = _LineFeed(lines)
    reader = csv.reader(feed)
    # An empty file, or one that is only a byte-order mark, has no header.
    feed.line = next(lines, b"").decode("utf-8-sig") or None
    header = next(reader, None)
    if header is None:
        raise ValueError(f"snapshot for {ixp} {date} has no header row")
    layout: Layout = (_resolve_column(header, PREFIX_COLUMN),
                      _resolve_column(header, AS_PATH_COLUMN))
    cells_of = operator.itemgetter(*layout)
    if intern is None:
        intern = InternTable()
    memo = intern.rows.setdefault(layout, {})
    # A line that holds nothing but the two mapped cells is its own memo
    # key, so a repeated one costs a single lookup.  The two names differ,
    # so they resolve to two columns.
    by_line = len(header) == len(layout)
    # Under a `prefix,as_path` header a plain line is decided from one
    # match.  csv refuses a cell longer than its field limit, so a longer
    # line is left to csv.
    plain = _plain_line if by_line and layout == (0, 1) else None
    limit = csv.field_size_limit()
    entries: list[int] = []
    skipped = 0
    for line in lines:
        entry = memo.get(line, _UNSEEN) if by_line else _UNSEEN
        if entry is _UNSEEN:
            if plain and (match := plain(line)) and len(line) <= limit:
                # csv would end the record on this line with these two
                # cells, so the line is the row's key.
                prefix, neighbor, origin = match.groups()
                entry = memo[line] = intern.add(prefix.decode(), int(origin or neighbor), int(neighbor))
            else:
                feed.line = line.decode()
                row = next(reader)
                if not row:  # a blank line
                    continue
                try:
                    cells = cells_of(row)
                except IndexError:  # a row short of a mapped column is skipped
                    skipped += 1
                    continue
                if by_line and not feed.read_on:
                    # The line just missed the memo and is the row's key.
                    entry = memo[line] = intern.entry(cells)
                else:
                    # Under a header with other columns, or for a record
                    # csv did not end on this line (it read on into the
                    # next lines, or to the end of the file), the key is
                    # the cells.
                    entry = memo.get(cells, _UNSEEN)
                    if entry is _UNSEEN:
                        entry = memo[cells] = intern.entry(cells)
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)

    return Snapshot(date=date, entries=tuple(entries), skipped=skipped)


def snapshot_name(ixp: str, day: dt.date) -> str:
    """`<ixp>/<YYYY-MM-DD>.csv`: a day's snapshot file below the root."""
    return f"{ixp}/{day.isoformat()}.csv"


def snapshot_paths(root: str | Path, ixp: str, days: Iterable[dt.date]) -> Iterator[tuple[dt.date, Path]]:
    """Each day with the path `<root>/<snapshot_name>` of its snapshot
    file, which may not exist.  A missing IXP directory raises
    FileNotFoundError at the call."""
    if not (Path(root) / ixp).is_dir():
        raise FileNotFoundError(f"no snapshot directory for IXP {ixp!r} under {root}")
    return ((day, Path(root, snapshot_name(ixp, day))) for day in days)


def load_series(
    root: str | Path,
    ixp: str,
    window: DateRange,
) -> SnapshotSeries:
    """Load every `<root>/<ixp>/<date>.csv` inside the window, each read
    as bytes by `parse_snapshot`, which decodes only the lines its memo
    has not decided.

    Window days with no file become gaps.  So does a file that cannot be
    used, with a warning naming the file and the reason: one that cannot
    be opened or read, is not UTF-8, is not valid CSV, has no header row
    (an empty file) or lacks a mapped column.  Nothing is fabricated for a
    gap.  A missing IXP directory is a hard error.  The series holds the
    row-id columns of the one InternTable its snapshots share.
    """
    intern = InternTable()
    snapshots: list[Snapshot] = []
    gaps: list[dt.date] = []
    for day, path in snapshot_paths(root, ixp, window.days()):
        try:
            with open(path, "rb") as handle:
                snapshots.append(parse_snapshot(handle, ixp, day, intern))
        except FileNotFoundError:
            gaps.append(day)
        except (OSError, ValueError, csv.Error) as exc:
            # ValueError covers UnicodeDecodeError and parse_snapshot's
            # missing-header and missing-column rejections.
            import logging  # only a bad file needs it
            logging.getLogger(__name__).warning("treating snapshot %s as a gap: %s", path, exc)
            gaps.append(day)
    return SnapshotSeries(ixp=ixp, snapshots=tuple(snapshots), gaps=tuple(gaps),
                          prefix_of=intern.prefix_of, origin_of=intern.origin_of,
                          neighbor_of=intern.neighbor_of)
