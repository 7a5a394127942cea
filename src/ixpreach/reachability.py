"""Baseline-vs-final reachability diffing and loss percentages.

An origin is pronounced unreachable when it was visible in the baseline
snapshot but is absent from the final one, confirmed by also being absent
on the available snapshots of the preceding confirmation window.  The
country's PresenceMap keeps each origin's presence as a bitmask of
snapshot indices.  Its first and last snapshots are the baseline and the
final one (`pipeline.run_analysis` requires both), and the window is one
contiguous index range before the last, so a report is one pass over the
origins' masks with three bit tests per origin; no snapshot is scanned.
A report holds only the facts computed here: the run's dates and window
are `pipeline.RunConfig`'s, which also checks them, and the (IXP,
country) pair is its key in the run's result.
Loss percentages truncate to one decimal; cross-IXP averages round
half-up to two decimals.  The origins CSV (`write_origins_csv`) is the
written form of a PresenceMap: per origin, its first and last snapshot
dates and its present and offline snapshot days.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left
from typing import IO, NamedTuple, Sequence

from .metrics import PresenceMap, read_csv_rows

DEFAULT_CONFIRMATION_WINDOW = 3

ORIGINS_CSV_HEADER = ("asn", "first_seen", "last_seen", "days_present", "days_offline")


class ReachabilityReport(NamedTuple):
    """Which in-country origins an IXP lost between baseline and final."""

    total_baseline: int
    pct_lost: float
    lost_asns: tuple[int, ...]
    new_asns: tuple[int, ...]
    # Origins absent on the final day but seen inside the confirmation
    # window: flaps, not losses.  Reported so the window's effect is visible.
    flapping_asns: tuple[int, ...]


def pct_lost(total: int, lost: int) -> float:
    """Loss percentage truncated (not rounded) to one decimal."""
    if total <= 0:
        raise ValueError("percentage undefined for an empty baseline")
    if not 0 <= lost <= total:
        raise ValueError(f"lost count {lost} outside [0, {total}]")
    return (1000 * lost // total) / 10


def average_pct(pcts: Sequence[float]) -> float:
    """Mean of already-truncated one-decimal percentages, two decimals,
    half-up."""
    if not pcts:
        raise ValueError("cannot average an empty list of percentages")
    tenths = [round(p * 10) for p in pcts]
    hundredths, rem = divmod(10 * sum(tenths), len(tenths))
    if 2 * rem >= len(tenths):
        hundredths += 1
    return hundredths / 100


def diff_reachability(presence: PresenceMap, window: int = DEFAULT_CONFIRMATION_WINDOW) -> ReachabilityReport:
    """Full baseline-vs-final report for one (IXP, country) pair, from the
    pair's origin presence map: its first snapshot is the baseline, its
    last the final one.  `window` is not checked: `RunConfig` refuses a
    negative one.

    Lost origins are baseline origins absent on the final day and on every
    available snapshot of the `window` days before it; gap dates inside
    the window neither confirm nor refute an absence.  Baseline origins
    absent on the final day but seen inside the window are flapping.
    """
    dates = presence.dates
    f = len(dates) - 1  # the final snapshot's index; the baseline's is 0
    # The window's snapshots are the indices [w, f).  A window reaching
    # back to the baseline starts at index 0; the day counts are
    # compared as ints first, since a huge timedelta overflows.
    if window >= (dates[f] - dates[0]).days:
        w = 0
    else:
        w = bisect_left(dates, dates[f] - dt.timedelta(days=window))
    in_window = (1 << f) - (1 << w)
    total = 0
    lost, new, flapping = [], [], []
    for origin, mask in presence.masks.items():
        at_final = mask >> f & 1
        if not mask & 1:
            if at_final:
                new.append(origin)
            continue
        total += 1
        if at_final:
            continue
        if mask & in_window:
            flapping.append(origin)
        else:
            lost.append(origin)
    return ReachabilityReport(
        total_baseline=total,
        pct_lost=pct_lost(total, len(lost)) if total else 0.0,
        lost_asns=tuple(sorted(lost)),
        new_asns=tuple(sorted(new)),
        flapping_asns=tuple(sorted(flapping)),
    )


def write_origins_csv(stream: IO[str], presence: PresenceMap) -> None:
    """Emit one row per origin in ASN order: the first and last snapshot
    dates of its mask, and the snapshot days it is present and offline.
    An offline day is a snapshot day without the origin; a gap day has no
    snapshot, so it is neither."""
    iso = [day.isoformat() + "," for day in presence.dates]
    days = len(iso)
    # The last two cells of a row, by the origin's present days.
    counts = [f"{present},{days - present}\n" for present in range(days + 1)]
    lines = [",".join(ORIGINS_CSV_HEADER) + "\n"]
    lines += [f"{asn},{iso[(mask & -mask).bit_length() - 1]}{iso[mask.bit_length() - 1]}{counts[mask.bit_count()]}"
              for asn, mask in sorted(presence.masks.items())]
    stream.write("".join(lines))


def read_origins_csv(stream: IO[str]) -> list[tuple[int, dt.date, dt.date, int, int]]:
    """The rows written by :func:`write_origins_csv`, in file order, as
    (asn, first_seen, last_seen, days_present, days_offline); a row that
    does not parse raises ValueError as `read_csv_rows` says."""
    iso = dt.date.fromisoformat
    return read_csv_rows(
        stream, ORIGINS_CSV_HEADER, "an origins CSV",
        lambda asn, first, last, present, offline: (int(asn), iso(first), iso(last), int(present), int(offline)))
