"""End-to-end analysis: snapshots + ASN database -> reports and plot data.

This is the engine behind the `analyze` subcommand.  Its result holds
one `PairResult` per (IXP, country) pair, and `write_outputs` writes
every field of it; `synth.verify` judges a run by those files alone,
against synthetic ground truth.  `RunConfig` is the one place a setting
is checked: the stages it feeds trust their arguments, and `write_outputs`
reads the settings and each pair's key from the config, not from the
reports.  All outputs are deterministic: rerunning on unchanged inputs
produces byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import io
import math
from pathlib import Path
from typing import Container, Iterable, NamedTuple

from . import asndb, metrics, outage, reachability, rtingest

DEFAULT_IXPS = ("amsix", "linx", "six", "auix", "spoixbr")
DEFAULT_COUNTRIES = ("UA", "RU")
DEFAULT_BASELINE = dt.date(2022, 2, 19)
DEFAULT_FINAL = dt.date(2022, 4, 29)
SEED_CATALOG = "seed"  # a catalog_path naming the catalog packaged with ixpreach


class _Settings(NamedTuple):  # RunConfig's fields; RunConfig checks them
    asndb_path: Path
    snapshot_root: Path
    output_dir: Path
    ixps: tuple[str, ...] = DEFAULT_IXPS
    countries: tuple[str, ...] = DEFAULT_COUNTRIES
    baseline_date: dt.date = DEFAULT_BASELINE
    final_date: dt.date = DEFAULT_FINAL
    confirmation_window: int = reachability.DEFAULT_CONFIRMATION_WINDOW
    trailing_window: int = outage.DEFAULT_TRAILING_WINDOW
    threshold: float = outage.DEFAULT_THRESHOLD
    min_reference: float = outage.DEFAULT_MIN_REFERENCE
    catalog_path: Path | str | None = None  # a file, or the str SEED_CATALOG


class RunConfig(_Settings):
    """Everything one analysis run needs; defaults encode the 2022 study.
    Every setting is checked here, and only here, before any file is read."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        # A repeated IXP is analysed once.
        ixps = tuple(dict.fromkeys(map(rtingest.check_ixp, self.ixps)))
        if not ixps:
            raise ValueError("at least one IXP is required")
        if not self.countries:
            raise ValueError("at least one country is required")
        if self.baseline_date >= self.final_date:
            raise ValueError("baseline date must precede the final date")
        if self.confirmation_window < 0:
            raise ValueError("confirmation window must be >= 0")
        for country in self.countries:
            if country not in asndb.COUNTRY_CODES or country == "ZZ":
                raise ValueError(f"not a usable country filter: {country!r}")
        if self.trailing_window < 1:
            raise ValueError("trailing_window must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be a fraction in (0, 1)")
        if not math.isfinite(self.min_reference):
            raise ValueError("min_reference must be a finite number")
        if self.min_reference == int(self.min_reference):  # 10.0 renders as 10 does
            return self._replace(ixps=ixps, min_reference=int(self.min_reference))
        return self._replace(ixps=ixps)


class PairResult(NamedTuple):
    """One (IXP, country) pair's results; `write_outputs` writes every
    field, and `synth.verify` reads those files, not this.  `presence`,
    small beside the series, is written as the pair's origins CSV."""

    series: metrics.MetricSeries
    presence: metrics.PresenceMap
    report: reachability.ReachabilityReport
    events: list[outage.OutageEvent]


class AnalysisResult(NamedTuple):
    config: RunConfig
    pairs: dict[tuple[str, str], PairResult]
    averages: dict[str, float]


def run_analysis(config: RunConfig, db: dict[int, str] | None = None) -> AnalysisResult:
    """Run the whole pipeline for every (IXP, country) pair in the config.
    Each IXP needs a usable snapshot on the baseline and the final date:
    a missing end file fails before any table is read, an unusable one (a
    gap) right after that IXP's window is loaded, before its attribution."""
    if db is None:
        db = asndb.load(config.asndb_path)
    catalog = None
    if config.catalog_path == SEED_CATALOG:
        catalog = outage.load_seed_catalog()
    elif config.catalog_path is not None:
        with open(config.catalog_path, encoding="utf-8-sig") as handle:
            catalog = outage.parse_catalog(handle)

    ends = {config.baseline_date: "baseline date", config.final_date: "final date"}
    for ixp in config.ixps:
        paths = rtingest.snapshot_paths(config.snapshot_root, ixp, ends)
        _require_ends(ends, ixp, {day for day, path in paths if path.is_file()})

    window = rtingest.DateRange(config.baseline_date, config.final_date)
    result = AnalysisResult(config, {}, {})
    for ixp in config.ixps:
        series = rtingest.load_series(config.snapshot_root, ixp, window)
        # With an end day a gap the series starts or ends on another day, or is empty.
        _require_ends(ends, ixp, {snap.date for snap in series.snapshots[:1] + series.snapshots[-1:]})
        attributed = metrics.build_series(series, db, config.countries)
        del series  # free this IXP's rows before the next IXP's are read
        for country, (mseries, presence) in attributed.items():
            report = reachability.diff_reachability(presence, config.confirmation_window)
            events: list[outage.OutageEvent] = []
            for metric in metrics.METRIC_NAMES:
                events.extend(outage.detect_dips(
                    mseries, metric,
                    trailing_window=config.trailing_window,
                    threshold=config.threshold,
                    min_reference=config.min_reference))
            if catalog is not None:
                events = outage.annotate(events, catalog)
            result.pairs[ixp, country] = PairResult(mseries, presence, report, events)

    for country in config.countries:
        pcts = [result.pairs[ixp, country].report.pct_lost for ixp in config.ixps]
        result.averages[country] = reachability.average_pct(pcts)
    return result


def _require_ends(ends: dict[dt.date, str], ixp: str, days: Container[dt.date]) -> None:
    """Raise ValueError for the first end day (`ends` names each) not in `days`."""
    for day, what in ends.items():
        if day not in days:
            raise ValueError(f"{what} {day} has no snapshot for IXP {ixp!r}")


def write_outputs(result: AnalysisResult) -> list[Path]:
    """Build the run's files as one table of relative path -> text, write
    it in sorted name order and return the paths written.

    `check_output_dir` runs first, so a directory holding another run's
    files is refused before anything is written.
    """
    config = result.config
    files: dict[str, str] = {}
    for (ixp, country), pair in result.pairs.items():
        files[f"metrics/{ixp}_{country}.csv"] = _text(metrics.write_metrics_csv, pair.series)
        files[f"outages/{ixp}_{country}.csv"] = _text(outage.write_events_csv, pair.events)
        files[f"reachability/{ixp}_{country}_origins.csv"] = _text(reachability.write_origins_csv, pair.presence)
    summary = [
        "analysis summary",
        f"baseline {config.baseline_date} final {config.final_date} "
        f"confirmation {config.confirmation_window}d",
        f"ixps: {', '.join(config.ixps)}",
        f"detector: trailing_window={config.trailing_window} "
        f"threshold={config.threshold} min_reference={config.min_reference}",
    ]
    for country, average in sorted(result.averages.items()):
        table = [
            f"Unreachable {country} origins (baseline {config.baseline_date}, "
            f"final {config.final_date}, confirmation {config.confirmation_window}d)",
            f"{'IXP':<10} {'Total ASes':>10} {'Lost ASes':>10} {'% Lost':>8}",
        ]
        records = []
        for ixp in config.ixps:
            rep = result.pairs[ixp, country].report
            lost = len(rep.lost_asns)
            table.append(f"{ixp:<10} {rep.total_baseline:>10} {lost:>10} {rep.pct_lost:>7.1f}%")
            records.append(
                f"ixp={ixp} country={country} baseline_date={config.baseline_date} "
                f"final_date={config.final_date} confirmation_window={config.confirmation_window} "
                f"total_baseline={rep.total_baseline} lost={lost} pct_lost={rep.pct_lost:.1f} "
                f"lost_asns={_asns(rep.lost_asns)} new_asns={_asns(rep.new_asns)} "
                f"flapping_asns={_asns(rep.flapping_asns)}\n")
        table.append(f"average % lost: {average:.2f}")
        files[f"reachability/{country}_table.txt"] = "\n".join(table) + "\n"
        files[f"reachability/{country}_records.txt"] = "".join(records)
        summary.append(f"{country}: average pct lost {average:.2f} over {len(config.ixps)} IXPs")
    files["summary.txt"] = "\n".join(summary) + "\n"

    out = Path(config.output_dir)
    check_output_dir(out, files)
    for name, text in sorted(files.items()):
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in sorted(files)]


def check_output_dir(root: Path, names: Iterable[str]) -> None:
    """Raise ValueError naming the first entry, in a directory below `root`
    that holds one of the run's files (`names`, relative POSIX paths),
    that is not on the way to one of them.  `root`'s own entries pass."""
    allowed: dict[str, set[str]] = {}
    for name in names:
        parts = name.split("/")
        for depth in range(1, len(parts)):
            allowed.setdefault("/".join(parts[:depth]), set()).add(parts[depth])
    for subdir, entries in sorted(allowed.items()):
        directory = root / subdir
        for entry in sorted(directory.iterdir()) if directory.is_dir() else ():
            if entry.name not in entries:
                raise ValueError(f"{entry} is not an output of this run; use an empty directory")


def _asns(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values))


def _text(write, value) -> str:
    buf = io.StringIO()
    write(buf, value)
    return buf.getvalue()
