"""Deterministic synthetic snapshot datasets with exact ground truth.

A scenario describes a small multi-IXP world (countries, origin counts,
neighbor counts, prefix fan-out) plus a list of injected disruptions.
``generate`` decides every outcome first and then emits routing-table
CSVs, a matching delegated-statistics file and a ground-truth JSON file,
all as a pure function of the scenario, so the analysis pipeline can be
checked against exact expected values without reimplementing it.  The
ground truth saves each fact once (the settings, the daily counts and each
origin's presence mask) and derives the lost, new and flapping origins
from the masks; ``verify`` derives the origins rows from the masks and the
expected dips from the counts.

Disruption kinds:

* ``origin_removal``: selected origins vanish for a date range
* ``permanent_loss``: selected origins vanish from a date onward
* ``neighbor_disconnect``: all routes through selected first-hop ASNs
  vanish for a date range
* ``prefix_shrink``: every origin of a country announces only a
  ``1 - magnitude`` fraction of its prefixes for a date range
* ``join``: brand-new origins start announcing on a date

A route is withheld on a day if any disruption active that day withholds
it: overlapping shrinks of one country act as the largest, and a ``join``
on the window's first day is present from the baseline on.

A scenario file (``load_scenario``) is one JSON object.  ``seed``,
``window`` (``{"start": ..., "end": ...}``), ``ixps`` and ``countries``
are required; ``gap_dates`` (none), ``disruptions`` (none),
``confirmation_window`` (3) and ``detector`` (``trailing_window`` 7,
``threshold`` 0.05, ``min_reference`` 10) are optional.  A country takes
``origin_count`` (one integer or a map of exactly the IXPs),
``prefixes_per_origin`` (``[1, 3]``) and ``neighbor_count`` (1); a
disruption takes ``kind``, ``ixp``, ``country``, ``start`` and the keys
its kind has in ``DISRUPTION_KEYS``.  Any other key is an error, in
``window`` too, and so is an integer given as a float, string or bool, a
negative origin or neighbour count, an IXP named twice, more than 245
IXPs, country ASN blocks reaching the transit ASNs, a gap given twice
or not strictly inside the window, or a country code or setting
``analyze`` would refuse.  The ground truth's baseline and final dates
are the window's first and last days.  ``generate`` refuses a directory
holding another scenario's snapshots before writing.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import random
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Callable, Iterable, TypeVar

from .asndb import REGISTRIES
from .metrics import METRIC_NAMES, read_metrics_csv
from .outage import DEFAULT_MIN_REFERENCE, DEFAULT_THRESHOLD, DEFAULT_TRAILING_WINDOW, read_events_csv
from .pipeline import AnalysisResult, RunConfig, check_output_dir
from .reachability import DEFAULT_CONFIRMATION_WINDOW, read_origins_csv
from .rtingest import AS_PATH_COLUMN, PREFIX_COLUMN, DateRange, snapshot_name, snapshot_paths

# Each disruption kind -> the keys it takes besides kind, ixp, country and
# start.  Each is required, and no other key is allowed.
DISRUPTION_KEYS = {
    "origin_removal": ("end", "count"),
    "permanent_loss": ("count",),
    "neighbor_disconnect": ("end", "count"),
    "prefix_shrink": ("end", "magnitude"),
    "join": ("count",),
}

DEFAULT_DETECTOR = {"trailing_window": DEFAULT_TRAILING_WINDOW, "threshold": DEFAULT_THRESHOLD,
                    "min_reference": DEFAULT_MIN_REFERENCE}

_COUNTRY_BLOCK_BASE = 10000
_FIRST_OCTET = 11  # IXP i's IPv4 prefixes are /24s of first octet _FIRST_OCTET + i
_TRANSIT_REGISTERED = tuple(range(900000, 900006))  # registered under the ZZ placeholder
_TRANSIT_UNREGISTERED = tuple(range(900010, 900016))
_FOREIGN_NEIGHBOR_BASE = 950000  # per-IXP pool of unregistered first hops


@dataclass(frozen=True)
class CountrySpec:
    """Per-country sizing: origin_count may be one number or a per-IXP map."""

    origin_count: int | dict[str, int]
    prefixes_per_origin: tuple[int, int] = (1, 3)
    neighbor_count: int = 1

    def origins_at(self, ixp: str) -> int:
        if isinstance(self.origin_count, dict):
            return self.origin_count[ixp]
        return self.origin_count

    def max_origins(self) -> int:
        if isinstance(self.origin_count, dict):
            return max(self.origin_count.values())
        return self.origin_count


@dataclass(frozen=True)
class Disruption:
    kind: str
    ixp: str
    country: str
    start: dt.date
    end: dt.date | None = None
    count: int | None = None
    magnitude: float | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    window: DateRange
    ixps: tuple[str, ...]
    countries: dict[str, CountrySpec]
    disruptions: tuple[Disruption, ...] = ()
    gap_dates: tuple[dt.date, ...] = ()
    confirmation_window: int = DEFAULT_CONFIRMATION_WINDOW
    detector: dict = field(default_factory=lambda: dict(DEFAULT_DETECTOR))

    @property
    def baseline(self) -> dt.date:
        return self.window.start

    @property
    def final(self) -> dt.date:
        return self.window.end

    def snapshot_days(self) -> list[dt.date]:
        gaps = set(self.gap_dates)
        return [day for day in self.window.days() if day not in gaps]


@dataclass
class GroundTruth:
    """Expected pipeline outputs for one generated scenario.  Saved, each
    fact once: what `generate` decided, the settings, the daily counts and
    each origin's presence mask.  Derived on construction: the snapshot
    days and each pair's lost, new and flapping origins."""

    seed: int
    window: DateRange
    confirmation_window: int
    ixps: tuple[str, ...]
    countries: tuple[str, ...]
    gap_dates: tuple[dt.date, ...]
    detector: dict
    # metrics[ixp][country][date] = (announcements, distinct_origins,
    #                                distinct_prefixes, distinct_neighbors)
    metrics: dict[str, dict[str, dict[dt.date, tuple[int, int, int, int]]]]
    # presence[ixp][country][asn] has bit i set when the origin is announced
    # on the i-th snapshot day.
    presence: dict[str, dict[str, dict[int, int]]]
    # The window less the gap dates, in order.
    snapshot_days: tuple[dt.date, ...] = field(init=False)
    unreachable: dict[str, dict[str, tuple[int, ...]]] = field(init=False)
    new_origins: dict[str, dict[str, tuple[int, ...]]] = field(init=False)
    # Baseline origins absent on the final day but present on a snapshot
    # of the confirmation window before it: flaps, not losses.
    flapping_origins: dict[str, dict[str, tuple[int, ...]]] = field(init=False)

    @property
    def baseline_date(self) -> dt.date:
        return self.window.start

    @property
    def final_date(self) -> dt.date:
        return self.window.end

    def __post_init__(self) -> None:
        gaps = set(self.gap_dates)
        self.snapshot_days = tuple(day for day in self.window.days() if day not in gaps)
        # Day counts, not timedeltas: a window of any size stays inside the date type.
        confirm = sum(1 << index for index, day in enumerate(self.snapshot_days)
                      if 0 < (self.final_date - day).days <= self.confirmation_window)
        final_bit = 1 << (len(self.snapshot_days) - 1)
        self.unreachable, self.new_origins, self.flapping_origins = {}, {}, {}
        for ixp, per in self.presence.items():
            self.unreachable[ixp], self.new_origins[ixp], self.flapping_origins[ixp] = {}, {}, {}
            for cc, masks in per.items():
                base = {asn for asn, mask in masks.items() if mask & 1}
                final_present = {asn for asn, mask in masks.items() if mask & final_bit}
                lost = {asn for asn in base if not masks[asn] & (final_bit | confirm)}
                self.unreachable[ixp][cc] = tuple(sorted(lost))
                self.new_origins[ixp][cc] = tuple(sorted(final_present - base))
                self.flapping_origins[ixp][cc] = tuple(sorted(base - final_present - lost))

    def save(self, path: str | Path) -> None:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        doc["window"] = (self.window.start, self.window.end)
        Path(path).write_text(json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        iso = dt.date.fromisoformat
        return cls(
            seed=doc["seed"],
            window=DateRange(iso(doc["window"][0]), iso(doc["window"][1])),
            confirmation_window=doc["confirmation_window"],
            ixps=tuple(doc["ixps"]),
            countries=tuple(doc["countries"]),
            gap_dates=tuple(iso(d) for d in doc["gap_dates"]),
            detector=doc["detector"],
            metrics={ixp: {cc: {iso(day): tuple(vals) for day, vals in per_cc.items()}
                           for cc, per_cc in per.items()}
                     for ixp, per in doc["metrics"].items()},
            presence={ixp: {cc: {int(asn): mask for asn, mask in per_cc.items()}
                            for cc, per_cc in per.items()}
                      for ixp, per in doc["presence"].items()},
        )


def _plain(value):
    """`value` as JSON data: dates as ISO text, tuples as lists, dict keys as text."""
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


class ScenarioError(ValueError):
    pass


def _check_number(where: str, value, integer: bool = False) -> None:
    """Refuse a non-number, or a non-integer if `integer`; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ScenarioError(f"{where} must be {'an integer' if integer else 'a number'}, got {value!r}")


def _validate(spec: ScenarioSpec) -> None:
    _check_number("seed", spec.seed, integer=True)
    _check_number("confirmation_window", spec.confirmation_window, integer=True)
    for key in DEFAULT_DETECTOR:
        _check_number(f"detector {key}", spec.detector.get(key), integer=key == "trailing_window")
    try:  # what analyze would refuse
        RunConfig(Path(), Path(), Path(), spec.ixps, tuple(spec.countries), spec.baseline,
                  spec.final, spec.confirmation_window, **spec.detector)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    if len(set(spec.ixps)) != len(spec.ixps):  # RunConfig drops a repeat
        raise ScenarioError(f"ixps: an IXP is named twice in {', '.join(spec.ixps)}")
    if len(spec.ixps) > 256 - _FIRST_OCTET:
        raise ScenarioError(f"ixps: at most {256 - _FIRST_OCTET} IXPs (IXP i's IPv4 prefixes take first octet "
                            f"{_FIRST_OCTET} + i), got {len(spec.ixps)}")
    if set(spec.detector) != set(DEFAULT_DETECTOR):  # RunConfig takes other keywords too
        raise ScenarioError(f"detector: keys must be {', '.join(DEFAULT_DETECTOR)}")
    gaps = set(spec.gap_dates)
    if len(gaps) != len(spec.gap_dates) or not all(spec.baseline < day < spec.final for day in gaps):
        raise ScenarioError("gap dates must be distinct days inside the window, not its first or last")
    if len(spec.snapshot_days()) < spec.detector["trailing_window"] + 1:
        raise ScenarioError("window too short for the dip detector")
    for cc, cspec in spec.countries.items():
        lo, hi = cspec.prefixes_per_origin
        for value in (lo, hi):
            _check_number(f"{cc}: prefixes_per_origin", value, integer=True)
        if not 1 <= lo <= hi:
            raise ScenarioError(f"{cc}: bad prefixes_per_origin range {cspec.prefixes_per_origin}")
        _check_number(f"{cc}: neighbor_count", cspec.neighbor_count, integer=True)
        if cspec.neighbor_count < 0:
            raise ScenarioError(f"{cc}: neighbor_count must be >= 0, got {cspec.neighbor_count}")
        counts = cspec.origin_count
        if not isinstance(counts, dict):
            counts = dict.fromkeys(spec.ixps, counts)
        if counts.keys() != set(spec.ixps):
            raise ScenarioError(f"{cc}: origin_count must name exactly the IXPs {', '.join(spec.ixps)}")
        for ixp, count in counts.items():
            _check_number(f"{cc}: origin_count at {ixp}", count, integer=True)
            if cspec.neighbor_count > count:
                raise ScenarioError(f"{cc}: more neighbors than origins at {ixp}")
    for i, d in enumerate(spec.disruptions):
        where = f"disruption #{i} ({d.kind})"
        keys = DISRUPTION_KEYS.get(d.kind)
        if keys is None:
            raise ScenarioError(f"{where}: unknown kind")
        if d.ixp not in spec.ixps or d.country not in spec.countries:
            raise ScenarioError(f"{where}: unknown ixp or country")
        if d.start not in spec.window:
            raise ScenarioError(f"{where}: start outside window")
        for key in ("end", "count", "magnitude"):
            if (getattr(d, key) is None) == (key in keys):
                raise ScenarioError(f"{where}: {'needs' if key in keys else 'takes no'} {key}")
        if d.end is not None and (d.end < d.start or d.end not in spec.window):
            raise ScenarioError(f"{where}: needs an end date inside the window")
        if d.count is not None:
            _check_number(f"{where}: count", d.count, integer=True)
            if d.count < 1:
                raise ScenarioError(f"{where}: needs a positive count")
        if d.magnitude is not None:
            _check_number(f"{where}: magnitude", d.magnitude)
            if not 0 < d.magnitude <= 1:
                raise ScenarioError(f"{where}: magnitude must be in (0, 1]")
        if d.kind == "neighbor_disconnect" and spec.countries[d.country].neighbor_count < 1:
            raise ScenarioError(f"{where}: country has no neighbors to disconnect")
    *_, (start, regular, reserve) = _country_blocks(spec).values()
    if start + regular + reserve > _TRANSIT_REGISTERED[0]:
        raise ScenarioError(f"countries: origin and join ASNs must stay below the transit ASNs from "
                            f"{_TRANSIT_REGISTERED[0]}; the last block ends at {start + regular + reserve - 1}")


@dataclass(frozen=True)
class _Route:
    country: str
    origin: int
    prefix: str
    first_hop: int
    line: str  # the written row: prefix,as_path
    mult: int
    prefix_index: int
    prefix_total: int


def _country_blocks(spec: ScenarioSpec) -> dict[str, tuple[int, int, int]]:
    """country -> (block start, regular size, reserve size for joins), in code order."""
    blocks = {}
    next_start = _COUNTRY_BLOCK_BASE
    for cc in sorted(spec.countries):
        regular = spec.countries[cc].max_origins()
        reserve = sum(d.count for d in spec.disruptions if d.kind == "join" and d.country == cc)
        blocks[cc] = (next_start, regular, reserve)
        next_start += ((regular + reserve) // 1000 + 1) * 1000
    return blocks


def _prefix(ixp_index: int, counter: list[int], v6: bool) -> str:
    """The IXP's next prefix, a /64 if `v6` else a /24; `counter[0]` is
    how many it has handed out."""
    n = counter[0]
    if n >= 1 << 16:
        raise ScenarioError("too many prefixes for one IXP")
    counter[0] = n + 1
    return f"2001:db8:{ixp_index:x}:{n:x}::/64" if v6 else f"{_FIRST_OCTET + ixp_index}.{n >> 8}.{n & 0xFF}.0/24"


def _build_origin_routes(
    rng: random.Random,
    country: str,
    origin: int,
    origin_index: int,
    neighbors: list[int],
    foreign: list[int],
    transit: tuple[int, ...],
    prefix_range: tuple[int, int],
    ixp_index: int,
    counter: list[int],
) -> list[_Route]:
    prefixes = [_prefix(ixp_index, counter, False) for _ in range(rng.randint(*prefix_range))]
    if origin_index % 7 == 3:
        prefixes.append(_prefix(ixp_index, counter, True))

    if origin in neighbors:
        home = origin
    elif not neighbors or rng.random() < 0.2:
        home = foreign[rng.randrange(len(foreign))]
    else:
        home = neighbors[rng.randrange(len(neighbors))]

    if home == origin:
        path = [origin]
    elif rng.random() < 0.35:
        path = [home, transit[rng.randrange(len(transit))], origin]
    else:
        path = [home, origin]
    if rng.random() < 0.15:
        path = [path[0]] + path  # announced with a prepended first hop

    path_text = " ".join(map(str, path))
    total = len(prefixes)
    return [
        _Route(country, origin, prefix, path[0], f"{prefix},{path_text}",
               2 if rng.random() < 0.08 else 1, j, total)
        for j, prefix in enumerate(prefixes)
    ]


def _withheld_by(d: Disruption, targets: frozenset[int]) -> Callable[[_Route], bool]:
    """Whether `d` withholds a route on a day of its entry: by its origin (a
    removal, a loss, a join before its day), first hop or prefix index."""
    if d.kind == "prefix_shrink":
        cc, keep = d.country, 1 - d.magnitude
        return lambda route: route.country == cc and route.prefix_index >= math.floor(route.prefix_total * keep)
    if d.kind == "neighbor_disconnect":
        return lambda route: route.first_hop in targets
    return lambda route: route.origin in targets


def generate(spec: ScenarioSpec, out: str | Path) -> GroundTruth:
    """Write snapshot CSVs, a delegated file and ground truth under `out`.

    Output is byte-for-byte a pure function of the scenario.
    """
    _validate(spec)
    out_dir = Path(out)
    snapshots_dir = out_dir / "snapshots"
    ixps = list(spec.ixps)
    snapshot_days = spec.snapshot_days()
    check_output_dir(out_dir, [f"snapshots/{snapshot_name(ixp, day)}" for ixp in ixps for day in snapshot_days])

    blocks = _country_blocks(spec)
    # (registry, country, first ASN, count, status) of each delegated row.
    delegations = [(REGISTRIES[idx % len(REGISTRIES)], cc, start, regular + reserve, "assigned")
                   for idx, (cc, (start, regular, reserve)) in enumerate(blocks.items())]
    delegations.append(("arin", "ZZ", _TRANSIT_REGISTERED[0], len(_TRANSIT_REGISTERED), "allocated"))
    registered = {asn: cc for _, cc, first, count, _ in delegations for asn in range(first, first + count)}
    transit_pool = _TRANSIT_REGISTERED + _TRANSIT_UNREGISTERED

    countries = sorted(spec.countries)

    origins_at: dict[tuple[str, str], list[int]] = {}
    neighbors_at: dict[tuple[str, str], list[int]] = {}
    for ixp in ixps:
        for cc in countries:
            start, _, _ = blocks[cc]
            cspec = spec.countries[cc]
            origins_at[(ixp, cc)] = [start + i for i in range(cspec.origins_at(ixp))]
            neighbors_at[(ixp, cc)] = origins_at[(ixp, cc)][: cspec.neighbor_count]

    # Each disruption is resolved up front, so sampling never depends on
    # the day loop, into one (first day, last day, test) entry of its IXP.
    withheld: dict[str, list[tuple[dt.date, dt.date, Callable[[_Route], bool]]]] = {ixp: [] for ixp in ixps}
    joins: dict[tuple[str, str], list[int]] = {}
    join_pointer = {cc: 0 for cc in countries}
    for i, d in enumerate(spec.disruptions):
        first, last, targets = d.start, d.end, ()
        if d.kind == "join":
            start, regular, _ = blocks[d.country]
            targets = [start + regular + join_pointer[d.country] + j for j in range(d.count)]
            join_pointer[d.country] += d.count
            joins.setdefault((d.ixp, d.country), []).extend(targets)
            if d.start == spec.window.start:
                continue  # announced from the baseline on
            first, last = spec.window.start, d.start - dt.timedelta(days=1)
        elif d.kind != "prefix_shrink":
            pool = neighbors_at[(d.ixp, d.country)] if d.kind == "neighbor_disconnect" else origins_at[(d.ixp, d.country)]
            if d.count > len(pool):
                raise ScenarioError(f"disruption #{i}: count {d.count} exceeds pool of {len(pool)}")
            targets = random.Random(f"disrupt:{spec.seed}:{i}").sample(pool, d.count)
            if d.kind == "permanent_loss":
                last = spec.window.end
        withheld[d.ixp].append((first, last, _withheld_by(d, frozenset(targets))))

    # Build the static route table per IXP.
    routes_by_ixp: dict[str, list[_Route]] = {}
    for ixp_index, ixp in enumerate(ixps):
        counter = [0]
        foreign = [_FOREIGN_NEIGHBOR_BASE + 10 * ixp_index + k for k in range(3)]
        routes: list[_Route] = []
        for cc in countries:
            cspec = spec.countries[cc]
            rng = random.Random(f"world:{spec.seed}:{ixp}:{cc}")
            neighbors = neighbors_at[(ixp, cc)]
            for idx, origin in enumerate(origins_at[(ixp, cc)]):
                routes.extend(_build_origin_routes(
                    rng, cc, origin, idx, neighbors, foreign, transit_pool,
                    cspec.prefixes_per_origin, ixp_index, counter))
            for idx, origin in enumerate(joins.get((ixp, cc), [])):
                jrng = random.Random(f"join:{spec.seed}:{ixp}:{cc}:{origin}")
                routes.extend(_build_origin_routes(
                    jrng, cc, origin, idx, neighbors, foreign, transit_pool,
                    cspec.prefixes_per_origin, ixp_index, counter))
        routes_by_ixp[ixp] = routes

    # Walk the calendar emitting snapshots and recording outcomes.
    gt_metrics: dict[str, dict[str, dict[dt.date, tuple[int, int, int, int]]]] = {}
    presence: dict[str, dict[str, dict[int, int]]] = {ixp: {cc: {} for cc in countries} for ixp in ixps}
    header = f"{PREFIX_COLUMN},{AS_PATH_COLUMN}\n"

    for ixp in ixps:
        (snapshots_dir / ixp).mkdir(parents=True, exist_ok=True)
        gt_metrics[ixp] = {cc: {} for cc in countries}
        for index, (day, path) in enumerate(snapshot_paths(snapshots_dir, ixp, snapshot_days)):
            tests = [test for first, last, test in withheld[ixp] if first <= day <= last]
            rows: list[str] = []
            first_hops: set[int] = set()
            ann = {cc: 0 for cc in countries}
            day_origins: dict[str, set[int]] = {cc: set() for cc in countries}
            day_prefixes: dict[str, set[str]] = {cc: set() for cc in countries}
            for route in routes_by_ixp[ixp]:
                if tests and any(test(route) for test in tests):
                    continue
                for _ in range(route.mult):
                    rows.append(route.line)
                cc = route.country
                ann[cc] += route.mult
                day_origins[cc].add(route.origin)
                day_prefixes[cc].add(route.prefix)
                first_hops.add(route.first_hop)

            for cc in countries:
                neigh = sum(1 for hop in first_hops if registered.get(hop) == cc)
                gt_metrics[ixp][cc][day] = (ann[cc], len(day_origins[cc]), len(day_prefixes[cc]), neigh)
                masks = presence[ixp][cc]
                for asn in day_origins[cc]:
                    masks[asn] = masks.get(asn, 0) | 1 << index

            random.Random(f"rows:{spec.seed}:{ixp}:{day.isoformat()}").shuffle(rows)
            path.write_text(header + "".join(r + "\n" for r in rows), encoding="utf-8")

    _write_delegated(out_dir / "delegated.txt", delegations)

    gt = GroundTruth(
        seed=spec.seed,
        window=spec.window,
        confirmation_window=spec.confirmation_window,
        ixps=tuple(ixps),
        countries=tuple(countries),
        gap_dates=tuple(sorted(spec.gap_dates)),
        detector=dict(spec.detector),
        metrics=gt_metrics,
        presence=presence,
    )
    gt.save(out_dir / "ground_truth.json")
    return gt


def _expected_dip_spans(dates, values, trailing_window, threshold, min_reference):
    """The documented dip rule applied plainly to one value list."""
    spans = []
    current = None
    for i, value in enumerate(values):
        dip = False
        if i > 0:
            reference = statistics.median(values[max(0, i - trailing_window):i])
            dip = reference >= min_reference and value < (1 - threshold) * reference
        if dip:
            current = [dates[i], dates[i]] if current is None else [current[0], dates[i]]
        elif current is not None:
            spans.append((current[0], current[1]))
            current = None
    if current is not None:
        spans.append((current[0], current[1]))
    return spans


def _write_delegated(path: Path, delegations: list[tuple[str, str, int, int, str]]) -> None:
    """One combined delegated-statistics file, a row per delegation."""
    rows = [f"{registry}|{cc}|asn|{first}|{count}|20200101|{status}"
            for registry, cc, first, count, status in delegations]
    lines = [
        "2|ripencc|20220219|{}|20200101|20220218|+0000".format(len(rows)),
        "# synthetic delegated statistics",
        "ripencc|*|asn|*|{}|summary".format(len(rows)),
    ]
    path.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")


def verify(gt: GroundTruth, result: AnalysisResult) -> list[str]:
    """Compare the files a run wrote against ground truth; [] means a
    clean run.

    Of `result` only `config.output_dir` is read.  For each (IXP, country)
    pair of the ground truth, under that directory: `metrics/<ixp>_<cc>.csv`,
    `outages/<ixp>_<cc>.csv`, `reachability/<ixp>_<cc>_origins.csv` and
    the `lost_asns`, `new_asns` and `flapping_asns` of the pair's line in
    `reachability/<cc>_records.txt`.  A pair without its metrics file is
    missing; another of its files that is missing or does not parse is
    one problem naming that file.

    Each origins row (asn, first_seen, last_seen, days_present,
    days_offline) is derived from the origin's presence mask over the
    truth's snapshot days, the window less its gap dates, and compared
    whole.  Each metric's expected outage spans are the documented dip
    rule applied to the truth's daily counts with its detector settings.
    """
    out = Path(result.config.output_dir)
    days = gt.snapshot_days
    problems: list[str] = []
    for ixp in gt.ixps:
        for cc in gt.countries:
            where = f"{ixp}/{cc}"
            metrics_path = out / "metrics" / f"{ixp}_{cc}.csv"
            if not metrics_path.is_file():
                problems.append(f"{where}: pair missing from pipeline output")
                continue
            try:
                series = _read(metrics_path, read_metrics_csv)
                events = _read(out / "outages" / f"{ixp}_{cc}.csv", read_events_csv)
                origins = _read(out / "reachability" / f"{ixp}_{cc}_origins.csv", read_origins_csv)
                lost_asns, new_asns, flapping_asns = _records_asns(out / "reachability" / f"{cc}_records.txt", ixp)
            except (OSError, ValueError) as exc:
                problems.append(f"{where}: {exc}")
                continue
            expected = gt.metrics[ixp][cc]
            expected_dates = sorted(expected)
            got_dates = list(series.dates)
            if got_dates != expected_dates:
                missing = min(set(expected_dates) - set(got_dates), default="none")
                extra = min(set(got_dates) - set(expected_dates), default="none")
                problems.append(
                    f"{where}: series covers {len(got_dates)} days, expected {len(expected_dates)}; "
                    f"first missing {missing}, first extra {extra}")
            for day, got in zip(series.dates, zip(*map(series.values, METRIC_NAMES))):
                want = expected.get(day)
                if want is not None and got != want:
                    problems.append(f"{where} {day}: expected {want}, got {got}")

            if lost_asns != gt.unreachable[ixp][cc]:
                problems.append(f"{where}: lost origins differ "
                                f"(expected {len(gt.unreachable[ixp][cc])}, got {len(lost_asns)})")
            if new_asns != gt.new_origins[ixp][cc]:
                problems.append(f"{where}: new origins differ")
            if flapping_asns != gt.flapping_origins[ixp][cc]:
                problems.append(f"{where}: flapping origins differ")

            want_rows = [(asn, days[(mask & -mask).bit_length() - 1], days[mask.bit_length() - 1],
                          mask.bit_count(), len(days) - mask.bit_count())
                         for asn, mask in sorted(gt.presence[ixp][cc].items())]
            if [row[0] for row in origins] != [row[0] for row in want_rows]:
                problems.append(f"{where}: presence covers different origins")
            else:
                for got, want in zip(origins, want_rows):
                    if got != want:
                        problems.append(f"{where} AS{want[0]}: origins row {','.join(map(str, got))} "
                                        f"!= expected {','.join(map(str, want))}")

            columns = zip(*(expected[day] for day in expected_dates))
            for metric, values in zip(METRIC_NAMES, columns):
                got_spans = tuple((e.start, e.end) for e in events if e.metric == metric)
                want_spans = tuple(_expected_dip_spans(expected_dates, values, **gt.detector))
                if got_spans != want_spans:
                    problems.append(
                        f"{where} {metric}: outage spans {_fmt_spans(got_spans)} "
                        f"!= expected {_fmt_spans(want_spans)}")
    return problems


T = TypeVar("T")


def _read(path: Path, read: Callable[[IO[str]], T]) -> T:
    with open(path, newline="", encoding="utf-8") as handle:
        return read(handle)


def _records_asns(path: Path, ixp: str) -> tuple[tuple[int, ...], ...]:
    """The `lost_asns`, `new_asns` and `flapping_asns` of `ixp`'s line of a
    records file; ValueError naming the file when that line is missing or
    does not parse."""
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = dict(cell.partition("=")[::2] for cell in line.split(" "))
        if fields.get("ixp") == ixp:
            try:
                return tuple(tuple(map(int, filter(None, fields[key].split(","))))
                             for key in ("lost_asns", "new_asns", "flapping_asns"))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: the line for IXP {ixp!r} does not parse: {exc!r}") from None
    raise ValueError(f"{path}: no line for IXP {ixp!r}")


def _fmt_spans(spans: Iterable[tuple[dt.date, dt.date]]) -> str:
    return "[" + ", ".join(f"{a}..{b}" for a, b in spans) + "]"


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario description from its JSON file."""
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _check_keys(doc: dict, cls: type, where: str) -> None:
    unknown = set(doc).difference(cls._fields if issubclass(cls, tuple) else (f.name for f in fields(cls)))
    if unknown:
        raise ScenarioError(f"{where}: unknown key {', '.join(map(repr, sorted(unknown)))}")


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    """A validated scenario from its JSON document; every key must name a
    field of ScenarioSpec, DateRange (in `window`), CountrySpec or
    Disruption, and dates are ISO text.  A key left out takes the field's
    default."""
    iso = dt.date.fromisoformat
    try:
        _check_keys(doc, ScenarioSpec, "scenario")
        _check_keys(doc["window"], DateRange, "window")
        countries = {}
        for cc, c in doc["countries"].items():
            _check_keys(c, CountrySpec, f"country {cc}")
            countries[cc] = CountrySpec(**c)
        disruptions = []
        for i, d in enumerate(doc.get("disruptions", [])):
            _check_keys(d, Disruption, f"disruption #{i}")
            dates = {key: iso(d[key]) for key in ("start", "end") if key in d}
            disruptions.append(Disruption(**{**d, **dates}))
        window = DateRange(iso(doc["window"]["start"]), iso(doc["window"]["end"]))
        if window.end < window.start:
            raise ValueError(f"date range ends before it starts: {window.start}..{window.end}")
        spec = ScenarioSpec(**{
            **doc,
            "window": window,
            "ixps": tuple(doc["ixps"]),
            "countries": countries,
            "disruptions": tuple(disruptions),
            "gap_dates": tuple(map(iso, doc.get("gap_dates", []))),
            "detector": {**DEFAULT_DETECTOR, **doc.get("detector", {})},
        })
        _validate(spec)
    except ScenarioError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad scenario document: {exc}") from exc
    return spec


def random_scenario(seed: int) -> ScenarioSpec:
    """A randomized but valid scenario over the study's 5 IXPs and 70 days,
    for oracle-equivalence testing."""
    ixps = ("amsix", "linx", "six", "auix", "spoixbr")
    countries = ("UA", "RU", "DE")
    days = 70
    start = dt.date(2022, 2, 19)
    rng = random.Random(f"scenario:{seed}")
    window = DateRange(start, start + dt.timedelta(days=days - 1))
    country_specs = {}
    for cc in countries:
        country_specs[cc] = CountrySpec(
            origin_count=rng.randint(18, 45),
            prefixes_per_origin=(1, rng.randint(2, 4)),
            neighbor_count=rng.randint(0, 3),
        )

    interior = [start + dt.timedelta(days=off) for off in range(3, days - 5)]
    gap_dates = tuple(sorted(rng.sample(interior, rng.randint(0, 2))))

    disruptions = []
    for ixp in ixps:
        for cc in countries:
            cspec = country_specs[cc]
            for _ in range(rng.randint(0, 2)):
                kinds = ["origin_removal", "permanent_loss", "prefix_shrink", "join"]
                if cspec.neighbor_count >= 1:
                    kinds.append("neighbor_disconnect")
                kind = rng.choice(kinds)
                day0 = start + dt.timedelta(days=rng.randint(4, days - 10))
                if kind == "origin_removal":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 5)),
                        count=rng.randint(1, max(1, cspec.max_origins() // 5))))
                elif kind == "permanent_loss":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, count=rng.randint(1, max(1, cspec.max_origins() // 6))))
                elif kind == "prefix_shrink":
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 3)),
                        magnitude=round(rng.uniform(0.2, 0.5), 2)))
                elif kind == "join":
                    disruptions.append(Disruption(kind, ixp, cc, day0, count=rng.randint(1, 2)))
                else:
                    disruptions.append(Disruption(
                        kind, ixp, cc, day0, day0 + dt.timedelta(days=rng.randint(0, 2)), count=1))

    return ScenarioSpec(
        seed=seed,
        window=window,
        ixps=ixps,
        countries=country_specs,
        disruptions=tuple(disruptions),
        gap_dates=gap_dates,
    )
