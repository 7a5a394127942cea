"""Seeded input trees for the analyze benchmark.

Each workload is a `synth` scenario, whose ground truth is exact for the
analysed countries, plus rows that the oracle never counts:

* background routes: foreign origins (registered to countries outside the
  analysed set, or not registered at all) behind unregistered first hops,
  in an address block of their own;
* malformed rows the parser must skip (AS_SETs, bad prefixes, empty paths,
  ASNs above 2**32 - 1).

Every tree also carries a full-size registry: five per-registry delegated
files holding the scenario's country blocks and about 110 k background
ASNs.  Background ASNs stay clear of synth's country blocks (10000 up),
its transit ASNs (900000-900015) and its foreign first hops (950000 up),
so the ground truth stays exact.

The program sees only `snapshots/` and `rir/`; `ground_truth.json` and
`props.json` are for the correctness gate and the report.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import random
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from ixpreach import synth
from ixpreach.asndb import REGISTRIES
from ixpreach.rtingest import DateRange
from ixpreach.synth import CountrySpec, Disruption, ScenarioSpec

# Bump whenever the bytes a plan produces change, so cached trees rebuild.
GENERATOR_VERSION = 3

WORKLOADS = ("paper-5x70", "wide-table", "all-countries")

PREFIX_CACHE_SIZE = 1 << 16  # rtingest._normalize_prefix's lru_cache bound

PAPER_IXPS = ("amsix", "linx", "six", "auix", "spoixbr")
PAPER_UA = (1016, 1335, 1571, 1021, 1096)
PAPER_UA_LOST = (87, 254, 164, 92, 96)
PAPER_RU = (3749, 2886, 421, 415, 419)
PAPER_RU_LOST = (117, 109, 62, 78, 61)
PAPER_AVERAGES = {"UA": "11.12", "RU": "10.94"}

ALL_COUNTRIES = ("BR", "CH", "CN", "DE", "ES", "FR", "GB", "IN",
                 "IT", "JP", "NL", "PL", "RU", "SE", "UA", "US")

# About 230 two-letter codes, none of them analysed by any workload.
BACKGROUND_CCS = tuple(
    a + b for a, b in itertools.product("ABCDEFGHIJKLMNOPQRSTUVWXY", repeat=2)
    if a + b not in ALL_COUNTRIES)[::3]

REGISTRY_ASNS = 110_000
_REGISTERED_BASE = 100_000    # background registry ASNs live in [100000, 800000)
_UNREGISTERED_BASE = 800_000  # background origins nobody registered: [800000, 900000)
_FIRST_HOP_BASE = 970_000     # unregistered background first hops
_BAD_REGISTRY_ROWS = (
    "ripencc|xx|asn|{asn}|1|20100101|allocated",       # bad country code
    "arin|US|asn|{asn}x|1|20100101|assigned",          # non-numeric start
    "apnic|JP|asn|{asn}|1|2010-01-01|allocated",       # bad date
    "lacnic|BR|asn|4294967290|16|20100101|allocated",  # range past ASN_MAX
)


@dataclass(frozen=True)
class Plan:
    """Everything that decides one generated tree."""

    name: str
    seed: int
    spec: ScenarioSpec
    background: int = 0        # distinct background prefixes per IXP-day
    churn: float = 0.0         # share of background prefixes replaced each day
    malformed: int = 0         # malformed rows per IXP-day
    registry_asns: int = REGISTRY_ASNS  # background ASNs in the delegated files
    pinned_averages: dict | None = None  # averages the summary must print


def _day(start: dt.date, offset: int) -> dt.date:
    return start + dt.timedelta(days=offset)


def plan(name: str, seed: int, tiny: bool = False) -> Plan:
    """The seeded plan for one workload; `tiny` shrinks it for the self-test."""
    builders = {"paper-5x70": _paper_plan, "wide-table": _wide_plan, "all-countries": _all_countries_plan}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    p = builders[name](random.Random(f"plan:{name}:{seed}"), seed, tiny)
    return replace(p, registry_asns=3_000) if tiny else p


def _paper_plan(rng: random.Random, seed: int, tiny: bool) -> Plan:
    # The published UA/RU tables: origins and permanent losses per IXP,
    # over the study's 70 days.  Tiny keeps the shape at a tenth of the size.
    days = 14 if tiny else 70
    div = 10 if tiny else 1
    start = dt.date(2022, 2, 19)
    ixps = PAPER_IXPS
    ua = {ixp: n // div for ixp, n in zip(ixps, PAPER_UA)}
    ru = {ixp: n // div for ixp, n in zip(ixps, PAPER_RU)}
    loss_day = _day(start, rng.randint(days // 3, days // 2))
    disruptions = []
    for ixp, ua_lost, ru_lost in zip(ixps, PAPER_UA_LOST, PAPER_RU_LOST):
        disruptions.append(Disruption("permanent_loss", ixp, "UA", loss_day, count=max(1, ua_lost // div)))
        disruptions.append(Disruption("permanent_loss", ixp, "RU", loss_day, count=max(1, ru_lost // div)))
    # A few interior disruptions, so the dip detector has something to find.
    for kind, cc in (("prefix_shrink", "UA"), ("neighbor_disconnect", "RU"), ("prefix_shrink", "RU")):
        a = _day(start, rng.randint(8, days - 6))
        b = a + dt.timedelta(days=rng.randint(0, 2))
        ixp = rng.choice(ixps)
        if kind == "prefix_shrink":
            disruptions.append(Disruption(kind, ixp, cc, a, b, magnitude=round(rng.uniform(0.3, 0.6), 2)))
        else:
            disruptions.append(Disruption(kind, ixp, cc, a, b, count=1))
    gaps = tuple(sorted(_day(start, off) for off in rng.sample(range(4, days - 6), 2)))
    spec = ScenarioSpec(
        seed=seed,
        window=DateRange(start, _day(start, days - 1)),
        ixps=ixps,
        countries={"UA": CountrySpec(origin_count=ua, prefixes_per_origin=(1, 1), neighbor_count=3),
                   "RU": CountrySpec(origin_count=ru, prefixes_per_origin=(1, 1), neighbor_count=4)},
        disruptions=tuple(disruptions),
        gap_dates=gaps,
    )
    return Plan("paper-5x70", seed, spec, pinned_averages=None if tiny else PAPER_AVERAGES)


def _wide_plan(rng: random.Random, seed: int, tiny: bool) -> Plan:
    # One large table a day, above the prefix cache's bound, a few days
    # long.  One analysed country keeps the per-country rescans small, so
    # the run is mostly parsing.
    days = 4
    start = dt.date(2022, 3, 1)
    spec = ScenarioSpec(
        seed=seed,
        window=DateRange(start, _day(start, days - 1)),
        ixps=("amsix",),
        countries={"UA": CountrySpec(origin_count=460 if tiny else 4600, neighbor_count=4)},
        disruptions=(Disruption("permanent_loss", "amsix", "UA", _day(start, 1),
                                count=rng.randint(100, 200) // (10 if tiny else 1)),),
        confirmation_window=1,
        detector={"trailing_window": 2, "threshold": 0.05, "min_reference": 10},
    )
    return Plan("wide-table", seed, spec,
                background=3_000 if tiny else 100_000, churn=0.01,
                malformed=50 if tiny else 500)


def _all_countries_plan(rng: random.Random, seed: int, tiny: bool) -> Plan:
    # Many analysed countries over a modest table: every country rescans it.
    days = 10 if tiny else 14
    start = dt.date(2022, 3, 1)
    ixps = ("amsix", "linx")
    countries = {}
    disruptions = []
    for cc in ALL_COUNTRIES:
        n = rng.randint(20, 30) if tiny else rng.randint(290, 370)
        countries[cc] = CountrySpec(origin_count=n, prefixes_per_origin=(1, 3), neighbor_count=2)
        for ixp in ixps:
            disruptions.append(Disruption("permanent_loss", ixp, cc,
                                          _day(start, rng.randint(3, days - 6)),
                                          count=max(1, n // rng.randint(12, 25))))
    spec = ScenarioSpec(
        seed=seed,
        window=DateRange(start, _day(start, days - 1)),
        ixps=ixps,
        countries=countries,
        disruptions=tuple(disruptions),
        gap_dates=(_day(start, rng.randint(2, days - 2)),) if not tiny else (),
    )
    return Plan("all-countries", seed, spec, malformed=20)


def analyze_args(p: Plan, root: Path, asndb_path: Path, out: Path) -> list[str]:
    """`ixpreach analyze` arguments for a tree built from `p`."""
    spec = p.spec
    det = spec.detector
    return [
        "analyze",
        "--asndb", str(asndb_path),
        "--snapshots", str(root / "snapshots"),
        "--out", str(out),
        "--ixps", ",".join(spec.ixps),
        "--countries", ",".join(sorted(spec.countries)),
        "--baseline-date", spec.baseline.isoformat(),
        "--final-date", spec.final.isoformat(),
        "--confirmation-window", str(spec.confirmation_window),
        "--trailing-window", str(det["trailing_window"]),
        "--threshold", str(det["threshold"]),
        "--min-reference", str(det["min_reference"]),
    ]


def build_asndb_args(root: Path, out: Path) -> list[str]:
    args = ["build-asndb"]
    for registry in REGISTRIES:
        args += ["--rir", f"{registry}={root / 'rir' / (registry + '.txt')}"]
    return args + ["--out", str(out)]


def expected_averages(p: Plan, gt: synth.GroundTruth) -> dict[str, str]:
    """Summary averages implied by the ground truth, as `analyze` prints
    them: each IXP's loss share truncated to a tenth of a percent, then
    their mean rounded half-up to a hundredth.  Plain integer arithmetic,
    none of it the program's code."""
    out = {}
    for cc in gt.countries:
        tenths = [1000 * len(gt.unreachable[ixp][cc]) // gt.metrics[ixp][cc][gt.baseline_date][1]
                  for ixp in gt.ixps]
        hundredths = (20 * sum(tenths) + len(tenths)) // (2 * len(tenths))
        out[cc] = f"{hundredths // 100}.{hundredths % 100:02d}"
    if p.pinned_averages is not None and any(out[cc] != v for cc, v in p.pinned_averages.items()):
        raise ValueError(f"{p.name}: ground truth gives averages {out}, the plan pins {p.pinned_averages}")
    return out


# --- registry -------------------------------------------------------------

def _registry_of(cc: str) -> str:
    return REGISTRIES[sum(map(ord, cc)) % len(REGISTRIES)]


def _write_registry(p: Plan, scenario_delegated: Path, rir_dir: Path) -> tuple[list[int], dict]:
    """Write the five delegated files; return registered background ASNs
    and the expected `build-asndb` counts."""
    rng = random.Random(f"registry:{p.seed}")
    weights = [1.0 / (i + 1) for i in range(len(BACKGROUND_CCS))]
    rows: dict[str, list[str]] = {r: [] for r in REGISTRIES}
    expected_records = 0

    for line in scenario_delegated.read_text(encoding="utf-8").splitlines():
        fields = line.split("|")
        if len(fields) == 7 and fields[2] == "asn" and fields[3] != "*":
            rows[fields[0]].append(line)
            expected_records += int(fields[4])

    registered: list[int] = []
    asn = _REGISTERED_BASE
    ip_block = 0
    while len(registered) < p.registry_asns:
        asn += rng.randint(1, 5)
        count = 1 if rng.random() < 0.93 else rng.randint(2, 16)
        count = min(count, p.registry_asns - len(registered))
        cc = rng.choices(BACKGROUND_CCS, weights)[0]
        registry = _registry_of(cc)
        date = _day(dt.date(1995, 1, 1), rng.randrange(9800)).strftime("%Y%m%d")
        status = "allocated" if rng.random() < 0.6 else "assigned"
        rows[registry].append(f"{registry}|{cc}|asn|{asn}|{count}|{date}|{status}")
        registered.extend(range(asn, asn + count))
        asn += count
        # Address rows, which the ASN parser reads and passes over.
        rows[registry].append(f"{registry}|{cc}|ipv4|{100 + (ip_block >> 16)}.{(ip_block >> 8) & 255}"
                              f".{ip_block & 255}.0|256|{date}|{status}")
        ip_block += 1
    if asn >= _UNREGISTERED_BASE:
        raise AssertionError("background registry overflowed its ASN range")
    expected_records += len(registered)

    # Registry bookkeeping rows: never records.
    for k in range(p.registry_asns // 20):
        registry = REGISTRIES[k % len(REGISTRIES)]
        status = "available" if k % 2 else "reserved"
        rows[registry].append(f"{registry}||asn|{_UNREGISTERED_BASE + 50_000 + k}|1||{status}")
    # Transfers: an ASN listed again by another registry counts as a conflict.
    conflicts = 0
    for asn in rng.sample(registered, 150):
        cc = rng.choice(BACKGROUND_CCS)
        registry = _registry_of(cc)
        rows[registry].append(f"{registry}|{cc}|asn|{asn}|1|20210601|assigned")
        conflicts += 1
    for k, template in enumerate(_BAD_REGISTRY_ROWS * 3):
        row = template.format(asn=_UNREGISTERED_BASE + 90_000 + k)
        rows[row.split("|")[0]].append(row)
    skipped = len(_BAD_REGISTRY_ROWS) * 3

    rir_dir.mkdir(parents=True, exist_ok=True)
    for registry in REGISTRIES:
        body = rows[registry]
        head = [f"2|{registry}|20220429|{len(body)}|19830705|20220428|+0000",
                f"{registry}|*|asn|*|{len(body)}|summary"]
        (rir_dir / f"{registry}.txt").write_text("\n".join(head + body) + "\n", encoding="utf-8")
    return registered, {"records": expected_records, "conflicts": conflicts, "skipped": skipped}


# --- snapshot rows the oracle does not count --------------------------------

def _bg_prefix(ixp_index: int, i: int) -> str:
    i += ixp_index << 21
    if i % 8 == 7:
        return f"2a10:{i >> 16:x}:{i & 0xffff:x}::/48"
    return f"{20 + (i >> 16)}.{(i >> 8) & 255}.{i & 255}.0/24"


class _Background:
    """One IXP's background table, with a share of it replaced each day."""

    def __init__(self, p: Plan, ixp_index: int, ixp: str, registered: list[int]):
        self.rng = random.Random(f"background:{p.seed}:{ixp}")
        self.ixp_index = ixp_index
        n_origins = max(1, p.background // 3)
        unregistered = n_origins // 9
        self.origins = (self.rng.sample(registered, n_origins - unregistered)
                        + [_UNREGISTERED_BASE + k for k in range(unregistered)])
        self.hops = [_FIRST_HOP_BASE + 100 * ixp_index + k for k in range(40)]
        self.mids = self.rng.sample(registered, 200)
        self.next_prefix = 0
        self.slots = [self._row() for _ in range(p.background)]
        self.churn = round(p.background * p.churn)

    def _row(self) -> str:
        rng = self.rng
        origin = self.origins[rng.randrange(len(self.origins))]
        path = [self.hops[rng.randrange(len(self.hops))]]
        if rng.random() < 0.6:
            path.append(self.mids[rng.randrange(len(self.mids))])
        path.append(origin)
        if rng.random() < 0.1:
            path.insert(0, path[0])
        prefix = _bg_prefix(self.ixp_index, self.next_prefix)
        self.next_prefix += 1
        return prefix + "," + " ".join(map(str, path))

    def next_day(self) -> list[str]:
        for slot in self.rng.sample(range(len(self.slots)), self.churn):
            self.slots[slot] = self._row()
        return self.slots


def _malformed_rows(rng: random.Random, n: int, ixp_index: int, day_index: int) -> list[str]:
    rows = []
    for k in range(n):
        kind = k % 4
        prefix = f"{19 - ixp_index}.{day_index}.{k & 255}.0/24"
        if kind == 0:
            rows.append(f'{prefix},"{_FIRST_HOP_BASE} {{64512,{64513 + k}}}"')
        elif kind == 1:
            rows.append(f"{19 - ixp_index}.{300 + day_index}.{k & 255}.0/24,{_FIRST_HOP_BASE} {810_000 + k}")
        elif kind == 2:
            rows.append(f"{prefix},")
        else:
            rows.append(f"{prefix},{_FIRST_HOP_BASE} {4294967296 + rng.randrange(1000)}")
    return rows


# --- building a tree ----------------------------------------------------------

def build(p: Plan, root: Path) -> dict:
    """Generate the tree for `p` under `root` and return its properties."""
    if root.exists():
        shutil.rmtree(root)
    synth.generate(p.spec, root)
    registered, asndb_expect = _write_registry(p, root / "delegated.txt", root / "rir")
    (root / "delegated.txt").unlink()

    studied_rows = total_rows = malformed_total = 0
    rows_per_file: list[int] = []
    distinct_per_file: list[int] = []
    repeat_shares: list[float] = []
    for ixp_index, ixp in enumerate(p.spec.ixps):
        background = _Background(p, ixp_index, ixp, registered) if p.background else None
        previous: set[str] | None = None
        for day_index, day in enumerate(p.spec.snapshot_days()):
            path = root / "snapshots" / ixp / f"{day.isoformat()}.csv"
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            studied_rows += len(rows)
            if background is not None or p.malformed:
                if background is not None:
                    rows += background.next_day()
                rng = random.Random(f"day:{p.seed}:{ixp}:{day.isoformat()}")
                bad = _malformed_rows(rng, p.malformed, ixp_index, day_index)
                malformed_total += len(bad)
                rows += bad
                rng.shuffle(rows)
                path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")

            prefixes = {r.split(",", 1)[0] for r in rows}
            rows_per_file.append(len(rows))
            distinct_per_file.append(len(prefixes))
            if previous is not None:
                repeat_shares.append(len(prefixes & previous) / len(prefixes))
            previous = prefixes
            total_rows += len(rows)

    props = {
        "workload": p.name,
        "seed": p.seed,
        "generator_version": GENERATOR_VERSION,
        "ixps": len(p.spec.ixps),
        "snapshot_days": len(p.spec.snapshot_days()),
        "gap_days": len(p.spec.gap_dates),
        "files": len(rows_per_file),
        "rows": total_rows,
        "rows_per_ixp_day": {"min": min(rows_per_file), "median": statistics.median(rows_per_file),
                             "max": max(rows_per_file)},
        "distinct_prefixes_per_ixp_day_max": max(distinct_per_file),
        "prefix_cache_size": PREFIX_CACHE_SIZE,
        "prefix_repeat_share": round(statistics.fmean(repeat_shares), 4) if repeat_shares else 0.0,
        "studied_row_share": round(studied_rows / total_rows, 4),
        "malformed_rows": malformed_total,
        "countries": sorted(p.spec.countries),
        "registry_asns": len(registered),
        "asndb": asndb_expect,
    }
    (root / "props.json").write_text(json.dumps(props, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return props
