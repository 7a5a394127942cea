"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`).  Tolerances are pinned in the
asserts themselves; everything is exact except the single relative-drop
check (absolute 0.001).
"""

import datetime as dt
import random
import time
from contextlib import contextmanager

import pytest

from ixpreach import asndb, cli, synth
from ixpreach.metrics import MetricSeries
from ixpreach.outage import detect_dips
from ixpreach.reachability import average_pct, pct_lost
from ixpreach.rtingest import DateRange, InternTable, parse_snapshot
from ixpreach.synth import CountrySpec, Disruption, ScenarioSpec

from conftest import BASE, analyze_generated, day, make_db, make_series, reach, rows_of


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_ua_table_arithmetic():
    with criterion(1, "UA loss percentages and their 11.12 average, exact"):
        pairs = [(1016, 87), (1335, 254), (1571, 164), (1021, 92), (1096, 96)]
        expected = [8.5, 19.0, 10.4, 9.0, 8.7]
        got = [pct_lost(total, lost) for total, lost in pairs]
        assert got == expected
        assert average_pct(got) == 11.12


def test_criterion_2_ru_table_arithmetic_and_truncation():
    with criterion(2, "RU loss percentages (truncation regression) and their 10.94 average, exact"):
        pairs = [(3749, 117), (2886, 109), (421, 62), (415, 78), (419, 61)]
        expected = [3.1, 3.7, 14.7, 18.7, 14.5]
        got = [pct_lost(total, lost) for total, lost in pairs]
        assert got == expected  # 3.777->3.7 and 18.795->18.7 prove truncation
        assert average_pct(got) == 10.94


def test_criterion_3_oracle_equivalence_on_randomized_scenarios(tmp_path):
    with criterion(3, "20 randomized scenarios, zero verify discrepancies, under 60 s"):
        started = time.monotonic()
        for seed in range(101, 121):
            gt = synth.generate(synth.random_scenario(seed), tmp_path / f"scen{seed}")
            assert synth.verify(gt, analyze_generated(tmp_path, gt, f"scen{seed}")) == [], seed
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f} s"


def flap_scenario(seed):
    """A seeded scenario whose removals meet the final day.  Each (IXP,
    country) pair gets one removal that starts inside the confirmation
    window, on any of its days, and one that starts before it; both last
    through the final day.  The first makes flaps, or losses where it
    starts on the window's first day or the window's earlier days are
    gaps; the second makes losses.  A third removal starts on the day one
    of the two starts and ends on a day of the window, so its origins are
    back by the final day.  Gaps fall on the day after the baseline and
    inside the window."""
    rng = random.Random(f"flaps:{seed}")
    days = rng.randint(14, 24)
    final = day(days - 1)
    confirmation = rng.randint(2, 4)
    in_window = [final - dt.timedelta(days=k) for k in range(1, confirmation + 1)]
    gaps = {day(1), *rng.sample(in_window, rng.randint(0, confirmation - 1))}
    countries = {"UA": CountrySpec(origin_count=rng.randint(10, 20), neighbor_count=rng.randint(0, 2)),
                 "RU": CountrySpec(origin_count=rng.randint(8, 16))}
    ixps = ("amsix", "linx")
    disruptions = []
    for ixp in ixps:
        for cc in countries:
            flap_start = final - dt.timedelta(days=rng.randint(1, confirmation))
            loss_start = day(rng.randint(1, days - 2 - confirmation))
            for start in (flap_start, loss_start):
                disruptions.append(Disruption("origin_removal", ixp, cc, start, final, count=rng.randint(1, 3)))
            start = rng.choice((flap_start, loss_start))
            end = final - dt.timedelta(days=rng.randint(1, min(confirmation, (final - start).days)))
            disruptions.append(Disruption("origin_removal", ixp, cc, start, end, count=rng.randint(1, 3)))
    return ScenarioSpec(seed=seed, window=DateRange(BASE, final), ixps=ixps,
                        countries=countries, disruptions=tuple(disruptions),
                        gap_dates=tuple(sorted(gaps)), confirmation_window=confirmation)


def test_criterion_3_oracle_equivalence_on_flap_scenarios(tmp_path):
    with criterion(3, "12 scenarios with removals through the final day and back inside the "
                      "confirmation window: zero verify discrepancies, every shape occurs"):
        flapping = lost = ends_in_window = same_start = returned = 0
        for seed in range(1, 13):
            spec = flap_scenario(seed)
            ends_in_window += sum(1 <= (spec.final - d.end).days <= spec.confirmation_window
                                  for d in spec.disruptions)
            starts = [(d.ixp, d.country, d.start) for d in spec.disruptions]
            same_start += len(starts) - len(set(starts))
            gt = synth.generate(spec, tmp_path / f"scen{seed}")
            result = analyze_generated(tmp_path, gt, f"scen{seed}")
            assert synth.verify(gt, result) == [], seed
            for pair in result.pairs.values():
                flapping += len(pair.report.flapping_asns)
                lost += len(pair.report.lost_asns)
                # Origins on the baseline and final day that miss a window day.
                dates = pair.presence.dates
                ends = 1 | 1 << len(dates) - 1
                window = sum(1 << i for i, d in enumerate(dates)
                             if 1 <= (spec.final - d).days <= spec.confirmation_window)
                returned += sum(mask & ends == ends and mask & window != window
                                for mask in pair.presence.masks.values())
        print(f"flapping {flapping}, lost {lost}, back on the final day after a window absence {returned}")
        assert flapping and lost and ends_in_window and same_start and returned


def _presence_series(present_by_day, db):
    days = {}
    for d, origins in present_by_day.items():
        days[d] = [(f"10.{o % 250}.{o // 250}.0/24", [9000, o]) for o in sorted(origins)]
    return make_series(days)


def test_criterion_4_confirmation_window_property():
    with criterion(4, "1000 randomized flap trials: w=3 excludes flaps, windows nest"):
        db = make_db({o: "UA" for o in range(1, 40)})
        rng = random.Random(20220429)
        violations = 0
        for _ in range(1000):
            n_days = 10
            final = day(n_days - 1)
            origins = list(range(1, rng.randint(10, 25)))
            flappers = set(rng.sample(origins, rng.randint(1, max(1, len(origins) // 4))))
            remaining = [o for o in origins if o not in flappers]
            losses = set(rng.sample(remaining, rng.randint(0, len(remaining) // 4)))
            present = {day(i): set() for i in range(n_days)}
            for o in origins:
                absent = set()
                if o in flappers:
                    # a 1-2 day flap ending on the final day
                    absent = {final} if rng.random() < 0.5 else {final, day(n_days - 2)}
                elif o in losses:
                    cut = rng.randint(1, n_days - 5)
                    absent = {day(i) for i in range(cut, n_days)}
                for i in range(n_days):
                    if day(i) not in absent:
                        present[day(i)].add(o)
            series = _presence_series(present, db)
            by_window = {w: set(reach(series, db, "UA", BASE, final, window=w).lost_asns)
                         for w in (0, 1, 2, 3, 4, 5)}
            if not flappers <= by_window[0]:
                violations += 1
            if flappers & by_window[3]:
                violations += 1
            for w in (0, 1, 2, 3, 4):
                for w2 in range(w + 1, 6):
                    if not by_window[w2] <= by_window[w]:
                        violations += 1
            if not losses <= by_window[3]:
                violations += 1
        assert violations == 0


def _series_of(values):
    dates = tuple(BASE + dt.timedelta(days=i) for i in range(len(values)))
    zeros = (0,) * len(values)
    return MetricSeries("testix", "UA", dates, tuple(values), zeros, zeros, zeros)


def test_criterion_5_detector_soundness_and_sensitivity():
    with criterion(5, "no events on flat/non-decreasing series; one 1-day event at drop 0.4"):
        assert detect_dips(_series_of([100] * 30), "announcements") == []
        rng = random.Random(5)
        for _ in range(50):
            level, values = rng.randint(15, 60), []
            for _ in range(rng.randint(9, 50)):
                level += rng.randint(0, 6)
                values.append(level)
            assert detect_dips(_series_of(values), "announcements") == []
        events = detect_dips(_series_of([100] * 15 + [60] + [100] * 14), "announcements")
        assert len(events) == 1
        assert events[0].start == events[0].end == BASE + dt.timedelta(days=15)
        assert abs(events[0].relative_drop - 0.4) <= 0.001


def test_criterion_6_parser_robustness_fixture(tmp_path):
    with criterion(6, "1000-row snapshot with 10 malformed rows: 990 kept, endpoints hold"):
        malformed_positions = {i * 100 + 50 for i in range(10)}
        lines = ["prefix,as_path"]
        expected = []  # (prefix, origin, neighbor) of each kept row
        for i in range(1000):
            if i in malformed_positions:
                kind = i % 3
                if kind == 0:
                    lines.append(f"10.{i % 200}.1.0/24,174 30x9 25133")  # bad ASN token
                elif kind == 1:
                    lines.append(f"10.{i % 200}.2.0/24,3356 {{64512,64513}}")  # AS_SET
                else:
                    lines.append(f"10.{i % 200}.3.0/24,")  # empty path
            else:
                path = [174 + i % 5, 3216 + i % 7, 20000 + i % 400]
                if i % 11 == 0:
                    path = [path[0]] + path  # prepend
                if i % 17 == 0:
                    path = [64496 + i % 3]  # single-element
                lines.append(f"10.{i % 250}.{i % 4}.0/24,{' '.join(map(str, path))}")
                expected.append((f"10.{i % 250}.{i % 4}.0/24", path[-1], path[0]))
        path = tmp_path / "snapshot.csv"
        path.write_text("\n".join(lines) + "\n")
        intern = InternTable()
        with open(path, "rb") as handle:
            snap = parse_snapshot(handle, "testix", BASE, intern=intern)
        assert len(snap.entries) == 990
        assert snap.skipped == 10
        assert rows_of(snap, intern) == expected


def test_criterion_7_asndb_determinism_and_range_expansion(tmp_path, delegated_dir):
    with criterion(7, "10 merge orders give identical bytes; record count matches hand sum"):
        items = [(r, delegated_dir / f"{r}.txt")
                 for r in ("afrinic", "apnic", "arin", "lacnic", "ripencc")]
        rng = random.Random(1016)
        blobs = set()
        for i in range(10):
            order = items[:]
            rng.shuffle(order)
            db, _ = asndb.build_from_files(order)
            out = tmp_path / f"db{i}.txt"
            asndb.save(db, out)
            blobs.add(out.read_bytes())
            # hand-computed: 4+6+4+2+3 = 19 raw rows, AS 65000 triplicated
            assert len(db) == 17
        assert len(blobs) == 1


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "analyze run twice on one synthetic tree: byte-identical output dirs"):
        spec = ScenarioSpec(
            seed=88,
            window=DateRange(BASE, day(13)),
            ixps=("amsix", "linx"),
            countries={"UA": CountrySpec(origin_count=12, neighbor_count=2),
                       "RU": CountrySpec(origin_count=9, neighbor_count=1)},
            gap_dates=(day(5),),
        )
        scen = tmp_path / "scen"
        gt = synth.generate(spec, scen)
        assert cli.main(["build-asndb", "--rir", f"ripencc={scen / 'delegated.txt'}",
                         "--out", str(tmp_path / "asndb.txt")]) == 0
        base_args = [
            "analyze",
            "--asndb", str(tmp_path / "asndb.txt"),
            "--snapshots", str(scen / "snapshots"),
            "--ixps", ",".join(gt.ixps),
            "--countries", ",".join(gt.countries),
            "--baseline-date", gt.baseline_date.isoformat(),
            "--final-date", gt.final_date.isoformat(),
        ]
        assert cli.main(base_args + ["--out", str(tmp_path / "out1")]) == 0
        assert cli.main(base_args + ["--out", str(tmp_path / "out2")]) == 0
        files1 = sorted(p.relative_to(tmp_path / "out1")
                        for p in (tmp_path / "out1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "out2")
                        for p in (tmp_path / "out2").rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            assert (tmp_path / "out1" / rel).read_bytes() == (tmp_path / "out2" / rel).read_bytes()
