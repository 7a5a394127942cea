"""One-line mutants of the analysis code, and a runner that checks the
synthetic ground truth catches each of them.

Run from the repository root:

    PYTHONPATH=src python tests/mutants.py

The runner generates a fixed set of scenarios once, in a temporary
directory, and builds each one's ASN database: `random_scenario` seeds
101-103, `flap_scenario` seeds 1-4, a four-IXP scenario whose average
loss is a half-up tie, and `FLAP_SPEC`.  `FLAP_SPEC` is
analysed a second time among 300 country codes, so `build_series` walks
two blocks of countries.  Then, one mutant after another, never in
parallel, it copies `src/ixpreach` to a temporary directory, applies the
mutant's edit, and runs `ixpreach analyze` on every scenario in one
subprocess of that copy.  The unmutated copy runs first and must pass.
`synth.verify` judges the written files here, from the unmutated
package, so a mutant never edits the judge; `synth.py` is off limits.

A mutant is caught when an analysis fails or `verify` reports a
problem.  The runner prints each mutant's outcome and exits 1 if a
mutant survives, if the unmutated copy is not clean, or if a mutant's
`old` text does not occur exactly once in its file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ixpreach"

# (name, file under src/ixpreach, old text, new text): each `old` is one
# line, or part of one, that occurs exactly once in its file.
MUTANTS = [
    ("flaps counted as losses", "reachability.py",
     "        if mask & in_window:", "        if False:"),
    ("window starts one snapshot late", "reachability.py",
     "w = bisect_left(dates, dates[f] - dt.timedelta(days=window))",
     "w = bisect_left(dates, dates[f] - dt.timedelta(days=window)) + 1"),
    ("origin back on the final day counted absent after a window gap", "reachability.py",
     "        total += 1", "        total += 1; at_final = at_final and mask & in_window == in_window"),
    ("first_seen taken from the last bit", "reachability.py",
     "iso[(mask & -mask).bit_length() - 1]", "iso[mask.bit_length() - 1]"),
    ("days_offline + 1", "reachability.py",
     '{days - present}\\n"', '{days - present + 1}\\n"'),
    ("pct_lost rounded, not truncated", "reachability.py",
     "return (1000 * lost // total) / 10", "return round(1000 * lost / total) / 10"),
    ("total_baseline + 1", "reachability.py",
     "total_baseline=total,", "total_baseline=total + 1,"),
    ("average rounded half-down", "reachability.py",
     "if 2 * rem >= len(tenths):", "if 2 * rem > len(tenths):"),
    ("an event's end written as its start", "outage.py",
     "ev.start.isoformat(), ev.end.isoformat(),", "ev.start.isoformat(), ev.start.isoformat(),"),
    ("the first event of a series dropped", "outage.py",
     "    for first, last, reference in runs:", "    for first, last, reference in runs[1:]:"),
    ("the dip scan starting at trailing_window", "outage.py",
     "for i in range(1, len(values)):", "for i in range(trailing_window, len(values)):"),
    ("a looser dip threshold", "outage.py",
     "values[i] < (1 - threshold) * reference", "values[i] < (1 - threshold / 2) * reference"),
    ("an event's least value taken on its first day", "outage.py",
     "low = min(values[first:last + 1])", "low = values[first]"),
    ("the drop taken relative to the least value", "outage.py",
     "relative_drop=(reference - low) / reference,", "relative_drop=(reference - low) / max(low, 1),"),
    ("an event's reference taken from the day before", "outage.py",
     "runs.append([i, i, reference])", "runs.append([i, i, values[i - 1]])"),
    ("the lost list short by one", "pipeline.py",
     "lost_asns={_asns(rep.lost_asns)}", "lost_asns={_asns(rep.lost_asns[:-1])}"),
    ("new origins left out", "pipeline.py",
     "new_asns={_asns(rep.new_asns)}", "new_asns={_asns(())}"),
    ("a metrics date shifted a day", "metrics.py",
     "series.country, day.isoformat(), *counts", "series.country, (day + dt.timedelta(days=1)).isoformat(), *counts"),
    ("metrics rows written newest first", "metrics.py",
     "in zip(series.dates, *map(series.values, METRIC_NAMES))",
     "in reversed(list(zip(series.dates, *map(series.values, METRIC_NAMES))))"),
    ("announcements + 1", "metrics.py",
     "column.append((day_codes.count(i + 2),", "column.append((day_codes.count(i + 2) + 1,"),
    ("masks never cleared on release", "metrics.py",
     "masks[i][origin_of[rid]] &= (1 << index) - 1", "masks[i][origin_of[rid]] &= -1"),
    ("_BLOCK = 256", "metrics.py",
     "_BLOCK = 254", "_BLOCK = 256"),
    ("origin taken as the neighbor on a plain line", "rtingest.py",
     "int(origin or neighbor), int(neighbor)", "int(neighbor), int(neighbor)"),
]

# Analyses run in the mutated copy: each argument list goes to cli.main,
# and a failure ends the run with a message naming the analysis.
_ANALYZE_ALL = """\
import json, sys
from ixpreach import cli
with open(sys.argv[1], encoding="utf-8") as handle:
    jobs = json.load(handle)
for name, argv in jobs:
    try:
        rc = cli.main(argv)
    except Exception as exc:
        sys.exit(f"{name}: analyze raised {exc!r}")
    if rc:
        sys.exit(f"{name}: analyze exited {rc}")
"""


def misplaced() -> list[str]:
    """A line for each mutant whose `old` text does not occur exactly once
    in its file."""
    problems = []
    for name, file, old, _ in MUTANTS:
        count = (SRC / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {file}")
    return problems


def _scenarios(work: Path):
    """[(name, ground truth, snapshot root, database, countries)], each
    scenario generated and its database built under `work`."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import BASE, FLAP_SPEC, day, flap_scenario, random_scenario
    from ixpreach import asndb, synth
    from ixpreach.rtingest import DateRange

    specs = {f"random-{seed}": random_scenario(seed) for seed in (101, 102, 103)}
    specs.update({f"flap-{seed}": flap_scenario(seed) for seed in (1, 2, 3, 4)})
    # One of four IXPs loses 1 of its 3 origins: 33.3 %, so the average is
    # 333 / 40 = 8.325, a tie that rounds half-up to 8.33.  Over n IXPs the
    # half-up rule can tie only for n = 4 or 8 (n = 1..8), so the other
    # scenarios' 2 and 5 IXPs never reach it.
    specs["tie-4-ixps"] = synth.ScenarioSpec(
        seed=1, window=DateRange(BASE, day(9)), ixps=("amsix", "linx", "six", "auix"),
        countries={"UA": synth.CountrySpec(origin_count=3)},
        disruptions=(synth.Disruption("permanent_loss", "amsix", "UA", day(5), count=1),))
    specs["FLAP_SPEC"] = FLAP_SPEC
    runs = []
    for name, spec in specs.items():
        scen = work / "scenarios" / name
        gt = synth.generate(spec, scen)
        db, _ = asndb.build_from_files([("ripencc", scen / "delegated.txt")])
        asndb.save(db, scen / "asndb.txt")
        runs.append((name, gt, scen / "snapshots", scen / "asndb.txt", gt.countries))
    # 298 more codes, sorted in among RU and UA: RU falls in the first
    # block of 254 countries and UA in the second.
    others = sorted(asndb.COUNTRY_CODES - {"RU", "UA", "ZZ"})[::2][:298]
    name, gt, snapshots, db_path, countries = runs[-1]
    runs.append(("FLAP_SPEC-300-codes", gt, snapshots, db_path, countries + tuple(others)))
    return runs


def _outcome(work: Path, package: Path, runs) -> str | None:
    """None when every analysis of `package` succeeds and `verify` finds
    no problem, else what caught it."""
    from ixpreach import synth
    from ixpreach.pipeline import AnalysisResult, RunConfig

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    jobs = []
    for name, gt, snapshots, db_path, countries in runs:
        jobs.append((name, ["analyze", "--asndb", str(db_path), "--snapshots", str(snapshots),
                            "--out", str(out / name), "--ixps", ",".join(gt.ixps),
                            "--countries", ",".join(countries),
                            "--baseline-date", gt.baseline_date.isoformat(),
                            "--final-date", gt.final_date.isoformat(),
                            "--confirmation-window", str(gt.confirmation_window),
                            *(f"--{key.replace('_', '-')}={value}" for key, value in gt.detector.items())]))
    (work / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _ANALYZE_ALL, str(work / "jobs.json")],
                          env={**os.environ, "PYTHONPATH": str(package.parent)},
                          capture_output=True, text=True)
    if proc.returncode:
        return proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
    for name, gt, snapshots, db_path, countries in runs:
        config = RunConfig(db_path, snapshots, out / name, gt.ixps, countries, gt.baseline_date, gt.final_date)
        problems = synth.verify(gt, AnalysisResult(config, {}, {}))
        if problems:
            return f"{name}: {len(problems)} problems, first {problems[0]}"
    return None


def main() -> int:
    problems = misplaced()
    for line in problems:
        print(f"misplaced: {line}")
    if problems:
        return 1
    started = time.monotonic()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="ixpreach-mutants-") as tmp:
        work = Path(tmp)
        runs = _scenarios(work)
        package = work / "src" / "ixpreach"
        for name, file, old, new in [("unmutated", None, None, None), *MUTANTS]:
            shutil.rmtree(package.parent, ignore_errors=True)
            shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
            if file is not None:
                path = package / file
                path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            caught = _outcome(work, package, runs)
            if file is None:
                if caught:
                    print(f"unmutated code is not clean: {caught}")
                    return 1
                print("unmutated: clean")
            elif caught:
                print(f"caught   {name}: {caught}")
            else:
                survived += 1
                print(f"SURVIVED {name}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught in {time.monotonic() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
