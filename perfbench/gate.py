"""Correctness gate for benchmark runs.

Every check returns a list of problems; an empty list passes.  The
expected values come from the generator (`props.json`) and from synth's
ground truth, never from the program under test.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from ixpreach import synth


def digest_dir(path: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def check_build(report: dict, expect: dict) -> list[str]:
    """`build-asndb` exited 0 and printed the record, conflict and skip
    counts the generator wrote into the registry."""
    if report["exit_code"] != 0:
        return [f"build-asndb exited {report['exit_code']}"]
    want = f"records={expect['records']} conflicts={expect['conflicts']} skipped={expect['skipped']}"
    got = report["stdout"].strip()
    return [] if got == want else [f"build-asndb printed {got!r}, expected {want!r}"]


def check_analyze(report: dict, averages: dict[str, str]) -> list[str]:
    """`analyze` exited 0, `synth.verify` found nothing, and the printed
    averages are the ones the ground truth implies."""
    if report["exit_code"] != 0:
        return [f"analyze exited {report['exit_code']}"]
    problems = list(report.get("problems", ["no verify result"]))
    lines = report["stdout"].splitlines()
    for cc, avg in sorted(averages.items()):
        if f"{cc}: average pct lost {avg}" not in lines:
            problems.append(f"stdout lacks '{cc}: average pct lost {avg}'")
    return problems


def check_outputs(out: Path, gt: synth.GroundTruth, averages: dict[str, str]) -> list[str]:
    """The written files carry the ground truth: every metrics CSV row,
    every confirmed-loss list and every summary average."""
    problems = []
    for ixp in gt.ixps:
        for cc in gt.countries:
            path = out / "metrics" / f"{ixp}_{cc}.csv"
            if not path.is_file():
                problems.append(f"missing {path.name}")
                continue
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            got = {row[2]: tuple(int(v) for v in row[3:]) for row in rows}
            want = {day.isoformat(): tuple(vals) for day, vals in gt.metrics[ixp][cc].items()}
            if got != want:
                bad = sorted(d for d in want.keys() | got.keys() if got.get(d) != want.get(d))
                problems.append(f"{path.name}: {len(bad)} days differ from ground truth, first {bad[0]}")
    for cc in gt.countries:
        path = out / "reachability" / f"{cc}_records.txt"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        seen = []
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = dict(part.split("=", 1) for part in line.split())
            ixp = fields.get("ixp", "?")
            seen.append(ixp)
            want = ",".join(map(str, gt.unreachable.get(ixp, {}).get(cc, ())))
            if fields.get("lost_asns") != want:
                problems.append(f"{path.name}: lost_asns for {ixp} differ from ground truth")
        if sorted(seen) != sorted(gt.ixps):
            problems.append(f"{path.name}: lines for IXPs {sorted(seen)}, expected one each for {sorted(gt.ixps)}")
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines() if (out / "summary.txt").is_file() else []
    for cc, avg in sorted(averages.items()):
        if f"{cc}: average pct lost {avg} over {len(gt.ixps)} IXPs" not in summary:
            problems.append(f"summary.txt lacks the {cc} average {avg}")
    return problems


def check_trace_counts(layer: dict, props: dict) -> list[str]:
    """Exact parser counts from a traced run against the generator's."""
    want = {
        "rtingest.rows_read": props["rows"],
        "rtingest.rows_skipped": props["malformed_rows"],
        "rtingest.files_parsed": props["files"],
        "rtingest.gap_days": props["gap_days"] * props["ixps"],
    }
    return [f"{name} = {layer[name]}, expected {value}"
            for name, value in want.items() if layer[name] != value]
