"""Benchmark of `ixpreach build-asndb` and `ixpreach analyze`.

    python3 perfbench/run.py --workload paper-5x70 --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from `src/`).  The
workload tree is generated from the seed and cached under `.bench_cache/`.
Every command runs in a fresh process (`perfbench/child.py`).

`--trace 0` times `build-asndb` SETUP_REPS times and `analyze` repeatedly
for `--seconds`, and reports the end-to-end metrics.  `--trace 1` also runs
one traced `build-asndb` and one traced `analyze`, and reports the
per-layer metrics.  Times are scaled by a machine-speed probe (see
PROBE_REFERENCE_S below).  Every run passes the correctness gate (`gate.py`) or
counts as failed; any failure makes the exit code 1.  The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
See `perfbench/README.md` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_REPS = 3
MIN_SAMPLES = 3
CACHED_TREES = 24     # generated trees kept in .bench_cache, oldest evicted
CHILD_TIMEOUT_S = 90


# Machine-speed probe.  A shared machine's speed drifts by 15-35 % for
# minutes at a time, longer than a run, so medians within a run cannot hide
# it.  A fixed parse-like loop (child.probe_s) is timed twice around each
# command: in the child before it imports the program, and in a fresh
# process right after the child exits, so neither probe shares a heap with
# the program.  The command's times are scaled by PROBE_REFERENCE_S over the
# mean of the two.  Reported times therefore read as seconds on a machine
# where the loop takes PROBE_REFERENCE_S, about its median on the 2-core
# machine the bounds were set on.
PROBE_REFERENCE_S = 0.25


def scale_times(report: dict) -> None:
    """Scale the report's elapsed time and spans by its probes; keep the
    wall time as `wall_s`."""
    factor = PROBE_REFERENCE_S / statistics.fmean(report["probe_s"])
    report["wall_s"] = report["elapsed_s"]
    report["elapsed_s"] *= factor
    for span in report.get("trace", {}).get("spans", ()):
        span["start"] *= factor
        span["end"] *= factor


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def run_child(argv: list[str], trace: bool = False, gt: Path | None = None) -> tuple[dict | None, list[str]]:
    request = json.dumps({"argv": argv, "trace": trace, "gt": str(gt) if gt else None})
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(SRC), request],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{argv[0]} ran past {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return None, [f"{argv[0]} process exited {proc.returncode}: {tail}"]
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, [f"{argv[0]} printed no report"]
    probe = subprocess.run([sys.executable, str(CHILD), "--probe"],
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    report["probe_s"].append(float(probe.stdout))
    scale_times(report)
    return report, []


def ensure_tree(workloads, plan, tiny: bool) -> tuple[Path, dict]:
    """The generated tree for `plan`, built into the cache if missing."""
    key = f"{plan.name}-s{plan.seed}-g{workloads.GENERATOR_VERSION}" + ("-tiny" if tiny else "")
    tree = CACHE / key
    props_path = tree / "props.json"
    if not props_path.is_file():
        CACHE.mkdir(exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f"build-{key}-", dir=CACHE))
        try:
            workloads.build(plan, staging / "tree")
            shutil.rmtree(tree, ignore_errors=True)
            (staging / "tree").rename(tree)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    os.utime(tree)
    trees = sorted((p for p in CACHE.iterdir() if p.is_dir() and (p / "props.json").is_file()),
                   key=lambda p: p.stat().st_mtime)
    for old in trees[:-CACHED_TREES]:
        shutil.rmtree(old, ignore_errors=True)
    return tree, json.loads(props_path.read_text(encoding="utf-8"))


def quantile(values: list[float], n: int) -> list[float]:
    """The n-1 cut points of `values`, each equal to the value when there is one."""
    if len(values) < 2:
        return values * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(build: dict, analyze: dict, untraced_s: float, out: Path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced build-asndb and one traced analyze."""
    def by_name(trace: dict) -> dict[str, list[tuple[dict, float]]]:
        grouped: dict[str, list[tuple[dict, float]]] = {}
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            grouped.setdefault(span["name"], []).append((span, own))
        return grouped

    def self_s(grouped, name) -> float:
        return sum(own for _, own in grouped[name])

    def count(grouped, name, key) -> int:
        return sum(span["counts"][key] for span, _ in grouped[name])

    b = by_name(build["trace"])
    a = by_name(analyze["trace"])
    tr = analyze["trace"]
    analyze_s = analyze["elapsed_s"]
    parse_ms = sorted((s["end"] - s["start"]) * 1e3 for s, _ in a["rtingest.parse_snapshot"])
    rows_kept = count(a, "rtingest.parse_snapshot", "rows_kept")
    rows_read = rows_kept + count(a, "rtingest.parse_snapshot", "rows_skipped")
    largest = max((s["counts"] for s, _ in a["rtingest.load_series"]), key=lambda c: c["rows_kept"])
    top_level = sum(s["end"] - s["start"] for s in tr["spans"] if s["parent"] < 0)
    return {
        "asndb.build_s": (self_s(b, "asndb.build_from_files"), "s"),
        "asndb.save_s": (self_s(b, "asndb.save"), "s"),
        "asndb.records": (count(b, "asndb.build_from_files", "records"), "count"),
        "asndb.rows_skipped": (count(b, "asndb.build_from_files", "rows_skipped"), "count"),
        "asndb.load_s": (self_s(a, "asndb.load"), "s"),
        "rtingest.parse_snapshot_s": (self_s(a, "rtingest.parse_snapshot"), "s"),
        "rtingest.load_series_s": (self_s(a, "rtingest.load_series"), "s"),
        "rtingest.us_per_row": (sum(parse_ms) * 1e3 / rows_read, "us"),
        "rtingest.parse_day_ms.p50": (statistics.median(parse_ms), "ms"),
        "rtingest.parse_day_ms.p90": (quantile(parse_ms, 10)[-1], "ms"),
        "rtingest.prefix_parse_ratio": (tr["prefix_parses"] / rows_read, "ratio"),
        "rtingest.prefix_parses": (tr["prefix_parses"], "count"),
        "rtingest.rows_read": (rows_read, "count"),
        "rtingest.rows_kept": (rows_kept, "count"),
        "rtingest.rows_skipped": (rows_read - rows_kept, "count"),
        "rtingest.files_parsed": (count(a, "rtingest.load_series", "files"), "count"),
        "rtingest.gap_days": (count(a, "rtingest.load_series", "gaps"), "count"),
        "rtingest.peak_rss_mb": (largest["rss_mb"], "MB"),
        "metrics.build_series_s": (self_s(a, "metrics.build_series"), "s"),
        "metrics.origin_presence_s": (self_s(a, "metrics.origin_presence"), "s"),
        "reachability.diff_reachability_s": (self_s(a, "reachability.diff_reachability"), "s"),
        "outage.detect_dips_s": (self_s(a, "outage.detect_dips"), "s"),
        "outage.events": (count(a, "outage.detect_dips", "events"), "count"),
        "pipeline.write_outputs_s": (self_s(a, "pipeline.write_outputs"), "s"),
        "pipeline.output_files": (count(a, "pipeline.write_outputs", "files"), "count"),
        "pipeline.output_bytes": (sum(p.stat().st_size for p in out.rglob("*") if p.is_file()), "bytes"),
        "pipeline.self_s": (self_s(a, "pipeline.run_analysis"), "s"),
        "trace.analyze_s": (analyze_s, "s"),
        "trace.overhead_s": (analyze_s - untraced_s, "s"),
        "trace.unattributed_share": ((analyze_s - top_level) / analyze_s, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed analyze loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "ixpreach" / "cli.py").is_file():
        print(f"error: no ixpreach package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    import workloads
    from ixpreach import synth

    try:
        plan = workloads.plan(args.workload, args.seed, args.tiny)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t = time.perf_counter()
    tree, props = ensure_tree(workloads, plan, args.tiny)
    print(f"workload {args.workload} seed {args.seed}: tree ready in {time.perf_counter() - t:.1f} s; "
          f"{os.cpu_count()} cores")
    print("properties " + json.dumps(props, sort_keys=True))
    gt_path = tree / "ground_truth.json"
    gt = synth.GroundTruth.load(gt_path)
    averages = workloads.expected_averages(plan, gt)

    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        # Set-up: build the ASN database from the five delegated files.
        setup_s, db_digests = [], set()
        for k in range(1 if args.trace else SETUP_REPS):
            db = work / f"asndb-{k}.txt"
            report, problems = run_child(workloads.build_asndb_args(tree, db), trace=bool(args.trace))
            problems = problems or gate.check_build(report, props["asndb"])
            if not tally.record(f"build-asndb #{k}", problems):
                break
            setup_s.append(report["elapsed_s"])
            db_digests.add(hashlib.sha256(db.read_bytes()).hexdigest())
            build_report = report
        if len(db_digests) > 1:
            tally.record("build-asndb", ["databases differ between repetitions"])
        db = work / "asndb-0.txt"

        def analyze(out: Path, trace: bool) -> tuple[dict | None, list[str]]:
            """One gated analyze run; its output must match the first run's."""
            nonlocal out_digest
            report, problems = run_child(workloads.analyze_args(plan, tree, db, out), trace=trace, gt=gt_path)
            if not problems:
                problems = gate.check_analyze(report, averages) + gate.check_outputs(out, gt, averages)
                digest = gate.digest_dir(out)
                out_digest = out_digest or digest
                if digest != out_digest:
                    problems.append("output directory differs from the first run's")
            return report, problems

        # Timed analyze loop, tracing off.
        analyze_s, analyze_wall, probes, rss_mb, out_digest = [], [], [], [], None
        started = time.perf_counter()
        while not tally.failed and (len(analyze_s) < MIN_SAMPLES or time.perf_counter() - started < args.seconds):
            out = work / f"out-{len(analyze_s)}"
            report, problems = analyze(out, trace=False)
            shutil.rmtree(out, ignore_errors=True)
            if tally.record(f"analyze #{len(analyze_s)}", problems):
                analyze_s.append(report["elapsed_s"])
                analyze_wall.append(report["wall_s"])
                probes += report["probe_s"]
                rss_mb.append(report["peak_rss_mb"])

        metrics: dict[str, tuple[float, str]] = {}
        if not tally.failed and args.trace:
            out = work / "out-traced"
            report, problems = analyze(out, trace=True)
            if tally.record("traced analyze", problems):
                metrics = layer_metrics(build_report, report, statistics.median(analyze_s), out)
                tally.record("traced counts", gate.check_trace_counts(
                    {k: v for k, (v, _) in metrics.items()}, props))
        elif not tally.failed:
            q_setup = quantile(setup_s, 4)
            q_analyze = quantile(analyze_s, 4)
            metrics = {
                "setup_s": (q_setup[1], "s"),
                "analyze_s": (q_analyze[1], "s"),
                "rows_per_s": (props["rows"] / q_analyze[1], "1/s"),
                "peak_rss_mb": (statistics.median(rss_mb), "MB"),
            }
            print(f"setup_s samples={len(setup_s)} q1={q_setup[0]:.4f} median={q_setup[1]:.4f} q3={q_setup[2]:.4f}")
            print(f"analyze_s samples={len(analyze_s)} q1={q_analyze[0]:.4f} median={q_analyze[1]:.4f} "
                  f"q3={q_analyze[2]:.4f} max={max(analyze_s):.4f} wall median={statistics.median(analyze_wall):.4f}")
            print(f"speed probe median {statistics.median(probes):.4f} s over {len(probes)} probes, "
                  f"reference {PROBE_REFERENCE_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_share {tally.failed / max(1, tally.attempted):.4g} ({tally.failed} of {tally.attempted} runs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
