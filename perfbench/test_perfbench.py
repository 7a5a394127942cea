"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Checks that every workload runs end to end with the gate passing, that
the output carries every metric `BENCHMARK.json` names, that the gate
trips on a tampered output, that the trace names a missing layer, and
that the benchmark fails cleanly outside a full checkout.
"""

import datetime as dt
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ixpreach import synth  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    code, lines, stderr = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                "--trace", trace, "--tiny")
    assert code == 0, (lines[-5:], stderr[-2000:])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_tree_other_seed_other_tree(tmp_path):
    trees = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.build(workloads.plan("all-countries", seed, tiny=True), tmp_path / name)
        trees[name] = gate.digest_dir(tmp_path / name)
    assert trees["a"] == trees["b"] != trees["c"]


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """One gated analyze run of a tiny wide-table tree."""
    tmp = tmp_path_factory.mktemp("gate")
    plan = workloads.plan("wide-table", 9, tiny=True)
    tree = tmp / "tree"
    props = workloads.build(plan, tree)
    db = tmp / "asndb.txt"
    report, problems = run.run_child(workloads.build_asndb_args(tree, db))
    assert problems == [] and gate.check_build(report, props["asndb"]) == []
    out = tmp / "out"
    report, problems = run.run_child(workloads.analyze_args(plan, tree, db, out), gt=tree / "ground_truth.json")
    assert problems == []
    gt = synth.GroundTruth.load(tree / "ground_truth.json")
    return report, out, gt, dict(props, averages=workloads.expected_averages(plan, gt))


def test_gate_passes_a_clean_run(analyzed):
    report, out, gt, props = analyzed
    assert len(report["probe_s"]) == 2  # in the child, then in a fresh process
    assert gate.check_analyze(report, props["averages"]) == []
    assert gate.check_outputs(out, gt, props["averages"]) == []


def test_gate_trips_on_one_changed_count(analyzed, tmp_path):
    report, out, gt, props = analyzed
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / "metrics" / "amsix_UA.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[3] = str(int(cells[3]) + 1)  # announcements on the first day
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    assert gate.digest_dir(copy) != gate.digest_dir(out)
    problems = gate.check_outputs(copy, gt, props["averages"])
    assert len(problems) == 1 and "amsix_UA.csv" in problems[0]
    # A records file that lost its only line: no loss list left to compare.
    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    records = copy / "reachability" / "UA_records.txt"
    records.write_text("".join(records.read_text(encoding="utf-8").splitlines(keepends=True)[1:]),
                       encoding="utf-8")
    problems = gate.check_outputs(copy, gt, props["averages"])
    assert len(problems) == 1 and "UA_records.txt" in problems[0] and "amsix" in problems[0]


def test_expected_averages_reproduce_the_paper_tables():
    # The published per-IXP origins and losses give the published averages.
    ixps = workloads.PAPER_IXPS
    base = dt.date(2022, 2, 19)
    gt = types.SimpleNamespace(
        ixps=ixps, countries=("RU", "UA"), baseline_date=base,
        metrics={ixp: {"UA": {base: (0, ua)}, "RU": {base: (0, ru)}}
                 for ixp, ua, ru in zip(ixps, workloads.PAPER_UA, workloads.PAPER_RU)},
        unreachable={ixp: {"UA": tuple(range(ua)), "RU": tuple(range(ru))}
                     for ixp, ua, ru in zip(ixps, workloads.PAPER_UA_LOST, workloads.PAPER_RU_LOST)})
    plan = workloads.plan("paper-5x70", 1)
    assert workloads.expected_averages(plan, gt) == workloads.PAPER_AVERAGES
    gt.unreachable[ixps[0]]["UA"] = tuple(range(88))  # 8.6 % in place of 8.5 %
    with pytest.raises(ValueError, match="pins"):
        workloads.expected_averages(plan, gt)


def test_gate_trips_on_a_wrong_average_or_build_count(analyzed):
    report, _, _, props = analyzed
    bad = dict(report, stdout=report["stdout"].replace("UA: average pct lost", "UA: average pct lost 9"))
    assert gate.check_analyze(bad, props["averages"])
    expect = dict(props["asndb"], skipped=props["asndb"]["skipped"] + 1)
    build = {"exit_code": 0, "stdout": "records={records} conflicts={conflicts} skipped={skipped}\n".format(
        **props["asndb"])}
    assert gate.check_build(build, props["asndb"]) == []
    assert gate.check_build(build, expect)


def test_gate_checks_exact_parser_counts(analyzed):
    _, _, _, props = analyzed
    layer = {"rtingest.rows_read": props["rows"], "rtingest.rows_skipped": props["malformed_rows"],
             "rtingest.files_parsed": props["files"], "rtingest.gap_days": 0}
    assert gate.check_trace_counts(layer, props) == []
    layer["rtingest.rows_skipped"] -= 1
    assert gate.check_trace_counts(layer, props) == [
        f"rtingest.rows_skipped = {props['malformed_rows'] - 1}, expected {props['malformed_rows']}"]


def test_trace_names_a_missing_or_bypassed_layer():
    module = types.ModuleType("ixpreach.fake")
    module.present = lambda: None
    tracer = child.Tracer()
    with pytest.raises(SystemExit, match=r"ixpreach\.fake\.renamed is missing"):
        tracer.wrap(module, "renamed", "fake.renamed")
    tracer.wrap(module, "present", "fake.present")
    with pytest.raises(SystemExit, match=r"fake\.present never called"):
        tracer.check_called()
    module.present()
    tracer.check_called()


def test_speed_probe_scales_times_and_keeps_wall_time():
    report = {"elapsed_s": 4.0, "probe_s": [run.PROBE_REFERENCE_S, 3 * run.PROBE_REFERENCE_S],
              "trace": {"spans": [{"start": 10.0, "end": 12.0}]}}
    run.scale_times(report)  # the machine ran at half the reference speed
    assert report["elapsed_s"] == 2.0 and report["wall_s"] == 4.0
    assert report["trace"]["spans"][0]["end"] - report["trace"]["spans"][0]["start"] == 1.0
    assert 0 < child.probe_s() < 10


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, stderr = bench("--workload", "paper-5x70", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
    assert "ixpreach" in stderr
