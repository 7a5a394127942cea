import csv
import datetime as dt
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ixpreach
from ixpreach import asndb, cli, metrics, outage, pipeline, synth
from ixpreach.rtingest import DateRange
from ixpreach.synth import CountrySpec, Disruption, ScenarioSpec

from conftest import BAD_CATALOG_LINES, BASE, day, readme_scenario


def run(argv):
    return cli.main(argv)


def tree_bytes(root: Path) -> dict[Path, bytes]:
    """Each file under `root`, by its path relative to `root`, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# sha256 of the `analyze` output directory of the scenario in
# TestAnalyze.test_output_bytes_are_pinned, over each file's relative path
# and bytes in sorted order (as perfbench's gate.digest_dir takes it): the
# origins CSVs in a digest of their own, every other file in the first.
PINNED_OUTPUT_SHA256 = "b70c427db16b95407229d012cb06f2ea88cbea852cf15c2dbc693d74804ac34f"
PINNED_ORIGINS_SHA256 = "ffb4880f0096a30d4b69deef8cc59c4acd162dcf920709412c6a3d70f12227bc"


SPEC = ScenarioSpec(
    seed=8,
    window=DateRange(BASE, day(13)),
    ixps=("amsix", "linx"),
    countries={
        "UA": CountrySpec(origin_count=10, prefixes_per_origin=(1, 2), neighbor_count=2),
        "RU": CountrySpec(origin_count=8, prefixes_per_origin=(1, 2), neighbor_count=1),
    },
    gap_dates=(day(6),),
    disruptions=(
        Disruption("origin_removal", "amsix", "UA", day(4), day(5), count=2),
    ),
)


def generated(tmp_path, spec=SPEC):
    """`spec` generated under `tmp_path` plus a built asndb, ready for analyze."""
    scen = tmp_path / "scen"
    gt = synth.generate(spec, scen)
    rc = run(["build-asndb", "--rir", f"ripencc={scen / 'delegated.txt'}",
              "--out", str(tmp_path / "asndb.txt")])
    assert rc == 0
    return tmp_path, scen, gt


@pytest.fixture
def analyzed_scenario(tmp_path):
    """A small generated scenario plus a built asndb, ready for analyze."""
    return generated(tmp_path)


@pytest.mark.parametrize("argv", [
    ["build-asndb", "--out", "db.txt"],
    ["plot", "--metrics", "metrics.csv", "--metric", "announcements"],
], ids=["build-asndb-without-rir", "plot-without-out-or-table"])
def test_usage_error_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


# The standard-library modules the package imports on the `analyze` path.
# What they load themselves, on whichever Python, is not held against it.
STDLIB_IMPORTS = ("__future__, _socket, argparse, array, bisect, csv, datetime, hashlib, io, ipaddress, "
                  "itertools, math, operator, pathlib, re, string, sys, typing")
# What `analyze` does not use: each benchmark child imports the package
# inside its clock, and a user pays for every import at each run.
NOT_IMPORTED_AT_START = {"dataclasses", "logging", "statistics", "socket", "importlib.resources",
                         "ixpreach.svgchart", "ixpreach.synth"}


def modules_after(statement):
    """The modules a fresh `python -S` holds after `statement`; it writes
    no bytecode cache, which would speed up later imports of the package."""
    src = Path(ixpreach.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); {statement}; print(*sys.modules)"
    probe = subprocess.run([sys.executable, "-S", "-B", "-c", code], check=True, capture_output=True, text=True)
    return set(probe.stdout.split())


def test_analyze_imports_only_what_it_uses():
    added = modules_after("from ixpreach import cli, pipeline") - modules_after(f"import {STDLIB_IMPORTS}")
    assert {"ixpreach.cli", "ixpreach.pipeline", "ixpreach.rtingest"} <= added
    assert added & NOT_IMPORTED_AT_START == set()


class TestBuildAsndb:
    def test_five_fixture_files(self, tmp_path, delegated_dir, capsys):
        args = ["build-asndb", "--out", str(tmp_path / "db.txt")]
        for registry in ("afrinic", "apnic", "arin", "lacnic", "ripencc"):
            args += ["--rir", f"{registry}={delegated_dir / f'{registry}.txt'}"]
        assert run(args) == 0
        out = capsys.readouterr().out
        assert "records=17" in out
        assert "conflicts=2" in out
        assert "skipped=1" in out
        assert (tmp_path / "db.txt").exists()

    def test_missing_file_names_the_registry(self, tmp_path, capsys):
        rc = run(["build-asndb", "--rir", f"apnic={tmp_path / 'nope.txt'}",
                  "--out", str(tmp_path / "db.txt")])
        assert rc == 2
        assert "apnic" in capsys.readouterr().err

    def test_unknown_registry_is_usage_error(self, tmp_path):
        rc = run(["build-asndb", "--rir", f"examplerir={tmp_path / 'x.txt'}",
                  "--out", str(tmp_path / "db.txt")])
        assert rc == 1

    def test_malformed_rir_argument(self, tmp_path):
        assert run(["build-asndb", "--rir", "justapath", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("first, second", [
        ("ripencc=F", "ripencc=F"),
        ("ripencc=F", "arin=F"),
        ("ripencc=./F", "ripencc=F"),
    ], ids=["same-label", "two-labels", "dot-slash"])
    def test_file_named_twice_is_usage_error(self, tmp_path, delegated_dir, monkeypatch, capsys, first, second):
        # Read twice, each of the file's ASNs would count as a conflict.
        shutil.copy(delegated_dir / "ripencc.txt", tmp_path / "F")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.asndb, "build_from_files", lambda items: pytest.fail("a file was read"))
        assert run(["build-asndb", "--rir", first, "--rir", "apnic=other", "--rir", second, "--out", "db.txt"]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: --rir names {tmp_path.resolve() / 'F'} twice; name each file once\n"
        assert os.listdir(tmp_path) == ["F"]

    @pytest.mark.parametrize("rir, out", [
        ("F", "F"),
        ("F", "./F"),
        ("D.idx", "D"),
    ], ids=["same-path", "dot-slash", "index-path"])
    def test_output_naming_an_input_is_usage_error(self, tmp_path, delegated_dir, monkeypatch, capsys, rir, out):
        # Written first, the database would replace the file it is built from.
        shutil.copy(delegated_dir / "ripencc.txt", tmp_path / rir)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.asndb, "build_from_files", lambda items: pytest.fail("a file was read"))
        assert run(["build-asndb", "--rir", f"ripencc={rir}", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: --out {out} would overwrite the --rir file {tmp_path.resolve() / rir}; " \
                      "name another output\n"
        assert os.listdir(tmp_path) == [rir]
        assert (tmp_path / rir).read_bytes() == (delegated_dir / "ripencc.txt").read_bytes()


class TestAnalyze:
    def analyze_args(self, tmp_path, scen, gt, out="out"):
        return [
            "analyze",
            "--asndb", str(tmp_path / "asndb.txt"),
            "--snapshots", str(scen / "snapshots"),
            "--out", str(tmp_path / out),
            "--ixps", ",".join(gt.ixps),
            "--countries", ",".join(gt.countries),
            "--baseline-date", gt.baseline_date.isoformat(),
            "--final-date", gt.final_date.isoformat(),
        ]

    def test_writes_all_declared_outputs(self, analyzed_scenario, capsys):
        from ixpreach.metrics import read_metrics_csv
        from ixpreach.outage import read_events_csv

        tmp_path, scen, gt = analyzed_scenario
        assert run(self.analyze_args(tmp_path, scen, gt)) == 0
        out = tmp_path / "out"
        files = [p for p in out.rglob("*") if p.is_file()]
        assert capsys.readouterr().out.startswith(f"wrote {len(files)} files under {out}\n")
        for ixp in gt.ixps:
            for cc in gt.countries:
                with open(out / "metrics" / f"{ixp}_{cc}.csv") as handle:
                    mseries = read_metrics_csv(handle)  # parses under its own schema
                assert (mseries.ixp, mseries.country) == (ixp, cc)
                assert len(mseries.dates) == 13  # 14-day window, one gap
                with open(out / "outages" / f"{ixp}_{cc}.csv") as handle:
                    read_events_csv(handle)
        for cc in gt.countries:
            assert (out / "reachability" / f"{cc}_table.txt").exists()
            records = (out / "reachability" / f"{cc}_records.txt").read_text().splitlines()
            assert len(records) == len(gt.ixps)
            assert all(line.startswith("ixp=") for line in records)
        assert (out / "summary.txt").exists()

    def test_rerun_is_byte_identical(self, analyzed_scenario):
        tmp_path, scen, gt = analyzed_scenario
        assert run(self.analyze_args(tmp_path, scen, gt, out="out1")) == 0
        assert run(self.analyze_args(tmp_path, scen, gt, out="out2")) == 0
        first = tree_bytes(tmp_path / "out1")
        assert first and tree_bytes(tmp_path / "out2") == first
        # A rerun into a directory holding this run's own files is not refused.
        assert run(self.analyze_args(tmp_path, scen, gt, out="out1")) == 0
        assert tree_bytes(tmp_path / "out1") == first

    def test_defaults_given_explicitly_change_no_byte(self, analyzed_scenario):
        # Each numeric setting given as its default by flag: the output of
        # leaving it out (a float 10.0 renders as 10).
        tmp_path, scen, gt = analyzed_scenario
        defaults = pipeline.RunConfig._field_defaults
        given = {key: str(defaults[field]) for key, (field, _, _) in cli._ANALYZE_SETTINGS.items()
                 if isinstance(defaults.get(field), (int, float))}
        assert sorted(given) == ["confirmation_window", "min_reference", "threshold", "trailing_window"]
        assert run(self.analyze_args(tmp_path, scen, gt, out="plain")) == 0
        assert run(self.analyze_args(tmp_path, scen, gt, out="by-flag") + flag_args(given)) == 0
        plain = tree_bytes(tmp_path / "plain")
        assert b" min_reference=10\n" in plain[Path("summary.txt")]
        assert tree_bytes(tmp_path / "by-flag") == plain

    def test_directory_with_another_runs_files_is_refused(self, analyzed_scenario, capsys):
        tmp_path, scen, gt = analyzed_scenario
        assert gt.ixps == ("amsix", "linx") and set(gt.countries) == {"UA", "RU"}
        out = tmp_path / "out"

        def narrow(out_name):
            args = self.analyze_args(tmp_path, scen, gt, out=out_name)
            args[args.index("--ixps") + 1] = "amsix"
            args[args.index("--countries") + 1] = "UA"
            return run(args)

        assert run(self.analyze_args(tmp_path, scen, gt)) == 0
        before = tree_bytes(out)
        assert len(before) == 17
        capsys.readouterr()
        assert narrow("out") == 2
        err = capsys.readouterr().err
        stale = [rel for rel in before if "linx" in rel.name or "RU" in rel.name]
        assert len(stale) == 11
        assert any(str(out / rel) in err for rel in stale), err
        assert tree_bytes(out) == before
        # A directory holding fewer pairs' files is written over.
        assert narrow("grown") == 0
        assert run(self.analyze_args(tmp_path, scen, gt, out="grown")) == 0
        assert tree_bytes(tmp_path / "grown") == before

    def test_output_and_stdout_are_independent_of_hash_seed(self, analyzed_scenario):
        tmp_path, scen, gt = analyzed_scenario
        src = Path(ixpreach.__file__).resolve().parent.parent
        out = tmp_path / "out"
        # Two seeds under which a set of the scenario's country codes
        # iterates in different orders.
        orders = {}
        for seed in map(str, range(1, 100)):
            if len(orders) == 2:
                break
            order = subprocess.run([sys.executable, "-c", f"print(*set({gt.countries!r}))"],
                                   env=dict(os.environ, PYTHONHASHSEED=seed),
                                   check=True, capture_output=True, text=True).stdout
            orders.setdefault(order, seed)
        assert len(orders) == 2
        runs = []
        for seed in orders.values():
            done = subprocess.run([sys.executable, "-m", "ixpreach.cli", *self.analyze_args(tmp_path, scen, gt)],
                                  env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src)),
                                  check=True, capture_output=True, text=True)
            runs.append((done.stdout, {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}))
            shutil.rmtree(out)
        assert runs[0] == runs[1]
        assert runs[0][0].startswith(f"wrote {len(runs[0][1])} files under {out}")

    def test_seed_catalog_matches_the_packaged_file(self, tmp_path):
        # The removal lies inside the seed catalog's sumy-blackout (2022-03-03..05).
        removal = Disruption("origin_removal", "amsix", "UA", dt.date(2022, 3, 3), dt.date(2022, 3, 5), count=3)
        tmp_path, scen, gt = generated(tmp_path, replace(SPEC, window=DateRange(BASE, day(20)),
                                                         disruptions=(removal,)))
        packaged = Path(cli.__file__).parent / "data" / "event_catalog.txt"
        marked = tmp_path / "bom_catalog.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + packaged.read_bytes())
        for out, catalog in (("seed", "seed"), ("file", str(packaged)), ("bom", str(marked))):
            args = self.analyze_args(tmp_path, scen, gt, out=out)
            assert run(args + ["--catalog", catalog]) == 0
        seed = tmp_path / "seed" / "outages"
        names = sorted(p.name for p in seed.iterdir())
        assert names
        for out in ("file", "bom"):
            assert names == sorted(p.name for p in (tmp_path / out / "outages").iterdir())
            for name in names:
                assert (seed / name).read_bytes() == (tmp_path / out / "outages" / name).read_bytes()
        with open(seed / "amsix_UA.csv") as handle:
            annotations = {event.annotation for event in outage.read_events_csv(handle)}
        assert annotations and annotations <= {entry.id for entry in outage.load_seed_catalog()}

    @pytest.mark.parametrize("extra, message", [
        (["--final-date", "9999-12-31"], "final date 9999-12-31 has no snapshot for IXP 'amsix'"),
        (["--baseline-date", "2022-02-25"], "baseline date 2022-02-25 has no snapshot for IXP 'amsix'"),
        (["--ixps", "amsix,nosuch"], "no snapshot directory for IXP 'nosuch'"),
    ], ids=["far-final", "gap-baseline", "missing-ixp"])
    def test_missing_input_fails_before_any_table_is_read(self, analyzed_scenario, monkeypatch,
                                                          capsys, extra, message):
        tmp_path, scen, gt = analyzed_scenario

        def refuse(*args, **kwargs):
            raise AssertionError("load_series called")

        monkeypatch.setattr(pipeline.rtingest, "load_series", refuse)
        assert run(self.analyze_args(tmp_path, scen, gt) + extra) == 2
        assert message in capsys.readouterr().err

    def test_a_key_error_is_a_defect_not_a_data_error(self, tmp_path, monkeypatch):
        # Bad input raises OSError or ValueError (exit 2); a KeyError is the
        # program's own fault and propagates.
        def broken(config):
            raise KeyError("x")

        monkeypatch.setattr(pipeline, "run_analysis", broken)
        with pytest.raises(KeyError):
            run(["analyze", "--asndb", str(tmp_path / "asndb.txt"), "--snapshots", str(tmp_path),
                 "--out", str(tmp_path / "out")])

    def test_joint_countries_match_single_country_runs(self, tmp_path):
        spec = ScenarioSpec(
            seed=21,
            window=DateRange(BASE, day(11)),
            ixps=("amsix", "linx"),
            countries={cc: CountrySpec(origin_count=n, prefixes_per_origin=(1, 3), neighbor_count=2)
                       for cc, n in (("UA", 12), ("RU", 9), ("DE", 7))},
            gap_dates=(day(4),),
            disruptions=(
                Disruption("permanent_loss", "amsix", "UA", day(5), count=3),
                Disruption("permanent_loss", "linx", "RU", day(6), count=2),
                Disruption("prefix_shrink", "linx", "DE", day(7), day(8), magnitude=0.5),
            ),
        )
        scen = tmp_path / "scen"
        gt = synth.generate(spec, scen)
        assert run(["build-asndb", "--rir", f"ripencc={scen / 'delegated.txt'}",
                    "--out", str(tmp_path / "asndb.txt")]) == 0

        def analyze(out, countries):
            args = self.analyze_args(tmp_path, scen, gt, out=out)
            args[args.index("--countries") + 1] = countries
            assert run(args) == 0
            root = tmp_path / out
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        joint = analyze("joint", "UA,RU,DE")
        # Among 300 codes, RU falls in build_series' first block of countries and UA in its second.
        wide_codes = sorted({"UA", "RU", *sorted(asndb.COUNTRY_CODES - {"UA", "RU", "ZZ"})[::2][:298]})
        assert len(wide_codes) == 300 and wide_codes.index("RU") < metrics._BLOCK <= wide_codes.index("UA")
        wide = analyze("wide", ",".join(wide_codes))
        assert sum(rel.startswith("metrics/") for rel in wide) == 300 * len(gt.ixps)
        for cc in ("UA", "RU", "DE"):
            alone = analyze(f"alone-{cc}", cc)
            mine = {rel for rel in joint if rel.endswith((f"_{cc}.csv", f"_{cc}_origins.csv"))
                    or rel.startswith(f"reachability/{cc}_")}
            assert len(mine) == 3 * len(gt.ixps) + 2
            assert mine == {rel for rel in alone if rel != "summary.txt"}
            for rel in mine:
                assert joint[rel] == wide[rel] == alone[rel], rel
        assert analyze("twice", "UA,UA") == analyze("once", "UA")

    @pytest.mark.parametrize("rewrite", [
        lambda lines: "".join(line + "\r\n" for line in lines),
        lambda lines: "".join(line + "\r" for line in lines),
        lambda lines: "".join(line + ("\n" if 2 * i < len(lines) else "\r") for i, line in enumerate(lines)),
        lambda lines: "".join('"{}","{}"\n'.format(*line.split(",", 1)) for line in lines),
    ], ids=["crlf", "cr", "mixed", "quoted"])
    def test_line_ends_and_quoting_write_the_same_files(self, analyzed_scenario, rewrite):
        # CRLF, lone CR, LF for the first half of each file's lines then lone
        # CR, and every cell quoted (so csv reads every line): the same tables.
        tmp_path, scen, gt = analyzed_scenario
        copy = tmp_path / "copy"
        shutil.copytree(scen / "snapshots", copy)
        for path in copy.rglob("*.csv"):
            path.write_bytes(rewrite(path.read_text(encoding="utf-8").splitlines()).encode())
        assert run(self.analyze_args(tmp_path, scen, gt, out="plain")) == 0
        assert run(self.analyze_args(tmp_path, scen, gt, out="copy-out") + ["--snapshots", str(copy)]) == 0
        assert tree_bytes(tmp_path / "copy-out") == tree_bytes(tmp_path / "plain")
        config = pipeline.RunConfig(tmp_path, copy, tmp_path / "copy-out")
        assert synth.verify(gt, pipeline.AnalysisResult(config, {}, {})) == []

    def test_output_bytes_are_pinned(self, tmp_path):
        spec = ScenarioSpec(
            seed=31,
            window=DateRange(BASE, day(15)),
            ixps=("amsix", "linx", "six"),
            countries={
                "UA": CountrySpec(origin_count=12, prefixes_per_origin=(1, 3), neighbor_count=2),
                "RU": CountrySpec(origin_count=9, prefixes_per_origin=(1, 2), neighbor_count=2),
            },
            gap_dates=(day(3), day(9), day(10)),
            disruptions=(
                Disruption("origin_removal", "amsix", "UA", day(5), day(7), count=3),
                Disruption("permanent_loss", "six", "RU", day(11), count=2),
                Disruption("prefix_shrink", "linx", "UA", day(6), day(8), magnitude=0.5),
                Disruption("neighbor_disconnect", "linx", "RU", day(12), day(13), count=1),
            ),
        )
        scen = tmp_path / "scen"
        gt = synth.generate(spec, scen)
        assert run(["build-asndb", "--rir", f"ripencc={scen / 'delegated.txt'}",
                    "--out", str(tmp_path / "asndb.txt")]) == 0
        assert run(self.analyze_args(tmp_path, scen, gt)) == 0
        out = tmp_path / "out"
        digests = {False: hashlib.sha256(), True: hashlib.sha256()}  # by: is an origins CSV
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = digests[path.name.endswith("_origins.csv")]
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        assert digests[False].hexdigest() == PINNED_OUTPUT_SHA256
        assert digests[True].hexdigest() == PINNED_ORIGINS_SHA256

    def test_repeated_ixp_is_analysed_once(self, analyzed_scenario):
        tmp_path, scen, gt = analyzed_scenario
        assert gt.ixps == ("amsix", "linx")
        outputs = {}
        for out, ixps in (("once", "amsix,linx"), ("repeated", "amsix,linx,amsix")):
            args = self.analyze_args(tmp_path, scen, gt, out=out)
            args[args.index("--ixps") + 1] = ixps
            assert run(args) == 0
            root = tmp_path / out
            outputs[out] = {str(p.relative_to(root)): p.read_bytes()
                            for p in root.rglob("*") if p.is_file()}
        assert outputs["repeated"] == outputs["once"]

    def test_empty_snapshot_tree_fails_with_data_error(self, tmp_path, capsys):
        (tmp_path / "snapshots").mkdir()
        (tmp_path / "asndb.txt").write_text("# asndb 1\n# records 0 conflicts 0\n")
        rc = run(["analyze", "--asndb", str(tmp_path / "asndb.txt"),
                  "--snapshots", str(tmp_path / "snapshots"),
                  "--out", str(tmp_path / "out"), "--ixps", "amsix",
                  "--countries", "UA"])
        assert rc == 2

    @pytest.mark.parametrize("text", ["", "12389|RU|ripencc|\n"], ids=["empty", "records-only"])
    def test_asndb_without_header_is_data_error(self, analyzed_scenario, capsys, text):
        tmp_path, scen, gt = analyzed_scenario
        (tmp_path / "asndb.txt").write_text(text)
        assert run(self.analyze_args(tmp_path, scen, gt)) == 2
        assert "no '# records N conflicts M' header" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_day_counts_run_to_the_end(self, analyzed_scenario):
        tmp_path, scen, gt = analyzed_scenario
        assert run(self.analyze_args(tmp_path, scen, gt) + ["--confirmation-window", "1000000"]) == 0
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_sparse_ixp_does_not_abort_the_run(self, analyzed_scenario):
        # linx keeps 3 snapshots, fewer than the dip detector's window
        tmp_path, scen, gt = analyzed_scenario
        kept = {gt.baseline_date, day(7), gt.final_date}
        for path in (scen / "snapshots" / "linx").iterdir():
            if dt.date.fromisoformat(path.stem) not in kept:
                path.unlink()
        assert run(self.analyze_args(tmp_path, scen, gt)) == 0
        out = tmp_path / "out"
        for cc in gt.countries:
            assert len((out / "metrics" / f"linx_{cc}.csv").read_text().splitlines()) == 1 + 3
            assert len((out / "metrics" / f"amsix_{cc}.csv").read_text().splitlines()) == 1 + 13
        assert (out / "summary.txt").exists()

    def test_missing_baseline_snapshot_is_explicit(self, analyzed_scenario, capsys):
        tmp_path, scen, gt = analyzed_scenario
        args = self.analyze_args(tmp_path, scen, gt)
        idx = args.index("--baseline-date")
        args[idx + 1] = (gt.baseline_date - dt.timedelta(days=5)).isoformat()
        assert run(args) == 2
        assert "baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"prefix,as_path\n192.0.2.0/24,174 \xff25133\n"],
                             ids=["empty", "undecodable"])
    def test_unusable_final_snapshot_is_a_data_error(self, analyzed_scenario, capsys, content):
        tmp_path, scen, gt = analyzed_scenario
        (scen / "snapshots" / "amsix" / f"{gt.final_date}.csv").write_bytes(content)
        assert run(self.analyze_args(tmp_path, scen, gt)) == 2
        assert f"final date {gt.final_date} has no snapshot for IXP 'amsix'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", BAD_CATALOG_LINES.values(), ids=BAD_CATALOG_LINES)
    def test_bad_catalog_file_is_data_error(self, analyzed_scenario, capsys, line, message):
        tmp_path, scen, gt = analyzed_scenario
        catalog = tmp_path / "catalog.txt"
        catalog.write_text(f"# id|start|end|label|source\n{line}\n")
        assert run(self.analyze_args(tmp_path, scen, gt) + ["--catalog", str(catalog)]) == 2
        assert capsys.readouterr().err == f"error: catalog line 2: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_reordered_header_with_an_extra_column_writes_the_same_files(self, analyzed_scenario, capsys):
        # The reordered tree adds an unmapped age column that changes on
        # every row, so every row is keyed by its cells, not by its line.
        tmp_path, scen, gt = analyzed_scenario
        reordered = tmp_path / "reordered"
        shutil.copytree(scen / "snapshots", reordered)
        for path in reordered.rglob("*.csv"):
            header, *rows = path.read_text().splitlines()
            assert header == "prefix,as_path"
            cells = [row.split(",") for row in rows]
            path.write_text("age,as_path,prefix\n" + "".join(
                f"{i}s,{as_path},{prefix}\n" for i, (prefix, as_path) in enumerate(cells)))
        args = self.analyze_args(tmp_path, scen, gt)
        out = tmp_path / "out"
        runs = []
        for extra in ([], ["--snapshots", str(reordered)]):
            assert run(args + extra) == 0
            runs.append((capsys.readouterr().out, {p.relative_to(out): p.read_bytes()
                                                   for p in out.rglob("*") if p.is_file()}))
            shutil.rmtree(out)
        assert runs[0] == runs[1]

    def test_missing_required_settings_is_usage_error(self, capsys):
        assert run(["analyze"]) == 1
        assert capsys.readouterr().err == ("usage error: the following arguments are required: "
                                           "--asndb, --snapshots, --out\n")

    @pytest.mark.parametrize("key", ["asndb", "snapshots", "out"])
    def test_one_missing_required_path_is_usage_error(self, analyzed_scenario, capsys, key):
        tmp_path, scen, gt = analyzed_scenario
        args = self.analyze_args(tmp_path, scen, gt)
        flag = "--" + key
        del args[args.index(flag):args.index(flag) + 2]
        assert run(args) == 1
        assert capsys.readouterr().err == f"usage error: the following arguments are required: {flag}\n"
        assert not (tmp_path / "out").exists()


# Per `analyze` setting: a value unlike the default (or unlike REQUIRED's).
SAMPLES = {
    "asndb": "db-a.txt",
    "snapshots": "snaps-a",
    "out": "out-a",
    "ixps": "amsix, linx",
    "countries": "DE,FR",
    "baseline_date": "2022-03-01",
    "final_date": "2022-03-30",
    "confirmation_window": "5",
    "trailing_window": "4",
    "threshold": "0.2",
    "min_reference": "2.5",
    "catalog": "seed",
}
REQUIRED = {"asndb": "db.txt", "snapshots": "snaps", "out": "out"}
TYPED = ("baseline_date", "final_date", "confirmation_window", "trailing_window",
         "threshold", "min_reference")


def flag_args(settings):
    return [arg for key, value in settings.items() for arg in ("--" + key.replace("_", "-"), value)]


def run_config(argv):
    return cli._build_run_config(cli.build_parser().parse_args(["analyze", *argv]))


class TestAnalyzeSettings:
    def test_each_run_config_field_has_one_row(self):
        table_fields = [field for field, _, _ in cli._ANALYZE_SETTINGS.values()]
        assert sorted(table_fields) == sorted(pipeline.RunConfig._fields)
        assert set(SAMPLES) == set(cli._ANALYZE_SETTINGS)

    def test_help_lists_every_setting_and_no_other_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["analyze", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help"} | {"--" + key.replace("_", "-") for key in cli._ANALYZE_SETTINGS}
        assert not flags & {"--config", "--annotation-slack", "--schema"}

    @pytest.mark.parametrize("key", SAMPLES)
    def test_each_flag_sets_its_own_field(self, key):
        field = cli._ANALYZE_SETTINGS[key][0]
        plain = run_config(flag_args(REQUIRED))
        by_flag = run_config(flag_args({**REQUIRED, key: SAMPLES[key]}))
        assert getattr(by_flag, field) != getattr(plain, field)
        assert by_flag._replace(**{field: getattr(plain, field)}) == plain

    @pytest.mark.parametrize("key", TYPED)
    def test_bad_typed_value_names_the_key(self, capsys, key):
        assert run(["analyze", *flag_args({**REQUIRED, key: "x1"})]) == 1
        assert f"bad value for {key}: 'x1' (" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("ixps", (), "at least one IXP is required"),
        ("ixps", ("../x",), "not a usable IXP id: '../x'"),
        ("countries", (), "at least one country is required"),
        ("countries", ("ua",), "not a usable country filter: 'ua'"),
        ("final_date", BASE, "baseline date must precede the final date"),
        ("confirmation_window", -1, "confirmation window must be >= 0"),
        ("trailing_window", 0, "trailing_window must be >= 1"),
        ("threshold", 0, "threshold must be a fraction in (0, 1)"),
        ("threshold", 1.0, "threshold must be a fraction in (0, 1)"),
        ("threshold", float("nan"), "threshold must be a fraction in (0, 1)"),
        ("min_reference", float("inf"), "min_reference must be a finite number"),
    ])
    def test_run_config_message_is_word_for_word(self, tmp_path, field, value, message):
        with pytest.raises(ValueError) as info:
            pipeline.RunConfig(tmp_path, tmp_path, tmp_path, **{field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("value, text", [(10, "10"), (10.0, "10"), (-3.0, "-3"), (2.5, "2.5")])
    def test_an_integral_min_reference_is_kept_as_an_int(self, tmp_path, value, text):
        assert str(pipeline.RunConfig(tmp_path, tmp_path, tmp_path, min_reference=value).min_reference) == text

    @pytest.mark.parametrize("bad", [
        ["--threshold", "1.5"],
        ["--trailing-window", "0"],
        ["--min-reference", "nan"],
        ["--min-reference", "inf"],
        ["--countries", "ZZ"],
        ["--countries", "ua"],
        ["--countries", ","],
        ["--annotation-slack", "0"],
        ["--schema", "x"],
        ["--config", "run.cfg"],
        ["--frobnicate"],
        ["--ixps", "amsix,../x"],
        ["--ixps", "amsix,ams ix"],
    ], ids=" ".join)
    def test_bad_setting_fails_before_any_read(self, tmp_path, capsys, bad):
        (tmp_path / "asndb.txt").write_text("# asndb 1\n# records 0 conflicts 0\n")
        argv = ["analyze", "--asndb", str(tmp_path / "asndb.txt"),
                "--snapshots", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
        assert run(argv + bad) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "out").exists()


class TestPlot:
    @pytest.fixture
    def metrics_csv(self, analyzed_scenario):
        tmp_path, scen, gt = analyzed_scenario
        args = TestAnalyze().analyze_args(tmp_path, scen, gt)
        assert run(args) == 0
        return tmp_path, tmp_path / "out" / "metrics" / "amsix_UA.csv", gt

    def test_chart_has_one_circle_per_point(self, metrics_csv, capsys):
        tmp_path, csv_path, gt = metrics_csv
        out = tmp_path / "chart.svg"
        assert run(["plot", "--metrics", str(csv_path), "--metric", "announcements",
                    "--out", str(out)]) == 0
        svg = out.read_text()
        # 14-day window with one gap day: 13 points
        assert svg.count("<circle") == 13

    def test_gaps_break_the_line_into_segments(self, metrics_csv):
        tmp_path, csv_path, gt = metrics_csv
        out = tmp_path / "chart.svg"
        assert run(["plot", "--metrics", str(csv_path), "--metric", "announcements",
                    "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2  # one gap -> two runs

    def test_empty_series_is_refused(self):
        from ixpreach import svgchart
        with pytest.raises(ValueError, match="cannot chart an empty series"):
            svgchart.render_chart([], title="linx RU: announcements", y_label="announcements", events=())

    def test_event_spans_outside_the_plotted_dates_are_not_drawn(self):
        from ixpreach import svgchart
        points = [(day(i), 10.0) for i in range(10)]
        events = [(day(-5), day(-1), "before"), (day(3), day(4), "inside"), (day(10), day(20), "after")]
        svg = svgchart.render_chart(points, title="testix UA: announcements", y_label="announcements", events=events)
        assert re.findall(r'<rect class="event" .*?<title>(.*?)</title>', svg) == ["inside"]

    def test_unknown_metric_lists_valid_ones(self, metrics_csv, capsys):
        tmp_path, csv_path, gt = metrics_csv
        rc = run(["plot", "--metrics", str(csv_path), "--metric", "bananas",
                  "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        err = capsys.readouterr().err
        for name in ("announcements", "distinct_origins", "distinct_prefixes", "distinct_neighbors"):
            assert name in err

    def test_events_are_shaded_with_matching_x_ranges(self, metrics_csv):
        tmp_path, csv_path, gt = metrics_csv
        events_csv = tmp_path / "out" / "outages" / "amsix_UA.csv"
        out = tmp_path / "chart.svg"
        assert run(["plot", "--metrics", str(csv_path), "--metric", "announcements",
                    "--events", str(events_csv), "--out", str(out)]) == 0
        svg = out.read_text()
        rects = re.findall(r'<rect class="event" x="([0-9.]+)" y="\d+" width="([0-9.]+)"', svg)
        from ixpreach.outage import read_events_csv
        from ixpreach import svgchart
        with open(events_csv) as handle:
            spans = [(e.start, e.end) for e in read_events_csv(handle)
                     if e.metric == "announcements"]
        assert len(rects) == len(spans) > 0
        # recompute the expected pixel range from the chart geometry
        from ixpreach.metrics import read_metrics_csv
        with open(csv_path) as handle:
            mseries = read_metrics_csv(handle)
        first = mseries.dates[0].toordinal()
        last = mseries.dates[-1].toordinal()
        plot_w = svgchart.WIDTH - svgchart.MARGIN_LEFT - svgchart.MARGIN_RIGHT
        for (x_text, w_text), (start, end) in zip(rects, spans):
            expect_x1 = svgchart.MARGIN_LEFT + (start.toordinal() - 0.5 - first) / (last - first) * plot_w
            expect_x2 = svgchart.MARGIN_LEFT + (end.toordinal() + 0.5 - first) / (last - first) * plot_w
            expect_x1 = max(expect_x1, svgchart.MARGIN_LEFT)
            expect_x2 = min(expect_x2, svgchart.MARGIN_LEFT + plot_w)
            assert float(x_text) == pytest.approx(expect_x1, abs=0.02)
            assert float(x_text) + float(w_text) == pytest.approx(expect_x2, abs=0.02)

    def test_table_output(self, metrics_csv, capsys):
        tmp_path, csv_path, gt = metrics_csv
        assert run(["plot", "--metrics", str(csv_path), "--metric", "distinct_origins",
                    "--table"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# amsix UA distinct_origins")
        assert len(out.strip().splitlines()) == 14  # header + 13 days

    def test_two_series_file_is_a_data_error(self, metrics_csv, tmp_path, capsys):
        _, csv_path, gt = metrics_csv
        combined = tmp_path / "combined.csv"
        text = csv_path.read_text()
        extra = text.splitlines()[1].replace("amsix", "linx")
        combined.write_text(text + extra + "\n")
        rc = run(["plot", "--metrics", str(combined), "--metric", "announcements",
                  "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "found amsix/UA, linx/UA" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("kind, row, reason", [
        ("metrics", "amsix,UA,announcements", "3 cells, expected 7"),
        ("metrics", "amsix,UA,2022-02-19,1,1,1,1,1", "8 cells, expected 7"),
        ("metrics", "amsix,UA,2022-02-30,1,1,1,1", "day is out of range for month"),
        ("metrics", "amsix,UA,2022-02-19,1,x,1,1", "'x'"),
        ("metrics", "amsix,UA,2022-02-19,1,1,1,1", "a second row for 2022-02-19"),
        ("metrics", f'amsix,UA,2022-02-19,1,1,1,"{"1" * (csv.field_size_limit() + 1)}"', "field larger than"),
        ("events", "amsix,UA,announcements", "3 cells, expected 9"),
        ("events", "amsix,UA,announcements,2022-02-19,2022-02-19x,100,60,0.4,", "2022-02-19x"),
        ("events", "amsix,UA,announcements,2022-02-19,2022-02-20,100,sixty,0.4,", "'sixty'"),
    ], ids=["metrics-short", "metrics-long", "metrics-date", "metrics-count", "metrics-repeated-day",
            "metrics-csv-error",
            "events-short", "events-date", "events-number"])
    def test_unparseable_row_names_its_file_and_line(self, metrics_csv, capsys, kind, row, reason):
        tmp_path, csv_path, gt = metrics_csv
        inputs = {"metrics": csv_path, "events": tmp_path / "out" / "outages" / "amsix_UA.csv"}
        bad = tmp_path / f"bad-{kind}.csv"
        text = inputs[kind].read_text()
        bad.write_text(text + row + "\n")
        inputs[kind] = bad
        chart = tmp_path / "x.svg"
        rc = run(["plot", "--metrics", str(inputs["metrics"]), "--metric", "announcements",
                  "--events", str(inputs["events"]), "--out", str(chart)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{len(text.splitlines()) + 1}: ")
        assert reason in err
        assert not chart.exists()

    def test_byte_order_mark_inputs_plot_like_plain_ones(self, metrics_csv, capsys):
        tmp_path, csv_path, gt = metrics_csv
        events_csv = tmp_path / "out" / "outages" / "amsix_UA.csv"
        chart = tmp_path / "chart.svg"
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            metrics_copy, events_copy = tmp_path / "metrics.csv", tmp_path / "events.csv"
            metrics_copy.write_bytes(mark + csv_path.read_bytes())
            events_copy.write_bytes(mark + events_csv.read_bytes())
            assert run(["plot", "--metrics", str(metrics_copy), "--metric", "announcements",
                        "--events", str(events_copy), "--out", str(chart), "--table"]) == 0
            outputs.append((capsys.readouterr().out, chart.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b'class="event"' in outputs[0][1]


class TestSynthCommand:
    def test_generates_and_prints_ground_truth_path(self, tmp_path, capsys):
        doc = {
            "seed": 12,
            "window": {"start": "2022-02-19", "end": "2022-02-28"},
            "ixps": ["amsix"],
            "countries": {"UA": {"origin_count": 5, "neighbor_count": 1}},
        }
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps(doc))
        rc = run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "scen")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ground_truth.json" in out
        assert (tmp_path / "scen" / "ground_truth.json").exists()

    def test_tree_bytes_are_independent_of_hash_seed(self, tmp_path):
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps(readme_scenario()))
        src = Path(ixpreach.__file__).resolve().parent.parent
        trees = []
        for seed in ("1", "2"):
            out = tmp_path / f"scen-{seed}"
            subprocess.run([sys.executable, "-m", "ixpreach.cli", "synth", "--spec", str(spec_path), "--out", str(out)],
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src)),
                           check=True, capture_output=True)
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

    def test_directory_with_another_scenarios_files_is_refused(self, tmp_path, capsys):
        # The README scenario, then narrower ones into the same directory.
        readme = readme_scenario()
        shorter = dict(readme, window={"start": "2022-02-19", "end": "2022-03-10"},
                       gap_dates=["2022-03-02"], disruptions=[])
        scen = tmp_path / "scen"

        def synth_run(doc, out=scen):
            spec_path = tmp_path / "scenario.json"
            spec_path.write_text(json.dumps(doc))
            return run(["synth", "--spec", str(spec_path), "--out", str(out)])

        assert synth_run(readme) == 0
        before = tree_bytes(scen)
        for doc, stale in ((dict(shorter, ixps=["amsix"]), scen / "snapshots" / "linx"),
                           (shorter, scen / "snapshots" / "amsix" / "2022-03-02.csv")):
            capsys.readouterr()
            assert synth_run(doc) == 2
            assert f"error: {stale} is not an output of this run" in capsys.readouterr().err
            assert tree_bytes(scen) == before
        # The same scenario again, or a wider one, is written over.
        assert synth_run(readme) == 0
        assert tree_bytes(scen) == before
        amsix_only = dict(readme, ixps=["amsix"], disruptions=readme["disruptions"][:1])
        assert synth_run(amsix_only, tmp_path / "grown") == 0
        assert synth_run(readme, tmp_path / "grown") == 0
        assert tree_bytes(tmp_path / "grown") == before

    def test_invalid_scenario_is_data_error(self, tmp_path, capsys):
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps({"seed": 1}))
        assert run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "scen")]) == 2
