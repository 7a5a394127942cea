import csv
import datetime as dt
import filecmp
import hashlib
import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from ixpreach import asndb, pipeline, reachability, synth
from ixpreach.metrics import METRIC_NAMES
from ixpreach.rtingest import DateRange, load_series
from ixpreach.synth import CountrySpec, Disruption, GroundTruth, ScenarioSpec

from conftest import BASE, analyze_generated, day


def tiny_spec(days=12, origins=5, disruptions=(), seed=1, neighbor_count=1, **kwargs):
    return ScenarioSpec(
        seed=seed,
        window=DateRange(BASE, day(days - 1)),
        ixps=("amsix",),
        countries={"UA": CountrySpec(origin_count=origins, prefixes_per_origin=(1, 3),
                                     neighbor_count=neighbor_count)},
        disruptions=tuple(disruptions),
        **kwargs,
    )


def expected_spans(gt, ixp, cc, metric):
    """The dip spans `verify` expects for one metric of a pair."""
    per_day = gt.metrics[ixp][cc]
    dates = sorted(per_day)
    column = METRIC_NAMES.index(metric)
    return synth._expected_dip_spans(dates, [per_day[d][column] for d in dates], **gt.detector)


# Final day 13, confirmation window days 10-12, day 11 a gap.  At each IXP
# one removal ends inside the window (back by the final day) and one on the
# final day; of the latter, origins seen on a window snapshot flap and the
# others are lost.  Every RU origin at linx is out on days 9-10 as well, so
# its flaps are seen on day 12 alone.
FLAP_SPEC = ScenarioSpec(
    seed=3,
    window=DateRange(BASE, day(13)),
    ixps=("amsix", "linx"),
    countries={"RU": CountrySpec(origin_count=8), "UA": CountrySpec(origin_count=12)},
    gap_dates=(day(11),),
    disruptions=(
        Disruption("origin_removal", "amsix", "UA", day(9), day(10), count=2),
        Disruption("origin_removal", "amsix", "UA", day(12), day(13), count=2),
        Disruption("origin_removal", "amsix", "UA", day(10), day(13), count=1),
        Disruption("origin_removal", "linx", "RU", day(9), day(10), count=8),
        Disruption("origin_removal", "linx", "RU", day(11), day(12), count=2),
        Disruption("origin_removal", "linx", "RU", day(13), day(13), count=2),
    ),
)


def readme_spec():
    """The scenario of README.md's JSON block."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return synth.scenario_from_dict(json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1)))


def recount_reachability(scen, gt):
    """(lost, new, flapping) origins per (IXP, country), recounted from the
    written snapshot CSVs and delegated file, not from the masks: an origin
    is the last AS path token, its country the delegated range holding it,
    and a window day a snapshot day 1..confirmation_window calendar days
    before the final date."""
    ranges = []
    for line in (scen / "delegated.txt").read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 7 and cells[2] == "asn":
            ranges.append((int(cells[3]), int(cells[3]) + int(cells[4]), cells[1]))
    counts = {}
    for ixp in gt.ixps:
        seen = {}  # snapshot day -> country -> origins
        for path in sorted((scen / "snapshots" / ixp).glob("*.csv")):
            per_cc = seen[dt.date.fromisoformat(path.stem)] = {}
            with open(path, newline="", encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    asn = int(row["as_path"].split()[-1])
                    cc = next((cc for lo, hi, cc in ranges if lo <= asn < hi), None)
                    per_cc.setdefault(cc, set()).add(asn)
        baseline, final = min(seen), max(seen)
        assert (baseline, final) == (gt.baseline_date, gt.final_date)
        window = [d for d in seen if 1 <= (final - d).days <= gt.confirmation_window]
        for cc in gt.countries:
            base, last = seen[baseline].get(cc, set()), seen[final].get(cc, set())
            lost = base - last - set().union(*(seen[d].get(cc, set()) for d in window))
            counts[ixp, cc] = tuple(tuple(sorted(asns)) for asns in (lost, last - base, base - last - lost))
    return counts


class TestGenerate:
    def test_no_disruption_scenario_keeps_origin_count(self, tmp_path):
        gt = synth.generate(tiny_spec(days=10, origins=5), tmp_path / "scen")
        for _, counts in sorted(gt.metrics["amsix"]["UA"].items()):
            assert counts[1] == 5  # distinct origins every day
        result = analyze_generated(tmp_path, gt)
        assert synth.verify(gt, result) == []

    def test_determinism_byte_identical_trees(self, tmp_path):
        spec = tiny_spec(days=10, origins=8, seed=77)
        synth.generate(spec, tmp_path / "a")
        synth.generate(spec, tmp_path / "b")
        comparison = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
        stack = [comparison]
        while stack:
            node = stack.pop()
            assert node.diff_files == [] and node.left_only == [] and node.right_only == []
            stack.extend(node.subdirs.values())

    def test_generated_files_parse_with_zero_skipped_rows(self, tmp_path):
        spec = tiny_spec(days=10, origins=20, seed=5)
        gt = synth.generate(spec, tmp_path / "scen")
        series = load_series(tmp_path / "scen" / "snapshots", "amsix",
                             DateRange(gt.window.start, gt.window.end))
        assert len(series.snapshots) == 10
        assert all(s.skipped == 0 for s in series.snapshots)
        assert all(len(s.entries) > 0 for s in series.snapshots)

    def test_gap_dates_have_no_files(self, tmp_path):
        spec = tiny_spec(days=10, origins=5, gap_dates=(day(4),))
        gt = synth.generate(spec, tmp_path / "scen")
        assert not (tmp_path / "scen" / "snapshots" / "amsix" / f"{day(4).isoformat()}.csv").exists()
        assert day(4) not in gt.metrics["amsix"]["UA"]
        result = analyze_generated(tmp_path, gt)
        pair = result.pairs["amsix", "UA"]
        assert day(4) not in pair.series.dates
        assert pair.presence.dates is pair.series.dates
        assert synth.verify(gt, result) == []

    def test_generated_tree_bytes_are_pinned(self, tmp_path):
        # Benchmark trees are regenerated from this code in each checkout, so
        # any drift in the generated bytes must show here first.  Each
        # scenario has a gap day and one disruption of every kind; the
        # second adds two overlapping shrinks and a join on the first day.
        first = ScenarioSpec(
            seed=17,
            window=DateRange(BASE, day(13)),
            ixps=("amsix", "linx"),
            countries={"UA": CountrySpec(origin_count=12, prefixes_per_origin=(1, 3), neighbor_count=2),
                       "RU": CountrySpec(origin_count={"amsix": 9, "linx": 7}, neighbor_count=1)},
            disruptions=(
                Disruption("origin_removal", "amsix", "UA", day(4), day(5), count=2),
                Disruption("permanent_loss", "linx", "RU", day(7), count=2),
                Disruption("neighbor_disconnect", "amsix", "RU", day(9), day(10), count=1),
                Disruption("prefix_shrink", "linx", "UA", day(3), day(4), magnitude=0.5),
                Disruption("join", "amsix", "UA", day(8), count=2),
            ),
            gap_dates=(day(6),),
        )
        second = ScenarioSpec(
            seed=23,
            window=DateRange(BASE, day(13)),
            ixps=("amsix", "linx"),
            countries={"UA": CountrySpec(origin_count=12, prefixes_per_origin=(1, 4), neighbor_count=2),
                       "RU": CountrySpec(origin_count=9, prefixes_per_origin=(2, 3), neighbor_count=2)},
            disruptions=(
                Disruption("prefix_shrink", "amsix", "UA", day(2), day(6), magnitude=0.3),
                Disruption("prefix_shrink", "amsix", "UA", day(4), day(5), magnitude=0.6),
                Disruption("join", "linx", "RU", day(0), count=2),
                Disruption("origin_removal", "linx", "UA", day(3), day(8), count=4),
                Disruption("neighbor_disconnect", "linx", "UA", day(5), day(9), count=1),
                Disruption("permanent_loss", "amsix", "RU", day(7), count=2),
            ),
            gap_dates=(day(6),),
        )
        # Two digests each: the program's inputs (the delegated file and the
        # snapshots), and the ground truth, which the inputs do not depend on.
        pinned = {"first": (first, "45d7830b0789d152e238b030519c97b08ae8c9d4ec07c10d470f825e4f436e42",
                            "98a66505b49f405b9b432b5599312e971f44611d529eb361d4053166611a0fa6"),
                  "second": (second, "1956f96052dd27f1a8b9c6ed65d4ae9c67ed2f9528d53acde89dcfad8d116bef",
                             "9c082c67e773a9508d48747ce5f78b12cbdac71e10bb7fdcc55ee7466ad8763d")}
        for name, (spec, want_inputs, want_truth) in pinned.items():
            assert {d.kind for d in spec.disruptions} == set(synth.DISRUPTION_KEYS)
            scen = tmp_path / name
            gt = synth.generate(spec, scen)
            files = sorted(path for path in scen.rglob("*") if path.is_file())
            assert [path.relative_to(scen).as_posix() for path in files[:2]] == ["delegated.txt", "ground_truth.json"]
            assert len(files) == 2 + 2 * 13  # two IXPs, 14 days less the gap
            digests = {"inputs": hashlib.sha256(), "truth": hashlib.sha256()}
            for path in files:
                part = "truth" if path.name == "ground_truth.json" else "inputs"
                digests[part].update(path.relative_to(scen).as_posix().encode() + b"\0" + path.read_bytes())
            assert {part: digest.hexdigest() for part, digest in digests.items()} == {
                "inputs": want_inputs, "truth": want_truth}, name
            assert synth.verify(gt, analyze_generated(tmp_path, gt, name)) == []

    def test_ground_truth_json_round_trip(self, tmp_path):
        gt = synth.generate(tiny_spec(days=10, origins=6, seed=4, confirmation_window=2, disruptions=[
            Disruption("origin_removal", "amsix", "UA", day(9), day(9), count=1),
            Disruption("permanent_loss", "amsix", "UA", day(5), count=1),
            Disruption("join", "amsix", "UA", day(6), count=1),
        ]), tmp_path / "scen")
        saved = tmp_path / "scen" / "ground_truth.json"
        # Only what generate decided is saved; the rest is derived on load.
        assert not {"baseline_date", "final_date", "unreachable", "new_origins",
                    "flapping_origins"} & json.loads(saved.read_text(encoding="utf-8")).keys()
        loaded = GroundTruth.load(saved)
        derived = ("baseline_date", "final_date", "snapshot_days", "unreachable", "new_origins", "flapping_origins")
        assert [getattr(loaded, name) for name in derived] == [getattr(gt, name) for name in derived]
        assert all(getattr(gt, name)["amsix"]["UA"] for name in derived[3:])
        assert loaded == gt
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == saved.read_bytes()


class TestDisruptions:
    def test_permanent_loss_mirrors_table_sized_report(self, tmp_path):
        # 87 of 1016 origins removed for good: report must count exactly
        # those and the truncated percentage must be 8.5
        spec = ScenarioSpec(
            seed=3,
            window=DateRange(BASE, day(11)),
            ixps=("auix",),
            countries={"UA": CountrySpec(origin_count=1016, prefixes_per_origin=(1, 2),
                                         neighbor_count=4)},
            disruptions=(Disruption("permanent_loss", "auix", "UA", day(5), count=87),),
        )
        gt = synth.generate(spec, tmp_path / "scen")
        assert len(gt.unreachable["auix"]["UA"]) == 87
        result = analyze_generated(tmp_path, gt)
        report = result.pairs["auix", "UA"].report
        assert report.total_baseline == 1016
        assert len(report.lost_asns) == 87
        assert report.pct_lost == 8.5
        assert synth.verify(gt, result) == []

    def test_origin_removal_produces_expected_offline_days(self, tmp_path):
        spec = tiny_spec(days=14, origins=10, seed=9, disruptions=[
            Disruption("origin_removal", "amsix", "UA", day(4), day(8), count=3),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        offline = [14 - mask.bit_count() for mask in gt.presence["amsix"]["UA"].values()]
        assert sorted(offline, reverse=True)[:4] == [5, 5, 5, 0]
        result = analyze_generated(tmp_path, gt)
        assert synth.verify(gt, result) == []

    def test_confirmation_window_past_the_first_date_generates(self, tmp_path):
        # analyze takes a window reaching back past year 1, so the generator
        # does too.  The window then covers the baseline, so the permanent
        # loss is a flap, not a loss, on both sides.
        spec = tiny_spec(days=12, origins=6, seed=5, confirmation_window=3_000_000, disruptions=[
            Disruption("permanent_loss", "amsix", "UA", day(6), count=2),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        assert gt.confirmation_window == 3_000_000 and gt.unreachable["amsix"]["UA"] == ()
        assert len(gt.flapping_origins["amsix"]["UA"]) == 2
        result = analyze_generated(tmp_path, gt)
        assert result.pairs["amsix", "UA"].report.flapping_asns == gt.flapping_origins["amsix"]["UA"]
        assert synth.verify(gt, result) == []

    def test_flap_in_the_confirmation_window_is_recorded_and_checked(self, tmp_path):
        # Two origins withheld on the final day only: seen on the days of the
        # confirmation window before it, so they flap and are not lost.
        spec = tiny_spec(days=10, origins=6, seed=4, confirmation_window=2, disruptions=[
            Disruption("origin_removal", "amsix", "UA", day(9), day(9), count=2),
            Disruption("permanent_loss", "amsix", "UA", day(5), count=1),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        flapping = gt.flapping_origins["amsix"]["UA"]
        assert len(flapping) == 2 and len(gt.unreachable["amsix"]["UA"]) == 1
        result = analyze_generated(tmp_path, gt)
        assert result.pairs["amsix", "UA"].report.flapping_asns == flapping
        assert synth.verify(gt, result) == []
        # A records line that counts the flaps as losses is caught.
        path = result.config.output_dir / "reachability" / "UA_records.txt"
        text = path.read_text(encoding="utf-8")
        lost = ",".join(map(str, gt.unreachable["amsix"]["UA"]))
        flaps = ",".join(map(str, flapping))
        assert text.count(f" lost_asns={lost} ") == 1 and text.endswith(f" flapping_asns={flaps}\n")
        merged = ",".join(map(str, sorted(gt.unreachable["amsix"]["UA"] + flapping)))
        path.write_text(text.replace(f" lost_asns={lost} ", f" lost_asns={merged} ")
                        .replace(f" flapping_asns={flaps}\n", " flapping_asns=\n"), encoding="utf-8")
        assert synth.verify(gt, result) == [
            "amsix/UA: lost origins differ (expected 1, got 3)", "amsix/UA: flapping origins differ"]

    def test_flaps_at_two_ixps_are_judged(self, tmp_path, monkeypatch):
        gt = synth.generate(FLAP_SPEC, tmp_path / "scen")
        assert gt.flapping_origins["amsix"]["UA"] and gt.flapping_origins["linx"]["RU"]
        assert gt.unreachable["amsix"]["UA"]
        assert synth.verify(gt, analyze_generated(tmp_path, gt)) == []

        # A reachability diff that counts flaps as losses is caught.
        diff = reachability.diff_reachability

        def flaps_as_losses(*args, **kwargs):
            report = diff(*args, **kwargs)
            lost = tuple(sorted(report.lost_asns + report.flapping_asns))
            return report._replace(lost_asns=lost, flapping_asns=(),
                                   pct_lost=reachability.pct_lost(report.total_baseline, len(lost)))

        monkeypatch.setattr(reachability, "diff_reachability", flaps_as_losses)
        gt = synth.generate(FLAP_SPEC, tmp_path / "again")
        problems = synth.verify(gt, analyze_generated(tmp_path, gt, "again"))
        assert "amsix/UA: flapping origins differ" in problems
        assert "linx/RU: flapping origins differ" in problems

    @pytest.mark.parametrize("spec", [
        readme_spec(),
        FLAP_SPEC,
        tiny_spec(days=12, origins=6, seed=11, disruptions=[Disruption("join", "amsix", "UA", day(8), count=2)]),
    ], ids=["readme", "flaps", "join"])
    def test_derived_reachability_matches_the_snapshot_files(self, tmp_path, spec):
        gt = synth.generate(spec, tmp_path / "scen")
        derived = {(ixp, cc): (gt.unreachable[ixp][cc], gt.new_origins[ixp][cc], gt.flapping_origins[ixp][cc])
                   for ixp in gt.ixps for cc in gt.countries}
        assert recount_reachability(tmp_path / "scen", gt) == derived
        assert any(any(sets) for sets in derived.values())

    def test_join_creates_new_origins_in_report(self, tmp_path):
        spec = tiny_spec(days=12, origins=6, seed=11, disruptions=[
            Disruption("join", "amsix", "UA", day(8), count=2),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        assert len(gt.new_origins["amsix"]["UA"]) == 2
        result = analyze_generated(tmp_path, gt)
        report = result.pairs["amsix", "UA"].report
        assert len(report.new_asns) == 2
        assert len(report.lost_asns) == 0
        assert synth.verify(gt, result) == []

    def test_neighbor_disconnect_empties_neighbor_metric(self, tmp_path):
        spec = tiny_spec(days=12, origins=8, seed=13, neighbor_count=1, disruptions=[
            Disruption("neighbor_disconnect", "amsix", "UA", day(5), day(6), count=1),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        per_day = gt.metrics["amsix"]["UA"]
        assert per_day[day(5)][3] == 0
        assert per_day[day(4)][3] == 1
        result = analyze_generated(tmp_path, gt)
        assert synth.verify(gt, result) == []

    def test_table_shaped_scenario_reproduces_published_averages(self, tmp_path):
        # Origin totals and permanent losses sized like the published
        # UA/RU tables; the pipeline must reproduce every truncated
        # percentage and both averages exactly.
        ua = {"auix": 1016, "linx": 1335, "amsix": 1571, "spoixbr": 1021, "six": 1096}
        ua_lost = {"auix": 87, "linx": 254, "amsix": 164, "spoixbr": 92, "six": 96}
        ru = {"auix": 3749, "linx": 2886, "amsix": 421, "spoixbr": 415, "six": 419}
        ru_lost = {"auix": 117, "linx": 109, "amsix": 62, "spoixbr": 78, "six": 61}
        ixps = tuple(sorted(ua))
        disruptions = []
        for ixp in ixps:
            disruptions.append(Disruption("permanent_loss", ixp, "UA", day(5), count=ua_lost[ixp]))
            disruptions.append(Disruption("permanent_loss", ixp, "RU", day(5), count=ru_lost[ixp]))
        spec = ScenarioSpec(
            seed=1958,
            window=DateRange(BASE, day(11)),
            ixps=ixps,
            countries={"UA": CountrySpec(origin_count=ua, prefixes_per_origin=(1, 1), neighbor_count=3),
                       "RU": CountrySpec(origin_count=ru, prefixes_per_origin=(1, 1), neighbor_count=2)},
            disruptions=tuple(disruptions),
        )
        gt = synth.generate(spec, tmp_path / "scen")
        result = analyze_generated(tmp_path, gt)
        assert synth.verify(gt, result) == []
        ua_pcts = {ixp: result.pairs[ixp, "UA"].report.pct_lost for ixp in ixps}
        assert ua_pcts == {"auix": 8.5, "linx": 19.0, "amsix": 10.4, "spoixbr": 9.0, "six": 8.7}
        ru_pcts = {ixp: result.pairs[ixp, "RU"].report.pct_lost for ixp in ixps}
        assert ru_pcts == {"auix": 3.1, "linx": 3.7, "amsix": 14.7, "spoixbr": 18.7, "six": 14.5}
        assert result.averages["UA"] == 11.12
        assert result.averages["RU"] == 10.94
        # The averages weight every IXP equally; pooled over the IXPs the
        # losses are 11.4 % (UA) and 5.4 % (RU), whose average rests on the
        # three IXPs with 415-421 RU origins.
        for cc, total, lost in (("UA", 6039, 693), ("RU", 7890, 427)):
            reports = [result.pairs[ixp, cc].report for ixp in ixps]
            assert sum(report.total_baseline for report in reports) == total
            assert sum(len(report.lost_asns) for report in reports) == lost
        assert (reachability.pct_lost(6039, 693), reachability.pct_lost(7890, 427)) == (11.4, 5.4)

    def test_five_injected_outages_detected_exactly(self, tmp_path):
        # strong, well-separated, short dips over a flat base: the injected
        # spans are exactly what the default detector must report
        injected = [
            (day(10), day(11)),
            (day(20), day(21)),
            (day(30), day(32)),
            (day(42), day(42)),
            (day(54), day(55)),
        ]
        spec = ScenarioSpec(
            seed=21,
            window=DateRange(BASE, day(69)),
            ixps=("amsix",),
            countries={"UA": CountrySpec(origin_count=30, prefixes_per_origin=(2, 4),
                                         neighbor_count=2)},
            disruptions=(
                Disruption("origin_removal", "amsix", "UA", *injected[0], count=12),
                Disruption("prefix_shrink", "amsix", "UA", *injected[1], magnitude=0.5),
                Disruption("origin_removal", "amsix", "UA", *injected[2], count=9),
                Disruption("origin_removal", "amsix", "UA", *injected[3], count=12),
                Disruption("prefix_shrink", "amsix", "UA", *injected[4], magnitude=0.4),
            ),
        )
        gt = synth.generate(spec, tmp_path / "scen")
        assert expected_spans(gt, "amsix", "UA", "announcements") == injected
        result = analyze_generated(tmp_path, gt)
        events = [e for e in result.pairs["amsix", "UA"].events if e.metric == "announcements"]
        assert [(e.start, e.end) for e in events] == injected
        assert synth.verify(gt, result) == []


def edit_row(path, index, edit):
    """Rewrite row `index` of a written CSV (0 is the header) as `edit(cells)`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = ",".join(edit(lines[index].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestVerifySensitivity:
    def build(self, tmp_path):
        """Ground truth, and a result that holds nothing but the path of a
        copy of the files analyze wrote, for a test to tamper with."""
        gt = synth.generate(tiny_spec(days=10, origins=6, seed=2, disruptions=[
            Disruption("permanent_loss", "amsix", "UA", day(5), count=1),
            Disruption("join", "amsix", "UA", day(6), count=1),
        ]), tmp_path / "scen")
        written = analyze_generated(tmp_path, gt).config
        shutil.copytree(written.output_dir, tmp_path / "copy")
        return gt, pipeline.AnalysisResult(written._replace(output_dir=tmp_path / "copy"), {}, {})

    def test_untampered_run_is_clean(self, tmp_path):
        gt, result = self.build(tmp_path)
        assert gt.unreachable["amsix"]["UA"] and gt.new_origins["amsix"]["UA"]
        assert expected_spans(gt, "amsix", "UA", "announcements")
        assert synth.verify(gt, result) == []

    def test_single_edited_metric_point_yields_one_discrepancy(self, tmp_path):
        gt, result = self.build(tmp_path)
        target = sorted(gt.metrics["amsix"]["UA"])[3]
        counts = gt.metrics["amsix"]["UA"][target]
        for column in range(len(counts)):  # each metric's column is read
            edited = list(counts)
            edited[column] += 1
            gt.metrics["amsix"]["UA"][target] = tuple(edited)
            problems = synth.verify(gt, result)
            assert len(problems) == 1
            assert str(target) in problems[0]

    def test_tampered_metrics_cell_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        target = sorted(gt.metrics["amsix"]["UA"])[3]
        want = gt.metrics["amsix"]["UA"][target]
        edit_row(result.config.output_dir / "metrics" / "amsix_UA.csv", 4,
                 lambda cells: cells[:5] + [str(int(cells[5]) + 1)] + cells[6:])
        got = (want[0], want[1], want[2] + 1, want[3])
        assert synth.verify(gt, result) == [f"amsix/UA {target}: expected {want}, got {got}"]

    def test_tampered_unreachable_set_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        gt.unreachable["amsix"]["UA"] = (99999,)
        problems = synth.verify(gt, result)
        assert any("lost origins" in p for p in problems)

    def test_tampered_records_are_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "reachability" / "UA_records.txt"
        text = path.read_text(encoding="utf-8")
        lost = ",".join(map(str, gt.unreachable["amsix"]["UA"]))
        new = ",".join(map(str, gt.new_origins["amsix"]["UA"]))
        assert text.count(f" lost_asns={lost} new_asns={new} ") == 1
        path.write_text(text.replace(f" lost_asns={lost} new_asns={new} ", " lost_asns= new_asns=99999 "),
                        encoding="utf-8")
        assert synth.verify(gt, result) == [
            f"amsix/UA: lost origins differ (expected {len(gt.unreachable['amsix']['UA'])}, got 0)",
            "amsix/UA: new origins differ"]

    def test_missing_series_date_is_one_problem(self, tmp_path):
        gt, result = self.build(tmp_path)
        expected = gt.metrics["amsix"]["UA"]
        days = len(expected)
        extra = sorted(expected)[3]
        del expected[extra]
        assert synth.verify(gt, result) == [
            f"amsix/UA: series covers {days} days, expected {days - 1}; first missing none, first extra {extra}"]

    def test_shifted_series_date_names_both_dates(self, tmp_path):
        # As many days as expected, one of them a day late.
        gt, result = self.build(tmp_path)
        last = max(gt.metrics["amsix"]["UA"])
        later = last + dt.timedelta(days=1)
        path = result.config.output_dir / "metrics" / "amsix_UA.csv"
        edit_row(path, len(gt.metrics["amsix"]["UA"]), lambda cells: cells[:2] + [later.isoformat()] + cells[3:])
        days = len(gt.metrics["amsix"]["UA"])
        assert synth.verify(gt, result) == [
            f"amsix/UA: series covers {days} days, expected {days}; first missing {last}, first extra {later}"]

    def test_tampered_new_origins_are_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        gt.new_origins["amsix"]["UA"] = (99999,)
        assert synth.verify(gt, result) == ["amsix/UA: new origins differ"]

    @pytest.mark.parametrize("column", reachability.ORIGINS_CSV_HEADER[1:])
    def test_tampered_origins_row_is_caught(self, tmp_path, column):
        # The lost origin's row: each cell is judged, not only its offline days.
        gt, result = self.build(tmp_path)
        (asn,) = gt.unreachable["amsix"]["UA"]
        index = 1 + sorted(gt.presence["amsix"]["UA"]).index(asn)
        path = result.config.output_dir / "reachability" / "amsix_UA_origins.csv"
        want = path.read_text(encoding="utf-8").splitlines()[index]
        cell = reachability.ORIGINS_CSV_HEADER.index(column)

        def edit(cells):
            if column.endswith("_seen"):
                cells[cell] = (dt.date.fromisoformat(cells[cell]) + dt.timedelta(days=1)).isoformat()
            else:
                cells[cell] = str(int(cells[cell]) + 1)
            return cells

        edit_row(path, index, edit)
        got = path.read_text(encoding="utf-8").splitlines()[index]
        assert want.startswith(f"{asn},") and got != want
        assert synth.verify(gt, result) == [f"amsix/UA AS{asn}: origins row {got} != expected {want}"]

    def test_extra_origin_row_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "reachability" / "amsix_UA_origins.csv"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"99999,{BASE},{BASE},1,{len(gt.metrics['amsix']['UA']) - 1}\n")
        assert synth.verify(gt, result) == ["amsix/UA: presence covers different origins"]

    def test_deleted_metrics_file_is_one_problem(self, tmp_path):
        gt, result = self.build(tmp_path)
        (result.config.output_dir / "metrics" / "amsix_UA.csv").unlink()
        assert synth.verify(gt, result) == ["amsix/UA: pair missing from pipeline output"]

    def test_deleted_origins_file_is_one_problem(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "reachability" / "amsix_UA_origins.csv"
        path.unlink()
        problems = synth.verify(gt, result)
        assert len(problems) == 1 and problems[0].startswith("amsix/UA: ") and str(path) in problems[0]

    def test_unparseable_records_line_is_one_problem(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "reachability" / "UA_records.txt"
        text = path.read_text(encoding="utf-8")
        assert text.count(" lost_asns=") == 1
        path.write_text(text.replace(" lost_asns=", " lost_asns=x"), encoding="utf-8")
        problems = synth.verify(gt, result)
        assert len(problems) == 1
        assert problems[0].startswith(f"amsix/UA: {path}: the line for IXP 'amsix' does not parse: ")

    def test_records_file_without_the_ixps_line_is_one_problem(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "reachability" / "UA_records.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if "ixp=amsix " not in line]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept), encoding="utf-8")
        assert synth.verify(gt, result) == [f"amsix/UA: {path}: no line for IXP 'amsix'"]

    def test_tampered_outage_span_is_caught(self, tmp_path):
        # A detector that finds no dip expects no span, so each written one
        # is a problem, and nothing else is.
        gt, result = self.build(tmp_path)
        gt.detector["min_reference"] = 10**9
        problems = synth.verify(gt, result)
        assert problems and all(" outage spans " in p and p.endswith("!= expected []") for p in problems)

    def test_tampered_event_span_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        path = result.config.output_dir / "outages" / "amsix_UA.csv"
        metric, start, end = path.read_text(encoding="utf-8").splitlines()[1].split(",")[2:5]
        edit_row(path, 1, lambda cells: cells[:4] + [start] + cells[5:])
        want = synth._fmt_spans(expected_spans(gt, "amsix", "UA", metric))
        got = want.replace(f"{start}..{end}", f"{start}..{start}", 1)
        assert start != end and got != want
        assert synth.verify(gt, result) == [f"amsix/UA {metric}: outage spans {got} != expected {want}"]


class TestScenarioIO:
    def test_scenario_json_round_trip(self, tmp_path):
        doc = {
            "seed": 4,
            "window": {"start": "2022-02-19", "end": "2022-03-02"},
            "ixps": ["amsix", "linx"],
            "countries": {
                "UA": {"origin_count": 10, "prefixes_per_origin": [1, 2], "neighbor_count": 2},
                "RU": {"origin_count": {"amsix": 5, "linx": 7}},
            },
            "gap_dates": ["2022-02-25"],
            "disruptions": [
                {"kind": "origin_removal", "ixp": "amsix", "country": "UA",
                 "start": "2022-02-22", "end": "2022-02-23", "count": 2},
                {"kind": "join", "ixp": "linx", "country": "RU",
                 "start": "2022-02-27", "count": 1},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        spec = synth.load_scenario(path)
        assert spec.ixps == ("amsix", "linx")
        assert spec.countries["RU"].origins_at("linx") == 7
        assert spec.disruptions[0].count == 2
        gt = synth.generate(spec, tmp_path / "scen")
        assert gt.countries == ("RU", "UA")

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["disruptions"][0].update(kind="meteor"), "unknown kind"),
        (lambda d: d["disruptions"][0].update(start="2023-01-01"), "outside window"),
        (lambda d: d.update(gap_dates=["2022-02-19"]), "gap date"),
        (lambda d: d["countries"]["UA"].update(neighbor_count=99), "more neighbors"),
        (lambda d: d.update(ixps=["amsix", "../x"]), "not a usable IXP id"),
        (lambda d: d.update(baseline_date="2022-02-22"), "scenario: unknown key 'baseline_date'"),
        (lambda d: d.update(final_date="2022-03-01"), "scenario: unknown key 'final_date'"),
        (lambda d: d["window"].update(stop="2022-03-01"), "window: unknown key 'stop'"),
        (lambda d: d["countries"]["UA"].update(origin_count=-3, neighbor_count=0),
         "UA: more neighbors than origins at amsix"),
        (lambda d: d["countries"]["UA"].update(neighbor_count=-5), r"UA: neighbor_count must be >= 0, got -5"),
        (lambda d: d.update(ixps=["amsix", "amsix", "linx"]), "ixps: an IXP is named twice in amsix, amsix, linx"),
        (lambda d: d["disruptions"][0].update(asns=[10000]), "disruption #0: unknown key 'asns'"),
        (lambda d: d["countries"]["UA"].update(neighbour_count=1), "country UA: unknown key 'neighbour_count'"),
        (lambda d: d["countries"]["UA"].update(prefixes_per_origin=2), "cannot unpack"),
        (lambda d: d.update(detector={"trailing_window": 0}), "trailing_window must be >= 1"),
        (lambda d: d.update(detector={"trailing_window": 12}), "window too short for the dip detector"),
        (lambda d: d.update(detector={"threshold": 2.0}), "threshold must be a fraction"),
        (lambda d: d.update(detector={"window": 7}), "unexpected keyword argument 'window'"),
        (lambda d: d.update(detector={"catalog_path": None}), "detector: keys must be"),
        (lambda d: d.update(confirmation_window=-1), "confirmation window must be >= 0"),
        (lambda d: d["countries"].update(ZZ={"origin_count": 3}), "not a usable country filter: 'ZZ'"),
        (lambda d: d["countries"].update({"UA\n": {"origin_count": 3}}), r"not a usable country filter: 'UA\\n'"),
        (lambda d: d.update(ixps=[]), "at least one IXP is required"),
        (lambda d: d.update(countries={}), "at least one country is required"),
        (lambda d: d.update(countries=["UA"]), "bad scenario document"),
        (lambda d: d.update(seed=4.9), "seed must be an integer, got 4.9"),
        (lambda d: d.update(confirmation_window=2.9), "confirmation_window must be an integer"),
        (lambda d: d.update(detector={"trailing_window": 7.5}), "detector trailing_window must be an integer"),
        (lambda d: d.update(detector={"threshold": "0.05"}), "detector threshold must be a number"),
        (lambda d: d["countries"]["UA"].update(neighbor_count=2.7), "UA: neighbor_count must be an integer"),
        (lambda d: d["countries"]["UA"].update(origin_count={"amsix": 10, "linx": 5}),
         "UA: origin_count must name exactly the IXPs amsix"),
        (lambda d: (d.update(ixps=["amsix", "linx"]), d["countries"]["UA"].update(origin_count={"amsix": 10})),
         "UA: origin_count must name exactly the IXPs amsix, linx"),
        (lambda d: d.update(gap_dates=["2023-01-01"]), "gap dates must be distinct days inside the window"),
        (lambda d: d.update(gap_dates=["2022-02-25", "2022-02-25"]), "gap dates must be distinct"),
        (lambda d: d["disruptions"][0].update(count="2"), r"count must be an integer, got '2'"),
        (lambda d: d["disruptions"][0].update(count=2.5), "count must be an integer, got 2.5"),
        (lambda d: d["disruptions"][0].update(count=True), "count must be an integer, got True"),
        (lambda d: d["disruptions"][0].update(kind="permanent_loss"), r"\(permanent_loss\): takes no end"),
        (lambda d: d["disruptions"][0].update(kind="prefix_shrink", magnitude=0.5), "takes no count"),
        (lambda d: (d["disruptions"][0].pop("end"), d["disruptions"][0].update(kind="permanent_loss", magnitude=0.5)),
         r"\(permanent_loss\): takes no magnitude"),
        (lambda d: (d["disruptions"][0].pop("count"), d["disruptions"][0].update(kind="prefix_shrink", magnitude="0.5")),
         "magnitude must be a number, got '0.5'"),
        (lambda d: d["window"].update(end="2022-02-18"), "date range ends before it starts"),
        (lambda d: d["countries"]["UA"].update(prefixes_per_origin=[3, 2]), r"UA: bad prefixes_per_origin range \[3, 2\]"),
        (lambda d: d["disruptions"][0].update(ixp="linx"), r"disruption #0 \(origin_removal\): unknown ixp or country"),
        (lambda d: d["disruptions"][0].update(country="RU"), r"disruption #0 \(origin_removal\): unknown ixp or country"),
        (lambda d: d["disruptions"][0].update(end="2022-03-03"), "needs an end date inside the window"),
        (lambda d: d["disruptions"][0].update(count=0), "needs a positive count"),
        (lambda d: (d["disruptions"][0].pop("count"), d["disruptions"][0].update(kind="prefix_shrink", magnitude=1.5)),
         r"magnitude must be in \(0, 1\]"),
        (lambda d: (d["countries"]["UA"].update(neighbor_count=0), d["disruptions"][0].update(kind="neighbor_disconnect")),
         "country has no neighbors to disconnect"),
    ])
    def test_validation_rejects_bad_scenarios(self, tmp_path, mutate, message):
        doc = self.small_doc()
        mutate(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(synth.ScenarioError, match=message):
            synth.load_scenario(path)

    def test_count_past_its_pool_fails_when_generated(self, tmp_path):
        # A disruption's pool is only sized by generating, so the scenario loads.
        doc = self.small_doc()
        doc["disruptions"][0]["count"] = 11
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        spec = synth.load_scenario(path)
        with pytest.raises(synth.ScenarioError, match="disruption #0: count 11 exceeds pool of 10"):
            synth.generate(spec, tmp_path / "scen")

    def test_more_ixps_than_ipv4_first_octets_is_refused(self):
        # IXP i's IPv4 prefixes take first octet 11 + i: the 246th would write 256.x.y.0/24.
        def spec(n):
            return ScenarioSpec(seed=1, window=DateRange(BASE, day(9)), ixps=tuple(f"ix{i}" for i in range(n)),
                                countries={"UA": CountrySpec(origin_count=1, neighbor_count=0)})
        synth._validate(spec(245))
        with pytest.raises(synth.ScenarioError, match=r"ixps: at most 245 IXPs \(.*\), got 246"):
            synth._validate(spec(246))

    def test_country_blocks_reaching_the_transit_asns_are_refused(self):
        # Each country's block starts on the next multiple of 1,000: one
        # 57,000-origin country at each of 16 IXPs puts the 16th block at
        # 880000-936999, over the transit ASNs from 900000.
        ixps = tuple(f"ix{i}" for i in range(16))
        countries = {cc: CountrySpec({ixp: 57_000 if ixp == own else 0 for ixp in ixps}, neighbor_count=0)
                     for cc, own in zip(sorted(asndb.COUNTRY_CODES - {"ZZ"}), ixps)}
        with pytest.raises(synth.ScenarioError, match="transit ASNs from 900000; the last block ends at 936999"):
            synth._validate(ScenarioSpec(seed=1, window=DateRange(BASE, day(9)), ixps=ixps, countries=countries))
        # A block may end at 899999, and a join's reserve counts.
        spec = tiny_spec(days=10, origins=890_000)
        synth._validate(spec)
        with pytest.raises(synth.ScenarioError, match="block ends at 900000"):
            synth._validate(replace(spec, disruptions=(Disruption("join", "amsix", "UA", day(5), count=1),)))

    @pytest.mark.parametrize("v6", [False, True], ids=["v4", "v6"])
    def test_prefix_counter_past_16_bits_is_refused(self, v6):
        counter = [(1 << 16) - 1]
        assert synth._prefix(0, counter, v6) and counter == [1 << 16]
        with pytest.raises(synth.ScenarioError, match="too many prefixes for one IXP"):
            synth._prefix(0, counter, v6)
        assert counter == [1 << 16]

    @staticmethod
    def small_doc():
        return {
            "seed": 4,
            "window": {"start": "2022-02-19", "end": "2022-03-02"},
            "ixps": ["amsix"],
            "countries": {"UA": {"origin_count": 10, "neighbor_count": 2}},
            "disruptions": [
                {"kind": "origin_removal", "ixp": "amsix", "country": "UA",
                 "start": "2022-02-22", "end": "2022-02-23", "count": 2},
            ],
        }
