import filecmp
import json

import pytest

from ixpreach import asndb, pipeline, synth
from ixpreach.rtingest import DateRange, load_series
from ixpreach.synth import CountrySpec, Disruption, GroundTruth, ScenarioSpec

from conftest import BASE, day


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


def analyze_generated(tmp_path, gt, scen_dir="scen"):
    db, skipped = asndb.build_from_files([("ripencc", tmp_path / scen_dir / "delegated.txt")])
    assert skipped == []
    db_path = tmp_path / f"{scen_dir}-asndb.txt"
    asndb.save(db, db_path)
    config = pipeline.RunConfig(
        asndb_path=db_path,
        snapshot_root=tmp_path / scen_dir / "snapshots",
        output_dir=tmp_path / "out",
        ixps=gt.ixps,
        countries=gt.countries,
        baseline_date=gt.baseline_date,
        final_date=gt.final_date,
        confirmation_window=gt.confirmation_window,
        trailing_window=gt.detector["trailing_window"],
        threshold=gt.detector["threshold"],
        min_reference=gt.detector["min_reference"],
    )
    return pipeline.run_analysis(config)


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
        assert result.series[("amsix", "UA")].gaps == (day(4),)
        assert synth.verify(gt, result) == []

    def test_ground_truth_json_round_trip(self, tmp_path):
        gt = synth.generate(tiny_spec(days=10, origins=6), tmp_path / "scen")
        loaded = GroundTruth.load(tmp_path / "scen" / "ground_truth.json")
        assert loaded == gt


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
        report = result.reports[("auix", "UA")]
        assert report.total_baseline == 1016
        assert report.lost == 87
        assert report.pct_lost == 8.5
        assert synth.verify(gt, result) == []

    def test_origin_removal_produces_expected_offline_days(self, tmp_path):
        spec = tiny_spec(days=14, origins=10, seed=9, disruptions=[
            Disruption("origin_removal", "amsix", "UA", day(4), day(8), count=3),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        offline = gt.offline["amsix"]["UA"]
        assert sorted(offline.values(), reverse=True)[:3] == [5, 5, 5]
        result = analyze_generated(tmp_path, gt)
        assert synth.verify(gt, result) == []

    def test_join_creates_new_origins_in_report(self, tmp_path):
        spec = tiny_spec(days=12, origins=6, seed=11, disruptions=[
            Disruption("join", "amsix", "UA", day(8), count=2),
        ])
        gt = synth.generate(spec, tmp_path / "scen")
        assert len(gt.new_origins["amsix"]["UA"]) == 2
        result = analyze_generated(tmp_path, gt)
        report = result.reports[("amsix", "UA")]
        assert len(report.new_asns) == 2
        assert report.lost == 0
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
        ua_pcts = {ixp: result.reports[(ixp, "UA")].pct_lost for ixp in ixps}
        assert ua_pcts == {"auix": 8.5, "linx": 19.0, "amsix": 10.4, "spoixbr": 9.0, "six": 8.7}
        ru_pcts = {ixp: result.reports[(ixp, "RU")].pct_lost for ixp in ixps}
        assert ru_pcts == {"auix": 3.1, "linx": 3.7, "amsix": 14.7, "spoixbr": 18.7, "six": 14.5}
        assert result.averages["UA"] == 11.12
        assert result.averages["RU"] == 10.94

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
        assert list(gt.outages["amsix"]["UA"]["announcements"]) == injected
        result = analyze_generated(tmp_path, gt)
        events = [e for e in result.events[("amsix", "UA")] if e.metric == "announcements"]
        assert [(e.start, e.end) for e in events] == injected
        assert synth.verify(gt, result) == []


class TestVerifySensitivity:
    def build(self, tmp_path):
        gt = synth.generate(tiny_spec(days=10, origins=6, seed=2), tmp_path / "scen")
        result = analyze_generated(tmp_path, gt)
        return gt, result

    def test_untampered_run_is_clean(self, tmp_path):
        gt, result = self.build(tmp_path)
        assert synth.verify(gt, result) == []

    def test_single_edited_metric_point_yields_one_discrepancy(self, tmp_path):
        gt, result = self.build(tmp_path)
        target = sorted(gt.metrics["amsix"]["UA"])[3]
        a, o, p, n = gt.metrics["amsix"]["UA"][target]
        gt.metrics["amsix"]["UA"][target] = (a + 1, o, p, n)
        problems = synth.verify(gt, result)
        assert len(problems) == 1
        assert str(target) in problems[0]

    def test_tampered_unreachable_set_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        gt.unreachable["amsix"]["UA"] = (99999,)
        problems = synth.verify(gt, result)
        assert any("lost origins" in p for p in problems)

    def test_tampered_outage_span_is_caught(self, tmp_path):
        gt, result = self.build(tmp_path)
        gt.outages["amsix"]["UA"]["announcements"] = ((day(1), day(2)),)
        problems = synth.verify(gt, result)
        assert any("outage spans" in p for p in problems)


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
    ])
    def test_validation_rejects_bad_scenarios(self, tmp_path, mutate, message):
        doc = {
            "seed": 4,
            "window": {"start": "2022-02-19", "end": "2022-03-02"},
            "ixps": ["amsix"],
            "countries": {"UA": {"origin_count": 10, "neighbor_count": 2}},
            "disruptions": [
                {"kind": "origin_removal", "ixp": "amsix", "country": "UA",
                 "start": "2022-02-22", "end": "2022-02-23", "count": 2},
            ],
        }
        mutate(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(synth.ScenarioError, match=message):
            synth.load_scenario(path)
