"""Integration tests: every experiment driver runs end-to-end at a tiny scale.

These tests exercise the full stack (generation → cleaning → decomposition →
distillation → ranking → reporting) with small corpora so they stay fast,
and assert the structural properties each paper table/figure relies on.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig4_ndcg,
    fig5_reduction_sweep,
    running_example,
    table1_tag_pairs,
    table2_datasets,
    table3_semantics,
    table4_clusters,
    table5_preprocessing,
    table6_query_time,
    table7_memory,
)
from repro.experiments.common import ExperimentReport, prepare_corpus

SCALE = 0.35
SEED = 7


@pytest.fixture(autouse=True, scope="module")
def _warm_cache():
    """Prepare the three corpora once so individual tests share them."""
    for index, name in enumerate(("delicious", "bibsonomy", "lastfm")):
        prepare_corpus(profile_name=name, scale=SCALE, seed=SEED + index, num_queries=12)
    yield


class TestRunningExample:
    def test_reproduces_paper_orderings(self):
        report = running_example.run()
        assert isinstance(report, ExperimentReport)
        rows = {row["Distance"]: row for row in report.rows}
        vector = rows["vector (Eq. 6)"]
        assert vector["d(folk, people)^2"] == pytest.approx(9.0)
        assert vector["d(folk, laptop)^2"] == pytest.approx(14.0)
        assert vector["d(people, laptop)^2"] == pytest.approx(5.0)
        assert vector["people closer to folk than laptop"] is False

        slices = rows["tensor slice (Eq. 8)"]
        assert slices["d(folk, people)^2"] == pytest.approx(3.0)
        assert slices["d(people, laptop)^2"] == pytest.approx(3.0)

        purified = rows["purified CubeLSI (Eq. 17/20)"]
        assert purified["people closer to folk than laptop"] is True
        assert "render" not in report.render()  # renders without error

    def test_distance_summary_keys(self):
        summary = running_example.distances_summary()
        assert set(summary) == {"vector", "slice", "purified"}


class TestTableExperiments:
    def test_table2_rows_and_cleaning_shrinks_data(self):
        report = table2_datasets.run(scale=SCALE, seed=SEED)
        assert len(report.rows) == 6  # 3 datasets x (raw, cleaned)
        by_dataset = {}
        for row in report.rows:
            by_dataset.setdefault(row["Dataset"], {})[row["Variant"]] = row
        for dataset, variants in by_dataset.items():
            assert variants["cleaned"]["|Y|"] <= variants["raw"]["|Y|"]
            assert variants["cleaned"]["|T|"] <= variants["raw"]["|T|"]
            assert variants["cleaned"]["|U|"] <= variants["raw"]["|U|"]

    def test_table1_produces_verdicts_for_planted_pairs(self):
        report = table1_tag_pairs.run(scale=SCALE, seed=SEED, num_concepts=20)
        assert report.notes
        assert report.rows, "no planted tag pair survived cleaning"
        for row in report.rows:
            assert row["Human-judged"] in ("Y", "N")
            assert row["CubeLSI"] in ("Y", "N")
            assert row["LSI"] in ("Y", "N")

    def test_table3_scores_three_methods(self):
        report = table3_semantics.run(scale=SCALE, seed=SEED, num_concepts=20)
        methods = {row["Method"] for row in report.rows}
        assert methods == {"CubeLSI", "CubeSim", "LSI"}
        for row in report.rows:
            assert row["Average JCN"] >= 0.0
            assert row["Average Rank"] >= 1.0
            assert row["Tags evaluated"] > 0
        # The paper's ordering for the tensor methods: purified (Tucker)
        # distances beat the raw tensor slices on both metrics.
        rows = report.row_lookup("Method")
        assert rows["CubeLSI"]["Average JCN"] < rows["CubeSim"]["Average JCN"]
        assert rows["CubeLSI"]["Average Rank"] < rows["CubeSim"]["Average Rank"]

    def test_table4_reports_clusters_with_known_correlation_types(self):
        report = table4_clusters.run(scale=SCALE, seed=SEED, num_concepts=20)
        allowed = {
            "synonyms",
            "cognates (cross-language)",
            "inflection & derivation",
            "abbreviations",
        }
        assert report.rows, "no multi-tag cluster with a known correlation type"
        observed = set()
        for row in report.rows:
            types = set(str(row["Type of correlation"]).split("; "))
            assert types <= allowed
            assert len(str(row["Tags"]).split(", ")) >= 2
            observed |= types
        assert len(observed) >= 2  # more than plain synonyms, as in Table IV

    def test_table5_reports_both_methods_on_all_datasets(self):
        report = table5_preprocessing.run(scale=SCALE, seed=SEED, num_concepts=20)
        methods = {row["Method"] for row in report.rows}
        assert methods == {"CubeLSI", "CubeSim"}
        for row in report.rows:
            for dataset in ("delicious", "bibsonomy", "lastfm"):
                assert row[dataset] >= 0.0

    def test_table6_cubelsi_queries_faster_than_folkrank(self):
        report = table6_query_time.run(
            scale=SCALE, seed=SEED, num_queries=12, num_concepts=20
        )
        rows = {row["Method"]: row for row in report.rows}
        for dataset in ("delicious", "bibsonomy", "lastfm"):
            assert rows["CubeLSI"][dataset] < rows["FolkRank"][dataset]

    def test_table7_memory_reduction_is_large(self):
        report = table7_memory.run(scale=SCALE, seed=SEED, num_concepts=20)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row["Reduction factor"] > 10.0


class TestFigureExperiments:
    def test_fig4_series_shapes_and_bounds(self):
        reports = fig4_ndcg.run(
            scale=SCALE,
            seed=SEED,
            num_queries=12,
            cutoffs=(1, 5, 10, 20),
            profiles=["lastfm"],
            num_concepts=20,
        )
        assert set(reports) == {"lastfm"}
        report = reports["lastfm"]
        assert set(report.series) == {
            "cubelsi",
            "cubesim",
            "folkrank",
            "freq",
            "lsi",
            "bow",
        }
        for method, series in report.series.items():
            assert len(series) == 4
            assert all(0.0 <= value <= 1.0 for value in series)
            # every method retrieves something for a healthy share of queries
            assert series[-1] > 0.05, method
        summary = fig4_ndcg.ndcg_summary(reports, cutoff_index=1)
        assert len(summary) == 6

    def test_fig5_time_decreases_with_reduction_ratio(self):
        report = fig5_reduction_sweep.run(
            scale=SCALE, seed=SEED, ratios=(2.0, 20.0), num_concepts=15
        )
        times = report.series["cubelsi_preprocessing_seconds"]
        assert len(times) == 2
        # Larger reduction ratios mean smaller cores, hence not slower.
        assert times[1] <= times[0] * 1.5


class TestCommandLine:
    def test_module_entry_point_prints_every_report(self, monkeypatch, capsys):
        from repro.experiments import __main__ as cli

        monkeypatch.setattr(cli, "SCALE", SCALE)
        monkeypatch.setattr(cli, "NUM_QUERIES", 12)
        monkeypatch.setattr(cli, "NUM_CONCEPTS", 20)
        cli.main()
        headers = [
            line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("== ")
        ]
        assert headers == [
            "== running-example",
            "== table1",
            "== table2",
            "== table3",
            "== table4",
            "== fig4-delicious",
            "== fig4-bibsonomy",
            "== fig4-lastfm",
            "== table5",
            "== fig5",
            "== table6",
            "== table7",
        ]


class TestCommon:
    def test_prepare_corpus_is_cached(self):
        first = prepare_corpus(profile_name="lastfm", scale=SCALE, seed=SEED + 2, num_queries=12)
        second = prepare_corpus(profile_name="lastfm", scale=SCALE, seed=SEED + 2, num_queries=12)
        assert first is second

    def test_prepare_corpus_unknown_profile(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            prepare_corpus(profile_name="flickr")

    def test_report_rendering_and_lookup(self):
        report = ExperimentReport(
            experiment_id="x",
            title="demo",
            rows=[{"Method": "a", "score": 1.0}],
            series={"a": [1.0, 2.0]},
            series_x=[1, 2],
            notes=["hello"],
        )
        text = report.render()
        assert "demo" in text and "hello" in text
        assert report.row_lookup("Method")["a"]["score"] == 1.0
