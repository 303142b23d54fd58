"""Tests for NDCG metrics, the ranking harness and report rendering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BowRanker, FreqRanker
from repro.datasets.queries import Query, QueryWorkload, RelevanceJudgments
from repro.eval.harness import RankingExperiment
from repro.eval.ndcg import (
    average_precision,
    dcg_at,
    ideal_dcg,
    mean_ndcg_at,
    ndcg_at,
    ndcg_curve,
    precision_at,
)
from repro.eval.reporting import (
    format_bytes,
    format_float,
    format_kv,
    format_series,
    format_table,
)
from repro.utils.errors import ConfigurationError


GRADES = {"r1": 2, "r2": 1, "r3": 2}


class TestNdcg:
    def test_dcg_matches_hand_computation(self):
        ranking = ["r1", "rX", "r2"]
        expected = (2**2 - 1) / math.log2(2) + 0.0 + (2**1 - 1) / math.log2(4)
        assert dcg_at(ranking, GRADES, 3) == pytest.approx(expected)

    def test_ideal_dcg_uses_sorted_grades(self):
        expected = 3 / math.log2(2) + 3 / math.log2(3) + 1 / math.log2(4)
        assert ideal_dcg(GRADES, 3) == pytest.approx(expected)

    def test_perfect_ranking_scores_one(self):
        assert ndcg_at(["r1", "r3", "r2"], GRADES, 3) == pytest.approx(1.0)

    def test_empty_judgments_score_zero(self):
        assert ndcg_at(["r1"], {}, 5) == 0.0

    def test_worse_ranking_scores_less(self):
        good = ndcg_at(["r1", "r3", "r2"], GRADES, 3)
        bad = ndcg_at(["rX", "rY", "r2"], GRADES, 3)
        assert bad < good

    def test_ndcg_curve_is_consistent(self):
        curve = ndcg_curve(["r1", "r2"], GRADES, [1, 2, 3])
        assert curve[1] == ndcg_at(["r1", "r2"], GRADES, 1)
        assert set(curve) == {1, 2, 3}

    def test_invalid_cutoff_raises(self):
        with pytest.raises(ConfigurationError):
            ndcg_at(["r1"], GRADES, 0)

    def test_repeated_resource_is_refused(self):
        """Crediting one resource twice would score NDCG above 1."""
        with pytest.raises(ConfigurationError, match="repeats"):
            ndcg_at(["a", "a"], {"a": 2}, 2)
        with pytest.raises(ConfigurationError, match="repeats"):
            dcg_at(["r1", "r2", "r1"], GRADES, 3)
        # Only the scored prefix counts: a repeat past the cutoff is unread.
        assert ndcg_at(["r1", "r3", "r1"], GRADES, 2) == pytest.approx(1.0)

    def test_works_with_relevance_judgments_object(self):
        judgments = RelevanceJudgments(query_id="q", grades=dict(GRADES))
        assert ndcg_at(["r1", "r3"], judgments, 2) == pytest.approx(1.0)

    def test_precision_and_average_precision(self):
        ranking = ["r1", "rX", "r2", "r3"]
        assert precision_at(ranking, GRADES, 2) == pytest.approx(0.5)
        assert precision_at([], GRADES, 3) == 0.0
        ap = average_precision(ranking, GRADES)
        assert 0.0 < ap <= 1.0
        assert average_precision(ranking, {}) == 0.0

    def test_mean_ndcg_skips_unjudged_queries(self):
        queries = [
            Query("q1", ("a",), ("c1",)),
            Query("q2", ("b",), ("c2",)),
        ]
        workload = QueryWorkload(
            queries=queries,
            judgments={
                "q1": RelevanceJudgments("q1", {"r1": 2}),
                "q2": RelevanceJudgments("q2", {}),
            },
        )
        rankings = {"q1": ["r1"], "q2": ["r9"]}
        assert mean_ndcg_at(rankings, workload, 1) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        order=st.permutations(["r1", "r2", "r3", "rX", "rY"]),
        cutoff=st.integers(1, 5),
    )
    def test_property_ndcg_bounded_between_zero_and_one(self, order, cutoff):
        value = ndcg_at(list(order), GRADES, cutoff)
        assert 0.0 <= value <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(cutoff=st.integers(1, 5))
    def test_property_ideal_ranking_is_optimal(self, cutoff):
        ideal_order = ["r1", "r3", "r2"]
        ideal_value = ndcg_at(ideal_order, GRADES, cutoff)
        rng = np.random.default_rng(cutoff)
        for _ in range(5):
            shuffled = list(rng.permutation(ideal_order + ["rX", "rY"]))
            assert ndcg_at(shuffled, GRADES, cutoff) <= ideal_value + 1e-9


class TestHarness:
    def test_runs_multiple_rankers_and_records_timings(self, small_cleaned, small_workload):
        experiment = RankingExperiment(small_cleaned, small_workload, cutoffs=(1, 5, 10))
        evaluation = experiment.run({"freq": FreqRanker(), "bow": BowRanker()})
        assert set(evaluation.methods) == {"freq", "bow"}
        for method in evaluation.methods.values():
            assert set(method.ndcg_by_cutoff) == {1, 5, 10}
            assert all(0.0 <= v <= 1.0 for v in method.ndcg_by_cutoff.values())
            assert method.queries_processed == len(small_workload)
            assert method.fit_seconds >= 0.0
        assert evaluation.best_method_at(5) in {"freq", "bow"}
        assert len(evaluation.ndcg_table()) == 2
        assert len(evaluation.timing_table()) == 2

    def test_pooled_vs_unpooled_levels(self, small_cleaned, small_workload):
        pooled = RankingExperiment(
            small_cleaned, small_workload, cutoffs=(5,), pooled=True
        ).run({"freq": FreqRanker()})
        unpooled = RankingExperiment(
            small_cleaned, small_workload, cutoffs=(5,), pooled=False
        ).run({"freq": FreqRanker()})
        # Pooling restricts the ideal ranking to returned resources, so the
        # pooled score can never be lower than the unpooled one.
        assert (
            pooled.methods["freq"].ndcg_by_cutoff[5]
            >= unpooled.methods["freq"].ndcg_by_cutoff[5] - 1e-9
        )

    def test_invalid_construction(self, small_cleaned, small_workload):
        with pytest.raises(ConfigurationError):
            RankingExperiment(small_cleaned, small_workload, cutoffs=())
        with pytest.raises(ConfigurationError):
            RankingExperiment(
                small_cleaned, QueryWorkload(queries=[], judgments={})
            )
        experiment = RankingExperiment(small_cleaned, small_workload)
        with pytest.raises(ConfigurationError):
            experiment.run({})


class TestReporting:
    def test_format_float(self):
        assert format_float(2.0) == "2"
        assert format_float(2.5, digits=2) == "2.50"
        assert format_float(float("nan")) == "nan"

    def test_format_table_alignment_and_missing_columns(self):
        rows = [
            {"Method": "cubelsi", "NDCG@5": 0.8123456},
            {"Method": "bow"},
        ]
        text = format_table(rows, title="Results")
        lines = text.splitlines()
        assert lines[0] == "Results"
        assert "Method" in lines[1] and "NDCG@5" in lines[1]
        assert "cubelsi" in text and "0.8123" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="Nothing")

    def test_format_series(self):
        text = format_series(
            {"cubelsi": [0.9, 0.8], "bow": [0.5, 0.4]},
            x_values=[5, 10],
            x_label="N",
        )
        assert "cubelsi" in text and "bow" in text
        assert "5" in text and "10" in text

    def test_format_kv_and_bytes(self):
        text = format_kv({"fit": 1.5, "queries": 64}, title="Summary")
        assert "fit" in text and "Summary" in text
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024**4).endswith("TB")
