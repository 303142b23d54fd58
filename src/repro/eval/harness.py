"""Experiment harness: run rankers over a dataset and a query workload.

The harness captures everything the paper's evaluation section reports about
ranking methods:

* mean NDCG@N curves per method (Figure 4),
* offline pre-processing time per method (Table V, Figure 5),
* total and mean online query time per method (Table VI).

The harness is deliberately ranker-agnostic — anything implementing
:class:`repro.baselines.base.Ranker` can participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.baselines.base import Ranker
from repro.datasets.queries import QueryWorkload, RelevanceJudgments
from repro.eval.ndcg import mean_ndcg_at
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError

#: The NDCG cutoffs reported in Figure 4 of the paper.
DEFAULT_NDCG_CUTOFFS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20)


@dataclass
class MethodEvaluation:
    """All measurements collected for a single ranking method."""

    method: str
    ndcg_by_cutoff: Dict[int, float] = field(default_factory=dict)
    fit_seconds: float = 0.0
    query_seconds_total: float = 0.0
    queries_processed: int = 0
    rankings: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def mean_query_seconds(self) -> float:
        if self.queries_processed == 0:
            return 0.0
        return self.query_seconds_total / self.queries_processed

    def ndcg_series(self, cutoffs: Sequence[int]) -> List[float]:
        """NDCG values in cutoff order (for figure-style output)."""
        return [self.ndcg_by_cutoff.get(int(n), 0.0) for n in cutoffs]


@dataclass
class RankingEvaluation:
    """Results for every method on one dataset/workload pair."""

    dataset_name: str
    cutoffs: Sequence[int]
    methods: Dict[str, MethodEvaluation] = field(default_factory=dict)

    def method_names(self) -> List[str]:
        return list(self.methods)

    def best_method_at(self, cutoff: int) -> str:
        """The method with the highest NDCG at ``cutoff``."""
        if not self.methods:
            raise ConfigurationError("no methods were evaluated")
        return max(
            self.methods.values(),
            key=lambda m: m.ndcg_by_cutoff.get(cutoff, 0.0),
        ).method

    def ndcg_table(self) -> List[Dict[str, object]]:
        """Rows of ``method x cutoff`` NDCG values (Figure 4 as a table)."""
        rows = []
        for name, evaluation in self.methods.items():
            row: Dict[str, object] = {"Method": name}
            for cutoff in self.cutoffs:
                row[f"NDCG@{cutoff}"] = round(
                    evaluation.ndcg_by_cutoff.get(cutoff, 0.0), 4
                )
            rows.append(row)
        return rows

    def timing_table(self) -> List[Dict[str, object]]:
        """Rows of offline/online timing per method (Tables V and VI)."""
        rows = []
        for name, evaluation in self.methods.items():
            rows.append(
                {
                    "Method": name,
                    "Pre-processing (s)": round(evaluation.fit_seconds, 4),
                    "Query total (s)": round(evaluation.query_seconds_total, 4),
                    "Query mean (s)": round(evaluation.mean_query_seconds, 6),
                    "Queries": evaluation.queries_processed,
                }
            )
        return rows


class RankingExperiment:
    """Fits rankers on a folksonomy and scores them on a query workload."""

    def __init__(
        self,
        folksonomy: Folksonomy,
        workload: QueryWorkload,
        cutoffs: Sequence[int] = DEFAULT_NDCG_CUTOFFS,
        max_rank_depth: Optional[int] = None,
        pooled: bool = True,
        batched: bool = True,
    ) -> None:
        if len(workload) == 0:
            raise ConfigurationError("the query workload is empty")
        self._folksonomy = folksonomy
        self._workload = workload
        self._cutoffs = tuple(int(c) for c in cutoffs)
        if not self._cutoffs:
            raise ConfigurationError("at least one NDCG cutoff is required")
        self._max_rank_depth = max_rank_depth or max(self._cutoffs)
        self._pooled = pooled
        self._batched = batched

    @property
    def cutoffs(self) -> Sequence[int]:
        return self._cutoffs

    def run(self, rankers: Mapping[str, Ranker]) -> RankingEvaluation:
        """Fit and evaluate every ranker; returns the combined results.

        With ``pooled=True`` (default) the relevance judgments of each query
        are restricted to the union of resources returned by *any* evaluated
        method, mirroring the paper's user study where judges only rated
        returned resources.  NDCG is computed after all rankers have
        produced their lists so the pool is identical for every method.
        """
        if not rankers:
            raise ConfigurationError("no rankers supplied")
        evaluation = RankingEvaluation(
            dataset_name=self._folksonomy.name, cutoffs=self._cutoffs
        )
        for name, ranker in rankers.items():
            evaluation.methods[name] = self._run_single(name, ranker)

        judged = (
            self._pooled_workload(evaluation) if self._pooled else self._workload
        )
        for method in evaluation.methods.values():
            method.ndcg_by_cutoff = {
                cutoff: mean_ndcg_at(method.rankings, judged, cutoff)
                for cutoff in self._cutoffs
            }
        return evaluation

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_single(self, name: str, ranker: Ranker) -> MethodEvaluation:
        ranker.fit(self._folksonomy)

        rankings: Dict[str, List[str]] = {}
        if self._batched:
            # Fast path: score the whole workload in one shot so rankers
            # with a matrix backend do a single batched top-k pass.
            queries = list(self._workload)
            ranked_lists = ranker.rank_batch(
                [list(query.tags) for query in queries], top_k=self._max_rank_depth
            )
            for query, ranked in zip(queries, ranked_lists):
                rankings[query.query_id] = [resource for resource, _ in ranked]
        else:
            for query in self._workload:
                ranked = ranker.ranked_resources(
                    list(query.tags), top_k=self._max_rank_depth
                )
                rankings[query.query_id] = ranked

        return MethodEvaluation(
            method=name,
            ndcg_by_cutoff={},
            fit_seconds=ranker.timings.fit_seconds,
            query_seconds_total=ranker.timings.query_seconds_total,
            queries_processed=ranker.timings.queries_processed,
            rankings=rankings,
        )

    def _pooled_workload(self, evaluation: RankingEvaluation) -> QueryWorkload:
        """The workload with judgments restricted to the pooled resources."""
        pooled: Dict[str, RelevanceJudgments] = {}
        for query in self._workload:
            pool = set()
            for method in evaluation.methods.values():
                pool.update(method.rankings.get(query.query_id, []))
            full = self._workload.judgments_for(query)
            pooled[query.query_id] = RelevanceJudgments(
                query_id=query.query_id,
                grades={r: g for r, g in full.grades.items() if r in pool},
            )
        return QueryWorkload(list(self._workload), pooled)
