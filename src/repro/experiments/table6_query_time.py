"""Table VI: online query-processing time of CubeLSI versus FolkRank.

CubeLSI answers a query with sparse dot products against a pre-built
concept index; FolkRank has to run a personalised PageRank over the full
tripartite graph for every query.  The paper reports CubeLSI being orders of
magnitude faster; the same gap (scaled) appears here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines.cubelsi_ranker import CubeLSIRanker
from repro.baselines.folkrank import FolkRankRanker
from repro.datasets.profiles import PROFILES
from repro.experiments.common import (
    DEFAULT_NUM_QUERIES,
    DEFAULT_SCALE,
    ExperimentReport,
    prepare_corpus,
)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    num_queries: int = DEFAULT_NUM_QUERIES,
    profiles: Optional[Sequence[str]] = None,
    reduction_ratios=(25.0, 3.0, 40.0),
    num_concepts: Optional[int] = 45,
) -> ExperimentReport:
    """Regenerate Table VI (total query-processing time over the workload)."""
    names = list(profiles) if profiles is not None else list(PROFILES)
    totals: Dict[str, Dict[str, float]] = {"FolkRank": {}, "CubeLSI": {}}

    for index, profile_name in enumerate(names):
        corpus = prepare_corpus(
            profile_name=profile_name,
            scale=scale,
            seed=seed + index,
            num_queries=num_queries,
        )
        folksonomy = corpus.cleaned
        queries = [list(q.tags) for q in corpus.workload]

        folkrank = FolkRankRanker().fit(folksonomy)
        folkrank.rank_batch(queries, top_k=20)
        totals["FolkRank"][profile_name] = folkrank.timings.query_seconds_total

        cubelsi = CubeLSIRanker(
            reduction_ratios=reduction_ratios,
            num_concepts=num_concepts,
            seed=seed,
            min_rank=4,
        ).fit(folksonomy)
        # One batched pass: the matrix backend scores each query against
        # its concepts' postings (the paper's cheap-online claim).
        cubelsi.rank_batch(queries, top_k=20)
        totals["CubeLSI"][profile_name] = cubelsi.timings.query_seconds_total

    report = ExperimentReport(
        experiment_id="table6",
        title=(
            "Total query-processing time (seconds) over the workload, "
            "cf. paper Table VI"
        ),
    )
    for method, timings in totals.items():
        row: Dict[str, object] = {"Method": method}
        for profile_name in names:
            row[profile_name] = round(timings.get(profile_name, float("nan")), 4)
        report.rows.append(row)

    for profile_name in names:
        folkrank_time = totals["FolkRank"][profile_name]
        cubelsi_time = totals["CubeLSI"][profile_name]
        if cubelsi_time > 0:
            report.notes.append(
                f"{profile_name}: FolkRank / CubeLSI query-time ratio = "
                f"{folkrank_time / cubelsi_time:.1f}x over {num_queries} queries "
                "(paper: 13x-158x)"
            )
    return report
