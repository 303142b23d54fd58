"""Ranking quality metrics for graded relevance.

The main metric is NDCG@N exactly as the paper defines it (Eq. 24):

    NDCG@N = Z_N * sum_{i=1..N} (2^{r(i)} - 1) / log2(i + 1)

where ``r(i)`` is the relevance grade (0/1/2) of the resource at rank ``i``
and ``Z_N`` normalises so a perfect ranking scores 1.  Binary
precision/recall-style metrics are included for completeness and for tests.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Union

from repro.datasets.queries import QueryWorkload, RelevanceJudgments
from repro.utils.errors import ConfigurationError

GradeLookup = Union[RelevanceJudgments, Mapping[str, int]]


def _grade(judgments: GradeLookup, resource: str) -> int:
    if isinstance(judgments, RelevanceJudgments):
        return judgments.grade(resource)
    return int(judgments.get(resource, 0))


def _positive_grades(judgments: GradeLookup) -> List[int]:
    if isinstance(judgments, RelevanceJudgments):
        return judgments.ideal_gains()
    return sorted((g for g in judgments.values() if g > 0), reverse=True)


def dcg_at(ranking: Sequence[str], judgments: GradeLookup, n: int) -> float:
    """Discounted cumulative gain of the top-``n`` ranked resources.

    A resource repeated within the top ``n`` would be credited twice and
    push NDCG above 1, so it is refused.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    top = ranking[:n]
    if len(set(top)) != len(top):
        repeated = sorted({resource for resource in top if top.count(resource) > 1})
        raise ConfigurationError(f"ranking repeats {repeated} in its top {n}")
    total = 0.0
    for position, resource in enumerate(top, start=1):
        gain = (2 ** _grade(judgments, resource)) - 1
        total += gain / math.log2(position + 1)
    return total


def ideal_dcg(judgments: GradeLookup, n: int) -> float:
    """DCG of the ideal ranking (grades sorted descending)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    total = 0.0
    for position, grade in enumerate(_positive_grades(judgments)[:n], start=1):
        total += ((2**grade) - 1) / math.log2(position + 1)
    return total


def ndcg_at(ranking: Sequence[str], judgments: GradeLookup, n: int) -> float:
    """NDCG@N (Eq. 24); 0.0 when the query has no relevant resources."""
    ideal = ideal_dcg(judgments, n)
    if ideal <= 0.0:
        return 0.0
    return dcg_at(ranking, judgments, n) / ideal


def ndcg_curve(
    ranking: Sequence[str], judgments: GradeLookup, cutoffs: Iterable[int]
) -> Dict[int, float]:
    """NDCG@N for several cutoffs at once."""
    return {int(n): ndcg_at(ranking, judgments, int(n)) for n in cutoffs}


def mean_ndcg_at(
    rankings: Mapping[str, Sequence[str]],
    workload: QueryWorkload,
    n: int,
) -> float:
    """Mean NDCG@N over a query workload.

    ``rankings`` maps ``query_id -> ranked resource list`` for one method;
    ``workload`` provides the per-query judgments.  Queries without any
    relevant resource are excluded from the mean (they would contribute
    an uninformative 0).
    """
    scores: List[float] = []
    for query in workload:
        judgments = workload.judgments_for(query)
        if not judgments.ideal_gains():
            continue
        ranking = rankings.get(query.query_id, [])
        scores.append(ndcg_at(ranking, judgments, n))
    if not scores:
        return 0.0
    return float(sum(scores) / len(scores))


def precision_at(
    ranking: Sequence[str], judgments: GradeLookup, n: int, min_grade: int = 1
) -> float:
    """Fraction of the top-``n`` results with grade >= ``min_grade``."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    top = ranking[:n]
    if not top:
        return 0.0
    hits = sum(1 for resource in top if _grade(judgments, resource) >= min_grade)
    return hits / len(top)


def average_precision(
    ranking: Sequence[str], judgments: GradeLookup, min_grade: int = 1
) -> float:
    """Binary average precision (relevant = grade >= ``min_grade``)."""
    relevant_total = sum(
        1 for grade in _positive_grades(judgments) if grade >= min_grade
    )
    if relevant_total == 0:
        return 0.0
    hits = 0
    cumulative = 0.0
    for position, resource in enumerate(ranking, start=1):
        if _grade(judgments, resource) >= min_grade:
            hits += 1
            cumulative += hits / position
    return cumulative / relevant_total
