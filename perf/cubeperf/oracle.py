"""Output checks, run outside every timed section.

The reference for served rankings is a dict-loop
:class:`repro.search.vsm.ConceptVectorSpace` that the benchmark fits
*itself* from the corpus and the concept model — not the mirror an engine
may carry — so the check keeps working when that mirror leaves the serving
path.  Rankings are compared with the repo's tie-aware comparator at 1e-9.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.datasets.queries import QueryWorkload
from repro.eval.ndcg import mean_ndcg_at
from repro.eval.sharding import rankings_match
from repro.search.vsm import ConceptVectorSpace, RankedResult

PARITY_TOL = 1e-9


class DictLoopOracle:
    """Reference rankings from a from-scratch dict-loop tf-idf space."""

    def __init__(
        self, concept_model, tag_bags: Mapping[str, Mapping[str, float]]
    ) -> None:
        self._model = concept_model
        self.space = ConceptVectorSpace().fit(
            {
                resource: concept_model.concept_bag(bag)
                for resource, bag in tag_bags.items()
            }
        )

    @classmethod
    def of_folksonomy(cls, concept_model, folksonomy) -> "DictLoopOracle":
        return cls(
            concept_model,
            {r: folksonomy.tag_bag(r) for r in folksonomy.resources},
        )

    def rank(
        self, tags: Sequence[str], top_k: Optional[int]
    ) -> List[RankedResult]:
        bag = self._model.concept_bag_from_tags(tags)
        return self.space.rank(bag, top_k=top_k) if bag else []


def count_mismatches(
    got: Sequence[Sequence[RankedResult]],
    want: Sequence[Sequence[RankedResult]],
    top_k: Optional[int],
) -> int:
    """How many of ``got``'s rankings disagree with ``want`` beyond 1e-9."""
    if len(got) != len(want):
        return max(len(got), len(want))
    return sum(
        not rankings_match(
            answer, reference, tol=PARITY_TOL, truncated=top_k is not None
        )
        for answer, reference in zip(got, want)
    )


def ndcg10(answer, judged: QueryWorkload) -> float:
    """Mean NDCG@10 of ``answer(tags, top_k=10)`` over the judged queries."""
    rankings: Dict[str, List[str]] = {
        query.query_id: [r.resource for r in answer(list(query.tags), top_k=10)]
        for query in judged
    }
    return mean_ndcg_at(rankings, judged, 10)
