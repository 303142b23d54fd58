"""The Freq baseline (Section VI-B).

For a query ``q`` and resource ``r`` with tag set ``tags(r)``,

    Sim_freq(q, r) = sum_{t in q ∩ tags(r)} |users(t, r)|
                     ------------------------------------
                     sum_{t in tags(r)}     |users(t, r)|

i.e. the fraction of tagging "votes" on ``r`` that used one of the query
tags.  It uses the tagger dimension (through the user counts) but performs
no semantic analysis at all.

The offline component additionally compiles the vote fractions into a CSR
matrix over the tag vocabulary so that a batch of queries is scored with one
sparse matmul — the same backend style the vector-space methods use, which
keeps the Table VI timing comparison apples-to-apples.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import RankedList, Ranker
from repro.search.matrix_space import select_top_k
from repro.tagging.folksonomy import Folksonomy


class FreqRanker(Ranker):
    """Tagger-vote-fraction ranking."""

    name = "freq"

    def __init__(self) -> None:
        super().__init__()
        #: resource -> {tag -> number of distinct users who used it there}
        self._votes: Dict[str, Dict[str, int]] = {}
        #: resource -> total votes over all its tags
        self._total_votes: Dict[str, float] = {}
        self._resource_ids: List[str] = []
        self._tag_columns: Dict[str, int] = {}
        self._fractions: Optional[sp.csr_matrix] = None

    def _fit(self, folksonomy: Folksonomy) -> None:
        # Read off the folksonomy's count table: no tag_bag lookup per resource.
        resources = folksonomy.resources
        rows, tags, counts = folksonomy.tag_counts()
        bounds = rows.searchsorted(np.arange(len(resources) + 1)).tolist()
        labels = map(folksonomy.tags.__getitem__, tags.tolist())
        entries = list(zip(labels, counts.tolist()))
        totals = np.bincount(rows, counts, minlength=len(resources)).tolist()
        self._votes = {
            resource: dict(entries[bounds[row] : bounds[row + 1]])
            for row, resource in enumerate(resources)
        }
        self._total_votes = dict(zip(resources, totals))
        self._compile()

    def _rank(self, query_tags: List[str], top_k: Optional[int]) -> RankedList:
        query = set(query_tags)
        scores: Dict[str, float] = {}
        for resource, votes in self._votes.items():
            total = self._total_votes[resource]
            if total == 0.0:
                continue
            matched = sum(count for tag, count in votes.items() if tag in query)
            if matched > 0:
                scores[resource] = matched / total
        return self._sort_ranked(scores)

    def _rank_batch(
        self, queries: List[List[str]], top_k: Optional[int]
    ) -> List[RankedList]:
        assert self._fractions is not None
        rows: List[int] = []
        columns: List[int] = []
        for row, tags in enumerate(queries):
            for tag in set(tags):
                column = self._tag_columns.get(tag)
                if column is not None:
                    rows.append(row)
                    columns.append(column)
        indicator = sp.csr_matrix(
            (np.ones(len(rows), dtype=np.float64), (rows, columns)),
            shape=(len(queries), len(self._tag_columns)),
        )
        products = indicator @ self._fractions.T

        ranked_lists: List[RankedList] = []
        for row in range(len(queries)):
            start, end = products.indptr[row], products.indptr[row + 1]
            candidates = products.indices[start:end]
            scores = products.data[start:end]
            selected = select_top_k(candidates, scores, top_k)
            ranked_lists.append(
                [
                    (self._resource_ids[candidates[index]], float(scores[index]))
                    for index in selected
                ]
            )
        return ranked_lists

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        """Freeze the vote fractions into CSR form for batched scoring.

        Rows are laid out in ascending resource-id order so row position
        doubles as the (score, resource) tie-break of :meth:`_sort_ranked`.
        """
        self._resource_ids = sorted(self._votes)
        tags = sorted({tag for votes in self._votes.values() for tag in votes})
        self._tag_columns = {tag: column for column, tag in enumerate(tags)}
        rows: List[int] = []
        columns: List[int] = []
        values: List[float] = []
        for row, resource in enumerate(self._resource_ids):
            total = self._total_votes[resource]
            if total == 0.0:
                continue
            for tag, count in self._votes[resource].items():
                if count > 0:
                    rows.append(row)
                    columns.append(self._tag_columns[tag])
                    values.append(count / total)
        self._fractions = sp.csr_matrix(
            (values, (rows, columns)),
            shape=(len(self._resource_ids), len(tags)),
            dtype=np.float64,
        )
