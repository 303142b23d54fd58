"""The FolkRank baseline (Hotho et al., reproduced per Section II / VI-B).

FolkRank represents the folksonomy as an undirected weighted tripartite
graph over users, tags and resources.  The edge weights count co-occurrences
in tag assignments:

* ``(user, tag)``      — how many resources the user annotated with the tag,
* ``(user, resource)`` — how many tags the user gave to the resource,
* ``(tag, resource)``  — how many users assigned the tag to the resource.

Resources are ranked by the *differential* FolkRank weight: the personalised
PageRank with the query tags boosted in the preference vector, minus the
baseline PageRank with a uniform preference.  The differential form (from
the original FolkRank paper) removes the global popularity component and is
what makes the ranking query-specific.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import RankedList, Ranker
from repro.baselines.pagerank import personalized_pagerank
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError


class FolkRankRanker(Ranker):
    """Differential personalised PageRank over the tripartite graph."""

    name = "folkrank"

    def __init__(
        self,
        damping: float = 0.7,
        query_boost: float = 1.0,
        max_iter: int = 100,
        tol: float = 1e-10,
        differential: bool = True,
    ) -> None:
        super().__init__()
        if query_boost <= 0:
            raise ConfigurationError("query_boost must be positive")
        self._damping = damping
        self._query_boost = query_boost
        self._max_iter = max_iter
        self._tol = tol
        self._differential = differential

        self._node_index: Dict[Tuple[str, str], int] = {}
        self._adjacency: Optional[sp.csr_matrix] = None
        self._baseline_weights: Optional[np.ndarray] = None
        self._resource_positions: Dict[str, int] = {}
        self._tag_positions: Dict[str, int] = {}
        self._num_nodes = 0

    # ------------------------------------------------------------------ #
    # Offline: build the tripartite graph and the baseline rank
    # ------------------------------------------------------------------ #
    def _fit(self, folksonomy: Folksonomy) -> None:
        nodes: List[Tuple[str, str]] = (
            [("user", u) for u in folksonomy.users]
            + [("tag", t) for t in folksonomy.tags]
            + [("resource", r) for r in folksonomy.resources]
        )
        self._node_index = {node: i for i, node in enumerate(nodes)}
        self._num_nodes = len(nodes)
        self._tag_positions = {
            t: self._node_index[("tag", t)] for t in folksonomy.tags
        }
        self._resource_positions = {
            r: self._node_index[("resource", r)] for r in folksonomy.resources
        }

        # Node ids follow the list above: users, then tags, then resources.
        users, tags, resources = (c.astype(np.int64) for c in folksonomy.columns)
        tags = tags + folksonomy.num_users
        resources = resources + folksonomy.num_users + folksonomy.num_tags
        heads = np.concatenate([users, users, tags])
        tails = np.concatenate([tags, resources, resources])
        size = self._num_nodes
        pairs, counts = np.unique(
            np.concatenate([heads * size + tails, tails * size + heads]),
            return_counts=True,
        )
        self._adjacency = sp.coo_matrix(
            (counts.astype(float), (pairs // size, pairs % size)),
            shape=(size, size),
        ).tocsr()

        if self._differential:
            uniform = np.full(self._num_nodes, 1.0)
            self._baseline_weights, _ = personalized_pagerank(
                self._adjacency,
                uniform,
                damping=self._damping,
                max_iter=self._max_iter,
                tol=self._tol,
            )
        else:
            self._baseline_weights = np.zeros(self._num_nodes)

    # ------------------------------------------------------------------ #
    # Online: one personalised PageRank per query
    # ------------------------------------------------------------------ #
    def _rank(self, query_tags: List[str], top_k: Optional[int]) -> RankedList:
        assert self._adjacency is not None and self._baseline_weights is not None
        preference = np.full(self._num_nodes, 1.0)
        matched = 0
        for tag in query_tags:
            position = self._tag_positions.get(tag)
            if position is not None:
                preference[position] += self._query_boost * self._num_nodes
                matched += 1
        if matched == 0:
            return []

        weights, _ = personalized_pagerank(
            self._adjacency,
            preference,
            damping=self._damping,
            max_iter=self._max_iter,
            tol=self._tol,
        )
        differential = weights - self._baseline_weights

        scores: Dict[str, float] = {}
        for resource, position in self._resource_positions.items():
            score = float(differential[position])
            if score > 0.0:
                scores[resource] = score
        return self._sort_ranked(scores)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        if self._adjacency is None:
            return 0
        return int(self._adjacency.nnz // 2)
