"""The concept vector-space model: tf-idf weighting and cosine ranking.

Implements Section III of the paper:

* Eq. 2 — ``tf(l, r)`` is the occurrence count of concept ``l`` in resource
  ``r`` normalised by the total concept occurrences of ``r``,
* Eq. 1 — ``w(l, r) = tf(l, r) * log(N / n_l)`` with ``N`` the number of
  resources and ``n_l`` the number of resources containing ``l``,
* Eq. 4 — resources are ranked by cosine similarity between their weight
  vector and the query's weight vector.

The model is generic over the "term" type: the CubeLSI pipeline feeds it
concept ids, while the BOW baseline feeds it raw tags; both go through the
exact same code path, which keeps the comparison fair.

This is the fit-once, from-scratch *reference*: serving goes through
:class:`~repro.search.matrix_space.MatrixConceptSpace`, and tests and
benchmarks check it against a space fitted here on the same (final) bags.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.search.inverted_index import InvertedIndex
from repro.utils.errors import ConfigurationError, NotFittedError


class RankedResult(NamedTuple):
    """One entry of a ranked result list.

    A ``NamedTuple`` rather than a dataclass: result lists are built in the
    innermost loop of batched ranking, where tuple construction is several
    times cheaper than a frozen-dataclass ``__init__``.
    """

    resource: str
    score: float
    rank: int


def query_tag_list(query_tags: Sequence[str]) -> List[str]:
    """One query's tags as a list; a bare ``str``/``bytes`` is refused.

    ``list("folk")`` is four one-letter tags, which silently match
    nothing, so a string passed where a tag sequence belongs is an error.
    """
    if isinstance(query_tags, (str, bytes)):
        raise ConfigurationError(
            f"a query is a sequence of tags, not a bare string: got "
            f"{query_tags!r}; pass [{query_tags!r}] for a one-tag query"
        )
    return list(query_tags)


#: The one ranking parity tolerance (engine vs oracle, shard vs monolith,
#: concurrent vs serial replay).
PARITY_TOL = 1e-9


def rankings_match(
    got: Sequence[RankedResult],
    want: Sequence[RankedResult],
    tol: float = PARITY_TOL,
    truncated: bool = False,
) -> bool:
    """Whether two ranked lists agree to ``tol`` (tie groups may permute).

    Scores must agree position by position within ``tol``, and resources
    must agree except *within* a group of scores tied at ``tol``, where
    summation-order noise between scoring backends may legally permute
    the deterministic tie-break (and, under a top-k cut — ``truncated``
    — may change the boundary group's membership).
    """
    if len(got) != len(want):
        return False
    position = 0
    while position < len(want):
        group_end = position
        while (
            group_end + 1 < len(want)
            and abs(want[group_end + 1].score - want[position].score) <= tol
        ):
            group_end += 1
        for got_result, want_result in zip(
            got[position : group_end + 1], want[position : group_end + 1]
        ):
            if abs(got_result.score - want_result.score) > tol:
                return False
        boundary = truncated and group_end + 1 == len(want)
        if not boundary:
            got_members = {r.resource for r in got[position : group_end + 1]}
            want_members = {r.resource for r in want[position : group_end + 1]}
            if got_members != want_members:
                return False
        position = group_end + 1
    return True


def mismatched_probes(
    got: Sequence[Sequence[RankedResult]],
    want: Sequence[Sequence[RankedResult]],
    truncated: bool,
) -> List[int]:
    """Indices of the probes whose rankings fail :func:`rankings_match`.

    The one comparator loop every parity check goes through: ``got`` and
    ``want`` are the two sides' answers to the same probe queries, in
    order, compared at :data:`PARITY_TOL`.  A probe only one side
    answered counts as mismatched.
    """
    answered = min(len(got), len(want))
    return [
        probe
        for probe in range(max(len(got), len(want)))
        if probe >= answered
        or not rankings_match(got[probe], want[probe], truncated=truncated)
    ]


class RankEngine(ABC):
    """What every serving engine is: an epoch-tagged batched ranker.

    *Required*: :meth:`snapshot_rank_batch`, :attr:`epoch`,
    :attr:`num_indexed_resources`.  *Derived* from those, once:
    :meth:`rank_batch`, :meth:`search` and the context manager (which
    calls :meth:`close`).  Everything else is a *null default* describing
    a read-only, generation-0 engine that owns nothing to release: an
    engine overrides exactly the capabilities it has, and callers read
    these attributes directly instead of probing for them.
    """

    generation = 0  #: bumped by each hot swap of a lifecycle handle
    concept_model = None  #: set by engines that can be re-serialized
    folksonomy = None  #: the corpus as of every mutation, when tracked
    is_mutable = False  #: whether :meth:`apply_mutations` is supported

    @property
    @abstractmethod
    def epoch(self) -> int:
        """The monotone mutation counter reads are audited against."""

    @property
    @abstractmethod
    def num_indexed_resources(self) -> int:
        """Resources currently indexed."""

    @abstractmethod
    def snapshot_rank_batch(
        self, queries: Sequence[Sequence[str]], top_k: Optional[int] = None
    ) -> Tuple[int, List[List[RankedResult]]]:
        """Rank a batch against one index state: ``(epoch, results)``."""

    def rank_batch(
        self, queries: Sequence[Sequence[str]], top_k: Optional[int] = None
    ) -> List[List[RankedResult]]:
        """Just the rankings of :meth:`snapshot_rank_batch`."""
        return self.snapshot_rank_batch(queries, top_k=top_k)[1]

    def search(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[RankedResult]:
        """Rank all resources against one tag query."""
        return self.rank_batch([query_tag_list(query_tags)], top_k=top_k)[0]

    def refresh(self) -> bool:
        """Fold pending mutations in; a read-only engine never has any."""
        return False

    def apply_mutations(self, added=None, updated=None, removed=None):
        raise ConfigurationError(
            f"{type(self).__name__} is read-only and cannot apply mutations; "
            "route writes through SearchEngine.load of the whole index"
        )

    def health(self) -> Dict[str, object]:
        """Operational snapshot; always carries ``epoch``."""
        return {"epoch": self.epoch}

    def close(self) -> None:
        """Release whatever the engine owns (idempotent); default nothing."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ConceptVectorSpace:
    """tf-idf weighted vector space over concept (or tag) bags.

    Weights are the paper's plain idf ``log(N / n_l)`` (Eq. 1) times
    normalised term frequency (Eq. 2).
    """

    def __init__(self) -> None:
        self._index: Optional[InvertedIndex] = None
        self._idf: Dict[Hashable, float] = {}
        self._num_resources = 0
        self._bags: Dict[str, Dict[Hashable, float]] = {}

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, resource_bags: Mapping[str, Mapping[Hashable, float]]) -> "ConceptVectorSpace":
        """Build the index from ``resource -> {term -> occurrence count}``."""
        if not resource_bags:
            raise ConfigurationError("cannot fit a vector space on zero resources")
        self._bags = {
            resource: {term: float(c) for term, c in bag.items() if c > 0}
            for resource, bag in resource_bags.items()
        }
        self._num_resources = len(self._bags)

        document_frequency: Dict[Hashable, int] = {}
        for bag in self._bags.values():
            for term in bag:
                document_frequency[term] = document_frequency.get(term, 0) + 1

        self._idf = {
            term: math.log(self._num_resources / df)
            for term, df in document_frequency.items()
        }

        index = InvertedIndex()
        for resource, bag in self._bags.items():
            index.add_document(resource, self._weight_vector(bag))
        self._index = index
        return self

    def resource_bags(self) -> Dict[str, Dict[Hashable, float]]:
        """The raw ``resource -> {term -> count}`` bags backing the space."""
        return {resource: dict(bag) for resource, bag in self._bags.items()}

    @property
    def num_resources(self) -> int:
        return self._num_resources

    @property
    def vocabulary_size(self) -> int:
        return len(self._idf)

    def terms(self) -> Tuple[Hashable, ...]:
        """The corpus vocabulary in a stable (fit-time) order."""
        return tuple(self._idf)

    def documents(self) -> List[str]:
        """Ids of all indexed resources."""
        self._require_fitted()
        assert self._index is not None
        return list(self._index.documents())

    def idf(self, term: Hashable) -> float:
        """The idf of ``term`` (0 for unseen terms)."""
        return self._idf.get(term, 0.0)

    def resource_vector(self, resource: str) -> Dict[Hashable, float]:
        """The stored tf-idf vector of a resource."""
        self._require_fitted()
        assert self._index is not None
        return self._index.document_vector(resource)

    # ------------------------------------------------------------------ #
    # Query processing
    # ------------------------------------------------------------------ #
    def query_vector(self, query_bag: Mapping[Hashable, float]) -> Dict[Hashable, float]:
        """tf-idf weight vector of a query bag (same weighting as resources)."""
        self._require_fitted()
        return self._weight_vector(query_bag)

    def rank(
        self,
        query_bag: Mapping[Hashable, float],
        top_k: Optional[int] = None,
    ) -> List[RankedResult]:
        """Rank resources by cosine similarity with the query (Eq. 4)."""
        self._require_fitted()
        assert self._index is not None
        vector = self.query_vector(query_bag)
        scored = self._index.cosine_scores(vector, top_k=top_k)
        return [
            RankedResult(resource=resource, score=score, rank=position + 1)
            for position, (resource, score) in enumerate(scored)
        ]

    def cosine(self, query_bag: Mapping[Hashable, float], resource: str) -> float:
        """Cosine similarity between a query bag and one resource."""
        self._require_fitted()
        assert self._index is not None
        vector = self.query_vector(query_bag)
        document = self._index.document_vector(resource)
        if not vector or not document:
            return 0.0
        dot = sum(weight * document.get(term, 0.0) for term, weight in vector.items())
        query_norm = math.sqrt(sum(w * w for w in vector.values()))
        doc_norm = self._index.document_norm(resource)
        if query_norm == 0.0 or doc_norm == 0.0:
            return 0.0
        return dot / (query_norm * doc_norm)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _weight_vector(self, bag: Mapping[Hashable, float]) -> Dict[Hashable, float]:
        """Apply Eq. 1-2: normalised term frequency times idf."""
        total = float(sum(count for count in bag.values() if count > 0))
        if total <= 0.0:
            return {}
        weights: Dict[Hashable, float] = {}
        for term, count in bag.items():
            if count <= 0:
                continue
            tf = float(count) / total
            # Terms never seen in the corpus cannot help ranking.
            weight = tf * self._idf.get(term, 0.0)
            if weight != 0.0:
                weights[term] = weight
        return weights

    def _require_fitted(self) -> None:
        if self._index is None:
            raise NotFittedError("ConceptVectorSpace.fit() has not been called")
