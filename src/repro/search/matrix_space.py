"""The concept vector space the online component serves from.

:class:`MatrixConceptSpace` holds the paper's Section III model — Eq. 2 term
frequencies, Eq. 1 idf weights, Eq. 4 cosine ranking — as two sparse
matrices over a fixed concept vocabulary.  *Rows for writing*: a
document-major CSR of raw concept counts, the only thing mutations edit.
*Columns for reading*: term-major postings of the tf-idf weights plus
precomputed document norms, the only thing queries are scored against — a
query touches only the resources that share a concept with it, a few
vectorized slices per query followed by :func:`numpy.argpartition` top-k
selection, which is what makes the paper's "online querying is just cheap
dot products" claim (Table VI) hold at scale.

The postings always come from the counts through :func:`refresh_spaces`: a
build, a standalone refresh after mutations and an engine's coordinated
refresh of N shards are that one routine over one or N spaces.

The space is also the unit of persistence: :meth:`save` writes both
matrices (a compressed ``.npz`` archive, or raw per-array ``.npy`` files
when ``mmap_ready=True`` so :meth:`load` can memory-map them and rank
straight off the mapped postings) and the vocabulary/metadata to JSON, so
that offline indexing and online serving — including the process-per-shard
pool's one-worker-per-shard loads — can run in separate processes.

Scores, rankings and tie-breaking (descending score, then ascending resource
id) agree to 1e-9 with the fit-once dict-loop reference in
:mod:`repro.search.vsm`, which tests and benchmarks use as the oracle;
``tests/test_matrix_space.py`` holds the parity suite.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.search.vsm import ConceptVectorSpace, RankedResult
from repro.utils.errors import ConfigurationError, NotFittedError

#: File names used inside a save directory.
ARRAYS_FILENAME = "matrix_space.npz"
METADATA_FILENAME = "matrix_space.json"

#: Array-storage layouts a save directory may use.  ``npz`` is one
#: compressed archive (smallest on disk, must be decompressed into RAM on
#: load); ``npy`` is one raw ``.npy`` file per array, which
#: :meth:`MatrixConceptSpace.load` can memory-map (``mmap=True``) so a
#: serving process opens a multi-GB shard in milliseconds and only pages
#: in the postings it actually scores.
STORAGE_NPZ = "npz"
STORAGE_NPY = "npy"

#: Names of the arrays persisted by :meth:`MatrixConceptSpace.save`: the
#: count CSR, the postings (a CSC of the weights), norms and idf.
_ARRAY_NAMES = (
    "counts_indptr",
    "counts_indices",
    "counts_data",
    "post_indptr",
    "post_rows",
    "post_weights",
    "doc_norms",
    "idf",
)

#: Bumped whenever the on-disk layout changes incompatibly.  Version 3
#: stores the term-major postings queries are scored against in place of
#: the document-major weights of versions 1-2, which are refused on load.
FORMAT_VERSION = 3


def _npy_path(directory: Path, name: str) -> Path:
    """Per-array file of the ``npy`` storage layout."""
    return directory / f"matrix_space.{name}.npy"


def _read_metadata(directory: Union[str, Path]) -> Dict[str, object]:
    metadata_path = Path(directory) / METADATA_FILENAME
    if not metadata_path.exists():
        raise NotFittedError(f"no saved matrix space under {directory}")
    return json.loads(metadata_path.read_text(encoding="utf-8"))


def saved_storage(directory: Union[str, Path]) -> str:
    """The array-storage layout of a save directory (``npz`` or ``npy``).

    Lets a coordinator decide *before* spawning workers whether a shard
    layout supports memory-mapping.
    """
    return str(_read_metadata(directory).get("storage", STORAGE_NPZ))


def validate_top_k(top_k: Optional[int]) -> None:
    """Reject a non-positive ``top_k`` before any scoring work happens."""
    if top_k is not None and top_k < 1:
        raise ConfigurationError(f"top_k must be >= 1 when given, got {top_k}")


def boundary_tie_candidates(scores: np.ndarray, top_k: Optional[int]) -> np.ndarray:
    """Indices of every entry that can appear in an exact top-k selection.

    Selecting the ``top_k`` best scores with :func:`numpy.argpartition` is
    ambiguous when scores tie exactly at rank k: the partition picks an
    arbitrary subset of the boundary tie group.  This helper widens the
    selection to the *whole* tie group — the k best scores plus every entry
    whose score equals the boundary — so that a deterministic tie-break
    (ascending position / resource id) can then pick the exact members.

    It is the single source of truth for boundary-tie handling: the flat
    selector (:func:`select_top_k`) and the sharded fan-out merge
    (:func:`repro.search.sharding.merge_topk`) both resolve rank-k ties
    through it, which is what keeps a sharded top-k identical to the
    monolithic one when scores tie exactly at the cut.
    """
    if top_k is None or top_k >= scores.size:
        return np.arange(scores.size)
    head = np.argpartition(-scores, top_k - 1)[:top_k]
    return (scores >= scores[head].min()).nonzero()[0]


def select_top_k(
    positions: np.ndarray, scores: np.ndarray, top_k: Optional[int]
) -> np.ndarray:
    """Exact top-k selection with deterministic tie-breaking.

    Given candidate row ``positions`` (whose order encodes the tie-break:
    lower position wins) and their ``scores``, return the indices into
    ``positions``/``scores`` of the top ``top_k`` entries sorted by
    descending score, ties broken by ascending position.  Entries with
    non-positive scores are dropped, mirroring the dict-loop path which
    never materialises zero-similarity documents.

    Uses :func:`numpy.argpartition` to avoid a full sort when ``top_k`` is
    small, but widens the partition through
    :func:`boundary_tie_candidates` to the whole boundary tie group so the
    selection matches an exhaustive ``sorted(..., key=(-score, position))``.
    """
    if scores.size == 0:
        return np.empty(0, dtype=np.intp)
    if scores.min() > 0.0:
        # Fast path: structurally, sparse dot products of non-negative
        # weight matrices are strictly positive wherever they are stored,
        # so the positivity filter is usually a no-op.
        keep = None
        kept_scores = scores
        kept_positions = positions
    else:
        keep = (scores > 0.0).nonzero()[0]
        if keep.size == 0:
            return keep
        kept_scores = scores[keep]
        kept_positions = positions[keep]
    candidate = boundary_tie_candidates(kept_scores, top_k)
    order = np.lexsort((kept_positions[candidate], -kept_scores[candidate]))
    selected = candidate[order]
    if top_k is not None:
        selected = selected[:top_k]
    return selected if keep is None else keep[selected]


class MatrixConceptSpace:
    """tf-idf concept space: count rows to edit, weight postings to rank.

    Instances are produced by :meth:`from_bags` (from raw count bags),
    :meth:`slice_rows` / :meth:`partition` (row shards) or :meth:`load`
    (from a directory written by :meth:`save`).  The constructor takes the
    count rows; :meth:`apply_statistics` (or :meth:`load`) installs what is
    derived from them before the space is handed out.
    """

    #: The weights as a CSC matrix: per-term bounds (a list, the kernel
    #: indexes it with Python ints), ascending row ids (``intp``) and their
    #: non-zero tf-idf weights.
    _postings: Tuple[List[int], np.ndarray, np.ndarray]
    _doc_norms: np.ndarray
    _idf: np.ndarray
    _num_resources: int  #: corpus-wide document count behind the idf

    def __init__(
        self,
        doc_ids: Sequence[str],
        terms: Sequence[Hashable],
        counts: sp.csr_matrix,
        smooth_idf: bool,
        external_stats: bool = False,
    ) -> None:
        self._doc_ids: Tuple[str, ...] = tuple(doc_ids)
        self._doc_index: Dict[str, int] = {
            doc_id: row for row, doc_id in enumerate(self._doc_ids)
        }
        self._terms: Tuple[Hashable, ...] = tuple(terms)
        self._term_index: Dict[Hashable, int] = {
            term: column for column, term in enumerate(self._terms)
        }
        if counts.shape != (len(self._doc_ids), len(self._terms)):
            raise ConfigurationError(
                f"counts shape {counts.shape} does not match "
                f"{len(self._doc_ids)} documents x {len(self._terms)} terms"
            )
        # Raw concept counts, one row per document.  Weights are always
        # re-derived from them after documents fold in or out, including
        # entries whose weight was zero (idf 0) at build time and
        # resurrects later.
        self._counts = counts
        self._smooth_idf = bool(smooth_idf)
        self._pending_upsert: Dict[str, Dict[Hashable, float]] = {}
        self._pending_remove: set = set()
        self._weights_stale = True
        # Shards of a sharded index carry *global* statistics (idf over the
        # whole corpus, corpus-wide num_resources) that only their
        # coordinator may recompute; a shard-local refresh would silently
        # reweigh the shard against its own rows.
        self._external_stats = bool(external_stats)
        self._refresh_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bags(
        cls,
        resource_bags: Mapping[str, Mapping[Hashable, float]],
        smooth_idf: bool = False,
    ) -> "MatrixConceptSpace":
        """Build the space from ``resource -> {term -> occurrence count}``.

        Documents are laid out in ascending resource-id order so that row
        position doubles as the ranking tie-break; non-positive counts are
        dropped.  idf, weights and norms come from :func:`refresh_spaces` —
        the pass a post-mutation :meth:`refresh` runs — so a build and a
        refresh over the same corpus produce the same arrays.
        """
        if not resource_bags:
            raise ConfigurationError("cannot build a concept space on zero resources")
        doc_ids = sorted(resource_bags)
        term_index: Dict[Hashable, int] = {}
        for doc_id in doc_ids:
            for term, count in resource_bags[doc_id].items():
                if count > 0 and term not in term_index:
                    term_index[term] = len(term_index)
        space = cls(
            doc_ids=doc_ids,
            terms=tuple(term_index),
            counts=_counts_matrix(doc_ids, term_index, resource_bags),
            smooth_idf=smooth_idf,
        )
        refresh_spaces([space])
        return space

    @classmethod
    def compile(cls, space: ConceptVectorSpace) -> "MatrixConceptSpace":
        """:meth:`from_bags` over a fitted dict-loop reference space's bags."""
        return cls.from_bags(space.resource_bags(), space.smooth_idf)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_resources(self) -> int:
        self.refresh()
        return self._num_resources

    @property
    def num_documents(self) -> int:
        self.refresh()
        return len(self._doc_ids)

    @property
    def vocabulary_size(self) -> int:
        self.refresh()
        return len(self._terms)

    @property
    def smooth_idf(self) -> bool:
        return self._smooth_idf

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        self.refresh()
        return self._doc_ids

    @property
    def terms(self) -> Tuple[Hashable, ...]:
        self.refresh()
        return self._terms

    @property
    def nnz(self) -> int:
        """Stored weights — the memory figure Table VII cares about."""
        self.refresh()
        return int(self._postings[2].size)

    def idf(self, term: Hashable) -> float:
        self.refresh()
        column = self._term_index.get(term)
        return float(self._idf[column]) if column is not None else 0.0

    def document_norm(self, doc_id: str) -> float:
        self.refresh()
        row = self._doc_index.get(doc_id)
        return float(self._doc_norms[row]) if row is not None else 0.0

    def document_weights(self, doc_id: str) -> Dict[Hashable, float]:
        """A document's non-zero ``term -> weight`` row (empty if unknown).

        Read off the count row: tf (Eq. 2) times the current idf, the same
        product :meth:`apply_statistics` stores in the postings.
        """
        self.refresh()
        row = self._doc_index.get(doc_id)
        if row is None:
            return {}
        counts = self._counts
        start, end = counts.indptr[row], counts.indptr[row + 1]
        columns, stored = counts.indices[start:end], counts.data[start:end]
        weights = stored / stored.sum() * self._idf[columns]
        return {
            self._terms[column]: weight
            for column, weight in zip(columns.tolist(), weights.tolist())
            if weight != 0.0
        }

    def query_weights(
        self, query_bag: Mapping[Hashable, float]
    ) -> Dict[Hashable, float]:
        """A query bag's ``term -> weight`` vector over the vocabulary.

        Out-of-vocabulary terms are left out: they can match no document
        (under idf smoothing they still count towards the query norm that
        :meth:`cosine` divides by).
        """
        self.refresh()
        weights, _ = self._weight_query(query_bag)
        return {self._terms[column]: weight for column, weight in weights.items()}

    # ------------------------------------------------------------------ #
    # Incremental updates (fold-in without rebuilding from the bags)
    # ------------------------------------------------------------------ #
    @property
    def is_stale(self) -> bool:
        """Whether mutations are pending the lazy idf/norm recompute."""
        return bool(
            self._pending_upsert or self._pending_remove or self._weights_stale
        )

    @property
    def has_external_stats(self) -> bool:
        """Whether idf/num_resources are owned by a sharding coordinator."""
        return self._external_stats

    @property
    def pending_num_documents(self) -> int:
        """Document count once pending mutations land, *without* refreshing."""
        appended = sum(
            1 for doc_id in self._pending_upsert if doc_id not in self._doc_index
        )
        return len(self._doc_ids) - len(self._pending_remove) + appended

    def has_document(self, doc_id: str) -> bool:
        """Whether ``doc_id`` is indexed (pending mutations included)."""
        if doc_id in self._pending_upsert:
            return True
        return doc_id in self._doc_index and doc_id not in self._pending_remove

    def add_documents(
        self, bags: Mapping[str, Mapping[Hashable, float]]
    ) -> None:
        """Append new documents; idf, weights and norms refresh lazily.

        The rows are buffered and folded into the count rows on the next
        read (query, introspection or save), so a burst of additions pays
        for one vectorized recompute instead of one per call.
        """
        for doc_id in bags:
            if self.has_document(doc_id):
                raise ConfigurationError(
                    f"document {doc_id!r} is already indexed; use update_document"
                )
        for doc_id, bag in bags.items():
            self._pending_remove.discard(doc_id)
            self._pending_upsert[doc_id] = {
                term: float(c) for term, c in bag.items() if c > 0
            }

    def remove_documents(
        self, doc_ids: Sequence[str], allow_empty: bool = False
    ) -> None:
        """Drop documents (lazily applied, like :meth:`add_documents`).

        ``allow_empty=True`` lets the space drain to zero rows — a sharding
        coordinator needs that, because emptying one shard is legal as long
        as the *corpus* (which the coordinator guards) stays non-empty.
        """
        doc_ids = list(doc_ids)
        for doc_id in doc_ids:
            if not self.has_document(doc_id):
                raise ConfigurationError(f"document {doc_id!r} is not indexed")
        if not allow_empty and self.pending_num_documents - len(set(doc_ids)) < 1:
            raise ConfigurationError(
                "cannot remove every document; rebuild the space instead"
            )
        for doc_id in doc_ids:
            self._pending_upsert.pop(doc_id, None)
            if doc_id in self._doc_index:
                self._pending_remove.add(doc_id)

    def update_document(
        self, doc_id: str, bag: Mapping[Hashable, float]
    ) -> None:
        """Replace one document's raw counts (lazily applied)."""
        if not self.has_document(doc_id):
            raise ConfigurationError(f"document {doc_id!r} is not indexed")
        self._pending_upsert[doc_id] = {
            term: float(c) for term, c in bag.items() if c > 0
        }

    def refresh(self) -> bool:
        """Fold pending mutations into both matrices; True if work was done.

        :func:`refresh_spaces` over this one space, leaving exactly the
        arrays a from-scratch build over the mutated corpus would produce.

        Spaces with :attr:`has_external_stats` (shards of a sharded index)
        refuse a local refresh while stale: their idf and ``num_resources``
        are corpus-wide figures that only the owning coordinator can
        recompute (the same routine over every shard).

        Mutations and the refresh they trigger are *writer-side* operations:
        concurrent refreshes are serialised by a lock, but concurrent query
        reads racing a refresh are not — a serving process should apply
        mutations and call :meth:`refresh` from one writer, after which
        concurrent reads of the (non-stale) space are safe.
        """
        if not self.is_stale:
            return False
        if self._external_stats:
            raise ConfigurationError(
                "this space is a shard carrying coordinated corpus-wide "
                "statistics; refresh it through the owning SearchEngine"
            )
        with self._refresh_lock:
            if not self.is_stale:  # another thread refreshed while we waited
                return False
            refresh_spaces([self])
            return True

    # ------------------------------------------------------------------ #
    # The steps of :func:`refresh_spaces` (writer-side, unlocked)
    # ------------------------------------------------------------------ #
    def fold_pending_counts(
        self, new_terms: Sequence[Hashable]
    ) -> Tuple[Hashable, ...]:
        """Fold pending mutations into the count rows; weights stay stale.

        Extends the vocabulary with ``new_terms`` (the union over every
        aligned space's pending bags), appends/drops count rows and
        re-sorts documents into ascending-id order.  Returns the resulting
        vocabulary so the caller can assert cross-shard alignment.
        """
        terms: List[Hashable] = list(self._terms)
        term_index: Dict[Hashable, int] = dict(self._term_index)
        for term in new_terms:
            if term not in term_index:
                term_index[term] = len(terms)
                terms.append(term)

        if self._pending_upsert or self._pending_remove:
            dropped = self._pending_remove | set(self._pending_upsert)
            keep_ids = [d for d in self._doc_ids if d not in dropped]
            keep_rows = np.array(
                [self._doc_index[d] for d in keep_ids], dtype=np.intp
            )
            old = self._counts[keep_rows] if keep_ids else sp.csr_matrix(
                (0, len(self._terms)), dtype=np.float64
            )
            old.resize((old.shape[0], len(terms)))

            new_ids = sorted(self._pending_upsert)
            fresh = _counts_matrix(new_ids, term_index, self._pending_upsert)
            combined_ids = keep_ids + new_ids
            combined = sp.vstack([old, fresh], format="csr")

            order = sorted(range(len(combined_ids)), key=combined_ids.__getitem__)
            counts = combined[np.asarray(order, dtype=np.intp)].tocsr()
            counts.eliminate_zeros()

            self._doc_ids = tuple(combined_ids[i] for i in order)
            self._doc_index = {
                doc_id: row for row, doc_id in enumerate(self._doc_ids)
            }
            self._pending_upsert = {}
            self._pending_remove = set()
        elif len(terms) != len(self._terms):
            counts = self._counts.copy()
            counts.resize((counts.shape[0], len(terms)))
        else:
            return self._terms
        self._terms = tuple(terms)
        self._term_index = term_index
        self._counts = counts
        self._weights_stale = True
        return self._terms

    def drop_columns(self, alive: np.ndarray) -> None:
        """Restrict counts and vocabulary to the ``alive`` column mask."""
        self._counts = self._counts[:, np.flatnonzero(alive)].tocsr()
        self._terms = tuple(
            term for term, keep in zip(self._terms, alive) if keep
        )
        self._term_index = {
            term: column for column, term in enumerate(self._terms)
        }
        self._weights_stale = True

    def apply_statistics(self, idf: np.ndarray, num_resources: int) -> None:
        """Derive the postings and norms from the counts and a given idf.

        ``idf``/``num_resources`` are local figures for a standalone space
        and corpus-wide figures for a shard; either way the weights become
        exactly what a from-scratch build with those statistics produces.
        One column-major pass: each entry is ``count / row sum * idf``
        (Eq. 2 x Eq. 1), exact zeros (idf 0) are not stored, and a row's
        squared weights accumulate into its norm in ascending-column order.
        """
        idf = np.asarray(idf, dtype=np.float64)
        if idf.shape != (len(self._terms),):
            raise ConfigurationError(
                f"idf vector of length {idf.shape} does not match the "
                f"{len(self._terms)}-term vocabulary"
            )
        row_sums = np.asarray(self._counts.sum(axis=1)).ravel()
        columns = self._counts.tocsc()
        rows = columns.indices.astype(np.intp)
        term_of = np.repeat(np.arange(idf.size), np.diff(columns.indptr))
        weights = columns.data / row_sums[rows] * idf[term_of]
        stored = weights != 0.0
        if not bool(stored.all()):
            rows, weights, term_of = rows[stored], weights[stored], term_of[stored]
        # ``term_of`` ascends, so a term's postings start where it first shows.
        bounds = np.searchsorted(term_of, np.arange(idf.size + 1)).tolist()
        self._postings = (bounds, rows, weights)
        self._doc_norms = np.sqrt(
            np.bincount(rows, weights=weights * weights, minlength=row_sums.size)
        )
        self._idf = idf
        self._num_resources = int(num_resources)
        self._weights_stale = False

    # ------------------------------------------------------------------ #
    # Partitioning (sharded serving)
    # ------------------------------------------------------------------ #
    def slice_rows(self, doc_ids: Sequence[str]) -> "MatrixConceptSpace":
        """A shard view: the given rows with corpus-wide statistics.

        The slice keeps the full vocabulary, the global idf vector and the
        global ``num_resources``, so every sliced row scores bit-for-bit
        like it does in this space; only the set of candidate documents
        shrinks.  The returned space has :attr:`has_external_stats` set —
        its statistics stay owned by whoever coordinates the shards.
        """
        self.refresh()
        ordered = sorted(doc_ids)
        if len(set(ordered)) != len(ordered):
            raise ConfigurationError("slice_rows got duplicate document ids")
        missing = [d for d in ordered if d not in self._doc_index]
        if missing:
            raise ConfigurationError(
                f"slice_rows got unknown documents: {missing[:3]}"
            )
        rows = np.array([self._doc_index[d] for d in ordered], dtype=np.intp)
        shard = MatrixConceptSpace(
            doc_ids=ordered,
            terms=self._terms,
            counts=self._counts[rows].tocsr(),
            smooth_idf=self._smooth_idf,
            external_stats=True,
        )
        shard.apply_statistics(self._idf.copy(), self._num_resources)
        return shard

    def partition(
        self, num_shards: int, assign
    ) -> List["MatrixConceptSpace"]:
        """Split the space into ``num_shards`` row shards via ``assign``.

        ``assign`` maps a document id to a shard index in
        ``[0, num_shards)`` — typically
        :meth:`repro.search.sharding.ShardRouter.shard_of`.  Every shard
        (including empty ones) is returned, each carrying the shared
        vocabulary and global statistics (see :meth:`slice_rows`).
        """
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.refresh()
        buckets: List[List[str]] = [[] for _ in range(num_shards)]
        for doc_id in self._doc_ids:
            shard = int(assign(doc_id))
            if not 0 <= shard < num_shards:
                raise ConfigurationError(
                    f"assign({doc_id!r}) returned shard {shard}, outside "
                    f"[0, {num_shards})"
                )
            buckets[shard].append(doc_id)
        return [self.slice_rows(bucket) for bucket in buckets]

    # ------------------------------------------------------------------ #
    # Ranking
    # ------------------------------------------------------------------ #
    def rank(
        self,
        query_bag: Mapping[Hashable, float],
        top_k: Optional[int] = None,
    ) -> List[RankedResult]:
        """Rank all resources against one query bag (Eq. 4)."""
        return self.rank_batch([query_bag], top_k=top_k)[0]

    def rank_batch(
        self,
        query_bags: Sequence[Mapping[Hashable, float]],
        top_k: Optional[int] = None,
    ) -> List[List[RankedResult]]:
        """Rank every query of a batch against the term-major postings.

        A query scores only the documents that store one of its terms: with
        one term the term's postings *are* the candidates; with several the
        postings accumulate, in bag order (the dict-loop reference's
        summation order), into a scratch vector.  Scratch is allocated per
        call — concurrent readers share the space, never the buffers.

        Queries whose bags are empty or carry no corpus term simply yield an
        empty result list — a zero query norm never raises or produces NaN.
        """
        validate_top_k(top_k)
        if not query_bags:
            return []
        self.refresh()
        bounds, post_rows, post_weights = self._postings
        doc_norms, resource_of = self._doc_norms, self._doc_ids.__getitem__
        num_rows = doc_norms.size
        dots: Optional[np.ndarray] = None
        touched: Optional[np.ndarray] = None

        results: List[List[RankedResult]] = []
        for bag in query_bags:
            weights, norm_sq = self._weight_query(bag)
            if not weights:
                results.append([])
                continue
            if len(weights) == 1:
                ((column, weight),) = weights.items()
                norm_sq += weight * weight
                start, end = bounds[column], bounds[column + 1]
                candidates = post_rows[start:end]
                scores = post_weights[start:end] * weight
            else:
                if dots is None or touched is None:
                    dots = np.zeros(num_rows, dtype=np.float64)
                    touched = np.zeros(num_rows, dtype=bool)
                for column, weight in weights.items():
                    norm_sq += weight * weight
                    start, end = bounds[column], bounds[column + 1]
                    posted = post_rows[start:end]
                    dots[posted] += post_weights[start:end] * weight
                    touched[posted] = True
                candidates = touched.nonzero()[0]
                scores = dots[candidates]
                dots[candidates] = 0.0
                touched[candidates] = False
            scores /= math.sqrt(norm_sq) * doc_norms[candidates]
            selected = select_top_k(candidates, scores, top_k)
            results.append(
                list(
                    map(
                        RankedResult._make,
                        zip(
                            map(resource_of, candidates[selected].tolist()),
                            scores[selected].tolist(),
                            range(1, selected.size + 1),
                        ),
                    )
                )
            )
        return results

    def cosine(self, query_bag: Mapping[Hashable, float], resource: str) -> float:
        """Cosine similarity between one query bag and one resource."""
        self.refresh()
        row = self._doc_index.get(resource)
        if row is None:
            return 0.0
        weights, norm_sq = self._weight_query(query_bag)
        doc_norm = self._doc_norms[row]
        if not weights or doc_norm == 0.0:
            return 0.0
        bounds, post_rows, post_weights = self._postings
        dot = 0.0
        for column, weight in weights.items():
            norm_sq += weight * weight
            # Row ids ascend within a term: bisect for this document's entry.
            start, end = bounds[column], bounds[column + 1]
            at = start + int(np.searchsorted(post_rows[start:end], row))
            if at < end and post_rows[at] == row:
                dot += weight * float(post_weights[at])
        return dot / (math.sqrt(norm_sq) * doc_norm)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(
        self, directory: Union[str, Path], mmap_ready: bool = False
    ) -> Path:
        """Write both matrices and the metadata (JSON) to ``directory``.

        With the default ``mmap_ready=False`` the arrays land in one
        compressed ``.npz`` archive (smallest on disk).  With
        ``mmap_ready=True`` each array is written as a raw ``.npy`` file
        instead, so :meth:`load` can memory-map them (``mmap=True``):
        opening the space is then near-instant regardless of corpus size
        and the OS pages postings in on demand — the layout the
        process-per-shard serving pool
        (:mod:`repro.search.shardpool`) expects.  A re-save removes the
        other layout's files so a directory never carries both.
        """
        self.refresh()
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        bounds, post_rows, post_weights = self._postings
        arrays = {
            "counts_indptr": self._counts.indptr,
            "counts_indices": self._counts.indices,
            "counts_data": self._counts.data,
            "post_indptr": np.asarray(bounds, dtype=np.int64),
            "post_rows": post_rows.astype(np.int64, copy=False),
            "post_weights": post_weights,
            "doc_norms": self._doc_norms,
            "idf": self._idf,
        }
        if mmap_ready:
            for name, array in arrays.items():
                np.save(_npy_path(path, name), array)
            (path / ARRAYS_FILENAME).unlink(missing_ok=True)
        else:
            np.savez_compressed(path / ARRAYS_FILENAME, **arrays)
            for name in arrays:
                _npy_path(path, name).unlink(missing_ok=True)
        metadata = {
            "format_version": FORMAT_VERSION,
            "storage": STORAGE_NPY if mmap_ready else STORAGE_NPZ,
            "doc_ids": list(self._doc_ids),
            "terms": _encode_terms(self._terms),
            "smooth_idf": self._smooth_idf,
            "num_resources": self._num_resources,
            "external_stats": self._external_stats,
        }
        (path / METADATA_FILENAME).write_text(
            json.dumps(metadata), encoding="utf-8"
        )
        return path

    @classmethod
    def load(
        cls, directory: Union[str, Path], mmap: bool = False
    ) -> "MatrixConceptSpace":
        """Reconstruct a space from a directory written by :meth:`save`.

        ``mmap=True`` memory-maps the arrays read-only instead of loading
        them into RAM — zero-copy open: queries are scored against views of
        the mapped postings, pages are faulted in as they touch terms and
        shared, through the page cache, with every process mapping the same
        save.  It requires the ``mmap_ready`` (``npy``) save layout; asking
        for it on a compressed ``npz`` save raises (decompressing silently
        would defeat the cold-start/RSS point of asking).  The maps are
        never written: a refresh after mutations installs private arrays.
        """
        path = Path(directory)
        metadata = _read_metadata(path)
        version = metadata.get("format_version")
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"the matrix space under {path} was saved in format version "
                f"{version!r}; only version {FORMAT_VERSION} can be read — "
                "re-save from the pipeline"
            )
        storage = metadata.get("storage", STORAGE_NPZ)
        if mmap and storage != STORAGE_NPY:
            raise ConfigurationError(
                f"cannot memory-map a {storage!r}-layout save; re-save the "
                "space with mmap_ready=True to get the raw .npy layout"
            )
        try:
            if storage == STORAGE_NPY:
                arrays = {
                    # A plain-ndarray view of the map: same pages, none of
                    # the ``np.memmap`` subclass overhead per kernel slice.
                    name: np.asarray(
                        np.load(
                            _npy_path(path, name), mmap_mode="r" if mmap else None
                        )
                    )
                    for name in _ARRAY_NAMES
                }
            else:
                with np.load(path / ARRAYS_FILENAME) as archive:
                    arrays = {name: archive[name] for name in _ARRAY_NAMES}
        except FileNotFoundError:
            raise NotFittedError(f"no saved matrix space under {path}") from None
        doc_ids, terms = metadata["doc_ids"], _decode_terms(metadata["terms"])
        space = cls(
            doc_ids=doc_ids,
            terms=terms,
            counts=sp.csr_matrix(
                (
                    arrays["counts_data"],
                    arrays["counts_indices"],
                    arrays["counts_indptr"],
                ),
                shape=(len(doc_ids), len(terms)),
            ),
            smooth_idf=metadata["smooth_idf"],
            external_stats=bool(metadata.get("external_stats", False)),
        )
        space._postings = (
            arrays["post_indptr"].tolist(),
            arrays["post_rows"].astype(np.intp, copy=False),
            arrays["post_weights"],
        )
        space._doc_norms = arrays["doc_norms"]
        space._idf = arrays["idf"]
        space._num_resources = int(metadata["num_resources"])
        space._weights_stale = False
        return space

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _weight_query(
        self, bag: Mapping[Hashable, float]
    ) -> Tuple[Dict[int, float], float]:
        """Eq. 1-2 weighting of a query against the frozen vocabulary.

        Returns ``(column -> weight, out_of_vocabulary_norm_sq)``; the second
        value carries the squared weight mass of terms outside the vocabulary
        (nonzero only under idf smoothing), which must still count towards
        the query norm for parity with the dict-loop cosine.
        """
        total = float(sum(count for count in bag.values() if count > 0))
        if total <= 0.0:
            return {}, 0.0
        weights: Dict[int, float] = {}
        out_of_vocab_sq = 0.0
        for term, count in bag.items():
            if count <= 0:
                continue
            tf = float(count) / total
            column = self._term_index.get(term)
            if column is None:
                if self._smooth_idf:
                    # idf of a term no document carries, exactly as in the
                    # dict-loop weighting.
                    weight = tf * (math.log(self._num_resources + 1.0) + 1.0)
                    out_of_vocab_sq += weight * weight
                continue
            weight = tf * float(self._idf[column])
            if weight != 0.0:
                weights[column] = weight
        return weights, out_of_vocab_sq


def refresh_spaces(spaces: Sequence["MatrixConceptSpace"]) -> None:
    """Fold pending mutations into column-aligned ``spaces``, as one corpus.

    The one refresh there is — over a fresh space it is the build, over
    ``[space]`` a standalone refresh, over an engine's shards (disjoint
    rows, shared vocabulary and statistics) the coordinated one: union the
    new terms so every vocabulary gets the same extension, fold each
    space's pending count rows (documents re-sorted into ascending-id
    order), sum document frequency, drop the columns no document carries
    any more, derive one Eq. 1 idf vector and apply it everywhere — the
    statistics a from-scratch build over the union of the rows computes.

    Writer-side and unlocked: a standalone space calls it under its own
    refresh lock, an engine under its write lock.
    """
    new_terms: Dict[Hashable, None] = {}  # insertion-ordered set
    for space in spaces:
        for bag in space._pending_upsert.values():
            for term in bag:
                if term not in space._term_index:
                    new_terms.setdefault(term)
    extension = tuple(new_terms)
    vocabularies = {space.fold_pending_counts(extension) for space in spaces}
    if len(vocabularies) != 1:
        raise ConfigurationError(
            "shard vocabularies drifted out of alignment; the index "
            "is corrupt — rebuild it from the offline pipeline"
        )
    # One stored count is one (document, term) pair: rows hold no duplicates
    # and no explicit zeros.
    document_frequency = sum(
        np.bincount(space._counts.indices, minlength=len(space._terms))
        for space in spaces
    )
    alive = document_frequency > 0
    if not bool(alive.all()):
        for space in spaces:
            space.drop_columns(alive)
        document_frequency = document_frequency[alive]
    num_documents = sum(len(space._doc_ids) for space in spaces)
    if spaces[0].smooth_idf:
        idf = np.log((num_documents + 1.0) / (document_frequency + 1.0)) + 1.0
    else:
        idf = np.log(num_documents / document_frequency.astype(np.float64))
    for space in spaces:
        space.apply_statistics(idf, num_documents)


def _counts_matrix(
    doc_ids: Sequence[str],
    term_index: Mapping[Hashable, int],
    bags: Mapping[str, Mapping[Hashable, float]],
) -> sp.csr_matrix:
    """Raw count CSR rows for ``doc_ids`` over the ``term_index`` vocabulary."""
    rows: List[int] = []
    columns: List[int] = []
    values: List[float] = []
    for row, doc_id in enumerate(doc_ids):
        for term, count in bags.get(doc_id, {}).items():
            if count > 0 and term in term_index:
                rows.append(row)
                columns.append(term_index[term])
                values.append(float(count))
    # Built from triplets, the CSR comes out with column-sorted rows.
    return sp.csr_matrix(
        (values, (rows, columns)), shape=(len(doc_ids), len(term_index))
    )


def _encode_terms(terms: Sequence[Hashable]) -> Dict[str, object]:
    """JSON-encode the vocabulary, preserving int/str term types."""
    if all(isinstance(term, (int, np.integer)) for term in terms):
        return {"kind": "int", "values": [int(term) for term in terms]}
    if all(isinstance(term, str) for term in terms):
        return {"kind": "str", "values": list(terms)}
    raise ConfigurationError(
        "only pure int (concept ids) or pure str (tag) vocabularies "
        "can be persisted"
    )


def _decode_terms(encoded: Mapping[str, object]) -> List[Hashable]:
    kind = encoded.get("kind")
    values = encoded.get("values")
    if kind == "int":
        return [int(value) for value in values]  # type: ignore[union-attr]
    if kind == "str":
        return [str(value) for value in values]  # type: ignore[union-attr]
    raise ConfigurationError(f"unknown vocabulary encoding {kind!r}")
