"""The concept vector space the online component serves from.

:class:`MatrixConceptSpace` holds the paper's Section III model — Eq. 2 term
frequencies, Eq. 1 idf weights, Eq. 4 cosine ranking — as CSR arrays
(``indptr`` / ``indices`` / ``data`` over a fixed concept vocabulary plus
precomputed document norms).  Queries are scored against a term-major
(postings) view of the same weights: a query touches only the resources
that share a concept with it, a few vectorized slices per query followed by
:func:`numpy.argpartition` top-k selection, which is what makes the paper's
"online querying is just cheap dot products" claim (Table VI) hold at scale.

It is built from raw ``resource -> {term -> count}`` bags
(:meth:`MatrixConceptSpace.from_bags`); the initial build and the refresh
after a mutation derive idf, weights and norms through the same
:meth:`MatrixConceptSpace.apply_statistics` pass.

The space is also the unit of persistence: :meth:`save` writes the
arrays (a compressed ``.npz`` archive, or raw per-array ``.npy`` files when
``mmap_ready=True`` so :meth:`load` can memory-map them) and the
vocabulary/metadata to JSON, so that offline indexing and online serving —
including the process-per-shard pool's one-worker-per-shard loads — can
run in separate processes.

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
#: in the rows it actually scores.
STORAGE_NPZ = "npz"
STORAGE_NPY = "npy"

#: Names of the arrays persisted by :meth:`MatrixConceptSpace.save`
#: (``counts_*`` only when the space is mutable).
_ARRAY_NAMES = (
    "indptr",
    "indices",
    "data",
    "doc_norms",
    "idf",
    "counts_indptr",
    "counts_indices",
    "counts_data",
)


def _npy_path(directory: Path, name: str) -> Path:
    """Per-array file of the ``npy`` storage layout."""
    return directory / f"matrix_space.{name}.npy"


def saved_storage(directory: Union[str, Path]) -> str:
    """The array-storage layout of a save directory (``npz`` or ``npy``).

    Lets a coordinator decide *before* spawning workers whether a shard
    layout supports memory-mapping (pre-``npy`` saves do not).
    """
    path = Path(directory)
    metadata_path = path / METADATA_FILENAME
    if not metadata_path.exists():
        raise NotFittedError(f"no saved matrix space under {path}")
    metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    return str(metadata.get("storage", STORAGE_NPZ))

#: Bumped whenever the on-disk layout changes incompatibly.  Version 2 added
#: the raw concept-count arrays that make loaded spaces mutable (fold-in).
FORMAT_VERSION = 2


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


def idf_from_document_frequency(
    document_frequency: np.ndarray, num_documents: int, smooth_idf: bool
) -> np.ndarray:
    """Vectorized Eq. 1 idf over a document-frequency vector.

    Shared by the space-local refresh and the engine's coordinated one,
    which feeds *global* (cross-shard) document frequencies through the
    exact same formula so every shard weighs terms identically.
    """
    if smooth_idf:
        return np.log((num_documents + 1.0) / (document_frequency + 1.0)) + 1.0
    return np.log(num_documents / document_frequency.astype(np.float64))


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
    """CSR-compiled tf-idf concept space with batched top-k ranking.

    Instances are produced by :meth:`from_bags` (from raw count bags) or
    :meth:`load` (from a directory written by :meth:`save`); the
    constructor takes the already-validated internal arrays.
    """

    def __init__(
        self,
        doc_ids: Sequence[str],
        terms: Sequence[Hashable],
        matrix: sp.csr_matrix,
        doc_norms: np.ndarray,
        idf: np.ndarray,
        smooth_idf: bool,
        num_resources: int,
        counts: Optional[sp.csr_matrix] = None,
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
        self._matrix = matrix
        # Term-major view of ``_matrix`` that queries are scored against;
        # derived on the first read after the weights change.
        self._postings: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._doc_norms = np.asarray(doc_norms, dtype=np.float64)
        self._idf = np.asarray(idf, dtype=np.float64)
        self._smooth_idf = bool(smooth_idf)
        self._num_resources = int(num_resources)
        if matrix.shape != (len(self._doc_ids), len(self._terms)):
            raise ConfigurationError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(self._doc_ids)} documents x {len(self._terms)} terms"
            )
        # Raw concept counts (same layout as the weight matrix).  They are
        # what makes the space *mutable*: tf-idf weights can always be
        # re-derived after documents fold in or out, including entries whose
        # weight was zero (idf 0) at build time and resurrects later.
        self._counts = counts
        if counts is not None and counts.shape != matrix.shape:
            raise ConfigurationError(
                f"counts shape {counts.shape} does not match weight matrix "
                f"shape {matrix.shape}"
            )
        self._pending_upsert: Dict[str, Dict[Hashable, float]] = {}
        self._pending_remove: set = set()
        self._weights_stale = False
        # Shards of a sharded index carry *global* statistics (idf over the
        # whole corpus, corpus-wide num_resources) that only their
        # coordinator may recompute; a shard-local refresh would silently
        # reweigh the shard against its own rows.
        self._external_stats = bool(external_stats)
        self._refresh_lock = threading.Lock()
        self._set_unknown_idf()

    def _set_unknown_idf(self) -> None:
        # idf of a term never seen in the corpus (affects the query norm
        # under smoothing, exactly as in the dict-loop weighting).
        if self._smooth_idf:
            self._unknown_idf = math.log(float(self._num_resources + 1)) + 1.0
        else:
            self._unknown_idf = 0.0

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
        dropped.  idf, weights and norms come from
        :meth:`_derive_local_statistics` — the pass a post-mutation
        :meth:`refresh` runs — so a build and a refresh over the same corpus
        produce the same arrays.
        """
        if not resource_bags:
            raise ConfigurationError("cannot build a concept space on zero resources")
        doc_ids = sorted(resource_bags)
        term_index: Dict[Hashable, int] = {}
        for doc_id in doc_ids:
            for term, count in resource_bags[doc_id].items():
                if count > 0 and term not in term_index:
                    term_index[term] = len(term_index)
        counts = _counts_matrix(doc_ids, term_index, resource_bags)
        space = cls(
            doc_ids=doc_ids,
            terms=tuple(term_index),
            matrix=sp.csr_matrix(counts.shape, dtype=np.float64),
            doc_norms=np.zeros(len(doc_ids)),
            idf=np.zeros(len(term_index)),
            smooth_idf=smooth_idf,
            num_resources=len(doc_ids),
            counts=counts,
        )
        space._derive_local_statistics()
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
        return int(self._matrix.nnz)

    def idf(self, term: Hashable) -> float:
        self.refresh()
        column = self._term_index.get(term)
        return float(self._idf[column]) if column is not None else 0.0

    def document_norm(self, doc_id: str) -> float:
        self.refresh()
        row = self._doc_index.get(doc_id)
        return float(self._doc_norms[row]) if row is not None else 0.0

    def document_weights(self, doc_id: str) -> Dict[Hashable, float]:
        """A document's stored ``term -> weight`` row (empty if unknown)."""
        self.refresh()
        row = self._doc_index.get(doc_id)
        if row is None:
            return {}
        start, end = self._matrix.indptr[row], self._matrix.indptr[row + 1]
        return {
            self._terms[column]: weight
            for column, weight in zip(
                self._matrix.indices[start:end].tolist(),
                self._matrix.data[start:end].tolist(),
            )
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
    def is_mutable(self) -> bool:
        """Whether the space carries the raw counts that allow mutation."""
        return self._counts is not None

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
    def pending_mutations(self) -> int:
        """Number of documents awaiting the next refresh."""
        return len(self._pending_upsert) + len(self._pending_remove)

    @property
    def pending_num_documents(self) -> int:
        """Document count once pending mutations land, *without* refreshing."""
        appended = sum(
            1 for doc_id in self._pending_upsert if doc_id not in self._doc_index
        )
        return len(self._doc_ids) - len(self._pending_remove) + appended

    def _require_mutable(self) -> None:
        if self._counts is None:
            raise ConfigurationError(
                "this space carries no raw concept counts and cannot be "
                "mutated; rebuild it with from_bags or load a format >= 2 save"
            )

    def has_document(self, doc_id: str) -> bool:
        """Whether ``doc_id`` is indexed (pending mutations included)."""
        if doc_id in self._pending_upsert:
            return True
        return doc_id in self._doc_index and doc_id not in self._pending_remove

    def add_documents(
        self, bags: Mapping[str, Mapping[Hashable, float]]
    ) -> None:
        """Append new documents; idf, weights and norms refresh lazily.

        The rows are buffered and folded into the CSR arrays on the next
        read (query, introspection or save), so a burst of additions pays
        for one vectorized recompute instead of one per call.
        """
        self._require_mutable()
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
        self._require_mutable()
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
        self._require_mutable()
        if not self.has_document(doc_id):
            raise ConfigurationError(f"document {doc_id!r} is not indexed")
        self._pending_upsert[doc_id] = {
            term: float(c) for term, c in bag.items() if c > 0
        }

    def refresh(self) -> bool:
        """Fold pending mutations into the CSR arrays; True if work was done.

        Appends/drops count rows, re-sorts documents into ascending-id order
        (the ranking tie-break), prunes vocabulary columns whose document
        frequency dropped to zero, and re-derives idf, tf-idf weights and
        document norms in one vectorized pass over the counts — exactly the
        arrays a from-scratch build over the mutated corpus would produce.

        Spaces with :attr:`has_external_stats` (shards of a sharded index)
        refuse a local refresh while stale: their idf and ``num_resources``
        are corpus-wide figures that only the owning coordinator can
        recompute (via the ``fold_pending_counts`` → ``apply_statistics``
        protocol below).

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
            return self._refresh_locked()

    def _refresh_locked(self) -> bool:
        if not self.is_stale:  # another thread refreshed while we waited
            return False
        self.fold_pending_counts()
        self._derive_local_statistics()
        return True

    def _derive_local_statistics(self) -> None:
        """idf, weights and norms from this space's own count rows."""
        document_frequency = self.column_document_frequency()
        alive = document_frequency > 0
        if not bool(alive.all()):
            self.drop_columns(alive)
            document_frequency = document_frequency[alive]
        num_docs = len(self._doc_ids)
        self.apply_statistics(
            idf_from_document_frequency(
                document_frequency, num_docs, self._smooth_idf
            ),
            num_docs,
        )

    # ------------------------------------------------------------------ #
    # Coordinator protocol (sharded refresh)
    #
    # A sharded index holds N of these spaces, each over a disjoint row
    # subset but a *shared, column-aligned* vocabulary and shared global
    # statistics.  After mutations, the owning SearchEngine drives
    # the refresh across all shards:
    #
    #   1. union every shard's ``pending_new_terms()``,
    #   2. ``fold_pending_counts(union)`` on each shard (vocabularies stay
    #      aligned because all get the same extension),
    #   3. sum ``column_document_frequency()`` across shards,
    #   4. ``drop_columns`` of globally dead terms on each shard,
    #   5. ``apply_statistics(global_idf, global_num_docs)`` on each shard.
    #
    # These steps are writer-side and unlocked — the local refresh calls
    # them under its own lock, the coordinator under the engine's.
    # ------------------------------------------------------------------ #
    def pending_new_terms(self) -> List[Hashable]:
        """Terms of pending bags missing from the vocabulary (stable order)."""
        seen: Dict[Hashable, None] = {}
        for bag in self._pending_upsert.values():
            for term in bag:
                if term not in self._term_index and term not in seen:
                    seen[term] = None
        return list(seen)

    def fold_pending_counts(
        self, extra_terms: Sequence[Hashable] = ()
    ) -> Tuple[Hashable, ...]:
        """Fold pending mutations into the count rows; weights stay stale.

        Extends the vocabulary with ``extra_terms`` (plus any new terms of
        this space's own pending bags), appends/drops count rows and
        re-sorts documents into ascending-id order.  Returns the resulting
        vocabulary so a coordinator can assert cross-shard alignment.
        tf-idf weights, norms and idf are *not* recomputed — callers must
        follow up with :meth:`apply_statistics` (the local refresh does).
        """
        self._require_mutable()
        assert self._counts is not None
        terms: List[Hashable] = list(self._terms)
        term_index: Dict[Hashable, int] = dict(self._term_index)
        for term in list(extra_terms) + self.pending_new_terms():
            if term not in term_index:
                term_index[term] = len(terms)
                terms.append(term)

        if not self._pending_upsert and not self._pending_remove:
            if len(terms) != len(self._terms):
                counts = self._counts.copy()
                counts.resize((counts.shape[0], len(terms)))
                self._counts = counts
                self._terms = tuple(terms)
                self._term_index = term_index
                self._weights_stale = True
            return self._terms

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
        self._terms = tuple(terms)
        self._term_index = term_index
        self._counts = counts
        self._pending_upsert = {}
        self._pending_remove = set()
        self._weights_stale = True
        return self._terms

    def column_document_frequency(self) -> np.ndarray:
        """Documents-per-term over the folded count rows (no refresh)."""
        assert self._counts is not None
        return np.diff(self._counts.tocsc().indptr)

    def drop_columns(self, alive: np.ndarray) -> None:
        """Restrict counts and vocabulary to the ``alive`` column mask."""
        assert self._counts is not None
        if bool(alive.all()):
            return
        self._counts = self._counts[:, np.flatnonzero(alive)].tocsr()
        self._terms = tuple(
            term for term, keep in zip(self._terms, alive) if keep
        )
        self._term_index = {
            term: column for column, term in enumerate(self._terms)
        }
        self._weights_stale = True

    def apply_statistics(self, idf: np.ndarray, num_resources: int) -> None:
        """Re-derive weights and norms from the counts and a given idf.

        ``idf``/``num_resources`` are local figures for a standalone space
        and corpus-wide figures for a shard; either way the weights become
        exactly what a from-scratch build with those statistics produces.
        """
        assert self._counts is not None
        idf = np.asarray(idf, dtype=np.float64)
        if idf.shape != (len(self._terms),):
            raise ConfigurationError(
                f"idf vector of length {idf.shape} does not match the "
                f"{len(self._terms)}-term vocabulary"
            )
        counts = self._counts
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        safe_sums = np.where(row_sums > 0.0, row_sums, 1.0)
        tf_data = counts.data / np.repeat(safe_sums, np.diff(counts.indptr))
        weights = sp.csr_matrix(
            (
                tf_data * idf[counts.indices],
                counts.indices.copy(),
                counts.indptr.copy(),
            ),
            shape=counts.shape,
        )
        weights.eliminate_zeros()
        self._matrix = weights
        self._postings = None
        self._doc_norms = np.sqrt(
            np.asarray(weights.power(2).sum(axis=1)).ravel()
        )
        self._idf = idf
        self._num_resources = int(num_resources)
        self._set_unknown_idf()
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
        return MatrixConceptSpace(
            doc_ids=ordered,
            terms=self._terms,
            matrix=self._matrix[rows].tocsr(),
            doc_norms=self._doc_norms[rows],
            idf=self._idf.copy(),
            smooth_idf=self._smooth_idf,
            num_resources=self._num_resources,
            counts=self._counts[rows].tocsr() if self._counts is not None else None,
            external_stats=True,
        )

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
        postings = self._postings
        if postings is None:
            # One (row ids, weights) pair of views per term.  Row ids ascend
            # within a term; as intp they index without a per-slice cast.
            # Racing readers derive equal copies, and the list lands in one
            # assignment.
            columns = self._matrix.tocsc()
            rows = columns.indices.astype(np.intp)
            bounds = columns.indptr.tolist()
            postings = self._postings = [
                (rows[start:end], columns.data[start:end])
                for start, end in zip(bounds, bounds[1:])
            ]
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
                candidates, stored = postings[column]
                scores = stored * weight
            else:
                if dots is None or touched is None:
                    dots = np.zeros(num_rows, dtype=np.float64)
                    touched = np.zeros(num_rows, dtype=bool)
                for column, weight in weights.items():
                    norm_sq += weight * weight
                    posted, stored = postings[column]
                    dots[posted] += stored * weight
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
        weights, out_of_vocab_sq = self._weight_query(query_bag)
        if not weights and out_of_vocab_sq == 0.0:
            return 0.0
        norm_sq = out_of_vocab_sq + sum(w * w for w in weights.values())
        query_norm = math.sqrt(norm_sq)
        doc_norm = self._doc_norms[row]
        if query_norm == 0.0 or doc_norm == 0.0:
            return 0.0
        start, end = self._matrix.indptr[row], self._matrix.indptr[row + 1]
        dot = 0.0
        for column, value in zip(
            self._matrix.indices[start:end], self._matrix.data[start:end]
        ):
            weight = weights.get(int(column))
            if weight is not None:
                dot += weight * float(value)
        return dot / (query_norm * doc_norm)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(
        self, directory: Union[str, Path], mmap_ready: bool = False
    ) -> Path:
        """Write the arrays and metadata (JSON) to ``directory``.

        With the default ``mmap_ready=False`` the arrays land in one
        compressed ``.npz`` archive (smallest on disk).  With
        ``mmap_ready=True`` each array is written as a raw ``.npy`` file
        instead, so :meth:`load` can memory-map them (``mmap=True``):
        opening the space is then near-instant regardless of corpus size
        and the OS pages rows in on demand — the layout the
        process-per-shard serving pool
        (:mod:`repro.search.shardpool`) expects.  A re-save removes the
        other layout's files so a directory never carries both.
        """
        self.refresh()
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        arrays = {
            "indptr": self._matrix.indptr.astype(np.int64),
            "indices": self._matrix.indices.astype(np.int64),
            "data": self._matrix.data.astype(np.float64),
            "doc_norms": self._doc_norms,
            "idf": self._idf,
        }
        if self._counts is not None:
            arrays["counts_indptr"] = self._counts.indptr.astype(np.int64)
            arrays["counts_indices"] = self._counts.indices.astype(np.int64)
            arrays["counts_data"] = self._counts.data.astype(np.float64)
        if mmap_ready:
            for name, array in arrays.items():
                np.save(_npy_path(path, name), array)
            # A previous npz-layout save (or a formerly-mutable space's
            # counts files) must not shadow the fresh arrays.
            (path / ARRAYS_FILENAME).unlink(missing_ok=True)
            for name in _ARRAY_NAMES:
                if name not in arrays:
                    _npy_path(path, name).unlink(missing_ok=True)
        else:
            np.savez_compressed(path / ARRAYS_FILENAME, **arrays)
            for name in _ARRAY_NAMES:
                _npy_path(path, name).unlink(missing_ok=True)
        metadata = {
            "format_version": FORMAT_VERSION,
            "storage": STORAGE_NPY if mmap_ready else STORAGE_NPZ,
            "doc_ids": list(self._doc_ids),
            "terms": _encode_terms(self._terms),
            "smooth_idf": self._smooth_idf,
            "num_resources": self._num_resources,
            "shape": [len(self._doc_ids), len(self._terms)],
            "mutable": self._counts is not None,
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
        them into RAM — zero-copy open, pages faulted in as queries touch
        rows.  It requires the ``mmap_ready`` (``npy``) save layout;
        asking for it on a compressed ``npz`` save raises (decompressing
        silently would defeat the cold-start/RSS point of asking).
        Memory-mapped spaces are for read-only serving: the arrays are
        opened immutably, so route mutations to a coordinator that owns a
        writable copy.
        """
        path = Path(directory)
        metadata_path = path / METADATA_FILENAME
        if not metadata_path.exists():
            raise NotFittedError(f"no saved matrix space under {path}")
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        version = metadata.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise ConfigurationError(
                f"unsupported matrix-space format version {version!r}"
            )
        storage = metadata.get("storage", STORAGE_NPZ)
        if mmap and storage != STORAGE_NPY:
            raise ConfigurationError(
                f"cannot memory-map a {storage!r}-layout save; re-save the "
                "space with mmap_ready=True to get the raw .npy layout"
            )
        shape = tuple(metadata["shape"])
        counts = None
        if storage == STORAGE_NPY:
            mode = "r" if mmap else None

            def read(name: str) -> np.ndarray:
                return np.load(_npy_path(path, name), mmap_mode=mode)

            if not _npy_path(path, "data").exists():
                raise NotFittedError(f"no saved matrix space under {path}")
            matrix = sp.csr_matrix(
                (read("data"), read("indices"), read("indptr")), shape=shape
            )
            doc_norms = read("doc_norms")
            idf = read("idf")
            if _npy_path(path, "counts_data").exists():
                counts = sp.csr_matrix(
                    (
                        read("counts_data"),
                        read("counts_indices"),
                        read("counts_indptr"),
                    ),
                    shape=shape,
                )
        else:
            arrays_path = path / ARRAYS_FILENAME
            if not arrays_path.exists():
                raise NotFittedError(f"no saved matrix space under {path}")
            with np.load(arrays_path) as arrays:
                matrix = sp.csr_matrix(
                    (arrays["data"], arrays["indices"], arrays["indptr"]),
                    shape=shape,
                )
                doc_norms = arrays["doc_norms"]
                idf = arrays["idf"]
                if "counts_data" in arrays:
                    counts = sp.csr_matrix(
                        (
                            arrays["counts_data"],
                            arrays["counts_indices"],
                            arrays["counts_indptr"],
                        ),
                        shape=shape,
                    )
        return cls(
            doc_ids=metadata["doc_ids"],
            terms=_decode_terms(metadata["terms"]),
            matrix=matrix,
            doc_norms=doc_norms,
            idf=idf,
            smooth_idf=metadata["smooth_idf"],
            num_resources=metadata["num_resources"],
            counts=counts,
            external_stats=bool(metadata.get("external_stats", False)),
        )

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
                weight = tf * self._unknown_idf
                out_of_vocab_sq += weight * weight
                continue
            weight = tf * float(self._idf[column])
            if weight != 0.0:
                weights[column] = weight
        return weights, out_of_vocab_sq


def _counts_matrix(
    doc_ids: Sequence[str],
    term_index: Mapping[Hashable, int],
    bags: Mapping[str, Mapping[Hashable, float]],
) -> sp.csr_matrix:
    """Raw count CSR rows for ``doc_ids`` over the ``term_index`` vocabulary."""
    indptr = np.zeros(len(doc_ids) + 1, dtype=np.int64)
    columns: List[int] = []
    values: List[float] = []
    for row, doc_id in enumerate(doc_ids):
        entries = sorted(
            (term_index[term], float(count))
            for term, count in bags.get(doc_id, {}).items()
            if count > 0 and term in term_index
        )
        indptr[row + 1] = indptr[row] + len(entries)
        columns.extend(column for column, _ in entries)
        values.extend(count for _, count in entries)
    return sp.csr_matrix(
        (
            np.asarray(values, dtype=np.float64),
            np.asarray(columns, dtype=np.int64),
            indptr,
        ),
        shape=(len(doc_ids), len(term_index)),
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
