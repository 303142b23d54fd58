"""The concept vector space the online component serves from.

:class:`MatrixConceptSpace` holds the paper's Section III model — Eq. 2 term
frequencies, Eq. 1 idf weights, Eq. 4 cosine ranking — as term-major
postings: per concept, the stable row slots of the documents carrying it and
their plain term frequencies, plus precomputed document norms.  A query
touches only the resources that share a concept with it, a few vectorized
slices per query followed by :func:`numpy.argpartition` top-k selection,
which is what makes the paper's "online querying is just cheap dot
products" claim (Table VI) hold at scale.

idf is applied at query time — one multiply per query term — so a change in
corpus size, which moves every term's idf, rewrites no posting.
:meth:`MatrixConceptSpace.refresh` folds mutations in at the cost of what
they touch: the postings of the terms a written or dropped document
carries, document frequency as a maintained vector, and one vectorized norm
pass.  A build is that same fold of every document into an empty space,
entered with a count table's arrays (:meth:`from_counts`) or with dict bags
(:meth:`from_bags`, the refresh's own front).

The space is also the unit of persistence: :meth:`save` writes the
postings as one raw ``.npy`` file per array (so :meth:`load` can
memory-map them and rank straight off the mapped postings) and the
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
from bisect import bisect_left, insort
from pathlib import Path
from typing import (
    Collection,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.search.vsm import ConceptVectorSpace, RankedResult
from repro.utils.errors import ConfigurationError, NotFittedError

#: The JSON file of a save directory; each array sits next to it as
#: ``matrix_space.<name>.npy``.
METADATA_FILENAME = "matrix_space.json"

#: Names of the arrays persisted by :meth:`MatrixConceptSpace.save`: the
#: postings (a CSC of term frequencies, ``post_weights``), norms and idf.
_ARRAY_NAMES = (
    "post_indptr",
    "post_rows",
    "post_weights",
    "doc_norms",
    "idf",
)

#: Bumped whenever the on-disk layout changes incompatibly.  Version 5
#: always writes raw ``.npy`` arrays; version 4 could also write one
#: compressed ``matrix_space.npz``, and version 3 stored tf-idf weights
#: instead of plain term frequencies.  Every older version is refused on
#: load.
FORMAT_VERSION = 5

_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_TF = np.empty(0, dtype=np.float64)


def _npy_path(directory: Path, name: str) -> Path:
    """The file one persisted array is saved to."""
    return directory / f"matrix_space.{name}.npy"


def validate_top_k(top_k: Optional[int]) -> None:
    """Reject a non-positive ``top_k`` before any scoring work happens."""
    if top_k is not None and top_k < 1:
        raise ConfigurationError(f"top_k must be >= 1 when given, got {top_k}")


def first_seen(values: np.ndarray, size: int) -> np.ndarray:
    """The distinct of ``values`` (ints in ``[0, size)``), first-appearance order."""
    # np.unique(values, return_index=True) sorts: ~10x slower at 2e5 entries.
    first = np.full(size, values.size, dtype=np.intp)
    np.minimum.at(first, values, np.arange(values.size))
    return np.argsort(first, kind="stable")[: np.count_nonzero(first < values.size)]


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
    positions: np.ndarray,
    scores: np.ndarray,
    top_k: Optional[int],
    rank: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact top-k selection with deterministic tie-breaking.

    Given candidate row ``positions`` (whose order encodes the tie-break:
    lower position wins — or, when ``rank`` is given, lower
    ``rank[position]`` wins) and their ``scores``, return the indices into
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
    tie = kept_positions[candidate]
    if rank is not None:
        tie = rank[tie]
    order = np.lexsort((tie, -kept_scores[candidate]))
    selected = candidate[order]
    if top_k is not None:
        selected = selected[:top_k]
    return selected if keep is None else keep[selected]


class MatrixConceptSpace:
    """tf-idf concept space: term-major tf postings over stable row slots.

    Instances are produced by :meth:`from_counts` (from a count table),
    :meth:`from_bags` (from raw count bags), :meth:`merge` (of row shards),
    :meth:`slice_rows` / :meth:`partition` (row shards) or :meth:`load`
    (from a directory written by :meth:`save`).  The constructor takes the
    saved arrays with slot ``i`` holding the ``i``-th id; later additions
    take new slots, so a per-slot rank carries the ranking tie-break.
    """

    _post_rows: List[np.ndarray]  #: per term: the slots carrying it, ascending
    _post_tf: List[np.ndarray]  #: per term: those slots' tf
    _doc_norms: np.ndarray  #: per slot; 0 for a freed slot
    _idf: np.ndarray  #: corpus-wide Eq. 1 idf per column
    _alive: np.ndarray  #: per column: does any document of the corpus carry it
    _num_resources: int  #: corpus-wide document count behind the idf

    def __init__(
        self,
        doc_ids: Sequence[str],
        terms: Sequence[Hashable],
        arrays: Mapping[str, np.ndarray],
        num_resources: int = 0,
        external_stats: bool = False,
    ) -> None:
        # Slot bookkeeping: a removed document leaves a freed slot (None)
        # behind; slots are only renumbered by a save or a slice.
        self._slot_ids: List[Optional[str]] = list(doc_ids)
        self._doc_index: Dict[str, int] = {
            doc_id: slot for slot, doc_id in enumerate(self._slot_ids)
        }
        self._sorted_ids: List[str] = list(doc_ids)
        self._rank = np.arange(len(self._slot_ids), dtype=np.intp)
        self._terms: Tuple[Hashable, ...] = tuple(terms)
        self._term_index: Dict[Hashable, int] = {
            term: column for column, term in enumerate(self._terms)
        }
        bounds, idf = arrays["post_indptr"], arrays["idf"]
        num_terms, num_slots = len(self._terms), len(self._slot_ids)
        expected = (num_terms + 1, num_terms, num_slots)
        if (bounds.size, idf.size, arrays["doc_norms"].size) != expected:
            raise ConfigurationError(
                f"arrays do not match {num_slots} documents x {num_terms} terms"
            )
        #: Every term's postings packed as one CSC ``(bounds, rows, tf)``,
        #: re-packed by each refresh: what a save writes and where a
        #: document's terms are found.  The kernel reads per-term views of
        #: it, which a refresh replaces only for the terms it splices.
        rows = arrays["post_rows"].astype(np.intp, copy=False)
        tf = arrays["post_weights"]
        self._postings = (bounds, rows, tf)
        edges = list(zip(bounds.tolist(), bounds.tolist()[1:]))
        self._post_rows = [rows[a:b] for a, b in edges]
        self._post_tf = [tf[a:b] for a, b in edges]
        self._df = np.diff(bounds)  #: documents per column
        self._alive = np.ones(len(self._terms), dtype=bool)
        self._idf, self._doc_norms = idf, arrays["doc_norms"]
        self._num_resources = int(num_resources)
        self._pending_upsert: Dict[str, Dict[Hashable, float]] = {}
        self._pending_remove: set = set()
        # Shards of a partitioned save carry *global* statistics (idf over
        # the whole corpus, corpus-wide num_resources); a shard-local
        # refresh would silently reweigh the shard against its own rows.
        self._external_stats = bool(external_stats)
        self._refresh_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bags(
        cls,
        resource_bags: Mapping[str, Mapping[Hashable, float]],
    ) -> "MatrixConceptSpace":
        """Build the space from ``resource -> {term -> occurrence count}``.

        The dict front of the fold :meth:`from_counts` runs on arrays: every
        document is added, in ascending resource-id order, to an empty space
        that :meth:`refresh` then folds — the pass a post-mutation refresh
        runs — so a build and a refresh over the same corpus produce the
        same arrays.  Non-positive counts are dropped.
        """
        if not resource_bags:
            raise ConfigurationError("cannot build a concept space on zero resources")
        space = cls._empty()
        space.add_documents({d: resource_bags[d] for d in sorted(resource_bags)})
        space.refresh()
        return space

    @classmethod
    def from_counts(
        cls,
        doc_ids: Sequence[str],
        rows: np.ndarray,
        vocabulary: Sequence[Hashable],
        terms: np.ndarray,
        counts: np.ndarray,
    ) -> "MatrixConceptSpace":
        """Build the space from a count table, with no dict per document.

        Entry ``i`` says document ``doc_ids[rows[i]]`` carries term
        ``vocabulary[terms[i]]`` ``counts[i]`` times; entries repeating a
        (row, term) pair add up and non-positive sums are dropped.  With
        ``doc_ids`` ascending and the entries grouped by ascending row, the
        result is the space :meth:`from_bags` builds over the same bags
        (term columns numbered by first appearance in entry order, Eq. 2 tf
        as count over the row's total): the same fold of every document
        into an empty space, entered with arrays.  A document without
        entries gets a slot and norm 0.
        """
        if not len(doc_ids):
            raise ConfigurationError("cannot build a concept space on zero resources")
        key = rows.astype(np.int64) * max(len(vocabulary), 1) + terms
        by_key = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[by_key], prepend=-1))
        sums = np.zeros_like(counts)  # each pair's sum, on its first entry
        if starts.size:
            sums[by_key[starts]] = np.add.reduceat(counts[by_key], starts)
        kept = np.flatnonzero(sums > 0)
        rows, terms, sums = rows[kept], terms[kept], sums[kept]
        seen = first_seen(terms, len(vocabulary))
        space = cls._empty()
        space._add_terms([vocabulary[term] for term in seen.tolist()])
        column_of = np.zeros(len(vocabulary), dtype=np.intp)
        column_of[seen] = np.arange(seen.size)  # the space was empty
        space._fold(list(doc_ids), (), rows, column_of[terms], sums)
        space._apply_statistics()
        return space

    @classmethod
    def merge(cls, shards: Sequence["MatrixConceptSpace"]) -> "MatrixConceptSpace":
        """One space over the documents of ``shards``, with local statistics.

        ``shards`` are the spaces of one partitioned save (see
        :meth:`partition`): they share one vocabulary, column for column,
        and have no freed slots.  Their tf rows go through
        :meth:`from_counts`, tf where counts go, in ascending id order and
        ascending column order within a document, so they merge into one
        space that ranks like the space they were cut from (to 1e-9).
        """
        doc_ids = sorted(d for shard in shards for d in shard.doc_ids)
        position = {doc_id: row for row, doc_id in enumerate(doc_ids)}
        rows, terms, tf = [], [], []
        for shard in shards:
            bounds, slots, values = shard._postings
            row_of = np.array([position[d] for d in shard._slot_ids], np.intp)
            rows.append(row_of[slots])
            terms.append(np.repeat(np.arange(len(shard.terms)), np.diff(bounds)))
            tf.append(values)
        rows, terms, tf = (np.concatenate(parts) for parts in (rows, terms, tf))
        order = np.lexsort((terms, rows))
        return cls.from_counts(
            doc_ids, rows[order], shards[0].terms, terms[order], tf[order]
        )

    @classmethod
    def _empty(cls) -> "MatrixConceptSpace":
        """A space of no documents and no terms: what every build folds into."""
        empty = {name: np.zeros(0) for name in _ARRAY_NAMES}
        empty["post_indptr"] = np.zeros(1, dtype=np.intp)
        return cls(doc_ids=(), terms=(), arrays=empty)

    @classmethod
    def compile(cls, space: ConceptVectorSpace) -> "MatrixConceptSpace":
        """:meth:`from_bags` over a fitted dict-loop reference space's bags."""
        return cls.from_bags(space.resource_bags())

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
        return len(self._doc_index)

    @property
    def vocabulary_size(self) -> int:
        """Terms some document of the corpus carries."""
        self.refresh()
        return int(self._alive.sum())

    @property
    def doc_ids(self) -> Tuple[str, ...]:
        """The indexed resource ids, ascending."""
        self.refresh()
        return tuple(self._sorted_ids)

    @property
    def terms(self) -> Tuple[Hashable, ...]:
        """Terms some document of the corpus carries, in column order."""
        self.refresh()
        return tuple(
            term for term, alive in zip(self._terms, self._alive.tolist()) if alive
        )

    @property
    def nnz(self) -> int:
        """Non-zero weights (tf x non-zero idf) — the Table VII memory figure."""
        self.refresh()
        return int(self._df[self._idf != 0.0].sum())

    def idf(self, term: Hashable) -> float:
        self.refresh()
        column = self._term_index.get(term)
        if column is None or not self._alive[column]:
            return 0.0
        return float(self._idf[column])

    def document_norm(self, doc_id: str) -> float:
        self.refresh()
        slot = self._doc_index.get(doc_id)
        return float(self._doc_norms[slot]) if slot is not None else 0.0

    def document_weights(self, doc_id: str) -> Dict[Hashable, float]:
        """A document's non-zero ``term -> weight`` row (empty if unknown).

        Read off the postings: tf (Eq. 2) times the current idf.
        """
        self.refresh()
        slot = self._doc_index.get(doc_id)
        if slot is None:
            return {}
        at, columns = self._entries_of([slot])
        weights = self._postings[2][at] * self._idf[columns]
        return {
            self._terms[column]: weight
            for column, weight in zip(columns.tolist(), weights.tolist())
            if weight != 0.0
        }

    def query_weights(
        self, query_bag: Mapping[Hashable, float]
    ) -> Dict[Hashable, float]:
        """A query bag's ``term -> weight`` vector over the vocabulary.

        Out-of-vocabulary terms are left out: their idf is 0.
        """
        self.refresh()
        weights = self._weight_query(query_bag)
        return {
            self._terms[column]: weight
            for column, weight in weights.items()
            if self._alive[column]
        }
    # ------------------------------------------------------------------ #
    # Incremental updates (fold-in without rebuilding from the bags)
    # ------------------------------------------------------------------ #
    @property
    def is_stale(self) -> bool:
        """Whether mutations are pending the lazy fold and statistics pass."""
        return bool(self._pending_upsert or self._pending_remove)

    @property
    def has_external_stats(self) -> bool:
        """Whether idf/num_resources are corpus-wide figures of a partition."""
        return self._external_stats

    @property
    def pending_num_documents(self) -> int:
        """Document count once pending mutations land, *without* refreshing."""
        appended = sum(
            1 for doc_id in self._pending_upsert if doc_id not in self._doc_index
        )
        return len(self._doc_index) - len(self._pending_remove) + appended

    def has_document(self, doc_id: str) -> bool:
        """Whether ``doc_id`` is indexed (pending mutations included)."""
        if doc_id in self._pending_upsert:
            return True
        return doc_id in self._doc_index and doc_id not in self._pending_remove

    def add_documents(
        self, bags: Mapping[str, Mapping[Hashable, float]]
    ) -> None:
        """Append new documents; idf, weights and norms refresh lazily.

        The rows are buffered and folded in on the next read (query,
        introspection or save), so a burst of additions pays for one
        vectorized fold instead of one per call.
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

    def remove_documents(self, doc_ids: Sequence[str]) -> None:
        """Drop documents (lazily applied, like :meth:`add_documents`)."""
        doc_ids = list(doc_ids)
        for doc_id in doc_ids:
            if not self.has_document(doc_id):
                raise ConfigurationError(f"document {doc_id!r} is not indexed")
        if self.pending_num_documents - len(set(doc_ids)) < 1:
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
        """Fold pending mutations in; True if work was done.

        The one refresh there is: fold each pending row (splicing only the
        postings of the terms it touches), derive the Eq. 1 idf vector from
        the maintained document frequencies and redo the norms — after
        which the space ranks like a from-scratch build over the mutated
        corpus (to 1e-9).  A term no document carries any more keeps its
        (empty) column.

        Spaces with :attr:`has_external_stats` (shards of a partitioned
        save) refuse a local refresh while stale: their idf and
        ``num_resources`` are corpus-wide figures no shard can recompute.

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
                "this space is a shard carrying corpus-wide statistics of a "
                "partitioned save; refresh the whole index instead"
            )
        with self._refresh_lock:
            if not self.is_stale:  # another thread refreshed while we waited
                return False
            self._fold_pending()
            self._apply_statistics()
            return True

    # ------------------------------------------------------------------ #
    # The steps of :meth:`refresh` (writer-side, unlocked)
    # ------------------------------------------------------------------ #
    def _fold_pending(self) -> None:
        """Fold pending mutations in: the dict front of :meth:`_fold`.

        The vocabulary grows by the pending bags' unseen terms, numbered by
        first appearance; each bag becomes entries of its counts.
        """
        upsert, removed = self._pending_upsert, self._pending_remove
        self._pending_upsert, self._pending_remove = {}, set()
        pending: Dict[Hashable, float] = {}  # its keys: an insertion-ordered set
        for bag in upsert.values():
            pending.update(bag)
        self._add_terms(pending)
        lengths = [len(bag) for bag in upsert.values()]
        columns: List[int] = []
        counts: List[float] = []
        for bag in upsert.values():
            columns += map(self._term_index.__getitem__, bag)
            counts += bag.values()
        self._fold(
            list(upsert),
            removed,
            np.repeat(np.arange(len(upsert)), lengths),
            np.array(columns, dtype=np.intp),
            np.array(counts),
        )

    def _add_terms(self, terms: Iterable[Hashable]) -> None:
        """Give the unseen of ``terms`` new (empty) columns, in the order given."""
        new_terms = tuple(term for term in terms if term not in self._term_index)
        if new_terms:
            first = len(self._terms)
            self._terms += new_terms
            self._term_index.update(zip(new_terms, range(first, len(self._terms))))
            self._post_rows.extend([_NO_ROWS] * len(new_terms))
            self._post_tf.extend([_NO_TF] * len(new_terms))
            self._df = np.concatenate((self._df, np.zeros(len(new_terms), np.int64)))

    def _fold(
        self,
        upserted: List[str],
        removed: Collection[str],
        entry_docs: np.ndarray,
        columns: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Fold rows given as arrays into the postings.

        Entry ``i`` gives ``upserted[entry_docs[i]]`` ``counts[i]``
        occurrences of column ``columns[i]``; a document's Eq. 2 tf divides
        them by its total, summed in entry order.  An added document takes
        a new slot, an updated one keeps its own, a removed one frees its
        slot, and only the postings of terms a written or dropped document
        carries are spliced.
        """
        index = self._doc_index
        added = sorted(doc_id for doc_id in upserted if doc_id not in index)
        dropped = [index[d] for d in removed] + [
            index[d] for d in upserted if d in index
        ]
        _, old_columns = self._entries_of(dropped)
        if added or removed:
            self._reorder(np.array([index[d] for d in removed], np.intp), added)
        for doc_id in removed:
            self._slot_ids[index.pop(doc_id)] = None
        slots = np.array([index[doc_id] for doc_id in upserted], dtype=np.intp)
        totals = np.bincount(entry_docs, counts, minlength=len(upserted))
        self._splice(
            np.concatenate((columns, old_columns)),
            np.array(dropped, dtype=np.intp),
            slots[entry_docs],
            columns,
            counts / totals[entry_docs],  # Eq. 2
        )

    def _reorder(self, removed_slots: np.ndarray, added: List[str]) -> None:
        """Give ``added`` (ascending ids) new slots and re-rank every slot.

        A slot's rank — its id's position in ascending-id order, the ranking
        tie-break — moves down by the removals below it and up by the
        additions at or below it: one vectorised shift.
        """
        old, first = self._sorted_ids, len(self._slot_ids)
        self._slot_ids.extend(added)
        self._doc_index.update(zip(added, range(first, len(self._slot_ids))))
        # ``before[i]``: how many ids already indexed sort before ``added[i]``.
        appends = not old or (added and added[0] > old[-1])  # e.g. the build
        if appends:
            before = np.full(len(added), len(old), dtype=np.intp)
        else:
            before = np.array([bisect_left(old, d) for d in added], dtype=np.intp)
        below = np.searchsorted(before, self._rank, side="right")
        rank = np.concatenate((self._rank, before))
        below = np.concatenate((below, np.arange(len(added))))
        gone = np.sort(rank[removed_slots])
        self._rank = rank + below - np.searchsorted(gone, rank)
        for position in gone[::-1].tolist():
            del old[position]
        if appends:
            old.extend(added)
        else:
            for doc_id in added:
                insort(old, doc_id)

    def _entries_of(self, slots: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Where ``slots`` sit in the packed postings: ``(positions, columns)``.

        One vectorised mask: a document's terms are stored once, here.
        """
        bounds, rows, _ = self._postings
        wanted = np.zeros(len(self._slot_ids), dtype=bool)
        wanted[slots] = True
        at = np.flatnonzero(wanted[rows])
        return at, np.searchsorted(bounds, at, side="right") - 1

    def _splice(
        self,
        touched_columns: np.ndarray,
        dropped_slots: np.ndarray,
        new_slots: np.ndarray,
        new_columns: np.ndarray,
        new_tf: np.ndarray,
    ) -> None:
        """Rewrite the postings of ``touched_columns``, and only those.

        Their entries of ``dropped_slots`` leave and the new entries merge
        in, slot-ascending per term, in a fixed number of vectorised passes
        over the touched terms' postings.
        """
        touched = np.unique(touched_columns)
        columns = touched.tolist()
        num_slots = len(self._slot_ids)
        rows = np.concatenate([_NO_ROWS] + [self._post_rows[c] for c in columns])
        tf = np.concatenate([_NO_TF] + [self._post_tf[c] for c in columns])
        term = np.repeat(np.arange(touched.size), self._df[touched])
        if dropped_slots.size:
            dropped = np.zeros(num_slots, dtype=bool)
            dropped[dropped_slots] = True
            keep = ~dropped[rows]
            rows, tf, term = rows[keep], tf[keep], term[keep]
        key = np.searchsorted(touched, new_columns) * num_slots + new_slots
        order = np.argsort(key)  # keys are unique: no stable sort needed
        key = key[order]
        new_term = key // num_slots
        # Merge: the i-th new entry lands after ``at[i]`` kept ones.
        at = np.searchsorted(term * num_slots + rows, key)
        landed = at + np.arange(key.size)
        kept = np.ones(rows.size + key.size, dtype=bool)
        kept[landed] = False
        merged_rows, merged_tf = np.empty(kept.size, np.intp), np.empty(kept.size)
        merged_rows[kept], merged_rows[landed] = rows, new_slots[order]
        merged_tf[kept], merged_tf[landed] = tf, new_tf[order]
        rows, tf = merged_rows, merged_tf
        per_term = np.arange(touched.size + 1)
        edges = (
            np.searchsorted(term, per_term) + np.searchsorted(new_term, per_term)
        ).tolist()
        for column, start, end in zip(columns, edges, edges[1:]):
            self._post_rows[column] = rows[start:end]
            self._post_tf[column] = tf[start:end]
        self._df[touched] = np.diff(edges)

    def _apply_statistics(self) -> None:
        """Derive idf from document frequency, re-pack the postings and norms.

        The postings hold plain tf and need nothing; the norms are one exact
        vectorised pass over them — each entry is ``tf * idf`` (Eq. 2 x
        Eq. 1), and a row's squared weights accumulate in ascending-column
        order.
        """
        num_documents = len(self._doc_index)
        alive = self._df > 0
        # A column no document carries has idf 0, as an unseen term does.
        idf = np.log(num_documents / np.maximum(self._df, 1)) * alive
        self._postings = (
            np.concatenate(([0], np.cumsum(self._df))),
            np.concatenate([_NO_ROWS] + self._post_rows),
            np.concatenate([_NO_TF] + self._post_tf),
        )
        squares = (self._postings[2] * np.repeat(idf, self._df)) ** 2
        self._doc_norms = np.sqrt(
            np.bincount(self._postings[1], squares, minlength=len(self._slot_ids))
        )
        self._idf = idf
        self._alive = alive
        self._num_resources = num_documents

    # ------------------------------------------------------------------ #
    # Partitioning (sharded serving) and compaction
    # ------------------------------------------------------------------ #
    def _compacted(
        self, doc_ids: Sequence[str]
    ) -> Tuple[List[Hashable], Dict[str, np.ndarray]]:
        """``(terms, arrays)`` of ``doc_ids`` (ascending) in slots ``0..n-1``.

        What the constructor takes: no freed slots, no column no document
        of the corpus carries, the norms and idf of this space.
        """
        slots = np.array([self._doc_index[d] for d in doc_ids], dtype=np.intp)
        renumber = np.full(len(self._slot_ids), -1, dtype=np.intp)
        renumber[slots] = np.arange(slots.size)
        kept = np.flatnonzero(self._alive)
        column_of = np.cumsum(self._alive) - 1
        _, rows, tf = self._postings
        term = np.repeat(column_of, self._df)
        rows = renumber[rows]
        keep = rows >= 0
        rows, tf, term = rows[keep], tf[keep], term[keep]
        order = np.argsort(term * slots.size + rows)
        arrays = {
            "post_indptr": np.concatenate(
                ([0], np.cumsum(np.bincount(term, minlength=kept.size)))
            ),
            "post_rows": rows[order],
            "post_weights": tf[order],
            "doc_norms": self._doc_norms[slots],
            "idf": self._idf[kept],
        }
        return [self._terms[column] for column in kept.tolist()], arrays

    def slice_rows(self, doc_ids: Sequence[str]) -> "MatrixConceptSpace":
        """A shard view: the given rows with corpus-wide statistics.

        The slice keeps the corpus vocabulary, the global idf vector and the
        global ``num_resources``, so every sliced row scores bit-for-bit
        like it does in this space; only the set of candidate documents
        shrinks.  The returned space has :attr:`has_external_stats` set —
        its statistics are frozen, so it refuses a local refresh.
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
        terms, arrays = self._compacted(ordered)
        return MatrixConceptSpace(
            ordered,
            terms,
            arrays,
            num_resources=self._num_resources,
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
        for doc_id in self._sorted_ids:
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
        summation order), into a scratch vector, each term scaled by its
        weight times its idf (postings hold tf).  Scratch is allocated per call —
        concurrent readers share the space, never the buffers.

        Queries whose bags are empty or carry no corpus term simply yield an
        empty result list — a zero query norm never raises or produces NaN.
        """
        validate_top_k(top_k)
        if not query_bags:
            return []
        self.refresh()
        post_rows, post_tf, idf = self._post_rows, self._post_tf, self._idf
        doc_norms, rank = self._doc_norms, self._rank
        resource_of = self._slot_ids.__getitem__
        num_rows = doc_norms.size
        dots: Optional[np.ndarray] = None
        touched: Optional[np.ndarray] = None

        results: List[List[RankedResult]] = []
        for bag in query_bags:
            weights = self._weight_query(bag)
            if not weights:
                results.append([])
                continue
            norm_sq = 0.0
            if len(weights) == 1:
                ((column, weight),) = weights.items()
                norm_sq += weight * weight
                candidates = post_rows[column]
                scores = post_tf[column] * (weight * idf[column])
            else:
                if dots is None or touched is None:
                    dots = np.zeros(num_rows, dtype=np.float64)
                    touched = np.zeros(num_rows, dtype=bool)
                for column, weight in weights.items():
                    norm_sq += weight * weight
                    posted = post_rows[column]
                    dots[posted] += post_tf[column] * (weight * idf[column])
                    touched[posted] = True
                candidates = touched.nonzero()[0]
                scores = dots[candidates]
                dots[candidates] = 0.0
                touched[candidates] = False
            scores /= math.sqrt(norm_sq) * doc_norms[candidates]
            selected = select_top_k(candidates, scores, top_k, rank)
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
        slot = self._doc_index.get(resource)
        if slot is None:
            return 0.0
        weights = self._weight_query(query_bag)
        doc_norm = self._doc_norms[slot]
        if not weights or doc_norm == 0.0:
            return 0.0
        dot = norm_sq = 0.0
        for column, weight in weights.items():
            norm_sq += weight * weight
            # Slots ascend within a term: bisect for this document's entry.
            rows = self._post_rows[column]
            at = rows.searchsorted(slot)
            if at < rows.size and rows[at] == slot:
                dot += self._post_tf[column][at] * (weight * self._idf[column])
        return float(dot / (math.sqrt(norm_sq) * doc_norm))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path]) -> Path:
        """Write the postings, norms, idf and metadata (JSON) to ``directory``.

        The save is compacted: documents renumbered in ascending-id order,
        freed slots and columns no document carries left out.  Each array
        is written as a raw ``.npy`` file, so :meth:`load` can memory-map
        it (``mmap=True``): opening the space is then near-instant
        regardless of corpus size and the OS pages postings in on demand.
        A re-save over a directory an older format version wrote removes
        that version's ``matrix_space.npz``, so no dead arrays linger.
        """
        self.refresh()
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        terms, arrays = self._compacted(self._sorted_ids)
        for name, array in arrays.items():
            np.save(_npy_path(path, name), array)
        (path / "matrix_space.npz").unlink(missing_ok=True)
        metadata = {
            "format_version": FORMAT_VERSION,
            "doc_ids": self._sorted_ids,
            "terms": _encode_terms(terms),
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
        save.  The maps are never written: a refresh after mutations
        installs private arrays.
        """
        path = Path(directory)
        metadata_path = path / METADATA_FILENAME
        if not metadata_path.exists():
            raise NotFittedError(f"no saved matrix space under {path}")
        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        version = metadata.get("format_version")
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"the matrix space under {path} was saved in format version "
                f"{version!r}; only version {FORMAT_VERSION} can be read — "
                "re-save from the pipeline"
            )
        if metadata.get("smooth_idf", False):
            raise ConfigurationError(
                f"the matrix space under {path} was saved with the retired "
                "smooth_idf=True option; only the paper's plain idf is "
                "served — re-save from the pipeline"
            )
        try:
            arrays = {
                # A plain-ndarray view of the map: same pages, none of the
                # ``np.memmap`` subclass overhead per kernel slice.
                name: np.asarray(
                    np.load(_npy_path(path, name), mmap_mode="r" if mmap else None)
                )
                for name in _ARRAY_NAMES
            }
        except FileNotFoundError:
            raise NotFittedError(f"no saved matrix space under {path}") from None
        return cls(
            doc_ids=metadata["doc_ids"],
            terms=_decode_terms(metadata["terms"]),
            arrays=arrays,
            num_resources=int(metadata["num_resources"]),
            external_stats=bool(metadata.get("external_stats", False)),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _weight_query(self, bag: Mapping[Hashable, float]) -> Dict[int, float]:
        """Eq. 1-2 weighting of a query: ``column -> weight``, non-zero only.

        A term outside the vocabulary, or in a column no document carries
        any more, has idf 0 and so no weight: it can match no document and
        adds nothing to the query norm.
        """
        total = float(sum(count for count in bag.values() if count > 0))
        if total <= 0.0:
            return {}
        weights: Dict[int, float] = {}
        for term, count in bag.items():
            column = self._term_index.get(term)
            if count <= 0 or column is None:
                continue
            weight = float(count) / total * float(self._idf[column])
            if weight != 0.0:
                weights[column] = weight
        return weights


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
