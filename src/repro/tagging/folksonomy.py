"""The in-memory folksonomy: users, tags, resources and their assignments.

:class:`Folksonomy` is the central data structure of the library.  It stores
``Y`` as three parallel int32 columns ``(user, tag, resource)`` over three
sorted, interned vocabularies; the rows are distinct and sorted, so row
order is the lexicographic order of the label triples.  Everything the rest
of the library reads is a numpy pass over those columns:

* the third-order binary tensor ``F`` of Eq. 5 (``to_tensor``),
* the user-aggregated tag-resource count matrix of Fig. 3 (``to_tag_resource_matrix``),
* the resource x tag count table the IR layer indexes (``tag_counts``),
  derived on first use, and per-resource tag bags read off it (``tag_bag``).

:class:`~repro.tagging.entities.TagAssignment` objects exist only at the
edges: :attr:`Folksonomy.assignments` is a lazy sequence that builds one per
item read, and readers/writers (``io``, ``store``, deltas) speak in them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.tagging.entities import TagAssignment, as_assignment
from repro.tensor.sparse import SparseTensor
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tagging.delta import FolksonomyDelta

Vocabulary = Tuple[str, ...]
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

_FIELDS = ("user", "tag", "resource")
_INT64_MAX = np.iinfo(np.int64).max


def _intern(labels: Sequence[str]) -> Tuple[Vocabulary, np.ndarray]:
    """The sorted distinct labels and each label's id in them."""
    vocabulary = tuple(sorted(set(labels)))
    return vocabulary, _remap(labels, vocabulary)


def _remap(labels: Sequence[str], vocabulary: Vocabulary) -> np.ndarray:
    """Ids of ``labels`` in ``vocabulary`` (-1 for a label it lacks)."""
    index = {label: i for i, label in enumerate(vocabulary)}
    return np.fromiter(
        (index.get(label, -1) for label in labels), np.int64, len(labels)
    )


def _find(vocabulary: Vocabulary, label: str) -> int:
    """Id of ``label`` in a sorted vocabulary, or -1."""
    position = bisect_left(vocabulary, label)
    if position < len(vocabulary) and vocabulary[position] == label:
        return position
    return -1


def _encode(columns: Sequence[np.ndarray], shape: Sequence[int]) -> np.ndarray:
    """One int64 key per row, ordered like the rows' ``(u, t, r)`` id triples."""
    if int(np.prod(shape, dtype=object)) > _INT64_MAX:
        raise ConfigurationError(
            f"a {shape} folksonomy does not fit 64-bit triple keys"
        )
    users, tags, resources = (np.asarray(c, dtype=np.int64) for c in columns)
    return (users * shape[1] + tags) * shape[2] + resources


def _decode(keys: np.ndarray, shape: Sequence[int]) -> Columns:
    users, rest = np.divmod(keys, shape[1] * shape[2])
    tags, resources = np.divmod(rest, shape[2])
    return tuple(c.astype(np.int32) for c in (users, tags, resources))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    starts = np.ones(ordered.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return starts


def _distinct_rows(
    vocabularies: Sequence[Vocabulary], columns: Sequence[np.ndarray]
) -> Columns:
    """Id rows that may repeat and come in any order, sorted and distinct.

    A sort and a run mask rather than ``np.unique``, which is several times
    slower on these sizes.
    """
    shape = [len(v) for v in vocabularies]
    keys = np.sort(_encode(columns, shape))
    return _decode(keys[_run_starts(keys)], shape)


def _lookup(
    vocabularies: Sequence[Vocabulary], assignments: Iterable[TagAssignment]
) -> List[np.ndarray]:
    """Id columns of the ``assignments`` whose three labels are all known."""
    rows = [
        ids
        for ids in (
            [_find(v, label) for v, label in zip(vocabularies, a.as_tuple())]
            for a in assignments
        )
        if min(ids) >= 0
    ]
    return list(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def _locate(keys: np.ndarray, probes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``probes`` sit in the sorted ``keys``, and which are present."""
    positions = np.searchsorted(keys, probes)
    found = positions < keys.size
    found[found] = keys[positions[found]] == probes[found]
    return positions, found


def _splice(vocabulary: Vocabulary, cuts: List[Tuple[int, int, List[str]]]) -> Vocabulary:
    """``vocabulary`` with each ``[start:end]`` of the sorted ``cuts`` replaced.

    Copies O(|V|) references and compares no strings.
    """
    spliced: List[str] = []
    position = 0
    for start, end, labels in cuts:
        spliced += vocabulary[position:start]
        spliced += labels
        position = end
    spliced += vocabulary[position:]
    return tuple(spliced)


def _grow(
    vocabulary: Vocabulary, labels: Set[str]
) -> Tuple[Vocabulary, Optional[np.ndarray]]:
    """``vocabulary`` plus ``labels``, and the old ids' new positions.

    The remap is ``None`` when every label is already known.
    """
    new = sorted(label for label in labels if _find(vocabulary, label) < 0)
    if not new:
        return vocabulary, None
    positions = [bisect_left(vocabulary, label) for label in new]
    grown = _splice(vocabulary, [(p, p, [label]) for p, label in zip(positions, new)])
    shift = np.cumsum(np.bincount(positions, minlength=len(vocabulary) + 1))
    return grown, np.arange(len(vocabulary)) + shift[:-1]


class AssignmentSequence(Sequence):
    """``Y`` in sorted order; indexing builds exactly one :class:`TagAssignment`."""

    __slots__ = ("_vocabularies", "_columns")

    def __init__(self, vocabularies: Tuple[Vocabulary, ...], columns: Columns) -> None:
        self._vocabularies = vocabularies
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        users, tags, resources = self._vocabularies
        u, t, r = (int(column[index]) for column in self._columns)
        return TagAssignment(users[u], tags[t], resources[r])

    def __iter__(self) -> Iterator[TagAssignment]:
        return map(
            TagAssignment,
            *(
                map(vocabulary.__getitem__, column.tolist())
                for vocabulary, column in zip(self._vocabularies, self._columns)
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssignmentSequence):
            return NotImplemented
        return self._vocabularies == other._vocabularies and all(
            np.array_equal(a, b) for a, b in zip(self._columns, other._columns)
        )

    __hash__ = None  # type: ignore[assignment]


class Folksonomy:
    """An immutable set of tag assignments stored as interned id columns.

    Parameters
    ----------
    assignments:
        Any iterable of :class:`TagAssignment` or ``(user, tag, resource)``
        tuples.  Duplicates are collapsed (``Y`` is a set).
    name:
        Optional human-readable dataset name carried through reports.
    """

    def __init__(
        self,
        assignments: Iterable,
        name: str = "folksonomy",
    ) -> None:
        triples = [as_assignment(item) for item in assignments]
        vocabularies, columns = zip(
            *(_intern([getattr(a, field) for a in triples]) for field in _FIELDS)
        )
        self._store(name, vocabularies, _distinct_rows(vocabularies, columns))

    @classmethod
    def _from_rows(
        cls,
        vocabularies: Sequence[Vocabulary],
        columns: Sequence[np.ndarray],
        name: str,
    ) -> "Folksonomy":
        """A folksonomy over sorted distinct id rows into sorted vocabularies."""
        new = object.__new__(cls)
        new._store(name, vocabularies, columns)
        return new

    def _store(
        self,
        name: str,
        vocabularies: Sequence[Vocabulary],
        columns: Sequence[np.ndarray],
    ) -> None:
        """Keep sorted distinct id rows, dropping labels no row uses."""
        kept_vocabularies = []
        kept_columns = []
        for vocabulary, column in zip(vocabularies, columns):
            column = np.asarray(column, dtype=np.int32)
            used = np.zeros(len(vocabulary), dtype=bool)
            used[column] = True
            if not used.all():
                unused = np.flatnonzero(~used).tolist()
                vocabulary = _splice(vocabulary, [(i, i + 1, []) for i in unused])
                column = (np.cumsum(used, dtype=np.int32) - 1)[column]
            column.flags.writeable = False
            kept_vocabularies.append(tuple(vocabulary))
            kept_columns.append(column)
        self._name = name
        self._vocabularies: Tuple[Vocabulary, ...] = tuple(kept_vocabularies)
        self._columns: Columns = tuple(kept_columns)
        self._tag_counts: Optional[Columns] = None

    def __setstate__(self, state) -> None:
        # Unpickled arrays come back writeable; a folksonomy handed to a
        # spawned worker must stay as immutable as the parent's.
        self.__dict__.update(state)
        for column in self._columns + (self._tag_counts or ()):
            column.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._name

    @property
    def users(self) -> Vocabulary:
        """Distinct user labels in deterministic (sorted) order."""
        return self._vocabularies[0]

    @property
    def tags(self) -> Vocabulary:
        """Distinct tag labels in deterministic (sorted) order."""
        return self._vocabularies[1]

    @property
    def resources(self) -> Vocabulary:
        """Distinct resource labels in deterministic (sorted) order."""
        return self._vocabularies[2]

    @property
    def columns(self) -> Columns:
        """Read-only int32 ``(user, tag, resource)`` id columns, rows sorted."""
        return self._columns

    @property
    def assignments(self) -> AssignmentSequence:
        """All distinct assignments, sorted (built lazily, one per item read)."""
        return AssignmentSequence(self._vocabularies, self._columns)

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def num_assignments(self) -> int:
        return len(self._columns[0])

    def __len__(self) -> int:
        return self.num_assignments

    def __iter__(self) -> Iterator[TagAssignment]:
        return iter(self.assignments)

    def __contains__(self, item) -> bool:
        if not isinstance(item, TagAssignment):
            if not (isinstance(item, tuple) and len(item) == 3):
                return False
            item = as_assignment(item)
        probe = _encode(_lookup(self._vocabularies, [item]), self._shape())
        return bool(_locate(_encode(self._columns, self._shape()), probe)[1].any())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Folksonomy(name={self._name!r}, |U|={self.num_users}, "
            f"|T|={self.num_tags}, |R|={self.num_resources}, "
            f"|Y|={self.num_assignments})"
        )

    def _shape(self) -> Tuple[int, int, int]:
        return (self.num_users, self.num_tags, self.num_resources)

    # ------------------------------------------------------------------ #
    # Id interning
    # ------------------------------------------------------------------ #
    def _id(self, dimension: int, label: str) -> int:
        position = _find(self._vocabularies[dimension], label)
        if position < 0:
            raise KeyError(label)
        return position

    def user_id(self, user: str) -> int:
        """Dense integer id of ``user`` (raises ``KeyError`` if unknown)."""
        return self._id(0, user)

    def tag_id(self, tag: str) -> int:
        """Dense integer id of ``tag`` (raises ``KeyError`` if unknown)."""
        return self._id(1, tag)

    def resource_id(self, resource: str) -> int:
        """Dense integer id of ``resource`` (raises ``KeyError`` if unknown)."""
        return self._id(2, resource)

    def has_tag(self, tag: str) -> bool:
        return _find(self.tags, tag) >= 0

    def has_resource(self, resource: str) -> bool:
        return _find(self.resources, resource) >= 0

    # ------------------------------------------------------------------ #
    # Relationship queries
    # ------------------------------------------------------------------ #
    def tag_counts(self) -> Columns:
        """The resource x tag count table as read-only columns ``(row, tag, count)``.

        One entry per (resource, tag) pair: the resource's id (ascending),
        the tag's id and the number of distinct users who assigned it.
        Within a row, tags come in the order of their first assignment in
        row order — the order the engine numbers new term columns in, so
        it must not change.  Derived on first use; :meth:`tag_bag` reads
        it too.
        """
        if self._tag_counts is None:
            _, tags, resources = self._columns
            width = max(self.num_tags, 1)
            pairs = resources.astype(np.int64) * width + tags
            by_pair = np.argsort(pairs)
            starts = np.flatnonzero(_run_starts(pairs[by_pair]))
            keys = pairs[by_pair[starts]]
            first = np.minimum.reduceat(by_pair, starts) if starts.size else starts
            counts = np.diff(np.append(starts, pairs.size))
            rows = keys // width
            order = np.argsort(rows * max(pairs.size, 1) + first)
            table = (rows, (keys % width)[order], counts[order])
            for column in table:
                column.flags.writeable = False
            self._tag_counts = table
        return self._tag_counts

    def tag_bag(self, resource: str) -> Dict[str, int]:
        """Bag-of-tags of a resource: tag -> number of distinct users who used it.

        This is ``tags(r)`` of the Freq baseline with per-tag user counts.
        """
        row = _find(self.resources, resource)
        if row < 0:
            return {}
        rows, tags, counts = self.tag_counts()
        start, end = rows.searchsorted((row, row + 1)).tolist()
        labels = map(self.tags.__getitem__, tags[start:end].tolist())
        return dict(zip(labels, counts[start:end].tolist()))

    tags_of_resource = tag_bag

    def assignments_of_resource(self, resource: str) -> Tuple[TagAssignment, ...]:
        """All assignments annotating ``resource``, sorted."""
        row = _find(self.resources, resource)
        positions = np.flatnonzero(self._columns[2] == row) if row >= 0 else ()
        assignments = self.assignments
        return tuple(assignments[i] for i in positions)

    def assignment_counts(self) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
        """Per-user, per-tag and per-resource assignment counts."""
        return tuple(
            dict(zip(vocabulary, np.bincount(column, minlength=len(vocabulary)).tolist()))
            for vocabulary, column in zip(self._vocabularies, self._columns)
        )

    # ------------------------------------------------------------------ #
    # Numeric exports
    # ------------------------------------------------------------------ #
    def to_tensor(self) -> SparseTensor:
        """The binary third-order tensor ``F`` of Eq. 5.

        Mode order is ``(users, tags, resources)`` as in the paper, so the
        mode-1 slices ``F[:, t, :]`` are the user-resource feature matrices
        of individual tags.
        """
        if not self.num_assignments:
            raise ConfigurationError("cannot build a tensor from an empty folksonomy")
        coords = np.vstack(self._columns).astype(np.int64)
        return SparseTensor(coords, np.ones(self.num_assignments), self._shape())

    def _count_matrix(self, rows: int, columns: int) -> sp.csr_matrix:
        shape = self._shape()
        return sp.coo_matrix(
            (
                np.ones(self.num_assignments),
                (self._columns[rows], self._columns[columns]),
            ),
            shape=(shape[rows], shape[columns]),
        ).tocsr()

    def to_tag_resource_matrix(self) -> sp.csr_matrix:
        """User-aggregated tag-resource count matrix (Fig. 3).

        Entry ``(t, r)`` is the number of distinct users who assigned tag
        ``t`` to resource ``r``; this is the input of the BOW and LSI
        baselines.
        """
        return self._count_matrix(1, 2)

    def to_user_tag_matrix(self) -> sp.csr_matrix:
        """User-tag count matrix (how many resources each user tagged with t)."""
        return self._count_matrix(0, 1)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, delta: "FolksonomyDelta", name: Optional[str] = None
    ) -> "Folksonomy":
        """A new folksonomy with ``delta`` applied.

        Equal to ``Folksonomy(set(self.assignments) | added - removed)``:
        survivors are masked, vocabularies grown by the additions' new
        labels remap the old ids, and the additions are merged into the
        sorted rows — O(|Y|) numpy work and O(|delta|) Python work.
        Additions already present and removals already absent are ignored;
        a delta that changes nothing returns ``self``.
        """
        name = name or self._name
        vocabularies = list(self._vocabularies)
        columns = list(self._columns)
        removed = _lookup(vocabularies, delta.removed)
        for dimension, field in enumerate(_FIELDS):
            labels = {getattr(a, field) for a in delta.added}
            grown, remap = _grow(vocabularies[dimension], labels)
            if remap is not None:
                vocabularies[dimension] = grown
                columns[dimension] = remap[columns[dimension]]
                removed[dimension] = remap[removed[dimension]]
        shape = tuple(len(v) for v in vocabularies)
        keys = _encode(columns, shape)
        added = np.unique(_encode(_lookup(vocabularies, delta.added), shape))
        dropped, gone = _locate(keys, _encode(removed, shape))
        _, present = _locate(keys, added)
        fresh = added[~present]
        if not gone.any() and not fresh.size:
            if name == self._name:
                return self
            return Folksonomy._from_rows(vocabularies, columns, name)
        keep = np.ones(keys.size, dtype=bool)
        keep[dropped[gone]] = False
        at = np.searchsorted(keys[keep], fresh)
        return Folksonomy._from_rows(
            vocabularies,
            [
                np.insert(column[keep], at, rows)
                for column, rows in zip(columns, _decode(fresh, shape))
            ],
            name,
        )
