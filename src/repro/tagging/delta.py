"""Incremental folksonomy updates: deltas of tag assignments.

A :class:`FolksonomyDelta` is an immutable batch of assignment additions and
removals — the unit of change flowing through the incremental serving path
(``Folksonomy.apply_delta`` → ``OfflineIndex.apply_delta`` →
``SearchEngine.add_resources`` / ``remove_resources`` / ``update_resource``).
Deltas are what a tagging front-end would ship to the serving tier between
two full offline refits: the expensive tensor analysis stays offline while
corpus changes fold into the *existing* latent model (LSI-style fold-in).

:class:`FolksonomyDeltaBuilder` accumulates changes imperatively and
normalises them into a delta; :meth:`FolksonomyDelta.diff` recovers the delta
between two folksonomy snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Tuple

from repro.tagging.entities import AssignmentLike, TagAssignment, as_assignment
from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tagging.folksonomy import Folksonomy


def _normalize(items: Iterable[AssignmentLike]) -> Tuple[TagAssignment, ...]:
    return tuple(sorted({as_assignment(item) for item in items}))


@dataclass(frozen=True)
class FolksonomyDelta:
    """An immutable batch of assignment additions and removals.

    Attributes
    ----------
    added / removed:
        Distinct, sorted assignments to insert into / delete from the
        folksonomy.  The same triple may not appear on both sides.
    """

    added: Tuple[TagAssignment, ...] = ()
    removed: Tuple[TagAssignment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "added", _normalize(self.added))
        object.__setattr__(self, "removed", _normalize(self.removed))
        overlap = set(self.added) & set(self.removed)
        if overlap:
            sample = sorted(overlap)[0]
            raise ConfigurationError(
                f"delta both adds and removes {sample.as_tuple()!r} "
                f"({len(overlap)} overlapping assignments)"
            )

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    @property
    def touched_resources(self) -> Tuple[str, ...]:
        """Resources whose tag bags this delta modifies, sorted."""
        return tuple(
            sorted({a.resource for a in self.added} | {a.resource for a in self.removed})
        )

    def inverse(self) -> "FolksonomyDelta":
        """The delta that undoes this one."""
        return FolksonomyDelta(added=self.removed, removed=self.added)

    @classmethod
    def diff(cls, before: "Folksonomy", after: "Folksonomy") -> "FolksonomyDelta":
        """The delta turning ``before`` into ``after``."""
        old = set(before.assignments)
        new = set(after.assignments)
        return cls(added=tuple(new - old), removed=tuple(old - new))


class FolksonomyDeltaBuilder:
    """Accumulates assignment changes and builds a :class:`FolksonomyDelta`.

    For conflicting calls on the same triple the last call wins (an ``add``
    after a ``remove`` leaves a pure addition and vice versa), so a builder
    can replay an event stream without pre-deduplication; applying the
    resulting delta is idempotent with respect to the base corpus because
    ``apply_delta`` ignores already-present additions and absent removals.
    """

    def __init__(self) -> None:
        self._added: set = set()
        self._removed: set = set()

    def add(self, user: str, tag: str, resource: str) -> "FolksonomyDeltaBuilder":
        """Record one new ``(user, tag, resource)`` assignment."""
        assignment = as_assignment((user, tag, resource))
        self._removed.discard(assignment)
        self._added.add(assignment)
        return self

    def remove(self, user: str, tag: str, resource: str) -> "FolksonomyDeltaBuilder":
        """Record the deletion of one assignment."""
        assignment = as_assignment((user, tag, resource))
        self._added.discard(assignment)
        self._removed.add(assignment)
        return self

    def add_resource(
        self, resource: str, tags_by_user: Mapping[str, Iterable[str]]
    ) -> "FolksonomyDeltaBuilder":
        """Record a whole new resource: ``user -> tags`` they applied."""
        for user, tags in tags_by_user.items():
            for tag in tags:
                self.add(user, tag, resource)
        return self

    def remove_resource(
        self, folksonomy: "Folksonomy", resource: str
    ) -> "FolksonomyDeltaBuilder":
        """Record the removal of every assignment ``resource`` carries."""
        for assignment in folksonomy.assignments_of_resource(resource):
            self.remove(*assignment.as_tuple())
        return self

    def __len__(self) -> int:
        return len(self._added) + len(self._removed)

    def build(self) -> FolksonomyDelta:
        """Normalise the accumulated changes into an immutable delta."""
        return FolksonomyDelta(added=tuple(self._added), removed=tuple(self._removed))
