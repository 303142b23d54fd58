"""Value objects describing the entities of a social tagging system.

The paper works with four entity types: users (taggers) ``U``, tags ``T``,
resources ``R`` and tag assignments ``Y ⊆ U × T × R``.  Entities are plain
strings at the data layer; the :class:`repro.tagging.folksonomy.Folksonomy`
container interns them into dense integer ids when numeric work begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True, order=True)
class TagAssignment:
    """A single ``(user, tag, resource)`` annotation event.

    Instances are hashable and order-comparable (field by field) so
    collections of assignments can be deduplicated and stored in sets,
    mirroring the set-semantics of ``Y`` in the paper (Eq. 5 maps each
    distinct triple to a 1 in the tensor regardless of how many times it was
    observed).  :class:`~repro.tagging.folksonomy.Folksonomy` stores none of
    them; they are the I/O type at its edges.
    """

    # Written out rather than ``dataclass(slots=True)``, which needs 3.10.
    __slots__ = ("user", "tag", "resource")

    user: str
    tag: str
    resource: str

    def as_tuple(self) -> Tuple[str, str, str]:
        """The assignment as a plain ``(user, tag, resource)`` tuple."""
        return (self.user, self.tag, self.resource)

    def with_tag(self, tag: str) -> "TagAssignment":
        """A copy of this assignment annotated with a different tag label."""
        return TagAssignment(user=self.user, tag=tag, resource=self.resource)


#: What the normalisation helpers accept: an assignment value object or a
#: plain ``(user, tag, resource)`` tuple of str()-coercible labels.
AssignmentLike = Union["TagAssignment", Tuple[str, str, str]]


def as_assignment(item: AssignmentLike) -> "TagAssignment":
    """Coerce one assignment-like value into a :class:`TagAssignment`.

    The single definition of triple identity shared by
    :class:`~repro.tagging.folksonomy.Folksonomy` and
    :class:`~repro.tagging.delta.FolksonomyDelta` — the two must never
    disagree on which triples are equal.
    """
    if isinstance(item, TagAssignment):
        return item
    user, tag, resource = item
    return TagAssignment(user=str(user), tag=str(tag), resource=str(resource))


@dataclass(frozen=True, order=True)
class PostKey:
    """Identifies a *post*: one user's annotation of one resource.

    Posts group the tags a single user attached to a single resource; they
    are the unit several tagging systems (and the Bibsonomy dumps) use for
    export, and the unit the synthetic generator produces.
    """

    __slots__ = ("user", "resource")

    user: str
    resource: str

    def as_tuple(self) -> Tuple[str, str]:
        return (self.user, self.resource)
