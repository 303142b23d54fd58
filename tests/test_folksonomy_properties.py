"""Property-based parity of the column folksonomy with a dict-index reference.

For *any* small corpus (repeated triples, case variants and system tags by
construction), :class:`~repro.tagging.folksonomy.Folksonomy` must agree with
:class:`tests.oracle.ReferenceFolksonomy` on every view the library reads —
tag bags with their insertion order, assignment counts, tensor coordinates,
the tag-resource count matrix and per-resource assignments — and
:func:`~repro.tagging.cleaning.clean_folksonomy` with
:func:`tests.oracle.reference_clean` on the cleaned corpus and its report.
``apply_delta`` must equal a rebuild from the mutated triple set, and a
delta that changes nothing must return the folksonomy itself.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracle import ReferenceFolksonomy, reference_clean
from repro.tagging.cleaning import CleaningConfig, clean_folksonomy
from repro.tagging.delta import FolksonomyDelta
from repro.tagging.folksonomy import Folksonomy

USERS = st.sampled_from(["u0", "u1", "u2", "u3", "#u4"])
TAGS = st.sampled_from(
    ["jazz", "Jazz", " jazz ", "rock", "ROCK", "pop", "system:unfiled", "for:me", "  "]
)
RESOURCES = st.sampled_from(["r0", "r1", "r2", "r3", "r4"])
TRIPLES = st.lists(st.tuples(USERS, TAGS, RESOURCES), max_size=60)
#: Labels a delta may introduce that the corpus never saw.
NEW_TRIPLES = st.lists(
    st.tuples(
        st.sampled_from(["u0", "u9", "a-user"]),
        st.sampled_from(["jazz", "zydeco", "Alpha"]),
        st.sampled_from(["r0", "r9", "r-new"]),
    ),
    max_size=8,
)


def assert_matches(folksonomy: Folksonomy, reference: ReferenceFolksonomy) -> None:
    assert tuple(a.as_tuple() for a in folksonomy.assignments) == reference.assignments
    assert (folksonomy.users, folksonomy.tags, folksonomy.resources) == (
        reference.vocabularies
    )
    for resource in folksonomy.resources + ("no-such-resource",):
        # Insertion order, not just content: the engine numbers new term
        # columns in bag order.
        assert list(folksonomy.tag_bag(resource).items()) == list(
            reference.bags.get(resource, {}).items()
        )
        assert tuple(
            a.as_tuple() for a in folksonomy.assignments_of_resource(resource)
        ) == reference.assignments_of_resource(resource)
    assert folksonomy.assignment_counts() == reference.counts
    if reference.assignments:
        coords = np.asarray(folksonomy.to_tensor().coords)
        assert [tuple(c) for c in coords.T.tolist()] == reference.ids()
    matrix = folksonomy.to_tag_resource_matrix().tocoo()
    assert {
        (int(t), int(r)): int(v) for t, r, v in zip(matrix.row, matrix.col, matrix.data)
    } == reference.tag_resource_counts()


@given(triples=TRIPLES)
def test_columns_match_dict_index_reference(triples):
    assert_matches(Folksonomy(triples), ReferenceFolksonomy(triples))


@given(triples=TRIPLES, min_assignments=st.integers(1, 4))
def test_cleaning_matches_per_assignment_reference(triples, min_assignments):
    config = CleaningConfig(min_assignments=min_assignments)
    cleaned, report = clean_folksonomy(Folksonomy(triples, name="x"), config)
    reference, counts = reference_clean(triples, config)
    assert_matches(cleaned, reference)
    assert {
        "raw_assignments": report.raw.num_assignments,
        "cleaned_assignments": report.cleaned.num_assignments,
        "removed_system_assignments": report.removed_system_assignments,
        "pruning_iterations": report.pruning_iterations,
        "removed_users": report.removed_users,
        "removed_tags": report.removed_tags,
        "removed_resources": report.removed_resources,
    } == counts
    assert bool(report.notes) == (not reference.assignments)


@given(triples=TRIPLES, added=NEW_TRIPLES, data=st.data())
def test_apply_delta_equals_rebuild(triples, added, data):
    folksonomy = Folksonomy(triples, name="corpus")
    present = [a.as_tuple() for a in folksonomy.assignments]
    removed = data.draw(st.lists(st.sampled_from(present), max_size=10)) if present else []
    removed += data.draw(st.lists(st.tuples(USERS, TAGS, RESOURCES), max_size=3))
    delta = FolksonomyDelta(
        added=added, removed=[a for a in removed if a not in set(added)]
    )
    after = folksonomy.apply_delta(delta)
    reference = ReferenceFolksonomy(present).apply_delta(delta)
    assert_matches(after, reference)
    rebuilt = Folksonomy(reference.assignments, name="corpus")
    assert after.assignments == rebuilt.assignments
    assert after.name == "corpus"


@given(triples=TRIPLES, data=st.data())
def test_noop_delta_returns_the_same_folksonomy(triples, data):
    folksonomy = Folksonomy(triples)
    present = [a.as_tuple() for a in folksonomy.assignments]
    again = data.draw(st.lists(st.sampled_from(present), max_size=5)) if present else []
    absent = [
        a
        for a in data.draw(st.lists(st.tuples(USERS, TAGS, RESOURCES), max_size=5))
        if a not in set(present)
    ]
    noop = FolksonomyDelta(added=again, removed=absent)
    assert folksonomy.apply_delta(noop) is folksonomy
    renamed = folksonomy.apply_delta(noop, name="renamed")
    assert renamed.name == "renamed" and renamed.assignments == folksonomy.assignments
