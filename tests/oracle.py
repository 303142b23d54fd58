"""The test suite's parity oracle: a from-scratch dict-loop tf-idf space.

Serving scores through :class:`~repro.search.matrix_space.MatrixConceptSpace`
only; the reference every parity test compares it with is a
:class:`~repro.search.vsm.ConceptVectorSpace` fitted here, directly on the
*final* corpus (after any mutations) — never something the engine under
test was fed deltas through.  ``perf/cubeperf/oracle.py`` is the same idea
for the benchmark.

The two places N shards show up have helpers here too: an engine restored
from an N-shard save (:func:`through_save`) and the process pool's read
path without the processes (:func:`fanout_rank_batch`).

:class:`ReferenceFolksonomy` and :func:`reference_clean` are the same idea
for the tagging layer: the dict-index folksonomy and per-assignment cleaning
loop that :class:`~repro.tagging.folksonomy.Folksonomy`'s id columns and
:func:`~repro.tagging.cleaning.clean_folksonomy`'s numpy passes replace.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.search.engine import SearchEngine
from repro.search.sharding import ShardRouter, merge_topk
from repro.search.vsm import ConceptVectorSpace, RankedResult, rankings_match
from repro.tagging.cleaning import CleaningConfig, is_system_tag, normalize_tag

PARITY_TOL = 1e-9


class DictLoopOracle:
    """Reference rankings for tag queries over ``resource -> tag bag``.

    Tags are mapped through ``concept_model``; a tag it did not cluster
    contributes nothing, to a resource or to a query.
    """

    def __init__(
        self, concept_model, tag_bags: Mapping[str, Mapping[str, float]]
    ) -> None:
        self._model = concept_model
        self.space = ConceptVectorSpace().fit(
            {
                resource: concept_model.concept_bag(bag)
                for resource, bag in tag_bags.items()
            }
        )

    @classmethod
    def of_folksonomy(cls, concept_model, folksonomy) -> "DictLoopOracle":
        return cls(
            concept_model, {r: folksonomy.tag_bag(r) for r in folksonomy.resources}
        )

    def rank(
        self, tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[RankedResult]:
        bag = self._model.concept_bag_from_tags(tags)
        return self.space.rank(bag, top_k=top_k) if bag else []

    def rank_batch(
        self, queries: Sequence[Sequence[str]], top_k: Optional[int] = None
    ) -> List[List[RankedResult]]:
        return [self.rank(tags, top_k=top_k) for tags in queries]


def assert_matches_oracle(
    engine,
    oracle: DictLoopOracle,
    queries: Sequence[Sequence[str]],
    top_k: Optional[int] = 10,
) -> None:
    """``engine.rank_batch`` agrees with the oracle at 1e-9 (tie-aware)."""
    got = engine.rank_batch(queries, top_k=top_k)
    want = oracle.rank_batch(queries, top_k=top_k)
    assert len(got) == len(want)
    for tags, answer, reference in zip(queries, got, want):
        assert rankings_match(
            answer, reference, tol=PARITY_TOL, truncated=top_k is not None
        ), (tags, answer[:3], reference[:3])


def fanout_rank_batch(
    space, num_shards: int, bags, top_k: Optional[int] = None
) -> List[List[RankedResult]]:
    """The process pool's read path, without the processes.

    ``space`` is cut into the ``num_shards`` partitions an N-shard save
    writes, each ranks the batch, and the per-shard lists are heap-merged
    exactly as :class:`~repro.search.shardpool.ShardProcessPool` merges its
    workers' answers.
    """
    shards = space.partition(num_shards, ShardRouter(num_shards).shard_of)
    per_shard = [shard.rank_batch(bags, top_k) for shard in shards]
    return [
        merge_topk([lists[position] for lists in per_shard], top_k)
        for position in range(len(bags))
    ]


def through_save(engine, num_shards: int):
    """``engine`` restored by :meth:`SearchEngine.load` from a
    ``num_shards``-shard save: one space again, ranking like ``engine``."""
    with tempfile.TemporaryDirectory() as directory:
        engine.save(directory, num_shards=num_shards)
        return SearchEngine.load(directory)


Triple = Tuple[str, str, str]


class ReferenceFolksonomy:
    """A folksonomy as sorted label triples plus dict indexes.

    Filled in one pass over the sorted triples, so a resource's tag bag
    lists tags in the order of their first assignment.
    """

    def __init__(self, triples: Iterable[Triple]) -> None:
        self.assignments: Tuple[Triple, ...] = tuple(sorted(set(triples)))
        self.vocabularies = tuple(
            tuple(sorted({a[d] for a in self.assignments})) for d in range(3)
        )
        self.bags: Dict[str, Dict[str, int]] = {}
        counts = (Counter(), Counter(), Counter())
        for user, tag, resource in self.assignments:
            bag = self.bags.setdefault(resource, {})
            bag[tag] = bag.get(tag, 0) + 1
            for counter, label in zip(counts, (user, tag, resource)):
                counter[label] += 1
        self.counts = tuple(dict(counter) for counter in counts)

    def ids(self) -> List[Tuple[int, int, int]]:
        """Each assignment's ``(user, tag, resource)`` ids, in order."""
        index = [{label: i for i, label in enumerate(v)} for v in self.vocabularies]
        return [
            tuple(index[d][label] for d, label in enumerate(a))
            for a in self.assignments
        ]

    def tag_resource_counts(self) -> Dict[Tuple[int, int], int]:
        return dict(Counter((t, r) for _, t, r in self.ids()))

    def assignments_of_resource(self, resource: str) -> Tuple[Triple, ...]:
        return tuple(a for a in self.assignments if a[2] == resource)

    def apply_delta(self, delta) -> "ReferenceFolksonomy":
        added = {a.as_tuple() for a in delta.added}
        removed = {a.as_tuple() for a in delta.removed}
        return ReferenceFolksonomy((set(self.assignments) | added) - removed)


def reference_clean(
    triples: Iterable[Triple], config: CleaningConfig
) -> Tuple[ReferenceFolksonomy, Dict[str, int]]:
    """Section VI-A cleaning, one assignment at a time, and its report counts."""
    raw = ReferenceFolksonomy(triples)
    kept = []
    removed_system = 0
    for user, tag, resource in raw.assignments:
        tag = normalize_tag(tag, config)
        if not tag or is_system_tag(tag, config):
            removed_system += 1
        else:
            kept.append((user, tag, resource))
    current = list(dict.fromkeys(kept))
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        counts = [Counter(a[d] for a in current) for d in range(3)]
        pruned = [
            a
            for a in current
            if all(counts[d][a[d]] >= config.min_assignments for d in range(3))
        ]
        if len(pruned) == len(current):
            break
        current = pruned
        if not current:
            break
    cleaned = ReferenceFolksonomy(current)
    sizes = [(len(r), len(c)) for r, c in zip(raw.vocabularies, cleaned.vocabularies)]
    return cleaned, {
        "raw_assignments": len(raw.assignments),
        "cleaned_assignments": len(cleaned.assignments),
        "removed_system_assignments": removed_system,
        "pruning_iterations": iterations,
        "removed_users": sizes[0][0] - sizes[0][1],
        "removed_tags": sizes[1][0] - sizes[1][1],
        "removed_resources": sizes[2][0] - sizes[2][1],
    }
