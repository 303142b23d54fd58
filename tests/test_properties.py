"""Property-based invariants for the serving primitives (hypothesis).

Three families of properties, all aimed where the system is most likely to
be wrong (exact ties, eviction boundaries, permuted inputs):

* **postings kernel** — for *any* small corpus (duplicate documents and
  exact score ties by construction) and any query bags (empty, all-unknown,
  out-of-vocabulary mass), ``MatrixConceptSpace.rank_batch`` must reproduce
  the dict-loop oracle's rankings at every ``top_k``, as a built space, as
  a ``slice_rows`` shard and as a memory-mapped load; and after *any*
  add/update/remove sequence a standalone space, an engine, an engine
  restored from a 3-shard save and the process pool's read path over 3
  partitions (ranked per shard, heap-merged) must each equal an oracle
  fitted from scratch on the mutated corpus — rankings, idf, document norms
  and document weights, after every batch, including a term drained to
  df 0 and resurrected and a long sequence that moves the corpus size on
  every step.

* **top-k merge** — for *any* corpus of scores (tie-rich by construction),
  any shard split and any ``top_k``, the sharded pipeline
  ``select_top_k`` per shard → ``merge_topk`` must reproduce the
  monolithic ``select_top_k`` exactly, including at exact rank-k score
  ties.
* **query cache** — a :class:`QueryCache` driven by an arbitrary
  get/put sequence must agree with a reference LRU model on every
  lookup, never exceed capacity, evict in recency order, and keep
  ``hits + misses == lookups`` and the eviction count exact;
  ``canonical_key`` must be invariant under tag permutation while staying
  multiset-sensitive.
"""

from __future__ import annotations

import tempfile
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from oracle import PARITY_TOL, DictLoopOracle, fanout_rank_batch
from repro.core.concepts import identity_concept_model
from repro.search.cache import QueryCache
from repro.search.engine import SearchEngine
from repro.search.matrix_space import MatrixConceptSpace, select_top_k
from repro.search.sharding import ShardRouter, merge_topk
from repro.search.vsm import RankedResult, mismatched_probes, rankings_match

# --------------------------------------------------------------------- #
# postings kernel == dict-loop oracle
# --------------------------------------------------------------------- #

#: A deliberately tiny vocabulary and count range, so duplicate documents
#: and exact score ties (including at the rank-k cut) are the common case.
KERNEL_TAGS = ("a", "b", "c", "d", "e")
#: Concept id no document can carry: pure out-of-vocabulary query mass.
UNSEEN_CONCEPT = len(KERNEL_TAGS)


TAG_BAGS = st.dictionaries(
    st.sampled_from(KERNEL_TAGS), st.integers(1, 2), min_size=1, max_size=3
)


@st.composite
def corpus_and_bags(draw):
    """Tag-bag documents, concept-bag queries, a shard mask, idf mode, k,
    and a mutation sequence: ``(kind, victim position, new tag bag)``."""
    documents = draw(st.lists(TAG_BAGS, min_size=2, max_size=10))
    queries = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, UNSEEN_CONCEPT), st.integers(0, 3), max_size=4
            ),
            min_size=1,
            max_size=4,
        )
    )
    on_shard = draw(
        st.lists(st.booleans(), min_size=len(documents), max_size=len(documents))
    )
    top_k = draw(st.integers(1, len(documents)))
    mutations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("add", "update", "remove")),
                st.integers(0, 9),
                TAG_BAGS,
            ),
            max_size=4,
        )
    )
    return documents, queries, on_shard, top_k, mutations


#: Drain "a" to df 0 (an update, then a removal), query it while dead, then
#: resurrect it — once through an update, once through an addition.
DRAIN_AND_RESURRECT = (
    [{"a": 1, "b": 1}, {"a": 2, "c": 1}, {"b": 2}],
    [{0: 1}, {0: 1, 1: 1}, {2: 1}],
    [True, False, True],
    2,
    [
        ("update", 0, {"b": 1}),
        ("remove", 0, {}),
        ("update", 0, {"d": 1}),
        ("update", 0, {"a": 1, "e": 2}),
        ("remove", 0, {}),
        ("add", 0, {"a": 2}),
    ],
)


def long_drift(num_batches: int = 240):
    """A seeded sequence that alternately adds and removes a document, so
    the corpus size — hence every term's idf — moves on every batch."""
    rng = np.random.default_rng(26)
    mutations = []
    for step in range(num_batches):
        kind = ("add", "remove")[step % 2]
        size = int(rng.integers(1, 4))
        bag = {
            KERNEL_TAGS[i]: int(rng.integers(1, 3))
            for i in rng.choice(len(KERNEL_TAGS), size=size, replace=False)
        }
        mutations.append((kind, int(rng.integers(0, 10)), bag))
    documents = [{"a": 1, "b": 2}, {"c": 1}, {"b": 1, "d": 1}, {"e": 2}, {"a": 1}]
    return documents, [{0: 1, 3: 1}, {4: 2}], [True, False] * 2 + [True], 3, mutations


LONG_DRIFT = long_drift()


def assert_statistics_match(space, scratch, oracle):
    """``space`` (a standalone space or a shard) has the from-scratch idf,
    norms and weights of every term and of its documents."""
    for concept in range(UNSEEN_CONCEPT + 1):
        assert abs(space.idf(concept) - oracle.idf(concept)) <= PARITY_TOL
    for doc_id in space.doc_ids:
        got = space.document_norm(doc_id) - scratch.document_norm(doc_id)
        assert abs(got) <= PARITY_TOL
        weights, want = space.document_weights(doc_id), oracle.resource_vector(doc_id)
        assert weights.keys() == want.keys()
        assert all(abs(weights[t] - want[t]) <= PARITY_TOL for t in want)


@given(corpus_and_bags())
@example(data=DRAIN_AND_RESURRECT)
@example(data=LONG_DRIFT)
def test_postings_kernel_matches_dict_loop_oracle(data):
    documents, queries, on_shard, k, mutations = data
    tag_bags = {f"r{i:02d}": bag for i, bag in enumerate(documents)}
    model = identity_concept_model(KERNEL_TAGS)
    reference = DictLoopOracle(model, tag_bags).space
    queries = queries + [{}, {UNSEEN_CONCEPT: 2}]
    members = {doc for doc, kept in zip(sorted(tag_bags), on_shard) if kept}

    want = [reference.rank(bag, top_k=None) for bag in queries]
    on_members = [
        [result for result in ranking if result.resource in members]
        for ranking in want
    ]
    built = MatrixConceptSpace.compile(reference)
    engine = SearchEngine(model, MatrixConceptSpace.compile(reference))
    with tempfile.TemporaryDirectory() as directory:
        built.save(directory)
        spaces = (
            (built, want),
            (MatrixConceptSpace.load(directory, mmap=True), want),
            (MatrixConceptSpace.load(directory), want),
            (built.slice_rows(sorted(members)), on_members),
        )
        for top_k in (1, k, len(documents) + 3, None):
            for space, rankings in spaces:
                got = space.rank_batch(queries, top_k=top_k)
                cut = [ranking[:top_k] for ranking in rankings]
                assert mismatched_probes(got, cut, top_k is not None) == []
        # A 3-shard save folds back into one space that ranks like the
        # engine it was saved from.
        engine.save(f"{directory}/engine", num_shards=3)
        reloaded = SearchEngine.load(f"{directory}/engine")
    saved = engine.matrix_space.rank_batch(queries)
    for got, cut in zip(reloaded.matrix_space.rank_batch(queries), saved):
        assert rankings_match(got, cut, tol=PARITY_TOL, truncated=False)

    # Any mutation sequence, one batch per step; every step is read, so it
    # refreshes.
    tag_queries = [
        [
            KERNEL_TAGS[concept] if concept < UNSEEN_CONCEPT else "unseen-tag"
            for concept, count in bag.items()
            for _ in range(count)
        ]
        for bag in queries
    ]
    for step, (kind, position, bag) in enumerate(mutations):
        victim = sorted(tag_bags)[position % len(tag_bags)]
        if kind == "remove" and len(tag_bags) > 1:
            del tag_bags[victim]
            built.remove_documents([victim])
            batch = {"removed": [victim]}
        elif kind == "add":
            victim = f"n{step}"
            tag_bags[victim] = bag
            built.add_documents({victim: model.concept_bag(bag)})
            batch = {"added": {victim: bag}}
        else:
            tag_bags[victim] = bag
            built.update_document(victim, model.concept_bag(bag))
            batch = {"updated": {victim: bag}}
        engine.apply_mutations(**batch)
        reloaded.apply_mutations(**batch)
        oracle = DictLoopOracle(model, tag_bags)
        scratch = MatrixConceptSpace.compile(oracle.space)
        engine.refresh()
        reloaded.refresh()
        shards = built.partition(3, ShardRouter(3).shard_of)
        for space in (built, engine.matrix_space, reloaded.matrix_space, *shards):
            assert_statistics_match(space, scratch, oracle.space)
        for top_k in (k, None):
            truncated = top_k is not None
            on_bags = [oracle.space.rank(bag, top_k=top_k) for bag in queries]
            got = built.rank_batch(queries, top_k=top_k)
            assert mismatched_probes(got, on_bags, truncated) == []
            got = fanout_rank_batch(built, 3, queries, top_k)
            assert mismatched_probes(got, on_bags, truncated) == []
            on_tags = oracle.rank_batch(tag_queries, top_k=top_k)
            for served in (engine, reloaded):
                got = served.rank_batch(tag_queries, top_k=top_k)
                assert mismatched_probes(got, on_tags, truncated) == []


# --------------------------------------------------------------------- #
# merge_topk == monolithic select_top_k
# --------------------------------------------------------------------- #

#: A deliberately tiny score pool so exact ties (including at the rank-k
#: boundary) appear in almost every generated corpus.
SCORE_POOL = (0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0)


@st.composite
def corpus_and_split(draw):
    """A scored corpus, a shard assignment and a top_k to cut at."""
    num_docs = draw(st.integers(min_value=1, max_value=32))
    num_shards = draw(st.integers(min_value=1, max_value=5))
    scores = draw(
        st.lists(
            st.sampled_from(SCORE_POOL),
            min_size=num_docs,
            max_size=num_docs,
        )
    )
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_shards - 1),
            min_size=num_docs,
            max_size=num_docs,
        )
    )
    top_k = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=num_docs + 3))
    )
    doc_ids = [f"r{i:03d}" for i in range(num_docs)]
    return doc_ids, scores, assignment, num_shards, top_k


def ranked_list(
    doc_ids: List[str], scores: List[float], top_k: Optional[int]
) -> List[RankedResult]:
    """What one space's ``rank`` emits: select_top_k over ascending ids."""
    ordered = sorted(range(len(doc_ids)), key=lambda i: doc_ids[i])
    positions = np.arange(len(ordered))
    score_array = np.array([scores[i] for i in ordered], dtype=np.float64)
    selected = select_top_k(positions, score_array, top_k)
    return [
        RankedResult(doc_ids[ordered[column]], float(score_array[column]), rank)
        for rank, column in enumerate(selected.tolist(), start=1)
    ]


@given(corpus_and_split())
def test_merge_topk_equals_monolithic_select(data):
    doc_ids, scores, assignment, num_shards, top_k = data
    want = ranked_list(doc_ids, scores, top_k)

    shard_lists = []
    for shard in range(num_shards):
        members = [i for i, home in enumerate(assignment) if home == shard]
        shard_lists.append(
            ranked_list(
                [doc_ids[i] for i in members],
                [scores[i] for i in members],
                top_k,
            )
        )
    got = merge_topk(shard_lists, top_k)

    assert [r.resource for r in got] == [r.resource for r in want]
    assert [r.score for r in got] == [r.score for r in want]
    assert [r.rank for r in got] == list(range(1, len(want) + 1))


@given(corpus_and_split())
def test_merge_topk_unbounded_keeps_every_positive_score(data):
    doc_ids, scores, assignment, num_shards, _top_k = data
    merged = merge_topk(
        [
            ranked_list(
                [doc_ids[i] for i, h in enumerate(assignment) if h == shard],
                [scores[i] for i, h in enumerate(assignment) if h == shard],
                None,
            )
            for shard in range(num_shards)
        ],
        None,
    )
    positive = [doc_ids[i] for i, score in enumerate(scores) if score > 0.0]
    assert sorted(r.resource for r in merged) == sorted(positive)


# --------------------------------------------------------------------- #
# QueryCache LRU invariants
# --------------------------------------------------------------------- #


class ModelLRU:
    """The executable specification QueryCache must agree with."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.entries: "OrderedDict[int, Tuple[int, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: int) -> Optional[Tuple[int, ...]]:
        if key not in self.entries:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key]

    def put(self, key: int, value: Tuple[int, ...]) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1


cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 11), st.integers(0, 99)),
        st.tuples(st.just("get"), st.integers(0, 11)),
    ),
    max_size=60,
)


@given(max_entries=st.integers(min_value=1, max_value=8), ops=cache_ops)
def test_query_cache_matches_lru_model(max_entries, ops):
    cache = QueryCache(max_entries=max_entries)
    model = ModelLRU(max_entries)
    lookups = 0
    for op in ops:
        if op[0] == "put":
            _, key, value = op
            payload = (value,)
            cache.put(key, payload)
            model.put(key, payload)
        else:
            _, key = op
            lookups += 1
            got = cache.get(key)
            want = model.get(key)
            # Agreement on both presence and payload checks LRU *eviction
            # order*, not just capacity: a wrongly evicted key would miss
            # where the model hits.
            assert (got is None) == (want is None)
            if want is not None:
                assert tuple(got) == want
        assert len(cache) <= max_entries
        assert len(cache) == len(model.entries)
    stats = cache.stats()
    assert stats["hits"] == model.hits
    assert stats["misses"] == model.misses
    assert stats["hits"] + stats["misses"] == lookups
    assert stats["evictions"] == model.evictions
    expected_rate = model.hits / lookups if lookups else 0.0
    assert stats["hit_rate"] == expected_rate


tag_lists = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=6
)


@given(
    tags=tag_lists,
    top_k=st.one_of(st.none(), st.integers(1, 20)),
    epoch=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_canonical_key_invariant_under_permutation(tags, top_k, epoch, seed):
    rng = np.random.default_rng(seed)
    permuted = [tags[i] for i in rng.permutation(len(tags))]
    assert QueryCache.canonical_key(
        permuted, top_k, epoch
    ) == QueryCache.canonical_key(tags, top_k, epoch)


@given(tags=tag_lists, top_k=st.one_of(st.none(), st.integers(1, 20)))
def test_canonical_key_is_multiset_and_context_sensitive(tags, top_k):
    key = QueryCache.canonical_key(tags, top_k, 0)
    if tags:
        # Duplicating one tag changes the multiset, so the key must move.
        assert QueryCache.canonical_key(tags + [tags[0]], top_k, 0) != key
    assert QueryCache.canonical_key(tags, top_k, 1) != key
    other_k = 1 if top_k != 1 else 2
    assert QueryCache.canonical_key(tags, other_k, 0) != key
