"""The user-facing search engine: tag queries in, ranked resources out.

:class:`SearchEngine` glues together a :class:`~repro.core.concepts.ConceptModel`
(how tags map to concepts) and N >= 1 row shards of one
:class:`~repro.search.matrix_space.MatrixConceptSpace` (how resources are
weighted).  It implements the *online* component of the paper's Figure 1:
transform the query's tags into concepts, compute cosine similarities,
return a ranked list.

:meth:`SearchEngine.build` indexes a folksonomy into one shard;
:meth:`SearchEngine.from_engine` re-partitions that along a
:class:`~repro.search.sharding.ShardRouter`.  With more than one shard a
query (or a whole ``rank_batch`` batch) is scored shard by shard on the
calling thread and the per-shard top-k lists are heap-merged by
:func:`~repro.search.sharding.merge_topk`; with one shard its ranking is
returned as is.  The postings kernel is short numpy calls under one GIL,
so in-process sharding buys capacity, not speed —
:class:`~repro.search.shardpool.ShardProcessPool` is the parallel reader,
this class the mutation coordinator and the parity reference.

Mutations route each delta to the owning shard; the refresh is then
coordinated — document frequencies are summed over the shards, one idf
vector is derived and applied everywhere — so folded-in rankings match a
from-scratch rebuild to 1e-9 at every shard count.  An optional
:class:`~repro.search.cache.QueryCache` sits in front of scoring, keyed on
the canonical tag multiset + epoch and cleared on every mutation batch.

Concurrency
-----------
Queries (:meth:`SearchEngine.search` / :meth:`SearchEngine.rank_batch` /
:meth:`SearchEngine.score`) hold a
:class:`~repro.search.concurrency.ReadWriteLock` in shared mode over a
*fresh* (non-stale) index, while mutations and the refresh they trigger
(:meth:`SearchEngine.apply_mutations` / :meth:`SearchEngine.refresh`) hold
it exclusively.  A query arriving while mutations are pending first drives
the refresh through the write path, then re-acquires read access — so a
reader never observes a shard mid-refresh, and
:meth:`SearchEngine.snapshot_rank_batch` hands back results together with
the exact epoch they were computed against.

Persistence
-----------
One layout at every shard count: a ``shard-NNNN/`` directory per shard (the
space's arrays + JSON pair) plus ``shard_manifest.json`` carrying the
router, the concept model and the serving metadata.  :meth:`SearchEngine.load`
restores the whole engine; :meth:`SearchEngine.load_shard` one shard of it
as a read-only view for an N-process deployment.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.concepts import Concept, ConceptModel
from repro.search.cache import DEFAULT_MAX_ENTRIES, QueryCache
from repro.search.concurrency import ReadWriteLock
from repro.search.incremental import RefreshPolicy, StalenessReport
from repro.search.matrix_space import (
    MatrixConceptSpace,
    refresh_spaces,
    validate_top_k,
)
from repro.search.sharding import (
    SHARD_MANIFEST_FILENAME,
    SHARD_MANIFEST_VERSION,
    ShardRouter,
    merge_topk,
    read_shard_manifest,
)
from repro.search.vsm import RankedResult, RankEngine
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError

_MUTATION_KINDS = ("added", "removed", "updated")


def _mutation_counts(payload: Optional[Mapping[str, int]]) -> Dict[str, int]:
    """``{added, removed, updated}`` counters from a (partial) payload."""
    payload = payload or {}
    return {kind: int(payload.get(kind, 0)) for kind in _MUTATION_KINDS}


class SearchEngine(RankEngine):
    """Online query processing over N >= 1 shards of a concept-space index.

    Shards carry corpus-wide statistics; the engine is their coordinator —
    the only writer that refreshes them (see
    :func:`~repro.search.matrix_space.refresh_spaces`).  An engine
    holding fewer shards than its router places onto (what
    :meth:`load_shard` returns) is a read-only partial view: it ranks its
    own rows with the corpus-wide statistics and refuses mutation.

    Instances come from :meth:`build`, :meth:`from_engine`, :meth:`load`
    and :meth:`load_shard`; the engine owns no threads or processes, so
    :meth:`close` is the inherited no-op.

    Attributes
    ----------
    concept_model:
        Maps tags (of resources and of queries) to concept ids.
    shards:
        The tf-idf spaces queries are scored against, in router order.
    router:
        Places every resource on exactly one shard.
    name:
        Identifier used in experiment reports (e.g. ``"cubelsi"``).
    refresh_policy:
        When accumulated incremental mutations make a full offline refit
        advisable (see :mod:`repro.search.incremental`).
    epoch:
        Monotone mutation counter; bumped once per successful mutation
        batch and persisted across save/load.
    cache:
        The query result cache, or ``None``.
    """

    #: Assigned per instance; declared here to satisfy the abstract property.
    epoch: int = 0

    def __init__(
        self,
        concept_model: ConceptModel,
        shards: Sequence[MatrixConceptSpace],
        router: ShardRouter,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
        epoch: int = 0,
        cache: Optional[QueryCache] = None,
        baseline_resources: Optional[int] = None,
        mutation_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.shards: Tuple[MatrixConceptSpace, ...] = tuple(shards)
        if len(self.shards) not in (1, router.num_shards):
            raise ConfigurationError(
                f"router places onto {router.num_shards} shards but "
                f"{len(self.shards)} shard spaces were given"
            )
        if len(self.shards) > 1:
            for index, shard in enumerate(self.shards):
                for doc_id in shard.doc_ids:
                    if router.shard_of(doc_id) != index:
                        raise ConfigurationError(
                            f"document {doc_id!r} sits on shard {index} but the "
                            f"router places it on shard {router.shard_of(doc_id)}"
                        )
        self.concept_model = concept_model
        self.router = router
        self.name = name
        self.refresh_policy = refresh_policy or RefreshPolicy()
        self.epoch = int(epoch)
        self.cache = cache
        self._baseline_resources = (
            sum(self.shard_sizes())
            if baseline_resources is None
            else int(baseline_resources)
        )
        self._mutations = _mutation_counts(mutation_counts)
        self._pending_batches = 0
        self._rw = ReadWriteLock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        folksonomy: Folksonomy,
        concept_model: ConceptModel,
        smooth_idf: bool = False,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
    ) -> "SearchEngine":
        """Build a one-shard engine by indexing every resource of ``folksonomy``.

        Each resource's bag of tags is translated to a bag of concepts with
        ``concept_model`` and indexed with tf-idf weights.
        """
        resource_bags: Dict[str, Dict[int, float]] = {}
        for resource in folksonomy.resources:
            tag_bag = folksonomy.tag_bag(resource)
            resource_bags[resource] = concept_model.concept_bag(
                tag_bag, allocate=True
            )
        return cls(
            concept_model=concept_model,
            shards=[MatrixConceptSpace.from_bags(resource_bags, smooth_idf)],
            router=ShardRouter(1),
            name=name,
            refresh_policy=refresh_policy,
        )

    @classmethod
    def from_engine(
        cls,
        engine: "SearchEngine",
        num_shards: Optional[int] = None,
        router: Optional[ShardRouter] = None,
        cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> "SearchEngine":
        """Re-partition a one-shard engine along a router's placement.

        The engine's space is sliced row-wise; epoch, staleness counters
        and refresh policy carry over, so the new engine reports the same
        drift the source does.  ``cache_entries`` sizes the query result
        cache (``0``/``None`` disables it).
        """
        if router is None:
            if num_shards is None:
                raise ConfigurationError(
                    "from_engine needs num_shards or an explicit router"
                )
            router = ShardRouter(num_shards)
        elif num_shards is not None and router.num_shards != num_shards:
            raise ConfigurationError(
                f"router places onto {router.num_shards} shards but "
                f"num_shards={num_shards} was requested"
            )
        with engine._read_fresh():
            shards = engine.matrix_space.partition(
                router.num_shards, router.shard_of
            )
            return cls(
                concept_model=engine.concept_model,
                shards=shards,
                router=router,
                name=engine.name,
                refresh_policy=engine.refresh_policy,
                epoch=engine.epoch,
                cache=QueryCache(cache_entries) if cache_entries else None,
                baseline_resources=engine._baseline_resources,
                mutation_counts=engine._mutations,
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def matrix_space(self) -> MatrixConceptSpace:
        """The one space of a one-shard engine."""
        if len(self.shards) != 1:
            raise ConfigurationError(
                f"this engine holds {len(self.shards)} shards; matrix_space "
                "is only defined for a one-shard engine"
            )
        return self.shards[0]

    def shard_sizes(self) -> List[int]:
        """Documents per shard, pending mutations included."""
        return [shard.pending_num_documents for shard in self.shards]

    def _shard_of(self, resource: str) -> int:
        """Index into :attr:`shards` of the space that owns ``resource``."""
        if len(self.shards) == 1:
            return 0
        return self.router.shard_of(resource)

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    @contextmanager
    def _read_fresh(self) -> Iterator[None]:
        """Shared (reader) access to a guaranteed-fresh index.

        If mutations are pending, the refresh is driven through the write
        path first; the loop re-checks after acquiring read access because
        another writer may have mutated in between.  Within the ``with``
        body no mutation or refresh can run, so the epoch and every
        shard's arrays are one consistent snapshot.
        """
        while True:
            self._rw.acquire_read()
            try:
                if not self._needs_refresh():
                    yield
                    return
            finally:
                self._rw.release_read()
            self.refresh()

    def query_concepts(self, query_tags: Sequence[str]) -> Dict[int, float]:
        """The query's bag of concepts (step "Given Query" of Figure 1).

        An empty tag list (or one whose tags map to no known concept) yields
        an empty bag; callers treat that as "matches nothing".
        """
        if not query_tags:
            return {}
        return self.concept_model.concept_bag_from_tags(query_tags)

    def search(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[RankedResult]:
        """Rank all resources against a tag query.

        Resources whose concept vectors share no concept with the query are
        omitted (their cosine similarity is zero).  Empty queries and queries
        of entirely unknown tags return an empty list.
        """
        return self.rank_batch([query_tags], top_k=top_k)[0]

    def rank_batch(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> List[List[RankedResult]]:
        """Rank a whole batch of tag queries in one pass over every shard.

        Cache hits (canonical tag multiset + ``top_k`` + epoch) are served
        without touching the shards; misses — deduplicated within the
        batch — are scored against each shard's postings and fill the
        cache.  The i-th result list always corresponds to the i-th query,
        with empty/unmatchable queries producing empty lists.  An empty
        batch yields an empty list, and an invalid ``top_k`` is rejected
        up front even when no query is scorable.
        """
        validate_top_k(top_k)
        if not queries:
            return []
        with self._read_fresh():
            return self._rank_batch_in_lock(queries, top_k)

    def snapshot_rank_batch(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> Tuple[int, List[List[RankedResult]]]:
        """Epoch-consistent batched ranking: ``(epoch, results)``.

        The epoch is read inside the same reader-held region that scores
        the batch, so the returned results are guaranteed to reflect
        exactly that index state — no mutation can land in between.  This
        is the read the workload replay subsystem uses to audit epoch
        monotonicity under concurrent traffic.
        """
        validate_top_k(top_k)
        queries = [list(tags) for tags in queries]
        with self._read_fresh():
            if not queries:
                return self.epoch, []
            return self.epoch, self._rank_batch_in_lock(queries, top_k)

    def _rank_batch_in_lock(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int],
    ) -> List[List[RankedResult]]:
        """The :meth:`rank_batch` body; caller holds the read lock.

        The tag -> concept mapping happens inside the lock: a racing
        mutation batch may allocate dynamic concepts, and a bag must
        describe the same index state it is scored against.
        """
        bags = [self.query_concepts(tags) for tags in queries]
        if self.cache is None:
            # An empty bag ranks to an empty list in the space itself.
            return self._rank_bags(bags, top_k)

        results: List[List[RankedResult]] = [[] for _ in queries]
        miss_positions: Dict[Hashable, List[int]] = {}
        miss_bags: Dict[Hashable, Mapping[int, float]] = {}
        for position, (tags, bag) in enumerate(zip(queries, bags)):
            if not bag:
                continue
            key = QueryCache.canonical_key(tags, top_k, self.epoch)
            if key in miss_positions:  # duplicate within this batch
                miss_positions[key].append(position)
                continue
            hit = self.cache.get(key)
            if hit is not None:
                results[position] = hit
                continue
            miss_positions[key] = [position]
            miss_bags[key] = bag
        if miss_positions:
            ranked = self._rank_bags(
                [miss_bags[key] for key in miss_positions], top_k
            )
            for key, result in zip(miss_positions, ranked):
                self.cache.put(key, result)
                for position in miss_positions[key]:
                    results[position] = list(result)
        return results

    def _rank_bags(
        self,
        bags: Sequence[Mapping[int, float]],
        top_k: Optional[int],
    ) -> List[List[RankedResult]]:
        """Score concept bags on every shard; caller holds the read lock."""
        if len(self.shards) == 1:
            return self.shards[0].rank_batch(bags, top_k)
        per_shard = [shard.rank_batch(bags, top_k) for shard in self.shards]
        return [
            merge_topk(
                [shard_lists[position] for shard_lists in per_shard], top_k
            )
            for position in range(len(bags))
        ]

    def ranked_resources(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[str]:
        """Just the resource ids of :meth:`search`, in rank order."""
        return [result.resource for result in self.search(query_tags, top_k=top_k)]

    def score(self, query_tags: Sequence[str], resource: str) -> float:
        """Cosine similarity between a query and a single resource."""
        with self._read_fresh():
            concept_bag = self.query_concepts(query_tags)
            if not concept_bag:
                return 0.0
            shard = self.shards[self._shard_of(resource)]
            return shard.cosine(concept_bag, resource)

    def explain(self, query_tags: Sequence[str], resource: str) -> Dict[str, object]:
        """A debugging breakdown of how a resource scored for a query.

        The document's weights come from the shard that owns it; the
        query's from any shard (idf is corpus-wide).  Vectors and the
        cosine are read inside one reader-held region (the cosine is
        computed inline — :meth:`score` would re-enter the non-reentrant
        lock), so the breakdown reflects a single index state even while
        mutations race.
        """
        with self._read_fresh():
            shard = self.shards[self._shard_of(resource)]
            concept_bag = self.query_concepts(query_tags)
            query_vector = shard.query_weights(concept_bag)
            resource_vector = shard.document_weights(resource)
            cosine = shard.cosine(concept_bag, resource)
        overlap = {
            concept: (query_vector.get(concept, 0.0), resource_vector.get(concept, 0.0))
            for concept in set(query_vector) | set(resource_vector)
        }
        return {
            "query_tags": list(query_tags),
            "query_concepts": concept_bag,
            "cosine": cosine,
            "per_concept_weights": overlap,
        }

    # ------------------------------------------------------------------ #
    # Incremental updates (fold-in through the frozen concept model,
    # deltas routed to the owning shard)
    # ------------------------------------------------------------------ #
    @property
    def is_mutable(self) -> bool:
        """Whether this engine holds every shard (a partial view is read-only)."""
        return len(self.shards) == self.router.num_shards

    def has_resource(self, resource: str) -> bool:
        """Whether ``resource`` is currently indexed (pending ops included)."""
        return self.shards[self._shard_of(resource)].has_document(resource)

    @property
    def num_indexed_resources(self) -> int:
        """Resources currently indexed, pending mutations included.

        Deliberately does *not* trigger the lazy refresh — staleness
        accounting after a mutation must stay O(1).
        """
        return sum(self.shard_sizes())

    def _require_every_shard(self, action: str) -> None:
        if len(self.shards) < self.router.num_shards:
            raise ConfigurationError(
                f"this engine is a read-only view of {len(self.shards)} of "
                f"the index's {self.router.num_shards} shards (idf and "
                f"num_resources are corpus-wide) and cannot {action}; use "
                "an engine that holds every shard"
            )

    def _prepare_mutation_batch(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]],
        updated: Optional[Mapping[str, Mapping[str, float]]],
        removed: Optional[Iterable[str]],
    ):
        """Validation + frozen-model fold-in for one mutation batch.

        Buckets are normalized (dicts copied, removals deduplicated),
        overlapping buckets and unknown/already-indexed resources are
        rejected, a batch that would empty the corpus is rejected, and only
        then is every tag bag mapped through the *frozen* concept model
        with dynamic-concept allocation.  Returns ``(added_bags,
        updated_bags, removed)`` ready to push into the shards, or ``None``
        for an empty (no-op) batch.
        """
        added = dict(added or {})
        updated = dict(updated or {})
        removed = list(dict.fromkeys(removed or []))

        overlapping = (set(added) & set(updated)) | (
            (set(added) | set(updated)) & set(removed)
        )
        if overlapping:
            raise ConfigurationError(
                f"resources appear in multiple mutation buckets: "
                f"{sorted(overlapping)[:3]}"
            )
        for resource in added:
            if self.has_resource(resource):
                raise ConfigurationError(
                    f"resource {resource!r} is already indexed; update it instead"
                )
        for resource in list(updated) + removed:
            if not self.has_resource(resource):
                raise ConfigurationError(f"resource {resource!r} is not indexed")
        if (
            removed
            and self.num_indexed_resources + len(added) - len(removed) < 1
        ):
            raise ConfigurationError(
                "cannot remove every resource; rebuild the engine instead"
            )
        if not added and not updated and not removed:
            return None

        added_bags = {
            resource: self.concept_model.concept_bag(bag, allocate=True)
            for resource, bag in added.items()
        }
        updated_bags = {
            resource: self.concept_model.concept_bag(bag, allocate=True)
            for resource, bag in updated.items()
        }
        return added_bags, updated_bags, removed

    def apply_mutations(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]] = None,
        updated: Optional[Mapping[str, Mapping[str, float]]] = None,
        removed: Optional[Iterable[str]] = None,
    ) -> StalenessReport:
        """Apply one batch of resource mutations; bumps the epoch once.

        All tag bags are mapped through the *frozen* concept model
        (LSI-style fold-in) and pushed into the shard the router owns them
        to; idf and norms recompute lazily on the next read and the query
        cache is invalidated.  Everything is validated before anything is
        applied (a read-only partial view refuses before dynamic-concept
        allocation), so a rejected batch has no side effects, and additions
        land before removals so a batch that swaps most of the corpus never
        looks momentarily empty.  A shard may legally drain empty as long as
        the corpus keeps at least one resource.
        """
        self._require_every_shard("mutate")
        with self._rw.write():
            batch = self._prepare_mutation_batch(added, updated, removed)
            if batch is None:
                return self.staleness()
            added_bags, updated_bags, removed = batch
            routed: List[Dict[str, object]] = [
                {"added": {}, "updated": {}, "removed": []} for _ in self.shards
            ]
            for resource, bag in added_bags.items():
                routed[self._shard_of(resource)]["added"][resource] = bag
            for resource, bag in updated_bags.items():
                routed[self._shard_of(resource)]["updated"][resource] = bag
            for resource in removed:
                routed[self._shard_of(resource)]["removed"].append(resource)

            for shard, delta in zip(self.shards, routed):
                if delta["added"]:
                    shard.add_documents(delta["added"])
                for resource, bag in delta["updated"].items():
                    shard.update_document(resource, bag)
                if delta["removed"]:
                    shard.remove_documents(delta["removed"], allow_empty=True)

            self.epoch += 1
            self._mutations["added"] += len(added_bags)
            self._mutations["updated"] += len(updated_bags)
            self._mutations["removed"] += len(removed)
            self._pending_batches += 1
            if self.cache is not None:
                self.cache.clear()
            return self.staleness()

    def add_resources(
        self, tag_bags: Mapping[str, Mapping[str, float]]
    ) -> StalenessReport:
        """Fold new resources into the index without an offline refit.

        Raises if any resource is already indexed (use
        :meth:`update_resource`).
        """
        return self.apply_mutations(added=tag_bags)

    def remove_resources(self, resources: Iterable[str]) -> StalenessReport:
        """Drop resources from the index (lazily refreshed)."""
        return self.apply_mutations(removed=resources)

    def update_resource(
        self, resource: str, tag_bag: Mapping[str, float]
    ) -> StalenessReport:
        """Replace one resource's tag bag."""
        return self.apply_mutations(updated={resource: tag_bag})

    def _needs_refresh(self) -> bool:
        """Whether pending mutations await the lazy statistics refresh."""
        return any(shard.is_stale for shard in self.shards)

    def refresh(self) -> bool:
        """Coordinated refresh across every shard; True if work was done.

        :func:`~repro.search.matrix_space.refresh_spaces` over the shards:
        pending mutations splice the postings they touch, the shards'
        maintained document frequencies are summed and one corpus-wide idf
        vector is shared by every shard — exactly the statistics a
        from-scratch build over the whole corpus computes.  Runs under the
        exclusive side of the engine's read/write lock, so no concurrent
        query can observe a shard mid-refresh; readers arriving while
        mutations are pending drive this refresh themselves before scoring.
        """
        if not self._needs_refresh():
            return False
        with self._rw.write():
            return self._refresh_in_write_lock()

    def _refresh_in_write_lock(self) -> bool:
        if not self._needs_refresh():  # another writer refreshed meanwhile
            return False
        self._require_every_shard("refresh")
        refresh_spaces(self.shards)
        self._pending_batches = 0
        return True

    def staleness(self) -> StalenessReport:
        """How far the engine has drifted since its last full (re)fit (O(1))."""
        counts, baseline = self._mutations, self._baseline_resources
        return StalenessReport(
            epoch=self.epoch,
            resources_added=counts["added"],
            resources_removed=counts["removed"],
            resources_updated=counts["updated"],
            baseline_resources=baseline,
            current_resources=self.num_indexed_resources,
            refit_due=self.refresh_policy.refit_due(
                sum(counts.values()), baseline
            ),
            fold_in_due=self.refresh_policy.fold_in_due(self._pending_batches),
        )

    def health(self) -> Dict[str, object]:
        """Operational snapshot: identity, epoch and both drift verdicts."""
        return {
            "name": self.name,
            "epoch": self.epoch,
            "num_shards": len(self.shards),
            "staleness": self.staleness().as_dict(),
        }

    # ------------------------------------------------------------------ #
    # Persistence (one array dir per shard + one manifest)
    # ------------------------------------------------------------------ #
    def save(
        self, directory: Union[str, Path], mmap_ready: bool = False
    ) -> Path:
        """Persist the engine: per-shard dirs + a manifest.

        Each shard saves its arrays + JSON pair under ``shard-NNNN/``;
        ``shard_manifest.json`` records the router, the concept model and
        the serving metadata.  Dynamic (``own-concept``) concepts travel
        with the manifest: their columns live in the persisted count
        arrays, so dropping the tag -> id map would let a restored serving
        process reallocate a live column id to a different tag.

        ``mmap_ready=True`` writes each shard in the raw ``.npy`` layout
        (see :meth:`MatrixConceptSpace.save`) so ``load_shard``'s
        ``mmap=True`` — and hence the process pool's near-instant worker
        start — is available; the default keeps the compact ``.npz``.
        """
        self._require_every_shard("save")
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with self._read_fresh():
            shard_entries = []
            for index, shard in enumerate(self.shards):
                shard_dir = f"shard-{index:04d}"
                shard.save(path / shard_dir, mmap_ready=mmap_ready)
                shard_entries.append(
                    {
                        "directory": shard_dir,
                        "num_documents": shard.pending_num_documents,
                    }
                )
            payload = {
                "format_version": SHARD_MANIFEST_VERSION,
                "name": self.name,
                "router": self.router.to_json(),
                "shards": shard_entries,
                "concept_model": concept_model_to_json(self.concept_model),
                "epoch": self.epoch,
                "baseline_resources": self._baseline_resources,
                "mutations": dict(self._mutations),
                "refresh_policy": self.refresh_policy.as_dict(),
                "cache_entries": (
                    self.cache.max_entries if self.cache is not None else 0
                ),
            }
        (path / SHARD_MANIFEST_FILENAME).write_text(
            json.dumps(payload), encoding="utf-8"
        )
        # Overwriting a directory previously saved with more shards must
        # not leave the extra shard-NNNN dirs behind: anything enumerating
        # shard dirs instead of the manifest would see dead arrays.
        for stale_dir in path.glob("shard-[0-9]*"):
            if not stale_dir.is_dir():
                continue
            try:
                index = int(stale_dir.name.split("-", 1)[1])
            except ValueError:
                continue
            if index >= len(self.shards):
                shutil.rmtree(stale_dir)
        return path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "SearchEngine":
        """Restore a whole engine saved by :meth:`save`."""
        path = Path(directory)
        payload = read_shard_manifest(path)
        shard_entries = payload["shards"]
        cache_entries = int(payload.get("cache_entries") or 0)
        return cls(
            concept_model=concept_model_from_json(payload["concept_model"]),
            shards=[
                MatrixConceptSpace.load(path / entry["directory"])
                for entry in shard_entries
            ],
            router=ShardRouter.from_json(payload["router"]),
            name=payload["name"],
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
            cache=QueryCache(cache_entries) if cache_entries else None,
            baseline_resources=payload.get("baseline_resources"),
            mutation_counts=payload.get("mutations"),
        )

    @classmethod
    def load_shard(
        cls, directory: Union[str, Path], shard_id: int, mmap: bool = False
    ) -> "SearchEngine":
        """Load one shard of a saved engine as a read-only partial view.

        The returned engine ranks only the shard's resources, but with the
        corpus-wide statistics persisted in the shard's arrays — its scores
        equal the full engine's scores for those resources, so an N-process
        deployment (e.g. :class:`~repro.search.shardpool.ShardProcessPool`,
        one worker process per shard) can serve one shard per process
        behind any top-k merging frontend.  ``mmap=True`` memory-maps the
        shard's arrays instead of reading them into RAM — requires a save
        made with ``mmap_ready=True``.  Unless the save has a single shard,
        mutations are rejected (statistics are corpus-wide); route them
        through an engine that holds every shard.
        """
        path = Path(directory)
        payload = read_shard_manifest(path)
        shard_entries = payload["shards"]
        if not 0 <= shard_id < len(shard_entries):
            raise ConfigurationError(
                f"shard_id {shard_id} outside [0, {len(shard_entries)})"
            )
        entry = shard_entries[shard_id]
        return cls(
            concept_model=concept_model_from_json(payload["concept_model"]),
            shards=[MatrixConceptSpace.load(path / entry["directory"], mmap=mmap)],
            router=ShardRouter.from_json(payload["router"]),
            name=f"{payload['name']}-shard{shard_id}",
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
        )

    def __repr__(self) -> str:
        return (
            f"SearchEngine(name={self.name!r}, "
            f"num_shards={len(self.shards)}, "
            f"resources={self.num_indexed_resources}, epoch={self.epoch})"
        )


def concept_model_to_json(model: ConceptModel) -> Dict[str, object]:
    """JSON payload for a concept model (the manifest's ``concept_model``)."""
    return {
        "unknown_policy": model.unknown_policy,
        "concepts": [
            {"id": concept.concept_id, "tags": list(concept.tags)}
            for concept in model.concepts
        ],
        "dynamic_concepts": dict(model._dynamic_concepts),
    }


def concept_model_from_json(payload: Dict[str, object]) -> ConceptModel:
    """Inverse of :func:`concept_model_to_json`."""
    concepts = [
        Concept(concept_id=int(entry["id"]), tags=tuple(entry["tags"]))
        for entry in payload["concepts"]  # type: ignore[union-attr]
    ]
    tag_to_concept = {
        tag: concept.concept_id for concept in concepts for tag in concept.tags
    }
    dynamic = {
        str(tag): int(concept_id)
        for tag, concept_id in (payload.get("dynamic_concepts") or {}).items()
    }
    return ConceptModel(
        concepts=concepts,
        tag_to_concept=tag_to_concept,
        unknown_policy=str(payload["unknown_policy"]),
        _dynamic_concepts=dynamic,
    )
