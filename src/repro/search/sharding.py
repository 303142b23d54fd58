"""Sharded online serving: partitioned shards, fan-out/merge, result cache.

The monolithic :class:`~repro.search.engine.SearchEngine` holds one resource
matrix, which caps corpus size and query throughput on a single core.  This
module splits the *online* half of the paper's Figure 1 into independent
workers plus a merge step (the streaming-actor decomposition):

* :class:`ShardRouter` — a stable hash (CRC-32) of the resource id places
  every resource on exactly one of N shards, identically in every process
  that ever routes for the same corpus.
* :meth:`MatrixConceptSpace.partition` — slices the compiled CSR space into
  per-shard row subsets that keep the *corpus-wide* vocabulary, idf vector
  and ``num_resources``, so each shard scores its rows bit-for-bit like the
  monolithic space does (``has_external_stats``).
* :class:`ShardedSearchEngine` — fans a query (or a whole ``rank_batch``
  batch) out to all shards on a thread pool (the underlying BLAS/scipy
  matmuls release the GIL), then :func:`merge_topk` heap-merges the
  per-shard top-k lists under the engine-wide deterministic tie-break
  (descending score, ascending resource id).
* :class:`~repro.search.cache.QueryCache` — an LRU layered in front of
  scoring, keyed on the canonical tag multiset + index epoch and cleared on
  every mutation batch.

Mutations (``add/remove/update_resource``) route each delta to the owning
shard; the engine then coordinates the refresh across shards — global
document frequencies are summed, one idf vector is derived and applied
everywhere — so folded-in rankings still match a monolithic rebuild to
1e-9 (``tests/test_sharding.py`` is the parity suite).

Queries and mutations may arrive from many serving threads concurrently:
reads (``rank_batch``/``search``/``score``) hold a
:class:`~repro.search.concurrency.ReadWriteLock` in shared mode over a
guaranteed-fresh index, while ``apply_mutations`` and the coordinated
``refresh`` hold it exclusively — a fan-out can never observe a shard
mid-refresh, and ``snapshot_rank_batch`` returns results tagged with the
exact epoch they were computed against.

Persistence uses a sharded on-disk layout: one directory per shard (the
usual arrays + JSON pair) plus a ``shard_manifest.json`` carrying the
router, the concept model and the serving metadata, so an N-process
deployment can each :meth:`ShardedSearchEngine.load_shard` one shard.
``save(..., mmap_ready=True)`` writes shards in the raw ``.npy`` layout
that :meth:`load_shard`'s ``mmap=True`` memory-maps — the zero-copy open
the process-per-shard pool (:mod:`repro.search.shardpool`) uses to start
workers near-instantly.

Note the thread-pool fan-out here shares one Python interpreter: scipy's
sparse matmul holds the GIL for most of a ``rank_batch``, so on CPython
the threads mostly serialize and multi-shard serving can come out
*slower* than the monolith (the recorded 0.43x four-shard "speedup").
For real parallel speedup, put each shard in its own process with
:class:`~repro.search.shardpool.ShardProcessPool`; this in-process
engine remains the mutation coordinator and the parity reference.
"""

from __future__ import annotations

import heapq
import json
import shutil
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
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

from repro.core.concepts import ConceptModel
from repro.search.cache import DEFAULT_MAX_ENTRIES, QueryCache
from repro.search.concurrency import FreshReadMixin, ReadWriteLock
from repro.search.engine import (
    SearchEngine,
    concept_model_from_json,
    concept_model_to_json,
    prepare_mutation_batch,
)
from repro.search.incremental import (
    RefreshPolicy,
    StalenessReport,
    aggregate_reports,
)
from repro.search.matrix_space import (
    MatrixConceptSpace,
    idf_from_document_frequency,
    validate_top_k,
)
from repro.search.vsm import RankedResult
from repro.utils.errors import ConfigurationError, NotFittedError

#: Manifest file of a sharded save directory.
SHARD_MANIFEST_FILENAME = "shard_manifest.json"

#: Bumped whenever the sharded on-disk layout changes incompatibly.
SHARD_MANIFEST_VERSION = 1


class ShardRouter:
    """Stable placement of resources onto shards.

    Routing hashes the resource id with CRC-32 — deterministic across
    Python processes and runs (unlike the salted builtin ``hash``) — so the
    shard that indexed a resource is always the shard that serves, updates
    and removes it, in every process that loads the same manifest.  CRC-32
    spreads folksonomy-style ids (short strings with numeric suffixes)
    close to uniformly, which keeps the partition balanced without any
    shared placement table.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        return self._num_shards

    def shard_of(self, resource: str) -> int:
        """The shard index owning ``resource`` (stable across processes)."""
        return zlib.crc32(resource.encode("utf-8")) % self._num_shards

    def assign(self, resources: Iterable[str]) -> List[List[str]]:
        """Bucket ``resources`` per shard, preserving the given order."""
        buckets: List[List[str]] = [[] for _ in range(self._num_shards)]
        for resource in resources:
            buckets[self.shard_of(resource)].append(resource)
        return buckets

    def to_json(self) -> Dict[str, object]:
        return {"algorithm": "crc32", "num_shards": self._num_shards}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ShardRouter":
        algorithm = payload.get("algorithm")
        if algorithm != "crc32":
            raise ConfigurationError(
                f"unsupported shard routing algorithm {algorithm!r}"
            )
        return cls(int(payload["num_shards"]))

    def __repr__(self) -> str:
        return f"ShardRouter(num_shards={self._num_shards})"


def merge_topk(
    shard_results: Sequence[Sequence[RankedResult]],
    top_k: Optional[int] = None,
) -> List[RankedResult]:
    """Heap-merge per-shard ranked lists into one global top-k.

    Every input list must already be sorted by the engine-wide total order
    — descending score, ties by ascending resource id — which is exactly
    what :func:`~repro.search.matrix_space.select_top_k` produces.  Because
    that order is *strict* (resource ids are globally unique) the k-way
    heap merge reproduces the monolithic ranking exactly, including when
    scores tie at the rank-k boundary: each shard already widened its own
    boundary tie group through
    :func:`~repro.search.matrix_space.boundary_tie_candidates` and kept its
    lowest-id members, so the global cut below keeps the globally lowest
    ids of the tie.  Ranks are renumbered to the merged positions.
    """
    validate_top_k(top_k)
    lists = [results for results in shard_results if results]
    if not lists:
        return []
    if len(lists) == 1:
        sliced = lists[0] if top_k is None else lists[0][:top_k]
        return [
            RankedResult(result.resource, result.score, position)
            for position, result in enumerate(sliced, start=1)
        ]
    out: List[RankedResult] = []
    ordered = heapq.merge(
        *lists, key=lambda result: (-result.score, result.resource)
    )
    for result in ordered:
        if top_k is not None and len(out) >= top_k:
            break
        out.append(RankedResult(result.resource, result.score, len(out) + 1))
    return out


class ShardedSearchEngine(FreshReadMixin):
    """Online query processing over N partitioned concept-space shards.

    Mirrors the :class:`~repro.search.engine.SearchEngine` query and
    mutation API (so :class:`~repro.core.pipeline.OfflineIndex` and the
    snapshot store work unchanged), but scores each query on all shards in
    parallel and heap-merges the per-shard top-k.  Shards carry corpus-wide
    statistics; this engine is their coordinator — it is the only writer
    allowed to refresh them (see the coordinator protocol on
    :class:`~repro.search.matrix_space.MatrixConceptSpace`).

    The engine owns a lazily created :class:`ThreadPoolExecutor` (one
    worker per shard).  Call :meth:`close` — or use the engine as a context
    manager — to release the threads in long-lived processes.
    """

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
        shard_baselines: Optional[Sequence[int]] = None,
        shard_mutation_counts: Optional[
            Sequence[Mapping[str, int]]
        ] = None,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ConfigurationError("a sharded engine needs >= 1 shard")
        if router.num_shards != len(shards):
            raise ConfigurationError(
                f"router places onto {router.num_shards} shards but "
                f"{len(shards)} shard spaces were given"
            )
        for index, shard in enumerate(shards):
            for doc_id in shard.doc_ids:
                if router.shard_of(doc_id) != index:
                    raise ConfigurationError(
                        f"document {doc_id!r} sits on shard {index} but the "
                        f"router places it on shard {router.shard_of(doc_id)}"
                    )
        self.concept_model = concept_model
        self.shards: Tuple[MatrixConceptSpace, ...] = tuple(shards)
        self.router = router
        self.name = name
        self.refresh_policy = refresh_policy or RefreshPolicy()
        self.epoch = int(epoch)
        self.cache = cache
        mutation_counts = dict(mutation_counts or {})
        self._baseline_resources = baseline_resources
        self._resources_added = int(mutation_counts.get("added", 0))
        self._resources_removed = int(mutation_counts.get("removed", 0))
        self._resources_updated = int(mutation_counts.get("updated", 0))
        if shard_baselines is None:
            shard_baselines = [
                shard.pending_num_documents for shard in self.shards
            ]
        self._shard_baselines = [int(count) for count in shard_baselines]
        shard_mutation_counts = list(
            shard_mutation_counts
            or [{} for _ in self.shards]
        )
        self._shard_added = [
            int(counts.get("added", 0)) for counts in shard_mutation_counts
        ]
        self._shard_removed = [
            int(counts.get("removed", 0)) for counts in shard_mutation_counts
        ]
        self._shard_updated = [
            int(counts.get("updated", 0)) for counts in shard_mutation_counts
        ]
        if not (
            len(self._shard_baselines)
            == len(self._shard_added)
            == len(self.shards)
        ):
            raise ConfigurationError(
                "per-shard baselines/counters do not match the shard count"
            )
        self._stats_stale = False
        self._pending_batches = 0
        self._rw = ReadWriteLock()
        self._pool_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_engine(
        cls,
        engine: SearchEngine,
        num_shards: Optional[int] = None,
        router: Optional[ShardRouter] = None,
        cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> "ShardedSearchEngine":
        """Partition a fitted monolithic engine into a sharded one.

        The engine's compiled matrix backend is sliced row-wise along the
        router's placement; epoch, staleness counters and refresh policy
        carry over, so the sharded engine reports the same drift the
        monolithic one would.  ``cache_entries`` sizes the query result
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
        shards = engine.matrix_space.partition(
            router.num_shards, router.shard_of
        )
        report = engine.staleness()
        return cls(
            concept_model=engine.concept_model,
            shards=shards,
            router=router,
            name=engine.name,
            refresh_policy=engine.refresh_policy,
            epoch=engine.epoch,
            cache=QueryCache(cache_entries) if cache_entries else None,
            baseline_resources=report.baseline_resources,
            mutation_counts={
                "added": report.resources_added,
                "removed": report.resources_removed,
                "updated": report.resources_updated,
            },
        )

    @classmethod
    def build(
        cls,
        folksonomy,
        concept_model: ConceptModel,
        num_shards: int,
        smooth_idf: bool = False,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
        cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> "ShardedSearchEngine":
        """Index ``folksonomy`` and partition the result into shards."""
        engine = SearchEngine.build(
            folksonomy,
            concept_model,
            smooth_idf=smooth_idf,
            name=name,
            refresh_policy=refresh_policy,
        )
        return cls.from_engine(
            engine, num_shards=num_shards, cache_entries=cache_entries
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_sizes(self) -> List[int]:
        """Documents per shard, pending mutations included."""
        return [shard.pending_num_documents for shard in self.shards]

    def close(self) -> None:
        """Shut down the fan-out thread pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedSearchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # Double-checked under a dedicated lock: two serving threads
            # racing the first query must not each build (and one leak) a
            # ThreadPoolExecutor.  A plain mutex (not the engine's
            # read/write lock) because _pool() is reached while holding
            # read access and the ReadWriteLock is not reentrant.
            with self._pool_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=len(self.shards),
                        thread_name_prefix=f"{self.name}-shard",
                    )
        return self._executor

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def query_concepts(self, query_tags: Sequence[str]) -> Dict[int, float]:
        """The query's bag of concepts (same mapping as the monolith)."""
        if not query_tags:
            return {}
        return self.concept_model.concept_bag_from_tags(query_tags)

    def search(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[RankedResult]:
        """Rank all resources against a tag query (fan-out + merge)."""
        return self.rank_batch([list(query_tags)], top_k=top_k)[0]

    def rank_batch(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> List[List[RankedResult]]:
        """Rank a batch of tag queries across every shard in parallel.

        Cache hits (canonical tag multiset + ``top_k`` + epoch) are served
        without touching the shards; misses — deduplicated within the
        batch — are scored with one fan-out and fill the cache.  The i-th
        result list corresponds to the i-th query; empty and all-unknown
        queries yield well-typed empty lists, and an empty batch yields
        ``[]``, mirroring the hardened monolithic ``rank_batch``.
        """
        validate_top_k(top_k)
        queries = [list(tags) for tags in queries]
        if not queries:
            return []
        with self._read_fresh():
            return self._rank_batch_in_lock(queries, top_k)

    def _rank_batch_in_lock(
        self,
        queries: List[List[str]],
        top_k: Optional[int],
    ) -> List[List[RankedResult]]:
        """The :meth:`rank_batch` body; caller holds the read lock."""
        bags = [self.query_concepts(tags) for tags in queries]
        results: List[List[RankedResult]] = [[] for _ in queries]

        if self.cache is None:
            scorable = [
                (position, bag) for position, bag in enumerate(bags) if bag
            ]
            if scorable:
                ranked = self._rank_bags([bag for _, bag in scorable], top_k)
                for (position, _), result in zip(scorable, ranked):
                    results[position] = result
            return results

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

    def ranked_resources(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[str]:
        """Just the resource ids of :meth:`search`, in rank order."""
        return [result.resource for result in self.search(query_tags, top_k=top_k)]

    def score(self, query_tags: Sequence[str], resource: str) -> float:
        """Cosine similarity via the single shard owning ``resource``."""
        with self._read_fresh():
            concept_bag = self.query_concepts(query_tags)
            if not concept_bag:
                return 0.0
            shard = self.shards[self.router.shard_of(resource)]
            return shard.cosine(concept_bag, resource)

    def _needs_refresh(self) -> bool:
        """Whether any shard (or the global statistics) awaits a refresh."""
        return self._stats_stale or any(
            shard.is_stale for shard in self.shards
        )

    def _rank_bags(
        self,
        bags: Sequence[Mapping[int, float]],
        top_k: Optional[int],
    ) -> List[List[RankedResult]]:
        """Fan concept bags out to every shard; caller holds the read lock."""
        if len(self.shards) == 1:
            per_shard = [self.shards[0].rank_batch(bags, top_k)]
        else:
            futures = [
                self._pool().submit(shard.rank_batch, bags, top_k)
                for shard in self.shards
            ]
            per_shard = [future.result() for future in futures]
        return [
            merge_topk(
                [shard_lists[position] for shard_lists in per_shard], top_k
            )
            for position in range(len(bags))
        ]

    # ------------------------------------------------------------------ #
    # Incremental updates (deltas routed to the owning shard)
    # ------------------------------------------------------------------ #
    @property
    def is_mutable(self) -> bool:
        """Whether every shard carries the raw counts mutation needs."""
        return all(shard.is_mutable for shard in self.shards)

    def has_resource(self, resource: str) -> bool:
        """Whether ``resource`` is indexed (pending ops included)."""
        return self.shards[self.router.shard_of(resource)].has_document(
            resource
        )

    @property
    def num_indexed_resources(self) -> int:
        """Resources across all shards, pending mutations included (O(1))."""
        return sum(shard.pending_num_documents for shard in self.shards)

    def apply_mutations(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]] = None,
        updated: Optional[Mapping[str, Mapping[str, float]]] = None,
        removed: Optional[Iterable[str]] = None,
    ) -> StalenessReport:
        """Apply one batch of resource mutations; bumps the epoch once.

        Validation and fold-in semantics mirror
        :meth:`SearchEngine.apply_mutations` exactly; the only difference
        is placement — every delta lands on the shard the router owns it
        to, and the query cache is invalidated.  A shard may legally drain
        empty as long as the corpus keeps at least one resource.
        """
        if not self.is_mutable:
            raise ConfigurationError(
                "this engine's matrix backend carries no raw concept counts "
                "(pre-v2 artefact) and cannot be mutated; rebuild the engine "
                "or re-save the index with the current format"
            )
        with self._rw.write():
            batch = prepare_mutation_batch(self, added, updated, removed)
            if batch is None:
                return self.staleness()
            added_bags, updated_bags, removed = batch
            shard_added: List[Dict[str, Dict[int, float]]] = [
                {} for _ in self.shards
            ]
            shard_updated: List[Dict[str, Dict[int, float]]] = [
                {} for _ in self.shards
            ]
            shard_removed: List[List[str]] = [[] for _ in self.shards]
            for resource, bag in added_bags.items():
                shard_added[self.router.shard_of(resource)][resource] = bag
            for resource, bag in updated_bags.items():
                shard_updated[self.router.shard_of(resource)][resource] = bag
            for resource in removed:
                shard_removed[self.router.shard_of(resource)].append(resource)

            for index, shard in enumerate(self.shards):
                if shard_added[index]:
                    shard.add_documents(shard_added[index])
                for resource, bag in shard_updated[index].items():
                    shard.update_document(resource, bag)
                if shard_removed[index]:
                    shard.remove_documents(
                        shard_removed[index], allow_empty=True
                    )
                self._shard_added[index] += len(shard_added[index])
                self._shard_updated[index] += len(shard_updated[index])
                self._shard_removed[index] += len(shard_removed[index])

            self.epoch += 1
            self._resources_added += len(added_bags)
            self._resources_updated += len(updated_bags)
            self._resources_removed += len(removed)
            self._stats_stale = True
            self._pending_batches += 1
            if self.cache is not None:
                self.cache.clear()
            return self.staleness()

    def add_resources(
        self, tag_bags: Mapping[str, Mapping[str, float]]
    ) -> StalenessReport:
        """Fold new resources into their owning shards (no offline refit)."""
        return self.apply_mutations(added=tag_bags)

    def remove_resources(self, resources: Iterable[str]) -> StalenessReport:
        """Drop resources from their owning shards (lazily refreshed)."""
        return self.apply_mutations(removed=resources)

    def update_resource(
        self, resource: str, tag_bag: Mapping[str, float]
    ) -> StalenessReport:
        """Replace one resource's tag bag on its owning shard."""
        return self.apply_mutations(updated={resource: tag_bag})

    def refresh(self) -> bool:
        """Coordinated refresh across every shard; True if work was done.

        Each shard folds its pending count mutations over a vocabulary
        extension shared by all shards (columns stay aligned), then global
        document frequencies are summed, globally dead terms are pruned
        everywhere, and one corpus-wide idf vector is derived and applied
        to every shard — exactly the statistics a monolithic refresh over
        the whole corpus computes.  Runs under the exclusive side of the
        engine's read/write lock, so no concurrent fan-out can observe a
        shard mid-refresh; readers arriving while mutations are pending
        drive this refresh themselves before scoring.
        """
        if not self._needs_refresh():
            return False
        with self._rw.write():
            return self._refresh_in_write_lock()

    def _refresh_in_write_lock(self) -> bool:
        if not self._needs_refresh():  # another writer refreshed meanwhile
            return False
        extra: Dict[Hashable, None] = {}
        for shard in self.shards:
            for term in shard.pending_new_terms():
                extra.setdefault(term)
        vocabulary: Optional[Tuple[Hashable, ...]] = None
        for shard in self.shards:
            folded = shard.fold_pending_counts(tuple(extra))
            if vocabulary is None:
                vocabulary = folded
            elif folded != vocabulary:
                raise ConfigurationError(
                    "shard vocabularies drifted out of alignment; the index "
                    "is corrupt — rebuild it from the offline pipeline"
                )
        document_frequency = self.shards[0].column_document_frequency()
        for shard in self.shards[1:]:
            document_frequency = (
                document_frequency + shard.column_document_frequency()
            )
        alive = document_frequency > 0
        if not bool(alive.all()):
            for shard in self.shards:
                shard.drop_columns(alive)
            document_frequency = document_frequency[alive]
        num_documents = self.num_indexed_resources
        idf = idf_from_document_frequency(
            document_frequency, num_documents, self.shards[0].smooth_idf
        )
        for shard in self.shards:
            shard.apply_statistics(idf, num_documents)
        self._stats_stale = False
        self._pending_batches = 0
        return True

    def staleness(self) -> StalenessReport:
        """Corpus-level drift since the last full offline fit (O(1))."""
        current = self.num_indexed_resources
        baseline = (
            self._baseline_resources
            if self._baseline_resources is not None
            else current
        )
        delta_ops = (
            self._resources_added
            + self._resources_removed
            + self._resources_updated
        )
        return StalenessReport(
            epoch=self.epoch,
            resources_added=self._resources_added,
            resources_removed=self._resources_removed,
            resources_updated=self._resources_updated,
            baseline_resources=baseline,
            current_resources=current,
            refit_due=self.refresh_policy.refit_due(delta_ops, baseline),
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

    def shard_staleness(self) -> List[StalenessReport]:
        """Per-shard drift since this engine was sharded.

        Each report applies the engine's refresh policy to one shard's own
        counters and baseline; :func:`aggregate_reports` rolls them back up
        to the corpus level (tested to agree with :meth:`staleness` for an
        engine sharded from an un-drifted fit).
        """
        reports = []
        for index, shard in enumerate(self.shards):
            delta_ops = (
                self._shard_added[index]
                + self._shard_removed[index]
                + self._shard_updated[index]
            )
            reports.append(
                StalenessReport(
                    epoch=self.epoch,
                    resources_added=self._shard_added[index],
                    resources_removed=self._shard_removed[index],
                    resources_updated=self._shard_updated[index],
                    baseline_resources=self._shard_baselines[index],
                    current_resources=shard.pending_num_documents,
                    refit_due=self.refresh_policy.refit_due(
                        delta_ops, self._shard_baselines[index]
                    ),
                    # Refresh is an engine-wide cycle, so every shard shares
                    # the engine-level pending-batch verdict.
                    fold_in_due=self.refresh_policy.fold_in_due(
                        self._pending_batches
                    ),
                )
            )
        return reports

    def aggregated_shard_staleness(self) -> StalenessReport:
        """The per-shard reports rolled up with the engine's policy."""
        return aggregate_reports(self.shard_staleness(), self.refresh_policy)

    # ------------------------------------------------------------------ #
    # Persistence (per-shard .npz + one manifest)
    # ------------------------------------------------------------------ #
    def save(
        self, directory: Union[str, Path], mmap_ready: bool = False
    ) -> Path:
        """Persist the sharded layout: per-shard dirs + a manifest.

        Each shard saves its arrays + JSON pair under ``shard-NNNN/``;
        ``shard_manifest.json`` records the router, the concept model
        (dynamic concepts included, as in the monolithic save) and the
        serving metadata.  A deployment can then restore the whole engine
        (:meth:`load`) or one shard per process (:meth:`load_shard`).

        ``mmap_ready=True`` writes each shard in the raw ``.npy`` layout
        (see :meth:`MatrixConceptSpace.save`) so ``load_shard``'s
        ``mmap=True`` — and hence the process pool's near-instant worker
        start — is available; the default keeps the compact ``.npz``.
        """
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
                        "baseline_resources": self._shard_baselines[index],
                        "mutations": {
                            "added": self._shard_added[index],
                            "removed": self._shard_removed[index],
                            "updated": self._shard_updated[index],
                        },
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
                "mutations": {
                    "added": self._resources_added,
                    "removed": self._resources_removed,
                    "updated": self._resources_updated,
                },
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
    def _read_manifest(cls, directory: Union[str, Path]) -> Dict[str, object]:
        path = Path(directory)
        manifest_path = path / SHARD_MANIFEST_FILENAME
        if not manifest_path.exists():
            raise NotFittedError(f"no sharded engine manifest under {path}")
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        version = payload.get("format_version")
        if version != SHARD_MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported shard manifest version {version!r}"
            )
        return payload

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShardedSearchEngine":
        """Restore a whole sharded engine saved by :meth:`save`."""
        path = Path(directory)
        payload = cls._read_manifest(path)
        router = ShardRouter.from_json(payload["router"])
        shard_entries = payload["shards"]
        if len(shard_entries) != router.num_shards:
            raise ConfigurationError(
                f"manifest lists {len(shard_entries)} shards but the router "
                f"expects {router.num_shards}"
            )
        shards = [
            MatrixConceptSpace.load(path / entry["directory"])
            for entry in shard_entries
        ]
        cache_entries = int(payload.get("cache_entries") or 0)
        return cls(
            concept_model=concept_model_from_json(payload["concept_model"]),
            shards=shards,
            router=router,
            name=payload["name"],
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
            cache=QueryCache(cache_entries) if cache_entries else None,
            baseline_resources=payload.get("baseline_resources"),
            mutation_counts=payload.get("mutations") or {},
            shard_baselines=[
                entry["baseline_resources"] for entry in shard_entries
            ],
            shard_mutation_counts=[
                entry.get("mutations") or {} for entry in shard_entries
            ],
        )

    @classmethod
    def load_shard(
        cls, directory: Union[str, Path], shard_id: int, mmap: bool = False
    ) -> SearchEngine:
        """Load one shard as a standalone read-only serving engine.

        The returned :class:`SearchEngine` ranks only the shard's
        resources, but with the corpus-wide statistics persisted in the
        shard's arrays — its scores equal the full engine's scores for
        those resources, so an N-process deployment (e.g.
        :class:`~repro.search.shardpool.ShardProcessPool`, one worker
        process per shard) can serve one shard per process behind any
        top-k merging frontend.  ``mmap=True`` memory-maps the shard's
        arrays instead of reading them into RAM — requires a save made
        with ``mmap_ready=True``.  Mutations are rejected (statistics are
        corpus-wide); route them through a coordinator that holds every
        shard.
        """
        path = Path(directory)
        payload = cls._read_manifest(path)
        shard_entries = payload["shards"]
        if not 0 <= shard_id < len(shard_entries):
            raise ConfigurationError(
                f"shard_id {shard_id} outside [0, {len(shard_entries)})"
            )
        return SearchEngine(
            concept_model=concept_model_from_json(payload["concept_model"]),
            matrix_space=MatrixConceptSpace.load(
                path / shard_entries[shard_id]["directory"], mmap=mmap
            ),
            name=f"{payload['name']}-shard{shard_id}",
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
        )

    def __repr__(self) -> str:
        return (
            f"ShardedSearchEngine(name={self.name!r}, "
            f"num_shards={len(self.shards)}, "
            f"resources={self.num_indexed_resources}, epoch={self.epoch})"
        )
