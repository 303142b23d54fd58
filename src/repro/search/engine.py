"""The user-facing search engine: tag queries in, ranked resources out.

:class:`SearchEngine` glues together a :class:`~repro.core.concepts.ConceptModel`
(how tags map to concepts) and one
:class:`~repro.search.matrix_space.MatrixConceptSpace` (how resources are
weighted).  It implements the *online* component of the paper's Figure 1:
transform the query's tags into concepts, compute cosine similarities,
return a ranked list.

One space per process: N shards are a save layout (``save(...,
num_shards=N)``) and a pool size
(:class:`~repro.search.shardpool.ShardProcessPool`, one worker process per
shard of such a save), never an in-process loop — the postings kernel is
short numpy calls under one GIL, so scoring N shards in turn could only
add a merge to the same row work.

Mutations fold into the space through the frozen concept model and a lazy
refresh, so folded-in rankings match a from-scratch rebuild to 1e-9.  The
engine caches nothing: the one result cache belongs to
:class:`~repro.serve.frontend.BatchingFrontend`.

Concurrency
-----------
Queries (:meth:`SearchEngine.search` / :meth:`SearchEngine.rank_batch` /
:meth:`SearchEngine.score`) hold a
:class:`~repro.search.concurrency.ReadWriteLock` in shared mode over a
*fresh* (non-stale) index, while mutations and the refresh they trigger
(:meth:`SearchEngine.apply_mutations` / :meth:`SearchEngine.refresh`) hold
it exclusively.  A query arriving while mutations are pending first drives
the refresh through the write path, then re-acquires read access — so a
reader never observes the space mid-refresh, and
:meth:`SearchEngine.snapshot_rank_batch` hands back results together with
the exact epoch they were computed against.

Persistence
-----------
One layout at every shard count: a ``shard-NNNN/`` directory per shard (the
space's raw ``.npy`` arrays + JSON) plus ``shard_manifest.json`` carrying the
router, the concept model and the serving metadata.  :meth:`SearchEngine.save`
partitions the space at write time; :meth:`SearchEngine.load` folds every
shard back into one space; :meth:`SearchEngine.load_shard` opens one shard
as a read-only view for an N-process deployment.
"""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.concepts import Concept, ConceptModel
from repro.search.concurrency import ReadWriteLock
from repro.search.incremental import RefreshPolicy, StalenessReport
from repro.search.matrix_space import MatrixConceptSpace, validate_top_k
from repro.search.sharding import (
    SHARD_MANIFEST_FILENAME,
    SHARD_MANIFEST_VERSION,
    ShardRouter,
    read_shard_manifest,
)
from repro.search.vsm import RankedResult, RankEngine, query_tag_list
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError

_MUTATION_KINDS = ("added", "removed", "updated")


def _mutation_counts(payload: Optional[Mapping[str, int]]) -> Dict[str, int]:
    """``{added, removed, updated}`` counters from a (partial) payload."""
    payload = payload or {}
    return {kind: int(payload.get(kind, 0)) for kind in _MUTATION_KINDS}


class SearchEngine(RankEngine):
    """Online query processing over one concept-space index.

    The engine is the only writer of its space: mutations and the lazy
    refresh they trigger run under its write lock.  An engine whose space
    :attr:`~MatrixConceptSpace.has_external_stats` (what :meth:`load_shard`
    returns for one shard of a partitioned save) is a read-only view: it
    ranks its own rows with the corpus-wide statistics and refuses
    mutation.

    :meth:`search` and :meth:`rank_batch` are the inherited
    :class:`~repro.search.vsm.RankEngine` methods over
    :meth:`snapshot_rank_batch`: the i-th result list answers the i-th
    query, resources sharing no concept with a query are omitted (their
    cosine is zero), empty queries and queries of only unknown tags rank
    to empty lists, an empty batch to an empty list, and an invalid
    ``top_k`` is refused up front even when no query is scorable.

    Instances come from :meth:`build`, :meth:`load` and :meth:`load_shard`,
    or from the constructor over an existing space; the engine owns no
    threads or processes, so :meth:`close` is the inherited no-op.

    Attributes
    ----------
    concept_model:
        Maps tags (of resources and of queries) to concept ids.
    matrix_space:
        The tf-idf space queries are scored against.
    name:
        Identifier used in experiment reports (e.g. ``"cubelsi"``).
    refresh_policy:
        When accumulated incremental mutations make a full offline refit
        advisable (see :mod:`repro.search.incremental`).
    epoch:
        Monotone mutation counter; bumped once per successful mutation
        batch and persisted across save/load.
    """

    #: Assigned per instance; declared here to satisfy the abstract property.
    epoch: int = 0

    def __init__(
        self,
        concept_model: ConceptModel,
        matrix_space: MatrixConceptSpace,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
        epoch: int = 0,
        baseline_resources: Optional[int] = None,
        mutation_counts: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.concept_model = concept_model
        self.matrix_space = matrix_space
        self.name = name
        self.refresh_policy = refresh_policy or RefreshPolicy()
        self.epoch = int(epoch)
        self._baseline_resources = (
            matrix_space.pending_num_documents
            if baseline_resources is None
            else int(baseline_resources)
        )
        self._mutations = _mutation_counts(mutation_counts)
        self._rw = ReadWriteLock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        folksonomy: Folksonomy,
        concept_model: ConceptModel,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
    ) -> "SearchEngine":
        """Build an engine by indexing every resource of ``folksonomy``.

        Columnar, with no dict per resource: the folksonomy's resource x
        tag count table (:meth:`~repro.tagging.folksonomy.Folksonomy.tag_counts`)
        has its tags mapped to concepts through one lookup array over the
        tag vocabulary — tags the model did not cluster are dropped — and
        :meth:`MatrixConceptSpace.from_counts` sums the counts per
        (resource, concept) and folds every resource into an empty space.
        The arrays equal those of :meth:`MatrixConceptSpace.from_bags` over
        ``concept_model.concept_bag(folksonomy.tag_bag(r))`` per resource.
        """
        rows, tags, counts = folksonomy.tag_counts()
        concept_of = np.array(
            [concept_model.tag_to_concept.get(tag, -1) for tag in folksonomy.tags],
            dtype=np.intp,
        )
        concepts = concept_of[tags]
        mapped = concepts >= 0
        space = MatrixConceptSpace.from_counts(
            folksonomy.resources,
            rows[mapped],
            range(concept_model.num_concepts),
            concepts[mapped],
            counts[mapped],
        )
        return cls(
            concept_model=concept_model,
            matrix_space=space,
            name=name,
            refresh_policy=refresh_policy,
        )

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    @contextmanager
    def _read_fresh(self) -> Iterator[None]:
        """Shared (reader) access to a guaranteed-fresh index.

        If mutations are pending, the refresh is driven through the write
        path first; the loop re-checks after acquiring read access because
        another writer may have mutated in between.  Within the ``with``
        body no mutation or refresh can run, so the epoch and the space's
        arrays are one consistent snapshot.
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
        queries = [query_tag_list(tags) for tags in queries]
        with self._read_fresh():
            if not queries:
                return self.epoch, []
            bags = [self.query_concepts(tags) for tags in queries]
            return self.epoch, self.matrix_space.rank_batch(bags, top_k)

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
            return self.matrix_space.cosine(concept_bag, resource)

    def explain(self, query_tags: Sequence[str], resource: str) -> Dict[str, object]:
        """A debugging breakdown of how a resource scored for a query.

        Vectors and the cosine are read inside one reader-held region (the
        cosine is computed inline — :meth:`score` would re-enter the
        non-reentrant lock), so the breakdown reflects a single index state
        even while mutations race.
        """
        with self._read_fresh():
            space = self.matrix_space
            concept_bag = self.query_concepts(query_tags)
            query_vector = space.query_weights(concept_bag)
            resource_vector = space.document_weights(resource)
            cosine = space.cosine(concept_bag, resource)
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
    # Incremental updates (fold-in through the frozen concept model)
    # ------------------------------------------------------------------ #
    @property
    def is_mutable(self) -> bool:
        """Whether this engine holds the whole index (a shard is read-only)."""
        return not self.matrix_space.has_external_stats

    def has_resource(self, resource: str) -> bool:
        """Whether ``resource`` is currently indexed (pending ops included)."""
        return self.matrix_space.has_document(resource)

    @property
    def num_indexed_resources(self) -> int:
        """Resources currently indexed, pending mutations included.

        Deliberately does *not* trigger the lazy refresh — staleness
        accounting after a mutation must stay O(1).
        """
        return self.matrix_space.pending_num_documents

    def _require_mutable(self, action: str) -> None:
        if not self.is_mutable:
            raise ConfigurationError(
                "this engine is a read-only view of one shard of a "
                "partitioned save (idf and num_resources are corpus-wide) "
                f"and cannot {action}; load the whole index instead"
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
        then is every tag bag mapped through the *frozen* concept model.
        Returns ``(added_bags, updated_bags, removed)`` ready to push into
        the space, or ``None`` for an empty (no-op) batch.
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
            resource: self.concept_model.concept_bag(bag)
            for resource, bag in added.items()
        }
        updated_bags = {
            resource: self.concept_model.concept_bag(bag)
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
        (LSI-style fold-in) and pushed into the space; idf and norms
        recompute lazily on the next read.  Everything is validated before
        anything is applied, so a rejected batch has no side effects, and
        additions land before removals so a batch that swaps most of the
        corpus never looks momentarily empty.
        """
        self._require_mutable("mutate")
        with self._rw.write():
            batch = self._prepare_mutation_batch(added, updated, removed)
            if batch is None:
                return self.staleness()
            added_bags, updated_bags, removed = batch
            space = self.matrix_space
            if added_bags:
                space.add_documents(added_bags)
            for resource, bag in updated_bags.items():
                space.update_document(resource, bag)
            if removed:
                space.remove_documents(removed)

            self.epoch += 1
            self._mutations["added"] += len(added_bags)
            self._mutations["updated"] += len(updated_bags)
            self._mutations["removed"] += len(removed)
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
        return self.matrix_space.is_stale

    def refresh(self) -> bool:
        """Fold pending mutations into the space; True if work was done.

        :meth:`MatrixConceptSpace.refresh`: pending mutations splice the
        postings they touch and the idf vector is re-derived from the
        maintained document frequencies — exactly the statistics a
        from-scratch build over the whole corpus computes.  Runs under the
        exclusive side of the engine's read/write lock, so no concurrent
        query can observe the space mid-refresh; readers arriving while
        mutations are pending drive this refresh themselves before scoring.
        """
        if not self._needs_refresh():
            return False
        with self._rw.write():
            # False when another writer refreshed while we waited.
            return self.matrix_space.refresh()

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
            fold_in_due=self.matrix_space.is_stale,
        )

    def health(self) -> Dict[str, object]:
        """Operational snapshot: identity, epoch and both drift verdicts."""
        return {
            "name": self.name,
            "epoch": self.epoch,
            "staleness": self.staleness().as_dict(),
        }

    # ------------------------------------------------------------------ #
    # Persistence (one array dir per shard + one manifest)
    # ------------------------------------------------------------------ #
    def save(self, directory: Union[str, Path], num_shards: int = 1) -> Path:
        """Persist the engine: ``num_shards`` shard dirs + a manifest.

        The space is partitioned at write time along
        ``ShardRouter(num_shards)``; each shard saves its arrays + JSON
        pair under ``shard-NNNN/`` with the corpus-wide statistics, and
        ``shard_manifest.json`` records the router, the concept model and
        the serving metadata.
        """
        self._require_mutable("save")
        router = ShardRouter(num_shards)
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with self._read_fresh():
            shards = (
                [self.matrix_space]
                if num_shards == 1
                else self.matrix_space.partition(num_shards, router.shard_of)
            )
            shard_entries = []
            for index, shard in enumerate(shards):
                shard_dir = f"shard-{index:04d}"
                shard.save(path / shard_dir)
                shard_entries.append(
                    {
                        "directory": shard_dir,
                        "num_documents": shard.pending_num_documents,
                    }
                )
            payload = {
                "format_version": SHARD_MANIFEST_VERSION,
                "name": self.name,
                "router": router.to_json(),
                "shards": shard_entries,
                "concept_model": concept_model_to_json(self.concept_model),
                "epoch": self.epoch,
                "baseline_resources": self._baseline_resources,
                "mutations": dict(self._mutations),
                "refresh_policy": self.refresh_policy.as_dict(),
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
            if index >= num_shards:
                shutil.rmtree(stale_dir)
        return path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "SearchEngine":
        """Restore a whole engine saved by :meth:`save`, at any shard count.

        The shards of a partitioned save are folded back into one space by
        :meth:`MatrixConceptSpace.merge`: their tf postings go through the
        array fold every build runs, so the engine ranks like the one that
        was saved (to 1e-9) and accepts mutations.
        """
        path = Path(directory)
        payload = read_shard_manifest(path)
        shards = [
            MatrixConceptSpace.load(path / entry["directory"])
            for entry in payload["shards"]
        ]
        space = shards[0] if len(shards) == 1 else MatrixConceptSpace.merge(shards)
        return cls(
            concept_model=concept_model_from_json(payload["concept_model"]),
            matrix_space=space,
            name=payload["name"],
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
            baseline_resources=payload.get("baseline_resources"),
            mutation_counts=payload.get("mutations"),
        )

    @classmethod
    def load_shard(cls, directory: Union[str, Path], shard_id: int) -> "SearchEngine":
        """Load one shard of a saved engine as a read-only partial view.

        The returned engine ranks only the shard's resources, but with the
        corpus-wide statistics persisted in the shard's arrays — its scores
        equal the full engine's scores for those resources, so an N-process
        deployment (e.g. :class:`~repro.search.shardpool.ShardProcessPool`,
        one worker process per shard) can serve one shard per process
        behind any top-k merging frontend.  The shard's arrays are
        memory-mapped, not read into RAM: a view only reads them, so the
        processes serving one save share a single page-cache copy.  Unless
        the save has a single shard, the shard's space
        :attr:`~MatrixConceptSpace.has_external_stats` and mutations are
        rejected (statistics are corpus-wide); route them through
        :meth:`load` of the whole save.
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
            matrix_space=MatrixConceptSpace.load(path / entry["directory"], mmap=True),
            name=f"{payload['name']}-shard{shard_id}",
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
        )

    def __repr__(self) -> str:
        return (
            f"SearchEngine(name={self.name!r}, "
            f"resources={self.num_indexed_resources}, epoch={self.epoch})"
        )


def concept_model_to_json(model: ConceptModel) -> Dict[str, object]:
    """JSON payload for a concept model (the manifest's ``concept_model``)."""
    return {
        "concepts": [
            {"id": concept.concept_id, "tags": list(concept.tags)}
            for concept in model.concepts
        ]
    }


def concept_model_from_json(payload: Dict[str, object]) -> ConceptModel:
    """Inverse of :func:`concept_model_to_json`.

    A manifest written with the retired singleton-concept option is
    refused: its arrays hold columns this closed model cannot name.
    """
    policy = payload.get("unknown_policy", "ignore")
    dynamic = payload.get("dynamic_concepts") or {}
    if policy != "ignore" or dynamic:
        raise ConfigurationError(
            f"this index was saved with the retired unknown_policy={policy!r} "
            f"option ({len(dynamic)} own-concept tags); unseen tags now map "
            "to no concept — refit and re-save the index"
        )
    concepts = [
        Concept(concept_id=int(entry["id"]), tags=tuple(entry["tags"]))
        for entry in payload["concepts"]  # type: ignore[union-attr]
    ]
    tag_to_concept = {
        tag: concept.concept_id for concept in concepts for tag in concept.tags
    }
    return ConceptModel(concepts=concepts, tag_to_concept=tag_to_concept)
