"""The user-facing search engine: tag queries in, ranked resources out.

:class:`SearchEngine` glues together a :class:`~repro.core.concepts.ConceptModel`
(how tags map to concepts) and a
:class:`~repro.search.matrix_space.MatrixConceptSpace` (how resources are
weighted).  It implements the *online* component of the paper's Figure 1:
transform the query's tags into concepts, compute cosine similarities,
return a ranked list.  Built, loaded and single-shard engines all score
through that one CSR backend.

Concurrency
-----------
The engine follows a read/write discipline enforced by a
:class:`~repro.search.concurrency.ReadWriteLock`: queries
(:meth:`SearchEngine.search` / :meth:`SearchEngine.rank_batch` /
:meth:`SearchEngine.score`) hold the lock in shared mode over a *fresh*
(non-stale) index, while mutations and the statistics refresh they trigger
(:meth:`SearchEngine.apply_mutations` / :meth:`SearchEngine.refresh`) hold
it exclusively.  A query arriving while mutations are pending first drives
the refresh through the write path, then re-acquires read access — so
concurrent readers never observe half-swapped CSR arrays, and
:meth:`SearchEngine.snapshot_rank_batch` can hand back results together
with the exact epoch they were computed against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.concepts import Concept, ConceptModel
from repro.search.concurrency import FreshReadMixin, ReadWriteLock
from repro.search.incremental import RefreshPolicy, StalenessReport
from repro.search.matrix_space import MatrixConceptSpace, validate_top_k
from repro.search.vsm import RankedResult
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError, NotFittedError

#: JSON file holding the concept model and engine metadata in a save dir.
ENGINE_FILENAME = "engine.json"


def prepare_mutation_batch(
    engine,
    added: Optional[Mapping[str, Mapping[str, float]]],
    updated: Optional[Mapping[str, Mapping[str, float]]],
    removed: Optional[Iterable[str]],
):
    """Shared validation + frozen-model fold-in for one mutation batch.

    ``engine`` duck-types the monolithic and sharded engines
    (``has_resource`` / ``num_indexed_resources`` / ``concept_model``), so
    both apply byte-for-byte the same batch semantics: buckets are
    normalized (dicts copied, removals deduplicated), overlapping buckets
    and unknown/already-indexed resources are rejected, a batch that would
    empty the corpus is rejected, and only then is every tag bag mapped
    through the *frozen* concept model with dynamic-concept allocation.
    Returns ``(added_bags, updated_bags, removed)`` ready to push into the
    backends, or ``None`` for an empty (no-op) batch.  Backend-specific
    mutability checks stay with the caller and must run *before* this so a
    rejected batch has zero side effects.
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
        if engine.has_resource(resource):
            raise ConfigurationError(
                f"resource {resource!r} is already indexed; update it instead"
            )
    for resource in list(updated) + removed:
        if not engine.has_resource(resource):
            raise ConfigurationError(f"resource {resource!r} is not indexed")
    if (
        removed
        and engine.num_indexed_resources + len(added) - len(removed) < 1
    ):
        raise ConfigurationError(
            "cannot remove every resource; rebuild the engine instead"
        )
    if not added and not updated and not removed:
        return None

    added_bags = {
        resource: engine.concept_model.concept_bag(bag, allocate=True)
        for resource, bag in added.items()
    }
    updated_bags = {
        resource: engine.concept_model.concept_bag(bag, allocate=True)
        for resource, bag in updated.items()
    }
    return added_bags, updated_bags, removed


@dataclass
class SearchEngine(FreshReadMixin):
    """Online query processing over a concept-space index.

    Attributes
    ----------
    concept_model:
        Maps tags (of resources and of queries) to concept ids.
    matrix_space:
        The CSR tf-idf space every query is scored against.
    name:
        Identifier used in experiment reports (e.g. ``"cubelsi"``).
    refresh_policy:
        When accumulated incremental mutations make a full offline refit
        advisable (see :mod:`repro.search.incremental`).
    epoch:
        Monotone mutation counter; bumped once per successful mutation
        batch and persisted across save/load.
    """

    concept_model: ConceptModel
    matrix_space: MatrixConceptSpace
    name: str = "cubelsi"
    refresh_policy: RefreshPolicy = field(default_factory=RefreshPolicy)
    epoch: int = 0
    _baseline_resources: Optional[int] = field(default=None, repr=False)
    _resources_added: int = field(default=0, repr=False)
    _resources_removed: int = field(default=0, repr=False)
    _resources_updated: int = field(default=0, repr=False)
    _pending_batches: int = field(default=0, repr=False)
    _rw: ReadWriteLock = field(
        default_factory=ReadWriteLock, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        folksonomy: Folksonomy,
        concept_model: ConceptModel,
        smooth_idf: bool = False,
        name: str = "cubelsi",
        refresh_policy: Optional[RefreshPolicy] = None,
    ) -> "SearchEngine":
        """Build the engine by indexing every resource of ``folksonomy``.

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
            matrix_space=MatrixConceptSpace.from_bags(resource_bags, smooth_idf),
            name=name,
            refresh_policy=refresh_policy or RefreshPolicy(),
            _baseline_resources=folksonomy.num_resources,
        )

    # ------------------------------------------------------------------ #
    # Querying
    # ------------------------------------------------------------------ #
    def query_concepts(self, query_tags: Sequence[str]) -> Dict[int, float]:
        """The query's bag of concepts (step "Given Query" of Figure 1).

        An empty tag list (or one whose tags map to no known concept) yields
        an empty bag; callers treat that as "matches nothing".
        """
        if not query_tags:
            return {}
        return self.concept_model.concept_bag_from_tags(query_tags)

    def _needs_refresh(self) -> bool:
        """Whether pending mutations await the lazy statistics refresh."""
        return self.matrix_space.is_stale

    def search(
        self, query_tags: Sequence[str], top_k: Optional[int] = None
    ) -> List[RankedResult]:
        """Rank all resources against a tag query.

        Resources whose concept vectors share no concept with the query are
        omitted (their cosine similarity is zero).  Empty queries and queries
        of entirely unknown tags return an empty list.
        """
        validate_top_k(top_k)
        with self._read_fresh():
            # The tag -> concept mapping happens inside the lock: a racing
            # mutation batch may allocate dynamic concepts, and the bag
            # must describe the same index state it is scored against.
            concept_bag = self.query_concepts(query_tags)
            if not concept_bag:
                return []
            return self.matrix_space.rank(concept_bag, top_k=top_k)

    def rank_batch(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int] = None,
    ) -> List[List[RankedResult]]:
        """Rank a whole batch of tag queries in one pass.

        The batch is scored by a single sparse matmul.  The i-th result
        list always corresponds to the i-th query, with empty/unmatchable
        queries producing empty lists.  An empty
        batch yields an empty list, and an invalid ``top_k`` is rejected
        up front even when no query is scorable — callers get well-typed
        results without relying on downstream backend guards.
        """
        validate_top_k(top_k)
        if not queries:
            return []
        with self._read_fresh():
            return self._rank_batch_in_lock(queries, top_k)

    def _rank_batch_in_lock(
        self,
        queries: Sequence[Sequence[str]],
        top_k: Optional[int],
    ) -> List[List[RankedResult]]:
        """The :meth:`rank_batch` body; caller holds the read lock."""
        concept_bags = [self.query_concepts(tags) for tags in queries]
        scorable = [
            (position, bag) for position, bag in enumerate(concept_bags) if bag
        ]
        results: List[List[RankedResult]] = [[] for _ in concept_bags]
        if scorable:
            ranked = self.matrix_space.rank_batch(
                [bag for _, bag in scorable], top_k=top_k
            )
            for (position, _), result in zip(scorable, ranked):
                results[position] = result
        return results

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

        Vectors and the cosine are read inside one reader-held region
        (the cosine is computed inline — :meth:`score` would re-enter the
        non-reentrant lock), so the breakdown reflects a single index
        state even while mutations race.
        """
        space = self.matrix_space
        with self._read_fresh():
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

    def apply_mutations(
        self,
        added: Optional[Mapping[str, Mapping[str, float]]] = None,
        updated: Optional[Mapping[str, Mapping[str, float]]] = None,
        removed: Optional[Iterable[str]] = None,
    ) -> StalenessReport:
        """Apply one batch of resource mutations; bumps the epoch once.

        All tag bags are mapped through the *frozen* concept model
        (LSI-style fold-in) and pushed into the matrix space; idf and norms
        recompute lazily on the next read.  Everything is validated before
        anything is applied, so a rejected batch has no side effects, and
        additions land before removals so a batch that swaps most of the
        corpus never looks momentarily empty.
        """
        if not self.matrix_space.is_mutable:
            # Checked before anything (including dynamic-concept allocation)
            # happens, so a rejected batch has zero side effects.
            raise ConfigurationError(
                "this engine's matrix space carries no raw concept counts "
                "(pre-v2 artefact) and cannot be mutated; rebuild the engine "
                "or re-save the index with the current format"
            )
        if self.matrix_space.has_external_stats:
            raise ConfigurationError(
                "this engine serves one shard of a sharded index and cannot "
                "mutate it locally (idf/num_resources are corpus-wide); "
                "route mutations through the owning ShardedSearchEngine"
            )
        with self._rw.write():
            batch = prepare_mutation_batch(self, added, updated, removed)
            if batch is None:
                return self.staleness()
            added_bags, updated_bags, removed = batch
            if added_bags:
                self.matrix_space.add_documents(added_bags)
            for resource, bag in updated_bags.items():
                self.matrix_space.update_document(resource, bag)
            if removed:
                self.matrix_space.remove_documents(removed)
            self.epoch += 1
            self._resources_added += len(added_bags)
            self._resources_updated += len(updated_bags)
            self._resources_removed += len(removed)
            self._pending_batches += 1
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

    def refresh(self) -> bool:
        """Eagerly fold pending mutations into the arrays; True if any.

        Runs under the exclusive side of the engine's read/write lock, so
        no concurrent query can observe the arrays mid-swap.
        """
        if not self._needs_refresh():
            return False
        with self._rw.write():
            refreshed = self.matrix_space.refresh()
            self._pending_batches = 0
            return refreshed

    def staleness(self) -> StalenessReport:
        """How far the engine has drifted since its last full (re)fit."""
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
            "staleness": self.staleness().as_dict(),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(
        self, directory: Union[str, Path], mmap_ready: bool = False
    ) -> Path:
        """Persist the engine (matrix space + concept model) to a dir.

        Dynamic (``own-concept``) concepts travel with the engine: their
        columns live in the persisted count arrays, so dropping the
        tag → id map would let a restored serving process reallocate a live
        column id to a different tag.

        ``mmap_ready=True`` writes the backend arrays in the raw ``.npy``
        layout that loads can memory-map (see
        :meth:`MatrixConceptSpace.save`).
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with self._read_fresh():
            self.matrix_space.save(path, mmap_ready=mmap_ready)
            payload = self._save_payload()
        (path / ENGINE_FILENAME).write_text(json.dumps(payload), encoding="utf-8")
        return path

    def _save_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "concept_model": concept_model_to_json(self.concept_model),
            "epoch": self.epoch,
            "baseline_resources": self._baseline_resources,
            "mutations": {
                "added": self._resources_added,
                "removed": self._resources_removed,
                "updated": self._resources_updated,
            },
            "refresh_policy": self.refresh_policy.as_dict(),
        }

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "SearchEngine":
        """Load an engine saved by :meth:`save`."""
        path = Path(directory)
        engine_path = path / ENGINE_FILENAME
        if not engine_path.exists():
            raise NotFittedError(f"no saved engine under {path}")
        payload = json.loads(engine_path.read_text(encoding="utf-8"))
        mutations = payload.get("mutations") or {}
        return cls(
            concept_model=concept_model_from_json(payload["concept_model"]),
            matrix_space=MatrixConceptSpace.load(path),
            name=payload["name"],
            refresh_policy=RefreshPolicy.from_dict(payload.get("refresh_policy")),
            epoch=int(payload.get("epoch", 0)),
            _baseline_resources=payload.get("baseline_resources"),
            _resources_added=int(mutations.get("added", 0)),
            _resources_removed=int(mutations.get("removed", 0)),
            _resources_updated=int(mutations.get("updated", 0)),
        )


def concept_model_to_json(model: ConceptModel) -> Dict[str, object]:
    """JSON payload for a concept model (engine and shard-manifest saves)."""
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
