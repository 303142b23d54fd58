"""The end-to-end offline CubeLSI pipeline (Figure 1, left column).

``CubeLSIPipeline.fit`` takes a (cleaned) folksonomy and produces an
:class:`OfflineIndex` containing everything the online component needs:

1. the third-order tensor is built from the tag assignments,
2. Tucker-ALS + Theorems 1/2 yield purified pairwise tag distances,
3. spectral clustering distils tags into concepts,
4. every resource's bag of tags is mapped to a bag of concepts and indexed
   with tf-idf weights.

The resulting :class:`~repro.search.engine.SearchEngine` answers queries with
plain cosine similarity — the cheap online step of Table VI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from repro.core.concepts import ConceptModel, distill_concepts
from repro.core.cubelsi import CubeLSI, CubeLSIResult
from repro.tagging.folksonomy import Folksonomy
from repro.tagging.io import read_assignments_tsv, write_assignments_tsv
from repro.utils.errors import ConfigurationError, DataFormatError, NotFittedError
from repro.utils.rng import SeedLike
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # runtime import would close the core -> search -> core cycle
    from repro.search.engine import SearchEngine
    from repro.search.incremental import StalenessReport
    from repro.tagging.delta import FolksonomyDelta


#: JSON file holding OfflineIndex-level metadata in a save directory.
INDEX_METADATA_FILENAME = "offline_index.json"

#: Assignment log written next to the engine when the folksonomy is saved
#: along with the index (required for hot-applying deltas in a serving
#: process).
INDEX_ASSIGNMENTS_FILENAME = "assignments.tsv"


@dataclass
class OfflineIndex:
    """Everything produced by the offline component of Figure 1.

    Indexes restored with :meth:`load` carry only what online serving
    needs — the concept model and the compiled search engine; the training
    folksonomy and the raw decomposition result are ``None``.
    """

    concept_model: ConceptModel
    engine: "SearchEngine"
    timings: Dict[str, float]
    folksonomy: Optional[Folksonomy] = None
    cubelsi_result: Optional[CubeLSIResult] = None

    @property
    def num_concepts(self) -> int:
        return self.concept_model.num_concepts

    def preprocessing_seconds(self) -> float:
        """Total offline time (decomposition + distances + clustering + indexing)."""
        return float(sum(self.timings.values()))

    # ------------------------------------------------------------------ #
    # Incremental updates (fold-in; the offline analysis stays frozen)
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: "FolksonomyDelta") -> "StalenessReport":
        """Fold a folksonomy delta into the serving index without a refit.

        The folksonomy is updated incrementally, each touched resource's new
        bag of tags is mapped through the *frozen* concept model, and the
        engine's backends fold the rows in (lazy idf/norm recompute).  The
        expensive Tucker/clustering stages are untouched; the returned
        staleness report says when the engine's refresh policy thinks a full
        refit is due.

        Requires the training folksonomy: either a freshly fitted index or
        one saved with ``include_folksonomy=True`` and reloaded.
        """
        if self.folksonomy is None:
            raise ConfigurationError(
                "this index carries no folksonomy (it was loaded from a save "
                "without one); save with include_folksonomy=True to enable "
                "hot-applying deltas"
            )
        before = self.folksonomy
        after = before.apply_delta(delta)

        added: Dict[str, Dict[str, float]] = {}
        updated: Dict[str, Dict[str, float]] = {}
        removed = []
        for resource in delta.touched_resources:
            had = before.has_resource(resource)
            has = after.has_resource(resource)
            if has and not had:
                added[resource] = dict(after.tag_bag(resource))
            elif had and not has:
                removed.append(resource)
            elif had and has:
                old_bag = before.tag_bag(resource)
                new_bag = after.tag_bag(resource)
                if old_bag != new_bag:
                    updated[resource] = dict(new_bag)

        report = self.engine.apply_mutations(
            added=added, updated=updated, removed=removed
        )
        self.folksonomy = after
        return report

    # ------------------------------------------------------------------ #
    # Persistence (offline indexing and online serving as two processes)
    # ------------------------------------------------------------------ #
    def save(
        self,
        directory: Union[str, Path],
        include_folksonomy: bool = False,
        num_shards: int = 1,
    ) -> Path:
        """Write the serving artefacts (engine + metadata) to ``directory``.

        With ``include_folksonomy=True`` the assignment log is saved next to
        the engine so that a serving process restoring the snapshot can keep
        hot-applying deltas (at the cost of a larger artefact).

        ``num_shards`` is the save layout (see :meth:`SearchEngine.save`):
        the offline indexer can emit artefacts an N-process deployment
        loads one shard each from.  The compiled arrays are raw ``.npy``
        files, which :class:`~repro.search.shardpool.ShardProcessPool`
        workers memory-map so one host's worker fleet shares a single
        page-cache copy of the index.

        The metadata records the distilled concept count, which
        :meth:`load` checks against the engine's concept model.
        """
        if include_folksonomy and self.folksonomy is None:
            raise ConfigurationError(
                "include_folksonomy=True but this index carries no folksonomy"
            )
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.engine.save(path, num_shards=num_shards)
        metadata = {
            "timings": {name: float(value) for name, value in self.timings.items()},
            "dataset_name": self.folksonomy.name if self.folksonomy else None,
            "num_concepts": self.concept_model.num_concepts,
            "epoch": self.engine.epoch,
            "includes_folksonomy": bool(include_folksonomy and self.folksonomy),
        }
        assignments_path = path / INDEX_ASSIGNMENTS_FILENAME
        if include_folksonomy:
            write_assignments_tsv(self.folksonomy.assignments, assignments_path)
        elif assignments_path.exists():
            # Overwriting a directory that previously included the
            # folksonomy: a stale assignment log would pair the new engine
            # with an outdated corpus on load.
            assignments_path.unlink()
        (path / INDEX_METADATA_FILENAME).write_text(
            json.dumps(metadata), encoding="utf-8"
        )
        return path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "OfflineIndex":
        """Restore a serving-ready index from :meth:`save` output.

        Validates that the engine's persisted concept model matches the
        metadata's recorded ``num_concepts`` (guards against artefact
        drift between the two files).
        """
        path = Path(directory)
        metadata_path = path / INDEX_METADATA_FILENAME
        if not metadata_path.exists():
            raise NotFittedError(f"no saved offline index under {path}")
        from repro.search.engine import SearchEngine

        metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
        engine = SearchEngine.load(path)
        recorded = metadata.get("num_concepts")
        persisted = engine.concept_model.num_concepts
        if recorded is not None and int(recorded) != persisted:
            raise DataFormatError(
                f"saved index metadata records {recorded} concepts but the "
                f"persisted engine carries {persisted} concepts; "
                "the artefacts are inconsistent"
            )
        folksonomy = None
        assignments_path = path / INDEX_ASSIGNMENTS_FILENAME
        if metadata.get("includes_folksonomy") and assignments_path.exists():
            folksonomy = Folksonomy(
                read_assignments_tsv(assignments_path),
                name=str(metadata.get("dataset_name") or "offline-index"),
            )
        return cls(
            concept_model=engine.concept_model,
            engine=engine,
            timings={
                name: float(value) for name, value in metadata["timings"].items()
            },
            folksonomy=folksonomy,
        )


class CubeLSIPipeline:
    """Configure once, then ``fit`` on any folksonomy.

    Parameters
    ----------
    reduction_ratios / ranks:
        Passed to :class:`~repro.core.cubelsi.CubeLSI` (the paper's default
        is a reduction ratio of 50 on every mode).
    num_concepts:
        Number of concepts for spectral clustering; ``None`` uses the
        eigenvalue coverage rule.
    sigma:
        Affinity bandwidth for spectral clustering.
    max_iter / tol:
        ALS stopping parameters.
    seed:
        Single seed driving ALS initialisation and k-means restarts.

    Resources are weighted with the paper's plain tf-idf (Eq. 1-2), and tag
    distances come from Theorem 2 whenever the ALS by-product covers the
    tag rank.
    """

    def __init__(
        self,
        reduction_ratios: Optional[Union[float, Sequence[float]]] = None,
        ranks: Optional[Sequence[int]] = None,
        num_concepts: Optional[int] = None,
        sigma: float = 1.0,
        max_iter: int = 25,
        tol: float = 1e-6,
        seed: SeedLike = 0,
        min_rank: int = 8,
    ) -> None:
        self._cubelsi = CubeLSI(
            ranks=ranks,
            reduction_ratios=reduction_ratios,
            max_iter=max_iter,
            tol=tol,
            seed=seed,
            min_rank=min_rank,
        )
        if num_concepts is not None and num_concepts < 1:
            raise ConfigurationError("num_concepts must be >= 1 when given")
        self._num_concepts = num_concepts
        self._sigma = sigma
        self._seed = seed
        self._last_index: Optional[OfflineIndex] = None

    def fit(self, folksonomy: Folksonomy) -> OfflineIndex:
        """Run the full offline pipeline on ``folksonomy``."""
        if folksonomy.num_assignments == 0:
            raise ConfigurationError("cannot index an empty folksonomy")
        watch = Stopwatch()

        with watch.section("cubelsi"):
            cubelsi_result = self._cubelsi.fit(folksonomy)

        with watch.section("concept_distillation"):
            concept_model = distill_concepts(
                cubelsi_result.distances,
                tags=folksonomy.tags,
                num_concepts=self._effective_num_concepts(folksonomy),
                sigma=self._sigma,
                seed=self._seed,
            )

        from repro.search.engine import SearchEngine

        with watch.section("indexing"):
            engine = SearchEngine.build(folksonomy, concept_model, name="cubelsi")

        index = OfflineIndex(
            folksonomy=folksonomy,
            cubelsi_result=cubelsi_result,
            concept_model=concept_model,
            engine=engine,
            timings=watch.totals(),
        )
        self._last_index = index
        return index

    @property
    def last_index(self) -> OfflineIndex:
        if self._last_index is None:
            raise NotFittedError("CubeLSIPipeline has not been fitted yet")
        return self._last_index

    def _effective_num_concepts(self, folksonomy: Folksonomy) -> Optional[int]:
        """Clamp a stipulated concept count to the number of available tags."""
        if self._num_concepts is None:
            return None
        return min(self._num_concepts, folksonomy.num_tags)
