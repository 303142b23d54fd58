"""Concept distillation: clustering tags into concepts (Section V).

Once CubeLSI has produced pairwise tag distances, the tags are clustered
with spectral clustering; each cluster is a *concept*.  The
:class:`ConceptModel` then maps any bag of tags (a resource's annotations or
a user query) into a bag of concepts, which is the representation the
vector-space ranking of Section III operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.spectral import SpectralClustering
from repro.utils.errors import ConfigurationError, DimensionError
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class Concept:
    """A distilled concept: an id and the tags assigned to it."""

    concept_id: int
    tags: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tags:
            raise ConfigurationError("a concept must contain at least one tag")

    def __len__(self) -> int:
        return len(self.tags)

    def label(self, max_tags: int = 3) -> str:
        """A short human-readable label built from the first few tags."""
        shown = ", ".join(self.tags[:max_tags])
        suffix = ", ..." if len(self.tags) > max_tags else ""
        return f"[{shown}{suffix}]"


@dataclass(frozen=True)
class ConceptModel:
    """Maps tags to concepts and tag bags to concept bags.

    A closed map: the concepts are the clusters of the tags seen at fit
    time, and a tag outside them maps to no concept and contributes
    nothing to a bag — a resource or query of only such tags scores
    nothing until the next refit.  Lookups never change the model, so one
    model is shared by every reader and writer without a lock.

    Attributes
    ----------
    concepts:
        The distilled concepts, indexed by ``concept_id`` = list position.
    tag_to_concept:
        Hard assignment of every clustered tag to its concept id.
    """

    concepts: List[Concept]
    tag_to_concept: Dict[str, int]

    def __post_init__(self) -> None:
        for tag, concept_id in self.tag_to_concept.items():
            if not 0 <= concept_id < len(self.concepts):
                raise DimensionError(
                    f"tag {tag!r} maps to concept {concept_id} but only "
                    f"{len(self.concepts)} concepts exist"
                )

    @property
    def num_concepts(self) -> int:
        return len(self.concepts)

    @property
    def num_tags(self) -> int:
        return len(self.tag_to_concept)

    def concept_of(self, tag: str) -> Optional[int]:
        """Concept id of ``tag``, or ``None`` if it was not clustered."""
        return self.tag_to_concept.get(tag)

    def concept_bag(self, tag_bag: Mapping[str, float]) -> Dict[int, float]:
        """Transform a bag of tags into a bag of concepts.

        Counts of tags mapping to the same concept are summed, exactly as the
        paper's ``c(l_i, r)`` counts concept occurrences in a resource.
        """
        bag: Dict[int, float] = {}
        for tag, count in tag_bag.items():
            concept_id = self.tag_to_concept.get(tag)
            if concept_id is None:
                continue
            bag[concept_id] = bag.get(concept_id, 0.0) + float(count)
        return bag

    def concept_bag_from_tags(self, tags: Iterable[str]) -> Dict[int, float]:
        """Concept bag of a plain tag list (each occurrence counts once)."""
        counts: Dict[str, float] = {}
        for tag in tags:
            counts[tag] = counts.get(tag, 0.0) + 1.0
        return self.concept_bag(counts)

    def members(self, concept_id: int) -> Tuple[str, ...]:
        """Tags belonging to a concept."""
        if 0 <= concept_id < len(self.concepts):
            return self.concepts[concept_id].tags
        raise KeyError(f"no concept with id {concept_id}")

    def cluster_sizes(self) -> List[int]:
        return [len(c) for c in self.concepts]

    def as_clusters(self) -> List[Tuple[str, ...]]:
        """All clusters as tuples of tags (for the Table IV style report)."""
        return [c.tags for c in self.concepts]


def distill_concepts(
    distances: np.ndarray,
    tags: Sequence[str],
    num_concepts: Optional[int] = None,
    sigma: float = 1.0,
    variance_target: float = 0.95,
    seed: SeedLike = 0,
) -> ConceptModel:
    """Cluster tags into concepts from their pairwise distance matrix.

    Parameters
    ----------
    distances:
        Symmetric ``(|T|, |T|)`` matrix of tag distances (e.g. the CubeLSI
        purified distances, or any baseline's distances).
    tags:
        Tag labels matching the rows of ``distances``.
    num_concepts:
        Number of concepts ``k``; ``None`` lets spectral clustering pick it
        from the eigenvalue spectrum (``variance_target`` coverage).
    sigma:
        Bandwidth of the Gaussian affinity.
    seed:
        Seed for the k-means stage.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise DimensionError("distances must be a square matrix")
    if len(tags) != distances.shape[0]:
        raise DimensionError(
            f"{len(tags)} tag labels for a {distances.shape[0]}-row distance matrix"
        )
    if len(set(tags)) != len(tags):
        raise ConfigurationError("tag labels must be unique")

    clustering = SpectralClustering(
        num_clusters=num_concepts,
        sigma=sigma,
        variance_target=variance_target,
        seed=seed,
    )
    result = clustering.fit(distances)

    clusters: Dict[int, List[str]] = {}
    for tag, label in zip(tags, result.labels):
        clusters.setdefault(int(label), []).append(tag)

    concepts: List[Concept] = []
    tag_to_concept: Dict[str, int] = {}
    for new_id, label in enumerate(sorted(clusters)):
        member_tags = tuple(sorted(clusters[label]))
        concepts.append(Concept(concept_id=new_id, tags=member_tags))
        for tag in member_tags:
            tag_to_concept[tag] = new_id

    return ConceptModel(concepts=concepts, tag_to_concept=tag_to_concept)


def identity_concept_model(tags: Sequence[str]) -> ConceptModel:
    """The degenerate model where every tag is its own concept.

    This is what the BOW baseline amounts to; having it share the
    :class:`ConceptModel` interface lets every ranker go through the same
    vector-space machinery.
    """
    if len(set(tags)) != len(tags):
        raise ConfigurationError("tag labels must be unique")
    concepts = [
        Concept(concept_id=index, tags=(tag,)) for index, tag in enumerate(tags)
    ]
    mapping = {tag: index for index, tag in enumerate(tags)}
    return ConceptModel(concepts=concepts, tag_to_concept=mapping)
