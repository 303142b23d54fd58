"""The paper's primary contribution: CubeLSI.

* :mod:`repro.core.distances` — purified pairwise tag distances, both via the
  Theorem 1 / Theorem 2 shortcut (never materialising the reconstructed
  tensor) and via the naive materialised definition used to validate it.
* :mod:`repro.core.cubelsi` — Algorithm 1: Tucker-ALS on the tag-assignment
  tensor followed by shortcut distance computation.
* :mod:`repro.core.kmeans` / :mod:`repro.core.spectral` — clustering
  substrate (k-means and Ng-Jordan-Weiss spectral clustering) implemented
  from scratch.
* :mod:`repro.core.concepts` — concept distillation: clustering tags into
  concepts and mapping tag bags to concept bags.
* :mod:`repro.core.pipeline` — the full offline component of Figure 1,
  producing a searchable concept-space index (with delta fold-in for
  incremental serving).
* :mod:`repro.core.snapshots` — numbered, immutable on-disk generations
  of serving indexes.
"""

from repro.core.distances import (
    sigma_from_core,
    sigma_from_singular_values,
    pairwise_distances_shortcut,
    pairwise_distances_materialized,
    tag_distance_matrix,
)
from repro.core.cubelsi import CubeLSI, CubeLSIResult
from repro.core.kmeans import KMeans, KMeansResult
from repro.core.spectral import SpectralClustering, SpectralClusteringResult
from repro.core.concepts import (
    Concept,
    ConceptModel,
    distill_concepts,
)
from repro.core.pipeline import CubeLSIPipeline, OfflineIndex
from repro.core.snapshots import IndexSnapshotStore

__all__ = [
    "sigma_from_core",
    "sigma_from_singular_values",
    "pairwise_distances_shortcut",
    "pairwise_distances_materialized",
    "tag_distance_matrix",
    "CubeLSI",
    "CubeLSIResult",
    "KMeans",
    "KMeansResult",
    "SpectralClustering",
    "SpectralClusteringResult",
    "Concept",
    "ConceptModel",
    "distill_concepts",
    "CubeLSIPipeline",
    "OfflineIndex",
    "IndexSnapshotStore",
]
