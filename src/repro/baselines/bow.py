"""The BOW (bag-of-words) baseline (Section VI-B).

Classical document retrieval applied verbatim: each resource is a document,
each tag is a word, tf-idf weights and cosine similarity — no tagger
information and no semantic analysis.  Implemented by feeding the *identity*
concept model (every tag is its own concept) through the same vector-space
machinery CubeLSI uses, which keeps the comparison apples-to-apples.
"""

from __future__ import annotations

from repro.baselines.base import EngineBackedRanker
from repro.core.concepts import identity_concept_model
from repro.search.engine import SearchEngine
from repro.tagging.folksonomy import Folksonomy


class BowRanker(EngineBackedRanker):
    """tf-idf + cosine over raw tags."""

    name = "bow"

    def _fit(self, folksonomy: Folksonomy) -> None:
        concept_model = identity_concept_model(folksonomy.tags)
        self._engine = SearchEngine.build(folksonomy, concept_model, name=self.name)
