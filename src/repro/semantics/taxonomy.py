"""A rooted IS-A taxonomy over tags (the WordNet substitute).

The taxonomy has four levels below the root::

    root ─ domain ─ aspect ─ concept ─ surface tag (leaf)

It is built from the generator's :class:`~repro.datasets.vocabulary.Vocabulary`,
i.e. from latent structure the ranking methods never see, so it can play the
"external referee" role WordNet plays in the paper's Table III experiment.
Polysemous tags appear as multiple leaves (one per concept), just as a
polysemous word has multiple WordNet synsets.

Corpus frequencies can be attached to the leaves and propagated upward to
compute Resnik information content, which the Jiang-Conrath distance in
:mod:`repro.semantics.jcn` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.datasets.vocabulary import Vocabulary
from repro.utils.errors import ConfigurationError


@dataclass
class TaxonomyNode:
    """One node of the taxonomy tree."""

    node_id: int
    name: str
    parent_id: Optional[int]
    depth: int
    children: List[int] = field(default_factory=list)
    #: corpus frequency mass (own + descendants), filled by set_corpus_counts
    frequency: float = 0.0


class Taxonomy:
    """A tree of :class:`TaxonomyNode` with tag leaves and IC support."""

    def __init__(self) -> None:
        self._nodes: Dict[int, TaxonomyNode] = {}
        self._root_id: Optional[int] = None
        self._name_index: Dict[str, int] = {}
        self._tag_leaves: Dict[str, List[int]] = {}
        self._counts_attached = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, parent: Optional[str] = None) -> TaxonomyNode:
        """Add a node; ``parent=None`` creates (or returns) the root."""
        if parent is None:
            if self._root_id is not None:
                return self._nodes[self._root_id]
            node = TaxonomyNode(node_id=0, name=name, parent_id=None, depth=0)
            self._nodes[0] = node
            self._root_id = 0
            self._name_index[name] = 0
            return node
        if parent not in self._name_index:
            raise ConfigurationError(f"unknown parent node {parent!r}")
        if name in self._name_index:
            return self._nodes[self._name_index[name]]
        parent_id = self._name_index[parent]
        node_id = len(self._nodes)
        node = TaxonomyNode(
            node_id=node_id,
            name=name,
            parent_id=parent_id,
            depth=self._nodes[parent_id].depth + 1,
        )
        self._nodes[node_id] = node
        self._nodes[parent_id].children.append(node_id)
        self._name_index[name] = node_id
        return node

    def add_tag_leaf(self, tag: str, parent: str) -> TaxonomyNode:
        """Add a leaf for ``tag`` under ``parent`` (one leaf per sense)."""
        leaf_name = f"leaf::{parent}::{tag}"
        node = self.add_node(leaf_name, parent=parent)
        self._tag_leaves.setdefault(tag, [])
        if node.node_id not in self._tag_leaves[tag]:
            self._tag_leaves[tag].append(node.node_id)
        return node

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def root(self) -> TaxonomyNode:
        if self._root_id is None:
            raise ConfigurationError("taxonomy has no root")
        return self._nodes[self._root_id]

    def node(self, node_id: int) -> TaxonomyNode:
        return self._nodes[node_id]

    def node_by_name(self, name: str) -> TaxonomyNode:
        return self._nodes[self._name_index[name]]

    def contains_tag(self, tag: str) -> bool:
        return tag in self._tag_leaves

    def covered_tags(self) -> Tuple[str, ...]:
        """All tags with at least one leaf, sorted."""
        return tuple(sorted(self._tag_leaves))

    def senses(self, tag: str) -> List[int]:
        """Leaf node ids of every sense of ``tag``."""
        return list(self._tag_leaves.get(tag, []))

    def ancestors(self, node_id: int, include_self: bool = True) -> List[int]:
        """Node ids on the path from ``node_id`` up to the root."""
        path = []
        current: Optional[int] = node_id
        if not include_self:
            current = self._nodes[node_id].parent_id
        while current is not None:
            path.append(current)
            current = self._nodes[current].parent_id
        return path

    def lowest_common_subsumer(self, node_a: int, node_b: int) -> int:
        """Deepest node that is an ancestor of both arguments."""
        ancestors_a = self.ancestors(node_a)
        ancestors_b = set(self.ancestors(node_b))
        for candidate in ancestors_a:  # ordered deepest-first
            if candidate in ancestors_b:
                return candidate
        assert self._root_id is not None
        return self._root_id

    # ------------------------------------------------------------------ #
    # Information content
    # ------------------------------------------------------------------ #
    def set_corpus_counts(
        self, tag_counts: Mapping[str, float], smoothing: float = 1.0
    ) -> None:
        """Attach corpus frequencies and propagate them up the tree.

        Each covered tag's count (plus ``smoothing``) is split evenly across
        its senses (the standard treatment when sense-tagged counts are
        unavailable) and every internal node accumulates the mass of its
        descendants, exactly like Resnik's corpus-based IC over WordNet.
        """
        if smoothing < 0:
            raise ConfigurationError("smoothing must be non-negative")
        for node in self._nodes.values():
            node.frequency = 0.0
        for tag, leaves in self._tag_leaves.items():
            mass = float(tag_counts.get(tag, 0.0)) + smoothing
            if not leaves:
                continue
            share = mass / len(leaves)
            for leaf_id in leaves:
                for ancestor_id in self.ancestors(leaf_id):
                    self._nodes[ancestor_id].frequency += share
        self._counts_attached = True

    def information_content(self, node_id: int) -> float:
        """Resnik IC: ``-log(freq(node) / freq(root))``."""
        if not self._counts_attached:
            raise ConfigurationError(
                "call set_corpus_counts() before computing information content"
            )
        root_frequency = self.root.frequency
        node_frequency = self._nodes[node_id].frequency
        if root_frequency <= 0 or node_frequency <= 0:
            return 0.0
        return -math.log(node_frequency / root_frequency)

    @property
    def has_counts(self) -> bool:
        return self._counts_attached


def build_taxonomy_from_vocabulary(
    vocabulary: Vocabulary,
    tag_counts: Optional[Mapping[str, float]] = None,
    root_name: str = "entity",
) -> Taxonomy:
    """Build the domain → aspect → concept → tag taxonomy for ``vocabulary``.

    Parameters
    ----------
    vocabulary:
        The generator vocabulary (latent structure).
    tag_counts:
        Optional corpus tag usage counts; when given the information content
        is attached immediately.
    """
    taxonomy = Taxonomy()
    taxonomy.add_node(root_name, parent=None)

    for concept in vocabulary.concepts:
        domain_node = f"domain::{concept.domain}"
        aspect_node = f"aspect::{concept.domain}::{concept.aspect}"
        concept_node = f"concept::{concept.name}"
        taxonomy.add_node(domain_node, parent=root_name)
        taxonomy.add_node(aspect_node, parent=domain_node)
        taxonomy.add_node(concept_node, parent=aspect_node)
        for tag in concept.surface_tags:
            taxonomy.add_tag_leaf(tag, parent=concept_node)

    # Polysemous tags gain an extra sense leaf under each listed concept.
    for tag, concept_names in vocabulary.polysemous_tags.items():
        for concept_name in concept_names:
            concept_node = f"concept::{concept_name}"
            try:
                taxonomy.node_by_name(concept_node)
            except KeyError:
                continue
            taxonomy.add_tag_leaf(tag, parent=concept_node)

    if tag_counts is not None:
        taxonomy.set_corpus_counts(tag_counts)
    return taxonomy
