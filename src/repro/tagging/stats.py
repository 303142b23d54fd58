"""Corpus statistics (the quantities reported in Table II)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.tagging.folksonomy import Folksonomy


@dataclass(frozen=True)
class DatasetStatistics:
    """The |U|, |T|, |R|, |Y| summary of a folksonomy plus derived figures."""

    name: str
    label: str
    num_users: int
    num_tags: int
    num_resources: int
    num_assignments: int

    @property
    def tensor_cells(self) -> int:
        """Number of cells of the full third-order tensor ``F``."""
        return self.num_users * self.num_tags * self.num_resources

    @property
    def density(self) -> float:
        """Fraction of tensor cells that are non-zero."""
        cells = self.tensor_cells
        return self.num_assignments / cells if cells else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form used by the reporting layer."""
        return {
            "name": self.name,
            "label": self.label,
            "|U|": self.num_users,
            "|T|": self.num_tags,
            "|R|": self.num_resources,
            "|Y|": self.num_assignments,
            "density": self.density,
        }

    def as_row(self) -> Dict[str, object]:
        """Row dictionary matching the layout of Table II."""
        return {
            "Dataset": self.name,
            "Variant": self.label,
            "|U|": self.num_users,
            "|T|": self.num_tags,
            "|R|": self.num_resources,
            "|Y|": self.num_assignments,
        }


def compute_statistics(folksonomy: Folksonomy, label: str = "") -> DatasetStatistics:
    """Compute the Table II statistics for a folksonomy."""
    return DatasetStatistics(
        name=folksonomy.name,
        label=label,
        num_users=folksonomy.num_users,
        num_tags=folksonomy.num_tags,
        num_resources=folksonomy.num_resources,
        num_assignments=folksonomy.num_assignments,
    )


def tag_frequency_distribution(folksonomy: Folksonomy) -> np.ndarray:
    """Sorted (descending) per-tag assignment counts.

    Useful for checking that synthetic corpora exhibit the heavy-tailed tag
    usage real folksonomies have.
    """
    _, tag_counts, _ = folksonomy.assignment_counts()
    return np.array(sorted(tag_counts.values(), reverse=True), dtype=float)


def gini_coefficient(counts: np.ndarray) -> float:
    """Gini coefficient of a count distribution (0 = uniform, 1 = maximally skewed).

    Used by dataset-generator tests to assert the synthetic corpora are
    realistically skewed rather than uniform.
    """
    counts = np.sort(np.asarray(counts, dtype=float))
    if counts.size == 0:
        return 0.0
    total = counts.sum()
    if total <= 0:
        return 0.0
    n = counts.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.sum(ranks * counts) / (n * total)) - (n + 1) / n)
