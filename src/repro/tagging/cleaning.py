"""Dataset cleaning pipeline (Section VI-A of the paper).

The paper cleans the three raw crawls in three steps before building the
tensor:

1. remove system-generated tags (``system:imported``, ``system:unfiled``, ...),
2. lower-case every tag,
3. iteratively drop users, tags and resources that appear in fewer than a
   minimum number of assignments (5 in the paper), until a fixed point is
   reached — the classic *p-core* style pruning also used by Jaschke et al.

:func:`clean_folksonomy` reproduces this pipeline and reports before/after
statistics so Table II can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.tagging.folksonomy import Folksonomy, _distinct_rows, _remap
from repro.tagging.stats import DatasetStatistics, compute_statistics
from repro.utils.errors import ConfigurationError

#: Tag prefixes treated as system-generated and always removed.
DEFAULT_SYSTEM_TAG_PREFIXES: Tuple[str, ...] = ("system:", "imported:", "for:")

#: Exact tag labels treated as system-generated noise.
DEFAULT_SYSTEM_TAGS: Tuple[str, ...] = (
    "system:imported",
    "system:unfiled",
    "imported",
    "unfiled",
    "no-tag",
    "nolabel",
)


@dataclass(frozen=True)
class CleaningConfig:
    """Parameters of the cleaning pipeline.

    Attributes
    ----------
    min_assignments:
        Minimum number of assignments a user, tag or resource must appear in
        to be kept (the paper uses 5).
    lowercase:
        Whether tag labels are folded to lower case.
    strip_whitespace:
        Whether surrounding whitespace is stripped from tag labels.
    system_tag_prefixes / system_tags:
        Tags matching any of these prefixes or exact labels are removed
        before support counting.
    max_iterations:
        Safety bound on the iterative pruning loop.
    """

    min_assignments: int = 5
    lowercase: bool = True
    strip_whitespace: bool = True
    system_tag_prefixes: Tuple[str, ...] = DEFAULT_SYSTEM_TAG_PREFIXES
    system_tags: Tuple[str, ...] = DEFAULT_SYSTEM_TAGS
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if self.min_assignments < 1:
            raise ConfigurationError(
                f"min_assignments must be >= 1, got {self.min_assignments}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


@dataclass
class CleaningReport:
    """Before/after statistics and per-step bookkeeping of a cleaning run."""

    raw: DatasetStatistics
    cleaned: DatasetStatistics
    removed_system_assignments: int = 0
    pruning_iterations: int = 0
    removed_users: int = 0
    removed_tags: int = 0
    removed_resources: int = 0
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable one-paragraph summary of the run."""
        return (
            f"cleaning {self.raw.name}: |Y| {self.raw.num_assignments} -> "
            f"{self.cleaned.num_assignments} "
            f"(system-tag assignments removed: {self.removed_system_assignments}, "
            f"pruning iterations: {self.pruning_iterations}, "
            f"dropped users/tags/resources: {self.removed_users}/"
            f"{self.removed_tags}/{self.removed_resources})"
        )


def normalize_tag(tag: str, config: CleaningConfig) -> str:
    """Apply label normalisation (case folding, whitespace stripping)."""
    if config.strip_whitespace:
        tag = tag.strip()
    if config.lowercase:
        tag = tag.lower()
    return tag


def is_system_tag(tag: str, config: CleaningConfig) -> bool:
    """Whether ``tag`` is considered system-generated under ``config``."""
    lowered = tag.lower()
    if lowered in {t.lower() for t in config.system_tags}:
        return True
    return any(lowered.startswith(prefix) for prefix in config.system_tag_prefixes)


def clean_folksonomy(
    folksonomy: Folksonomy,
    config: Optional[CleaningConfig] = None,
) -> Tuple[Folksonomy, CleaningReport]:
    """Run the full cleaning pipeline and return the cleaned dataset.

    Tags are normalised and classified once per distinct label; removal,
    deduplication and pruning are passes over the id columns.

    Returns
    -------
    (cleaned, report):
        ``cleaned`` is a new :class:`Folksonomy`; ``report`` records the raw
        and cleaned statistics plus what was removed at each stage.
    """
    config = config or CleaningConfig()
    raw_stats = compute_statistics(folksonomy, label="raw")

    normalized = [normalize_tag(tag, config) for tag in folksonomy.tags]
    tags = tuple(
        sorted({tag for tag in normalized if tag and not is_system_tag(tag, config)})
    )
    tag_ids = _remap(normalized, tags)
    users, tag_column, resources = folksonomy.columns
    kept = tag_ids[tag_column] >= 0
    removed_system = int(kept.size - np.count_nonzero(kept))
    vocabularies = (folksonomy.users, tags, folksonomy.resources)
    columns = (users[kept], tag_ids[tag_column[kept]], resources[kept])
    deduped = Folksonomy._from_rows(
        vocabularies, _distinct_rows(vocabularies, columns), folksonomy.name
    )

    # Pruning masks sorted distinct rows, so they stay sorted and distinct.
    pruned, iterations = _prune_low_support(deduped.columns, config)
    cleaned = Folksonomy._from_rows(
        (deduped.users, deduped.tags, deduped.resources), pruned, folksonomy.name
    )
    cleaned_stats = compute_statistics(cleaned, label="cleaned")

    report = CleaningReport(
        raw=raw_stats,
        cleaned=cleaned_stats,
        removed_system_assignments=removed_system,
        pruning_iterations=iterations,
        removed_users=raw_stats.num_users - cleaned_stats.num_users,
        removed_tags=raw_stats.num_tags - cleaned_stats.num_tags,
        removed_resources=raw_stats.num_resources - cleaned_stats.num_resources,
    )
    if not cleaned.num_assignments:
        report.notes.append(
            "cleaning removed every assignment; consider lowering min_assignments"
        )
    return cleaned, report


def _prune_low_support(
    columns: Sequence[np.ndarray],
    config: CleaningConfig,
) -> Tuple[List[np.ndarray], int]:
    """Iteratively drop low-support users/tags/resources until stable."""
    current = list(columns)
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        keep = np.ones(current[0].size, dtype=bool)
        for column in current:
            keep &= (np.bincount(column) >= config.min_assignments)[column]
        if keep.all():
            break
        current = [column[keep] for column in current]
        if not current[0].size:
            break
    return current, iterations
