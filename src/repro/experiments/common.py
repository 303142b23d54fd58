"""Shared infrastructure for the experiment drivers.

``prepare_corpus`` generates, cleans and packages one profile dataset
(together with its query workload and semantic lexicon) and memoises the
result per process, so regenerating several tables in one run (as
``python -m repro.experiments`` does) never rebuilds the same corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List

from repro.datasets.generator import SyntheticDataset
from repro.datasets.profiles import PROFILES, generate_profile_dataset
from repro.datasets.queries import QueryWorkload, build_query_workload
from repro.eval.reporting import format_series, format_table
from repro.semantics.lexicon import SemanticLexicon, build_lexicon
from repro.tagging.cleaning import CleaningConfig, CleaningReport, clean_folksonomy
from repro.tagging.folksonomy import Folksonomy
from repro.utils.errors import ConfigurationError

#: Default scale of the experiment corpora (kept laptop-friendly).
DEFAULT_SCALE = 1.0
#: Default number of simulated queries (the paper's study used 128).
DEFAULT_NUM_QUERIES = 64
#: Default minimum support of the cleaning pipeline (the paper uses 5).
DEFAULT_MIN_SUPPORT = 5


@dataclass
class PreparedCorpus:
    """One profile dataset, cleaned and paired with its evaluation artefacts."""

    profile_name: str
    dataset: SyntheticDataset
    raw: Folksonomy
    cleaned: Folksonomy
    cleaning_report: CleaningReport
    workload: QueryWorkload
    lexicon: SemanticLexicon


@dataclass
class ExperimentReport:
    """Uniform result object returned by every experiment driver."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    series_x: List[float] = field(default_factory=list)
    series_x_label: str = "N"
    notes: List[str] = field(default_factory=list)

    def render(self, digits: int = 4) -> str:
        """Plain-text rendering: rows first, then series, then notes."""
        parts: List[str] = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.rows, digits=digits))
        if self.series:
            parts.append(
                format_series(
                    self.series,
                    x_values=self.series_x,
                    x_label=self.series_x_label,
                    digits=digits,
                )
            )
        if self.notes:
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def row_lookup(self, key_column: str) -> Dict[object, Dict[str, object]]:
        """Index the rows by the value of ``key_column``."""
        return {row[key_column]: row for row in self.rows if key_column in row}


@lru_cache(maxsize=32)
def prepare_corpus(
    profile_name: str = "delicious",
    scale: float = DEFAULT_SCALE,
    seed: int = 7,
    num_queries: int = DEFAULT_NUM_QUERIES,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> PreparedCorpus:
    """Generate + clean one profile corpus and build its workload and lexicon.

    The result is cached per parameter combination for the lifetime of the
    process, which keeps multi-table runs fast.
    """
    if profile_name not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile_name!r}; available: {sorted(PROFILES)}"
        )
    dataset = generate_profile_dataset(
        PROFILES[profile_name], scale=scale, seed=seed, include_noise_tags=True
    )
    cleaned, report = clean_folksonomy(
        dataset.folksonomy, CleaningConfig(min_assignments=min_support)
    )
    workload = build_query_workload(
        dataset, num_queries=num_queries, seed=seed + 1000, folksonomy=cleaned
    )
    lexicon = build_lexicon(dataset, folksonomy=cleaned)
    return PreparedCorpus(
        profile_name=profile_name,
        dataset=dataset,
        raw=dataset.folksonomy,
        cleaned=cleaned,
        cleaning_report=report,
        workload=workload,
        lexicon=lexicon,
    )
